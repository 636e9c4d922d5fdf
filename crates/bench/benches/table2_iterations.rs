//! Regenerates **Table II** of the paper: average number of search
//! iterations (simulated missions) SwarmFuzz spends per mission, across the
//! six swarm configurations.
//!
//! Paper values for reference (average iterations to find SPVs):
//!
//! | spoofing | 5 drones | 10 drones | 15 drones |
//! |----------|----------|-----------|-----------|
//! | 5 m      | 6.33     | 9.3       | 12.65     |
//! | 10 m     | 6.93     | 9.91      | 13.47     |
//!
//! We report two aggregates: iterations over *successful* missions (closest
//! to the paper's phrasing "taken ... to find SPVs") and over all missions
//! (bounded by the budget of 20).

use swarmfuzz::campaign::SwarmConfig;
use swarmfuzz::report::write_csv;
use swarmfuzz_bench::{paper_campaign_report, print_table, results_dir};

fn main() {
    let report = paper_campaign_report();

    let success_only = |config: SwarmConfig| -> Option<f64> {
        let rows: Vec<f64> = report
            .for_config(config)
            .iter()
            .filter(|m| m.success)
            .map(|m| m.evaluations as f64)
            .collect();
        (!rows.is_empty()).then(|| rows.iter().sum::<f64>() / rows.len() as f64)
    };

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for &deviation in &[5.0, 10.0] {
        let mut row = vec![format!("{deviation:.0}m-spoofing")];
        for &n in &[5usize, 10, 15] {
            let config = SwarmConfig { swarm_size: n, deviation };
            let succ = success_only(config);
            let all = report.mean_iterations(config);
            row.push(match (succ, all) {
                (Some(s), Some(a)) => format!("{s:.2} ({a:.2})"),
                (None, Some(a)) => format!("- ({a:.2})"),
                _ => "-".into(),
            });
            csv_rows.push(vec![
                n.to_string(),
                deviation.to_string(),
                succ.map_or(String::new(), |s| format!("{s:.3}")),
                all.map_or(String::new(), |a| format!("{a:.3}")),
            ]);
        }
        rows.push(row);
    }
    print_table(
        "Table II: avg search iterations to find SPVs (all-missions avg in parentheses)",
        &["", "5-drone", "10-drone", "15-drone"],
        &rows,
    );
    println!("paper Table II: 5m: 6.33/9.3/12.65   10m: 6.93/9.91/13.47");
    println!("(every iteration = one simulated mission; budget = 20)");

    let path = results_dir().join("table2_iterations.csv");
    write_csv(&path, &["swarm_size", "deviation_m", "iters_successful", "iters_all"], &csv_rows)
        .expect("write table2 csv");
    println!("csv: {}", path.display());
}
