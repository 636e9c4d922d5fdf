//! Regenerates **Fig. 7** of the paper: the GPS spoofing parameters (start
//! time `t_s` and duration `Δt`) that SwarmFuzz's gradient search discovers,
//! per swarm configuration.
//!
//! The paper reports an average start time of 6.91 s and an average duration
//! of 10.33 s across configurations (their missions clock ~120 s; ours are
//! faster, so absolute values differ — the box-plot *structure* per
//! configuration is what is reproduced).

use swarm_math::stats::{mean, percentile};
use swarmfuzz::campaign::SwarmConfig;
use swarmfuzz::report::{spoof_param_stats, write_csv};
use swarmfuzz_bench::{paper_campaign_report, print_table, results_dir};

fn main() {
    let report = paper_campaign_report();
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();

    for &deviation in &[5.0, 10.0] {
        for &n in &[5usize, 10, 15] {
            let config = SwarmConfig { swarm_size: n, deviation };
            let missions = report.for_config(config);
            let label = format!("{n}d-{deviation:.0}m");
            match spoof_param_stats(&missions) {
                Some(stats) => {
                    let starts: Vec<f64> = missions
                        .iter()
                        .filter_map(|m| m.finding.as_ref())
                        .map(|f| f.start)
                        .collect();
                    let durations: Vec<f64> = missions
                        .iter()
                        .filter_map(|m| m.finding.as_ref())
                        .map(|f| f.duration)
                        .collect();
                    rows.push(vec![
                        label.clone(),
                        stats.count.to_string(),
                        format!(
                            "{:.1} [{:.1}..{:.1}]",
                            stats.mean_start, stats.start_range.0, stats.start_range.1
                        ),
                        format!(
                            "{:.1} [{:.1}..{:.1}]",
                            stats.mean_duration, stats.duration_range.0, stats.duration_range.1
                        ),
                    ]);
                    csv_rows.push(vec![
                        n.to_string(),
                        deviation.to_string(),
                        stats.count.to_string(),
                        format!("{:.3}", stats.mean_start),
                        format!("{:.3}", percentile(&starts, 50.0).unwrap_or(f64::NAN)),
                        format!("{:.3}", stats.mean_duration),
                        format!("{:.3}", percentile(&durations, 50.0).unwrap_or(f64::NAN)),
                    ]);
                }
                None => rows.push(vec![label, "0".into(), "-".into(), "-".into()]),
            }
        }
    }
    print_table(
        "Fig 7: spoofing parameters found by SwarmFuzz (mean [min..max], seconds)",
        &["config", "SPVs", "start time t_s", "duration Δt"],
        &rows,
    );

    let all: Vec<_> = report.missions.iter().filter_map(|m| m.finding.as_ref()).collect();
    if !all.is_empty() {
        let starts: Vec<f64> = all.iter().map(|f| f.start).collect();
        let durations: Vec<f64> = all.iter().map(|f| f.duration).collect();
        println!(
            "overall: mean t_s = {:.2} s, mean Δt = {:.2} s over {} findings",
            mean(&starts).expect("non-empty"),
            mean(&durations).expect("non-empty"),
            all.len()
        );
        println!("paper Fig. 7: mean t_s = 6.91 s, mean Δt = 10.33 s (on ~120 s missions)");
    }

    let path = results_dir().join("fig7_spoof_params.csv");
    write_csv(
        &path,
        &["swarm_size", "deviation_m", "findings", "mean_ts", "median_ts", "mean_dt", "median_dt"],
        &csv_rows,
    )
    .expect("write fig7 csv");
    println!("csv: {}", path.display());
}
