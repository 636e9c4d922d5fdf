//! Regenerates **Fig. 6** of the paper:
//!
//! * Fig. 6a–c — cumulative success rate of SwarmFuzz vs. the mission VDO
//!   (the victim drone's closest distance to the obstacle in the no-attack
//!   run), per swarm size and spoofing distance;
//! * Fig. 6d — the empirical CDF of mission VDOs per swarm size.
//!
//! Expected shape: cumulative success rate decreases with VDO (low-VDO
//! missions are nearly always exploitable); higher spoofing distance sits
//! above lower; larger swarms have stochastically smaller VDOs (their CDFs
//! dominate).

use swarmfuzz::campaign::SwarmConfig;
use swarmfuzz::report::{vdo_cdf, vdo_success_curve, write_csv};
use swarmfuzz_bench::{paper_campaign_report, results_dir};

fn main() {
    let report = paper_campaign_report();
    let thresholds: Vec<f64> = (1..=16).map(|i| i as f64 * 0.5).collect();

    let mut rows = Vec::new();
    println!("=== Fig 6a-c: cumulative success rate vs VDO threshold ===");
    for &n in &[5usize, 10, 15] {
        println!("\n{n}-drone swarm:");
        print!("  VDO <=    ");
        for t in &thresholds {
            print!("{t:5.1}");
        }
        println!();
        for &deviation in &[5.0, 10.0] {
            let config = SwarmConfig { swarm_size: n, deviation };
            let missions = report.for_config(config);
            let curve = vdo_success_curve(&missions, &thresholds);
            print!("  {deviation:2.0}m spoof ");
            for (t, rate) in &curve {
                match rate {
                    Some(r) => print!("{:4.0}%", r * 100.0),
                    None => print!("    -"),
                }
                rows.push(vec![
                    n.to_string(),
                    deviation.to_string(),
                    format!("{t:.1}"),
                    rate.map_or(String::new(), |r| format!("{r:.4}")),
                ]);
            }
            println!();
        }
    }
    println!(
        "\npaper Fig. 6: curves decrease with VDO; e.g. 5-drone missions with VDO <= 3 m \
         reach 100% success even at 5 m spoofing (point 'B')."
    );
    let path = results_dir().join("fig6_success_vs_vdo.csv");
    write_csv(&path, &["swarm_size", "deviation_m", "vdo_threshold_m", "cum_success_rate"], &rows)
        .expect("write fig6abc csv");
    println!("csv: {}", path.display());

    println!("\n=== Fig 6d: CDF of mission VDOs per swarm size ===");
    let mut cdf_rows = Vec::new();
    print!("VDO <=      ");
    for t in &thresholds {
        print!("{t:5.1}");
    }
    println!();
    for &n in &[5usize, 10, 15] {
        // Pool both deviations: VDO comes from the unattacked baseline.
        let missions: Vec<_> =
            report.missions.iter().filter(|m| m.config.swarm_size == n).collect();
        let cdf = vdo_cdf(&missions);
        print!("{n:2}-drone    ");
        for &t in &thresholds {
            let f = cdf.eval(t);
            print!("{:4.0}%", f * 100.0);
            cdf_rows.push(vec![n.to_string(), format!("{t:.1}"), format!("{f:.4}")]);
        }
        println!();
    }
    println!(
        "\npaper Fig. 6d: P(VDO <= 4 m) is ~20% for 5 drones, ~65% for 10, ~98% for 15 — \
         larger swarms fly closer to the obstacle."
    );
    let path = results_dir().join("fig6d_vdo_cdf.csv");
    write_csv(&path, &["swarm_size", "vdo_threshold_m", "cdf"], &cdf_rows)
        .expect("write fig6d csv");
    println!("csv: {}", path.display());
}
