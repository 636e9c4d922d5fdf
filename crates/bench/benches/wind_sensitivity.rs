//! Extension experiment: do the discovered SPVs survive wind?
//!
//! The paper's simulations fly in still air. Real attackers do not get to
//! choose the weather, so this bench replays every SPV the campaign found
//! under increasing gust levels and reports how many still produce the
//! victim collision — a robustness measure for the attacks (and a proxy for
//! how conservative the still-air success rates are).

use swarm_math::Vec3;
use swarm_sim::spoof::SpoofingAttack;
use swarm_sim::wind::WindConfig;
use swarm_sim::Simulation;
use swarmfuzz::campaign::campaign_mission;
use swarmfuzz::report::write_csv;
use swarmfuzz_bench::{paper_campaign_report, paper_controller, percent, print_table, results_dir};

fn main() {
    let report = paper_campaign_report();
    let controller = paper_controller();
    let levels: [(f64, f64); 4] = [(0.0, 0.0), (0.5, 0.3), (1.0, 0.6), (2.0, 1.0)];

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for (mean, gust) in levels {
        let mut survived = 0usize;
        let mut total = 0usize;
        for mission in report.missions.iter().filter(|m| m.success) {
            let Some(finding) = &mission.finding else { continue };
            let mut spec = campaign_mission(mission.config, mission.mission_seed);
            spec.wind = WindConfig {
                mean: Vec3::new(0.0, mean, 0.0),
                gust_std: gust,
                gust_time_constant: 3.0,
            };
            let sim = Simulation::new(spec, controller).expect("valid spec");
            let attack = SpoofingAttack::new(
                finding.seed.target,
                finding.seed.direction,
                finding.start,
                finding.duration,
                finding.deviation,
            )
            .expect("valid attack");
            let out = sim.run(Some(&attack)).expect("mission runs");
            total += 1;
            if out.spv_collision(finding.seed.target).is_some() {
                survived += 1;
            }
        }
        let rate = survived as f64 / total.max(1) as f64;
        rows.push(vec![
            format!("{mean:.1} m/s + {gust:.1} m/s gusts"),
            percent(rate),
            format!("{survived}/{total}"),
        ]);
        csv_rows.push(vec![
            format!("{mean}"),
            format!("{gust}"),
            format!("{rate:.4}"),
            total.to_string(),
        ]);
    }
    print_table(
        "Wind sensitivity: SPV replays that still crash the victim",
        &["crosswind", "survival", "count"],
        &rows,
    );
    println!("\n(0 m/s row is the sanity check: every finding must replay in still air)");
    let path = results_dir().join("wind_sensitivity.csv");
    write_csv(&path, &["mean_wind", "gust_std", "survival_rate", "findings"], &csv_rows)
        .expect("write csv");
    println!("csv: {}", path.display());
}
