//! Extension experiment: stealthiness of the discovered attacks against an
//! innovation-based GPS spoofing monitor (the paper's §II argument that
//! defenses must ignore 0–10 m deviations to avoid false positives).
//!
//! For every SPV the campaign found, the target drone's GPS stream is
//! screened by monitors with different thresholds (with realistic GPS noise
//! layered on). The bench reports, per threshold: the false-positive rate on
//! clean missions and the detection rate on attacked missions, at 5 m and
//! 10 m spoofing.

use swarm_sim::Simulation;
use swarmfuzz::campaign::campaign_mission;
use swarmfuzz::defense::screen_attack;
use swarmfuzz::report::write_csv;
use swarmfuzz_bench::{paper_campaign_report, paper_controller, percent, print_table, results_dir};

/// Standard-GPS-noise level used for the screening streams (m, 1σ).
const GPS_NOISE_STD: f64 = 1.5;

fn main() {
    let report = paper_campaign_report();
    let controller = paper_controller();
    let thresholds = [2.0f64, 4.0, 6.0, 8.0, 10.0, 12.0];

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for &threshold in &thresholds {
        let mut detected = [0usize; 2]; // [5 m, 10 m]
        let mut total = [0usize; 2];
        let mut false_alarms = 0usize;
        let mut clean_total = 0usize;

        for mission in report.missions.iter().filter(|m| m.success) {
            let Some(finding) = &mission.finding else { continue };
            let spec = campaign_mission(mission.config, mission.mission_seed);
            let axis = spec.mission_axis();
            let sim = Simulation::new(spec, controller).expect("valid spec");
            let out = sim
                .run(Some(
                    &swarm_sim::spoof::SpoofingAttack::new(
                        finding.seed.target,
                        finding.seed.direction,
                        finding.start,
                        finding.duration,
                        finding.deviation,
                    )
                    .expect("valid attack"),
                ))
                .expect("attacked mission runs");
            let positions = out.record.trajectory(finding.seed.target);
            let velocities: Vec<_> = (0..out.record.len())
                .map(|t| out.record.velocities_at(t)[finding.seed.target.index()])
                .collect();
            let dt = out.record.sample_dt();
            let atk = *finding;
            let screen = screen_attack(
                threshold,
                &positions,
                &velocities,
                dt,
                |t| {
                    if t >= atk.start && t < atk.start + atk.duration {
                        swarm_sim::spoof::SpoofDirection::offset_direction(atk.seed.direction, axis)
                            * atk.deviation
                    } else {
                        swarm_math::Vec3::ZERO
                    }
                },
                GPS_NOISE_STD,
                mission.mission_seed,
            );
            let bucket = usize::from(finding.deviation > 7.5);
            total[bucket] += 1;
            if screen.detected {
                detected[bucket] += 1;
            }

            // Clean-mission screening for the false-positive rate (same
            // trajectory, no offset).
            let clean = screen_attack(
                threshold,
                &positions,
                &velocities,
                dt,
                |_| swarm_math::Vec3::ZERO,
                GPS_NOISE_STD,
                mission.mission_seed ^ 0x5A5A,
            );
            clean_total += 1;
            if clean.detected {
                false_alarms += 1;
            }
        }

        let rate = |d: usize, t: usize| {
            if t == 0 {
                "-".to_string()
            } else {
                percent(d as f64 / t as f64)
            }
        };
        rows.push(vec![
            format!("{threshold:.0} m"),
            rate(false_alarms, clean_total),
            rate(detected[0], total[0]),
            rate(detected[1], total[1]),
        ]);
        csv_rows.push(vec![
            format!("{threshold}"),
            format!("{}", false_alarms as f64 / clean_total.max(1) as f64),
            format!("{}", detected[0] as f64 / total[0].max(1) as f64),
            format!("{}", detected[1] as f64 / total[1].max(1) as f64),
        ]);
    }
    print_table(
        &format!("Defense evasion: innovation monitor, {GPS_NOISE_STD} m GPS noise"),
        &["threshold", "false alarms (clean)", "detected (5 m)", "detected (10 m)"],
        &rows,
    );
    println!(
        "\nreading the table: thresholds low enough to catch 5-10 m spoofing also fire \
         on clean missions — the paper's stealthiness argument in numbers."
    );
    let path = results_dir().join("defense_evasion.csv");
    write_csv(&path, &["threshold_m", "false_positive_rate", "detect_5m", "detect_10m"], &csv_rows)
        .expect("write csv");
    println!("csv: {}", path.display());
}
