//! Regenerates **Fig. 5** of the paper: the convex shape of the objective
//! function `f(t_s, Δt)` — the victim's minimum distance to the obstacle as
//! a function of the spoofing duration (and start time).
//!
//! The paper argues: too short a spoofing window and the victim still misses
//! the obstacle on its original side; too long and it overshoots to the
//! other side; the collision lies at the bottom of a valley in between. This
//! bench sweeps Δt at the fuzzer-chosen t_s (and also sweeps t_s at the
//! chosen Δt) and prints the resulting objective curve. It calls the Δt
//! curve a valley only when f is above its minimum at both ends of the
//! sweep, and otherwise names the shape it has.

use swarm_sim::mission::MissionSpec;
use swarm_sim::Simulation;
use swarmfuzz::objective::Objective;
use swarmfuzz::report::write_csv;
use swarmfuzz::{Fuzzer, FuzzerConfig};
use swarmfuzz_bench::{paper_controller, results_dir};

fn main() {
    let controller = paper_controller();
    let fuzzer = Fuzzer::new(controller, FuzzerConfig::swarmfuzz(10.0));

    // Find an exploitable mission so the valley bottom actually reaches 0.
    let mut found = None;
    for seed in 0..120u64 {
        let spec = MissionSpec::paper_delivery(10, seed);
        if let Ok(report) = fuzzer.fuzz(&spec) {
            if report.is_success() {
                found = Some((spec, report));
                break;
            }
        }
    }
    let Some((spec, report)) = found else {
        println!("Fig 5: no exploitable mission found in seed range");
        return;
    };
    let finding = report.finding.expect("success");
    println!(
        "Fig 5 scenario: {} drones, seed {}, seed pair {}->{} ({} spoofing), t_s = {:.1} s, Δt* = {:.1} s",
        spec.swarm_size,
        spec.seed,
        finding.seed.target,
        finding.seed.victim,
        finding.seed.direction,
        finding.start,
        finding.duration
    );

    let sim = Simulation::new(spec, controller).expect("valid spec");
    let objective = Objective::new(&sim, finding.seed, finding.deviation);

    let mut rows = Vec::new();
    println!("\nobjective f(t_s fixed, Δt) — victim distance to obstacle (<= 0 means collision):");
    let mut valley = Vec::new();
    for i in 0..=16 {
        let dt = i as f64 * 2.5;
        let e = objective.evaluate(finding.start, dt).expect("evaluates");
        valley.push(e.value);
        println!("  Δt = {dt:5.1} s  ->  f = {:7.2} m", e.value);
        rows.push(vec!["dt_sweep".into(), format!("{dt:.1}"), format!("{:.4}", e.value)]);
    }
    // Shape check: a valley needs f above its minimum at both ends of the
    // sweep ("too short" on one side, "too long" on the other).
    let min = valley.iter().copied().fold(f64::INFINITY, f64::min);
    let first = valley.iter().position(|&f| f == min).expect("non-empty sweep");
    let last = valley.iter().rposition(|&f| f == min).expect("non-empty sweep");
    let shape = match (valley[0] > min, valley[valley.len() - 1] > min) {
        (true, true) => "above it at both ends — convex valley as in Fig. 5-(e)",
        (true, false) => "at it at the longest Δt — no overshoot side, not a valley",
        (false, true) => "at it at the shortest Δt — no too-short side, not a valley",
        (false, false) => "at it at both ends — not a valley",
    };
    println!(
        "\nminimum f = {min:.2} m at Δt = {:.1}..{:.1} s: {shape}",
        first as f64 * 2.5,
        last as f64 * 2.5
    );

    println!("\nobjective f(t_s, Δt fixed):");
    for i in 0..=12 {
        let ts = (finding.start - 15.0).max(0.0) + i as f64 * 2.5;
        let e = objective.evaluate(ts, finding.duration).expect("evaluates");
        println!("  t_s = {ts:5.1} s  ->  f = {:7.2} m", e.value);
        rows.push(vec!["ts_sweep".into(), format!("{ts:.1}"), format!("{:.4}", e.value)]);
    }

    let path = results_dir().join("fig5_convexity.csv");
    write_csv(&path, &["sweep", "parameter_s", "objective_m"], &rows).expect("write fig5 csv");
    println!("csv: {}", path.display());
}
