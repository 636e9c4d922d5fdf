//! Quickstart: fuzz one delivery mission for Swarm Propagation
//! Vulnerabilities.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the paper's 10-drone delivery mission, runs SwarmFuzz with a 10 m
//! GPS spoofing deviation, and prints the discovered attack (if any).

use swarm_control::{VasarhelyiController, VasarhelyiParams};
use swarm_sim::mission::MissionSpec;
use swarmfuzz::{FuzzError, Fuzzer, FuzzerConfig};

fn main() -> Result<(), FuzzError> {
    // The swarm controller under test: the Vásárhelyi flocking algorithm
    // (the paper's "Vicsek algorithm") with the reproduction's tuned
    // parameters.
    let controller = VasarhelyiController::new(VasarhelyiParams::default());

    // The paper's delivery mission: 233.5 m corridor, one on-path obstacle
    // at the half-way mark, randomized start layout. Seed 0's unattacked
    // flight is collision-free, as the fuzzer requires.
    let spec = MissionSpec::paper_delivery(10, /* mission seed */ 0);

    // SwarmFuzz = SVG seed scheduling + gradient-guided window search,
    // capped at 20 search iterations (simulated missions).
    let fuzzer = Fuzzer::new(controller, FuzzerConfig::swarmfuzz(10.0));

    let report = fuzzer.fuzz(&spec)?;
    println!(
        "mission VDO: {:.2} m (drone {} passes closest to the obstacle)",
        report.mission_vdo,
        report.vdo_drone.index()
    );
    println!("search iterations used: {} across {} seeds", report.evaluations, report.seeds_tried);

    match report.finding {
        Some(f) => {
            println!("SPV FOUND:");
            println!("  spoof target : {}", f.seed.target);
            println!("  direction    : {} (θ = {})", f.seed.direction, f.seed.direction.theta());
            println!("  window       : t_s = {:.1} s, Δt = {:.1} s", f.start, f.duration);
            println!("  deviation    : {:.0} m", f.deviation);
            println!(
                "  result       : {} crashes into the obstacle at t = {:.1} s",
                f.actual_victim, f.collision_time
            );
        }
        None => println!("no SPV found — this mission is resilient at 10 m spoofing"),
    }
    Ok(())
}
