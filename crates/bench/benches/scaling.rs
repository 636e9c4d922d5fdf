//! Large-swarm scaling: the brute-force O(n²) neighbor pipeline vs the
//! spatial-grid pipeline at N ∈ {10, 25, 50, 100, 200, 500, 1000}.
//!
//! Two execution modes per size, required to produce bit-identical flight
//! records (the differential contract `tests/grid_equivalence.rs` pins,
//! re-asserted here on the exact configurations being benchmarked):
//!
//! - **brute**: `SpatialPolicy::ForceOff` — the pre-grid baseline.
//! - **grid**: `SpatialPolicy::Auto`, the default — the lazy collision
//!   broad phase at every size, plus grid comms delivery from
//!   `GRID_AUTO_THRESHOLD` (32) drones up, on the same per-drone step loop.
//!   Below the threshold the mission rows therefore time dense comms with
//!   the broad phase, while the kernel rows still time grid comms, which
//!   the runner does not fly at those sizes.
//!
//! Two metric families per size:
//!
//! - **mission**: whole-mission ticks/sec per mode. This is what a user of
//!   the simulator experiences, but it is Amdahl-capped: GPS sampling, the
//!   controller, physics integration and recording are shared work (see
//!   EXPERIMENTS.md for the measured breakdown).
//! - **kernel**: ticks/sec of the neighbor-search machinery alone
//!   ([`swarmfuzz_bench::NeighborKernel`]) on two consecutive mid-mission
//!   ticks. This isolates exactly the work the grid replaces and is where
//!   the asymptotic win shows.
//!
//! The N=200 speedup floors (kernel ≥ 5×, mission ≥ 1.5×) are gated by the
//! micro bench's paired-ratio harness, which times the same flight and
//! kernel; this ladder only records the curve.
//!
//! Modes:
//! - full (default): all sizes, 10 s missions.
//! - smoke (`--smoke`): N=50 only, 2 s mission — a CI-friendly wiring
//!   check (both modes, identity asserted).
//!
//! Per-size rows go to `bench_results/scaling.csv`:
//! n,mode,physics_steps,wall_ms,ticks_per_sec,mission_speedup,kernel_us_per_tick,kernel_speedup

use std::time::Instant;

use swarm_sim::scenario;
use swarm_sim::{MissionOutcome, SimConfig, Simulation, SpatialPolicy};
use swarmfuzz_bench::{paper_controller, results_dir, time_batch, NeighborKernel};

struct Timed {
    outcome: MissionOutcome,
    physics_steps: u64,
    wall_ms: f64,
}

impl Timed {
    fn tps(&self) -> f64 {
        self.physics_steps as f64 / (self.wall_ms / 1e3)
    }
}

/// Run the mission `reps` times with the given spatial policy, keeping the
/// fastest wall time (minimum is the standard estimator for a deterministic
/// workload under scheduler noise).
fn run_timed(spec: &swarm_sim::mission::MissionSpec, policy: SpatialPolicy, reps: usize) -> Timed {
    let sim = Simulation::new(spec.clone(), paper_controller())
        .unwrap()
        .with_config(SimConfig { spatial: policy });
    let mut best: Option<Timed> = None;
    for _ in 0..reps {
        let start = Instant::now();
        let outcome = sim.run(None).unwrap();
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let physics_steps = (outcome.record.duration() / spec.physics_dt).round() as u64 + 1;
        if best.as_ref().is_none_or(|b| wall_ms < b.wall_ms) {
            best = Some(Timed { outcome, physics_steps, wall_ms });
        }
    }
    best.unwrap()
}

/// µs per control period of the neighbor-search kernel, (brute, grid),
/// each the minimum over `reps` alternating calls (one call covers two
/// periods).
fn kernel_us(kernel: &NeighborKernel, reps: usize) -> (f64, f64) {
    let (mut brute, mut grid) = (kernel.brute(), kernel.grid());
    let (mut brute_best, mut grid_best) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        brute_best = brute_best.min(time_batch(1, &mut brute) / 2e3);
        grid_best = grid_best.min(time_batch(1, &mut grid) / 2e3);
    }
    (brute_best, grid_best)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    let (sizes, duration, reps): (&[usize], f64, usize) =
        if smoke { (&[50], 2.0, 1) } else { (&[10, 25, 50, 100, 200, 500, 1000], 10.0, 2) };
    let mode = if smoke { "smoke" } else { "full" };
    println!("scaling bench ({mode}): sizes {sizes:?}, {duration} s missions");
    println!(
        "{:>5} {:>13} {:>13} {:>9} {:>12} {:>12} {:>9}",
        "n", "brute tick/s", "grid tick/s", "mission", "brute krn us", "grid krn us", "kernel"
    );

    let mut csv = String::from(
        "n,mode,physics_steps,wall_ms,ticks_per_sec,mission_speedup,kernel_us_per_tick,kernel_speedup\n",
    );
    for &n in sizes {
        let mut spec = scenario::large_swarm(n, 7);
        spec.duration = duration;

        let brute = run_timed(&spec, SpatialPolicy::ForceOff, reps);
        let grid = run_timed(&spec, SpatialPolicy::Auto, reps);
        assert_eq!(
            grid.outcome.record, brute.outcome.record,
            "grid and brute runs diverged at n={n} — differential contract broken"
        );

        // Kernel on two consecutive mid-mission ticks of the (identical)
        // record.
        let kernel = NeighborKernel::mid_mission(&spec, &brute.outcome.record);
        let kernel_reps = if smoke {
            5
        } else if n >= 500 {
            10
        } else {
            30
        };
        let (brute_us, grid_us) = kernel_us(&kernel, kernel_reps);

        let (brute_tps, grid_tps) = (brute.tps(), grid.tps());
        let mission_speedup = grid_tps / brute_tps;
        let kernel_speedup = brute_us / grid_us;
        println!(
            "{n:>5} {brute_tps:>13.0} {grid_tps:>13.0} {mission_speedup:>8.2}x {brute_us:>12.1} {grid_us:>12.1} {kernel_speedup:>8.2}x"
        );
        csv.push_str(&format!(
            "{n},brute,{},{:.3},{brute_tps:.1},1.00,{brute_us:.2},1.00\n",
            brute.physics_steps, brute.wall_ms
        ));
        csv.push_str(&format!(
            "{n},grid,{},{:.3},{grid_tps:.1},{mission_speedup:.2},{grid_us:.2},{kernel_speedup:.2}\n",
            grid.physics_steps, grid.wall_ms
        ));
    }

    // Smoke runs keep their own file so a CI pass never clobbers the full
    // ladder recorded in scaling.csv.
    let path = results_dir().join(if smoke { "scaling_smoke.csv" } else { "scaling.csv" });
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    std::fs::write(&path, csv).expect("write scaling csv");
    println!("csv: {}", path.display());
}
