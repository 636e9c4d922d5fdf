//! Large-swarm scaling: the brute-force O(n²) neighbor pipeline vs the
//! spatial-grid pipeline at N ∈ {10, 25, 50, 100, 200, 500, 1000}.
//!
//! Two execution modes per size, required to produce bit-identical flight
//! records (the differential contract `tests/grid_equivalence.rs` pins,
//! re-asserted here on the exact configurations being benchmarked):
//!
//! - **brute**: `SpatialPolicy::ForceOff` — the pre-grid baseline.
//! - **grid**: `SpatialPolicy::ForceOn` — the neighbor index (comms
//!   delivery and collision broad phase) on the same per-drone step loop.
//!
//! Two metric families per size:
//!
//! - **mission**: whole-mission ticks/sec per mode. This is what a user of
//!   the simulator experiences, but it is Amdahl-capped: GPS sampling, the
//!   controller, physics integration and recording are shared work (see
//!   EXPERIMENTS.md for the measured breakdown).
//! - **kernel**: ticks/sec of the neighbor-search machinery alone — the
//!   collision pair scan per physics step plus the comms range scan per
//!   control tick, measured on a mid-mission position snapshot. This
//!   isolates exactly the work the grid replaces and is where the
//!   asymptotic win shows (≥ 5× at N=200, asserted below).
//!
//! Modes:
//! - full (default): all sizes, 10 s missions; asserts the kernel floor at
//!   N=200 and a whole-mission improvement at N=200; writes the long-term
//!   trajectory metrics (led by `tps_at_n1000`) to
//!   `bench_results/scaling_trajectory.csv` for the trajectory guard.
//! - smoke (`--smoke` or `SWARMFUZZ_SCALING_SMOKE=1`): N=50 only, 2 s
//!   mission — a CI-friendly wiring check (both modes, identity
//!   asserted) with no speedup assertions and no trajectory file (short
//!   runs on loaded runners are too noisy to gate on).
//!
//! Per-size rows go to `bench_results/scaling.csv`:
//! n,mode,physics_steps,wall_ms,ticks_per_sec,mission_speedup,kernel_us_per_tick,kernel_speedup
//!
//! The last stdout line is machine-readable: `BENCH {json}` with the grid
//! mode's ticks/sec per size, so harnesses can scrape the trajectory
//! without parsing the table.

use std::hint::black_box;
use std::time::Instant;

use swarm_math::Vec3;
use swarm_sim::scenario;
use swarm_sim::spatial::SpatialGrid;
use swarm_sim::{MissionOutcome, SimConfig, Simulation, SpatialPolicy};
use swarmfuzz_bench::{paper_controller, results_dir};

/// Neighbor-search kernel floor at N=200 (full mode only).
const KERNEL_SPEEDUP_FLOOR_AT_200: f64 = 5.0;
/// Whole-mission floor at N=200 (full mode only) — Amdahl-capped by the
/// shared per-step work, so deliberately far below the kernel floor.
const MISSION_SPEEDUP_FLOOR_AT_200: f64 = 1.5;

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
        .with_config(SimConfig { spatial: policy, ..Default::default() });
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

/// Times one control period of the neighbor-search machinery: (brute µs,
/// grid µs), minimum over `reps`.
///
/// Both sides do exactly the runner's per-period search work, structured
/// as the runner structures it, on two consecutive-tick mission snapshots
/// (alternating, so the grid's rebuild fast path sees realistic drone
/// motion rather than a frozen swarm):
///
/// - Brute = `steps_per_control` collision pair scans (alive-checked,
///   emitting candidate pairs like `check_pair` consumes) plus one dense
///   n×n comms range scan emitting per-sender candidate lists.
/// - Grid = the per-step displacement guard, one broad-phase re-index +
///   pair enumeration (the lazy broad phase re-indexes about once per
///   control period at full speed), and one comms re-index + per-drone
///   range query. Allocations are reused across reps, as in the runner.
fn kernel_us(
    snapshots: [&[Vec3]; 2],
    steps_per_control: usize,
    range: f64,
    diameter: f64,
    broad_radius: f64,
    reps: usize,
) -> (f64, f64) {
    let n = snapshots[0].len();
    let alive = vec![true; n];
    let mut brute_best = f64::INFINITY;
    let mut grid_best = f64::INFINITY;
    let mut pair_buf: Vec<(usize, usize)> = Vec::new();
    let mut grid_pair_buf = Vec::new();
    let mut query_buf = Vec::new();
    let mut broad = SpatialGrid::build(snapshots[0], broad_radius);
    let mut comms = SpatialGrid::build(snapshots[0], range);
    for _ in 0..reps {
        // Brute: one timed unit covers both snapshots (= two periods).
        let start = Instant::now();
        for &positions in &snapshots {
            for _ in 0..steps_per_control {
                pair_buf.clear();
                for i in 0..n {
                    for j in (i + 1)..n {
                        if alive[i] && alive[j] && positions[i].distance(positions[j]) <= diameter {
                            pair_buf.push((i, j));
                        }
                    }
                }
                black_box(pair_buf.len());
            }
            for &sender in positions {
                query_buf.clear();
                for (j, &receiver) in positions.iter().enumerate() {
                    if receiver.distance(sender) <= range {
                        query_buf.push((swarm_sim::DroneId(j), receiver));
                    }
                }
                black_box(query_buf.len());
            }
        }
        brute_best = brute_best.min(start.elapsed().as_secs_f64() * 1e6 / 2.0);

        let start = Instant::now();
        for (s, &positions) in snapshots.iter().enumerate() {
            let anchor = snapshots[1 - s];
            let guard = broad_radius * broad_radius / 4.0;
            let mut moved = 0usize;
            for _ in 0..steps_per_control {
                for (p, a) in positions.iter().zip(anchor) {
                    if p.distance_squared(*a) > guard {
                        moved += 1;
                    }
                }
            }
            black_box(moved);
            broad.rebuild(positions, broad_radius);
            broad.close_pairs(broad_radius, &mut grid_pair_buf);
            black_box(grid_pair_buf.len());
            comms.rebuild(positions, range);
            for &p in positions {
                comms.within_into(p, range, &mut query_buf);
                black_box(query_buf.len());
            }
        }
        grid_best = grid_best.min(start.elapsed().as_secs_f64() * 1e6 / 2.0);
    }
    (brute_best, grid_best)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var("SWARMFUZZ_SCALING_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty());

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
    let mut at_200 = None;
    let mut at_1000 = None;
    let mut bench_json = Vec::new();
    for &n in sizes {
        let mut spec = scenario::large_swarm(n, 7);
        spec.duration = duration;

        let brute = run_timed(&spec, SpatialPolicy::ForceOff, reps);
        let grid = run_timed(&spec, SpatialPolicy::ForceOn, reps);
        assert_eq!(
            grid.outcome.record, brute.outcome.record,
            "grid and brute runs diverged at n={n} — differential contract broken"
        );

        // Kernel on two consecutive mid-mission snapshots of the
        // (identical) record.
        let record = &brute.outcome.record;
        let mid = record.len() / 2;
        let snapshots = [record.positions_at(mid), record.positions_at(mid + 1)];
        let steps_per_control = spec.steps_per_control();
        let range = spec.comms.range.expect("large_swarm sets a comms range");
        let diameter = 2.0 * spec.drone.radius;
        let broad_slack =
            (2.0 * steps_per_control as f64 * spec.drone.max_speed * spec.physics_dt).max(diameter);
        let kernel_reps = if smoke {
            5
        } else if n >= 500 {
            10
        } else {
            30
        };
        let (brute_us, grid_us) = kernel_us(
            snapshots,
            steps_per_control,
            range,
            diameter,
            diameter + broad_slack,
            kernel_reps,
        );

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
        bench_json.push(format!("\"tps_at_n{n}\":{grid_tps:.1}"));
        if n == 200 {
            at_200 = Some((mission_speedup, kernel_speedup));
        }
        if n == 1000 {
            at_1000 = Some(grid_tps);
        }
    }

    // Smoke runs keep their own file so a CI pass never clobbers the full
    // ladder recorded in scaling.csv.
    let path = results_dir().join(if smoke { "scaling_smoke.csv" } else { "scaling.csv" });
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    std::fs::write(&path, csv).expect("write scaling csv");
    println!("csv: {}", path.display());

    // Full runs also refresh the long-term trajectory metrics — the
    // `metric,value` layout the bench-trajectory guard diffs against the
    // committed copy (and gates: `tps_at_n1000` fails CI on a >10%
    // regression, see benches/trajectory.rs). Smoke runs never write this
    // file, so a short noisy CI run cannot trip the gate.
    if let (Some((mission, kernel)), Some(tps1000)) = (at_200, at_1000) {
        let trajectory = format!(
            "metric,value\n\
             tps_at_n1000,{tps1000:.1}\n\
             mission_speedup_at_n200,{mission:.3}\n\
             kernel_speedup_at_n200,{kernel:.3}\n"
        );
        let tpath = results_dir().join("scaling_trajectory.csv");
        std::fs::write(&tpath, trajectory).expect("write scaling trajectory csv");
        println!("trajectory: {}", tpath.display());
    }

    println!("BENCH {{\"bench\":\"scaling\",\"mode\":\"{mode}\",{}}}", bench_json.join(","));

    if let Some((mission, kernel)) = at_200 {
        assert!(
            kernel >= KERNEL_SPEEDUP_FLOOR_AT_200,
            "neighbor-search kernel speedup at n=200 was {kernel:.2}x, below the {KERNEL_SPEEDUP_FLOOR_AT_200}x floor"
        );
        assert!(
            mission >= MISSION_SPEEDUP_FLOOR_AT_200,
            "whole-mission speedup at n=200 was {mission:.2}x, below the {MISSION_SPEEDUP_FLOOR_AT_200}x floor"
        );
    }
}
