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
//! Both families are timed with [`swarmfuzz_bench::paired_ratio`], the
//! harness behind every micro gate: brute is side A and grid side B, the
//! two alternate call by call within each pair, and each speedup is the
//! median of the per-pair brute/grid time ratios, written beside its
//! quartiles. Each side of a pair runs enough calls to take about 50 ms,
//! sized from the time of one brute call. The record-identity assertion
//! runs before, outside the timed calls.
//!
//! Modes:
//! - full (default): all sizes, 10 s missions, 11 pairs per family.
//! - smoke (`--smoke`): N=50 only, 2 s mission, 3 pairs — a CI-friendly
//!   wiring check (both modes, identity asserted).
//!
//! Per-size rows go to `bench_results/scaling.csv` (`wall_ms` and
//! `kernel_us_per_tick` are each side's median; the `_q1`/`_q3` columns are
//! the speedups' quartiles):
//! n,mode,physics_steps,wall_ms,ticks_per_sec,mission_speedup,mission_speedup_q1,mission_speedup_q3,kernel_us_per_tick,kernel_speedup,kernel_speedup_q1,kernel_speedup_q3

use std::hint::black_box;

use swarm_sim::scenario;
use swarm_sim::{SimConfig, Simulation, SpatialPolicy};
use swarmfuzz_bench::{paired_ratio, paper_controller, results_dir, time_batch, NeighborKernel};

/// Wall time each side of a pair should take, in ns.
const SIDE_NS: f64 = 50e6;

/// Calls per side of a pair so that a side takes about [`SIDE_NS`], given
/// one call's time.
fn iters_for(call_ns: f64) -> usize {
    (SIDE_NS / call_ns).ceil().clamp(1.0, 200.0) as usize
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    let (sizes, duration, pairs): (&[usize], f64, usize) =
        if smoke { (&[50], 2.0, 3) } else { (&[10, 25, 50, 100, 200, 500, 1000], 10.0, 11) };
    let mode = if smoke { "smoke" } else { "full" };
    println!("scaling bench ({mode}): sizes {sizes:?}, {duration} s missions, {pairs} pairs");

    let mut csv = String::from(
        "n,mode,physics_steps,wall_ms,ticks_per_sec,mission_speedup,mission_speedup_q1,\
         mission_speedup_q3,kernel_us_per_tick,kernel_speedup,kernel_speedup_q1,kernel_speedup_q3\n",
    );
    let mut table = Vec::new();
    for &n in sizes {
        let mut spec = scenario::large_swarm(n, 7);
        spec.duration = duration;
        let sim = |spatial| {
            Simulation::new(spec.clone(), paper_controller())
                .unwrap()
                .with_config(SimConfig { spatial })
        };
        let (brute, grid) = (sim(SpatialPolicy::ForceOff), sim(SpatialPolicy::Auto));

        let mut record = None;
        let brute_ns = time_batch(1, &mut || record = Some(brute.run(None).unwrap().record));
        let record = record.expect("brute flight recorded");
        assert_eq!(
            grid.run(None).unwrap().record,
            record,
            "grid and brute runs diverged at n={n} — differential contract broken"
        );
        let physics_steps = (record.duration() / spec.physics_dt).round() as u64 + 1;
        let mission = paired_ratio(
            &format!("mission_n{n}"),
            pairs,
            iters_for(brute_ns),
            || {
                black_box(brute.run(None).unwrap());
            },
            || {
                black_box(grid.run(None).unwrap());
            },
        );

        // Kernel on two consecutive mid-mission ticks of the (identical)
        // record; one call covers two control periods.
        let neighbors = NeighborKernel::mid_mission(&spec, &record);
        let kernel_ns = time_batch(1, &mut neighbors.brute());
        let kernel = paired_ratio(
            &format!("kernel_n{n}"),
            pairs,
            iters_for(kernel_ns),
            neighbors.brute(),
            neighbors.grid(),
        );

        let speedups = |[q1, median, q3]: [f64; 3]| format!("{median:.2},{q1:.2},{q3:.2}");
        for (side, mission_ns, kernel_ns, mission_speedup, kernel_speedup) in [
            ("brute", mission.a_ns, kernel.a_ns, speedups([1.0; 3]), speedups([1.0; 3])),
            ("grid", mission.b_ns, kernel.b_ns, speedups(mission.ratio), speedups(kernel.ratio)),
        ] {
            csv.push_str(&format!(
                "{n},{side},{physics_steps},{:.3},{:.1},{mission_speedup},{:.2},{kernel_speedup}\n",
                mission_ns / 1e6,
                physics_steps as f64 / (mission_ns / 1e9),
                kernel_ns / 2e3,
            ));
        }
        let [m1, m, m3] = mission.ratio;
        let [k1, k, k3] = kernel.ratio;
        table.push(format!(
            "{n:>5} {:>13.0} {:>13.0} {m:>7.2}x [{m1:.2}, {m3:.2}] {k:>7.2}x [{k1:.2}, {k3:.2}]",
            physics_steps as f64 / (mission.a_ns / 1e9),
            physics_steps as f64 / (mission.b_ns / 1e9),
        ));
    }
    println!(
        "{:>5} {:>13} {:>13} {:>22} {:>22}",
        "n", "brute tick/s", "grid tick/s", "mission [q1, q3]", "kernel [q1, q3]"
    );
    for line in table {
        println!("{line}");
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
