//! Micro-benchmarks for the hot paths of the reproduction — PageRank power
//! iteration, one full simulated mission, SVG construction and a single
//! objective evaluation (one fuzzing "search iteration") — plus the
//! repository's five performance gates. Each gate times side A against
//! side B with [`paired_ratio`], which alternates the two sides call by
//! call, and judges the median of the per-pair A/B time ratios:
//!
//! | gate | A vs B | bound |
//! |---|---|---|
//! | `observer_overhead_pct` | 30 s 5-drone mission observed by a counting trace vs plain | < 5% |
//! | `trace_overhead_pct` | budget-4 fuzz into a ring sink vs untraced | < 2% |
//! | `fork_speedup` | 5-drone, 3-mission campaign, snapshots off vs on | ≥ 1.02× |
//! | `grid_mission_speedup_n200` | 10 s `large_swarm(200, 7)` flight, brute vs grid | ≥ 1.5× |
//! | `grid_kernel_speedup_n200` | that flight's neighbor-search kernel, brute vs grid | ≥ 5× |
//!
//! Hand-rolled harness (medians of timed calls), no external benchmark
//! dependency. Results are printed per benchmark and written to
//! `bench_results/micro.csv`.

use std::hint::black_box;

use swarm_sim::mission::MissionSpec;
use swarm_sim::spoof::{SpoofDirection, SpoofingAttack};
use swarm_sim::{scenario, DroneId, SimConfig, SimObserver, Simulation, SpatialPolicy};
use swarmfuzz::campaign::{run_campaign, CampaignConfig, SwarmConfig};
use swarmfuzz::telemetry::Counter;
use swarmfuzz::{SvgBuilder, Telemetry, Trace};
use swarmfuzz_bench::{
    paired_ratio, paper_controller, quartiles, results_dir, swarmfuzz_fuzzer, time_batch,
    NeighborKernel, PairedRatio,
};

/// Median ns/iteration over `batches` timed batches of `iters` calls each.
fn bench<F: FnMut()>(name: &str, batches: usize, iters: usize, mut f: F) -> f64 {
    // Warm-up.
    f();
    let median = quartiles((0..batches).map(|_| time_batch(iters, &mut f)).collect())[1];
    println!("{name:<40} {:>12.0} ns/iter", median);
    median
}

fn row(csv: &mut String, name: &str, value: String) {
    csv.push_str(&format!("{name},{value}\n"));
}

/// Records both sides' median ns/iteration under `sides` (A, B) and the
/// gate's median under `name`, prints the median beside its quartiles and
/// returns the median for the caller's bound. `value` holds the quartiles
/// of `r`'s A/B ratio in the gate's unit.
fn gate(csv: &mut String, name: &str, sides: [&str; 2], r: &PairedRatio, value: [f64; 3]) -> f64 {
    row(csv, sides[0], format!("{:.0}", r.a_ns));
    row(csv, sides[1], format!("{:.0}", r.b_ns));
    let [q1, median, q3] = value;
    row(csv, name, format!("{median:.2}"));
    println!("{name}: {median:.2} [quartiles {q1:.2}, {q3:.2}]");
    median
}

fn overhead_pct(ratio: f64) -> f64 {
    (ratio - 1.0) * 100.0
}

fn main() {
    let mut csv = String::from("benchmark,ns_per_iter\n");

    // PageRank power iteration on ring+chord graphs.
    {
        use swarm_graph::centrality::{pagerank, PageRankConfig};
        use swarm_graph::DiGraph;
        for &n in &[5usize, 15, 100] {
            let mut g = DiGraph::new(n);
            for i in 0..n {
                let j = (i + 1) % n;
                if i != j {
                    g.add_edge(i, j, 1.0).unwrap();
                }
                if i != 0 {
                    g.add_edge(i, 0, 0.5).unwrap();
                }
            }
            let ns = bench(&format!("pagerank/{n}"), 7, 200, || {
                black_box(pagerank(&g, &PageRankConfig::default()));
            });
            row(&mut csv, &format!("pagerank/{n}"), format!("{ns:.0}"));
        }
    }

    // One truncated (30 s) no-attack mission: steady-state stepping cost.
    for &n in &[5usize, 15] {
        let mut spec = MissionSpec::paper_delivery(n, 1);
        spec.duration = 30.0;
        let sim = Simulation::new(spec, paper_controller()).unwrap();
        let ns = bench(&format!("mission/30s-no-attack/{n}"), 5, 3, || {
            black_box(sim.run(None).unwrap());
        });
        row(&mut csv, &format!("mission/30s-no-attack/{n}"), format!("{ns:.0}"));
    }

    // SVG construction from a recorded mission.
    for &n in &[5usize, 15] {
        let spec = MissionSpec::paper_delivery(n, 1);
        let controller = paper_controller();
        let sim = Simulation::new(spec.clone(), controller).unwrap();
        let record = sim.run(None).unwrap().record;
        let ns = bench(&format!("svg_build/{n}"), 7, 20, || {
            black_box(
                SvgBuilder::new(&controller, &spec, &record, 10.0)
                    .build(SpoofDirection::Right)
                    .unwrap(),
            );
        });
        row(&mut csv, &format!("svg_build/{n}"), format!("{ns:.0}"));
    }

    // One whole attacked mission (an objective evaluation's search probe
    // stops earlier, at the obstacle horizon).
    {
        let spec = MissionSpec::paper_delivery(5, 1);
        let sim = Simulation::new(spec, paper_controller()).unwrap();
        let attack =
            SpoofingAttack::new(DroneId(0), SpoofDirection::Right, 20.0, 12.0, 10.0).unwrap();
        let ns = bench("attack_eval/5d-10m-full-mission", 5, 2, || {
            black_box(sim.run(Some(&attack)).unwrap());
        });
        row(&mut csv, "attack_eval/5d-10m-full-mission", format!("{ns:.0}"));
    }

    // Observer overhead on the mission-step hot path: the same truncated
    // mission with and without a trace handle forwarding its run stats to a
    // counting sink. A mission takes 1–1.7 ms on a 2-vCPU host, so each side
    // of a pair flies 50 of them, a sample of at least ~50 ms.
    {
        let mut spec = MissionSpec::paper_delivery(5, 1);
        spec.duration = 30.0;
        let sim = Simulation::new(spec, paper_controller()).unwrap();
        let telemetry = Telemetry::enabled(1);
        let trace = telemetry.trace();
        let observer: &dyn SimObserver = &trace;
        let r = paired_ratio(
            "observer_overhead",
            21,
            50,
            || {
                black_box(sim.run_observed(None, Some(observer)).unwrap());
            },
            || {
                black_box(sim.run(None).unwrap());
            },
        );
        println!("({} physics steps counted)", telemetry.counter(Counter::SimPhysicsSteps));
        let sides = ["observer_overhead/on", "observer_overhead/off"];
        let pct = gate(&mut csv, "observer_overhead_pct", sides, &r, r.ratio.map(overhead_pct));
        assert!(pct < 5.0, "observer exceeded the 5% hot-path budget: {pct:.2}%");
    }

    // Trace overhead on the fuzzing hot path: the same mission fuzzed with
    // a ring sink attached (every probe, seed and gradient step recorded)
    // and with tracing off. A fuzz run takes 6–12 ms, so each side of a
    // pair runs 9 of them, a sample of at least ~50 ms.
    {
        use std::sync::Arc;
        use swarmfuzz::trace::RingSink;
        use swarmfuzz::{Fuzzer, FuzzerConfig};

        let spec = MissionSpec::paper_delivery(5, 1);
        let config = FuzzerConfig { eval_budget: 4, ..FuzzerConfig::swarmfuzz(10.0) };
        let ring = Arc::new(RingSink::new(1 << 14));
        let sink = ring.clone();
        let r = paired_ratio(
            "trace_overhead",
            21,
            9,
            || {
                let fuzzer =
                    Fuzzer::new(paper_controller(), config).with_trace(Trace::new(sink.clone()));
                black_box(fuzzer.fuzz(&spec).unwrap());
            },
            || {
                let fuzzer = Fuzzer::new(paper_controller(), config);
                black_box(fuzzer.fuzz(&spec).unwrap());
            },
        );
        println!("({} events recorded)", ring.total());
        let sides = ["trace_overhead/ring", "trace_overhead/off"];
        let pct = gate(&mut csv, "trace_overhead_pct", sides, &r, r.ratio.map(overhead_pct));
        assert!(pct < 2.0, "trace sink exceeded the 2% hot-path budget: {pct:.2}%");
    }

    // Snapshot-and-fork execution: one small SwarmFuzz campaign with every
    // search probe re-simulated from t = 0, and forked from its mission's
    // baseline snapshot ring. A fork only skips the no-attack prefix, so the
    // floor catches the fast path turning into a slowdown; it does not
    // certify a headline number (DESIGN.md §10).
    {
        let campaign = CampaignConfig {
            configs: vec![SwarmConfig { swarm_size: 5, deviation: 10.0 }],
            missions_per_config: 3,
            base_seed: 0xC0FFEE,
            workers: 1,
        };
        let run = |snapshot| {
            run_campaign(&campaign, |d| swarmfuzz_fuzzer(d).with_snapshots(snapshot))
                .expect("campaign must run")
        };
        assert_eq!(run(false), run(true), "snapshot execution must be invisible in the report");
        let r = paired_ratio(
            "fork",
            21,
            1,
            || {
                black_box(run(false));
            },
            || {
                black_box(run(true));
            },
        );
        let speedup = gate(&mut csv, "fork_speedup", ["fork/off", "fork/on"], &r, r.ratio);
        assert!(speedup >= 1.02, "snapshot speedup below the 1.02x floor: {speedup:.2}x");
    }

    // The spatial grid at N=200: a whole 10 s flight (Amdahl-capped by the
    // per-drone work both pipelines share, so its floor sits far below the
    // kernel's) and the neighbor-search kernel alone on two consecutive
    // mid-mission ticks of that flight.
    {
        let mut spec = scenario::large_swarm(200, 7);
        spec.duration = 10.0;
        let sim = |spatial| {
            Simulation::new(spec.clone(), paper_controller())
                .unwrap()
                .with_config(SimConfig { spatial })
        };
        let (brute, grid) = (sim(SpatialPolicy::ForceOff), sim(SpatialPolicy::ForceOn));
        let record = brute.run(None).unwrap().record;
        assert_eq!(grid.run(None).unwrap().record, record, "grid and brute flights diverged");
        let r = paired_ratio(
            "grid_mission_n200",
            21,
            1,
            || {
                black_box(brute.run(None).unwrap());
            },
            || {
                black_box(grid.run(None).unwrap());
            },
        );
        let sides = ["grid_mission_n200/brute", "grid_mission_n200/grid"];
        let speedup = gate(&mut csv, "grid_mission_speedup_n200", sides, &r, r.ratio);
        assert!(speedup >= 1.5, "whole-mission grid speedup below the 1.5x floor: {speedup:.2}x");

        let kernel = NeighborKernel::mid_mission(&spec, &record);
        let r = paired_ratio("grid_kernel_n200", 21, 50, kernel.brute(), kernel.grid());
        let sides = ["grid_kernel_n200/brute", "grid_kernel_n200/grid"];
        let speedup = gate(&mut csv, "grid_kernel_speedup_n200", sides, &r, r.ratio);
        assert!(speedup >= 5.0, "neighbor-search kernel speedup below the 5x floor: {speedup:.2}x");
    }

    let path = results_dir().join("micro.csv");
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    std::fs::write(&path, csv).expect("write micro csv");
    println!("csv: {}", path.display());
}
