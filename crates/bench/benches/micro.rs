//! Micro-benchmarks for the hot paths of the reproduction: PageRank power
//! iteration, one full simulated mission, SVG construction, a single
//! objective evaluation (one fuzzing "search iteration"), and two
//! instrumentation overhead gates: a trace handle observing the
//! mission-step hot path into a counting sink (budget: < 5%), and a ring
//! sink recording every fuzzing event (budget: < 2%).
//!
//! Hand-rolled harness (median of timed batches) — no external benchmark
//! dependency. Results are printed per benchmark and written to
//! `bench_results/micro.csv`.

use std::time::Instant;

use swarm_sim::mission::MissionSpec;
use swarm_sim::spoof::{SpoofDirection, SpoofingAttack};
use swarm_sim::{DroneId, SimObserver, Simulation};
use swarmfuzz::telemetry::Counter;
use swarmfuzz::{SvgBuilder, Telemetry};
use swarmfuzz_bench::{paper_controller, results_dir};

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Mean ns/iteration of one timed batch of `iters` calls.
fn time_batch(iters: usize, f: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Median ns/iteration over `batches` timed batches of `iters` calls each.
fn bench<F: FnMut()>(name: &str, batches: usize, iters: usize, mut f: F) -> f64 {
    // Warm-up.
    f();
    let median = median((0..batches).map(|_| time_batch(iters, &mut f)).collect());
    println!("{name:<40} {:>12.0} ns/iter", median);
    median
}

/// Overhead of `on` over `off` in percent, as the median over `pairs`
/// back-to-back batch pairs of the per-pair time ratio, plus each side's
/// median ns/iteration. The side that runs first alternates every pair, so
/// machine drift (clock frequency, other load) hits both sides alike
/// instead of one block of batches.
fn paired_overhead(
    name: &str,
    pairs: usize,
    iters: usize,
    mut off: impl FnMut(),
    mut on: impl FnMut(),
) -> (f64, f64, f64) {
    // Warm-up.
    off();
    on();
    let (mut offs, mut ons, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..pairs {
        let (a, b) = if pair % 2 == 0 {
            let a = time_batch(iters, &mut off);
            (a, time_batch(iters, &mut on))
        } else {
            let b = time_batch(iters, &mut on);
            (time_batch(iters, &mut off), b)
        };
        offs.push(a);
        ons.push(b);
        ratios.push(b / a);
    }
    let (off_ns, on_ns) = (median(offs), median(ons));
    let overhead = (median(ratios) - 1.0) * 100.0;
    println!("{:<40} {off_ns:>12.0} ns/iter", format!("{name}/off"));
    println!("{:<40} {on_ns:>12.0} ns/iter", format!("{name}/on"));
    (off_ns, on_ns, overhead)
}

fn main() {
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut push = |name: &str, ns: f64| {
        rows.push(vec![name.to_string(), format!("{ns:.0}")]);
    };

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
                std::hint::black_box(pagerank(&g, &PageRankConfig::default()));
            });
            push(&format!("pagerank/{n}"), ns);
        }
    }

    // One truncated (30 s) no-attack mission: steady-state stepping cost.
    for &n in &[5usize, 15] {
        let mut spec = MissionSpec::paper_delivery(n, 1);
        spec.duration = 30.0;
        let sim = Simulation::new(spec, paper_controller()).unwrap();
        let ns = bench(&format!("mission/30s-no-attack/{n}"), 5, 3, || {
            std::hint::black_box(sim.run(None).unwrap());
        });
        push(&format!("mission/30s-no-attack/{n}"), ns);
    }

    // SVG construction from a recorded mission.
    for &n in &[5usize, 15] {
        let spec = MissionSpec::paper_delivery(n, 1);
        let controller = paper_controller();
        let sim = Simulation::new(spec.clone(), controller).unwrap();
        let record = sim.run(None).unwrap().record;
        let ns = bench(&format!("svg_build/{n}"), 7, 20, || {
            std::hint::black_box(
                SvgBuilder::new(&controller, &spec, &record, 10.0)
                    .build(SpoofDirection::Right)
                    .unwrap(),
            );
        });
        push(&format!("svg_build/{n}"), ns);
    }

    // One full attacked mission (one objective evaluation).
    {
        let spec = MissionSpec::paper_delivery(5, 1);
        let sim = Simulation::new(spec, paper_controller()).unwrap();
        let attack =
            SpoofingAttack::new(DroneId(0), SpoofDirection::Right, 20.0, 12.0, 10.0).unwrap();
        let ns = bench("attack_eval/5d-10m-full-mission", 5, 2, || {
            std::hint::black_box(sim.run(Some(&attack)).unwrap());
        });
        push("attack_eval/5d-10m-full-mission", ns);
    }

    // Observer overhead on the mission-step hot path: the same truncated
    // mission with and without a trace handle forwarding its run stats to a
    // counting sink. Budget: < 5%.
    {
        let mut spec = MissionSpec::paper_delivery(5, 1);
        spec.duration = 30.0;
        let sim = Simulation::new(spec, paper_controller()).unwrap();
        let telemetry = Telemetry::enabled(1);
        let trace = telemetry.trace();
        let observer: &dyn SimObserver = &trace;
        let (plain, observed, overhead) = paired_overhead(
            "observer_overhead",
            21,
            5,
            || {
                std::hint::black_box(sim.run(None).unwrap());
            },
            || {
                std::hint::black_box(sim.run_observed(None, Some(observer)).unwrap());
            },
        );
        println!(
            "observer overhead: {overhead:+.2}% ({} physics steps counted)",
            telemetry.counter(Counter::SimPhysicsSteps)
        );
        push("observer_overhead/off", plain);
        push("observer_overhead/on", observed);
        rows.push(vec!["observer_overhead_pct".into(), format!("{overhead:.2}")]);
        assert!(overhead < 5.0, "observer exceeded the 5% hot-path budget: {overhead:.2}%");
    }

    // Trace overhead on the fuzzing hot path: the same mission fuzzed with
    // tracing off and with a ring sink attached (every probe, seed and
    // gradient step recorded). Budget: < 2%.
    {
        use std::sync::Arc;
        use swarmfuzz::trace::RingSink;
        use swarmfuzz::{Fuzzer, FuzzerConfig, Trace};

        let spec = MissionSpec::paper_delivery(5, 1);
        let config = FuzzerConfig { eval_budget: 4, ..FuzzerConfig::swarmfuzz(10.0) };
        let ring = Arc::new(RingSink::new(1 << 14));
        let sink = ring.clone();
        let (plain, traced, overhead) = paired_overhead(
            "trace_overhead",
            21,
            1,
            || {
                let fuzzer = Fuzzer::new(paper_controller(), config);
                std::hint::black_box(fuzzer.fuzz(&spec).unwrap());
            },
            || {
                let fuzzer =
                    Fuzzer::new(paper_controller(), config).with_trace(Trace::new(sink.clone()));
                std::hint::black_box(fuzzer.fuzz(&spec).unwrap());
            },
        );
        println!("trace overhead: {overhead:+.2}% ({} events recorded)", ring.total());
        rows.push(vec!["trace_overhead/off".into(), format!("{plain:.0}")]);
        rows.push(vec!["trace_overhead/ring".into(), format!("{traced:.0}")]);
        rows.push(vec!["trace_overhead_pct".into(), format!("{overhead:.2}")]);
        assert!(overhead < 2.0, "trace sink exceeded the 2% hot-path budget: {overhead:.2}%");
    }

    let path = results_dir().join("micro.csv");
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    let mut csv = String::from("benchmark,ns_per_iter\n");
    for row in &rows {
        csv.push_str(&format!("{}\n", row.join(",")));
    }
    std::fs::write(&path, csv).expect("write micro csv");
    println!("csv: {}", path.display());
}
