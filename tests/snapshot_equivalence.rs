//! Differential proof that snapshot-and-fork execution is invisible.
//!
//! The snapshot fast path (fork an attacked mission from a cached baseline
//! snapshot instead of re-simulating the no-attack prefix) is only
//! admissible because it is *bit-identical* to simulating from `t = 0`.
//! This suite pins that claim at three levels:
//!
//! * sim level — a search probe forked from every admitting snapshot of one
//!   capture run equals the probe flown fresh, over seeded-random
//!   `(t_s, Δt, swarm size, mission seed)` windows, under both spatial-grid
//!   policies and with lossy/delayed comms (every RNG stream — GPS noise,
//!   drop lottery, wind — must stay in phase across the fork), and in a
//!   ranged 36-drone swarm whose comms go through the grid; the snapshots
//!   that do not admit the window refuse it with a typed error;
//! * capture — two capture runs of one mission give equal snapshots at every
//!   step both capture, and capturing never changes the run;
//! * fuzzer/campaign level — [`FuzzReport`]s and [`CampaignReport`]s with
//!   snapshots on are bit-identical to snapshots off, across worker counts,
//!   and the paper's eval budget is conserved: a forked probe counts
//!   exactly one search iteration.

use std::sync::Arc;

use swarm_control::{VasarhelyiController, VasarhelyiParams};
use swarm_sim::mission::MissionSpec;
use swarm_sim::spoof::SpoofingAttack;
use swarm_sim::{scenario, SimConfig, SimError, Simulation, SpatialPolicy};
use swarm_testkit::gens::{f64_in, one_of, u64_in, usize_in, zip2, zip4};
use swarm_testkit::{cases, check_budgeted, gens, tk_ensure, Gen};
use swarmfuzz::campaign::{
    run_campaign, run_campaign_with_options, CampaignConfig, CampaignReport, CampaignRunOptions,
    SwarmConfig,
};
use swarmfuzz::telemetry::Counter;
use swarmfuzz::trace::RingSink;
use swarmfuzz::{Fuzzer, FuzzerConfig, Telemetry, Trace, TraceEvent};

fn controller() -> VasarhelyiController {
    VasarhelyiController::new(VasarhelyiParams::default())
}

fn policies() -> Vec<SpatialPolicy> {
    vec![SpatialPolicy::Auto, SpatialPolicy::ForceOff]
}

/// One randomized differential case: a short delivery mission, an attack
/// window and a grid policy.
#[derive(Debug, Clone)]
struct ForkCase {
    swarm_size: usize,
    seed: u64,
    start: f64,
    duration: f64,
    policy: SpatialPolicy,
}

fn fork_case() -> Gen<ForkCase> {
    zip4(
        &zip2(&usize_in(3..=6), &u64_in(0..=u64::MAX)),
        &f64_in(0.0, 28.0),
        &f64_in(0.0, 20.0),
        &one_of(policies()),
    )
    .map(|((swarm_size, seed), start, duration, policy)| ForkCase {
        swarm_size,
        seed,
        start,
        duration,
        policy,
    })
}

/// Capture stride of the differential cases' baseline, in physics steps.
const FORK_STRIDE: usize = 700;

/// Flies `case`'s probe fresh, then forks it from every snapshot of one
/// no-attack capture run that admits its window: every [`FORK_STRIDE`]-th
/// step plus the newest admitting step (the window's first step) and the
/// step after it, which does not admit the window. Each fork must equal the
/// fresh probe, and each snapshot that does not admit the window must
/// refuse it with a typed error.
fn assert_fork_matches_fresh(spec: &MissionSpec, case: &ForkCase) -> Result<(), String> {
    let sim = Simulation::new(spec.clone(), controller())
        .map_err(|e| e.to_string())?
        .with_config(SimConfig { spatial: case.policy });
    let attack = SpoofingAttack::new(
        0.into(),
        swarm_sim::spoof::SpoofDirection::Right,
        case.start,
        case.duration,
        10.0,
    )
    .map_err(|e| e.to_string())?;

    let fresh = sim.run_probe(&attack, None).map_err(|e| e.to_string())?;
    let first = (case.start / spec.physics_dt).ceil() as usize;
    let mut snapshots = Vec::new();
    let baseline = sim
        .run_observed_with_snapshots(
            None,
            None,
            |step| step.is_multiple_of(FORK_STRIDE) || step == first || step == first + 1,
            |snap| snapshots.push(snap),
        )
        .map_err(|e| e.to_string())?;

    let mut forks = 0;
    for snap in &snapshots {
        let prefix = sim.prefix_record(snap, &baseline.record).map_err(|e| e.to_string())?;
        let forked = sim.resume_probe(snap, prefix, &attack, None);
        if !snap.admits_attack_start(attack.start) {
            tk_ensure!(
                matches!(forked, Err(SimError::SnapshotMismatch(_))),
                "snapshot at step {} accepted a window opening at {}",
                snap.next_step(),
                case.start
            );
            continue;
        }
        forks += 1;
        tk_ensure!(
            forked.map_err(|e| e.to_string())?.record == fresh.record,
            "probe forked at step {} diverged from fresh (policy {:?}, start {}, duration {})",
            snap.next_step(),
            case.policy,
            case.start,
            case.duration
        );
    }
    tk_ensure!(forks > 0, "no snapshot admits the window (step 0 always does)");
    Ok(())
}

#[test]
fn forked_mission_is_bit_identical_to_fresh_across_windows_and_policies() {
    check_budgeted("snapshot_fork_equals_fresh", (cases() / 8).max(8), &fork_case(), |case| {
        let mut spec = MissionSpec::paper_delivery(case.swarm_size, case.seed);
        spec.duration = 30.0;
        assert_fork_matches_fresh(&spec, case)
    });
}

#[test]
fn forked_mission_is_bit_identical_with_lossy_delayed_comms_and_noise() {
    // Drop lottery, delayed in-flight messages, GPS noise and wind gusts all
    // consume RNG draws; a fork that replayed or skipped a single draw would
    // desynchronize the streams and show up here.
    check_budgeted(
        "snapshot_fork_equals_fresh_lossy",
        (cases() / 16).max(8),
        &fork_case(),
        |case| {
            let mut spec = MissionSpec::paper_delivery(case.swarm_size, case.seed);
            spec.duration = 25.0;
            spec.comms.range = Some(40.0);
            spec.comms.drop_probability = 0.2;
            spec.comms.delay_ticks = 2;
            spec.gps.position_noise_std = 0.05;
            spec.gps.velocity_noise_std = 0.02;
            spec.wind.mean = swarm_math::Vec3::new(0.4, -0.2, 0.0);
            spec.wind.gust_std = 0.3;
            assert_fork_matches_fresh(&spec, case)
        },
    );
}

#[test]
fn forked_probe_through_grid_comms_is_bit_identical_to_fresh() {
    // The paper-scale cases above sit below the comms threshold, so their
    // comms never use the grid. A ranged, lossy and delayed 36-drone swarm
    // does under `Auto`: the comms grid is rebuilt from current positions
    // on every control tick, so a fork must resume its drop lottery and
    // in-flight queue exactly as the fresh probe reaches them.
    let mut spec = scenario::large_swarm(36, 5);
    spec.duration = 12.0;
    spec.comms.range = Some(18.0);
    spec.comms.drop_probability = 0.25;
    spec.comms.delay_ticks = 2;
    let telemetry = Telemetry::enabled(1);
    Simulation::new(spec.clone(), controller())
        .unwrap()
        .run_observed(None, Some(&telemetry.trace()))
        .unwrap();
    let (rebuilds, ticks) =
        (telemetry.counter(Counter::GridRebuilds), telemetry.counter(Counter::SimControlTicks));
    assert!(rebuilds > ticks, "comms never took the grid: {rebuilds} rebuilds, {ticks} ticks");
    let case = ForkCase {
        swarm_size: 36,
        seed: 5,
        start: 8.0,
        duration: 3.0,
        policy: SpatialPolicy::Auto,
    };
    assert_fork_matches_fresh(&spec, &case).unwrap();
}

#[test]
fn capture_runs_give_equal_snapshots_at_every_captured_step() {
    // A second capture run of the same mission, capturing a superset of the
    // first run's steps, must hold the same whole snapshot at each of them,
    // and neither capture may change the run's record: capturing is
    // deterministic and never touches the state it copies.
    let gen = zip4(&usize_in(3..=5), &u64_in(0..=u64::MAX), &usize_in(50..=400), &usize_in(7..=90));
    check_budgeted(
        "snapshot_capture_deterministic",
        (cases() / 16).max(8),
        &gen,
        |&(n, seed, a, b)| {
            let mut spec = MissionSpec::paper_delivery(n, seed);
            spec.duration = 20.0;
            let sim = Simulation::new(spec, controller()).map_err(|e| e.to_string())?;
            let capture = |wants: &dyn Fn(usize) -> bool| {
                let mut snaps = Vec::new();
                let out = sim
                    .run_observed_with_snapshots(None, None, wants, |s| snaps.push(s))
                    .map_err(|e| e.to_string())?;
                Ok::<_, String>((snaps, out.record))
            };
            let (first, first_record) = capture(&|step| step.is_multiple_of(a))?;
            let (second, second_record) =
                capture(&|step| step.is_multiple_of(a) || step.is_multiple_of(b))?;
            let plain = sim.run(None).map_err(|e| e.to_string())?.record;
            tk_ensure!(first_record == plain && second_record == plain, "capture changed the run");
            tk_ensure!(!first.is_empty(), "step 0 is always captured");
            let mut rest = second.iter();
            for snap in &first {
                let twin = rest.find(|s| s.next_step() == snap.next_step());
                tk_ensure!(
                    twin == Some(snap),
                    "snapshots differ at step {} (a={a}, b={b})",
                    snap.next_step()
                );
            }
            Ok(())
        },
    );
}

fn fuzzer_with(deviation: f64, budget: usize, snapshots: bool) -> Fuzzer<VasarhelyiController> {
    let config = FuzzerConfig { eval_budget: budget, ..FuzzerConfig::swarmfuzz(deviation) };
    Fuzzer::new(controller(), config).with_snapshots(snapshots)
}

#[test]
fn fuzz_reports_are_bit_identical_snapshots_on_vs_off() {
    // Whole-pipeline differential: same mission, same config, snapshot
    // execution toggled. Covers both fuzzer outcomes (SPV found / budget
    // exhausted) across seeds and gradient/random search.
    let gen = zip2(&u64_in(0..=50), &gens::one_of(vec![2usize, 5, 20]));
    check_budgeted(
        "fuzz_report_snapshot_toggle",
        (cases() / 16).max(6),
        &gen,
        |&(seed, budget)| {
            let spec = MissionSpec::paper_delivery(5, seed);
            let on = fuzzer_with(10.0, budget, true).fuzz(&spec);
            let off = fuzzer_with(10.0, budget, false).fuzz(&spec);
            tk_ensure!(
                format!("{on:?}") == format!("{off:?}"),
                "snapshot toggle changed the fuzz result (seed {seed}, budget {budget})"
            );
            if let Ok(report) = on {
                tk_ensure!(
                    report.evaluations <= budget,
                    "budget overspent: {} > {budget}",
                    report.evaluations
                );
            }
            Ok(())
        },
    );
}

#[test]
fn eval_budget_is_conserved_under_forking() {
    // A forked probe skips thousands of prefix steps but still counts as
    // exactly one search iteration (the paper caps these at 20): evaluations
    // never exceed the budget, match the snapshot-off run exactly, and the
    // two-phase gradient restart cannot overspend its remainder.
    for budget in [0usize, 1, 2, 3, 7, 20] {
        let spec = MissionSpec::paper_delivery(5, 11);
        let telemetry = Telemetry::enabled(1);
        let on = fuzzer_with(10.0, budget, true)
            .with_trace(telemetry.trace())
            .fuzz(&spec)
            .expect("fuzz must run");
        let off = fuzzer_with(10.0, budget, false).fuzz(&spec).expect("fuzz must run");
        assert!(on.evaluations <= budget, "budget {budget} overspent: {}", on.evaluations);
        assert_eq!(on, off, "snapshot toggle changed the report at budget {budget}");
        // Every evaluation was either a fork hit or a fork miss — no probe
        // escapes the accounting.
        let hits = telemetry.counter(Counter::ForkHits);
        let misses = telemetry.counter(Counter::ForkMisses);
        let evaluations = telemetry.counter(Counter::Evaluations);
        assert_eq!(evaluations, on.evaluations as u64, "one probe event per evaluation");
        assert_eq!(
            hits + misses,
            evaluations,
            "fork accounting must cover every evaluation at budget {budget}"
        );
    }
}

/// Fuzzes `spec` with snapshots on under `budget` and returns the
/// `(snapshots, stride)` of the ring its `baseline` event reports.
fn baseline_ring(spec: &MissionSpec, budget: usize) -> (usize, usize) {
    let ring = Arc::new(RingSink::new(1 << 12));
    fuzzer_with(10.0, budget, true)
        .with_trace(Trace::new(ring.clone()))
        .fuzz(spec)
        .expect("fuzz must run");
    let rings: Vec<(usize, usize)> = ring
        .records()
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::BaselineDone { snapshots, stride, .. } => Some((snapshots, stride)),
            _ => None,
        })
        .collect();
    assert_eq!(rings.len(), 1, "one baseline per fuzzed mission");
    rings[0]
}

#[test]
fn budget_zero_search_builds_no_fork_ring() {
    // A search with no evaluation budget never probes, so a snapshot ring
    // would never be read: none is built and the report is the
    // snapshots-off report. The same mission with a budget does build one,
    // so the check can fail.
    for seed in [3u64, 11, 29] {
        let spec = MissionSpec::paper_delivery(5, seed);
        assert_eq!(baseline_ring(&spec, 0), (0, 0), "budget-0 fuzz built a ring (seed {seed})");
        let (snapshots, stride) = baseline_ring(&spec, 20);
        assert!(snapshots > 0 && stride > 0, "budget-20 fuzz built no ring (seed {seed})");
        let on = fuzzer_with(10.0, 0, true).fuzz(&spec);
        let off = fuzzer_with(10.0, 0, false).fuzz(&spec);
        assert_eq!(format!("{on:?}"), format!("{off:?}"), "report diverged (seed {seed})");
    }
}

fn tiny_campaign(workers: usize) -> CampaignConfig {
    CampaignConfig {
        configs: vec![
            SwarmConfig { swarm_size: 3, deviation: 5.0 },
            SwarmConfig { swarm_size: 5, deviation: 10.0 },
        ],
        missions_per_config: 2,
        base_seed: 21,
        workers,
    }
}

/// The campaign tests' fuzzer, with the default snapshot setting.
fn tiny_fuzzer(deviation: f64) -> Fuzzer<VasarhelyiController> {
    Fuzzer::new(controller(), FuzzerConfig { eval_budget: 4, ..FuzzerConfig::swarmfuzz(deviation) })
}

#[test]
fn campaign_reports_are_bit_identical_snapshots_on_vs_off_across_workers() {
    let run = |workers: usize, snapshot: bool| {
        run_campaign(&tiny_campaign(workers), |d| tiny_fuzzer(d).with_snapshots(snapshot))
            .expect("campaign must run")
    };
    let reference = run(1, false);
    assert_eq!(reference.missions.len(), 4);
    for workers in [1usize, 4] {
        assert_eq!(reference, run(workers, false), "workers={workers}, snapshots off");
        assert_eq!(reference, run(workers, true), "workers={workers}, snapshots on");
    }
}

/// Runs `tiny_campaign` on two workers through the instrumented runner
/// with default options, counting its events.
fn counted_campaign<F>(make: F) -> (CampaignReport, Telemetry)
where
    F: Fn(f64) -> Fuzzer<VasarhelyiController> + Sync,
{
    let telemetry = Telemetry::enabled(2);
    let options = CampaignRunOptions::default();
    let report = run_campaign_with_options(&tiny_campaign(2), make, &options, &telemetry.trace())
        .expect("campaign must run");
    (report, telemetry)
}

#[test]
fn campaign_probes_fork_from_their_missions_ring() {
    // With snapshots on, each mission's baseline run builds a snapshot ring
    // and that mission's window-search probes fork from it. The hit
    // counters prove the fast path actually engaged.
    let (report, telemetry) = counted_campaign(tiny_fuzzer);
    let evals: u64 = report.missions.iter().map(|m| m.evaluations as u64).sum();
    let hits = telemetry.counter(Counter::ForkHits);
    let misses = telemetry.counter(Counter::ForkMisses);
    assert_eq!(hits + misses, evals);
    assert!(hits > 0, "campaign probes must fork from their mission's snapshots");
    assert!(
        telemetry.counter(Counter::PrefixStepsSaved) > 0,
        "forking must skip prefix physics steps"
    );
}

#[test]
fn fuzzers_own_snapshot_setting_is_the_only_one() {
    // Default campaign options leave a fuzzer built with snapshots off
    // re-simulating every probe (`fork: None` on every probe event), with
    // the report of the default, forking fuzzer.
    let (forked, forked_counts) = counted_campaign(tiny_fuzzer);
    let (fresh, fresh_counts) = counted_campaign(|d| tiny_fuzzer(d).with_snapshots(false));
    assert!(forked_counts.counter(Counter::ForkHits) > 0, "the default fuzzer forks");
    assert!(fresh_counts.counter(Counter::Evaluations) > 0, "the campaign probed");
    assert_eq!(
        fresh_counts.counter(Counter::ForkHits) + fresh_counts.counter(Counter::ForkMisses),
        0,
        "a fuzzer built with snapshots off must not fork"
    );
    assert_eq!(fresh, forked, "snapshot forking must not change the report");
}
