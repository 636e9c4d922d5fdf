//! Campaign-level determinism and telemetry neutrality: the same campaign
//! must produce identical [`CampaignReport`]s across worker counts, and
//! attaching a counting sink must not change a single byte of the report —
//! only observe it. The counters are one fold over the trace event stream,
//! so replaying a recorded trace reproduces every event-derived counter.

use std::sync::Arc;

use swarm_control::{VasarhelyiController, VasarhelyiParams};
use swarmfuzz::campaign::{
    run_campaign, run_campaign_with_options, CampaignConfig, CampaignReport, CampaignRunOptions,
    JournalSpec, SwarmConfig,
};
use swarmfuzz::dashboard::render_dashboard;
use swarmfuzz::telemetry::Counter;
use swarmfuzz::trace::{RingSink, TeeSink};
use swarmfuzz::{Fuzzer, FuzzerConfig, Telemetry, Trace, TraceSink};

fn controller() -> VasarhelyiController {
    VasarhelyiController::new(VasarhelyiParams::default())
}

/// A deliberately tiny campaign (2 configs x 2 missions, tight evaluation
/// budget) so the 4-way comparison stays fast in debug builds.
fn tiny_campaign(workers: usize) -> CampaignConfig {
    CampaignConfig {
        configs: vec![
            SwarmConfig { swarm_size: 3, deviation: 5.0 },
            SwarmConfig { swarm_size: 4, deviation: 10.0 },
        ],
        missions_per_config: 2,
        base_seed: 7,
        workers,
    }
}

fn fuzzer(deviation: f64) -> Fuzzer<VasarhelyiController> {
    let config = FuzzerConfig { eval_budget: 2, ..FuzzerConfig::swarmfuzz(deviation) };
    Fuzzer::new(controller(), config)
}

fn run(workers: usize, telemetry: &Telemetry) -> CampaignReport {
    run_campaign_with_options(
        &tiny_campaign(workers),
        fuzzer,
        &CampaignRunOptions::default(),
        &telemetry.trace(),
    )
    .expect("campaign must run")
}

#[test]
fn campaign_identical_across_workers_and_telemetry() {
    let baseline = run_campaign(&tiny_campaign(1), fuzzer).expect("campaign must run");
    assert_eq!(baseline.missions.len(), 4);

    // Workers 1 and 4, each with telemetry off and on: all four reports must
    // be identical to the plain single-worker run.
    for workers in [1usize, 4] {
        let off = run(workers, &Telemetry::off());
        assert_eq!(baseline, off, "workers={workers}, telemetry off");

        let telemetry = Telemetry::enabled(workers);
        let on = run(workers, &telemetry);
        assert_eq!(baseline, on, "workers={workers}, telemetry on");
    }
}

#[test]
fn telemetry_counters_match_the_report() {
    let telemetry = Telemetry::enabled(2);
    let report = run(2, &telemetry);

    assert_eq!(telemetry.counter(Counter::MissionsRun), report.missions.len() as u64);
    assert_eq!(
        telemetry.counter(Counter::Evaluations),
        report.missions.iter().map(|m| m.evaluations as u64).sum::<u64>()
    );
    assert_eq!(
        telemetry.counter(Counter::SpvFound),
        report.missions.iter().filter(|m| m.success).count() as u64
    );
    assert_eq!(
        telemetry.counter(Counter::SeedsTried),
        report.missions.iter().map(|m| m.seeds_tried as u64).sum::<u64>()
    );
    // Every mission ran at least the baseline simulation; steps must have
    // been batched in.
    assert!(telemetry.counter(Counter::SimPhysicsSteps) > 0);
    assert!(telemetry.counter(Counter::SimControlTicks) > 0);

    let snapshot = telemetry.snapshot().expect("telemetry enabled");
    // One baseline span per fuzzed mission (baseline skips would add more;
    // none expected for these seeds — then counters still reconcile via
    // BaselineSkips).
    let baseline_spans = snapshot.phase("baseline").unwrap().count;
    let skips = telemetry.counter(Counter::BaselineSkips);
    assert_eq!(baseline_spans, report.missions.len() as u64 + skips);
    // The paper pipeline: one seed-schedule span per mission, gradient
    // search only (SwarmFuzz variant). Every evaluation is either a fresh
    // mission sim or a fork (prefix reconstruction + forked sim), and the
    // fork hit/miss counters reconcile exactly with the phase split.
    assert_eq!(snapshot.phase("seed_schedule").unwrap().count, report.missions.len() as u64);
    assert_eq!(snapshot.phase("random_search").unwrap().count, 0);
    let fresh_sims = snapshot.phase("mission_sim").unwrap().count;
    let forked_sims = snapshot.phase("forked_sim").unwrap().count;
    assert_eq!(fresh_sims + forked_sims, telemetry.counter(Counter::Evaluations));
    assert_eq!(forked_sims, telemetry.counter(Counter::ForkHits));
    assert_eq!(fresh_sims, telemetry.counter(Counter::ForkMisses));
    assert_eq!(snapshot.phase("prefix_sim").unwrap().count, forked_sims);
    assert!(forked_sims > 0, "snapshot forking is on by default: some probes must fork");
    assert!(telemetry.counter(Counter::PrefixStepsSaved) > 0);
    // Worker progress sums to the campaign totals.
    let worker_missions: u64 = snapshot.workers.iter().map(|w| w.missions).sum();
    assert_eq!(worker_missions, report.missions.len() as u64);
}

/// The counters measured on the side channel rather than folded from events.
fn is_measured(counter: Counter) -> bool {
    matches!(
        counter,
        Counter::SimPhysicsSteps
            | Counter::SimControlTicks
            | Counter::GridRebuilds
            | Counter::GridCellsScanned
            | Counter::PrefixStepsSaved
    )
}

#[test]
fn replayed_trace_reproduces_every_event_counter() {
    // The tiny grid plus a one-drone configuration whose missions retry and
    // then fail (a swarm of one has no target-victim pair), resumed from a
    // journal holding the first two rows: every counter the dashboard cards
    // show is non-zero or pinned.
    let mut campaign = tiny_campaign(1);
    campaign.configs.push(SwarmConfig { swarm_size: 1, deviation: 5.0 });
    let dir = std::env::temp_dir().join(format!("swarmfuzz-replay-{}", std::process::id()));
    let path = dir.join("journal.jsonl");
    let options = |resume| CampaignRunOptions {
        journal: Some(JournalSpec { path: path.clone(), resume }),
        ..CampaignRunOptions::default()
    };
    run_campaign_with_options(&campaign, fuzzer, &options(false), &Trace::off())
        .expect("journaled run");
    let text = std::fs::read_to_string(&path).expect("journal exists");
    let head: Vec<&str> = text.lines().take(3).collect();
    std::fs::write(&path, head.join("\n") + "\n").expect("truncate journal to two rows");

    let ring = Arc::new(RingSink::new(1 << 16));
    let live = Telemetry::enabled(1);
    let tee = TeeSink::new(vec![ring.clone(), Arc::new(live.clone())]);
    let report =
        run_campaign_with_options(&campaign, fuzzer, &options(true), &Trace::new(Arc::new(tee)))
            .expect("resumed run");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(ring.dropped(), 0, "ring must hold the whole trace");

    let replayed = Telemetry::enabled(1);
    for record in ring.records() {
        replayed.record(&record);
    }
    for counter in Counter::ALL.into_iter().filter(|&c| !is_measured(c)) {
        assert_eq!(live.counter(counter), replayed.counter(counter), "{}", counter.name());
    }
    assert_eq!(live.counter(Counter::ResumeSkips), 2);
    assert_eq!(live.counter(Counter::JournalAppends), 4);
    assert_eq!(live.counter(Counter::MissionRetries), 2);
    assert_eq!(live.counter(Counter::MissionFailures), 2);
    assert!(live.counter(Counter::ForkHits) > 0);

    let html = render_dashboard(&report, &campaign.configs, &ring.records(), "replay");
    for (label, counter) in [
        ("fork hits", Counter::ForkHits),
        ("fork misses", Counter::ForkMisses),
        ("retries", Counter::MissionRetries),
        ("resume skips", Counter::ResumeSkips),
    ] {
        let card = format!(
            "<div class=\"v\">{}</div><div class=\"l\">{label}</div>",
            live.counter(counter)
        );
        assert!(html.contains(&card), "dashboard card {label:?} must read the live count");
    }
}
