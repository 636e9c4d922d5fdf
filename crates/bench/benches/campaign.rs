//! Campaign throughput: snapshot-and-fork execution vs from-scratch.
//!
//! Runs the same SwarmFuzz campaign twice — `--snapshot off` (every search
//! probe re-simulates its mission from `t = 0`) and `--snapshot on` (probes
//! fork from the cached baseline snapshot at their spoofing start) — and
//! reports wall-clock, throughput and the fork telemetry. The two reports
//! must be bit-identical; the difference is purely wall-clock.
//!
//! Modes:
//!
//! * default — the paper grid with env-tuned missions
//!   (`SWARMFUZZ_MISSIONS`, `SWARMFUZZ_WORKERS`); writes
//!   `bench_results/campaign_throughput.csv`.
//! * `--smoke` — a single-configuration mini-campaign on one worker that
//!   asserts the speedup floor, for CI.

use std::time::Instant;

use swarmfuzz::campaign::{
    run_campaign_with_options, CampaignConfig, CampaignReport, CampaignRunOptions, SwarmConfig,
};
use swarmfuzz::telemetry::Counter;
use swarmfuzz::Telemetry;
use swarmfuzz_bench::{paper_campaign, results_dir, swarmfuzz_fuzzer};

/// Minimum snapshot-on speedup the smoke mode enforces.
///
/// The honest structural bound for prefix skipping is
/// `T_probe / (T_probe - t_s)`: a fork only saves the no-attack prefix
/// `[0, t_s)`, and on the paper's delivery missions the seed schedule puts
/// spoofing starts at `t_close - 20 s ≈ 12-16 s`; forks skip at least 19 %
/// of probe steps there (measured: ~1.07x; see DESIGN.md §10 and
/// EXPERIMENTS.md). The floor sits below that with margin for CI noise; it
/// exists to catch the fast path regressing into a slowdown (e.g. snapshot
/// clones outweighing the skipped steps), not to certify a headline number.
const SMOKE_SPEEDUP_FLOOR: f64 = 1.02;

struct Measured {
    report: CampaignReport,
    wall_s: f64,
    fork_hits: u64,
    fork_misses: u64,
    steps_saved: u64,
    evaluations: u64,
}

fn run(campaign: &CampaignConfig, snapshot: bool) -> Measured {
    let telemetry = Telemetry::enabled(campaign.workers.max(1));
    let options = CampaignRunOptions { snapshot, ..Default::default() };
    let start = Instant::now();
    let report =
        run_campaign_with_options(campaign, swarmfuzz_fuzzer, &options, &telemetry.trace())
            .expect("campaign must run");
    let wall_s = start.elapsed().as_secs_f64();
    Measured {
        report,
        wall_s,
        fork_hits: telemetry.counter(Counter::ForkHits),
        fork_misses: telemetry.counter(Counter::ForkMisses),
        steps_saved: telemetry.counter(Counter::PrefixStepsSaved),
        evaluations: telemetry.counter(Counter::Evaluations),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let campaign = if smoke {
        CampaignConfig {
            configs: vec![SwarmConfig { swarm_size: 5, deviation: 10.0 }],
            missions_per_config: 3,
            base_seed: 0xC0FFEE,
            workers: 1,
        }
    } else {
        paper_campaign()
    };
    let missions = campaign.configs.len() * campaign.missions_per_config;
    eprintln!(
        "[bench] campaign throughput: {} configs x {} missions, {} workers{}",
        campaign.configs.len(),
        campaign.missions_per_config,
        campaign.workers,
        if smoke { " (smoke)" } else { "" }
    );

    let off = run(&campaign, false);
    let on = run(&campaign, true);

    assert_eq!(
        off.report, on.report,
        "snapshot execution must be invisible in the campaign report"
    );
    assert_eq!(off.evaluations, on.evaluations, "forking must not change the eval budget spend");

    let speedup = off.wall_s / on.wall_s;
    let fork_rate = on.fork_hits as f64 / (on.fork_hits + on.fork_misses).max(1) as f64;
    println!(
        "snapshot off: {:>8.2} s  ({:.2} missions/s)",
        off.wall_s,
        missions as f64 / off.wall_s
    );
    println!("snapshot on : {:>8.2} s  ({:.2} missions/s)", on.wall_s, missions as f64 / on.wall_s);
    println!(
        "speedup: {speedup:.2}x  (fork rate {:.0}%, {} prefix physics steps skipped)",
        fork_rate * 100.0,
        on.steps_saved
    );

    // Smoke runs (CI) keep their own file so they never clobber the
    // paper-grid numbers cited by EXPERIMENTS.md.
    let csv_name = if smoke { "campaign_throughput_smoke.csv" } else { "campaign_throughput.csv" };
    let path = results_dir().join(csv_name);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    let mut csv = String::from(
        "mode,configs,missions_per_config,workers,snapshot,wall_s,missions_per_s,evaluations,fork_hits,fork_misses,prefix_steps_saved,speedup\n",
    );
    let mode = if smoke { "smoke" } else { "paper-grid" };
    for (m, snap) in [(&off, "off"), (&on, "on")] {
        csv.push_str(&format!(
            "{mode},{},{},{},{snap},{:.3},{:.3},{},{},{},{},{:.3}\n",
            campaign.configs.len(),
            campaign.missions_per_config,
            campaign.workers,
            m.wall_s,
            missions as f64 / m.wall_s,
            m.evaluations,
            m.fork_hits,
            m.fork_misses,
            m.steps_saved,
            if std::ptr::eq(m, &on) { speedup } else { 1.0 },
        ));
    }
    std::fs::write(&path, csv).expect("write campaign throughput csv");
    println!("csv: {}", path.display());

    if smoke {
        assert!(on.fork_hits > 0, "smoke campaign must exercise the fork path");
        assert!(
            speedup >= SMOKE_SPEEDUP_FLOOR,
            "snapshot speedup below the smoke floor: {speedup:.2}x < {SMOKE_SPEEDUP_FLOOR}x"
        );
    }
}
