//! Shared plumbing for the benchmark harness.
//!
//! Every table/figure regenerator (`benches/*.rs`, `harness = false`) uses
//! these helpers so the whole suite is driven by the same controller
//! configuration, mission counts and output conventions.
//!
//! Mission counts are environment-tunable:
//!
//! * `SWARMFUZZ_MISSIONS` — missions per configuration for campaign-style
//!   benches (default [`DEFAULT_MISSIONS`]; the paper uses 100);
//! * `SWARMFUZZ_WORKERS` — worker threads for campaigns (default: available
//!   parallelism).
//!
//! Results are printed as the paper's table rows and also written as CSV
//! under `bench_results/`.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use swarm_control::{VasarhelyiController, VasarhelyiParams};
use swarm_sim::spoof::{SpoofDirection, Waveform, WaveformKind};
use swarm_sim::DroneId;
use swarmfuzz::campaign::{
    run_campaign_with_options, CampaignConfig, CampaignReport, MissionResult, SwarmConfig,
};
use swarmfuzz::seed::Seed;
use swarmfuzz::trace::{ProgressSink, TeeSink};
use swarmfuzz::{Fuzzer, FuzzerConfig, SpvFinding, Telemetry, Trace};

/// Default number of missions per configuration (kept modest so the full
/// bench suite completes on a single CI core; the paper uses 100).
pub const DEFAULT_MISSIONS: usize = 40;

/// The controller configuration every experiment runs with (the crate
/// defaults are the tuned reproduction parameters).
pub fn paper_controller() -> VasarhelyiController {
    VasarhelyiController::new(VasarhelyiParams::default())
}

/// Missions per configuration, honouring `SWARMFUZZ_MISSIONS`.
pub fn missions_per_config() -> usize {
    std::env::var("SWARMFUZZ_MISSIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_MISSIONS)
}

/// Worker threads, honouring `SWARMFUZZ_WORKERS`.
pub fn workers() -> usize {
    std::env::var("SWARMFUZZ_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// The paper's six-configuration campaign grid with env-tuned mission count.
pub fn paper_campaign() -> CampaignConfig {
    let mut c = CampaignConfig::paper_grid(missions_per_config(), 0xC0FFEE);
    c.workers = workers();
    c
}

/// Builds the standard SwarmFuzz fuzzer for a deviation.
pub fn swarmfuzz_fuzzer(deviation: f64) -> Fuzzer<VasarhelyiController> {
    Fuzzer::new(paper_controller(), FuzzerConfig::swarmfuzz(deviation))
}

/// Directory where benches drop their CSVs (`bench_results/` at the
/// workspace root).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; results live at the workspace root.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("bench_results");
    p
}

/// Runs the paper's six-configuration SwarmFuzz campaign, caching the result
/// as CSV under `bench_results/` so the four campaign-driven bench targets
/// (Tables I/II, Figs. 6/7) share one execution.
pub fn cached_paper_campaign() -> CampaignReport {
    let campaign = paper_campaign();
    let cache = results_dir().join(format!(
        "campaign_cache_m{}_s{:x}.csv",
        campaign.missions_per_config, campaign.base_seed
    ));
    if let Some(report) = load_campaign_csv(&cache) {
        eprintln!("[bench] loaded cached campaign from {}", cache.display());
        return report;
    }
    eprintln!(
        "[bench] running campaign: {} configs x {} missions (set SWARMFUZZ_MISSIONS to change)",
        campaign.configs.len(),
        campaign.missions_per_config
    );
    let telemetry = Telemetry::enabled(campaign.workers);
    let progress = ProgressSink::new((campaign.missions_per_config as u64).max(5));
    let trace =
        Trace::new(Arc::new(TeeSink::new(vec![Arc::new(telemetry.clone()), Arc::new(progress)])));
    let report =
        run_campaign_with_options(&campaign, swarmfuzz_fuzzer, &Default::default(), &trace)
            .expect("campaign must run");
    store_campaign_csv(&cache, &report);
    if let Some(snapshot) = telemetry.snapshot() {
        let stem = format!(
            "telemetry_campaign_m{}_s{:x}",
            campaign.missions_per_config, campaign.base_seed
        );
        let json = results_dir().join(format!("{stem}.json"));
        let csv = results_dir().join(format!("{stem}.csv"));
        std::fs::write(&json, snapshot.to_json()).ok();
        std::fs::write(&csv, snapshot.to_csv()).ok();
        eprintln!("[bench] telemetry: {} / {}", json.display(), csv.display());
    }
    report
}

const CAMPAIGN_HEADER: &str = "swarm_size,deviation,mission_seed,vdo,success,evaluations,seeds_tried,target,victim,theta,start,duration,actual_victim,collision_time";

fn store_campaign_csv(path: &Path, report: &CampaignReport) {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    let mut out = String::from(CAMPAIGN_HEADER);
    out.push('\n');
    for m in &report.missions {
        let f = m.finding.as_ref();
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            m.config.swarm_size,
            m.config.deviation,
            m.mission_seed,
            m.vdo,
            m.success,
            m.evaluations,
            m.seeds_tried,
            f.map_or(String::new(), |f| f.seed.target.index().to_string()),
            f.map_or(String::new(), |f| f.seed.victim.index().to_string()),
            f.map_or(String::new(), |f| f.seed.direction.theta().to_string()),
            f.map_or(String::new(), |f| f.start.to_string()),
            f.map_or(String::new(), |f| f.duration.to_string()),
            f.map_or(String::new(), |f| f.actual_victim.index().to_string()),
            f.map_or(String::new(), |f| f.collision_time.to_string()),
        ));
    }
    std::fs::write(path, out).ok();
}

fn load_campaign_csv(path: &Path) -> Option<CampaignReport> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut lines = text.lines();
    if lines.next()? != CAMPAIGN_HEADER {
        return None;
    }
    let mut missions = Vec::new();
    for line in lines {
        let c: Vec<&str> = line.split(',').collect();
        if c.len() != 14 {
            return None;
        }
        let config = SwarmConfig { swarm_size: c[0].parse().ok()?, deviation: c[1].parse().ok()? };
        let vdo: f64 = c[3].parse().ok()?;
        let success: bool = c[4].parse().ok()?;
        let finding = if success && !c[7].is_empty() {
            Some(SpvFinding {
                seed: Seed {
                    target: DroneId(c[7].parse().ok()?),
                    victim: DroneId(c[8].parse().ok()?),
                    direction: if c[9] == "1" {
                        SpoofDirection::Right
                    } else {
                        SpoofDirection::Left
                    },
                    influence: 0.0,
                    victim_vdo: vdo,
                    // The cache CSV predates the attack zoo; every cached
                    // finding is the paper's constant-offset attack.
                    waveform: WaveformKind::Constant,
                },
                start: c[10].parse().ok()?,
                duration: c[11].parse().ok()?,
                deviation: config.deviation,
                actual_victim: DroneId(c[12].parse().ok()?),
                collision_time: c[13].parse().ok()?,
                waveform: Waveform::Constant,
            })
        } else {
            None
        };
        missions.push(MissionResult {
            config,
            mission_seed: c[2].parse().ok()?,
            vdo,
            success,
            finding,
            evaluations: c[5].parse().ok()?,
            seeds_tried: c[6].parse().ok()?,
        });
    }
    let expected = missions_per_config() * paper_configs().len();
    (missions.len() == expected).then_some(CampaignReport { missions, failures: Vec::new() })
}

/// One metric's committed-vs-fresh comparison from [`diff_against_committed`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Metric name (first CSV column).
    pub metric: String,
    /// Value committed at `HEAD`.
    pub committed: f64,
    /// Freshly regenerated value.
    pub fresh: f64,
}

impl MetricDelta {
    /// Relative change in percent (+ = fresh is larger/slower).
    pub fn delta_pct(&self) -> f64 {
        if self.committed == 0.0 {
            if self.fresh == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.fresh - self.committed) / self.committed.abs() * 100.0
        }
    }
}

/// Parses a two-column `metric,value` CSV (header skipped) into ordered
/// pairs; non-numeric values and malformed lines are dropped.
pub fn parse_metric_csv(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .skip(1)
        .filter_map(|line| {
            let (metric, value) = line.split_once(',')?;
            Some((metric.to_string(), value.trim().parse::<f64>().ok()?))
        })
        .collect()
}

/// Diffs a freshly generated `bench_results/<name>` CSV against the copy
/// committed at `HEAD` (via `git show`), returning one [`MetricDelta`] per
/// metric present in both. Returns `None` when either side is unavailable
/// (no fresh file, no committed copy, not a git checkout) — the trajectory
/// guard is warn-only by design: benchmark numbers drift with hardware, so
/// the deltas belong in the CI log, not in the exit code.
pub fn diff_against_committed(name: &str) -> Option<Vec<MetricDelta>> {
    let fresh_text = std::fs::read_to_string(results_dir().join(name)).ok()?;
    let root = results_dir();
    let root = root.parent()?;
    let out = std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .arg("show")
        .arg(format!("HEAD:bench_results/{name}"))
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let committed_text = String::from_utf8(out.stdout).ok()?;
    let committed = parse_metric_csv(&committed_text);
    let fresh: std::collections::HashMap<String, f64> =
        parse_metric_csv(&fresh_text).into_iter().collect();
    Some(
        committed
            .into_iter()
            .filter_map(|(metric, committed)| {
                let fresh = *fresh.get(&metric)?;
                Some(MetricDelta { metric, committed, fresh })
            })
            .collect(),
    )
}

/// A hard-gated trajectory metric: when a fresh `bench_results/<file>`
/// exists on the same machine, a value that moves more than `fail_pct`
/// percent in the bad direction vs the committed copy fails the trajectory
/// guard instead of merely warning. Missing files (e.g. a CI run that only
/// executed the smoke benches) skip the gate — the guard can only judge a
/// fresh full run against its own committed baseline.
#[derive(Debug, Clone, Copy)]
pub struct GatedMetric {
    /// Metric CSV under `bench_results/` (must be `metric,value` layout).
    pub file: &'static str,
    /// Metric name (first CSV column).
    pub metric: &'static str,
    /// Maximum tolerated regression in percent.
    pub fail_pct: f64,
    /// Direction: `true` = larger is better (throughput), `false` =
    /// smaller is better (latency).
    pub higher_is_better: bool,
}

impl GatedMetric {
    /// Signed regression percent for a committed/fresh pair: positive =
    /// worse (slower for throughput metrics, bigger for latency metrics).
    pub fn regression_pct(&self, d: &MetricDelta) -> f64 {
        if self.higher_is_better {
            -d.delta_pct()
        } else {
            d.delta_pct()
        }
    }

    /// Whether the pair regresses past the tolerated threshold.
    pub fn fails(&self, d: &MetricDelta) -> bool {
        self.regression_pct(d) > self.fail_pct
    }
}

/// The trajectory metrics CI refuses to regress (see `benches/trajectory.rs`
/// and DESIGN.md §13): the long-term large-swarm throughput headline.
pub const GATED_METRICS: &[GatedMetric] = &[GatedMetric {
    file: "scaling_trajectory.csv",
    metric: "tps_at_n1000",
    fail_pct: 10.0,
    higher_is_better: true,
}];

/// Prints the [`diff_against_committed`] table for `name`, flagging metrics
/// whose magnitude moved by more than `warn_pct`. Returns how many metrics
/// were compared (0 = nothing to compare). Never fails the process.
pub fn print_trajectory_diff(name: &str, warn_pct: f64) -> usize {
    let Some(deltas) = diff_against_committed(name) else {
        println!("[bench-diff] {name}: no committed/fresh pair to compare, skipping");
        return 0;
    };
    if deltas.is_empty() {
        // Not a `metric,value` CSV (campaign caches, figure data, ...).
        println!("[bench-diff] {name}: no comparable metrics, skipping");
        return 0;
    }
    println!("\n=== bench trajectory: {name} (vs HEAD) ===");
    println!("{:<44} {:>14} {:>14} {:>9}", "metric", "committed", "fresh", "delta");
    for d in &deltas {
        let pct = d.delta_pct();
        let flag = if pct.abs() > warn_pct { "  <-- WARN" } else { "" };
        println!("{:<44} {:>14.2} {:>14.2} {:>+8.1}%{flag}", d.metric, d.committed, d.fresh, pct);
    }
    deltas.len()
}

/// Formats a success rate as the paper prints it ("49%").
pub fn percent(x: f64) -> String {
    format!("{:.0}%", x * 100.0)
}

/// Pretty-prints one table with a title, header and rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    println!("{}", header.join("\t"));
    for row in rows {
        println!("{}", row.join("\t"));
    }
}

/// The six paper configurations in Table I order (5 m row first).
pub fn paper_configs() -> Vec<SwarmConfig> {
    CampaignConfig::paper_grid(1, 0).configs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_cover_grid() {
        let c = paper_configs();
        assert_eq!(c.len(), 6);
    }

    #[test]
    fn percent_formats_like_paper() {
        assert_eq!(percent(0.488), "49%");
        assert_eq!(percent(0.0), "0%");
    }

    #[test]
    fn results_dir_is_workspace_level() {
        let d = results_dir();
        assert!(d.ends_with("bench_results"));
        assert!(d.parent().unwrap().join("Cargo.toml").exists());
    }

    #[test]
    fn env_overrides_missions() {
        // No env set in tests: default applies.
        assert!(missions_per_config() >= 1);
    }

    #[test]
    fn metric_csv_parses_and_skips_garbage() {
        let rows = parse_metric_csv(
            "benchmark,ns_per_iter\npagerank/5,1200\nbroken-line\nno_value,\nsvg/15,88.5\n",
        );
        assert_eq!(rows, vec![("pagerank/5".into(), 1200.0), ("svg/15".into(), 88.5)]);
    }

    #[test]
    fn delta_pct_handles_zero_baselines() {
        let d = |committed, fresh| MetricDelta { metric: "m".into(), committed, fresh };
        assert_eq!(d(100.0, 110.0).delta_pct(), 10.0);
        assert_eq!(d(100.0, 90.0).delta_pct(), -10.0);
        assert_eq!(d(0.0, 0.0).delta_pct(), 0.0);
        assert!(d(0.0, 5.0).delta_pct().is_infinite());
    }

    #[test]
    fn missing_files_are_a_skip_not_a_failure() {
        assert_eq!(diff_against_committed("definitely-not-a-bench.csv"), None);
        assert_eq!(print_trajectory_diff("definitely-not-a-bench.csv", 10.0), 0);
    }

    #[test]
    fn gated_metric_regression_respects_direction() {
        let gate =
            GatedMetric { file: "f.csv", metric: "m", fail_pct: 10.0, higher_is_better: true };
        let d = |committed, fresh| MetricDelta { metric: "m".into(), committed, fresh };
        // Throughput dropping is a regression; rising is an improvement.
        assert_eq!(gate.regression_pct(&d(100.0, 80.0)), 20.0);
        assert!(gate.fails(&d(100.0, 80.0)));
        assert!(!gate.fails(&d(100.0, 95.0))); // within tolerance
        assert!(!gate.fails(&d(100.0, 150.0))); // faster never fails
                                                // Latency metrics gate in the opposite direction.
        let lat = GatedMetric { higher_is_better: false, ..gate };
        assert!(lat.fails(&d(100.0, 120.0)));
        assert!(!lat.fails(&d(100.0, 80.0)));
    }

    #[test]
    fn gated_metrics_cover_the_n1000_throughput_headline() {
        assert!(GATED_METRICS
            .iter()
            .any(|g| g.file == "scaling_trajectory.csv" && g.metric == "tps_at_n1000"));
        for g in GATED_METRICS {
            assert!(g.fail_pct > 0.0, "a zero-tolerance gate would fail on noise");
        }
    }
}
