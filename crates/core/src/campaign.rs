//! Campaign orchestration: fuzz many missions across swarm configurations.
//!
//! The paper's evaluation (§V-B) runs 100 missions for each of six
//! configurations (swarm sizes {5, 10, 15} × spoofing distances {5 m, 10 m})
//! and reports per-configuration success rates (Table I), search iterations
//! (Table II) and the distributions behind Figs. 6 and 7. [`run_campaign`]
//! reproduces that pipeline, fanning missions out over worker threads.

use std::collections::HashSet;
use std::path::PathBuf;

use swarm_sim::mission::MissionSpec;
use swarm_sim::SwarmController;

use crate::executor::{ExecutionProfile, InProcessExecutor, MissionJob};
use crate::fuzzer::{Fuzzer, FuzzerConfig, SpvFinding};
use crate::server::run_scheduled;
use crate::snapshot::SnapshotCache;
use crate::store::{campaign_fingerprint, CampaignJournal, JournalRow};
use crate::telemetry::{Counter, Telemetry};
use crate::trace::{Trace, TraceEvent, TraceKey};
use crate::FuzzError;

/// One swarm configuration of the evaluation grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwarmConfig {
    /// Number of drones.
    pub swarm_size: usize,
    /// GPS spoofing deviation in metres.
    pub deviation: f64,
}

impl std::fmt::Display for SwarmConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}d-{}m", self.swarm_size, self.deviation)
    }
}

/// Campaign-level options.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// The configuration grid (the paper uses {5,10,15} × {5 m,10 m}).
    pub configs: Vec<SwarmConfig>,
    /// Missions per configuration (the paper uses 100).
    pub missions_per_config: usize,
    /// Base seed; mission `i` of a configuration uses `base_seed + i` (after
    /// skipping seeds whose baseline collides, mirroring the paper's setup
    /// where no unattacked mission collides).
    pub base_seed: u64,
    /// Number of worker threads (1 = sequential).
    pub workers: usize,
}

impl CampaignConfig {
    /// The paper's six-configuration grid.
    pub fn paper_grid(missions_per_config: usize, base_seed: u64) -> Self {
        let mut configs = Vec::new();
        for &deviation in &[5.0, 10.0] {
            for &swarm_size in &[5usize, 10, 15] {
                configs.push(SwarmConfig { swarm_size, deviation });
            }
        }
        CampaignConfig { configs, missions_per_config, base_seed, workers: 1 }
    }
}

/// Per-mission fuzzing outcome within a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct MissionResult {
    /// The configuration the mission belongs to.
    pub config: SwarmConfig,
    /// The mission seed actually used (baseline-colliding seeds skipped).
    pub mission_seed: u64,
    /// The mission's VDO from the initial test.
    pub vdo: f64,
    /// Whether the fuzzer found an SPV.
    pub success: bool,
    /// The finding, when successful.
    pub finding: Option<SpvFinding>,
    /// Search iterations (attacked missions) spent.
    pub evaluations: usize,
    /// Seeds tried before success/exhaustion.
    pub seeds_tried: usize,
}

/// A mission that exhausted its retries: quarantined as a `failed` row
/// instead of aborting the campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct MissionFailure {
    /// The configuration the mission belongs to.
    pub config: SwarmConfig,
    /// Mission index within its configuration.
    pub index: usize,
    /// Rendered [`FuzzError`] of the final attempt.
    pub error: String,
    /// Retries spent before giving up.
    pub retries: usize,
}

/// All results of one campaign.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CampaignReport {
    /// One entry per fuzzed mission.
    pub missions: Vec<MissionResult>,
    /// Missions quarantined after exhausting their retries; aggregate
    /// metrics ([`CampaignReport::success_rate`] etc.) cover successes only.
    pub failures: Vec<MissionFailure>,
}

impl CampaignReport {
    /// A human-readable summary of the quarantined missions (`None` when
    /// every mission completed).
    pub fn error_summary(&self) -> Option<String> {
        if self.failures.is_empty() {
            return None;
        }
        let mut out = format!("{} mission(s) failed:\n", self.failures.len());
        for f in &self.failures {
            out.push_str(&format!(
                "  {} index {} ({} retries): {}\n",
                f.config, f.index, f.retries, f.error
            ));
        }
        Some(out)
    }

    /// Results belonging to `config`.
    pub fn for_config(&self, config: SwarmConfig) -> Vec<&MissionResult> {
        self.missions.iter().filter(|m| m.config == config).collect()
    }

    /// Success rate for `config` (`None` when no missions ran for it).
    pub fn success_rate(&self, config: SwarmConfig) -> Option<f64> {
        let rows = self.for_config(config);
        if rows.is_empty() {
            return None;
        }
        Some(rows.iter().filter(|m| m.success).count() as f64 / rows.len() as f64)
    }

    /// Mean search iterations for `config` over all missions (`None` when no
    /// missions ran for it).
    pub fn mean_iterations(&self, config: SwarmConfig) -> Option<f64> {
        let rows = self.for_config(config);
        if rows.is_empty() {
            return None;
        }
        Some(rows.iter().map(|m| m.evaluations as f64).sum::<f64>() / rows.len() as f64)
    }
}

/// Builds the mission spec a campaign uses for `(config, seed)`. Exposed so
/// examples and benches can reproduce individual campaign missions exactly.
pub fn campaign_mission(config: SwarmConfig, seed: u64) -> MissionSpec {
    MissionSpec::paper_delivery(config.swarm_size, seed)
}

/// The first mission seed of `(config, index)` within a campaign: a
/// SplitMix64-style hash chain over `(base_seed, swarm_size,
/// deviation.to_bits(), index)`.
///
/// Hashing (rather than additive offsets) keeps seed streams disjoint across
/// arbitrary grids: additive schemes collide as soon as two configurations
/// straddle the offset radix (e.g. size 6 / dev 5 vs size 5 / dev 15), and
/// truncating the deviation to an integer reuses one stream for every
/// fractional deviation. Baseline-colliding seeds still advance by `+1` from
/// this starting point; with hashed 64-bit starting points the probability of
/// two missions' skip windows overlapping is negligible instead of certain.
pub fn mission_base_seed(base_seed: u64, config: SwarmConfig, index: usize) -> u64 {
    use swarm_math::rng::derive_seed;
    let s = derive_seed(base_seed, config.swarm_size as u64);
    let s = derive_seed(s, config.deviation.to_bits());
    derive_seed(s, index as u64)
}

/// Runs a fuzzing campaign.
///
/// For every configuration, missions are generated from consecutive seeds;
/// seeds whose *baseline* mission collides are skipped (the paper's setup
/// guarantees collision-free unattacked missions), drawing replacements until
/// `missions_per_config` clean missions have been fuzzed.
///
/// `make_fuzzer` builds the per-configuration fuzzer (it receives the
/// spoofing deviation so variants can be constructed uniformly).
///
/// # Errors
///
/// Returns the first non-recoverable [`FuzzError`] encountered (baseline
/// collisions are handled by skipping, not returned).
pub fn run_campaign<C, F>(
    campaign: &CampaignConfig,
    make_fuzzer: F,
) -> Result<CampaignReport, FuzzError>
where
    C: SwarmController + Clone + Send + 'static,
    F: Fn(f64) -> Fuzzer<C> + Sync,
{
    run_campaign_with_telemetry(campaign, make_fuzzer, &Telemetry::off())
}

/// [`run_campaign`] with a telemetry handle attached to every worker's
/// fuzzer.
///
/// Telemetry is purely observational — the returned [`CampaignReport`] is
/// byte-identical to the uninstrumented run's (covered by the campaign
/// determinism tests). Per-worker progress (missions done, SPVs found,
/// evaluations spent) is tracked per worker slot, and periodic one-line
/// progress reports go to stderr when the handle was built with
/// [`Telemetry::enabled_with_progress`].
///
/// # Errors
///
/// Same conditions as [`run_campaign`].
pub fn run_campaign_with_telemetry<C, F>(
    campaign: &CampaignConfig,
    make_fuzzer: F,
    telemetry: &Telemetry,
) -> Result<CampaignReport, FuzzError>
where
    C: SwarmController + Clone + Send + 'static,
    F: Fn(f64) -> Fuzzer<C> + Sync,
{
    run_campaign_with_options(campaign, make_fuzzer, telemetry, &CampaignRunOptions::default())
}

/// Where (and whether) a campaign journals its progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalSpec {
    /// JSONL journal file; created (with parents) when absent.
    pub path: PathBuf,
    /// Resume from an existing journal at `path` instead of truncating it.
    /// The journal's fingerprint must match this campaign, and every
    /// already-journaled `(config, index)` job is skipped.
    pub resume: bool,
}

/// Execution options orthogonal to the campaign's identity: none of these
/// affect the journal fingerprint or the report's contents — only how the
/// run is persisted and how failures are retried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignRunOptions {
    /// Stream per-mission rows to a crash-safe journal.
    pub journal: Option<JournalSpec>,
    /// Retries per mission before it is quarantined as a `failed` row
    /// (0 = fail fast into the report).
    pub max_retries: usize,
    /// Snapshot-and-fork execution: cache each mission's baseline trajectory
    /// plus a snapshot ring (shared across all workers and fuzzer variants)
    /// and fork every search probe from the newest snapshot preceding its
    /// spoofing start instead of re-simulating the prefix. Bit-identical to
    /// running with it off — only faster (`tests/snapshot_equivalence.rs`).
    pub snapshot: bool,
}

impl Default for CampaignRunOptions {
    fn default() -> Self {
        CampaignRunOptions { journal: None, max_retries: 1, snapshot: true }
    }
}

/// The full campaign runner: [`run_campaign_with_telemetry`] plus crash-safe
/// journaling, resume and per-mission fault isolation.
///
/// * Worker results stream to the journal as they complete (one JSONL row
///   per mission), so killing the process loses at most the in-flight
///   missions.
/// * With [`JournalSpec::resume`], already-journaled jobs are skipped and
///   their rows are merged into the final report — the resumed report is
///   **bit-identical** to an uninterrupted run (`tests/campaign_store.rs`).
/// * A mission-level [`FuzzError`] is retried up to
///   [`CampaignRunOptions::max_retries`] times and then recorded as a
///   [`MissionFailure`] row instead of aborting the campaign.
///
/// # Errors
///
/// Only journal-level failures abort: [`FuzzError::Journal`] on I/O errors,
/// corruption, or a fingerprint mismatch (the journal belongs to a
/// different grid or fuzzer variant). Mission-level errors never do.
pub fn run_campaign_with_options<C, F>(
    campaign: &CampaignConfig,
    make_fuzzer: F,
    telemetry: &Telemetry,
    options: &CampaignRunOptions,
) -> Result<CampaignReport, FuzzError>
where
    C: SwarmController + Clone + Send + 'static,
    F: Fn(f64) -> Fuzzer<C> + Sync,
{
    run_campaign_traced(campaign, make_fuzzer, telemetry, options, &Trace::off())
}

/// [`run_campaign_with_options`] with a structured trace handle attached to
/// every worker's fuzzer (see [`crate::trace`]).
///
/// The trace is a separate parameter — not a [`CampaignRunOptions`] field —
/// because options participate in equality/fingerprint comparisons while a
/// trace is purely observational: the returned [`CampaignReport`] is
/// bit-identical with any sink attached (gated by `tests/campaign_trace.rs`),
/// and since every event is keyed by logical time only, the trace itself is
/// byte-identical across worker counts after a sequence-sort.
///
/// # Errors
///
/// Same conditions as [`run_campaign_with_options`].
pub fn run_campaign_traced<C, F>(
    campaign: &CampaignConfig,
    make_fuzzer: F,
    telemetry: &Telemetry,
    options: &CampaignRunOptions,
    trace: &Trace,
) -> Result<CampaignReport, FuzzError>
where
    C: SwarmController + Clone + Send + 'static,
    F: Fn(f64) -> Fuzzer<C> + Sync,
{
    // Work items: every (config, mission index) of the grid.
    let all_jobs: Vec<MissionJob> = campaign
        .configs
        .iter()
        .flat_map(|&config| {
            (0..campaign.missions_per_config).map(move |index| MissionJob { config, index })
        })
        .collect();

    // Open or resume the journal before spawning anything.
    let mut journal = None;
    let mut loaded_rows: Vec<JournalRow> = Vec::new();
    if let Some(spec) = &options.journal {
        let fuzzer_configs: Vec<FuzzerConfig> =
            campaign.configs.iter().map(|c| *make_fuzzer(c.deviation).config()).collect();
        let fingerprint = campaign_fingerprint(campaign, &fuzzer_configs);
        if spec.resume && spec.path.exists() {
            let (j, rows) = CampaignJournal::resume(&spec.path, &fingerprint)?;
            journal = Some(j);
            loaded_rows = rows;
        } else {
            let variant = fuzzer_configs.first().map_or("none", FuzzerConfig::variant_name);
            journal = Some(CampaignJournal::create(&spec.path, &fingerprint, variant)?);
        }
    }

    // Deduplicate journaled rows onto the grid and drop the rest (a matching
    // fingerprint makes strays impossible short of hand-editing).
    let grid_keys: HashSet<(usize, u64, usize)> = all_jobs.iter().map(MissionJob::key).collect();
    let mut completed: HashSet<(usize, u64, usize)> = HashSet::new();
    let mut rows: Vec<JournalRow> = Vec::new();
    for row in loaded_rows {
        let key = row.job_key();
        if grid_keys.contains(&key) && completed.insert(key) {
            rows.push(row);
        }
    }
    telemetry.add(Counter::ResumeSkips, completed.len() as u64);
    trace.emit(TraceEvent::CampaignStart {
        configs: campaign.configs.len(),
        missions_per_config: campaign.missions_per_config,
    });
    // One event per resume-skipped job, under the job's own (fresh) scope:
    // the skip set is a function of journal content alone, so the trace
    // stays worker-count-independent.
    for &(size, dev_bits, index) in &completed {
        trace.scoped_bits(size as u64, dev_bits, index as u64).emit(TraceEvent::ResumeSkip);
    }

    let jobs: Vec<MissionJob> =
        all_jobs.into_iter().filter(|job| !completed.contains(&job.key())).collect();

    // One snapshot cache for the whole campaign: every worker (and every
    // fuzzer variant) forks from the same per-mission baselines.
    let snapshot_cache = options.snapshot.then(SnapshotCache::new);

    // From here on the legacy runner is a thin client of the scheduler /
    // executor split: the same `InProcessExecutor` + `run_scheduled` path
    // the multi-tenant `CampaignServer` drives (bit-identical reports,
    // gated by `tests/executor_equivalence.rs`).
    let executor = InProcessExecutor::new(
        campaign.base_seed,
        &make_fuzzer,
        telemetry.clone(),
        trace.clone(),
        ExecutionProfile { max_retries: options.max_retries },
        snapshot_cache,
    );

    run_scheduled(&executor, jobs, campaign.workers, telemetry, |row| {
        if let Some(j) = journal.as_mut() {
            j.append(&row)?;
            telemetry.incr(Counter::JournalAppends);
            // Keyed at the job's coordinates with the sentinel sequence
            // number, so the marker sorts after every mission event and
            // is independent of collector arrival order.
            let (size, dev_bits, index) = row.job_key();
            trace.emit_at(
                TraceKey {
                    swarm_size: size as u64,
                    deviation_bits: dev_bits,
                    index: index as u64,
                    seq: u64::MAX,
                },
                TraceEvent::JournalAppend {
                    row: match &row {
                        JournalRow::Done { .. } => "done".to_string(),
                        JournalRow::Failed(_) => "failed".to_string(),
                    },
                },
            );
        }
        rows.push(row);
        Ok(())
    })?;

    let report = report_from_rows(rows);
    trace.emit_at(
        TraceKey { swarm_size: u64::MAX, deviation_bits: 0, index: 0, seq: 0 },
        TraceEvent::CampaignEnd {
            missions: report.missions.len(),
            failures: report.failures.len(),
        },
    );
    trace.flush();
    Ok(report)
}

/// Rebuilds a [`CampaignReport`] from journal rows with the same
/// deterministic sort a live campaign applies — `swarmfuzz dashboard` uses
/// this to reconstruct a report from a journal alone, and the resulting
/// report is bit-identical to the one the original run returned.
pub fn report_from_rows(rows: Vec<JournalRow>) -> CampaignReport {
    let mut missions = Vec::new();
    let mut failures = Vec::new();
    for row in rows {
        match row {
            JournalRow::Done { result, .. } => missions.push(result),
            JournalRow::Failed(f) => failures.push(f),
        }
    }
    // Deterministic order regardless of thread scheduling (and of the
    // journaled-vs-recomputed split on resume).
    missions.sort_by(|a, b| {
        a.config
            .swarm_size
            .cmp(&b.config.swarm_size)
            .then_with(|| a.config.deviation.total_cmp(&b.config.deviation))
            .then_with(|| a.mission_seed.cmp(&b.mission_seed))
    });
    failures.sort_by(|a, b| {
        a.config
            .swarm_size
            .cmp(&b.config.swarm_size)
            .then_with(|| a.config.deviation.total_cmp(&b.config.deviation))
            .then_with(|| a.index.cmp(&b.index))
    });
    CampaignReport { missions, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_has_six_configs() {
        let c = CampaignConfig::paper_grid(100, 0);
        assert_eq!(c.configs.len(), 6);
        assert_eq!(c.missions_per_config, 100);
        let sizes: Vec<usize> = c.configs.iter().map(|x| x.swarm_size).collect();
        assert!(sizes.contains(&5) && sizes.contains(&10) && sizes.contains(&15));
    }

    #[test]
    fn config_display_matches_paper_notation() {
        let c = SwarmConfig { swarm_size: 5, deviation: 5.0 };
        assert_eq!(c.to_string(), "5d-5m");
    }

    #[test]
    fn report_aggregations() {
        let c5 = SwarmConfig { swarm_size: 5, deviation: 10.0 };
        let c10 = SwarmConfig { swarm_size: 10, deviation: 10.0 };
        let mk = |config, success, evals| MissionResult {
            config,
            mission_seed: 0,
            vdo: 2.0,
            success,
            finding: None,
            evaluations: evals,
            seeds_tried: 1,
        };
        let report = CampaignReport {
            missions: vec![mk(c5, true, 5), mk(c5, false, 20), mk(c10, true, 10)],
            failures: Vec::new(),
        };
        assert_eq!(report.success_rate(c5), Some(0.5));
        assert_eq!(report.mean_iterations(c5), Some(12.5));
        assert_eq!(report.success_rate(c10), Some(1.0));
        assert_eq!(report.success_rate(SwarmConfig { swarm_size: 15, deviation: 5.0 }), None);
    }

    #[test]
    fn campaign_mission_uses_config_size() {
        let spec = campaign_mission(SwarmConfig { swarm_size: 7, deviation: 5.0 }, 3);
        assert_eq!(spec.swarm_size, 7);
    }

    /// Regression: the old additive scheme (`base + size*1e6 + (dev as
    /// u64)*1e5 + index*100`) reused identical seed streams across
    /// configurations — size 6 / dev 5 collided with size 5 / dev 15, and
    /// fractional deviations truncated onto their integer neighbours.
    #[test]
    fn mission_seeds_do_not_collide_across_configs() {
        let grids = [
            SwarmConfig { swarm_size: 6, deviation: 5.0 },
            SwarmConfig { swarm_size: 5, deviation: 15.0 },
            SwarmConfig { swarm_size: 5, deviation: 5.0 },
            SwarmConfig { swarm_size: 5, deviation: 5.5 },
            SwarmConfig { swarm_size: 5, deviation: 5.9 },
            SwarmConfig { swarm_size: 10, deviation: 10.0 },
        ];
        let mut seen = std::collections::HashSet::new();
        for config in grids {
            for index in 0..200 {
                let seed = mission_base_seed(7, config, index);
                assert!(seen.insert(seed), "seed stream collision at {config} index {index}");
            }
        }
    }

    #[test]
    fn mission_seeds_are_deterministic_and_key_sensitive() {
        let c = SwarmConfig { swarm_size: 5, deviation: 10.0 };
        assert_eq!(mission_base_seed(1, c, 3), mission_base_seed(1, c, 3));
        assert_ne!(mission_base_seed(1, c, 3), mission_base_seed(2, c, 3));
        assert_ne!(mission_base_seed(1, c, 3), mission_base_seed(1, c, 4));
    }

    /// The deterministic sort key orders by swarm size, then deviation
    /// (total order, NaN-safe), then mission seed.
    #[test]
    fn report_sort_key_is_total() {
        let mk = |size, dev, seed| MissionResult {
            config: SwarmConfig { swarm_size: size, deviation: dev },
            mission_seed: seed,
            vdo: 1.0,
            success: false,
            finding: None,
            evaluations: 0,
            seeds_tried: 0,
        };
        let mut missions =
            [mk(10, 5.0, 2), mk(5, 10.0, 1), mk(5, 5.0, 9), mk(5, 5.0, 1), mk(10, 5.0, 0)];
        missions.sort_by(|a, b| {
            a.config
                .swarm_size
                .cmp(&b.config.swarm_size)
                .then_with(|| a.config.deviation.total_cmp(&b.config.deviation))
                .then_with(|| a.mission_seed.cmp(&b.mission_seed))
        });
        let key: Vec<(usize, f64, u64)> = missions
            .iter()
            .map(|m| (m.config.swarm_size, m.config.deviation, m.mission_seed))
            .collect();
        assert_eq!(key, vec![(5, 5.0, 1), (5, 5.0, 9), (5, 10.0, 1), (10, 5.0, 0), (10, 5.0, 2)]);
    }

    #[test]
    fn error_summary_lists_failures() {
        let report = CampaignReport::default();
        assert!(report.error_summary().is_none());
        let report = CampaignReport {
            missions: Vec::new(),
            failures: vec![MissionFailure {
                config: SwarmConfig { swarm_size: 1, deviation: 5.0 },
                index: 4,
                error: "swarm of 1 drones cannot form a target-victim pair".into(),
                retries: 1,
            }],
        };
        let summary = report.error_summary().unwrap();
        assert!(summary.contains("1d-5m"));
        assert!(summary.contains("index 4"));
        assert!(summary.contains("target-victim"));
    }
}
