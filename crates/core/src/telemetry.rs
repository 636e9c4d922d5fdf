//! Campaign telemetry: a counting sink on the [`crate::trace`] event stream.
//!
//! [`Telemetry`] is a [`TraceSink`]. Attach it like any other sink — alone
//! through [`Telemetry::trace`], or beside a file or progress sink in a
//! [`crate::trace::TeeSink`] — and it keeps two kinds of figures:
//!
//! * **Event counters.** One fold, [`Telemetry`]'s [`TraceSink::record`],
//!   derives every counter the event stream determines (missions, probes,
//!   SPVs, fork hits, journal appends, retries, ...). Replaying a recorded
//!   trace into a fresh handle reproduces them exactly, which is how the
//!   dashboard counts.
//! * **Measurements.** Phase wall-clock histograms, simulation loop counts,
//!   prefix steps saved by forking and per-worker progress arrive through
//!   the [`TraceSink::measure`] side channel. No event carries them, so a
//!   trace file never does either.
//!
//! Counting is strictly *observational*: a campaign produces a byte-identical
//! [`crate::campaign::CampaignReport`] and trace whether telemetry is
//! attached or not (gated by `tests/campaign_telemetry.rs` and
//! `tests/campaign_trace.rs`). [`Telemetry::snapshot`] freezes everything
//! into a [`TelemetryReport`] with a hand-rolled JSON writer and a plain-text
//! summary.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use swarm_math::stats::{log_bucket_index, LogHistogram, LOG_HISTOGRAM_BUCKETS};

use crate::trace::{Measurement, Trace, TraceEvent, TraceRecord, TraceSink};

/// Instrumented pipeline phases, each backed by a latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The initial no-attack mission run.
    Baseline,
    /// Swarm Vulnerability Graph construction (per direction).
    SvgBuild,
    /// Centrality scoring (PageRank or an ablation alternative).
    Centrality,
    /// Seedpool construction and ordering.
    SeedSchedule,
    /// Gradient-guided window search (per seed).
    GradientSearch,
    /// Random window search (per seed).
    RandomSearch,
    /// One simulated attacked mission (one objective evaluation), run from
    /// scratch (snapshot forking off or no usable snapshot).
    MissionSim,
    /// Prefix-record reconstruction for a forked evaluation (the bookkeeping
    /// that replaces re-simulating `[0, t_s)`).
    PrefixSim,
    /// The forked suffix of one objective evaluation (resumed from a
    /// snapshot).
    ForkedSim,
}

impl Phase {
    /// Every phase, in report order.
    pub const ALL: [Phase; 9] = [
        Phase::Baseline,
        Phase::SvgBuild,
        Phase::Centrality,
        Phase::SeedSchedule,
        Phase::GradientSearch,
        Phase::RandomSearch,
        Phase::MissionSim,
        Phase::PrefixSim,
        Phase::ForkedSim,
    ];

    /// Stable snake_case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Baseline => "baseline",
            Phase::SvgBuild => "svg_build",
            Phase::Centrality => "centrality",
            Phase::SeedSchedule => "seed_schedule",
            Phase::GradientSearch => "gradient_search",
            Phase::RandomSearch => "random_search",
            Phase::MissionSim => "mission_sim",
            Phase::PrefixSim => "prefix_sim",
            Phase::ForkedSim => "forked_sim",
        }
    }
}

/// Monotonic counters: all but the five simulation-loop counters and
/// [`Counter::PrefixStepsSaved`] are derived from trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Collision-free baselines (`baseline` events).
    MissionsRun,
    /// Objective evaluations (attacked missions) spent (`probe` events).
    Evaluations,
    /// SPVs discovered (successful `seed_done` events).
    SpvFound,
    /// Mission seeds skipped because the baseline already collided
    /// (`baseline_rejected` events).
    BaselineSkips,
    /// Seeds the window search worked through (`seed_start` events).
    SeedsTried,
    /// Physics steps across all simulated missions.
    SimPhysicsSteps,
    /// Control ticks across all simulated missions.
    SimControlTicks,
    /// Search probes that ended at the obstacle horizon (see
    /// [`swarm_sim::Simulation::run_probe`]).
    SimHorizonStops,
    /// Spatial-grid rebuilds across all simulated missions (0 under
    /// [`swarm_sim::SpatialPolicy::ForceOff`]).
    GridRebuilds,
    /// Spatial-grid cells probed across all simulated missions.
    GridCellsScanned,
    /// Rows streamed to the campaign journal.
    JournalAppends,
    /// Jobs skipped on resume because the journal already held their row.
    ResumeSkips,
    /// Mission retries after a mission-level error.
    MissionRetries,
    /// Missions quarantined as `failed` rows after exhausting retries.
    MissionFailures,
    /// Evaluations served by forking from a baseline snapshot (`probe`
    /// events with `fork: true`).
    ForkHits,
    /// Evaluations that fell back to a from-scratch run while snapshot
    /// forking was enabled (`probe` events with `fork: false`).
    ForkMisses,
    /// Physics steps *not* re-simulated thanks to forking (the prefix length
    /// of every fork hit).
    PrefixStepsSaved,
    /// Seedpool entries ranked by the scheduler (`seed_ranked` events).
    SeedsRanked,
    /// Projected gradient-descent updates (`gradient_step` events).
    GradientSteps,
    /// Attack-minimization passes (`minimize_pass` events).
    MinimizePasses,
}

impl Counter {
    /// Every counter, in report order.
    pub const ALL: [Counter; 20] = [
        Counter::MissionsRun,
        Counter::Evaluations,
        Counter::SpvFound,
        Counter::BaselineSkips,
        Counter::SeedsTried,
        Counter::SimPhysicsSteps,
        Counter::SimControlTicks,
        Counter::SimHorizonStops,
        Counter::GridRebuilds,
        Counter::GridCellsScanned,
        Counter::JournalAppends,
        Counter::ResumeSkips,
        Counter::MissionRetries,
        Counter::MissionFailures,
        Counter::ForkHits,
        Counter::ForkMisses,
        Counter::PrefixStepsSaved,
        Counter::SeedsRanked,
        Counter::GradientSteps,
        Counter::MinimizePasses,
    ];

    /// Stable snake_case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::MissionsRun => "missions_run",
            Counter::Evaluations => "evaluations",
            Counter::SpvFound => "spv_found",
            Counter::BaselineSkips => "baseline_skips",
            Counter::SeedsTried => "seeds_tried",
            Counter::SimPhysicsSteps => "sim_physics_steps",
            Counter::SimControlTicks => "sim_control_ticks",
            Counter::SimHorizonStops => "sim_horizon_stops",
            Counter::GridRebuilds => "grid_rebuilds",
            Counter::GridCellsScanned => "grid_cells_scanned",
            Counter::JournalAppends => "journal_appends",
            Counter::ResumeSkips => "resume_skips",
            Counter::MissionRetries => "mission_retries",
            Counter::MissionFailures => "mission_failures",
            Counter::ForkHits => "fork_hits",
            Counter::ForkMisses => "fork_misses",
            Counter::PrefixStepsSaved => "prefix_steps_saved",
            Counter::SeedsRanked => "seeds_ranked",
            Counter::GradientSteps => "gradient_steps",
            Counter::MinimizePasses => "minimize_passes",
        }
    }
}

/// Lock-free mirror of [`LogHistogram`]: per-bucket atomic counts plus an
/// exact total and maximum, recorded with `Relaxed` ordering (only aggregate
/// values are ever read, at snapshot time).
struct AtomicHistogram {
    counts: [AtomicU64; LOG_HISTOGRAM_BUCKETS],
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl AtomicHistogram {
    fn new() -> Self {
        AtomicHistogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    fn record(&self, ns: u64) {
        self.counts[log_bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    fn snapshot(&self) -> LogHistogram {
        let counts = std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed));
        LogHistogram::from_raw(
            counts,
            u128::from(self.total_ns.load(Ordering::Relaxed)),
            self.max_ns.load(Ordering::Relaxed),
        )
    }
}

/// Per-worker campaign progress.
struct WorkerCell {
    missions: AtomicU64,
    spvs: AtomicU64,
    evaluations: AtomicU64,
}

/// The shared telemetry state behind an enabled [`Telemetry`] handle.
struct Registry {
    counters: [AtomicU64; Counter::ALL.len()],
    phases: [AtomicHistogram; Phase::ALL.len()],
    workers: Vec<WorkerCell>,
}

impl Registry {
    fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// A cheap cloneable counting sink: either off (every call is one branch)
/// or backed by a shared registry.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Registry>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(r) => write!(f, "Telemetry(on, {} workers)", r.workers.len()),
            None => write!(f, "Telemetry(off)"),
        }
    }
}

impl Telemetry {
    /// A disabled handle; it counts nothing.
    pub fn off() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled handle tracking `workers` worker slots.
    pub fn enabled(workers: usize) -> Self {
        Telemetry {
            inner: Some(Arc::new(Registry {
                counters: std::array::from_fn(|_| AtomicU64::new(0)),
                phases: std::array::from_fn(|_| AtomicHistogram::new()),
                workers: (0..workers.max(1))
                    .map(|_| WorkerCell {
                        missions: AtomicU64::new(0),
                        spvs: AtomicU64::new(0),
                        evaluations: AtomicU64::new(0),
                    })
                    .collect(),
            })),
        }
    }

    /// `true` when this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A trace handle feeding this sink alone; [`Trace::off`] when disabled.
    pub fn trace(&self) -> Trace {
        if self.is_enabled() {
            Trace::new(Arc::new(self.clone()))
        } else {
            Trace::off()
        }
    }

    /// Current value of a counter (0 when disabled).
    pub fn counter(&self, counter: Counter) -> u64 {
        self.inner.as_ref().map_or(0, |r| r.counters[counter as usize].load(Ordering::Relaxed))
    }

    /// Freezes the current state into a report (`None` when disabled).
    pub fn snapshot(&self) -> Option<TelemetryReport> {
        let r = self.inner.as_deref()?;
        let counters = Counter::ALL
            .iter()
            .map(|&c| CounterValue {
                name: c.name(),
                value: r.counters[c as usize].load(Ordering::Relaxed),
            })
            .collect();
        let phases = Phase::ALL
            .iter()
            .map(|&p| {
                let h = r.phases[p as usize].snapshot();
                PhaseStats {
                    name: p.name(),
                    count: h.count(),
                    total_ns: h.total(),
                    mean_ns: h.mean().unwrap_or(0.0),
                    p50_ns: h.quantile(0.5).unwrap_or(0.0),
                    p95_ns: h.quantile(0.95).unwrap_or(0.0),
                    max_ns: h.max().unwrap_or(0),
                }
            })
            .collect();
        let workers = r
            .workers
            .iter()
            .enumerate()
            .map(|(i, w)| WorkerStats {
                worker: i,
                missions: w.missions.load(Ordering::Relaxed),
                spvs: w.spvs.load(Ordering::Relaxed),
                evaluations: w.evaluations.load(Ordering::Relaxed),
            })
            .collect();
        Some(TelemetryReport { counters, phases, workers })
    }
}

impl TraceSink for Telemetry {
    /// The one fold from trace events to counters.
    fn record(&self, record: &TraceRecord) {
        let Some(r) = &self.inner else { return };
        let counter = match &record.event {
            TraceEvent::BaselineDone { .. } => Counter::MissionsRun,
            TraceEvent::BaselineRejected { .. } => Counter::BaselineSkips,
            TraceEvent::SeedRanked { .. } => Counter::SeedsRanked,
            TraceEvent::SeedStart { .. } => Counter::SeedsTried,
            TraceEvent::Probe { fork, .. } => {
                match fork {
                    Some(true) => r.add(Counter::ForkHits, 1),
                    Some(false) => r.add(Counter::ForkMisses, 1),
                    None => {}
                }
                Counter::Evaluations
            }
            TraceEvent::GradientStep { .. } => Counter::GradientSteps,
            TraceEvent::SeedDone { success: true, .. } => Counter::SpvFound,
            TraceEvent::MissionRetry { .. } => Counter::MissionRetries,
            TraceEvent::MissionFailed { .. } => Counter::MissionFailures,
            TraceEvent::ResumeSkip => Counter::ResumeSkips,
            TraceEvent::JournalAppend { .. } => Counter::JournalAppends,
            TraceEvent::MinimizePass { .. } => Counter::MinimizePasses,
            TraceEvent::CampaignStart { .. }
            | TraceEvent::CampaignEnd { .. }
            | TraceEvent::MissionStart { .. }
            | TraceEvent::SeedDone { .. }
            | TraceEvent::MissionDone { .. } => return,
        };
        r.add(counter, 1);
    }

    fn measure(&self, measurement: &Measurement) {
        let Some(r) = &self.inner else { return };
        match *measurement {
            Measurement::Span { phase, ns } => r.phases[phase as usize].record(ns),
            Measurement::Run(stats) => {
                r.add(Counter::SimPhysicsSteps, stats.physics_steps);
                r.add(Counter::SimControlTicks, stats.control_ticks);
                r.add(Counter::SimHorizonStops, stats.horizon_stops);
                r.add(Counter::GridRebuilds, stats.grid_rebuilds);
                r.add(Counter::GridCellsScanned, stats.grid_cells_scanned);
            }
            Measurement::PrefixSaved { steps } => r.add(Counter::PrefixStepsSaved, steps),
            Measurement::WorkerDone { worker, success, evaluations } => {
                let cell = &r.workers[worker % r.workers.len()];
                cell.missions.fetch_add(1, Ordering::Relaxed);
                cell.spvs.fetch_add(u64::from(success), Ordering::Relaxed);
                cell.evaluations.fetch_add(evaluations, Ordering::Relaxed);
            }
        }
    }
}

/// Span duration in nanoseconds, saturating on both ends: a non-monotonic
/// clock step backwards yields 0 rather than a garbage `max_ns`, and a span
/// longer than ~584 years saturates at `u64::MAX`.
pub(crate) fn span_ns(start: Instant, end: Instant) -> u64 {
    u64::try_from(end.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

/// One counter's snapshot value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterValue {
    /// Counter name.
    pub name: &'static str,
    /// Accumulated value.
    pub value: u64,
}

/// One phase's timing summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseStats {
    /// Phase name.
    pub name: &'static str,
    /// Number of recorded spans.
    pub count: u64,
    /// Exact summed duration in nanoseconds.
    pub total_ns: u128,
    /// Mean span duration in nanoseconds.
    pub mean_ns: f64,
    /// Estimated median span duration in nanoseconds.
    pub p50_ns: f64,
    /// Estimated 95th-percentile span duration in nanoseconds.
    pub p95_ns: f64,
    /// Longest span in nanoseconds.
    pub max_ns: u64,
}

/// One worker's campaign progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker slot index.
    pub worker: usize,
    /// Missions fuzzed by this worker.
    pub missions: u64,
    /// SPVs this worker found.
    pub spvs: u64,
    /// Evaluations this worker spent.
    pub evaluations: u64,
}

/// A frozen, machine-readable telemetry snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    /// Every counter, in [`Counter::ALL`] order.
    pub counters: Vec<CounterValue>,
    /// Every phase, in [`Phase::ALL`] order.
    pub phases: Vec<PhaseStats>,
    /// Per-worker progress.
    pub workers: Vec<WorkerStats>,
}

fn push_json_f64(out: &mut String, x: f64) {
    // JSON has no NaN/Infinity; clamp to null-free 0 (never produced by the
    // snapshot path, but the writer must not emit invalid JSON regardless).
    if x.is_finite() {
        out.push_str(&format!("{x:.1}"));
    } else {
        out.push('0');
    }
}

impl TelemetryReport {
    /// The counter value by name, when present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// The phase stats by name, when present.
    pub fn phase(&self, name: &str) -> Option<&PhaseStats> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Renders the report as a JSON object (hand-rolled; no serialization
    /// dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", c.name, c.value));
        }
        out.push_str("\n  },\n  \"phases\": [");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"count\": {}, \"total_ns\": {}, \"mean_ns\": ",
                p.name, p.count, p.total_ns
            ));
            push_json_f64(&mut out, p.mean_ns);
            out.push_str(", \"p50_ns\": ");
            push_json_f64(&mut out, p.p50_ns);
            out.push_str(", \"p95_ns\": ");
            push_json_f64(&mut out, p.p95_ns);
            out.push_str(&format!(", \"max_ns\": {}}}", p.max_ns));
        }
        out.push_str("\n  ],\n  \"workers\": [");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"worker\": {}, \"missions\": {}, \"spvs\": {}, \"evaluations\": {}}}",
                w.worker, w.missions, w.spvs, w.evaluations
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// A short human-readable summary (one line per non-zero entry).
    pub fn summary(&self) -> String {
        let mut out = String::from("telemetry summary\n");
        for c in self.counters.iter().filter(|c| c.value > 0) {
            out.push_str(&format!("  {:<18} {}\n", c.name, c.value));
        }
        for p in self.phases.iter().filter(|p| p.count > 0) {
            out.push_str(&format!(
                "  {:<18} {} spans, total {:.1} ms, mean {:.2} ms, p95 {:.2} ms\n",
                p.name,
                p.count,
                p.total_ns as f64 / 1e6,
                p.mean_ns / 1e6,
                p.p95_ns / 1e6,
            ));
        }
        for w in self.workers.iter().filter(|w| w.missions > 0) {
            out.push_str(&format!(
                "  worker {:<11} {} missions, {} SPVs, {} evaluations\n",
                w.worker, w.missions, w.spvs, w.evaluations
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceKey;
    use swarm_sim::{RunStats, SimObserver};

    fn feed(t: &Telemetry, events: Vec<TraceEvent>) {
        for (seq, event) in events.into_iter().enumerate() {
            let key = TraceKey { swarm_size: 5, deviation_bits: 0, index: 0, seq: seq as u64 };
            t.record(&TraceRecord { key, event });
        }
    }

    fn probe(fork: Option<bool>) -> TraceEvent {
        TraceEvent::Probe { ts: 1.0, dt: 2.0, shape: None, value: 0.5, success: false, fork }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::off();
        feed(&t, vec![TraceEvent::ResumeSkip, probe(Some(true))]);
        t.measure(&Measurement::Span { phase: Phase::Baseline, ns: 100 });
        t.measure(&Measurement::WorkerDone { worker: 0, success: true, evaluations: 5 });
        assert!(!t.is_enabled());
        assert!(!t.trace().is_enabled(), "an off handle yields an off trace");
        assert_eq!(t.counter(Counter::ResumeSkips), 0);
        assert!(t.snapshot().is_none());
    }

    #[test]
    fn counters_accumulate_across_clones() {
        let t = Telemetry::enabled(2);
        let t2 = t.clone();
        feed(
            &t,
            vec![TraceEvent::SeedDone {
                evaluations: 3,
                converged: false,
                best_value: -0.5,
                success: true,
            }],
        );
        feed(&t2, vec![TraceEvent::MissionRetry { attempt: 1, error: "e".into() }; 2]);
        assert_eq!(t.counter(Counter::SpvFound), 1);
        assert_eq!(t.counter(Counter::MissionRetries), 2);
        let report = t.snapshot().unwrap();
        assert_eq!(report.counter("mission_retries"), Some(2));
        assert_eq!(report.counter("missions_run"), Some(0));
        assert_eq!(report.counter("no_such"), None);
    }

    #[test]
    fn fold_maps_each_event_to_its_counter() {
        let t = Telemetry::enabled(1);
        feed(
            &t,
            vec![
                TraceEvent::CampaignStart { configs: 1, missions_per_config: 1 },
                TraceEvent::ResumeSkip,
                TraceEvent::MissionStart { mission_seed: 1 },
                TraceEvent::BaselineRejected { mission_seed: 1, time: 3.0 },
                TraceEvent::BaselineDone {
                    vdo: 2.0,
                    vdo_drone: 0,
                    duration: 60.0,
                    snapshots: 4,
                    stride: 10,
                },
                TraceEvent::SeedRanked {
                    rank: 0,
                    target: 1,
                    victim: 0,
                    theta: 90,
                    influence: 0.5,
                    victim_vdo: 2.0,
                },
                TraceEvent::SeedStart {
                    ordinal: 1,
                    target: 1,
                    victim: 0,
                    theta: 90,
                    waveform: "constant".into(),
                    budget: 20,
                },
                probe(Some(true)),
                probe(Some(false)),
                probe(None),
                TraceEvent::GradientStep { g_ts: 0.1, g_dt: 0.2, ts: 1.0, dt: 2.0 },
                TraceEvent::SeedDone {
                    evaluations: 3,
                    converged: true,
                    best_value: 0.5,
                    success: false,
                },
                TraceEvent::MissionDone { success: false, evaluations: 3, seeds_tried: 1 },
                TraceEvent::MissionFailed { error: "e".into(), retries: 0 },
                TraceEvent::JournalAppend { row: "done".into() },
                TraceEvent::MinimizePass {
                    pass: "duration".into(),
                    evaluations: 1,
                    start: 1.0,
                    duration: 2.0,
                    deviation: 10.0,
                },
                TraceEvent::CampaignEnd { missions: 1, failures: 0 },
            ],
        );
        let expected = [
            (Counter::MissionsRun, 1),
            (Counter::Evaluations, 3),
            (Counter::SpvFound, 0),
            (Counter::BaselineSkips, 1),
            (Counter::SeedsTried, 1),
            (Counter::JournalAppends, 1),
            (Counter::ResumeSkips, 1),
            (Counter::MissionRetries, 0),
            (Counter::MissionFailures, 1),
            (Counter::ForkHits, 1),
            (Counter::ForkMisses, 1),
            (Counter::SeedsRanked, 1),
            (Counter::GradientSteps, 1),
            (Counter::MinimizePasses, 1),
        ];
        for (counter, value) in expected {
            assert_eq!(t.counter(counter), value, "{}", counter.name());
        }
        // Measurement-only counters never move on events.
        assert_eq!(t.counter(Counter::SimPhysicsSteps), 0);
        assert_eq!(t.counter(Counter::PrefixStepsSaved), 0);
    }

    #[test]
    fn span_ns_saturates_on_backwards_clock_steps() {
        let a = Instant::now();
        let b = a + std::time::Duration::from_nanos(100);
        assert_eq!(span_ns(a, b), 100);
        // A clock stepping backwards must clamp to zero, not wrap.
        assert_eq!(span_ns(b, a), 0);
        assert_eq!(span_ns(a, a), 0);
    }

    #[test]
    fn spans_land_in_the_phase_histogram() {
        let t = Telemetry::enabled(1);
        let trace = t.trace();
        let scoped = trace.scoped(5, 10.0, 0);
        drop(scoped.span(Phase::Baseline));
        trace.measure(Measurement::Span { phase: Phase::Baseline, ns: 1_000 });
        let report = t.snapshot().unwrap();
        let p = report.phase("baseline").unwrap();
        assert_eq!(p.count, 2);
        assert!(p.total_ns >= 1_000);
        assert_eq!(report.phase("mission_sim").unwrap().count, 0);
    }

    #[test]
    fn worker_progress_is_tracked_per_slot() {
        let t = Telemetry::enabled(3);
        let done = |worker, success, evaluations| {
            t.measure(&Measurement::WorkerDone { worker, success, evaluations });
        };
        done(0, true, 4);
        done(2, false, 7);
        done(2, true, 1);
        let report = t.snapshot().unwrap();
        assert_eq!(report.workers.len(), 3);
        assert_eq!(report.workers[0].missions, 1);
        assert_eq!(report.workers[0].spvs, 1);
        assert_eq!(report.workers[1].missions, 0);
        assert_eq!(report.workers[2].missions, 2);
        assert_eq!(report.workers[2].evaluations, 8);
    }

    #[test]
    fn sim_observer_batches_into_counters() {
        let t = Telemetry::enabled(1);
        let trace = t.trace();
        let stats = RunStats {
            physics_steps: 1_000,
            control_ticks: 100,
            gps_rounds: 1_000,
            sim_time: 10.0,
            ..Default::default()
        };
        SimObserver::on_run_end(&trace, &stats);
        SimObserver::on_run_end(&trace, &stats);
        assert_eq!(t.counter(Counter::SimPhysicsSteps), 2_000);
        assert_eq!(t.counter(Counter::SimControlTicks), 200);
        assert_eq!(t.counter(Counter::SimHorizonStops), 0);
        assert_eq!(t.counter(Counter::GridRebuilds), 0);

        let grid_stats = RunStats {
            grid_rebuilds: 11,
            grid_cells_scanned: 250,
            horizon_stops: 1,
            ..Default::default()
        };
        SimObserver::on_run_end(&trace, &grid_stats);
        assert_eq!(t.counter(Counter::GridRebuilds), 11);
        assert_eq!(t.counter(Counter::GridCellsScanned), 250);
        assert_eq!(t.counter(Counter::SimHorizonStops), 1);
    }

    #[test]
    fn json_and_summary_render_all_sections() {
        let t = Telemetry::enabled(2);
        feed(
            &t,
            vec![TraceEvent::BaselineDone {
                vdo: 2.0,
                vdo_drone: 0,
                duration: 60.0,
                snapshots: 0,
                stride: 0,
            }],
        );
        t.measure(&Measurement::Span { phase: Phase::MissionSim, ns: 5_000_000 });
        t.measure(&Measurement::WorkerDone { worker: 1, success: true, evaluations: 9 });
        let report = t.snapshot().unwrap();

        let json = report.to_json();
        assert!(json.contains("\"missions_run\": 1"));
        assert!(json.contains("\"name\": \"mission_sim\", \"count\": 1"));
        assert!(json.contains("\"worker\": 1, \"missions\": 1, \"spvs\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());

        let summary = report.summary();
        assert!(summary.contains("missions_run"));
        assert!(summary.contains("worker 1"));
    }
}
