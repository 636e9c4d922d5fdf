//! Deterministic structured event tracing for fuzzing campaigns — the one
//! instrumentation spine of the pipeline.
//!
//! Every layer emits typed [`TraceEvent`]s — campaign and mission lifecycle,
//! seed-schedule rankings with their SVG influence scores, every window
//! probe with its parameters and objective value, gradient steps, journal
//! appends, resume skips, retries and failures — through one [`Trace`]
//! handle into a pluggable [`TraceSink`]. Counting is a sink too:
//! [`crate::telemetry::Telemetry`] folds the same events into its counters.
//!
//! # Logical time, not wall-clock
//!
//! Trace events never carry wall-clock timestamps. Each event is keyed by a
//! [`TraceKey`]: the mission's grid coordinates (swarm size, deviation bits,
//! mission index) plus a per-mission monotonic sequence number assigned by
//! the emitting scope. Within one mission, events are emitted by exactly one
//! worker thread, so the sequence numbers totally order that mission's
//! history; across missions, the grid coordinates order the scopes. The
//! consequence is the property the differential tests gate: **sorting a
//! trace by key yields byte-identical NDJSON regardless of the worker
//! count**, and — after stripping the execution-detail annotations with
//! [`canonical_ndjson`] — regardless of whether snapshot forking was on.
//!
//! # The measurement side channel
//!
//! What depends on the machine, the worker or snapshot forking — phase
//! wall-clock ([`Trace::span`]), simulation loop counts
//! ([`Trace`]'s [`SimObserver`] impl), prefix steps a fork skipped and
//! per-worker progress — travels as a [`Measurement`] through
//! [`TraceSink::measure`] instead. Its default is a no-op, and the file,
//! ring and progress sinks keep it, so measurements never reach a trace
//! file.
//!
//! # Sink matrix
//!
//! | sink            | storage            | use                            |
//! |-----------------|--------------------|--------------------------------|
//! | (none)          | —                  | default; `Trace::off()` is free|
//! | [`RingSink`]    | bounded in-memory  | tests, post-run inspection     |
//! | [`FileSink`]    | NDJSON file        | dashboards, Chrome export      |
//! | [`ProgressSink`]| stderr, rate-limited| live campaign progress        |
//! | `Telemetry`     | atomic counters    | counters, phase timings        |
//! | [`TeeSink`]     | fan-out            | any of the above at once       |
//!
//! NDJSON lines use the same hand-rolled bit-exact codec as the campaign
//! journal (`crate::store`): floats in Rust's shortest-round-trip format,
//! non-finite values as bare `inf`/`-inf`/`NaN` tokens.

use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use swarm_sim::{RunStats, SimObserver};

use crate::store::{self, field, Json, StoreError};
use crate::telemetry::{span_ns, Phase};

// ---------------------------------------------------------------------------
// Keys and events
// ---------------------------------------------------------------------------

/// Logical coordinates of one trace event. The derived lexicographic order
/// (swarm size, deviation bits, mission index, sequence number) is the
/// canonical trace order: deviations are non-negative, so ordering their IEEE
/// bits agrees with ordering their values.
///
/// Campaign-level events use the reserved scopes `(0, 0, 0)` (sorts before
/// every mission) and `(u64::MAX, 0, 0)` (sorts after).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceKey {
    /// Swarm size of the mission's grid cell (0 for campaign-level events).
    pub swarm_size: u64,
    /// IEEE-754 bits of the spoofing deviation.
    pub deviation_bits: u64,
    /// Mission index within the grid cell.
    pub index: u64,
    /// Monotonic per-scope sequence number.
    pub seq: u64,
}

impl TraceKey {
    /// The spoofing deviation in metres.
    pub fn deviation(&self) -> f64 {
        f64::from_bits(self.deviation_bits)
    }

    /// Human-readable scope label (`"campaign"`, `"5d-10m #3"`, ...).
    pub fn scope_name(&self) -> String {
        match self.swarm_size {
            0 => "campaign".to_string(),
            u64::MAX => "campaign-end".to_string(),
            s => format!("{s}d-{}m #{}", self.deviation(), self.index),
        }
    }
}

/// One structured event in a fuzzing run. Payloads carry logical quantities
/// only (sim times, iteration counts, objective values) — never wall-clock.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A campaign run started.
    CampaignStart {
        /// Number of grid configurations.
        configs: usize,
        /// Missions per configuration.
        missions_per_config: usize,
    },
    /// A campaign run completed.
    CampaignEnd {
        /// Missions in the final report.
        missions: usize,
        /// Quarantined failures in the final report.
        failures: usize,
    },
    /// A resumed journal already held this mission; it was skipped.
    ResumeSkip,
    /// A row for this mission was appended to the journal.
    JournalAppend {
        /// Row kind: `"done"` or `"failed"`.
        row: String,
    },
    /// One fuzzing attempt started (re-emitted per baseline-skip attempt).
    MissionStart {
        /// Mission seed of this attempt.
        mission_seed: u64,
    },
    /// The no-attack baseline collided, so this seed was skipped.
    BaselineRejected {
        /// Mission seed of the rejected attempt.
        mission_seed: u64,
        /// Collision time in the baseline (s).
        time: f64,
    },
    /// The no-attack baseline completed collision-free.
    BaselineDone {
        /// Mission VDO: closest any drone came to the obstacle (m).
        vdo: f64,
        /// Drone attaining the mission VDO.
        vdo_drone: usize,
        /// Baseline mission duration (s).
        duration: f64,
        /// Snapshots retained for forking (0 with snapshots off) —
        /// execution detail, stripped by [`TraceEvent::strip_execution`].
        snapshots: usize,
        /// Snapshot capture stride in physics steps (0 with snapshots off) —
        /// execution detail, stripped by [`TraceEvent::strip_execution`].
        stride: usize,
    },
    /// One seed's position in the schedule, with its SVG influence score.
    SeedRanked {
        /// Rank in the pool (0 = tried first).
        rank: usize,
        /// Spoofing target `T`.
        target: usize,
        /// Expected victim `V`.
        victim: usize,
        /// Spoofing direction θ in degrees.
        theta: i8,
        /// Summative SVG influence `I(θ)_TV` (0 for random schedules).
        influence: f64,
        /// The victim's VDO in the baseline (m).
        victim_vdo: f64,
    },
    /// The window search for one seed started.
    SeedStart {
        /// 1-based ordinal of the seed within the mission.
        ordinal: usize,
        /// Spoofing target `T`.
        target: usize,
        /// Expected victim `V`.
        victim: usize,
        /// Spoofing direction θ in degrees.
        theta: i8,
        /// Attack class searched for this seed.
        waveform: String,
        /// Remaining mission-level evaluation budget.
        budget: usize,
    },
    /// One objective evaluation (one simulated attacked mission).
    Probe {
        /// Window start `t_s` (s).
        ts: f64,
        /// Window duration `Δt` (s).
        dt: f64,
        /// Shape parameter for 3-axis searches.
        shape: Option<f64>,
        /// Objective value (victim distance to obstacle minus radius, m).
        value: f64,
        /// `true` when the probe crashed the expected victim.
        success: bool,
        /// `Some(true)` = forked from a snapshot, `Some(false)` = fork miss,
        /// `None` = snapshots off — execution detail, stripped by
        /// [`TraceEvent::strip_execution`].
        fork: Option<bool>,
    },
    /// One projected gradient-descent update (after clamping).
    GradientStep {
        /// Estimated ∂f/∂t_s.
        g_ts: f64,
        /// Estimated ∂f/∂Δt.
        g_dt: f64,
        /// Updated window start (s).
        ts: f64,
        /// Updated window duration (s).
        dt: f64,
    },
    /// The window search for one seed finished.
    SeedDone {
        /// Evaluations the search spent.
        evaluations: usize,
        /// `true` when a gradient search converged without a collision.
        converged: bool,
        /// Best (lowest) objective value seen.
        best_value: f64,
        /// `true` when an SPV was found.
        success: bool,
    },
    /// One fuzzing attempt completed.
    MissionDone {
        /// `true` when an SPV was found.
        success: bool,
        /// Total evaluations spent.
        evaluations: usize,
        /// Seeds worked through.
        seeds_tried: usize,
    },
    /// A mission errored and is being retried.
    MissionRetry {
        /// 1-based retry attempt about to run.
        attempt: usize,
        /// The error that triggered the retry.
        error: String,
    },
    /// A mission exhausted its retries and was quarantined.
    MissionFailed {
        /// The final error.
        error: String,
        /// Retries spent before giving up.
        retries: usize,
    },
}

impl TraceEvent {
    /// Short stable kind tag (also the NDJSON `ev` field).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::CampaignStart { .. } => "campaign_start",
            TraceEvent::CampaignEnd { .. } => "campaign_end",
            TraceEvent::ResumeSkip => "resume_skip",
            TraceEvent::JournalAppend { .. } => "journal_append",
            TraceEvent::MissionStart { .. } => "mission_start",
            TraceEvent::BaselineRejected { .. } => "baseline_rejected",
            TraceEvent::BaselineDone { .. } => "baseline",
            TraceEvent::SeedRanked { .. } => "seed_ranked",
            TraceEvent::SeedStart { .. } => "seed_start",
            TraceEvent::Probe { .. } => "probe",
            TraceEvent::GradientStep { .. } => "gradient_step",
            TraceEvent::SeedDone { .. } => "seed_done",
            TraceEvent::MissionDone { .. } => "mission_done",
            TraceEvent::MissionRetry { .. } => "mission_retry",
            TraceEvent::MissionFailed { .. } => "mission_failed",
        }
    }

    /// Clears the execution-detail annotations (fork hit/miss, snapshot-ring
    /// geometry) that legitimately differ between snapshot on/off runs.
    /// Everything else is pure search semantics and must be identical.
    pub fn strip_execution(&mut self) {
        match self {
            TraceEvent::Probe { fork, .. } => *fork = None,
            TraceEvent::BaselineDone { snapshots, stride, .. } => {
                *snapshots = 0;
                *stride = 0;
            }
            _ => {}
        }
    }
}

/// A keyed event — what sinks receive and files store, one per NDJSON line.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Logical coordinates.
    pub key: TraceKey,
    /// The event payload.
    pub event: TraceEvent,
}

// ---------------------------------------------------------------------------
// NDJSON codec (bit-exact, shared idiom with crate::store)
// ---------------------------------------------------------------------------

/// Renders one record as a single NDJSON line (newline included).
pub fn encode_record(record: &TraceRecord) -> String {
    let k = &record.key;
    let mut out = format!(
        "{{\"s\":{},\"db\":{},\"i\":{},\"q\":{},\"ev\":",
        k.swarm_size, k.deviation_bits, k.index, k.seq
    );
    store::push_json_string(&mut out, record.event.kind());
    match &record.event {
        TraceEvent::CampaignStart { configs, missions_per_config } => {
            out.push_str(&format!(",\"configs\":{configs},\"missions\":{missions_per_config}"));
        }
        TraceEvent::CampaignEnd { missions, failures } => {
            out.push_str(&format!(",\"missions\":{missions},\"failures\":{failures}"));
        }
        TraceEvent::ResumeSkip => {}
        TraceEvent::JournalAppend { row } => {
            out.push_str(",\"row\":");
            store::push_json_string(&mut out, row);
        }
        TraceEvent::MissionStart { mission_seed } => {
            out.push_str(&format!(",\"seed\":{mission_seed}"));
        }
        TraceEvent::BaselineRejected { mission_seed, time } => {
            out.push_str(&format!(",\"seed\":{mission_seed}"));
            store::push_field_f64(&mut out, "time", *time);
        }
        TraceEvent::BaselineDone { vdo, vdo_drone, duration, snapshots, stride } => {
            store::push_field_f64(&mut out, "vdo", *vdo);
            out.push_str(&format!(",\"drone\":{vdo_drone}"));
            store::push_field_f64(&mut out, "duration", *duration);
            out.push_str(&format!(",\"snapshots\":{snapshots},\"stride\":{stride}"));
        }
        TraceEvent::SeedRanked { rank, target, victim, theta, influence, victim_vdo } => {
            out.push_str(&format!(
                ",\"rank\":{rank},\"target\":{target},\"victim\":{victim},\"theta\":{theta}"
            ));
            store::push_field_f64(&mut out, "influence", *influence);
            store::push_field_f64(&mut out, "victim_vdo", *victim_vdo);
        }
        TraceEvent::SeedStart { ordinal, target, victim, theta, waveform, budget } => {
            out.push_str(&format!(
                ",\"ordinal\":{ordinal},\"target\":{target},\"victim\":{victim},\"theta\":{theta}"
            ));
            out.push_str(",\"waveform\":");
            store::push_json_string(&mut out, waveform);
            out.push_str(&format!(",\"budget\":{budget}"));
        }
        TraceEvent::Probe { ts, dt, shape, value, success, fork } => {
            store::push_field_f64(&mut out, "ts", *ts);
            store::push_field_f64(&mut out, "dt", *dt);
            if let Some(shape) = shape {
                store::push_field_f64(&mut out, "shape", *shape);
            }
            store::push_field_f64(&mut out, "value", *value);
            out.push_str(&format!(",\"success\":{success}"));
            if let Some(fork) = fork {
                out.push_str(&format!(",\"fork\":{fork}"));
            }
        }
        TraceEvent::GradientStep { g_ts, g_dt, ts, dt } => {
            store::push_field_f64(&mut out, "g_ts", *g_ts);
            store::push_field_f64(&mut out, "g_dt", *g_dt);
            store::push_field_f64(&mut out, "ts", *ts);
            store::push_field_f64(&mut out, "dt", *dt);
        }
        TraceEvent::SeedDone { evaluations, converged, best_value, success } => {
            out.push_str(&format!(",\"evaluations\":{evaluations},\"converged\":{converged}"));
            store::push_field_f64(&mut out, "best_value", *best_value);
            out.push_str(&format!(",\"success\":{success}"));
        }
        TraceEvent::MissionDone { success, evaluations, seeds_tried } => {
            out.push_str(&format!(
                ",\"success\":{success},\"evaluations\":{evaluations},\"seeds_tried\":{seeds_tried}"
            ));
        }
        TraceEvent::MissionRetry { attempt, error } => {
            out.push_str(&format!(",\"attempt\":{attempt},\"error\":"));
            store::push_json_string(&mut out, error);
        }
        TraceEvent::MissionFailed { error, retries } => {
            out.push_str(",\"error\":");
            store::push_json_string(&mut out, error);
            out.push_str(&format!(",\"retries\":{retries}"));
        }
    }
    out.push_str("}\n");
    out
}

/// Parses one NDJSON line back into a record (inverse of [`encode_record`]).
///
/// # Errors
///
/// Returns a description of the first malformed byte or missing field.
pub fn decode_record(line: &str) -> Result<TraceRecord, String> {
    let v = store::parse_json(line.trim_end_matches('\n'))?;
    let key = TraceKey {
        swarm_size: field(&v, "s", Json::u64)?,
        deviation_bits: field(&v, "db", Json::u64)?,
        index: field(&v, "i", Json::u64)?,
        seq: field(&v, "q", Json::u64)?,
    };
    let event = match field(&v, "ev", Json::str)? {
        "campaign_start" => TraceEvent::CampaignStart {
            configs: field(&v, "configs", Json::usize)?,
            missions_per_config: field(&v, "missions", Json::usize)?,
        },
        "campaign_end" => TraceEvent::CampaignEnd {
            missions: field(&v, "missions", Json::usize)?,
            failures: field(&v, "failures", Json::usize)?,
        },
        "resume_skip" => TraceEvent::ResumeSkip,
        "journal_append" => {
            TraceEvent::JournalAppend { row: field(&v, "row", Json::str)?.to_string() }
        }
        "mission_start" => TraceEvent::MissionStart { mission_seed: field(&v, "seed", Json::u64)? },
        "baseline_rejected" => TraceEvent::BaselineRejected {
            mission_seed: field(&v, "seed", Json::u64)?,
            time: field(&v, "time", Json::f64)?,
        },
        "baseline" => TraceEvent::BaselineDone {
            vdo: field(&v, "vdo", Json::f64)?,
            vdo_drone: field(&v, "drone", Json::usize)?,
            duration: field(&v, "duration", Json::f64)?,
            snapshots: field(&v, "snapshots", Json::usize)?,
            stride: field(&v, "stride", Json::usize)?,
        },
        "seed_ranked" => TraceEvent::SeedRanked {
            rank: field(&v, "rank", Json::usize)?,
            target: field(&v, "target", Json::usize)?,
            victim: field(&v, "victim", Json::usize)?,
            theta: field(&v, "theta", Json::f64)? as i8,
            influence: field(&v, "influence", Json::f64)?,
            victim_vdo: field(&v, "victim_vdo", Json::f64)?,
        },
        "seed_start" => TraceEvent::SeedStart {
            ordinal: field(&v, "ordinal", Json::usize)?,
            target: field(&v, "target", Json::usize)?,
            victim: field(&v, "victim", Json::usize)?,
            theta: field(&v, "theta", Json::f64)? as i8,
            waveform: field(&v, "waveform", Json::str)?.to_string(),
            budget: field(&v, "budget", Json::usize)?,
        },
        "probe" => TraceEvent::Probe {
            ts: field(&v, "ts", Json::f64)?,
            dt: field(&v, "dt", Json::f64)?,
            shape: v.get("shape").and_then(Json::f64),
            value: field(&v, "value", Json::f64)?,
            success: field(&v, "success", Json::boolean)?,
            fork: v.get("fork").and_then(Json::boolean),
        },
        "gradient_step" => TraceEvent::GradientStep {
            g_ts: field(&v, "g_ts", Json::f64)?,
            g_dt: field(&v, "g_dt", Json::f64)?,
            ts: field(&v, "ts", Json::f64)?,
            dt: field(&v, "dt", Json::f64)?,
        },
        "seed_done" => TraceEvent::SeedDone {
            evaluations: field(&v, "evaluations", Json::usize)?,
            converged: field(&v, "converged", Json::boolean)?,
            best_value: field(&v, "best_value", Json::f64)?,
            success: field(&v, "success", Json::boolean)?,
        },
        "mission_done" => TraceEvent::MissionDone {
            success: field(&v, "success", Json::boolean)?,
            evaluations: field(&v, "evaluations", Json::usize)?,
            seeds_tried: field(&v, "seeds_tried", Json::usize)?,
        },
        "mission_retry" => TraceEvent::MissionRetry {
            attempt: field(&v, "attempt", Json::usize)?,
            error: field(&v, "error", Json::str)?.to_string(),
        },
        "mission_failed" => TraceEvent::MissionFailed {
            error: field(&v, "error", Json::str)?.to_string(),
            retries: field(&v, "retries", Json::usize)?,
        },
        other => return Err(format!("unknown trace event kind {other:?}")),
    };
    Ok(TraceRecord { key, event })
}

/// Parses a whole NDJSON trace (empty lines skipped).
///
/// # Errors
///
/// Returns the first malformed line, 1-based.
pub fn parse_ndjson(text: &str) -> Result<Vec<TraceRecord>, String> {
    let mut records = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        records.push(decode_record(line).map_err(|e| format!("line {}: {e}", n + 1))?);
    }
    Ok(records)
}

/// Sorts records into canonical (key, then encoding) order in place.
pub fn sort_records(records: &mut [TraceRecord]) {
    records.sort_by(|a, b| a.key.cmp(&b.key).then_with(|| encode_record(a).cmp(&encode_record(b))));
}

/// Sequence-sorts an NDJSON trace without re-encoding: lines are reordered
/// by their [`TraceKey`] (ties broken by content) but kept byte-identical.
/// Traces of the same campaign written under different worker counts become
/// byte-identical under this transform.
///
/// # Errors
///
/// Returns the first line whose key cannot be parsed.
pub fn sorted_ndjson(text: &str) -> Result<String, String> {
    let mut lines: Vec<(TraceKey, &str)> = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let record = decode_record(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        lines.push((record.key, line));
    }
    lines.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(b.1)));
    let mut out = String::new();
    for (_, line) in lines {
        out.push_str(line);
        out.push('\n');
    }
    Ok(out)
}

/// Sequence-sorts AND strips execution-detail annotations
/// ([`TraceEvent::strip_execution`]), yielding the canonical trace that is
/// byte-identical across worker counts *and* snapshot on/off.
///
/// # Errors
///
/// Returns the first malformed line.
pub fn canonical_ndjson(text: &str) -> Result<String, String> {
    let mut records = parse_ndjson(text)?;
    for r in &mut records {
        r.event.strip_execution();
    }
    sort_records(&mut records);
    Ok(records.iter().map(encode_record).collect())
}

/// Checks that `text` is one well-formed JSON value (objects, arrays,
/// strings, numbers, booleans, null). Used by CI to validate the Chrome
/// trace export.
///
/// # Errors
///
/// Returns a description of the first malformed byte.
pub fn validate_json(text: &str) -> Result<(), String> {
    store::parse_json(text).map(|_| ())
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// An execution measurement no [`TraceEvent`] may carry: it depends on the
/// machine, the worker or snapshot forking, so it would break the
/// logical-time contract. Delivered through [`TraceSink::measure`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Measurement {
    /// One pipeline phase took `ns` wall-clock nanoseconds.
    Span {
        /// The timed phase.
        phase: Phase,
        /// Elapsed wall-clock time.
        ns: u64,
    },
    /// One simulation run finished with these loop counts.
    Run(RunStats),
    /// A forked probe skipped re-simulating `steps` prefix physics steps.
    PrefixSaved {
        /// The fork snapshot's physics step.
        steps: u64,
    },
    /// Worker slot `worker` finished one mission.
    WorkerDone {
        /// Worker slot index.
        worker: usize,
        /// `true` when the mission found an SPV.
        success: bool,
        /// Evaluations the mission spent.
        evaluations: u64,
    },
}

/// Receiver of trace records. Implementations must be cheap and thread-safe:
/// workers emit from the fuzzing hot path (one event per simulated mission,
/// never per physics step).
pub trait TraceSink: Send + Sync {
    /// Accepts one record.
    fn record(&self, record: &TraceRecord);

    /// Flushes buffered output (no-op for in-memory sinks).
    fn flush(&self) {}

    /// Accepts one side-channel [`Measurement`]. Ignored by default, so
    /// sinks that persist or print events never see wall-clock.
    fn measure(&self, _measurement: &Measurement) {}
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Trace is observational: a worker that panicked mid-record must not
    // cascade the poison into every other worker's emit path.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Bounded in-memory sink: keeps the most recent `capacity` records and
/// counts the ones it had to drop.
pub struct RingSink {
    capacity: usize,
    buf: Mutex<VecDeque<TraceRecord>>,
    dropped: AtomicU64,
}

impl RingSink {
    /// A ring retaining at most `capacity` records (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingSink {
            capacity,
            buf: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
            dropped: AtomicU64::new(0),
        }
    }

    /// The retained records in arrival order.
    pub fn records(&self) -> Vec<TraceRecord> {
        lock_unpoisoned(&self.buf).iter().cloned().collect()
    }

    /// Records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Total records ever recorded (retained + dropped).
    pub fn total(&self) -> u64 {
        lock_unpoisoned(&self.buf).len() as u64 + self.dropped()
    }
}

impl TraceSink for RingSink {
    fn record(&self, record: &TraceRecord) {
        let mut buf = lock_unpoisoned(&self.buf);
        if buf.len() == self.capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(record.clone());
    }
}

/// Streaming NDJSON file sink. Lines are written in arrival order (i.e.
/// interleaved across workers); [`sorted_ndjson`] restores the canonical
/// order. The first write error is latched and surfaced by
/// [`FileSink::finish`] instead of perturbing the run.
pub struct FileSink {
    path: PathBuf,
    out: Mutex<BufWriter<File>>,
    error: Mutex<Option<String>>,
}

impl FileSink {
    /// Creates (truncating) the trace file, with parent directories.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file cannot be created.
    pub fn create(path: &Path) -> Result<Self, StoreError> {
        let io_err = |e: &std::io::Error| StoreError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        };
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| io_err(&e))?;
            }
        }
        let file = File::create(path).map_err(|e| io_err(&e))?;
        Ok(FileSink {
            path: path.to_path_buf(),
            out: Mutex::new(BufWriter::new(file)),
            error: Mutex::new(None),
        })
    }

    /// Flushes and reports the first write error, if any.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] for the first latched or flush-time failure.
    pub fn finish(&self) -> Result<(), StoreError> {
        self.flush();
        match lock_unpoisoned(&self.error).take() {
            Some(message) => Err(StoreError::Io { path: self.path.display().to_string(), message }),
            None => Ok(()),
        }
    }

    fn latch(&self, e: &std::io::Error) {
        let mut slot = lock_unpoisoned(&self.error);
        if slot.is_none() {
            *slot = Some(e.to_string());
        }
    }
}

impl TraceSink for FileSink {
    fn record(&self, record: &TraceRecord) {
        let line = encode_record(record);
        let mut out = lock_unpoisoned(&self.out);
        if let Err(e) = out.write_all(line.as_bytes()) {
            self.latch(&e);
        }
    }

    fn flush(&self) {
        if let Err(e) = lock_unpoisoned(&self.out).flush() {
            self.latch(&e);
        }
    }
}

/// Rate-limited stderr progress stream: prints one line every `every`
/// completed missions (and every failure). Purely cosmetic — ordering
/// follows worker completion, not the canonical trace order.
pub struct ProgressSink {
    every: u64,
    done: AtomicU64,
}

impl ProgressSink {
    /// Reports every `every` mission completions (at least 1).
    pub fn new(every: u64) -> Self {
        ProgressSink { every: every.max(1), done: AtomicU64::new(0) }
    }
}

impl TraceSink for ProgressSink {
    fn record(&self, record: &TraceRecord) {
        match &record.event {
            TraceEvent::MissionDone { success, evaluations, .. } => {
                let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
                if done.is_multiple_of(self.every) {
                    eprintln!(
                        "[trace] {done} missions done (last: {} {} in {evaluations} evals)",
                        record.key.scope_name(),
                        if *success { "SPV" } else { "no SPV" },
                    );
                }
            }
            TraceEvent::MissionFailed { error, retries } => {
                eprintln!(
                    "[trace] {} FAILED after {retries} retries: {error}",
                    record.key.scope_name()
                );
            }
            _ => {}
        }
    }
}

/// Fan-out sink: forwards every record to each inner sink in order.
pub struct TeeSink {
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl TeeSink {
    /// Tees across `sinks`.
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> Self {
        TeeSink { sinks }
    }
}

impl TraceSink for TeeSink {
    fn record(&self, record: &TraceRecord) {
        for sink in &self.sinks {
            sink.record(record);
        }
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }

    fn measure(&self, measurement: &Measurement) {
        for sink in &self.sinks {
            sink.measure(measurement);
        }
    }
}

// ---------------------------------------------------------------------------
// The handle
// ---------------------------------------------------------------------------

struct TraceCtx {
    sink: Arc<dyn TraceSink>,
    scope: (u64, u64, u64),
    seq: AtomicU64,
}

/// Cheap-clone handle carrying a sink plus the emitting scope. The default
/// (and [`Trace::off`]) handle is a no-op: emitting, timing a span or
/// observing a run costs one branch.
///
/// The handle is attached with builder methods (`Fuzzer::with_trace`) or
/// passed beside configuration, never inside it, so it can never perturb
/// campaign fingerprints or reports.
#[derive(Clone, Default)]
pub struct Trace {
    inner: Option<Arc<TraceCtx>>,
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace").field("enabled", &self.is_enabled()).finish()
    }
}

impl Trace {
    /// The disabled handle.
    pub fn off() -> Self {
        Trace { inner: None }
    }

    /// A handle emitting to `sink` under the campaign scope `(0, 0, 0)`.
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        Trace { inner: Some(Arc::new(TraceCtx { sink, scope: (0, 0, 0), seq: AtomicU64::new(0) })) }
    }

    /// `true` when a sink is attached.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A handle scoped to one mission of the grid, with a fresh sequence
    /// counter. All events of one mission must go through one scoped handle
    /// (they do: a mission is fuzzed by exactly one worker).
    pub fn scoped(&self, swarm_size: usize, deviation: f64, index: usize) -> Trace {
        self.scoped_bits(swarm_size as u64, deviation.to_bits(), index as u64)
    }

    /// [`Trace::scoped`] with a pre-encoded deviation (journal keys store
    /// deviations as bits).
    pub fn scoped_bits(&self, swarm_size: u64, deviation_bits: u64, index: u64) -> Trace {
        match &self.inner {
            None => Trace::off(),
            Some(ctx) => Trace {
                inner: Some(Arc::new(TraceCtx {
                    sink: ctx.sink.clone(),
                    scope: (swarm_size, deviation_bits, index),
                    seq: AtomicU64::new(0),
                })),
            },
        }
    }

    /// Emits one event, assigning the scope's next sequence number.
    pub fn emit(&self, event: TraceEvent) {
        if let Some(ctx) = &self.inner {
            let seq = ctx.seq.fetch_add(1, Ordering::Relaxed);
            let (swarm_size, deviation_bits, index) = ctx.scope;
            ctx.sink.record(&TraceRecord {
                key: TraceKey { swarm_size, deviation_bits, index, seq },
                event,
            });
        }
    }

    /// Emits one event at an explicit key, bypassing the scope counter (used
    /// for journal-append markers and the campaign-end sentinel, whose
    /// position in the canonical order is fixed by construction).
    pub fn emit_at(&self, key: TraceKey, event: TraceEvent) {
        if let Some(ctx) = &self.inner {
            ctx.sink.record(&TraceRecord { key, event });
        }
    }

    /// Flushes the sink.
    pub fn flush(&self) {
        if let Some(ctx) = &self.inner {
            ctx.sink.flush();
        }
    }

    /// Sends one side-channel measurement to the sink.
    pub fn measure(&self, measurement: Measurement) {
        if let Some(ctx) = &self.inner {
            ctx.sink.measure(&measurement);
        }
    }

    /// Starts an RAII wall-clock timer for `phase`; the elapsed time reaches
    /// the sink as a [`Measurement::Span`] when the guard drops.
    pub fn span(&self, phase: Phase) -> SpanGuard<'_> {
        SpanGuard { active: self.inner.as_deref().map(|ctx| (ctx, phase, Instant::now())) }
    }
}

/// Simulation loop counts arrive once per run as a [`Measurement::Run`],
/// keeping the per-step hot path free of atomics.
impl SimObserver for Trace {
    fn on_run_end(&self, stats: &RunStats) {
        self.measure(Measurement::Run(*stats));
    }
}

/// RAII phase timer returned by [`Trace::span`].
pub struct SpanGuard<'a> {
    active: Option<(&'a TraceCtx, Phase, Instant)>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((ctx, phase, started)) = self.active.take() {
            let ns = span_ns(started, Instant::now());
            ctx.sink.measure(&Measurement::Span { phase, ns });
        }
    }
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

/// Exports records as Chrome trace-event JSON, loadable in
/// `chrome://tracing` and Perfetto. Logical mapping (no wall-clock exists in
/// a trace): the timestamp axis is the per-scope sequence number, each
/// mission of the grid becomes one "thread" (named `5d-10m #3`), seeds
/// become nested duration spans, probes become unit-duration slices. The
/// export is deterministic: records are canonically sorted first.
pub fn chrome_trace(records: &[TraceRecord]) -> String {
    let mut sorted: Vec<TraceRecord> = records.to_vec();
    sort_records(&mut sorted);

    // Stable thread ids per scope, in canonical order.
    let mut tids: Vec<(u64, u64, u64)> = Vec::new();
    for r in &sorted {
        let scope = (r.key.swarm_size, r.key.deviation_bits, r.key.index);
        if tids.last() != Some(&scope) && !tids.contains(&scope) {
            tids.push(scope);
        }
    }
    let tid_of = |key: &TraceKey| {
        tids.iter().position(|&s| s == (key.swarm_size, key.deviation_bits, key.index)).unwrap_or(0)
    };

    let mut events: Vec<String> = Vec::new();
    let mut push_event = |body: String| events.push(body);

    // Thread-name metadata.
    for (tid, scope) in tids.iter().enumerate() {
        let key = TraceKey { swarm_size: scope.0, deviation_bits: scope.1, index: scope.2, seq: 0 };
        let mut name = String::new();
        store::push_json_string(&mut name, &key.scope_name());
        push_event(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":{name}}}}}"
        ));
    }

    // Mission spans: one complete event covering the scope's whole history.
    for (tid, scope) in tids.iter().enumerate() {
        if scope.0 == 0 || scope.0 == u64::MAX {
            continue; // campaign scopes hold instants only
        }
        let max_seq = sorted
            .iter()
            .filter(|r| (r.key.swarm_size, r.key.deviation_bits, r.key.index) == *scope)
            .map(|r| if r.key.seq == u64::MAX { 0 } else { r.key.seq })
            .max()
            .unwrap_or(0);
        push_event(format!(
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":0,\"dur\":{},\"name\":\"mission\"}}",
            max_seq + 1
        ));
    }

    // Seed spans: pair each SeedStart with the next SeedDone in its scope.
    for (pos, r) in sorted.iter().enumerate() {
        if let TraceEvent::SeedStart { ordinal, target, victim, .. } = &r.event {
            let end = sorted[pos + 1..]
                .iter()
                .take_while(|r2| {
                    (r2.key.swarm_size, r2.key.deviation_bits, r2.key.index)
                        == (r.key.swarm_size, r.key.deviation_bits, r.key.index)
                })
                .find(|r2| matches!(r2.event, TraceEvent::SeedDone { .. }));
            if let Some(end) = end {
                let mut name = String::new();
                store::push_json_string(&mut name, &format!("seed#{ordinal} {target}->{victim}"));
                push_event(format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"name\":{name}}}",
                    tid_of(&r.key),
                    r.key.seq,
                    end.key.seq.saturating_sub(r.key.seq).max(1),
                ));
            }
        }
    }

    // Every record as a slice (probes) or instant, with its Debug payload.
    for r in &sorted {
        let ts = if r.key.seq == u64::MAX { 0 } else { r.key.seq };
        let mut name = String::new();
        store::push_json_string(&mut name, r.event.kind());
        let mut detail = String::new();
        store::push_json_string(&mut detail, &format!("{:?}", r.event));
        let args = format!("{{\"detail\":{detail}}}");
        let body = match &r.event {
            TraceEvent::Probe { .. } => format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{ts},\"dur\":1,\"name\":{name},\
                 \"args\":{args}}}",
                tid_of(&r.key)
            ),
            TraceEvent::SeedStart { .. } | TraceEvent::SeedDone { .. } => continue,
            _ => format!(
                "{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"ts\":{ts},\"s\":\"t\",\"name\":{name},\
                 \"args\":{args}}}",
                tid_of(&r.key)
            ),
        };
        push_event(body);
    }

    let mut out = String::from("{\"traceEvents\":[");
    out.push_str(&events.join(","));
    out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":\"swarmfuzz\"}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<TraceRecord> {
        let all = vec![
            TraceEvent::CampaignStart { configs: 6, missions_per_config: 2 },
            TraceEvent::CampaignEnd { missions: 12, failures: 1 },
            TraceEvent::ResumeSkip,
            TraceEvent::JournalAppend { row: "done".into() },
            TraceEvent::MissionStart { mission_seed: u64::MAX - 7 },
            TraceEvent::BaselineRejected { mission_seed: 3, time: 12.25 },
            TraceEvent::BaselineDone {
                vdo: 3.5,
                vdo_drone: 2,
                duration: 180.0,
                snapshots: 33,
                stride: 10,
            },
            TraceEvent::SeedRanked {
                rank: 0,
                target: 4,
                victim: 1,
                theta: -90,
                influence: 0.125,
                victim_vdo: 2.5,
            },
            TraceEvent::SeedStart {
                ordinal: 1,
                target: 4,
                victim: 1,
                theta: 90,
                waveform: "constant".into(),
                budget: 20,
            },
            TraceEvent::Probe {
                ts: 10.5,
                dt: 12.0,
                shape: Some(1.5),
                value: f64::INFINITY,
                success: false,
                fork: Some(true),
            },
            TraceEvent::Probe {
                ts: 0.0,
                dt: 7.0,
                shape: None,
                value: -0.5,
                success: true,
                fork: None,
            },
            TraceEvent::GradientStep { g_ts: -0.25, g_dt: 0.5, ts: 11.0, dt: 9.5 },
            TraceEvent::SeedDone {
                evaluations: 9,
                converged: true,
                best_value: 0.75,
                success: false,
            },
            TraceEvent::MissionDone { success: true, evaluations: 14, seeds_tried: 3 },
            TraceEvent::MissionRetry { attempt: 1, error: "sim: \"boom\"\nline2".into() },
            TraceEvent::MissionFailed { error: "gave up".into(), retries: 2 },
        ];
        all.into_iter()
            .enumerate()
            .map(|(i, event)| TraceRecord {
                key: TraceKey {
                    swarm_size: 5,
                    deviation_bits: 10.0f64.to_bits(),
                    index: 1,
                    seq: i as u64,
                },
                event,
            })
            .collect()
    }

    #[test]
    fn codec_round_trips_every_event_kind() {
        for record in sample_records() {
            let line = encode_record(&record);
            assert!(line.ends_with('\n'));
            let back = decode_record(&line).unwrap();
            assert_eq!(back, record, "round-trip failed for {line:?}");
        }
    }

    #[test]
    fn ndjson_parse_and_sort_are_stable() {
        let records = sample_records();
        let text: String = records.iter().map(encode_record).collect();
        assert_eq!(parse_ndjson(&text).unwrap(), records);
        // Shuffle lines by reversing; sorting restores the original bytes.
        let reversed: String = text.lines().rev().map(|l| format!("{l}\n")).collect();
        assert_eq!(sorted_ndjson(&reversed).unwrap(), text);
    }

    #[test]
    fn canonical_ndjson_strips_fork_annotations() {
        let records = sample_records();
        let text: String = records.iter().map(encode_record).collect();
        let canonical = canonical_ndjson(&text).unwrap();
        assert!(!canonical.contains("\"fork\""));
        assert!(canonical.contains("\"snapshots\":0,\"stride\":0"));
        // Canonicalizing is idempotent.
        assert_eq!(canonical_ndjson(&canonical).unwrap(), canonical);
    }

    #[test]
    fn ring_sink_is_bounded_and_counts_drops() {
        let sink = RingSink::new(4);
        let trace = Trace::new(Arc::new(RingSink::new(4)));
        assert!(trace.is_enabled());
        for record in sample_records() {
            sink.record(&record);
        }
        let n = sample_records().len() as u64;
        assert_eq!(sink.records().len(), 4);
        assert_eq!(sink.dropped(), n - 4);
        assert_eq!(sink.total(), n);
    }

    #[test]
    fn scoped_handles_assign_independent_sequences() {
        let ring = Arc::new(RingSink::new(1024));
        let trace = Trace::new(ring.clone());
        trace.emit(TraceEvent::CampaignStart { configs: 1, missions_per_config: 1 });
        let a = trace.scoped(5, 10.0, 0);
        let b = trace.scoped(5, 10.0, 1);
        a.emit(TraceEvent::MissionStart { mission_seed: 1 });
        b.emit(TraceEvent::MissionStart { mission_seed: 2 });
        a.emit(TraceEvent::MissionDone { success: false, evaluations: 0, seeds_tried: 0 });
        let records = ring.records();
        assert_eq!(records[0].key, TraceKey { swarm_size: 0, deviation_bits: 0, index: 0, seq: 0 });
        assert_eq!(
            records
                .iter()
                .filter(|r| r.key.index == 0 && r.key.swarm_size == 5)
                .map(|r| r.key.seq)
                .collect::<Vec<_>>(),
            vec![0, 1],
            "each scope counts from zero"
        );
        assert_eq!(records[2].key.index, 1);
        assert_eq!(records[2].key.seq, 0);
    }

    #[test]
    fn off_handle_is_inert() {
        let trace = Trace::off();
        assert!(!trace.is_enabled());
        trace.emit(TraceEvent::ResumeSkip); // must not panic
        trace.flush();
        let scoped = trace.scoped(5, 10.0, 0);
        assert!(!scoped.is_enabled());
    }

    #[test]
    fn chrome_export_is_well_formed_json() {
        let json = chrome_trace(&sample_records());
        validate_json(&json).unwrap_or_else(|e| panic!("malformed chrome trace: {e}"));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("thread_name"));
        assert!(json.contains("\"name\":\"mission\""));
    }

    #[test]
    fn file_sink_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("swarmfuzz-trace-{}", std::process::id()));
        let path = dir.join("t.ndjson");
        let sink = Arc::new(FileSink::create(&path).unwrap());
        let trace = Trace::new(sink.clone());
        let scoped = trace.scoped(5, 10.0, 0);
        scoped.emit(TraceEvent::MissionStart { mission_seed: 9 });
        scoped.emit(TraceEvent::MissionDone { success: true, evaluations: 3, seeds_tried: 1 });
        trace.flush();
        sink.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let records = parse_ndjson(&text).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].event, TraceEvent::MissionStart { mission_seed: 9 });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn key_order_puts_campaign_sentinels_first_and_last() {
        let start = TraceKey { swarm_size: 0, deviation_bits: 0, index: 0, seq: 0 };
        let mission =
            TraceKey { swarm_size: 5, deviation_bits: 5.0f64.to_bits(), index: 0, seq: 0 };
        let bigger =
            TraceKey { swarm_size: 5, deviation_bits: 10.0f64.to_bits(), index: 0, seq: 0 };
        let end = TraceKey { swarm_size: u64::MAX, deviation_bits: 0, index: 0, seq: 0 };
        assert!(start < mission);
        assert!(mission < bigger, "deviation bits order like deviations");
        assert!(bigger < end);
    }
}
