//! `swarmfuzzd`: the multi-tenant campaign scheduler.
//!
//! [`crate::executor`] turns one [`MissionJob`] into one [`JournalRow`];
//! this module owns everything *around* that call — which job runs next,
//! for which tenant, persisted where:
//!
//! * [`FairQueue`] — a pure (thread-free, deterministic) smooth
//!   weighted-round-robin scheduler with per-tenant FIFO campaign lanes and
//!   a bounded admission depth. Over-depth submissions are rejected with a
//!   typed [`ServerError::QueueFull`] — never silently dropped. Being pure,
//!   its fairness and ordering invariants are property-tested directly
//!   (`tests/server_properties.rs`).
//! * [`run_scheduled`] — the embedded single-tenant pool:
//!   [`crate::campaign::run_campaign_with_options`] is a thin client of
//!   this path, so the standalone campaign runner and the server dispatch
//!   missions through the *same* scheduler code (bit-identical reports,
//!   gated by `tests/executor_equivalence.rs`).
//! * [`CampaignServer`] — the long-running service: worker threads drain
//!   the fair queue, per-campaign *shard journals*
//!   (`<dir>/<fingerprint>.shard-<k>.jsonl`) make every job crash-safe and
//!   resumable across server incarnations (shards merge by campaign
//!   fingerprint, deduplicated by job key, exactly like single-process
//!   resume), and subscribers receive line-delimited progress events.
//! * [`CampaignSpec`] — a self-contained, wire-codable campaign
//!   description whose fingerprint matches the one
//!   [`crate::campaign::run_campaign`] computes for the same campaign, so a
//!   served report is comparable (and bit-identical) to a direct run.

use std::collections::{HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crossbeam::channel::{self, Receiver, Sender};
use swarm_sim::spoof::WaveformSet;
use swarm_sim::SwarmController;

use crate::campaign::{report_from_rows, CampaignConfig, CampaignReport, SwarmConfig};
use crate::executor::{ExecutionProfile, InProcessExecutor, MissionExecutor, MissionJob};
use crate::fuzzer::{Fuzzer, FuzzerConfig};
use crate::snapshot::SnapshotCache;
use crate::store::{
    campaign_fingerprint, parse_json, push_field_f64, push_json_string, CampaignJournal,
    JournalRow, Json, StoreError,
};
use crate::telemetry::Telemetry;
use crate::trace::Trace;
use crate::FuzzError;

/// Locks a mutex, recovering the guard when a previous holder panicked.
/// Scheduler state is kept consistent by construction (every mutation
/// completes before user code — mission execution — can run), so a poisoned
/// lock only means *some other* mission died, which the executor already
/// quarantined.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed scheduler/server failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerError {
    /// The tenant's submission was rejected because the queue is at its
    /// bounded depth. The submission is *not* enqueued; the client decides
    /// whether to retry. Never a silent drop: the server also counts every
    /// rejection ([`CampaignServer::rejections`]).
    QueueFull {
        /// Tenant whose submission was rejected.
        tenant: String,
        /// Campaigns currently queued (across all tenants).
        queued: usize,
        /// The configured admission bound.
        depth: usize,
    },
    /// The tenant was never registered.
    UnknownTenant(String),
    /// A tenant with this id is already registered.
    DuplicateTenant(String),
    /// No job with this id exists on the server.
    UnknownJob(u64),
    /// The job exists but its report is not available yet.
    JobNotFinished(u64),
    /// The job aborted (shard-journal I/O failure); carries the rendered
    /// cause.
    JobFailed {
        /// The failed job's id.
        job: u64,
        /// Rendered cause of the failure.
        error: String,
    },
    /// A shard journal could not be read or created.
    Store(StoreError),
    /// The server is shutting down and no longer accepts or finishes work.
    ShuttingDown,
    /// A wire message failed to decode.
    Wire(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::QueueFull { tenant, queued, depth } => write!(
                f,
                "queue full: tenant {tenant:?} rejected at {queued}/{depth} queued campaigns"
            ),
            ServerError::UnknownTenant(t) => write!(f, "unknown tenant {t:?}"),
            ServerError::DuplicateTenant(t) => write!(f, "tenant {t:?} already registered"),
            ServerError::UnknownJob(id) => write!(f, "unknown job {id}"),
            ServerError::JobNotFinished(id) => write!(f, "job {id} has not finished"),
            ServerError::JobFailed { job, error } => write!(f, "job {job} failed: {error}"),
            ServerError::Store(e) => write!(f, "shard journal error: {e}"),
            ServerError::ShuttingDown => write!(f, "server is shutting down"),
            ServerError::Wire(msg) => write!(f, "wire protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for ServerError {
    fn from(e: StoreError) -> Self {
        ServerError::Store(e)
    }
}

/// A stable short code for each error class, used on the wire.
impl ServerError {
    /// The wire-protocol error code for this error.
    pub fn code(&self) -> &'static str {
        match self {
            ServerError::QueueFull { .. } => "queue-full",
            ServerError::UnknownTenant(_) => "unknown-tenant",
            ServerError::DuplicateTenant(_) => "duplicate-tenant",
            ServerError::UnknownJob(_) => "unknown-job",
            ServerError::JobNotFinished(_) => "job-not-finished",
            ServerError::JobFailed { .. } => "job-failed",
            ServerError::Store(_) => "store",
            ServerError::ShuttingDown => "shutting-down",
            ServerError::Wire(_) => "wire",
        }
    }
}

// ---------------------------------------------------------------------------
// Campaign specifications
// ---------------------------------------------------------------------------

/// The four fuzzer variants of the paper's ablation (§V-C), as a closed
/// wire-codable enum (a [`FuzzerConfig`] constructor choice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzerVariant {
    /// SVG seed scheduling + gradient search (the paper's fuzzer).
    SwarmFuzz,
    /// Random seeds + random search.
    RFuzz,
    /// Random seeds + gradient search.
    GFuzz,
    /// SVG seeds + random search.
    SFuzz,
}

impl FuzzerVariant {
    /// The canonical name, matching [`FuzzerConfig::variant_name`].
    pub fn name(self) -> &'static str {
        match self {
            FuzzerVariant::SwarmFuzz => "SwarmFuzz",
            FuzzerVariant::RFuzz => "R_Fuzz",
            FuzzerVariant::GFuzz => "G_Fuzz",
            FuzzerVariant::SFuzz => "S_Fuzz",
        }
    }

    /// Parses a canonical variant name.
    pub fn parse(name: &str) -> Option<FuzzerVariant> {
        match name {
            "SwarmFuzz" => Some(FuzzerVariant::SwarmFuzz),
            "R_Fuzz" => Some(FuzzerVariant::RFuzz),
            "G_Fuzz" => Some(FuzzerVariant::GFuzz),
            "S_Fuzz" => Some(FuzzerVariant::SFuzz),
            _ => None,
        }
    }
}

/// A self-contained campaign submission: everything a server needs to run
/// the campaign and fingerprint it identically to a direct
/// [`crate::campaign::run_campaign`] of the same grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Grid, mission count, base seed. `campaign.workers` is carried for
    /// round-trip fidelity but ignored by the server (the server owns its
    /// worker pool; worker count never affects results or fingerprints).
    pub campaign: CampaignConfig,
    /// Which fuzzer variant to build per configuration.
    pub variant: FuzzerVariant,
    /// Attack classes the fuzzer schedules.
    pub attacks: WaveformSet,
    /// Overrides [`FuzzerConfig::eval_budget`] when set (part of the
    /// fingerprint, exactly as a direct run with the same override).
    pub eval_budget: Option<usize>,
}

impl CampaignSpec {
    /// A spec for the paper's default fuzzer over `campaign`.
    pub fn new(campaign: CampaignConfig) -> Self {
        CampaignSpec {
            campaign,
            variant: FuzzerVariant::SwarmFuzz,
            attacks: WaveformSet::CONSTANT_ONLY,
            eval_budget: None,
        }
    }

    /// The per-configuration fuzzer config this spec describes.
    pub fn fuzzer_config(&self, deviation: f64) -> FuzzerConfig {
        let mut config = match self.variant {
            FuzzerVariant::SwarmFuzz => FuzzerConfig::swarmfuzz(deviation),
            FuzzerVariant::RFuzz => FuzzerConfig::r_fuzz(deviation),
            FuzzerVariant::GFuzz => FuzzerConfig::g_fuzz(deviation),
            FuzzerVariant::SFuzz => FuzzerConfig::s_fuzz(deviation),
        }
        .with_waveforms(self.attacks);
        if let Some(budget) = self.eval_budget {
            config.eval_budget = budget;
        }
        config
    }

    /// The campaign fingerprint — identical to the one a direct
    /// [`crate::campaign::run_campaign_with_options`] journal of this
    /// campaign carries, so shard journals and single-process journals
    /// merge interchangeably.
    pub fn fingerprint(&self) -> String {
        let configs: Vec<FuzzerConfig> =
            self.campaign.configs.iter().map(|c| self.fuzzer_config(c.deviation)).collect();
        campaign_fingerprint(&self.campaign, &configs)
    }

    /// Every mission job of this campaign, in canonical grid order.
    pub fn jobs(&self) -> Vec<MissionJob> {
        self.campaign
            .configs
            .iter()
            .flat_map(|&config| {
                (0..self.campaign.missions_per_config)
                    .map(move |index| MissionJob { config, index })
            })
            .collect()
    }

    /// Encodes the spec as one JSON line (no trailing newline). The field
    /// order is fixed and floats use shortest-round-trip formatting, so the
    /// encoding is byte-stable: equal specs encode to equal bytes.
    pub fn encode(&self) -> String {
        let mut out = String::from("{\"spec\":\"swarmfuzz-campaign\",\"version\":1");
        out.push_str(&format!(
            ",\"base_seed\":{},\"missions_per_config\":{},\"workers\":{}",
            self.campaign.base_seed, self.campaign.missions_per_config, self.campaign.workers
        ));
        out.push_str(",\"configs\":[");
        for (i, c) in self.campaign.configs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"swarm_size\":{}", c.swarm_size));
            push_field_f64(&mut out, "deviation", c.deviation);
            out.push('}');
        }
        out.push_str("],\"variant\":");
        push_json_string(&mut out, self.variant.name());
        out.push_str(",\"attacks\":");
        let classes: Vec<&str> = self.attacks.iter().map(|k| k.name()).collect();
        push_json_string(&mut out, &classes.join(","));
        if let Some(budget) = self.eval_budget {
            out.push_str(&format!(",\"eval_budget\":{budget}"));
        }
        out.push('}');
        out
    }

    /// Decodes a spec encoded by [`CampaignSpec::encode`].
    ///
    /// # Errors
    ///
    /// A message describing the first malformed field.
    pub fn decode(line: &str) -> Result<CampaignSpec, String> {
        Self::from_json(&parse_json(line)?)
    }

    /// Decodes a parsed spec object (shared with `crate::wire`, where the
    /// spec arrives nested inside a submit message).
    pub(crate) fn from_json(j: &Json) -> Result<CampaignSpec, String> {
        if j.get("spec").and_then(Json::str) != Some("swarmfuzz-campaign") {
            return Err("not a campaign spec".into());
        }
        if j.get("version").and_then(Json::u64) != Some(1) {
            return Err("unsupported spec version".into());
        }
        let field = |key: &str| j.get(key).ok_or_else(|| format!("missing field {key:?}"));
        let configs = match field("configs")? {
            Json::Arr(items) => {
                let mut configs = Vec::with_capacity(items.len());
                for item in items {
                    let swarm_size = item
                        .get("swarm_size")
                        .and_then(Json::usize)
                        .ok_or("config missing swarm_size")?;
                    let deviation = item
                        .get("deviation")
                        .and_then(Json::f64)
                        .ok_or("config missing deviation")?;
                    configs.push(SwarmConfig { swarm_size, deviation });
                }
                configs
            }
            _ => return Err("configs must be an array".into()),
        };
        let variant_name = field("variant")?.str().ok_or("variant must be a string")?;
        let variant = FuzzerVariant::parse(variant_name)
            .ok_or_else(|| format!("unknown variant {variant_name:?}"))?;
        let attacks_list = field("attacks")?.str().ok_or("attacks must be a string")?;
        let attacks = WaveformSet::parse(attacks_list)?;
        Ok(CampaignSpec {
            campaign: CampaignConfig {
                configs,
                missions_per_config: field("missions_per_config")?
                    .usize()
                    .ok_or("missions_per_config must be an integer")?,
                base_seed: field("base_seed")?.u64().ok_or("base_seed must be an integer")?,
                workers: field("workers")?.usize().ok_or("workers must be an integer")?,
            },
            variant,
            attacks,
            eval_budget: j.get("eval_budget").and_then(Json::usize),
        })
    }
}

// ---------------------------------------------------------------------------
// The fair queue
// ---------------------------------------------------------------------------

/// A pure multi-tenant mission scheduler: smooth weighted round-robin
/// across tenants, FIFO campaign order within a tenant, bounded admission.
///
/// Properties (property-tested in `tests/server_properties.rs`):
///
/// * **Weight conservation** — while every tenant stays backlogged, tenant
///   `i` receives `n_i` of the first `t` dispatches with
///   `|n_i − t·w_i/W| < 2` (smooth WRR keeps per-tenant credit within one
///   round's total weight).
/// * **FIFO per tenant** — a tenant's campaigns dispatch in submission
///   order: every mission of an earlier campaign is dispatched before any
///   mission of a later one.
/// * **Bounded back-pressure** — at most `depth` campaigns are queued at
///   once; further submissions fail with [`ServerError::QueueFull`].
///
/// The queue is deliberately thread-free (callers wrap it in a mutex): a
/// pure dispatch order is a function of the submission sequence alone,
/// which is what makes the properties — and the servers built on top —
/// deterministic and testable.
#[derive(Debug)]
pub struct FairQueue {
    depth: usize,
    queued: usize,
    tenants: Vec<TenantLane>,
}

#[derive(Debug)]
struct TenantLane {
    id: String,
    weight: u64,
    credit: i64,
    campaigns: VecDeque<(u64, VecDeque<MissionJob>)>,
}

impl FairQueue {
    /// An empty queue admitting at most `depth` queued campaigns at once.
    pub fn new(depth: usize) -> Self {
        FairQueue { depth, queued: 0, tenants: Vec::new() }
    }

    /// Registers a tenant with a fair-share `weight` (clamped to ≥ 1):
    /// with continuous backlog, tenants receive dispatch slots
    /// proportionally to their weights.
    ///
    /// # Errors
    ///
    /// [`ServerError::DuplicateTenant`] when the id is taken.
    pub fn register_tenant(&mut self, id: &str, weight: u64) -> Result<(), ServerError> {
        if self.tenants.iter().any(|t| t.id == id) {
            return Err(ServerError::DuplicateTenant(id.to_string()));
        }
        self.tenants.push(TenantLane {
            id: id.to_string(),
            weight: weight.max(1),
            credit: 0,
            campaigns: VecDeque::new(),
        });
        Ok(())
    }

    /// Checks that a submission by `tenant` would be admitted, without
    /// changing any state.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownTenant`] or [`ServerError::QueueFull`].
    pub fn admit(&self, tenant: &str) -> Result<(), ServerError> {
        if !self.tenants.iter().any(|t| t.id == tenant) {
            return Err(ServerError::UnknownTenant(tenant.to_string()));
        }
        if self.queued >= self.depth {
            return Err(ServerError::QueueFull {
                tenant: tenant.to_string(),
                queued: self.queued,
                depth: self.depth,
            });
        }
        Ok(())
    }

    /// Enqueues an admitted campaign (`missions` must be non-empty; callers
    /// resolve empty campaigns without queuing them).
    pub fn enqueue(&mut self, tenant: &str, job: u64, missions: VecDeque<MissionJob>) {
        debug_assert!(!missions.is_empty(), "empty campaigns are resolved at submission");
        if let Some(lane) = self.tenants.iter_mut().find(|t| t.id == tenant) {
            lane.campaigns.push_back((job, missions));
            self.queued += 1;
        }
    }

    /// [`FairQueue::admit`] + [`FairQueue::enqueue`] in one call.
    ///
    /// # Errors
    ///
    /// As [`FairQueue::admit`].
    pub fn submit(
        &mut self,
        tenant: &str,
        job: u64,
        missions: VecDeque<MissionJob>,
    ) -> Result<(), ServerError> {
        self.admit(tenant)?;
        self.enqueue(tenant, job, missions);
        Ok(())
    }

    /// Dispatches the next mission by smooth weighted round-robin: every
    /// tenant with pending work earns its weight in credit, the richest
    /// tenant (ties: registration order) pays the round's total weight and
    /// yields the next mission of its oldest queued campaign.
    pub fn pop(&mut self) -> Option<(u64, MissionJob)> {
        let total: u64 =
            self.tenants.iter().filter(|t| !t.campaigns.is_empty()).map(|t| t.weight).sum();
        if total == 0 {
            return None;
        }
        let mut winner = usize::MAX;
        let mut best = i64::MIN;
        for (i, lane) in self.tenants.iter_mut().enumerate() {
            if lane.campaigns.is_empty() {
                continue;
            }
            lane.credit += lane.weight as i64;
            if lane.credit > best {
                best = lane.credit;
                winner = i;
            }
        }
        let lane = &mut self.tenants[winner];
        lane.credit -= total as i64;
        let (job, missions) = lane.campaigns.front_mut()?;
        let job = *job;
        let mission = missions.pop_front()?;
        if missions.is_empty() {
            lane.campaigns.pop_front();
            self.queued -= 1;
        }
        Some((job, mission))
    }

    /// Drops every still-queued mission of `job` (after a journal failure);
    /// returns how many were dropped.
    pub fn cancel(&mut self, job: u64) -> usize {
        for lane in &mut self.tenants {
            if let Some(pos) = lane.campaigns.iter().position(|(id, _)| *id == job) {
                let (_, missions) = lane.campaigns.remove(pos).unwrap_or((job, VecDeque::new()));
                self.queued -= 1;
                return missions.len();
            }
        }
        0
    }

    /// Campaigns currently queued (admitted, not yet fully dispatched).
    pub fn queued_campaigns(&self) -> usize {
        self.queued
    }

    /// Missions not yet dispatched, across all tenants.
    pub fn pending_missions(&self) -> usize {
        self.tenants
            .iter()
            .flat_map(|t| t.campaigns.iter())
            .map(|(_, missions)| missions.len())
            .sum()
    }

    /// The admission bound.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

// ---------------------------------------------------------------------------
// The embedded scheduler path
// ---------------------------------------------------------------------------

/// Runs `jobs` through `executor` on a pool of `workers` threads, feeding
/// every completed row to `on_row` on the calling thread in completion
/// order. This is the single-tenant scheduler path both
/// [`crate::campaign::run_campaign_with_options`] and the benches use; the
/// multi-tenant [`CampaignServer`] drains the same [`FairQueue`] from
/// long-lived workers.
///
/// With one tenant, weighted round-robin degenerates to FIFO, so dispatch
/// order matches the pre-split channel-fed pool exactly.
///
/// # Errors
///
/// The first error `on_row` returns (journal failures); workers stop
/// promptly — their next completed row fails to send once the collector is
/// gone — instead of fuzzing the remaining queue into the void.
pub fn run_scheduled<E>(
    executor: &E,
    jobs: Vec<MissionJob>,
    workers: usize,
    telemetry: &Telemetry,
    mut on_row: impl FnMut(JournalRow) -> Result<(), FuzzError>,
) -> Result<(), FuzzError>
where
    E: MissionExecutor + ?Sized,
{
    let mut queue = FairQueue::new(1);
    queue.register_tenant("local", 1).unwrap_or(());
    if !jobs.is_empty() {
        queue.enqueue("local", 0, jobs.into());
    }
    let queue = Mutex::new(queue);
    let workers = workers.max(1);
    let (res_tx, res_rx) = channel::unbounded::<JournalRow>();

    std::thread::scope(|scope| {
        for worker in 0..workers {
            let res_tx = res_tx.clone();
            let queue = &queue;
            let telemetry = telemetry.clone();
            scope.spawn(move || loop {
                let next = lock_unpoisoned(queue).pop();
                let Some((_, mission)) = next else { return };
                let row = executor.execute(&mission);
                if let JournalRow::Done { result, .. } = &row {
                    telemetry.worker_mission_done(
                        worker,
                        result.success,
                        result.evaluations as u64,
                    );
                }
                if res_tx.send(row).is_err() {
                    // Collector gone (journal failure): stop early.
                    return;
                }
            });
        }
        drop(res_tx);

        let mut first_error = None;
        for row in res_rx.iter() {
            if let Err(e) = on_row(row) {
                first_error = Some(e);
                break;
            }
        }
        // Dropping the receiver makes every in-flight worker's next send
        // fail, so a journal failure aborts promptly.
        drop(res_rx);
        first_error.map_or(Ok(()), Err)
    })
}

// ---------------------------------------------------------------------------
// Shard journals
// ---------------------------------------------------------------------------

/// The shard journal path for incarnation `k` of campaign `fingerprint`.
pub fn shard_path(dir: &Path, fingerprint: &str, shard: usize) -> PathBuf {
    dir.join(format!("{fingerprint}.shard-{shard}.jsonl"))
}

/// Reads every shard journal of `fingerprint` under `dir` (in shard order)
/// and returns their rows concatenated. Rows are *not* deduplicated here —
/// submission dedups by job key against the campaign grid, first row wins,
/// exactly like single-process resume. A missing directory is an empty
/// history; a truncated final line in any shard (crash mid-append) is
/// dropped by the journal reader.
///
/// # Errors
///
/// [`StoreError`] on unreadable shards or a shard whose header fingerprint
/// does not match its filename (hand-edited journals are refused, not
/// silently merged).
pub fn merge_shard_rows(dir: &Path, fingerprint: &str) -> Result<Vec<JournalRow>, StoreError> {
    let mut shards: Vec<(usize, PathBuf)> = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => {
            return Err(StoreError::Io { path: dir.display().to_string(), message: e.to_string() })
        }
    };
    let prefix = format!("{fingerprint}.shard-");
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::Io {
            path: dir.display().to_string(),
            message: e.to_string(),
        })?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(index) = name
            .strip_prefix(&prefix)
            .and_then(|rest| rest.strip_suffix(".jsonl"))
            .and_then(|k| k.parse::<usize>().ok())
        else {
            continue;
        };
        shards.push((index, entry.path()));
    }
    shards.sort_unstable_by_key(|&(index, _)| index);
    let mut rows = Vec::new();
    for (_, path) in shards {
        let contents = CampaignJournal::read(&path)?;
        if contents.fingerprint != fingerprint {
            return Err(StoreError::FingerprintMismatch {
                expected: fingerprint.to_string(),
                found: contents.fingerprint,
            });
        }
        rows.extend(contents.rows);
    }
    Ok(rows)
}

/// Creates the next free shard journal for `fingerprint` under `dir`.
fn create_shard(
    dir: &Path,
    fingerprint: &str,
    variant: &str,
) -> Result<CampaignJournal, StoreError> {
    let mut shard = 0usize;
    loop {
        let path = shard_path(dir, fingerprint, shard);
        if !path.exists() {
            return CampaignJournal::create(&path, fingerprint, variant);
        }
        shard += 1;
    }
}

// ---------------------------------------------------------------------------
// The campaign server
// ---------------------------------------------------------------------------

/// Server sizing and persistence knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads draining the fair queue.
    pub workers: usize,
    /// Bounded admission depth: campaigns queued at once, across tenants.
    pub queue_depth: usize,
    /// Directory for per-campaign shard journals (`None` = in-memory only,
    /// no crash-safety across server restarts).
    pub journal_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            queue_depth: 64,
            journal_dir: None,
        }
    }
}

/// Lifecycle of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Admitted, no mission dispatched yet.
    Queued,
    /// At least one mission dispatched.
    Running,
    /// Every mission accounted for; the report is available.
    Done,
    /// Aborted on a shard-journal failure; see the status error.
    Failed,
}

impl JobPhase {
    /// The phase's wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Failed => "failed",
        }
    }

    /// Parses a wire name back into a phase.
    pub fn parse(name: &str) -> Option<JobPhase> {
        match name {
            "queued" => Some(JobPhase::Queued),
            "running" => Some(JobPhase::Running),
            "done" => Some(JobPhase::Done),
            "failed" => Some(JobPhase::Failed),
            _ => None,
        }
    }
}

/// A point-in-time view of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// The job id.
    pub job: u64,
    /// Submitting tenant.
    pub tenant: String,
    /// Lifecycle phase.
    pub phase: JobPhase,
    /// Rows recorded so far (resumed + freshly executed).
    pub done: usize,
    /// Total missions in the campaign grid.
    pub total: usize,
    /// The campaign fingerprint.
    pub fingerprint: String,
    /// Global completion ordinal (1-based, in completion order) once the
    /// job is done — the logical clock the soak test's fairness bound is
    /// measured against.
    pub completed_ordinal: Option<u64>,
    /// Rendered failure cause when `phase` is [`JobPhase::Failed`].
    pub error: Option<String>,
}

struct JobState {
    tenant: String,
    fingerprint: String,
    executor: Arc<dyn MissionExecutor>,
    total: usize,
    rows: Vec<JournalRow>,
    in_flight: usize,
    journal: Option<CampaignJournal>,
    phase: JobPhase,
    report: Option<CampaignReport>,
    error: Option<String>,
    completed_ordinal: Option<u64>,
}

struct ServerState {
    queue: FairQueue,
    jobs: HashMap<u64, JobState>,
    next_job: u64,
    completed: u64,
    rejections: u64,
    shutdown: bool,
    subscribers: Vec<Sender<String>>,
}

/// Builds a job's executor from its spec. Boxed so the server itself stays
/// non-generic: the controller type (and any future subprocess/remote
/// backend choice) lives entirely inside the factory.
pub type ExecutorFactory = Box<dyn Fn(&CampaignSpec) -> Arc<dyn MissionExecutor> + Send + Sync>;

/// Execution knobs for [`in_process_factory`] (the server-side mirror of
/// [`crate::campaign::CampaignRunOptions`], minus journaling — the server
/// owns shard journals).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutorOptions {
    /// Retries per mission before quarantine.
    pub max_retries: usize,
    /// Snapshot-and-fork execution (fresh cache per job, as a direct run).
    pub snapshot: bool,
}

impl Default for ExecutorOptions {
    fn default() -> Self {
        ExecutorOptions { max_retries: 1, snapshot: true }
    }
}

/// The standard in-process executor factory: one [`InProcessExecutor`] per
/// job, configured exactly like a direct
/// [`crate::campaign::run_campaign_with_options`] of the same spec (fresh
/// snapshot cache per campaign), so served reports are bit-identical to
/// direct runs.
pub fn in_process_factory<C>(
    controller: C,
    options: ExecutorOptions,
    telemetry: Telemetry,
) -> ExecutorFactory
where
    C: SwarmController + Clone + Send + Sync + 'static,
{
    Box::new(move |spec: &CampaignSpec| {
        let spec = spec.clone();
        let controller = controller.clone();
        let base_seed = spec.campaign.base_seed;
        let cache = options.snapshot.then(SnapshotCache::new);
        let profile = ExecutionProfile { max_retries: options.max_retries };
        Arc::new(InProcessExecutor::new(
            base_seed,
            move |deviation| Fuzzer::new(controller.clone(), spec.fuzzer_config(deviation)),
            telemetry.clone(),
            Trace::off(),
            profile,
            cache,
        ))
    })
}

/// The long-running multi-tenant campaign service.
///
/// Clones share one server (handles are `Arc`-backed); call
/// [`CampaignServer::shutdown`] exactly once when done — workers finish
/// their in-flight missions, queued missions stay in their shard journals
/// for the next incarnation to resume.
#[derive(Clone)]
pub struct CampaignServer {
    inner: Arc<Inner>,
    handles: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

struct Inner {
    state: Mutex<ServerState>,
    work: Condvar,
    done: Condvar,
    factory: ExecutorFactory,
    telemetry: Telemetry,
    config: ServerConfig,
}

impl CampaignServer {
    /// Starts the server: spawns `config.workers` worker threads over
    /// `factory`. `telemetry` feeds per-worker progress counters (pass
    /// [`Telemetry::off`] to disable).
    pub fn start(config: ServerConfig, factory: ExecutorFactory, telemetry: Telemetry) -> Self {
        let workers = config.workers.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(ServerState {
                queue: FairQueue::new(config.queue_depth),
                jobs: HashMap::new(),
                next_job: 0,
                completed: 0,
                rejections: 0,
                shutdown: false,
                subscribers: Vec::new(),
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            factory,
            telemetry,
            config,
        });
        let handles = (0..workers)
            .map(|worker| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner, worker))
            })
            .collect();
        CampaignServer { inner, handles: Arc::new(Mutex::new(handles)) }
    }

    /// Registers a tenant with a fair-share weight (clamped to ≥ 1).
    ///
    /// # Errors
    ///
    /// [`ServerError::DuplicateTenant`], [`ServerError::ShuttingDown`].
    pub fn register_tenant(&self, id: &str, weight: u64) -> Result<(), ServerError> {
        let mut state = lock_unpoisoned(&self.inner.state);
        if state.shutdown {
            return Err(ServerError::ShuttingDown);
        }
        state.queue.register_tenant(id, weight)
    }

    /// Submits a campaign for `tenant`. Resumes from any existing shard
    /// journals of the same fingerprint, opens a fresh shard for this
    /// incarnation, and enqueues the remaining missions. Returns the job
    /// id.
    ///
    /// # Errors
    ///
    /// [`ServerError::QueueFull`] under back-pressure (typed, counted,
    /// nothing enqueued), [`ServerError::UnknownTenant`],
    /// [`ServerError::Store`] on shard I/O, [`ServerError::ShuttingDown`].
    pub fn submit(&self, tenant: &str, spec: &CampaignSpec) -> Result<u64, ServerError> {
        let fingerprint = spec.fingerprint();
        let grid_jobs = spec.jobs();
        let grid_keys: HashSet<(usize, u64, usize)> =
            grid_jobs.iter().map(MissionJob::key).collect();

        let mut state = lock_unpoisoned(&self.inner.state);
        if state.shutdown {
            return Err(ServerError::ShuttingDown);
        }
        if let Err(e) = state.queue.admit(tenant) {
            if matches!(e, ServerError::QueueFull { .. }) {
                state.rejections += 1;
            }
            return Err(e);
        }

        // Merge prior shard history (crash-safe resume by fingerprint).
        let mut rows: Vec<JournalRow> = Vec::new();
        let mut completed_keys: HashSet<(usize, u64, usize)> = HashSet::new();
        if let Some(dir) = &self.inner.config.journal_dir {
            for row in merge_shard_rows(dir, &fingerprint)? {
                let key = row.job_key();
                if grid_keys.contains(&key) && completed_keys.insert(key) {
                    rows.push(row);
                }
            }
        }
        let pending: VecDeque<MissionJob> =
            grid_jobs.iter().filter(|job| !completed_keys.contains(&job.key())).copied().collect();

        let journal = match &self.inner.config.journal_dir {
            Some(dir) if !pending.is_empty() => {
                let variant = spec.campaign.configs.first().map_or("none", |_| spec.variant.name());
                Some(create_shard(dir, &fingerprint, variant)?)
            }
            _ => None,
        };

        let executor = (self.inner.factory)(spec);
        let job = state.next_job;
        state.next_job += 1;
        let total = grid_jobs.len();
        let mut job_state = JobState {
            tenant: tenant.to_string(),
            fingerprint: fingerprint.clone(),
            executor,
            total,
            rows,
            in_flight: 0,
            journal,
            phase: JobPhase::Queued,
            report: None,
            error: None,
            completed_ordinal: None,
        };
        let resumed = job_state.rows.len();
        if pending.is_empty() {
            job_state.report = Some(report_from_rows(job_state.rows.clone()));
            job_state.phase = JobPhase::Done;
            state.completed += 1;
            job_state.completed_ordinal = Some(state.completed);
        } else {
            state.queue.enqueue(tenant, job, pending);
        }
        let phase = job_state.phase;
        state.jobs.insert(job, job_state);
        let mut event = format!("{{\"msg\":\"accepted\",\"job\":{job},\"tenant\":");
        push_json_string(&mut event, tenant);
        event.push_str(&format!(",\"total\":{total},\"resumed\":{resumed},\"fingerprint\":"));
        push_json_string(&mut event, &fingerprint);
        event.push('}');
        emit_event(&mut state, event);
        drop(state);
        if phase == JobPhase::Done {
            self.inner.done.notify_all();
        } else {
            self.inner.work.notify_all();
        }
        Ok(job)
    }

    /// A point-in-time status snapshot of `job`.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownJob`].
    pub fn status(&self, job: u64) -> Result<JobStatus, ServerError> {
        let state = lock_unpoisoned(&self.inner.state);
        let js = state.jobs.get(&job).ok_or(ServerError::UnknownJob(job))?;
        Ok(JobStatus {
            job,
            tenant: js.tenant.clone(),
            phase: js.phase,
            done: js.rows.len(),
            total: js.total,
            fingerprint: js.fingerprint.clone(),
            completed_ordinal: js.completed_ordinal,
            error: js.error.clone(),
        })
    }

    /// Blocks until `job` finishes and returns its merged report —
    /// bit-identical to a direct [`crate::campaign::run_campaign`] of the
    /// same spec (gated by `tests/server_soak.rs` and
    /// `tests/executor_equivalence.rs`).
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownJob`], [`ServerError::JobFailed`], or
    /// [`ServerError::ShuttingDown`] when the server stops before the job
    /// completes.
    pub fn wait(&self, job: u64) -> Result<CampaignReport, ServerError> {
        let mut state = lock_unpoisoned(&self.inner.state);
        loop {
            let js = state.jobs.get(&job).ok_or(ServerError::UnknownJob(job))?;
            match js.phase {
                JobPhase::Done => {
                    return js.report.clone().ok_or(ServerError::JobNotFinished(job));
                }
                JobPhase::Failed => {
                    return Err(ServerError::JobFailed {
                        job,
                        error: js.error.clone().unwrap_or_default(),
                    });
                }
                JobPhase::Queued | JobPhase::Running => {
                    if state.shutdown && js.in_flight == 0 {
                        return Err(ServerError::ShuttingDown);
                    }
                    state = self.inner.done.wait(state).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// The finished report of `job`, if available (non-blocking).
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownJob`], [`ServerError::JobFailed`],
    /// [`ServerError::JobNotFinished`] while still queued or running.
    pub fn try_report(&self, job: u64) -> Result<CampaignReport, ServerError> {
        let state = lock_unpoisoned(&self.inner.state);
        let js = state.jobs.get(&job).ok_or(ServerError::UnknownJob(job))?;
        match js.phase {
            JobPhase::Done => js.report.clone().ok_or(ServerError::JobNotFinished(job)),
            JobPhase::Failed => {
                Err(ServerError::JobFailed { job, error: js.error.clone().unwrap_or_default() })
            }
            JobPhase::Queued | JobPhase::Running => Err(ServerError::JobNotFinished(job)),
        }
    }

    /// The recorded rows of a finished job, sorted by job key so the wire
    /// stream is deterministic regardless of completion interleaving.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownJob`], [`ServerError::JobFailed`],
    /// [`ServerError::JobNotFinished`] while still queued or running.
    pub fn rows(&self, job: u64) -> Result<Vec<JournalRow>, ServerError> {
        let state = lock_unpoisoned(&self.inner.state);
        let js = state.jobs.get(&job).ok_or(ServerError::UnknownJob(job))?;
        match js.phase {
            JobPhase::Done => {
                let mut rows = js.rows.clone();
                rows.sort_by_key(JournalRow::job_key);
                Ok(rows)
            }
            JobPhase::Failed => {
                Err(ServerError::JobFailed { job, error: js.error.clone().unwrap_or_default() })
            }
            JobPhase::Queued | JobPhase::Running => Err(ServerError::JobNotFinished(job)),
        }
    }

    /// Typed back-pressure rejections since startup.
    pub fn rejections(&self) -> u64 {
        lock_unpoisoned(&self.inner.state).rejections
    }

    /// Campaigns currently admitted and not fully dispatched.
    pub fn queued_campaigns(&self) -> usize {
        lock_unpoisoned(&self.inner.state).queue.queued_campaigns()
    }

    /// Subscribes to the line-delimited progress stream (`accepted`,
    /// `progress`, `job-done`, `job-failed` events — the same lines `watch`
    /// streams over the wire). Slow or dropped subscribers are pruned on
    /// the next event; they never block the scheduler.
    pub fn subscribe(&self) -> Receiver<String> {
        let (tx, rx) = channel::unbounded();
        lock_unpoisoned(&self.inner.state).subscribers.push(tx);
        rx
    }

    /// Whether [`CampaignServer::shutdown`] has been called.
    pub fn is_shutdown(&self) -> bool {
        lock_unpoisoned(&self.inner.state).shutdown
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.inner.config
    }

    /// Stops the server: workers finish their in-flight missions (rows
    /// reach their shard journals) and exit; queued missions are *not*
    /// executed — resubmitting the same specs to a new server over the same
    /// journal directory resumes exactly where this incarnation stopped.
    pub fn shutdown(&self) {
        {
            let mut state = lock_unpoisoned(&self.inner.state);
            state.shutdown = true;
        }
        self.inner.work.notify_all();
        self.inner.done.notify_all();
        let handles: Vec<_> = lock_unpoisoned(&self.handles).drain(..).collect();
        for handle in handles {
            // A worker that somehow panicked is already accounted for by
            // the executor's quarantine; ignore the join result.
            let _ = handle.join();
        }
        self.inner.done.notify_all();
    }
}

fn emit_event(state: &mut ServerState, line: String) {
    state.subscribers.retain(|tx| tx.send(line.clone()).is_ok());
}

fn worker_loop(inner: &Inner, worker: usize) {
    let mut state = lock_unpoisoned(&inner.state);
    loop {
        if state.shutdown {
            return;
        }
        let Some((job, mission)) = state.queue.pop() else {
            state = inner.work.wait(state).unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        let executor = match state.jobs.get_mut(&job) {
            Some(js) => {
                js.in_flight += 1;
                if js.phase == JobPhase::Queued {
                    js.phase = JobPhase::Running;
                }
                Arc::clone(&js.executor)
            }
            // A cancelled job may leave a popped mission behind; skip it.
            None => continue,
        };
        drop(state);
        let row = executor.execute(&mission);
        state = lock_unpoisoned(&inner.state);
        record_row(inner, &mut state, job, row, worker);
    }
}

/// Books one completed mission row: shard-journal append, progress event,
/// completion detection. Called with the state lock held; notifies the
/// `done` condvar outside the match so waiters always observe phase
/// transitions.
fn record_row(inner: &Inner, state: &mut ServerState, job: u64, row: JournalRow, worker: usize) {
    if let JournalRow::Done { result, .. } = &row {
        inner.telemetry.worker_mission_done(worker, result.success, result.evaluations as u64);
    }
    let Some(js) = state.jobs.get_mut(&job) else { return };
    js.in_flight = js.in_flight.saturating_sub(1);
    if let Some(journal) = js.journal.as_mut() {
        if let Err(e) = journal.append(&row) {
            js.phase = JobPhase::Failed;
            js.error = Some(ServerError::Store(e).to_string());
        }
    }
    js.rows.push(row);
    let done = js.rows.len();
    let total = js.total;
    let tenant = js.tenant.clone();
    if js.phase == JobPhase::Failed {
        let error = js.error.clone().unwrap_or_default();
        state.queue.cancel(job);
        let mut event = format!("{{\"msg\":\"job-failed\",\"job\":{job},\"tenant\":");
        push_json_string(&mut event, &tenant);
        event.push_str(",\"error\":");
        push_json_string(&mut event, &error);
        event.push('}');
        emit_event(state, event);
        inner.done.notify_all();
        return;
    }
    if done == total {
        js.report = Some(report_from_rows(js.rows.clone()));
        js.phase = JobPhase::Done;
        state.completed += 1;
        let ordinal = state.completed;
        if let Some(js) = state.jobs.get_mut(&job) {
            js.completed_ordinal = Some(ordinal);
        }
        let mut event = format!("{{\"msg\":\"job-done\",\"job\":{job},\"tenant\":");
        push_json_string(&mut event, &tenant);
        event.push_str(&format!(",\"done\":{done},\"total\":{total}}}"));
        emit_event(state, event);
        inner.done.notify_all();
    } else {
        let mut event = format!("{{\"msg\":\"progress\",\"job\":{job},\"tenant\":");
        push_json_string(&mut event, &tenant);
        event.push_str(&format!(",\"done\":{done},\"total\":{total}}}"));
        emit_event(state, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(size: usize, index: usize) -> MissionJob {
        MissionJob { config: SwarmConfig { swarm_size: size, deviation: 10.0 }, index }
    }

    fn missions(n: usize) -> VecDeque<MissionJob> {
        (0..n).map(|i| job(5, i)).collect()
    }

    #[test]
    fn single_tenant_pops_fifo() {
        let mut q = FairQueue::new(8);
        q.register_tenant("a", 1).unwrap();
        q.submit("a", 1, missions(3)).unwrap();
        q.submit("a", 2, missions(2)).unwrap();
        let order: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop()).map(|(id, m)| (id, m.index)).collect();
        assert_eq!(order, vec![(1, 0), (1, 1), (1, 2), (2, 0), (2, 1)]);
        assert_eq!(q.queued_campaigns(), 0);
    }

    #[test]
    fn weighted_round_robin_respects_weights() {
        let mut q = FairQueue::new(8);
        q.register_tenant("heavy", 3).unwrap();
        q.register_tenant("light", 1).unwrap();
        q.submit("heavy", 1, missions(40)).unwrap();
        q.submit("light", 2, missions(40)).unwrap();
        let mut counts = (0usize, 0usize);
        for _ in 0..40 {
            match q.pop().expect("backlogged") {
                (1, _) => counts.0 += 1,
                (2, _) => counts.1 += 1,
                _ => unreachable!(),
            }
        }
        assert_eq!(counts, (30, 10), "3:1 weights over 40 dispatches");
    }

    #[test]
    fn queue_full_is_typed_and_exact() {
        let mut q = FairQueue::new(2);
        q.register_tenant("a", 1).unwrap();
        q.submit("a", 1, missions(1)).unwrap();
        q.submit("a", 2, missions(1)).unwrap();
        let err = q.submit("a", 3, missions(1)).unwrap_err();
        assert_eq!(err, ServerError::QueueFull { tenant: "a".into(), queued: 2, depth: 2 });
        assert_eq!(err.code(), "queue-full");
        // Draining one campaign frees a slot.
        let _ = q.pop();
        q.submit("a", 3, missions(1)).unwrap();
    }

    #[test]
    fn unknown_and_duplicate_tenants_are_rejected() {
        let mut q = FairQueue::new(2);
        q.register_tenant("a", 1).unwrap();
        assert_eq!(
            q.register_tenant("a", 2).unwrap_err(),
            ServerError::DuplicateTenant("a".into())
        );
        assert_eq!(
            q.submit("ghost", 1, missions(1)).unwrap_err(),
            ServerError::UnknownTenant("ghost".into())
        );
    }

    #[test]
    fn cancel_drops_queued_missions() {
        let mut q = FairQueue::new(8);
        q.register_tenant("a", 1).unwrap();
        q.submit("a", 1, missions(4)).unwrap();
        let _ = q.pop();
        assert_eq!(q.cancel(1), 3);
        assert_eq!(q.pop(), None);
        assert_eq!(q.queued_campaigns(), 0);
        assert_eq!(q.cancel(1), 0, "cancelling twice is a no-op");
    }

    #[test]
    fn idle_tenants_earn_no_credit() {
        let mut q = FairQueue::new(8);
        q.register_tenant("idle", 9).unwrap();
        q.register_tenant("busy", 1).unwrap();
        q.submit("busy", 1, missions(5)).unwrap();
        for _ in 0..5 {
            assert_eq!(q.pop().expect("busy has work").0, 1);
        }
        // The idle tenant's credit never grew while it had nothing queued:
        // when both finally have work, it does not get a catch-up burst.
        q.submit("idle", 2, missions(1)).unwrap();
        q.submit("busy", 3, missions(1)).unwrap();
        assert_eq!(q.pop().expect("work").0, 2, "higher weight wins the joint round");
        assert_eq!(q.pop().expect("work").0, 3);
    }

    #[test]
    fn spec_codec_round_trips_and_is_byte_stable() {
        let mut campaign = CampaignConfig::paper_grid(7, 0xC0FFEE);
        campaign.workers = 4;
        let spec = CampaignSpec {
            campaign,
            variant: FuzzerVariant::SFuzz,
            attacks: WaveformSet::all(),
            eval_budget: Some(3),
        };
        let line = spec.encode();
        let decoded = CampaignSpec::decode(&line).expect("round trip");
        assert_eq!(decoded, spec);
        assert_eq!(decoded.encode(), line, "byte-stable re-encoding");
        assert_eq!(decoded.fingerprint(), spec.fingerprint());
    }

    /// Pinned encoding: wire compatibility breaks must be deliberate.
    #[test]
    fn spec_encoding_is_pinned() {
        let spec = CampaignSpec::new(CampaignConfig {
            configs: vec![SwarmConfig { swarm_size: 5, deviation: 10.0 }],
            missions_per_config: 2,
            base_seed: 7,
            workers: 1,
        });
        assert_eq!(
            spec.encode(),
            "{\"spec\":\"swarmfuzz-campaign\",\"version\":1,\"base_seed\":7,\
             \"missions_per_config\":2,\"workers\":1,\"configs\":[{\"swarm_size\":5,\
             \"deviation\":10}],\"variant\":\"SwarmFuzz\",\"attacks\":\"constant\"}"
        );
    }

    #[test]
    fn spec_decode_rejects_malformed_lines() {
        assert!(CampaignSpec::decode("not json").is_err());
        assert!(CampaignSpec::decode("{\"spec\":\"other\"}").is_err());
        let spec = CampaignSpec::new(CampaignConfig::paper_grid(1, 0));
        let line = spec.encode().replace("SwarmFuzz", "Q_Fuzz");
        let err = CampaignSpec::decode(&line).unwrap_err();
        assert!(err.contains("Q_Fuzz"), "unknown variant must be named: {err}");
    }

    #[test]
    fn spec_fingerprint_matches_direct_campaign_fingerprint() {
        let campaign = CampaignConfig::paper_grid(3, 42);
        let spec = CampaignSpec::new(campaign.clone());
        let configs: Vec<FuzzerConfig> =
            campaign.configs.iter().map(|c| FuzzerConfig::swarmfuzz(c.deviation)).collect();
        assert_eq!(spec.fingerprint(), campaign_fingerprint(&campaign, &configs));
    }

    #[test]
    fn variant_names_round_trip() {
        for v in [
            FuzzerVariant::SwarmFuzz,
            FuzzerVariant::RFuzz,
            FuzzerVariant::GFuzz,
            FuzzerVariant::SFuzz,
        ] {
            assert_eq!(FuzzerVariant::parse(v.name()), Some(v));
        }
        assert_eq!(FuzzerVariant::parse("nope"), None);
    }

    #[test]
    fn job_phase_names_round_trip() {
        for p in [JobPhase::Queued, JobPhase::Running, JobPhase::Done, JobPhase::Failed] {
            assert_eq!(JobPhase::parse(p.name()), Some(p));
        }
        assert_eq!(JobPhase::parse("paused"), None);
    }

    #[test]
    fn shard_paths_are_fingerprint_scoped() {
        let dir = Path::new("/tmp/j");
        assert_eq!(shard_path(dir, "abc123", 2), PathBuf::from("/tmp/j/abc123.shard-2.jsonl"));
    }

    #[test]
    fn merge_shard_rows_handles_missing_directory() {
        let dir = std::env::temp_dir().join("swarmfuzz-no-such-dir-ever");
        assert_eq!(merge_shard_rows(&dir, "abc").unwrap(), Vec::new());
    }
}
