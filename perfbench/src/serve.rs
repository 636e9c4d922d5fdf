//! `serve` and `serve-resume`: campaign traffic through the TCP service.
//!
//! Both drive a `CampaignServer` (`WORKERS` workers) through `wire::serve`
//! and `wire::Client` over loopback. Four tenants of weights 1/1/2/3 submit
//! mini-campaigns (2–3 drones, 1–2 missions, `eval_budget = 0`, so each
//! mission is one baseline simulation) in a closed loop: `CONNECTIONS`
//! client connections, each keeping `WINDOW` jobs outstanding, well below
//! the queue depth. A job's latency runs from its submit being sent to the
//! `end` line of its results.
//!
//! * `serve` is the write path. Each round starts a server over a fresh,
//!   empty journal directory and submits `SPECS` distinct specs, so every
//!   job creates a shard (an fsync) and appends its rows. A mission costs
//!   milliseconds, so the layers around it set the pace: admission, the
//!   fair queue, the journal and wire framing.
//! * `serve-resume` is the read path. Set-up journals the same specs into
//!   a directory of `SPECS` shards; each round a fresh server incarnation
//!   over it answers every resubmission from `merge_shard_rows` with no
//!   mission executed. `submit` scans the whole directory while holding
//!   the server lock, so the directory size is part of the workload.
//!
//! Every served report must be bit-identical to a direct `run_campaign` of
//! its spec, computed in set-up.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use swarm_math::rng::derive_seed;
use swarmfuzz::campaign::{
    report_from_rows, run_campaign, CampaignConfig, CampaignReport, SwarmConfig,
};
use swarmfuzz::server::{in_process_factory, merge_shard_rows, ExecutorOptions};
use swarmfuzz::store::{decode_row, encode_row, JournalRow};
use swarmfuzz::wire::{self, Client, WireError};
use swarmfuzz::{CampaignJournal, CampaignServer, CampaignSpec, Fuzzer, ServerConfig, Telemetry};

use crate::grid::controller;
use crate::report::Outcome;
use crate::stats::{
    median, median_secs, ms_since, per_call_ns, release_free_memory, tail_percentile,
};
use crate::WORKERS;

/// Which path the workload drives.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `serve`: fresh journal directories, the write path.
    Fresh,
    /// `serve-resume`: a pre-journaled directory, the read path.
    Resume,
}

/// Distinct specs per round, and shards in the pre-journaled directory.
const SPECS: usize = 100;

/// Client connections, one load-generating thread each.
const CONNECTIONS: usize = 2;

/// Outstanding jobs per connection.
const WINDOW: usize = 4;

/// Admission bound; the closed loop never holds more than
/// `CONNECTIONS * WINDOW` jobs, so no submission is refused.
const QUEUE_DEPTH: usize = 16;

/// Jobs a run answers at least, so the traced p95 has ten samples beyond.
const MIN_JOBS: usize = 200;

/// Tenants and their fair-share weights.
const TENANTS: [(&str, u64); 4] = [("acme", 1), ("globex", 1), ("initech", 2), ("umbrella", 3)];

/// The tenant submitting spec `i`. Connection `c` submits the specs with
/// `i % CONNECTIONS == c`, so no tenant is shared between connections: two
/// connections making first contact for one tenant at once race in the
/// server's register-on-first-submit and one of them is refused with
/// `duplicate-tenant`.
fn tenant(i: usize) -> (&'static str, u64) {
    TENANTS[i % TENANTS.len()]
}

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// The `i`-th spec of a run: 2–3 drones, 1–2 missions, no search budget.
/// Shapes cycle with `i`, so every run submits the same mix; the seed picks
/// the missions.
pub fn spec(seed: u64, i: usize) -> CampaignSpec {
    let mut spec = CampaignSpec::new(CampaignConfig {
        configs: vec![SwarmConfig { swarm_size: 2 + i / 4 % 2, deviation: 10.0 }],
        missions_per_config: 1 + i / 8 % 2,
        base_seed: derive_seed(seed, i as u64),
        workers: 1,
    });
    spec.eval_budget = Some(0);
    spec
}

fn reference(spec: &CampaignSpec) -> Result<CampaignReport, String> {
    run_campaign(&spec.campaign, |deviation| {
        Fuzzer::new(controller(), spec.fuzzer_config(deviation))
    })
    .map_err(|e| format!("direct campaign failed: {e}"))
}

/// Direct-run references of every spec, computed on `WORKERS` threads.
fn references(specs: &[CampaignSpec]) -> Result<Vec<CampaignReport>, String> {
    let chunk = specs.len().div_ceil(WORKERS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .chunks(chunk)
            .map(|c| scope.spawn(|| c.iter().map(reference).collect::<Vec<_>>()))
            .collect();
        let mut out = Vec::with_capacity(specs.len());
        for h in handles {
            for r in h.join().map_err(|_| "reference thread panicked".to_string())? {
                out.push(r?);
            }
        }
        Ok(out)
    })
}

/// A scratch directory inside the working directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Result<Self, String> {
        let dir = PathBuf::from(".perfbench_tmp").join(format!("{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
        // Leave no empty parent behind either; fails harmlessly while a
        // sibling still exists.
        std::fs::remove_dir(".perfbench_tmp").ok();
    }
}

fn start_server(dir: &Path) -> CampaignServer {
    CampaignServer::start(
        ServerConfig {
            workers: WORKERS,
            queue_depth: QUEUE_DEPTH,
            journal_dir: Some(dir.to_path_buf()),
        },
        in_process_factory(controller(), ExecutorOptions::default(), Telemetry::off()),
        Telemetry::off(),
    )
}

/// A server plus its TCP acceptor.
struct Service {
    server: CampaignServer,
    addr: SocketAddr,
    acceptor: JoinHandle<()>,
    threads_before: Option<usize>,
}

/// Threads of this process, where `/proc` reports them.
fn thread_count() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(Iterator::count)
}

impl Service {
    fn start(dir: &Path) -> Result<Self, String> {
        let threads_before = thread_count();
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let server = start_server(dir);
        let acceptor = wire::serve(server.clone(), listener);
        Ok(Service { server, addr, acceptor, threads_before })
    }

    /// Stops the workers, wakes the acceptor (it notices shutdown on its
    /// next connection) and waits for it, then waits until the per-
    /// connection threads have seen their clients hang up and exited and
    /// releases the freed memory, so the next round starts from the same
    /// process state.
    fn stop(self) {
        self.server.shutdown();
        drop(TcpStream::connect(self.addr));
        self.acceptor.join().ok();
        drop(self.server);
        let settled = Instant::now() + Duration::from_secs(5);
        while thread_count() > self.threads_before && Instant::now() < settled {
            std::thread::sleep(Duration::from_millis(1));
        }
        release_free_memory();
    }
}

/// What the closed loop observed.
#[derive(Default)]
struct LoopResult {
    latencies_ms: Vec<f64>,
    /// `(spec index, rows)` of every answered job.
    answers: Vec<(usize, Vec<JournalRow>)>,
    failed: u64,
    errors: Vec<String>,
    status_rtt_us: Vec<f64>,
    results_bytes: Vec<f64>,
}

/// Submits `specs` through `CONNECTIONS` connections, each keeping
/// `WINDOW` jobs outstanding, until every spec is answered or `until`
/// passes. With `probe`, each answered job is followed by a timed `status`
/// request.
fn closed_loop(
    addr: SocketAddr,
    specs: &[CampaignSpec],
    probe: bool,
    until: Instant,
) -> LoopResult {
    let merged = Mutex::new(LoopResult::default());
    std::thread::scope(|scope| {
        for c in 0..CONNECTIONS {
            let merged = &merged;
            scope.spawn(move || {
                let mut r = LoopResult::default();
                if let Err(e) = connection(addr, specs, c, probe, until, &mut r) {
                    r.failed += 1;
                    r.errors.push(e.to_string());
                }
                let mut m = merged.lock().expect("loop result lock");
                m.latencies_ms.extend(r.latencies_ms);
                m.answers.extend(r.answers);
                m.failed += r.failed;
                m.errors.extend(r.errors);
                m.status_rtt_us.extend(r.status_rtt_us);
                m.results_bytes.extend(r.results_bytes);
            });
        }
    });
    merged.into_inner().expect("loop result lock")
}

fn connection(
    addr: SocketAddr,
    specs: &[CampaignSpec],
    c: usize,
    probe: bool,
    until: Instant,
    r: &mut LoopResult,
) -> Result<(), WireError> {
    let mut client = Client::over_tcp(TcpStream::connect(addr)?)?;
    let mut pending: VecDeque<(u64, usize, Instant)> = VecDeque::new();
    let complete = |client: &mut Client<_, _>,
                    (job, i, sent): (u64, usize, Instant),
                    r: &mut LoopResult| {
        match client.results_rows(job, true) {
            Ok(rows) => {
                r.latencies_ms.push(ms_since(sent));
                if probe {
                    let bytes: usize = rows.iter().map(|row| encode_row(row).len()).sum();
                    let header =
                        format!("{{\"msg\":\"results\",\"job\":{job},\"rows\":{}}}\n", rows.len());
                    let end = format!("{{\"msg\":\"end\",\"job\":{job}}}\n");
                    r.results_bytes.push((bytes + header.len() + end.len()) as f64);
                    let t = Instant::now();
                    if client.status(job).is_ok() {
                        r.status_rtt_us.push(ms_since(t) * 1e3);
                    }
                }
                r.answers.push((i, rows));
            }
            Err(e) => {
                r.failed += 1;
                r.errors.push(format!("job {job}: {e}"));
            }
        }
    };
    for i in (c..specs.len()).step_by(CONNECTIONS) {
        if Instant::now() >= until {
            break;
        }
        if pending.len() >= WINDOW {
            let oldest = pending.pop_front().expect("window is full");
            complete(&mut client, oldest, r);
        }
        let (tenant, weight) = tenant(i);
        let sent = Instant::now();
        match client.submit(tenant, weight, &specs[i]) {
            Ok(accepted) => pending.push_back((accepted.job, i, sent)),
            Err(WireError::Server { code, message }) => {
                r.failed += 1;
                r.errors.push(format!("submit refused [{code}]: {message}"));
            }
            Err(e) => return Err(e),
        }
    }
    while let Some(oldest) = pending.pop_front() {
        complete(&mut client, oldest, r);
    }
    Ok(())
}

/// Checks every answered job against its direct-run reference.
fn check_answers(out: &mut Outcome, r: &LoopResult, refs: &[CampaignReport]) {
    for (i, rows) in &r.answers {
        let report = report_from_rows(rows.clone());
        out.check(report == refs[*i], || {
            format!("served report of spec {i} differs from the direct run")
        });
    }
    for e in r.errors.iter().take(5) {
        out.check(false, || e.clone());
    }
}

/// Files directly under `dir`, with their total size in bytes.
fn dir_listing(dir: &Path) -> (usize, u64) {
    std::fs::read_dir(dir).map_or((0, 0), |entries| {
        entries
            .flatten()
            .fold((0, 0), |(n, bytes), e| (n + 1, bytes + e.metadata().map_or(0, |m| m.len())))
    })
}

/// Journals every spec into `dir` through an in-process server, keeping
/// `WINDOW` jobs outstanding and checking each report, and returns the
/// time of each `submit` call in µs.
fn journal_all(
    dir: &Path,
    specs: &[CampaignSpec],
    refs: &[CampaignReport],
) -> Result<Vec<f64>, String> {
    let server = start_server(dir);
    for (tenant, weight) in TENANTS {
        server.register_tenant(tenant, weight).map_err(|e| e.to_string())?;
    }
    let check = |(i, job): (usize, u64)| match server.wait(job) {
        Ok(report) if report == refs[i] => Ok(()),
        Ok(_) => Err(format!("journaled report of spec {i} differs from the direct run")),
        Err(e) => Err(format!("journaling spec {i}: {e}")),
    };
    let mut submit_us = Vec::with_capacity(specs.len());
    let mut pending = VecDeque::new();
    let result = specs.iter().enumerate().try_for_each(|(i, spec)| {
        if pending.len() >= WINDOW {
            check(pending.pop_front().expect("window is full"))?;
        }
        let t = Instant::now();
        let job = server.submit(tenant(i).0, spec).map_err(|e| e.to_string())?;
        submit_us.push(ms_since(t) * 1e3);
        pending.push_back((i, job));
        Ok(())
    });
    let result = result.and_then(|()| pending.drain(..).try_for_each(check));
    server.shutdown();
    result.map(|()| submit_us)
}

pub fn run(mode: Mode, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tag = if mode == Mode::Fresh { "serve" } else { "serve-resume" };
    let specs: Vec<CampaignSpec> = (0..SPECS).map(|i| spec(seed, i)).collect();
    let mut fingerprints: Vec<String> = specs.iter().map(CampaignSpec::fingerprint).collect();
    fingerprints.sort_unstable();
    fingerprints.dedup();
    out.check(fingerprints.len() == SPECS, || "two specs share a fingerprint".into());

    // Set-up: references, plus the pre-journaled directory for the read
    // path; each repetition builds everything from scratch.
    let prebuilt = Scratch::new(&format!("{tag}-prebuilt"))?;
    let (setup_s, built) = median_secs(SETUP_REPEATS, || -> Result<_, String> {
        let refs = references(&specs)?;
        if mode == Mode::Resume {
            std::fs::remove_dir_all(&prebuilt.0).ok();
            journal_all(&prebuilt.0, &specs, &refs)?;
        }
        release_free_memory();
        Ok(refs)
    });
    let refs = built?;
    let prebuilt_listing = dir_listing(&prebuilt.0);
    if mode == Mode::Resume {
        out.check(prebuilt_listing.0 == SPECS, || {
            format!("pre-journaled directory holds {} files, expected {SPECS}", prebuilt_listing.0)
        });
    }

    // Rounds: a fresh server incarnation each, over a fresh directory
    // (serve) or the pre-journaled one (serve-resume), until the run has
    // lasted `seconds` and answered `MIN_JOBS` jobs.
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut total = LoopResult::default();
    let mut loop_s = 0.0;
    let mut rejections = 0u64;
    let mut last_round = None;
    let events = trace.then(EventLog::default);
    for round in 0.. {
        let jobs = total.latencies_ms.len();
        if Instant::now() >= deadline && jobs >= MIN_JOBS {
            break;
        }
        if started.elapsed().as_secs_f64() > 2.0 * seconds + 60.0 {
            return Err(format!("only {jobs} jobs answered"));
        }
        let dir = match mode {
            Mode::Fresh => Some(Scratch::new(&format!("{tag}-round{round}"))?),
            Mode::Resume => None,
        };
        let service = Service::start(dir.as_ref().map_or(&prebuilt.0, |d| &d.0))?;
        if let Some(events) = &events {
            events.follow(&service.server);
        }
        let until = deadline.max(Instant::now() + Duration::from_secs(1));
        let t = Instant::now();
        let r = closed_loop(service.addr, &specs, trace, until);
        loop_s += t.elapsed().as_secs_f64();
        rejections += service.server.rejections();
        service.stop();
        check_answers(&mut out, &r, &refs);
        total.latencies_ms.extend(r.latencies_ms);
        total.status_rtt_us.extend(r.status_rtt_us);
        total.results_bytes.extend(r.results_bytes);
        total.failed += r.failed;
        out.attempted += (r.answers.len() as u64) + r.failed;
        last_round = dir;
    }
    if mode == Mode::Resume {
        let after = dir_listing(&prebuilt.0);
        out.check(after == prebuilt_listing, || {
            format!(
                "resubmissions changed the journal directory: {prebuilt_listing:?} -> {after:?}"
            )
        });
    }
    out.failed = total.failed + rejections;
    let jobs = total.latencies_ms.len();

    if !trace {
        out.push("ops_per_s", jobs as f64 / loop_s, "1/s");
        out.push("request_p50_ms", median(&total.latencies_ms), "ms");
        out.push("setup_s", setup_s, "s");
        return Ok(out);
    }

    // Traced run: the round above carried the event log and the status
    // probes; now replay the layers underneath on the same specs.
    let events = events.expect("traced run has an event log");
    let (queue_wait, run_ms) = events.phases();
    let untraced = untraced_rate(mode, &specs, &prebuilt.0, seconds / 4.0)?;
    out.layer("trace.overhead_frac", untraced / (jobs as f64 / loop_s) - 1.0);
    out.layer("server.rejections", rejections as f64);
    if total.status_rtt_us.is_empty() {
        return Err("no status request was answered".into());
    }
    out.layer("wire.status_rtt_us", median(&total.status_rtt_us));
    out.layer(
        "wire.results_bytes_per_job",
        total.results_bytes.iter().sum::<f64>() / jobs.max(1) as f64,
    );
    let p95 = tail_percentile(&total.latencies_ms, 0.95);
    out.check(p95.is_some(), || format!("{jobs} jobs leave fewer than ten beyond p95"));
    out.layer("wire.job_p95_ms", p95.unwrap_or(0.0));
    let dir = last_round.as_ref().map_or(&prebuilt.0, |d| &d.0).clone();
    out.layer("store.shard_files", dir_listing(&dir).0 as f64);
    let merge_ms = per_call_ns(1, 0.25, || {
        for s in &specs {
            std::hint::black_box(merge_shard_rows(&dir, &s.fingerprint()).ok());
        }
    }) / 1e6
        / SPECS as f64;
    out.layer("store.merge_ms", merge_ms);

    match mode {
        Mode::Fresh => {
            out.layer("server.queue_wait_ms", queue_wait);
            out.layer("server.run_ms", run_ms);
            replay_write_path(&mut out, &specs, &refs, loop_s / jobs as f64 * SPECS as f64)?;
        }
        Mode::Resume => {
            // Every spec is already journaled, so these submits only read.
            let submit_us = journal_all(&prebuilt.0, &specs, &refs)?;
            out.layer("server.submit_us", median(&submit_us));
            let lines: Vec<String> = refs
                .iter()
                .flat_map(|r| r.missions.iter().enumerate())
                .map(|(index, m)| encode_row(&JournalRow::Done { index, result: m.clone() }))
                .collect();
            let decode_ns = per_call_ns(1, 0.25, || {
                for line in &lines {
                    std::hint::black_box(decode_row(line.trim_end()).ok());
                }
            }) / lines.len().max(1) as f64;
            out.layer("store.decode_row_us", decode_ns / 1e3);
        }
    }
    Ok(out)
}

/// Jobs per second of an untraced round lasting `seconds`, for the
/// tracing overhead.
fn untraced_rate(
    mode: Mode,
    specs: &[CampaignSpec],
    prebuilt: &Path,
    seconds: f64,
) -> Result<f64, String> {
    let fresh = match mode {
        Mode::Fresh => Some(Scratch::new("untraced")?),
        Mode::Resume => None,
    };
    let service = Service::start(fresh.as_ref().map_or(prebuilt, |d| &d.0))?;
    let t = Instant::now();
    let r = closed_loop(service.addr, specs, false, t + Duration::from_secs_f64(seconds));
    let rate = r.latencies_ms.len() as f64 / t.elapsed().as_secs_f64();
    service.stop();
    Ok(rate)
}

/// Replays the write path's layers outside the server on the same specs:
/// mission execution, shard creation, row appends, and in-process submits
/// against a growing directory.
fn replay_write_path(
    out: &mut Outcome,
    specs: &[CampaignSpec],
    refs: &[CampaignReport],
    round_s: f64,
) -> Result<(), String> {
    let factory = in_process_factory(controller(), ExecutorOptions::default(), Telemetry::off());
    let mut rows = Vec::new();
    let mut execute_ms = Vec::new();
    for s in specs {
        let executor = factory(s);
        for job in s.jobs() {
            let t = Instant::now();
            rows.push(executor.execute(&job));
            execute_ms.push(ms_since(t));
        }
    }
    let busy_s: f64 = execute_ms.iter().sum::<f64>() / 1e3;
    out.layer("executor.execute_ms", median(&execute_ms));
    out.layer("server.worker_busy_frac", busy_s / (WORKERS as f64 * round_s));

    let scratch = Scratch::new("serve-store")?;
    let mut create_ms = Vec::new();
    let mut append_us = Vec::new();
    for (i, s) in specs.iter().enumerate() {
        let path = scratch.0.join(format!("shard-{i}.jsonl"));
        let t = Instant::now();
        let mut journal = CampaignJournal::create(&path, &s.fingerprint(), s.variant.name())
            .map_err(|e| e.to_string())?;
        create_ms.push(ms_since(t));
        let t = Instant::now();
        for row in refs[i]
            .missions
            .iter()
            .enumerate()
            .map(|(index, m)| JournalRow::Done { index, result: m.clone() })
        {
            journal.append(&row).map_err(|e| e.to_string())?;
        }
        append_us.push(ms_since(t) * 1e3 / refs[i].missions.len().max(1) as f64);
    }
    out.layer("store.create_shard_ms", median(&create_ms));
    out.layer("store.append_us", median(&append_us));
    let bytes: usize = rows.iter().map(|r| encode_row(r).len()).sum();
    out.layer("store.bytes_per_row", bytes as f64 / rows.len().max(1) as f64);

    let submits = Scratch::new("serve-submit")?;
    let submit_us = journal_all(&submits.0, specs, refs)?;
    out.layer("server.submit_us", median(&submit_us));
    Ok(())
}

/// Server progress events, timestamped on receipt by collector threads.
#[derive(Default)]
struct EventLog {
    seen: Arc<Mutex<Vec<Event>>>,
    collectors: Mutex<Vec<JoinHandle<()>>>,
}

/// `(server ordinal, msg, job, receipt time)`: job ids restart with every
/// server incarnation.
type Event = (usize, String, u64, Instant);

/// When one job's events arrived.
#[derive(Default)]
struct JobEvents {
    accepted: Option<Instant>,
    first_row: Option<Instant>,
    done: Option<Instant>,
}

impl EventLog {
    /// Subscribes to `server`; the collector ends when the server shuts
    /// down and drops its subscribers.
    fn follow(&self, server: &CampaignServer) {
        let rx = server.subscribe();
        let seen = Arc::clone(&self.seen);
        let mut collectors = self.collectors.lock().expect("collector lock");
        let ordinal = collectors.len();
        collectors.push(std::thread::spawn(move || {
            for line in rx.iter() {
                let at = Instant::now();
                let (Some(msg), Some(job)) = (field(&line, "msg"), field(&line, "job")) else {
                    continue;
                };
                if let Ok(job) = job.parse() {
                    let event = (ordinal, msg.to_string(), job, at);
                    seen.lock().expect("event log lock").push(event);
                }
            }
        }));
    }

    /// Median queue wait (accepted → first mission row) and median run
    /// time (first row → job-done, two-mission jobs only), in ms.
    fn phases(&self) -> (f64, f64) {
        for h in self.collectors.lock().expect("collector lock").drain(..) {
            h.join().ok();
        }
        let mut jobs: HashMap<(usize, u64), JobEvents> = HashMap::new();
        for (server, msg, job, at) in self.seen.lock().expect("event log lock").iter() {
            let e = jobs.entry((*server, *job)).or_default();
            match msg.as_str() {
                "accepted" => e.accepted = Some(*at),
                "progress" => e.first_row = e.first_row.or(Some(*at)),
                "job-done" => e.done = Some(*at),
                _ => {}
            }
        }
        let ms = |from: Instant, to: Instant| to.duration_since(from).as_secs_f64() * 1e3;
        let mut wait = Vec::new();
        let mut run = Vec::new();
        for e in jobs.values() {
            if let (Some(a), Some(first)) = (e.accepted, e.first_row.or(e.done)) {
                wait.push(ms(a, first));
            }
            if let (Some(first), Some(done)) = (e.first_row, e.done) {
                run.push(ms(first, done));
            }
        }
        let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        (med(&wait), med(&run))
    }
}

/// The raw value of `"key":` in a flat JSON event line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &line[start..];
    let rest = rest.strip_prefix('"').unwrap_or(rest);
    let end = rest.find(['"', ',', '}'])?;
    Some(&rest[..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn different_seeds_generate_different_specs() {
        let a: Vec<String> = (0..SPECS).map(|i| spec(1, i).encode()).collect();
        let b: Vec<String> = (0..SPECS).map(|i| spec(2, i).encode()).collect();
        assert_ne!(a, b);
        assert_eq!(a, (0..SPECS).map(|i| spec(1, i).encode()).collect::<Vec<_>>());
    }

    #[test]
    fn event_fields_parse() {
        let line = "{\"msg\":\"job-done\",\"job\":17,\"tenant\":\"acme\",\"done\":2,\"total\":2}";
        assert_eq!(field(line, "msg"), Some("job-done"));
        assert_eq!(field(line, "job"), Some("17"));
        assert_eq!(field(line, "nope"), None);
    }
}
