//! Differential proof that the scheduler/executor split is invisible.
//!
//! `run_campaign_with_options` is now a thin client of the same
//! `run_scheduled` + `InProcessExecutor` path the multi-tenant
//! [`CampaignServer`] drives. That refactor is only admissible because it is
//! *bit-identical*: this suite pins served reports against direct runs
//! across the worker × snapshot matrix, through shard-journal resume
//! (instant, partial, and mid-shutdown), through panic quarantine on both
//! paths, and end-to-end over the TCP wire protocol.

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};

use swarm_control::{VasarhelyiController, VasarhelyiParams};
use swarm_testkit::gens::{u64_in, usize_in, zip4};
use swarm_testkit::{cases, check_budgeted, tk_ensure};
use swarmfuzz::campaign::{
    run_campaign_with_options, CampaignConfig, CampaignReport, CampaignRunOptions, JournalSpec,
    SwarmConfig,
};
use swarmfuzz::server::{
    in_process_factory, merge_shard_rows, shard_path, ExecutorFactory, ExecutorOptions,
};
use swarmfuzz::wire::{serve, serve_connection, Client, ClientMsg, WireError};
use swarmfuzz::{
    CampaignServer, CampaignSpec, ExecutionProfile, Fuzzer, FuzzerConfig, InProcessExecutor,
    JobPhase, ServerConfig, Telemetry, Trace,
};

fn controller() -> VasarhelyiController {
    VasarhelyiController::new(VasarhelyiParams::default())
}

/// A fresh scratch directory under the system temp dir.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swarmfuzz-exec-eq-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A 2-config × 2-mission grid with a tiny eval budget: large enough to
/// exercise multi-config scheduling, small enough to run the whole matrix.
fn tiny_spec(base_seed: u64) -> CampaignSpec {
    let campaign = CampaignConfig {
        configs: vec![
            SwarmConfig { swarm_size: 3, deviation: 5.0 },
            SwarmConfig { swarm_size: 5, deviation: 10.0 },
        ],
        missions_per_config: 2,
        base_seed,
        workers: 1,
    };
    let mut spec = CampaignSpec::new(campaign);
    spec.eval_budget = Some(2);
    spec
}

/// Runs `spec` directly through the legacy entry point, building fuzzers
/// from the spec itself so the fingerprint (and every seed stream) is
/// guaranteed identical to the served run.
fn direct_report(spec: &CampaignSpec, options: &CampaignRunOptions) -> CampaignReport {
    run_campaign_with_options(
        &spec.campaign,
        |deviation| Fuzzer::new(controller(), spec.fuzzer_config(deviation)),
        &Telemetry::off(),
        options,
    )
    .expect("direct campaign must run")
}

fn start_server(
    workers: usize,
    options: ExecutorOptions,
    journal_dir: Option<PathBuf>,
) -> CampaignServer {
    CampaignServer::start(
        ServerConfig { workers, queue_depth: 8, journal_dir },
        in_process_factory(controller(), options, Telemetry::off()),
        Telemetry::off(),
    )
}

/// Submits `spec` to a fresh server, waits for the report, shuts down.
fn serve_report(
    spec: &CampaignSpec,
    workers: usize,
    options: ExecutorOptions,
    journal_dir: Option<PathBuf>,
) -> CampaignReport {
    let server = start_server(workers, options, journal_dir);
    server.register_tenant("tenant", 1).expect("register tenant");
    let job = server.submit("tenant", spec).expect("submit");
    let report = server.wait(job).expect("job completes");
    server.shutdown();
    report
}

#[test]
fn served_reports_match_direct_runs_across_workers_and_toggles() {
    let spec = tiny_spec(21);
    for snapshot in [true, false] {
        let direct = direct_report(&spec, &CampaignRunOptions { snapshot, ..Default::default() });
        assert_eq!(direct.missions.len() + direct.failures.len(), 4);
        for workers in [1usize, 4] {
            let options = ExecutorOptions { snapshot, ..Default::default() };
            let served = serve_report(&spec, workers, options, None);
            assert_eq!(
                served, direct,
                "served report diverged (workers={workers}, snapshot={snapshot})"
            );
        }
    }
}

#[test]
fn served_reports_match_direct_runs_over_random_specs() {
    // Randomized differential (nightly runs this at 2048 cases): seed, grid
    // size, mission count and eval budget all vary; the served report must
    // stay bit-identical to the direct run of the same spec.
    let gen = zip4(&u64_in(0..=1_000_000), &usize_in(2..=4), &usize_in(1..=2), &usize_in(0..=2));
    check_budgeted(
        "server_direct_equivalence",
        (cases() / 16).max(4),
        &gen,
        |&(seed, swarm_size, missions, budget)| {
            let campaign = CampaignConfig {
                configs: vec![SwarmConfig { swarm_size, deviation: 10.0 }],
                missions_per_config: missions,
                base_seed: seed,
                workers: 1,
            };
            let mut spec = CampaignSpec::new(campaign);
            spec.eval_budget = Some(budget);
            let direct = direct_report(&spec, &CampaignRunOptions::default());
            let served = serve_report(&spec, 2, ExecutorOptions::default(), None);
            tk_ensure!(
                served == direct,
                "served report diverged (seed {seed}, size {swarm_size}, budget {budget})"
            );
            Ok(())
        },
    );
}

#[test]
fn resubmitting_a_completed_campaign_resumes_instantly() {
    let dir = temp_dir("instant-resume");
    let spec = tiny_spec(33);
    let fingerprint = spec.fingerprint();
    let first = serve_report(&spec, 2, ExecutorOptions::default(), Some(dir.clone()));
    assert!(shard_path(&dir, &fingerprint, 0).exists(), "first incarnation writes shard 0");

    // A brand-new server over the same journal directory: every row resumes
    // from shard 0, nothing executes, no new shard is opened.
    let server = start_server(2, ExecutorOptions::default(), Some(dir.clone()));
    server.register_tenant("tenant", 1).expect("register tenant");
    let job = server.submit("tenant", &spec).expect("resubmit");
    let status = server.status(job).expect("status");
    assert_eq!(status.phase, JobPhase::Done, "fully journaled campaigns finish at submission");
    assert_eq!(status.done, 4);
    let resumed = server.wait(job).expect("report");
    server.shutdown();
    assert_eq!(resumed, first, "resumed report must be bit-identical");
    assert!(
        !shard_path(&dir, &fingerprint, 1).exists(),
        "an instant resume must not open a fresh shard"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn partial_shard_resume_is_bit_identical_to_uninterrupted() {
    let dir = temp_dir("partial-resume");
    let spec = tiny_spec(55);
    let fingerprint = spec.fingerprint();
    let uninterrupted = direct_report(&spec, &CampaignRunOptions::default());

    // A direct single-worker run journaled straight into shard 0: the legacy
    // journal and a server shard share one codec and one fingerprint.
    let shard0 = shard_path(&dir, &fingerprint, 0);
    let journaled = direct_report(
        &spec,
        &CampaignRunOptions {
            journal: Some(JournalSpec { path: shard0.clone(), resume: false }),
            ..Default::default()
        },
    );
    assert_eq!(journaled, uninterrupted);

    // Simulate a crash after two missions: truncate shard 0 to header + 2
    // rows, plus a torn tail from a kill mid-append.
    let text = std::fs::read_to_string(&shard0).expect("read shard");
    let kept: Vec<&str> = text.lines().take(3).collect();
    std::fs::write(&shard0, format!("{}\n{{\"torn", kept.join("\n"))).expect("truncate shard");

    let server = start_server(2, ExecutorOptions::default(), Some(dir.clone()));
    server.register_tenant("tenant", 1).expect("register tenant");
    let job = server.submit("tenant", &spec).expect("resubmit");
    let resumed = server.wait(job).expect("report");
    let rows = server.rows(job).expect("rows of a finished job");
    server.shutdown();

    assert_eq!(resumed, uninterrupted, "partial resume must reproduce the uninterrupted report");
    assert_eq!(rows.len(), 4);
    let mut keys: Vec<_> = rows.iter().map(|r| r.job_key()).collect();
    let sorted = keys.clone();
    keys.sort_unstable();
    assert_eq!(keys, sorted, "rows of a finished job stream in job-key order");
    assert!(shard_path(&dir, &fingerprint, 1).exists(), "the resumed missions open shard 1");
    let merged = merge_shard_rows(&dir, &fingerprint).expect("merge shards");
    let distinct: std::collections::HashSet<_> = merged.iter().map(|r| r.job_key()).collect();
    assert_eq!(distinct.len(), 4, "shards cover the whole grid exactly once");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_mid_campaign_resumes_in_the_next_incarnation() {
    let dir = temp_dir("mid-shutdown");
    let mut spec = tiny_spec(77);
    spec.campaign.missions_per_config = 3; // 6 missions: shutdown lands mid-run
    let uninterrupted = direct_report(&spec, &CampaignRunOptions::default());

    // Incarnation A: submit and shut down immediately — whatever the single
    // worker finished is in shard journals, the rest was never dispatched.
    let server = start_server(1, ExecutorOptions::default(), Some(dir.clone()));
    server.register_tenant("tenant", 1).expect("register tenant");
    let _job = server.submit("tenant", &spec).expect("submit");
    server.shutdown();

    // Incarnation B resumes exactly where A stopped, at any kill point.
    let resumed = serve_report(&spec, 2, ExecutorOptions::default(), Some(dir.clone()));
    assert_eq!(resumed, uninterrupted, "resume across incarnations must be bit-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panicking_missions_are_quarantined_on_the_direct_path() {
    // A make_fuzzer that panics for one configuration: the campaign must
    // quarantine that mission as a failed row (after its retry budget) and
    // finish the other configuration untouched.
    let campaign = CampaignConfig {
        configs: vec![
            SwarmConfig { swarm_size: 3, deviation: 5.0 },
            SwarmConfig { swarm_size: 5, deviation: 10.0 },
        ],
        missions_per_config: 1,
        base_seed: 9,
        workers: 2,
    };
    let make = |deviation: f64| {
        assert!(deviation != 5.0, "injected executor panic");
        Fuzzer::new(
            controller(),
            FuzzerConfig { eval_budget: 0, ..FuzzerConfig::swarmfuzz(deviation) },
        )
    };
    let report = run_campaign_with_options(&campaign, make, &Telemetry::off(), &Default::default())
        .expect("a panicking mission must not abort the campaign");
    assert_eq!(report.missions.len(), 1, "the healthy configuration still completes");
    assert_eq!(report.failures.len(), 1);
    let failure = &report.failures[0];
    assert_eq!(failure.config.deviation, 5.0);
    assert_eq!(failure.retries, 1, "the default retry budget is spent before quarantine");
    assert!(failure.error.contains("panicked"), "row must name the panic: {}", failure.error);
    assert!(failure.error.contains("injected"), "row must carry the payload: {}", failure.error);
}

#[test]
fn panicking_missions_are_quarantined_on_the_server_path() {
    // Same injection through a hand-rolled executor factory: a poisoned
    // mission must not take down the server — its job fails into a report
    // row and the *next* job on the same server completes cleanly.
    let factory: ExecutorFactory = Box::new(|spec: &CampaignSpec| {
        let spec = spec.clone();
        Arc::new(InProcessExecutor::new(
            spec.campaign.base_seed,
            move |deviation: f64| {
                assert!(deviation != 5.0, "server-side injected panic");
                Fuzzer::new(controller(), spec.fuzzer_config(deviation))
            },
            Telemetry::off(),
            Trace::off(),
            ExecutionProfile::default(),
            None,
        ))
    });
    let server = CampaignServer::start(
        ServerConfig { workers: 2, queue_depth: 8, journal_dir: None },
        factory,
        Telemetry::off(),
    );
    server.register_tenant("tenant", 1).expect("register tenant");

    let mut poisoned = tiny_spec(13);
    poisoned.eval_budget = Some(0);
    let job = server.submit("tenant", &poisoned).expect("submit");
    let report = server.wait(job).expect("the job completes despite the panics");
    assert_eq!(report.failures.len(), 2, "both deviation-5 missions quarantine");
    assert_eq!(report.missions.len(), 2, "the healthy configuration completes");
    assert!(report.failures.iter().all(|f| f.error.contains("panicked")));

    let mut clean = poisoned.clone();
    clean.campaign.configs = vec![SwarmConfig { swarm_size: 3, deviation: 10.0 }];
    let job = server.submit("tenant", &clean).expect("the server survives");
    let report = server.wait(job).expect("clean job completes");
    assert_eq!(report.failures.len(), 0);
    assert_eq!(report.missions.len(), 2);
    server.shutdown();
}

#[test]
fn wire_round_trip_over_tcp_matches_direct_run() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let server = start_server(2, ExecutorOptions::default(), None);
    let _acceptor = serve(server.clone(), listener);

    let spec = tiny_spec(42);
    let mut client = Client::over_tcp(TcpStream::connect(addr).expect("connect")).expect("client");

    // Unknown tenants are registered on first contact.
    let accepted = client.submit("wire-tenant", 2, &spec).expect("submit over tcp");
    assert_eq!(accepted.total, 4);
    assert_eq!(accepted.fingerprint, spec.fingerprint());

    let report = client.results(accepted.job, true).expect("stream results");
    assert_eq!(
        report,
        direct_report(&spec, &CampaignRunOptions::default()),
        "the wire-reassembled report must be bit-identical to a direct run"
    );
    let status = client.status(accepted.job).expect("status over tcp");
    assert_eq!(status.phase, JobPhase::Done);
    assert_eq!((status.done, status.total), (4, 4));
    assert!(status.completed_ordinal.is_some());

    // Typed errors survive the wire with their codes.
    match client.status(9_999).expect_err("unknown job") {
        WireError::Server { code, message } => {
            assert_eq!(code, "unknown-job");
            assert!(message.contains("9999"), "message names the job: {message}");
        }
        other => panic!("expected a typed server error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn malformed_wire_lines_keep_the_connection_alive() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let server = start_server(1, ExecutorOptions::default(), None);
    let _acceptor = serve(server.clone(), listener);

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"this is not json\n").expect("write garbage");
    let mut client = Client::over_tcp(stream).expect("client");
    // The garbage line answered with a typed `wire` error, read as the reply
    // to the *next* request — then the connection keeps serving normally.
    match client.status(0).expect_err("garbage reply first") {
        WireError::Server { code, .. } => assert_eq!(code, "wire"),
        other => panic!("expected a wire error, got {other:?}"),
    }
    match client.status(0).expect_err("job 0 does not exist") {
        WireError::Server { code, .. } => assert_eq!(code, "unknown-job"),
        other => panic!("expected unknown-job after recovery, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn concurrent_first_contact_accepts_every_connection() {
    // Many connections submitting for the same unregistered tenant at once:
    // each must be accepted, none refused because another connection
    // registered the tenant first.
    const CONNECTIONS: usize = 8;
    let mut spec = tiny_spec(5);
    spec.campaign.configs.truncate(1);
    spec.campaign.missions_per_config = 1;
    spec.eval_budget = Some(0);
    let line =
        format!("{}\n", ClientMsg::Submit { tenant: "newcomer".into(), weight: 3, spec }.encode());
    for round in 0..12 {
        let server = CampaignServer::start(
            ServerConfig { workers: 1, queue_depth: 2 * CONNECTIONS, journal_dir: None },
            in_process_factory(controller(), ExecutorOptions::default(), Telemetry::off()),
            Telemetry::off(),
        );
        let barrier = Barrier::new(CONNECTIONS);
        let replies: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CONNECTIONS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Vec::new();
                        barrier.wait();
                        serve_connection(&server, line.as_bytes(), &mut out)
                            .expect("in-memory transport cannot fail");
                        String::from_utf8(out).expect("replies are utf-8")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("connection thread")).collect()
        });
        server.shutdown();
        for reply in &replies {
            assert!(
                reply.starts_with("{\"msg\":\"accepted\""),
                "round {round}: first contact refused: {reply}"
            );
        }
    }
}
