//! `swarmfuzz` — command-line interface to the SwarmFuzz reproduction.
//!
//! ```text
//! swarmfuzz audit    --drones 10 --deviation 10 --missions 10
//! swarmfuzz campaign --missions 20 [--workers 4]
//! swarmfuzz baseline --drones 10 --seed 7
//! swarmfuzz replay   --drones 10 --seed 7 --target 3 --direction right \
//!                    --start 12.5 --duration 10 --deviation 10
//! ```
//!
//! Parsing lives in [`parse`] and is pure; this module owns I/O and
//! execution.

mod args;
mod parse;

use std::process::ExitCode;

use std::sync::Arc;

use parse::{
    AuditOpts, BaselineOpts, CampaignOpts, Command, DashboardOpts, ParseError, ReplayOpts,
    ResultsOpts, ServeOpts, StatusOpts, StressOpts, SubmitOpts, TelemetryMode,
};
use swarm_control::{VasarhelyiController, VasarhelyiParams};
use swarm_sim::mission::MissionSpec;
use swarm_sim::spoof::SpoofingAttack;
use swarm_sim::{DroneId, Simulation};
use swarmfuzz::campaign::{
    report_from_rows, run_campaign_with_options, CampaignConfig, CampaignRunOptions,
};
use swarmfuzz::dashboard::render_dashboard;
use swarmfuzz::trace::{chrome_trace, parse_ndjson, FileSink, ProgressSink, TeeSink};
use swarmfuzz::{CampaignJournal, FuzzError, Fuzzer, FuzzerConfig, Telemetry, Trace, TraceSink};

const USAGE: &str = "\
swarmfuzz — discover GPS-spoofing attacks in drone swarms (DSN'23 reproduction)

USAGE:
    swarmfuzz <command> [--flag value]...

COMMANDS:
    audit     fuzz a batch of missions and report vulnerable ones
                --drones N (10)  --deviation M (10)  --missions K (10)  --seed S (0)
                --telemetry off|summary|json (off)
    campaign  run the paper's 6-configuration evaluation grid
                --missions K (20)  --workers W (cores)
                --journal PATH (off)  --resume yes|no (no)  --retries N (1)
                --snapshot on|off (on)
                --telemetry off|summary|json (off)
                --attacks constant,drift,circular,jump (constant)
                --trace off|FILE (off)  --progress off|every-N (off)
    dashboard render a campaign journal (+ optional trace) as one
              self-contained HTML file, no external assets
                --journal PATH  --trace PATH (off)  --out PATH (dashboard.html)
                --chrome PATH (off, Chrome trace-event JSON, needs --trace)
    baseline  fly one mission without any attack and print statistics
                --drones N (10)  --seed S (0)
    replay    replay a specific spoofing attack and report the outcome
                --drones N (10)  --seed S (0)  --target T  --direction left|right
                --start TS  --duration DT  --deviation M (10)  --minimize yes|no (no)
    stress    fly the large-swarm stress scenario (30 m radio range) and report
              throughput; comms use the spatial grid from 32 drones up
                --drones N (100)  --seed S (0)  --duration T (20)
                --telemetry off|summary|json (off)
    serve     run the multi-tenant campaign server over TCP
                --bind ADDR (127.0.0.1:7700)  --workers W (cores)
                --queue-depth D (64)  --journal-dir DIR (off)
    submit    submit a campaign to a running server and print its job id
                --server ADDR (127.0.0.1:7700)  --tenant NAME (default)
                --weight W (1)  --wait yes|no (no)
                --spec PATH (off) | --missions K (20)  --seed S (12648430)
                --attacks constant,drift,circular,jump (constant)  --budget N (off)
    status    poll a submitted job's phase and progress
                --server ADDR (127.0.0.1:7700)  --job ID
    results   fetch a finished job's report (bit-identical to a direct run)
                --server ADDR (127.0.0.1:7700)  --job ID  --wait yes|no (no)
    help      print this message
";

fn controller() -> VasarhelyiController {
    VasarhelyiController::new(VasarhelyiParams::default())
}

/// Prints the snapshot in the requested format (summary to stderr, JSON to
/// stdout so it can be piped).
fn emit_telemetry(mode: TelemetryMode, telemetry: &Telemetry) {
    let Some(report) = telemetry.snapshot() else { return };
    match mode {
        TelemetryMode::Off => {}
        TelemetryMode::Summary => eprint!("{}", report.summary()),
        TelemetryMode::Json => print!("{}", report.to_json()),
    }
}

/// Prints a human-readable result line. With `--telemetry json` the JSON
/// report owns stdout, so everything else moves to stderr.
fn human_line(mode: TelemetryMode, line: std::fmt::Arguments<'_>) {
    if mode == TelemetryMode::Json {
        eprintln!("{line}");
    } else {
        println!("{line}");
    }
}

fn main() -> ExitCode {
    let command = match parse::parse_args(std::env::args().skip(1)) {
        Ok(cmd) => cmd,
        Err(ParseError::NoCommand) => {
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
        Err(e @ (ParseError::UnknownCommand(_) | ParseError::Arg(_))) => {
            eprintln!("error: {e}\n");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
        Err(e @ ParseError::Invalid(_)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command {
        Command::Audit(opts) => cmd_audit(&opts),
        Command::Campaign(opts) => cmd_campaign(&opts),
        Command::Dashboard(opts) => cmd_dashboard(&opts),
        Command::Baseline(opts) => cmd_baseline(&opts),
        Command::Replay(opts) => cmd_replay(&opts),
        Command::Stress(opts) => cmd_stress(&opts),
        Command::Serve(opts) => cmd_serve(&opts),
        Command::Submit(opts) => cmd_submit(&opts),
        Command::Status(opts) => cmd_status(&opts),
        Command::Results(opts) => cmd_results(&opts),
        Command::Help => {
            print!("{USAGE}");
            Ok(())
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[derive(Debug)]
enum CliError {
    Fuzz(FuzzError),
    Sim(swarm_sim::SimError),
    Other(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Fuzz(e) => write!(f, "{e}"),
            CliError::Sim(e) => write!(f, "{e}"),
            CliError::Other(msg) => write!(f, "{msg}"),
        }
    }
}

impl From<FuzzError> for CliError {
    fn from(e: FuzzError) -> Self {
        CliError::Fuzz(e)
    }
}
impl From<swarm_sim::SimError> for CliError {
    fn from(e: swarm_sim::SimError) -> Self {
        CliError::Sim(e)
    }
}
impl From<swarmfuzz::wire::WireError> for CliError {
    fn from(e: swarmfuzz::wire::WireError) -> Self {
        CliError::Other(e.to_string())
    }
}

fn cmd_audit(opts: &AuditOpts) -> Result<(), CliError> {
    let mode = opts.telemetry;
    let telemetry =
        if mode == TelemetryMode::Off { Telemetry::off() } else { Telemetry::enabled(1) };

    let fuzzer = Fuzzer::new(controller(), FuzzerConfig::swarmfuzz(opts.deviation))
        .with_trace(telemetry.trace());
    let mut vulnerable = 0usize;
    let mut audited = 0usize;
    let mut seed = opts.seed;
    while audited < opts.missions {
        let spec = MissionSpec::paper_delivery(opts.drones, seed);
        seed += 1;
        match fuzzer.fuzz(&spec) {
            Err(FuzzError::BaselineCollision(_)) => continue,
            Err(e) => return Err(e.into()),
            Ok(report) => {
                audited += 1;
                match &report.finding {
                    Some(f) => {
                        vulnerable += 1;
                        human_line(
                            mode,
                            format_args!(
                                "mission seed {:>4}: VULNERABLE  vdo={:.2}m  spoof {} {} \
                                 [{:.1},{:.1})s -> {} crashes at {:.1}s",
                                seed - 1,
                                report.mission_vdo,
                                f.seed.target,
                                f.seed.direction,
                                f.start,
                                f.start + f.duration,
                                f.actual_victim,
                                f.collision_time
                            ),
                        );
                    }
                    None => human_line(
                        mode,
                        format_args!(
                            "mission seed {:>4}: resilient   vdo={:.2}m  ({} iterations)",
                            seed - 1,
                            report.mission_vdo,
                            report.evaluations
                        ),
                    ),
                }
            }
        }
    }
    human_line(
        mode,
        format_args!(
            "\n{vulnerable}/{audited} missions vulnerable at {:.0} m spoofing",
            opts.deviation
        ),
    );
    emit_telemetry(mode, &telemetry);
    Ok(())
}

fn cmd_campaign(opts: &CampaignOpts) -> Result<(), CliError> {
    let mode = opts.telemetry;
    let workers = opts.workers;
    let mut campaign = CampaignConfig::paper_grid(opts.missions, 0xC0FFEE);
    campaign.workers = workers;
    let ctrl = controller();
    let options =
        CampaignRunOptions { journal: opts.journal.clone(), max_retries: opts.max_retries };
    let attacks = opts.attacks;

    // Sinks are observational and live outside `CampaignRunOptions` (which
    // participates in journal fingerprints): file, progress and counting
    // all hang off one trace.
    let mut sinks: Vec<Arc<dyn TraceSink>> = Vec::new();
    let mut file_sink: Option<Arc<FileSink>> = None;
    if let Some(path) = &opts.trace {
        let sink = Arc::new(FileSink::create(path).map_err(|e| CliError::Other(e.to_string()))?);
        file_sink = Some(sink.clone());
        sinks.push(sink);
    }
    if opts.progress > 0 {
        sinks.push(Arc::new(ProgressSink::new(opts.progress)));
    }
    let telemetry =
        if mode == TelemetryMode::Off { Telemetry::off() } else { Telemetry::enabled(workers) };
    if telemetry.is_enabled() {
        sinks.push(Arc::new(telemetry.clone()));
    }
    let trace = match sinks.len() {
        0 => Trace::off(),
        1 => Trace::new(sinks.pop().expect("one sink")),
        _ => Trace::new(Arc::new(TeeSink::new(sinks))),
    };

    let report = run_campaign_with_options(
        &campaign,
        |d| {
            Fuzzer::new(ctrl, FuzzerConfig::swarmfuzz(d).with_waveforms(attacks))
                .with_snapshots(opts.snapshot)
        },
        &options,
        &trace,
    )
    .map_err(CliError::Fuzz)?;
    if let Some(sink) = file_sink {
        sink.finish().map_err(|e| CliError::Other(e.to_string()))?;
    }
    human_line(mode, format_args!("config\tsuccess\tavg_iterations\tmissions"));
    for &config in &campaign.configs {
        human_line(
            mode,
            format_args!(
                "{config}\t{:.0}%\t{:.2}\t{}",
                report.success_rate(config).unwrap_or(0.0) * 100.0,
                report.mean_iterations(config).unwrap_or(0.0),
                report.for_config(config).len()
            ),
        );
    }
    if attacks != swarm_sim::spoof::WaveformSet::CONSTANT_ONLY {
        human_line(mode, format_args!("\nattack class\tfindings"));
        for kind in attacks.iter() {
            let count = report
                .missions
                .iter()
                .filter_map(|m| m.finding.as_ref())
                .filter(|f| f.waveform.kind() == kind)
                .count();
            human_line(mode, format_args!("{kind}\t{count}"));
        }
    }
    if let Some(summary) = report.error_summary() {
        eprint!("{summary}");
    }
    emit_telemetry(mode, &telemetry);
    Ok(())
}

/// Renders a journal (and optional NDJSON trace) into one self-contained
/// HTML file; with `--chrome` also exports a Chrome trace-event JSON.
fn cmd_dashboard(opts: &DashboardOpts) -> Result<(), CliError> {
    let contents =
        CampaignJournal::read(&opts.journal).map_err(|e| CliError::Other(e.to_string()))?;
    let report = report_from_rows(contents.rows);

    // Table rows follow the distinct configurations present in the journal,
    // in the campaign's canonical order (the rows are already sorted).
    let mut configs = Vec::new();
    for m in &report.missions {
        if !configs.contains(&m.config) {
            configs.push(m.config);
        }
    }
    for f in &report.failures {
        if !configs.contains(&f.config) {
            configs.push(f.config);
        }
    }

    let mut records = Vec::new();
    if let Some(path) = &opts.trace {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Other(format!("{}: {e}", path.display())))?;
        records =
            parse_ndjson(&text).map_err(|e| CliError::Other(format!("{}: {e}", path.display())))?;
    }

    let title = format!("swarmfuzz campaign — {}", opts.journal.display());
    let html = render_dashboard(&report, &configs, &records, &title);
    swarmfuzz::store::atomic_write(&opts.out, &html)
        .map_err(|e| CliError::Other(format!("{}: {e}", opts.out.display())))?;
    println!(
        "dashboard: {} ({} missions, {} failures, {} trace events) -> {}",
        opts.journal.display(),
        report.missions.len(),
        report.failures.len(),
        records.len(),
        opts.out.display()
    );

    if let Some(chrome) = &opts.chrome {
        let json = chrome_trace(&records);
        swarmfuzz::store::atomic_write(chrome, &json)
            .map_err(|e| CliError::Other(format!("{}: {e}", chrome.display())))?;
        println!("chrome trace: {} ({} events)", chrome.display(), records.len());
    }
    Ok(())
}

fn cmd_baseline(opts: &BaselineOpts) -> Result<(), CliError> {
    let BaselineOpts { drones, seed } = *opts;
    let spec = MissionSpec::paper_delivery(drones, seed);
    let sim = Simulation::new(spec, controller())?;
    let out = sim.run(None)?;
    println!("mission seed {seed}, {drones} drones:");
    println!("  duration        : {:.1} s", out.record.duration());
    println!("  collisions      : {}", out.record.collisions().len());
    println!("  all arrived     : {}", out.record.all_arrived());
    if let Some((drone, vdo)) = out.record.mission_vdo() {
        println!("  VDO             : {vdo:.2} m ({drone})");
    }
    if let Some((_, t_clo)) = out.record.closest_approach() {
        println!("  closest approach: t = {t_clo:.1} s");
    }
    Ok(())
}

fn cmd_stress(opts: &StressOpts) -> Result<(), CliError> {
    use swarm_sim::{metrics, scenario};

    let StressOpts { drones, seed, duration, telemetry: mode } = *opts;
    let telemetry =
        if mode == TelemetryMode::Off { Telemetry::off() } else { Telemetry::enabled(1) };

    let mut spec = scenario::large_swarm(drones, seed);
    spec.duration = duration;
    let sim = Simulation::new(spec.clone(), controller())?;

    let started = std::time::Instant::now();
    let out = sim.run_observed(None, Some(&telemetry.trace()))?;
    let wall = started.elapsed();

    let simulated = out.record.duration();
    let physics_steps = (simulated / spec.physics_dt).round() as u64 + 1;
    let ticks_per_sec = physics_steps as f64 / wall.as_secs_f64().max(1e-9);
    human_line(mode, format_args!("large swarm stress: {drones} drones, seed {seed}"));
    human_line(
        mode,
        format_args!(
            "  simulated {simulated:.1} s in {:.0} ms  ({ticks_per_sec:.0} physics ticks/s)",
            wall.as_secs_f64() * 1e3,
        ),
    );
    human_line(mode, format_args!("  collisions      : {}", out.record.collisions().len()));
    human_line(mode, format_args!("  all arrived     : {}", out.record.all_arrived()));

    // Final-tick swarm geometry.
    let positions = out.record.positions_at(out.record.len() - 1);
    if let Some(min) = metrics::min_inter_distance(positions) {
        human_line(mode, format_args!("  min separation  : {min:.2} m"));
    }
    if let Some(extent) = metrics::swarm_extent(positions) {
        human_line(mode, format_args!("  swarm extent    : {extent:.2} m"));
    }
    emit_telemetry(mode, &telemetry);
    Ok(())
}

/// Runs the multi-tenant campaign server until the process is killed.
/// Workers execute missions in-process with the paper's controller; clients
/// talk the line-delimited wire protocol on `--bind`.
fn cmd_serve(opts: &ServeOpts) -> Result<(), CliError> {
    use swarmfuzz::server::{in_process_factory, ExecutorOptions};
    use swarmfuzz::{CampaignServer, ServerConfig};

    let listener = std::net::TcpListener::bind(&opts.bind)
        .map_err(|e| CliError::Other(format!("bind {}: {e}", opts.bind)))?;
    let addr = listener.local_addr().map_err(|e| CliError::Other(e.to_string()))?;
    let server = CampaignServer::start(
        ServerConfig {
            workers: opts.workers,
            queue_depth: opts.queue_depth,
            journal_dir: opts.journal_dir.clone(),
        },
        in_process_factory(controller(), ExecutorOptions::default(), Telemetry::off()),
        Telemetry::off(),
    );
    eprintln!(
        "swarmfuzzd: serving on {addr} ({} workers, queue depth {})",
        opts.workers, opts.queue_depth
    );
    if let Some(dir) = &opts.journal_dir {
        eprintln!("swarmfuzzd: shard journals in {}", dir.display());
    }
    swarmfuzz::wire::serve(server, listener)
        .join()
        .map_err(|_| CliError::Other("acceptor thread panicked".into()))
}

type TcpClient =
    swarmfuzz::wire::Client<std::io::BufReader<std::net::TcpStream>, std::net::TcpStream>;

fn connect(addr: &str) -> Result<TcpClient, CliError> {
    let stream = std::net::TcpStream::connect(addr)
        .map_err(|e| CliError::Other(format!("connect {addr}: {e}")))?;
    swarmfuzz::wire::Client::over_tcp(stream).map_err(|e| CliError::Other(e.to_string()))
}

/// The campaign to submit: a pre-encoded spec file verbatim, or the paper
/// grid built from the command-line flags (same default seed as the local
/// `campaign` command, so both produce the same fingerprint).
fn submit_spec(opts: &SubmitOpts) -> Result<swarmfuzz::CampaignSpec, CliError> {
    match &opts.spec {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::Other(format!("{}: {e}", path.display())))?;
            let line = text
                .lines()
                .find(|l| !l.trim().is_empty())
                .ok_or_else(|| CliError::Other(format!("{}: empty spec file", path.display())))?;
            swarmfuzz::CampaignSpec::decode(line.trim())
                .map_err(|e| CliError::Other(format!("{}: {e}", path.display())))
        }
        None => {
            let mut spec =
                swarmfuzz::CampaignSpec::new(CampaignConfig::paper_grid(opts.missions, opts.seed));
            spec.attacks = opts.attacks;
            spec.eval_budget = opts.budget;
            Ok(spec)
        }
    }
}

/// Prints the per-configuration success table for a served report; the
/// configurations are recovered from the rows themselves (already in the
/// campaign's canonical order).
fn print_report(report: &swarmfuzz::campaign::CampaignReport) {
    let mut configs = Vec::new();
    for m in &report.missions {
        if !configs.contains(&m.config) {
            configs.push(m.config);
        }
    }
    for f in &report.failures {
        if !configs.contains(&f.config) {
            configs.push(f.config);
        }
    }
    println!("config\tsuccess\tavg_iterations\tmissions");
    for &config in &configs {
        println!(
            "{config}\t{:.0}%\t{:.2}\t{}",
            report.success_rate(config).unwrap_or(0.0) * 100.0,
            report.mean_iterations(config).unwrap_or(0.0),
            report.for_config(config).len()
        );
    }
    if let Some(summary) = report.error_summary() {
        eprint!("{summary}");
    }
}

fn cmd_submit(opts: &SubmitOpts) -> Result<(), CliError> {
    let spec = submit_spec(opts)?;
    let mut client = connect(&opts.server)?;
    let accepted = client.submit(&opts.tenant, opts.weight, &spec)?;
    println!(
        "job {} accepted: fingerprint {}, {}/{} missions already journalled",
        accepted.job, accepted.fingerprint, accepted.done, accepted.total
    );
    if opts.wait {
        print_report(&client.results(accepted.job, true)?);
    } else {
        println!("poll:  swarmfuzz status  --server {} --job {}", opts.server, accepted.job);
        println!(
            "fetch: swarmfuzz results --server {} --job {} --wait yes",
            opts.server, accepted.job
        );
    }
    Ok(())
}

fn cmd_status(opts: &StatusOpts) -> Result<(), CliError> {
    let status = connect(&opts.server)?.status(opts.job)?;
    println!(
        "job {}: {}  tenant {}  {}/{} missions  fingerprint {}",
        status.job,
        status.phase.name(),
        status.tenant,
        status.done,
        status.total,
        status.fingerprint
    );
    if let Some(ordinal) = status.completed_ordinal {
        println!("  completed as job #{ordinal} on this server");
    }
    if let Some(error) = &status.error {
        println!("  error: {error}");
    }
    Ok(())
}

fn cmd_results(opts: &ResultsOpts) -> Result<(), CliError> {
    print_report(&connect(&opts.server)?.results(opts.job, opts.wait)?);
    Ok(())
}

fn cmd_replay(opts: &ReplayOpts) -> Result<(), CliError> {
    let spec = MissionSpec::paper_delivery(opts.drones, opts.seed);
    let sim = Simulation::new(spec, controller())?;
    let attack = SpoofingAttack::new(
        DroneId(opts.target),
        opts.direction,
        opts.start,
        opts.duration,
        opts.deviation,
    )?;
    // An operator's target must be in the swarm and the window must close
    // before the mission does.
    sim.spec().validate_attack(&attack)?;
    // An attack can only be said to cause a crash on a clean mission.
    if let Some(c) = sim.run(None)?.first_collision() {
        return Err(FuzzError::BaselineCollision(*c).into());
    }
    println!("replaying: {attack}");
    let out = sim.run(Some(&attack))?;
    match out.spv_collision(DroneId(opts.target)) {
        Some((victim, t)) => {
            println!("SPV confirmed: {victim} crashes into the obstacle at t = {t:.1} s");
            if opts.minimize {
                use swarmfuzz::minimize::{minimize_attack, MinimizeConfig};
                use swarmfuzz::seed::Seed;
                use swarmfuzz::SpvFinding;
                let finding = SpvFinding {
                    seed: Seed {
                        target: DroneId(opts.target),
                        victim,
                        direction: opts.direction,
                        influence: 0.0,
                        victim_vdo: 0.0,
                        waveform: swarm_sim::spoof::WaveformKind::Constant,
                    },
                    start: opts.start,
                    duration: opts.duration,
                    deviation: opts.deviation,
                    actual_victim: victim,
                    collision_time: t,
                    waveform: swarm_sim::spoof::Waveform::Constant,
                };
                let min = minimize_attack(&sim, &finding, &MinimizeConfig::default())
                    .map_err(CliError::Fuzz)?;
                println!(
                    "minimal attack: {} ({} probe missions; window shrunk to {:.0}% of original)",
                    min.attack,
                    min.evaluations,
                    min.duration_ratio() * 100.0
                );
            }
        }
        None => match out.first_collision() {
            Some(c) => {
                println!("collision at t = {:.1} s but not a valid SPV: {:?}", c.time, c.kind)
            }
            None => println!("no collision — attack ineffective on this mission"),
        },
    }
    Ok(())
}
