//! Command-line parsing, separated from execution so every subcommand and
//! flag combination is unit-testable without running missions.
//!
//! [`parse_args`] turns an argument iterator (everything after the binary
//! name) into a typed [`Command`]. Validation — flag spelling, value
//! parsing, enum values like `--telemetry` and `--resume`, cross-flag rules
//! like `--resume yes` requiring `--journal` — all happens here; `main`
//! only dispatches on the result.

use std::fmt;
use std::path::PathBuf;

use swarm_sim::spoof::{SpoofDirection, WaveformSet};
use swarmfuzz::campaign::JournalSpec;

use crate::args::{ArgError, Args};

/// How `--telemetry` renders the collected snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryMode {
    Off,
    Summary,
    Json,
}

/// Why the command line was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// No subcommand was given at all.
    NoCommand,
    /// The first token is not a known subcommand.
    UnknownCommand(String),
    /// Token-level failure (missing value, unparsable number, ...).
    Arg(ArgError),
    /// A structurally valid flag carried a rejected value, or flags
    /// contradict each other.
    Invalid(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::NoCommand => write!(f, "no command given"),
            ParseError::UnknownCommand(cmd) => write!(f, "unknown command {cmd:?}"),
            ParseError::Arg(e) => write!(f, "{e}"),
            ParseError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<ArgError> for ParseError {
    fn from(e: ArgError) -> Self {
        ParseError::Arg(e)
    }
}

/// `swarmfuzz audit` options.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditOpts {
    pub drones: usize,
    pub deviation: f64,
    pub missions: usize,
    pub seed: u64,
    pub telemetry: TelemetryMode,
}

/// `swarmfuzz campaign` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignOpts {
    pub missions: usize,
    pub workers: usize,
    pub journal: Option<JournalSpec>,
    pub max_retries: usize,
    pub snapshot: bool,
    pub attacks: WaveformSet,
    pub telemetry: TelemetryMode,
    /// NDJSON file the campaign's structured event stream is written to
    /// (`None`, the default, traces nothing).
    pub trace: Option<PathBuf>,
    /// Print a progress line every N finished missions (0 = off).
    pub progress: u64,
}

/// `swarmfuzz dashboard` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DashboardOpts {
    /// Campaign journal to render.
    pub journal: PathBuf,
    /// Optional NDJSON trace (enables trajectory and effort sections).
    pub trace: Option<PathBuf>,
    /// Output HTML path.
    pub out: PathBuf,
    /// Also export a Chrome trace-event JSON (requires `--trace`).
    pub chrome: Option<PathBuf>,
}

/// `swarmfuzz baseline` options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaselineOpts {
    pub drones: usize,
    pub seed: u64,
}

/// `swarmfuzz replay` options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayOpts {
    pub drones: usize,
    pub seed: u64,
    pub target: usize,
    pub direction: SpoofDirection,
    pub start: f64,
    pub duration: f64,
    pub deviation: f64,
    pub minimize: bool,
}

/// `swarmfuzz stress` options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StressOpts {
    pub drones: usize,
    pub seed: u64,
    pub duration: f64,
    pub telemetry: TelemetryMode,
}

/// Default address the campaign server binds and clients dial.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7700";

/// `swarmfuzz serve` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOpts {
    /// TCP address to listen on.
    pub bind: String,
    pub workers: usize,
    /// Bounded admission depth; over-depth submissions are rejected with a
    /// typed `queue-full` error, never silently dropped.
    pub queue_depth: usize,
    /// Directory for per-campaign shard journals (crash-safe resume).
    pub journal_dir: Option<PathBuf>,
}

/// `swarmfuzz submit` options.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitOpts {
    /// Server address to dial.
    pub server: String,
    pub tenant: String,
    /// Fair-share weight (only applied when the tenant is new).
    pub weight: u64,
    /// Pre-encoded campaign spec file; when absent the paper grid is built
    /// from `missions`/`seed`/`attacks`/`budget`.
    pub spec: Option<PathBuf>,
    pub missions: usize,
    pub seed: u64,
    pub attacks: WaveformSet,
    pub budget: Option<usize>,
    /// Block until the job finishes and print its report.
    pub wait: bool,
}

/// `swarmfuzz status` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusOpts {
    pub server: String,
    pub job: u64,
}

/// `swarmfuzz results` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultsOpts {
    pub server: String,
    pub job: u64,
    pub wait: bool,
}

/// A fully validated command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Audit(AuditOpts),
    Campaign(CampaignOpts),
    Dashboard(DashboardOpts),
    Baseline(BaselineOpts),
    Replay(ReplayOpts),
    Stress(StressOpts),
    Serve(ServeOpts),
    Submit(SubmitOpts),
    Status(StatusOpts),
    Results(ResultsOpts),
    Help,
}

/// Parses everything after the binary name into a [`Command`].
///
/// # Errors
///
/// See [`ParseError`]; `main` prints the message and the usage text.
pub fn parse_args<I: IntoIterator<Item = String>>(argv: I) -> Result<Command, ParseError> {
    let mut it = argv.into_iter();
    let Some(command) = it.next() else { return Err(ParseError::NoCommand) };
    let args = Args::parse(it)?;
    match command.as_str() {
        "audit" => parse_audit(&args).map(Command::Audit),
        "campaign" => parse_campaign(&args).map(Command::Campaign),
        "dashboard" => parse_dashboard(&args).map(Command::Dashboard),
        "baseline" => parse_baseline(&args).map(Command::Baseline),
        "replay" => parse_replay(&args).map(Command::Replay),
        "stress" => parse_stress(&args).map(Command::Stress),
        "serve" => parse_serve(&args).map(Command::Serve),
        "submit" => parse_submit(&args).map(Command::Submit),
        "status" => parse_status(&args).map(Command::Status),
        "results" => parse_results(&args).map(Command::Results),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(ParseError::UnknownCommand(other.to_string())),
    }
}

/// Rejects flags the subcommand does not define — a typo like `--drone`
/// must not silently fall back to the default.
fn reject_unknown_flags(args: &Args, command: &str, known: &[&str]) -> Result<(), ParseError> {
    let mut unknown: Vec<&str> = args.keys().filter(|k| !known.contains(k)).collect();
    unknown.sort_unstable();
    match unknown.first() {
        None => Ok(()),
        Some(flag) => Err(ParseError::Invalid(format!("unknown flag --{flag} for '{command}'"))),
    }
}

fn telemetry_mode(args: &Args) -> Result<TelemetryMode, ParseError> {
    match args.raw("telemetry") {
        None | Some("off") => Ok(TelemetryMode::Off),
        Some("summary") => Ok(TelemetryMode::Summary),
        Some("json") => Ok(TelemetryMode::Json),
        Some(other) => Err(ParseError::Invalid(format!(
            "--telemetry must be 'off', 'summary' or 'json', got {other:?}"
        ))),
    }
}

fn yes_no(args: &Args, flag: &str) -> Result<bool, ParseError> {
    match args.raw(flag) {
        None | Some("no") => Ok(false),
        Some("yes") => Ok(true),
        Some(other) => {
            Err(ParseError::Invalid(format!("--{flag} must be 'yes' or 'no', got {other:?}")))
        }
    }
}

fn parse_audit(args: &Args) -> Result<AuditOpts, ParseError> {
    reject_unknown_flags(args, "audit", &["drones", "deviation", "missions", "seed", "telemetry"])?;
    Ok(AuditOpts {
        drones: args.get_or("drones", 10)?,
        deviation: args.get_or("deviation", 10.0)?,
        missions: args.get_or("missions", 10)?,
        seed: args.get_or("seed", 0)?,
        telemetry: telemetry_mode(args)?,
    })
}

fn parse_campaign(args: &Args) -> Result<CampaignOpts, ParseError> {
    reject_unknown_flags(
        args,
        "campaign",
        &[
            "missions",
            "workers",
            "journal",
            "resume",
            "retries",
            "snapshot",
            "attacks",
            "telemetry",
            "trace",
            "progress",
        ],
    )?;
    let resume = yes_no(args, "resume")?;
    let journal = args.raw("journal").map(|p| JournalSpec { path: p.into(), resume });
    if resume && journal.is_none() {
        return Err(ParseError::Invalid("--resume yes requires --journal PATH".into()));
    }
    let snapshot = match args.raw("snapshot") {
        None | Some("on") => true,
        Some("off") => false,
        Some(other) => {
            return Err(ParseError::Invalid(format!(
                "--snapshot must be 'on' or 'off', got {other:?}"
            )))
        }
    };
    let attacks = match args.raw("attacks") {
        None => WaveformSet::CONSTANT_ONLY,
        Some(list) => {
            WaveformSet::parse(list).map_err(|e| ParseError::Invalid(format!("--attacks: {e}")))?
        }
    };
    let trace = args.raw("trace").filter(|&v| v != "off").map(PathBuf::from);
    let progress = match args.raw("progress") {
        None | Some("off") => 0,
        Some(v) => v
            .strip_prefix("every-")
            .unwrap_or(v)
            .parse::<u64>()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| {
                ParseError::Invalid(format!(
                    "--progress must be 'off' or a positive mission count like 'every-25', \
                     got {v:?}"
                ))
            })?,
    };
    Ok(CampaignOpts {
        missions: args.get_or("missions", 20)?,
        workers: args.get_or(
            "workers",
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        )?,
        journal,
        max_retries: args.get_or("retries", 1)?,
        snapshot,
        attacks,
        telemetry: telemetry_mode(args)?,
        trace,
        progress,
    })
}

fn parse_dashboard(args: &Args) -> Result<DashboardOpts, ParseError> {
    reject_unknown_flags(args, "dashboard", &["journal", "trace", "out", "chrome"])?;
    let journal: PathBuf = args
        .raw("journal")
        .ok_or_else(|| ParseError::Arg(ArgError::Required("--journal".into())))?
        .into();
    let trace: Option<PathBuf> = args.raw("trace").map(PathBuf::from);
    let chrome: Option<PathBuf> = args.raw("chrome").map(PathBuf::from);
    if chrome.is_some() && trace.is_none() {
        return Err(ParseError::Invalid("--chrome PATH requires --trace PATH".into()));
    }
    Ok(DashboardOpts {
        journal,
        trace,
        out: args.raw("out").map_or_else(|| "dashboard.html".into(), PathBuf::from),
        chrome,
    })
}

fn parse_baseline(args: &Args) -> Result<BaselineOpts, ParseError> {
    reject_unknown_flags(args, "baseline", &["drones", "seed"])?;
    Ok(BaselineOpts { drones: args.get_or("drones", 10)?, seed: args.get_or("seed", 0)? })
}

fn parse_replay(args: &Args) -> Result<ReplayOpts, ParseError> {
    reject_unknown_flags(
        args,
        "replay",
        &["drones", "seed", "target", "direction", "start", "duration", "deviation", "minimize"],
    )?;
    let direction = match args.raw("direction") {
        Some("left") => SpoofDirection::Left,
        Some("right") => SpoofDirection::Right,
        Some(other) => {
            return Err(ParseError::Invalid(format!(
                "--direction must be 'left' or 'right', got {other:?}"
            )))
        }
        None => return Err(ParseError::Arg(ArgError::Required("--direction".into()))),
    };
    Ok(ReplayOpts {
        drones: args.get_or("drones", 10)?,
        seed: args.get_or("seed", 0)?,
        target: args.require("target")?,
        direction,
        start: args.require("start")?,
        duration: args.require("duration")?,
        deviation: args.get_or("deviation", 10.0)?,
        minimize: yes_no(args, "minimize")?,
    })
}

fn parse_stress(args: &Args) -> Result<StressOpts, ParseError> {
    reject_unknown_flags(args, "stress", &["drones", "seed", "duration", "telemetry"])?;
    Ok(StressOpts {
        drones: args.get_or("drones", 100)?,
        seed: args.get_or("seed", 0)?,
        duration: args.get_or("duration", 20.0)?,
        telemetry: telemetry_mode(args)?,
    })
}

fn parse_serve(args: &Args) -> Result<ServeOpts, ParseError> {
    reject_unknown_flags(args, "serve", &["bind", "workers", "queue-depth", "journal-dir"])?;
    let workers =
        args.get_or("workers", std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))?;
    if workers == 0 {
        return Err(ParseError::Invalid("--workers must be at least 1".into()));
    }
    let queue_depth: usize = args.get_or("queue-depth", 64)?;
    if queue_depth == 0 {
        return Err(ParseError::Invalid("--queue-depth must be at least 1".into()));
    }
    Ok(ServeOpts {
        bind: args.raw("bind").unwrap_or(DEFAULT_ADDR).to_string(),
        workers,
        queue_depth,
        journal_dir: args.raw("journal-dir").map(PathBuf::from),
    })
}

fn parse_submit(args: &Args) -> Result<SubmitOpts, ParseError> {
    reject_unknown_flags(
        args,
        "submit",
        &["server", "tenant", "weight", "spec", "missions", "seed", "attacks", "budget", "wait"],
    )?;
    let spec = args.raw("spec").map(PathBuf::from);
    if spec.is_some() {
        for flag in ["missions", "seed", "attacks", "budget"] {
            if args.raw(flag).is_some() {
                return Err(ParseError::Invalid(format!(
                    "--spec carries the whole campaign; drop --{flag}"
                )));
            }
        }
    }
    let attacks = match args.raw("attacks") {
        None => WaveformSet::CONSTANT_ONLY,
        Some(list) => {
            WaveformSet::parse(list).map_err(|e| ParseError::Invalid(format!("--attacks: {e}")))?
        }
    };
    let budget = match args.raw("budget") {
        None => None,
        Some(v) => Some(v.parse::<usize>().map_err(|_| {
            ParseError::Arg(ArgError::BadValue { flag: "--budget".into(), value: v.into() })
        })?),
    };
    Ok(SubmitOpts {
        server: args.raw("server").unwrap_or(DEFAULT_ADDR).to_string(),
        tenant: args.raw("tenant").unwrap_or("default").to_string(),
        weight: args.get_or("weight", 1)?,
        spec,
        missions: args.get_or("missions", 20)?,
        seed: args.get_or("seed", 0xC0FFEE)?,
        attacks,
        budget,
        wait: yes_no(args, "wait")?,
    })
}

fn parse_status(args: &Args) -> Result<StatusOpts, ParseError> {
    reject_unknown_flags(args, "status", &["server", "job"])?;
    Ok(StatusOpts {
        server: args.raw("server").unwrap_or(DEFAULT_ADDR).to_string(),
        job: args.require("job")?,
    })
}

fn parse_results(args: &Args) -> Result<ResultsOpts, ParseError> {
    reject_unknown_flags(args, "results", &["server", "job", "wait"])?;
    Ok(ResultsOpts {
        server: args.raw("server").unwrap_or(DEFAULT_ADDR).to_string(),
        job: args.require("job")?,
        wait: yes_no(args, "wait")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Command, ParseError> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn no_command_is_rejected() {
        assert_eq!(parse(""), Err(ParseError::NoCommand));
    }

    #[test]
    fn unknown_command_is_rejected_with_its_name() {
        let err = parse("attack --drones 5").unwrap_err();
        assert_eq!(err, ParseError::UnknownCommand("attack".into()));
        assert_eq!(err.to_string(), "unknown command \"attack\"");
    }

    #[test]
    fn help_aliases_all_parse() {
        for line in ["help", "--help", "-h"] {
            assert_eq!(parse(line), Ok(Command::Help));
        }
    }

    #[test]
    fn audit_defaults_match_the_usage_text() {
        let Ok(Command::Audit(opts)) = parse("audit") else { panic!("audit must parse") };
        assert_eq!(
            opts,
            AuditOpts {
                drones: 10,
                deviation: 10.0,
                missions: 10,
                seed: 0,
                telemetry: TelemetryMode::Off,
            }
        );
    }

    #[test]
    fn audit_flags_override_defaults() {
        let Ok(Command::Audit(opts)) =
            parse("audit --drones 6 --deviation 7.5 --missions 3 --seed 42 --telemetry summary")
        else {
            panic!("audit must parse")
        };
        assert_eq!(opts.drones, 6);
        assert_eq!(opts.deviation, 7.5);
        assert_eq!(opts.missions, 3);
        assert_eq!(opts.seed, 42);
        assert_eq!(opts.telemetry, TelemetryMode::Summary);
    }

    #[test]
    fn telemetry_accepts_exactly_three_modes() {
        for (value, mode) in [
            ("off", TelemetryMode::Off),
            ("summary", TelemetryMode::Summary),
            ("json", TelemetryMode::Json),
        ] {
            let Ok(Command::Audit(opts)) = parse(&format!("audit --telemetry {value}")) else {
                panic!("--telemetry {value} must parse")
            };
            assert_eq!(opts.telemetry, mode);
        }
        let err = parse("audit --telemetry verbose").unwrap_err();
        assert_eq!(
            err.to_string(),
            "--telemetry must be 'off', 'summary' or 'json', got \"verbose\""
        );
    }

    #[test]
    fn campaign_defaults_and_overrides() {
        let Ok(Command::Campaign(opts)) = parse("campaign") else { panic!("campaign must parse") };
        assert_eq!(opts.missions, 20);
        assert!(opts.workers >= 1, "workers default to available parallelism");
        assert_eq!(opts.journal, None);
        assert_eq!(opts.max_retries, 1);
        assert!(opts.snapshot, "snapshot forking defaults to on");

        let Ok(Command::Campaign(opts)) =
            parse("campaign --missions 4 --workers 2 --retries 3 --telemetry json")
        else {
            panic!("campaign must parse")
        };
        assert_eq!(opts.missions, 4);
        assert_eq!(opts.workers, 2);
        assert_eq!(opts.max_retries, 3);
        assert_eq!(opts.telemetry, TelemetryMode::Json);
    }

    #[test]
    fn campaign_snapshot_flag_values() {
        let Ok(Command::Campaign(opts)) = parse("campaign --snapshot on") else {
            panic!("--snapshot on must parse")
        };
        assert!(opts.snapshot);
        let Ok(Command::Campaign(opts)) = parse("campaign --snapshot off") else {
            panic!("--snapshot off must parse")
        };
        assert!(!opts.snapshot);
        let err = parse("campaign --snapshot maybe").unwrap_err();
        assert_eq!(err.to_string(), "--snapshot must be 'on' or 'off', got \"maybe\"");
    }

    #[test]
    fn campaign_attacks_flag_parses_class_lists() {
        use swarm_sim::spoof::WaveformKind;
        let Ok(Command::Campaign(opts)) = parse("campaign") else { panic!("campaign must parse") };
        assert_eq!(opts.attacks, WaveformSet::CONSTANT_ONLY, "default is the paper's attack");

        let Ok(Command::Campaign(opts)) = parse("campaign --attacks constant,drift,circular,jump")
        else {
            panic!("full class list must parse")
        };
        assert_eq!(opts.attacks, WaveformSet::all());

        let Ok(Command::Campaign(opts)) = parse("campaign --attacks jump,drift") else {
            panic!("subset must parse")
        };
        assert!(opts.attacks.contains(WaveformKind::Drift));
        assert!(opts.attacks.contains(WaveformKind::Jump));
        assert!(!opts.attacks.contains(WaveformKind::Circular));

        let err = parse("campaign --attacks constant,teleport").unwrap_err();
        assert_eq!(err.to_string(), "--attacks: unknown attack class \"teleport\"");
    }

    #[test]
    fn campaign_journal_and_resume_combine() {
        let Ok(Command::Campaign(opts)) = parse("campaign --journal out.jsonl") else {
            panic!("journal without resume must parse")
        };
        let journal = opts.journal.expect("journal spec present");
        assert_eq!(journal.path, std::path::PathBuf::from("out.jsonl"));
        assert!(!journal.resume);

        let Ok(Command::Campaign(opts)) = parse("campaign --journal out.jsonl --resume yes") else {
            panic!("journal + resume must parse")
        };
        assert!(opts.journal.expect("journal spec present").resume);
    }

    #[test]
    fn campaign_rejects_bad_resume_values() {
        let err = parse("campaign --journal out.jsonl --resume maybe").unwrap_err();
        assert_eq!(err.to_string(), "--resume must be 'yes' or 'no', got \"maybe\"");
    }

    #[test]
    fn campaign_resume_requires_a_journal() {
        let err = parse("campaign --resume yes").unwrap_err();
        assert_eq!(err.to_string(), "--resume yes requires --journal PATH");
        // `--resume no` without a journal stays fine.
        assert!(matches!(parse("campaign --resume no"), Ok(Command::Campaign(_))));
    }

    #[test]
    fn campaign_trace_flag_modes() {
        let Ok(Command::Campaign(opts)) = parse("campaign") else { panic!("campaign must parse") };
        assert_eq!(opts.trace, None, "tracing defaults to off");
        assert_eq!(opts.progress, 0, "progress lines default to off");

        let Ok(Command::Campaign(opts)) = parse("campaign --trace off") else {
            panic!("--trace off must parse")
        };
        assert_eq!(opts.trace, None);

        let Ok(Command::Campaign(opts)) = parse("campaign --trace out/trace.ndjson") else {
            panic!("--trace PATH must parse")
        };
        assert_eq!(opts.trace, Some(PathBuf::from("out/trace.ndjson")));

        // Any value but `off` names the trace file.
        let Ok(Command::Campaign(opts)) = parse("campaign --trace ring") else {
            panic!("--trace ring must parse")
        };
        assert_eq!(opts.trace, Some(PathBuf::from("ring")));
    }

    #[test]
    fn campaign_progress_accepts_plain_and_every_n() {
        let Ok(Command::Campaign(opts)) = parse("campaign --progress 25") else {
            panic!("--progress 25 must parse")
        };
        assert_eq!(opts.progress, 25);
        let Ok(Command::Campaign(opts)) = parse("campaign --progress every-10") else {
            panic!("--progress every-10 must parse")
        };
        assert_eq!(opts.progress, 10);
        let err = parse("campaign --progress every-zero").unwrap_err();
        assert_eq!(
            err.to_string(),
            "--progress must be 'off' or a positive mission count like 'every-25', \
             got \"every-zero\""
        );
        let err = parse("campaign --progress 0").unwrap_err();
        assert!(err.to_string().starts_with("--progress must be"));
    }

    #[test]
    fn dashboard_requires_a_journal() {
        let err = parse("dashboard").unwrap_err();
        assert_eq!(err, ParseError::Arg(ArgError::Required("--journal".into())));

        let Ok(Command::Dashboard(opts)) = parse("dashboard --journal c.jsonl") else {
            panic!("dashboard must parse")
        };
        assert_eq!(opts.journal, PathBuf::from("c.jsonl"));
        assert_eq!(opts.trace, None);
        assert_eq!(opts.out, PathBuf::from("dashboard.html"));
        assert_eq!(opts.chrome, None);
    }

    #[test]
    fn dashboard_full_flag_set_and_chrome_dependency() {
        let Ok(Command::Dashboard(opts)) =
            parse("dashboard --journal c.jsonl --trace t.ndjson --out report.html --chrome t.json")
        else {
            panic!("dashboard must parse")
        };
        assert_eq!(opts.trace, Some(PathBuf::from("t.ndjson")));
        assert_eq!(opts.out, PathBuf::from("report.html"));
        assert_eq!(opts.chrome, Some(PathBuf::from("t.json")));

        let err = parse("dashboard --journal c.jsonl --chrome t.json").unwrap_err();
        assert_eq!(err.to_string(), "--chrome PATH requires --trace PATH");
        let err = parse("dashboard --journal c.jsonl --missions 3").unwrap_err();
        assert_eq!(err.to_string(), "unknown flag --missions for 'dashboard'");
    }

    #[test]
    fn baseline_parses_its_two_flags() {
        let Ok(Command::Baseline(opts)) = parse("baseline --drones 5 --seed 9") else {
            panic!("baseline must parse")
        };
        assert_eq!(opts, BaselineOpts { drones: 5, seed: 9 });
        let Ok(Command::Baseline(opts)) = parse("baseline") else { panic!("baseline must parse") };
        assert_eq!(opts, BaselineOpts { drones: 10, seed: 0 });
    }

    #[test]
    fn replay_requires_target_direction_start_and_duration() {
        let full = "replay --target 3 --direction right --start 12.5 --duration 10";
        let Ok(Command::Replay(opts)) = parse(full) else { panic!("replay must parse") };
        assert_eq!(opts.target, 3);
        assert_eq!(opts.direction, SpoofDirection::Right);
        assert_eq!(opts.start, 12.5);
        assert_eq!(opts.duration, 10.0);
        assert_eq!(opts.deviation, 10.0);
        assert!(!opts.minimize);

        assert_eq!(
            parse("replay --target 3 --start 1 --duration 2").unwrap_err(),
            ParseError::Arg(ArgError::Required("--direction".into()))
        );
        assert_eq!(
            parse("replay --direction left --start 1 --duration 2").unwrap_err(),
            ParseError::Arg(ArgError::Required("--target".into()))
        );
        assert_eq!(
            parse("replay --target 3 --direction left --duration 2").unwrap_err(),
            ParseError::Arg(ArgError::Required("--start".into()))
        );
        assert_eq!(
            parse("replay --target 3 --direction left --start 1").unwrap_err(),
            ParseError::Arg(ArgError::Required("--duration".into()))
        );
    }

    #[test]
    fn replay_rejects_bad_direction_and_minimize() {
        let err = parse("replay --target 3 --direction up --start 1 --duration 2").unwrap_err();
        assert_eq!(err.to_string(), "--direction must be 'left' or 'right', got \"up\"");
        let err = parse("replay --target 3 --direction left --start 1 --duration 2 --minimize si")
            .unwrap_err();
        assert_eq!(err.to_string(), "--minimize must be 'yes' or 'no', got \"si\"");
        let Ok(Command::Replay(opts)) =
            parse("replay --target 3 --direction left --start 1 --duration 2 --minimize yes")
        else {
            panic!("minimize yes must parse")
        };
        assert!(opts.minimize);
    }

    #[test]
    fn stress_defaults_and_overrides() {
        let Ok(Command::Stress(opts)) = parse("stress") else { panic!("stress must parse") };
        assert_eq!(opts.drones, 100);
        assert_eq!(opts.seed, 0);
        assert_eq!(opts.duration, 20.0);
        assert_eq!(opts.telemetry, TelemetryMode::Off);
        let Ok(Command::Stress(opts)) =
            parse("stress --drones 10 --seed 3 --duration 5 --telemetry json")
        else {
            panic!("stress overrides must parse")
        };
        assert_eq!((opts.drones, opts.seed, opts.duration), (10, 3, 5.0));
        assert_eq!(opts.telemetry, TelemetryMode::Json);
    }

    #[test]
    fn unparsable_numbers_are_bad_values() {
        let err = parse("audit --drones ten").unwrap_err();
        assert_eq!(
            err,
            ParseError::Arg(ArgError::BadValue { flag: "--drones".into(), value: "ten".into() })
        );
    }

    #[test]
    fn token_level_errors_surface_before_dispatch() {
        assert_eq!(
            parse("audit --drones"),
            Err(ParseError::Arg(ArgError::MissingValue("--drones".into())))
        );
        assert!(matches!(parse("audit stray"), Err(ParseError::Arg(ArgError::Unknown(_)))));
    }

    #[test]
    fn mistyped_flags_are_rejected_per_command() {
        let err = parse("audit --drone 5").unwrap_err();
        assert_eq!(err.to_string(), "unknown flag --drone for 'audit'");
        let err = parse("baseline --telemetry json").unwrap_err();
        assert_eq!(err.to_string(), "unknown flag --telemetry for 'baseline'");
        let err = parse("stress --missions 3").unwrap_err();
        assert_eq!(err.to_string(), "unknown flag --missions for 'stress'");
        let err = parse("serve --missions 3").unwrap_err();
        assert_eq!(err.to_string(), "unknown flag --missions for 'serve'");
        let err = parse("results --tenant acme --job 1").unwrap_err();
        assert_eq!(err.to_string(), "unknown flag --tenant for 'results'");
    }

    #[test]
    fn serve_defaults_and_overrides() {
        let Ok(Command::Serve(opts)) = parse("serve") else { panic!("serve must parse") };
        assert_eq!(opts.bind, DEFAULT_ADDR);
        assert!(opts.workers >= 1, "workers default to available parallelism");
        assert_eq!(opts.queue_depth, 64);
        assert_eq!(opts.journal_dir, None);

        let Ok(Command::Serve(opts)) = parse(
            "serve --bind 0.0.0.0:9000 --workers 8 --queue-depth 16 --journal-dir /tmp/shards",
        ) else {
            panic!("serve must parse")
        };
        assert_eq!(opts.bind, "0.0.0.0:9000");
        assert_eq!(opts.workers, 8);
        assert_eq!(opts.queue_depth, 16);
        assert_eq!(opts.journal_dir, Some(PathBuf::from("/tmp/shards")));
    }

    #[test]
    fn serve_rejects_zero_workers_and_zero_depth() {
        let err = parse("serve --workers 0").unwrap_err();
        assert_eq!(err.to_string(), "--workers must be at least 1");
        let err = parse("serve --queue-depth 0").unwrap_err();
        assert_eq!(err.to_string(), "--queue-depth must be at least 1");
    }

    #[test]
    fn submit_defaults_build_the_paper_grid() {
        let Ok(Command::Submit(opts)) = parse("submit") else { panic!("submit must parse") };
        assert_eq!(opts.server, DEFAULT_ADDR);
        assert_eq!(opts.tenant, "default");
        assert_eq!(opts.weight, 1);
        assert_eq!(opts.spec, None);
        assert_eq!(opts.missions, 20);
        assert_eq!(opts.seed, 0xC0FFEE, "default seed matches the 'campaign' command");
        assert_eq!(opts.attacks, WaveformSet::CONSTANT_ONLY);
        assert_eq!(opts.budget, None);
        assert!(!opts.wait);
    }

    #[test]
    fn submit_full_flag_set() {
        let Ok(Command::Submit(opts)) = parse(
            "submit --server 10.0.0.5:7700 --tenant acme --weight 3 --missions 4 --seed 9 \
             --attacks constant,drift --budget 50 --wait yes",
        ) else {
            panic!("submit must parse")
        };
        assert_eq!(opts.server, "10.0.0.5:7700");
        assert_eq!(opts.tenant, "acme");
        assert_eq!(opts.weight, 3);
        assert_eq!(opts.missions, 4);
        assert_eq!(opts.seed, 9);
        assert!(opts.attacks.contains(swarm_sim::spoof::WaveformKind::Drift));
        assert_eq!(opts.budget, Some(50));
        assert!(opts.wait);
    }

    #[test]
    fn submit_spec_file_excludes_grid_flags() {
        let Ok(Command::Submit(opts)) = parse("submit --spec campaign.spec") else {
            panic!("submit --spec must parse")
        };
        assert_eq!(opts.spec, Some(PathBuf::from("campaign.spec")));

        let err = parse("submit --spec campaign.spec --missions 4").unwrap_err();
        assert_eq!(err.to_string(), "--spec carries the whole campaign; drop --missions");
        let err = parse("submit --spec campaign.spec --budget 2").unwrap_err();
        assert_eq!(err.to_string(), "--spec carries the whole campaign; drop --budget");
    }

    #[test]
    fn submit_rejects_bad_budget_and_wait() {
        let err = parse("submit --budget lots").unwrap_err();
        assert_eq!(
            err,
            ParseError::Arg(ArgError::BadValue { flag: "--budget".into(), value: "lots".into() })
        );
        let err = parse("submit --wait maybe").unwrap_err();
        assert_eq!(err.to_string(), "--wait must be 'yes' or 'no', got \"maybe\"");
    }

    #[test]
    fn status_and_results_require_a_job() {
        assert_eq!(
            parse("status").unwrap_err(),
            ParseError::Arg(ArgError::Required("--job".into()))
        );
        assert_eq!(
            parse("results").unwrap_err(),
            ParseError::Arg(ArgError::Required("--job".into()))
        );

        let Ok(Command::Status(opts)) = parse("status --job 7") else {
            panic!("status must parse")
        };
        assert_eq!(opts, StatusOpts { server: DEFAULT_ADDR.into(), job: 7 });

        let Ok(Command::Results(opts)) = parse("results --server h:1 --job 7 --wait yes") else {
            panic!("results must parse")
        };
        assert_eq!(opts, ResultsOpts { server: "h:1".into(), job: 7, wait: true });
        let Ok(Command::Results(opts)) = parse("results --job 7") else {
            panic!("results must parse")
        };
        assert!(!opts.wait, "results default to a non-blocking fetch");
    }
}
