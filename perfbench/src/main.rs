//! The repository benchmark: one command, four workloads, end-to-end
//! metrics from an untraced run and per-layer metrics from a separate
//! traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-grid|stress-n1000|serve|serve-resume|all \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload builds its inputs from `--seed` alone, checks the
//! program's outputs before it reports anything, and prints one JSON object
//! as its last stdout line; a human-readable table goes to stderr.
//! `--layer-map` prints which end-to-end metric each per-layer metric should
//! move, on which workload.

mod grid;
mod layers;
mod report;
mod serve;
mod stats;
mod stress;

use std::process::ExitCode;

use report::Outcome;

/// The seed every pinned digest was recorded with.
pub const PINNED_SEED: u64 = 1;

/// Worker threads the benchmark lets the program use; a workload's load
/// generators use at most as many, so the benchmark fits a two-core
/// machine.
pub const WORKERS: usize = 2;

const WORKLOADS: [&str; 4] = ["paper-grid", "stress-n1000", "serve", "serve-resume"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        if flag == "--layer-map" {
            print!("{}", layers::layer_map_json());
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?} or all"));
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must lie in (0, 120], got {seconds}"));
    }
    Ok(Some(Args { workload, seed, seconds, trace }))
}

fn run_one(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "paper-grid" => grid::run(args.seed, args.seconds, args.trace),
        "stress-n1000" => stress::run(args.seed, args.seconds, args.trace),
        "serve" => serve::run(serve::Mode::Fresh, args.seed, args.seconds, args.trace),
        "serve-resume" => serve::run(serve::Mode::Resume, args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Runs every workload in its own child process (so peak memory is never
/// shared between them) and relays each one's result line.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    for workload in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        println!("{workload} {}", stdout.lines().last().unwrap_or("(no result)"));
        all_ok &= out.status.success();
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return match run_all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run_one(&args) {
        Ok(mut outcome) => {
            if args.trace {
                outcome.fill_idle_layers();
            } else if let Some(rss) = stats::peak_rss_mb() {
                outcome.push("peak_rss_mb", rss, "MiB");
            }
            let line = outcome.json();
            eprint!("{}", outcome.table(&args.workload));
            println!("{line}");
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
