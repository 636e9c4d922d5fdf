//! Campaign-server throughput: sustained multi-tenant job flow.
//!
//! Floods a [`CampaignServer`] with small campaigns from four tenants of
//! unequal fair-share weights — the soak test's shape, sized for a
//! benchmark — riding the same client-side back-pressure protocol (on
//! `queue-full`, drain the oldest unfinished job, then retry). Reports
//! scheduler job throughput and end-to-end mission throughput, and verifies
//! every served report against a direct `run_campaign` of its spec before
//! trusting the numbers.
//!
//! Writes `bench_results/server_throughput.csv` in the `metric,value`
//! layout the bench-trajectory guard diffs against `HEAD`. All metrics
//! here are warn-only: absolute throughput drifts with the machine, so the
//! deltas belong in the CI log, not the exit code (see
//! `benches/trajectory.rs`).
//!
//! Modes:
//!
//! * default — 200 campaigns over 4 workers (`SWARMFUZZ_SERVER_JOBS`,
//!   `SWARMFUZZ_WORKERS` override); writes the CSV.
//! * `--smoke` — 40 campaigns for CI; asserts invariants, skips the CSV so
//!   smoke runs never clobber the committed baseline.

use std::time::Instant;

use swarmfuzz::campaign::{run_campaign, CampaignConfig, CampaignReport, SwarmConfig};
use swarmfuzz::server::{in_process_factory, ExecutorOptions};
use swarmfuzz::{CampaignServer, CampaignSpec, Fuzzer, ServerConfig, ServerError, Telemetry};
use swarmfuzz_bench::results_dir;

const QUEUE_DEPTH: usize = 32;
const TENANTS: [(&str, u64); 4] = [("acme", 1), ("globex", 1), ("initech", 2), ("umbrella", 3)];

fn controller() -> swarm_control::VasarhelyiController {
    swarm_control::VasarhelyiController::new(swarm_control::VasarhelyiParams::default())
}

/// The soak test's spec mix: six distinct mini-campaigns (mixed swarm
/// sizes and mission counts, zero eval budget so each mission is one
/// baseline simulation), cycled round-robin across submissions.
fn specs() -> Vec<CampaignSpec> {
    [(2usize, 1usize), (3, 1), (2, 2), (3, 2), (2, 1), (3, 1)]
        .iter()
        .enumerate()
        .map(|(i, &(swarm_size, missions_per_config))| {
            let mut spec = CampaignSpec::new(CampaignConfig {
                configs: vec![SwarmConfig { swarm_size, deviation: 10.0 }],
                missions_per_config,
                base_seed: 0x5BEC + i as u64,
                workers: 1,
            });
            spec.eval_budget = Some(0);
            spec
        })
        .collect()
}

fn direct_report(spec: &CampaignSpec) -> CampaignReport {
    run_campaign(&spec.campaign, |deviation| {
        Fuzzer::new(controller(), spec.fuzzer_config(deviation))
    })
    .expect("direct campaign must run")
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let total = if smoke { 40 } else { env_usize("SWARMFUZZ_SERVER_JOBS", 200) };
    let workers = env_usize("SWARMFUZZ_WORKERS", 4);
    let specs = specs();
    let missions_per_cycle: usize =
        specs.iter().map(|s| s.campaign.missions_per_config * s.campaign.configs.len()).sum();
    eprintln!(
        "[bench] server throughput: {total} campaigns, {workers} workers, queue depth \
         {QUEUE_DEPTH}{}",
        if smoke { " (smoke)" } else { "" }
    );

    let server = CampaignServer::start(
        ServerConfig { workers, queue_depth: QUEUE_DEPTH, journal_dir: None },
        in_process_factory(controller(), ExecutorOptions::default(), Telemetry::off()),
        Telemetry::off(),
    );
    for (id, weight) in TENANTS {
        server.register_tenant(id, weight).expect("register tenant");
    }

    let start = Instant::now();
    let mut jobs = Vec::with_capacity(total);
    let mut frontier = 0usize;
    for i in 0..total {
        let tenant = TENANTS[i % TENANTS.len()].0;
        let spec = &specs[i % specs.len()];
        loop {
            match server.submit(tenant, spec) {
                Ok(job) => {
                    jobs.push(job);
                    break;
                }
                Err(ServerError::QueueFull { .. }) => {
                    // Back-pressure: complete the oldest unfinished job
                    // before retrying, exactly as a well-behaved client.
                    assert!(frontier < jobs.len(), "queue full with no job to drain");
                    server.wait(jobs[frontier]).expect("frontier job completes");
                    frontier += 1;
                }
                Err(other) => panic!("unexpected submit failure: {other}"),
            }
        }
    }
    for &job in &jobs {
        server.wait(job).expect("job completes");
    }
    let wall_s = start.elapsed().as_secs_f64();
    let rejections = server.rejections();

    // Numbers are only worth reporting if the serving path stayed
    // bit-identical to the direct path.
    let references: Vec<CampaignReport> = specs.iter().map(direct_report).collect();
    for (i, &job) in jobs.iter().enumerate() {
        let report = server.try_report(job).expect("finished job has a report");
        assert_eq!(report, references[i % specs.len()], "served report {i} diverged");
    }
    server.shutdown();

    let missions = (total / specs.len()) * missions_per_cycle
        + (0..total % specs.len())
            .map(|i| specs[i].campaign.missions_per_config * specs[i].campaign.configs.len())
            .sum::<usize>();
    let jobs_per_sec = total as f64 / wall_s;
    let missions_per_sec = missions as f64 / wall_s;
    println!("{total} campaigns ({missions} missions) in {wall_s:.2} s");
    println!(
        "throughput: {jobs_per_sec:.1} jobs/s, {missions_per_sec:.1} missions/s \
         ({rejections} back-pressure rejections)"
    );

    if smoke {
        assert!(
            rejections > 0,
            "a {total}-campaign flood over depth {QUEUE_DEPTH} must hit \
                 back-pressure"
        );
        println!("smoke ok: bit-identity and back-pressure verified");
        return;
    }

    let path = results_dir().join("server_throughput.csv");
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    let csv = format!(
        "metric,value\nserver_jobs_per_sec,{jobs_per_sec:.3}\n\
         server_missions_per_sec,{missions_per_sec:.3}\nserver_wall_s,{wall_s:.3}\n\
         server_campaigns,{total}\nserver_workers,{workers}\n\
         server_queue_depth,{QUEUE_DEPTH}\nserver_rejections,{rejections}\n"
    );
    std::fs::write(&path, csv).expect("write server throughput csv");
    println!("csv: {}", path.display());
}
