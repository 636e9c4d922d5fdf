//! Multi-tenant soak: the campaign server under sustained back-pressure.
//!
//! Floods a 4-worker server with ~1,000 queued campaigns (mixed sizes,
//! distinct seeds) from four tenants of unequal fair-share weights, with a
//! queue depth far below the offered load, and asserts the three service
//! invariants end to end:
//!
//! * **No starvation** — every tenant's mean completion ordinal (the
//!   server's logical clock) stays near the middle of the run; no tenant's
//!   work is systematically deferred to the end.
//! * **Typed, counted back-pressure** — over-depth submissions fail with
//!   [`ServerError::QueueFull`] carrying exact queue telemetry, and the
//!   server's rejection counter matches the client's observed count.
//! * **Bit-identity** — every merged report equals a direct `run_campaign`
//!   of the same spec, for all ~1,000 jobs.
//!
//! `SWARMFUZZ_SOAK=smoke` selects the scaled-down CI tier; any integer
//! selects a custom campaign count; the default is the full 1,000.

use std::collections::HashMap;

use swarm_control::{VasarhelyiController, VasarhelyiParams};
use swarmfuzz::campaign::{run_campaign, CampaignConfig, CampaignReport, SwarmConfig};
use swarmfuzz::server::{in_process_factory, ExecutorOptions};
use swarmfuzz::{CampaignServer, CampaignSpec, Fuzzer, ServerConfig, ServerError, Telemetry};

const QUEUE_DEPTH: usize = 32;
const TENANTS: [(&str, u64); 4] = [("acme", 1), ("globex", 1), ("initech", 2), ("umbrella", 3)];

fn controller() -> VasarhelyiController {
    VasarhelyiController::new(VasarhelyiParams::default())
}

/// Offered load: `SWARMFUZZ_SOAK=smoke` for the CI tier, an integer for a
/// custom count, default 1,000 campaigns.
fn soak_campaigns() -> usize {
    match std::env::var("SWARMFUZZ_SOAK").as_deref() {
        Ok("smoke") => 120,
        Ok(n) => n.parse().unwrap_or(1_000),
        Err(_) => 1_000,
    }
}

/// Six distinct mini-campaigns (mixed swarm sizes and mission counts, all
/// with a zero eval budget so each mission is one baseline simulation),
/// cycled round-robin across the soak's submissions.
fn soak_specs() -> Vec<CampaignSpec> {
    let mut specs = Vec::new();
    for (i, &(swarm_size, missions_per_config)) in
        [(2usize, 1usize), (3, 1), (2, 2), (3, 2), (2, 1), (3, 1)].iter().enumerate()
    {
        let campaign = CampaignConfig {
            configs: vec![SwarmConfig { swarm_size, deviation: 10.0 }],
            missions_per_config,
            base_seed: 0x50AC + i as u64,
            workers: 1,
        };
        let mut spec = CampaignSpec::new(campaign);
        spec.eval_budget = Some(0);
        specs.push(spec);
    }
    specs
}

fn direct_report(spec: &CampaignSpec) -> CampaignReport {
    run_campaign(&spec.campaign, |deviation| {
        Fuzzer::new(controller(), spec.fuzzer_config(deviation))
    })
    .expect("direct campaign must run")
}

#[test]
fn soak_fair_share_back_pressure_and_bit_identity() {
    let total = soak_campaigns();
    let specs = soak_specs();
    let server = CampaignServer::start(
        ServerConfig { workers: 4, queue_depth: QUEUE_DEPTH, journal_dir: None },
        in_process_factory(controller(), ExecutorOptions::default(), Telemetry::off()),
        Telemetry::off(),
    );
    for (id, weight) in TENANTS {
        server.register_tenant(id, weight).expect("register tenant");
    }

    // Submission loop: tenants round-robin over the spec mix. On QueueFull
    // the client backs off by completing its oldest unfinished job (the
    // frontier) before retrying — the counted-rejection retry protocol the
    // server's bounded admission is designed for.
    let mut jobs: Vec<u64> = Vec::new();
    let mut rejected = 0u64;
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
                Err(ServerError::QueueFull { tenant: t, queued, depth }) => {
                    rejected += 1;
                    assert_eq!(t, tenant, "rejection names the rejected tenant");
                    assert_eq!(depth, QUEUE_DEPTH, "rejection carries the configured bound");
                    assert!(queued >= depth, "rejection only at the bound: {queued}/{depth}");
                    // Queue full implies an unfinished earlier job exists.
                    assert!(frontier < jobs.len(), "queue full with no job to drain");
                    server.wait(jobs[frontier]).expect("frontier job completes");
                    frontier += 1;
                }
                Err(other) => panic!("unexpected submit failure: {other}"),
            }
        }
    }
    assert_eq!(jobs.len(), total);
    assert!(
        rejected > 0,
        "a {total}-campaign flood over depth {QUEUE_DEPTH} must hit back-pressure"
    );
    assert_eq!(server.rejections(), rejected, "every rejection is counted, none silently dropped");

    // Drain: every job completes.
    for &job in &jobs {
        server.wait(job).expect("job completes");
    }
    assert_eq!(server.queued_campaigns(), 0, "nothing left queued after the drain");

    // Fairness: per-tenant mean completion ordinal. Submissions round-robin
    // over tenants, so a fair server completes each tenant's work spread
    // through the run — mean near total/2. A starved tenant's mean collapses
    // toward the end of the run; the [0.2, 0.8] band is a generous bound on
    // thread-timing jitter while still catching systematic deferral.
    let mut ordinal_sum: HashMap<&str, (u64, u64)> = HashMap::new();
    for (i, &job) in jobs.iter().enumerate() {
        let status = server.status(job).expect("status");
        let ordinal = status.completed_ordinal.expect("completed jobs carry an ordinal");
        assert_eq!(status.tenant, TENANTS[i % TENANTS.len()].0);
        let entry = ordinal_sum.entry(TENANTS[i % TENANTS.len()].0).or_insert((0, 0));
        entry.0 += ordinal;
        entry.1 += 1;
    }
    let n = total as f64;
    for (tenant, (sum, count)) in &ordinal_sum {
        let mean = *sum as f64 / *count as f64;
        assert!(
            (0.2 * n..=0.8 * n).contains(&mean),
            "tenant {tenant} starved or favoured: mean completion ordinal {mean:.1} of {n}"
        );
    }

    // Bit-identity: every merged report equals a direct run of its spec
    // (one direct reference per distinct spec, compared against every job).
    let references: Vec<CampaignReport> = specs.iter().map(direct_report).collect();
    for (i, &job) in jobs.iter().enumerate() {
        let report = server.try_report(job).expect("finished job has a report");
        assert_eq!(
            report,
            references[i % specs.len()],
            "served report {i} diverged from the direct run of its spec"
        );
    }
    server.shutdown();
}
