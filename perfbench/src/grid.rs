//! `paper-grid`: the paper's own workload, SwarmFuzz campaigns over the
//! 6-configuration grid of Table I (5/10/15 drones × 5/10 m).
//!
//! Paper-scale swarms stay below the spatial-grid threshold, so baselines,
//! forked probes, SVG scheduling and gradient search do all the work, and
//! the service layers none.
//!
//! The timed run submits campaigns of `MISSIONS_PER_CONFIG` missions per
//! configuration back to back, each with a base seed derived from the
//! workload seed, on `WORKERS` worker threads. The traced run re-drives
//! every mission of its campaigns through the fuzzer's public pieces and
//! must reproduce each mission's result exactly.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use swarm_control::{VasarhelyiController, VasarhelyiParams};
use swarm_math::rng::derive_seed;
use swarm_sim::spoof::{Waveform, WaveformSet};
use swarm_sim::{MissionOutcome, RunStats, SimObserver, Simulation};
use swarmfuzz::campaign::{
    campaign_mission, mission_base_seed, run_campaign, CampaignConfig, CampaignReport,
    MissionResult,
};
use swarmfuzz::objective::{Evaluation, Objective};
use swarmfuzz::schedule::{expand_waveforms, svg_schedule};
use swarmfuzz::search::{gradient_search, GradientConfig, SearchResult};
use swarmfuzz::{FuzzError, Fuzzer, FuzzerConfig, MissionCache, SnapshotRing, SpvFinding};

use crate::report::Outcome;
use crate::stats::{fnv1a, median, median_secs, ms_since, release_free_memory, FNV_BASIS};
use crate::{PINNED_SEED, WORKERS};

/// Missions per configuration in one timed campaign: 24 missions, enough
/// that the campaign's snapshot cache fills and that its cost varies
/// little with the seed.
const MISSIONS_PER_CONFIG: usize = 4;

/// Digest of the set-up campaign: one mission per configuration, base seed
/// derived from `PINNED_SEED`.
const PINNED_DIGEST: u64 = 0x7db4_06a0_342e_a89f;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

pub fn controller() -> VasarhelyiController {
    VasarhelyiController::new(VasarhelyiParams::default())
}

/// The campaign a run submits `k`-th.
fn campaign_config(seed: u64, k: u64, workers: usize) -> CampaignConfig {
    let mut config = CampaignConfig::paper_grid(MISSIONS_PER_CONFIG, derive_seed(seed, k));
    config.workers = workers;
    config
}

/// The set-up campaign, the same for every run.
fn pinned_config() -> CampaignConfig {
    let mut config = CampaignConfig::paper_grid(1, derive_seed(PINNED_SEED, 0));
    config.workers = WORKERS;
    config
}

fn fuzz(config: &CampaignConfig) -> Result<CampaignReport, String> {
    run_campaign(config, |deviation| Fuzzer::new(controller(), FuzzerConfig::swarmfuzz(deviation)))
        .map_err(|e| format!("campaign failed: {e}"))
}

/// A digest of every field of every mission result, in report order.
fn report_digest(report: &CampaignReport) -> u64 {
    let mut h = FNV_BASIS;
    for m in &report.missions {
        h = fnv1a(h, format!("{m:?}\n").as_bytes());
    }
    for f in &report.failures {
        h = fnv1a(h, format!("{f:?}\n").as_bytes());
    }
    h
}

/// Checks the invariants every campaign report must hold.
fn check_report(out: &mut Outcome, config: &CampaignConfig, report: &CampaignReport) {
    let budget = FuzzerConfig::swarmfuzz(0.0).eval_budget;
    let expected = config.configs.len() * config.missions_per_config;
    out.check(report.missions.len() + report.failures.len() == expected, || {
        format!(
            "campaign {:x}: {} rows, expected {expected}",
            config.base_seed,
            report.missions.len()
        )
    });
    for m in &report.missions {
        let consistent = m.success == m.finding.is_some()
            && m.evaluations <= budget
            && m.finding.is_none_or(|f| f.deviation == m.config.deviation);
        out.check(consistent, || format!("inconsistent mission result {m:?}"));
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // Set-up: the pinned campaign, checked against its recorded digest.
    let pinned = pinned_config();
    let (setup_s, pinned_report) = median_secs(SETUP_REPEATS, || fuzz(&pinned));
    let digest = report_digest(&pinned_report?);
    out.check(digest == PINNED_DIGEST, || {
        format!("pinned campaign digest {digest:016x}, expected {PINNED_DIGEST:016x}")
    });

    if trace {
        return traced(seed, seconds, out);
    }

    // Campaigns back to back; throughput is the median of the campaigns'
    // own rates, so a burst of machine noise moves it less than a total
    // would.
    let started = Instant::now();
    let (mut latencies, mut rates) = (Vec::new(), Vec::new());
    let mut k = 0u64;
    while started.elapsed().as_secs_f64() < seconds {
        let config = campaign_config(seed, k, WORKERS);
        let t = Instant::now();
        let report = fuzz(&config)?;
        let ms = ms_since(t);
        latencies.push(ms);
        rates.push(report.missions.len() as f64 * 1e3 / ms);
        release_free_memory();
        check_report(&mut out, &config, &report);
        out.attempted += (report.missions.len() + report.failures.len()) as u64;
        out.failed += report.failures.len() as u64;
        k += 1;
    }
    out.push("ops_per_s", median(&rates), "1/s");
    out.push("request_p50_ms", median(&latencies), "ms");
    out.push("setup_s", setup_s, "s");
    Ok(out)
}

/// Sums the physics steps of every run it observes.
#[derive(Default)]
struct StepCounter(AtomicU64);

impl SimObserver for StepCounter {
    fn on_run_end(&self, stats: &RunStats) {
        self.0.fetch_add(stats.physics_steps, Ordering::Relaxed);
    }
}

/// Accumulated per-layer timings and counts of the re-drive.
#[derive(Default)]
struct Ledger {
    missions: usize,
    successes: usize,
    baseline_ms: f64,
    skip_ms: f64,
    plain_ms: f64,
    schedule_ms: f64,
    search_ms: f64,
    fresh_ms: f64,
    fresh: usize,
    forked_ms: f64,
    forked: usize,
    seeds: usize,
    ring_len: usize,
    prefix_steps_saved: u64,
    baseline_skips: u64,
}

/// The traced run: each campaign on one worker, then the re-drive of every
/// mission it fuzzed, alternating until the run has lasted `seconds`.
fn traced(seed: u64, seconds: f64, mut out: Outcome) -> Result<Outcome, String> {
    let probe_steps = StepCounter::default();
    let mut ledger = Ledger::default();
    let (mut campaign_s, mut redrive_s) = (0.0, 0.0);
    let started = Instant::now();
    let mut k = 0u64;
    while started.elapsed().as_secs_f64() < seconds {
        let config = campaign_config(seed, k, 1);
        let t = Instant::now();
        let report = fuzz(&config)?;
        campaign_s += t.elapsed().as_secs_f64();
        check_report(&mut out, &config, &report);
        out.attempted += report.missions.len() as u64;
        out.failed += report.failures.len() as u64;
        for mission in &report.missions {
            let t = Instant::now();
            let plain_ms = redrive(&mut out, &mut ledger, &probe_steps, &config, mission)?;
            redrive_s += t.elapsed().as_secs_f64() - plain_ms / 1e3;
        }
        k += 1;
    }

    let l = &ledger;
    let missions = l.missions.max(1) as f64;
    let probes = (l.fresh + l.forked).max(1) as f64;
    let probe_ms = l.fresh_ms + l.forked_ms;
    let search_self_ms = l.search_ms - probe_ms;
    let total_ms = l.baseline_ms + l.skip_ms + l.schedule_ms + search_self_ms + probe_ms;
    out.layer("sim.baseline_ms", l.baseline_ms / missions);
    out.layer("sim.fresh_probe_ms", l.fresh_ms / l.fresh.max(1) as f64);
    out.layer("sim.forked_probe_ms", l.forked_ms / l.forked.max(1) as f64);
    out.layer("snapshot.capture_overhead_ms", (l.baseline_ms - l.plain_ms) / missions);
    out.layer("snapshot.ring_len", l.ring_len as f64 / missions);
    out.layer("snapshot.fork_hit_ratio", l.forked as f64 / probes);
    let steps = probe_steps.0.load(Ordering::Relaxed).max(1);
    out.layer("snapshot.prefix_steps_saved_frac", l.prefix_steps_saved as f64 / steps as f64);
    out.layer("schedule.ms_per_mission", l.schedule_ms / missions);
    out.layer("search.self_ms_per_seed", search_self_ms / l.seeds.max(1) as f64);
    out.layer("search.probes_per_mission", (l.fresh + l.forked) as f64 / missions);
    out.layer("search.seeds_tried_per_mission", l.seeds as f64 / missions);
    out.layer("search.success_ratio", l.successes as f64 / missions);
    out.layer("campaign.baseline_skips", l.baseline_skips as f64 / missions);
    out.layer("campaign.share.baseline", (l.baseline_ms + l.skip_ms) / total_ms);
    out.layer("campaign.share.schedule", l.schedule_ms / total_ms);
    out.layer("campaign.share.search_self", search_self_ms / total_ms);
    out.layer("campaign.share.probe_sim", probe_ms / total_ms);
    out.layer("trace.overhead_frac", redrive_s / campaign_s - 1.0);
    Ok(out)
}

/// A no-attack run capturing the fuzzer's snapshot ring.
fn baseline_with_ring(
    sim: &Simulation<VasarhelyiController>,
) -> Result<(MissionOutcome, SnapshotRing), FuzzError> {
    let ring = RefCell::new(SnapshotRing::new(sim.spec().steps_per_gps()));
    let outcome = sim.run_observed_with_snapshots(
        None,
        None,
        |step| ring.borrow().wants(step),
        |snap| ring.borrow_mut().push(snap),
    )?;
    Ok((outcome, ring.into_inner()))
}

/// Re-drives one mission through the fuzzer's public pieces, timing each
/// layer, and checks the result against the campaign's. Returns the time
/// of the extra plain baseline run, which is not part of the re-drive.
fn redrive(
    out: &mut Outcome,
    ledger: &mut Ledger,
    probe_steps: &StepCounter,
    config: &CampaignConfig,
    mission: &MissionResult,
) -> Result<f64, String> {
    let err = |e: FuzzError| format!("re-drive of mission {}: {e}", mission.mission_seed);
    let swarm = mission.config;
    let fuzzer = FuzzerConfig::swarmfuzz(swarm.deviation);
    let spec = campaign_mission(swarm, mission.mission_seed);
    let sim = Simulation::new(spec.clone(), controller()).map_err(|e| err(e.into()))?;

    // Seeds the campaign skipped because their baseline collided: from the
    // mission's first candidate seed up to the one it flew. Each is flown
    // again and must collide.
    let first_seed = (0..config.missions_per_config)
        .map(|index| mission_base_seed(config.base_seed, swarm, index))
        .min_by_key(|&start| mission.mission_seed.wrapping_sub(start))
        .unwrap_or(mission.mission_seed);
    let mut skipped = first_seed;
    while skipped != mission.mission_seed {
        let t = Instant::now();
        let sim = Simulation::new(campaign_mission(swarm, skipped), controller())
            .map_err(|e| err(e.into()))?;
        let collided = baseline_with_ring(&sim).map_err(err)?.0.first_collision().is_some();
        ledger.skip_ms += ms_since(t);
        ledger.baseline_skips += 1;
        out.check(collided, || format!("skipped seed {skipped} flies its baseline cleanly"));
        skipped = skipped.wrapping_add(1);
    }

    // 1. Baseline with its snapshot ring, and a plain run for comparison.
    let t = Instant::now();
    let (baseline, ring) = baseline_with_ring(&sim).map_err(err)?;
    let cache = MissionCache::from_ring(baseline.record, ring);
    ledger.baseline_ms += ms_since(t);
    let t = Instant::now();
    sim.run(None).map_err(|e| err(e.into()))?;
    let plain_ms = ms_since(t);
    ledger.plain_ms += plain_ms;
    ledger.ring_len += cache.ring_len();
    let record = cache.baseline();
    let (_, vdo) = record.mission_vdo().ok_or_else(|| err(FuzzError::NoObstacle))?;

    // 2. Seed scheduling.
    let t = Instant::now();
    let pool = svg_schedule(&controller(), &spec, record, swarm.deviation).map_err(err)?;
    let pool = expand_waveforms(pool, WaveformSet::CONSTANT_ONLY);
    ledger.schedule_ms += ms_since(t);

    // 3. Gradient search per seed under the mission's budget, with a timer
    // around every probe.
    let t_mission = record.duration();
    let (mut evaluations, mut seeds_tried, mut finding) = (0usize, 0usize, None);
    let search_started = Instant::now();
    for seed in pool.iter() {
        if evaluations >= fuzzer.eval_budget {
            break;
        }
        seeds_tried += 1;
        let budget = fuzzer.eval_budget - evaluations;
        let objective = Objective::new(&sim, *seed, swarm.deviation).with_observer(probe_steps);
        let mut probe = |ts: f64, dt: f64| -> Result<Evaluation, FuzzError> {
            let t = Instant::now();
            if let Some(snap) = cache.newest_admitting(ts.max(0.0)) {
                ledger.prefix_steps_saved += snap.stats().physics_steps;
                let prefix = sim.prefix_record(snap, cache.baseline())?;
                let e = objective.evaluate_forked(snap, prefix, ts, dt);
                ledger.forked += 1;
                ledger.forked_ms += ms_since(t);
                e
            } else {
                let e = objective.evaluate(ts, dt);
                ledger.fresh += 1;
                ledger.fresh_ms += ms_since(t);
                e
            }
        };
        // The fuzzer's two-start search: from the VDO-led guess, then from
        // an earlier, longer window with what remains of the budget.
        let t_close = record.vdo_time(seed.victim).unwrap_or(t_mission / 2.0);
        let first_start = ((t_close - fuzzer.lead_time).max(0.0), fuzzer.initial_duration);
        let second_start =
            ((t_close - 1.6 * fuzzer.lead_time).max(0.0), 1.5 * fuzzer.initial_duration);
        let gradient = GradientConfig::default();
        let first =
            gradient_search(&mut probe, first_start, budget, t_mission, &gradient).map_err(err)?;
        let result = if first.success.is_some() || first.evaluations >= budget {
            first
        } else {
            let second = gradient_search(
                &mut probe,
                second_start,
                budget - first.evaluations,
                t_mission,
                &gradient,
            )
            .map_err(err)?;
            SearchResult { evaluations: first.evaluations + second.evaluations, ..second }
        };
        evaluations += result.evaluations;
        if let Some(s) = result.success {
            finding = Some(SpvFinding {
                seed: *seed,
                start: s.start,
                duration: s.duration,
                deviation: swarm.deviation,
                actual_victim: s.victim,
                collision_time: s.collision_time,
                waveform: Waveform::Constant,
            });
            break;
        }
    }
    ledger.search_ms += ms_since(search_started);
    ledger.seeds += seeds_tried;
    ledger.missions += 1;
    ledger.successes += usize::from(finding.is_some());

    let same = mission.success == finding.is_some()
        && mission.evaluations == evaluations
        && mission.seeds_tried == seeds_tried
        && mission.finding == finding
        && mission.vdo == vdo;
    out.check(same, || {
        format!(
            "re-drive of mission {} diverged: campaign ({}, {}, {}, {:?}), re-drive ({}, {}, {}, \
             {finding:?})",
            mission.mission_seed,
            mission.success,
            mission.evaluations,
            mission.seeds_tried,
            mission.finding,
            finding.is_some(),
            evaluations,
            seeds_tried
        )
    });
    Ok(plain_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn different_seeds_generate_different_campaigns() {
        let a: Vec<u64> = (0..4).map(|k| campaign_config(1, k, WORKERS).base_seed).collect();
        let b: Vec<u64> = (0..4).map(|k| campaign_config(2, k, WORKERS).base_seed).collect();
        assert!(a.iter().all(|s| !b.contains(s)));
        assert_eq!(a[0], campaign_config(1, 0, WORKERS).base_seed);
    }
}
