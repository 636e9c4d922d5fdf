//! Differential gate for the obstacle-horizon stop of search probes.
//!
//! A search probe ([`Simulation::run_probe`], or [`Simulation::resume_probe`]
//! when forked) ends once its spoofing window has closed,
//! `max_neighbor_age` more has passed and every drone is past the obstacle.
//! The rule is empirical — a drone past the obstacle could in principle
//! turn back — so this suite checks it on every probe the pinned campaigns
//! fly: the paper grid (`CampaignConfig::paper_grid(4, 0xC0FFEE)`) under
//! SwarmFuzz, the four-class attack zoo and R/G/S_Fuzz, each with snapshots
//! on and off. For each harvested probe:
//!
//! * the fresh horizon run's record is a prefix of the whole run's, with the
//!   same first collision and every drone's same closest obstacle distance;
//! * the forked horizon run equals the fresh one, record and run stats;
//! * [`Objective::classify`] gives the fresh and the forked horizon run the
//!   [`Evaluation`] it gives the whole run;
//! * the value and verdict the campaign traced equal the whole run's too.
//!   Those came from `Objective::evaluate_shaped` with snapshots off and
//!   `Objective::evaluate_shaped_forked` with snapshots on, so this covers
//!   the objective's own probe entry points.
//!
//! A mismatch here means the stopping rule is too loose: tighten the rule,
//! never this suite.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use swarm_control::{VasarhelyiController, VasarhelyiParams};
use swarm_sim::recorder::MissionRecord;
use swarm_sim::spoof::{SpoofDirection, WaveformKind, WaveformSet};
use swarm_sim::{DroneId, RunStats, SimObserver, Simulation};
use swarmfuzz::campaign::{
    campaign_mission, run_campaign_with_options, CampaignConfig, CampaignRunOptions, SwarmConfig,
};
use swarmfuzz::objective::{Evaluation, Objective};
use swarmfuzz::trace::RingSink;
use swarmfuzz::{Fuzzer, FuzzerConfig, MissionCache, Seed, SnapshotRing, Trace, TraceEvent};

fn controller() -> VasarhelyiController {
    VasarhelyiController::new(VasarhelyiParams::default())
}

/// One probe as the campaign flew it, with the value and verdict it traced.
#[derive(Debug, Clone, Copy)]
struct Probe {
    seed: Seed,
    ts: f64,
    dt: f64,
    shape: Option<f64>,
    value: f64,
    success: bool,
}

impl Probe {
    /// Identity of the probe within its mission: seed, window and shape.
    fn key(&self) -> (usize, usize, i8, &'static str, u64, u64, Option<u64>) {
        let s = &self.seed;
        (
            s.target.index(),
            s.victim.index(),
            s.direction.theta(),
            s.waveform.name(),
            self.ts.to_bits(),
            self.dt.to_bits(),
            self.shape.map(f64::to_bits),
        )
    }
}

/// A campaign mission: its grid cell's swarm size and deviation bits, and
/// the mission seed it flew.
type MissionKey = (usize, u64, u64);

/// A fuzzer variant's configuration for a spoofing deviation.
type MakeConfig = fn(f64) -> FuzzerConfig;

/// Runs the paper grid under `config`'s fuzzer and harvests every probe it
/// traced, by mission, in flight order.
fn harvest(config: MakeConfig, snapshots: bool) -> BTreeMap<MissionKey, Vec<Probe>> {
    let ring = Arc::new(RingSink::new(1 << 20));
    let campaign = CampaignConfig { workers: 2, ..CampaignConfig::paper_grid(4, 0xC0FFEE) };
    let make = |deviation| Fuzzer::new(controller(), config(deviation)).with_snapshots(snapshots);
    run_campaign_with_options(
        &campaign,
        make,
        &CampaignRunOptions::default(),
        &Trace::new(ring.clone()),
    )
    .expect("campaign runs");
    assert_eq!(ring.dropped(), 0, "the ring must hold the whole trace");

    let mut records = ring.records();
    records.sort_by_key(|r| (r.key.swarm_size, r.key.deviation_bits, r.key.index, r.key.seq));
    let mut probes: BTreeMap<MissionKey, Vec<Probe>> = BTreeMap::new();
    let (mut mission_seed, mut seed) = (None, None);
    for record in records {
        match record.event {
            TraceEvent::MissionStart { mission_seed: s } => mission_seed = Some(s),
            TraceEvent::SeedStart { target, victim, theta, waveform, .. } => {
                seed = Some(Seed {
                    target: DroneId(target),
                    victim: DroneId(victim),
                    direction: if theta > 0 { SpoofDirection::Right } else { SpoofDirection::Left },
                    influence: 0.0,
                    victim_vdo: 0.0,
                    waveform: WaveformKind::parse(&waveform).expect("traced class parses"),
                });
            }
            TraceEvent::Probe { ts, dt, shape, value, success, .. } => {
                let mission = (
                    record.key.swarm_size as usize,
                    record.key.deviation_bits,
                    mission_seed.unwrap(),
                );
                let seed = seed.expect("a probe follows its seed");
                probes.entry(mission).or_default().push(Probe {
                    seed,
                    ts,
                    dt,
                    shape,
                    value,
                    success,
                });
            }
            _ => {}
        }
    }
    probes
}

/// Captures the stats of the one run it observes.
#[derive(Default)]
struct LastRun(Mutex<Option<RunStats>>);

impl SimObserver for LastRun {
    fn on_run_end(&self, stats: &RunStats) {
        *self.0.lock().unwrap() = Some(*stats);
    }
}

impl LastRun {
    fn stats(&self) -> RunStats {
        self.0.lock().unwrap().expect("observer called")
    }
}

/// `Ok` when `probe` is a prefix of `whole` with the same first collision,
/// every drone's same closest obstacle distance (and its time) and no
/// arrival `whole` lacks.
fn check_prefix(probe: &MissionRecord, whole: &MissionRecord) -> Result<(), String> {
    if probe.len() > whole.len() {
        return Err(format!("probe flew {} ticks, whole run {}", probe.len(), whole.len()));
    }
    for tick in 0..probe.len() {
        if probe.times()[tick] != whole.times()[tick]
            || probe.positions_at(tick) != whole.positions_at(tick)
            || probe.velocities_at(tick) != whole.velocities_at(tick)
        {
            return Err(format!("tick {tick} differs from the whole run"));
        }
    }
    if probe.collisions().first() != whole.collisions().first() {
        return Err(format!(
            "first collision {:?}, whole run {:?}",
            probe.collisions().first(),
            whole.collisions().first()
        ));
    }
    for d in (0..whole.swarm_size()).map(DroneId) {
        let (p, w) = (probe.vdo(d), whole.vdo(d));
        if p.map(f64::to_bits) != w.map(f64::to_bits) || probe.vdo_time(d) != whole.vdo_time(d) {
            return Err(format!(
                "drone {}: closest obstacle distance {p:?}, whole run {w:?}",
                d.index()
            ));
        }
        if probe.arrival_time(d).is_some_and(|t| whole.arrival_time(d) != Some(t)) {
            return Err(format!("drone {} arrives only in the probe", d.index()));
        }
    }
    Ok(())
}

/// `Ok` when two evaluations agree, the value to the bit.
fn check_same(what: &str, got: &Evaluation, want: &Evaluation) -> Result<(), String> {
    if got == want && got.value.to_bits() == want.value.to_bits() {
        Ok(())
    } else {
        Err(format!("{what} evaluation {got:?}, whole run {want:?}"))
    }
}

/// Tallies of one mission's checks.
#[derive(Debug, Default)]
struct Tally {
    probes: usize,
    horizon_stops: usize,
    forked: usize,
    mismatches: Vec<String>,
}

/// Checks every probe of one mission against its whole run.
fn check_mission((size, deviation_bits, mission_seed): MissionKey, probes: &[Probe]) -> Tally {
    let config = SwarmConfig { swarm_size: size, deviation: f64::from_bits(deviation_bits) };
    let spec = campaign_mission(config, mission_seed);
    let sim = Simulation::new(spec.clone(), controller()).expect("valid mission");
    let ring = RefCell::new(SnapshotRing::new(spec.steps_per_gps()));
    let baseline = sim
        .run_observed_with_snapshots(
            None,
            None,
            |step| ring.borrow().wants(step),
            |snap| ring.borrow_mut().push(snap),
        )
        .expect("baseline flies");
    let cache = MissionCache::from_ring(baseline.record, ring.into_inner());

    let mut tally = Tally::default();
    for probe in probes {
        let objective = Objective::new(&sim, probe.seed, config.deviation);
        let (ts, dt) = (probe.ts.max(0.0), probe.dt.max(0.0));
        let checked = (|| -> Result<(), String> {
            let attack = objective.attack(ts, dt, probe.shape).map_err(|e| e.to_string())?;
            let whole = sim.run(Some(&attack)).map_err(|e| e.to_string())?;
            let want = objective.classify(&whole, ts, dt);
            if want.value.to_bits() != probe.value.to_bits() || want.is_success() != probe.success {
                return Err(format!(
                    "campaign traced value {} success {}, whole run {want:?}",
                    probe.value, probe.success
                ));
            }

            let fresh_stats = LastRun::default();
            let fresh = sim.run_probe(&attack, Some(&fresh_stats)).map_err(|e| e.to_string())?;
            check_prefix(&fresh.record, &whole.record)?;
            tally.horizon_stops += fresh_stats.stats().horizon_stops as usize;
            check_same("fresh", &objective.classify(&fresh, ts, dt), &want)?;

            if let Some(snap) = cache.newest_admitting(ts) {
                tally.forked += 1;
                let prefix =
                    sim.prefix_record(snap, cache.baseline()).map_err(|e| e.to_string())?;
                let forked_stats = LastRun::default();
                let forked = sim
                    .resume_probe(snap, prefix, &attack, Some(&forked_stats))
                    .map_err(|e| e.to_string())?;
                if forked.record != fresh.record || forked_stats.stats() != fresh_stats.stats() {
                    return Err("forked probe differs from the fresh probe".into());
                }
                check_same("forked", &objective.classify(&forked, ts, dt), &want)?;
            }
            Ok(())
        })();
        tally.probes += 1;
        if let Err(e) = checked {
            tally.mismatches.push(format!(
                "{}d-{}m mission {mission_seed}, {:?} ts={} dt={} shape={:?}: {e}",
                size, config.deviation, probe.seed, probe.ts, probe.dt, probe.shape
            ));
        }
    }
    tally
}

#[test]
fn horizon_probes_match_whole_missions_on_every_pinned_campaign_probe() {
    let variants: [(&str, MakeConfig); 5] = [
        ("SwarmFuzz", FuzzerConfig::swarmfuzz),
        ("zoo", |d| FuzzerConfig::swarmfuzz(d).with_waveforms(WaveformSet::all())),
        ("R_Fuzz", FuzzerConfig::r_fuzz),
        ("G_Fuzz", FuzzerConfig::g_fuzz),
        ("S_Fuzz", FuzzerConfig::s_fuzz),
    ];

    // Union of every variant's probes, with snapshots on and off, deduped
    // per mission.
    let mut unique: BTreeMap<MissionKey, BTreeMap<_, Probe>> = BTreeMap::new();
    let mut harvested = 0usize;
    for (name, config) in variants {
        let on = harvest(config, true);
        let off = harvest(config, false);
        let flat = |h: &BTreeMap<MissionKey, Vec<Probe>>| {
            h.iter()
                .flat_map(|(m, ps)| {
                    ps.iter().map(move |p| (*m, p.key(), p.value.to_bits(), p.success))
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(flat(&on), flat(&off), "{name}: snapshots on and off must fly the same probes");
        for (mission, probes) in on.into_iter().chain(off) {
            harvested += probes.len();
            let slot = unique.entry(mission).or_default();
            for probe in probes {
                slot.entry(probe.key()).or_insert(probe);
            }
        }
    }
    let missions: Vec<(MissionKey, Vec<Probe>)> =
        unique.into_iter().map(|(m, ps)| (m, ps.into_values().collect())).collect();

    // Two checkers split the missions.
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|lane| {
                let missions = &missions;
                scope.spawn(move || {
                    missions
                        .iter()
                        .skip(lane)
                        .step_by(2)
                        .map(|(m, ps)| check_mission(*m, ps))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("checker lane")).collect()
    });

    let probes: usize = tallies.iter().map(|t| t.probes).sum();
    let stops: usize = tallies.iter().map(|t| t.horizon_stops).sum();
    let forked: usize = tallies.iter().map(|t| t.forked).sum();
    let mismatches: Vec<&String> = tallies.iter().flat_map(|t| &t.mismatches).collect();
    println!(
        "{harvested} probes harvested, {probes} distinct over {} missions: {stops} stopped at \
         the horizon, {forked} also checked forked",
        missions.len()
    );
    assert!(
        mismatches.is_empty(),
        "{} of {probes} probes differ from their whole run; first: {:#?}",
        mismatches.len(),
        &mismatches[..mismatches.len().min(5)]
    );
    // The gate must exercise the stop: most paper-grid probes end at the
    // horizon, and most fork.
    assert!(2 * stops > probes, "only {stops} of {probes} probes stopped at the horizon");
    assert!(2 * forked > probes, "only {forked} of {probes} probes forked");
}
