//! `stress-n1000`: the per-tick step loop at scale — one
//! `scenario::large_swarm(1000, seed)` mission, no attack, default
//! `SimConfig`, one thread.
//!
//! At N = 1000 the spatial grid, comms delivery, the controller, the
//! recorder and the dynamics dominate; the fuzzer and service layers do no
//! work, so a change to them should not move this workload.
//!
//! The timed run flies the mission back to back and checks that every
//! flight record is identical. The traced run flies it once more and
//! replays each stage's public kernel on the flight's recorded mid-mission
//! state.

use std::sync::Mutex;
use std::time::Instant;

use swarm_control::VasarhelyiController;
use swarm_math::rng::{derive_seed, rng_for, streams};
use swarm_math::Vec3;
use swarm_sim::comms::{CommsBus, StateMessage};
use swarm_sim::dynamics::{DroneState, Dynamics, PointMass};
use swarm_sim::mission::MissionSpec;
use swarm_sim::recorder::MissionRecord;
use swarm_sim::scenario::large_swarm;
use swarm_sim::sensors::GpsReceiver;
use swarm_sim::{
    ControlContext, DroneId, NeighborState, PerceivedSelf, RunStats, SimObserver, Simulation,
    SpatialGrid, SwarmController,
};

use crate::grid::controller;
use crate::report::Outcome;
use crate::stats::{median, median_secs, ms_since, per_call_ns};
use crate::PINNED_SEED;

/// Swarm size.
const DRONES: usize = 1000;

/// Simulated seconds of one timed mission.
const MISSION_S: f64 = 30.0;

/// Distinct swarm layouts (mission seeds) a timed run cycles through.
const MISSIONS: u64 = 8;

/// Simulated seconds of the pinned set-up flight.
const PINNED_MISSION_S: f64 = 1.0;

/// Flight-record digest of the pinned set-up flight.
const PINNED_DIGEST: u64 = 0x494e_22d9_1a36_8f5b;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Seconds each replayed kernel is timed for.
const KERNEL_BUDGET_S: f64 = 0.25;

fn mission(seed: u64, duration: f64) -> MissionSpec {
    let mut spec = large_swarm(DRONES, seed);
    spec.duration = duration;
    spec
}

/// Captures the run statistics of the last run it observed.
#[derive(Default)]
struct LastStats(Mutex<RunStats>);

impl SimObserver for LastStats {
    fn on_run_end(&self, stats: &RunStats) {
        *self.0.lock().expect("stats lock") = *stats;
    }
}

impl LastStats {
    fn get(&self) -> RunStats {
        *self.0.lock().expect("stats lock")
    }
}

/// A digest over every recorded sample, collision and arrival.
fn record_digest(record: &MissionRecord) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut word = |w: u64| h = (h ^ w).wrapping_mul(0x0100_0000_01b3);
    for tick in 0..record.len() {
        word(record.times()[tick].to_bits());
        for p in record.positions_at(tick).iter().chain(record.velocities_at(tick)) {
            word(p.x.to_bits());
            word(p.y.to_bits());
            word(p.z.to_bits());
        }
    }
    for c in record.collisions() {
        word(c.time.to_bits());
        for d in c.kind.drones() {
            word(d.index() as u64);
        }
    }
    for d in 0..record.swarm_size() {
        word(record.arrival_time(DroneId(d)).map_or(u64::MAX, f64::to_bits));
    }
    for &a in record.avg_inter_distances() {
        word(a.to_bits());
    }
    h
}

fn fly(
    sim: &Simulation<VasarhelyiController>,
    stats: Option<&LastStats>,
) -> Result<MissionRecord, String> {
    let observer = stats.map(|s| s as &dyn SimObserver);
    sim.run_observed(None, observer).map(|o| o.record).map_err(|e| format!("mission failed: {e}"))
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // Set-up: fly the pinned short flight and build the timed missions.
    let (setup_s, built) = median_secs(SETUP_REPEATS, || -> Result<_, String> {
        let pinned = Simulation::new(mission(PINNED_SEED, PINNED_MISSION_S), controller())
            .map_err(|e| e.to_string())?;
        let digest = record_digest(&fly(&pinned, None)?);
        let sim = |k| Simulation::new(mission(derive_seed(seed, k), MISSION_S), controller());
        let sims =
            (0..MISSIONS).map(sim).collect::<Result<Vec<_>, _>>().map_err(|e| e.to_string())?;
        Ok((digest, sims))
    });
    let (digest, sims) = built?;
    out.check(digest == PINNED_DIGEST, || {
        format!("pinned flight digest {digest:016x}, expected {PINNED_DIGEST:016x}")
    });

    if trace {
        return traced(&sims[0], seed, out);
    }

    // Missions back to back, cycling through the run's swarm layouts; the
    // throughput is the median of the missions' own rates.
    let stats = LastStats::default();
    let started = Instant::now();
    let (mut latencies, mut rates, mut first) = (Vec::new(), Vec::new(), None);
    for sim in sims.iter().cycle() {
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let t = Instant::now();
        let record = fly(sim, Some(&stats))?;
        let ms = ms_since(t);
        latencies.push(ms);
        rates.push(stats.get().physics_steps as f64 * 1e3 / ms);
        out.attempted += 1;
        out.check(record.collisions().is_empty(), || "a stress mission collided".into());
        first.get_or_insert_with(|| record_digest(&record));
    }
    // Determinism: the first mission, flown again, records the same flight.
    let again = record_digest(&fly(&sims[0], None)?);
    out.check(first == Some(again), || "the first mission flew differently the second time".into());
    out.push("ops_per_s", median(&rates), "1/s");
    out.push("request_p50_ms", median(&latencies), "ms");
    out.push("setup_s", setup_s, "s");
    Ok(out)
}

fn traced(
    sim: &Simulation<VasarhelyiController>,
    seed: u64,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let spec = sim.spec();
    let n = spec.swarm_size;
    let range = spec.comms.range.ok_or("the large-swarm scenario has no radio range")?;

    // The flight, untraced and then observed: the gap is the tracing cost.
    let t = Instant::now();
    let record = fly(sim, None)?;
    let plain_ms = ms_since(t);
    let observed = LastStats::default();
    let t = Instant::now();
    let again = fly(sim, Some(&observed))?;
    let observed_ms = ms_since(t);
    out.attempted += 2;
    out.check(record_digest(&record) == record_digest(&again), || "observed flight differs".into());
    let stats = observed.get();
    let steps = stats.physics_steps.max(1) as f64;
    let us_per_tick = observed_ms * 1e3 / steps;

    // The recorded mid-mission state every kernel replays on.
    let tick = record.len() / 2;
    let time = record.times()[tick];
    let positions = record.positions_at(tick).to_vec();
    let velocities = record.velocities_at(tick).to_vec();
    let obstacle_distances: Vec<f64> = positions
        .iter()
        .map(|&p| spec.world.nearest_obstacle(p).map_or(f64::INFINITY, |(_, d)| d))
        .collect();

    // Spatial index: the comms grid (cell = radio range, rebuilt every
    // control tick) and the collision broad phase (cell = inflated
    // collision diameter, rebuilt lazily).
    let mut grid = SpatialGrid::build(&[], range);
    let rebuild_ns = per_call_ns(10, KERNEL_BUDGET_S, || grid.rebuild(&positions, range));
    let diameter = 2.0 * spec.drone.radius;
    let slack = (2.0 * spec.steps_per_control() as f64 * spec.drone.max_speed * spec.physics_dt)
        .max(diameter);
    let broad = diameter + slack;
    let mut proximity = SpatialGrid::build(&[], broad);
    let mut pairs = Vec::new();
    let close_pairs_ns = per_call_ns(5, KERNEL_BUDGET_S, || {
        proximity.rebuild(&positions, broad);
        proximity.close_pairs(broad, &mut pairs);
    });
    let mut found = Vec::new();
    let within_ns = per_call_ns(2, KERNEL_BUDGET_S, || {
        for &p in &positions {
            grid.within_into(p, range, &mut found);
        }
    });

    // Comms delivery of one tick's broadcasts through the grid.
    let broadcasts: Vec<StateMessage> = (0..n)
        .map(|d| StateMessage {
            sender: DroneId(d),
            position: positions[d],
            velocity: velocities[d],
            time,
        })
        .collect();
    let mut bus = CommsBus::new(n, spec.comms);
    let mut rng = rng_for(seed, streams::COMMS);
    let mut comms_error = None;
    let deliver_ns = per_call_ns(2, KERNEL_BUDGET_S, || {
        if let Err(e) = bus.step_indexed(broadcasts.clone(), &positions, Some(&grid), &mut rng) {
            comms_error = Some(e);
        }
    });
    if let Some(e) = comms_error {
        return Err(format!("comms replay failed: {e}"));
    }
    let neighbors: Vec<Vec<NeighborState>> = (0..n)
        .map(|d| {
            bus.neighbors_of(DroneId(d))
                .map(|msg| NeighborState {
                    id: msg.sender,
                    position: msg.position,
                    velocity: msg.velocity,
                    age: time - msg.time,
                })
                .filter(|s| s.age <= spec.max_neighbor_age)
                .collect()
        })
        .collect();
    let heard: usize = neighbors.iter().map(Vec::len).sum();

    // Controller over every drone's context.
    let controller = sim.controller();
    let mut commands = vec![Vec3::ZERO; n];
    let control_ns = per_call_ns(1, KERNEL_BUDGET_S, || {
        for d in 0..n {
            let ctx = ControlContext {
                id: DroneId(d),
                self_state: PerceivedSelf { position: positions[d], velocity: velocities[d] },
                neighbors: &neighbors[d],
                world: &spec.world,
                destination: spec.destination,
                time,
            };
            commands[d] = controller.desired_velocity(&ctx);
        }
    }) / n as f64;

    // GPS sampling and point-mass integration of every drone.
    let mut receivers = vec![GpsReceiver::new(spec.gps); n];
    let mut gps_rng = rng_for(seed, streams::GPS_NOISE);
    let gps_ns = per_call_ns(5, KERNEL_BUDGET_S, || {
        for d in 0..n {
            receivers[d].sample(positions[d], velocities[d], Vec3::ZERO, time, &mut gps_rng);
        }
    }) / n as f64;
    let mut model = PointMass::new(spec.drone);
    let states: Vec<DroneState> = (0..n)
        .map(|d| DroneState {
            position: positions[d],
            velocity: velocities[d],
            ..Default::default()
        })
        .collect();
    let mut next = states.clone();
    let dynamics_ns = per_call_ns(10, KERNEL_BUDGET_S, || {
        for d in 0..n {
            next[d] = model.step(&states[d], commands[d], spec.physics_dt);
        }
    }) / n as f64;
    std::hint::black_box(&next);

    // One recorder sample.
    let mut sink = MissionRecord::new(n, spec.control_period);
    let push_ns = per_call_ns(1, KERNEL_BUDGET_S, || {
        sink.push_sample(time, &positions, &velocities, &obstacle_distances);
    });
    drop(sink);

    // Stage cost per physics step, weighted by how often each stage ran.
    let control_rate = stats.control_ticks as f64 / steps;
    let gps_rate = stats.gps_rounds as f64 / steps;
    let broad_rate = stats.grid_rebuilds.saturating_sub(stats.control_ticks) as f64 / steps;
    let per_control_ns = rebuild_ns + deliver_ns + n as f64 * control_ns + push_ns;
    let replayed_ns = control_rate * per_control_ns
        + gps_rate * n as f64 * gps_ns
        + n as f64 * dynamics_ns
        + broad_rate * close_pairs_ns;

    out.layer("spatial.rebuild_us", rebuild_ns / 1e3);
    out.layer("spatial.close_pairs_us", close_pairs_ns / 1e3);
    out.layer("spatial.within_us_per_tick", within_ns / 1e3);
    out.layer("spatial.cells_scanned_per_tick", stats.grid_cells_scanned as f64 / steps);
    out.layer("spatial.rebuilds_per_tick", stats.grid_rebuilds as f64 / steps);
    out.layer("comms.deliver_us_per_tick", deliver_ns / 1e3);
    out.layer("comms.messages_per_tick", heard as f64);
    out.layer("control.desired_velocity_ns", control_ns);
    out.layer("control.neighbors_per_drone", heard as f64 / n as f64);
    out.layer("sensors.gps_sample_ns", gps_ns);
    out.layer("dynamics.step_ns", dynamics_ns);
    out.layer("recorder.push_sample_us", push_ns / 1e3);
    out.layer("recorder.bytes_per_sample", (16 + 48 * n) as f64);
    out.layer("sim.physics_steps", stats.physics_steps as f64);
    out.layer("sim.stage_coverage", replayed_ns / 1e3 / us_per_tick);
    out.layer("trace.overhead_frac", observed_ms / plain_ms - 1.0);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn different_seeds_generate_different_swarms() {
        let layout = |seed| mission(derive_seed(seed, 0), MISSION_S).initial_positions();
        assert_ne!(layout(1), layout(2));
        assert_eq!(layout(1), layout(1));
    }
}
