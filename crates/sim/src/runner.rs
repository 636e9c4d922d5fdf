//! The fixed-step simulation loop.
//!
//! [`Simulation`] glues together the pieces of the distributed swarm workflow
//! (Fig. 1 of the paper): each drone (1) reads its sensors (GPS, possibly
//! spoofed), (2) broadcasts its perceived state over the [`crate::comms`]
//! bus, (3) computes state differences from its neighbor table and (4)
//! derives its own control command via a [`SwarmController`]. Physics runs at
//! `physics_dt` (default 10 ms) while control and communication run at the
//! control period (default 100 ms), mirroring SwarmLab.
//!
//! The loop is fully deterministic for a given [`MissionSpec`] and attack.
//!
//! ## Snapshot and fork
//!
//! The loop's entire evolving state lives in one private `SimState` value,
//! which a [`SimSnapshot`] holds verbatim beside the recorder cursor.
//! [`Simulation::run_observed_with_snapshots`] captures snapshots along a
//! run, [`Simulation::prefix_record`] rebuilds a snapshot's prefix record
//! from that run's record, and [`Simulation::resume_probe`] forks a search
//! probe from it under an attack whose window opens after the snapshot
//! point. Because a spoofing attack only enters the loop through the GPS
//! offsets sampled inside its half-open window `[t_s, t_s + Δt)`, the forked
//! probe is bit-identical to [`Simulation::run_probe`] flying it from scratch
//! (proven by `tests/snapshot_equivalence.rs`).
//!
//! ## Search probes
//!
//! [`Simulation::run_probe`] and [`Simulation::resume_probe`] fly one
//! attacked search probe, fresh or forked. They end the run at the *obstacle
//! horizon*: the first control tick at which the spoofing window has closed,
//! `max_neighbor_age` more has passed, and every live drone is past every
//! obstacle along the mission axis. From there on no drone's closest
//! obstacle distance and no first collision changed on any probe of the
//! pinned campaigns (`tests/horizon_equivalence.rs`), and those are the only
//! figures the fuzzer's objective reads. Every other entry point flies the
//! whole mission.

use rand::rngs::StdRng;
use swarm_math::rng::{rng_for, streams};
use swarm_math::{Vec2, Vec3};

use crate::comms::{CommsBus, StateMessage};
use crate::dynamics::{DroneState, Dynamics, PointMass};
use crate::mission::MissionSpec;
use crate::recorder::MissionRecord;
use crate::sensors::GpsReceiver;
use crate::spatial::{SpatialGrid, SpatialPolicy};
use crate::spoof::SpoofingAttack;
use crate::wind::Wind;
use crate::world::World;
use crate::{CollisionEvent, CollisionKind, DroneId, SimError};

/// A drone's own perceived (GPS-derived) state, as fed to its controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerceivedSelf {
    /// Perceived position (true + noise + spoofing offset).
    pub position: Vec3,
    /// Perceived velocity.
    pub velocity: Vec3,
}

/// The last state heard from a neighbor over the communication bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighborState {
    /// The neighbor's id.
    pub id: DroneId,
    /// The neighbor's broadcast (perceived) position.
    pub position: Vec3,
    /// The neighbor's broadcast velocity.
    pub velocity: Vec3,
    /// Age of the information in seconds (0 = this tick).
    pub age: f64,
}

/// Everything a swarm controller may base its command on. Note that true
/// world-frame states are deliberately absent: controllers only ever see
/// perceived/broadcast information, which is what makes GPS spoofing
/// propagate through the swarm.
#[derive(Debug)]
pub struct ControlContext<'a> {
    /// The drone being controlled.
    pub id: DroneId,
    /// Its own perceived state.
    pub self_state: PerceivedSelf,
    /// Latest known neighbor states (stale entries already filtered).
    pub neighbors: &'a [NeighborState],
    /// The static environment.
    pub world: &'a World,
    /// Mission destination.
    pub destination: Vec3,
    /// Current simulation time in seconds.
    pub time: f64,
}

/// A decentralized swarm control algorithm.
///
/// Implementations must be pure functions of the context (all mutable state,
/// e.g. filters, would break the determinism and re-entrancy the fuzzer
/// relies on; none of the implemented algorithms need any).
pub trait SwarmController: Sync {
    /// The velocity command for one drone at one control tick.
    fn desired_velocity(&self, ctx: &ControlContext<'_>) -> Vec3;
}

impl<T: SwarmController + ?Sized> SwarmController for &T {
    fn desired_velocity(&self, ctx: &ControlContext<'_>) -> Vec3 {
        (**self).desired_velocity(ctx)
    }
}

/// Aggregate counts of one simulated mission, delivered to a [`SimObserver`]
/// in a single batch when the run ends.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunStats {
    /// Physics integration steps executed (per mission, not per drone).
    pub physics_steps: u64,
    /// Control/communication ticks executed.
    pub control_ticks: u64,
    /// GPS sampling rounds executed.
    pub gps_rounds: u64,
    /// Simulated time actually covered, in seconds: the mission duration,
    /// or the time of the first collision, of the all-arrived stop or (for a
    /// search probe) of the obstacle-horizon stop.
    pub sim_time: f64,
    /// Spatial-grid rebuilds: the comms index once per control tick when
    /// comms use the grid, plus each lazy re-index of the collision broad
    /// phase. 0 under [`SpatialPolicy::ForceOff`].
    pub grid_rebuilds: u64,
    /// Grid cells probed across all neighbor/pair queries. 0 under
    /// [`SpatialPolicy::ForceOff`].
    pub grid_cells_scanned: u64,
    /// 1 when a search probe ended at the obstacle horizon, else 0.
    pub horizon_stops: u64,
}

/// Passive observer of simulation runs, for telemetry.
///
/// Counts are accumulated in plain locals inside the hot loop and reported
/// once per run through [`SimObserver::on_run_end`], so an observer costs one
/// virtual call per *mission* rather than per step. Observers must not
/// influence the simulation — [`Simulation::run_observed`] produces the same
/// [`MissionOutcome`] with or without one.
///
/// A forked probe ([`Simulation::resume_probe`]) reports the stats of the
/// *whole* run — prefix included — because the snapshot carries the prefix's
/// counters and the forked loop keeps incrementing them. Observers therefore
/// see identical stats whether a probe was forked or flown from scratch.
pub trait SimObserver: Sync {
    /// Called once when a mission run finishes.
    fn on_run_end(&self, stats: &RunStats);
}

/// Runtime options of the simulation loop. The loop always stops at the
/// first collision (the fuzzer's objective is already decided there) and
/// once every drone has reached the destination; a search probe
/// ([`Simulation::run_probe`], [`Simulation::resume_probe`]) also stops at
/// the obstacle horizon.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimConfig {
    /// Neighbor-engine selection: brute-force O(n²) scans vs the spatial
    /// grid. The default ([`SpatialPolicy::Auto`]) runs the lazy collision
    /// broad phase at every swarm size and grid comms for large swarms;
    /// every policy flies bit-identical missions.
    pub spatial: SpatialPolicy,
}

/// The outcome of one simulated mission.
#[derive(Debug, Clone, PartialEq)]
pub struct MissionOutcome {
    /// The full mission recording.
    pub record: MissionRecord,
}

impl MissionOutcome {
    /// The first collision of the mission, if any.
    pub fn first_collision(&self) -> Option<&CollisionEvent> {
        self.record.collisions().first()
    }

    /// `true` when the mission finished without any collision.
    pub fn collision_free(&self) -> bool {
        self.record.collisions().is_empty()
    }

    /// Checks the paper's SPV success criterion for an attack against
    /// `target`: the mission's *first* collision is some **other** drone (the
    /// victim) crashing into an obstacle. Collisions caused directly by the
    /// target (target–obstacle or any target-involved drone crash) do not
    /// count (§V-A, Success Metric).
    ///
    /// Returns the victim and the collision time when successful.
    pub fn spv_collision(&self, target: DroneId) -> Option<(DroneId, f64)> {
        match self.first_collision()? {
            CollisionEvent { time, kind: CollisionKind::DroneObstacle { drone, .. } }
                if *drone != target =>
            {
                Some((*drone, *time))
            }
            _ => None,
        }
    }
}

/// A point-in-time capture of every piece of evolving state inside the
/// mission loop, taken at the *top* of a physics step (before that step's
/// GPS sampling).
///
/// The capture is exhaustive by construction: it holds a clone of the one
/// private value the loop keeps all evolving state in — drone kinematic
/// states, GPS receiver warm state, the comms bus (in-flight queue and
/// per-drone delivery tables), the three per-stream RNG positions, the wind
/// gust state, alive flags, the persisted control commands, the run counters
/// and the lazy collision broad-phase cache (candidate pairs + displacement
/// anchor). Scratch buffers that the loop recomputes from scratch before
/// every use (true-position staging, neighbor staging, the two grid indexes)
/// are *not* state and are rebuilt on fork.
///
/// Instead of the full mission recording (which would dwarf the rest of the
/// snapshot), only the recorder *cursor* is kept: the number of samples taken
/// plus the arrival times of the prefix. A prefix never holds a collision:
/// the loop stops on the step that records the first one, and a snapshot is
/// captured only at the top of a step the loop is about to execute.
/// [`Simulation::prefix_record`] reconstructs the identical prefix record
/// from any source record of the same mission.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSnapshot {
    /// The loop's working state at the capture point.
    state: SimState,
    /// [`MissionSpec::fingerprint`] of the captured mission.
    spec_fingerprint: u64,
    /// The runtime options the prefix ran under.
    config: SimConfig,
    /// Physics step length, kept for time conversions without the spec.
    physics_dt: f64,
    /// Recorder cursor: samples recorded strictly before `state.next_step`.
    record_ticks: usize,
    /// Arrival time per drone as of the capture point.
    prefix_arrivals: Vec<Option<f64>>,
}

impl SimSnapshot {
    /// Index of the next physics step the snapshot would execute.
    pub fn next_step(&self) -> usize {
        self.state.next_step
    }

    /// Simulation time of the capture point in seconds.
    pub fn time(&self) -> f64 {
        self.state.next_step as f64 * self.physics_dt
    }

    /// Number of recorder samples taken before the capture point.
    pub fn record_ticks(&self) -> usize {
        self.record_ticks
    }

    /// The run counters accumulated over the prefix.
    pub fn stats(&self) -> &RunStats {
        &self.state.stats
    }

    /// `true` when a fork from this snapshot under an attack window opening
    /// at `start` is bit-identical to a fresh run: the attack's half-open
    /// window `[start, ..)` must not cover any GPS sample the prefix already
    /// took, i.e. every executed step's time must be strictly below `start`.
    pub fn admits_attack_start(&self, start: f64) -> bool {
        let next = self.state.next_step;
        next == 0 || (next - 1) as f64 * self.physics_dt < start
    }
}

/// A per-step hook into [`Simulation::drive`], called at the top of every
/// executed iteration (the exact state a [`SimSnapshot`] captures).
type StepHook<'a> = &'a mut dyn FnMut(&SimState, &MissionRecord);

/// The complete evolving state of one mission run, which a [`SimSnapshot`]
/// holds verbatim. Everything the loop mutates across iterations lives here;
/// buffers recomputed before every use stay local to [`Simulation::drive`].
#[derive(Debug, Clone, PartialEq)]
struct SimState {
    /// Next physics step to execute.
    next_step: usize,
    states: Vec<DroneState>,
    gps: Vec<GpsReceiver>,
    bus: CommsBus,
    rng_gps: StdRng,
    rng_comms: StdRng,
    rng_wind: StdRng,
    wind: Wind,
    alive: Vec<bool>,
    commanded: Vec<Vec3>,
    stats: RunStats,
    /// Lazy collision broad-phase: cached candidate pairs ...
    pair_buf: Vec<(DroneId, DroneId)>,
    /// ... and the positions they were indexed at (displacement guard).
    broad_anchor: Vec<Vec3>,
}

/// Per-run constants of the mission loop, hoisted once per run.
#[derive(Clone, Copy)]
struct LoopParams {
    n: usize,
    /// The point-mass model every drone is integrated with.
    model: PointMass,
    axis: Vec2,
    dt: f64,
    steps: usize,
    steps_per_control: usize,
    steps_per_gps: usize,
    comms_grid: bool,
    broad_phase: bool,
    comms_range: Option<f64>,
    collision_diameter: f64,
    broad_slack: f64,
    broad_radius: f64,
    /// Time from which a search probe may stop at the obstacle horizon;
    /// `None` flies the whole mission.
    horizon: Option<f64>,
}

impl LoopParams {
    fn of(spec: &MissionSpec, config: &SimConfig, horizon: Option<f64>) -> Self {
        let n = spec.swarm_size;
        let dt = spec.physics_dt;
        let steps_per_control = spec.steps_per_control();
        let collision_diameter = 2.0 * spec.drone.radius;
        // Inflating the broad-phase query radius by `broad_slack` lets the
        // candidate pair list survive several physics steps: it remains a
        // superset of every truly colliding pair while no drone has moved
        // more than slack/2 from its indexed position (triangle inequality).
        // Sized so a swarm moving flat-out re-indexes about once per control
        // period; the displacement guard in the collision phase keeps it
        // correct regardless.
        let broad_slack =
            (2.0 * steps_per_control as f64 * spec.drone.max_speed * dt).max(collision_diameter);
        LoopParams {
            n,
            model: PointMass::new(spec.drone),
            axis: spec.mission_axis(),
            dt,
            steps: spec.physics_steps(),
            steps_per_control,
            steps_per_gps: spec.steps_per_gps(),
            comms_grid: config.spatial.comms_grid_enabled(n),
            broad_phase: config.spatial != SpatialPolicy::ForceOff,
            comms_range: spec.comms.range.filter(|&r| r > 0.0),
            collision_diameter,
            broad_slack,
            broad_radius: collision_diameter + broad_slack,
            horizon,
        }
    }
}

/// Scratch of the mission step: staging buffers recomputed before every use
/// plus the two spatial-grid indexes.
///
/// The two indexes have different cell sizes and rebuild cadences: the comms
/// grid (cell = radio range, rebuilt per control tick) accelerates message
/// delivery, and the proximity grid (cell = inflated collision diameter,
/// rebuilt lazily — see the collision broad phase) is the collision broad
/// phase. Both are bit-identical to the brute-force scans (see
/// tests/grid_equivalence.rs), so the policy is purely about speed. Both are
/// rebuilt from current positions before any use, so starting them empty is
/// correct for fresh and forked runs alike; the lazy broad phase's
/// *candidate list* does carry across steps and therefore lives in
/// [`SimState`].
struct StepScratch {
    true_positions: Vec<Vec3>,
    true_velocities: Vec<Vec3>,
    obstacle_distances: Vec<f64>,
    neighbor_buf: Vec<NeighborState>,
    comms_grid: Option<SpatialGrid>,
    proximity_grid: Option<SpatialGrid>,
    position_buf: Vec<Vec3>,
}

impl StepScratch {
    fn new(p: &LoopParams) -> Self {
        StepScratch {
            true_positions: vec![Vec3::ZERO; p.n],
            true_velocities: vec![Vec3::ZERO; p.n],
            obstacle_distances: vec![f64::INFINITY; p.n],
            neighbor_buf: Vec::with_capacity(p.n),
            comms_grid: p
                .comms_range
                .filter(|_| p.comms_grid)
                .map(|range| SpatialGrid::build(&[], range)),
            proximity_grid: (p.broad_phase && p.collision_diameter > 0.0)
                .then(|| SpatialGrid::build(&[], p.broad_radius)),
            position_buf: Vec::new(),
        }
    }
}

/// A configured, runnable swarm mission.
///
/// Generic over the controller `C`; every drone flies the
/// [`PointMass`] model built from the mission's drone parameters. The
/// simulation owns nothing mutable between runs — `run` may be called
/// repeatedly (e.g. once per fuzzing iteration) and always starts from the
/// same initial conditions.
#[derive(Debug, Clone)]
pub struct Simulation<C> {
    spec: MissionSpec,
    controller: C,
    config: SimConfig,
}

impl<C: SwarmController> Simulation<C> {
    /// Creates a simulation of `spec` flown by `controller`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidMission`] when the spec fails validation.
    pub fn new(spec: MissionSpec, controller: C) -> Result<Self, SimError> {
        spec.validate()?;
        Ok(Simulation { spec, controller, config: SimConfig::default() })
    }

    /// Replaces the runtime options.
    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// The mission specification.
    pub fn spec(&self) -> &MissionSpec {
        &self.spec
    }

    /// The controller in use.
    pub fn controller(&self) -> &C {
        &self.controller
    }

    /// The runtime options in use.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs the mission, optionally under a GPS spoofing attack.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownTarget`] when the attack targets a drone
    /// outside the swarm.
    pub fn run(&self, attack: Option<&SpoofingAttack>) -> Result<MissionOutcome, SimError> {
        self.run_observed(attack, None)
    }

    /// [`Simulation::run`] with an optional [`SimObserver`] receiving the
    /// run's aggregate [`RunStats`]. The observer never influences the
    /// outcome.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulation::run`].
    pub fn run_observed(
        &self,
        attack: Option<&SpoofingAttack>,
        observer: Option<&dyn SimObserver>,
    ) -> Result<MissionOutcome, SimError> {
        self.fly(attack, None, observer, None)
    }

    /// Flies one attacked search probe from scratch: [`Simulation::run_observed`]
    /// under `attack`, except that the run also ends at the obstacle horizon
    /// — the first control tick at which all of these hold:
    ///
    /// * the spoofing window has closed and `max_neighbor_age` more has
    ///   passed, so no spoofed broadcast is still heard;
    /// * the world has at least one obstacle;
    /// * every live drone's true position, projected on the mission axis from
    ///   each obstacle's centre, lies beyond that obstacle's radius plus the
    ///   drone radius.
    ///
    /// The record is then a prefix of the whole run's. The rule is empirical
    /// (a drone past the obstacle could in principle turn back):
    /// `tests/horizon_equivalence.rs` checks on every probe of the pinned
    /// campaigns that the first collision and every drone's closest obstacle
    /// distance match the whole run's. Arrivals after the horizon are not
    /// recorded.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulation::run`].
    pub fn run_probe(
        &self,
        attack: &SpoofingAttack,
        observer: Option<&dyn SimObserver>,
    ) -> Result<MissionOutcome, SimError> {
        self.fly(Some(attack), self.horizon(attack), observer, None)
    }

    /// The one body of every fresh run: from the initial state, stopping at
    /// the obstacle horizon from `horizon` on, with `on_step` handed to
    /// [`Simulation::drive`].
    fn fly(
        &self,
        attack: Option<&SpoofingAttack>,
        horizon: Option<f64>,
        observer: Option<&dyn SimObserver>,
        on_step: Option<StepHook<'_>>,
    ) -> Result<MissionOutcome, SimError> {
        self.check_attack(attack)?;
        let record = MissionRecord::new(self.spec.swarm_size, self.spec.control_period);
        self.drive(self.init_state(), record, attack, horizon, observer, on_step)
    }

    /// The time from which a probe under `attack` may stop at the obstacle
    /// horizon: the window's end plus `max_neighbor_age`. `None` in a world
    /// without obstacles.
    fn horizon(&self, attack: &SpoofingAttack) -> Option<f64> {
        (!self.spec.world.obstacles.is_empty()).then(|| attack.end() + self.spec.max_neighbor_age)
    }

    /// `true` when every live drone, projected on the mission axis from each
    /// obstacle's centre, lies beyond that obstacle's radius plus the drone
    /// radius.
    fn past_every_obstacle(&self, positions: &[Vec3], alive: &[bool], axis: Vec2) -> bool {
        let margin = self.spec.drone.radius;
        self.spec.world.obstacles.iter().all(|o| {
            let (centre, reach) = (o.center().xy(), o.radius() + margin);
            positions
                .iter()
                .zip(alive)
                .all(|(p, &live)| !live || (p.xy() - centre).dot(axis) > reach)
        })
    }

    /// Rejects attacks that reference a drone outside the swarm.
    fn check_attack(&self, attack: Option<&SpoofingAttack>) -> Result<(), SimError> {
        if let Some(a) = attack {
            if a.target.index() >= self.spec.swarm_size {
                return Err(SimError::UnknownTarget {
                    target: a.target,
                    swarm_size: self.spec.swarm_size,
                });
            }
        }
        Ok(())
    }

    /// The initial [`SimState`] every fresh run starts from.
    fn init_state(&self) -> SimState {
        let spec = &self.spec;
        let n = spec.swarm_size;
        SimState {
            next_step: 0,
            states: spec.initial_positions().into_iter().map(DroneState::at).collect(),
            gps: (0..n).map(|_| GpsReceiver::new(spec.gps)).collect(),
            bus: CommsBus::new(n, spec.comms),
            rng_gps: rng_for(spec.seed, streams::GPS_NOISE),
            rng_comms: rng_for(spec.seed, streams::COMMS),
            rng_wind: rng_for(spec.seed, streams::WIND),
            wind: Wind::new(spec.wind),
            alive: vec![true; n],
            commanded: vec![Vec3::ZERO; n],
            stats: RunStats::default(),
            pair_buf: Vec::new(),
            broad_anchor: Vec::new(),
        }
    }

    /// Flies `st` and `record` through the mission loop from `st.next_step`
    /// until the mission ends — duration, collision stop, all-arrived stop
    /// or, from `horizon` on, the obstacle-horizon stop — then hands the
    /// run's stats to `observer`. `on_step`, when present, is invoked at the
    /// top of every executed iteration — before the step's GPS sampling —
    /// which is exactly the state a [`SimSnapshot`] captures.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CommsInvariant`] when the communication bus
    /// detects a broken internal invariant (e.g. after forking a malformed
    /// snapshot).
    fn drive(
        &self,
        mut st: SimState,
        mut record: MissionRecord,
        attack: Option<&SpoofingAttack>,
        horizon: Option<f64>,
        observer: Option<&dyn SimObserver>,
        mut on_step: Option<StepHook<'_>>,
    ) -> Result<MissionOutcome, SimError> {
        let p = LoopParams::of(&self.spec, &self.config, horizon);
        let mut scratch = StepScratch::new(&p);
        while st.next_step <= p.steps {
            if let Some(hook) = on_step.as_deref_mut() {
                hook(&st, &record);
            }
            if self.step(&mut st, &mut record, attack, &mut scratch, &p)? {
                break;
            }
        }
        if let Some(obs) = observer {
            obs.on_run_end(&st.stats);
        }
        Ok(MissionOutcome { record })
    }

    /// Executes exactly one physics step: GPS sampling, then (at the control
    /// rate) broadcast, neighbor gather, control, recording and the
    /// all-arrived and obstacle-horizon stops, then integration and collision
    /// detection. Returns `Ok(true)` when the mission terminated inside the
    /// step.
    fn step(
        &self,
        st: &mut SimState,
        record: &mut MissionRecord,
        attack: Option<&SpoofingAttack>,
        s: &mut StepScratch,
        p: &LoopParams,
    ) -> Result<bool, SimError> {
        let spec = &self.spec;
        let &LoopParams {
            n,
            mut model,
            axis,
            dt,
            steps_per_control,
            steps_per_gps,
            comms_range,
            collision_diameter,
            broad_slack,
            broad_radius,
            ..
        } = p;
        let StepScratch {
            true_positions,
            true_velocities,
            obstacle_distances,
            neighbor_buf,
            comms_grid,
            proximity_grid,
            position_buf,
        } = s;
        let step = st.next_step;
        let t = step as f64 * dt;
        st.stats.sim_time = t;

        // (1) Sensor reads at the GPS rate.
        if step.is_multiple_of(steps_per_gps) {
            st.stats.gps_rounds += 1;
            for d in 0..n {
                if !st.alive[d] {
                    continue;
                }
                let offset =
                    attack.and_then(|a| a.offset_at(t, DroneId(d), axis)).unwrap_or(Vec3::ZERO);
                st.gps[d].sample(
                    st.states[d].position,
                    st.states[d].velocity,
                    offset,
                    t,
                    &mut st.rng_gps,
                );
            }
        }

        // (2)–(4) Communication and control at the control rate.
        if step.is_multiple_of(steps_per_control) {
            st.stats.control_ticks += 1;
            for d in 0..n {
                true_positions[d] = st.states[d].position;
                true_velocities[d] = st.states[d].velocity;
                obstacle_distances[d] = spec
                    .world
                    .nearest_obstacle(st.states[d].position)
                    .map_or(f64::INFINITY, |(_, dist)| dist);
            }

            let broadcasts: Vec<StateMessage> = (0..n)
                .filter(|&d| st.alive[d])
                .filter_map(|d| {
                    st.gps[d].fix().map(|fix| StateMessage {
                        sender: DroneId(d),
                        position: fix.position,
                        velocity: fix.velocity,
                        time: t,
                    })
                })
                .collect();
            match (comms_grid, comms_range) {
                (Some(grid), Some(range)) => {
                    grid.rebuild(true_positions, range);
                    st.stats.grid_rebuilds += 1;
                    st.stats.grid_cells_scanned += st.bus.step_indexed(
                        broadcasts,
                        true_positions,
                        Some(grid),
                        &mut st.rng_comms,
                    )?;
                }
                _ => {
                    st.bus.step(broadcasts, true_positions, &mut st.rng_comms)?;
                }
            }

            for d in 0..n {
                if !st.alive[d] {
                    st.commanded[d] = Vec3::ZERO;
                    continue;
                }
                let Some(fix) = st.gps[d].fix() else { continue };
                neighbor_buf.clear();
                for msg in st.bus.neighbors_of(DroneId(d)) {
                    let age = t - msg.time;
                    if age <= spec.max_neighbor_age {
                        neighbor_buf.push(NeighborState {
                            id: msg.sender,
                            position: msg.position,
                            velocity: msg.velocity,
                            age,
                        });
                    }
                }
                let ctx = ControlContext {
                    id: DroneId(d),
                    self_state: PerceivedSelf { position: fix.position, velocity: fix.velocity },
                    neighbors: neighbor_buf,
                    world: &spec.world,
                    destination: spec.destination,
                    time: t,
                };
                st.commanded[d] = self.controller.desired_velocity(&ctx);
            }

            record.push_sample(t, true_positions, true_velocities, obstacle_distances);

            for d in 0..n {
                if st.alive[d]
                    && st.states[d].position.distance(spec.destination) <= spec.arrival_radius
                {
                    record.mark_arrival(DroneId(d), t);
                }
            }
            if record.all_arrived() {
                return Ok(true);
            }
            if p.horizon.is_some_and(|h| t >= h)
                && self.past_every_obstacle(true_positions, &st.alive, axis)
            {
                st.stats.horizon_stops += 1;
                return Ok(true);
            }
        }

        // Physics integration (plus kinematic wind drift, if any).
        let wind_velocity =
            if spec.wind.is_calm() { Vec3::ZERO } else { st.wind.sample(dt, &mut st.rng_wind) };
        st.stats.physics_steps += 1;
        for d in 0..n {
            if st.alive[d] {
                st.states[d] = model.step(&st.states[d], st.commanded[d], dt);
                if wind_velocity != Vec3::ZERO {
                    st.states[d].position += wind_velocity * dt;
                }
            }
        }

        // Collision detection on true states.
        let t_next = t + dt;
        let mut collided = false;
        for d in 0..n {
            if !st.alive[d] {
                continue;
            }
            if let Some((obstacle, dist)) = spec.world.nearest_obstacle(st.states[d].position) {
                if dist <= spec.drone.radius {
                    record.push_collision(CollisionEvent {
                        time: t_next,
                        kind: CollisionKind::DroneObstacle { drone: DroneId(d), obstacle },
                    });
                    st.alive[d] = false;
                    collided = true;
                }
            }
        }
        // Drone–drone collisions. The grid broad phase yields the
        // lex-sorted superset of candidate pairs, so the exact 3-D
        // narrow-phase test below visits passing pairs in the same
        // (i, j) order as the brute-force scan — including the mid-scan
        // `alive` mutations.
        let states = &st.states;
        let check_pair = |i: usize,
                          j: usize,
                          alive: &mut [bool],
                          record: &mut MissionRecord,
                          collided: &mut bool| {
            if alive[i]
                && alive[j]
                && states[i].position.distance(states[j].position) <= collision_diameter
            {
                record.push_collision(CollisionEvent {
                    time: t_next,
                    kind: CollisionKind::DroneDrone { first: DroneId(i), second: DroneId(j) },
                });
                alive[i] = false;
                alive[j] = false;
                *collided = true;
            }
        };
        if let Some(grid) = proximity_grid {
            // Lazy broad phase: re-index only once some drone has
            // drifted more than slack/2 from its indexed position; the
            // inflated query radius keeps the cached candidate list a
            // superset of all truly colliding pairs until then (whatever
            // the speed or wind — the guard measures actual
            // displacement). The narrow-phase check always uses current
            // positions, so results match a per-step rebuild exactly.
            let guard = broad_slack * broad_slack / 4.0;
            let stale = st.broad_anchor.len() != n
                || states
                    .iter()
                    .zip(&st.broad_anchor)
                    .any(|(s, a)| s.position.distance_squared(*a) > guard);
            if stale {
                position_buf.clear();
                position_buf.extend(states.iter().map(|s| s.position));
                grid.rebuild(position_buf, broad_radius);
                st.stats.grid_rebuilds += 1;
                st.stats.grid_cells_scanned += grid.close_pairs(broad_radius, &mut st.pair_buf);
                st.broad_anchor.clear();
                st.broad_anchor.extend_from_slice(position_buf);
            }
            for &(a, b) in &st.pair_buf {
                check_pair(a.index(), b.index(), &mut st.alive, record, &mut collided);
            }
        } else {
            // `ForceOff` (or point-sized drones): every pair on every step,
            // the reference the broad phase is tested and benchmarked
            // against.
            for i in 0..n {
                for j in (i + 1)..n {
                    check_pair(i, j, &mut st.alive, record, &mut collided);
                }
            }
        }
        if collided {
            return Ok(true);
        }
        st.next_step = step + 1;
        Ok(false)
    }

    /// Rejects snapshots captured by a different mission or configuration.
    fn check_snapshot(&self, snap: &SimSnapshot) -> Result<(), SimError> {
        let fp = self.spec.fingerprint();
        if snap.spec_fingerprint != fp {
            return Err(SimError::SnapshotMismatch(format!(
                "snapshot is from mission {:016x}, this simulation is {fp:016x}",
                snap.spec_fingerprint
            )));
        }
        if snap.config != self.config {
            return Err(SimError::SnapshotMismatch(
                "snapshot was captured under different runtime options".into(),
            ));
        }
        // A malformed (e.g. hand-edited or corrupted) snapshot must surface
        // as a typed error here, not as a panic inside the comms hot loop.
        snap.state.bus.validate(self.spec.swarm_size)?;
        Ok(())
    }

    /// Reconstructs the prefix [`MissionRecord`] a fresh run would have
    /// accumulated by the snapshot's capture point, replaying the first
    /// [`SimSnapshot::record_ticks`] samples of `source` (any record of the
    /// same mission whose prefix covers the snapshot, e.g. the baseline the
    /// snapshot was captured from). The per-drone obstacle minima are
    /// recomputed through the same code path as the live loop, so the result
    /// is bit-identical; average inter-drone distances, as for any record,
    /// are derived from the positions only when first read.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SnapshotMismatch`] when the snapshot belongs to a
    /// different mission/configuration or `source` is too short.
    pub fn prefix_record(
        &self,
        snapshot: &SimSnapshot,
        source: &MissionRecord,
    ) -> Result<MissionRecord, SimError> {
        self.check_snapshot(snapshot)?;
        let n = self.spec.swarm_size;
        if source.swarm_size() != n || source.len() < snapshot.record_ticks {
            return Err(SimError::SnapshotMismatch(format!(
                "source record holds {} ticks of {} drones; snapshot needs {} ticks of {n}",
                source.len(),
                source.swarm_size(),
                snapshot.record_ticks
            )));
        }
        let mut record = MissionRecord::new(n, self.spec.control_period);
        let mut obstacle_distances = vec![f64::INFINITY; n];
        for tick in 0..snapshot.record_ticks {
            let positions = source.positions_at(tick);
            for (d, p) in positions.iter().enumerate() {
                obstacle_distances[d] =
                    self.spec.world.nearest_obstacle(*p).map_or(f64::INFINITY, |(_, dist)| dist);
            }
            record.push_sample(
                source.times()[tick],
                positions,
                source.velocities_at(tick),
                &obstacle_distances,
            );
        }
        for (d, arrival) in snapshot.prefix_arrivals.iter().enumerate() {
            if let Some(time) = arrival {
                record.mark_arrival(DroneId(d), *time);
            }
        }
        Ok(record)
    }

    /// Flies one attacked search probe forked from `snapshot`, skipping
    /// re-simulation of the prefix — the forked counterpart of
    /// [`Simulation::run_probe`], with `prefix` the record returned by
    /// [`Simulation::prefix_record`] for this snapshot. Stops at the same
    /// tick, with the same record and observer stats, as
    /// [`Simulation::run_probe`] under the same attack.
    ///
    /// Splitting prefix reconstruction from the forked suffix lets callers
    /// time the two separately (telemetry's `prefix_sim` vs `forked_sim`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownTarget`] for an out-of-swarm attack target,
    /// [`SimError::SnapshotMismatch`] when the snapshot belongs to a
    /// different mission/configuration, `prefix` does not match the
    /// snapshot's recorder cursor, or the attack window opens inside the
    /// already-simulated prefix (see [`SimSnapshot::admits_attack_start`]),
    /// and [`SimError::CommsInvariant`] for a malformed snapshot.
    pub fn resume_probe(
        &self,
        snapshot: &SimSnapshot,
        prefix: MissionRecord,
        attack: &SpoofingAttack,
        observer: Option<&dyn SimObserver>,
    ) -> Result<MissionOutcome, SimError> {
        self.check_attack(Some(attack))?;
        self.check_snapshot(snapshot)?;
        if prefix.swarm_size() != self.spec.swarm_size || prefix.len() != snapshot.record_ticks {
            return Err(SimError::SnapshotMismatch(format!(
                "prefix record holds {} ticks, snapshot cursor is {}",
                prefix.len(),
                snapshot.record_ticks
            )));
        }
        if !snapshot.admits_attack_start(attack.start) {
            return Err(SimError::SnapshotMismatch(format!(
                "attack starting at t={} opens inside the simulated prefix (snapshot at t={:.4})",
                attack.start,
                snapshot.time()
            )));
        }
        let horizon = self.horizon(attack);
        self.drive(snapshot.state.clone(), prefix, Some(attack), horizon, observer, None)
    }

    /// [`Simulation::run_observed`] that additionally offers a snapshot at
    /// the top of every executed physics step: `should_capture` is asked with
    /// the step index and, when it returns `true`, `sink` receives the
    /// captured [`SimSnapshot`]. Cloning only happens for accepted steps, so
    /// a sparse predicate keeps the overhead proportional to the snapshots
    /// actually kept.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulation::run`].
    pub fn run_observed_with_snapshots(
        &self,
        attack: Option<&SpoofingAttack>,
        observer: Option<&dyn SimObserver>,
        mut should_capture: impl FnMut(usize) -> bool,
        mut sink: impl FnMut(SimSnapshot),
    ) -> Result<MissionOutcome, SimError> {
        let spec_fingerprint = self.spec.fingerprint();
        let n = self.spec.swarm_size;
        let mut hook = |state: &SimState, record: &MissionRecord| {
            if should_capture(state.next_step) {
                sink(SimSnapshot {
                    state: state.clone(),
                    spec_fingerprint,
                    config: self.config,
                    physics_dt: self.spec.physics_dt,
                    record_ticks: record.len(),
                    prefix_arrivals: (0..n).map(|d| record.arrival_time(DroneId(d))).collect(),
                });
            }
        };
        self.fly(attack, None, observer, Some(&mut hook))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spoof::SpoofDirection;

    /// Flies straight toward the destination at 2 m/s, ignoring everything.
    struct BeeLine;

    impl SwarmController for BeeLine {
        fn desired_velocity(&self, ctx: &ControlContext<'_>) -> Vec3 {
            (ctx.destination - ctx.self_state.position).with_norm(2.0)
        }
    }

    /// Hovers in place.
    struct Hover;

    impl SwarmController for Hover {
        fn desired_velocity(&self, _ctx: &ControlContext<'_>) -> Vec3 {
            Vec3::ZERO
        }
    }

    /// Captures the stats of the one run it observes.
    #[derive(Default)]
    struct LastRun(std::sync::Mutex<Option<RunStats>>);

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

    fn short_spec(n: usize) -> MissionSpec {
        let mut spec = MissionSpec::paper_delivery(n, 11);
        spec.duration = 30.0;
        spec
    }

    #[test]
    fn beeline_single_drone_hits_the_on_path_obstacle() {
        // One drone flying straight from the corridor centre must hit the
        // obstacle placed on the corridor.
        let mut spec = MissionSpec::paper_delivery(1, 3);
        spec.start_min = Vec2::new(20.0, -1.0);
        spec.start_max = Vec2::new(30.0, 1.0);
        spec.duration = 120.0;
        let sim = Simulation::new(spec, BeeLine).unwrap();
        let out = sim.run(None).unwrap();
        let hit = out.first_collision().expect("beeline must collide");
        assert!(matches!(hit.kind, CollisionKind::DroneObstacle { .. }));
    }

    #[test]
    fn hover_mission_times_out_without_collision() {
        let sim = Simulation::new(short_spec(3), Hover).unwrap();
        let out = sim.run(None).unwrap();
        assert!(out.collision_free());
        assert!(!out.record.all_arrived());
        // Duration reached the (shortened) mission end.
        assert!(out.record.duration() >= 29.9);
    }

    #[test]
    fn run_is_deterministic() {
        let sim = Simulation::new(short_spec(4), BeeLine).unwrap();
        let a = sim.run(None).unwrap();
        let b = sim.run(None).unwrap();
        assert_eq!(a.record, b.record);
    }

    #[test]
    fn attack_on_unknown_target_is_rejected() {
        let sim = Simulation::new(short_spec(2), Hover).unwrap();
        let attack = SpoofingAttack::new(DroneId(7), SpoofDirection::Left, 0.0, 5.0, 10.0).unwrap();
        assert!(matches!(
            sim.run(Some(&attack)),
            Err(SimError::UnknownTarget { target: DroneId(7), swarm_size: 2 })
        ));
    }

    #[test]
    fn spoofed_hovering_drone_is_perceived_displaced() {
        // Under spoofing, a hovering target's *recorded physics* stays put,
        // but the attack window must not crash anything; this checks the
        // plumbing end-to-end (offset only alters perception).
        let spec = short_spec(2);
        let sim = Simulation::new(spec, Hover).unwrap();
        let attack =
            SpoofingAttack::new(DroneId(0), SpoofDirection::Right, 1.0, 5.0, 10.0).unwrap();
        let out = sim.run(Some(&attack)).unwrap();
        assert!(out.collision_free());
        // True trajectory of the hovering target is (almost) stationary.
        let traj = out.record.trajectory(DroneId(0));
        let drift = traj.first().unwrap().distance(*traj.last().unwrap());
        assert!(drift < 0.5, "hovering drone drifted {drift} m");
    }

    #[test]
    fn spv_collision_excludes_target_crash() {
        // Fabricate outcomes through the public API: run the beeline mission
        // (drone 0 crashes into the obstacle) and check the SPV criterion.
        let mut spec = MissionSpec::paper_delivery(1, 3);
        spec.start_min = Vec2::new(20.0, -1.0);
        spec.start_max = Vec2::new(30.0, 1.0);
        spec.duration = 120.0;
        let sim = Simulation::new(spec, BeeLine).unwrap();
        let out = sim.run(None).unwrap();
        // Crash by drone 0: counts as SPV only if the target is NOT drone 0.
        assert!(out.spv_collision(DroneId(0)).is_none());
        // (Hypothetical different target id — not in swarm, but the check is
        // purely on the record.)
        assert!(out.spv_collision(DroneId(5)).is_some());
    }

    #[test]
    fn observer_sees_counts_and_never_alters_the_outcome() {
        let sim = Simulation::new(short_spec(3), Hover).unwrap();
        let plain = sim.run(None).unwrap();
        let capture = LastRun::default();
        let observed = sim.run_observed(None, Some(&capture)).unwrap();
        assert_eq!(plain.record, observed.record, "observer must not change the run");

        let stats = capture.stats();
        let spec = short_spec(3);
        assert_eq!(stats.physics_steps, spec.physics_steps() as u64 + 1);
        // Control runs every steps_per_control-th physics step, inclusive.
        assert_eq!(
            stats.control_ticks,
            spec.physics_steps() as u64 / spec.steps_per_control() as u64 + 1
        );
        assert!(stats.gps_rounds >= stats.control_ticks);
        assert!((stats.sim_time - spec.duration).abs() < spec.physics_dt + 1e-9);
    }

    #[test]
    fn forced_grid_pipeline_matches_brute_force_and_counts_work() {
        let mut spec = short_spec(6);
        spec.comms.range = Some(25.0);
        let brute = Simulation::new(spec.clone(), BeeLine)
            .unwrap()
            .with_config(SimConfig { spatial: SpatialPolicy::ForceOff });
        let grid = Simulation::new(spec, BeeLine)
            .unwrap()
            .with_config(SimConfig { spatial: SpatialPolicy::ForceOn });

        let capture_off = LastRun::default();
        let capture_on = LastRun::default();
        let a = brute.run_observed(None, Some(&capture_off)).unwrap();
        let b = grid.run_observed(None, Some(&capture_on)).unwrap();
        assert_eq!(a.record, b.record, "grid pipeline must be bit-identical to brute force");

        let off = capture_off.stats();
        let on = capture_on.stats();
        assert_eq!(off.grid_rebuilds, 0);
        assert_eq!(off.grid_cells_scanned, 0);
        // Comms grid per control tick + the lazy collision broad phase
        // (at least once, at most once per physics step).
        assert!(on.grid_rebuilds > on.control_ticks, "broad phase never indexed");
        assert!(on.grid_rebuilds <= on.control_ticks + on.physics_steps);
        assert!(on.grid_cells_scanned > 0);
    }

    #[test]
    fn mission_outcome_records_arrivals() {
        let mut spec = MissionSpec::paper_delivery(1, 5);
        // Start close to the destination so the beeline arrives quickly; no
        // obstacle in the way from y=40.
        spec.start_min = Vec2::new(180.0, 39.0);
        spec.start_max = Vec2::new(190.0, 41.0);
        spec.duration = 60.0;
        let sim = Simulation::new(spec, BeeLine).unwrap();
        let out = sim.run(None).unwrap();
        assert!(out.record.all_arrived());
        assert!(out.record.arrival_time(DroneId(0)).unwrap() < 60.0);
    }

    /// The snapshot `sim`'s no-attack run captures at `step`, and that run's
    /// record (the source of its prefix record).
    fn snapshot_at<C: SwarmController>(
        sim: &Simulation<C>,
        step: usize,
    ) -> (SimSnapshot, MissionRecord) {
        let mut snaps = Vec::new();
        let out =
            sim.run_observed_with_snapshots(None, None, |s| s == step, |s| snaps.push(s)).unwrap();
        assert_eq!(snaps.len(), 1, "step {step} captured once");
        (snaps.pop().unwrap(), out.record)
    }

    /// Forks `attack`'s probe from `snap`, rebuilding its prefix from
    /// `source`.
    fn fork_probe<C: SwarmController>(
        sim: &Simulation<C>,
        snap: &SimSnapshot,
        source: &MissionRecord,
        attack: &SpoofingAttack,
        observer: Option<&dyn SimObserver>,
    ) -> Result<MissionOutcome, SimError> {
        let prefix = sim.prefix_record(snap, source)?;
        sim.resume_probe(snap, prefix, attack, observer)
    }

    #[test]
    fn fork_at_zero_is_bit_identical_to_fresh_run() {
        // The hidden-state audit in one assertion: a snapshot at t = 0 must
        // carry *exactly* the initial state, so forking it reproduces a
        // fresh probe bit for bit, even under a window open from t = 0.
        let sim = Simulation::new(short_spec(3), BeeLine).unwrap();
        let (snap, source) = snapshot_at(&sim, 0);
        assert_eq!(snap.state, sim.init_state());
        assert_eq!(snap.record_ticks(), 0);
        let attack = SpoofingAttack::new(DroneId(0), SpoofDirection::Left, 0.0, 4.0, 12.0).unwrap();
        let fresh = sim.run_probe(&attack, None).unwrap();
        let forked = fork_probe(&sim, &snap, &source, &attack, None).unwrap();
        assert_eq!(fresh.record, forked.record);
    }

    #[test]
    fn forked_run_matches_fresh_run_under_attack() {
        let sim = Simulation::new(short_spec(3), BeeLine).unwrap();
        let attack = SpoofingAttack::new(DroneId(0), SpoofDirection::Left, 5.0, 4.0, 12.0).unwrap();
        let fresh = sim.run_probe(&attack, None).unwrap();
        let (snap, source) = snapshot_at(&sim, 500);
        assert!(snap.admits_attack_start(attack.start));
        let forked = fork_probe(&sim, &snap, &source, &attack, None).unwrap();
        assert_eq!(fresh.record, forked.record);
    }

    #[test]
    fn forked_observer_stats_match_fresh_run() {
        let sim = Simulation::new(short_spec(2), BeeLine).unwrap();
        let attack =
            SpoofingAttack::new(DroneId(0), SpoofDirection::Right, 7.5, 4.0, 12.0).unwrap();
        let fresh = LastRun::default();
        sim.run_probe(&attack, Some(&fresh)).unwrap();
        let (snap, source) = snapshot_at(&sim, 750);
        assert_eq!(snap.stats().physics_steps, 750);
        let forked = LastRun::default();
        fork_probe(&sim, &snap, &source, &attack, Some(&forked)).unwrap();
        assert_eq!(fresh.stats(), forked.stats(), "forked stats must cover the whole run");
    }

    #[test]
    fn resume_rejects_foreign_snapshot_and_early_attack() {
        let sim_a = Simulation::new(short_spec(2), BeeLine).unwrap();
        let (snap, source) = snapshot_at(&sim_a, 500);
        let prefix = sim_a.prefix_record(&snap, &source).unwrap();
        let late = SpoofingAttack::new(DroneId(0), SpoofDirection::Left, 6.0, 3.0, 8.0).unwrap();

        // Different mission spec → different fingerprint.
        let sim_b = Simulation::new(MissionSpec::paper_delivery(2, 99), BeeLine).unwrap();
        assert!(matches!(sim_b.prefix_record(&snap, &source), Err(SimError::SnapshotMismatch(_))));
        assert!(matches!(
            sim_b.resume_probe(&snap, prefix.clone(), &late, None),
            Err(SimError::SnapshotMismatch(_))
        ));

        // A prefix that is not the snapshot's: the whole baseline record.
        assert!(matches!(
            sim_a.resume_probe(&snap, source.clone(), &late, None),
            Err(SimError::SnapshotMismatch(_))
        ));

        // Attack window opening inside the simulated prefix.
        let early = SpoofingAttack::new(DroneId(0), SpoofDirection::Left, 2.0, 3.0, 8.0).unwrap();
        assert!(!snap.admits_attack_start(early.start));
        assert!(matches!(
            sim_a.resume_probe(&snap, prefix.clone(), &early, None),
            Err(SimError::SnapshotMismatch(_))
        ));
        assert!(sim_a.resume_probe(&snap, prefix, &late, None).is_ok());
    }

    #[test]
    fn snapshot_capture_hook_fires_on_requested_steps_only() {
        let sim = Simulation::new(short_spec(2), Hover).unwrap();
        let mut captured: Vec<usize> = Vec::new();
        let out = sim
            .run_observed_with_snapshots(
                None,
                None,
                |step| step % 500 == 0,
                |snap| captured.push(snap.next_step()),
            )
            .unwrap();
        assert!(out.collision_free());
        // 30 s mission at dt = 0.01 → steps 0, 500, ..., 3000.
        assert_eq!(captured, (0..=3000).step_by(500).collect::<Vec<_>>());
    }

    /// Flies each drone along +x toward its own waypoint `x`, slowing as it
    /// nears it (critically damped against the point mass's velocity lag, so
    /// it never overshoots).
    struct Waypoints(Vec<f64>);

    impl SwarmController for Waypoints {
        fn desired_velocity(&self, ctx: &ControlContext<'_>) -> Vec3 {
            let err = self.0[ctx.id.index()] - ctx.self_state.position.x;
            Vec3::new((0.5 * err).clamp(-2.0, 2.0), 0.0, 0.0)
        }
    }

    /// Two drones flying along +x on lateral lines y ∈ [6, 20], with one
    /// 2 m cylinder at (30, 0) beside their path: the far edge of the
    /// obstacle horizon is x = 30 + 2 + drone radius. Destination and
    /// duration keep every run short of arrival.
    const FAR_EDGE: f64 = 32.25;

    fn horizon_spec() -> MissionSpec {
        let mut spec = MissionSpec::paper_delivery(2, 5);
        spec.start_min = Vec2::new(0.0, 6.0);
        spec.start_max = Vec2::new(2.0, 20.0);
        spec.destination = Vec3::new(200.0, 13.0, 10.0);
        spec.world = World::with_obstacles(vec![crate::world::Obstacle::Cylinder {
            center: Vec2::new(30.0, 0.0),
            radius: 2.0,
        }]);
        spec.duration = 40.0;
        assert_eq!(FAR_EDGE, 30.0 + 2.0 + spec.drone.radius);
        spec
    }

    fn spoof(start: f64, duration: f64) -> SpoofingAttack {
        SpoofingAttack::new(DroneId(0), SpoofDirection::Right, start, duration, 5.0).unwrap()
    }

    /// The whole run and the probe of `attack`, with the probe's stats.
    fn whole_and_probe(
        sim: &Simulation<Waypoints>,
        attack: &SpoofingAttack,
    ) -> (MissionOutcome, MissionOutcome, RunStats) {
        let whole = sim.run(Some(attack)).unwrap();
        let observer = LastRun::default();
        let probe = sim.run_probe(attack, Some(&observer)).unwrap();
        (whole, probe, observer.stats())
    }

    #[test]
    fn probe_stops_at_the_first_tick_past_the_obstacle_horizon() {
        let sim = Simulation::new(horizon_spec(), Waypoints(vec![60.0, 60.0])).unwrap();
        let attack = spoof(2.0, 2.0);
        let (whole, probe, stats) = whole_and_probe(&sim, &attack);
        assert_eq!(stats.horizon_stops, 1);
        let (w, h) = (&whole.record, &probe.record);
        assert!(h.len() < w.len(), "probe flew {} of {} ticks", h.len(), w.len());

        // A prefix of the whole run, stopped at the first tick where every
        // drone is past the far edge.
        for tick in 0..h.len() {
            assert_eq!(h.times()[tick], w.times()[tick]);
            assert_eq!(h.positions_at(tick), w.positions_at(tick));
            assert_eq!(h.velocities_at(tick), w.velocities_at(tick));
        }
        let past = |tick: usize| w.positions_at(tick).iter().all(|p| p.x - 30.0 > 2.25);
        assert!(past(h.len() - 1));
        assert!(!past(h.len() - 2));
        assert!(h.duration() >= attack.end() + sim.spec().max_neighbor_age);
        for d in 0..2 {
            assert_eq!(h.vdo(DroneId(d)), w.vdo(DroneId(d)));
            assert_eq!(h.vdo_time(DroneId(d)), w.vdo_time(DroneId(d)));
        }
        assert!(whole.collision_free() && probe.collision_free());
        assert!((stats.sim_time - h.duration()).abs() < 1e-9);

        // Forking the probe at its window's start (step 200) stops at the
        // same tick with the same stats.
        let (snap, source) = snapshot_at(&sim, 200);
        let observer = LastRun::default();
        let forked = fork_probe(&sim, &snap, &source, &attack, Some(&observer)).unwrap();
        assert_eq!(forked.record, probe.record);
        assert_eq!(observer.stats(), stats);
    }

    #[test]
    fn probe_flies_on_while_spoofed_broadcasts_may_still_be_heard() {
        // Every drone is past the obstacle by ~17 s. A window open to the
        // end, or closing less than `max_neighbor_age` before it, never
        // reaches the horizon; one closing at 20 s stops no earlier than
        // 21 s.
        let sim = Simulation::new(horizon_spec(), Waypoints(vec![60.0, 60.0])).unwrap();
        for attack in [spoof(2.0, 40.0), spoof(2.0, 37.5)] {
            let (whole, probe, stats) = whole_and_probe(&sim, &attack);
            assert_eq!(stats.horizon_stops, 0, "window ends at {}", attack.end());
            assert_eq!(probe.record, whole.record);
        }
        let attack = spoof(2.0, 18.0);
        let (_, probe, stats) = whole_and_probe(&sim, &attack);
        assert_eq!(stats.horizon_stops, 1);
        let age = sim.spec().max_neighbor_age;
        let stop = probe.record.duration();
        assert!(stop >= attack.end() + age && stop < attack.end() + age + 0.1, "stopped at {stop}");
    }

    #[test]
    fn probe_flies_on_while_one_drone_is_short_of_the_far_edge() {
        // Drone 1 settles past the obstacle's radius but within the drone
        // radius of it.
        let short = FAR_EDGE - 0.1;
        let sim = Simulation::new(horizon_spec(), Waypoints(vec![60.0, short])).unwrap();
        let (whole, probe, stats) = whole_and_probe(&sim, &spoof(2.0, 2.0));
        assert_eq!(stats.horizon_stops, 0);
        assert_eq!(probe.record, whole.record);
        let last = whole.record.positions_at(whole.record.len() - 1);
        assert!(last[0].x > FAR_EDGE + 20.0, "drone 0 must be far past: {}", last[0].x);
        assert!(last[1].x > 32.0 && last[1].x <= FAR_EDGE, "drone 1 at {}", last[1].x);
    }

    #[test]
    fn probe_in_an_obstacle_free_world_flies_the_whole_mission() {
        let mut spec = horizon_spec();
        spec.world = World::new();
        let sim = Simulation::new(spec, Waypoints(vec![60.0, 60.0])).unwrap();
        let (whole, probe, stats) = whole_and_probe(&sim, &spoof(2.0, 2.0));
        assert_eq!(stats.horizon_stops, 0);
        assert_eq!(probe.record, whole.record);
    }

    #[test]
    fn runs_that_are_not_probes_never_stop_at_the_horizon() {
        // The geometry and window of the stopping probe above: a baseline
        // and a plain attacked run both fly the whole mission.
        let sim = Simulation::new(horizon_spec(), Waypoints(vec![60.0, 60.0])).unwrap();
        let attack = spoof(2.0, 2.0);
        for attack in [None, Some(&attack)] {
            let observer = LastRun::default();
            let out = sim.run_observed(attack, Some(&observer)).unwrap();
            assert_eq!(observer.stats().horizon_stops, 0);
            assert!(out.record.duration() >= sim.spec().duration - 1e-9);
        }
    }

    #[test]
    fn resume_from_corrupted_snapshot_is_a_typed_error_not_a_panic() {
        let sim = Simulation::new(short_spec(3), BeeLine).unwrap();
        let (mut snap, source) = snapshot_at(&sim, 400);
        let prefix = sim.prefix_record(&snap, &source).unwrap();
        snap.state.bus.corrupt_in_flight_for_test();
        let attack = SpoofingAttack::new(DroneId(0), SpoofDirection::Left, 5.0, 4.0, 12.0).unwrap();
        let err = sim.resume_probe(&snap, prefix, &attack, None).unwrap_err();
        assert!(matches!(err, SimError::CommsInvariant(_)), "got {err:?}");
    }
}
