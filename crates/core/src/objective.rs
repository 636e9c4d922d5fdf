//! The fuzzer's objective function (paper §IV-C).
//!
//! For a fixed seed `<T-V, θ>` and spoofing deviation `d`, the objective is
//! `f(t_s, Δt)` = the minimum distance between the victim drone and the
//! obstacle over the attacked mission (minus the drone's collision radius, so
//! a collision corresponds to `f ≤ 0`). Every evaluation runs one simulated
//! mission — the unit the paper calls a *search iteration* — as a search
//! probe ([`Simulation::run_probe`], or [`Simulation::resume_probe`] when
//! forked): the run ends at the obstacle horizon, once the spoofing window
//! has closed and every drone is past the obstacle, since neither the
//! victim's closest approach nor the first collision changes after it.
//!
//! Each probe flies one [`SpoofingAttack`] of the seed's class: the paper's
//! constant offset for constant seeds, and for the other classes the
//! waveform [`Waveform::fitted`] to the window and the searched shape.

use swarm_sim::dynamics::Dynamics;
use swarm_sim::recorder::MissionRecord;
use swarm_sim::spoof::{SpoofingAttack, Waveform};
use swarm_sim::{DroneId, MissionOutcome, SimObserver, SimSnapshot, Simulation, SwarmController};

use crate::seed::Seed;
use crate::FuzzError;

/// What an objective evaluation observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EvalOutcome {
    /// A non-target drone hit the obstacle — a successful SPV. Carries the
    /// actual victim (which may differ from the seed's expected victim) and
    /// the collision time.
    SpvCollision {
        /// The drone that crashed into the obstacle.
        victim: DroneId,
        /// Collision time in seconds.
        time: f64,
    },
    /// The mission's first collision involved the target itself (discounted
    /// by the paper's success metric).
    TargetCollision {
        /// Collision time in seconds.
        time: f64,
    },
    /// No collision occurred.
    NoCollision,
}

/// One evaluation of `f(t_s, Δt)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// Objective value: the expected victim's closest obstacle distance
    /// minus the collision radius (≤ 0 on victim collision).
    pub value: f64,
    /// What happened during the attacked mission.
    pub outcome: EvalOutcome,
    /// The evaluated spoofing start time.
    pub start: f64,
    /// The evaluated spoofing duration.
    pub duration: f64,
}

impl Evaluation {
    /// `true` when this evaluation found a successful SPV.
    pub fn is_success(&self) -> bool {
        matches!(self.outcome, EvalOutcome::SpvCollision { .. })
    }
}

/// Evaluates the objective for one seed by running attacked missions.
pub struct Objective<'a, C, D> {
    sim: &'a Simulation<C, D>,
    seed: Seed,
    deviation: f64,
    observer: Option<&'a dyn SimObserver>,
}

impl<C, D> std::fmt::Debug for Objective<'_, C, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Objective")
            .field("seed", &self.seed)
            .field("deviation", &self.deviation)
            .field("observed", &self.observer.is_some())
            .finish_non_exhaustive()
    }
}

impl<'a, C: SwarmController, D: Dynamics> Objective<'a, C, D> {
    /// Creates an evaluator bound to one simulation and seed.
    pub fn new(sim: &'a Simulation<C, D>, seed: Seed, deviation: f64) -> Self {
        Objective { sim, seed, deviation, observer: None }
    }

    /// Attaches a [`SimObserver`] receiving each evaluated mission's run
    /// statistics (purely observational; evaluations are unaffected).
    pub fn with_observer(mut self, observer: &'a dyn SimObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// The seed this objective is bound to.
    pub fn seed(&self) -> &Seed {
        &self.seed
    }

    /// Evaluates `f(start, duration)` by flying one attacked search probe.
    ///
    /// Negative inputs are clamped to zero (mirroring the paper's projected
    /// gradient update, Eq. 1).
    ///
    /// # Errors
    ///
    /// Propagates [`FuzzError::Sim`] from the simulation and
    /// [`FuzzError::Sim`]-wrapped attack-validation failures.
    pub fn evaluate(&self, start: f64, duration: f64) -> Result<Evaluation, FuzzError> {
        self.evaluate_shaped(start, duration, None)
    }

    /// [`Objective::evaluate`] with an explicit waveform shape parameter
    /// (ramp time, ω or jump period, depending on the seed's class). `None`
    /// falls back to the class default of [`Waveform::fitted`] — full-window
    /// ramp-in for drift.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Objective::evaluate`].
    pub fn evaluate_shaped(
        &self,
        start: f64,
        duration: f64,
        shape: Option<f64>,
    ) -> Result<Evaluation, FuzzError> {
        let start = start.max(0.0);
        let duration = duration.max(0.0);
        let attack = self.attack(start, duration, shape)?;
        let outcome = self.sim.run_probe(&attack, self.observer)?;
        Ok(self.classify(&outcome, start, duration))
    }

    /// The seed's attack for a window and shape, as an evaluation flies it
    /// (the evaluations clamp `start` and `duration` to zero first).
    ///
    /// # Errors
    ///
    /// [`FuzzError::Sim`]-wrapped attack-validation failures.
    pub fn attack(
        &self,
        start: f64,
        duration: f64,
        shape: Option<f64>,
    ) -> Result<SpoofingAttack, FuzzError> {
        Ok(SpoofingAttack::from_waveform(
            Waveform::fitted(self.seed.waveform, duration, shape),
            self.seed.target,
            self.seed.direction,
            start,
            duration,
            self.deviation,
        )?)
    }

    /// Derives the [`Evaluation`] of the window `(start, duration)` from an
    /// attacked mission's outcome: a search probe's, or a whole run's.
    pub fn classify(&self, outcome: &MissionOutcome, start: f64, duration: f64) -> Evaluation {
        let eval_outcome = match outcome.spv_collision(self.seed.target) {
            Some((victim, time)) => EvalOutcome::SpvCollision { victim, time },
            None => match outcome.first_collision() {
                Some(c) => EvalOutcome::TargetCollision { time: c.time },
                None => EvalOutcome::NoCollision,
            },
        };

        // Objective: expected victim's closest approach to the obstacle.
        let radius = self.sim.spec().drone.radius;
        let value = match eval_outcome {
            // The actual victim's crash defines success; if it is our
            // expected victim the recorded minimum is already <= radius.
            EvalOutcome::SpvCollision { .. } => {
                outcome.record.vdo(self.seed.victim).map_or(0.0, |v| (v - radius).min(0.0))
            }
            _ => outcome.record.vdo(self.seed.victim).map_or(f64::INFINITY, |v| v - radius),
        };

        Evaluation { value, outcome: eval_outcome, start, duration }
    }
}

impl<C: SwarmController, D: Dynamics + Clone> Objective<'_, C, D> {
    /// [`Objective::evaluate`], but forking the attacked mission from
    /// `snapshot` (with `prefix` the record returned by
    /// [`Simulation::prefix_record`]) instead of re-simulating the no-attack
    /// prefix. Bit-identical to the from-scratch evaluation whenever the
    /// snapshot admits the (clamped) start time — see
    /// [`SimSnapshot::admits_attack_start`].
    ///
    /// # Errors
    ///
    /// Same as [`Objective::evaluate`], plus
    /// [`swarm_sim::SimError::SnapshotMismatch`] (wrapped in
    /// [`FuzzError::Sim`]) when the snapshot does not admit the window.
    pub fn evaluate_forked(
        &self,
        snapshot: &SimSnapshot<D>,
        prefix: MissionRecord,
        start: f64,
        duration: f64,
    ) -> Result<Evaluation, FuzzError> {
        self.evaluate_shaped_forked(snapshot, prefix, start, duration, None)
    }

    /// [`Objective::evaluate_shaped`] forking from `snapshot` — the shaped
    /// counterpart of [`Objective::evaluate_forked`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Objective::evaluate_forked`].
    pub fn evaluate_shaped_forked(
        &self,
        snapshot: &SimSnapshot<D>,
        prefix: MissionRecord,
        start: f64,
        duration: f64,
        shape: Option<f64>,
    ) -> Result<Evaluation, FuzzError> {
        let start = start.max(0.0);
        let duration = duration.max(0.0);
        let attack = self.attack(start, duration, shape)?;
        let outcome = self.sim.resume_probe(snapshot, prefix, &attack, self.observer)?;
        Ok(self.classify(&outcome, start, duration))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swarm_math::{Vec2, Vec3};
    use swarm_sim::mission::MissionSpec;
    use swarm_sim::spoof::{SpoofDirection, WaveformKind};
    use swarm_sim::{ControlContext, PerceivedSelf};

    /// Controller that makes drone 1 mirror drone 0's broadcast lateral
    /// position onto a collision course when dragged, while drone 0 flies
    /// straight. Simple and fully deterministic, for objective plumbing
    /// tests.
    struct FollowY;

    impl SwarmController for FollowY {
        fn desired_velocity(&self, ctx: &ControlContext<'_>) -> Vec3 {
            let PerceivedSelf { position, .. } = ctx.self_state;
            let forward = Vec3::new(2.0, 0.0, 0.0);
            if ctx.id == DroneId(0) {
                return forward;
            }
            // Drone 1 chases drone 0's broadcast y.
            let target_y = ctx
                .neighbors
                .iter()
                .find(|n| n.id == DroneId(0))
                .map_or(position.y, |n| n.position.y);
            forward + Vec3::new(0.0, (target_y - position.y) * 0.8, 0.0)
        }
    }

    fn spec() -> MissionSpec {
        let mut spec = MissionSpec::paper_delivery(2, 0);
        // Fixed, deterministic layout: drone 0 at y=8 (will pass the
        // obstacle), drone 1 at y=8 too; obstacle at y=0 with radius 4.
        spec.start_min = Vec2::new(0.0, 7.0);
        spec.start_max = Vec2::new(20.0, 9.0);
        spec.duration = 90.0;
        spec
    }

    fn seed() -> Seed {
        Seed {
            target: DroneId(0),
            victim: DroneId(1),
            direction: SpoofDirection::Right,
            influence: 1.0,
            victim_vdo: 4.0,
            waveform: WaveformKind::Constant,
        }
    }

    #[test]
    fn no_attack_window_yields_no_collision() {
        let sim = Simulation::new(spec(), FollowY).unwrap();
        let obj = Objective::new(&sim, seed(), 10.0);
        let e = obj.evaluate(0.0, 0.0).unwrap();
        assert_eq!(e.outcome, EvalOutcome::NoCollision);
        assert!(e.value > 0.0);
    }

    #[test]
    fn spoofing_right_drags_victim_into_obstacle() {
        // Right spoofing displaces drone 0's broadcast y by -10 (toward the
        // obstacle line); drone 1 chases it into the cylinder.
        let sim = Simulation::new(spec(), FollowY).unwrap();
        let obj = Objective::new(&sim, seed(), 10.0);
        let e = obj.evaluate(10.0, 70.0).unwrap();
        assert!(
            matches!(e.outcome, EvalOutcome::SpvCollision { victim: DroneId(1), .. }),
            "outcome={:?}",
            e.outcome
        );
        assert!(e.value <= 0.0);
        assert!(e.is_success());
    }

    #[test]
    fn negative_inputs_are_clamped() {
        let sim = Simulation::new(spec(), FollowY).unwrap();
        let obj = Objective::new(&sim, seed(), 10.0);
        let e = obj.evaluate(-5.0, -1.0).unwrap();
        assert_eq!(e.start, 0.0);
        assert_eq!(e.duration, 0.0);
    }

    #[test]
    fn forked_evaluation_is_bit_identical_to_fresh() {
        let sim = Simulation::new(spec(), FollowY).unwrap();
        let obj = Objective::new(&sim, seed(), 10.0);
        let fresh = obj.evaluate(10.0, 70.0).unwrap();
        let (snap, source) = sim.run_to(10.0).unwrap();
        let prefix = sim.prefix_record(&snap, &source).unwrap();
        let forked = obj.evaluate_forked(&snap, prefix, 10.0, 70.0).unwrap();
        assert_eq!(fresh, forked);
        assert!(forked.is_success(), "the known SPV must survive forking");
    }

    #[test]
    fn shaped_evaluation_runs_every_class() {
        let sim = Simulation::new(spec(), FollowY).unwrap();
        for kind in WaveformKind::ALL {
            let obj = Objective::new(&sim, seed().with_waveform(kind), 10.0);
            let e = obj.evaluate_shaped(10.0, 20.0, Some(1.0)).unwrap();
            assert!(e.value.is_finite(), "class {kind} must evaluate");
        }
    }

    #[test]
    fn drift_full_window_ramp_is_weaker_than_constant() {
        // With the same window, a ramp-in attack displaces the target less
        // than the constant-offset attack, so the victim stays farther from
        // the obstacle.
        let sim = Simulation::new(spec(), FollowY).unwrap();
        let constant = Objective::new(&sim, seed(), 10.0);
        let drift = Objective::new(&sim, seed().with_waveform(WaveformKind::Drift), 10.0);
        let c = constant.evaluate(20.0, 12.0).unwrap();
        let d = drift.evaluate(20.0, 12.0).unwrap();
        assert!(
            d.value >= c.value,
            "ramp-in ({}) must not out-displace constant ({})",
            d.value,
            c.value
        );
    }

    #[test]
    fn objective_decreases_as_window_grows_toward_collision() {
        let sim = Simulation::new(spec(), FollowY).unwrap();
        let obj = Objective::new(&sim, seed(), 10.0);
        let short = obj.evaluate(20.0, 2.0).unwrap();
        let longer = obj.evaluate(20.0, 12.0).unwrap();
        assert!(
            longer.value < short.value,
            "longer spoofing must close in: {} vs {}",
            longer.value,
            short.value
        );
    }
}
