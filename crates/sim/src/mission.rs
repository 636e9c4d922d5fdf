//! Mission specifications.
//!
//! [`MissionSpec`] bundles everything needed to fly one swarm mission: the
//! swarm size, initial placement area, destination, environment, timing and
//! sensor/communication configuration. [`MissionSpec::paper_delivery`] builds
//! the exact scenario of the paper's evaluation (§V-A): a delivery mission to
//! a destination 233.5 m away with a single on-path cylindrical obstacle at
//! roughly the half-way mark, and the swarm's start positions randomly drawn
//! from a 0–50 m box.

use rand::Rng;
use swarm_math::rng::{derive_seed, rng_for, streams};
use swarm_math::{Vec2, Vec3};

use crate::comms::CommsConfig;
use crate::dynamics::DroneParams;
use crate::sensors::GpsConfig;
use crate::spoof::{AttackModel, AttackSpec};
use crate::wind::WindConfig;
use crate::world::{Obstacle, World};
use crate::SimError;

/// Length of the paper's delivery mission in metres.
pub const PAPER_MISSION_LENGTH: f64 = 233.5;

/// Upper bound on any `span / physics_dt` tick ratio a spec may derive.
/// Beyond this the `f64 → usize` conversion would quietly saturate; validate
/// rejects such specs up front with a typed error instead.
pub const MAX_TICK_RATIO: f64 = 1e12;

/// The single tick-derivation rule: the whole physics-step count nearest to
/// `span / physics_dt`.
///
/// Every cadence in the repo must derive step counts through this helper —
/// mission duration, control period, GPS period, and test settle loops alike.
/// Rounding (not truncation) is essential: `10.0 / 0.01` is `999.999…` in
/// binary, and truncating it silently drops a step. Callers may assume a
/// validated spec; [`MissionSpec::validate`] rejects NaN, non-positive and
/// overflowing ratios so this helper never sees them.
pub fn ticks_per(span: f64, physics_dt: f64) -> usize {
    (span / physics_dt).round() as usize
}

/// Cruise altitude used by the reproduction missions (metres).
pub const CRUISE_ALTITUDE: f64 = 10.0;

/// A complete description of one swarm mission.
#[derive(Debug, Clone, PartialEq)]
pub struct MissionSpec {
    /// Number of drones in the swarm.
    pub swarm_size: usize,
    /// Start-area corner (minimum x/y) at cruise altitude.
    pub start_min: Vec2,
    /// Start-area corner (maximum x/y).
    pub start_max: Vec2,
    /// Minimum pairwise separation enforced between initial positions (m).
    pub min_start_separation: f64,
    /// Mission destination.
    pub destination: Vec3,
    /// Radius around the destination that counts as "arrived" (m).
    pub arrival_radius: f64,
    /// The static environment.
    pub world: World,
    /// Maximum mission duration in seconds.
    pub duration: f64,
    /// Physics integration step in seconds.
    pub physics_dt: f64,
    /// Control (and communication) period in seconds.
    pub control_period: f64,
    /// GPS receiver configuration.
    pub gps: GpsConfig,
    /// Communication bus configuration.
    pub comms: CommsConfig,
    /// Drone physical parameters.
    pub drone: DroneParams,
    /// Wind/disturbance model (calm by default, as in the paper).
    pub wind: WindConfig,
    /// Neighbor states older than this are ignored by controllers (s).
    pub max_neighbor_age: f64,
    /// Root seed for all mission randomness (placement, noise, comms).
    pub seed: u64,
}

impl MissionSpec {
    /// Builds the paper's delivery mission (§V-A) for the given swarm size
    /// and seed.
    ///
    /// Geometry: the swarm starts in a 30 m box whose lateral placement is
    /// randomized within the paper's 0–50 m start range, flies to a
    /// destination [`PAPER_MISSION_LENGTH`] metres down the +x axis, and must
    /// pass a cylindrical obstacle of radius 4 m sitting on the flight
    /// corridor at roughly the half-way mark.
    pub fn paper_delivery(swarm_size: usize, seed: u64) -> Self {
        // The paper randomizes the swarm's initial location within a 0–50 m
        // range of the starting point; shifting the whole start box laterally
        // reproduces the resulting spread of closest-approach distances
        // (VDOs) across missions.
        let mut rng = rng_for(seed, streams::MISSION_OFFSET);
        let y_offset: f64 = rng.gen_range(-18.0..=18.0);
        MissionSpec {
            swarm_size,
            start_min: Vec2::new(0.0, -15.0 + y_offset),
            start_max: Vec2::new(30.0, 15.0 + y_offset),
            min_start_separation: 5.0,
            destination: Vec3::new(PAPER_MISSION_LENGTH, 0.0, CRUISE_ALTITUDE),
            arrival_radius: 20.0,
            world: World::with_obstacles(vec![Obstacle::Cylinder {
                center: Vec2::new(130.0, 0.0),
                radius: 4.0,
            }]),
            duration: 150.0,
            physics_dt: 0.01,
            control_period: 0.1,
            gps: GpsConfig::default(),
            comms: CommsConfig::default(),
            drone: DroneParams::default(),
            wind: WindConfig::default(),
            max_neighbor_age: 1.0,
            seed,
        }
    }

    /// Unit vector of the mission's horizontal axis (start-area centre to
    /// destination); spoofing directions are defined relative to this.
    pub fn mission_axis(&self) -> Vec2 {
        let center = (self.start_min + self.start_max) * 0.5;
        (self.destination.xy() - center).normalized()
    }

    /// Deterministically draws the swarm's initial positions from the start
    /// box, enforcing [`MissionSpec::min_start_separation`] by rejection
    /// sampling (falls back to accepting the last candidate after 10 000
    /// attempts so pathological specs still terminate).
    pub fn initial_positions(&self) -> Vec<Vec3> {
        let mut rng = rng_for(self.seed, streams::MISSION_LAYOUT);
        let mut positions: Vec<Vec3> = Vec::with_capacity(self.swarm_size);
        for _ in 0..self.swarm_size {
            let mut candidate = Vec3::ZERO;
            for attempt in 0..10_000 {
                candidate = Vec3::new(
                    rng.gen_range(self.start_min.x..=self.start_max.x),
                    rng.gen_range(self.start_min.y..=self.start_max.y),
                    CRUISE_ALTITUDE,
                );
                let ok =
                    positions.iter().all(|p| p.distance(candidate) >= self.min_start_separation);
                if ok || attempt == 9_999 {
                    break;
                }
            }
            positions.push(candidate);
        }
        positions
    }

    /// Number of physics steps in the mission.
    pub fn physics_steps(&self) -> usize {
        ticks_per(self.duration, self.physics_dt)
    }

    /// Number of physics steps per control tick (at least 1).
    pub fn steps_per_control(&self) -> usize {
        ticks_per(self.control_period, self.physics_dt).max(1)
    }

    /// Number of physics steps per GPS sample (at least 1).
    pub fn steps_per_gps(&self) -> usize {
        ticks_per(self.gps.period(), self.physics_dt).max(1)
    }

    /// A 64-bit fingerprint of every field of the spec, used to key snapshot
    /// caches and to verify that a [`crate::SimSnapshot`] is resumed by a
    /// simulation of the *same* mission. Built as a SplitMix64 hash chain
    /// (like the campaign journal fingerprint), so two specs differing in any
    /// field — including obstacle geometry — fingerprint differently with
    /// overwhelming probability.
    pub fn fingerprint(&self) -> u64 {
        fn mix_f64(h: u64, x: f64) -> u64 {
            derive_seed(h, x.to_bits())
        }
        fn mix_vec2(h: u64, v: Vec2) -> u64 {
            mix_f64(mix_f64(h, v.x), v.y)
        }
        fn mix_vec3(h: u64, v: Vec3) -> u64 {
            mix_f64(mix_f64(mix_f64(h, v.x), v.y), v.z)
        }
        let mut h = derive_seed(0x5357_4653_4e41_5053, self.swarm_size as u64);
        h = mix_vec2(h, self.start_min);
        h = mix_vec2(h, self.start_max);
        h = mix_f64(h, self.min_start_separation);
        h = mix_vec3(h, self.destination);
        h = mix_f64(h, self.arrival_radius);
        h = derive_seed(h, self.world.obstacles.len() as u64);
        for o in &self.world.obstacles {
            match *o {
                Obstacle::Cylinder { center, radius } => {
                    h = derive_seed(h, 1);
                    h = mix_f64(mix_vec2(h, center), radius);
                }
                Obstacle::Sphere { center, radius } => {
                    h = derive_seed(h, 2);
                    h = mix_f64(mix_vec3(h, center), radius);
                }
            }
        }
        h = mix_f64(h, self.duration);
        h = mix_f64(h, self.physics_dt);
        h = mix_f64(h, self.control_period);
        h = mix_f64(h, self.gps.rate_hz);
        h = mix_f64(h, self.gps.position_noise_std);
        h = mix_f64(h, self.gps.velocity_noise_std);
        h = derive_seed(h, self.comms.delay_ticks as u64);
        h = mix_f64(h, self.comms.drop_probability);
        h = derive_seed(h, self.comms.range.is_some() as u64);
        h = mix_f64(h, self.comms.range.unwrap_or(0.0));
        h = mix_f64(h, self.drone.mass);
        h = mix_f64(h, self.drone.radius);
        h = mix_f64(h, self.drone.max_speed);
        h = mix_f64(h, self.drone.max_accel);
        h = mix_f64(h, self.drone.velocity_time_constant);
        h = mix_f64(h, self.drone.drag);
        h = mix_vec3(h, self.wind.mean);
        h = mix_f64(h, self.wind.gust_std);
        h = mix_f64(h, self.wind.gust_time_constant);
        h = mix_f64(h, self.max_neighbor_age);
        derive_seed(h, self.seed)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidMission`] describing the first problem
    /// found (empty swarm, non-positive timing values, start box inverted,
    /// destination inside an obstacle, ...).
    pub fn validate(&self) -> Result<(), SimError> {
        // Rejects non-positive values AND NaN (which fails every comparison).
        fn not_positive(x: f64) -> bool {
            !matches!(x.partial_cmp(&0.0), Some(std::cmp::Ordering::Greater))
        }
        if self.swarm_size == 0 {
            return Err(SimError::InvalidMission("swarm size must be at least 1".into()));
        }
        if not_positive(self.physics_dt) {
            return Err(SimError::InvalidMission(format!(
                "physics_dt must be positive, got {}",
                self.physics_dt
            )));
        }
        if !self.control_period.is_finite() {
            return Err(SimError::InvalidMission(format!(
                "control_period must be finite, got {}",
                self.control_period
            )));
        }
        if self.control_period < self.physics_dt {
            return Err(SimError::InvalidMission("control_period must be >= physics_dt".into()));
        }
        if not_positive(self.duration) {
            return Err(SimError::InvalidMission("duration must be positive".into()));
        }
        // Bound every tick ratio `ticks_per` will derive so the f64 → usize
        // conversions can never saturate mid-run.
        let steps = self.duration / self.physics_dt;
        if steps > MAX_TICK_RATIO {
            return Err(SimError::InvalidMission(format!(
                "duration/physics_dt ratio {steps:e} exceeds the supported {MAX_TICK_RATIO:e} \
                 physics steps"
            )));
        }
        if self.start_min.x > self.start_max.x || self.start_min.y > self.start_max.y {
            return Err(SimError::InvalidMission("start box corners are inverted".into()));
        }
        if not_positive(self.arrival_radius) {
            return Err(SimError::InvalidMission("arrival radius must be positive".into()));
        }
        // Catch this here: `GpsConfig::period` asserts mid-run otherwise.
        if not_positive(self.gps.rate_hz) {
            return Err(SimError::InvalidMission(format!(
                "GPS rate must be positive, got {} Hz",
                self.gps.rate_hz
            )));
        }
        let gps_steps = self.gps.period() / self.physics_dt;
        if gps_steps > MAX_TICK_RATIO {
            return Err(SimError::InvalidMission(format!(
                "GPS period/physics_dt ratio {gps_steps:e} exceeds the supported \
                 {MAX_TICK_RATIO:e} physics steps"
            )));
        }
        for (i, o) in self.world.obstacles.iter().enumerate() {
            if o.surface_distance(self.destination) <= 0.0 {
                return Err(SimError::InvalidMission(format!(
                    "destination lies inside obstacle {i}"
                )));
            }
            if not_positive(o.radius()) {
                return Err(SimError::InvalidMission(format!(
                    "obstacle {i} has non-positive radius"
                )));
            }
        }
        Ok(())
    }

    /// Validates an attack against this mission: the class constructors
    /// already reject malformed parameters in isolation (negative amplitude,
    /// ramp exceeding the window, non-positive jump period); this adds the
    /// mission-relative checks — the target must exist and the spoofing
    /// window must close before the mission does.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidAttack`] (or the constructor's error,
    /// re-derived) describing the first infeasibility found.
    pub fn validate_attack(&self, attack: &AttackSpec) -> Result<(), SimError> {
        // Re-run the constructor checks so a hand-built (all fields public)
        // spec cannot smuggle parameters a constructor would have rejected.
        AttackSpec::from_waveform(
            attack.waveform(),
            AttackModel::target(attack),
            attack.direction(),
            AttackModel::start(attack),
            attack.duration(),
            attack.deviation(),
        )?;
        let target = AttackModel::target(attack);
        if target.index() >= self.swarm_size {
            return Err(SimError::InvalidAttack(format!(
                "target {target} outside the {}-drone swarm",
                self.swarm_size
            )));
        }
        let end = AttackModel::start(attack) + attack.duration();
        if end > self.duration {
            return Err(SimError::InvalidAttack(format!(
                "attack window ends at t={end}, after the mission ends at t={}",
                self.duration
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mission_validates() {
        for n in [1, 5, 10, 15] {
            MissionSpec::paper_delivery(n, 0).validate().unwrap();
        }
    }

    #[test]
    fn validate_attack_accepts_all_feasible_classes() {
        use crate::spoof::Waveform;
        use crate::DroneId;
        let spec = MissionSpec::paper_delivery(5, 0);
        for waveform in [
            Waveform::Constant,
            Waveform::Drift { ramp: 10.0 },
            Waveform::Circular { omega: 1.0 },
            Waveform::Jump { period: 2.0 },
        ] {
            let attack = AttackSpec::from_waveform(
                waveform,
                DroneId(2),
                crate::spoof::SpoofDirection::Left,
                20.0,
                30.0,
                10.0,
            )
            .unwrap();
            spec.validate_attack(&attack).unwrap();
        }
    }

    #[test]
    fn validate_attack_rejects_negative_amplitude() {
        use crate::spoof::{ConstantOffset, SpoofDirection};
        use crate::DroneId;
        let spec = MissionSpec::paper_delivery(5, 0);
        // Built by hand: every field is public, so the constructor was never
        // consulted.
        let attack = AttackSpec::Constant(ConstantOffset {
            target: DroneId(0),
            direction: SpoofDirection::Left,
            start: 0.0,
            duration: 5.0,
            deviation: -5.0,
        });
        let SimError::InvalidAttack(msg) = spec.validate_attack(&attack).unwrap_err() else {
            panic!("wrong error kind")
        };
        assert_eq!(msg, "deviation must be finite and non-negative, got -5");
    }

    #[test]
    fn validate_attack_rejects_ramp_exceeding_window() {
        use crate::spoof::{RampDrift, SpoofDirection};
        use crate::DroneId;
        let spec = MissionSpec::paper_delivery(5, 0);
        let attack = AttackSpec::Drift(RampDrift {
            target: DroneId(0),
            direction: SpoofDirection::Left,
            start: 0.0,
            duration: 5.0,
            deviation: 5.0,
            ramp: 6.0,
        });
        let SimError::InvalidAttack(msg) = spec.validate_attack(&attack).unwrap_err() else {
            panic!("wrong error kind")
        };
        assert_eq!(msg, "ramp-in time 6 exceeds the attack window duration 5");
    }

    #[test]
    fn validate_attack_rejects_window_past_mission_end() {
        use crate::spoof::{SpoofDirection, Waveform};
        use crate::DroneId;
        let spec = MissionSpec::paper_delivery(5, 0); // duration 150 s
        let attack = AttackSpec::from_waveform(
            Waveform::Constant,
            DroneId(0),
            SpoofDirection::Left,
            140.0,
            20.0,
            5.0,
        )
        .unwrap();
        let SimError::InvalidAttack(msg) = spec.validate_attack(&attack).unwrap_err() else {
            panic!("wrong error kind")
        };
        assert_eq!(msg, "attack window ends at t=160, after the mission ends at t=150");
    }

    #[test]
    fn validate_attack_rejects_foreign_target() {
        use crate::spoof::{SpoofDirection, Waveform};
        use crate::DroneId;
        let spec = MissionSpec::paper_delivery(3, 0);
        let attack = AttackSpec::from_waveform(
            Waveform::Jump { period: 1.0 },
            DroneId(9),
            SpoofDirection::Right,
            0.0,
            5.0,
            5.0,
        )
        .unwrap();
        let SimError::InvalidAttack(msg) = spec.validate_attack(&attack).unwrap_err() else {
            panic!("wrong error kind")
        };
        assert_eq!(msg, "target drone9 outside the 3-drone swarm");
    }

    #[test]
    fn paper_mission_geometry() {
        let m = MissionSpec::paper_delivery(5, 1);
        assert_eq!(m.destination.x, PAPER_MISSION_LENGTH);
        assert_eq!(m.world.obstacles.len(), 1);
        // Obstacle roughly half-way.
        let ox = m.world.obstacles[0].center().x;
        assert!(ox > 80.0 && ox < 160.0);
        // Mission axis is predominantly +x (small lateral offset allowed).
        assert!(m.mission_axis().x > 0.95);
    }

    #[test]
    fn initial_positions_deterministic_and_separated() {
        let m = MissionSpec::paper_delivery(15, 42);
        let a = m.initial_positions();
        let b = m.initial_positions();
        assert_eq!(a, b);
        assert_eq!(a.len(), 15);
        for i in 0..a.len() {
            assert!(a[i].x >= m.start_min.x && a[i].x <= m.start_max.x);
            assert!(a[i].y >= m.start_min.y && a[i].y <= m.start_max.y);
            assert_eq!(a[i].z, CRUISE_ALTITUDE);
            for j in 0..i {
                assert!(
                    a[i].distance(a[j]) >= m.min_start_separation,
                    "drones {i} and {j} too close"
                );
            }
        }
    }

    #[test]
    fn different_seeds_give_different_layouts() {
        let a = MissionSpec::paper_delivery(5, 1).initial_positions();
        let b = MissionSpec::paper_delivery(5, 2).initial_positions();
        assert_ne!(a, b);
    }

    #[test]
    fn step_counts() {
        let m = MissionSpec::paper_delivery(5, 0);
        assert_eq!(m.physics_steps(), 15_000);
        assert_eq!(m.steps_per_control(), 10);
        assert_eq!(m.steps_per_gps(), 1);
    }

    #[test]
    fn validate_rejects_bad_specs() {
        let mut m = MissionSpec::paper_delivery(5, 0);
        m.swarm_size = 0;
        assert!(m.validate().is_err());

        let mut m = MissionSpec::paper_delivery(5, 0);
        m.physics_dt = -0.01;
        assert!(m.validate().is_err());

        let mut m = MissionSpec::paper_delivery(5, 0);
        m.control_period = 0.001;
        assert!(m.validate().is_err());

        let mut m = MissionSpec::paper_delivery(5, 0);
        m.start_min = Vec2::new(100.0, 0.0);
        m.start_max = Vec2::new(0.0, 10.0);
        assert!(m.validate().is_err());

        let mut m = MissionSpec::paper_delivery(5, 0);
        m.destination = Vec3::new(130.0, 0.0, CRUISE_ALTITUDE);
        assert!(m.validate().is_err(), "destination inside obstacle must be rejected");
    }

    #[test]
    fn fingerprint_is_stable_and_field_sensitive() {
        let a = MissionSpec::paper_delivery(5, 7);
        assert_eq!(a.fingerprint(), a.fingerprint());
        assert_eq!(a.fingerprint(), MissionSpec::paper_delivery(5, 7).fingerprint());
        assert_ne!(a.fingerprint(), MissionSpec::paper_delivery(5, 8).fingerprint());
        assert_ne!(a.fingerprint(), MissionSpec::paper_delivery(6, 7).fingerprint());

        let mut b = a.clone();
        b.world.obstacles[0] = Obstacle::Cylinder { center: Vec2::new(130.0, 1.0), radius: 4.0 };
        assert_ne!(a.fingerprint(), b.fingerprint(), "obstacle geometry must be hashed");

        let mut c = a.clone();
        c.comms.range = Some(25.0);
        assert_ne!(a.fingerprint(), c.fingerprint(), "comms range must be hashed");
    }

    #[test]
    fn ticks_per_rounds_instead_of_truncating() {
        // 0.3 / 0.1 is 2.999…96 in binary: truncation loses a step,
        // rounding does not. This was the dynamics settle-helper bug.
        assert_eq!((0.3f64 / 0.1) as usize, 2, "binary premise changed");
        assert_eq!(ticks_per(0.3, 0.1), 3);
        assert_eq!(ticks_per(10.0, 0.01), 1000);
        assert_eq!(ticks_per(150.0, 0.01), 15_000);
        assert_eq!(ticks_per(0.1, 0.01), 10);
        assert_eq!(ticks_per(0.0, 0.01), 0);
    }

    #[test]
    fn derived_step_counts_agree_with_the_shared_helper() {
        let m = MissionSpec::paper_delivery(5, 3);
        assert_eq!(m.physics_steps(), ticks_per(m.duration, m.physics_dt));
        assert_eq!(m.steps_per_control(), ticks_per(m.control_period, m.physics_dt).max(1));
        assert_eq!(m.steps_per_gps(), ticks_per(m.gps.period(), m.physics_dt).max(1));
    }

    #[test]
    fn validate_rejects_non_finite_control_period() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut m = MissionSpec::paper_delivery(5, 0);
            m.control_period = bad;
            let SimError::InvalidMission(msg) = m.validate().unwrap_err() else {
                panic!("wrong error kind for control_period {bad}")
            };
            assert_eq!(msg, format!("control_period must be finite, got {bad}"));
        }
    }

    #[test]
    fn validate_rejects_overflowing_duration_ratio() {
        let mut m = MissionSpec::paper_delivery(5, 0);
        m.duration = 1e300;
        let SimError::InvalidMission(msg) = m.validate().unwrap_err() else {
            panic!("wrong error kind")
        };
        assert_eq!(
            msg,
            format!(
                "duration/physics_dt ratio {:e} exceeds the supported {MAX_TICK_RATIO:e} physics \
                 steps",
                1e300 / 0.01
            )
        );
    }

    #[test]
    fn validate_rejects_overflowing_gps_ratio() {
        let mut m = MissionSpec::paper_delivery(5, 0);
        m.gps.rate_hz = 1e-300;
        let SimError::InvalidMission(msg) = m.validate().unwrap_err() else {
            panic!("wrong error kind")
        };
        assert!(
            msg.starts_with("GPS period/physics_dt ratio") && msg.contains("exceeds"),
            "unexpected message: {msg}"
        );
    }

    /// Regression: a zero GPS rate used to pass validation and panic later
    /// inside `GpsConfig::period` mid-run; it is now a typed error up front.
    #[test]
    fn validate_rejects_non_positive_gps_rate() {
        for bad in [0.0, -5.0, f64::NAN] {
            let mut m = MissionSpec::paper_delivery(5, 0);
            m.gps.rate_hz = bad;
            match m.validate() {
                Err(SimError::InvalidMission(msg)) => {
                    assert!(msg.contains("GPS rate"), "unexpected message: {msg}")
                }
                other => panic!("rate {bad} must be rejected, got {other:?}"),
            }
        }
    }
}
