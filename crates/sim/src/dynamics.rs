//! Drone translational dynamics models.
//!
//! Two models are provided, mirroring SwarmLab's options:
//!
//! * [`PointMass`] — the default: a velocity-tracking point mass. The
//!   commanded velocity is tracked through a first-order acceleration law
//!   with acceleration and speed limits, plus aerodynamic drag. This is the
//!   abstraction level the Vásárhelyi algorithm was designed and evaluated
//!   at, and is what all paper experiments use.
//! * [`Quadrotor`] — a cascaded quadrotor model (velocity PID → desired
//!   attitude/thrust → first-order attitude response → rigid-body
//!   translation). Heavier but closer to a real vehicle; used in tests to
//!   confirm the attack findings are not artifacts of the point-mass
//!   abstraction.
//!
//! Both implement [`Dynamics`], so the simulation runner is generic over the
//! model.

use swarm_math::Vec3;

use crate::pid::{Pid, PidConfig};

/// Physical parameters shared by all dynamics models.
///
/// Defaults match SwarmLab's stock quadcopter (mass 0.296 kg).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DroneParams {
    /// Vehicle mass in kilograms.
    pub mass: f64,
    /// Collision radius in metres (bounding sphere).
    pub radius: f64,
    /// Maximum achievable speed in m/s.
    pub max_speed: f64,
    /// Maximum achievable acceleration in m/s².
    pub max_accel: f64,
    /// First-order velocity-tracking time constant in seconds.
    pub velocity_time_constant: f64,
    /// Linear drag coefficient (per second).
    pub drag: f64,
}

impl Default for DroneParams {
    fn default() -> Self {
        DroneParams {
            mass: 0.296,
            radius: 0.25,
            max_speed: 8.0,
            max_accel: 3.0,
            velocity_time_constant: 0.5,
            drag: 0.05,
        }
    }
}

/// Full kinematic state of a drone.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DroneState {
    /// Position in metres (world frame).
    pub position: Vec3,
    /// Velocity in m/s (world frame).
    pub velocity: Vec3,
    /// Attitude as (roll, pitch, yaw) in radians; zero for point-mass.
    pub attitude: Vec3,
}

impl DroneState {
    /// A stationary drone at `position`.
    pub fn at(position: Vec3) -> Self {
        DroneState { position, ..Default::default() }
    }
}

/// A translational dynamics model advancing a drone one physics step.
pub trait Dynamics {
    /// Advances `state` by `dt` seconds while tracking `commanded_velocity`.
    fn step(&mut self, state: &DroneState, commanded_velocity: Vec3, dt: f64) -> DroneState;

    /// Clears internal controller state (integrators, filters).
    fn reset(&mut self);
}

/// Velocity-tracking point-mass dynamics (SwarmLab's default model).
///
/// Acceleration is `(v_cmd − v) / τ`, clamped at `max_accel`, with linear
/// drag; velocity is clamped at `max_speed`. Integration is semi-implicit
/// Euler (see [`swarm_math::integrate`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointMass {
    params: DroneParams,
}

impl PointMass {
    /// Creates the model from physical parameters.
    pub fn new(params: DroneParams) -> Self {
        PointMass { params }
    }

    /// The model's physical parameters.
    pub fn params(&self) -> &DroneParams {
        &self.params
    }
}

impl Default for PointMass {
    fn default() -> Self {
        PointMass::new(DroneParams::default())
    }
}

impl Dynamics for PointMass {
    fn step(&mut self, state: &DroneState, commanded_velocity: Vec3, dt: f64) -> DroneState {
        let p = &self.params;
        let cmd = commanded_velocity.clamp_norm(p.max_speed);
        let accel = ((cmd - state.velocity) / p.velocity_time_constant).clamp_norm(p.max_accel)
            - state.velocity * p.drag;
        let velocity = (state.velocity + accel * dt).clamp_norm(p.max_speed);
        let position = state.position + velocity * dt;
        DroneState { position, velocity, attitude: Vec3::ZERO }
    }

    fn reset(&mut self) {}
}

/// Parameters specific to the cascaded quadrotor model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadrotorParams {
    /// Shared physical parameters.
    pub drone: DroneParams,
    /// Velocity-loop PID gains (same gains applied per axis).
    pub velocity_pid: PidConfig,
    /// First-order attitude-response time constant in seconds.
    pub attitude_time_constant: f64,
    /// Maximum roll/pitch angle in radians.
    pub max_tilt: f64,
}

impl Default for QuadrotorParams {
    fn default() -> Self {
        QuadrotorParams {
            drone: DroneParams::default(),
            velocity_pid: PidConfig {
                kp: 3.0,
                ki: 0.4,
                kd: 0.05,
                integral_limit: 2.0,
                output_limit: 6.0,
            },
            attitude_time_constant: 0.15,
            max_tilt: 0.6,
        }
    }
}

/// Cascaded quadrotor dynamics.
///
/// The outer velocity PID produces a desired world-frame acceleration; with
/// gravity compensation this maps to a desired thrust direction, i.e. desired
/// roll/pitch (yaw held at zero). The attitude follows the command through a
/// first-order lag, and the realized thrust (body-z) plus gravity drives the
/// translation.
#[derive(Debug, Clone, PartialEq)]
pub struct Quadrotor {
    params: QuadrotorParams,
    pid_x: Pid,
    pid_y: Pid,
    pid_z: Pid,
}

/// Standard gravity in m/s².
pub const GRAVITY: f64 = 9.81;

impl Quadrotor {
    /// Creates the model from its parameters.
    pub fn new(params: QuadrotorParams) -> Self {
        Quadrotor {
            pid_x: Pid::new(params.velocity_pid),
            pid_y: Pid::new(params.velocity_pid),
            pid_z: Pid::new(params.velocity_pid),
            params,
        }
    }

    /// The model's parameters.
    pub fn params(&self) -> &QuadrotorParams {
        &self.params
    }
}

impl Default for Quadrotor {
    fn default() -> Self {
        Quadrotor::new(QuadrotorParams::default())
    }
}

impl Dynamics for Quadrotor {
    fn step(&mut self, state: &DroneState, commanded_velocity: Vec3, dt: f64) -> DroneState {
        let p = self.params;
        let cmd = commanded_velocity.clamp_norm(p.drone.max_speed);

        // Outer loop: velocity error -> desired world acceleration.
        let err = cmd - state.velocity;
        let a_des = Vec3::new(
            self.pid_x.update(err.x, dt),
            self.pid_y.update(err.y, dt),
            self.pid_z.update(err.z, dt),
        )
        .clamp_norm(p.drone.max_accel);

        // Desired thrust vector must also cancel gravity.
        let thrust_des = a_des + Vec3::Z * GRAVITY;
        // Small-angle attitude extraction (yaw = 0): pitch tilts the thrust
        // toward +x, roll toward -y.
        let tz = thrust_des.z.max(1.0);
        let pitch_des = swarm_math::clamp((thrust_des.x / tz).atan(), -p.max_tilt, p.max_tilt);
        let roll_des = swarm_math::clamp((-thrust_des.y / tz).atan(), -p.max_tilt, p.max_tilt);

        // First-order attitude response.
        let alpha = (dt / p.attitude_time_constant).min(1.0);
        let roll = swarm_math::lerp(state.attitude.x, roll_des, alpha);
        let pitch = swarm_math::lerp(state.attitude.y, pitch_des, alpha);

        // Realized thrust magnitude tracks the commanded vertical demand.
        let thrust_mag = thrust_des.norm();
        // Body-z axis in world frame for (roll, pitch, yaw=0).
        let (sr, cr) = roll.sin_cos();
        let (sp, cp) = pitch.sin_cos();
        let body_z = Vec3::new(cr * sp, -sr, cr * cp);
        let accel = body_z * thrust_mag - Vec3::Z * GRAVITY - state.velocity * p.drone.drag;

        let velocity = (state.velocity + accel * dt).clamp_norm(p.drone.max_speed);
        let position = state.position + velocity * dt;
        DroneState { position, velocity, attitude: Vec3::new(roll, pitch, 0.0) }
    }

    fn reset(&mut self) {
        self.pid_x.reset();
        self.pid_y.reset();
        self.pid_z.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settle<D: Dynamics>(model: &mut D, cmd: Vec3, seconds: f64) -> DroneState {
        let mut s = DroneState::default();
        let dt = 0.01;
        // Derive the step count through the shared rounding helper — the
        // truncating `(seconds / dt) as usize` this used to do ran one step
        // short of the mission loop's own cadence (10.0/0.01 < 1000.0).
        for _ in 0..crate::mission::ticks_per(seconds, dt) {
            s = model.step(&s, cmd, dt);
        }
        s
    }

    #[test]
    fn point_mass_tracks_commanded_velocity() {
        let mut m = PointMass::default();
        let s = settle(&mut m, Vec3::new(2.0, 0.0, 0.0), 5.0);
        assert!((s.velocity.x - 2.0).abs() < 0.1, "vx={}", s.velocity.x);
        assert!(s.velocity.y.abs() < 1e-9);
    }

    #[test]
    fn point_mass_respects_speed_limit() {
        let mut m = PointMass::default();
        let s = settle(&mut m, Vec3::new(100.0, 0.0, 0.0), 10.0);
        assert!(s.velocity.norm() <= m.params().max_speed + 1e-9);
    }

    #[test]
    fn point_mass_respects_accel_limit() {
        let mut m = PointMass::default();
        let s0 = DroneState::default();
        let s1 = m.step(&s0, Vec3::new(100.0, 0.0, 0.0), 0.01);
        let accel = (s1.velocity - s0.velocity).norm() / 0.01;
        assert!(accel <= m.params().max_accel + 1e-9, "accel={accel}");
    }

    #[test]
    fn point_mass_hover_is_stationary() {
        let mut m = PointMass::default();
        let s = settle(&mut m, Vec3::ZERO, 2.0);
        assert!(s.velocity.norm() < 1e-9);
        assert!(s.position.norm() < 1e-9);
    }

    #[test]
    fn quadrotor_tracks_horizontal_velocity() {
        let mut m = Quadrotor::default();
        let s = settle(&mut m, Vec3::new(2.0, 0.0, 0.0), 8.0);
        assert!((s.velocity.x - 2.0).abs() < 0.2, "vx={}", s.velocity.x);
        assert!(s.velocity.z.abs() < 0.2, "vz={}", s.velocity.z);
    }

    #[test]
    fn quadrotor_holds_altitude_at_hover() {
        let mut m = Quadrotor::default();
        let s = settle(&mut m, Vec3::ZERO, 8.0);
        assert!(s.position.z.abs() < 0.5, "z drift={}", s.position.z);
    }

    #[test]
    fn quadrotor_tilt_bounded() {
        let mut m = Quadrotor::default();
        let mut s = DroneState::default();
        for _ in 0..500 {
            s = m.step(&s, Vec3::new(50.0, 50.0, 0.0), 0.01);
            assert!(s.attitude.x.abs() <= m.params().max_tilt + 1e-9);
            assert!(s.attitude.y.abs() <= m.params().max_tilt + 1e-9);
        }
    }

    #[test]
    fn reset_restores_initial_behaviour() {
        let mut a = Quadrotor::default();
        let mut b = Quadrotor::default();
        // Drive `a` for a while, then reset: next step must equal fresh model.
        settle(&mut a, Vec3::new(3.0, -1.0, 0.5), 2.0);
        a.reset();
        let s = DroneState::default();
        let sa = a.step(&s, Vec3::X, 0.01);
        let sb = b.step(&s, Vec3::X, 0.01);
        assert_eq!(sa, sb);
    }
}
