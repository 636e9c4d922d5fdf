//! Drone translational dynamics.
//!
//! [`PointMass`] is SwarmLab's default model and the one every mission
//! flies: a velocity-tracking point mass. The commanded velocity is tracked
//! through a first-order acceleration law with acceleration and speed
//! limits, plus aerodynamic drag. This is the abstraction level the
//! Vásárhelyi algorithm was designed and evaluated at. SwarmLab's second
//! option, a quadcopter model, is not reproduced: no experiment of the paper
//! flies it.

use swarm_math::Vec3;

/// Physical parameters of a drone.
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
}

impl DroneState {
    /// A stationary drone at `position`.
    pub fn at(position: Vec3) -> Self {
        DroneState { position, ..Default::default() }
    }
}

/// A translational dynamics model advancing a drone one physics step;
/// [`PointMass`] is its one implementation.
pub trait Dynamics {
    /// Advances `state` by `dt` seconds while tracking `commanded_velocity`.
    fn step(&mut self, state: &DroneState, commanded_velocity: Vec3, dt: f64) -> DroneState;
}

/// Velocity-tracking point-mass dynamics (SwarmLab's default model).
///
/// Acceleration is `(v_cmd − v) / τ`, clamped at `max_accel`, with linear
/// drag; velocity is clamped at `max_speed`. Integration is semi-implicit
/// Euler: velocity first, then position with the new velocity.
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
        DroneState { position, velocity }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settle(model: &mut PointMass, cmd: Vec3, seconds: f64) -> DroneState {
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
}
