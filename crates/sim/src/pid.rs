//! A generic PID controller with clamped integral (anti-windup).
//!
//! SwarmLab's drones track commanded velocities through PID loops; the
//! [`crate::dynamics`] models reuse this implementation per axis.

/// PID gains and output limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PidConfig {
    /// Proportional gain.
    pub kp: f64,
    /// Integral gain.
    pub ki: f64,
    /// Derivative gain.
    pub kd: f64,
    /// Absolute bound on the integral term contribution (anti-windup).
    pub integral_limit: f64,
    /// Absolute bound on the controller output.
    pub output_limit: f64,
}

impl Default for PidConfig {
    fn default() -> Self {
        PidConfig { kp: 1.0, ki: 0.0, kd: 0.0, integral_limit: 1.0, output_limit: f64::INFINITY }
    }
}

/// A single-axis PID controller.
///
/// ```
/// use swarm_sim::pid::{Pid, PidConfig};
///
/// let mut pid = Pid::new(PidConfig { kp: 2.0, ..Default::default() });
/// let u = pid.update(1.5, 0.01);
/// assert_eq!(u, 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pid {
    config: PidConfig,
    integral: f64,
    last_error: Option<f64>,
}

impl Pid {
    /// Creates a controller with the given gains and zeroed state.
    pub fn new(config: PidConfig) -> Self {
        Pid { config, integral: 0.0, last_error: None }
    }

    /// The configured gains.
    pub fn config(&self) -> &PidConfig {
        &self.config
    }

    /// Advances the controller by one step of length `dt` with the given
    /// tracking `error`, returning the control output.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0`.
    pub fn update(&mut self, error: f64, dt: f64) -> f64 {
        assert!(dt > 0.0, "PID step requires positive dt, got {dt}");
        self.integral = swarm_math::clamp(
            self.integral + error * dt,
            -self.config.integral_limit,
            self.config.integral_limit,
        );
        let derivative = match self.last_error {
            Some(prev) => (error - prev) / dt,
            None => 0.0,
        };
        self.last_error = Some(error);
        let raw =
            self.config.kp * error + self.config.ki * self.integral + self.config.kd * derivative;
        swarm_math::clamp(raw, -self.config.output_limit, self.config.output_limit)
    }

    /// Clears the accumulated integral and derivative memory.
    pub fn reset(&mut self) {
        self.integral = 0.0;
        self.last_error = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PidConfig {
        PidConfig { kp: 1.0, ki: 0.5, kd: 0.1, integral_limit: 2.0, output_limit: 10.0 }
    }

    #[test]
    fn proportional_only_response() {
        let mut pid = Pid::new(PidConfig { kp: 3.0, ..Default::default() });
        assert_eq!(pid.update(2.0, 0.1), 6.0);
    }

    #[test]
    fn integral_accumulates_and_clamps() {
        let mut pid =
            Pid::new(PidConfig { kp: 0.0, ki: 1.0, integral_limit: 0.5, ..Default::default() });
        for _ in 0..100 {
            pid.update(1.0, 0.1);
        }
        // Integral clamped at 0.5 -> output = ki * 0.5.
        assert_eq!(pid.update(1.0, 0.1), 0.5);
    }

    #[test]
    fn derivative_sees_error_change() {
        let mut pid = Pid::new(PidConfig { kd: 1.0, kp: 0.0, ..Default::default() });
        pid.update(0.0, 0.1);
        let u = pid.update(1.0, 0.1);
        assert!((u - 10.0).abs() < 1e-12, "de/dt = 1.0/0.1 = 10");
    }

    #[test]
    fn output_limit_applies() {
        let mut pid = Pid::new(PidConfig { kp: 100.0, output_limit: 5.0, ..Default::default() });
        assert_eq!(pid.update(1.0, 0.1), 5.0);
        assert_eq!(pid.update(-1.0, 0.1), -5.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut pid = Pid::new(cfg());
        pid.update(1.0, 0.1);
        pid.reset();
        let mut fresh = Pid::new(cfg());
        assert_eq!(pid.update(0.7, 0.1), fresh.update(0.7, 0.1));
    }

    #[test]
    #[should_panic(expected = "positive dt")]
    fn zero_dt_panics() {
        Pid::new(cfg()).update(1.0, 0.0);
    }
}
