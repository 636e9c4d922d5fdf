//! Lightweight state estimation over GPS fixes.
//!
//! Real autopilots do not feed raw GPS into control; they filter it. This
//! module provides an α-β tracker (the fixed-gain steady-state form of a
//! Kalman filter for position/velocity) plus an outlier gate. It is the
//! substrate for studying *filtering as a defense*: a low-pass filter delays
//! (but does not remove) a constant spoofing offset, while an outlier gate
//! is exactly the innovation monitor of `swarmfuzz::defense` acting on the
//! estimate instead of raising an alarm.

use swarm_math::Vec3;

/// Gains and gating for the α-β tracker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorConfig {
    /// Position correction gain α ∈ (0, 1].
    pub alpha: f64,
    /// Velocity correction gain β ∈ (0, α].
    pub beta: f64,
    /// Innovation gate in metres: measurements farther than this from the
    /// prediction are rejected (fed as prediction-only updates). `None`
    /// disables gating.
    pub gate: Option<f64>,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig { alpha: 0.5, beta: 0.2, gate: None }
    }
}

/// An α-β position/velocity tracker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlphaBeta {
    config: EstimatorConfig,
    position: Vec3,
    velocity: Vec3,
    time: Option<f64>,
    rejected: usize,
}

impl AlphaBeta {
    /// Creates an uninitialized tracker.
    pub fn new(config: EstimatorConfig) -> Self {
        AlphaBeta { config, position: Vec3::ZERO, velocity: Vec3::ZERO, time: None, rejected: 0 }
    }

    /// Feeds one position measurement at `time`; returns the filtered
    /// position estimate.
    ///
    /// The first measurement initializes the state directly.
    ///
    /// # Panics
    ///
    /// Panics if `time` is not strictly increasing.
    pub fn update(&mut self, measured: Vec3, time: f64) -> Vec3 {
        let Some(last) = self.time else {
            self.position = measured;
            self.time = Some(time);
            return self.position;
        };
        assert!(time > last, "time must increase: {last} -> {time}");
        let dt = time - last;
        self.time = Some(time);

        // Predict.
        let predicted = self.position + self.velocity * dt;

        // Gate.
        let innovation = measured - predicted;
        if let Some(gate) = self.config.gate {
            if innovation.norm() > gate {
                self.rejected += 1;
                self.position = predicted;
                return self.position;
            }
        }

        // Correct.
        self.position = predicted + innovation * self.config.alpha;
        self.velocity += innovation * (self.config.beta / dt);
        self.position
    }

    /// The current position estimate (zero before the first update).
    pub fn position(&self) -> Vec3 {
        self.position
    }

    /// The current velocity estimate.
    pub fn velocity(&self) -> Vec3 {
        self.velocity
    }

    /// Number of gated-out measurements.
    pub fn rejected(&self) -> usize {
        self.rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn track(filter: &mut AlphaBeta, path: impl Fn(f64) -> Vec3, n: usize, dt: f64) -> Vec3 {
        let mut est = Vec3::ZERO;
        for i in 0..n {
            let t = i as f64 * dt;
            est = filter.update(path(t), t);
        }
        est
    }

    #[test]
    fn first_measurement_initializes() {
        let mut f = AlphaBeta::new(EstimatorConfig::default());
        let p = Vec3::new(3.0, 4.0, 5.0);
        assert_eq!(f.update(p, 0.0), p);
    }

    #[test]
    fn converges_on_constant_velocity_track() {
        let mut f = AlphaBeta::new(EstimatorConfig::default());
        let v = Vec3::new(3.0, -1.0, 0.0);
        let est = track(&mut f, |t| v * t, 200, 0.1);
        let truth = v * (199.0 * 0.1);
        assert!(est.distance(truth) < 0.05, "estimate off by {}", est.distance(truth));
        assert!(f.velocity().distance(v) < 0.05);
    }

    #[test]
    fn filter_smooths_a_step() {
        // A 10 m step (constant-offset spoof onset) passes through an
        // ungated filter only gradually.
        let mut f = AlphaBeta::new(EstimatorConfig::default());
        track(&mut f, |t| Vec3::new(2.0 * t, 0.0, 0.0), 50, 0.1);
        let before = f.position();
        let stepped = Vec3::new(before.x + 0.2, 10.0, 0.0);
        let after = f.update(stepped, 5.0);
        assert!(after.y > 0.0 && after.y < 10.0, "step must be smoothed, got {}", after.y);
    }

    #[test]
    fn gate_rejects_the_step_entirely() {
        let cfg = EstimatorConfig { gate: Some(5.0), ..Default::default() };
        let mut f = AlphaBeta::new(cfg);
        track(&mut f, |t| Vec3::new(2.0 * t, 0.0, 0.0), 50, 0.1);
        let before = f.position();
        let after = f.update(Vec3::new(before.x + 0.2, 10.0, 0.0), 5.0);
        assert!(after.y.abs() < 0.1, "gated step must not move the estimate, got {}", after.y);
        assert_eq!(f.rejected(), 1);
    }

    #[test]
    fn gate_passes_small_offsets() {
        // The defense blind spot: a 3 m offset sails through a 5 m gate.
        let cfg = EstimatorConfig { gate: Some(5.0), ..Default::default() };
        let mut f = AlphaBeta::new(cfg);
        track(&mut f, |t| Vec3::new(2.0 * t, 0.0, 0.0), 50, 0.1);
        for i in 0..100 {
            let t = 5.0 + i as f64 * 0.1;
            f.update(Vec3::new(2.0 * t, 3.0, 0.0), t);
        }
        assert!(f.position().y > 2.5, "small spoof converges into the estimate");
        assert_eq!(f.rejected(), 0);
    }

    #[test]
    #[should_panic(expected = "time must increase")]
    fn non_monotone_time_panics() {
        let mut f = AlphaBeta::new(EstimatorConfig::default());
        f.update(Vec3::ZERO, 1.0);
        f.update(Vec3::ZERO, 1.0);
    }
}
