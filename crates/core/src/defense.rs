//! Defense-side analysis: would a standard GPS-spoofing detector notice the
//! attacks SwarmFuzz finds?
//!
//! The paper's stealthiness argument (§II, §V-A) is that single-drone GPS
//! defenses ignore spoofing deviations below ~10 m because such offsets are
//! indistinguishable from the standard GPS position error, and flagging them
//! would drown operators in false positives. This module operationalizes
//! that argument with an *innovation monitor*: each GPS fix is compared to
//! the position predicted by dead reckoning from the previous fix; a fix
//! whose innovation exceeds a threshold raises an alarm.
//!
//! A constant-offset spoof produces exactly one innovation spike of `d`
//! metres at the window start (and one at the end), so a monitor with a
//! threshold `τ` detects the attack iff `d > τ` (plus noise margin) — and
//! defenses tuned for `τ ≈ 10 m` miss the paper's 5 m and (marginally) 10 m
//! attacks, as the `defense_evasion` bench demonstrates.

use swarm_math::Vec3;

/// An innovation-based GPS spoofing monitor for a single drone.
///
/// Feed it the drone's GPS fixes in order; it dead-reckons each fix from the
/// last one and raises an alarm when the prediction error ("innovation")
/// exceeds the threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InnovationMonitor {
    /// Alarm threshold in metres. Real deployments use ~10 m to stay below
    /// the false-positive budget under standard GPS error.
    pub threshold: f64,
    last: Option<(Vec3, Vec3, f64)>,
    alarms: usize,
    max_innovation: f64,
}

impl InnovationMonitor {
    /// Creates a monitor with the given alarm threshold.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not strictly positive.
    pub fn new(threshold: f64) -> Self {
        assert!(threshold > 0.0, "threshold must be positive, got {threshold}");
        InnovationMonitor { threshold, last: None, alarms: 0, max_innovation: 0.0 }
    }

    /// Feeds one GPS fix (perceived position + velocity at `time`); returns
    /// the innovation in metres (`0` for the very first fix).
    pub fn observe(&mut self, position: Vec3, velocity: Vec3, time: f64) -> f64 {
        let innovation = match self.last {
            Some((p, v, t)) => {
                let dt = time - t;
                let predicted = p + v * dt;
                predicted.distance(position)
            }
            None => 0.0,
        };
        self.last = Some((position, velocity, time));
        self.max_innovation = self.max_innovation.max(innovation);
        if innovation > self.threshold {
            self.alarms += 1;
        }
        innovation
    }

    /// Number of alarms raised so far.
    pub fn alarms(&self) -> usize {
        self.alarms
    }

    /// Largest innovation seen.
    pub fn max_innovation(&self) -> f64 {
        self.max_innovation
    }

    /// `true` once any alarm fired.
    pub fn detected(&self) -> bool {
        self.alarms > 0
    }
}

/// Result of screening one attacked mission with an [`InnovationMonitor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionOutcome {
    /// Whether the monitor alarmed at least once.
    pub detected: bool,
    /// Number of alarms over the mission.
    pub alarms: usize,
    /// The largest innovation observed (m).
    pub max_innovation: f64,
}

/// Screens a spoofing attack against a monitored target drone.
///
/// `true_positions` is the target's trajectory sampled every `sample_dt`
/// seconds (as recorded by the mission recorder); the perceived GPS stream
/// is reconstructed by adding the attack's offset, and `noise_std` metres of
/// synthetic white GPS noise can be layered on top (deterministic from
/// `noise_seed`).
pub fn screen_attack(
    monitor_threshold: f64,
    true_positions: &[Vec3],
    true_velocities: &[Vec3],
    sample_dt: f64,
    offset_at: impl Fn(f64) -> Vec3,
    noise_std: f64,
    noise_seed: u64,
) -> DetectionOutcome {
    use rand::Rng;
    let mut rng = swarm_math::rng::rng_for(noise_seed, 0xDEF);
    let mut gauss = move || {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    };
    let mut monitor = InnovationMonitor::new(monitor_threshold);
    for (i, (&p, &v)) in true_positions.iter().zip(true_velocities).enumerate() {
        let t = i as f64 * sample_dt;
        let noise = if noise_std > 0.0 {
            Vec3::new(gauss() * noise_std, gauss() * noise_std, 0.5 * gauss() * noise_std)
        } else {
            Vec3::ZERO
        };
        monitor.observe(p + offset_at(t) + noise, v, t);
    }
    DetectionOutcome {
        detected: monitor.detected(),
        alarms: monitor.alarms(),
        max_innovation: monitor.max_innovation(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn straight_flight(n: usize, dt: f64) -> (Vec<Vec3>, Vec<Vec3>) {
        let v = Vec3::new(3.0, 0.0, 0.0);
        let positions = (0..n).map(|i| v * (i as f64 * dt)).collect();
        let velocities = vec![v; n];
        (positions, velocities)
    }

    #[test]
    fn clean_flight_raises_no_alarm() {
        let (p, v) = straight_flight(100, 0.1);
        let out = screen_attack(1.0, &p, &v, 0.1, |_| Vec3::ZERO, 0.0, 1);
        assert!(!out.detected);
        assert!(out.max_innovation < 1e-9);
    }

    #[test]
    fn offset_larger_than_threshold_is_detected_at_window_edges() {
        let (p, v) = straight_flight(100, 0.1);
        let offset = |t: f64| {
            if (2.0..5.0).contains(&t) {
                Vec3::new(0.0, 15.0, 0.0)
            } else {
                Vec3::ZERO
            }
        };
        let out = screen_attack(10.0, &p, &v, 0.1, offset, 0.0, 1);
        assert!(out.detected);
        assert_eq!(out.alarms, 2, "one alarm at window start, one at end");
        assert!((out.max_innovation - 15.0).abs() < 1e-9);
    }

    #[test]
    fn small_offset_evades_ten_metre_threshold() {
        // The paper's stealthiness claim: 5 m spoofing under a 10 m-threshold
        // monitor.
        let (p, v) = straight_flight(100, 0.1);
        let offset =
            |t: f64| if (2.0..5.0).contains(&t) { Vec3::new(0.0, 5.0, 0.0) } else { Vec3::ZERO };
        let out = screen_attack(10.0, &p, &v, 0.1, offset, 0.0, 1);
        assert!(!out.detected, "5 m offset must evade a 10 m monitor");
        assert!((out.max_innovation - 5.0).abs() < 1e-9);
    }

    #[test]
    fn noise_does_not_false_alarm_with_realistic_threshold() {
        let (p, v) = straight_flight(2000, 0.1);
        // ~1.5 m GPS noise vs 10 m threshold: innovations stay well below.
        let out = screen_attack(10.0, &p, &v, 0.1, |_| Vec3::ZERO, 1.5, 42);
        assert!(!out.detected, "max innovation {:.2}", out.max_innovation);
    }

    #[test]
    fn tight_threshold_false_alarms_under_noise() {
        // Why defenders cannot simply lower τ: noise alone trips a 2 m
        // threshold.
        let (p, v) = straight_flight(2000, 0.1);
        let out = screen_attack(2.0, &p, &v, 0.1, |_| Vec3::ZERO, 1.5, 42);
        assert!(out.detected, "1.5 m noise must trip a 2 m monitor");
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn zero_threshold_panics() {
        InnovationMonitor::new(0.0);
    }
}
