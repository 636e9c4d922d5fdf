//! Sensor models.
//!
//! Only GPS matters for the paper's threat model (the Vicsek algorithm in
//! SwarmLab "performs collision avoidance based solely on the GPS sensor
//! reading"). The GPS receiver samples at a fixed rate (SwarmLab default
//! 100 Hz), adds optional zero-mean Gaussian noise, and applies whatever
//! spoofing offset is active.
//!
//! Position offsets do *not* leak into reported velocity: real receivers
//! derive velocity from Doppler shifts, so a constant position offset leaves
//! velocity untouched (no unphysical velocity spikes at the spoofing window
//! edges).

use rand::rngs::StdRng;
use rand::Rng;
use swarm_math::Vec3;

/// Configuration of the GPS receiver model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpsConfig {
    /// Sampling rate in Hz (SwarmLab default: 100).
    pub rate_hz: f64,
    /// Standard deviation of horizontal position noise in metres.
    pub position_noise_std: f64,
    /// Standard deviation of velocity noise in m/s.
    pub velocity_noise_std: f64,
}

impl Default for GpsConfig {
    fn default() -> Self {
        GpsConfig { rate_hz: 100.0, position_noise_std: 0.0, velocity_noise_std: 0.0 }
    }
}

impl GpsConfig {
    /// The sampling period in seconds.
    ///
    /// # Panics
    ///
    /// Panics if the configured rate is not positive.
    pub fn period(&self) -> f64 {
        assert!(self.rate_hz > 0.0, "GPS rate must be positive, got {}", self.rate_hz);
        1.0 / self.rate_hz
    }
}

/// A GPS fix: position and velocity as perceived by the receiver.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GpsFix {
    /// Perceived position (true + noise + spoofing offset).
    pub position: Vec3,
    /// Perceived velocity (true + noise).
    pub velocity: Vec3,
    /// Measurement timestamp in seconds.
    pub time: f64,
}

/// The GPS receiver of one drone.
///
/// Holds the last fix between samples, like a real receiver: consumers always
/// read the most recent fix even if the physics step rate exceeds the GPS
/// rate.
#[derive(Debug, Clone, PartialEq)]
pub struct GpsReceiver {
    config: GpsConfig,
    last_fix: GpsFix,
    initialized: bool,
}

impl GpsReceiver {
    /// Creates a receiver that has not yet produced a fix.
    pub fn new(config: GpsConfig) -> Self {
        GpsReceiver { config, last_fix: GpsFix::default(), initialized: false }
    }

    /// Takes a measurement of the true state, applying noise and the given
    /// spoofing `offset`, and stores it as the current fix.
    pub fn sample(
        &mut self,
        true_position: Vec3,
        true_velocity: Vec3,
        offset: Vec3,
        time: f64,
        rng: &mut StdRng,
    ) -> GpsFix {
        self.last_fix = sample_fix(&self.config, true_position, true_velocity, offset, time, rng);
        self.initialized = true;
        self.last_fix
    }

    /// The most recent fix, or `None` before the first sample.
    pub fn fix(&self) -> Option<GpsFix> {
        self.initialized.then_some(self.last_fix)
    }
}

/// The measurement law behind [`GpsReceiver::sample`]. Noise draws are
/// guarded by strict `> 0.0` comparisons so a zero-noise config consumes no
/// RNG state.
fn sample_fix(
    config: &GpsConfig,
    true_position: Vec3,
    true_velocity: Vec3,
    offset: Vec3,
    time: f64,
    rng: &mut StdRng,
) -> GpsFix {
    let pos_noise = if config.position_noise_std > 0.0 {
        gaussian3(rng, config.position_noise_std)
    } else {
        Vec3::ZERO
    };
    let vel_noise = if config.velocity_noise_std > 0.0 {
        gaussian3(rng, config.velocity_noise_std)
    } else {
        Vec3::ZERO
    };
    GpsFix {
        position: true_position + pos_noise + offset,
        velocity: true_velocity + vel_noise,
        time,
    }
}

/// Draws a zero-mean isotropic Gaussian 3-vector with per-axis `std`
/// (Box–Muller; vertical noise is halved, matching GPS behaviour where the
/// vertical channel is better damped by the altitude estimator).
fn gaussian3(rng: &mut StdRng, std: f64) -> Vec3 {
    Vec3::new(gaussian(rng) * std, gaussian(rng) * std, gaussian(rng) * std * 0.5)
}

/// Standard normal sample via Box–Muller.
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn noiseless_sample_reports_truth_plus_offset() {
        let mut gps = GpsReceiver::new(GpsConfig::default());
        let fix = gps.sample(
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::X,
            Vec3::new(0.0, 5.0, 0.0),
            1.5,
            &mut rng(),
        );
        assert_eq!(fix.position, Vec3::new(1.0, 7.0, 3.0));
        assert_eq!(fix.velocity, Vec3::X);
        assert_eq!(fix.time, 1.5);
    }

    #[test]
    fn fix_unavailable_before_first_sample() {
        let gps = GpsReceiver::new(GpsConfig::default());
        assert_eq!(gps.fix(), None);
    }

    #[test]
    fn fix_held_between_samples() {
        let mut gps = GpsReceiver::new(GpsConfig::default());
        gps.sample(Vec3::X, Vec3::ZERO, Vec3::ZERO, 0.0, &mut rng());
        let held = gps.fix().unwrap();
        assert_eq!(held.position, Vec3::X);
    }

    #[test]
    fn spoofing_offset_does_not_touch_velocity() {
        let mut gps = GpsReceiver::new(GpsConfig::default());
        let fix = gps.sample(
            Vec3::ZERO,
            Vec3::new(2.0, 0.0, 0.0),
            Vec3::new(0.0, 10.0, 0.0),
            0.0,
            &mut rng(),
        );
        assert_eq!(fix.velocity, Vec3::new(2.0, 0.0, 0.0));
    }

    #[test]
    fn noise_statistics_are_plausible() {
        let cfg = GpsConfig { position_noise_std: 1.0, ..Default::default() };
        let mut gps = GpsReceiver::new(cfg);
        let mut r = rng();
        let n = 20_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for i in 0..n {
            let fix = gps.sample(Vec3::ZERO, Vec3::ZERO, Vec3::ZERO, i as f64, &mut r);
            sum += fix.position.x;
            sum_sq += fix.position.x * fix.position.x;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean={mean}");
        assert!((var - 1.0).abs() < 0.1, "var={var}");
    }

    #[test]
    fn period_of_default_rate() {
        assert!((GpsConfig::default().period() - 0.01).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_panics() {
        GpsConfig { rate_hz: 0.0, ..Default::default() }.period();
    }

    #[test]
    fn noise_free_predicate_matches_rng_consumption() {
        // Sampling leaves the RNG untouched exactly when neither std is
        // positive, including NaN stds (which the `> 0.0` guards treat as no
        // noise).
        for (p, v, free) in [
            (0.0, 0.0, true),
            (0.5, 0.0, false),
            (0.0, 0.5, false),
            (-1.0, -1.0, true),
            (f64::NAN, 0.0, true),
        ] {
            let cfg =
                GpsConfig { position_noise_std: p, velocity_noise_std: v, ..Default::default() };
            let mut a = rng();
            let mut b = a.clone();
            sample_fix(&cfg, Vec3::X, Vec3::ZERO, Vec3::ZERO, 0.0, &mut a);
            let untouched = a.gen::<u64>() == b.gen::<u64>();
            assert_eq!(untouched, free, "RNG consumption disagrees for std=({p},{v})");
        }
    }
}
