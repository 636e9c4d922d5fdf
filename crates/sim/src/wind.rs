//! Wind and gust disturbances.
//!
//! The paper's SwarmLab experiments fly in still air; this module is the
//! environmental-disturbance substrate used by robustness tests and the
//! wind-sensitivity extension bench: a constant mean wind plus
//! Ornstein-Uhlenbeck-filtered gusts, sampled deterministically from the
//! mission seed (stream [`swarm_math::rng::streams::WIND`]).

use rand::rngs::StdRng;
use rand::Rng;
use swarm_math::Vec3;

/// Wind model configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindConfig {
    /// Constant mean wind velocity (m/s, world frame).
    pub mean: Vec3,
    /// Standard deviation of the gust velocity (m/s).
    pub gust_std: f64,
    /// Gust correlation time constant (s); larger = slower-changing gusts.
    pub gust_time_constant: f64,
}

impl Default for WindConfig {
    fn default() -> Self {
        WindConfig { mean: Vec3::ZERO, gust_std: 0.0, gust_time_constant: 2.0 }
    }
}

impl WindConfig {
    /// A steady wind with no gusts.
    pub fn steady(mean: Vec3) -> Self {
        WindConfig { mean, ..Default::default() }
    }

    /// `true` when the model produces no wind at all.
    pub fn is_calm(&self) -> bool {
        self.mean == Vec3::ZERO && self.gust_std == 0.0
    }
}

/// Stateful wind sampler (one per simulation run).
///
/// Gusts follow a discretized Ornstein-Uhlenbeck process:
/// `g' = g·(1 − dt/τ) + σ·√(2·dt/τ)·ξ`, which has stationary standard
/// deviation `σ` and correlation time `τ`.
#[derive(Debug, Clone, PartialEq)]
pub struct Wind {
    config: WindConfig,
    gust: Vec3,
}

impl Wind {
    /// Creates a calm-started sampler.
    pub fn new(config: WindConfig) -> Self {
        Wind { config, gust: Vec3::ZERO }
    }

    /// Advances the gust process by `dt` and returns the total wind velocity.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0`.
    pub fn sample(&mut self, dt: f64, rng: &mut StdRng) -> Vec3 {
        assert!(dt > 0.0, "wind sampling requires positive dt, got {dt}");
        if self.config.gust_std > 0.0 {
            let tau = self.config.gust_time_constant.max(dt);
            let decay = 1.0 - dt / tau;
            let kick = self.config.gust_std * (2.0 * dt / tau).sqrt();
            self.gust = self.gust * decay
                + Vec3::new(gaussian(rng), gaussian(rng), 0.5 * gaussian(rng)) * kick;
        }
        self.config.mean + self.gust
    }
}

fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn calm_config_yields_zero_wind() {
        let mut wind = Wind::new(WindConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        assert!(WindConfig::default().is_calm());
        for _ in 0..100 {
            assert_eq!(wind.sample(0.01, &mut rng), Vec3::ZERO);
        }
    }

    #[test]
    fn steady_wind_is_constant() {
        let mean = Vec3::new(2.0, -1.0, 0.0);
        let mut wind = Wind::new(WindConfig::steady(mean));
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(wind.sample(0.01, &mut rng), mean);
        }
    }

    #[test]
    fn gust_statistics_match_configuration() {
        let cfg = WindConfig { mean: Vec3::ZERO, gust_std: 1.5, gust_time_constant: 1.0 };
        let mut wind = Wind::new(cfg);
        let mut rng = StdRng::seed_from_u64(7);
        let dt = 0.01;
        // Warm up past the correlation time.
        for _ in 0..1000 {
            wind.sample(dt, &mut rng);
        }
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        let n = 200_000;
        for _ in 0..n {
            let g = wind.sample(dt, &mut rng).x;
            sum += g;
            sum_sq += g * g;
        }
        let mean = sum / n as f64;
        let std = (sum_sq / n as f64 - mean * mean).sqrt();
        assert!(mean.abs() < 0.15, "gust mean {mean}");
        assert!((std - 1.5).abs() < 0.25, "gust std {std}");
    }

    #[test]
    fn gusts_are_temporally_correlated() {
        let cfg = WindConfig { mean: Vec3::ZERO, gust_std: 1.0, gust_time_constant: 5.0 };
        let mut wind = Wind::new(cfg);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..2000 {
            wind.sample(0.01, &mut rng);
        }
        let a = wind.sample(0.01, &mut rng);
        let b = wind.sample(0.01, &mut rng);
        // Successive samples of a slow OU process are nearly identical.
        assert!((a - b).norm() < 0.3, "decorrelated too fast: {a} vs {b}");
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let cfg = WindConfig { mean: Vec3::X, gust_std: 1.0, gust_time_constant: 1.0 };
        let run = |seed: u64| {
            let mut wind = Wind::new(cfg);
            let mut rng = StdRng::seed_from_u64(seed);
            (0..50).map(|_| wind.sample(0.01, &mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    #[should_panic(expected = "positive dt")]
    fn zero_dt_panics() {
        Wind::new(WindConfig::default()).sample(0.0, &mut StdRng::seed_from_u64(0));
    }
}
