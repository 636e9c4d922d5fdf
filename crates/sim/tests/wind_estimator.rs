//! Edge-case properties for `sim::wind`, run on `swarm-testkit`:
//! degenerate gust configurations (zero standard deviation, zero
//! correlation time) must never destabilize the gust sampler.

use rand::rngs::StdRng;
use rand::SeedableRng;
use swarm_math::Vec3;
use swarm_sim::wind::{Wind, WindConfig};
use swarm_testkit::domain::vec3_in;
use swarm_testkit::{check, gens, tk_ensure, Gen};

fn dt() -> Gen<f64> {
    gens::f64_in(1e-3, 0.5)
}

/// With no gusts configured, the sampler returns exactly the mean wind for
/// every step size — including sub-millisecond and near-second steps.
#[test]
fn gustless_wind_is_exactly_the_mean() {
    let gen = gens::zip3(&vec3_in(30.0), &gens::vec_of(&dt(), 1..=50), &gens::u64_any());
    check("sim-wind-gustless-exact", &gen, |(mean, dts, seed)| {
        let mut wind = Wind::new(WindConfig::steady(*mean));
        let mut rng = StdRng::seed_from_u64(*seed);
        for &dt in dts {
            tk_ensure!(wind.sample(dt, &mut rng) == *mean, "steady wind must equal its mean");
        }
        Ok(())
    });
}

/// A zero gust correlation time ("zero-duration gusts") clamps τ to dt,
/// which makes the decay factor exactly 0: the process is memoryless white
/// noise. Two samplers with different histories but identical rng state
/// must produce the identical next sample.
#[test]
fn zero_time_constant_gusts_are_memoryless() {
    let gen =
        gens::zip4(&gens::f64_in(0.1, 10.0), &dt(), &gens::usize_in(1..=100), &gens::u64_any());
    check("sim-wind-zero-tc-memoryless", &gen, |(gust_std, dt, warmup, seed)| {
        let config = WindConfig { mean: Vec3::ZERO, gust_std: *gust_std, gust_time_constant: 0.0 };
        let mut warm = Wind::new(config);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
        for _ in 0..*warmup {
            let s = warm.sample(*dt, &mut rng);
            tk_ensure!(s.is_finite(), "gust sample diverged during warmup: {s:?}");
        }
        let fresh = Wind::new(config);
        // Same rng stream from here on: histories must not matter.
        let a = warm.sample(*dt, &mut StdRng::seed_from_u64(*seed));
        let b = Wind::sample(&mut { fresh }, *dt, &mut StdRng::seed_from_u64(*seed));
        tk_ensure!(a == b, "zero-τ gusts must be memoryless: {a:?} vs {b:?}");
        Ok(())
    });
}

/// Whatever the configuration — including σ and τ down to exactly zero —
/// long sampling runs stay finite.
#[test]
fn wind_samples_stay_finite_for_degenerate_configs() {
    let config = gens::zip3(&vec3_in(20.0), &gens::f64_in(0.0, 10.0), &gens::f64_in(0.0, 5.0)).map(
        |(mean, gust_std, gust_time_constant)| WindConfig { mean, gust_std, gust_time_constant },
    );
    let gen = gens::zip3(&config, &gens::vec_of(&dt(), 1..=200), &gens::u64_any());
    check("sim-wind-finite", &gen, |(config, dts, seed)| {
        let mut wind = Wind::new(*config);
        let mut rng = StdRng::seed_from_u64(*seed);
        for &dt in dts {
            let s = wind.sample(dt, &mut rng);
            tk_ensure!(s.is_finite(), "wind diverged: {s:?} under {config:?}");
        }
        Ok(())
    });
}
