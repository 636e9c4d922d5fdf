//! Property tests for the math substrate, run on `swarm-testkit`: algebraic
//! identities of the vector types and invariants of the statistics helpers.
//! Failures shrink to a minimal counterexample and persist to
//! `tests/corpus/` at the workspace root.

use swarm_math::stats::{cumulative_rate_by_threshold, mean, median, min_max, percentile, Ecdf};
use swarm_math::{Vec2, Vec3};
use swarm_testkit::domain::{finite_f64, vec2_in, vec3_in};
use swarm_testkit::{check, gens, tk_ensure, Gen};

fn vec3() -> Gen<Vec3> {
    vec3_in(1e6)
}

fn vec2() -> Gen<Vec2> {
    vec2_in(1e6)
}

fn sample_vec() -> Gen<Vec<f64>> {
    gens::vec_of(&finite_f64(), 1..=63)
}

#[test]
fn vec3_addition_commutes() {
    check("math-vec3-add-commutes", &gens::zip2(&vec3(), &vec3()), |(a, b)| {
        tk_ensure!(*a + *b == *b + *a, "{a:?} + {b:?} != {b:?} + {a:?}");
        Ok(())
    });
}

#[test]
fn vec3_scalar_distributes() {
    let gen = gens::zip3(&vec3(), &vec3(), &gens::f64_in(-1e3, 1e3));
    check("math-vec3-scalar-distributes", &gen, |(a, b, s)| {
        let lhs = (*a + *b) * *s;
        let rhs = *a * *s + *b * *s;
        tk_ensure!((lhs - rhs).norm() <= 1e-6 * (1.0 + lhs.norm()), "lhs {lhs:?} rhs {rhs:?}");
        Ok(())
    });
}

#[test]
fn vec3_dot_is_symmetric_and_cauchy_schwarz() {
    check("math-vec3-dot", &gens::zip2(&vec3(), &vec3()), |(a, b)| {
        tk_ensure!(a.dot(*b) == b.dot(*a));
        tk_ensure!(
            a.dot(*b).abs() <= a.norm() * b.norm() * (1.0 + 1e-12),
            "Cauchy-Schwarz violated for {a:?}, {b:?}"
        );
        Ok(())
    });
}

#[test]
fn vec3_cross_is_orthogonal() {
    check("math-vec3-cross-orthogonal", &gens::zip2(&vec3(), &vec3()), |(a, b)| {
        let c = a.cross(*b);
        let scale = a.norm() * b.norm();
        tk_ensure!(c.dot(*a).abs() <= 1e-6 * (1.0 + scale * a.norm()));
        tk_ensure!(c.dot(*b).abs() <= 1e-6 * (1.0 + scale * b.norm()));
        Ok(())
    });
}

#[test]
fn vec3_triangle_inequality() {
    check("math-vec3-triangle", &gens::zip2(&vec3(), &vec3()), |(a, b)| {
        tk_ensure!((*a + *b).norm() <= a.norm() + b.norm() + 1e-9);
        Ok(())
    });
}

#[test]
fn vec3_normalized_is_unit_or_zero() {
    check("math-vec3-normalized", &vec3(), |a| {
        let n = a.normalized().norm();
        tk_ensure!(n == 0.0 || (n - 1.0).abs() < 1e-9, "norm {n}");
        Ok(())
    });
}

#[test]
fn vec3_clamp_norm_never_exceeds() {
    let gen = gens::zip2(&vec3(), &gens::f64_in(0.0, 1e3));
    check("math-vec3-clamp-norm", &gen, |(a, max)| {
        let clamped = a.clamp_norm(*max).norm();
        tk_ensure!(clamped <= *max * (1.0 + 1e-12) + 1e-12, "clamped to {clamped} > {max}");
        Ok(())
    });
}

#[test]
fn vec2_perp_is_rotation() {
    check("math-vec2-perp", &vec2(), |a| {
        let p = a.perp();
        tk_ensure!(a.dot(p).abs() <= 1e-9 * (1.0 + a.norm_squared()));
        tk_ensure!((p.norm() - a.norm()).abs() <= 1e-9 * (1.0 + a.norm()));
        Ok(())
    });
}

#[test]
fn vec2_rotation_preserves_norm() {
    let gen = gens::zip2(&vec2(), &gens::f64_in(-10.0, 10.0));
    check("math-vec2-rotation-norm", &gen, |(a, angle)| {
        tk_ensure!((a.rotated(*angle).norm() - a.norm()).abs() <= 1e-6 * (1.0 + a.norm()));
        Ok(())
    });
}

#[test]
fn mean_is_between_min_and_max() {
    check("math-mean-bounded", &sample_vec(), |xs| {
        let m = mean(xs).ok_or("mean of non-empty sample")?;
        let (lo, hi) = min_max(xs).ok_or("min_max of non-empty sample")?;
        tk_ensure!(m >= lo - 1e-9 && m <= hi + 1e-9, "mean {m} outside [{lo}, {hi}]");
        Ok(())
    });
}

#[test]
fn median_is_a_percentile() {
    check("math-median-is-p50", &sample_vec(), |xs| {
        tk_ensure!(median(xs) == percentile(xs, 50.0));
        Ok(())
    });
}

#[test]
fn percentiles_are_monotone() {
    let gen = gens::zip3(&sample_vec(), &gens::f64_in(0.0, 100.0), &gens::f64_in(0.0, 100.0));
    check("math-percentiles-monotone", &gen, |(xs, p1, p2)| {
        let (lo, hi) = if p1 <= p2 { (*p1, *p2) } else { (*p2, *p1) };
        let (a, b) = (percentile(xs, lo).ok_or("p_lo")?, percentile(xs, hi).ok_or("p_hi")?);
        tk_ensure!(a <= b + 1e-9, "p{lo} = {a} > p{hi} = {b}");
        Ok(())
    });
}

#[test]
fn ecdf_of_sample_max_is_one() {
    check("math-ecdf-max-is-one", &sample_vec(), |xs| {
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let cdf = Ecdf::new(xs.clone());
        tk_ensure!(cdf.eval(max) == 1.0, "F(max) = {}", cdf.eval(max));
        Ok(())
    });
}

#[test]
fn cumulative_rate_is_a_valid_probability() {
    let point = gens::zip2(&gens::f64_in(-100.0, 100.0), &gens::bool_any());
    let gen = gens::zip2(
        &gens::vec_of(&point, 0..=39),
        &gens::vec_of(&gens::f64_in(-100.0, 100.0), 1..=9),
    );
    check("math-cumulative-rate-probability", &gen, |(data, thresholds)| {
        for (threshold, rate) in cumulative_rate_by_threshold(data, thresholds) {
            if let Some(r) = rate {
                tk_ensure!((0.0..=1.0).contains(&r), "rate {r} at threshold {threshold}");
            }
        }
        Ok(())
    });
}
