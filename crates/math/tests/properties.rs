//! Property tests for the math substrate, run on `swarm-testkit`: algebraic
//! identities of the vector types and invariants of the statistics helpers.
//! Failures shrink to a minimal counterexample and persist to
//! `tests/corpus/` at the workspace root.

use swarm_math::stats::{cumulative_rate_by_threshold, mean, min_max, percentile, Ecdf};
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

/// The body `Vec3::clamp_norm` had before its shortcut: always through the
/// square root.
fn clamp_norm_reference(v: Vec3, max: f64) -> Vec3 {
    let n = v.norm();
    if n > max && n > 0.0 {
        v * (max / n)
    } else {
        v
    }
}

/// `x` moved `steps` representable values up (positive) or down.
fn ulps_from(x: f64, steps: i32) -> f64 {
    (0..steps.unsigned_abs()).fold(x, |y, _| if steps > 0 { y.next_up() } else { y.next_down() })
}

/// Checks `v.clamp_norm(max)` against [`clamp_norm_reference`], component
/// by component and bit for bit (so NaNs and signed zeros must match too).
fn ensure_clamp_norm_bits(v: Vec3, max: f64) -> Result<(), String> {
    let (got, want) = (v.clamp_norm(max), clamp_norm_reference(v, max));
    let bits = |u: Vec3| [u.x.to_bits(), u.y.to_bits(), u.z.to_bits()];
    tk_ensure!(bits(got) == bits(want), "clamp_norm({v:?}, {max:e}) = {got:?}, want {want:?}");
    Ok(())
}

#[test]
fn vec3_clamp_norm_matches_the_square_root_body_bit_for_bit() {
    // A vector scaled by 10^e for e in [-320, 310] (norms from subnormal to
    // overflowed), against a random cap, that cap scaled alike, and caps
    // within eight ulps of the vector's own norm.
    let gen = gens::zip4(
        &vec3(),
        &gens::f64_in(-320.0, 310.0),
        &gens::f64_in(0.0, 1e3),
        &gens::usize_in(0..=16),
    );
    check("math-vec3-clamp-norm-bits", &gen, |(v, exponent, cap, ulps)| {
        let scale = 10f64.powf(*exponent);
        let v = *v * scale;
        ensure_clamp_norm_bits(v, *cap)?;
        ensure_clamp_norm_bits(v, *cap * scale)?;
        ensure_clamp_norm_bits(v, ulps_from(v.norm(), *ulps as i32 - 8))
    });
}

#[test]
fn vec3_clamp_norm_matches_the_square_root_body_on_hostile_inputs() {
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    let caps = [
        0.0,
        -0.0,
        -1.0,
        -1e300,
        nan,
        inf,
        -inf,
        5e-324,
        1e-310,
        f64::MIN_POSITIVE,
        1e-160,
        1.5e-154,
        1e154,
        1e200,
        f64::MAX,
        1.0,
        5.0,
    ];
    let vectors = [
        Vec3::ZERO,
        Vec3::new(-0.0, 0.0, -0.0),
        Vec3::new(3.0, 4.0, 0.0),
        Vec3::new(-3.0, 0.0, 4.0),
        Vec3::new(nan, 1.0, 0.0),
        Vec3::new(0.0, 0.0, nan),
        Vec3::new(inf, 0.0, 0.0),
        Vec3::new(1.0, -inf, 2.0),
        Vec3::new(inf, -inf, 0.0),
        Vec3::new(1e200, 1e200, 0.0),
        Vec3::new(f64::MAX, 0.0, 0.0),
        Vec3::new(1e-160, 1e-160, 1e-160),
        Vec3::new(5e-324, 0.0, 0.0),
        Vec3::new(1e-200, 0.0, 3e-200),
        Vec3::new(1e153, 1e153, 1e153),
    ];
    for v in vectors {
        for max in caps {
            ensure_clamp_norm_bits(v, max).map_err(|e| format!("fixed cap: {e}")).unwrap();
        }
        // Caps within a few ulps of the vector's own norm.
        let norm = v.norm();
        for steps in -6..=6 {
            let max = ulps_from(norm, steps);
            ensure_clamp_norm_bits(v, max).map_err(|e| format!("{steps} ulps: {e}")).unwrap();
        }
    }
    // Norms within a few ulps of a fixed cap: (3, 4, 0) scaled toward 5.
    for steps in -6..=6 {
        let v = Vec3::new(3.0, 4.0, 0.0) * ulps_from(1.0, steps);
        ensure_clamp_norm_bits(v, 5.0).map_err(|e| format!("{steps} ulps: {e}")).unwrap();
    }
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
