//! Foundational numerics for the SwarmFuzz reproduction.
//!
//! This crate provides the small, dependency-light mathematical substrate the
//! rest of the workspace builds on:
//!
//! * [`Vec2`] / [`Vec3`] — plain-old-data vector algebra used for drone
//!   positions, velocities and accelerations.
//! * [`stats`] — descriptive statistics, the empirical CDF used by Fig. 6d of
//!   the paper, and online min/mean trackers used by the mission recorder.
//! * [`rng`] — deterministic seed derivation so every simulation, fuzzing
//!   campaign and benchmark is exactly reproducible from a single `u64` seed.
//!
//! # Example
//!
//! ```
//! use swarm_math::Vec3;
//!
//! let p = Vec3::new(1.0, 2.0, 3.0);
//! let q = Vec3::new(4.0, 6.0, 3.0);
//! assert_eq!(p.distance(q), 5.0);
//! ```

pub mod rng;
pub mod stats;
mod vec2;
mod vec3;

pub use vec2::Vec2;
pub use vec3::Vec3;

/// Clamps `x` into `[lo, hi]`.
///
/// Unlike `f64::clamp` this never panics: if `lo > hi` the bounds are swapped.
///
/// ```
/// assert_eq!(swarm_math::clamp(5.0, 0.0, 1.0), 1.0);
/// assert_eq!(swarm_math::clamp(5.0, 1.0, 0.0), 1.0);
/// ```
pub fn clamp(x: f64, lo: f64, hi: f64) -> f64 {
    let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
    x.max(lo).min(hi)
}

/// Linear interpolation between `a` and `b` by `t` (`t` is not clamped).
///
/// ```
/// assert_eq!(swarm_math::lerp(0.0, 10.0, 0.25), 2.5);
/// ```
pub fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + (b - a) * t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_inside_range_is_identity() {
        assert_eq!(clamp(0.5, 0.0, 1.0), 0.5);
    }

    #[test]
    fn clamp_swapped_bounds() {
        assert_eq!(clamp(-3.0, 1.0, -1.0), -1.0);
    }

    #[test]
    fn lerp_endpoints() {
        assert_eq!(lerp(2.0, 8.0, 0.0), 2.0);
        assert_eq!(lerp(2.0, 8.0, 1.0), 8.0);
    }
}
