use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Index, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::Vec2;

/// A 3-dimensional vector of `f64`, used throughout the workspace for
/// positions (metres), velocities (m/s) and accelerations (m/s²).
///
/// The coordinate convention is ENU-like: `x` points along the mission axis,
/// `y` is the horizontal perpendicular ("left" for positive values when
/// looking along +x), and `z` is up.
///
/// ```
/// use swarm_math::Vec3;
/// let v = Vec3::new(3.0, 4.0, 0.0);
/// assert_eq!(v.norm(), 5.0);
/// assert_eq!(v.normalized().norm(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// Component along the mission axis.
    pub x: f64,
    /// Horizontal component perpendicular to the mission axis.
    pub y: f64,
    /// Vertical (up) component.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };
    /// Unit vector along +x.
    pub const X: Vec3 = Vec3 { x: 1.0, y: 0.0, z: 0.0 };
    /// Unit vector along +y.
    pub const Y: Vec3 = Vec3 { x: 0.0, y: 1.0, z: 0.0 };
    /// Unit vector along +z (up).
    pub const Z: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 1.0 };

    /// Creates a vector from its components.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Creates a vector with all components equal to `v`.
    pub const fn splat(v: f64) -> Self {
        Vec3::new(v, v, v)
    }

    /// Dot product.
    pub fn dot(self, rhs: Vec3) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean norm (cheaper than [`Vec3::norm`]).
    pub fn norm_squared(self) -> f64 {
        self.dot(self)
    }

    /// Euclidean distance to `other`.
    pub fn distance(self, other: Vec3) -> f64 {
        (self - other).norm()
    }

    /// Squared distance to `other`.
    pub fn distance_squared(self, other: Vec3) -> f64 {
        (self - other).norm_squared()
    }

    /// Horizontal (x, y) distance to `other`, ignoring `z`.
    pub fn horizontal_distance(self, other: Vec3) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Returns the unit vector in this direction, or [`Vec3::ZERO`] when the
    /// norm is zero or non-finite (so callers never divide by zero).
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        if n > 0.0 && n.is_finite() {
            self / n
        } else {
            Vec3::ZERO
        }
    }

    /// Rescales the vector to length `len` (zero vectors stay zero).
    pub fn with_norm(self, len: f64) -> Vec3 {
        self.normalized() * len
    }

    /// Caps the vector's norm at `max` while preserving direction.
    ///
    /// A vector whose squared norm lies clearly below `max²` is returned
    /// without taking a square root. That shortcut returns exactly what the
    /// general path would: `max` is non-negative and `max²` is a normal
    /// float, so its rounded square and the shrunk threshold each err by at
    /// most a few parts in 2⁵³, far inside the 10⁻⁹ margin. The squared
    /// norm then lies below the exact `max²`, its true square root below
    /// `max`, and the correctly rounded `sqrt` cannot exceed the
    /// representable `max`. A NaN, negative or infinite cap, a cap whose
    /// square is subnormal or overflows, and a NaN or overflowed squared
    /// norm all fail the check and take the general path.
    ///
    /// ```
    /// use swarm_math::Vec3;
    /// let v = Vec3::new(10.0, 0.0, 0.0).clamp_norm(3.0);
    /// assert_eq!(v, Vec3::new(3.0, 0.0, 0.0));
    /// assert_eq!(Vec3::new(1.0, 2.0, 2.0).clamp_norm(3.5), Vec3::new(1.0, 2.0, 2.0));
    /// ```
    pub fn clamp_norm(self, max: f64) -> Vec3 {
        let squared = self.norm_squared();
        let cap = max * max;
        if max >= 0.0 && cap.is_normal() && squared <= cap * (1.0 - 1e-9) {
            return self;
        }
        let n = squared.sqrt();
        if n > max && n > 0.0 {
            self * (max / n)
        } else {
            self
        }
    }

    /// Projects onto the horizontal plane (sets `z` to 0).
    pub fn horizontal(self) -> Vec3 {
        Vec3::new(self.x, self.y, 0.0)
    }

    /// The horizontal (x, y) part as a [`Vec2`].
    pub fn xy(self) -> Vec2 {
        Vec2::new(self.x, self.y)
    }

    /// `true` when all components are finite.
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl From<Vec2> for Vec3 {
    /// Lifts a planar vector into 3-D with `z = 0`.
    fn from(v: Vec2) -> Self {
        Vec3::new(v.x, v.y, 0.0)
    }
}

impl From<[f64; 3]> for Vec3 {
    fn from(a: [f64; 3]) -> Self {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl From<Vec3> for [f64; 3] {
    fn from(v: Vec3) -> Self {
        [v.x, v.y, v.z]
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;

    /// # Panics
    ///
    /// Panics if `i > 2`.
    fn index(&self, i: usize) -> &f64 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl MulAssign<f64> for Vec3 {
    fn mul_assign(&mut self, s: f64) {
        *self = *self * s;
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl DivAssign<f64> for Vec3 {
    fn div_assign(&mut self, s: f64) {
        *self = *self / s;
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl Sum for Vec3 {
    fn sum<I: Iterator<Item = Vec3>>(iter: I) -> Vec3 {
        iter.fold(Vec3::ZERO, Add::add)
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3}, {:.3})", self.x, self.y, self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_zero_is_zero() {
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
    }

    #[test]
    fn normalized_nan_is_zero() {
        let v = Vec3::new(f64::NAN, 1.0, 0.0);
        assert_eq!(v.normalized(), Vec3::ZERO);
    }

    #[test]
    fn clamp_norm_short_vector_untouched() {
        let v = Vec3::new(1.0, 1.0, 1.0);
        assert_eq!(v.clamp_norm(10.0), v);
    }

    #[test]
    fn horizontal_drops_z() {
        assert_eq!(Vec3::new(1.0, 2.0, 3.0).horizontal(), Vec3::new(1.0, 2.0, 0.0));
    }

    #[test]
    fn sum_of_vectors() {
        let total: Vec3 = [Vec3::X, Vec3::Y, Vec3::Z].into_iter().sum();
        assert_eq!(total, Vec3::splat(1.0));
    }

    #[test]
    fn index_matches_fields() {
        let v = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(v[0], 4.0);
        assert_eq!(v[1], 5.0);
        assert_eq!(v[2], 6.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_out_of_range_panics() {
        let _ = Vec3::ZERO[3];
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Vec3::ZERO).is_empty());
    }

    #[test]
    fn with_norm_rescales() {
        let v = Vec3::new(0.0, 2.0, 0.0).with_norm(7.0);
        assert!((v.norm() - 7.0).abs() < 1e-12);
        assert!(v.y > 0.0);
    }
}
