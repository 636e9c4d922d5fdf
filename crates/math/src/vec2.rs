use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A 2-dimensional vector of `f64` for planar geometry (the paper's missions
/// and spoofing offsets are horizontal).
///
/// ```
/// use swarm_math::Vec2;
/// let v = Vec2::new(1.0, 0.0);
/// assert_eq!(v.perp(), Vec2::new(0.0, 1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// Component along the mission axis.
    pub x: f64,
    /// Horizontal perpendicular component.
    pub y: f64,
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };
    /// Unit vector along +x.
    pub const X: Vec2 = Vec2 { x: 1.0, y: 0.0 };
    /// Unit vector along +y.
    pub const Y: Vec2 = Vec2 { x: 0.0, y: 1.0 };

    /// Creates a vector from its components.
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Dot product.
    pub fn dot(self, rhs: Vec2) -> f64 {
        self.x * rhs.x + self.y * rhs.y
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared norm.
    pub fn norm_squared(self) -> f64 {
        self.dot(self)
    }

    /// Distance to `other`.
    pub fn distance(self, other: Vec2) -> f64 {
        (self - other).norm()
    }

    /// Unit vector, or zero when the norm is zero/non-finite.
    pub fn normalized(self) -> Vec2 {
        let n = self.norm();
        if n > 0.0 && n.is_finite() {
            self / n
        } else {
            Vec2::ZERO
        }
    }

    /// Counter-clockwise perpendicular (rotate +90°).
    pub fn perp(self) -> Vec2 {
        Vec2::new(-self.y, self.x)
    }

    /// Rotates by `angle` radians counter-clockwise.
    pub fn rotated(self, angle: f64) -> Vec2 {
        let (s, c) = angle.sin_cos();
        Vec2::new(c * self.x - s * self.y, s * self.x + c * self.y)
    }
}

impl From<[f64; 2]> for Vec2 {
    fn from(a: [f64; 2]) -> Self {
        Vec2::new(a[0], a[1])
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    fn add_assign(&mut self, rhs: Vec2) {
        *self = *self + rhs;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vec2 {
    fn sub_assign(&mut self, rhs: Vec2) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, s: f64) -> Vec2 {
        Vec2::new(self.x * s, self.y * s)
    }
}

impl Mul<Vec2> for f64 {
    type Output = Vec2;
    fn mul(self, v: Vec2) -> Vec2 {
        v * self
    }
}

impl MulAssign<f64> for Vec2 {
    fn mul_assign(&mut self, s: f64) {
        *self = *self * s;
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    fn div(self, s: f64) -> Vec2 {
        Vec2::new(self.x / s, self.y / s)
    }
}

impl DivAssign<f64> for Vec2 {
    fn div_assign(&mut self, s: f64) {
        *self = *self / s;
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl Sum for Vec2 {
    fn sum<I: Iterator<Item = Vec2>>(iter: I) -> Vec2 {
        iter.fold(Vec2::ZERO, Add::add)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perp_is_orthogonal() {
        let v = Vec2::new(3.0, -2.0);
        assert_eq!(v.dot(v.perp()), 0.0);
    }

    #[test]
    fn rotated_quarter_turn_equals_perp() {
        let v = Vec2::new(1.0, 2.0);
        let r = v.rotated(std::f64::consts::FRAC_PI_2);
        assert!((r.x - v.perp().x).abs() < 1e-12);
        assert!((r.y - v.perp().y).abs() < 1e-12);
    }

    #[test]
    fn normalized_zero_is_zero() {
        assert_eq!(Vec2::ZERO.normalized(), Vec2::ZERO);
    }
}
