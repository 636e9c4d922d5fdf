//! The mission environment: obstacles and helpers for distance queries.

use swarm_math::{Vec2, Vec3};

/// An obstacle in the environment.
///
/// SwarmLab's environments use vertical cylinders; spheres are provided for
/// test variety.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Obstacle {
    /// A vertical cylinder of infinite height (SwarmLab-style).
    Cylinder {
        /// Centre of the cylinder in the horizontal plane.
        center: Vec2,
        /// Cylinder radius in metres.
        radius: f64,
    },
    /// A sphere.
    Sphere {
        /// Centre of the sphere.
        center: Vec3,
        /// Sphere radius in metres.
        radius: f64,
    },
}

impl Obstacle {
    /// Signed distance from `point` to the obstacle *surface* (negative
    /// inside).
    pub fn surface_distance(&self, point: Vec3) -> f64 {
        match *self {
            Obstacle::Cylinder { center, radius } => point.xy().distance(center) - radius,
            Obstacle::Sphere { center, radius } => point.distance(center) - radius,
        }
    }

    /// The closest point on the obstacle surface to `point`.
    ///
    /// For a point exactly at the centre an arbitrary (but deterministic)
    /// surface point is returned.
    pub fn closest_surface_point(&self, point: Vec3) -> Vec3 {
        match *self {
            Obstacle::Cylinder { center, radius } => {
                let radial = (point.xy() - center).normalized();
                let radial = if radial == Vec2::ZERO { Vec2::X } else { radial };
                let surf = center + radial * radius;
                Vec3::new(surf.x, surf.y, point.z)
            }
            Obstacle::Sphere { center, radius } => {
                let dir = (point - center).normalized();
                let dir = if dir == Vec3::ZERO { Vec3::X } else { dir };
                center + dir * radius
            }
        }
    }

    /// Outward surface normal at the surface point closest to `point`.
    pub fn outward_normal(&self, point: Vec3) -> Vec3 {
        match *self {
            Obstacle::Cylinder { center, .. } => {
                let radial = (point.xy() - center).normalized();
                let radial = if radial == Vec2::ZERO { Vec2::X } else { radial };
                Vec3::new(radial.x, radial.y, 0.0)
            }
            Obstacle::Sphere { center, .. } => {
                let dir = (point - center).normalized();
                if dir == Vec3::ZERO {
                    Vec3::X
                } else {
                    dir
                }
            }
        }
    }

    /// The obstacle's reference centre as a 3-D point (cylinder centres take
    /// the query-independent z = 0).
    pub fn center(&self) -> Vec3 {
        match *self {
            Obstacle::Cylinder { center, .. } => Vec3::new(center.x, center.y, 0.0),
            Obstacle::Sphere { center, .. } => center,
        }
    }

    /// The obstacle radius.
    pub fn radius(&self) -> f64 {
        match *self {
            Obstacle::Cylinder { radius, .. } | Obstacle::Sphere { radius, .. } => radius,
        }
    }
}

/// The static environment a mission is flown in.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct World {
    /// All obstacles, indexed by position in this list.
    pub obstacles: Vec<Obstacle>,
}

impl World {
    /// An empty world.
    pub fn new() -> Self {
        World::default()
    }

    /// A world containing the given obstacles.
    pub fn with_obstacles(obstacles: Vec<Obstacle>) -> Self {
        World { obstacles }
    }

    /// Distance from `point` to the nearest obstacle surface, together with
    /// that obstacle's index. `None` when the world has no obstacles.
    pub fn nearest_obstacle(&self, point: Vec3) -> Option<(usize, f64)> {
        self.obstacles
            .iter()
            .enumerate()
            .map(|(i, o)| (i, o.surface_distance(point)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cylinder_surface_distance() {
        let o = Obstacle::Cylinder { center: Vec2::new(10.0, 0.0), radius: 3.0 };
        assert_eq!(o.surface_distance(Vec3::new(0.0, 0.0, 5.0)), 7.0);
        assert_eq!(o.surface_distance(Vec3::new(10.0, 0.0, 99.0)), -3.0);
    }

    #[test]
    fn cylinder_ignores_z() {
        let o = Obstacle::Cylinder { center: Vec2::ZERO, radius: 1.0 };
        assert_eq!(
            o.surface_distance(Vec3::new(2.0, 0.0, 0.0)),
            o.surface_distance(Vec3::new(2.0, 0.0, 50.0))
        );
    }

    #[test]
    fn sphere_surface_distance() {
        let o = Obstacle::Sphere { center: Vec3::ZERO, radius: 2.0 };
        assert_eq!(o.surface_distance(Vec3::new(5.0, 0.0, 0.0)), 3.0);
    }

    #[test]
    fn closest_surface_point_is_on_surface() {
        let o = Obstacle::Cylinder { center: Vec2::new(1.0, 1.0), radius: 2.0 };
        let p = o.closest_surface_point(Vec3::new(9.0, 1.0, 4.0));
        assert!((o.surface_distance(p)).abs() < 1e-12);
        assert_eq!(p.z, 4.0);
    }

    #[test]
    fn closest_surface_point_degenerate_center() {
        let o = Obstacle::Sphere { center: Vec3::ZERO, radius: 1.0 };
        let p = o.closest_surface_point(Vec3::ZERO);
        assert!((p.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn outward_normal_is_unit_and_outward() {
        let o = Obstacle::Cylinder { center: Vec2::ZERO, radius: 1.0 };
        let n = o.outward_normal(Vec3::new(3.0, 0.0, 2.0));
        assert_eq!(n, Vec3::X);
    }

    #[test]
    fn nearest_obstacle_picks_minimum() {
        let w = World::with_obstacles(vec![
            Obstacle::Cylinder { center: Vec2::new(10.0, 0.0), radius: 1.0 },
            Obstacle::Cylinder { center: Vec2::new(3.0, 0.0), radius: 1.0 },
        ]);
        let (idx, d) = w.nearest_obstacle(Vec3::ZERO).unwrap();
        assert_eq!(idx, 1);
        assert_eq!(d, 2.0);
    }

    #[test]
    fn empty_world_has_no_nearest() {
        assert_eq!(World::new().nearest_obstacle(Vec3::ZERO), None);
    }
}
