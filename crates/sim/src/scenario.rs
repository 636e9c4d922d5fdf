//! A library of canned mission scenarios beyond the paper's delivery run.
//!
//! The paper argues (§VI) that modelling other missions "only needs one
//! input changed — the obstacle coordinates". These constructors exercise
//! that claim: each returns a ready [`MissionSpec`] with a different
//! obstacle layout, all deterministic from the mission seed.

use swarm_math::Vec2;

use crate::mission::{MissionSpec, CRUISE_ALTITUDE, PAPER_MISSION_LENGTH};
use crate::world::{Obstacle, World};

/// A slalom corridor: `count` cylinders alternating left/right of the
/// centerline, forcing repeated side decisions.
pub fn slalom(swarm_size: usize, seed: u64, count: usize) -> MissionSpec {
    let mut spec = MissionSpec::paper_delivery(swarm_size, seed);
    let mut obstacles = Vec::with_capacity(count);
    let first_x = 80.0;
    let last_x = PAPER_MISSION_LENGTH - 60.0;
    for i in 0..count {
        let f = if count > 1 { i as f64 / (count - 1) as f64 } else { 0.5 };
        let x = first_x + f * (last_x - first_x);
        let y = if i % 2 == 0 { -6.0 } else { 6.0 };
        obstacles.push(Obstacle::Cylinder { center: Vec2::new(x, y), radius: 4.0 });
    }
    spec.world = World::with_obstacles(obstacles);
    spec.duration = 200.0;
    spec
}

/// A narrow gate: two cylinders with a `gap`-metre opening between them on
/// the centerline — the swarm must funnel through.
pub fn gate(swarm_size: usize, seed: u64, gap: f64) -> MissionSpec {
    let mut spec = MissionSpec::paper_delivery(swarm_size, seed);
    let radius = 6.0;
    let x = 130.0;
    let offset = gap / 2.0 + radius;
    spec.world = World::with_obstacles(vec![
        Obstacle::Cylinder { center: Vec2::new(x, offset), radius },
        Obstacle::Cylinder { center: Vec2::new(x, -offset), radius },
    ]);
    spec
}

/// Area (m²) of start box allotted per drone in [`large_swarm`]: a survey
/// formation at ~16 m spacing. With the 30 m radio range this keeps each
/// drone's neighborhood at roughly a dozen peers independent of swarm size —
/// the local-neighborhood regime where a spatial index pays off (and a far
/// more plausible density for hundreds of aircraft than packing them all
/// into mutual radio range). It also leaves the paper's 5 m minimum
/// separation (~19.6 m² exclusion disk, random sequential placement jams
/// near 36 m²/drone) a wide margin for the rejection sampler.
const LARGE_SWARM_AREA_PER_DRONE: f64 = 256.0;

/// Radio range (m) of the [`large_swarm`] stress scenario — a realistic
/// mesh-radio figure that keeps each drone's neighborhood local, which is
/// what makes the spatial-grid comms path pay off.
pub const LARGE_SWARM_COMMS_RANGE: f64 = 30.0;

/// A large-swarm stress scenario (intended for N = 50/100/200): the paper's
/// delivery geometry with the start box scaled with √n to keep the launch
/// density constant, the destination pushed out by the same amount so the
/// corridor length survives the bigger box, and a realistic radio range so
/// neighborhoods stay local. At these sizes [`crate::SpatialPolicy::Auto`]
/// also delivers comms through the spatial grid; the paper-scale scenarios
/// use it for the collision broad phase only.
pub fn large_swarm(swarm_size: usize, seed: u64) -> MissionSpec {
    let mut spec = MissionSpec::paper_delivery(swarm_size, seed);
    let side = (swarm_size as f64 * LARGE_SWARM_AREA_PER_DRONE).sqrt().max(30.0);
    spec.start_min = Vec2::new(0.0, -side / 2.0);
    spec.start_max = Vec2::new(side, side / 2.0);
    // Keep the paper's corridor geometry relative to the far edge of the
    // start box (the original box is 30 m deep): destination and obstacles
    // shift out together, so no obstacle ends up inside the launch area.
    let shift = side - 30.0;
    spec.destination.x += shift;
    spec.world = World::with_obstacles(
        spec.world
            .obstacles
            .iter()
            .map(|o| match *o {
                Obstacle::Cylinder { center, radius } => {
                    Obstacle::Cylinder { center: Vec2::new(center.x + shift, center.y), radius }
                }
                Obstacle::Sphere { center, radius } => Obstacle::Sphere {
                    center: swarm_math::Vec3::new(center.x + shift, center.y, center.z),
                    radius,
                },
            })
            .collect(),
    );
    spec.comms.range = Some(LARGE_SWARM_COMMS_RANGE);
    spec
}

/// An open-field survey with a single spherical balloon obstacle at low
/// altitude — exercises the 3-D (sphere) distance path.
pub fn balloon_field(swarm_size: usize, seed: u64) -> MissionSpec {
    let mut spec = MissionSpec::paper_delivery(swarm_size, seed);
    spec.world = World::with_obstacles(vec![Obstacle::Sphere {
        center: swarm_math::Vec3::new(130.0, 0.0, CRUISE_ALTITUDE),
        radius: 5.0,
    }]);
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulation;
    use crate::{ControlContext, SwarmController};
    use swarm_math::Vec3;

    struct GoToGoal;
    impl SwarmController for GoToGoal {
        fn desired_velocity(&self, ctx: &ControlContext<'_>) -> Vec3 {
            (ctx.destination - ctx.self_state.position).with_norm(2.0)
        }
    }

    #[test]
    fn slalom_places_alternating_obstacles() {
        let spec = slalom(5, 1, 4);
        assert_eq!(spec.world.obstacles.len(), 4);
        let ys: Vec<f64> = spec.world.obstacles.iter().map(|o| o.center().y).collect();
        assert_eq!(ys, vec![-6.0, 6.0, -6.0, 6.0]);
        // Obstacles ordered along the corridor.
        let xs: Vec<f64> = spec.world.obstacles.iter().map(|o| o.center().x).collect();
        assert!(xs.windows(2).all(|w| w[0] < w[1]));
        spec.validate().unwrap();
    }

    #[test]
    fn slalom_single_obstacle_centers() {
        let spec = slalom(5, 1, 1);
        assert_eq!(spec.world.obstacles.len(), 1);
        spec.validate().unwrap();
    }

    #[test]
    fn gate_opening_matches_request() {
        let spec = gate(5, 1, 12.0);
        let [a, b] = spec.world.obstacles[..] else { panic!("two obstacles") };
        let opening = (a.center().y - b.center().y).abs() - a.radius() - b.radius();
        assert!((opening - 12.0).abs() < 1e-9);
        spec.validate().unwrap();
    }

    #[test]
    fn balloon_field_uses_a_sphere() {
        let spec = balloon_field(5, 1);
        assert!(matches!(spec.world.obstacles[0], Obstacle::Sphere { .. }));
        spec.validate().unwrap();
    }

    #[test]
    fn large_swarm_scales_the_start_box_and_sets_a_range() {
        for n in [50, 100, 200] {
            let spec = large_swarm(n, 3);
            spec.validate().unwrap();
            assert_eq!(spec.comms.range, Some(LARGE_SWARM_COMMS_RANGE));
            assert!(n >= crate::GRID_AUTO_THRESHOLD, "stress sizes must select the grid");
            // Launch density stays constant, so the separation constraint
            // remains satisfiable and actually satisfied.
            let positions = spec.initial_positions();
            for i in 0..positions.len() {
                for j in 0..i {
                    assert!(
                        positions[i].distance(positions[j]) >= spec.min_start_separation,
                        "drones {i} and {j} start too close at n={n}"
                    );
                }
            }
        }
        // Tiny swarms keep (at least) the paper's start box, and with the
        // zero shift the paper's corridor geometry is untouched.
        let small = large_swarm(3, 3);
        assert!((small.start_max.x - small.start_min.x - 30.0).abs() < 1e-9);
        let paper = MissionSpec::paper_delivery(3, 3);
        assert_eq!(small.destination, paper.destination);
        assert_eq!(small.world.obstacles, paper.world.obstacles);
        // Larger swarms push the corridor out of the (deeper) start box:
        // obstacles never sit inside the launch area.
        let big = large_swarm(200, 3);
        for o in &big.world.obstacles {
            assert!(o.center().x - big.start_max.x >= 50.0, "obstacle inside/near the start box");
        }
    }

    #[test]
    fn large_swarm_is_flyable() {
        let mut spec = large_swarm(50, 2);
        spec.duration = 10.0;
        let sim = Simulation::new(spec, GoToGoal).unwrap();
        let out = sim.run(None).unwrap();
        assert!(out.record.len() > 50);
    }

    #[test]
    fn scenarios_are_flyable() {
        for spec in [slalom(3, 2, 3), gate(3, 2, 16.0), balloon_field(3, 2)] {
            let mut spec = spec;
            spec.duration = 20.0;
            let sim = Simulation::new(spec, GoToGoal).unwrap();
            let out = sim.run(None).unwrap();
            assert!(out.record.len() > 50);
        }
    }
}
