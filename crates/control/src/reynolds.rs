//! Reynolds' boids rules (1987) as a third decentralized controller.
//!
//! The classic separation / alignment / cohesion triad, with goal seeking
//! and a potential-field obstacle term. Structurally the simplest of the
//! three implemented algorithms, it is the "textbook" baseline for the
//! generalization experiments: the SwarmFuzz pipeline makes no assumption
//! beyond the shared three goals, so it must work here too.

use swarm_math::Vec3;
use swarm_sim::{ControlContext, SwarmController};

/// Tuning parameters of the Reynolds controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReynoldsParams {
    /// Perception radius: neighbors beyond this are ignored (m).
    pub perception: f64,
    /// Separation activation radius (m).
    pub separation_radius: f64,
    /// Separation gain (1/s).
    pub k_separation: f64,
    /// Alignment gain (dimensionless blend toward mean neighbor velocity).
    pub k_alignment: f64,
    /// Cohesion gain toward the neighborhood centroid (1/s).
    pub k_cohesion: f64,
    /// Goal-seeking cruise speed (m/s).
    pub v_cruise: f64,
    /// Obstacle potential-field range beyond the surface (m).
    pub obstacle_range: f64,
    /// Obstacle repulsion gain (m²/s, inverse-distance field).
    pub k_obstacle: f64,
    /// Cap on the commanded horizontal speed (m/s).
    pub v_max: f64,
    /// Altitude-hold gain (1/s).
    pub k_alt: f64,
}

impl Default for ReynoldsParams {
    fn default() -> Self {
        ReynoldsParams {
            perception: 25.0,
            separation_radius: 8.0,
            k_separation: 0.6,
            k_alignment: 0.4,
            k_cohesion: 0.05,
            v_cruise: 3.5,
            obstacle_range: 18.0,
            k_obstacle: 22.0,
            v_max: 6.0,
            k_alt: 0.8,
        }
    }
}

/// The Reynolds boids controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReynoldsController {
    params: ReynoldsParams,
}

impl ReynoldsController {
    /// Creates a controller with the given parameters.
    pub fn new(params: ReynoldsParams) -> Self {
        ReynoldsController { params }
    }

    /// The controller parameters.
    pub fn params(&self) -> &ReynoldsParams {
        &self.params
    }
}

impl Default for ReynoldsController {
    fn default() -> Self {
        ReynoldsController::new(ReynoldsParams::default())
    }
}

impl SwarmController for ReynoldsController {
    fn desired_velocity(&self, ctx: &ControlContext<'_>) -> Vec3 {
        let p = &self.params;
        let pos = ctx.self_state.position;
        let vel = ctx.self_state.velocity;

        // Neighborhood within the perception radius.
        let mut separation = Vec3::ZERO;
        let mut mean_velocity = Vec3::ZERO;
        let mut centroid = Vec3::ZERO;
        let mut count = 0usize;
        for nb in ctx.neighbors {
            let delta = (pos - nb.position).horizontal();
            let dist = delta.norm();
            if dist > p.perception {
                continue;
            }
            count += 1;
            mean_velocity += nb.velocity;
            centroid += nb.position;
            if dist < p.separation_radius && dist > 1e-9 {
                // Inverse-distance-weighted separation.
                separation += delta.normalized() * (p.k_separation * (p.separation_radius - dist));
            }
        }
        let (alignment, cohesion) = if count > 0 {
            let mean_velocity = mean_velocity / count as f64;
            let centroid = centroid / count as f64;
            (
                (mean_velocity - vel).horizontal() * p.k_alignment,
                (centroid - pos).horizontal() * p.k_cohesion,
            )
        } else {
            (Vec3::ZERO, Vec3::ZERO)
        };

        // Goal seeking at cruise speed.
        let seek = (ctx.destination - pos).horizontal().normalized() * p.v_cruise;

        // Obstacle potential field: inverse-distance push from each nearby
        // obstacle surface.
        let mut avoid = Vec3::ZERO;
        for obs in &ctx.world.obstacles {
            let gap = obs.surface_distance(pos).max(0.1);
            if gap < p.obstacle_range {
                avoid += obs.outward_normal(pos)
                    * (p.k_obstacle / gap - p.k_obstacle / p.obstacle_range);
            }
        }

        let horizontal =
            (seek + separation + alignment + cohesion + avoid).horizontal().clamp_norm(p.v_max);
        horizontal + Vec3::Z * (p.k_alt * (ctx.destination.z - pos.z))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swarm_math::Vec2 as V2;
    use swarm_sim::world::{Obstacle, World};
    use swarm_sim::{DroneId, NeighborState, PerceivedSelf};

    fn ctx<'a>(
        pos: Vec3,
        vel: Vec3,
        neighbors: &'a [NeighborState],
        world: &'a World,
    ) -> ControlContext<'a> {
        ControlContext {
            id: DroneId(0),
            self_state: PerceivedSelf { position: pos, velocity: vel },
            neighbors,
            world,
            destination: Vec3::new(233.5, 0.0, 10.0),
            time: 0.0,
        }
    }

    fn neighbor(id: usize, pos: Vec3, vel: Vec3) -> NeighborState {
        NeighborState { id: DroneId(id), position: pos, velocity: vel, age: 0.0 }
    }

    #[test]
    fn lone_boid_seeks_goal() {
        let world = World::new();
        let cmd = ReynoldsController::default().desired_velocity(&ctx(
            Vec3::new(0.0, 0.0, 10.0),
            Vec3::ZERO,
            &[],
            &world,
        ));
        assert!(cmd.x > 0.0);
    }

    #[test]
    fn close_neighbor_separates() {
        let world = World::new();
        let c = ReynoldsController::default();
        let n = [neighbor(1, Vec3::new(0.0, 2.0, 10.0), Vec3::ZERO)];
        let with = c.desired_velocity(&ctx(Vec3::new(0.0, 0.0, 10.0), Vec3::ZERO, &n, &world));
        let without = c.desired_velocity(&ctx(Vec3::new(0.0, 0.0, 10.0), Vec3::ZERO, &[], &world));
        assert!((with - without).y < 0.0, "must push away from the neighbor at +y");
    }

    #[test]
    fn alignment_pulls_velocity_toward_neighbors() {
        let world = World::new();
        let c = ReynoldsController::default();
        let n = [neighbor(1, Vec3::new(0.0, 10.0, 10.0), Vec3::new(0.0, 0.0, 0.0))];
        // I move fast; neighbor hovers: alignment decelerates me.
        let me_vel = Vec3::new(5.0, 0.0, 0.0);
        let with = c.desired_velocity(&ctx(Vec3::new(0.0, 0.0, 10.0), me_vel, &n, &world));
        let without = c.desired_velocity(&ctx(Vec3::new(0.0, 0.0, 10.0), me_vel, &[], &world));
        assert!(with.x < without.x);
    }

    #[test]
    fn out_of_perception_neighbor_is_ignored() {
        let world = World::new();
        let c = ReynoldsController::default();
        let n = [neighbor(1, Vec3::new(0.0, 100.0, 10.0), Vec3::new(-9.0, 9.0, 0.0))];
        let with = c.desired_velocity(&ctx(Vec3::new(0.0, 0.0, 10.0), Vec3::ZERO, &n, &world));
        let without = c.desired_velocity(&ctx(Vec3::new(0.0, 0.0, 10.0), Vec3::ZERO, &[], &world));
        assert_eq!(with, without);
    }

    #[test]
    fn obstacle_field_pushes_outward() {
        let world = World::with_obstacles(vec![Obstacle::Cylinder {
            center: V2::new(6.0, 0.0),
            radius: 4.0,
        }]);
        let c = ReynoldsController::default();
        let with = c.desired_velocity(&ctx(Vec3::new(0.0, 0.0, 10.0), Vec3::ZERO, &[], &world));
        let free =
            c.desired_velocity(&ctx(Vec3::new(0.0, 0.0, 10.0), Vec3::ZERO, &[], &World::new()));
        assert!((with - free).x < 0.0, "field must push away from the obstacle ahead");
    }

    #[test]
    fn speed_is_bounded_and_finite() {
        let p = ReynoldsParams::default();
        let world = World::with_obstacles(vec![Obstacle::Cylinder {
            center: V2::new(0.5, 0.0),
            radius: 0.4,
        }]);
        let n: Vec<NeighborState> =
            (0..12).map(|i| neighbor(i + 1, Vec3::new(0.1, 0.1, 10.0), Vec3::ZERO)).collect();
        let cmd = ReynoldsController::default().desired_velocity(&ctx(
            Vec3::new(0.0, 0.0, 10.0),
            Vec3::ZERO,
            &n,
            &world,
        ));
        assert!(cmd.is_finite());
        assert!(cmd.horizontal().norm() <= p.v_max + 1e-9);
    }

    #[test]
    fn reynolds_flies_a_short_mission() {
        use swarm_sim::mission::MissionSpec;
        use swarm_sim::Simulation;
        let mut spec = MissionSpec::paper_delivery(5, 8);
        spec.duration = 30.0;
        let sim = Simulation::new(spec, ReynoldsController::default()).unwrap();
        let out = sim.run(None).unwrap();
        // Swarm makes forward progress.
        let last = out.record.len() - 1;
        let progress = out.record.positions_at(last)[0].x - out.record.positions_at(0)[0].x;
        assert!(progress > 40.0, "progress {progress}");
    }
}
