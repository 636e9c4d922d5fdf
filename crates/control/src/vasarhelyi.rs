//! The Vásárhelyi et al. (2018) flocking controller — the paper's "Vicsek
//! algorithm".
//!
//! Each control tick, a drone combines five sub-velocities computed from its
//! own perceived state and the broadcast states of its neighbors:
//!
//! 1. **Self-propulsion** `v_spp` toward the destination at the preferred
//!    flocking speed (paper goal 1: mission-driven).
//! 2. **Repulsion** `v_rep`: half-spring pushing away from neighbors closer
//!    than `r0_rep` (goal 2: collision-free).
//! 3. **Friction / velocity alignment** `v_fric`: damps velocity differences
//!    in excess of the ideal braking curve (goal 3: cohesive formation).
//! 4. **Attraction** `v_att`: half-spring pulling toward neighbors farther
//!    than `r0_att`, keeping the formation together (goal 3).
//! 5. **Obstacle avoidance** `v_obs`: a *shill agent* sits on the nearest
//!    obstacle surface point moving outward at `v_shill`; the drone aligns to
//!    it when their velocity difference exceeds the braking curve of the
//!    remaining gap (goal 2).
//!
//! The sum is speed-limited to `v_max`, with a proportional altitude-hold
//! term on top. The decomposition is exposed via [`VelocityTerms`] so the
//! fuzzer can reason about each goal's contribution (it is how the Swarm
//! Vulnerability Graph decides whether a neighbor's spoofed displacement
//! drags a drone toward the obstacle).

use swarm_math::Vec3;
use swarm_sim::{ControlContext, SwarmController};

use crate::braking::braking_curve;

/// Tuning parameters of the Vásárhelyi controller.
///
/// Defaults are tuned for the reproduction's mission scale (233.5 m corridor,
/// 5–15 drones starting in a 50 m box, equilibrium spacing ≈ 10–15 m) such
/// that unattacked missions are collision-free, mirroring the paper's setup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VasarhelyiParams {
    /// Preferred flocking speed toward the destination (m/s).
    pub v_flock: f64,
    /// Hard cap on the commanded horizontal speed (m/s).
    pub v_max: f64,
    /// Repulsion cut-off distance `r0_rep` (m).
    pub r0_rep: f64,
    /// Repulsion gain `p_rep` (1/s).
    pub p_rep: f64,
    /// Cap on the total repulsion speed (m/s). Bounds the inward "crowd
    /// pressure" a pile-up can exert on a drone pinned against an obstacle.
    pub v_rep_max: f64,
    /// Friction distance offset `r0_fric` (m).
    pub r0_fric: f64,
    /// Friction coefficient `C_fric`.
    pub c_fric: f64,
    /// When `true`, velocity alignment only *brakes* (it acts only when the
    /// neighbor is slower along this drone's direction of travel). Prevents
    /// followers from towing a leader into an obstacle during funnel
    /// maneuvers while still damping approach speed differences.
    pub braking_friction_only: bool,
    /// Velocity slack `v_fric` always tolerated between neighbors (m/s).
    pub v_fric: f64,
    /// Friction braking-curve gain `p_fric` (1/s).
    pub p_fric: f64,
    /// Friction braking-curve acceleration `a_fric` (m/s²).
    pub a_fric: f64,
    /// Attraction activation distance `r0_att` (m).
    pub r0_att: f64,
    /// Attraction gain `p_att` (1/s).
    pub p_att: f64,
    /// Cap on the total attraction speed (m/s).
    pub v_att_max: f64,
    /// Shill standoff distance `r0_shill` added to the obstacle surface (m).
    pub r0_shill: f64,
    /// Shill agent speed `v_shill` (m/s).
    pub v_shill: f64,
    /// Shill braking-curve gain `p_shill` (1/s).
    pub p_shill: f64,
    /// Shill braking-curve acceleration `a_shill` (m/s²).
    pub a_shill: f64,
    /// Cap on the total obstacle-avoidance speed (m/s). Makes avoidance a
    /// *bounded* sub-velocity that the other goals can outweigh — the design
    /// property the SwarmFuzz paper exploits ("the sub-velocities generated
    /// by other goals are bigger than the sub-velocity to avoid the
    /// obstacle").
    pub v_obs_max: f64,
    /// Tangential blend of the shill velocity in [0, 1]: 0 points the shill
    /// agent purely outward (classic Vásárhelyi); positive values rotate it
    /// toward the drone's current tangential motion so traffic flows
    /// *around* the obstacle instead of stalling against it.
    pub shill_tangent: f64,
    /// Altitude-hold proportional gain (1/s).
    pub k_alt: f64,
}

impl Default for VasarhelyiParams {
    fn default() -> Self {
        VasarhelyiParams {
            v_flock: 4.0,
            v_max: 6.0,
            r0_rep: 8.0,
            p_rep: 0.5,
            v_rep_max: 3.0,
            r0_fric: 18.0,
            c_fric: 0.4,
            braking_friction_only: true,
            v_fric: 0.15,
            p_fric: 2.5,
            a_fric: 1.5,
            r0_att: 10.0,
            p_att: 0.08,
            v_att_max: 1.2,
            r0_shill: 1.0,
            v_shill: 8.0,
            p_shill: 3.0,
            a_shill: 2.5,
            v_obs_max: 4.0,
            shill_tangent: 0.6,
            k_alt: 0.8,
        }
    }
}

/// The per-goal decomposition of one control command.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VelocityTerms {
    /// Goal 1 (mission-driven): self-propulsion toward the destination.
    pub self_propulsion: Vec3,
    /// Goal 2 (collision-free): inter-drone repulsion.
    pub repulsion: Vec3,
    /// Goal 3 (cohesion): velocity alignment ("friction").
    pub friction: Vec3,
    /// Goal 3 (cohesion): long-range attraction.
    pub attraction: Vec3,
    /// Goal 2 (collision-free): obstacle avoidance via shill agents.
    pub obstacle: Vec3,
    /// Altitude-hold correction.
    pub altitude: Vec3,
    /// The final, speed-limited command.
    pub total: Vec3,
}

impl VelocityTerms {
    /// Sum of the terms serving paper goal 2 (collision avoidance).
    pub fn collision_avoidance(&self) -> Vec3 {
        self.repulsion + self.obstacle
    }

    /// Sum of the terms serving paper goal 3 (cohesive formation).
    pub fn cohesion(&self) -> Vec3 {
        self.friction + self.attraction
    }
}

/// The Vásárhelyi flocking controller.
///
/// Stateless: the command is a pure function of the [`ControlContext`], which
/// is what allows the fuzzer's SVG construction to replay controller
/// responses on recorded mission snapshots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VasarhelyiController {
    params: VasarhelyiParams,
}

impl VasarhelyiController {
    /// Creates a controller with the given parameters.
    pub fn new(params: VasarhelyiParams) -> Self {
        VasarhelyiController { params }
    }

    /// Computes the full sub-velocity decomposition for one drone.
    ///
    /// This is the controller's actual control law; [`SwarmController`] for
    /// this type returns [`VelocityTerms::total`].
    pub fn compute_terms(&self, ctx: &ControlContext<'_>) -> VelocityTerms {
        let p = &self.params;
        let pos = ctx.self_state.position;
        let vel = ctx.self_state.velocity;

        // Goal 1: mission-driven self-propulsion (horizontal).
        let to_dest = (ctx.destination - pos).horizontal();
        let self_propulsion = to_dest.normalized() * p.v_flock;

        let mut repulsion = Vec3::ZERO;
        let mut friction = Vec3::ZERO;
        let mut attraction = Vec3::ZERO;

        for nb in ctx.neighbors {
            let delta = (pos - nb.position).horizontal();
            let dist = delta.norm();

            // Goal 2: pairwise repulsion below r0_rep.
            if dist < p.r0_rep && dist > 1e-9 {
                repulsion += delta.normalized() * (p.p_rep * (p.r0_rep - dist));
            }

            // Goal 3: velocity alignment with braking-curve slack.
            let dv = nb.velocity - vel;
            let dv_norm = dv.norm();
            let allowed = p.v_fric.max(braking_curve(dist - p.r0_fric, p.a_fric, p.p_fric));
            if dv_norm > allowed {
                let brakes = dv.dot(vel) < 0.0;
                if !p.braking_friction_only || brakes {
                    friction += dv.normalized() * (p.c_fric * (dv_norm - allowed));
                }
            }

            // Goal 3: long-range attraction above r0_att.
            if dist > p.r0_att {
                attraction += (-delta).normalized() * (p.p_att * (dist - p.r0_att));
            }
        }
        repulsion = repulsion.clamp_norm(p.v_rep_max);
        attraction = attraction.clamp_norm(p.v_att_max);

        // Goal 2: obstacle avoidance through shill agents.
        let mut obstacle = Vec3::ZERO;
        for obs in &ctx.world.obstacles {
            let gap = obs.surface_distance(pos) - p.r0_shill;
            let normal = obs.outward_normal(pos);
            // Blend in the drone's own tangential motion so the shill guides
            // it around the obstacle rather than only pushing it back.
            let tangential = (vel - normal * vel.dot(normal)).horizontal().normalized();
            let shill_dir = (normal + tangential * p.shill_tangent).normalized();
            let shill_dir = if shill_dir == Vec3::ZERO { normal } else { shill_dir };
            let shill_velocity = shill_dir * p.v_shill;
            let dv = shill_velocity - vel;
            let dv_norm = dv.norm();
            let allowed = braking_curve(gap, p.a_shill, p.p_shill);
            if dv_norm > allowed {
                obstacle += dv.normalized() * (dv_norm - allowed);
            }
        }
        let obstacle = obstacle.clamp_norm(p.v_obs_max);

        // Altitude hold toward the mission altitude.
        let altitude = Vec3::Z * (p.k_alt * (ctx.destination.z - pos.z));

        let horizontal = (self_propulsion + repulsion + friction + attraction + obstacle)
            .horizontal()
            .clamp_norm(p.v_max);
        let total = horizontal + altitude;

        VelocityTerms {
            self_propulsion,
            repulsion,
            friction,
            attraction,
            obstacle,
            altitude,
            total,
        }
    }
}

impl SwarmController for VasarhelyiController {
    fn desired_velocity(&self, ctx: &ControlContext<'_>) -> Vec3 {
        self.compute_terms(ctx).total
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

    fn controller() -> VasarhelyiController {
        VasarhelyiController::new(VasarhelyiParams::default())
    }

    #[test]
    fn lone_drone_heads_to_destination() {
        let world = World::new();
        let terms =
            controller().compute_terms(&ctx(Vec3::new(0.0, 0.0, 10.0), Vec3::ZERO, &[], &world));
        assert!(terms.self_propulsion.x > 0.0);
        assert_eq!(terms.repulsion, Vec3::ZERO);
        assert_eq!(terms.attraction, Vec3::ZERO);
        assert!(terms.total.x > 0.0);
    }

    #[test]
    fn close_neighbor_repels() {
        let world = World::new();
        let n = [neighbor(1, Vec3::new(0.0, 3.0, 10.0), Vec3::ZERO)];
        let terms =
            controller().compute_terms(&ctx(Vec3::new(0.0, 0.0, 10.0), Vec3::ZERO, &n, &world));
        // Neighbor is at +y, so repulsion pushes -y.
        assert!(terms.repulsion.y < 0.0, "repulsion={}", terms.repulsion);
        assert_eq!(terms.attraction, Vec3::ZERO, "no attraction when close");
    }

    #[test]
    fn far_neighbor_attracts() {
        let world = World::new();
        let n = [neighbor(1, Vec3::new(0.0, 30.0, 10.0), Vec3::ZERO)];
        let terms =
            controller().compute_terms(&ctx(Vec3::new(0.0, 0.0, 10.0), Vec3::ZERO, &n, &world));
        assert!(terms.attraction.y > 0.0, "attraction={}", terms.attraction);
        assert_eq!(terms.repulsion, Vec3::ZERO, "no repulsion when far");
    }

    #[test]
    fn attraction_is_capped() {
        let world = World::new();
        let p = VasarhelyiParams::default();
        let n = [neighbor(1, Vec3::new(0.0, 500.0, 10.0), Vec3::ZERO)];
        let terms =
            controller().compute_terms(&ctx(Vec3::new(0.0, 0.0, 10.0), Vec3::ZERO, &n, &world));
        assert!(terms.attraction.norm() <= p.v_att_max + 1e-9);
    }

    #[test]
    fn friction_damps_large_velocity_difference() {
        let world = World::new();
        let n = [neighbor(1, Vec3::new(0.0, 5.0, 10.0), Vec3::new(3.0, 0.0, 0.0))];
        let me_vel = Vec3::new(-3.0, 0.0, 0.0);
        let terms = controller().compute_terms(&ctx(Vec3::new(0.0, 0.0, 10.0), me_vel, &n, &world));
        // Friction should push my velocity toward the neighbor's (+x).
        assert!(terms.friction.x > 0.0, "friction={}", terms.friction);
    }

    #[test]
    fn aligned_neighbors_produce_no_friction() {
        let world = World::new();
        let v = Vec3::new(2.0, 0.0, 0.0);
        let n = [neighbor(1, Vec3::new(0.0, 5.0, 10.0), v)];
        let terms = controller().compute_terms(&ctx(Vec3::new(0.0, 0.0, 10.0), v, &n, &world));
        assert_eq!(terms.friction, Vec3::ZERO);
    }

    #[test]
    fn obstacle_ahead_triggers_avoidance() {
        let world = World::with_obstacles(vec![Obstacle::Cylinder {
            center: V2::new(10.0, 0.0),
            radius: 4.0,
        }]);
        // Flying straight at the obstacle at speed.
        let terms = controller().compute_terms(&ctx(
            Vec3::new(0.0, 0.0, 10.0),
            Vec3::new(2.5, 0.0, 0.0),
            &[],
            &world,
        ));
        // Shill pushes back along -x (outward normal at our position).
        assert!(terms.obstacle.x < 0.0, "obstacle={}", terms.obstacle);
    }

    #[test]
    fn distant_obstacle_is_ignored() {
        let world = World::with_obstacles(vec![Obstacle::Cylinder {
            center: V2::new(500.0, 0.0),
            radius: 4.0,
        }]);
        let terms = controller().compute_terms(&ctx(
            Vec3::new(0.0, 0.0, 10.0),
            Vec3::new(2.5, 0.0, 0.0),
            &[],
            &world,
        ));
        assert_eq!(terms.obstacle, Vec3::ZERO);
    }

    #[test]
    fn total_speed_is_limited() {
        let p = VasarhelyiParams::default();
        let world = World::new();
        // Pile on many repelling neighbors.
        let n: Vec<NeighborState> = (0..20)
            .map(|i| {
                neighbor(
                    i + 1,
                    Vec3::new(0.5 + i as f64 * 0.01, 0.0, 10.0),
                    Vec3::new(-5.0, 0.0, 0.0),
                )
            })
            .collect();
        let terms =
            controller().compute_terms(&ctx(Vec3::new(0.0, 0.0, 10.0), Vec3::ZERO, &n, &world));
        assert!(terms.total.horizontal().norm() <= p.v_max + 1e-9);
    }

    #[test]
    fn altitude_hold_corrects_vertical_error() {
        let world = World::new();
        let terms =
            controller().compute_terms(&ctx(Vec3::new(0.0, 0.0, 4.0), Vec3::ZERO, &[], &world));
        assert!(terms.altitude.z > 0.0, "must climb back to 10 m");
    }

    #[test]
    fn goal_groupings_sum_their_terms() {
        let world = World::with_obstacles(vec![Obstacle::Cylinder {
            center: V2::new(5.0, 0.0),
            radius: 2.0,
        }]);
        let n = [
            neighbor(1, Vec3::new(0.0, 3.0, 10.0), Vec3::new(1.0, 1.0, 0.0)),
            neighbor(2, Vec3::new(0.0, 40.0, 10.0), Vec3::ZERO),
        ];
        let terms = controller().compute_terms(&ctx(
            Vec3::new(0.0, 0.0, 10.0),
            Vec3::new(2.0, 0.0, 0.0),
            &n,
            &world,
        ));
        assert_eq!(terms.collision_avoidance(), terms.repulsion + terms.obstacle);
        assert_eq!(terms.cohesion(), terms.friction + terms.attraction);
    }

    #[test]
    fn command_is_finite_for_degenerate_input() {
        let world = World::new();
        // Coincident neighbor (distance 0) must not produce NaNs.
        let n = [neighbor(1, Vec3::new(0.0, 0.0, 10.0), Vec3::ZERO)];
        let terms =
            controller().compute_terms(&ctx(Vec3::new(0.0, 0.0, 10.0), Vec3::ZERO, &n, &world));
        assert!(terms.total.is_finite(), "total={:?}", terms.total);
    }
}
