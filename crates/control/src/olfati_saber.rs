//! Olfati-Saber flocking (IEEE TAC 2006) — the second decentralized control
//! law of this reproduction.
//!
//! The SwarmFuzz paper argues its method generalizes to other decentralized
//! swarm control algorithms because it relies only on the shared high-level
//! goals (mission / collision-free / cohesion) and the convexity of the
//! objective. This module provides a structurally different algorithm to
//! test that claim: Olfati-Saber's gradient-based flocking with α-agents
//! (peers), β-agents (obstacle projections) and a γ-agent (navigation goal).
//!
//! The original algorithm outputs accelerations; since the simulator's
//! controller interface commands velocities, the acceleration is integrated
//! over one control horizon (`v_cmd = v + u·τ`), a standard discretization.

use swarm_math::Vec3;
use swarm_sim::{ControlContext, SwarmController};

/// Tuning parameters of the Olfati-Saber controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OlfatiSaberParams {
    /// Desired inter-agent distance `d` (m).
    pub d: f64,
    /// Interaction range `r` (m), typically `1.2·d`.
    pub r: f64,
    /// Desired distance to β-agents (obstacle surface) `d_beta` (m).
    pub d_beta: f64,
    /// Interaction range for β-agents (m).
    pub r_beta: f64,
    /// σ-norm parameter ε.
    pub epsilon: f64,
    /// Bump-function plateau fraction `h` for α-agents.
    pub h_alpha: f64,
    /// Bump-function plateau fraction for β-agents.
    pub h_beta: f64,
    /// Pairwise potential parameters `a <= b`.
    pub a: f64,
    /// Pairwise potential parameter `b`.
    pub b: f64,
    /// Gradient gain for α-interactions.
    pub c1_alpha: f64,
    /// Alignment (consensus) gain for α-interactions.
    pub c2_alpha: f64,
    /// Gradient gain for β-interactions.
    pub c1_beta: f64,
    /// Alignment gain for β-interactions.
    pub c2_beta: f64,
    /// Navigation position gain toward the γ-agent (destination).
    pub c1_gamma: f64,
    /// Navigation velocity gain.
    pub c2_gamma: f64,
    /// Cruise speed toward the destination (m/s).
    pub v_cruise: f64,
    /// Control horizon τ used to turn acceleration into a velocity command.
    pub tau: f64,
    /// Cap on the commanded horizontal speed (m/s).
    pub v_max: f64,
    /// Altitude-hold gain (1/s).
    pub k_alt: f64,
}

impl Default for OlfatiSaberParams {
    fn default() -> Self {
        OlfatiSaberParams {
            d: 12.0,
            r: 14.4,
            d_beta: 6.0,
            r_beta: 12.0,
            epsilon: 0.1,
            h_alpha: 0.2,
            h_beta: 0.9,
            a: 5.0,
            b: 5.0,
            c1_alpha: 0.35,
            c2_alpha: 0.25,
            c1_beta: 1.2,
            c2_beta: 0.6,
            c1_gamma: 0.08,
            c2_gamma: 0.4,
            v_cruise: 2.5,
            tau: 0.6,
            v_max: 5.0,
            k_alt: 0.8,
        }
    }
}

/// σ-norm: a smooth norm that is differentiable at the origin.
fn sigma_norm(z: Vec3, epsilon: f64) -> f64 {
    ((1.0 + epsilon * z.norm_squared()).sqrt() - 1.0) / epsilon
}

/// Gradient of the σ-norm.
fn sigma_grad(z: Vec3, epsilon: f64) -> Vec3 {
    z / (1.0 + epsilon * z.norm_squared()).sqrt()
}

/// Bump function ρ_h(z): smooth cut-off from 1 to 0 over `z ∈ [h, 1]`.
fn bump(z: f64, h: f64) -> f64 {
    if z < 0.0 {
        0.0
    } else if z < h {
        1.0
    } else if z <= 1.0 {
        0.5 * (1.0 + (std::f64::consts::PI * (z - h) / (1.0 - h)).cos())
    } else {
        0.0
    }
}

/// Uneven sigmoid σ₁.
fn sigma1(z: f64) -> f64 {
    z / (1.0 + z * z).sqrt()
}

/// The pairwise action function φ.
fn phi(z: f64, a: f64, b: f64) -> f64 {
    let c = (a - b).abs() / (4.0 * a * b).sqrt();
    0.5 * ((a + b) * sigma1(z + c) + (a - b))
}

/// The Olfati-Saber flocking controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OlfatiSaberController {
    params: OlfatiSaberParams,
}

impl OlfatiSaberController {
    /// Creates a controller with the given parameters.
    pub fn new(params: OlfatiSaberParams) -> Self {
        OlfatiSaberController { params }
    }

    /// Computes the flocking acceleration `u_i` (the original algorithm's
    /// output) before velocity conversion.
    pub fn acceleration(&self, ctx: &ControlContext<'_>) -> Vec3 {
        let p = &self.params;
        let q_i = ctx.self_state.position.horizontal();
        let v_i = ctx.self_state.velocity.horizontal();

        let r_sigma = sigma_norm(Vec3::splat(0.0).with_norm(0.0) + Vec3::X * p.r, p.epsilon);
        let d_sigma = sigma_norm(Vec3::X * p.d, p.epsilon);

        // α-agent interactions (peers).
        let mut u_alpha = Vec3::ZERO;
        for nb in ctx.neighbors {
            let q_j = nb.position.horizontal();
            let delta = q_j - q_i;
            if delta.norm() > p.r {
                continue;
            }
            let z = sigma_norm(delta, p.epsilon);
            let n_ij = sigma_grad(delta, p.epsilon);
            let a_ij = bump(z / r_sigma, p.h_alpha);
            u_alpha += n_ij * (p.c1_alpha * phi(z - d_sigma, p.a, p.b) * a_ij);
            u_alpha += (nb.velocity.horizontal() - v_i) * (p.c2_alpha * a_ij);
        }

        // β-agent interactions (obstacle surface projections).
        let d_beta_sigma = sigma_norm(Vec3::X * p.d_beta, p.epsilon);
        let r_beta_sigma = sigma_norm(Vec3::X * p.r_beta, p.epsilon);
        let mut u_beta = Vec3::ZERO;
        for obs in &ctx.world.obstacles {
            let q_beta = obs.closest_surface_point(ctx.self_state.position).horizontal();
            let delta = q_beta - q_i;
            if delta.norm() > p.r_beta {
                continue;
            }
            let z = sigma_norm(delta, p.epsilon);
            let n_ib = sigma_grad(delta, p.epsilon);
            let b_ib = bump(z / r_beta_sigma, p.h_beta);
            // β-action is repulsive-only: φ_β(z) = ρ(z/r)·(σ1(z−d)−1).
            let phi_beta = b_ib * (sigma1(z - d_beta_sigma) - 1.0);
            u_beta += n_ib * (p.c1_beta * phi_beta);
            // β-agents are static, so alignment damps the approach velocity.
            u_beta += (-v_i) * (p.c2_beta * b_ib);
        }

        // γ-agent: navigational feedback toward the destination at cruise
        // speed.
        let to_dest = (ctx.destination - ctx.self_state.position).horizontal();
        let v_ref = to_dest.normalized() * p.v_cruise;
        let u_gamma = to_dest * p.c1_gamma + (v_ref - v_i) * p.c2_gamma;

        u_alpha + u_beta + u_gamma
    }
}

impl SwarmController for OlfatiSaberController {
    fn desired_velocity(&self, ctx: &ControlContext<'_>) -> Vec3 {
        let p = &self.params;
        let u = self.acceleration(ctx);
        let horizontal = (ctx.self_state.velocity.horizontal() + u * p.tau).clamp_norm(p.v_max);
        let altitude = Vec3::Z * (p.k_alt * (ctx.destination.z - ctx.self_state.position.z));
        horizontal + altitude
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

    fn controller() -> OlfatiSaberController {
        OlfatiSaberController::new(OlfatiSaberParams::default())
    }

    #[test]
    fn bump_shape() {
        assert_eq!(bump(-0.1, 0.2), 0.0);
        assert_eq!(bump(0.1, 0.2), 1.0);
        assert!(bump(0.6, 0.2) > 0.0 && bump(0.6, 0.2) < 1.0);
        assert!(bump(1.0, 0.2).abs() < 1e-12);
        assert_eq!(bump(1.5, 0.2), 0.0);
    }

    #[test]
    fn phi_sign_encodes_spring() {
        // Closer than desired -> negative (repulsive), farther -> positive.
        assert!(phi(-5.0, 5.0, 5.0) < 0.0);
        assert!(phi(5.0, 5.0, 5.0) > 0.0);
    }

    #[test]
    fn sigma_norm_at_origin_is_zero() {
        assert_eq!(sigma_norm(Vec3::ZERO, 0.1), 0.0);
        assert!(sigma_norm(Vec3::X, 0.1) > 0.0);
    }

    #[test]
    fn lone_drone_accelerates_toward_destination() {
        let world = World::new();
        let u = controller().acceleration(&ctx(Vec3::new(0.0, 0.0, 10.0), Vec3::ZERO, &[], &world));
        assert!(u.x > 0.0);
    }

    #[test]
    fn too_close_neighbor_repels() {
        let world = World::new();
        let n = [neighbor(1, Vec3::new(0.0, 3.0, 10.0), Vec3::ZERO)];
        let u = controller().acceleration(&ctx(Vec3::new(0.0, 0.0, 10.0), Vec3::ZERO, &n, &world));
        assert!(u.y < 0.0, "u={u}");
    }

    #[test]
    fn slightly_far_neighbor_attracts() {
        let world = World::new();
        // Within range r=14.4 but beyond desired d=12.
        let n = [neighbor(1, Vec3::new(0.0, 13.5, 10.0), Vec3::ZERO)];
        let c = controller();
        // Isolate the alpha term by cancelling gamma: compare with/without.
        let with = c.acceleration(&ctx(Vec3::new(0.0, 0.0, 10.0), Vec3::ZERO, &n, &world));
        let without = c.acceleration(&ctx(Vec3::new(0.0, 0.0, 10.0), Vec3::ZERO, &[], &world));
        assert!((with - without).y > 0.0, "alpha term must pull +y");
    }

    #[test]
    fn obstacle_surface_repels() {
        let world = World::with_obstacles(vec![Obstacle::Cylinder {
            center: V2::new(8.0, 0.0),
            radius: 4.0,
        }]);
        let c = controller();
        let with =
            c.acceleration(&ctx(Vec3::new(0.0, 0.0, 10.0), Vec3::new(2.0, 0.0, 0.0), &[], &world));
        let free = c.acceleration(&ctx(
            Vec3::new(0.0, 0.0, 10.0),
            Vec3::new(2.0, 0.0, 0.0),
            &[],
            &World::new(),
        ));
        assert!((with - free).x < 0.0, "beta term must push away from the obstacle");
    }

    #[test]
    fn out_of_range_neighbor_ignored() {
        let world = World::new();
        let c = controller();
        let n = [neighbor(1, Vec3::new(0.0, 100.0, 10.0), Vec3::new(-3.0, 2.0, 0.0))];
        let with = c.acceleration(&ctx(Vec3::new(0.0, 0.0, 10.0), Vec3::ZERO, &n, &world));
        let without = c.acceleration(&ctx(Vec3::new(0.0, 0.0, 10.0), Vec3::ZERO, &[], &world));
        assert_eq!(with, without);
    }

    #[test]
    fn commanded_speed_is_bounded() {
        let p = OlfatiSaberParams::default();
        let world = World::new();
        let n: Vec<NeighborState> =
            (0..10).map(|i| neighbor(i + 1, Vec3::new(1.0, 0.0, 10.0), Vec3::ZERO)).collect();
        let cmd =
            controller().desired_velocity(&ctx(Vec3::new(0.0, 0.0, 10.0), Vec3::ZERO, &n, &world));
        assert!(cmd.horizontal().norm() <= p.v_max + 1e-9);
        assert!(cmd.is_finite());
    }
}
