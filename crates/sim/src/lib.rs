//! A SwarmLab-style deterministic drone swarm simulator.
//!
//! This crate is the substrate the SwarmFuzz reproduction runs on. It mirrors
//! the pieces of the MATLAB SwarmLab simulator that the paper's evaluation
//! depends on:
//!
//! * [`dynamics`] — drone translational dynamics: SwarmLab's default
//!   velocity-tracking point-mass model, which every mission flies.
//! * [`sensors`] — the GPS receiver model sampling at 100 Hz with optional
//!   Gaussian noise, plus the spoofing injection hook.
//! * [`spoof`] — the GPS spoofing attack description
//!   `<target, θ, t_s, Δt, d>` ("horizontal constant spoofing", §IV-A) and
//!   the waveform that shapes its offset.
//! * [`comms`] — the state-broadcast communication bus between swarm
//!   members, with optional per-message delay and drop for failure injection.
//! * [`world`] — obstacles (cylinders/spheres) and the mission environment.
//! * [`mission`] — mission specifications, including the paper's delivery
//!   mission geometry (233.5 m, one on-path obstacle at the half-way mark,
//!   swarm start positions randomized in a 0–50 m box).
//! * [`runner`] — the fixed-step simulation loop gluing everything together
//!   behind the [`SwarmController`] trait implemented by `swarm-control`.
//! * [`recorder`] / [`metrics`] — the trajectory/mission information
//!   SwarmFuzz's initial test collects (per-tick positions, per-drone minimum
//!   obstacle distance a.k.a. VDO, the closest-approach time `t_clo`).
//! * [`spatial`] — the uniform-grid neighbor index behind the lazy collision
//!   broad phase (every swarm size) and large-swarm comms delivery,
//!   bit-identical to the brute-force scans it replaces.
//!
//! Everything is deterministic given a mission seed: the same
//! [`mission::MissionSpec`] and attack always produce bit-identical
//! trajectories.
//!
//! # Example
//!
//! A controller that just flies toward the destination:
//!
//! ```
//! use swarm_math::Vec3;
//! use swarm_sim::{ControlContext, SwarmController};
//!
//! struct GoToGoal;
//!
//! impl SwarmController for GoToGoal {
//!     fn desired_velocity(&self, ctx: &ControlContext<'_>) -> Vec3 {
//!         (ctx.destination - ctx.self_state.position).with_norm(2.0)
//!     }
//! }
//! ```

pub mod comms;
pub mod dynamics;
mod error;
pub mod metrics;
pub mod mission;
pub mod recorder;
pub mod render;
pub mod runner;
pub mod scenario;
pub mod sensors;
pub mod spatial;
pub mod spoof;
pub mod wind;
pub mod world;

pub use error::SimError;
pub use runner::{
    ControlContext, MissionOutcome, NeighborState, PerceivedSelf, RunStats, SimConfig, SimObserver,
    SimSnapshot, Simulation, SwarmController,
};
pub use spatial::{SpatialGrid, SpatialPolicy, GRID_AUTO_THRESHOLD};

use std::fmt;

/// Identifier of a drone within a swarm (dense, `0..swarm_size`).
///
/// A newtype rather than a bare `usize` so drone ids, graph node ids and
/// array indices cannot be silently confused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DroneId(pub usize);

impl DroneId {
    /// The dense index of this drone.
    pub fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for DroneId {
    fn from(i: usize) -> Self {
        DroneId(i)
    }
}

impl fmt::Display for DroneId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "drone{}", self.0)
    }
}

/// A collision observed during a mission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollisionEvent {
    /// Simulation time of the collision in seconds.
    pub time: f64,
    /// What collided with what.
    pub kind: CollisionKind,
}

/// The kind of collision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CollisionKind {
    /// A drone hit an obstacle.
    DroneObstacle {
        /// The crashing drone.
        drone: DroneId,
        /// Index of the obstacle in the world's obstacle list.
        obstacle: usize,
    },
    /// Two drones collided with each other.
    DroneDrone {
        /// Lower-id drone.
        first: DroneId,
        /// Higher-id drone.
        second: DroneId,
    },
}

impl CollisionKind {
    /// The drones involved in this collision.
    pub fn drones(&self) -> Vec<DroneId> {
        match *self {
            CollisionKind::DroneObstacle { drone, .. } => vec![drone],
            CollisionKind::DroneDrone { first, second } => vec![first, second],
        }
    }

    /// `true` when this is a drone-obstacle collision involving `drone`.
    pub fn is_obstacle_hit_by(&self, drone: DroneId) -> bool {
        matches!(*self, CollisionKind::DroneObstacle { drone: d, .. } if d == drone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drone_id_roundtrip() {
        let id: DroneId = 3.into();
        assert_eq!(id.index(), 3);
        assert_eq!(format!("{id}"), "drone3");
    }

    #[test]
    fn collision_kind_drones() {
        let k = CollisionKind::DroneDrone { first: DroneId(0), second: DroneId(2) };
        assert_eq!(k.drones(), vec![DroneId(0), DroneId(2)]);
        assert!(!k.is_obstacle_hit_by(DroneId(0)));
        let o = CollisionKind::DroneObstacle { drone: DroneId(1), obstacle: 0 };
        assert!(o.is_obstacle_hit_by(DroneId(1)));
        assert!(!o.is_obstacle_hit_by(DroneId(2)));
    }
}
