//! Decentralized swarm control algorithms.
//!
//! The SwarmFuzz paper evaluates the "Vicsek algorithm" — the optimized
//! flocking model of Vásárhelyi et al. (*Science Robotics*, 2018) as
//! implemented by the SwarmLab simulator. [`vasarhelyi`] reimplements that
//! controller with the full term decomposition the paper's analysis relies
//! on:
//!
//! | paper goal              | velocity term(s)                          |
//! |-------------------------|-------------------------------------------|
//! | (1) mission-driven      | self-propulsion toward the destination    |
//! | (2) collision-free      | inter-agent repulsion + obstacle (shill)  |
//! | (3) cohesive formation  | velocity alignment (friction) + attraction|
//!
//! [`olfati_saber`] (Olfati-Saber, *IEEE TAC* 2006) provides a structurally
//! different decentralized algorithm; `examples/search_and_rescue.rs`
//! fuzzes it to back the paper's claim (§VI) that SwarmFuzz generalizes
//! beyond one control law.
//!
//! Both implement [`swarm_sim::SwarmController`], so they plug directly into
//! the simulator and the fuzzer.
//!
//! # Example
//!
//! ```
//! use swarm_control::vasarhelyi::{VasarhelyiController, VasarhelyiParams};
//! use swarm_sim::{mission::MissionSpec, Simulation};
//!
//! # fn main() -> Result<(), swarm_sim::SimError> {
//! let controller = VasarhelyiController::new(VasarhelyiParams::default());
//! let mut spec = MissionSpec::paper_delivery(5, 42);
//! spec.duration = 1.0; // keep the doctest fast
//! let sim = Simulation::new(spec, controller)?;
//! let outcome = sim.run(None)?;
//! assert!(outcome.collision_free());
//! # Ok(())
//! # }
//! ```

pub mod braking;
pub mod olfati_saber;
pub mod presets;
pub mod vasarhelyi;

pub use vasarhelyi::{VasarhelyiController, VasarhelyiParams, VelocityTerms};
