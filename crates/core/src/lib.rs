//! # SwarmFuzz — discovering GPS-spoofing attacks in drone swarms
//!
//! A from-scratch Rust reproduction of *SwarmFuzz: Discovering GPS Spoofing
//! Attacks in Drone Swarms* (Yao, Dash, Pattabiraman — DSN 2023).
//!
//! Drone swarms balance three goals — reach the destination, avoid
//! collisions, keep formation. A GPS spoofer can exploit that balance
//! *indirectly*: spoof one swarm member (the **target**) so that the swarm
//! control algorithm generates commands that push a **different** member
//! (the **victim**) into an obstacle. The paper calls these **Swarm
//! Propagation Vulnerabilities (SPVs)**; this crate implements the fuzzer
//! that finds them efficiently.
//!
//! ## Pipeline (paper Fig. 3)
//!
//! 1. **Initial test** — fly the mission without any attack and record each
//!    drone's trajectory, its closest obstacle distance (*VDO*), and the
//!    swarm's closest-approach time `t_clo` ([`swarm_sim::recorder`]).
//! 2. **Seed scheduling** — build the [Swarm Vulnerability Graph](svg) at
//!    `t_clo`, rank targets/victims with PageRank
//!    ([`swarm_graph::centrality`]), and order the seeds `<T-V, θ>` by
//!    ascending VDO and descending influence ([`schedule`]).
//! 3. **Search-based fuzzing** — for each seed, find the spoofing window
//!    `(t_s, Δt)` minimizing the victim-to-obstacle distance with
//!    gradient-guided optimization ([`search`]); the objective is convex in
//!    practice, so the search converges in a handful of simulated missions.
//!
//! The ablation variants of §V-C (`R_Fuzz`, `G_Fuzz`, `S_Fuzz`) are the
//! other combinations of random/SVG seed scheduling × random/gradient window
//! search ([`fuzzer`]).
//!
//! ## Quickstart
//!
//! ```
//! use swarm_control::{VasarhelyiController, VasarhelyiParams};
//! use swarm_sim::mission::MissionSpec;
//! use swarmfuzz::{Fuzzer, FuzzerConfig};
//!
//! # fn main() -> Result<(), swarmfuzz::FuzzError> {
//! let controller = VasarhelyiController::new(VasarhelyiParams::default());
//! let fuzzer = Fuzzer::new(controller, FuzzerConfig::swarmfuzz(10.0));
//! let mut spec = MissionSpec::paper_delivery(5, 42);
//! # spec.duration = 2.0; // truncate so the doctest stays fast
//! # let fuzzer = Fuzzer::new(controller, swarmfuzz::FuzzerConfig {
//! #     eval_budget: 0, ..FuzzerConfig::swarmfuzz(10.0) });
//! let report = fuzzer.fuzz(&spec)?;
//! println!("VDO {:.2} m, found SPV: {}", report.mission_vdo, report.is_success());
//! # Ok(())
//! # }
//! ```

pub mod campaign;
pub mod dashboard;
pub mod defense;
mod error;
pub mod executor;
pub mod fuzzer;
pub mod minimize;
pub mod objective;
pub mod report;
pub mod schedule;
pub mod search;
pub mod seed;
pub mod server;
pub mod snapshot;
pub mod store;
pub mod svg;
pub mod telemetry;
pub mod trace;
pub mod wire;

pub use error::FuzzError;
pub use executor::{InProcessExecutor, MissionExecutor, MissionJob};
pub use fuzzer::{FuzzReport, Fuzzer, FuzzerConfig, SearchStrategy, SeedStrategy, SpvFinding};
pub use seed::Seed;
pub use server::{
    CampaignServer, CampaignSpec, FairQueue, FuzzerVariant, JobPhase, JobStatus, ServerConfig,
    ServerError,
};
pub use snapshot::{MissionCache, SnapshotRing};
pub use store::{CampaignJournal, StoreError};
pub use svg::{CentralityKind, SvgAnalysis, SvgBuilder};
pub use telemetry::{Telemetry, TelemetryReport};
pub use trace::{Trace, TraceEvent, TraceKey, TraceRecord, TraceSink};
