//! The fuzzer driver (paper Fig. 3).
//!
//! [`Fuzzer`] glues the pipeline together for one mission:
//!
//! 1. run the initial no-attack test and record mission information;
//! 2. build the seedpool (SVG-guided or random, depending on the variant);
//! 3. for each seed, search the spoofing window (gradient-guided or random)
//!    until a collision is found or the mission's evaluation budget runs out.
//!
//! The four fuzzers of the paper's ablation (§V-C) are the four combinations
//! of seed strategy × search strategy:
//!
//! | fuzzer     | seed scheduling | parameter search |
//! |------------|-----------------|------------------|
//! | SwarmFuzz  | SVG             | gradient         |
//! | `R_Fuzz`   | random          | random           |
//! | `G_Fuzz`   | random          | gradient         |
//! | `S_Fuzz`   | SVG             | random           |

use std::cell::RefCell;

use rand::rngs::StdRng;
use swarm_math::rng::{rng_for, streams};
use swarm_sim::mission::MissionSpec;
use swarm_sim::recorder::MissionRecord;
use swarm_sim::spoof::{Waveform, WaveformKind, WaveformSet};
use swarm_sim::{DroneId, SimObserver, Simulation, SwarmController};

use crate::objective::{Evaluation, Objective};
use crate::schedule::{
    expand_waveforms, random_schedule, svg_schedule_instrumented, trace_schedule,
};
use crate::search::{
    gradient_search_traced, random_search, GradientConfig, SearchResult, ShapeBounds,
};
use crate::seed::Seed;
use crate::snapshot::{MissionCache, SnapshotRing};
use crate::svg::CentralityKind;
use crate::telemetry::Phase;
use crate::trace::{Measurement, Trace, TraceEvent};
use crate::FuzzError;

/// How seeds are ordered for fuzzing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedStrategy {
    /// Swarm Vulnerability Graph + PageRank + VDO ordering (the paper's).
    Svg,
    /// Uniformly shuffled `(T, V, θ)` combinations (ablation baseline).
    Random,
}

/// How the spoofing window is searched for each seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Gradient-guided optimization (the paper's).
    Gradient,
    /// Uniform random sampling (ablation baseline).
    Random,
}

/// Configuration of a fuzzing run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FuzzerConfig {
    /// Seed-scheduling strategy.
    pub seed_strategy: SeedStrategy,
    /// Window-search strategy.
    pub search_strategy: SearchStrategy,
    /// Centrality measure scoring the SVG (PageRank is the paper's choice;
    /// the alternatives exist for the centrality ablation).
    pub centrality: CentralityKind,
    /// GPS spoofing deviation `d` in metres (the paper uses 5 and 10).
    pub deviation: f64,
    /// Total mission-level budget of search iterations (simulated missions);
    /// the paper caps search iterations at 20.
    pub eval_budget: usize,
    /// How long before the victim's closest approach the initial window
    /// guess starts (seconds).
    pub lead_time: f64,
    /// Initial window duration guess (seconds).
    pub initial_duration: f64,
    /// Largest window duration the random search may draw (seconds).
    pub max_duration: f64,
    /// Root seed for the fuzzer's own randomness (random variants).
    pub rng_seed: u64,
    /// Attack classes the fuzzer schedules. The default constant-only set
    /// reproduces the paper's fuzzer exactly; campaign fingerprints only
    /// change when this departs from the default.
    pub waveforms: WaveformSet,
}

impl FuzzerConfig {
    /// The full SwarmFuzz configuration (SVG + gradient).
    pub fn swarmfuzz(deviation: f64) -> Self {
        FuzzerConfig {
            seed_strategy: SeedStrategy::Svg,
            search_strategy: SearchStrategy::Gradient,
            centrality: CentralityKind::PageRank,
            deviation,
            eval_budget: 20,
            lead_time: 20.0,
            initial_duration: 12.0,
            max_duration: 30.0,
            rng_seed: 0,
            waveforms: WaveformSet::CONSTANT_ONLY,
        }
    }

    /// Replaces the scheduled attack classes.
    #[must_use]
    pub fn with_waveforms(mut self, waveforms: WaveformSet) -> Self {
        self.waveforms = waveforms;
        self
    }

    /// `R_Fuzz`: random seeds, random search.
    pub fn r_fuzz(deviation: f64) -> Self {
        FuzzerConfig {
            seed_strategy: SeedStrategy::Random,
            search_strategy: SearchStrategy::Random,
            ..Self::swarmfuzz(deviation)
        }
    }

    /// `G_Fuzz`: random seeds, gradient search.
    pub fn g_fuzz(deviation: f64) -> Self {
        FuzzerConfig {
            seed_strategy: SeedStrategy::Random,
            search_strategy: SearchStrategy::Gradient,
            ..Self::swarmfuzz(deviation)
        }
    }

    /// `S_Fuzz`: SVG seeds, random search.
    pub fn s_fuzz(deviation: f64) -> Self {
        FuzzerConfig {
            seed_strategy: SeedStrategy::Svg,
            search_strategy: SearchStrategy::Random,
            ..Self::swarmfuzz(deviation)
        }
    }

    /// A short human-readable variant name ("SwarmFuzz", "R_Fuzz", ...).
    pub fn variant_name(&self) -> &'static str {
        match (self.seed_strategy, self.search_strategy) {
            (SeedStrategy::Svg, SearchStrategy::Gradient) => "SwarmFuzz",
            (SeedStrategy::Random, SearchStrategy::Random) => "R_Fuzz",
            (SeedStrategy::Random, SearchStrategy::Gradient) => "G_Fuzz",
            (SeedStrategy::Svg, SearchStrategy::Random) => "S_Fuzz",
        }
    }
}

/// A successfully discovered Swarm Propagation Vulnerability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpvFinding {
    /// The seed that produced the collision.
    pub seed: Seed,
    /// Spoofing start time `t_s`.
    pub start: f64,
    /// Spoofing duration `Δt`.
    pub duration: f64,
    /// Spoofing deviation `d`.
    pub deviation: f64,
    /// The drone that actually crashed into the obstacle.
    pub actual_victim: DroneId,
    /// Collision time within the mission.
    pub collision_time: f64,
    /// The attack waveform (with its fitted shape parameter) that crashed
    /// the swarm. `Waveform::Constant` for the paper's attack.
    pub waveform: Waveform,
}

/// The result of fuzzing one mission.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzReport {
    /// The discovered SPV, when fuzzing succeeded.
    pub finding: Option<SpvFinding>,
    /// Total search iterations (attacked missions simulated).
    pub evaluations: usize,
    /// Number of seeds the fuzzer worked through.
    pub seeds_tried: usize,
    /// The mission's VDO (closest any drone came to the obstacle in the
    /// no-attack test).
    pub mission_vdo: f64,
    /// The drone attaining the mission VDO.
    pub vdo_drone: DroneId,
    /// Duration of the no-attack mission in seconds.
    pub baseline_duration: f64,
}

impl FuzzReport {
    /// `true` when an SPV was found.
    pub fn is_success(&self) -> bool {
        self.finding.is_some()
    }
}

/// A configured fuzzer bound to a swarm controller.
#[derive(Debug, Clone)]
pub struct Fuzzer<C> {
    controller: C,
    config: FuzzerConfig,
    trace: Trace,
    snapshots: bool,
}

impl<C: SwarmController + Clone> Fuzzer<C> {
    /// Creates a fuzzer for the given controller and configuration.
    /// Snapshot forking is on by default (it is bit-identical to fresh
    /// simulation — see `tests/snapshot_equivalence.rs`).
    pub fn new(controller: C, config: FuzzerConfig) -> Self {
        Fuzzer { controller, config, trace: Trace::off(), snapshots: true }
    }

    /// Attaches the instrumentation handle: typed pipeline events (probes,
    /// gradient steps, seed rankings — see [`crate::trace`]) plus phase
    /// timings and simulation counts on its side channel.
    ///
    /// Instrumentation is purely observational and deliberately not part of
    /// [`FuzzerConfig`]: the returned [`FuzzReport`] is identical with or
    /// without it.
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = trace;
        self
    }

    /// Enables or disables snapshot-and-fork execution. When off, every
    /// probe re-simulates its mission from `t = 0` (the pre-snapshot
    /// behavior); results are identical either way, only the wall-clock
    /// differs. Deliberately NOT part of [`FuzzerConfig`]: it is an
    /// execution detail, and must not perturb campaign fingerprints.
    pub fn with_snapshots(mut self, snapshots: bool) -> Self {
        self.snapshots = snapshots;
        self
    }

    /// The fuzzer configuration.
    pub fn config(&self) -> &FuzzerConfig {
        &self.config
    }

    /// Fuzzes one mission end-to-end: initial test, seed scheduling, window
    /// search. See the module docs for the pipeline.
    ///
    /// # Errors
    ///
    /// * [`FuzzError::BaselineCollision`] when the no-attack mission already
    ///   collides (nothing meaningful to fuzz);
    /// * [`FuzzError::NoObstacle`] / [`FuzzError::SwarmTooSmall`] for
    ///   malformed missions;
    /// * [`FuzzError::Sim`] for simulation-level failures.
    pub fn fuzz(&self, spec: &MissionSpec) -> Result<FuzzReport, FuzzError> {
        self.trace.emit(TraceEvent::MissionStart { mission_seed: spec.seed });
        let sim = Simulation::new(spec.clone(), self.controller.clone())?;
        let observer: Option<&dyn SimObserver> =
            if self.trace.is_enabled() { Some(&self.trace) } else { None };

        // Step 1: initial no-attack test. With snapshots on, the baseline
        // run also captures a snapshot ring for the window search to fork
        // from; the ring lives until this call returns. A search without an
        // evaluation budget never probes, so it builds no ring.
        let (baseline, ring) = if self.snapshots && self.config.eval_budget > 0 {
            let ring = RefCell::new(SnapshotRing::new(spec.steps_per_gps()));
            let outcome = {
                let _span = self.trace.span(Phase::Baseline);
                sim.run_observed_with_snapshots(
                    None,
                    observer,
                    |step| ring.borrow().wants(step),
                    |snap| ring.borrow_mut().push(snap),
                )?
            };
            (outcome, Some(ring.into_inner()))
        } else {
            let _span = self.trace.span(Phase::Baseline);
            (sim.run_observed(None, observer)?, None)
        };
        if let Some(c) = baseline.first_collision() {
            self.trace.emit(TraceEvent::BaselineRejected { mission_seed: spec.seed, time: c.time });
            return Err(FuzzError::BaselineCollision(*c));
        }
        let (mission_cache, unforked) = match ring {
            Some(ring) => (Some(MissionCache::from_ring(baseline.record, ring)), None),
            None => (None, Some(baseline.record)),
        };
        let record: &MissionRecord = match (&mission_cache, &unforked) {
            (Some(cache), _) => cache.baseline(),
            (None, Some(record)) => record,
            (None, None) => unreachable!("one baseline source is always populated"),
        };
        let (vdo_drone, mission_vdo) = record.mission_vdo().ok_or(FuzzError::NoObstacle)?;
        // `snapshots` and `stride` describe the ring built above (0 without
        // one); canonical traces strip them with the other execution-detail
        // fields.
        self.trace.emit(TraceEvent::BaselineDone {
            vdo: mission_vdo,
            vdo_drone: vdo_drone.index(),
            duration: record.duration(),
            snapshots: mission_cache.as_ref().map_or(0, MissionCache::ring_len),
            stride: mission_cache.as_ref().map_or(0, MissionCache::stride),
        });

        // Step 2: seed scheduling.
        let mut rng = rng_for(self.config.rng_seed ^ spec.seed, streams::FUZZER);
        let pool = {
            let _span = self.trace.span(Phase::SeedSchedule);
            match self.config.seed_strategy {
                SeedStrategy::Svg => svg_schedule_instrumented(
                    &self.controller,
                    spec,
                    record,
                    self.config.deviation,
                    self.config.centrality,
                    &self.trace,
                )?,
                SeedStrategy::Random => random_schedule(record, &mut rng)?,
            }
        };
        trace_schedule(&pool, &self.trace);
        // Replay each ranked pair once per enabled attack class. Identity
        // for the default constant-only set.
        let pool = expand_waveforms(pool, self.config.waveforms);

        // Step 3: per-seed window search under a mission-level budget.
        let t_mission = record.duration();
        let mut evaluations = 0usize;
        let mut seeds_tried = 0usize;
        let mut finding = None;

        for seed in pool.iter() {
            if evaluations >= self.config.eval_budget {
                break;
            }
            seeds_tried += 1;
            let remaining = self.config.eval_budget - evaluations;
            self.trace.emit(TraceEvent::SeedStart {
                ordinal: seeds_tried,
                target: seed.target.index(),
                victim: seed.victim.index(),
                theta: seed.direction.theta(),
                waveform: seed.waveform.name().to_string(),
                budget: remaining,
            });
            let result = self.search_seed(
                &sim,
                mission_cache.as_ref(),
                record,
                *seed,
                remaining,
                t_mission,
                &mut rng,
            )?;
            evaluations += result.evaluations;
            self.trace.emit(TraceEvent::SeedDone {
                evaluations: result.evaluations,
                converged: result.converged,
                best_value: result.best_value,
                success: result.success.is_some(),
            });
            if let Some(s) = result.success {
                finding = Some(SpvFinding {
                    seed: *seed,
                    start: s.start,
                    duration: s.duration,
                    deviation: self.config.deviation,
                    actual_victim: s.victim,
                    collision_time: s.collision_time,
                    waveform: Waveform::fitted(seed.waveform, s.duration, result.shape),
                });
                break;
            }
        }

        self.trace.emit(TraceEvent::MissionDone {
            success: finding.is_some(),
            evaluations,
            seeds_tried,
        });
        Ok(FuzzReport {
            finding,
            evaluations,
            seeds_tried,
            mission_vdo,
            vdo_drone,
            baseline_duration: t_mission,
        })
    }

    /// Searches one seed's spoofing window. A probe whose mission forks
    /// from a cached snapshot counts exactly like a from-scratch probe —
    /// one search iteration — so the paper's eval budget is unaffected by
    /// how the mission is executed.
    ///
    /// Constant and drift seeds search the paper's two-dimensional
    /// `(t_s, Δt)` space (drift ramps in over the full window); circular and
    /// jump seeds add their shape parameter (ω, period) as a third axis.
    #[allow(clippy::too_many_arguments)]
    fn search_seed(
        &self,
        sim: &Simulation<C>,
        fork: Option<&MissionCache>,
        record: &MissionRecord,
        seed: Seed,
        budget: usize,
        t_mission: f64,
        rng: &mut StdRng,
    ) -> Result<SearchResult, FuzzError> {
        let mut objective = Objective::new(sim, seed, self.config.deviation);
        if self.trace.is_enabled() {
            objective = objective.with_observer(&self.trace);
        }
        let trace = &self.trace;
        let eval = |ts: f64, dt: f64, shape: Option<f64>| {
            let mut fork_flag = None;
            let result = (|| {
                if let Some(cache) = fork {
                    // Clamp like the objective will, so fork admission sees
                    // the start time the attack window actually uses.
                    if let Some(snap) = cache.newest_admitting(ts.max(0.0)) {
                        fork_flag = Some(true);
                        trace.measure(Measurement::PrefixSaved {
                            steps: snap.stats().physics_steps,
                        });
                        let prefix = {
                            let _span = trace.span(Phase::PrefixSim);
                            sim.prefix_record(snap, cache.baseline())?
                        };
                        let _span = trace.span(Phase::ForkedSim);
                        return objective.evaluate_shaped_forked(snap, prefix, ts, dt, shape);
                    }
                    fork_flag = Some(false);
                }
                let _span = trace.span(Phase::MissionSim);
                objective.evaluate_shaped(ts, dt, shape)
            })();
            if let Ok(e) = &result {
                trace.emit(TraceEvent::Probe {
                    ts,
                    dt,
                    shape,
                    value: e.value,
                    success: e.is_success(),
                    fork: fork_flag,
                });
            }
            result
        };
        let bounds = shape_bounds(seed.waveform);
        match self.config.search_strategy {
            SearchStrategy::Gradient => {
                let _span = self.trace.span(Phase::GradientSearch);
                // Initial guess: start the spoofing window `lead_time`
                // seconds before the victim's recorded closest approach; the
                // restart window opens earlier and lasts longer.
                let t_close = record.vdo_time(seed.victim).unwrap_or(t_mission / 2.0);
                let first =
                    ((t_close - self.config.lead_time).max(0.0), self.config.initial_duration);
                let second = (
                    (t_close - 1.6 * self.config.lead_time).max(0.0),
                    1.5 * self.config.initial_duration,
                );
                gradient_multi_start(eval, first, second, bounds.as_ref(), budget, t_mission, trace)
            }
            SearchStrategy::Random => {
                let _span = self.trace.span(Phase::RandomSearch);
                random_search(
                    eval,
                    budget,
                    t_mission,
                    self.config.max_duration,
                    bounds.as_ref(),
                    rng,
                )
            }
        }
    }
}

/// The paper's two-start gradient search: one run from the VDO-led guess,
/// and — unless it succeeded or exhausted the budget — a restart from the
/// second window with what remains. The objective is convex in the window
/// for a fixed interaction geometry, but different windows engage different
/// geometries. A seed with shape bounds searches once, from the first guess.
fn gradient_multi_start(
    mut probe: impl FnMut(f64, f64, Option<f64>) -> Result<Evaluation, FuzzError>,
    first_start: (f64, f64),
    second_start: (f64, f64),
    bounds: Option<&ShapeBounds>,
    budget: usize,
    t_mission: f64,
    trace: &Trace,
) -> Result<SearchResult, FuzzError> {
    let config = GradientConfig::default();
    let first =
        gradient_search_traced(&mut probe, first_start, bounds, budget, t_mission, &config, trace)?;
    if bounds.is_some() || first.success.is_some() || first.evaluations >= budget {
        return Ok(first);
    }
    let second = gradient_search_traced(
        &mut probe,
        second_start,
        None,
        budget - first.evaluations,
        t_mission,
        &config,
        trace,
    )?;
    Ok(SearchResult {
        evaluations: first.evaluations + second.evaluations,
        best_value: first.best_value.min(second.best_value),
        ..second
    })
}

/// Search bounds for a waveform's shape parameter, or `None` for the
/// two-parameter classes searched exactly like the paper's fuzzer.
fn shape_bounds(kind: WaveformKind) -> Option<ShapeBounds> {
    match kind {
        // Constant has no shape; drift ramps in over the full window, which
        // keeps its search space identical to the paper's `(t_s, Δt)`.
        WaveformKind::Constant | WaveformKind::Drift => None,
        // ω in [0, 2π] rad/s: one full orbit per second at most.
        WaveformKind::Circular => {
            Some(ShapeBounds { lo: 0.0, hi: std::f64::consts::TAU, init: 1.0 })
        }
        // Half-cycle period in [0.1, 10] s.
        WaveformKind::Jump => Some(ShapeBounds { lo: 0.1, hi: 10.0, init: 1.0 }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_names_cover_ablation_matrix() {
        assert_eq!(FuzzerConfig::swarmfuzz(10.0).variant_name(), "SwarmFuzz");
        assert_eq!(FuzzerConfig::r_fuzz(10.0).variant_name(), "R_Fuzz");
        assert_eq!(FuzzerConfig::g_fuzz(10.0).variant_name(), "G_Fuzz");
        assert_eq!(FuzzerConfig::s_fuzz(10.0).variant_name(), "S_Fuzz");
    }

    #[test]
    fn variants_share_budget_and_deviation() {
        for cfg in [
            FuzzerConfig::swarmfuzz(5.0),
            FuzzerConfig::r_fuzz(5.0),
            FuzzerConfig::g_fuzz(5.0),
            FuzzerConfig::s_fuzz(5.0),
        ] {
            assert_eq!(cfg.deviation, 5.0);
            assert_eq!(cfg.eval_budget, 20);
        }
    }
}
