//! Mission execution, split from campaign scheduling.
//!
//! A campaign is a *schedule* of `(config, index)` mission jobs; actually
//! fuzzing one of those jobs is an *execution* concern. [`MissionExecutor`]
//! is the seam between the two: the scheduler ([`crate::server`], and
//! through it [`crate::campaign::run_campaign_with_options`]) decides which
//! job runs next, an executor turns one job into one [`JournalRow`]. The
//! in-process implementation ([`InProcessExecutor`]) is today's backend; a
//! subprocess shard or remote worker only has to implement the same
//! one-job-in, one-row-out contract to slot under the same scheduler,
//! because every piece of campaign state an executor needs travels in the
//! job or in the executor itself — never in shared mutable scheduler state.
//!
//! Executors are *infallible by contract*: retries, quarantine and even
//! panics are absorbed into the returned row ([`JournalRow::Failed`] carries
//! the rendered error), so a single poisoned mission can never take down a
//! worker pool or a long-running server. The only campaign-aborting error
//! class left is journal I/O, which lives with the scheduler.

use std::panic::{catch_unwind, AssertUnwindSafe};

use swarm_sim::SwarmController;

use crate::campaign::{
    campaign_mission, mission_base_seed, MissionFailure, MissionResult, SwarmConfig,
};
use crate::fuzzer::Fuzzer;
use crate::store::JournalRow;
use crate::trace::{Trace, TraceEvent};
use crate::FuzzError;

/// One schedulable unit of campaign work: fuzz mission `index` of `config`.
///
/// The job carries its full identity — the executor derives the mission's
/// seed stream from `(base seed, config, index)` alone, so any executor
/// (in-process, subprocess, remote) produces the same row for the same job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissionJob {
    /// The grid configuration the mission belongs to.
    pub config: SwarmConfig,
    /// Mission index within its configuration.
    pub index: usize,
}

impl MissionJob {
    /// The job identity `(swarm_size, deviation bits, index)` — the same key
    /// [`JournalRow::job_key`] reports, used for resume deduplication.
    pub fn key(&self) -> (usize, u64, usize) {
        (self.config.swarm_size, self.config.deviation.to_bits(), self.index)
    }
}

/// Executes one mission job to completion, absorbing every mission-level
/// failure into the returned row.
///
/// Implementations must be shareable across a worker pool (`Send + Sync`);
/// the scheduler calls [`MissionExecutor::execute`] concurrently from many
/// threads.
pub trait MissionExecutor: Send + Sync {
    /// Fuzzes one job. Never fails: errors (and panics) become
    /// [`JournalRow::Failed`] after the executor's retry budget.
    fn execute(&self, job: &MissionJob) -> JournalRow;
}

/// Execution knobs orthogonal to a campaign's identity — none of these
/// affect journal fingerprints or report contents (the same contract as
/// [`crate::campaign::CampaignRunOptions`], minus journaling, which the
/// scheduler owns). Whether probes fork from snapshots is the fuzzer's own
/// setting ([`Fuzzer::with_snapshots`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutorOptions {
    /// Retries per mission before it is quarantined as a `failed` row.
    pub max_retries: usize,
}

impl Default for ExecutorOptions {
    fn default() -> Self {
        ExecutorOptions { max_retries: 1 }
    }
}

/// The in-process executor: builds a fuzzer per mission from a factory
/// closure and runs it on the calling thread — the backend behind both
/// [`crate::campaign::run_campaign`] worker pools and
/// [`crate::server::CampaignServer`] workers.
pub struct InProcessExecutor<C, F> {
    base_seed: u64,
    make_fuzzer: F,
    trace: Trace,
    options: ExecutorOptions,
    _controller: std::marker::PhantomData<fn() -> C>,
}

impl<C, F> InProcessExecutor<C, F>
where
    C: SwarmController + Clone,
    F: Fn(f64) -> Fuzzer<C>,
{
    /// Builds an executor over `make_fuzzer` for the campaign seeded with
    /// `base_seed`. `trace` instruments every job (scoped per mission).
    pub fn new(base_seed: u64, make_fuzzer: F, trace: Trace, options: ExecutorOptions) -> Self {
        InProcessExecutor {
            base_seed,
            make_fuzzer,
            trace,
            options,
            _controller: std::marker::PhantomData,
        }
    }

    /// One fuzzing attempt (no retry loop): build the fuzzer, skip
    /// baseline-colliding seeds, fuzz the mission.
    fn fuzz_once(
        &self,
        job: &MissionJob,
        mission_trace: &Trace,
    ) -> Result<MissionResult, FuzzError> {
        let config = job.config;
        let fuzzer = (self.make_fuzzer)(config.deviation).with_trace(mission_trace.clone());
        // Deterministic, collision-free per-(config, index) seed stream.
        let start_seed = mission_base_seed(self.base_seed, config, job.index);
        let (seed, report) = with_baseline_skips(config, start_seed, 100, |seed| {
            fuzzer.fuzz(&campaign_mission(config, seed))
        })?;
        Ok(MissionResult {
            config,
            mission_seed: seed,
            vdo: report.mission_vdo,
            success: report.is_success(),
            finding: report.finding,
            evaluations: report.evaluations,
            seeds_tried: report.seeds_tried,
        })
    }
}

/// Renders a panic payload for the [`FuzzError::MissionPanic`] row.
fn panic_payload(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl<C, F> MissionExecutor for InProcessExecutor<C, F>
where
    C: SwarmController + Clone,
    F: Fn(f64) -> Fuzzer<C> + Send + Sync,
{
    /// Runs one mission with bounded retries; an error (or panic) after the
    /// last retry is quarantined as a [`JournalRow::Failed`] instead of
    /// propagating.
    ///
    /// Panics unwind no further than this frame: the simulation, fuzzer and
    /// controller run under `catch_unwind`, and every shared structure a
    /// mission touches (the trace sinks) recovers from lock poisoning, so
    /// the surviving workers keep draining the queue.
    fn execute(&self, job: &MissionJob) -> JournalRow {
        // One scoped handle per mission: every event of this mission is
        // keyed by its grid coordinates plus a fresh sequence counter,
        // independent of which worker (or backend) executes it.
        let mission_trace =
            self.trace.scoped(job.config.swarm_size, job.config.deviation, job.index);
        let mut retries = 0usize;
        loop {
            let attempt = catch_unwind(AssertUnwindSafe(|| self.fuzz_once(job, &mission_trace)))
                .unwrap_or_else(|payload| Err(FuzzError::MissionPanic(panic_payload(payload))));
            match attempt {
                Ok(result) => return JournalRow::Done { index: job.index, result },
                Err(e) if retries < self.options.max_retries => {
                    retries += 1;
                    mission_trace
                        .emit(TraceEvent::MissionRetry { attempt: retries, error: e.to_string() });
                }
                Err(e) => {
                    let error = e.to_string();
                    mission_trace.emit(TraceEvent::MissionFailed { error: error.clone(), retries });
                    return JournalRow::Failed(MissionFailure {
                        config: job.config,
                        index: job.index,
                        error,
                        retries,
                    });
                }
            }
        }
    }
}

/// Drives `f` over consecutive seeds starting at `start_seed`, skipping
/// seeds whose baseline collides (the paper's precondition) until `f`
/// succeeds or `attempts` seeds are exhausted. Returns the accepted seed
/// alongside `f`'s value.
///
/// The seed advance **wraps**: hashed starting points are uniform over
/// `u64`, so a stream beginning near `u64::MAX` must roll over to 0 rather
/// than overflow (a debug-build panic with plain `+ 1`).
///
/// # Errors
///
/// Non-collision errors from `f` propagate;
/// [`FuzzError::BaselineSkipsExhausted`] after `attempts` collisions.
pub(crate) fn with_baseline_skips<T>(
    config: SwarmConfig,
    start_seed: u64,
    attempts: usize,
    mut f: impl FnMut(u64) -> Result<T, FuzzError>,
) -> Result<(u64, T), FuzzError> {
    let mut seed = start_seed;
    for _ in 0..attempts {
        match f(seed) {
            Ok(value) => return Ok((seed, value)),
            Err(FuzzError::BaselineCollision(_)) => seed = seed.wrapping_add(1),
            Err(e) => return Err(e),
        }
    }
    Err(FuzzError::BaselineSkipsExhausted {
        swarm_size: config.swarm_size,
        deviation: config.deviation,
        start_seed,
        attempts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collision() -> FuzzError {
        use swarm_sim::{CollisionEvent, CollisionKind, DroneId};
        FuzzError::BaselineCollision(CollisionEvent {
            time: 1.0,
            kind: CollisionKind::DroneObstacle { drone: DroneId(0), obstacle: 0 },
        })
    }

    #[test]
    fn mission_job_key_matches_journal_row_key() {
        let job = MissionJob { config: SwarmConfig { swarm_size: 7, deviation: 5.5 }, index: 3 };
        assert_eq!(job.key(), (7, 5.5_f64.to_bits(), 3));
    }

    /// Regression: the skip advance was `seed += 1`, which panics in debug
    /// builds when the hashed starting point sits at the top of the `u64`
    /// range; it must wrap to 0 instead.
    #[test]
    fn baseline_skips_wrap_at_u64_max() {
        let config = SwarmConfig { swarm_size: 5, deviation: 10.0 };
        let mut tried = Vec::new();
        let (seed, ()) = with_baseline_skips(config, u64::MAX - 1, 100, |seed| {
            tried.push(seed);
            if tried.len() < 4 {
                Err(collision())
            } else {
                Ok(())
            }
        })
        .expect("skip loop must survive the wraparound");
        assert_eq!(tried, vec![u64::MAX - 1, u64::MAX, 0, 1]);
        assert_eq!(seed, 1);
    }

    /// The exhaustion error carries the configuration and seed context so a
    /// 100-skip pathology in a long campaign is diagnosable from the row.
    #[test]
    fn baseline_skip_exhaustion_reports_context() {
        let config = SwarmConfig { swarm_size: 3, deviation: 5.0 };
        let mut calls = 0usize;
        let err = with_baseline_skips(config, 77, 100, |_| {
            calls += 1;
            Err::<(), _>(collision())
        })
        .unwrap_err();
        assert_eq!(
            err,
            FuzzError::BaselineSkipsExhausted {
                swarm_size: 3,
                deviation: 5.0,
                start_seed: 77,
                attempts: 100,
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("3d-5m"), "config context missing: {msg}");
        assert!(msg.contains("77"), "seed context missing: {msg}");
        assert!(msg.contains("100"), "attempt count missing: {msg}");
        assert_eq!(calls, 100);
    }

    /// Non-collision errors must propagate immediately, not burn attempts.
    #[test]
    fn baseline_skips_propagate_other_errors() {
        let config = SwarmConfig { swarm_size: 5, deviation: 10.0 };
        let mut calls = 0usize;
        let err = with_baseline_skips(config, 0, 100, |_| {
            calls += 1;
            Err::<(), _>(FuzzError::SwarmTooSmall(1))
        })
        .unwrap_err();
        assert_eq!(err, FuzzError::SwarmTooSmall(1));
        assert_eq!(calls, 1);
    }

    #[test]
    fn panic_payloads_render_strings() {
        assert_eq!(panic_payload(Box::new("static str")), "static str");
        assert_eq!(panic_payload(Box::new(String::from("owned"))), "owned");
        assert_eq!(panic_payload(Box::new(42_u32)), "non-string panic payload");
    }
}
