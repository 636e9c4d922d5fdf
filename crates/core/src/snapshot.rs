//! Baseline snapshot ring for fork-from-prefix fuzzing.
//!
//! Every candidate window `(t_s, Δt)` the window search probes used to
//! re-simulate the identical no-attack prefix `[0, t_s)` from scratch — the
//! single largest source of wasted work in a campaign. Since an attack only
//! enters the mission loop through GPS offsets sampled inside its half-open
//! window, the prefix of an attacked mission is *bit-identical* to the
//! baseline's. [`MissionCache`] therefore stores one baseline
//! [`MissionRecord`] plus a [`SimSnapshot`] ring over its trajectory, and
//! every probe forks from the newest snapshot admitting its start time
//! ([`SimSnapshot::admits_attack_start`]) instead of re-simulating.
//!
//! [`crate::Fuzzer::fuzz`] builds one per mission and drops it when the
//! mission's search returns: no other mission could fork from it, because
//! every campaign mission has its own seed.

use swarm_sim::dynamics::PointMass;
use swarm_sim::recorder::MissionRecord;
use swarm_sim::SimSnapshot;

/// Ring size that triggers thinning: when the ring outgrows this, every
/// other snapshot is dropped and the capture stride doubles.
const RING_CAPACITY: usize = 256;

/// One mission's fork sources: the collision-free baseline record and a ring
/// of snapshots along its trajectory (ascending capture step).
#[derive(Debug, Clone)]
pub struct MissionCache {
    baseline: MissionRecord,
    ring: Vec<SimSnapshot<PointMass>>,
    stride: usize,
}

impl MissionCache {
    /// Bundles a baseline record with a finalized [`SnapshotRing`],
    /// preserving the ring's self-tuned capture stride so trace consumers
    /// can report it.
    pub fn from_ring(baseline: MissionRecord, ring: SnapshotRing) -> Self {
        let stride = ring.stride();
        MissionCache { baseline, ring: ring.into_snapshots(), stride }
    }

    /// Capture stride of the ring in physics steps.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The no-attack baseline record (the `source` for
    /// [`swarm_sim::Simulation::prefix_record`]).
    pub fn baseline(&self) -> &MissionRecord {
        &self.baseline
    }

    /// Number of snapshots in the ring.
    pub fn ring_len(&self) -> usize {
        self.ring.len()
    }

    /// The newest snapshot from which an attack window opening at `start`
    /// can be forked bit-identically. Snapshots at step 0 are skipped — a
    /// fork from the initial state saves nothing over a fresh run, so the
    /// caller should treat that case as a miss and simulate from scratch.
    pub fn newest_admitting(&self, start: f64) -> Option<&SimSnapshot<PointMass>> {
        self.ring
            .iter()
            .rev()
            .find(|s| !s.is_terminal() && s.next_step() > 0 && s.admits_attack_start(start))
    }
}

/// Bounded, stride-doubling collector for the baseline's snapshot ring.
///
/// Starts capturing every `stride` physics steps (one GPS period). When the
/// ring exceeds `RING_CAPACITY`, every other snapshot is dropped and the
/// stride doubles, so arbitrarily long missions converge to ≤ `2 ×
/// RING_CAPACITY` retained snapshots at a self-tuning cadence while the
/// kept capture steps stay exact multiples of the current stride.
#[derive(Debug)]
pub struct SnapshotRing {
    stride: usize,
    snaps: Vec<SimSnapshot<PointMass>>,
}

impl SnapshotRing {
    /// A collector capturing every `stride` physics steps (at least 1).
    pub fn new(stride: usize) -> Self {
        SnapshotRing { stride: stride.max(1), snaps: Vec::new() }
    }

    /// `true` when the ring wants a snapshot of `step` — the cheap per-step
    /// predicate handed to
    /// [`swarm_sim::Simulation::run_observed_with_snapshots`], so cloning
    /// only happens for steps that are kept.
    pub fn wants(&self, step: usize) -> bool {
        step.is_multiple_of(self.stride)
    }

    /// Accepts a captured snapshot, thinning the ring when it outgrows
    /// `RING_CAPACITY`.
    pub fn push(&mut self, snap: SimSnapshot<PointMass>) {
        if !self.wants(snap.next_step()) {
            return;
        }
        self.snaps.push(snap);
        if self.snaps.len() > RING_CAPACITY {
            let mut index = 0usize;
            self.snaps.retain(|_| {
                let keep = index.is_multiple_of(2);
                index += 1;
                keep
            });
            self.stride *= 2;
        }
    }

    /// The current capture stride in physics steps.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Finalizes into the retained snapshots, ascending by capture step.
    pub fn into_snapshots(self) -> Vec<SimSnapshot<PointMass>> {
        self.snaps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_thins_and_doubles_stride() {
        // Feed snapshots for every step of a long "mission" through the
        // wants/push protocol and check the bound holds.
        use swarm_sim::mission::MissionSpec;
        use swarm_sim::{ControlContext, Simulation, SwarmController};
        struct Hover;
        impl SwarmController for Hover {
            fn desired_velocity(&self, _ctx: &ControlContext<'_>) -> swarm_math::Vec3 {
                swarm_math::Vec3::ZERO
            }
        }
        let mut spec = MissionSpec::paper_delivery(1, 1);
        spec.duration = 40.0; // 4000 steps at dt = 0.01
        let sim = Simulation::new(spec.clone(), Hover).unwrap();
        let ring = std::cell::RefCell::new(SnapshotRing::new(spec.steps_per_gps()));
        sim.run_observed_with_snapshots(
            None,
            None,
            |step| ring.borrow().wants(step),
            |snap| ring.borrow_mut().push(snap),
        )
        .unwrap();
        let ring = ring.into_inner();
        assert!(ring.stride() > 1, "4000 offers at stride 1 must trigger thinning");
        let snaps = ring.into_snapshots();
        assert!(snaps.len() <= RING_CAPACITY);
        assert!(snaps.len() > RING_CAPACITY / 2);
        // Ascending, stride-aligned capture steps.
        for pair in snaps.windows(2) {
            assert!(pair[0].next_step() < pair[1].next_step());
        }
    }
}
