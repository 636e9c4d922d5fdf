//! Seed scheduling (paper §IV-B, "Seed Scheduling").
//!
//! SwarmFuzz orders the discrete seeds `<T-V, θ>` by how promising they are:
//!
//! 1. victims are sorted by ascending VDO (a drone that already passes close
//!    to the obstacle takes the least attack effort to crash);
//! 2. for each victim `v` and direction θ, the target is
//!    `T = argmax_j I(θ)_jv`, the pair with the highest summative influence
//!    computed from the SVG's PageRank scores;
//! 3. for the same victim, the direction with the higher influence is tried
//!    first.
//!
//! The random scheduler (used by R_Fuzz and G_Fuzz in the ablation) shuffles
//! all `(T, V, θ)` combinations uniformly.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use swarm_sim::mission::MissionSpec;
use swarm_sim::recorder::MissionRecord;
use swarm_sim::spoof::{SpoofDirection, WaveformKind, WaveformSet};
use swarm_sim::{DroneId, SwarmController};

use crate::seed::Seed;
use crate::svg::{CentralityKind, SvgBuilder};
use crate::trace::{Trace, TraceEvent};
use crate::FuzzError;

/// Builds the SVG-guided seedpool for a recorded mission.
///
/// # Errors
///
/// * [`FuzzError::SwarmTooSmall`] for swarms of fewer than two drones;
/// * [`FuzzError::NoObstacle`] when the mission has no obstacle.
pub fn svg_schedule<C: SwarmController>(
    controller: &C,
    spec: &MissionSpec,
    record: &MissionRecord,
    deviation: f64,
) -> Result<Vec<Seed>, FuzzError> {
    svg_schedule_instrumented(
        controller,
        spec,
        record,
        deviation,
        CentralityKind::PageRank,
        &Trace::off(),
    )
}

/// [`svg_schedule`] with an explicit centrality measure (the
/// centrality-ablation experiment) and a trace handle threaded into the SVG
/// builder, timing graph construction and centrality scoring. The trace is
/// purely observational: the returned seedpool is identical without it.
///
/// # Errors
///
/// Same conditions as [`svg_schedule`].
pub fn svg_schedule_instrumented<C: SwarmController>(
    controller: &C,
    spec: &MissionSpec,
    record: &MissionRecord,
    deviation: f64,
    centrality: CentralityKind,
    trace: &Trace,
) -> Result<Vec<Seed>, FuzzError> {
    let n = record.swarm_size();
    if n < 2 {
        return Err(FuzzError::SwarmTooSmall(n));
    }
    let builder = SvgBuilder::new(controller, spec, record, deviation).with_trace(trace.clone());
    let analyses = [
        builder.build_with_centrality(SpoofDirection::Right, centrality)?,
        builder.build_with_centrality(SpoofDirection::Left, centrality)?,
    ];

    let mut seeds: Vec<Seed> = Vec::with_capacity(n * 2);
    for (victim, vdo) in record.drones_by_vdo() {
        for analysis in &analyses {
            // T = argmax_j I(θ)_jv over all candidate targets j != v.
            let best = (0..n)
                .filter(|&j| j != victim.index())
                .map(|j| (j, analysis.pair_influence(DroneId(j), victim)))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
            if let Some((target, influence)) = best {
                seeds.push(Seed {
                    target: DroneId(target),
                    victim,
                    direction: analysis.direction,
                    influence,
                    victim_vdo: vdo,
                    waveform: WaveformKind::Constant,
                });
            }
        }
    }

    // Order: victims stay in ascending-VDO order; within a victim, higher
    // influence first. (Sorting is stable, and seeds were generated
    // VDO-ascending.)
    seeds.sort_by(|a, b| {
        a.victim_vdo
            .partial_cmp(&b.victim_vdo)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(b.influence.partial_cmp(&a.influence).unwrap_or(std::cmp::Ordering::Equal))
    });
    Ok(seeds)
}

/// Builds a uniformly shuffled seedpool over every `(T, V, θ)` combination —
/// the ablation baseline that ignores both the SVG and the VDO ordering.
///
/// # Errors
///
/// Returns [`FuzzError::SwarmTooSmall`] for swarms of fewer than two drones.
pub fn random_schedule(record: &MissionRecord, rng: &mut StdRng) -> Result<Vec<Seed>, FuzzError> {
    let n = record.swarm_size();
    if n < 2 {
        return Err(FuzzError::SwarmTooSmall(n));
    }
    let mut seeds = Vec::with_capacity(n * (n - 1) * 2);
    for target in 0..n {
        for victim in 0..n {
            if target == victim {
                continue;
            }
            for direction in SpoofDirection::BOTH {
                seeds.push(Seed {
                    target: DroneId(target),
                    victim: DroneId(victim),
                    direction,
                    influence: 0.0,
                    victim_vdo: record.vdo(DroneId(victim)).unwrap_or(f64::INFINITY),
                    waveform: WaveformKind::Constant,
                });
            }
        }
    }
    seeds.shuffle(rng);
    Ok(seeds)
}

/// Emits one [`TraceEvent::SeedRanked`] per seed, in schedule order, so a
/// trace records *why* the scheduler ranked each `<T-V, θ>` pair where it
/// did (ascending victim VDO, descending SVG influence — or shuffle order
/// with influence 0 for the random scheduler).
pub fn trace_schedule(pool: &[Seed], trace: &Trace) {
    if !trace.is_enabled() {
        return;
    }
    for (rank, seed) in pool.iter().enumerate() {
        trace.emit(TraceEvent::SeedRanked {
            rank,
            target: seed.target.index(),
            victim: seed.victim.index(),
            theta: seed.direction.theta(),
            influence: seed.influence,
            victim_vdo: seed.victim_vdo,
        });
    }
}

/// Expands a ranked pool of `<T-V, θ>` seeds into `(T, V, θ, waveform)`
/// tuples: each seed is replayed once per enabled attack class, in canonical
/// class order, preserving the pool's ranking between pairs. With the
/// default constant-only set this is the identity — the pre-zoo pool comes
/// back unchanged, which keeps the legacy fuzzing schedule bit-identical.
pub fn expand_waveforms(pool: Vec<Seed>, waveforms: WaveformSet) -> Vec<Seed> {
    if waveforms == WaveformSet::CONSTANT_ONLY {
        return pool;
    }
    pool.into_iter()
        .flat_map(|seed| waveforms.iter().map(move |kind| seed.with_waveform(kind)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use swarm_math::{Vec2, Vec3};
    use swarm_sim::world::{Obstacle, World};
    use swarm_sim::ControlContext;

    /// Centroid-seeking controller (same as in svg tests): predictable
    /// influence structure.
    struct Centroid;

    impl SwarmController for Centroid {
        fn desired_velocity(&self, ctx: &ControlContext<'_>) -> Vec3 {
            if ctx.neighbors.is_empty() {
                return Vec3::ZERO;
            }
            let c =
                ctx.neighbors.iter().map(|n| n.position).sum::<Vec3>() / ctx.neighbors.len() as f64;
            (c - ctx.self_state.position) * 0.1
        }
    }

    fn spec(n: usize) -> MissionSpec {
        let mut spec = MissionSpec::paper_delivery(n, 3);
        spec.world = World::with_obstacles(vec![Obstacle::Cylinder {
            center: Vec2::new(0.0, -40.0),
            radius: 4.0,
        }]);
        spec
    }

    /// A record where drone 0 passes closest to the obstacle (VDO 2), drone 1
    /// next (VDO 5), drone 2 farthest (VDO 9).
    fn record() -> MissionRecord {
        let mut r = MissionRecord::new(3, 0.1);
        let pos =
            [Vec3::new(0.0, 0.0, 10.0), Vec3::new(10.0, 0.0, 10.0), Vec3::new(20.0, 0.0, 10.0)];
        let vel = [Vec3::X; 3];
        r.push_sample(0.0, &pos, &vel, &[2.0, 5.0, 9.0]);
        r.push_sample(0.1, &pos, &vel, &[3.0, 6.0, 10.0]);
        r
    }

    #[test]
    fn svg_schedule_orders_victims_by_vdo() {
        let spec = spec(3);
        let pool = svg_schedule(&Centroid, &spec, &record(), 10.0).unwrap();
        // 3 victims x 2 directions.
        assert_eq!(pool.len(), 6);
        let victims: Vec<usize> = pool.iter().map(|s| s.victim.index()).collect();
        assert_eq!(victims, vec![0, 0, 1, 1, 2, 2], "victims must come in ascending VDO");
        let vdos: Vec<f64> = pool.iter().map(|s| s.victim_vdo).collect();
        assert!(vdos.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn svg_schedule_never_pairs_drone_with_itself() {
        let spec = spec(3);
        let pool = svg_schedule(&Centroid, &spec, &record(), 10.0).unwrap();
        assert!(pool.iter().all(|s| s.target != s.victim));
    }

    #[test]
    fn svg_schedule_orders_directions_by_influence() {
        let spec = spec(3);
        let pool = svg_schedule(&Centroid, &spec, &record(), 10.0).unwrap();
        for pair in pool.chunks(2) {
            assert!(pair[0].influence >= pair[1].influence);
        }
    }

    #[test]
    fn svg_schedule_rejects_single_drone() {
        let spec = spec(1);
        let mut r = MissionRecord::new(1, 0.1);
        r.push_sample(0.0, &[Vec3::ZERO], &[Vec3::ZERO], &[1.0]);
        assert!(matches!(
            svg_schedule(&Centroid, &spec, &r, 10.0),
            Err(FuzzError::SwarmTooSmall(1))
        ));
    }

    #[test]
    fn random_schedule_covers_all_combinations() {
        let mut rng = StdRng::seed_from_u64(1);
        let pool = random_schedule(&record(), &mut rng).unwrap();
        // 3 * 2 targets/victims * 2 directions = 12.
        assert_eq!(pool.len(), 12);
        let mut combos: Vec<(usize, usize, i8)> = pool
            .iter()
            .map(|s| (s.target.index(), s.victim.index(), s.direction.theta()))
            .collect();
        combos.sort_unstable();
        combos.dedup();
        assert_eq!(combos.len(), 12, "no duplicates");
        assert!(pool.iter().all(|s| s.target != s.victim));
    }

    #[test]
    fn expand_waveforms_is_identity_for_constant_only() {
        let spec = spec(3);
        let pool = svg_schedule(&Centroid, &spec, &record(), 10.0).unwrap();
        let expanded = expand_waveforms(pool.clone(), WaveformSet::CONSTANT_ONLY);
        assert_eq!(pool, expanded);
    }

    #[test]
    fn expand_waveforms_interleaves_classes_in_rank_order() {
        let spec = spec(3);
        let pool = svg_schedule(&Centroid, &spec, &record(), 10.0).unwrap();
        let base = pool.len();
        let expanded = expand_waveforms(pool, WaveformSet::all());
        assert_eq!(expanded.len(), base * 4);
        for (i, s) in expanded.iter().enumerate() {
            assert_eq!(s.waveform, WaveformKind::ALL[i % 4], "classes cycle within each pair");
        }
        // Pair ranking is preserved: dropping the waveform column and
        // deduplicating consecutive runs gives back the original order.
        let mut collapsed: Vec<(usize, usize, i8)> = Vec::new();
        for s in expanded.iter() {
            let key = (s.target.index(), s.victim.index(), s.direction.theta());
            if collapsed.last() != Some(&key) {
                collapsed.push(key);
            }
        }
        assert_eq!(collapsed.len(), base);
    }

    #[test]
    fn random_schedule_is_seed_deterministic() {
        let a = random_schedule(&record(), &mut StdRng::seed_from_u64(9)).unwrap();
        let b = random_schedule(&record(), &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(a, b);
        let c = random_schedule(&record(), &mut StdRng::seed_from_u64(10)).unwrap();
        assert_ne!(a, c, "different rng seeds should shuffle differently");
    }
}
