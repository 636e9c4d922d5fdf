//! Generators for the workspace's domain types: vectors, digraphs, mission
//! scenarios, campaign journal rows and scheduler workloads. Property suites compose these instead of
//! hand-rolling sampling loops per file.

use std::ops::RangeInclusive;

use swarm_graph::DiGraph;
use swarm_math::{Vec2, Vec3};
use swarm_sim::mission::MissionSpec;
use swarm_sim::spoof::{SpoofDirection, Waveform, WaveformKind};
use swarm_sim::DroneId;
use swarmfuzz::campaign::{MissionFailure, MissionResult, SwarmConfig};
use swarmfuzz::seed::Seed;
use swarmfuzz::store::JournalRow;
use swarmfuzz::SpvFinding;

use crate::gen::{bool_any, f64_in, one_of, u64_any, usize_in, zip2, zip3, zip4, Gen};

/// A finite `f64` in `±1e6` — the workhorse scalar of the math suite.
pub fn finite_f64() -> Gen<f64> {
    f64_in(-1e6, 1e6)
}

/// A `Vec2` with both components in `±extent`.
pub fn vec2_in(extent: f64) -> Gen<Vec2> {
    zip2(&f64_in(-extent, extent), &f64_in(-extent, extent)).map(|(x, y)| Vec2::new(x, y))
}

/// A `Vec3` with all components in `±extent`.
pub fn vec3_in(extent: f64) -> Gen<Vec3> {
    zip3(&f64_in(-extent, extent), &f64_in(-extent, extent), &f64_in(-extent, extent))
        .map(|(x, y, z)| Vec3::new(x, y, z))
}

/// An `f64` biased toward codec-hostile values: signed zero, infinities,
/// subnormals, `f64::MAX`, plus a uniform tail. NaN is deliberately absent
/// so generated structures stay `PartialEq`-comparable; dedicated unit
/// tests cover NaN round-trips.
pub fn interesting_f64() -> Gen<f64> {
    zip2(&usize_in(0..=9), &f64_in(-1e9, 1e9)).map(|(selector, uniform)| match selector {
        0 => 0.0,
        1 => -0.0,
        2 => 1.0,
        3 => -1.0,
        4 => f64::INFINITY,
        5 => f64::NEG_INFINITY,
        6 => 5e-324,
        7 => f64::MAX,
        _ => uniform,
    })
}

/// A string exercising every JSON escape class the journal codec handles.
pub fn codec_string() -> Gen<String> {
    let fragment = one_of(vec![
        "plain".to_string(),
        "with \"quotes\"".to_string(),
        "back\\slash".to_string(),
        "line\nbreak\ttab".to_string(),
        "control\u{1}char".to_string(),
        "unicode λ→∞".to_string(),
        String::new(),
    ]);
    crate::gen::vec_of(&fragment, 0..=3).map(|parts| parts.join(" "))
}

/// A digraph with `nodes` vertices and up to `max_edges` random edges of
/// weight in `[w_lo, w_hi)`; self-loops are skipped, parallel edges
/// accumulate (the graph crate's semantics).
pub fn digraph(
    nodes: RangeInclusive<usize>,
    max_edges: usize,
    w_lo: f64,
    w_hi: f64,
) -> Gen<DiGraph> {
    let node_count = usize_in(nodes);
    let edge_count = usize_in(0..=max_edges);
    let endpoint = u64_any();
    let weight = f64_in(w_lo, w_hi);
    Gen::from_fn(move |src| {
        let n = node_count.generate(src);
        let mut g = DiGraph::new(n);
        for _ in 0..edge_count.generate(src) {
            let a = (endpoint.generate(src) % n as u64) as usize;
            let b = (endpoint.generate(src) % n as u64) as usize;
            let w = weight.generate(src);
            if a != b {
                g.add_edge(a, b, w).expect("endpoints in range");
            }
        }
        g
    })
}

/// A paper-style delivery mission over the given swarm sizes, with a fully
/// generated layout seed.
pub fn delivery_mission(sizes: RangeInclusive<usize>) -> Gen<MissionSpec> {
    zip2(&usize_in(sizes), &u64_any()).map(|(n, seed)| MissionSpec::paper_delivery(n, seed))
}

/// A spoofing direction (`Right` is the simpler pole).
pub fn spoof_direction() -> Gen<SpoofDirection> {
    one_of(vec![SpoofDirection::Right, SpoofDirection::Left])
}

/// An attack class. The zero choice decodes to `Constant` — the paper's
/// attack and the natural shrink target for every zoo property.
pub fn waveform_kind() -> Gen<WaveformKind> {
    usize_in(0..=WaveformKind::ALL.len() - 1).map(|i| WaveformKind::ALL[i])
}

/// A parameterized waveform. Shrinks toward `Waveform::Constant` (class
/// choice 0) and, within a class, toward a zero shape parameter.
pub fn waveform() -> Gen<Waveform> {
    zip2(&waveform_kind(), &interesting_f64()).map(|(kind, shape)| match kind {
        WaveformKind::Constant => Waveform::Constant,
        WaveformKind::Drift => Waveform::Drift { ramp: shape },
        WaveformKind::Circular => Waveform::Circular { omega: shape },
        WaveformKind::Jump => Waveform::Jump { period: shape },
    })
}

fn swarm_config() -> Gen<SwarmConfig> {
    zip2(&usize_in(1..=100), &interesting_f64())
        .map(|(swarm_size, deviation)| SwarmConfig { swarm_size, deviation })
}

fn spv_finding() -> Gen<SpvFinding> {
    let seed = zip4(
        &usize_in(0..=30),
        &usize_in(0..=30),
        &spoof_direction(),
        &zip2(&interesting_f64(), &interesting_f64()),
    )
    .map(|(target, victim, direction, (influence, victim_vdo))| Seed {
        target: DroneId(target),
        victim: DroneId(victim),
        direction,
        influence,
        victim_vdo,
        waveform: WaveformKind::Constant,
    });
    zip4(
        &seed,
        &zip3(&interesting_f64(), &interesting_f64(), &interesting_f64()),
        &zip2(&usize_in(0..=30), &interesting_f64()),
        &waveform(),
    )
    .map(|(seed, (start, duration, deviation), (victim, collision_time), waveform)| {
        SpvFinding {
            // A finding's seed class always agrees with its waveform — the
            // fuzzer constructs them in lockstep.
            seed: Seed { waveform: waveform.kind(), ..seed },
            start,
            duration,
            deviation,
            actual_victim: DroneId(victim),
            collision_time,
            waveform,
        }
    })
}

/// An arbitrary campaign journal row (both variants, hostile floats and
/// strings included) — the metamorphic round-trip oracle's input.
pub fn journal_row() -> Gen<JournalRow> {
    let done = zip4(
        &swarm_config(),
        &zip2(&u64_any(), &interesting_f64()),
        &zip2(&bool_any(), &spv_finding()),
        &zip3(&usize_in(0..=10_000), &usize_in(0..=50), &usize_in(0..=1000)),
    )
    .map(
        |(config, (mission_seed, vdo), (has_finding, finding), (evaluations, seeds, index))| {
            JournalRow::Done {
                index,
                result: MissionResult {
                    config,
                    mission_seed,
                    vdo,
                    success: has_finding,
                    finding: has_finding.then_some(finding),
                    evaluations,
                    seeds_tried: seeds,
                },
            }
        },
    );
    let failed = zip4(&swarm_config(), &usize_in(0..=10_000), &codec_string(), &usize_in(0..=9))
        .map(|(config, index, error, retries)| {
            JournalRow::Failed(MissionFailure { config, index, error, retries })
        });
    bool_any().flat_map(move |is_done| if is_done { done.clone() } else { failed.clone() })
}

/// One tenant of a generated scheduler workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// Tenant id (`t0`, `t1`, …).
    pub id: String,
    /// Fair-share weight (≥ 1).
    pub weight: u64,
}

/// One campaign submission of a generated scheduler workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmissionSpec {
    /// Index into the workload's tenant list.
    pub tenant: usize,
    /// Missions the campaign carries (≥ 1).
    pub missions: usize,
}

/// A multi-tenant scheduler workload: tenant mix, interleaved submission
/// plan, and a bounded queue depth (small enough that generated plans can
/// exercise back-pressure rejections).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerWorkload {
    /// Registered tenants in registration order.
    pub tenants: Vec<TenantSpec>,
    /// Submissions in arrival order; every tenant index is in range.
    pub submissions: Vec<SubmissionSpec>,
    /// Admission bound for the fair queue.
    pub queue_depth: usize,
}

/// A scheduler workload with up to `max_submissions` campaign submissions
/// across 1–5 tenants with weights 1–4. Shrinks toward a single tenant of
/// weight 1 with a single one-mission submission — the FIFO base case.
pub fn scheduler_workload(max_submissions: usize) -> Gen<SchedulerWorkload> {
    assert!(max_submissions >= 1, "a workload needs at least one submission");
    usize_in(1..=5).flat_map(move |tenant_count| {
        let weights = crate::gen::vec_of(&usize_in(1..=4), tenant_count..=tenant_count);
        let submissions = crate::gen::vec_of(
            &zip2(&usize_in(0..=tenant_count - 1), &usize_in(1..=6)),
            1..=max_submissions,
        );
        let depth = usize_in(1..=max_submissions);
        zip3(&weights, &submissions, &depth).map(|(weights, subs, queue_depth)| SchedulerWorkload {
            tenants: weights
                .into_iter()
                .enumerate()
                .map(|(i, w)| TenantSpec { id: format!("t{i}"), weight: w as u64 })
                .collect(),
            submissions: subs
                .into_iter()
                .map(|(tenant, missions)| SubmissionSpec { tenant, missions })
                .collect(),
            queue_depth,
        })
    })
}

/// Sorted crash points partitioning `n` journal rows into consecutive
/// shards — the kill schedule of a campaign that survives up to three
/// server incarnations. Shrinks toward no cuts (an uninterrupted run).
pub fn shard_cuts(n: usize) -> Gen<Vec<usize>> {
    crate::gen::vec_of(&usize_in(0..=n), 0..=3).map(|mut cuts| {
        cuts.sort_unstable();
        cuts
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Source;

    fn sample<T: 'static>(gen: &Gen<T>, seed: u64, n: usize) -> Vec<T> {
        let mut src = Source::fresh(seed);
        (0..n).map(|_| gen.generate(&mut src)).collect()
    }

    #[test]
    fn digraphs_have_no_self_loops_and_positive_weights() {
        for g in sample(&digraph(2..=11, 39, 0.05, 2.0), 1, 50) {
            for e in g.edges() {
                assert_ne!(e.from, e.to);
                assert!(e.weight > 0.0);
            }
            assert!((2..=11).contains(&g.node_count()));
        }
    }

    #[test]
    fn missions_validate() {
        for spec in sample(&delivery_mission(2..=6), 3, 20) {
            assert!(spec.validate().is_ok(), "generated mission must be valid");
        }
    }

    #[test]
    fn journal_rows_cover_both_variants() {
        let rows = sample(&journal_row(), 4, 200);
        assert!(rows.iter().any(|r| matches!(r, JournalRow::Done { .. })));
        assert!(rows.iter().any(|r| matches!(r, JournalRow::Failed(_))));
    }

    #[test]
    fn spv_findings_keep_seed_class_and_waveform_in_lockstep() {
        for f in sample(&spv_finding(), 8, 200) {
            assert_eq!(f.seed.waveform, f.waveform.kind());
        }
    }

    #[test]
    fn scheduler_workloads_are_well_formed() {
        for w in sample(&scheduler_workload(20), 9, 100) {
            assert!((1..=5).contains(&w.tenants.len()));
            assert!(!w.submissions.is_empty() && w.submissions.len() <= 20);
            assert!((1..=20).contains(&w.queue_depth));
            for (i, t) in w.tenants.iter().enumerate() {
                assert_eq!(t.id, format!("t{i}"));
                assert!((1..=4).contains(&t.weight));
            }
            for s in &w.submissions {
                assert!(s.tenant < w.tenants.len(), "tenant index in range");
                assert!((1..=6).contains(&s.missions));
            }
        }
    }

    #[test]
    fn scheduler_workload_shrink_target_is_single_tenant_fifo() {
        let mut src = Source::replay(Vec::new());
        let w = scheduler_workload(20).generate(&mut src);
        assert_eq!(w.tenants.len(), 1);
        assert_eq!(w.tenants[0].weight, 1);
        assert_eq!(w.submissions.len(), 1);
        assert_eq!(w.queue_depth, 1);
    }

    #[test]
    fn shard_cuts_are_sorted_and_bounded() {
        for cuts in sample(&shard_cuts(17), 10, 100) {
            assert!(cuts.len() <= 3);
            assert!(cuts.windows(2).all(|w| w[0] <= w[1]));
            assert!(cuts.iter().all(|&c| c <= 17));
        }
        let mut src = Source::replay(Vec::new());
        assert!(shard_cuts(9).generate(&mut src).is_empty());
    }

    #[test]
    fn interesting_floats_hit_the_edge_pool() {
        let values = sample(&interesting_f64(), 5, 400);
        assert!(values.iter().any(|v| v.is_infinite()));
        assert!(values.iter().any(|&v| v == 0.0 && v.is_sign_negative()));
        assert!(values.iter().all(|v| !v.is_nan()));
    }
}
