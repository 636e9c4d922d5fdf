//! Differential proof that the spatial-grid fast path is the brute-force
//! slow path.
//!
//! The large-swarm pipeline (grid-backed comms delivery, grid collision
//! broad phase) is only admissible because it produces *bit-identical*
//! results to the O(n²) scans it replaces. This suite pins that claim at
//! three levels: raw `SpatialGrid` queries vs brute-force pair sets over
//! randomized geometry (including the degenerate corners), the metrics
//! helpers' grid variants, and full missions with the pipeline forced on vs
//! forced off. An N=200 mission's per-tick average inter-drone distances,
//! which the recorder derives only when read, are pinned to a digest under
//! both policies.
//!
//! Style note: these are hand-rolled seeded property tests (fixed-seed
//! `StdRng` + case loop), matching the repo's other property suites — the
//! container has no proptest/quickcheck dependency.

use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use swarm_control::{VasarhelyiController, VasarhelyiParams};
use swarm_math::Vec3;
use swarm_sim::mission::MissionSpec;
use swarm_sim::spatial::SpatialGrid;
use swarm_sim::spoof::{SpoofDirection, SpoofingAttack};
use swarm_sim::{
    metrics, scenario, DroneId, MissionOutcome, RunStats, SimConfig, SimObserver, Simulation,
    SpatialPolicy,
};

const CASES: usize = 128;

fn rng() -> StdRng {
    StdRng::seed_from_u64(0x4752_4944) // "GRID"
}

/// Random cloud with adversarial structure: some drones coincident, some
/// exactly on cell boundaries.
fn random_positions(rng: &mut StdRng, cell: f64) -> Vec<Vec3> {
    let n = rng.gen_range(1usize..40);
    let mut positions: Vec<Vec3> = (0..n)
        .map(|_| {
            Vec3::new(
                rng.gen_range(-80.0..80.0),
                rng.gen_range(-80.0..80.0),
                rng.gen_range(0.0..20.0),
            )
        })
        .collect();
    // Coincident drones: duplicate a random prefix.
    if n > 2 && rng.gen_bool(0.5) {
        let dup = rng.gen_range(0..n / 2);
        let src = rng.gen_range(0..n);
        positions[dup] = positions[src];
    }
    // Points exactly on cell boundaries (multiples of the cell size).
    if n > 1 && rng.gen_bool(0.5) {
        let k = rng.gen_range(0..n);
        positions[k] = Vec3::new(
            (rng.gen_range(-5i32..5) as f64) * cell,
            (rng.gen_range(-5i32..5) as f64) * cell,
            10.0,
        );
    }
    positions
}

fn brute_within(positions: &[Vec3], center: Vec3, radius: f64) -> Vec<usize> {
    positions
        .iter()
        .enumerate()
        .filter(|(_, p)| p.horizontal_distance(center) <= radius)
        .map(|(i, _)| i)
        .collect()
}

#[test]
fn within_matches_brute_force_on_random_geometry() {
    let mut rng = rng();
    for case in 0..CASES {
        let cell = rng.gen_range(0.1..25.0);
        let positions = random_positions(&mut rng, cell);
        let grid = SpatialGrid::build(&positions, cell);
        // Radii include 0 and values straddling cell multiples.
        let radius = match case % 4 {
            0 => 0.0,
            1 => cell * rng.gen_range(0.0..4.0),
            2 => rng.gen_range(0.0..200.0),
            _ => rng.gen_range(0.0..5.0),
        };
        let center = if rng.gen_bool(0.3) {
            positions[rng.gen_range(0..positions.len())]
        } else {
            Vec3::new(rng.gen_range(-90.0..90.0), rng.gen_range(-90.0..90.0), 10.0)
        };
        let expected = brute_within(&positions, center, radius);

        let mut lazy: Vec<usize> = grid.within(center, radius).map(|(id, _)| id.index()).collect();
        lazy.sort_unstable();
        assert_eq!(lazy, expected, "within diverged (case {case}, cell {cell}, radius {radius})");

        let mut buf = Vec::new();
        grid.within_into(center, radius, &mut buf);
        let ids: Vec<usize> = buf.iter().map(|&(id, _)| id.index()).collect();
        assert_eq!(ids, expected, "within_into diverged or unsorted (case {case})");
    }
}

#[test]
fn close_pairs_matches_brute_force_on_random_geometry() {
    let mut rng = rng();
    for case in 0..CASES {
        let cell = rng.gen_range(0.1..15.0);
        let positions = random_positions(&mut rng, cell);
        let grid = SpatialGrid::build(&positions, cell);
        let radius = match case % 3 {
            0 => 0.0,
            1 => cell * rng.gen_range(0.5..2.5),
            _ => rng.gen_range(0.0..40.0),
        };
        let mut pairs = Vec::new();
        grid.close_pairs(radius, &mut pairs);
        let mut expected = Vec::new();
        for i in 0..positions.len() {
            for j in (i + 1)..positions.len() {
                if positions[i].horizontal_distance(positions[j]) <= radius {
                    expected.push((DroneId(i), DroneId(j)));
                }
            }
        }
        assert_eq!(
            pairs, expected,
            "close_pairs must equal the lex-ordered brute pair set (case {case}, radius {radius})"
        );
    }
}

#[test]
fn metric_grid_variants_match_brute_force_bitwise() {
    let mut rng = rng();
    for case in 0..CASES {
        let cell = rng.gen_range(0.5..20.0);
        let positions = random_positions(&mut rng, cell);
        let grid = SpatialGrid::build(&positions, cell);
        assert_eq!(
            metrics::min_inter_distance_grid(&positions, &grid),
            metrics::min_inter_distance(&positions),
            "min_inter_distance diverged (case {case})"
        );
        assert_eq!(
            metrics::swarm_extent_grid(&positions, &grid),
            metrics::swarm_extent(&positions),
            "swarm_extent diverged (case {case})"
        );
    }
}

fn controller() -> VasarhelyiController {
    VasarhelyiController::new(VasarhelyiParams::default())
}

/// Captures the stats of the one run it observes.
#[derive(Default)]
struct LastRun(Mutex<Option<RunStats>>);

impl SimObserver for LastRun {
    fn on_run_end(&self, stats: &RunStats) {
        *self.0.lock().unwrap() = Some(*stats);
    }
}

/// Flies `spec` under `policy` and `attack`, with the run's stats.
fn fly(
    spec: &MissionSpec,
    policy: SpatialPolicy,
    attack: Option<&SpoofingAttack>,
) -> (MissionOutcome, RunStats) {
    let observer = LastRun::default();
    let out = Simulation::new(spec.clone(), controller())
        .unwrap()
        .with_config(SimConfig { spatial: policy })
        .run_observed(attack, Some(&observer))
        .unwrap();
    let stats = observer.0.lock().unwrap().expect("observer called");
    (out, stats)
}

#[test]
fn n40_mission_with_range_is_bit_identical_grid_on_vs_off() {
    // The tentpole acceptance test: a full flocking mission at N = 40 with a
    // radio range — grid forced on vs forced off must produce bit-identical
    // outcomes.
    let mut spec = scenario::large_swarm(40, 17);
    spec.duration = 12.0;
    let on = fly(&spec, SpatialPolicy::ForceOn, None).0;
    let off = fly(&spec, SpatialPolicy::ForceOff, None).0;
    assert_eq!(on.record, off.record, "grid pipeline diverged from brute force at N=40");
    // And Auto (40 >= threshold) must take the grid path, i.e. match both.
    let auto = fly(&spec, SpatialPolicy::Auto, None).0;
    assert_eq!(auto.record, on.record);
}

#[test]
fn lossy_delayed_mission_is_bit_identical_grid_on_vs_off() {
    // Drop probability makes delivery consume RNG draws per candidate
    // receiver: any ordering difference between the paths would desynchronize
    // the comms RNG stream and show up here. Delay exercises the in-flight
    // queue, the small range keeps many receivers out of range.
    let mut spec = scenario::large_swarm(36, 5);
    spec.duration = 10.0;
    spec.comms.range = Some(18.0);
    spec.comms.drop_probability = 0.25;
    spec.comms.delay_ticks = 2;
    let on = fly(&spec, SpatialPolicy::ForceOn, None).0;
    let off = fly(&spec, SpatialPolicy::ForceOff, None).0;
    assert_eq!(on.record, off.record, "lossy/delayed comms diverged between grid and brute");
}

#[test]
fn small_swarm_mission_is_bit_identical_grid_on_vs_off() {
    // The paper's swarm sizes sit below the comms threshold, but `Auto`
    // still runs the lazy collision broad phase there: every policy must fly
    // them exactly as the per-step pair scan of `ForceOff` does — with and
    // without a radio range, under attack, and through a collision (seed 2's
    // ten drones crash unattacked at 35.27 s, inside the 40 s flown here).
    for n in [5, 10, 15] {
        let mut spec = MissionSpec::paper_delivery(n, 2);
        spec.duration = 40.0;
        let mut ranged = spec.clone();
        ranged.comms.range = Some(25.0);
        let attack =
            SpoofingAttack::new(DroneId(0), SpoofDirection::Left, 5.0, 10.0, 10.0).unwrap();
        for (spec, attack) in [(&spec, None), (&spec, Some(&attack)), (&ranged, None)] {
            let (off, off_stats) = fly(spec, SpatialPolicy::ForceOff, attack);
            assert_eq!(off_stats.grid_rebuilds, 0, "ForceOff never indexes");
            for policy in [SpatialPolicy::Auto, SpatialPolicy::ForceOn] {
                let (out, stats) = fly(spec, policy, attack);
                assert_eq!(out.record, off.record, "{policy:?} diverged from ForceOff at n = {n}");
                assert!(stats.grid_rebuilds > 0, "{policy:?} at n = {n} never ran the broad phase");
            }
        }
        if n == 10 {
            let (crashed, _) = fly(&spec, SpatialPolicy::Auto, None);
            let first = crashed.first_collision().expect("seed 2's ten drones collide");
            assert!((first.time - 35.27).abs() < 1e-6, "collision at {}", first.time);
        }
    }
}

#[test]
fn rangeless_mission_is_unaffected_by_the_policy() {
    // Without a radio range the comms grid is never used (delivery is
    // all-to-all); only the collision broad phase differs, and it too must
    // be invisible in the outcome.
    let mut spec = MissionSpec::paper_delivery(8, 13);
    spec.duration = 20.0;
    let on = fly(&spec, SpatialPolicy::ForceOn, None).0;
    let off = fly(&spec, SpatialPolicy::ForceOff, None).0;
    assert_eq!(on.record, off.record);
}

/// FNV-1a over the bits of a record's per-tick average inter-drone distance
/// and its closest approach (tick and time).
fn mean_digest(record: &swarm_sim::recorder::MissionRecord) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut word = |w: u64| {
        for byte in w.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for &a in record.avg_inter_distances() {
        word(a.to_bits());
    }
    let (tick, t_clo) = record.closest_approach().expect("non-empty record");
    word(tick as u64);
    word(t_clo.to_bits());
    h
}

#[test]
fn n200_inter_drone_means_are_pinned_grid_on_and_off() {
    // The recorder derives the per-tick mean from the stored positions when
    // it is first read. This digest was taken while every sample computed
    // the mean as it was recorded, so a change to either the positions or
    // the derivation shows up here.
    const PINNED: u64 = 0x6aab_599a_41b5_a12a;
    let mut spec = scenario::large_swarm(200, 7);
    spec.duration = 10.0;
    for policy in [SpatialPolicy::ForceOn, SpatialPolicy::ForceOff] {
        let record = fly(&spec, policy, None).0.record;
        assert_eq!(record.len(), 101, "{policy:?}");
        assert_eq!(mean_digest(&record), PINNED, "{policy:?}: {:016x}", mean_digest(&record));
    }
}
