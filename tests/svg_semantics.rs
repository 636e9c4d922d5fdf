//! SVG edge-creation semantics on the real Vásárhelyi controller, mirroring
//! Fig. 4 of the paper: edges appear exactly when a spoofed displacement of
//! one drone drags another *toward* the obstacle, and the two spoofing
//! directions produce different (roughly mirrored) graphs.

use swarm_control::{VasarhelyiController, VasarhelyiParams};
use swarm_math::{Vec2, Vec3};
use swarm_sim::mission::MissionSpec;
use swarm_sim::recorder::MissionRecord;
use swarm_sim::spoof::SpoofDirection;
use swarm_sim::world::{Obstacle, World};
use swarmfuzz::SvgBuilder;

fn controller() -> VasarhelyiController {
    VasarhelyiController::new(VasarhelyiParams::default())
}

/// Hand-built two-tick record: positions chosen so tick 1 is the closest
/// approach. All drones fly forward at cruise speed.
fn record_from(positions: Vec<Vec3>) -> MissionRecord {
    let n = positions.len();
    let mut r = MissionRecord::new(n, 0.1);
    let spread: Vec<Vec3> = positions
        .iter()
        .enumerate()
        .map(|(i, p)| *p + Vec3::new((i as f64) * 30.0, 0.0, 0.0))
        .collect();
    let vels = vec![Vec3::new(2.0, 0.0, 0.0); n];
    let dists: Vec<f64> = vec![10.0; n];
    r.push_sample(0.0, &spread, &vels, &dists);
    r.push_sample(0.1, &positions, &vels, &dists);
    r
}

/// Fig. 4 scenario: two drones flying +x abreast, obstacle ahead between
/// them, slightly below the midline.
fn fig4_spec() -> MissionSpec {
    let mut spec = MissionSpec::paper_delivery(2, 0);
    spec.world = World::with_obstacles(vec![Obstacle::Cylinder {
        center: Vec2::new(30.0, 0.0),
        radius: 4.0,
    }]);
    spec
}

#[test]
fn svg_is_built_at_closest_approach() {
    let spec = fig4_spec();
    // Drone 0 above the obstacle line, drone 1 below.
    let record = record_from(vec![Vec3::new(0.0, 7.0, 10.0), Vec3::new(0.0, -7.0, 10.0)]);
    let svg =
        SvgBuilder::new(&controller(), &spec, &record, 10.0).build(SpoofDirection::Right).unwrap();
    assert!((svg.t_clo - 0.1).abs() < 1e-9);
}

#[test]
fn directions_produce_mirrored_influence() {
    // Symmetric geometry: drone 0 at +7 y, drone 1 at -7 y, obstacle dead
    // ahead at y=0. Right-spoofing (toward -y) should create edges in one
    // orientation, left-spoofing in the mirrored one.
    let spec = fig4_spec();
    let record = record_from(vec![Vec3::new(20.0, 7.0, 10.0), Vec3::new(20.0, -7.0, 10.0)]);
    let ctrl = controller();
    let b = SvgBuilder::new(&ctrl, &spec, &record, 10.0);
    let right = b.build(SpoofDirection::Right).unwrap();
    let left = b.build(SpoofDirection::Left).unwrap();

    // Mirror symmetry: edge i->j under Right corresponds to edge
    // mirror(i)->mirror(j) under Left, where mirror swaps drones 0 and 1.
    for i in 0..2 {
        for j in 0..2 {
            if i == j {
                continue;
            }
            assert_eq!(
                right.graph.has_edge(i, j),
                left.graph.has_edge(1 - i, 1 - j),
                "mirror symmetry broken for edge {i}->{j}"
            );
        }
    }
}

#[test]
fn spoofed_neighbor_displacement_toward_victim_creates_repulsion_edge() {
    // Drone 1 (victim candidate) is just above the obstacle's top edge;
    // drone 0 flies abreast 11 m further out at +y. Right spoofing displaces
    // drone 0's broadcast 10 m toward -y, putting it right next to (but
    // still outside of) drone 1, whose repulsion response pushes it down
    // toward the obstacle -> edge e_{1,0}.
    let spec = fig4_spec();
    let record = record_from(vec![Vec3::new(25.0, 17.0, 10.0), Vec3::new(25.0, 6.0, 10.0)]);
    let svg =
        SvgBuilder::new(&controller(), &spec, &record, 10.0).build(SpoofDirection::Right).unwrap();
    assert!(
        svg.graph.has_edge(1, 0),
        "drone 0's rightward spoof must maliciously influence drone 1: {:?}",
        svg.graph
    );
}

#[test]
fn influence_scores_rank_the_displacing_drone_as_target() {
    let spec = fig4_spec();
    let record = record_from(vec![Vec3::new(25.0, 17.0, 10.0), Vec3::new(25.0, 6.0, 10.0)]);
    let svg =
        SvgBuilder::new(&controller(), &spec, &record, 10.0).build(SpoofDirection::Right).unwrap();
    if svg.graph.has_edge(1, 0) && !svg.graph.has_edge(0, 1) {
        assert!(
            svg.target_scores[0] > svg.target_scores[1],
            "the influencer must rank higher as a target: {:?}",
            svg.target_scores
        );
        assert!(
            svg.victim_scores[1] > svg.victim_scores[0],
            "the influenced drone must rank higher as a victim: {:?}",
            svg.victim_scores
        );
    }
}

#[test]
fn svg_on_real_mission_record_is_well_formed() {
    // Build the SVG from an actual flown mission rather than a hand-made
    // record, for every direction; sanity-check the invariants.
    use swarm_sim::Simulation;
    let mut spec = MissionSpec::paper_delivery(5, 33);
    spec.duration = 60.0;
    let sim = Simulation::new(spec.clone(), controller()).unwrap();
    let record = sim.run(None).unwrap().record;
    for dir in SpoofDirection::BOTH {
        let svg = SvgBuilder::new(&controller(), &spec, &record, 10.0).build(dir).unwrap();
        assert_eq!(svg.graph.node_count(), 5);
        let sum_t: f64 = svg.target_scores.iter().sum();
        assert!((sum_t - 1.0).abs() < 1e-6);
        for e in svg.graph.edges() {
            assert!(e.weight > 0.0 && e.weight <= 1.0, "weight out of range: {e:?}");
            assert_ne!(e.from, e.to);
        }
    }
}

/// FNV-1a over the bits of every edge (from, to, weight) in id order, then
/// of both score vectors and the closest-approach time.
fn svg_digest(svg: &swarmfuzz::svg::SvgAnalysis) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut word = |w: u64| {
        for byte in w.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for u in 0..svg.graph.node_count() {
        for &(v, w) in svg.graph.out_edges(u) {
            word(u as u64);
            word(v as u64);
            word(w.to_bits());
        }
    }
    for s in svg.target_scores.iter().chain(&svg.victim_scores) {
        word(s.to_bits());
    }
    word(svg.t_clo.to_bits());
    h
}

#[test]
fn ranged_mission_svg_is_pinned() {
    // The 30 m radio range of `large_swarm` keeps most drones out of each
    // other's contexts, so this pins the builder's range check as well as
    // its weights and scores. The digests were taken while the builder
    // still found each context through a spatial-grid query.
    use swarm_sim::{scenario, Simulation};
    let mut spec = scenario::large_swarm(40, 17);
    spec.duration = 20.0;
    let record = Simulation::new(spec.clone(), controller()).unwrap().run(None).unwrap().record;
    for (dir, edges, pinned) in [
        (SpoofDirection::Left, 498, 0xbe84_7745_84f6_c606_u64),
        (SpoofDirection::Right, 404, 0xf301_920d_9f78_b327),
    ] {
        let svg = SvgBuilder::new(&controller(), &spec, &record, 10.0).build(dir).unwrap();
        assert_eq!(svg.graph.edge_count(), edges, "{dir:?}");
        assert_eq!(svg_digest(&svg), pinned, "{dir:?}: {:#018x}", svg_digest(&svg));
    }
}
