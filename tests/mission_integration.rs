//! Full-mission integration tests: the Vásárhelyi swarm flies the paper's
//! delivery mission end to end, maintains flocking order, avoids the
//! obstacle, and reaches the destination.
//!
//! Tests use the campaign seed-screening helper where the paper's
//! precondition (collision-free unattacked missions) matters, exactly like
//! the evaluation pipeline does.

use swarm_control::olfati_saber::{OlfatiSaberController, OlfatiSaberParams};
use swarm_control::{VasarhelyiController, VasarhelyiParams};
use swarm_sim::metrics;
use swarm_sim::mission::MissionSpec;
use swarm_sim::{DroneId, Simulation};

fn controller() -> VasarhelyiController {
    VasarhelyiController::new(VasarhelyiParams::default())
}

/// Returns the first seed at or after `start` whose baseline mission is
/// collision-free (the paper's mission population).
fn clean_seed(n: usize, start: u64) -> u64 {
    for seed in start..start + 50 {
        let sim = Simulation::new(MissionSpec::paper_delivery(n, seed), controller()).unwrap();
        if sim.run(None).unwrap().collision_free() {
            return seed;
        }
    }
    panic!("no collision-free baseline found in 50 seeds from {start}");
}

#[test]
fn five_drone_mission_reaches_destination() {
    let seed = clean_seed(5, 100);
    let sim = Simulation::new(MissionSpec::paper_delivery(5, seed), controller()).unwrap();
    let out = sim.run(None).unwrap();
    assert!(out.collision_free());
    assert!(out.record.all_arrived(), "all drones must arrive");
    // Mission completes in a plausible time window.
    let dur = out.record.duration();
    assert!(dur > 30.0 && dur < 150.0, "duration {dur}");
}

#[test]
fn fifteen_drone_mission_is_flyable() {
    let seed = clean_seed(15, 300);
    let sim = Simulation::new(MissionSpec::paper_delivery(15, seed), controller()).unwrap();
    let out = sim.run(None).unwrap();
    assert!(out.collision_free());
    // VDO exists and is positive.
    let (_, vdo) = out.record.mission_vdo().unwrap();
    assert!(vdo > 0.0);
}

#[test]
fn swarm_keeps_separation_during_mission() {
    let seed = clean_seed(10, 500);
    let sim = Simulation::new(MissionSpec::paper_delivery(10, seed), controller()).unwrap();
    let out = sim.run(None).unwrap();
    // Minimum pairwise distance across the mission stays above the
    // collision threshold (2 * radius = 0.5 m) with margin.
    let min_sep = (0..out.record.len())
        .filter_map(|t| metrics::min_inter_distance(out.record.positions_at(t)))
        .fold(f64::INFINITY, f64::min);
    assert!(min_sep > 1.0, "swarm got dangerously close: {min_sep} m");
}

#[test]
fn swarm_flocks_with_ordered_velocities_mid_mission() {
    let seed = clean_seed(10, 700);
    let sim = Simulation::new(MissionSpec::paper_delivery(10, seed), controller()).unwrap();
    let out = sim.run(None).unwrap();
    // Mid-mission (before the obstacle), velocity correlation should be
    // high: the swarm moves as a flock, not as independent particles.
    let tick = out.record.len() / 4;
    let corr = metrics::velocity_correlation(out.record.velocities_at(tick)).unwrap();
    assert!(corr > 0.7, "velocity correlation too low: {corr}");
}

#[test]
fn baseline_vdo_decreases_with_swarm_size_in_aggregate() {
    // Fig. 6d's driver: larger swarms pass closer to the obstacle. Compare
    // mean VDO over a handful of clean missions.
    let mean_vdo = |n: usize, start: u64| {
        let mut vdos = Vec::new();
        let mut seed = start;
        while vdos.len() < 5 {
            seed = clean_seed(n, seed);
            let sim = Simulation::new(MissionSpec::paper_delivery(n, seed), controller()).unwrap();
            let out = sim.run(None).unwrap();
            vdos.push(out.record.mission_vdo().unwrap().1);
            seed += 1;
        }
        vdos.iter().sum::<f64>() / vdos.len() as f64
    };
    let v5 = mean_vdo(5, 1000);
    let v15 = mean_vdo(15, 2000);
    assert!(v15 < v5, "15-drone swarms must pass closer to the obstacle: v5={v5:.2} v15={v15:.2}");
}

#[test]
fn olfati_saber_baseline_also_flies_collision_free() {
    // Second decentralized algorithm (paper §VI: SwarmFuzz generalizes).
    let controller = OlfatiSaberController::new(OlfatiSaberParams::default());
    for seed in 50..60 {
        let sim = Simulation::new(MissionSpec::paper_delivery(5, seed), controller).unwrap();
        let out = sim.run(None).unwrap();
        if out.collision_free() {
            let (_, vdo) = out.record.mission_vdo().unwrap();
            assert!(vdo > 0.0);
            return;
        }
    }
    panic!("no collision-free Olfati-Saber baseline in 10 seeds");
}

#[test]
fn crashed_drone_stays_out_of_the_mission() {
    // Force a crash by placing a bee-line controller swarm of one drone on a
    // collision course; after the crash the recording must stop growing
    // (the loop stops at the first collision) and the collision must be
    // attributed correctly.
    use swarm_math::Vec2;
    use swarm_sim::{ControlContext, SwarmController};

    struct BeeLine;
    impl SwarmController for BeeLine {
        fn desired_velocity(&self, ctx: &ControlContext<'_>) -> swarm_math::Vec3 {
            (ctx.destination - ctx.self_state.position).with_norm(3.0)
        }
    }

    let mut spec = MissionSpec::paper_delivery(1, 3);
    spec.start_min = Vec2::new(20.0, -1.0);
    spec.start_max = Vec2::new(30.0, 1.0);
    let sim = Simulation::new(spec, BeeLine).unwrap();
    let out = sim.run(None).unwrap();
    let c = out.first_collision().expect("bee-line must crash");
    assert!(c.kind.is_obstacle_hit_by(DroneId(0)));
    let final_t = out.record.duration();
    assert!(
        (final_t - c.time).abs() < 1.0,
        "mission must stop at the collision: record ends {final_t}, crash {}",
        c.time
    );
}
