//! Property tests spanning crates, run on `swarm-testkit`: random mission
//! geometry, random attack parameters and random graphs must never violate
//! the core invariants (finiteness, budget discipline, probability mass,
//! ordering). Failures shrink to a minimal counterexample and persist to
//! `tests/corpus/`.

use swarm_control::{VasarhelyiController, VasarhelyiParams};
use swarm_graph::centrality::{pagerank, rank_order, PageRankConfig};
use swarm_math::stats::Ecdf;
use swarm_math::{Vec2, Vec3};
use swarm_sim::mission::MissionSpec;
use swarm_sim::spoof::{SpoofDirection, SpoofingAttack};
use swarm_sim::{ControlContext, DroneId, NeighborState, PerceivedSelf, SwarmController};
use swarm_testkit::domain::digraph;
use swarm_testkit::{check, gens, tk_ensure};

fn controller() -> VasarhelyiController {
    VasarhelyiController::new(VasarhelyiParams::default())
}

/// The flocking controller never emits NaN/infinite commands, whatever the
/// neighbor geometry.
#[test]
fn controller_output_always_finite() {
    let neighbor = gens::zip2(
        &gens::zip2(&gens::f64_in(-300.0, 300.0), &gens::f64_in(-100.0, 100.0)),
        &gens::zip2(&gens::f64_in(-10.0, 10.0), &gens::f64_in(-10.0, 10.0)),
    )
    .map(|((x, y), (vx, vy))| (Vec3::new(x, y, 10.0), Vec3::new(vx, vy, 0.0)));
    let gen = gens::zip3(
        &gens::zip2(&gens::f64_in(-300.0, 300.0), &gens::f64_in(-100.0, 100.0)),
        &gens::zip2(&gens::f64_in(-10.0, 10.0), &gens::f64_in(-10.0, 10.0)),
        &gens::vec_of(&neighbor, 0..=15),
    );
    check("cross-controller-finite", &gen, |((px, py), (vx, vy), neighbors)| {
        let spec = MissionSpec::paper_delivery(2, 0);
        let nbs: Vec<NeighborState> = neighbors
            .iter()
            .enumerate()
            .map(|(i, &(position, velocity))| NeighborState {
                id: DroneId(i + 1),
                position,
                velocity,
                age: 0.0,
            })
            .collect();
        let ctx = ControlContext {
            id: DroneId(0),
            self_state: PerceivedSelf {
                position: Vec3::new(*px, *py, 10.0),
                velocity: Vec3::new(*vx, *vy, 0.0),
            },
            neighbors: &nbs,
            world: &spec.world,
            destination: spec.destination,
            time: 0.0,
        };
        let cmd = controller().desired_velocity(&ctx);
        tk_ensure!(cmd.is_finite(), "command diverged: {cmd:?}");
        let p = VasarhelyiParams::default();
        tk_ensure!(
            cmd.horizontal().norm() <= p.v_max + 1e-9,
            "speed {} exceeds v_max {}",
            cmd.horizontal().norm(),
            p.v_max
        );
        Ok(())
    });
}

/// Every cadence a valid spec derives goes through the shared `ticks_per`
/// rule, rounds (never truncates), and stays mutually consistent.
#[test]
fn derived_tick_counts_are_consistent_for_random_valid_specs() {
    use swarm_sim::mission::ticks_per;
    let gen = gens::zip4(
        &gens::usize_in(1..=12),
        &gens::f64_in(0.001, 0.2),
        &gens::f64_in(1.0, 16.0),
        &gens::zip2(&gens::f64_in(0.5, 120.0), &gens::f64_in(0.2, 60.0)),
    );
    check("tick-count-consistency", &gen, |&(n, dt, ctrl_mult, (duration, rate))| {
        let mut spec = MissionSpec::paper_delivery(n, 1);
        spec.physics_dt = dt;
        spec.control_period = dt * ctrl_mult;
        spec.duration = duration;
        spec.gps.rate_hz = rate;
        spec.validate().map_err(|e| format!("drawn spec must validate: {e}"))?;
        // All three cadences derive through the single helper.
        tk_ensure!(
            spec.physics_steps() == ticks_per(spec.duration, spec.physics_dt),
            "physics_steps bypassed ticks_per"
        );
        tk_ensure!(
            spec.steps_per_control() == ticks_per(spec.control_period, spec.physics_dt).max(1),
            "steps_per_control bypassed ticks_per"
        );
        tk_ensure!(
            spec.steps_per_gps() == ticks_per(spec.gps.period(), spec.physics_dt).max(1),
            "steps_per_gps bypassed ticks_per"
        );
        // Rounding, not truncation: the reconstructed span is within half a
        // physics step of the requested one.
        let reconstructed = spec.physics_steps() as f64 * dt;
        tk_ensure!(
            (reconstructed - duration).abs() <= 0.5 * dt * (1.0 + 1e-9) + 1e-12,
            "physics_steps truncated: {} steps x {dt} = {reconstructed} vs {duration}",
            spec.physics_steps()
        );
        // Sub-step cadences clamp to one step rather than zero.
        tk_ensure!(spec.steps_per_control() >= 1, "control cadence collapsed to zero");
        tk_ensure!(spec.steps_per_gps() >= 1, "GPS cadence collapsed to zero");
        Ok(())
    });
}

/// PageRank is a probability distribution on any random graph.
#[test]
fn pagerank_mass_conserved() {
    check("cross-pagerank-mass", &digraph(1..=19, 59, 0.01, 1.0), |g| {
        let pr = pagerank(g, &PageRankConfig::default());
        let sum: f64 = pr.iter().sum();
        tk_ensure!((sum - 1.0).abs() < 1e-6, "sum = {sum}");
        tk_ensure!(pr.iter().all(|&x| x >= 0.0));
        // rank_order is a permutation.
        let mut order = rank_order(&pr);
        order.sort_unstable();
        tk_ensure!(order.iter().enumerate().all(|(i, &x)| i == x), "rank_order not a permutation");
        Ok(())
    });
}

/// The spoofing offset has the configured magnitude inside the window and is
/// zero outside, for arbitrary parameters and axes.
#[test]
fn spoof_offset_window_algebra() {
    let gen = gens::zip4(
        &gens::zip2(&gens::f64_in(0.0, 200.0), &gens::f64_in(0.0, 100.0)),
        &gens::f64_in(0.0, 20.0),
        &gens::f64_in(0.0, 400.0),
        &gens::f64_in(0.0, std::f64::consts::TAU),
    );
    check("cross-spoof-window-algebra", &gen, |((start, duration), deviation, t, axis_angle)| {
        let axis = Vec2::new(axis_angle.cos(), axis_angle.sin());
        let atk =
            SpoofingAttack::new(DroneId(0), SpoofDirection::Right, *start, *duration, *deviation)
                .map_err(|e| format!("valid window rejected: {e}"))?;
        let offset = atk.offset_at(*t, DroneId(0), axis);
        if *t >= *start && *t < start + duration {
            let offset = offset.ok_or("no offset inside the window")?;
            tk_ensure!((offset.norm() - deviation).abs() < 1e-9, "magnitude {}", offset.norm());
            // Horizontal only.
            tk_ensure!(offset.z == 0.0);
            // Perpendicular to the mission axis.
            tk_ensure!(offset.xy().dot(axis).abs() < 1e-9 * (1.0 + deviation));
        } else {
            tk_ensure!(offset.is_none(), "offset {offset:?} outside the window");
        }
        // Never an offset for another drone.
        tk_ensure!(atk.offset_at(*t, DroneId(1), axis).is_none());
        Ok(())
    });
}

/// ECDFs are monotone, bounded in [0,1], and hit 1 at the max sample.
#[test]
fn ecdf_is_monotone_cdf() {
    let gen = gens::vec_of(&gens::f64_in(-100.0, 100.0), 1..=49);
    check("cross-ecdf-monotone", &gen, |sample| {
        let max = sample.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let cdf = Ecdf::new(sample.clone());
        let mut last = 0.0;
        for i in -100..=100 {
            let x = i as f64;
            let y = cdf.eval(x);
            tk_ensure!((0.0..=1.0).contains(&y), "F({x}) = {y}");
            tk_ensure!(y >= last, "F({x}) = {y} dropped below {last}");
            last = y;
        }
        tk_ensure!(cdf.eval(max) == 1.0, "F(max) = {}", cdf.eval(max));
        Ok(())
    });
}

/// Mission initial positions always respect the box and separation.
#[test]
fn initial_positions_in_box() {
    let gen = gens::zip2(&gens::usize_in(1..=15), &gens::u64_in(0..=4999));
    check("cross-initial-positions", &gen, |(n, seed)| {
        let spec = MissionSpec::paper_delivery(*n, *seed);
        let pos = spec.initial_positions();
        tk_ensure!(pos.len() == *n);
        for p in &pos {
            tk_ensure!(
                p.x >= spec.start_min.x - 1e-9 && p.x <= spec.start_max.x + 1e-9,
                "x out of box: {p:?}"
            );
            tk_ensure!(
                p.y >= spec.start_min.y - 1e-9 && p.y <= spec.start_max.y + 1e-9,
                "y out of box: {p:?}"
            );
        }
        for i in 0..pos.len() {
            for j in 0..i {
                tk_ensure!(
                    pos[i].distance(pos[j]) >= spec.min_start_separation - 1e-9,
                    "drones {i} and {j} start {} m apart",
                    pos[i].distance(pos[j])
                );
            }
        }
        Ok(())
    });
}

/// Non-randomized cross-crate check: seed scheduling on a real mission yields
/// seeds ordered by VDO with valid drone ids.
#[test]
fn svg_schedule_on_real_mission_is_well_formed() {
    use swarm_sim::Simulation;
    use swarmfuzz::schedule::svg_schedule;

    let mut spec = MissionSpec::paper_delivery(8, 5);
    spec.duration = 60.0;
    let sim = Simulation::new(spec.clone(), controller()).unwrap();
    let record = sim.run(None).unwrap().record;
    let pool = svg_schedule(&controller(), &spec, &record, 10.0).unwrap();
    assert_eq!(pool.len(), 16, "8 victims x 2 directions");
    let vdos: Vec<f64> = pool.iter().map(|s| s.victim_vdo).collect();
    assert!(vdos.windows(2).all(|w| w[0] <= w[1]));
    for s in pool.iter() {
        assert!(s.target.index() < 8 && s.victim.index() < 8);
        assert_ne!(s.target, s.victim);
        assert!(s.influence.is_finite());
    }
}
