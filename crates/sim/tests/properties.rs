//! Property tests for the simulator substrate, run on `swarm-testkit`:
//! obstacle geometry consistency, comms-bus delivery semantics,
//! spatial-index equivalence with brute force, and point-mass
//! boundedness. Failures shrink to a minimal counterexample and persist to
//! `tests/corpus/` at the workspace root.

use rand::rngs::StdRng;
use rand::SeedableRng;
use swarm_math::{Vec2, Vec3};
use swarm_sim::comms::{CommsBus, CommsConfig, StateMessage};
use swarm_sim::dynamics::{DroneParams, DroneState, Dynamics, PointMass};
use swarm_sim::spatial::SpatialGrid;
use swarm_sim::world::Obstacle;
use swarm_sim::DroneId;
use swarm_testkit::{check, gens, tk_ensure, Gen};

/// A point in the simulation's usual airspace envelope.
fn point() -> Gen<Vec3> {
    gens::zip3(&gens::f64_in(-500.0, 500.0), &gens::f64_in(-500.0, 500.0), &gens::f64_in(0.0, 50.0))
        .map(|(x, y, z)| Vec3::new(x, y, z))
}

fn obstacle() -> Gen<Obstacle> {
    let cylinder = gens::zip3(
        &gens::f64_in(-200.0, 200.0),
        &gens::f64_in(-200.0, 200.0),
        &gens::f64_in(0.5, 30.0),
    )
    .map(|(x, y, radius)| Obstacle::Cylinder { center: Vec2::new(x, y), radius });
    let sphere = gens::zip2(&point(), &gens::f64_in(0.5, 30.0))
        .map(|(center, radius)| Obstacle::Sphere { center, radius });
    gens::bool_any().flat_map(
        move |is_cylinder| {
            if is_cylinder {
                cylinder.clone()
            } else {
                sphere.clone()
            }
        },
    )
}

/// The closest surface point really is on the surface, and its distance from
/// the query point equals |surface_distance| (outside the body).
#[test]
fn obstacle_geometry_is_consistent() {
    check("sim-obstacle-geometry", &gens::zip2(&obstacle(), &point()), |(o, p)| {
        let sd = o.surface_distance(*p);
        let cp = o.closest_surface_point(*p);
        tk_ensure!(o.surface_distance(cp).abs() < 1e-6, "closest point must lie on surface");
        if sd > 0.0 {
            let gap = match o {
                Obstacle::Cylinder { .. } => p.horizontal_distance(cp),
                Obstacle::Sphere { .. } => p.distance(cp),
            };
            tk_ensure!((gap - sd).abs() < 1e-6, "gap {gap} vs sd {sd}");
        }
        Ok(())
    });
}

/// The outward normal is a unit vector and walking along it increases the
/// surface distance.
#[test]
fn outward_normal_points_outward() {
    check("sim-outward-normal", &gens::zip2(&obstacle(), &point()), |(o, p)| {
        let n = o.outward_normal(*p);
        tk_ensure!((n.norm() - 1.0).abs() < 1e-9, "normal not unit: {n:?}");
        let sd = o.surface_distance(*p);
        let sd_stepped = o.surface_distance(*p + n * 0.5);
        tk_ensure!(sd_stepped >= sd - 1e-9, "stepping outward must not approach");
        Ok(())
    });
}

/// An ideal bus delivers every broadcast to every other drone, and never to
/// the sender.
#[test]
fn ideal_bus_delivers_to_all_others() {
    let gen = gens::zip2(&gens::usize_in(2..=7), &gens::vec_of(&gens::usize_in(0..=7), 1..=7));
    check("sim-ideal-bus-delivery", &gen, |(n, senders)| {
        let n = *n;
        let mut bus = CommsBus::new(n, CommsConfig::default());
        let mut bus_rng = StdRng::seed_from_u64(0);
        let positions = vec![Vec3::ZERO; n];
        let msgs: Vec<StateMessage> = senders
            .iter()
            .filter(|&&s| s < n)
            .map(|&s| StateMessage {
                sender: DroneId(s),
                position: Vec3::ZERO,
                velocity: Vec3::ZERO,
                time: 0.0,
            })
            .collect();
        let sent: std::collections::BTreeSet<usize> =
            msgs.iter().map(|m| m.sender.index()).collect();
        bus.step(msgs, &positions, &mut bus_rng).unwrap();
        for r in 0..n {
            let heard: std::collections::BTreeSet<usize> =
                bus.neighbors_of(DroneId(r)).map(|m| m.sender.index()).collect();
            let expected: std::collections::BTreeSet<usize> =
                sent.iter().copied().filter(|&s| s != r).collect();
            tk_ensure!(heard == expected, "drone {r} heard {heard:?}, expected {expected:?}");
        }
        Ok(())
    });
}

/// The spatial grid returns exactly the brute-force neighbor set, in drone
/// id order.
#[test]
fn spatial_grid_matches_brute_force() {
    let gen = gens::zip4(
        &gens::vec_of(&point(), 1..=23),
        &gens::f64_in(1.0, 40.0),
        &gens::f64_in(0.5, 120.0),
        &gens::usize_in(0..=23),
    );
    check("sim-spatial-grid-equivalence", &gen, |(positions, cell, radius, q)| {
        let center = positions[q % positions.len()];
        let grid = SpatialGrid::build(positions, *cell);
        let mut found = Vec::new();
        grid.within_into(center, *radius, &mut found);
        let got: Vec<usize> = found.iter().map(|&(id, _)| id.index()).collect();
        let expect: Vec<usize> = positions
            .iter()
            .enumerate()
            .filter(|(_, p)| p.horizontal_distance(center) <= *radius)
            .map(|(i, _)| i)
            .collect();
        tk_ensure!(got == expect, "grid returned {got:?}, brute force {expect:?}");
        Ok(())
    });
}

/// The point-mass model never exceeds its speed limit and never produces
/// non-finite state, whatever commands arrive.
#[test]
fn point_mass_respects_limits() {
    let cmd = gens::zip3(
        &gens::f64_in(-100.0, 100.0),
        &gens::f64_in(-100.0, 100.0),
        &gens::f64_in(-20.0, 20.0),
    )
    .map(|(x, y, z)| Vec3::new(x, y, z));
    let gen = gens::vec_of(&cmd, 1..=127);
    check("sim-point-mass-limits", &gen, |commands| {
        let params = DroneParams::default();
        let mut model = PointMass::new(params);
        let mut s = DroneState::default();
        for &cmd in commands {
            s = model.step(&s, cmd, 0.01);
            tk_ensure!(s.position.is_finite() && s.velocity.is_finite(), "state diverged");
            tk_ensure!(
                s.velocity.norm() <= params.max_speed + 1e-9,
                "speed {} exceeds {}",
                s.velocity.norm(),
                params.max_speed
            );
        }
        Ok(())
    });
}
