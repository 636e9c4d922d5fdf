//! Metamorphic oracles for the flocking controllers.
//!
//! Controllers are pure functions of a [`ControlContext`], so instead of
//! predicting a command we check frame relations: translating the whole
//! scene must leave the command unchanged, and rotating the scene about the
//! world z axis must co-rotate the command. Every controller the repo ships
//! (Vasarhelyi, Olfati-Saber) must satisfy both — an accidental
//! dependence on absolute coordinates is exactly the kind of bug that stays
//! invisible to example-based tests.

use swarm_control::olfati_saber::{OlfatiSaberController, OlfatiSaberParams};
use swarm_control::{VasarhelyiController, VasarhelyiParams};
use swarm_math::Vec3;
use swarm_sim::world::{Obstacle, World};
use swarm_sim::{ControlContext, DroneId, NeighborState, PerceivedSelf, SwarmController};
use swarm_testkit::domain::{vec2_in, vec3_in};
use swarm_testkit::metamorphic::{
    map_world, rotate_obstacle_z, rotate_z, translate_obstacle, vec3_close,
};
use swarm_testkit::{check, gens, Gen};

/// A self-contained control scene; owning all borrowed context pieces lets
/// the generator build it and the oracle re-derive transformed variants.
#[derive(Clone, Debug)]
struct Scene {
    position: Vec3,
    velocity: Vec3,
    neighbors: Vec<NeighborState>,
    world: World,
    destination: Vec3,
    time: f64,
}

impl Scene {
    fn command<C: SwarmController + ?Sized>(&self, controller: &C) -> Vec3 {
        let ctx = ControlContext {
            id: DroneId(0),
            self_state: PerceivedSelf { position: self.position, velocity: self.velocity },
            neighbors: &self.neighbors,
            world: &self.world,
            destination: self.destination,
            time: self.time,
        };
        controller.desired_velocity(&ctx)
    }

    fn translated(&self, offset: Vec3) -> Scene {
        Scene {
            position: self.position + offset,
            velocity: self.velocity,
            neighbors: self
                .neighbors
                .iter()
                .map(|n| NeighborState { position: n.position + offset, ..*n })
                .collect(),
            world: map_world(&self.world, |o| translate_obstacle(o, offset)),
            destination: self.destination + offset,
            time: self.time,
        }
    }

    fn rotated(&self, angle: f64) -> Scene {
        Scene {
            position: rotate_z(self.position, angle),
            velocity: rotate_z(self.velocity, angle),
            neighbors: self
                .neighbors
                .iter()
                .map(|n| NeighborState {
                    position: rotate_z(n.position, angle),
                    velocity: rotate_z(n.velocity, angle),
                    ..*n
                })
                .collect(),
            world: map_world(&self.world, |o| rotate_obstacle_z(o, angle)),
            destination: rotate_z(self.destination, angle),
            time: self.time,
        }
    }
}

fn scene() -> Gen<Scene> {
    let neighbor =
        gens::zip4(&gens::usize_in(1..=31), &vec3_in(80.0), &vec3_in(8.0), &gens::f64_in(0.0, 1.0))
            .map(|(id, position, velocity, age)| NeighborState {
                id: DroneId(id),
                position,
                velocity,
                age,
            });
    let obstacle = gens::zip2(&vec2_in(100.0), &gens::f64_in(0.5, 12.0))
        .map(|(center, radius)| Obstacle::Cylinder { center, radius });
    gens::zip4(
        &gens::zip2(&vec3_in(80.0), &vec3_in(8.0)),
        &gens::vec_of(&neighbor, 0..=6),
        &gens::vec_of(&obstacle, 0..=2),
        &gens::zip2(&vec3_in(150.0), &gens::f64_in(0.0, 300.0)),
    )
    .map(|((position, velocity), neighbors, obstacles, (destination, time))| Scene {
        position,
        velocity,
        neighbors,
        world: World::with_obstacles(obstacles),
        destination,
        time,
    })
}

fn controllers() -> Vec<(&'static str, Box<dyn SwarmController>)> {
    vec![
        ("vasarhelyi", Box::new(VasarhelyiController::new(VasarhelyiParams::default()))),
        ("olfati-saber", Box::new(OlfatiSaberController::new(OlfatiSaberParams::default()))),
    ]
}

const TOL: f64 = 1e-6;

#[test]
fn controllers_are_translation_invariant() {
    let gen = gens::zip2(&scene(), &vec3_in(500.0));
    check("controller-translation-invariance", &gen, |(scene, offset)| {
        let moved = scene.translated(*offset);
        for (name, controller) in controllers() {
            let base = scene.command(controller.as_ref());
            let shifted = moved.command(controller.as_ref());
            if !vec3_close(base, shifted, TOL) {
                return Err(format!(
                    "{name}: command changed under translation by {offset:?}: \
                     {base:?} vs {shifted:?}"
                ));
            }
        }
        Ok(())
    });
}

#[test]
fn controllers_are_rotation_equivariant() {
    let gen = gens::zip2(&scene(), &gens::f64_in(-std::f64::consts::PI, std::f64::consts::PI));
    check("controller-rotation-equivariance", &gen, |(scene, angle)| {
        let turned = scene.rotated(*angle);
        for (name, controller) in controllers() {
            let expected = rotate_z(scene.command(controller.as_ref()), *angle);
            let actual = turned.command(controller.as_ref());
            if !vec3_close(expected, actual, TOL) {
                return Err(format!(
                    "{name}: command does not co-rotate by {angle} rad: \
                     expected {expected:?}, got {actual:?}"
                ));
            }
        }
        Ok(())
    });
}

#[test]
fn controllers_are_pure() {
    check("controller-purity", &scene(), |scene| {
        for (name, controller) in controllers() {
            let first = scene.command(controller.as_ref());
            let second = scene.command(controller.as_ref());
            if first != second {
                return Err(format!(
                    "{name}: repeated evaluation differs: {first:?} vs {second:?}"
                ));
            }
        }
        Ok(())
    });
}
