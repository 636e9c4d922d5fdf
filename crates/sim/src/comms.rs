//! The swarm's state-broadcast communication system.
//!
//! Distributed drone swarms exchange physical states among members every
//! control period (workflow step 2 in Fig. 1 of the paper). This module
//! models that exchange: each drone broadcasts its perceived `(position,
//! velocity)`, and every other drone keeps the most recent state it has heard
//! from each peer in a neighbor table.
//!
//! The bus is ideal by default (zero delay, no loss, unlimited range), which
//! matches the paper's SwarmLab setup. Delay, loss and a radio range are
//! available for failure-injection tests — the attacker of the threat model
//! explicitly *cannot* tamper with these messages (they may be encrypted), so
//! imperfection here is an environmental property, not an attack channel.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::Rng;
use swarm_math::Vec3;

use crate::spatial::SpatialGrid;
use crate::{DroneId, SimError};

/// Configuration of the communication bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommsConfig {
    /// Delivery delay in whole control ticks (0 = delivered the same tick).
    pub delay_ticks: usize,
    /// Independent per-receiver probability of losing a message.
    pub drop_probability: f64,
    /// Radio range in metres; `None` for unlimited.
    pub range: Option<f64>,
}

impl Default for CommsConfig {
    fn default() -> Self {
        CommsConfig { delay_ticks: 0, drop_probability: 0.0, range: None }
    }
}

/// A state broadcast from one swarm member.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateMessage {
    /// The broadcasting drone.
    pub sender: DroneId,
    /// The sender's perceived (GPS) position.
    pub position: Vec3,
    /// The sender's perceived velocity.
    pub velocity: Vec3,
    /// Send timestamp in seconds.
    pub time: f64,
}

/// The broadcast bus plus each drone's neighbor table.
///
/// `PartialEq` compares the full evolving state (in-flight queue, delivery
/// tables) so simulation snapshots containing a bus can be compared for
/// bit-identity.
#[derive(Debug, Clone, PartialEq)]
pub struct CommsBus {
    config: CommsConfig,
    swarm_size: usize,
    /// `in_flight[k]` holds messages due in `k` more ticks.
    in_flight: VecDeque<Vec<StateMessage>>,
    /// Per-receiver neighbor table: the latest state heard from each sender,
    /// kept sorted by sender id. Compact rows (only senders actually heard)
    /// keep [`CommsBus::neighbors_of`] O(heard) instead of O(n) — with a
    /// radio range and a large swarm, rows stay short no matter how big the
    /// swarm gets.
    tables: Vec<Vec<StateMessage>>,
    /// Reusable candidate buffer for the grid-backed delivery path.
    scratch: Vec<(DroneId, Vec3)>,
}

impl CommsBus {
    /// Creates a bus for `swarm_size` drones.
    pub fn new(swarm_size: usize, config: CommsConfig) -> Self {
        let mut in_flight = VecDeque::with_capacity(config.delay_ticks + 1);
        for _ in 0..=config.delay_ticks {
            in_flight.push_back(Vec::new());
        }
        CommsBus {
            config,
            swarm_size,
            in_flight,
            tables: vec![Vec::new(); swarm_size],
            scratch: Vec::new(),
        }
    }

    /// The bus configuration.
    pub fn config(&self) -> &CommsConfig {
        &self.config
    }

    /// Advances the bus one control tick: enqueues this tick's broadcasts,
    /// then delivers messages whose delay has elapsed into the neighbor
    /// tables. `receiver_positions` are the drones' true positions, used for
    /// the radio-range check.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CommsInvariant`] if `receiver_positions.len()`
    /// differs from the swarm size or the in-flight queue has lost its
    /// `delay_ticks + 1` slots (e.g. a corrupted snapshot resume).
    pub fn step(
        &mut self,
        broadcasts: Vec<StateMessage>,
        receiver_positions: &[Vec3],
        rng: &mut StdRng,
    ) -> Result<(), SimError> {
        self.step_indexed(broadcasts, receiver_positions, None, rng).map(|_| ())
    }

    /// [`CommsBus::step`] with an optional spatial index over
    /// `receiver_positions`. When a grid is supplied and a radio `range` is
    /// configured, each due message is delivered by querying the grid for
    /// in-range receivers instead of scanning all n of them.
    ///
    /// The grid path is bit-identical to the dense one: the grid returns a
    /// horizontal-distance superset of the 3-D in-range receivers, sorted by
    /// drone id (the dense iteration order), and the exact range test is
    /// re-applied before any randomness is consumed — so the drop-RNG draws
    /// happen for exactly the same receivers in exactly the same order.
    ///
    /// Returns the number of grid cells probed (0 on the dense path).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CommsInvariant`] if `receiver_positions.len()`
    /// differs from the swarm size, the in-flight queue is malformed, or a
    /// grid is supplied that does not index exactly the receivers. These were
    /// once `assert`/`expect` panics; as typed errors a malformed snapshot
    /// resume fails one mission instead of taking down the whole worker.
    pub fn step_indexed(
        &mut self,
        broadcasts: Vec<StateMessage>,
        receiver_positions: &[Vec3],
        grid: Option<&SpatialGrid>,
        rng: &mut StdRng,
    ) -> Result<u64, SimError> {
        if receiver_positions.len() != self.swarm_size {
            return Err(SimError::CommsInvariant(format!(
                "got {} receiver positions for a swarm of {}",
                receiver_positions.len(),
                self.swarm_size
            )));
        }
        let Some(back) = self.in_flight.back_mut() else {
            return Err(SimError::CommsInvariant(format!(
                "in-flight queue is empty; expected {} slot(s) for delay_ticks = {}",
                self.config.delay_ticks + 1,
                self.config.delay_ticks
            )));
        };
        back.extend(broadcasts);

        // Non-empty was just established above, but stay panic-free even if
        // a future refactor breaks that reasoning.
        let due = self
            .in_flight
            .pop_front()
            .ok_or_else(|| SimError::CommsInvariant("in-flight queue drained mid-step".into()))?;
        self.in_flight.push_back(Vec::new());

        let mut cells_probed = 0u64;
        match (grid, self.config.range) {
            (Some(grid), Some(range)) => {
                if grid.len() != self.swarm_size {
                    return Err(SimError::CommsInvariant(format!(
                        "spatial index covers {} drones, swarm has {}",
                        grid.len(),
                        self.swarm_size
                    )));
                }
                let mut scratch = std::mem::take(&mut self.scratch);
                for msg in due {
                    cells_probed += grid.within_into(msg.position, range, &mut scratch);
                    for &(receiver, position) in &scratch {
                        self.deliver(msg, receiver.index(), position, rng);
                    }
                }
                self.scratch = scratch;
            }
            _ => {
                for msg in due {
                    for (receiver, &position) in receiver_positions.iter().enumerate() {
                        self.deliver(msg, receiver, position, rng);
                    }
                }
            }
        }
        Ok(cells_probed)
    }

    /// Checks the bus's internal invariants against the swarm it claims to
    /// serve: the neighbor tables must cover exactly `expected_swarm_size`
    /// receivers and the in-flight queue must hold exactly `delay_ticks + 1`
    /// slots. Run on every snapshot resume so a corrupted or reconfigured
    /// snapshot is rejected up front with a typed error instead of panicking
    /// (or silently mis-delivering) steps later.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CommsInvariant`] describing the first violation.
    pub fn validate(&self, expected_swarm_size: usize) -> Result<(), SimError> {
        if self.swarm_size != expected_swarm_size {
            return Err(SimError::CommsInvariant(format!(
                "bus serves {} drones, mission has {expected_swarm_size}",
                self.swarm_size
            )));
        }
        if self.tables.len() != self.swarm_size {
            return Err(SimError::CommsInvariant(format!(
                "neighbor tables cover {} receivers, swarm has {}",
                self.tables.len(),
                self.swarm_size
            )));
        }
        if self.in_flight.len() != self.config.delay_ticks + 1 {
            return Err(SimError::CommsInvariant(format!(
                "in-flight queue holds {} slot(s), delay_ticks = {} requires {}",
                self.in_flight.len(),
                self.config.delay_ticks,
                self.config.delay_ticks + 1
            )));
        }
        for row in &self.tables {
            if row.iter().any(|m| m.sender.index() >= self.swarm_size) {
                return Err(SimError::CommsInvariant(
                    "neighbor table references a sender outside the swarm".into(),
                ));
            }
        }
        Ok(())
    }

    /// Test-only corruption: drops every in-flight slot, simulating a
    /// snapshot whose queue was truncated (e.g. by a delay reconfiguration
    /// between capture and resume).
    #[cfg(test)]
    pub(crate) fn corrupt_in_flight_for_test(&mut self) {
        self.in_flight.clear();
    }

    /// Delivery of one message to one candidate receiver: sender skip, exact
    /// range check, drop lottery, newest-wins table update. Shared by the
    /// dense and grid paths so their semantics cannot diverge.
    fn deliver(&mut self, msg: StateMessage, receiver: usize, position: Vec3, rng: &mut StdRng) {
        if receiver == msg.sender.index() {
            return;
        }
        if let Some(range) = self.config.range {
            if position.distance(msg.position) > range {
                return;
            }
        }
        if self.config.drop_probability > 0.0 && rng.gen::<f64>() < self.config.drop_probability {
            return;
        }
        let row = &mut self.tables[receiver];
        match row.binary_search_by_key(&msg.sender, |m| m.sender) {
            // Keep the newest message only.
            Ok(i) => {
                if row[i].time <= msg.time {
                    row[i] = msg;
                }
            }
            Err(i) => row.insert(i, msg),
        }
    }

    /// The latest states `receiver` has heard from every other drone
    /// (excluding itself), in sender order. Borrows from the neighbor table —
    /// no allocation per call, and cost proportional to the number of
    /// senders actually heard, not the swarm size.
    ///
    /// # Panics
    ///
    /// Panics if `receiver` is outside the swarm.
    pub fn neighbors_of(&self, receiver: DroneId) -> impl Iterator<Item = StateMessage> + '_ {
        // `deliver` never stores a drone's own broadcast, so the row is
        // already self-free.
        self.tables[receiver.index()].iter().copied()
    }

    /// The latest state `receiver` has heard from `sender`, if any.
    pub fn last_heard(&self, receiver: DroneId, sender: DroneId) -> Option<StateMessage> {
        let row = &self.tables[receiver.index()];
        row.binary_search_by_key(&sender, |m| m.sender).ok().map(|i| row[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    fn msg(sender: usize, t: f64) -> StateMessage {
        StateMessage {
            sender: DroneId(sender),
            position: Vec3::new(sender as f64, 0.0, 0.0),
            velocity: Vec3::ZERO,
            time: t,
        }
    }

    #[test]
    fn ideal_bus_delivers_same_tick() {
        let mut bus = CommsBus::new(3, CommsConfig::default());
        bus.step(vec![msg(0, 0.0), msg(1, 0.0)], &[Vec3::ZERO; 3], &mut rng()).unwrap();
        assert_eq!(bus.neighbors_of(DroneId(2)).count(), 2);
        assert!(bus.last_heard(DroneId(2), DroneId(0)).is_some());
        // A drone never hears itself.
        assert!(bus.neighbors_of(DroneId(0)).all(|m| m.sender != DroneId(0)));
    }

    #[test]
    fn delayed_bus_delivers_after_delay() {
        let mut bus = CommsBus::new(2, CommsConfig { delay_ticks: 2, ..Default::default() });
        let pos = [Vec3::ZERO; 2];
        bus.step(vec![msg(0, 0.0)], &pos, &mut rng()).unwrap();
        assert_eq!(bus.neighbors_of(DroneId(1)).count(), 0);
        bus.step(Vec::new(), &pos, &mut rng()).unwrap();
        assert_eq!(bus.neighbors_of(DroneId(1)).count(), 0);
        bus.step(Vec::new(), &pos, &mut rng()).unwrap();
        assert_eq!(bus.neighbors_of(DroneId(1)).count(), 1);
    }

    #[test]
    fn full_drop_blocks_everything() {
        let mut bus = CommsBus::new(2, CommsConfig { drop_probability: 1.0, ..Default::default() });
        for t in 0..10 {
            bus.step(vec![msg(0, t as f64)], &[Vec3::ZERO; 2], &mut rng()).unwrap();
        }
        assert_eq!(bus.neighbors_of(DroneId(1)).count(), 0);
    }

    #[test]
    fn out_of_range_receiver_misses_message() {
        let mut bus = CommsBus::new(2, CommsConfig { range: Some(10.0), ..Default::default() });
        let positions = [Vec3::ZERO, Vec3::new(100.0, 0.0, 0.0)];
        bus.step(vec![msg(0, 0.0)], &positions, &mut rng()).unwrap();
        assert_eq!(bus.neighbors_of(DroneId(1)).count(), 0);
    }

    #[test]
    fn neighbors_are_yielded_in_ascending_sender_order() {
        // Broadcast out of sender order; the neighbor table must still be
        // read back in ascending sender order (the order the controller and
        // the SVG builder rely on).
        let mut bus = CommsBus::new(5, CommsConfig::default());
        bus.step(
            vec![msg(3, 0.0), msg(0, 0.0), msg(4, 0.0), msg(1, 0.0)],
            &[Vec3::ZERO; 5],
            &mut rng(),
        )
        .unwrap();
        let senders: Vec<usize> = bus.neighbors_of(DroneId(2)).map(|m| m.sender.index()).collect();
        assert_eq!(senders, vec![0, 1, 3, 4]);
        // Gaps (unheard senders) are skipped, order preserved.
        let senders: Vec<usize> = bus.neighbors_of(DroneId(4)).map(|m| m.sender.index()).collect();
        assert_eq!(senders, vec![0, 1, 3]);
    }

    #[test]
    fn grid_delivery_matches_dense_delivery() {
        use crate::spatial::SpatialGrid;
        use rand::SeedableRng;

        // Lossy, delayed, range-limited bus: the harshest RNG-ordering case.
        let config = CommsConfig { delay_ticks: 1, drop_probability: 0.3, range: Some(12.0) };
        let n = 24;
        let positions: Vec<Vec3> =
            (0..n).map(|i| Vec3::new((i % 6) as f64 * 5.0, (i / 6) as f64 * 5.0, 10.0)).collect();
        let mut dense = CommsBus::new(n, config);
        let mut gridded = CommsBus::new(n, config);
        let mut rng_a = StdRng::seed_from_u64(99);
        let mut rng_b = StdRng::seed_from_u64(99);
        let mut grid = SpatialGrid::build(&positions, 12.0);
        for t in 0..8 {
            let broadcasts: Vec<StateMessage> = (0..n)
                .map(|i| StateMessage {
                    sender: DroneId(i),
                    position: positions[i],
                    velocity: Vec3::ZERO,
                    time: t as f64,
                })
                .collect();
            dense.step(broadcasts.clone(), &positions, &mut rng_a).unwrap();
            grid.rebuild(&positions, 12.0);
            gridded.step_indexed(broadcasts, &positions, Some(&grid), &mut rng_b).unwrap();
        }
        for r in 0..n {
            let a: Vec<StateMessage> = dense.neighbors_of(DroneId(r)).collect();
            let b: Vec<StateMessage> = gridded.neighbors_of(DroneId(r)).collect();
            assert_eq!(a, b, "receiver {r} tables diverged between dense and grid delivery");
        }
    }

    #[test]
    fn newer_message_replaces_older() {
        let mut bus = CommsBus::new(2, CommsConfig::default());
        let pos = [Vec3::ZERO; 2];
        bus.step(vec![msg(0, 0.0)], &pos, &mut rng()).unwrap();
        let mut newer = msg(0, 1.0);
        newer.position = Vec3::new(9.0, 9.0, 9.0);
        bus.step(vec![newer], &pos, &mut rng()).unwrap();
        assert_eq!(bus.last_heard(DroneId(1), DroneId(0)).unwrap().position, newer.position);
    }

    #[test]
    fn wrong_receiver_count_is_a_typed_error_not_a_panic() {
        let mut bus = CommsBus::new(3, CommsConfig::default());
        let err = bus.step(vec![msg(0, 0.0)], &[Vec3::ZERO; 2], &mut rng()).unwrap_err();
        assert!(matches!(err, SimError::CommsInvariant(_)), "got {err:?}");
        assert!(err.to_string().contains("2 receiver positions"));
    }

    #[test]
    fn drained_in_flight_queue_is_a_typed_error_not_a_panic() {
        let mut bus = CommsBus::new(2, CommsConfig { delay_ticks: 1, ..Default::default() });
        bus.corrupt_in_flight_for_test();
        let err = bus.step(vec![msg(0, 0.0)], &[Vec3::ZERO; 2], &mut rng()).unwrap_err();
        let SimError::CommsInvariant(text) = err else { panic!("wrong kind") };
        assert_eq!(text, "in-flight queue is empty; expected 2 slot(s) for delay_ticks = 1");
    }

    #[test]
    fn undersized_grid_is_a_typed_error_not_a_panic() {
        use crate::spatial::SpatialGrid;
        let mut bus = CommsBus::new(3, CommsConfig { range: Some(10.0), ..Default::default() });
        let grid = SpatialGrid::build(&[Vec3::ZERO; 2], 10.0);
        let err = bus
            .step_indexed(vec![msg(0, 0.0)], &[Vec3::ZERO; 3], Some(&grid), &mut rng())
            .unwrap_err();
        assert!(matches!(err, SimError::CommsInvariant(_)), "got {err:?}");
    }

    #[test]
    fn validate_accepts_fresh_and_rejects_corrupted_buses() {
        let bus = CommsBus::new(4, CommsConfig { delay_ticks: 2, ..Default::default() });
        bus.validate(4).unwrap();
        assert!(matches!(bus.validate(5), Err(SimError::CommsInvariant(_))));

        let mut corrupted = bus.clone();
        corrupted.corrupt_in_flight_for_test();
        let SimError::CommsInvariant(text) = corrupted.validate(4).unwrap_err() else {
            panic!("wrong kind")
        };
        assert_eq!(text, "in-flight queue holds 0 slot(s), delay_ticks = 2 requires 3");
    }

    #[test]
    fn partial_drop_eventually_delivers() {
        let mut bus = CommsBus::new(2, CommsConfig { drop_probability: 0.5, ..Default::default() });
        let mut r = rng();
        for t in 0..50 {
            bus.step(vec![msg(0, t as f64)], &[Vec3::ZERO; 2], &mut r).unwrap();
        }
        assert!(bus.last_heard(DroneId(1), DroneId(0)).is_some());
    }
}
