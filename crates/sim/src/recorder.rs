//! Mission recording — the information SwarmFuzz's initial test collects.
//!
//! Paper §IV-A: during the no-attack test run, SwarmFuzz records (1) each
//! drone's location at each timestamp, (2) the minimum distance between each
//! drone and the obstacle over the whole mission (the *VDO* when the drone is
//! considered as a victim), and (3) the mission duration. §IV-B additionally
//! needs the time `t_clo` of the smallest average inter-drone distance, where
//! the SVG is constructed.
//!
//! SwarmFuzz reads the average inter-drone distance only for that `t_clo`
//! lookup, once per baseline, so sampling does not compute it: it is derived
//! from the stored positions on first read, at O(ticks·n²) once per record,
//! and cached until the next sample.

use std::sync::OnceLock;

use swarm_math::stats::OnlineMin;
use swarm_math::Vec3;

use crate::metrics::mean_inter_distance;
use crate::{CollisionEvent, DroneId};

/// A full recording of one mission, sampled at the control rate.
///
/// Equality compares every recorded field but not the cached average
/// inter-drone distances, which are a function of the recorded positions.
#[derive(Debug, Clone)]
pub struct MissionRecord {
    swarm_size: usize,
    /// Sampling period of the recording in seconds (= control period).
    sample_dt: f64,
    times: Vec<f64>,
    /// `positions[tick][drone]`.
    positions: Vec<Vec<Vec3>>,
    /// `velocities[tick][drone]`.
    velocities: Vec<Vec<Vec3>>,
    /// Per-drone minimum distance to the nearest obstacle surface.
    min_obstacle_distance: Vec<OnlineMin>,
    /// Average pairwise inter-drone distance per tick, derived from
    /// `positions` on first read; cleared by every new sample.
    avg_inter_distance: OnceLock<Vec<f64>>,
    /// All collisions, in time order.
    collisions: Vec<CollisionEvent>,
    /// Arrival time per drone, when it reached the destination.
    arrival_time: Vec<Option<f64>>,
    /// Actual mission duration (time of the last recorded sample).
    duration: f64,
}

impl MissionRecord {
    /// Creates an empty record for `swarm_size` drones sampled every
    /// `sample_dt` seconds.
    pub fn new(swarm_size: usize, sample_dt: f64) -> Self {
        MissionRecord {
            swarm_size,
            sample_dt,
            times: Vec::new(),
            positions: Vec::new(),
            velocities: Vec::new(),
            min_obstacle_distance: vec![OnlineMin::new(); swarm_size],
            avg_inter_distance: OnceLock::new(),
            collisions: Vec::new(),
            arrival_time: vec![None; swarm_size],
            duration: 0.0,
        }
    }

    /// Appends one sample. `obstacle_distances[d]` is drone `d`'s current
    /// distance to the nearest obstacle surface (`f64::INFINITY` when the
    /// world has no obstacles).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree with the swarm size.
    pub fn push_sample(
        &mut self,
        time: f64,
        positions: &[Vec3],
        velocities: &[Vec3],
        obstacle_distances: &[f64],
    ) {
        assert_eq!(positions.len(), self.swarm_size);
        assert_eq!(velocities.len(), self.swarm_size);
        assert_eq!(obstacle_distances.len(), self.swarm_size);

        self.times.push(time);
        self.positions.push(positions.to_vec());
        self.velocities.push(velocities.to_vec());
        for (d, &dist) in obstacle_distances.iter().enumerate() {
            if dist.is_finite() {
                self.min_obstacle_distance[d].observe(dist, time);
            }
        }
        self.avg_inter_distance.take();
        self.duration = time;
    }

    /// Records a collision event.
    pub fn push_collision(&mut self, event: CollisionEvent) {
        self.collisions.push(event);
    }

    /// Records that `drone` reached the destination at `time` (first arrival
    /// wins).
    pub fn mark_arrival(&mut self, drone: DroneId, time: f64) {
        let slot = &mut self.arrival_time[drone.index()];
        if slot.is_none() {
            *slot = Some(time);
        }
    }

    /// Number of drones.
    pub fn swarm_size(&self) -> usize {
        self.swarm_size
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The sampling period in seconds.
    pub fn sample_dt(&self) -> f64 {
        self.sample_dt
    }

    /// Recorded sample times.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Positions at sample `tick`.
    pub fn positions_at(&self, tick: usize) -> &[Vec3] {
        &self.positions[tick]
    }

    /// Velocities at sample `tick`.
    pub fn velocities_at(&self, tick: usize) -> &[Vec3] {
        &self.velocities[tick]
    }

    /// The full trajectory of one drone.
    pub fn trajectory(&self, drone: DroneId) -> Vec<Vec3> {
        self.positions.iter().map(|row| row[drone.index()]).collect()
    }

    /// All collisions in time order.
    pub fn collisions(&self) -> &[CollisionEvent] {
        &self.collisions
    }

    /// Arrival time of `drone`, if it reached the destination.
    pub fn arrival_time(&self, drone: DroneId) -> Option<f64> {
        self.arrival_time[drone.index()]
    }

    /// `true` when every drone reached the destination.
    pub fn all_arrived(&self) -> bool {
        self.arrival_time.iter().all(Option::is_some)
    }

    /// Actual mission duration in seconds (last sample time).
    pub fn duration(&self) -> f64 {
        self.duration
    }

    /// The drone's minimum distance to the nearest obstacle surface over the
    /// mission — the paper's *VDO* for that drone. `None` when the world has
    /// no obstacles or nothing was recorded.
    pub fn vdo(&self, drone: DroneId) -> Option<f64> {
        self.min_obstacle_distance[drone.index()].min()
    }

    /// Time at which [`MissionRecord::vdo`] was attained.
    pub fn vdo_time(&self, drone: DroneId) -> Option<f64> {
        self.min_obstacle_distance[drone.index()].at()
    }

    /// The smallest VDO over the swarm with the drone attaining it — the
    /// *mission VDO* used throughout the paper's evaluation.
    pub fn mission_vdo(&self) -> Option<(DroneId, f64)> {
        (0..self.swarm_size)
            .filter_map(|d| self.vdo(DroneId(d)).map(|v| (DroneId(d), v)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// Drones ordered by ascending VDO (closest to the obstacle first).
    pub fn drones_by_vdo(&self) -> Vec<(DroneId, f64)> {
        let mut v: Vec<(DroneId, f64)> = (0..self.swarm_size)
            .filter_map(|d| self.vdo(DroneId(d)).map(|x| (DroneId(d), x)))
            .collect();
        v.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        v
    }

    /// The sample index and time `t_clo` of the minimum average inter-drone
    /// distance (paper §IV-B). `None` for an empty record.
    ///
    /// The first read derives the per-tick means, as
    /// [`MissionRecord::avg_inter_distances`] does.
    pub fn closest_approach(&self) -> Option<(usize, f64)> {
        let (idx, _) = self
            .avg_inter_distances()
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))?;
        Some((idx, self.times[idx]))
    }

    /// Average inter-drone distance per recorded tick (`0.0` for a swarm of
    /// fewer than two drones).
    ///
    /// The first read after a sample derives every tick's mean from the
    /// stored positions, O(ticks·n²); later reads return the cached values.
    pub fn avg_inter_distances(&self) -> &[f64] {
        self.avg_inter_distance.get_or_init(|| {
            self.positions.iter().map(|row| mean_inter_distance(row).unwrap_or(0.0)).collect()
        })
    }
}

impl PartialEq for MissionRecord {
    fn eq(&self, other: &Self) -> bool {
        // Destructured so that a new field cannot be silently left out. The
        // `avg_inter_distance` cache is left out on purpose: it is a function
        // of `positions`.
        let MissionRecord {
            swarm_size,
            sample_dt,
            times,
            positions,
            velocities,
            min_obstacle_distance,
            avg_inter_distance: _,
            collisions,
            arrival_time,
            duration,
        } = self;
        *swarm_size == other.swarm_size
            && *sample_dt == other.sample_dt
            && *times == other.times
            && *positions == other.positions
            && *velocities == other.velocities
            && *min_obstacle_distance == other.min_obstacle_distance
            && *collisions == other.collisions
            && *arrival_time == other.arrival_time
            && *duration == other.duration
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::CollisionKind;

    fn sample_record() -> MissionRecord {
        let mut r = MissionRecord::new(2, 0.1);
        // Two drones approaching then separating; obstacle distances shrink
        // then grow.
        let frames = [
            ([Vec3::new(0.0, 0.0, 0.0), Vec3::new(10.0, 0.0, 0.0)], [5.0, 8.0]),
            ([Vec3::new(1.0, 0.0, 0.0), Vec3::new(9.0, 0.0, 0.0)], [3.0, 6.0]),
            ([Vec3::new(2.0, 0.0, 0.0), Vec3::new(8.0, 0.0, 0.0)], [4.0, 2.0]),
            ([Vec3::new(3.0, 0.0, 0.0), Vec3::new(9.0, 0.0, 0.0)], [6.0, 7.0]),
        ];
        for (i, (pos, od)) in frames.iter().enumerate() {
            r.push_sample(i as f64 * 0.1, pos, &[Vec3::ZERO; 2], od);
        }
        r
    }

    #[test]
    fn vdo_is_min_over_mission() {
        let r = sample_record();
        assert_eq!(r.vdo(DroneId(0)), Some(3.0));
        assert_eq!(r.vdo(DroneId(1)), Some(2.0));
        assert_eq!(r.vdo_time(DroneId(1)), Some(0.2));
    }

    #[test]
    fn mission_vdo_picks_closest_drone() {
        let r = sample_record();
        assert_eq!(r.mission_vdo(), Some((DroneId(1), 2.0)));
        let order = r.drones_by_vdo();
        assert_eq!(order[0].0, DroneId(1));
        assert_eq!(order[1].0, DroneId(0));
    }

    #[test]
    fn closest_approach_finds_min_inter_distance() {
        let r = sample_record();
        // Inter-distances: 10, 8, 6, 6 -> first minimum at tick 2.
        let (tick, t) = r.closest_approach().unwrap();
        assert_eq!(tick, 2);
        assert!((t - 0.2).abs() < 1e-12);
    }

    #[test]
    fn arrivals_first_wins() {
        let mut r = sample_record();
        r.mark_arrival(DroneId(0), 1.0);
        r.mark_arrival(DroneId(0), 2.0);
        assert_eq!(r.arrival_time(DroneId(0)), Some(1.0));
        assert!(!r.all_arrived());
        r.mark_arrival(DroneId(1), 3.0);
        assert!(r.all_arrived());
    }

    #[test]
    fn collisions_are_recorded_in_order() {
        let mut r = sample_record();
        r.push_collision(CollisionEvent {
            time: 0.3,
            kind: CollisionKind::DroneObstacle { drone: DroneId(1), obstacle: 0 },
        });
        assert_eq!(r.collisions().len(), 1);
    }

    #[test]
    fn trajectory_extracts_one_drone() {
        let r = sample_record();
        let tr = r.trajectory(DroneId(0));
        assert_eq!(tr.len(), 4);
        assert_eq!(tr[3], Vec3::new(3.0, 0.0, 0.0));
    }

    #[test]
    fn empty_record_behaviour() {
        let r = MissionRecord::new(3, 0.1);
        assert!(r.is_empty());
        assert_eq!(r.closest_approach(), None);
        assert!(r.avg_inter_distances().is_empty());
        assert_eq!(r.vdo(DroneId(0)), None);
        assert_eq!(r.mission_vdo(), None);
    }

    fn random_positions(rng: &mut StdRng, n: usize) -> Vec<Vec3> {
        (0..n)
            .map(|_| {
                Vec3::new(
                    rng.gen_range(-60.0..60.0),
                    rng.gen_range(-60.0..60.0),
                    rng.gen_range(0.0..20.0),
                )
            })
            .collect()
    }

    /// Seeded random record of `ticks` samples of `n` drones.
    fn random_record(seed: u64, ticks: usize, n: usize) -> MissionRecord {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut r = MissionRecord::new(n, 0.1);
        for tick in 0..ticks {
            let positions = random_positions(&mut rng, n);
            let obstacle_distances: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..30.0)).collect();
            r.push_sample(tick as f64 * 0.1, &positions, &vec![Vec3::ZERO; n], &obstacle_distances);
        }
        r
    }

    /// The mean as the recorder once computed it on every sample: one
    /// running sum and count over the (i, j > i) pairs.
    fn eager_mean(positions: &[Vec3]) -> f64 {
        let (mut sum, mut count) = (0.0, 0u64);
        for i in 0..positions.len() {
            for j in (i + 1)..positions.len() {
                sum += positions[i].distance(positions[j]);
                count += 1;
            }
        }
        if count > 0 {
            sum / count as f64
        } else {
            0.0
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn derived_means_equal_the_eager_per_sample_loop_bitwise() {
        let r = random_record(0x4d45_414e, 20, 37);
        let eager: Vec<f64> = (0..r.len()).map(|tick| eager_mean(r.positions_at(tick))).collect();
        assert_eq!(bits(r.avg_inter_distances()), bits(&eager));
        // A second read returns the cached values.
        assert_eq!(bits(r.avg_inter_distances()), bits(&eager));
        let (tick, t) = r.closest_approach().unwrap();
        let min = eager.iter().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(eager[tick], min);
        assert_eq!(t, r.times()[tick]);
    }

    #[test]
    fn equality_ignores_the_derived_mean_cache() {
        let unread = random_record(7, 6, 9);
        let read = unread.clone();
        assert!(!read.avg_inter_distances().is_empty());
        assert_eq!(read, unread);
        assert_eq!(unread, read);
        assert_eq!(read.clone(), read);
        assert_eq!(read.clone(), unread);
        // Records that differ in a position still differ.
        let mut moved = unread.clone();
        let mut positions = moved.positions_at(5).to_vec();
        positions[3].x += 1.0;
        moved.positions[5] = positions;
        assert_ne!(moved, unread);
    }

    #[test]
    fn a_sample_after_a_read_extends_the_means() {
        let mut r = random_record(11, 5, 8);
        let before = r.avg_inter_distances().to_vec();
        let mut rng = StdRng::seed_from_u64(12);
        let positions = random_positions(&mut rng, 8);
        r.push_sample(0.5, &positions, &[Vec3::ZERO; 8], &[1.0; 8]);
        let after = r.avg_inter_distances();
        assert_eq!(after.len(), before.len() + 1);
        assert_eq!(bits(&after[..before.len()]), bits(&before));
        assert_eq!(after[before.len()].to_bits(), eager_mean(&positions).to_bits());
    }

    #[test]
    fn single_drone_means_are_zero() {
        let mut r = MissionRecord::new(1, 0.1);
        for tick in 0..3 {
            let p = Vec3::new(tick as f64, 0.0, 0.0);
            r.push_sample(tick as f64 * 0.1, &[p], &[Vec3::ZERO], &[5.0]);
        }
        assert_eq!(r.avg_inter_distances(), &[0.0; 3]);
        assert_eq!(r.closest_approach(), Some((0, 0.0)));
    }

    #[test]
    fn infinite_obstacle_distance_ignored() {
        let mut r = MissionRecord::new(1, 0.1);
        r.push_sample(0.0, &[Vec3::ZERO], &[Vec3::ZERO], &[f64::INFINITY]);
        assert_eq!(r.vdo(DroneId(0)), None);
    }
}
