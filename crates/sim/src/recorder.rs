//! Mission recording — the information SwarmFuzz's initial test collects.
//!
//! Paper §IV-A: during the no-attack test run, SwarmFuzz records (1) each
//! drone's location at each timestamp, (2) the minimum distance between each
//! drone and the obstacle over the whole mission (the *VDO* when the drone is
//! considered as a victim), and (3) the mission duration. §IV-B additionally
//! needs the time `t_clo` of the smallest average inter-drone distance, where
//! the SVG is constructed.

use swarm_math::stats::{OnlineMean, OnlineMin};
use swarm_math::Vec3;

use crate::{CollisionEvent, DroneId};

/// A full recording of one mission, sampled at the control rate.
#[derive(Debug, Clone, PartialEq)]
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
    /// Average pairwise inter-drone distance per tick.
    avg_inter_distance: Vec<f64>,
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
            avg_inter_distance: Vec::new(),
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
        let mut mean = OnlineMean::new();
        for i in 0..self.swarm_size {
            for j in (i + 1)..self.swarm_size {
                mean.observe(positions[i].distance(positions[j]));
            }
        }
        self.avg_inter_distance.push(mean.mean().unwrap_or(0.0));
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
    pub fn closest_approach(&self) -> Option<(usize, f64)> {
        let (idx, _) = self
            .avg_inter_distance
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))?;
        Some((idx, self.times[idx]))
    }

    /// Average inter-drone distance per recorded tick.
    pub fn avg_inter_distances(&self) -> &[f64] {
        &self.avg_inter_distance
    }
}

#[cfg(test)]
mod tests {
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
        assert_eq!(r.vdo(DroneId(0)), None);
        assert_eq!(r.mission_vdo(), None);
    }

    #[test]
    fn infinite_obstacle_distance_ignored() {
        let mut r = MissionRecord::new(1, 0.1);
        r.push_sample(0.0, &[Vec3::ZERO], &[Vec3::ZERO], &[f64::INFINITY]);
        assert_eq!(r.vdo(DroneId(0)), None);
    }
}
