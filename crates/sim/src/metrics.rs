//! Swarm-level order metrics.
//!
//! These are the standard flocking quality measures from the Vásárhelyi
//! et al. evaluation — velocity correlation, inter-agent distances and swarm
//! extent. The recorder derives each tick's average inter-drone distance
//! (and so the closest approach the SVG is built at) with
//! [`mean_inter_distance`], `swarmfuzz stress` reports the last tick's
//! minimum separation and extent, and the integration tests use them to
//! confirm the controller actually flocks.

use swarm_math::Vec3;

/// Mean pairwise velocity correlation φ_corr ∈ [−1, 1].
///
/// 1 means all drones fly perfectly parallel; 0 means uncorrelated headings.
/// Drones with (near-)zero velocity are skipped. Returns `None` when fewer
/// than two drones have meaningful velocities.
pub fn velocity_correlation(velocities: &[Vec3]) -> Option<f64> {
    let dirs: Vec<Vec3> =
        velocities.iter().filter(|v| v.norm() > 1e-9).map(|v| v.normalized()).collect();
    if dirs.len() < 2 {
        return None;
    }
    let mut sum = 0.0;
    let mut count = 0usize;
    for i in 0..dirs.len() {
        for j in (i + 1)..dirs.len() {
            sum += dirs[i].dot(dirs[j]);
            count += 1;
        }
    }
    Some(sum / count as f64)
}

/// Minimum pairwise inter-drone distance. `None` for fewer than two drones.
pub fn min_inter_distance(positions: &[Vec3]) -> Option<f64> {
    let mut best: Option<f64> = None;
    for i in 0..positions.len() {
        for j in (i + 1)..positions.len() {
            let d = positions[i].distance(positions[j]);
            best = Some(best.map_or(d, |b: f64| b.min(d)));
        }
    }
    best
}

/// Mean pairwise inter-drone distance. `None` for fewer than two drones.
pub fn mean_inter_distance(positions: &[Vec3]) -> Option<f64> {
    let n = positions.len();
    if n < 2 {
        return None;
    }
    let mut sum = 0.0;
    let mut count = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            sum += positions[i].distance(positions[j]);
            count += 1;
        }
    }
    Some(sum / count as f64)
}

/// Centre of mass of the swarm. `None` for an empty swarm.
pub fn center_of_mass(positions: &[Vec3]) -> Option<Vec3> {
    if positions.is_empty() {
        return None;
    }
    Some(positions.iter().copied().sum::<Vec3>() / positions.len() as f64)
}

/// Largest distance of any drone from the swarm's centre of mass
/// (the swarm "radius"). `None` for an empty swarm.
pub fn swarm_extent(positions: &[Vec3]) -> Option<f64> {
    let com = center_of_mass(positions)?;
    positions
        .iter()
        .map(|p| p.distance(com))
        .max_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_velocities_correlate_perfectly() {
        let v = vec![Vec3::X * 2.0, Vec3::X * 5.0, Vec3::X];
        assert!((velocity_correlation(&v).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn opposite_velocities_anticorrelate() {
        let v = vec![Vec3::X, -Vec3::X];
        assert!((velocity_correlation(&v).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn stationary_drones_are_skipped() {
        let v = vec![Vec3::X, Vec3::ZERO, Vec3::X];
        assert!((velocity_correlation(&v).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(velocity_correlation(&[Vec3::ZERO, Vec3::ZERO]), None);
    }

    #[test]
    fn inter_distance_metrics() {
        let p = vec![Vec3::ZERO, Vec3::new(3.0, 0.0, 0.0), Vec3::new(0.0, 4.0, 0.0)];
        assert_eq!(min_inter_distance(&p), Some(3.0));
        let mean = mean_inter_distance(&p).unwrap();
        assert!((mean - (3.0 + 4.0 + 5.0) / 3.0).abs() < 1e-12);
        // Coincident drones: the minimum distance is exactly zero.
        assert_eq!(min_inter_distance(&[Vec3::new(3.0, 3.0, 3.0); 3]), Some(0.0));
    }

    #[test]
    fn single_drone_has_no_pairwise_metrics() {
        assert_eq!(min_inter_distance(&[Vec3::ZERO]), None);
        assert_eq!(mean_inter_distance(&[Vec3::ZERO]), None);
    }

    #[test]
    fn extent_and_com() {
        let p = vec![Vec3::new(-1.0, 0.0, 0.0), Vec3::new(1.0, 0.0, 0.0)];
        assert_eq!(center_of_mass(&p), Some(Vec3::ZERO));
        assert_eq!(swarm_extent(&p), Some(1.0));
        assert_eq!(center_of_mass(&[]), None);
        assert_eq!(swarm_extent(&[]), None);
    }

    #[test]
    fn com_and_extent_of_a_single_drone() {
        let p = vec![Vec3::new(4.0, -2.0, 9.0)];
        assert_eq!(center_of_mass(&p), Some(p[0]));
        assert_eq!(swarm_extent(&p), Some(0.0));
    }
}
