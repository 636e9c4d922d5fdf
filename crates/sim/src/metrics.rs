//! Swarm-level order metrics.
//!
//! These are the standard flocking quality measures from the Vásárhelyi
//! et al. evaluation — velocity correlation, inter-agent distances and swarm
//! extent — used by tests to confirm the controller actually flocks, and by
//! examples to report mission quality.

use swarm_math::Vec3;

use crate::spatial::SpatialGrid;

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

/// Grid-accelerated [`min_inter_distance`]: returns exactly the same value
/// without visiting all O(n²) pairs.
///
/// Two passes over the index built from `positions`: first an upper bound on
/// the minimum (each drone's 3-D distance to its horizontally nearest
/// neighbor — any realized pair distance bounds the true minimum from
/// above), then a radius-limited scan that can only visit pairs at most that
/// far apart. The minimum is order-independent, so the result is bit-equal
/// to the brute-force scan.
pub fn min_inter_distance_grid(positions: &[Vec3], grid: &SpatialGrid) -> Option<f64> {
    if positions.len() < 2 {
        return None;
    }
    debug_assert_eq!(grid.len(), positions.len(), "grid must index `positions`");
    let mut bound = f64::INFINITY;
    for (i, &p) in positions.iter().enumerate() {
        if let Some(&(_, q)) = grid.k_nearest(p, 1, Some(crate::DroneId(i))).first() {
            bound = bound.min(p.distance(q));
        }
    }
    let mut best = f64::INFINITY;
    for (i, &p) in positions.iter().enumerate() {
        for (j, q) in grid.within(p, bound) {
            if j.index() > i {
                best = best.min(p.distance(q));
            }
        }
    }
    Some(best)
}

/// Mean 3-D distance over the pairs within horizontal `radius` of each
/// other — a local-cohesion signal that, unlike the all-pairs mean, stays
/// cheap on large swarms (O(n + close pairs) via the grid broad phase).
///
/// `None` when no pair is within `radius`.
pub fn mean_neighbor_distance(positions: &[Vec3], grid: &SpatialGrid, radius: f64) -> Option<f64> {
    debug_assert_eq!(grid.len(), positions.len(), "grid must index `positions`");
    let mut pairs = Vec::new();
    grid.close_pairs(radius, &mut pairs);
    if pairs.is_empty() {
        return None;
    }
    let sum: f64 =
        pairs.iter().map(|&(i, j)| positions[i.index()].distance(positions[j.index()])).sum();
    Some(sum / pairs.len() as f64)
}

/// Grid-accelerated [`swarm_extent`]: the centre of mass comes from the
/// positions slice (same summation order as the dense variant) and the
/// maximum is order-independent, so the result is bit-equal to
/// [`swarm_extent`].
pub fn swarm_extent_grid(positions: &[Vec3], grid: &SpatialGrid) -> Option<f64> {
    debug_assert_eq!(grid.len(), positions.len(), "grid must index `positions`");
    let com = center_of_mass(positions)?;
    // The extent needs every drone once, so a huge-radius grid query (which
    // degrades to a deterministic scan of the occupied cells) is the honest
    // way to source the positions from the index.
    grid.within(com, f64::INFINITY)
        .map(|(_, p)| p.distance(com))
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

    #[test]
    fn grid_variants_match_brute_force_exactly() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x4D45_5452);
        for case in 0..32 {
            let n = 2 + (case % 15) * 4;
            let positions: Vec<Vec3> = (0..n)
                .map(|_| {
                    Vec3::new(
                        rng.gen_range(-60.0..60.0),
                        rng.gen_range(-60.0..60.0),
                        rng.gen_range(0.0..20.0),
                    )
                })
                .collect();
            let cell = rng.gen_range(0.5..20.0);
            let grid = SpatialGrid::build(&positions, cell);
            assert_eq!(
                min_inter_distance_grid(&positions, &grid),
                min_inter_distance(&positions),
                "min diverged (case {case}, n {n}, cell {cell})"
            );
            assert_eq!(
                swarm_extent_grid(&positions, &grid),
                swarm_extent(&positions),
                "extent diverged (case {case})"
            );
        }
    }

    #[test]
    fn grid_variants_handle_degenerate_swarms() {
        let grid = SpatialGrid::build(&[], 1.0);
        assert_eq!(min_inter_distance_grid(&[], &grid), None);
        assert_eq!(swarm_extent_grid(&[], &grid), None);
        assert_eq!(mean_neighbor_distance(&[], &grid, 5.0), None);

        let one = vec![Vec3::ZERO];
        let grid = SpatialGrid::build(&one, 1.0);
        assert_eq!(min_inter_distance_grid(&one, &grid), None);
        assert_eq!(swarm_extent_grid(&one, &grid), Some(0.0));

        // Coincident drones: the minimum distance is exactly zero.
        let twins = vec![Vec3::new(3.0, 3.0, 3.0); 3];
        let grid = SpatialGrid::build(&twins, 2.0);
        assert_eq!(min_inter_distance_grid(&twins, &grid), Some(0.0));
    }

    #[test]
    fn mean_neighbor_distance_averages_close_pairs_only() {
        // Two pairs 1 m apart, the pairs themselves far from each other.
        let p = vec![
            Vec3::ZERO,
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(100.0, 0.0, 0.0),
            Vec3::new(101.0, 0.0, 0.0),
        ];
        let grid = SpatialGrid::build(&p, 2.0);
        let mean = mean_neighbor_distance(&p, &grid, 2.0).unwrap();
        assert!((mean - 1.0).abs() < 1e-12);
        assert_eq!(mean_neighbor_distance(&p, &grid, 0.5), None);
    }
}
