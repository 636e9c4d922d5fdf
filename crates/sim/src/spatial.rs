//! A uniform-grid spatial index for neighbor queries.
//!
//! The simulation runner indexes the swarm for two consumers. Its collision
//! broad phase, at every swarm size, keeps a cached list of candidate pairs
//! and re-indexes only once some drone has drifted far enough to invalidate
//! it, so most physics steps pay a displacement check instead of the
//! n(n−1)/2 pair distances. Comms delivery switches to per-broadcast range
//! queries at [`GRID_AUTO_THRESHOLD`] drones: a query within a radius costs
//! O(occupied cells) instead of O(n), and enumerating all close pairs costs
//! O(n + pairs) instead of O(n²).
//!
//! The index is rebuilt (per control tick for comms, lazily for collisions)
//! rather than updated incrementally — a rebuild is one sort of n entries,
//! which is far cheaper than the scans it replaces and keeps the structure
//! trivially consistent.
//!
//! Determinism: the backing store is a sorted entry list, not a hash map,
//! and both queries hand their candidates back sorted by drone id — the
//! iteration order of the brute-force scans they replace, so the comms bus
//! and the collision scan consume them exactly as they would the dense loop
//! (see [`SpatialGrid::within_into`] and [`SpatialGrid::close_pairs`]).

use swarm_math::Vec3;

use crate::DroneId;

/// Swarm size at or above which [`SpatialPolicy::Auto`] delivers comms
/// through the grid. Smaller swarms keep the dense scan of every receiver
/// per broadcast, which is faster there; the paper's missions have unlimited
/// radio range, so their comms never consult an index at all.
pub const GRID_AUTO_THRESHOLD: usize = 32;

/// Whether the simulation runner uses the grid where it pays or flies the
/// brute-force O(n²) neighbor scans everywhere.
///
/// The two paths are bit-identical by construction (proven by
/// `tests/grid_equivalence.rs`), so the policy is purely a performance
/// choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpatialPolicy {
    /// The lazy collision broad phase at every swarm size; comms through the
    /// grid at or above [`GRID_AUTO_THRESHOLD`] drones.
    #[default]
    Auto,
    /// No grid: every physics step scans all drone pairs for collisions and
    /// every broadcast scans all receivers. The brute-force reference of the
    /// differential tests and the grid benchmarks.
    ForceOff,
}

impl SpatialPolicy {
    /// `true` when comms delivery for a swarm of `n` drones queries the grid.
    pub fn comms_grid_enabled(self, n: usize) -> bool {
        self == SpatialPolicy::Auto && n >= GRID_AUTO_THRESHOLD
    }
}

/// One indexed drone: cell key, id and position, sorted by (key, id).
type Entry = ((i64, i64), DroneId, Vec3);

/// A rebuild-per-tick uniform grid over horizontal space.
///
/// Cells are square with side `cell_size`; entries are bucketed by their
/// horizontal (x, y) position. The index borrows nothing: positions are
/// copied in, so it can outlive the slice it was built from. Rebuilding via
/// [`SpatialGrid::rebuild`] reuses the internal allocations.
///
/// ```
/// use swarm_math::Vec3;
/// use swarm_sim::spatial::SpatialGrid;
/// use swarm_sim::DroneId;
///
/// let positions = vec![Vec3::ZERO, Vec3::new(3.0, 0.0, 0.0), Vec3::new(50.0, 0.0, 0.0)];
/// let grid = SpatialGrid::build(&positions, 10.0);
/// let mut near = Vec::new();
/// grid.within_into(Vec3::ZERO, 5.0, &mut near);
/// let ids: Vec<DroneId> = near.iter().map(|&(id, _)| id).collect();
/// assert_eq!(ids, [DroneId(0), DroneId(1)]); // self + the drone 3 m away
/// ```
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    cell_size: f64,
    /// All indexed drones, sorted by (cell key, drone id).
    entries: Vec<Entry>,
    /// Directory of occupied cells: (key, start, end) into `entries`,
    /// sorted by key for binary search.
    cells: Vec<((i64, i64), usize, usize)>,
}

impl SpatialGrid {
    /// Builds the grid from drone positions (index = drone id).
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive.
    pub fn build(positions: &[Vec3], cell_size: f64) -> Self {
        let mut grid = SpatialGrid { cell_size, entries: Vec::new(), cells: Vec::new() };
        grid.rebuild(positions, cell_size);
        grid
    }

    /// Re-indexes the grid in place, reusing the internal allocations. This
    /// is the per-tick path of the simulation runner.
    ///
    /// Between consecutive physics steps drones move a tiny fraction of a
    /// cell, so most rebuilds change no cell key at all. The fast path
    /// updates positions through the stored ids and skips the sort (and the
    /// directory rebuild) whenever the (key, id) order is undisturbed; the
    /// result is bit-identical to a from-scratch build.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive.
    pub fn rebuild(&mut self, positions: &[Vec3], cell_size: f64) {
        assert!(cell_size > 0.0, "cell size must be positive, got {cell_size}");
        if positions.len() == self.entries.len() && cell_size == self.cell_size {
            let mut keys_changed = false;
            for entry in &mut self.entries {
                let p = positions[entry.1.index()];
                let key = Self::key(p, cell_size);
                keys_changed |= key != entry.0;
                entry.0 = key;
                entry.2 = p;
            }
            if !keys_changed {
                return; // directory spans are still exact
            }
            if self.entries.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)) {
                self.rebuild_directory();
                return;
            }
        } else {
            self.cell_size = cell_size;
            self.entries.clear();
            self.entries.extend(
                positions
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| (Self::key(p, cell_size), DroneId(i), p)),
            );
        }
        // Drone ids are unique, so (key, id) is a total order and the sort
        // (and therefore every query) is fully deterministic.
        self.entries.sort_unstable_by_key(|a| (a.0, a.1));
        self.rebuild_directory();
    }

    fn rebuild_directory(&mut self) {
        self.cells.clear();
        let mut start = 0;
        for i in 1..=self.entries.len() {
            if i == self.entries.len() || self.entries[i].0 != self.entries[start].0 {
                self.cells.push((self.entries[start].0, start, i));
                start = i;
            }
        }
    }

    fn key(p: Vec3, cell: f64) -> (i64, i64) {
        ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64)
    }

    /// Decides between a ring scan and a full scan of the occupied cells for
    /// a query of `radius`: `(scan_all, ring_half_width_in_cells)`. Falls
    /// back to the full scan when the ring would span more cells than the
    /// grid occupies (including infinite/huge radii, which would overflow
    /// the ring arithmetic).
    fn ring_plan(&self, radius: f64) -> (bool, i64) {
        let r_cells = (radius / self.cell_size).ceil();
        let ring_cells = (2.0 * r_cells + 1.0).powi(2);
        let scan_all =
            !ring_cells.is_finite() || ring_cells > (self.cells.len().saturating_mul(4)) as f64;
        (scan_all, if scan_all { 0 } else { r_cells as i64 })
    }

    /// Entry slices of the occupied cells `(cx, y)` with `y_lo <= y <= y_hi`.
    ///
    /// Cells with equal `cx` and consecutive `y` are adjacent in the
    /// lexicographically sorted directory, so a whole stencil row costs one
    /// binary search plus a linear walk — instead of one search per cell.
    fn row_cells(&self, cx: i64, y_lo: i64, y_hi: i64) -> impl Iterator<Item = &[Entry]> {
        let start = self.cells.partition_point(move |c| c.0 < (cx, y_lo));
        self.cells[start..]
            .iter()
            .take_while(move |c| c.0 <= (cx, y_hi))
            .map(|c| &self.entries[c.1..c.2])
    }

    /// Number of indexed drones.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no drones are indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All drones within horizontal distance `radius` of `center`
    /// (including a drone exactly at `center`), into a reusable buffer,
    /// **sorted by drone id** — exactly the iteration order of a brute-force
    /// `0..n` scan, so callers that consume randomness or mutate state per
    /// candidate behave bit-identically to the dense path.
    ///
    /// Scans the ring of candidate cells when that is small, and falls back
    /// to scanning the occupied cells directly when the query radius spans
    /// more cells than the grid occupies (avoids a quadratic blow-up for
    /// huge radii over sparse grids).
    ///
    /// Clears `out` first. Returns the number of cells probed (telemetry).
    pub fn within_into(&self, center: Vec3, radius: f64, out: &mut Vec<(DroneId, Vec3)>) -> u64 {
        out.clear();
        let (scan_all, r_cells) = self.ring_plan(radius);
        let (cx, cy) = Self::key(center, self.cell_size);
        let radius2 = radius * radius;
        let mut probed = 0u64;
        let scan = |cell: &[Entry], out: &mut Vec<(DroneId, Vec3)>| {
            for &(_, id, p) in cell {
                let dx = p.x - center.x;
                let dy = p.y - center.y;
                if dx * dx + dy * dy <= radius2 {
                    out.push((id, p));
                }
            }
        };
        if scan_all {
            probed += self.cells.len() as u64;
            scan(&self.entries, out);
        } else {
            for dx in -r_cells..=r_cells {
                for cell in self.row_cells(cx + dx, cy - r_cells, cy + r_cells) {
                    probed += 1;
                    scan(cell, out);
                }
            }
        }
        out.sort_unstable_by_key(|&(id, _)| id);
        probed
    }

    /// All unordered pairs `(i, j)` with `i < j` whose **horizontal**
    /// distance is at most `radius`, sorted lexicographically — exactly the
    /// order a brute-force `for i { for j in i+1.. }` scan visits them.
    ///
    /// This is the collision broad phase: the caller applies its exact
    /// (3-D) narrow-phase test to the returned candidates. Cost is
    /// O(occupied cells · stencil + pairs); choose `cell_size ≈ radius` so
    /// the stencil stays small.
    ///
    /// Clears `out` first. Returns the number of cells probed (telemetry).
    pub fn close_pairs(&self, radius: f64, out: &mut Vec<(DroneId, DroneId)>) -> u64 {
        out.clear();
        let r_cells = (radius / self.cell_size).ceil() as i64;
        let radius2 = radius * radius;
        let close = |a: Vec3, b: Vec3| {
            let dx = a.x - b.x;
            let dy = a.y - b.y;
            dx * dx + dy * dy <= radius2
        };
        // Forward half-stencil: every unordered cell pair is visited exactly
        // once, from its lexicographically smaller cell.
        let offsets: Vec<(i64, i64)> = (0..=r_cells)
            .flat_map(|dx| (-r_cells..=r_cells).map(move |dy| (dx, dy)))
            .filter(|&(dx, dy)| !(dx == 0 && dy <= 0))
            .collect();
        // As the outer loop walks `cells` in lex key order, the target key
        // of a fixed offset is strictly increasing too, so one monotonic
        // cursor per offset replaces a binary search per probe: total
        // directory work is O(offsets · cells) instead of
        // O(offsets · cells · log cells).
        let mut cursors = vec![0usize; offsets.len()];
        let mut probed = 0u64;
        for &(key, start, end) in &self.cells {
            let cell = &self.entries[start..end];
            // Pairs within the cell (ids ascend inside a cell).
            for (x, &(_, ia, pa)) in cell.iter().enumerate() {
                for &(_, ib, pb) in &cell[x + 1..] {
                    if close(pa, pb) {
                        out.push((ia, ib));
                    }
                }
            }
            for (o, &(dx, dy)) in offsets.iter().enumerate() {
                probed += 1;
                let target = (key.0 + dx, key.1 + dy);
                let c = &mut cursors[o];
                while *c < self.cells.len() && self.cells[*c].0 < target {
                    *c += 1;
                }
                let Some(&(k, s, e)) = self.cells.get(*c) else { continue };
                if k != target {
                    continue;
                }
                let other = &self.entries[s..e];
                for &(_, ia, pa) in cell {
                    for &(_, ib, pb) in other {
                        if close(pa, pb) {
                            out.push(if ia < ib { (ia, ib) } else { (ib, ia) });
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        probed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize, spacing: f64) -> Vec<Vec3> {
        (0..n).map(|i| Vec3::new(i as f64 * spacing, 0.0, 10.0)).collect()
    }

    fn brute_within(positions: &[Vec3], center: Vec3, radius: f64) -> Vec<usize> {
        positions
            .iter()
            .enumerate()
            .filter(|(_, p)| p.horizontal_distance(center) <= radius)
            .map(|(j, _)| j)
            .collect()
    }

    /// The ids [`SpatialGrid::within_into`] returns, in its order.
    fn within_ids(grid: &SpatialGrid, center: Vec3, radius: f64) -> Vec<usize> {
        let mut buf = Vec::new();
        grid.within_into(center, radius, &mut buf);
        buf.iter().map(|&(id, _)| id.index()).collect()
    }

    #[test]
    fn within_matches_brute_force() {
        let positions = line(20, 3.0);
        let grid = SpatialGrid::build(&positions, 5.0);
        for &radius in &[1.0, 4.0, 10.0, 100.0] {
            for (i, &c) in positions.iter().enumerate() {
                let got = within_ids(&grid, c, radius);
                assert_eq!(got, brute_within(&positions, c, radius), "query {i} radius {radius}");
            }
        }
    }

    #[test]
    fn within_into_is_sorted_by_id_and_matches_within() {
        let positions = vec![
            Vec3::new(4.0, 0.0, 0.0),
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(2.0, 1.0, 0.0),
            Vec3::new(9.0, 9.0, 0.0),
        ];
        let grid = SpatialGrid::build(&positions, 2.5);
        let mut buf = Vec::new();
        let probed = grid.within_into(Vec3::ZERO, 5.0, &mut buf);
        assert!(probed > 0);
        let ids: Vec<usize> = buf.iter().map(|&(id, _)| id.index()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(ids, brute_within(&positions, Vec3::ZERO, 5.0));
    }

    #[test]
    fn close_pairs_matches_brute_force_and_is_lex_sorted() {
        let positions = vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 5.0), // altitude ignored: horizontal pairs only
            Vec3::new(1.0, 1.0, 0.0),
            Vec3::new(10.0, 0.0, 0.0),
            Vec3::new(10.5, 0.5, 0.0),
            Vec3::new(0.0, 0.0, 0.0), // coincident with drone 0
        ];
        let grid = SpatialGrid::build(&positions, 1.5);
        let mut pairs = Vec::new();
        grid.close_pairs(1.5, &mut pairs);
        let mut expect = Vec::new();
        for i in 0..positions.len() {
            for j in (i + 1)..positions.len() {
                if positions[i].horizontal_distance(positions[j]) <= 1.5 {
                    expect.push((DroneId(i), DroneId(j)));
                }
            }
        }
        assert_eq!(pairs, expect, "close_pairs must be the lex-sorted brute-force pair set");
    }

    #[test]
    fn rebuild_reuses_and_reindexes() {
        let mut grid = SpatialGrid::build(&line(5, 2.0), 3.0);
        assert_eq!(grid.len(), 5);
        grid.rebuild(&line(3, 10.0), 4.0);
        assert_eq!(grid.len(), 3);
        assert_eq!(within_ids(&grid, Vec3::new(0.0, 0.0, 10.0), 1.0), vec![0]);
        assert_eq!(within_ids(&grid, Vec3::new(10.0, 0.0, 10.0), 10.0), vec![0, 1, 2]);
        grid.rebuild(&[], 1.0);
        assert!(grid.is_empty());
    }

    #[test]
    fn within_ignores_altitude() {
        let positions = vec![Vec3::new(0.0, 0.0, 0.0), Vec3::new(1.0, 0.0, 500.0)];
        let grid = SpatialGrid::build(&positions, 10.0);
        assert_eq!(within_ids(&grid, Vec3::ZERO, 2.0), vec![0, 1]);
    }

    #[test]
    fn zero_radius_finds_coincident_drones() {
        let positions = vec![Vec3::ZERO, Vec3::ZERO, Vec3::new(0.5, 0.0, 0.0)];
        let grid = SpatialGrid::build(&positions, 1.0);
        let mut buf = Vec::new();
        grid.within_into(Vec3::ZERO, 0.0, &mut buf);
        let ids: Vec<usize> = buf.iter().map(|&(id, _)| id.index()).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn empty_grid() {
        let grid = SpatialGrid::build(&[], 1.0);
        assert!(grid.is_empty());
        let mut buf = vec![(DroneId(7), Vec3::ZERO)];
        assert_eq!(grid.within_into(Vec3::ZERO, 100.0, &mut buf), 0);
        assert!(buf.is_empty(), "within_into clears its buffer");
        let mut pairs = Vec::new();
        grid.close_pairs(5.0, &mut pairs);
        assert!(pairs.is_empty());
    }

    #[test]
    fn negative_coordinates_bucket_correctly() {
        let positions = vec![Vec3::new(-0.5, -0.5, 0.0), Vec3::new(0.5, 0.5, 0.0)];
        let grid = SpatialGrid::build(&positions, 1.0);
        assert_eq!(within_ids(&grid, Vec3::ZERO, 1.0), vec![0, 1]);
    }

    #[test]
    fn policy_resolution() {
        assert!(!SpatialPolicy::Auto.comms_grid_enabled(GRID_AUTO_THRESHOLD - 1));
        assert!(SpatialPolicy::Auto.comms_grid_enabled(GRID_AUTO_THRESHOLD));
        assert!(!SpatialPolicy::ForceOff.comms_grid_enabled(1_000));
    }

    #[test]
    #[should_panic(expected = "cell size must be positive")]
    fn zero_cell_size_panics() {
        SpatialGrid::build(&[], 0.0);
    }
}
