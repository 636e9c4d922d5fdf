//! Shared plumbing for the benchmark harness.
//!
//! Every table/figure regenerator (`benches/*.rs`, `harness = false`) uses
//! these helpers so the whole suite is driven by the same controller
//! configuration, mission counts and output conventions. Each
//! campaign-driven regenerator flies its own campaign through
//! [`run_with_progress`] and reads nothing back from disk, so every
//! committed CSV is what the code gives.
//!
//! Mission counts are environment-tunable:
//!
//! * `SWARMFUZZ_MISSIONS` — missions per configuration for campaign-style
//!   benches (default [`DEFAULT_MISSIONS`], the paper's 100);
//! * `SWARMFUZZ_WORKERS` — worker threads for campaigns (default: available
//!   parallelism). Reports do not depend on it.
//!
//! Results are printed as the paper's table rows and also written as CSV
//! under `bench_results/`; a run at the default mission count rewrites the
//! committed files byte for byte.
//!
//! Beside the regenerators' plumbing this crate holds the one timing
//! harness behind every performance gate, [`paired_ratio`] (run by
//! `benches/micro.rs`), and the neighbor-search kernel
//! ([`NeighborKernel`]) that the scaling ladder and the micro gate time.

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use swarm_control::{VasarhelyiController, VasarhelyiParams};
use swarm_math::Vec3;
use swarm_sim::mission::MissionSpec;
use swarm_sim::recorder::MissionRecord;
use swarm_sim::{DroneId, SpatialGrid, SwarmController};
use swarmfuzz::campaign::{run_campaign_with_options, CampaignConfig, CampaignReport, SwarmConfig};
use swarmfuzz::trace::ProgressSink;
use swarmfuzz::{Fuzzer, FuzzerConfig, Trace};

/// Default number of missions per configuration: the paper's 100, so the
/// committed tables and figures are the paper's sample size.
pub const DEFAULT_MISSIONS: usize = 100;

/// The controller configuration every experiment runs with (the crate
/// defaults are the tuned reproduction parameters).
pub fn paper_controller() -> VasarhelyiController {
    VasarhelyiController::new(VasarhelyiParams::default())
}

/// Missions per configuration, honouring `SWARMFUZZ_MISSIONS`.
pub fn missions_per_config() -> usize {
    std::env::var("SWARMFUZZ_MISSIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_MISSIONS)
}

/// Worker threads, honouring `SWARMFUZZ_WORKERS`.
pub fn workers() -> usize {
    std::env::var("SWARMFUZZ_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// The paper's six-configuration campaign grid with env-tuned mission count.
pub fn paper_campaign() -> CampaignConfig {
    let mut c = CampaignConfig::paper_grid(missions_per_config(), 0xC0FFEE);
    c.workers = workers();
    c
}

/// Builds the standard SwarmFuzz fuzzer for a deviation.
pub fn swarmfuzz_fuzzer(deviation: f64) -> Fuzzer<VasarhelyiController> {
    Fuzzer::new(paper_controller(), FuzzerConfig::swarmfuzz(deviation))
}

/// Directory where benches drop their CSVs (`bench_results/` at the
/// workspace root).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; results live at the workspace root.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("bench_results");
    p
}

/// Flies `campaign` with `make_fuzzer`, printing a progress line to stderr
/// every `missions_per_config` missions (every 5 when there are fewer).
/// Every campaign-driven regenerator flies its own campaign through this
/// runner; nothing is read back from an earlier run.
pub fn run_with_progress<C, F>(campaign: &CampaignConfig, make_fuzzer: F) -> CampaignReport
where
    C: SwarmController + Clone + Send + 'static,
    F: Fn(f64) -> Fuzzer<C> + Sync,
{
    eprintln!(
        "[bench] running campaign: {} configs x {} missions (set SWARMFUZZ_MISSIONS to change)",
        campaign.configs.len(),
        campaign.missions_per_config
    );
    let progress = ProgressSink::new((campaign.missions_per_config as u64).max(5));
    run_campaign_with_options(
        campaign,
        make_fuzzer,
        &Default::default(),
        &Trace::new(Arc::new(progress)),
    )
    .expect("campaign must run")
}

/// The paper's SwarmFuzz campaign over [`paper_campaign`]'s grid, the one
/// Tables I–II, Figs. 6–7 and the defense-evasion and wind extensions read.
pub fn paper_campaign_report() -> CampaignReport {
    run_with_progress(&paper_campaign(), swarmfuzz_fuzzer)
}

/// Mean ns/iteration of one timed batch of `iters` calls.
pub fn time_batch(iters: usize, f: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// First quartile, median and third quartile of `xs`, linearly
/// interpolated between order statistics (so an odd-length median is the
/// middle value and an even-length one the mean of the two middle values).
pub fn quartiles(mut xs: Vec<f64>) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    xs.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let h = (xs.len() - 1) as f64 * p;
        let (lo, frac) = (h.floor() as usize, h.fract());
        let hi = (lo + 1).min(xs.len() - 1);
        xs[lo] + frac * (xs[hi] - xs[lo])
    };
    [at(0.25), at(0.5), at(0.75)]
}

/// What [`paired_ratio`] measured.
#[derive(Debug, Clone, Copy)]
pub struct PairedRatio {
    /// First quartile, median and third quartile of the per-pair ratio of
    /// A's time to B's time.
    pub ratio: [f64; 3],
    /// Median ns/iteration of side A.
    pub a_ns: f64,
    /// Median ns/iteration of side B.
    pub b_ns: f64,
}

/// Times `pairs` pairs of `iters` calls of side `a` and side `b`, after one
/// warm-up call of each. Within a pair the sides alternate call by call and
/// every call is timed on its own; which side goes first alternates from
/// call to call and from pair to pair (A first when `pair + call` is even).
/// So machine drift and bursts of other load (clock frequency, a
/// neighbour's job) land on both sides of a pair alike instead of on one
/// side's whole batch. Prints each side's median ns/iteration and returns
/// them with the quartiles of the per-pair A/B time ratio.
pub fn paired_ratio(
    name: &str,
    pairs: usize,
    iters: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> PairedRatio {
    a();
    b();
    let (mut a_ns, mut b_ns, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..pairs {
        let (mut ta, mut tb) = (0.0, 0.0);
        for call in 0..iters {
            if (pair + call) % 2 == 0 {
                ta += time_batch(1, &mut a);
                tb += time_batch(1, &mut b);
            } else {
                tb += time_batch(1, &mut b);
                ta += time_batch(1, &mut a);
            }
        }
        a_ns.push(ta / iters as f64);
        b_ns.push(tb / iters as f64);
        ratios.push(ta / tb);
    }
    let r = PairedRatio {
        ratio: quartiles(ratios),
        a_ns: quartiles(a_ns)[1],
        b_ns: quartiles(b_ns)[1],
    };
    println!(
        "{name:<40} A {:>12.0} ns/iter, B {:>12.0} ns/iter (medians of {pairs} pairs)",
        r.a_ns, r.b_ns
    );
    r
}

/// The neighbor-search work of two consecutive control periods of a
/// recorded flight, done brute force ([`NeighborKernel::brute`]) and
/// through the spatial grid ([`NeighborKernel::grid`]), each structured as
/// the mission runner structures it. This isolates exactly the work the
/// grid replaces; the scaling ladder and the micro bench's
/// `grid_kernel_speedup_n200` gate both time it.
pub struct NeighborKernel {
    snapshots: [Vec<Vec3>; 2],
    steps_per_control: usize,
    range: f64,
    diameter: f64,
    broad_radius: f64,
}

impl NeighborKernel {
    /// The kernel on ticks `len / 2` and `len / 2 + 1` of `record`, a
    /// flight of `spec` (which must set a comms range). Two consecutive
    /// ticks, alternated, let the grid's rebuild fast path see realistic
    /// drone motion rather than a frozen swarm.
    pub fn mid_mission(spec: &MissionSpec, record: &MissionRecord) -> Self {
        let mid = record.len() / 2;
        let steps_per_control = spec.steps_per_control();
        let diameter = 2.0 * spec.drone.radius;
        let broad_slack =
            (2.0 * steps_per_control as f64 * spec.drone.max_speed * spec.physics_dt).max(diameter);
        NeighborKernel {
            snapshots: [record.positions_at(mid).to_vec(), record.positions_at(mid + 1).to_vec()],
            steps_per_control,
            range: spec.comms.range.expect("the neighbor kernel needs a comms range"),
            diameter,
            broad_radius: diameter + broad_slack,
        }
    }

    /// Brute force, one call per two control periods: per tick,
    /// `steps_per_control` alive-checked collision pair scans emitting
    /// candidate pairs as `check_pair` consumes them, plus one dense n×n
    /// comms range scan emitting per-sender candidate lists.
    pub fn brute(&self) -> impl FnMut() + '_ {
        let n = self.snapshots[0].len();
        let alive = vec![true; n];
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        let mut candidates = Vec::new();
        move || {
            for positions in &self.snapshots {
                for _ in 0..self.steps_per_control {
                    pairs.clear();
                    for i in 0..n {
                        for j in (i + 1)..n {
                            if alive[i]
                                && alive[j]
                                && positions[i].distance(positions[j]) <= self.diameter
                            {
                                pairs.push((i, j));
                            }
                        }
                    }
                    black_box(pairs.len());
                }
                for &sender in positions {
                    candidates.clear();
                    for (j, &receiver) in positions.iter().enumerate() {
                        if receiver.distance(sender) <= self.range {
                            candidates.push((DroneId(j), receiver));
                        }
                    }
                    black_box(candidates.len());
                }
            }
        }
    }

    /// The grid, one call per two control periods: per tick, the per-step
    /// displacement guard, one broad-phase re-index plus pair enumeration
    /// (the lazy broad phase re-indexes about once per control period at
    /// full speed), and one comms re-index plus a range query per drone.
    /// Allocations are reused across calls, as in the runner. Below
    /// [`GRID_AUTO_THRESHOLD`](swarm_sim::GRID_AUTO_THRESHOLD) drones the
    /// runner delivers comms densely, so there this side times comms work
    /// no mission does.
    pub fn grid(&self) -> impl FnMut() + '_ {
        let mut broad = SpatialGrid::build(&self.snapshots[0], self.broad_radius);
        let mut comms = SpatialGrid::build(&self.snapshots[0], self.range);
        let mut pairs = Vec::new();
        let mut candidates = Vec::new();
        let guard = self.broad_radius * self.broad_radius / 4.0;
        move || {
            for (s, positions) in self.snapshots.iter().enumerate() {
                let anchor = &self.snapshots[1 - s];
                let mut moved = 0usize;
                for _ in 0..self.steps_per_control {
                    for (p, a) in positions.iter().zip(anchor) {
                        if p.distance_squared(*a) > guard {
                            moved += 1;
                        }
                    }
                }
                black_box(moved);
                broad.rebuild(positions, self.broad_radius);
                broad.close_pairs(self.broad_radius, &mut pairs);
                black_box(pairs.len());
                comms.rebuild(positions, self.range);
                for &p in positions {
                    comms.within_into(p, self.range, &mut candidates);
                    black_box(candidates.len());
                }
            }
        }
    }
}

/// Formats a success rate as the paper prints it ("49%").
pub fn percent(x: f64) -> String {
    format!("{:.0}%", x * 100.0)
}

/// Pretty-prints one table with a title, header and rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    println!("{}", header.join("\t"));
    for row in rows {
        println!("{}", row.join("\t"));
    }
}

/// The six paper configurations in Table I order (5 m row first).
pub fn paper_configs() -> Vec<SwarmConfig> {
    CampaignConfig::paper_grid(1, 0).configs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_cover_grid() {
        let c = paper_configs();
        assert_eq!(c.len(), 6);
    }

    #[test]
    fn percent_formats_like_paper() {
        assert_eq!(percent(0.488), "49%");
        assert_eq!(percent(0.0), "0%");
    }

    #[test]
    fn results_dir_is_workspace_level() {
        let d = results_dir();
        assert!(d.ends_with("bench_results"));
        assert!(d.parent().unwrap().join("Cargo.toml").exists());
    }

    #[test]
    fn env_overrides_missions() {
        // No env set in tests: default applies.
        assert!(missions_per_config() >= 1);
    }

    #[test]
    fn quartiles_interpolate_odd_and_even_samples() {
        assert_eq!(quartiles(vec![5.0, 1.0, 3.0, 2.0, 4.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(vec![4.0, 1.0, 3.0, 2.0]), [1.75, 2.5, 3.25]);
        assert_eq!(quartiles(vec![7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    fn paired_ratio_alternates_the_first_side_every_pair() {
        let log = std::cell::RefCell::new(String::new());
        paired_ratio("order", 4, 2, || log.borrow_mut().push('a'), || log.borrow_mut().push('b'));
        // Warm-up, then A first when pair + call is even and B first when odd.
        assert_eq!(log.into_inner(), ["ab", "abba", "baab", "abba", "baab"].concat());
    }
}
