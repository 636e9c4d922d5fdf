//! Search strategies over the spoofing window `(t_s, Δt)` (paper §IV-C).
//!
//! [`gradient_search_traced`] implements the paper's gradient-guided
//! optimization: partial derivatives of the convex objective `f(t_s, Δt)`
//! are estimated by forward finite differences (each probe = one simulated
//! mission = one *search iteration*), and the projected update of Eq. 1 is
//! applied until a collision is found, the iteration budget runs out, or the
//! search converges without success (which is how the paper's gradient
//! fuzzers stop early while the random fuzzers always exhaust their budget).
//!
//! [`random_search`] implements the ablation baseline: uniform sampling of
//! the window, used by R_Fuzz and S_Fuzz.
//!
//! Both take the seed's [`ShapeBounds`] when its waveform has a shape
//! parameter (ω, jump period): the gradient search then adds the shape as a
//! third finite-difference axis, and the random search draws it after the
//! window. Without bounds both search exactly the paper's `(t_s, Δt)`.

use rand::rngs::StdRng;
use rand::Rng;
use swarm_sim::DroneId;

use crate::objective::{EvalOutcome, Evaluation};
use crate::trace::{Trace, TraceEvent};
use crate::FuzzError;

/// Tuning of the gradient-guided search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradientConfig {
    /// Learning rate `lr` of the projected update (Eq. 1).
    pub learning_rate: f64,
    /// Finite-difference probe step in seconds.
    pub fd_step: f64,
    /// Largest parameter change per descent step in seconds.
    pub max_step: f64,
    /// Convergence: stop when the objective improves by less than this many
    /// metres over one descent step.
    pub tolerance: f64,
}

impl Default for GradientConfig {
    fn default() -> Self {
        GradientConfig { learning_rate: 20.0, fd_step: 1.0, max_step: 10.0, tolerance: 0.05 }
    }
}

/// A successful SPV discovered by a search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchSuccess {
    /// Spoofing start time that triggered the collision.
    pub start: f64,
    /// Spoofing duration that triggered the collision.
    pub duration: f64,
    /// The drone that actually crashed (may differ from the seed's expected
    /// victim).
    pub victim: DroneId,
    /// Collision time in seconds.
    pub collision_time: f64,
}

/// Result of searching one seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchResult {
    /// The SPV, when one was found.
    pub success: Option<SearchSuccess>,
    /// Number of objective evaluations (simulated missions) spent.
    pub evaluations: usize,
    /// `true` when a gradient search stopped because it converged without a
    /// collision (random searches never set this).
    pub converged: bool,
    /// Best (lowest) objective value seen.
    pub best_value: f64,
    /// The shape parameter of the successful probe, or of the best probe
    /// seen when none succeeded; `None` for a search without shape bounds.
    pub shape: Option<f64>,
}

/// Bounds and initial guess for a waveform shape parameter (ω, jump period)
/// searched alongside the spoofing window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShapeBounds {
    /// Smallest feasible shape value.
    pub lo: f64,
    /// Largest feasible shape value.
    pub hi: f64,
    /// Initial guess.
    pub init: f64,
}

impl ShapeBounds {
    fn span(&self) -> f64 {
        (self.hi - self.lo).max(f64::EPSILON)
    }

    fn clamp(&self, s: f64) -> f64 {
        s.clamp(self.lo, self.hi)
    }
}

/// Projects a window onto the feasible region `t_s ≥ 0`, `Δt ≥ 0`,
/// `t_s + Δt < t_mission`: first pulls `t_s` back inside the mission, then
/// shortens `Δt` to fit the remainder.
fn clamp_window(ts: &mut f64, dt: &mut f64, t_mission: f64) {
    if *ts >= t_mission {
        *ts = (t_mission - 1.0).max(0.0);
    }
    if *ts + *dt >= t_mission {
        *dt = (t_mission - *ts - 1.0).max(0.0);
    }
}

fn success_of(e: &Evaluation) -> Option<SearchSuccess> {
    match e.outcome {
        EvalOutcome::SpvCollision { victim, time } => Some(SearchSuccess {
            start: e.start,
            duration: e.duration,
            victim,
            collision_time: time,
        }),
        _ => None,
    }
}

/// Gradient-guided search over the paper's `(t_s, Δt)` from an initial
/// window guess: [`gradient_search_traced`] without shape bounds or trace.
///
/// `objective` maps `(t_s, Δt)` to an [`Evaluation`]; `budget` caps the
/// number of evaluations; `t_mission` bounds `t_s + Δt` (the paper's timing
/// constraint).
///
/// # Errors
///
/// Propagates the first [`FuzzError`] returned by `objective`.
pub fn gradient_search<F>(
    mut objective: F,
    initial: (f64, f64),
    budget: usize,
    t_mission: f64,
    config: &GradientConfig,
) -> Result<SearchResult, FuzzError>
where
    F: FnMut(f64, f64) -> Result<Evaluation, FuzzError>,
{
    gradient_search_traced(
        |ts, dt, _| objective(ts, dt),
        initial,
        None,
        budget,
        t_mission,
        config,
        &Trace::off(),
    )
}

/// Gradient-guided search from an initial window guess.
///
/// `objective` maps `(t_s, Δt, shape)` to an [`Evaluation`]; the shape is
/// `None` unless `bounds` are given, in which case it starts at the clamped
/// initial guess, descends as a third finite-difference axis with a trust
/// region proportional to its bounds, and stays clamped inside them.
/// `budget` caps the number of evaluations; `t_mission` bounds `t_s + Δt`
/// (the paper's timing constraint).
///
/// Each projected descent update (after clamping) is emitted on `trace` as a
/// [`TraceEvent::GradientStep`] of its window axes. The trace is purely
/// observational — the result is identical with tracing off.
///
/// # Errors
///
/// Propagates the first [`FuzzError`] returned by `objective`.
pub fn gradient_search_traced<F>(
    mut objective: F,
    initial: (f64, f64),
    bounds: Option<&ShapeBounds>,
    budget: usize,
    t_mission: f64,
    config: &GradientConfig,
    trace: &Trace,
) -> Result<SearchResult, FuzzError>
where
    F: FnMut(f64, f64, Option<f64>) -> Result<Evaluation, FuzzError>,
{
    let (mut ts, mut dt) = initial;
    clamp_window(&mut ts, &mut dt, t_mission);
    let mut shape = bounds.map(|b| b.clamp(b.init));
    let axes = if bounds.is_some() { 3 } else { 2 };
    let mut evals = 0usize;
    let mut best = f64::INFINITY;
    let mut best_shape = shape;

    macro_rules! probe {
        ($ts:expr, $dt:expr, $shape:expr) => {{
            let probed = $shape;
            let e = objective($ts, $dt, probed)?;
            evals += 1;
            if e.value < best {
                best_shape = probed;
            }
            best = best.min(e.value);
            if let Some(s) = success_of(&e) {
                return Ok(SearchResult {
                    success: Some(s),
                    evaluations: evals,
                    converged: false,
                    best_value: best,
                    shape: probed,
                });
            }
            e
        }};
    }

    let mut current = probe!(ts, dt, shape);

    while evals + axes <= budget {
        // Forward finite differences (each probe is one mission).
        let h = config.fd_step;
        let e_ts = probe!(ts + h, dt, shape);
        let e_dt = probe!(ts, dt + h, shape);
        let g_ts = (e_ts.value - current.value) / h;
        let g_dt = (e_dt.value - current.value) / h;
        let (mut g_sh, mut next_shape) = (0.0, shape);
        if let Some((b, s)) = bounds.zip(shape) {
            let h_shape = 0.05 * b.span();
            let e_sh = probe!(ts, dt, Some(b.clamp(s + h_shape)));
            g_sh = (e_sh.value - current.value) / h_shape;
            // The shape axis lives on its own scale: trust-region it at a
            // quarter of the feasible span per step.
            let max_step_shape = 0.25 * b.span();
            let step_sh =
                swarm_math::clamp(config.learning_rate * g_sh, -max_step_shape, max_step_shape);
            next_shape = Some(b.clamp(s - step_sh));
        }

        if !g_ts.is_finite() || !g_dt.is_finite() || !g_sh.is_finite() {
            // Victim vanished from the objective (e.g. target crash ended the
            // mission immediately); nothing to descend on.
            return Ok(SearchResult {
                success: None,
                evaluations: evals,
                converged: true,
                best_value: best,
                shape: best_shape,
            });
        }

        // Projected update (paper Eq. 1a/1b), with a per-step trust region.
        let step_ts =
            swarm_math::clamp(config.learning_rate * g_ts, -config.max_step, config.max_step);
        let step_dt =
            swarm_math::clamp(config.learning_rate * g_dt, -config.max_step, config.max_step);
        ts = (ts - step_ts).max(0.0);
        dt = (dt - step_dt).max(0.0);
        shape = next_shape;
        clamp_window(&mut ts, &mut dt, t_mission);
        trace.emit(TraceEvent::GradientStep { g_ts, g_dt, ts, dt });

        if evals >= budget {
            break;
        }
        let next = probe!(ts, dt, shape);

        let improvement = current.value - next.value;
        current = next;
        if improvement.abs() < config.tolerance {
            // Objective stopped moving: converged without a collision.
            return Ok(SearchResult {
                success: None,
                evaluations: evals,
                converged: true,
                best_value: best,
                shape: best_shape,
            });
        }
    }

    Ok(SearchResult {
        success: None,
        evaluations: evals,
        converged: false,
        best_value: best,
        shape: best_shape,
    })
}

/// Margin (seconds) kept between a sampled window end and the mission end so
/// the timing constraint `t_s + Δt < t_mission` holds strictly.
const WINDOW_MARGIN: f64 = 1e-6;

/// Random-sampling search (the ablation baseline): draws `t_s ∈ [0,
/// t_mission)` and `Δt ∈ [min(1, max_duration), max_duration]` uniformly
/// until the budget is spent, clamping every sample to the caller's bounds
/// and the timing constraint `t_s + Δt < t_mission`. With shape `bounds`,
/// each probe then draws its shape uniformly from them; without, the
/// objective sees `None` and the draws are exactly the window's.
///
/// # Errors
///
/// Propagates the first [`FuzzError`] returned by `objective`.
pub fn random_search<F>(
    mut objective: F,
    budget: usize,
    t_mission: f64,
    max_duration: f64,
    bounds: Option<&ShapeBounds>,
    rng: &mut StdRng,
) -> Result<SearchResult, FuzzError>
where
    F: FnMut(f64, f64, Option<f64>) -> Result<Evaluation, FuzzError>,
{
    let mut best = f64::INFINITY;
    let mut best_shape = bounds.map(|b| b.clamp(b.init));
    for evals in 1..=budget {
        let ts = if t_mission > WINDOW_MARGIN { rng.gen_range(0.0..t_mission) } else { 0.0 };
        let lo = max_duration.clamp(0.0, 1.0);
        let hi = max_duration.min(t_mission - ts - WINDOW_MARGIN).max(lo);
        let dt = if hi > lo { rng.gen_range(lo..hi) } else { lo };
        let dt = dt.min((t_mission - ts - WINDOW_MARGIN).max(0.0));
        let shape = bounds.map(|b| if b.hi > b.lo { rng.gen_range(b.lo..b.hi) } else { b.lo });
        let e = objective(ts, dt, shape)?;
        if e.value < best {
            best_shape = shape;
        }
        best = best.min(e.value);
        if let Some(s) = success_of(&e) {
            return Ok(SearchResult {
                success: Some(s),
                evaluations: evals,
                converged: false,
                best_value: best,
                shape,
            });
        }
    }
    Ok(SearchResult {
        success: None,
        evaluations: budget,
        converged: false,
        best_value: best,
        shape: best_shape,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// A synthetic convex objective: bowl over (ts, dt) with minimum at
    /// (20, 10) reaching `floor`; collision when the value dips below 0.
    fn bowl(floor: f64) -> impl FnMut(f64, f64) -> Result<Evaluation, FuzzError> {
        move |ts: f64, dt: f64| {
            let value = floor + 0.02 * ((ts - 20.0).powi(2) + (dt - 10.0).powi(2));
            let outcome = if value <= 0.0 {
                EvalOutcome::SpvCollision { victim: DroneId(1), time: ts + dt }
            } else {
                EvalOutcome::NoCollision
            };
            Ok(Evaluation { value, outcome, start: ts, duration: dt })
        }
    }

    #[test]
    fn gradient_descends_to_collision() {
        // Floor below zero: the bowl's minimum is a collision.
        let r =
            gradient_search(bowl(-2.0), (5.0, 3.0), 40, 120.0, &GradientConfig::default()).unwrap();
        let s = r.success.expect("must find the collision");
        assert!((s.start - 20.0).abs() < 11.0, "ts={}", s.start);
        assert!(r.evaluations <= 40);
    }

    #[test]
    fn gradient_converges_early_on_unreachable_minimum() {
        // Floor above zero: optimum exists but no collision; the search must
        // stop early (converged) instead of burning the whole budget.
        let r = gradient_search(bowl(1.5), (18.0, 9.0), 100, 120.0, &GradientConfig::default())
            .unwrap();
        assert!(r.success.is_none());
        assert!(r.converged, "gradient search must detect convergence");
        assert!(r.evaluations < 40, "evaluations={}", r.evaluations);
        assert!(r.best_value >= 1.5);
    }

    #[test]
    fn gradient_respects_budget() {
        // Steep bowl far away: runs out of budget before converging.
        let r = gradient_search(bowl(0.5), (100.0, 60.0), 5, 200.0, &GradientConfig::default())
            .unwrap();
        assert!(r.evaluations <= 5);
        assert!(r.success.is_none());
    }

    #[test]
    fn gradient_respects_timing_constraint() {
        let t_mission = 50.0;
        let fd_step = GradientConfig::default().fd_step;
        let mut max_seen: f64 = 0.0;
        let r = gradient_search(
            |ts: f64, dt: f64| {
                max_seen = max_seen.max(ts + dt);
                bowl(1.0)(ts, dt)
            },
            (40.0, 9.0),
            30,
            t_mission,
            &GradientConfig::default(),
        )
        .unwrap();
        // Descent iterates satisfy t_s + Δt < t_mission strictly; only the
        // finite-difference probes may nudge past, by exactly the fd step.
        assert!(max_seen <= t_mission + fd_step, "t_s+Δt reached {max_seen}");
        assert!(r.evaluations > 0);
    }

    /// Regression: the projected update clamped `Δt` against the timing
    /// constraint but never clamped `t_s` itself, so an objective whose
    /// minimum lies beyond the mission end dragged `t_s` past `t_mission`
    /// and every later probe started after the mission was already over.
    #[test]
    fn gradient_clamps_start_time_below_mission_end() {
        let t_mission = 50.0;
        let fd_step = GradientConfig::default().fd_step;
        let mut max_ts: f64 = 0.0;
        // Bowl centred at (90, 10): descent on ts pushes toward 90 > t_mission.
        let r = gradient_search(
            |ts: f64, dt: f64| {
                max_ts = max_ts.max(ts);
                let value = 1.0 + 0.02 * ((ts - 90.0).powi(2) + (dt - 10.0).powi(2));
                Ok(Evaluation { value, outcome: EvalOutcome::NoCollision, start: ts, duration: dt })
            },
            (40.0, 5.0),
            60,
            t_mission,
            &GradientConfig::default(),
        )
        .unwrap();
        assert!(r.success.is_none());
        assert!(max_ts < t_mission + fd_step, "t_s reached {max_ts}, mission ends at {t_mission}");
    }

    /// An infeasible initial guess is projected into the window before the
    /// first probe rather than evaluated as-is.
    #[test]
    fn gradient_projects_infeasible_initial_guess() {
        let t_mission = 30.0;
        let mut probes = Vec::new();
        gradient_search(
            |ts: f64, dt: f64| {
                probes.push((ts, dt));
                bowl(1.0)(ts, dt)
            },
            (80.0, 20.0),
            3,
            t_mission,
            &GradientConfig::default(),
        )
        .unwrap();
        let (ts0, dt0) = probes[0];
        assert_eq!(ts0, 29.0, "t_s pulled back inside the mission");
        assert_eq!(dt0, 0.0, "Δt shortened to fit the remainder");
    }

    /// [`bowl`] as a window-only objective for the shape-generic searches.
    fn window_bowl(
        floor: f64,
    ) -> impl FnMut(f64, f64, Option<f64>) -> Result<Evaluation, FuzzError> {
        let mut bowl = bowl(floor);
        move |ts: f64, dt: f64, shape: Option<f64>| {
            assert_eq!(shape, None, "a search without bounds never passes a shape");
            bowl(ts, dt)
        }
    }

    #[test]
    fn random_search_finds_large_basin() {
        // Collision basin covers a big chunk of the space.
        let mut rng = StdRng::seed_from_u64(3);
        let r = random_search(window_bowl(-6.0), 50, 60.0, 30.0, None, &mut rng).unwrap();
        assert!(r.success.is_some());
        assert_eq!(r.shape, None);
    }

    #[test]
    fn random_search_exhausts_budget_without_success() {
        let mut rng = StdRng::seed_from_u64(3);
        let r = random_search(window_bowl(5.0), 20, 120.0, 30.0, None, &mut rng).unwrap();
        assert!(r.success.is_none());
        assert_eq!(r.evaluations, 20, "random search never stops early");
        assert!(!r.converged);
    }

    /// Regression: the old sampler drew `Δt ∈ [1, max(max_duration, 2))`,
    /// so `max_duration = 1.5` produced windows up to 2 s — beyond the
    /// caller's bound — and nothing ever enforced `t_s + Δt < t_mission`.
    #[test]
    fn random_search_respects_caller_bounds() {
        for &(t_mission, max_duration) in
            &[(120.0, 1.5), (120.0, 0.5), (3.0, 30.0), (0.5, 2.0), (40.0, 30.0)]
        {
            let mut rng = StdRng::seed_from_u64(11);
            let mut samples = Vec::new();
            let mut objective = window_bowl(5.0);
            random_search(
                |ts, dt, shape| {
                    samples.push((ts, dt));
                    objective(ts, dt, shape)
                },
                200,
                t_mission,
                max_duration,
                None,
                &mut rng,
            )
            .unwrap();
            assert_eq!(samples.len(), 200);
            for &(ts, dt) in &samples {
                assert!(dt <= max_duration + 1e-12, "dt={dt} exceeds max_duration={max_duration}");
                assert!(
                    ts + dt < t_mission,
                    "window [{ts}, {ts}+{dt}) violates t_mission={t_mission}"
                );
                assert!(ts >= 0.0 && dt >= 0.0);
            }
        }
    }

    /// A synthetic shaped objective: the bowl of [`bowl`] plus a quadratic
    /// shape term with minimum at `shape = 2.0`.
    fn shaped_bowl(
        floor: f64,
    ) -> impl FnMut(f64, f64, Option<f64>) -> Result<Evaluation, FuzzError> {
        move |ts: f64, dt: f64, shape: Option<f64>| {
            let shape = shape.expect("a search with bounds always passes a shape");
            let value =
                floor + 0.02 * ((ts - 20.0).powi(2) + (dt - 10.0).powi(2)) + (shape - 2.0).powi(2);
            let outcome = if value <= 0.0 {
                EvalOutcome::SpvCollision { victim: DroneId(1), time: ts + dt }
            } else {
                EvalOutcome::NoCollision
            };
            Ok(Evaluation { value, outcome, start: ts, duration: dt })
        }
    }

    fn bounded_gradient_search(
        objective: impl FnMut(f64, f64, Option<f64>) -> Result<Evaluation, FuzzError>,
        initial: (f64, f64),
        budget: usize,
        bounds: &ShapeBounds,
    ) -> SearchResult {
        gradient_search_traced(
            objective,
            initial,
            Some(bounds),
            budget,
            120.0,
            &GradientConfig::default(),
            &Trace::off(),
        )
        .unwrap()
    }

    #[test]
    fn shaped_gradient_descends_all_three_axes() {
        let bounds = ShapeBounds { lo: 0.0, hi: 6.0, init: 5.0 };
        let r = bounded_gradient_search(shaped_bowl(-2.0), (15.0, 6.0), 80, &bounds);
        let s = r.success.expect("must reach the collision basin");
        assert!((s.start - 20.0).abs() < 12.0);
        let shape = r.shape.unwrap();
        assert!((shape - 2.0).abs() < 2.5, "shape={shape} should approach 2.0");
    }

    #[test]
    fn shaped_gradient_keeps_shape_inside_bounds() {
        let bounds = ShapeBounds { lo: 1.0, hi: 3.0, init: 9.0 };
        let mut shapes = Vec::new();
        let mut objective = shaped_bowl(1.0);
        let r = bounded_gradient_search(
            |ts, dt, s| {
                shapes.push(s.unwrap());
                objective(ts, dt, s)
            },
            (20.0, 10.0),
            30,
            &bounds,
        );
        assert!(r.success.is_none());
        assert!(shapes.iter().all(|&s| (1.0..=3.0).contains(&s)), "shapes={shapes:?}");
        assert_eq!(shapes[0], 3.0, "out-of-bounds initial guess is clamped");
    }

    #[test]
    fn shaped_random_samples_shape_from_bounds() {
        let bounds = ShapeBounds { lo: 0.5, hi: 4.5, init: 1.0 };
        let mut shapes = Vec::new();
        let mut rng = StdRng::seed_from_u64(5);
        let mut objective = shaped_bowl(5.0);
        let r = random_search(
            |ts, dt, s| {
                shapes.push(s.unwrap());
                objective(ts, dt, s)
            },
            100,
            120.0,
            30.0,
            Some(&bounds),
            &mut rng,
        )
        .unwrap();
        assert_eq!(r.evaluations, 100);
        assert!(shapes.iter().all(|&s| (0.5..4.5).contains(&s)));
        assert!(shapes.iter().any(|&s| s < 1.5) && shapes.iter().any(|&s| s > 3.5));
    }

    #[test]
    fn shaped_searches_report_success_shape() {
        // Collision only when the shape is near its optimum.
        let bounds = ShapeBounds { lo: 0.0, hi: 6.0, init: 2.0 };
        let r = bounded_gradient_search(shaped_bowl(-0.5), (20.0, 10.0), 40, &bounds);
        assert!(r.success.is_some());
        let shape = r.shape.unwrap();
        assert!((shape - 2.0).abs() < 1.0, "success shape {shape} near the optimum");
    }

    #[test]
    fn search_counts_every_probe() {
        let mut calls = 0usize;
        let r = gradient_search(
            |ts: f64, dt: f64| {
                calls += 1;
                bowl(2.0)(ts, dt)
            },
            (0.0, 0.0),
            9,
            120.0,
            &GradientConfig::default(),
        )
        .unwrap();
        assert_eq!(calls, r.evaluations);
    }
}
