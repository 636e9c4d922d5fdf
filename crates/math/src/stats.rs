//! Descriptive statistics and empirical distributions.
//!
//! These back the paper's evaluation artifacts: [`Ecdf`] regenerates the VDO
//! CDF of Fig. 6d, [`cumulative_rate_by_threshold`] the cumulative success
//! rate curves of Fig. 6a–c, and [`OnlineMin`] tracks the per-drone VDO in
//! the mission recorder of `swarm-sim`.

/// Arithmetic mean of a slice. Returns `None` for an empty slice.
///
/// ```
/// assert_eq!(swarm_math::stats::mean(&[1.0, 2.0, 3.0]), Some(2.0));
/// assert_eq!(swarm_math::stats::mean(&[]), None);
/// ```
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Linear-interpolated percentile in `[0, 100]`. Returns `None` for an empty
/// slice.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or NaN.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100], got {p}");
    if xs.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        Some(v[lo])
    } else {
        Some(crate::lerp(v[lo], v[hi], rank - lo as f64))
    }
}

/// Smallest and largest values of a slice, ignoring NaNs.
pub fn min_max(xs: &[f64]) -> Option<(f64, f64)> {
    let mut it = xs.iter().copied().filter(|x| !x.is_nan());
    let first = it.next()?;
    Some(it.fold((first, first), |(lo, hi), x| (lo.min(x), hi.max(x))))
}

/// Empirical cumulative distribution function over a sample.
///
/// `F(x)` is the proportion of samples `<= x` — exactly the metric plotted in
/// Fig. 6d of the paper (proportion of missions with VDO no larger than x).
///
/// ```
/// use swarm_math::stats::Ecdf;
/// let cdf = Ecdf::new(vec![1.0, 2.0, 4.0, 8.0]);
/// assert_eq!(cdf.eval(0.5), 0.0);
/// assert_eq!(cdf.eval(2.0), 0.5);
/// assert_eq!(cdf.eval(100.0), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF from a sample (NaNs are dropped).
    pub fn new(mut sample: Vec<f64>) -> Self {
        sample.retain(|x| !x.is_nan());
        sample.sort_by(|a, b| a.partial_cmp(b).expect("NaNs removed"));
        Ecdf { sorted: sample }
    }

    /// Evaluates `F(x)`: the fraction of samples `<= x`.
    ///
    /// Returns 0 for an empty sample.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        // partition_point gives the count of samples <= x.
        let count = self.sorted.partition_point(|&s| s <= x);
        count as f64 / self.sorted.len() as f64
    }
}

/// Cumulative success rate with respect to a covariate, as in Fig. 6a–c.
///
/// Given per-mission `(covariate, success)` pairs (e.g. `(VDO, found_spv)`),
/// returns for each threshold `x` the success rate over all missions whose
/// covariate is `<= x`. Thresholds with no qualifying missions yield `None`.
///
/// ```
/// use swarm_math::stats::cumulative_rate_by_threshold;
/// let data = [(1.0, true), (2.0, false), (5.0, true)];
/// let curve = cumulative_rate_by_threshold(&data, &[0.5, 2.0, 10.0]);
/// assert_eq!(curve[0].1, None);            // no missions with VDO <= 0.5
/// assert_eq!(curve[1].1, Some(0.5));       // 1 success out of 2
/// assert_eq!(curve[2].1, Some(2.0 / 3.0)); // 2 successes out of 3
/// ```
pub fn cumulative_rate_by_threshold(
    data: &[(f64, bool)],
    thresholds: &[f64],
) -> Vec<(f64, Option<f64>)> {
    thresholds
        .iter()
        .map(|&t| {
            let mut total = 0usize;
            let mut hits = 0usize;
            for &(x, ok) in data {
                if x <= t {
                    total += 1;
                    if ok {
                        hits += 1;
                    }
                }
            }
            let rate = if total == 0 { None } else { Some(hits as f64 / total as f64) };
            (t, rate)
        })
        .collect()
}

/// Incrementally tracks the minimum of a stream of values and the time at
/// which it occurred. Used for VDO (victim's closest distance to obstacle).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineMin {
    best: f64,
    at: f64,
    seen: bool,
}

impl OnlineMin {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        OnlineMin { best: f64::INFINITY, at: 0.0, seen: false }
    }

    /// Feeds one observation `value` occurring at time `t`.
    pub fn observe(&mut self, value: f64, t: f64) {
        if !self.seen || value < self.best {
            self.best = value;
            self.at = t;
            self.seen = true;
        }
    }

    /// The minimum observed so far, or `None` when nothing was observed.
    pub fn min(&self) -> Option<f64> {
        self.seen.then_some(self.best)
    }

    /// The time of the minimum, or `None` when nothing was observed.
    pub fn at(&self) -> Option<f64> {
        self.seen.then_some(self.at)
    }
}

impl Default for OnlineMin {
    fn default() -> Self {
        Self::new()
    }
}

/// Number of buckets of a [`LogHistogram`]: one per possible bit width of a
/// `u64` observation, plus a dedicated zero bucket.
pub const LOG_HISTOGRAM_BUCKETS: usize = 65;

/// The bucket a `u64` observation falls into: bucket 0 holds exactly `0`,
/// bucket `i >= 1` holds values in `[2^(i-1), 2^i)` — i.e. the value's bit
/// width.
///
/// ```
/// use swarm_math::stats::log_bucket_index;
/// assert_eq!(log_bucket_index(0), 0);
/// assert_eq!(log_bucket_index(1), 1);
/// assert_eq!(log_bucket_index(1023), 10);
/// assert_eq!(log_bucket_index(1024), 11);
/// ```
pub fn log_bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The half-open value range `[lo, hi)` covered by bucket `index`.
///
/// The last bucket's upper bound saturates at `u64::MAX`.
pub fn log_bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < LOG_HISTOGRAM_BUCKETS, "bucket index out of range: {index}");
    if index == 0 {
        return (0, 1);
    }
    let lo = 1u64 << (index - 1);
    let hi = if index == 64 { u64::MAX } else { 1u64 << index };
    (lo, hi)
}

/// A power-of-two-bucketed histogram of `u64` observations (durations in
/// nanoseconds, counts, sizes): constant memory, O(1) insertion, exact total
/// and count, and quantile estimates good to a factor of two — the standard
/// shape for telemetry, where tail *magnitude* matters and 5% precision does
/// not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: [u64; LOG_HISTOGRAM_BUCKETS],
    total: u128,
    max: u64,
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram { counts: [0; LOG_HISTOGRAM_BUCKETS], total: 0, max: 0 }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.counts[log_bucket_index(value)] += 1;
        self.total += u128::from(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Exact sum of all observations.
    pub fn total(&self) -> u128 {
        self.total
    }

    /// Exact mean of all observations, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.total as f64 / n as f64)
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count() > 0).then_some(self.max)
    }

    /// Estimated quantile `q ∈ [0, 1]`: the geometric midpoint of the bucket
    /// holding the `q`-th observation. `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` or NaN.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1], got {q}");
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = log_bucket_bounds(i);
                return Some((lo as f64 * hi as f64).sqrt().min(self.max as f64));
            }
        }
        unreachable!("rank is bounded by the total count");
    }

    /// Raw per-bucket counts (index = [`log_bucket_index`]).
    pub fn raw_counts(&self) -> &[u64; LOG_HISTOGRAM_BUCKETS] {
        &self.counts
    }

    /// Reassembles a histogram from raw parts (bucket counts, exact total,
    /// maximum observation). Used by atomic-counter mirrors in higher layers
    /// to snapshot into the analysable form.
    pub fn from_raw(counts: [u64; LOG_HISTOGRAM_BUCKETS], total: u128, max: u64) -> Self {
        LogHistogram { counts, total, max }
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_bucket_index_covers_bit_widths() {
        assert_eq!(log_bucket_index(0), 0);
        assert_eq!(log_bucket_index(1), 1);
        assert_eq!(log_bucket_index(2), 2);
        assert_eq!(log_bucket_index(3), 2);
        assert_eq!(log_bucket_index(4), 3);
        assert_eq!(log_bucket_index(u64::MAX), 64);
        // Every bucket's bounds round-trip through the index.
        for i in 0..LOG_HISTOGRAM_BUCKETS {
            let (lo, hi) = log_bucket_bounds(i);
            assert_eq!(log_bucket_index(lo), i);
            assert_eq!(log_bucket_index(hi - 1), i);
            assert!(lo < hi);
        }
    }

    #[test]
    fn log_histogram_counts_totals_and_quantiles() {
        let mut h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.5), None);

        for v in [0u64, 3, 5, 100, 100, 100, 2000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.total(), 2308);
        assert_eq!(h.max(), Some(2000));
        assert!((h.mean().unwrap() - 2308.0 / 7.0).abs() < 1e-9);
        // Median falls in the bucket holding 100 ([64, 128)).
        let p50 = h.quantile(0.5).unwrap();
        assert!((64.0..128.0).contains(&p50), "p50={p50}");
        // Top quantile estimate lands in the max observation's bucket, never
        // above the true maximum.
        let p100 = h.quantile(1.0).unwrap();
        assert!((1024.0..=2000.0).contains(&p100), "p100={p100}");
    }

    #[test]
    fn log_histogram_from_raw_round_trips() {
        let mut h = LogHistogram::new();
        for v in [4u64, 9, 77, 4096] {
            h.record(v);
        }
        let rebuilt = LogHistogram::from_raw(*h.raw_counts(), h.total(), h.max().unwrap());
        assert_eq!(h, rebuilt);
    }

    #[test]
    fn mean_of_known_sample() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), Some(5.0));
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [0.0, 10.0];
        assert_eq!(percentile(&xs, 25.0), Some(2.5));
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn percentile_rejects_out_of_range() {
        percentile(&[1.0], 200.0);
    }

    #[test]
    fn min_max_ignores_nan() {
        let xs = [f64::NAN, 3.0, -1.0];
        assert_eq!(min_max(&xs), Some((-1.0, 3.0)));
    }

    #[test]
    fn ecdf_step_behaviour() {
        let cdf = Ecdf::new(vec![1.0, 1.0, 2.0]);
        assert_eq!(cdf.eval(0.99), 0.0);
        assert!((cdf.eval(1.0) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(cdf.eval(2.0), 1.0);
    }

    #[test]
    fn ecdf_empty_sample() {
        // The NaN is dropped, and an empty sample reads 0 everywhere.
        let cdf = Ecdf::new(vec![f64::NAN]);
        assert_eq!(cdf.eval(0.0), 0.0);
        assert_eq!(cdf.eval(f64::INFINITY), 0.0);
    }

    #[test]
    fn cumulative_rate_handles_empty_bucket() {
        let curve = cumulative_rate_by_threshold(&[(5.0, true)], &[1.0]);
        assert_eq!(curve[0].1, None);
    }

    #[test]
    fn online_min_tracks_argmin_time() {
        let mut m = OnlineMin::new();
        assert_eq!(m.min(), None);
        m.observe(5.0, 1.0);
        m.observe(2.0, 3.0);
        m.observe(4.0, 7.0);
        assert_eq!(m.min(), Some(2.0));
        assert_eq!(m.at(), Some(3.0));
    }
}
