//! Summary statistics and digests shared by every workload.

use std::time::Instant;

/// The median of `samples` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The nearest-rank `q`-quantile of `samples`, or `None` when fewer than ten
/// samples lie beyond it: a tail percentile read from fewer points is noise.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n < rank + 10 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` `times` times and returns the median wall time of one call in
/// seconds together with the last call's result.
pub fn median_secs<T>(times: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut samples = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        let start = Instant::now();
        last = Some(f());
        samples.push(start.elapsed().as_secs_f64());
    }
    (median(&samples), last.expect("at least one call"))
}

/// Times `body` in batches of `batch` calls until `budget_s` seconds have
/// passed (at least three batches) and returns the median cost of one call
/// in nanoseconds. Medians of batches keep one preempted batch from moving
/// the figure.
pub fn per_call_ns(batch: usize, budget_s: f64, mut body: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || started.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        for _ in 0..batch {
            body();
        }
        samples.push(t.elapsed().as_secs_f64() * 1e9 / batch as f64);
    }
    median(&samples)
}

/// 64-bit FNV-1a over `bytes`, continuing from `state`.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The FNV-1a offset basis: the state of an empty digest.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Returns the allocator's free pages to the kernel, so the next unit of
/// work starts from the same resident set whatever the previous one left
/// in glibc's per-thread arenas. A no-op elsewhere.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers; it only hands free pages
        // of glibc's own heaps back to the kernel and is thread-safe.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), or `None` where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(tail_percentile(&samples, 0.99), None, "999 samples leave 9 beyond p99");
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&samples, 0.99), Some(989.0));
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn fnv_digest_is_order_sensitive() {
        assert_ne!(fnv1a(FNV_BASIS, b"ab"), fnv1a(FNV_BASIS, b"ba"));
        assert_eq!(fnv1a(FNV_BASIS, b""), FNV_BASIS);
    }
}
