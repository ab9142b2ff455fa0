//! Log-bucketed latency histograms, mergeable across threads.
//!
//! A [`Histogram`] is 64 atomic buckets — bucket `b ≥ 1` counts values
//! whose bit length is `b`, i.e. the nanosecond range `[2^(b-1), 2^b)` —
//! plus count/sum/max cells. Recording is a handful of relaxed atomic
//! adds, cheap enough for the serving hot path; quantiles are estimated
//! at read time by walking the cumulative bucket counts and interpolating
//! linearly inside the landing bucket (log₂ buckets bound the relative
//! error of any quantile by 2x, far below the run-to-run variance of the
//! latencies being measured).
//!
//! [`percentile_exact`] is the *exact* sample percentile (numpy's default
//! linear interpolation), shared with `morpheus-bench` so benchmark and
//! runtime quantile math cannot drift apart.

use std::sync::atomic::{AtomicU64, Ordering};

/// Bucket count of a [`Histogram`]: one per possible bit length of a
/// `u64` nanosecond value (bucket 0 holds exact zeros; the top bucket
/// absorbs everything from `2^62` on).
pub const HIST_BUCKETS: usize = 64;

/// A lock-free log₂-bucketed histogram of nanosecond durations.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

#[inline]
fn bucket_of(ns: u64) -> usize {
    // Bit length, clamped so 2^63.. shares the top bucket.
    ((u64::BITS - ns.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one duration (relaxed atomics; callers may race freely).
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Records one [`std::time::Duration`].
    #[inline]
    pub fn record(&self, d: std::time::Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Recorded samples so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the cells. Buckets are read individually
    /// (relaxed), so a snapshot taken under concurrent writes may be off
    /// by the in-flight samples — fine for the monitoring surface it
    /// feeds.
    pub fn summary(&self) -> HistSummary {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (b, cell) in buckets.iter_mut().zip(&self.buckets) {
            *b = cell.load(Ordering::Relaxed);
        }
        HistSummary {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// An owned point-in-time view of a [`Histogram`]: the quantile and
/// merge arithmetic lives here so summaries from different threads,
/// services or bench phases compose without touching the live cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSummary {
    /// Per-bucket counts (see [`HIST_BUCKETS`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total recorded samples.
    pub count: u64,
    /// Sum of all recorded durations, ns.
    pub sum_ns: u64,
    /// Largest recorded duration, ns.
    pub max_ns: u64,
}

impl Default for HistSummary {
    fn default() -> Self {
        HistSummary { buckets: [0; HIST_BUCKETS], count: 0, sum_ns: 0, max_ns: 0 }
    }
}

impl HistSummary {
    /// Arithmetic mean, ns (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`), ns: walks the cumulative
    /// bucket counts to the bucket holding the target rank and
    /// interpolates linearly inside its `[2^(b-1), 2^b)` range, clamped to
    /// the observed maximum. 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based target rank: the smallest value with at least this many
        // samples at or below it.
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if cum + n >= target {
                let lo: u64 = if b <= 1 { 0 } else { 1u64 << (b - 1) };
                let hi: u64 = if b == 0 {
                    0
                } else if b == HIST_BUCKETS - 1 {
                    self.max_ns.max(lo)
                } else {
                    (1u64 << b).min(self.max_ns.max(lo))
                };
                let frac = (target - cum) as f64 / n as f64;
                return (lo as f64 + frac * (hi - lo) as f64).round() as u64;
            }
            cum += n;
        }
        self.max_ns
    }

    /// Median estimate, ns.
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 90th percentile estimate, ns.
    pub fn p90_ns(&self) -> u64 {
        self.quantile_ns(0.90)
    }

    /// 99th percentile estimate, ns.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// Folds another summary in (counts and sums add, maxima take the
    /// larger) — how per-thread or per-shard histograms aggregate.
    pub fn merge(&mut self, other: &HistSummary) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Linear-interpolation percentile of an *unsorted* sample (numpy's
/// default method): `p` in `[0, 1]`. The one exact-percentile
/// implementation in the workspace — `morpheus-bench` report code
/// delegates here, so bench and runtime quantile conventions cannot
/// diverge.
///
/// # Panics
/// On an empty sample.
pub fn percentile_exact(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = p.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_by_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn quantiles_bound_known_samples() {
        let h = Histogram::new();
        for ns in [100u64, 200, 300, 400, 100_000] {
            h.record_ns(ns);
        }
        let s = h.summary();
        assert_eq!(s.count, 5);
        assert_eq!(s.max_ns, 100_000);
        assert_eq!(s.sum_ns, 101_000);
        // Log buckets guarantee at most 2x relative error upward.
        let p50 = s.p50_ns();
        assert!((100..=512).contains(&p50), "p50 {p50}");
        // The top quantile lands in the max's bucket, clamped to max.
        let p99 = s.p99_ns();
        assert!((65_536..=100_000).contains(&p99), "p99 {p99}");
        assert!(s.quantile_ns(1.0) <= s.max_ns);
    }

    #[test]
    fn empty_summary_is_all_zeros() {
        let s = Histogram::new().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99_ns(), 0);
        assert_eq!(s.mean_ns(), 0.0);
    }

    #[test]
    fn merge_adds() {
        let a = Histogram::new();
        let b = Histogram::new();
        for ns in [10u64, 20, 30] {
            a.record_ns(ns);
        }
        b.record_ns(1000);
        let mut m = a.summary();
        m.merge(&b.summary());
        assert_eq!(m.count, 4);
        assert_eq!(m.sum_ns, 1060);
        assert_eq!(m.max_ns, 1000);
    }

    #[test]
    fn exact_percentile_interpolates_like_numpy() {
        let v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile_exact(&v, 0.0), 1.0);
        assert_eq!(percentile_exact(&v, 0.5), 2.5);
        assert_eq!(percentile_exact(&v, 1.0), 4.0);
        assert!((percentile_exact(&v, 0.99) - 3.97).abs() < 1e-12);
        assert_eq!(percentile_exact(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record_ns(t * 1000 + i);
                    }
                });
            }
        });
        let s = h.summary();
        assert_eq!(s.count, 4000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 4000);
        assert_eq!(s.max_ns, 3999);
    }
}
