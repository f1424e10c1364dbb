//! Log-bucketed histograms.
//!
//! Buckets are powers of two: bucket 0 holds the value 0 and bucket
//! `i >= 1` holds values in `[2^(i-1), 2^i)`, so any `u64` maps to one of
//! 65 buckets via its bit length. This is the same log-scale bucketing
//! the paper uses for its size distributions (Figures 5, 8, 9) and it
//! makes histograms cheap (one atomic add per observation), bounded, and
//! mergeable: merging two histograms is element-wise addition, exactly
//! equivalent to observing the concatenation of both sample streams.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of buckets: value 0 plus one bucket per possible bit length.
pub const NUM_BUCKETS: usize = 65;

/// Index of the bucket that holds `v`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Largest value the bucket at `index` can hold (inclusive).
#[inline]
pub fn bucket_upper(index: usize) -> u64 {
    match index {
        0 => 0,
        1..=63 => (1u64 << index) - 1,
        _ => u64::MAX,
    }
}

/// A thread-safe log-bucketed histogram. All cells are atomic, so one
/// instance can be shared across threads and observed concurrently; the
/// per-thread views merge by construction.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value.
    // indexing_slicing: `bucket_index` clamps to the last bucket.
    #[allow(clippy::indexing_slicing)]
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        // Most values are not a new maximum: a load settles those.
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Records a duration as nanoseconds.
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// A point-in-time copy of the histogram state.
    ///
    /// Concurrent observers may land between the per-bucket reads; the
    /// snapshot is still a valid histogram (each observation is either
    /// fully in or fully out of the bucket counts, and `count` is
    /// derived from the buckets).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts ([`NUM_BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: vec![0; NUM_BUCKETS],
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean observed value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum as f64 / n as f64
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`), as the upper bound of
    /// the bucket containing the rank-`ceil(q * count)` observation,
    /// clamped to the exact observed maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Merges `other` into `self`. Equivalent to having observed both
    /// sample streams in one histogram.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        // Wrapping, to match the atomic accumulation in `observe`.
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for k in 0..63 {
            let v = 1u64 << k;
            // 2^k is the first value of bucket k+1; 2^k - 1 the last of k.
            assert_eq!(bucket_index(v), k + 1, "2^{k}");
            assert!(bucket_upper(k) < v);
            assert!(bucket_upper(k + 1) >= v);
        }
    }

    #[test]
    fn empty_histogram_is_neutral() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn single_value_quantiles_hit_the_value() {
        let h = Histogram::new();
        h.observe(1000);
        let s = h.snapshot();
        // Bucket upper bound is 1023 but max clamps to the exact value.
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 1000, "q={q}");
        }
    }

    #[test]
    fn quantiles_track_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert_eq!(s.max, 1000);
        let p50 = s.quantile(0.5);
        // Rank 500 lands in [256, 512); log bucketing reports the upper
        // bound of that bucket.
        assert_eq!(p50, 511);
        assert!(s.quantile(0.99) >= p50);
        assert!((s.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn concurrent_observers_lose_nothing() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.observe(t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 4000);
        assert_eq!(s.max, 3999);
    }
}
