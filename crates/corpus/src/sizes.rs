//! Size-distribution samplers.
//!
//! The paper's cache item-size distributions (Figures 8–9) are "strongly
//! skewed towards smaller items whose sizes are less than 1KB, with a
//! long tail of larger items" — the classic log-normal shape these
//! samplers produce.

use rand::rngs::StdRng;
use rand::Rng;

/// A log-normal size distribution clamped to `[min, max]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    /// Median size in bytes (`exp(mu)`).
    pub median: f64,
    /// Log-space standard deviation.
    pub sigma: f64,
    /// Smallest sample returned.
    pub min: usize,
    /// Largest sample returned (the long tail's cap).
    pub max: usize,
}

impl LogNormal {
    /// Creates a sampler with the given median and spread.
    pub fn new(median: f64, sigma: f64, min: usize, max: usize) -> Self {
        assert!(median > 0.0 && sigma >= 0.0 && min <= max);
        Self {
            median,
            sigma,
            min,
            max,
        }
    }

    /// Draws one size.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        // Box-Muller from two uniforms.
        let u1: f64 = rng.gen::<f64>().max(1e-12);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = self.median * (self.sigma * z).exp();
        (v as usize).clamp(self.min, self.max)
    }

    /// Draws `n` sizes.
    #[cfg(test)]
    fn sample_n(&self, rng: &mut StdRng, n: usize) -> Vec<usize> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Percentile of a sample set (p in 0..=100), by sorting.
pub fn percentile(samples: &[usize], p: f64) -> usize {
    if samples.is_empty() {
        return 0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let idx = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
    v[idx.min(v.len() - 1)]
}

/// Builds a histogram over logarithmic buckets: `<64B, <256B, <1K, <4K,
/// <16K, <64K, >=64K`, returning bucket fractions. This is the bucket
/// scheme the figure harnesses print for Figures 5, 8, and 9.
pub fn log_bucket_fractions(samples: &[usize]) -> [(String, f64); 7] {
    const EDGES: [usize; 6] = [64, 256, 1024, 4096, 16384, 65536];
    let mut counts = [0usize; 7];
    for &s in samples {
        let b = EDGES.iter().position(|&e| s < e).unwrap_or(6);
        counts[b] += 1;
    }
    let total = samples.len().max(1) as f64;
    let labels = ["<64B", "<256B", "<1KB", "<4KB", "<16KB", "<64KB", ">=64KB"];
    std::array::from_fn(|i| (labels[i].to_string(), counts[i] as f64 / total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    #[test]
    fn lognormal_median_roughly_holds() {
        let d = LogNormal::new(300.0, 1.0, 16, 1 << 20);
        let mut r = rng(5);
        let samples = d.sample_n(&mut r, 20_000);
        let med = percentile(&samples, 50.0) as f64;
        assert!((med - 300.0).abs() < 60.0, "median {med}");
    }

    #[test]
    fn lognormal_has_long_tail() {
        let d = LogNormal::new(300.0, 1.2, 16, 1 << 20);
        let mut r = rng(6);
        let samples = d.sample_n(&mut r, 20_000);
        let p50 = percentile(&samples, 50.0);
        let p99 = percentile(&samples, 99.0);
        assert!(p99 > p50 * 8, "p99 {p99} vs p50 {p50}");
    }

    #[test]
    fn clamping_respected() {
        let d = LogNormal::new(100.0, 3.0, 32, 4096);
        let mut r = rng(7);
        for s in d.sample_n(&mut r, 5000) {
            assert!((32..=4096).contains(&s));
        }
    }

    #[test]
    fn buckets_sum_to_one() {
        let d = LogNormal::new(400.0, 1.0, 16, 1 << 20);
        let mut r = rng(8);
        let samples = d.sample_n(&mut r, 10_000);
        let buckets = log_bucket_fractions(&samples);
        let total: f64 = buckets.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Majority below 1 KiB, as in Figures 8-9.
        let below_1k: f64 = buckets[..3].iter().map(|(_, f)| f).sum();
        assert!(below_1k > 0.5, "below 1K fraction {below_1k}");
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }
}
