//! The analytical cost model — Equations (1)–(4) of the paper.
//!
//! With a configuration `x`, sample set `S`, relative costs `α`, base
//! cost `B`, sampling rate `β`, and retention `R` (days):
//!
//! ```text
//! c_compute(x) = Σ_s α_compute·B·Size(s) / (CompSpeed(x,s)·β)     (1)
//! c_storage(x) = Σ_s α_storage·B·R·Size(s) / (CompRatio(x,s)·β)   (2)
//! c_network(x) = Σ_s α_network·B·Size(s) / (CompRatio(x,s)·β)     (3)
//! x_opt = argmin_x ( c_compute + c_storage + c_network )          (4)
//! ```
//!
//! `Size(s)/CompSpeed(x,s)` is the measured compression time of `s` and
//! `Size(s)/CompRatio(x,s)` its measured compressed size, so the sums
//! are computed directly from aggregated
//! [`CompressionMetrics`].

use codecs::CompressionMetrics;
use serde::{Deserialize, Serialize};

use crate::pricing::Pricing;

/// The user-supplied parameters of Equations (1)–(3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostParams {
    /// Relative compute cost `α_compute` (USD per CPU-second).
    pub alpha_compute: f64,
    /// Relative storage cost `α_storage` (USD per byte-day).
    pub alpha_storage: f64,
    /// Relative network cost `α_network` (USD per byte).
    pub alpha_network: f64,
    /// Base cost `B` (scales all terms; 1.0 = plain USD).
    pub base: f64,
    /// Sampling rate `β`: samples measured / total compression calls.
    /// Dividing by `β` extrapolates the sample set to the service's
    /// full traffic.
    pub beta: f64,
    /// Average data retention `R`, in days.
    pub retention_days: f64,
}

impl CostParams {
    /// Builds parameters from a [`Pricing`] sheet.
    pub fn from_pricing(p: &Pricing, beta: f64, retention_days: f64) -> Self {
        Self {
            alpha_compute: p.compute_per_cpu_second,
            alpha_storage: p.storage_per_byte_day,
            alpha_network: p.network_per_byte,
            base: 1.0,
            beta,
            retention_days,
        }
    }

    /// Builder-style override of `α_compute` (used by CompSim to price
    /// accelerator time instead of CPU time).
    pub fn with_alpha_compute(mut self, alpha: f64) -> Self {
        self.alpha_compute = alpha;
        self
    }
}

/// Per-resource costs of one configuration (Equations 1–3).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Costs {
    /// Equation (1).
    pub compute: f64,
    /// Equation (2).
    pub storage: f64,
    /// Equation (3).
    pub network: f64,
}

impl Costs {
    /// Computes the three cost terms from measured metrics.
    pub fn from_metrics(m: &CompressionMetrics, p: &CostParams) -> Self {
        let scale = p.base / p.beta;
        Self {
            compute: p.alpha_compute * scale * m.compress_secs,
            storage: p.alpha_storage * scale * p.retention_days * m.compressed_bytes as f64,
            network: p.alpha_network * scale * m.compressed_bytes as f64,
        }
    }

    /// Sum of the three terms (the argmin objective of Equation 4).
    #[cfg(test)]
    fn total(&self) -> f64 {
        self.compute + self.storage + self.network
    }

    /// Weighted sum, for services where some resources are free
    /// (paper's study 1 ignores storage; study 2 ignores network).
    pub fn weighted_total(&self, w: &CostWeights) -> f64 {
        w.compute * self.compute + w.storage * self.storage + w.network * self.network
    }
}

/// Objective weights selecting which resources a service pays for.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostWeights {
    /// Weight on `c_compute`.
    pub compute: f64,
    /// Weight on `c_storage`.
    pub storage: f64,
    /// Weight on `c_network`.
    pub network: f64,
}

impl CostWeights {
    /// All three resources, unweighted (Equation 4 as written).
    pub const ALL: CostWeights = CostWeights {
        compute: 1.0,
        storage: 1.0,
        network: 1.0,
    };
    /// Compute + network only (ADS1-style: intermediate data, no
    /// storage — paper's sensitivity study 1).
    pub const COMPUTE_NETWORK: CostWeights = CostWeights {
        compute: 1.0,
        storage: 0.0,
        network: 1.0,
    };
    /// Compute + storage only (KVSTORE1-style — paper's study 2).
    pub const COMPUTE_STORAGE: CostWeights = CostWeights {
        compute: 1.0,
        storage: 1.0,
        network: 0.0,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(compressed: u64, comp_secs: f64, decomp_secs: f64) -> CompressionMetrics {
        CompressionMetrics {
            original_bytes: 1_000_000,
            compressed_bytes: compressed,
            compress_secs: comp_secs,
            decompress_secs: decomp_secs,
            calls: 10,
        }
    }

    fn params() -> CostParams {
        CostParams::from_pricing(&Pricing::aws_2023(), 1.0, 30.0)
    }

    #[test]
    fn better_ratio_cuts_storage_and_network() {
        let p = params();
        let a = Costs::from_metrics(&metrics(500_000, 0.01, 0.001), &p);
        let b = Costs::from_metrics(&metrics(250_000, 0.01, 0.001), &p);
        assert!(b.storage < a.storage);
        assert!(b.network < a.network);
        assert_eq!(a.compute, b.compute);
    }

    #[test]
    fn slower_compression_costs_more_compute() {
        let p = params();
        let a = Costs::from_metrics(&metrics(500_000, 0.01, 0.001), &p);
        let b = Costs::from_metrics(&metrics(500_000, 0.05, 0.001), &p);
        assert!(b.compute > a.compute);
        assert_eq!(a.storage, b.storage);
    }

    #[test]
    fn beta_extrapolates_inverse() {
        // Halving the sampling rate doubles every cost.
        let m = metrics(500_000, 0.01, 0.001);
        let p1 = params();
        let mut p2 = params();
        p2.beta = 0.5;
        let c1 = Costs::from_metrics(&m, &p1);
        let c2 = Costs::from_metrics(&m, &p2);
        assert!((c2.total() - 2.0 * c1.total()).abs() < 1e-12);
    }

    #[test]
    fn retention_scales_storage_only() {
        let m = metrics(500_000, 0.01, 0.001);
        let mut p = params();
        let c30 = Costs::from_metrics(&m, &p);
        p.retention_days = 60.0;
        let c60 = Costs::from_metrics(&m, &p);
        assert!((c60.storage - 2.0 * c30.storage).abs() < 1e-15);
        assert_eq!(c30.network, c60.network);
        assert_eq!(c30.compute, c60.compute);
    }

    #[test]
    fn weights_zero_out_resources() {
        let c = Costs {
            compute: 1.0,
            storage: 2.0,
            network: 4.0,
        };
        assert_eq!(c.weighted_total(&CostWeights::ALL), 7.0);
        assert_eq!(c.weighted_total(&CostWeights::COMPUTE_NETWORK), 5.0);
        assert_eq!(c.weighted_total(&CostWeights::COMPUTE_STORAGE), 3.0);
        assert_eq!(c.total(), 7.0);
    }
}
