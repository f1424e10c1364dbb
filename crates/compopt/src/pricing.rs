//! Infrastructure cost rates.
//!
//! "We use Amazon EC2/EIA to estimate compute costs and Amazon S3 to
//! estimate storage and network costs." (paper, §V-B). The constants
//! below are the 2023-era public rates; only their *relative* magnitudes
//! matter to the argmin.

use serde::{Deserialize, Serialize};

/// Cost rates in USD for the three resources the model prices.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Pricing {
    /// USD per CPU-second (EC2 on-demand, per-vCPU).
    pub compute_per_cpu_second: f64,
    /// USD per byte-day of storage (S3 standard).
    pub storage_per_byte_day: f64,
    /// USD per byte transferred (S3 egress).
    pub network_per_byte: f64,
    /// USD per accelerator-second (Elastic Inference), used by CompSim.
    pub accelerator_per_second: f64,
}

impl Pricing {
    /// 2023-era AWS public prices.
    ///
    /// * EC2 c5 on-demand: ~$0.17/h per 4 vCPU → $1.18e-5 per CPU-s.
    /// * S3 standard: $0.023 per GB-month → $7.67e-13 per byte-day.
    /// * S3 egress: $0.09 per GB → $9.0e-11 per byte.
    /// * EIA eia2.medium: ~$0.12/h → $3.33e-5 per accelerator-s.
    pub fn aws_2023() -> Self {
        Self {
            compute_per_cpu_second: 0.17 / 4.0 / 3600.0,
            storage_per_byte_day: 0.023 / (1024.0 * 1024.0 * 1024.0) / 30.0,
            network_per_byte: 0.09 / (1024.0 * 1024.0 * 1024.0),
            accelerator_per_second: 0.12 / 3600.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_are_positive_and_ordered() {
        let p = Pricing::aws_2023();
        assert!(p.compute_per_cpu_second > 0.0);
        assert!(p.storage_per_byte_day > 0.0);
        assert!(p.network_per_byte > 0.0);
        // Egress per byte costs far more than one day of storing it.
        assert!(p.network_per_byte > 10.0 * p.storage_per_byte_day);
        // Accelerator-seconds cost more than CPU-seconds.
        assert!(p.accelerator_per_second > p.compute_per_cpu_second);
    }
}
