//! `--compare A B`: two sets of runs, medians side by side, against the
//! benchmark's own bounds. This is the tool the A/A criterion — the
//! same commit must agree with itself — is checked with.

use std::collections::BTreeMap;

use crate::report::{def_of, Better};
use crate::stats::median;

/// `workload → metric → (seed, value) of every run in the set`.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<(u64, f64)>>>;

/// `ratio` repeats exactly for a seed, so two sets that share seeds
/// are also compared seed by seed, against the bound the issue set for
/// it. The catalogue's own bound has to hold the spread between decks
/// of different seeds, which is forty times wider.
const RATIO_SAME_SEED_BOUND: f64 = 0.005;

/// Reads one set of runs: the record lines the runs appended to
/// `out/runs.jsonl`, one JSON object per run and workload. Lines that are not records are
/// skipped, so a captured terminal log works too.
fn parse_set(body: &str) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    for line in body.lines().filter(|l| l.trim_start().starts_with('{')) {
        let doc: serde_json::Value =
            serde_json::from_str(line).map_err(|e| format!("bad record line: {e}"))?;
        let (Some(workload), Some(metrics)) = (
            doc.get("workload").and_then(|w| w.as_str()),
            doc.get("metrics").and_then(|m| m.as_object()),
        ) else {
            continue;
        };
        let seed = doc.get("seed").and_then(|s| s.as_u64()).unwrap_or(0);
        let runs = set.entry(workload.to_string()).or_default();
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(|v| v.as_f64()) {
                runs.entry(name.clone()).or_default().push((seed, value));
            }
        }
    }
    if set.is_empty() {
        return Err("no run records found".into());
    }
    Ok(set)
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's
/// own direction: positive is worse, negative is better.
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// The largest worsening of any seed both sets ran, comparing each
/// seed's median in `b` with its median in `a`; `None` when they share
/// no seed.
fn worst_same_seed(better: Better, a: &[(u64, f64)], b: &[(u64, f64)]) -> Option<f64> {
    let of_seed = |runs: &[(u64, f64)], seed: u64| {
        let values: Vec<f64> = runs.iter().filter(|r| r.0 == seed).map(|r| r.1).collect();
        (!values.is_empty()).then(|| median(&values))
    };
    a.iter()
        .filter_map(|&(seed, _)| Some(worsening(better, of_seed(a, seed)?, of_seed(b, seed)?)))
        .max_by(f64::total_cmp)
}

/// Prints the comparison and returns how many end-to-end metrics moved
/// for the worse by more than their bound.
pub fn compare(a_body: &str, b_body: &str) -> Result<usize, String> {
    let a = parse_set(a_body)?;
    let b = parse_set(b_body)?;
    let mut outside = 0;
    println!(
        "{:<11} {:<36} {:>14} {:>14} {:>9} {:>7}  runs",
        "workload", "metric", "median A", "median B", "B vs A", "bound"
    );
    for (workload, a_metrics) in &a {
        let Some(b_metrics) = b.get(workload) else {
            return Err(format!(
                "workload {workload} is missing from the second set"
            ));
        };
        for (name, a_values) in a_metrics {
            let Some(b_values) = b_metrics.get(name) else {
                return Err(format!("{workload}/{name} is missing from the second set"));
            };
            let Some(def) = def_of(name) else { continue };
            let values = |runs: &[(u64, f64)]| runs.iter().map(|r| r.1).collect::<Vec<_>>();
            let (ma, mb) = (median(&values(a_values)), median(&values(b_values)));
            let worse = worsening(def.better, ma, mb);
            // Only end-to-end metrics carry a bound.
            let bounded = def.bound > 0.0;
            let verdict = if bounded && worse > def.bound {
                outside += 1;
                "  OUTSIDE"
            } else {
                ""
            };
            let bound = if bounded {
                format!("{:.1}%", def.bound * 100.0)
            } else {
                "-".to_string()
            };
            println!(
                "{workload:<11} {name:<36} {ma:>14.4} {mb:>14.4} {:>+8.2}% {bound:>7}  {}+{}{verdict}",
                worse * 100.0,
                a_values.len(),
                b_values.len()
            );
            if name == "ratio" {
                if let Some(worst) = worst_same_seed(def.better, a_values, b_values) {
                    let verdict = if worst > RATIO_SAME_SEED_BOUND {
                        outside += 1;
                        "  OUTSIDE"
                    } else {
                        ""
                    };
                    println!(
                        "{workload:<11} {:<36} {:>14} {:>14} {:>+8.2}% {:>6.1}%{verdict}",
                        "ratio, worst seed by seed",
                        "",
                        "",
                        worst * 100.0,
                        RATIO_SAME_SEED_BOUND * 100.0
                    );
                }
            }
        }
    }
    println!("(B vs A: positive = B is worse, in the metric's own direction)");
    Ok(outside)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, ops: f64, p50: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": 1, \"metrics\": {{\"ops_per_s\": {{\"value\": {ops}, \"unit\": \"1/s\"}}, \"compress_p50_us\": {{\"value\": {p50}, \"unit\": \"us\"}}}}}}\n"
        )
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert_eq!(worsening(Better::Lower, 100.0, 110.0), 0.10);
        assert_eq!(worsening(Better::Lower, 100.0, 90.0), -0.10);
        assert_eq!(worsening(Better::Higher, 100.0, 90.0), 0.10);
        assert_eq!(worsening(Better::Higher, 100.0, 120.0), -0.20);
        assert_eq!(worsening(Better::Lower, 0.0, 5.0), 0.0);
    }

    #[test]
    fn medians_within_bounds_pass_and_outside_fail() {
        let a: String = [100.0, 102.0, 98.0]
            .iter()
            .map(|&v| record("cache_rr", v * 100.0, v))
            .collect();
        // Same medians, one wild run: the median ignores it.
        let same: String = [101.0, 99.0, 500.0]
            .iter()
            .map(|&v| record("cache_rr", v * 100.0, v))
            .collect();
        assert_eq!(compare(&a, &same).unwrap(), 0);
        // Throughput down 30% and latency up 30%: both outside.
        let worse: String = [70.0, 71.0, 69.0]
            .iter()
            .map(|&v| record("cache_rr", v * 100.0, 130.0))
            .collect();
        assert_eq!(compare(&a, &worse).unwrap(), 2);
        // Better by as much is not a regression.
        assert_eq!(compare(&worse, &a).unwrap(), 0);
    }

    #[test]
    fn ratio_is_also_held_seed_by_seed() {
        let set = |ratios: [(u64, f64); 2]| -> String {
            ratios
                .iter()
                .map(|(seed, r)| {
                    format!(
                        "{{\"workload\": \"cache_rr\", \"seed\": {seed}, \"metrics\": {{\"ratio\": {{\"value\": {r}, \"unit\": \"x\"}}}}}}\n"
                    )
                })
                .collect()
        };
        let a = set([(1, 2.0), (2, 3.0)]);
        assert_eq!(compare(&a, &a).unwrap(), 0);
        // Seed 2 loses 1%: the medians move by 0.6%, far inside the
        // bound that holds the spread between decks, and the seed-by-seed
        // check still catches it.
        assert_eq!(compare(&a, &set([(1, 2.0), (2, 2.97)])).unwrap(), 1);
        assert_eq!(compare(&a, &set([(1, 2.0), (2, 3.1)])).unwrap(), 0);
        // Sets with no seed in common have only their medians.
        assert_eq!(compare(&a, &set([(3, 2.0), (4, 2.97)])).unwrap(), 0);
    }

    #[test]
    fn missing_workloads_and_empty_sets_are_errors() {
        let a = record("cache_rr", 1.0, 1.0);
        let b = record("sst_block", 1.0, 1.0);
        assert!(compare(&a, &b).is_err());
        assert!(compare("cache_rr ops_per_s 12\n", &a).is_err());
        assert!(parse_set("{\"correct\": true}\n").is_err());
    }
}
