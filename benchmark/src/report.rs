//! The metric catalogue — names, units, directions and bounds, the one
//! place `BENCHMARK.json` is checked against — and the printed forms of
//! a run.

use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogue entry. `bound` is the share of the baseline median by
/// which an end-to-end metric may worsen before it is a regression;
/// per-layer metrics have none.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the served system sees, per workload. One *op* is one
/// request answered `Ok` and verified.
///
/// `failed_share` (failed ÷ attempted) is not among them although the
/// issue lists it: the driver's contract wants end-to-end metrics that
/// are never 0, a bound being a share of the baseline median, and
/// `failed_share` is 0 on every healthy run. It is printed with every
/// run, it is the `failed`/`attempted` pair of the result line, and any
/// failure makes the command exit non-zero.
///
/// A bound has to hold the spread of single runs it is checked against
/// — ten runs, each on another seed, whose quartiles must lie within
/// the bound and should lie within a third of it. The README has the
/// A/A tables: on the shared box this was sized on, single runs of the
/// same code and seed spread 3–5% in a quiet hour and up to 16% (18% on
/// `orc_stripe`'s means) in a busy one, so the timings take the
/// contract's maximum; peak memory differs by up to 5% and `ratio` by
/// up to 7% between decks. (`--compare` also holds `ratio` seed by
/// seed, to 0.5%.) Medians of ten runs repeat to 4%, 7% on
/// `orc_stripe`'s means.
pub const END_TO_END: [Def; 9] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("compress_us_per_op", "us", Lower, 0.25),
    e2e("decompress_us_per_op", "us", Lower, 0.25),
    e2e("compress_p50_us", "us", Lower, 0.25),
    e2e("decompress_p50_us", "us", Lower, 0.25),
    e2e("cpu_us_per_op", "us", Lower, 0.25),
    e2e("rss_mb", "MB", Lower, 0.2),
    e2e("ratio", "x", Higher, 0.2),
];

/// Single layers, timed from outside through their public functions on
/// the same deck and lap order; printed by the traced run.
pub const PER_LAYER: [Def; 62] = [
    layer("cli.daemon_ready_ms", "ms", Lower),
    layer("cli.warmup_ms", "ms", Lower),
    layer("server.compress_us_per_op", "us", Lower),
    layer("server.decompress_us_per_op", "us", Lower),
    layer("server.self_us_per_op", "us", Lower),
    layer("server.protocol_us_per_op", "us", Lower),
    layer("server.wire_bytes_per_op", "B", Lower),
    layer("server.compress_p99_us", "us", Lower),
    layer("server.decompress_p99_us", "us", Lower),
    layer("server.call_max_ms", "ms", Lower),
    layer("server.burst_stall_share", "share", Lower),
    layer("server.burst64_ops_per_s", "1/s", Higher),
    layer("server.failed_ops", "count", Lower),
    layer("server.count_mismatch", "count", Lower),
    layer("managed.compress_us_per_op", "us", Lower),
    layer("managed.decompress_us_per_op", "us", Lower),
    layer("managed.compress_p50_us", "us", Lower),
    layer("managed.self_us_per_op", "us", Lower),
    layer("managed.retrain_share", "share", Lower),
    layer("managed.retrain_max_ms", "ms", Lower),
    layer("managed.retrains_per_pass_min", "count", Lower),
    layer("managed.retrains_per_pass_max", "count", Lower),
    layer("managed.versions_trained", "count", Lower),
    layer("managed.passthrough_frames", "count", Lower),
    layer("codecs.zstdx.compress_us_per_op", "us", Lower),
    layer("codecs.zstdx.decompress_us_per_op", "us", Lower),
    layer("codecs.zstdx.match_find_share", "share", Lower),
    layer("codecs.dict_train_ms", "ms", Lower),
    layer("codecs.self_us_per_op", "us", Lower),
    layer("codecs.lz4x.compress_mb_s", "MB/s", Higher),
    layer("codecs.lz4x.decompress_mb_s", "MB/s", Higher),
    layer("codecs.lz4x.ratio", "x", Higher),
    layer("codecs.zlibx.compress_mb_s", "MB/s", Higher),
    layer("codecs.zlibx.decompress_mb_s", "MB/s", Higher),
    layer("codecs.zlibx.ratio", "x", Higher),
    layer("codecs.zstdx.compress_mb_s", "MB/s", Higher),
    layer("codecs.zstdx.decompress_mb_s", "MB/s", Higher),
    layer("codecs.zstdx.ratio", "x", Higher),
    layer("lzkit.parse_us_per_op", "us", Lower),
    layer("lzkit.reconstruct_us_per_op", "us", Lower),
    layer("lzkit.sequences_per_kb", "1/KB", Lower),
    layer("lzkit.match_coverage", "share", Higher),
    layer("entropy.huffman_build_us_per_op", "us", Lower),
    layer("entropy.huffman_encode_us_per_op", "us", Lower),
    layer("entropy.huffman_decode_us_per_op", "us", Lower),
    layer("entropy.fse_build_us_per_op", "us", Lower),
    layer("entropy.fse_encode_us_per_op", "us", Lower),
    layer("entropy.fse_decode_us_per_op", "us", Lower),
    layer("entropy.literal_bytes_per_op", "B", Lower),
    layer("telemetry.counter_inc_ns", "ns", Lower),
    layer("telemetry.window_observe_ns", "ns", Lower),
    layer("telemetry.request_ctx_ns", "ns", Lower),
    layer("corpus.generate_ms", "ms", Lower),
    layer("corpus.deck_items", "count", Higher),
    layer("corpus.deck_bytes", "B", Higher),
    layer("noise.pinned", "count", Higher),
    layer("noise.quiet_passes", "count", Higher),
    layer("noise.pass_p50_over_q1", "x", Lower),
    layer("noise.all_over_quiet", "x", Lower),
    layer("noise.calib_kernel_us", "us", Lower),
    layer("trace.spans", "count", Lower),
    layer("trace.overhead_share", "share", Lower),
];

pub fn def_of(name: &str) -> Option<&'static Def> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

/// One measured value and how many samples stand behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: u64,
}

/// Measured values, in catalogue order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Records `name`; it must be in the catalogue.
    pub fn put(&mut self, name: &'static str, value: f64, samples: u64) {
        debug_assert!(def_of(name).is_some(), "metric {name} not in the catalogue");
        self.0.push(Metric {
            name,
            value,
            samples,
        });
    }

    /// Human-readable lines: every metric by name, with unit and sample
    /// count.
    pub fn print(&self, workload: &str) {
        for m in &self.0 {
            let unit = def_of(m.name).map_or("", |d| d.unit);
            print_line(workload, m.name, m.value, unit, m.samples);
        }
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            let unit = def_of(m.name).map_or("", |d| d.unit);
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                m.name,
                json_number(m.value)
            );
        }
        out.push('}');
        out
    }
}

/// One printed metric: workload, name, value, unit, sample count.
pub fn print_line(workload: &str, name: &str, value: f64, unit: &str, samples: u64) {
    println!(
        "{workload:<11} {name:<36} {:>16} {unit:<6} n={samples}",
        format_value(value)
    );
}

fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// A float as JSON with all its digits; JSON has no NaN or infinity.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Whether the run's answers were right.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub count_mismatch: u64,
}

impl Outcome {
    pub fn failed_share(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }

    /// Every answer verified and the client's tallies equal to the
    /// daemon's counters. Anything else makes the command exit
    /// non-zero.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.count_mismatch == 0
    }

    /// The result line the driver reads: exactly these four keys.
    pub fn result_line(&self, metrics: &Metrics) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.to_json()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|d| d.name)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(d.name.len() <= 64);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0));
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s"
            && d.unit == "s"
            && d.better == Lower
            && END_TO_END.iter().all(|o| o.bound <= d.bound)));
    }

    /// `BENCHMARK.json` at the repo root restates the catalogue for the
    /// driver; the two must not drift apart.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let body = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc: serde_json::Value = serde_json::from_str(&body).expect("valid JSON");
        let list = |key: &str| doc.get(key).and_then(|v| v.as_array()).expect(key).clone();
        let text = |v: &serde_json::Value, key: &str| {
            v.get(key).and_then(|s| s.as_str()).expect(key).to_string()
        };

        let workloads = list("workloads");
        assert_eq!(workloads.len(), crate::deck::WORKLOADS.len());
        for (json, w) in workloads.iter().zip(&crate::deck::WORKLOADS) {
            assert_eq!(text(json, "name"), w.name);
            assert_eq!(text(json, "why"), w.why);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let metrics = list(key);
            assert_eq!(metrics.len(), defs.len(), "{key}");
            for (json, d) in metrics.iter().zip(defs) {
                assert_eq!(text(json, "name"), d.name);
                assert_eq!(text(json, "unit"), d.unit, "{}", d.name);
                assert_eq!(text(json, "better"), d.better.as_str(), "{}", d.name);
                if key == "end_to_end" {
                    let bound = json.get("bound").and_then(|b| b.as_f64()).expect("bound");
                    assert_eq!(bound, d.bound, "{}", d.name);
                }
            }
        }
        assert_eq!(
            doc.get("run_seconds").and_then(|v| v.as_u64()),
            Some(crate::RUN_SECONDS)
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut metrics = Metrics::default();
        metrics.put("ops_per_s", 28123.456789, 1000);
        metrics.put("setup_s", 0.25, 5);
        let line = Outcome {
            attempted: 10,
            failed: 0,
            count_mismatch: 0,
        }
        .result_line(&metrics);
        let doc: serde_json::Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc["correct"], true);
        assert_eq!(
            doc["metrics"]["ops_per_s"]["value"].as_f64(),
            Some(28123.456789)
        );
        assert_eq!(doc["metrics"]["setup_s"]["unit"], "s");
    }

    #[test]
    fn any_failure_or_mismatch_is_incorrect() {
        let ok = Outcome {
            attempted: 5,
            failed: 0,
            count_mismatch: 0,
        };
        assert!(ok.correct());
        assert_eq!(ok.failed_share(), 0.0);
        assert!(!Outcome { failed: 1, ..ok }.correct());
        assert!(!Outcome {
            count_mismatch: 1,
            ..ok
        }
        .correct());
        assert!(!Outcome::default().correct());
    }
}
