//! Machine-readable exporters.
//!
//! Two formats over the same [`Snapshot`]. The one that carries every
//! plane is [`Sources::snapshot`](crate::Sources::snapshot), so `/metrics`
//! and the CLI's `--telemetry` files render the same series:
//!
//! * [`to_json`] — a self-describing JSON document (`{"version":1,
//!   "series":[...]}`) with per-histogram p50/p90/p99/max, for artifact
//!   files and cross-PR trend tracking.
//! * [`to_prometheus`] — the Prometheus text exposition format (0.0.4):
//!   counters and gauges as single samples, histograms as cumulative
//!   `_bucket{le="..."}` samples plus `_sum` and `_count`. Metric names
//!   are sanitized to the `[a-zA-Z_:][a-zA-Z0-9_:]*` charset (dots
//!   become underscores).

use crate::histogram::{bucket_upper, HistogramSnapshot};
use crate::registry::{SeriesValue, Snapshot};

/// Serializes a snapshot as a JSON document.
pub fn to_json(snap: &Snapshot) -> String {
    let mut out = String::with_capacity(snap.series.len() * 96 + 32);
    out.push_str("{\"version\":1,\"series\":[");
    for (i, s) in snap.series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json_string(&mut out, &s.key.name);
        out.push_str(",\"labels\":{");
        for (j, (k, v)) in s.key.labels.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            json_string(&mut out, k);
            out.push(':');
            json_string(&mut out, v);
        }
        out.push_str("},");
        match &s.value {
            SeriesValue::Counter(v) => {
                out.push_str(&format!("\"kind\":\"counter\",\"value\":{v}"));
            }
            SeriesValue::Gauge(v) => {
                out.push_str("\"kind\":\"gauge\",\"value\":");
                json_number(&mut out, *v);
            }
            SeriesValue::Histogram(h) => {
                out.push_str(&format!(
                    "\"kind\":\"histogram\",\"count\":{},\"sum\":{},\"max\":{},\"mean\":",
                    h.count(),
                    h.sum,
                    h.max,
                ));
                json_number(&mut out, h.mean());
                out.push_str(&format!(
                    ",\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
                    h.quantile(0.50),
                    h.quantile(0.90),
                    h.quantile(0.99),
                ));
                let mut first = true;
                for (idx, &c) in h.buckets.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    out.push_str(&format!("[{},{c}]", bucket_upper(idx)));
                }
                out.push(']');
            }
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Appends `s` as a quoted JSON string, escaping quotes, backslashes
/// and control characters.
pub fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

pub(crate) fn json_number(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
        // `{}` on a whole f64 prints no decimal point; that is still
        // valid JSON (an integer literal).
    } else {
        out.push_str("null");
    }
}

/// Serializes a snapshot in the Prometheus text exposition format.
pub fn to_prometheus(snap: &Snapshot) -> String {
    let mut out = String::with_capacity(snap.series.len() * 128 + 32);
    let mut last_name: Option<&str> = None;
    for s in &snap.series {
        let name = prom_name(&s.key.name);
        if last_name != Some(s.key.name.as_str()) {
            let kind = match &s.value {
                SeriesValue::Counter(_) => "counter",
                SeriesValue::Gauge(_) => "gauge",
                SeriesValue::Histogram(_) => "histogram",
            };
            // Series carry no free-form descriptions, so HELP states
            // the one thing the sanitized name can lose: the original
            // dotted series name.
            let mut help = String::new();
            prom_help_escape(&mut help, &s.key.name);
            out.push_str(&format!("# HELP {name} datacomp {kind} \"{help}\"\n"));
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            last_name = Some(s.key.name.as_str());
        }
        match &s.value {
            SeriesValue::Counter(v) => {
                out.push_str(&format!("{name}{} {v}\n", prom_labels(&s.key.labels, &[])));
            }
            SeriesValue::Gauge(v) => {
                let v = if v.is_finite() { *v } else { 0.0 };
                out.push_str(&format!("{name}{} {v}\n", prom_labels(&s.key.labels, &[])));
            }
            SeriesValue::Histogram(h) => prom_histogram(&mut out, &name, &s.key.labels, h),
        }
    }
    out
}

fn prom_histogram(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    h: &HistogramSnapshot,
) {
    let mut cum = 0u64;
    for (idx, &c) in h.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        cum += c;
        let le = bucket_upper(idx).to_string();
        out.push_str(&format!(
            "{name}_bucket{} {cum}\n",
            prom_labels(labels, &[("le", &le)])
        ));
    }
    out.push_str(&format!(
        "{name}_bucket{} {cum}\n",
        prom_labels(labels, &[("le", "+Inf")])
    ));
    out.push_str(&format!(
        "{name}_sum{} {}\n",
        prom_labels(labels, &[]),
        h.sum
    ));
    out.push_str(&format!("{name}_count{} {cum}\n", prom_labels(labels, &[])));
}

/// Sanitizes a metric name to the Prometheus charset.
pub fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if ok {
            out.push(c);
        } else if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline (the three characters that would otherwise break
/// the `name{label="value"} sample` line structure).
fn prom_escape(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Escapes HELP text per the exposition format: backslash and newline
/// (double quotes are legal inside HELP lines).
fn prom_help_escape(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Renders `{k="v",...}` for a series' labels plus `extra` pairs (a
/// histogram's `le`, an exemplar's trace coordinates); empty when both
/// are.
fn prom_labels(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    let pairs = labels.iter().map(|(k, v)| (k.as_str(), v.as_str()));
    for (i, (k, v)) in pairs.chain(extra.iter().copied()).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&prom_name(k));
        out.push_str("=\"");
        prom_escape(&mut out, v);
        out.push('"');
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_snapshot() -> Snapshot {
        let reg = Registry::new();
        reg.counter(
            "codecs.compress.calls",
            &[("algo", "zstdx"), ("level", "3")],
        )
        .add(7);
        reg.gauge("fleet.app.secs", &[("service", "DW1")]).set(1.25);
        let h = reg.histogram("span.zstdx.match_find", &[]);
        for v in [100u64, 1000, 10_000] {
            h.observe(v);
        }
        reg.snapshot()
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let json = to_json(&sample_snapshot());
        assert!(json.starts_with("{\"version\":1"));
        assert!(json.contains("\"codecs.compress.calls\""));
        assert!(json.contains("\"algo\":\"zstdx\""));
        assert!(json.contains("\"value\":7"));
        assert!(json.contains("\"kind\":\"histogram\""));
        assert!(json.contains("\"p50\":"));
        assert!(json.contains("\"p99\":"));
        // Balanced braces/brackets (cheap structural check; the full
        // parse happens in the cross-crate integration test).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_strings_are_escaped() {
        let reg = Registry::new();
        reg.counter("weird\"name", &[("k", "v\\w\n")]).inc();
        let json = to_json(&reg.snapshot());
        assert!(json.contains("weird\\\"name"));
        assert!(json.contains("v\\\\w\\n"));
    }

    #[test]
    fn prometheus_lines_are_parseable() {
        let text = to_prometheus(&sample_snapshot());
        assert!(text.contains("# TYPE codecs_compress_calls counter\n"));
        assert!(text
            .contains("# HELP codecs_compress_calls datacomp counter \"codecs.compress.calls\"\n"));
        assert!(text.contains("# HELP span_zstdx_match_find datacomp histogram"));
        assert!(text.contains("codecs_compress_calls{algo=\"zstdx\",level=\"3\"} 7\n"));
        assert!(text.contains("# TYPE span_zstdx_match_find histogram\n"));
        assert!(text.contains("span_zstdx_match_find_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("span_zstdx_match_find_sum 11100\n"));
        assert!(text.contains("span_zstdx_match_find_count 3\n"));
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (metric, value) = line.rsplit_once(' ').expect("sample line");
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf",
                "unparseable value in {line}"
            );
            let name_part = metric.split('{').next().unwrap();
            assert!(
                name_part
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name in {line}"
            );
        }
    }

    #[test]
    fn json_histogram_exposes_mean() {
        let json = to_json(&sample_snapshot());
        // sum 11100 over 3 observations.
        assert!(json.contains("\"mean\":3700"), "{json}");
    }

    #[test]
    fn prometheus_escapes_label_values() {
        let reg = Registry::new();
        reg.counter("evil", &[("path", "C:\\tmp\"x\ny")]).inc();
        let text = to_prometheus(&reg.snapshot());
        assert!(text.contains("evil{path=\"C:\\\\tmp\\\"x\\ny\"} 1\n"));
        // Every sample stays on one physical line with balanced quotes.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let unescaped = line.replace("\\\\", "").replace("\\\"", "");
            assert_eq!(unescaped.matches('"').count() % 2, 0, "bad line {line}");
        }
    }

    #[test]
    fn prom_escape_passes_clean_values_through() {
        let mut out = String::new();
        prom_escape(&mut out, "zstdx-19/dict");
        assert_eq!(out, "zstdx-19/dict");
    }

    #[test]
    fn help_lines_escape_hostile_names_onto_one_line() {
        let reg = Registry::new();
        reg.counter("weird\\name\nwith newline", &[]).inc();
        let text = to_prometheus(&reg.snapshot());
        let help = text
            .lines()
            .find(|l| l.starts_with("# HELP"))
            .expect("HELP line");
        assert!(help.contains("weird\\\\name\\nwith newline"), "{help}");
        // Exactly one HELP + one TYPE + one sample: nothing leaked onto
        // extra physical lines.
        assert_eq!(text.lines().count(), 3, "{text}");
    }

    #[test]
    fn every_series_gets_help_before_type() {
        let text = to_prometheus(&sample_snapshot());
        let mut lines = text.lines().peekable();
        while let Some(line) = lines.next() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().unwrap();
                let next = lines.peek().expect("TYPE follows HELP");
                assert!(
                    next.starts_with(&format!("# TYPE {name} ")),
                    "HELP for {name} not followed by its TYPE: {next}"
                );
            }
        }
        assert_eq!(
            text.matches("# HELP").count(),
            3,
            "one HELP per distinct series name"
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let text = to_prometheus(&sample_snapshot());
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("span_zstdx_match_find_bucket"))
            .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
        assert_eq!(*counts.last().unwrap(), 3);
    }

    #[test]
    fn name_sanitization() {
        assert_eq!(prom_name("fleet.compress.nanos"), "fleet_compress_nanos");
        assert_eq!(prom_name("ok_name:sub"), "ok_name:sub");
        assert_eq!(prom_name("9lives"), "_9lives");
        assert_eq!(prom_name("a-b c"), "a_b_c");
    }
}
