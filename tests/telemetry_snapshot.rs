//! End-to-end telemetry: profile the fleet, snapshot the global
//! registry, and check that both exporters produce machine-readable
//! output covering every service.

use fleet::{profile_fleet, ProfileConfig};

#[test]
fn fleet_profile_snapshot_exports_end_to_end() {
    let profile = profile_fleet(&ProfileConfig {
        work_units: 2,
        seed: 11,
    });
    profile.record_to(telemetry::global());
    let snap = telemetry::snapshot();

    // The JSON exporter's output parses with a real JSON parser and
    // carries one call-counter series per service in the fleet registry.
    let json = telemetry::export::to_json(&snap);
    let doc: serde_json::Value = serde_json::from_str(&json).expect("telemetry JSON parses");
    assert_eq!(doc["version"], 1);
    let series = doc["series"].as_array().expect("series array");
    for spec in fleet::registry() {
        assert!(
            series
                .iter()
                .any(|s| s["name"] == "fleet.compress.calls"
                    && s["labels"]["service"] == spec.name),
            "missing fleet.compress.calls for {}",
            spec.name
        );
    }

    // Per-stage span timings are latency histograms with quantiles, fed
    // by both the plain and the dictionary zstdx paths (CACHE1/CACHE2
    // compress through dicts).
    for span in ["span.zstdx.match_find", "span.zstdx.entropy"] {
        let hist = series
            .iter()
            .find(|s| s["name"] == span)
            .unwrap_or_else(|| panic!("missing {span}"));
        assert_eq!(hist["kind"], "histogram");
        assert!(
            hist["count"].as_u64().unwrap() > 0,
            "{span} recorded nothing"
        );
        let p50 = hist["p50"].as_u64().expect("p50 present");
        let p99 = hist["p99"].as_u64().expect("p99 present");
        assert!(p50 <= p99, "{span}: p50 {p50} > p99 {p99}");
    }

    // Codec-level counters carry (algo, level) labels.
    assert!(
        series.iter().any(|s| s["name"] == "codecs.compress.calls"
            && s["labels"]["algo"] == "zstdx"
            && s["labels"]["level"].is_string()),
        "missing per-algorithm codec counters"
    );

    // The same snapshot serializes to well-formed Prometheus text:
    // every sample line is `name{labels} value` with a numeric value,
    // and the stage histograms appear with cumulative buckets.
    let prom = telemetry::export::to_prometheus(&snap);
    assert!(prom.contains("span_zstdx_match_find_bucket"));
    assert!(prom.contains("# TYPE fleet_compress_calls counter"));
    for line in prom.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (metric, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable value in {line:?}"
        );
        let name = metric.split('{').next().unwrap();
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in {line:?}"
        );
    }
}

#[test]
fn managed_service_snapshot_merges_into_global_view() {
    // A managed service keeps a per-instance registry; its snapshot
    // merges into any other snapshot for a unified export.
    let mut svc = managed::ManagedCompression::new(managed::ManagedConfig::default());
    for i in 0..4 {
        let payload = format!("{{\"k\":\"record-{i}\",\"v\":{i}}}").repeat(8);
        let frame = svc
            .compress("events", payload.as_bytes())
            .expect("admitted");
        svc.decompress("events", &frame).expect("round-trip");
    }
    let mut merged = telemetry::snapshot();
    merged.merge(&svc.telemetry().snapshot());
    let labels = [("use_case", "events")];
    assert_eq!(merged.counter("managed.compress.calls", &labels), 4);
    assert_eq!(merged.counter("managed.decompress.calls", &labels), 4);
    let json = telemetry::export::to_json(&merged);
    let doc: serde_json::Value = serde_json::from_str(&json).expect("merged JSON parses");
    assert!(doc["series"]
        .as_array()
        .unwrap()
        .iter()
        .any(|s| s["name"] == "managed.bytes_in" && s["labels"]["use_case"] == "events"));
}
