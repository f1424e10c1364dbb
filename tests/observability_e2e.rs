//! End-to-end proof of the live observability plane: real codec and
//! managed-service traffic on the process-global registries, scraped
//! over real HTTP, with a `/metrics` exemplar resolved to the exact
//! flight-recorder event in the `/trace.json` Chrome export.
//!
//! This is the contract the monitor command relies on: a scrape-time
//! windowed p99 is not a dead end — its exemplar's `(track, seq)`
//! coordinates land on a concrete `ph:"i"` event a human can open in
//! Perfetto.

use telemetry::serve::http_get;
use telemetry::{ScrapeServer, Sources};

/// Pulls `key="value"` out of a Prometheus label set.
fn label_value<'a>(labels: &'a str, key: &str) -> Option<&'a str> {
    let start = labels.find(&format!("{key}=\""))? + key.len() + 2;
    let rest = &labels[start..];
    Some(&rest[..rest.find('"')?])
}

#[test]
fn metrics_exemplar_resolves_to_a_real_event_in_the_chrome_trace() {
    // Name this thread's track so the resolved event is attributable.
    telemetry::trace::set_track_name("e2e:observability");

    // Real traffic into the global planes: codec calls feed the
    // windowed registry, whose histograms mint exemplars pointing at
    // global-tracer instants.
    let data = corpus::silesia::generate(corpus::silesia::FileClass::Log, 32 * 1024, 7);
    let codec = codecs::Algorithm::Zstdx.compressor(3);
    for _ in 0..5 {
        let frame = codec.compress(&data);
        codec.decompress(&frame).expect("roundtrip");
    }

    let server = ScrapeServer::bind("127.0.0.1:0", Sources::global()).expect("bind");
    let addr = server.local_addr();

    // 1. The scrape carries a windowed latency view with an exemplar.
    let metrics = http_get(addr, "/metrics").expect("/metrics");
    let exemplar_line = metrics
        .lines()
        .find(|l| l.starts_with("window_codecs_compress_nanos_exemplar{"))
        .unwrap_or_else(|| panic!("no compress exemplar in scrape:\n{metrics}"));
    let labels = exemplar_line
        .split_once('{')
        .unwrap()
        .1
        .split_once('}')
        .unwrap()
        .0;
    let track: u64 = label_value(labels, "track")
        .expect("track label")
        .parse()
        .expect("numeric track");
    let seq: u64 = label_value(labels, "seq")
        .expect("seq label")
        .parse()
        .expect("numeric seq");

    // 2. The same scrape surface exports the flight recorder; the
    //    exemplar's coordinates land on a real instant event.
    let trace = http_get(addr, "/trace.json").expect("/trace.json");
    server.shutdown();
    let needle = format!("\"args\":{{\"seq\":{seq}}},\"ts\":");
    let event = trace
        .split("},{")
        .find(|obj| obj.contains(&needle) && obj.contains(&format!("\"tid\":{track}")))
        .unwrap_or_else(|| panic!("no event (track={track}, seq={seq}) in trace:\n{trace}"));
    assert!(
        event.contains("\"name\":\"codec.compress.window_max\""),
        "exemplar resolved to the wrong event: {event}"
    );
    assert!(event.contains("\"ph\":\"i\""), "not an instant: {event}");

    // 3. The track is the named thread we set, so Perfetto shows the
    //    exemplar on a human-readable lane.
    assert!(
        trace.contains(&format!(
            "\"name\":\"thread_name\",\"ph\":\"M\",\"args\":{{\"name\":\"e2e:observability\"}},\"ts\":0.000,\"pid\":1,\"tid\":{track}"
        )),
        "exemplar track is not the named thread:\n{trace}"
    );
}

#[test]
fn slo_endpoint_reflects_fed_objectives_live() {
    // Register and feed an objective exactly as the managed service
    // does, then confirm the JSON endpoint reports it.
    let slo =
        telemetry::slos().register(telemetry::SloConfig::error_rate("e2e.decode.errors", 0.99));
    for _ in 0..50 {
        slo.record(true);
    }
    slo.evaluate();

    let server = ScrapeServer::bind("127.0.0.1:0", Sources::global()).expect("bind");
    let addr = server.local_addr();
    let slo_json = http_get(addr, "/slo").expect("/slo");
    let metrics = http_get(addr, "/metrics").expect("/metrics");
    server.shutdown();

    let doc: serde_json::Value = serde_json::from_str(&slo_json).expect("valid /slo JSON");
    assert_eq!(doc["version"], 1);
    let objectives = doc["objectives"].as_array().expect("objectives array");
    let mine = objectives
        .iter()
        .find(|o| o["name"] == "e2e.decode.errors")
        .expect("registered objective listed");
    assert_eq!(mine["state"], "ok");
    assert_eq!(mine["budget"]["exhausted"], false);
    assert!(metrics.contains("slo_state{objective=\"e2e.decode.errors\"} 0\n"));
}
