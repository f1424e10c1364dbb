//! End-to-end proof of the live observability plane: real
//! managed-service traffic on the process-global registries, scraped
//! over real HTTP, with a `/metrics` exemplar resolved to the request
//! it was observed in — in `/requests.json` and as its `req:<id>`
//! thread in the `/trace.json` Chrome export.
//!
//! This is the contract the monitor command relies on: a scrape-time
//! windowed p99 is not a dead end — its exemplar's request id lands on
//! a concrete span tree a human can open in Perfetto.

use managed::{ManagedCompression, ManagedConfig};
use telemetry::serve::http_get;
use telemetry::{ScrapeServer, Sources};

#[test]
fn metrics_exemplar_resolves_to_a_sampled_request_and_its_trace_thread() {
    // Real traffic into the global planes: each managed call opens a
    // request, and the windowed latency histogram names the request
    // its sub-window maximum ran in. One large payload among small ones
    // makes that maximum unambiguous, and six calls stay within the
    // sampler's slowest-8 of a sub-window, so every one is kept.
    let small = corpus::silesia::generate(corpus::silesia::FileClass::Log, 1024, 7);
    let large = corpus::silesia::generate(corpus::silesia::FileClass::Log, 320 * 1024, 7);
    let mut svc = ManagedCompression::new(ManagedConfig::default());
    for i in 0..6 {
        let data = if i == 3 { &large } else { &small };
        svc.compress("e2e.observability", data).expect("admitted");
    }

    let server = ScrapeServer::bind("127.0.0.1:0", Sources::global()).expect("bind");
    let addr = server.local_addr();

    // 1. The scrape carries a windowed latency view with an exemplar
    //    labelled by request id.
    let metrics = http_get(addr, "/metrics").expect("/metrics");
    let exemplar_line = metrics
        .lines()
        .find(|l| {
            l.starts_with("window_managed_compress_nanos_exemplar{")
                && l.contains("use_case=\"e2e.observability\"")
        })
        .unwrap_or_else(|| panic!("no managed compress exemplar in scrape:\n{metrics}"));
    let labels = exemplar_line
        .split_once('{')
        .unwrap()
        .1
        .split_once('}')
        .unwrap()
        .0;
    let start = labels.find("request=\"").expect("request label") + "request=\"".len();
    let id: u64 = labels[start..]
        .split('"')
        .next()
        .unwrap()
        .parse()
        .expect("numeric request id");

    // 2. The id names a sampled request of this use case in
    //    /requests.json...
    let requests = http_get(addr, "/requests.json").expect("/requests.json");
    let trace = http_get(addr, "/trace.json").expect("/trace.json");
    server.shutdown();
    let doc: serde_json::Value = serde_json::from_str(&requests).expect("valid /requests.json");
    let request = doc["requests"]
        .as_array()
        .expect("requests array")
        .iter()
        .find(|r| r["id"] == id)
        .unwrap_or_else(|| panic!("exemplar request {id} absent from /requests.json"));
    assert_eq!(request["service"], "e2e.observability");
    assert_eq!(request["op"], "compress");
    assert_eq!(request["size_class"], "large", "not the slowest request");

    // 3. ...and its `req:<id>` thread in /trace.json, carrying the
    //    request's span tree.
    let doc: serde_json::Value = serde_json::from_str(&trace).expect("valid /trace.json");
    let events = doc["traceEvents"].as_array().expect("traceEvents array");
    let thread = events
        .iter()
        .find(|ev| ev["name"] == "thread_name" && ev["tid"] == id)
        .unwrap_or_else(|| panic!("no thread for request {id} in /trace.json"));
    let name = thread["args"]["name"].as_str().unwrap();
    assert!(
        name.starts_with(&format!("req:{id} e2e.observability/compress")),
        "{name}"
    );
    let spans: Vec<&serde_json::Value> = events
        .iter()
        .filter(|ev| ev["tid"] == id && ev["ph"] == "X")
        .collect();
    assert!(
        spans.iter().any(|ev| ev["name"] == "compress"),
        "no root span"
    );
    assert!(
        spans.iter().any(|ev| ev["name"] == "codec.compress"),
        "no codec stage under request {id}"
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

/// The families DESIGN.md §6's series ledger marked as read by nothing,
/// deleted with the code that fed them.
const DELETED_FAMILIES: [&str; 11] = [
    "codecs_compress_nanos",
    "codecs_decompress_nanos",
    "window_codecs_compress_bytes_in",
    "window_codecs_compress_nanos",
    "window_codecs_decompress_bytes_out",
    "window_codecs_decompress_nanos",
    "window_managed_decompress_nanos",
    "resilience_admission_mode",
    "resilience_admission_inflight",
    "slo_fast_burn",
    "slo_slow_burn",
];

/// The suffixes a windowed histogram exports, one gauge family each.
const WINDOWED: &[&str] = &["_count", "_sum", "_p50", "_p90", "_p99", "_max", "_rate"];

/// Every family the ledger names a reader for, with its suffixes.
const READ_FAMILIES: &[(&str, &[&str])] = &[
    ("codecs_compress_bytes_in", &[""]),
    ("codecs_compress_bytes_out", &[""]),
    ("codecs_compress_calls", &[""]),
    ("codecs_decompress_bytes_out", &[""]),
    ("codecs_decompress_calls", &[""]),
    ("resilience_breaker_state", &[""]),
    ("server_requests", &[""]),
    ("span_zstdx_entropy", &[""]),
    ("span_zstdx_match_find", &[""]),
    ("window_span_seconds", &[""]),
    ("window_managed_compress_nanos", WINDOWED),
    ("window_managed_compress_nanos", &["_exemplar"]),
    ("window_resilience_admitted", &["", "_rate"]),
    ("window_server_request_nanos", WINDOWED),
    ("slo_state", &[""]),
    ("slo_budget_remaining", &[""]),
    ("requests_total", &[""]),
    ("requests_sampled_total", &[""]),
    ("requests_dropped_total", &[""]),
    ("requests_evicted_total", &[""]),
    ("request_spans_dropped_total", &[""]),
];

#[test]
fn metrics_export_every_read_family_and_none_of_the_unread_ones() {
    telemetry::slos().register(telemetry::SloConfig::error_rate(
        "e2e.families.errors",
        0.99,
    ));
    let items = corpus::cache::generate_items(&corpus::cache::cache1_profile(), 40, 11);
    // Managed traffic in-process, both directions, then the same items
    // through the daemon over a real socket.
    let mut svc = ManagedCompression::new(ManagedConfig::default());
    let config = server::ServerConfig {
        workers: 1,
        ..server::ServerConfig::default()
    };
    let daemon = server::CompressionServer::bind("127.0.0.1:0", config).expect("bind daemon");
    let mut client = server::client::Client::connect(daemon.local_addr()).expect("connect");
    for item in &items {
        let frame = svc.compress("e2e.families", &item.data).expect("admitted");
        assert_eq!(
            svc.decompress("e2e.families", &frame).expect("decoded"),
            item.data
        );
        let frame = client
            .compress("CACHE1", "items", &item.data)
            .expect("compress");
        let back = client.decompress("CACHE1", "items", &frame.payload);
        assert_eq!(back.expect("decompress").payload, item.data);
    }
    drop(client);
    daemon.shutdown();

    let scrape = ScrapeServer::bind("127.0.0.1:0", Sources::global()).expect("bind");
    let metrics = http_get(scrape.local_addr(), "/metrics").expect("/metrics");
    scrape.shutdown();
    let mut families = std::collections::BTreeSet::new();
    for family in metrics.lines().filter_map(|l| l.strip_prefix("# TYPE ")) {
        let family = family.split(' ').next().expect("TYPE line names a family");
        assert!(families.insert(family), "{family} declared twice");
    }
    for gone in DELETED_FAMILIES {
        let stale = |f: &&&str| {
            f.strip_prefix(gone)
                .is_some_and(|s| s.is_empty() || s.starts_with('_'))
        };
        let stale: Vec<&&str> = families.iter().filter(stale).collect();
        assert!(stale.is_empty(), "unread family still exported: {stale:?}");
    }
    for (base, suffixes) in READ_FAMILIES {
        for family in suffixes.iter().map(|suffix| format!("{base}{suffix}")) {
            assert!(
                families.contains(family.as_str()),
                "{family} missing: {families:?}"
            );
        }
    }
}
