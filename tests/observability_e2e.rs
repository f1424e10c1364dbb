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
