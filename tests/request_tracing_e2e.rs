//! End-to-end proof of the request-tracing plane: a deliberately slow,
//! errored request under `ManualClock` is tail-sampled, its span tree's
//! stage self-times sum to the recorded latency, and the same request
//! id scraped from `/requests.json` resolves to flow-linked events in
//! the `/trace.json` Chrome export — the arrow a human follows in
//! Perfetto from an SLO burn to the exact stage that ate the budget.

use std::time::Duration;

use telemetry::request::observe_stage;
use telemetry::serve::http_get;
use telemetry::{
    KeepReason, ManualClock, Op, RequestSampler, SamplerConfig, ScrapeServer, Sources, WindowConfig,
};

#[test]
fn slow_errored_request_is_sampled_and_flow_linked_in_the_chrome_trace() {
    telemetry::trace::set_track_name("e2e:reqtrace");

    // A private sampler on a manual clock so latencies are exact, wired
    // into the scrape surface alongside the process-global planes.
    let clock = ManualClock::shared();
    let sampler = RequestSampler::new(
        SamplerConfig {
            window: WindowConfig {
                sub_window_nanos: 1_000_000_000,
                sub_windows: 4,
            },
            slowest_per_window: 1,
            baseline_one_in: u64::MAX, // no probabilistic keeps: policy only
            capacity: 16,
            seed: 42,
        },
        clock.clone(),
    );

    // Background traffic: fast, successful requests the sampler is free
    // to drop (baseline is off, and none of them will rank slowest once
    // the slow request lands).
    for _ in 0..20 {
        let _req = sampler.open("kvcache", Op::Compress, 900);
        clock.advance(10_000); // 10µs each
    }

    // The victim: one deliberately slow request that also errors, with
    // two instrumented stages inside it.
    let req = sampler.open("kvcache", Op::Compress, 900);
    let victim_id = req.id();
    let start = std::time::Instant::now();
    observe_stage("stage.entropy", start, Duration::from_nanos(1_500_000));
    observe_stage(
        "stage.match",
        start + Duration::from_millis(2),
        Duration::from_nanos(2_500_000),
    );
    clock.advance(9_000_000); // 9ms — orders of magnitude over the herd
    req.mark_error("deadline exceeded");
    drop(req);

    // 1. Tail-sampled: the error guarantees it, independent of ranking.
    let sampled = sampler.sampled();
    let victim = sampled
        .iter()
        .find(|r| r.id == victim_id)
        .expect("slow errored request was not tail-sampled");
    assert_eq!(victim.reason, KeepReason::Error);
    assert_eq!(victim.error, Some("deadline exceeded"));
    assert_eq!(victim.latency_nanos, 9_000_000);

    // 2. The span tree is coherent: root plus both stages, and the
    //    self-times partition the recorded latency exactly.
    assert_eq!(victim.spans.len(), 3, "root + 2 stages: {:?}", victim.spans);
    assert_eq!(victim.spans[0].parent, 0, "first span must be the root");
    assert_eq!(victim.self_nanos_total(), victim.latency_nanos);
    let stage_names: Vec<_> = victim.spans.iter().map(|s| s.name).collect();
    assert!(stage_names.contains(&"stage.entropy"), "{stage_names:?}");
    assert!(stage_names.contains(&"stage.match"), "{stage_names:?}");

    // 3. Scrape the same story over real HTTP.
    let sources = Sources {
        requests: Box::leak(Box::new(sampler.clone())),
        ..Sources::global()
    };
    let server = ScrapeServer::bind("127.0.0.1:0", sources).expect("bind");
    let addr = server.local_addr();
    let requests_json = http_get(addr, "/requests.json").expect("/requests.json");
    let trace_json = http_get(addr, "/trace.json").expect("/trace.json");
    server.shutdown();

    let doc: serde_json::Value =
        serde_json::from_str(&requests_json).expect("valid /requests.json");
    let reqs = doc["requests"].as_array().expect("requests array");
    let scraped = reqs
        .iter()
        .find(|r| r["id"] == victim_id)
        .expect("victim id absent from /requests.json");
    assert_eq!(scraped["outcome"], "error");
    assert_eq!(scraped["error"], "deadline exceeded");
    assert_eq!(scraped["reason"], "error");
    assert_eq!(scraped["latency_nanos"], 9_000_000);
    let spans = scraped["spans"].as_array().expect("spans array");
    let self_sum: u64 = spans.iter().map(|s| s["self"].as_u64().unwrap()).sum();
    assert_eq!(
        self_sum, 9_000_000,
        "scraped self-times don't sum to latency"
    );

    // 4. The scraped id resolves to flow-linked events in the Chrome
    //    export: a ph:"s" arrow from the origin track, its ph:"f"
    //    landing on the request's synthetic thread, and one ph:"X"
    //    complete event per span node carrying the request id.
    assert!(
        trace_json.contains(&format!("\"ph\":\"s\",\"id\":{victim_id}")),
        "no flow-start for request {victim_id} in /trace.json"
    );
    assert!(
        trace_json.contains(&format!("\"ph\":\"f\",\"bp\":\"e\",\"id\":{victim_id}")),
        "no flow-finish for request {victim_id} in /trace.json"
    );
    let span_events = trace_json
        .matches(&format!("\"args\":{{\"request\":{victim_id},"))
        .count();
    assert_eq!(span_events, 3, "expected one complete event per span node");
    assert!(
        trace_json.contains("\"name\":\"stage.match\""),
        "stage name missing from the Chrome export"
    );
}
