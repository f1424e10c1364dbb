//! End-to-end proof of the request-tracing plane: a deliberately slow,
//! errored request under `ManualClock` is tail-sampled, its span tree's
//! stage self-times sum to the recorded latency (a mark inside it adds
//! a zero-length node and no time), and the same request id scraped
//! from `/requests.json` resolves to its own thread in the `/trace.json`
//! Chrome export — what a human opens in Perfetto to go from an SLO
//! burn to the exact stage that ate the budget.

use std::time::Duration;

use telemetry::request::{mark, observe_stage};
use telemetry::serve::http_get;
use telemetry::{
    KeepReason, ManualClock, Op, RequestSampler, SamplerConfig, ScrapeServer, Sources, WindowConfig,
};

#[test]
fn slow_errored_request_is_sampled_and_rendered_on_its_own_trace_thread() {
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
    // two instrumented stages and one mark inside it.
    let req = sampler.open("kvcache", Op::Compress, 900);
    let victim_id = req.id();
    let start = std::time::Instant::now();
    observe_stage("stage.entropy", start, Duration::from_nanos(1_500_000));
    observe_stage(
        "stage.match",
        start + Duration::from_millis(2),
        Duration::from_nanos(2_500_000),
    );
    mark("stage.retry");
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

    // 2. The span tree is coherent: root, both stages and the mark, and
    //    the self-times partition the recorded latency exactly.
    assert_eq!(
        victim.spans.len(),
        4,
        "root + 2 stages + mark: {:?}",
        victim.spans
    );
    assert_eq!(victim.spans[0].parent, 0, "first span must be the root");
    assert_eq!(victim.self_nanos_total(), victim.latency_nanos);
    let stage_names: Vec<_> = victim.spans.iter().map(|s| s.name).collect();
    assert!(stage_names.contains(&"stage.entropy"), "{stage_names:?}");
    assert!(stage_names.contains(&"stage.match"), "{stage_names:?}");
    let retry = victim
        .spans
        .iter()
        .find(|s| s.name == "stage.retry")
        .unwrap();
    assert_eq!(
        (retry.total_nanos, retry.self_nanos),
        (0, 0),
        "a mark is zero-length"
    );

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

    assert!(
        spans
            .iter()
            .any(|s| s["name"] == "stage.retry" && s["total"] == 0),
        "mark missing from the scraped span tree"
    );

    // 4. The scraped id resolves to the request's own thread in the
    //    Chrome export: one ph:"X" complete event per timed span node
    //    and a ph:"i" instant for the mark, all carrying the request id
    //    on tid = request id.
    let doc: serde_json::Value = serde_json::from_str(&trace_json).expect("valid /trace.json");
    let events: Vec<&serde_json::Value> = doc["traceEvents"]
        .as_array()
        .expect("traceEvents array")
        .iter()
        .filter(|ev| ev["args"]["request"] == victim_id)
        .collect();
    assert_eq!(events.len(), 4, "one event per span node: {events:?}");
    assert!(events.iter().all(|ev| ev["tid"] == victim_id));
    let phase = |name: &str| {
        events
            .iter()
            .find(|ev| ev["name"] == name)
            .unwrap_or_else(|| panic!("{name} missing from /trace.json"))["ph"]
            .clone()
    };
    assert_eq!(phase("stage.match"), "X");
    assert_eq!(phase("compress"), "X");
    assert_eq!(phase("stage.retry"), "i");
}
