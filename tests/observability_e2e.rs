//! End-to-end proof of the live observability plane: real
//! managed-service traffic on the process-global registries, scraped
//! over real HTTP, with a `/metrics` exemplar resolved to the request
//! it was observed in — in `/requests.json` and as its `req:<id>`
//! thread in the `/trace.json` Chrome export.
//!
//! This is the contract `datacomp serve`'s scrape endpoints rely on: a
//! scrape-time windowed p99 is not a dead end — its exemplar's request
//! id lands on a concrete span tree a human can open in Perfetto.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use managed::{ManagedCompression, ManagedConfig, ManagedError, PASSTHROUGH_MAGIC};
use server::protocol::Status;
use telemetry::serve::http_get;
use telemetry::{ScrapeServer, SeriesValue, Sources, WindowConfig};

/// The exemplar test needs its calls among the sampler's slowest of a
/// sub-window, where the family ledger's fleet profile would crowd them.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn metrics_exemplar_resolves_to_a_sampled_request_and_its_trace_thread() {
    let _serial = serial();
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
    let clock = telemetry::global_clock();
    for _ in 0..50 {
        slo.record(true, clock.now_nanos());
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
const DELETED_FAMILIES: &[&str] = &[
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
    // Second copies of events a kept record holds (DESIGN.md §6, "Second sinks").
    "window_resilience_shed",
    "window_resilience_deadline_exceeded",
    "window_resilience_breaker_fast_fail",
    "window_resilience_degraded",
    "window_resilience_retry_denied",
    "window_resilience_retry_attempts",
    "window_managed_decompress_errors",
    "window_server_shed",
    "fleet_compress_nanos",
    "fleet_decompress_nanos",
    "window_fleet",
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

/// A typed record under 128 bytes, so its frame's dictionary id is at 6..10.
fn record(i: usize) -> Vec<u8> {
    format!("{{\"schema\":\"event.click.v7\",\"session\":{i},\"ts\":{i}7}}").into_bytes()
}

#[test]
fn metrics_export_every_read_family_and_none_of_the_unread_ones() {
    let _serial = serial();
    telemetry::slos().register(telemetry::SloConfig::error_rate(
        "e2e.families.errors",
        0.99,
    ));
    let profile = fleet::profile_fleet(&fleet::ProfileConfig {
        work_units: 1,
        seed: 5,
    });
    let profiled = Instant::now();
    assert!(profile.observations.iter().all(|o| o.comp_calls > 0));
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
    // A forced shed through the daemon: every admission permit held.
    let admission = daemon.admission();
    let held: Vec<_> = std::iter::from_fn(|| admission.try_acquire()).collect();
    let data = &items[0].data;
    let compress = client.compress("CACHE1", "items", data);
    let decompress = client.decompress("CACHE1", "items", data);
    for shed in [compress, decompress] {
        assert_eq!(shed.expect("transport").status, Status::Shed);
    }
    drop(held);
    let stats = String::from_utf8(client.stats("CACHE1").unwrap().payload).unwrap();
    drop(client);
    daemon.shutdown();
    let stats: serde_json::Value = serde_json::from_str(&stats).expect("stats JSON");
    assert_eq!(stats["use_cases"][0]["use_case"], "items");
    assert_eq!(stats["use_cases"][0]["shed"], 2);

    // Overload in-process. Two retry tokens: the decode-retry recovery
    // spends one, a faulted decode's first retry the other, and its
    // second retry is denied.
    let case = "e2e.overload";
    let mut config = ManagedConfig::default();
    config.resilience.retry.budget_cap = 2.0;
    let mut overload = ManagedCompression::new(config);
    let mut good = Vec::new();
    for i in 0..30 {
        good = overload.compress(case, &record(i)).unwrap();
    }
    // Decode-retry recovery: the frame names generation 2 (the low byte
    // of its dictionary id), which this service never trained; the one
    // it did has the same content.
    let mut forged = good.clone();
    assert_eq!(forged[4] & 1, 1, "a dictionary frame");
    assert_eq!(forged[6], 1, "of generation 1");
    forged[6] = 2;
    assert_eq!(overload.decompress(case, &forged).unwrap(), record(29));
    // The cheap-level rung (occupancy past `degrade_at`), then a shed.
    let admission = overload.admission();
    let mut held: Vec<_> = (0..admission.config().degrade_at)
        .map_while(|_| admission.try_acquire())
        .collect();
    let cheap = overload.compress(case, &record(30));
    assert!(cheap.is_ok(), "degraded, not shed");
    held.extend(std::iter::from_fn(|| admission.try_acquire()));
    let overloaded = |r| matches!(r, Err(ManagedError::Overloaded { .. }));
    assert!(overloaded(overload.compress(case, &record(31))));
    assert!(overloaded(overload.decompress(case, &good)));
    drop(held);
    // Injected faults: the decode retries once, is denied a second retry and is
    // quarantined; compresses fail until the breaker opens and fast-fails one.
    overload.set_sleeper(Arc::new(|_| {}));
    overload.set_fault_hook(Some(Arc::new(|_| true)));
    let quarantined = overload.decompress(case, &good);
    assert!(matches!(quarantined, Err(ManagedError::Quarantined { .. })));
    for i in 0..256 {
        if overload.stats(case).unwrap().breaker_fast_fail > 0 {
            break;
        }
        let stored = overload.compress(case, &record(i)).unwrap();
        assert!(stored.starts_with(&PASSTHROUGH_MAGIC));
    }
    config.resilience.deadline_nanos = 1;
    let mut deadline = ManagedCompression::new(config);
    let expired = deadline.compress(case, &record(0));
    assert!(matches!(
        expired,
        Err(ManagedError::DeadlineExceeded { .. })
    ));
    // Each event is in the service's own counters, which are counters
    // only: no per-instance latency copies.
    let st = overload.stats(case).unwrap();
    assert_eq!(st.decode_retry_recovered, 1);
    assert_eq!(st.shed, 2);
    assert_eq!(st.retry_attempts, 1);
    assert_eq!(st.retry_budget_denied, 1);
    assert_eq!(st.quarantined, 1);
    assert_eq!(st.breaker_fast_fail, 1);
    assert_eq!(deadline.stats(case).unwrap().deadline_exceeded, 1);
    let own = overload.telemetry().snapshot();
    assert_eq!(own.counter("managed.degraded", &[("use_case", case)]), 1);
    let counters = |s: &telemetry::Snapshot| {
        s.series
            .iter()
            .all(|s| matches!(s.value, SeriesValue::Counter(_)))
    };
    assert!(counters(&own) && counters(&deadline.telemetry().snapshot()));

    let scrape = ScrapeServer::bind("127.0.0.1:0", Sources::global()).expect("bind");
    let metrics = http_get(scrape.local_addr(), "/metrics").expect("/metrics");
    let requests = http_get(scrape.local_addr(), "/requests.json").expect("/requests.json");
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
    let shed = "server_requests{op=\"compress\",status=\"shed\",tenant=\"CACHE1\"} 1";
    assert!(metrics.lines().any(|l| l == shed), "no {shed}");
    // Errored requests are always sampled, with their marks.
    let requests: serde_json::Value = serde_json::from_str(&requests).expect("valid JSON");
    let marked = |service: &str, mark: &str| {
        let mut kept = requests["requests"].as_array().unwrap().iter();
        kept.any(|r| {
            r["service"] == service
                && r["spans"]
                    .as_array()
                    .unwrap()
                    .iter()
                    .any(|s| s["name"] == mark)
        })
    };
    for mark in [
        "resilience.shed",
        "resilience.deadline",
        "managed.quarantine",
    ] {
        assert!(marked(case, mark), "no {mark} mark in /requests.json");
    }
    assert!(marked("items", "resilience.shed"), "no daemon shed mark");

    // The profile's slow blocks hold the sampler's slowest-N slots for
    // the sub-window they finished in; let it pass before the exemplar
    // test runs.
    let sub_window = Duration::from_nanos(WindowConfig::DEFAULT.sub_window_nanos);
    std::thread::sleep(sub_window.saturating_sub(profiled.elapsed()));
}
