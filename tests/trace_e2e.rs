//! End-to-end request-plane tracing: profile the fleet, then check that
//! every service is attributed, that the tail sampler kept fleet
//! compressions with their codec stages nested inside, and that the
//! Chrome trace-event JSON of the sampled requests parses with a real
//! JSON parser and carries everything Perfetto needs.

use fleet::{profile_fleet, ProfileConfig};

#[test]
fn fleet_profile_renders_sampled_requests_as_chrome_json() {
    let profile = profile_fleet(&ProfileConfig {
        work_units: 1,
        seed: 7,
        stage_deadline_nanos: 0,
    });
    profile.record_to(telemetry::global());
    let requests = telemetry::requests();

    // Coverage of every service lives in the attribution report, which
    // aggregates every finished request, sampled or not.
    let rows = requests.attribution();
    for spec in fleet::registry() {
        assert!(
            rows.iter()
                .any(|r| r.service == spec.name && r.requests > 0),
            "{} missing from the attribution report",
            spec.name
        );
    }

    // Some sampled fleet compression holds both zstdx stages.
    let sampled = requests.sampled();
    let staged = |r: &&telemetry::SampledRequest| {
        ["zstdx.match_find", "zstdx.entropy"]
            .iter()
            .all(|stage| r.spans.iter().any(|s| s.name == *stage && s.parent != 0))
    };
    let with_stages: Vec<_> = sampled.iter().filter(staged).collect();
    assert!(
        !with_stages.is_empty(),
        "no sampled request holds zstdx.match_find and zstdx.entropy spans"
    );

    // The Chrome export parses as real JSON and every event carries the
    // fields Perfetto requires.
    let json = telemetry::chrome::to_chrome_json(&sampled);
    let doc: serde_json::Value = serde_json::from_str(&json).expect("chrome trace JSON parses");
    let events = doc["traceEvents"].as_array().expect("traceEvents array");
    for ev in events {
        assert!(ev["ph"].is_string(), "event missing ph: {ev}");
        assert!(ev["ts"].is_number(), "event missing ts: {ev}");
        assert!(ev["pid"].is_u64(), "event missing pid: {ev}");
        assert!(ev["tid"].is_u64(), "event missing tid: {ev}");
    }

    // A staged request is a `req:` thread whose complete events carry
    // the stages, and whose self-times sum to its root's latency.
    let balanced = with_stages.iter().any(|r| {
        let on_thread: Vec<&serde_json::Value> =
            events.iter().filter(|ev| ev["tid"] == r.id).collect();
        let named = on_thread.iter().any(|ev| {
            ev["name"] == "thread_name"
                && ev["args"]["name"]
                    .as_str()
                    .is_some_and(|n| n.starts_with(&format!("req:{} ", r.id)))
        });
        let spans: Vec<&&serde_json::Value> =
            on_thread.iter().filter(|ev| ev["ph"] == "X").collect();
        let has = |stage: &str| spans.iter().any(|ev| ev["name"] == stage);
        let self_sum: u64 = on_thread
            .iter()
            .filter_map(|ev| ev["args"]["self_nanos"].as_u64())
            .sum();
        named && has("zstdx.match_find") && has("zstdx.entropy") && self_sum == r.latency_nanos
    });
    assert!(
        balanced,
        "no req: thread carries both stages with self-times summing to its latency"
    );
}
