//! Tier-1 e2e: the managed service survives a rollout with an injected
//! corrupt frame — quarantine instead of outage, with the event visible
//! in telemetry counters and as a mark on the errored request.

use managed::{ManagedCompression, ManagedConfig, ManagedError};

fn payload(i: usize) -> Vec<u8> {
    format!(
        "{{\"schema\":\"orders.v2\",\"region\":{},\"sku\":\"sku-{}\",\"qty\":{}}}",
        i % 7,
        i % 31,
        i % 13
    )
    .into_bytes()
}

#[test]
fn service_survives_corrupt_frame_during_rollout() {
    let mut svc = ManagedCompression::new(ManagedConfig {
        retrain_interval: 25,
        // Retain every generation: this test is about corruption, not
        // retirement (covered in the managed unit tests).
        versions_kept: usize::MAX,
        ..Default::default()
    });

    // Phase 1: traffic through at least two dictionary rollouts,
    // keeping every frame like a log-storage client would.
    let mut kept = Vec::new();
    for i in 0..120 {
        let p = payload(i);
        let f = svc.compress("orders", &p).expect("admitted");
        kept.push((p, f));
    }
    assert!(
        svc.stats("orders").unwrap().versions_trained >= 2,
        "test needs at least two rollouts"
    );

    // Phase 2: one stored frame is damaged in transit.
    let (_, good_frame) = &kept[100];
    let mut bad = good_frame.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x5a;
    bad[mid.saturating_sub(1)] ^= 0x0f;
    let err = svc.decompress("orders", &bad);
    match err {
        Err(ManagedError::Quarantined { use_case, .. }) => assert_eq!(use_case, "orders"),
        other => panic!("expected quarantine, got {other:?}"),
    }

    // Phase 3: the service is still fully up — every retained frame
    // (old and new generations) still decodes, and new traffic flows.
    for (p, f) in &kept {
        assert_eq!(&svc.decompress("orders", f).unwrap(), p);
    }
    let p = payload(7777);
    let f = svc.compress("orders", &p).expect("admitted");
    assert_eq!(svc.decompress("orders", &f).unwrap(), p);

    // The quarantined frame is retained for inspection...
    let q = svc.quarantined("orders");
    assert_eq!(q.len(), 1);
    assert_eq!(q[0], bad.as_slice());

    // ...counted in the telemetry snapshot...
    let snap = svc.telemetry().snapshot();
    let labels = [("use_case", "orders")];
    assert_eq!(snap.counter("managed.quarantined", &labels), 1);
    let json = telemetry::export::to_json(&snap);
    assert!(json.contains("managed.quarantined"));

    // ...and marked on the request it happened to: errored requests
    // are always sampled, so /requests.json holds it with the mark as a
    // zero-length node of its span tree.
    let doc: serde_json::Value =
        serde_json::from_str(&telemetry::requests().requests_json()).expect("valid JSON");
    let quarantined = doc["requests"]
        .as_array()
        .expect("requests array")
        .iter()
        .find(|r| r["service"] == "orders" && r["error"] == "quarantined")
        .expect("the quarantined decompress was not sampled");
    assert_eq!(quarantined["op"], "decompress");
    let spans = quarantined["spans"].as_array().expect("spans array");
    assert!(
        spans
            .iter()
            .any(|s| s["name"] == "managed.quarantine" && s["total"] == 0),
        "quarantine mark missing from the errored request: {spans:?}"
    );
}
