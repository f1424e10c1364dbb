//! Tier-1 operational-chaos suite: the resilience contract under
//! injected operational faults.
//!
//! Complements the unit tests inside `managed` and `faultline` with
//! cross-crate assertions: a bounded chaos sweep must report zero
//! invariant violations, breakers must demonstrably walk
//! Closed → Open → HalfOpen → Closed under a `ManualClock`, the
//! deadline probe must surface a typed `DeadlineExceeded`, and a burst
//! of failing requests through the daemon must move its error SLO out
//! of Ok and back.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use codecs::Algorithm;
use faultline::{ChaosConfig, OpInjectorKind};
use managed::{
    AdmissionConfig, BreakerConfig, BreakerState, FaultSite, ManagedCompression, ManagedConfig,
    ResiliencePolicy, RetryPolicy,
};
use server::client::Client;
use server::protocol::Status;
use server::{CompressionServer, ServerConfig};
use telemetry::{ManualClock, SloConfig, SloState, WindowConfig};

/// A bounded single-mix sweep at a fixed seed: every injector cell must
/// finish with zero panics, zero round-trip mismatches, retries within
/// budget, and recovered breakers.
#[test]
fn bounded_chaos_sweep_reports_no_violations() {
    let report = faultline::chaos_run(&ChaosConfig {
        seed: 0x7e57,
        ops: 48,
        mixes: vec!["CACHE1"],
        injectors: OpInjectorKind::ALL.to_vec(),
    });
    assert!(report.deadline_probe_ok, "deadline probe not typed");
    assert_eq!(
        report.violations(),
        0,
        "chaos violations:\n{}",
        report.violation_lines().join("\n")
    );
    // Error-class injectors must actually have exercised the breakers.
    for cell in &report.cells {
        if cell.injector.expects_breaker_open() {
            assert!(
                cell.breaker_opened && cell.breaker_recovered,
                "{} breaker never walked open/recovered",
                cell.injector
            );
        }
    }
}

/// Drives a service breaker through the full state walk on a manual
/// clock: a fault burst opens it, the cooldown moves it to HalfOpen,
/// and clean probes close it again.
#[test]
fn service_breaker_opens_and_recovers_under_manual_clock() {
    let clock = ManualClock::shared();
    let mut svc = ManagedCompression::with_clock(
        ManagedConfig {
            resilience: ResiliencePolicy {
                breaker: BreakerConfig {
                    window: WindowConfig::new(50_000_000, 4), // 200 ms
                    min_samples: 4,
                    open_error_rate: 0.5,
                    cooldown_nanos: 100_000_000, // 100 ms
                    probe_successes: 2,
                },
                retry: RetryPolicy {
                    base_nanos: 1_000,
                    cap_nanos: 10_000,
                    ..Default::default()
                },
                admission: AdmissionConfig::default(),
                deadline_nanos: 0,
            },
            ..Default::default()
        },
        clock.clone(),
    );
    // Deterministic sleeper: backoff waits advance the manual clock.
    let sleep_clock = clock.clone();
    svc.set_sleeper(Arc::new(move |nanos| sleep_clock.advance(nanos)));

    // Large and repetitive so compress emits a real zstdx frame —
    // passthrough frames decode before the breaker is consulted.
    let payload = b"{\"k\":\"breaker-walk\",\"v\":1234}".repeat(40);
    let frame = svc.compress("walk", &payload).expect("admitted");
    assert_ne!(frame[..4], managed::PASSTHROUGH_MAGIC);

    // Fault burst against decompress: every codec attempt fails until
    // the hook is switched off.
    let active = Arc::new(AtomicBool::new(true));
    let hook_active = Arc::clone(&active);
    svc.set_fault_hook(Some(Arc::new(move |site: &FaultSite<'_>| {
        site.op == "decompress" && hook_active.load(Ordering::Relaxed)
    })));
    for _ in 0..12 {
        clock.advance(10_000_000); // 10 ms per op
        let _ = svc.decompress("walk", &frame);
    }
    assert_eq!(
        svc.breaker_state("walk", "decompress"),
        Some(BreakerState::Open),
        "fault burst should open the decompress breaker"
    );

    // Fault cleared + cooldown elapsed: probes run and close it.
    active.store(false, Ordering::Relaxed);
    clock.advance(150_000_000);
    for _ in 0..4 {
        clock.advance(10_000_000);
        assert_eq!(
            svc.decompress("walk", &frame).expect("clean decode"),
            payload
        );
    }
    assert_eq!(
        svc.breaker_state("walk", "decompress"),
        Some(BreakerState::Closed),
        "recovery should close the breaker"
    );
    // The recorded transitions show the full ordered walk.
    let walk: Vec<BreakerState> = svc
        .breaker_transitions("walk", "decompress")
        .iter()
        .map(|t| t.to)
        .collect();
    let open = walk
        .iter()
        .position(|s| *s == BreakerState::Open)
        .expect("breaker recorded an Open transition");
    let half = walk
        .iter()
        .enumerate()
        .position(|(i, s)| i > open && *s == BreakerState::HalfOpen)
        .expect("Open was followed by HalfOpen");
    assert!(
        walk.iter()
            .enumerate()
            .any(|(i, s)| i > half && *s == BreakerState::Closed),
        "HalfOpen was not followed by Closed: {walk:?}"
    );
}

/// Detect and recover, end to end: corrupted dictionary frames sent to
/// a real daemon are quarantined and answered `Status::Error`, which the
/// request loop records against `server.errors`. The burst takes the
/// objective out of Ok; clean traffic past the slow window brings it
/// back. Nothing else in this binary talks to a daemon, so nothing else
/// feeds `server.errors` here.
#[test]
fn daemon_error_burst_leaves_ok_and_recovers() {
    // Windows short enough to walk the burn and its recovery in a
    // second: fast 10 x 50 ms, slow 10 x 100 ms.
    let slow = Duration::from_millis(1_000);
    let errors =
        telemetry::slos().register(SloConfig::error_rate("server.errors", 0.99).with_windows(
            WindowConfig::new(50_000_000, 10),
            WindowConfig::new(100_000_000, 10),
        ));
    let daemon = CompressionServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(daemon.local_addr()).expect("connect");
    let round_trip = |client: &mut Client, i: usize| {
        let item = format!("{{\"user\":{i},\"name\":\"ada-{i}\",\"tags\":[\"a\",\"b\"]}}")
            .repeat(6)
            .into_bytes();
        let frame = client.compress("chaos", "items", &item).expect("compress");
        assert_eq!(frame.status, Status::Ok);
        let back = client
            .decompress("chaos", "items", &frame.payload)
            .expect("decompress");
        assert_eq!((back.status, back.payload), (Status::Ok, item));
        frame.payload
    };

    // Clean traffic warms the reservoir, and later frames carry a
    // trained dictionary and a content checksum.
    let mut frame = Vec::new();
    for i in 0..16 {
        frame = round_trip(&mut client, i);
    }
    let header = Algorithm::Zstdx
        .frame_header(&frame)
        .expect("a zstdx frame");
    assert!(header.dict_id.is_some() && header.checksum, "{header:?}");
    assert_eq!(errors.evaluate(), SloState::Ok);

    // The burst: the checksum trailer no longer matches the content.
    let mut bad = frame;
    *bad.last_mut().expect("non-empty frame") ^= 0xff;
    for _ in 0..16 {
        let resp = client
            .decompress("chaos", "items", &bad)
            .expect("decompress");
        assert_eq!(resp.status, Status::Error);
    }
    let stats = String::from_utf8(client.stats("chaos").expect("stats").payload).unwrap();
    assert!(stats.contains("\"quarantined\":16"), "{stats}");
    let during = errors.evaluate();
    assert_ne!(during, SloState::Ok, "the burst did not move the burn rate");

    // Recovery: only clean requests inside the slow window.
    let burst_end = Instant::now();
    let mut i = 16;
    while burst_end.elapsed() < slow + slow / 4 {
        round_trip(&mut client, i);
        i += 1;
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        errors.evaluate(),
        SloState::Ok,
        "no recovery after {during:?}"
    );
    daemon.shutdown();
}
