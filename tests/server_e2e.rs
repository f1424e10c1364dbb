//! End-to-end contract for the compression daemon: a live port-0
//! server sustains a seeded fleet-mix replay with per-tenant round-trip
//! equality, walks the brownout ladder under forced overload, serves
//! per-tenant counters on `/metrics`, survives a faultline sweep of
//! hostile protocol frames without a panic, never resumes a stalled
//! frame at a boundary inside its body, and answers a pipeline longer
//! than two batches in order across alternating tenant runs.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use datacomp::codecs::DecodeLimits;
use datacomp::managed::{AdmissionConfig, ManagedConfig, PASSTHROUGH_MAGIC};
use datacomp::server::client::Client;
use datacomp::server::protocol::{self, Op, Request, Status};
use datacomp::server::{CompressionServer, ServerConfig};
use datacomp::telemetry::serve::http_get;

/// The seeded 3-mix the load harness replays in CI: two cache-item
/// shapes and the SST-block store.
const MIX: [&str; 3] = ["CACHE1", "CACHE2", "KVSTORE1"];

fn mix_spec(name: &str) -> datacomp::fleet::ServiceSpec {
    datacomp::fleet::registry()
        .into_iter()
        .find(|s| s.name == name)
        .expect("mix service exists")
}

#[test]
fn seeded_mix_replay_roundtrips_per_tenant_and_serves_metrics() {
    let server = CompressionServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let scrape = datacomp::telemetry::ScrapeServer::bind(
        "127.0.0.1:0",
        datacomp::telemetry::Sources::global(),
    )
    .expect("bind scrape");

    let mut client = Client::connect(server.local_addr()).expect("connect");
    for (i, name) in MIX.iter().enumerate() {
        let spec = mix_spec(name);
        for unit in 0..3u64 {
            let seed = 0xd17a_c0de ^ ((i as u64) << 32) ^ unit;
            for block in spec.workload.generate_unit(seed) {
                let frame = client.compress(name, name, &block).expect("transport");
                assert_eq!(frame.status, Status::Ok, "{name} compress");
                let back = client
                    .decompress(name, name, &frame.payload)
                    .expect("transport");
                assert_eq!(back.status, Status::Ok, "{name} decompress");
                assert_eq!(back.payload, block, "{name} round-trip equality");
            }
        }
        // The stats op answers per-tenant.
        let stats = client.stats(name).expect("transport");
        assert_eq!(stats.status, Status::Ok);
        let body = String::from_utf8(stats.payload).unwrap();
        assert!(body.contains(&format!("\"tenant\":\"{name}\"")), "{body}");
    }

    // `/metrics` serves the per-tenant counters the daemon recorded.
    let metrics = http_get(scrape.local_addr(), "/metrics").expect("scrape");
    for name in MIX {
        assert!(
            metrics.contains(&format!(
                "server_requests{{op=\"compress\",status=\"ok\",tenant=\"{name}\"}}"
            )),
            "missing per-tenant compress counter for {name}"
        );
        assert!(
            metrics.contains(&format!(
                "window_server_request_nanos_p99{{tenant=\"{name}\"}}"
            )),
            "missing per-tenant p99 for {name}"
        );
    }
    scrape.shutdown();
    server.shutdown();
}

#[test]
fn brownout_ladder_engages_under_forced_overload() {
    let mut managed_cfg = ManagedConfig::default();
    managed_cfg.resilience.admission = AdmissionConfig {
        max_inflight: 3,
        degrade_at: 1,
        passthrough_at: 2,
        cheap_level: 1,
    };
    let server = CompressionServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            managed: managed_cfg,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let admission = server.admission();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();

    // Unloaded: full-fidelity compression (no passthrough magic).
    let normal = client.compress("t", "uc", &payload).unwrap();
    assert_eq!(normal.status, Status::Ok);
    assert_ne!(&normal.payload[..4], PASSTHROUGH_MAGIC.as_slice());

    // One permit held: the ladder degrades to the cheap level — still a
    // real compressed frame that round-trips.
    let p1 = admission.try_acquire().expect("permit");
    let cheap = client.compress("t", "uc", &payload).unwrap();
    assert_eq!(cheap.status, Status::Ok);
    assert_ne!(&cheap.payload[..4], PASSTHROUGH_MAGIC.as_slice());

    // Two held: passthrough — a stored frame, still a valid answer.
    let p2 = admission.try_acquire().expect("permit");
    let stored = client.compress("t", "uc", &payload).unwrap();
    assert_eq!(stored.status, Status::Ok);
    assert_eq!(&stored.payload[..4], PASSTHROUGH_MAGIC.as_slice());

    // Three held: the ladder is exhausted — a typed shed, not a drop.
    let p3 = admission.try_acquire().expect("permit");
    let shed = client.compress("t", "uc", &payload).unwrap();
    assert_eq!(shed.status, Status::Shed);

    // Every admitted frame decodes back to the input.
    drop((p1, p2, p3));
    for frame in [&normal.payload, &cheap.payload, &stored.payload] {
        let back = client.decompress("t", "uc", frame).unwrap();
        assert_eq!(back.status, Status::Ok);
        assert_eq!(back.payload, payload);
    }
    server.shutdown();
}

/// Builds one valid request frame per op (with a real managed frame as
/// the decompress payload) for the corruption sweep.
fn valid_frames(server_addr: std::net::SocketAddr) -> Vec<(Op, Vec<u8>)> {
    let mut client = Client::connect(server_addr).expect("connect");
    let data: Vec<u8> = (0..2000u32).map(|i| (i % 191) as u8).collect();
    let frame = client.compress("sweep", "uc", &data).expect("transport");
    assert_eq!(frame.status, Status::Ok);
    [
        (Op::Compress, data),
        (Op::Decompress, frame.payload),
        (Op::Stats, Vec::new()),
    ]
    .into_iter()
    .map(|(op, payload)| {
        let mut wire = Vec::new();
        protocol::encode_request(
            &mut wire,
            &Request {
                op,
                tenant: "sweep".into(),
                use_case: "uc".into(),
                payload,
            },
        )
        .unwrap();
        (op, wire)
    })
    .collect()
}

#[test]
fn faultline_sweep_never_panics_the_daemon() {
    use datacomp::faultline::inject::Injector;
    use datacomp::faultline::rng::Rng;

    let server = CompressionServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            limits: DecodeLimits::with_max_output(1 << 20),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    let injectors = [
        Injector::Truncate,
        Injector::LengthInflate,
        Injector::BitFlip { flips: 1 },
        Injector::BitFlip { flips: 8 },
        Injector::Splice,
    ];
    let rng = Rng::new(0x5eed_f00d);
    let mut variants = 0usize;
    for (op, wire) in valid_frames(addr) {
        for (k, injector) in injectors.iter().enumerate() {
            let stream = rng.derive(((op as u64) << 8) ^ k as u64);
            for corrupted in injector.corrupt(&wire, &stream, 24) {
                variants += 1;
                // Fresh connection per variant: a poisoned stream must
                // only ever cost its own connection.
                let mut conn = TcpStream::connect(addr).expect("connect");
                conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                let _ = conn.write_all(&corrupted);
                // Half-close so a frame truncated mid-body hits EOF
                // instead of waiting out the server's read timeout.
                let _ = conn.shutdown(std::net::Shutdown::Write);
                // Any outcome is legal except a panic: a typed error
                // response, a valid response, or a dropped connection.
                let mut reader = std::io::BufReader::new(conn);
                let _ = protocol::read_response(&mut reader, &DecodeLimits::default());
            }
        }
    }
    assert!(variants > 100, "sweep too small: {variants}");

    // The daemon survived every variant: a fresh client still gets
    // full service on every op.
    let mut client = Client::connect(addr).expect("server still accepting");
    let data = b"post-sweep health check".to_vec();
    let frame = client.compress("sweep", "uc", &data).unwrap();
    assert_eq!(frame.status, Status::Ok);
    let back = client.decompress("sweep", "uc", &frame.payload).unwrap();
    assert_eq!(back.payload, data);
    assert_eq!(client.stats("sweep").unwrap().status, Status::Ok);
    server.shutdown();
}

#[test]
fn length_inflation_is_rejected_before_allocation() {
    let server = CompressionServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            limits: DecodeLimits::with_max_output(64 * 1024),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    // A hostile prefix declaring ~4 GiB must come back as a typed
    // TooLarge answer, proving the limit ran before the allocation.
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    conn.write_all(&0xffff_fff0u32.to_le_bytes()).unwrap();
    conn.write_all(&[1, 1, 1, b'x', b'y']).unwrap();
    let mut reader = std::io::BufReader::new(conn);
    let resp = protocol::read_response(&mut reader, &DecodeLimits::default()).unwrap();
    assert_eq!(resp.status, Status::TooLarge);
    let reason = String::from_utf8(resp.payload).unwrap();
    assert!(reason.contains("exceeds limit"), "{reason}");
    server.shutdown();
}

#[test]
fn a_stall_inside_a_frame_is_a_bad_frame_not_a_new_request() {
    // Request A's payload ends with a complete request frame B. The
    // client sends A up to where B begins, stalls past the workers'
    // 500 ms read timeout, then sends B's bytes. A server that took the
    // timeout for an idle tick would resume reading at B and answer it:
    // B smuggled in, A never answered.
    let server = CompressionServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let frame = |payload: Vec<u8>| {
        let mut wire = Vec::new();
        let req = Request {
            op: Op::Compress,
            tenant: "stall".into(),
            use_case: "uc".into(),
            payload,
        };
        protocol::encode_request(&mut wire, &req).unwrap();
        wire
    };
    let inner = frame(b"smuggled request body".to_vec());
    let mut payload = vec![b'a'; 64];
    payload.extend_from_slice(&inner);
    let outer = frame(payload);
    let split = outer.len() - inner.len();

    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    conn.set_nodelay(true).unwrap();
    conn.write_all(&outer[..split]).unwrap();
    std::thread::sleep(Duration::from_millis(900));
    // The server may already have closed; a failed write is fine.
    let _ = conn.write_all(&outer[split..]);
    conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let start = Instant::now();
    let mut reader = std::io::BufReader::new(conn);
    let resp = protocol::read_response(&mut reader, &DecodeLimits::default()).expect("an answer");
    assert_eq!(resp.status, Status::BadFrame, "B was served in A's place");
    // Then the connection closes: EOF (or a reset, when B's bytes landed
    // after the close), never a second answer and never a read timeout.
    let mut rest = Vec::new();
    match reader.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "a second answer followed"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }
    assert!(start.elapsed() < Duration::from_secs(2));
    server.shutdown();
}

#[test]
fn pipelines_past_one_batch_answer_in_order_across_tenant_runs() {
    // Two full batches (the daemon serves up to 64 buffered requests
    // per batch) plus one, alternating between two tenants in runs of 3
    // so a run straddles each batch cut (requests 63..66 and
    // 126..129). The requests are small enough that the whole pipeline
    // sits in the server's 8 KiB read buffer at once.
    const N: usize = 2 * 64 + 1;
    let server = CompressionServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let tenant = |i: usize| ["left", "right"][i / 3 % 2];
    let request = |i: usize, op, payload| Request {
        op,
        tenant: tenant(i).into(),
        use_case: "items".into(),
        payload,
    };
    let items: Vec<Vec<u8>> = (0..N).map(|i| format!("item {i}").into_bytes()).collect();
    let compress: Vec<Request> = (0..N)
        .map(|i| request(i, Op::Compress, items[i].clone()))
        .collect();
    let frames = client.pipeline(&compress).expect("compress pipeline");
    assert_eq!(frames.len(), N);
    let decompress: Vec<Request> = frames
        .iter()
        .enumerate()
        .map(|(i, f)| {
            assert_eq!(f.status, Status::Ok, "compress {i}: {:?}", f.payload);
            request(i, Op::Decompress, f.payload.clone())
        })
        .collect();
    let back = client.pipeline(&decompress).expect("decompress pipeline");
    assert_eq!(back.len(), N);
    for (i, (resp, item)) in back.iter().zip(&items).enumerate() {
        assert_eq!(resp.status, Status::Ok, "decompress {i}");
        assert_eq!(resp.payload, *item, "answer {i} out of order or altered");
    }
    for (name, calls) in [("left", 66), ("right", 63)] {
        let body = String::from_utf8(client.stats(name).expect("transport").payload).unwrap();
        let want = format!("\"compress_calls\":{calls}");
        assert!(body.contains(&want), "{body}");
    }
    server.shutdown();
}
