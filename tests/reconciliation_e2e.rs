//! Cross-layer reconciliation: what the client did, what the server
//! counted, what the managed service counted and what the codec counted
//! must agree, call for call and byte for byte.
//!
//! One in-process daemon serves a seeded CACHE1 / KVSTORE1 mix plus the
//! three paths that make the layers' counts differ on purpose: an
//! incompressible payload (stored as a passthrough frame, so its decode
//! never reaches the codec), a corrupt frame (quarantined, so the codec
//! records no successful decode) and a forced shed (every admission
//! permit held, so neither the service nor the codec sees the request).
//! The process-wide registries are shared by every test in a binary,
//! so this file holds exactly one test.

use std::collections::BTreeMap;

use datacomp::managed::PASSTHROUGH_MAGIC;
use datacomp::server::client::Client;
use datacomp::server::protocol::{Response, Status};
use datacomp::server::{CompressionServer, ServerConfig};
use datacomp::telemetry::{self, SloConfig, Snapshot};

/// Tenant → its one use case.
const MIX: [(&str, &str); 2] = [("CACHE1", "items"), ("KVSTORE1", "blocks")];

#[derive(Debug, Default)]
struct Tally {
    /// `(op, status)` → requests, as the client saw them.
    requests: BTreeMap<(&'static str, &'static str), u64>,
    payload_bytes: u64,
    frame_bytes: u64,
    passthrough_frames: u64,
    /// Bytes of payloads the service stored rather than compressed.
    stored_payload_bytes: u64,
    /// Decoded bytes returned, and the share that came from stored frames.
    decoded_bytes: u64,
    stored_decoded_bytes: u64,
    stored_decodes: u64,
}

impl Tally {
    fn count(&mut self, op: &'static str, resp: &Response) {
        *self.requests.entry((op, resp.status.as_str())).or_default() += 1;
    }

    fn get(&self, op: &str, status: &str) -> u64 {
        self.requests
            .iter()
            .filter(|((o, s), _)| *o == op && *s == status)
            .map(|(_, n)| n)
            .sum()
    }
}

fn is_stored(frame: &[u8]) -> bool {
    frame.starts_with(&PASSTHROUGH_MAGIC)
}

/// Sum of a codec series over every zstdx level.
fn zstdx_total(snap: &Snapshot, name: &str) -> u64 {
    snap.with_name(name)
        .filter(|s| s.key.label("algo") == Some("zstdx"))
        .map(|s| match s.value {
            telemetry::SeriesValue::Counter(n) => n,
            _ => 0,
        })
        .sum()
}

fn noise(len: usize, mut x: u64) -> Vec<u8> {
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

#[test]
fn server_managed_and_codec_counts_reconcile() {
    let server = CompressionServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let codecs_before = telemetry::snapshot();
    let mut tallies: BTreeMap<&str, Tally> =
        MIX.iter().map(|(t, _)| (*t, Tally::default())).collect();

    let compress = |client: &mut Client, tally: &mut Tally, tenant, case, data: &[u8]| {
        let resp = client.compress(tenant, case, data).expect("transport");
        tally.count("compress", &resp);
        if resp.status == Status::Ok {
            tally.payload_bytes += data.len() as u64;
            tally.frame_bytes += resp.payload.len() as u64;
            if is_stored(&resp.payload) {
                tally.passthrough_frames += 1;
                tally.stored_payload_bytes += data.len() as u64;
            }
        }
        resp
    };
    let decompress = |client: &mut Client, tally: &mut Tally, tenant, case, frame: &[u8]| {
        let resp = client.decompress(tenant, case, frame).expect("transport");
        tally.count("decompress", &resp);
        if resp.status == Status::Ok {
            tally.decoded_bytes += resp.payload.len() as u64;
            if is_stored(frame) {
                tally.stored_decodes += 1;
                tally.stored_decoded_bytes += resp.payload.len() as u64;
            }
        }
        resp
    };

    // The first request lands before any objective exists.
    let first = datacomp::fleet::registry()
        .into_iter()
        .find(|s| s.name == "CACHE1")
        .expect("CACHE1")
        .workload
        .generate_unit(1)
        .remove(0);
    let resp = compress(
        &mut client,
        tallies.get_mut("CACHE1").unwrap(),
        "CACHE1",
        "items",
        &first,
    );
    assert_eq!(resp.status, Status::Ok);
    let errors_slo = telemetry::slos().register(SloConfig::error_rate("server.errors", 0.99));
    let mut after_registration = 0u64;

    // The seeded mix: every frame decoded and compared.
    for (tenant, case) in MIX {
        let spec = datacomp::fleet::registry()
            .into_iter()
            .find(|s| s.name == tenant)
            .expect("mix service");
        let tally = tallies.get_mut(tenant).unwrap();
        for unit in 0..2u64 {
            for block in spec.workload.generate_unit(0x2100 ^ unit) {
                let frame = compress(&mut client, tally, tenant, case, &block);
                assert_eq!(frame.status, Status::Ok, "{tenant} compress");
                let back = decompress(&mut client, tally, tenant, case, &frame.payload);
                assert_eq!(back.status, Status::Ok, "{tenant} decompress");
                assert_eq!(back.payload, block, "{tenant} round trip");
                after_registration += 2;
            }
        }
    }

    // Incompressible: stored, and its decode never reaches the codec.
    let tally = tallies.get_mut("CACHE1").unwrap();
    let random = noise(2048, 0x2121);
    let stored = compress(&mut client, tally, "CACHE1", "items", &random);
    assert!(is_stored(&stored.payload), "noise must ship stored");
    let back = decompress(&mut client, tally, "CACHE1", "items", &stored.payload);
    assert_eq!(back.payload, random);
    after_registration += 2;

    // Corrupt: quarantined, an error answer, no successful codec decode.
    let tally = tallies.get_mut("KVSTORE1").unwrap();
    let block = noise(64, 7).repeat(256);
    let mut bad = compress(&mut client, tally, "KVSTORE1", "blocks", &block).payload;
    assert!(!is_stored(&bad));
    let mid = bad.len() / 2;
    bad[mid] ^= 0x41;
    bad[mid + 1] ^= 0x7f;
    let resp = decompress(&mut client, tally, "KVSTORE1", "blocks", &bad);
    assert_eq!(resp.status, Status::Error, "corrupt frame must be refused");
    after_registration += 2;

    // Forced shed: with every permit held, nothing reaches the service.
    let admission = server.admission();
    let held: Vec<_> = std::iter::from_fn(|| admission.try_acquire()).collect();
    assert_eq!(held.len(), admission.config().max_inflight);
    let tally = tallies.get_mut("CACHE1").unwrap();
    assert_eq!(
        compress(&mut client, tally, "CACHE1", "items", &first).status,
        Status::Shed
    );
    assert_eq!(
        decompress(&mut client, tally, "CACHE1", "items", &stored.payload).status,
        Status::Shed
    );
    after_registration += 2;
    drop(held);

    // Layer 2: the service's own counters, over the protocol.
    let mut managed = BTreeMap::new();
    for (tenant, case) in MIX {
        let resp = client.stats(tenant).expect("transport");
        tallies.get_mut(tenant).unwrap().count("stats", &resp);
        after_registration += 1;
        let body = String::from_utf8(resp.payload).expect("stats JSON is text");
        let doc: serde_json::Value = serde_json::from_str(&body).expect("stats JSON");
        let row = doc["use_cases"]
            .as_array()
            .unwrap()
            .iter()
            .find(|r| r["use_case"] == case)
            .expect("use case row")
            .clone();
        managed.insert(tenant, row);
    }
    let snap = telemetry::snapshot();
    server.shutdown();

    // Layer 1: server.requests{tenant,op,status} = the client's tallies.
    for (tenant, tally) in &tallies {
        for ((op, status), n) in &tally.requests {
            let labels = [("tenant", *tenant), ("op", *op), ("status", *status)];
            assert_eq!(
                snap.counter("server.requests", &labels),
                *n,
                "server.requests{labels:?}"
            );
        }
    }
    let served: u64 = snap
        .with_name("server.requests")
        .map(|s| match s.value {
            telemetry::SeriesValue::Counter(n) => n,
            _ => 0,
        })
        .sum();
    let sent: u64 = tallies.values().flat_map(|t| t.requests.values()).sum();
    assert_eq!(served, sent, "no request the client did not send");

    // Layer 2: the service counted what the server admitted.
    let field = |tenant: &str, f: &str| managed[tenant][f].as_u64().unwrap();
    for (tenant, tally) in &tallies {
        assert_eq!(field(tenant, "compress_calls"), tally.get("compress", "ok"));
        assert_eq!(
            field(tenant, "decompress_calls"),
            tally.get("decompress", "ok") + tally.get("decompress", "error")
        );
        assert_eq!(
            field(tenant, "shed"),
            tally.get("compress", "shed") + tally.get("decompress", "shed")
        );
        assert_eq!(
            field(tenant, "quarantined"),
            tally.get("decompress", "error")
        );
        assert_eq!(field(tenant, "passthrough"), tally.passthrough_frames);
        assert_eq!(
            field(tenant, "bytes_in"),
            tally.payload_bytes,
            "{tenant} bytes in"
        );
        assert_eq!(
            field(tenant, "bytes_out"),
            tally.frame_bytes,
            "{tenant} bytes out"
        );
    }
    let sum = |f: fn(&Tally) -> u64| tallies.values().map(f).sum::<u64>();
    assert_eq!(sum(|t| t.get("compress", "shed")), 1);
    assert_eq!(sum(|t| t.get("decompress", "error")), 1);
    assert!(
        sum(|t| t.passthrough_frames) >= 1,
        "the noise payload at least"
    );

    // Layer 3: the codec ran once per admitted compress (a stored frame
    // is still a codec call that did not pay) and once per successful
    // decode of a codec frame.
    let delta = |name: &str| zstdx_total(&snap, name) - zstdx_total(&codecs_before, name);
    assert_eq!(
        delta("codecs.compress.calls"),
        sum(|t| t.get("compress", "ok"))
    );
    assert_eq!(
        delta("codecs.decompress.calls"),
        sum(|t| t.get("decompress", "ok")) - sum(|t| t.stored_decodes)
    );

    // Bytes are conserved across the layers.
    assert_eq!(delta("codecs.compress.bytes_in"), sum(|t| t.payload_bytes));
    let codec_frames = sum(|t| t.frame_bytes)
        - (sum(|t| t.stored_payload_bytes) + 4 * sum(|t| t.passthrough_frames));
    let discarded = delta("codecs.compress.bytes_out") - codec_frames;
    assert!(
        discarded >= sum(|t| t.stored_payload_bytes) + 4 * sum(|t| t.passthrough_frames),
        "a payload was stored although the codec's {discarded} B frame paid"
    );
    assert_eq!(
        delta("codecs.decompress.bytes_out") + sum(|t| t.stored_decoded_bytes),
        sum(|t| t.decoded_bytes)
    );

    // An objective registered after the first request saw every later one.
    let budget = errors_slo.budget();
    assert_eq!(budget.total, after_registration);
    assert_eq!(budget.bad, 1, "the quarantined decode");
}
