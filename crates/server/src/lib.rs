//! # datacomp-server
//!
//! The long-running compression daemon: the paper characterizes
//! compression as a fleet-wide *service*, and this crate is the serving
//! half of that claim — a dependency-free TCP daemon in the style of
//! [`telemetry::serve`], speaking the length-prefixed binary protocol
//! in [`protocol`].
//!
//! Architecture:
//!
//! * **Thread-per-core accept/worker loop.** The workers are the
//!   accept threads of a [`telemetry::serve::Listener`] — the accept
//!   loop and stop handshake the scrape server runs on too; a
//!   connection is served to completion on the worker that accepted
//!   it. No async runtime, no cross-thread handoff per request.
//! * **Per-tenant sharded state.** Tenants map onto a fixed array of
//!   mutex-guarded shards, each holding the tenant's
//!   [`ManagedCompression`] instance (dictionary generations,
//!   quarantine, levels). Two tenants on different shards never
//!   contend.
//! * **Request batching.** Pipelined requests already buffered on a
//!   connection are drained and served as one batch: the shard lock is
//!   taken once per contiguous same-tenant run and the responses go out
//!   in a single write — the coalescing that makes small cache-item
//!   traffic (the paper's CACHE1/2 shapes) cheap.
//! * **Brownout backpressure.** All tenant instances share one
//!   [`AdmissionController`], so overload walks the whole server down
//!   the existing `managed::resilience` ladder — cheap level →
//!   passthrough → typed shed — instead of collapsing. A shed is a
//!   protocol answer ([`protocol::Status::Shed`]), not a dropped
//!   connection.
//!
//! Observability rides the process-global telemetry planes: per-tenant
//! request counters (`server.requests{tenant,op,status}`), windowed
//! latency histograms (`server.request.nanos{tenant}` — p50/p90/p99 on
//! `/metrics`), and the `server.request.latency` / `server.errors`
//! SLOs when registered. Their handles live in each tenant's shard entry
//! next to its service, resolved on the tenant's first request, so a
//! request updates them without a name lookup; the SLOs are fed and
//! evaluated only when read. Serve them by binding a
//! [`telemetry::ScrapeServer`] next to the daemon (the CLI's `serve`
//! command does).

pub mod client;
pub mod protocol;

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use codecs::DecodeLimits;
use managed::{AdmissionController, ManagedCompression, ManagedConfig, ManagedError};
use protocol::{Op, Request, Response, Status, WireError};
use telemetry::export::json_string;
use telemetry::serve::Listener;
use telemetry::{Counter, SloHandle, WindowedHistogram};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads; `0` means one per available core.
    pub workers: usize,
    /// Bound on declared protocol lengths (request bodies and, for
    /// decompress, the codec's own content-size headers downstream).
    pub limits: DecodeLimits,
    /// Managed-compression configuration applied to every tenant
    /// (resilience policy included; its admission section sizes the
    /// shared brownout ladder).
    pub managed: ManagedConfig,
    /// Maximum pipelined requests served per batch.
    pub batch_max: usize,
    /// Tenant shard count.
    pub shards: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            limits: DecodeLimits::default(),
            managed: ManagedConfig::default(),
            batch_max: 64,
            shards: 16,
        }
    }
}

/// One tenant's shard entry: its service and the handles its requests
/// report through.
struct Tenant {
    svc: ManagedCompression,
    /// `server.request.nanos{tenant}`, windowed.
    request_nanos: Arc<WindowedHistogram>,
    /// `server.requests{tenant,op,status}`, indexed by op then by the
    /// status's wire value, and registered on first use, so `/metrics`
    /// lists only the outcomes that happened.
    requests: [[Option<Arc<Counter>>; 6]; 3],
    latency_slo: SloHandle,
    errors_slo: SloHandle,
}

impl Tenant {
    fn new(tenant: &str, shared: &Shared) -> Self {
        let mut svc = ManagedCompression::new(shared.managed);
        svc.set_admission(Arc::clone(&shared.admission));
        Self {
            svc,
            request_nanos: telemetry::windows()
                .histogram("server.request.nanos", &[("tenant", tenant)]),
            requests: Default::default(),
            latency_slo: SloHandle::new("server.request.latency"),
            errors_slo: SloHandle::new("server.errors"),
        }
    }
}

struct Shared {
    shards: Vec<Mutex<HashMap<String, Tenant>>>,
    admission: Arc<AdmissionController>,
    managed: ManagedConfig,
    limits: DecodeLimits,
    batch_max: usize,
}

impl Shared {
    fn shard_of(&self, tenant: &str) -> usize {
        let mut h = DefaultHasher::new();
        tenant.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }
}

/// The daemon: accept/worker threads over shared tenant shards.
pub struct CompressionServer {
    listener: Listener,
    shared: Arc<Shared>,
}

impl CompressionServer {
    /// Binds `addr` (port 0 picks a free port) and starts the worker
    /// threads.
    ///
    /// # Errors
    ///
    /// Propagates bind/clone/spawn failures.
    pub fn bind(addr: &str, cfg: ServerConfig) -> std::io::Result<Self> {
        let workers = if cfg.workers > 0 {
            cfg.workers
        } else {
            std::thread::available_parallelism().map_or(2, |n| n.get())
        };
        let shards = cfg.shards.max(1);
        let shared = Arc::new(Shared {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            admission: AdmissionController::new(cfg.managed.resilience.admission),
            managed: cfg.managed,
            limits: cfg.limits,
            batch_max: cfg.batch_max.max(1),
        });
        let worker = Arc::clone(&shared);
        // Bounded reads: an idle or stalled client wakes the worker
        // periodically so shutdown is never held hostage by a socket.
        let listener = Listener::bind(
            addr,
            |w| format!("datacomp-serve-{w}"),
            workers,
            Duration::from_millis(500),
            move |stream, stop| {
                let _ = serve_connection(stream, &worker, stop);
            },
        )?;
        Ok(Self { listener, shared })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.listener.local_addr()
    }

    /// The shared admission controller. Holding permits on this handle
    /// simulates server-wide load — harnesses force the brownout
    /// ladder without a thundering herd of real connections.
    pub fn admission(&self) -> Arc<AdmissionController> {
        Arc::clone(&self.shared.admission)
    }

    /// Stops accepting, drains the workers, and joins them. Like
    /// [`telemetry::ScrapeServer::shutdown`]: deterministic — once this
    /// returns no connection receives another response.
    pub fn shutdown(self) {
        self.listener.shutdown();
    }
}

/// Serves one connection to completion: reads pipelined request
/// batches, answers each, stops on EOF, protocol error, or shutdown.
fn serve_connection(stream: TcpStream, shared: &Shared, stop: &AtomicBool) -> std::io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut batch: Vec<Request> = Vec::new();
    let mut out = Vec::new();
    loop {
        batch.clear();
        // Blocking read for the first request of a batch; a read
        // timeout before a frame's first byte is the idle tick where
        // shutdown is observed (one inside a frame is a framing error).
        match protocol::read_request(&mut reader, &shared.limits) {
            Ok(Some(req)) => batch.push(req),
            Ok(None) => return Ok(()), // clean close
            Err(WireError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    return Ok(());
                }
                continue;
            }
            Err(e) => {
                // Malformed framing: answer with the typed error and
                // close — resynchronization is impossible mid-stream.
                let _ = protocol::write_response(&mut writer, &wire_error_response(&e));
                return Ok(());
            }
        }
        // Coalesce: requests already buffered on the connection ride
        // the same batch (small cache items arrive many-per-packet).
        while batch.len() < shared.batch_max && !reader.buffer().is_empty() {
            match protocol::read_request(&mut reader, &shared.limits) {
                Ok(Some(req)) => batch.push(req),
                Ok(None) => break,
                Err(e) => {
                    process_batch(shared, &batch, &mut out);
                    out_response(&mut out, &wire_error_response(&e));
                    writer.write_all(&out)?;
                    return Ok(());
                }
            }
        }
        out.clear();
        process_batch(shared, &batch, &mut out);
        // Deterministic shutdown: after stop is observed no response
        // leaves the server (mirrors ScrapeServer's contract).
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        writer.write_all(&out)?;
        writer.flush()?;
    }
}

fn wire_error_response(e: &WireError) -> Response {
    match e {
        WireError::TooLarge { .. } => Response::err(Status::TooLarge, e.to_string()),
        _ => Response::err(Status::BadFrame, e.to_string()),
    }
}

fn out_response(out: &mut Vec<u8>, resp: &Response) {
    protocol::encode_response(out, resp);
}

/// Serves a batch in order, locking each tenant's shard once per
/// contiguous same-tenant run.
fn process_batch(shared: &Shared, batch: &[Request], out: &mut Vec<u8>) {
    let mut i = 0;
    while i < batch.len() {
        let tenant = &batch[i].tenant;
        let mut j = i + 1;
        while j < batch.len() && batch[j].tenant == *tenant {
            j += 1;
        }
        let shard = shared.shard_of(tenant);
        // Shard index is `hash % len`, always in range.
        #[allow(clippy::indexing_slicing)]
        let mut guard = match shared.shards[shard].lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if !guard.contains_key(tenant) {
            guard.insert(tenant.clone(), Tenant::new(tenant, shared));
        }
        let entry = guard.get_mut(tenant).expect("inserted above");
        for req in &batch[i..j] {
            let resp = serve_request(entry, req);
            out_response(out, &resp);
        }
        drop(guard);
        i = j;
    }
}

fn serve_request(tenant: &mut Tenant, req: &Request) -> Response {
    let svc = &mut tenant.svc;
    let start = Instant::now();
    let resp = match req.op {
        Op::Compress => match svc.compress(&req.use_case, &req.payload) {
            Ok(frame) => Response {
                status: Status::Ok,
                payload: frame,
            },
            Err(e) => managed_error_response(&e),
        },
        Op::Decompress => match svc.decompress(&req.use_case, &req.payload) {
            Ok(data) => Response {
                status: Status::Ok,
                payload: data,
            },
            Err(e) => managed_error_response(&e),
        },
        Op::Stats => Response {
            status: Status::Ok,
            payload: stats_json(svc, &req.tenant).into_bytes(),
        },
    };
    let elapsed = start.elapsed();
    tenant.request_nanos.observe(elapsed.as_nanos() as u64);
    let slos = telemetry::slos();
    if let Some(slo) = tenant.latency_slo.get(slos) {
        slo.record_latency(elapsed.as_nanos() as u64);
    }
    if let Some(slo) = tenant.errors_slo.get(slos) {
        slo.record(!matches!(resp.status, Status::Error | Status::BadFrame));
    }
    record_request(tenant, req, &resp);
    resp
}

fn managed_error_response(e: &ManagedError) -> Response {
    match e {
        ManagedError::Overloaded { .. } => Response::err(Status::Shed, e.to_string()),
        ManagedError::DeadlineExceeded { .. } => Response::err(Status::Deadline, e.to_string()),
        _ => Response::err(Status::Error, e.to_string()),
    }
}

/// Publishes the per-tenant outcome counter the `/metrics` endpoint
/// serves (`server_requests{tenant,op,status}`).
fn record_request(tenant: &mut Tenant, req: &Request, resp: &Response) {
    let (op_index, op) = match req.op {
        Op::Compress => (0, "compress"),
        Op::Decompress => (1, "decompress"),
        Op::Stats => (2, "stats"),
    };
    if let Some(slot) = tenant
        .requests
        .get_mut(op_index)
        .and_then(|by_status| by_status.get_mut(resp.status as usize))
    {
        slot.get_or_insert_with(|| {
            telemetry::global().counter(
                "server.requests",
                &[
                    ("tenant", req.tenant.as_str()),
                    ("op", op),
                    ("status", resp.status.as_str()),
                ],
            )
        })
        .inc();
    }
}

/// Hand-rolled stats JSON: per-use-case counters for one tenant.
fn stats_json(svc: &ManagedCompression, tenant: &str) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"tenant\":");
    json_string(&mut out, tenant);
    out.push_str(",\"use_cases\":[");
    let mut cases = svc.use_cases();
    cases.sort_unstable();
    for (i, case) in cases.iter().enumerate() {
        let Some(s) = svc.stats(case) else { continue };
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"use_case\":");
        json_string(&mut out, case);
        out.push_str(&format!(
            ",\"compress_calls\":{},\"decompress_calls\":{},\"bytes_in\":{},\"bytes_out\":{},\"ratio\":{:.4},\"passthrough\":{},\"shed\":{},\"deadline_exceeded\":{},\"quarantined\":{},\"versions_trained\":{}}}",
            s.compress_calls,
            s.decompress_calls,
            s.bytes_in,
            s.bytes_out,
            s.ratio(),
            s.passthrough,
            s.shed,
            s.deadline_exceeded,
            s.quarantined,
            s.versions_trained,
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use client::Client;

    fn small_server(cfg: ServerConfig) -> CompressionServer {
        CompressionServer::bind("127.0.0.1:0", cfg).expect("bind")
    }

    #[test]
    fn roundtrips_per_tenant_over_sockets() {
        let server = small_server(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        });
        let mut client = Client::connect(server.local_addr()).expect("connect");
        for tenant in ["alpha", "beta"] {
            let data = format!("{tenant} payload {}", "x".repeat(2000)).into_bytes();
            let frame = client
                .compress(tenant, "items", &data)
                .expect("compress transport");
            assert_eq!(frame.status, Status::Ok, "{:?}", frame.payload);
            let back = client
                .decompress(tenant, "items", &frame.payload)
                .expect("decompress transport");
            assert_eq!(back.status, Status::Ok);
            assert_eq!(back.payload, data);
        }
        let stats = client.stats("alpha").expect("stats transport");
        assert_eq!(stats.status, Status::Ok);
        let body = String::from_utf8(stats.payload).unwrap();
        assert!(body.contains("\"tenant\":\"alpha\""), "{body}");
        assert!(body.contains("\"compress_calls\":1"), "{body}");
        server.shutdown();
    }

    #[test]
    fn tenants_are_isolated() {
        // A frame compressed under tenant A's use case must not decode
        // under tenant B: B has never seen the use case.
        let server = small_server(ServerConfig::default());
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let frame = client.compress("a", "uc", b"isolated bytes").unwrap();
        assert_eq!(frame.status, Status::Ok);
        let resp = client.decompress("b", "uc", &frame.payload).unwrap();
        assert_eq!(resp.status, Status::Error, "{:?}", resp.payload);
        server.shutdown();
    }

    #[test]
    fn pipelined_batch_answers_in_order() {
        let server = small_server(ServerConfig::default());
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let reqs: Vec<Request> = (0..20)
            .map(|i| Request {
                op: Op::Compress,
                tenant: "cache".into(),
                use_case: "items".into(),
                payload: format!("item number {i} {}", "y".repeat(100)).into_bytes(),
            })
            .collect();
        let resps = client.pipeline(&reqs).expect("pipeline");
        assert_eq!(resps.len(), reqs.len());
        for (req, resp) in reqs.iter().zip(&resps) {
            assert_eq!(resp.status, Status::Ok);
            let back = client.decompress("cache", "items", &resp.payload).unwrap();
            assert_eq!(back.payload, req.payload, "order preserved");
        }
        server.shutdown();
    }

    #[test]
    fn hostile_length_prefix_gets_typed_rejection() {
        let limits = DecodeLimits::with_max_output(64 * 1024);
        let server = small_server(ServerConfig {
            limits,
            ..ServerConfig::default()
        });
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // Declare a 512 MiB body on a tiny frame.
        stream.write_all(&(512u32 << 20).to_le_bytes()).unwrap();
        stream.write_all(&[1, 1, 1]).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let resp = protocol::read_response(&mut reader, &DecodeLimits::default()).unwrap();
        assert_eq!(resp.status, Status::TooLarge);
        server.shutdown();
    }

    #[test]
    fn shed_under_forced_overload_is_a_typed_answer() {
        let mut managed_cfg = ManagedConfig::default();
        managed_cfg.resilience.admission = managed::AdmissionConfig {
            max_inflight: 2,
            degrade_at: 1,
            passthrough_at: 1,
            cheap_level: 1,
        };
        let server = small_server(ServerConfig {
            managed: managed_cfg,
            ..ServerConfig::default()
        });
        // Exhaust the shared ladder from outside.
        let admission = server.admission();
        let _held: Vec<_> = (0..2).filter_map(|_| admission.try_acquire()).collect();
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let resp = client.compress("t", "uc", b"overloaded").unwrap();
        assert_eq!(resp.status, Status::Shed, "{:?}", resp.payload);
        drop(_held);
        let resp = client.compress("t", "uc", b"recovered").unwrap();
        assert_eq!(resp.status, Status::Ok);
        server.shutdown();
    }

    #[test]
    fn shutdown_is_deterministic() {
        let server = small_server(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        });
        let addr = server.local_addr();
        let mut client = Client::connect(addr).expect("connect");
        assert_eq!(
            client.compress("t", "uc", b"before stop").unwrap().status,
            Status::Ok
        );
        server.shutdown();
        // No connection accepted after shutdown ever gets an answer.
        for _ in 0..3 {
            let Ok(mut c) = Client::connect(addr) else {
                continue;
            };
            assert!(
                c.compress("t", "uc", b"after stop").is_err(),
                "stopped server must not answer"
            );
        }
    }
}
