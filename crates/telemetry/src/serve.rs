//! Dependency-free HTTP scrape endpoint for the live observability
//! plane, and the accept loop it shares with the compression daemon.
//!
//! [`ScrapeServer`] is a tiny blocking HTTP/1.1 server on a std
//! [`TcpListener`] — no async runtime, no HTTP crate — serving
//! read-only endpoints off a [`Sources`] bundle:
//!
//! | path             | payload                                           |
//! |------------------|---------------------------------------------------|
//! | `/metrics`       | Prometheus text of [`Sources::snapshot`]          |
//! | `/slo`           | JSON error-budget report ([`crate::slo::to_json_reports`]) |
//! | `/healthz`       | `ok` — liveness probe                             |
//! | `/trace.json`    | Chrome trace-event JSON of the sampled requests   |
//! | `/profile.json`  | p99 stage-attribution report per service/op/size  |
//! | `/requests.json` | tail-sampled request span trees                   |
//!
//! `/metrics` has one writer, [`to_prometheus`]: every live plane
//! publishes its read-time view as ordinary series, so each family gets
//! exactly one HELP/TYPE pair. `/trace.json`, `/requests.json` and
//! `/profile.json` all read the request plane without consuming it.
//!
//! One request per connection (`Connection: close`), GET only. The
//! request head is capped at 8 KiB and must arrive within 2 s of
//! accept; past either limit the connection closes unanswered, so a
//! trickling client cannot hold the single accept thread. Responses
//! are built by the pure [`respond`] function, which unit tests
//! exercise without sockets.
//!
//! [`Listener`] owns accept threads and the stop handshake; the scrape
//! server runs one thread on it, `server::CompressionServer` one per
//! worker.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::chrome::to_chrome_json;
use crate::export::to_prometheus;
use crate::registry::{Registry, Snapshot};
use crate::request::RequestSampler;
use crate::slo::{to_json_reports, SloRegistry};
use crate::window::WindowRegistry;

/// The data planes a scrape serves from. All references are `'static`
/// because the accept loop runs on its own thread for the process
/// lifetime; [`Sources::global`] wires up the process-wide instances.
#[derive(Debug, Clone, Copy)]
pub struct Sources {
    /// Cumulative series.
    pub registry: &'static Registry,
    /// Windowed live series.
    pub windows: &'static WindowRegistry,
    /// SLO objectives.
    pub slos: &'static SloRegistry,
    /// Tail-based request sampler.
    pub requests: &'static RequestSampler,
}

impl Sources {
    /// The process-global observability planes.
    pub fn global() -> Self {
        Self {
            registry: crate::global(),
            windows: crate::windows(),
            slos: crate::slos(),
            requests: crate::requests(),
        }
    }

    /// Every plane as one snapshot: the registry's series plus those
    /// each live plane publishes at read time — windowed views, SLO
    /// evaluations, sampler health — sorted by key
    /// so each family renders once.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = self.registry.snapshot();
        self.windows.publish(&mut snap.series);
        self.slos.publish(&mut snap.series);
        self.requests.publish(&mut snap.series);
        snap.series.sort_by(|a, b| a.key.cmp(&b.key));
        snap
    }
}

/// A response ready to serialize: status, content type, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl Response {
    fn new(status: u16, content_type: &'static str, body: String) -> Self {
        Self {
            status,
            content_type,
            body,
        }
    }

    fn status_text(&self) -> &'static str {
        match self.status {
            200 => "OK",
            404 => "Not Found",
            405 => "Method Not Allowed",
            _ => "Bad Request",
        }
    }

    /// Serializes the full HTTP/1.1 response.
    pub fn to_http(&self) -> String {
        format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            self.status,
            self.status_text(),
            self.content_type,
            self.body.len(),
            self.body
        )
    }
}

const TEXT: &str = "text/plain; charset=utf-8";
const PROM: &str = "text/plain; version=0.0.4; charset=utf-8";
const JSON: &str = "application/json";

/// Routes one request to its payload. Pure: all I/O stays in the
/// accept loop, so tests hit this directly.
pub fn respond(method: &str, path: &str, sources: &Sources) -> Response {
    if method != "GET" {
        return Response::new(405, TEXT, "method not allowed\n".into());
    }
    // Strip any query string; the endpoints take no parameters.
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/metrics" => Response::new(200, PROM, to_prometheus(&sources.snapshot())),
        "/slo" => Response::new(200, JSON, to_json_reports(&sources.slos.reports())),
        "/healthz" => Response::new(200, TEXT, "ok\n".into()),
        "/trace.json" => Response::new(200, JSON, to_chrome_json(&sources.requests.sampled())),
        "/profile.json" => Response::new(200, JSON, sources.requests.profile_json()),
        "/requests.json" => Response::new(200, JSON, sources.requests.requests_json()),
        _ => Response::new(
            404,
            TEXT,
            "not found; try /metrics /slo /healthz /trace.json /profile.json /requests.json\n"
                .into(),
        ),
    }
}

/// Accept threads over one bound socket plus their stop handshake.
/// Each thread accepts on its own clone of the listener and hands every
/// connection to the handler with the stop flag; a connection is
/// served to completion on the thread that accepted it. Dropping (or
/// [`Listener::shutdown`]) sets the flag, makes one unblocking connect
/// per thread and joins them all: once it returns, no handler runs.
#[derive(Debug)]
pub struct Listener {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Listener {
    /// Binds `addr` (port 0 picks a free port) and starts `threads`
    /// accept threads (at least one), the `i`-th named `name(i)`. Every
    /// accepted stream gets `read_timeout` and a 10 s write timeout.
    ///
    /// # Errors
    ///
    /// Propagates bind, clone and spawn failures.
    pub fn bind<H>(
        addr: &str,
        name: fn(usize) -> String,
        threads: usize,
        read_timeout: Duration,
        handler: H,
    ) -> std::io::Result<Self>
    where
        H: Fn(TcpStream, &AtomicBool) + Send + Sync + 'static,
    {
        let socket = TcpListener::bind(addr)?;
        let mut listener = Self {
            local_addr: socket.local_addr()?,
            stop: Arc::new(AtomicBool::new(false)),
            threads: Vec::new(),
        };
        let handler = Arc::new(handler);
        for i in 0..threads.max(1) {
            let socket = socket.try_clone()?;
            let stop = Arc::clone(&listener.stop);
            let handler = Arc::clone(&handler);
            let accept = move || {
                for conn in socket.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let _ = stream.set_read_timeout(Some(read_timeout));
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
                    handler(stream, &stop);
                }
            };
            let thread = std::thread::Builder::new().name(name(i)).spawn(accept)?;
            listener.threads.push(thread);
        }
        Ok(listener)
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting and joins every thread, as dropping does.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // One connect per thread lands on exactly one blocked accept. A
        // transient connect failure (e.g. backlog exhaustion) would
        // leave a thread parked and the join below hung, so retry.
        for _ in 0..self.threads.len() {
            for _ in 0..8 {
                if TcpStream::connect(self.local_addr).is_ok() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Largest request head (request line plus headers) the scrape server reads.
const MAX_HEAD: usize = 8192;

/// Time from accept within which the whole request head must arrive.
const HEAD_DEADLINE: Duration = Duration::from_secs(2);

/// The scrape server: one accept thread on a [`Listener`].
#[derive(Debug)]
pub struct ScrapeServer {
    listener: Listener,
}

impl ScrapeServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9184"`; port 0 picks a free
    /// port) and starts serving `sources`.
    ///
    /// # Errors
    ///
    /// Propagates bind and spawn failures.
    pub fn bind(addr: &str, sources: Sources) -> std::io::Result<Self> {
        let handler = move |stream, stop: &AtomicBool| {
            let _ = handle_connection(stream, &sources, stop);
        };
        let name = |_| "datacomp-scrape".to_string();
        let listener = Listener::bind(addr, name, 1, HEAD_DEADLINE, handler)?;
        Ok(Self { listener })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(self) {
        self.listener.shutdown();
    }
}

/// Reads the request head: `None` when it exceeds [`MAX_HEAD`] or has
/// not ended (an empty line) by [`HEAD_DEADLINE`] after `accepted`.
fn read_head(stream: &mut TcpStream, accepted: Instant) -> std::io::Result<Option<String>> {
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    let ended =
        |h: &[u8]| h.windows(2).any(|w| w == b"\n\n") || h.windows(3).any(|w| w == b"\n\r\n");
    while !ended(&head) {
        let left = HEAD_DEADLINE.saturating_sub(accepted.elapsed());
        if left.is_zero() || head.len() >= MAX_HEAD {
            return Ok(None);
        }
        stream.set_read_timeout(Some(left))?;
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break; // half-closed after the request: answer what arrived
        }
        head.extend(buf.iter().take(n));
    }
    Ok(Some(String::from_utf8_lossy(&head).into_owned()))
}

fn handle_connection(
    mut stream: TcpStream,
    sources: &Sources,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    let Some(head) = read_head(&mut stream, Instant::now())? else {
        return Ok(());
    };
    let mut parts = head.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("/");
    let response = respond(method, path, sources);
    // `stop()` may have landed while this request was being read — e.g.
    // its unblock connect raced an in-flight client. Re-check right
    // before the write so a stopped server never answers: the caller
    // sees a closed socket, not a response from a server it stopped.
    if stop.load(Ordering::SeqCst) {
        return Ok(());
    }
    stream.write_all(response.to_http().as_bytes())?;
    stream.flush()
}

/// One-shot `GET path` against a scrape endpoint; returns the body.
/// Just enough HTTP/1.1 for harnesses and tests to pull `/metrics`,
/// `/slo` and the JSON endpoints without an external client.
///
/// # Errors
///
/// Connect/IO failure or a non-200 status line.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: datacomp\r\n\r\n")?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| invalid(format!("scrape {path}: no header/body split")))?;
    if !head.starts_with("HTTP/1.1 200") {
        let status = head.lines().next().unwrap_or("");
        return Err(invalid(format!("scrape {path}: {status}")));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::slo::SloConfig;
    use crate::window::WindowConfig;
    use std::sync::Arc as StdArc;

    /// Builds an isolated (leaked — test-only) source bundle.
    fn test_sources() -> Sources {
        let clock = ManualClock::shared();
        Sources {
            registry: Box::leak(Box::new(Registry::new())),
            windows: Box::leak(Box::new(WindowRegistry::new(
                WindowConfig::new(100_000_000, 4),
                StdArc::clone(&clock) as StdArc<dyn crate::clock::Clock>,
            ))),
            slos: Box::leak(Box::new(SloRegistry::new(
                StdArc::clone(&clock) as StdArc<dyn crate::clock::Clock>
            ))),
            requests: Box::leak(Box::new(RequestSampler::new(
                crate::request::SamplerConfig::default(),
                StdArc::clone(&clock) as StdArc<dyn crate::clock::Clock>,
            ))),
        }
    }

    #[test]
    fn routes_serve_all_four_endpoints() {
        let s = test_sources();
        s.registry.counter("reqs", &[]).add(3);
        s.windows.counter("reqs", &[]).add(2, 0);
        s.slos
            .register(SloConfig::error_rate("errs", 0.9))
            .record(true, 0);
        {
            let _req = s.requests.open("svc", crate::request::Op::Compress, 100);
            crate::request::mark("mark");
        }

        let metrics = respond("GET", "/metrics", &s);
        assert_eq!(metrics.status, 200);
        assert!(metrics.body.contains("reqs 3\n"));
        assert!(metrics.body.contains("window_reqs 2\n"));
        assert!(metrics.body.contains("slo_state{objective=\"errs\"} 0\n"));
        assert!(metrics
            .body
            .contains("slo_budget_remaining{objective=\"errs\"} 1\n"));
        assert!(metrics.body.contains("requests_total 1\n"));
        assert!(metrics.body.contains("requests_dropped_total 0\n"));

        let slo = respond("GET", "/slo", &s);
        assert_eq!(slo.status, 200);
        assert!(slo.body.starts_with("{\"version\":1,\"worst\":\"ok\""));

        let health = respond("GET", "/healthz", &s);
        assert_eq!(health.body, "ok\n");

        // The one request is kept: the first of its sub-window is among
        // the slowest-N.
        let trace = respond("GET", "/trace.json", &s);
        assert!(trace.body.contains("\"name\":\"mark\""));
        // Non-destructive: a second scrape still sees the event.
        assert!(respond("GET", "/trace.json", &s)
            .body
            .contains("\"name\":\"mark\""));
    }

    #[test]
    fn profile_and_requests_endpoints_serve_sampler_state() {
        let s = test_sources();
        {
            let ctx = s.requests.open("svc", crate::request::Op::Compress, 100);
            ctx.mark_error("corrupt");
        }
        let profile = respond("GET", "/profile.json", &s);
        assert_eq!(profile.status, 200);
        assert_eq!(profile.content_type, JSON);
        assert!(profile.body.contains("\"attribution\":["));
        assert!(profile.body.contains("\"service\":\"svc\""));
        let requests = respond("GET", "/requests.json", &s);
        assert_eq!(requests.status, 200);
        assert!(requests.body.contains("\"outcome\":\"error\""));
        assert!(requests.body.contains("\"reason\":\"error\""));
        let metrics = respond("GET", "/metrics", &s);
        assert!(metrics
            .body
            .contains("requests_sampled_total{reason=\"error\"} 1\n"));
    }

    #[test]
    fn unknown_paths_and_methods_are_rejected() {
        let s = test_sources();
        assert_eq!(respond("GET", "/nope", &s).status, 404);
        assert_eq!(respond("POST", "/metrics", &s).status, 405);
        assert_eq!(respond("GET", "/metrics?x=1", &s).status, 200);
    }

    #[test]
    fn http_serialization_has_correct_content_length() {
        let r = Response::new(200, TEXT, "hëllo".into());
        let http = r.to_http();
        assert!(http.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(
            http.contains("Content-Length: 6\r\n"),
            "byte length, not chars"
        );
        assert!(http.ends_with("\r\n\r\nhëllo"));
    }

    #[test]
    fn server_answers_real_sockets_and_shuts_down() {
        let s = test_sources();
        s.registry.counter("socket.reqs", &[]).inc();
        let server = ScrapeServer::bind("127.0.0.1:0", s).expect("bind");
        let addr = server.local_addr();
        let fetch = |path: &str| -> String {
            let mut conn = TcpStream::connect(addr).expect("connect");
            write!(conn, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut out = String::new();
            conn.read_to_string(&mut out).expect("read");
            out
        };
        let metrics = fetch("/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK\r\n"), "{metrics}");
        assert!(metrics.contains("socket_reqs 1\n"));
        assert!(fetch("/healthz").ends_with("ok\n"));
        assert!(fetch("/slo").contains("\"objectives\""));
        assert!(fetch("/trace.json").contains("traceEvents"));
        assert!(fetch("/missing").starts_with("HTTP/1.1 404"));
        server.shutdown();
        // Deterministic shutdown: once `shutdown()` returns the accept
        // thread has been joined, so no probe — even one whose connect
        // wins a race against the kernel tearing the socket down — may
        // ever receive an HTTP response.
        for probe in 0..5 {
            let Ok(mut c) = TcpStream::connect(addr) else {
                continue; // port released, nothing listening
            };
            let _ = write!(c, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
            let mut buf = String::new();
            c.set_read_timeout(Some(Duration::from_millis(200)))
                .unwrap();
            let _ = c.read_to_string(&mut buf);
            assert!(
                !buf.contains("HTTP/1.1"),
                "stopped server answered probe {probe}: {buf}"
            );
        }
    }

    #[test]
    fn header_trickler_does_not_delay_a_concurrent_scrape() {
        let server = ScrapeServer::bind("127.0.0.1:0", test_sources()).expect("bind");
        let addr = server.local_addr();
        // One header line every 100 ms for 6 s: every read lands well
        // inside a per-read timeout, and every line is short.
        let trickler = std::thread::spawn(move || {
            let mut conn = TcpStream::connect(addr).expect("connect");
            let _ = conn.write_all(b"GET /metrics HTTP/1.1\r\n");
            for _ in 0..60 {
                if conn.write_all(b"X-Pad: y\r\n").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            let mut answer = String::new();
            let _ = conn.read_to_string(&mut answer);
            answer
        });
        std::thread::sleep(Duration::from_millis(100));
        let start = Instant::now();
        let health = http_get(addr, "/healthz").expect("healthz");
        let waited = start.elapsed();
        assert_eq!(health, "ok\n");
        assert!(
            waited < Duration::from_secs(3),
            "a trickling client held /healthz for {waited:?}"
        );
        let answer = trickler.join().unwrap();
        assert!(
            !answer.contains("HTTP/1.1"),
            "trickler was answered: {answer}"
        );
        server.shutdown();
    }

    /// `name{k="v",...}` with the labels sorted by key: a sample's
    /// identity, independent of label order and value.
    fn sample_identity(line: &str) -> String {
        let (metric, _value) = line.rsplit_once(' ').expect("sample line");
        let Some((name, labels)) = metric.split_once('{') else {
            return format!("{metric}{{}}");
        };
        let labels = labels.strip_suffix('}').expect("closed label set");
        let mut pairs: Vec<&str> = labels.split("\",").collect();
        pairs.sort_unstable_by_key(|p| p.split_once('=').map(|(k, _)| k));
        let pairs: Vec<String> = pairs
            .iter()
            .map(|p| format!("{}\"", p.trim_end_matches('"')))
            .collect();
        format!("{name}{{{}}}", pairs.join(","))
    }

    /// One series of every kind each plane exports, on a manual clock.
    #[test]
    fn metrics_exposition_is_pinned_and_well_formed() {
        let s = test_sources();
        s.registry
            .counter("pin.calls", &[("algo", "zstdx"), ("level", "3")])
            .add(3);
        s.registry.gauge("pin.ratio", &[("tenant", "a")]).set(2.5);
        let h = s.registry.histogram("pin.nanos", &[]);
        h.observe(100);
        h.observe(5000);
        s.windows.counter("pin.ops", &[("tenant", "a")]).add(4, 0);
        {
            let _req = s.requests.open("svc", crate::request::Op::Compress, 100);
            s.windows
                .histogram("pin.latency", &[("tenant", "a")])
                .observe(700);
        }
        s.slos
            .register(SloConfig::latency("pin.slow", 1000, 0.99))
            .record_latency(500, 0);
        s.slos
            .register(SloConfig::error_rate("pin.errors", 0.9))
            .record(false, 0);
        {
            let ctx = s.requests.open("svc", crate::request::Op::Compress, 100);
            ctx.mark_error("boom");
        }
        drop(s.requests.open("svc", crate::request::Op::Decompress, 100));

        let body = respond("GET", "/metrics", &s).body;
        let mut ids: Vec<String> = body
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(sample_identity)
            .collect();
        ids.sort();
        assert_eq!(ids, PINNED_IDENTITIES, "{body}");

        let mut families = std::collections::HashSet::new();
        let mut family: Option<(&str, &str)> = None;
        for line in body.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').expect("TYPE name kind");
                assert!(families.insert(name), "family {name} declared twice");
                family = Some((name, kind));
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let name = line.split(['{', ' ']).next().unwrap_or_default();
            let (fam, kind) = family.unwrap_or_else(|| panic!("{name} before any TYPE"));
            let belongs = name == fam
                || (kind == "histogram"
                    && ["_bucket", "_sum", "_count"]
                        .iter()
                        .any(|suffix| name.strip_suffix(suffix) == Some(fam)));
            assert!(belongs, "{name} is not a sample of family {fam} ({kind})");
        }
    }

    /// The sample identities of the exposition above, pinned while each
    /// plane still had its own Prometheus writer, less the flight
    /// recorder's `trace_*` series (deleted with it) and the unread
    /// `slo_{fast,slow}_burn` gauges; the exemplar is labelled with the
    /// request it was observed in.
    const PINNED_IDENTITIES: &[&str] = &[
        r#"pin_calls{algo="zstdx",level="3"}"#,
        r#"pin_nanos_bucket{le="+Inf"}"#,
        r#"pin_nanos_bucket{le="127"}"#,
        r#"pin_nanos_bucket{le="8191"}"#,
        r#"pin_nanos_count{}"#,
        r#"pin_nanos_sum{}"#,
        r#"pin_ratio{tenant="a"}"#,
        r#"request_spans_dropped_total{}"#,
        r#"requests_dropped_total{}"#,
        r#"requests_evicted_total{}"#,
        r#"requests_sampled_total{reason="baseline"}"#,
        r#"requests_sampled_total{reason="error"}"#,
        r#"requests_sampled_total{reason="slow"}"#,
        r#"requests_total{}"#,
        r#"slo_budget_remaining{objective="pin.errors"}"#,
        r#"slo_budget_remaining{objective="pin.slow"}"#,
        r#"slo_state{objective="pin.errors"}"#,
        r#"slo_state{objective="pin.slow"}"#,
        r#"window_pin_latency_count{tenant="a"}"#,
        r#"window_pin_latency_exemplar{request="1",tenant="a"}"#,
        r#"window_pin_latency_max{tenant="a"}"#,
        r#"window_pin_latency_p50{tenant="a"}"#,
        r#"window_pin_latency_p90{tenant="a"}"#,
        r#"window_pin_latency_p99{tenant="a"}"#,
        r#"window_pin_latency_rate{tenant="a"}"#,
        r#"window_pin_latency_sum{tenant="a"}"#,
        r#"window_pin_ops_rate{tenant="a"}"#,
        r#"window_pin_ops{tenant="a"}"#,
        r#"window_span_seconds{}"#,
    ];
}
