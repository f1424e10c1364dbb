//! Dependency-free HTTP scrape endpoint for the live observability
//! plane.
//!
//! [`ScrapeServer`] is a tiny blocking HTTP/1.1 server on a std
//! [`TcpListener`] — no async runtime, no HTTP crate — serving
//! read-only endpoints off a [`Sources`] bundle:
//!
//! | path             | payload                                           |
//! |------------------|---------------------------------------------------|
//! | `/metrics`       | Prometheus text: cumulative series, `window_*`    |
//! |                  | live views (with exemplars), `slo_*` gauges, and  |
//! |                  | flight-recorder + request-sampler health counters |
//! | `/slo`           | JSON error-budget report ([`crate::slo::to_json_reports`]) |
//! | `/healthz`       | `ok` — liveness probe                             |
//! | `/trace.json`    | Chrome trace-event JSON of the flight recorder,   |
//! |                  | with sampled request trees as flow-linked events  |
//! | `/profile.json`  | p99 stage-attribution report per service/op/size  |
//! | `/requests.json` | tail-sampled request span trees                   |
//!
//! `/trace.json` uses the non-destructive [`Tracer::snapshot`], so
//! scraping never steals events from a later `--trace` export.
//!
//! One request per connection (`Connection: close`), GET only; a
//! request-line parser of a dozen lines is the whole attack surface.
//! Responses are built by the pure [`respond`] function, which unit
//! tests exercise without sockets. [`ScrapeServer::shutdown`] flips a
//! flag and self-connects to unblock `accept`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::chrome::to_chrome_json_with_requests;
use crate::export::{prom_labels, to_prometheus};
use crate::registry::Registry;
use crate::request::RequestSampler;
use crate::slo::{to_json_reports, SloRegistry, SloState};
use crate::trace::Tracer;
use crate::window::{to_prometheus_windows, WindowRegistry};

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
    /// Flight recorder.
    pub tracer: &'static Tracer,
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
            tracer: crate::trace::global_tracer(),
            requests: crate::requests(),
        }
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
        "/metrics" => {
            let mut body = to_prometheus(&sources.registry.snapshot());
            body.push_str(&to_prometheus_windows(&sources.windows.snapshot()));
            body.push_str(&slo_prometheus(sources.slos));
            body.push_str(&trace_prometheus(sources.tracer));
            body.push_str(&sources.requests.to_prometheus());
            Response::new(200, PROM, body)
        }
        "/slo" => Response::new(200, JSON, to_json_reports(&sources.slos.reports())),
        "/healthz" => Response::new(200, TEXT, "ok\n".into()),
        "/trace.json" => Response::new(
            200,
            JSON,
            to_chrome_json_with_requests(&sources.tracer.snapshot(), &sources.requests.sampled()),
        ),
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

/// Renders SLO evaluations as Prometheus gauges: `slo_state` (0=ok,
/// 1=warning, 2=burning), `slo_fast_burn`, `slo_slow_burn`, and
/// `slo_budget_remaining`, one sample per objective.
pub fn slo_prometheus(slos: &SloRegistry) -> String {
    let reports = slos.reports();
    if reports.is_empty() {
        return String::new();
    }
    let mut out = String::with_capacity(reports.len() * 256);
    out.push_str("# HELP slo_state Objective state: 0=ok 1=warning 2=burning\n");
    out.push_str("# TYPE slo_state gauge\n");
    for r in &reports {
        let v = match r.state {
            SloState::Ok => 0,
            SloState::Warning => 1,
            SloState::Burning => 2,
        };
        out.push_str(&format!(
            "slo_state{} {v}\n",
            prom_labels(&[], &[("objective", &r.name)])
        ));
    }
    out.push_str("# HELP slo_fast_burn Error-budget burn rate over the fast window\n");
    out.push_str("# TYPE slo_fast_burn gauge\n");
    for r in &reports {
        out.push_str(&format!(
            "slo_fast_burn{} {}\n",
            prom_labels(&[], &[("objective", &r.name)]),
            r.fast_burn
        ));
    }
    out.push_str("# HELP slo_slow_burn Error-budget burn rate over the slow window\n");
    out.push_str("# TYPE slo_slow_burn gauge\n");
    for r in &reports {
        out.push_str(&format!(
            "slo_slow_burn{} {}\n",
            prom_labels(&[], &[("objective", &r.name)]),
            r.slow_burn
        ));
    }
    out.push_str("# HELP slo_budget_remaining Fraction of cumulative error budget left\n");
    out.push_str("# TYPE slo_budget_remaining gauge\n");
    for r in &reports {
        out.push_str(&format!(
            "slo_budget_remaining{} {}\n",
            prom_labels(&[], &[("objective", &r.name)]),
            r.budget.remaining_fraction
        ));
    }
    out
}

/// Renders flight-recorder health as Prometheus text:
/// `trace_dropped_total` plus a `trace_track_dropped{track,tid}` line
/// per registered track, so ring saturation is alertable.
pub fn trace_prometheus(tracer: &Tracer) -> String {
    let health = tracer.track_health();
    let mut out = String::with_capacity(128 + health.len() * 64);
    out.push_str("# HELP trace_dropped_total Flight-recorder events overwritten before export\n");
    out.push_str("# TYPE trace_dropped_total counter\n");
    let total: u64 = health.iter().map(|(_, _, d)| d).sum();
    out.push_str(&format!("trace_dropped_total {total}\n"));
    if !health.is_empty() {
        out.push_str("# HELP trace_track_dropped Events overwritten per flight-recorder track\n");
        out.push_str("# TYPE trace_track_dropped counter\n");
        for (tid, name, dropped) in &health {
            let label = prom_labels(&[], &[("track", name), ("tid", &tid.to_string())]);
            out.push_str(&format!("trace_track_dropped{label} {dropped}\n"));
        }
    }
    out
}

/// The scrape server: an accept loop on a background thread.
#[derive(Debug)]
pub struct ScrapeServer {
    local_addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ScrapeServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9184"`; port 0 picks a free
    /// port) and starts serving `sources`.
    pub fn bind(addr: &str, sources: Sources) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("datacomp-scrape".into())
            .spawn(move || accept_loop(listener, sources, stop_flag))?;
        Ok(Self {
            local_addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock `accept` with a throwaway connection. A transient
        // connect failure (e.g. backlog exhaustion) would leave the
        // accept loop blocked and the join below hung, so retry a few
        // times; once any connect lands the loop observes the flag.
        for _ in 0..8 {
            if TcpStream::connect(self.local_addr).is_ok() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ScrapeServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop_inner();
        }
    }
}

fn accept_loop(listener: TcpListener, sources: Sources, stop: Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        // A stuck client must not wedge the (single-threaded) loop.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
        let _ = handle_connection(stream, &sources, &stop);
    }
}

fn handle_connection(
    stream: TcpStream,
    sources: &Sources,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.by_ref().take(8192).read_line(&mut request_line)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("/");
    // Drain headers so well-behaved clients see a clean close.
    let mut header = String::new();
    while reader.by_ref().take(8192).read_line(&mut header)? > 2 {
        header.clear();
    }
    let response = respond(method, path, sources);
    // `stop()` may have landed while this request was being read — e.g.
    // its unblock connect raced an in-flight client. Re-check right
    // before the write so a stopped server never answers: the caller
    // sees a closed socket, not a response from a server it stopped.
    if stop.load(Ordering::SeqCst) {
        return Ok(());
    }
    let mut stream = reader.into_inner();
    stream.write_all(response.to_http().as_bytes())?;
    stream.flush()
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
            tracer: Box::leak(Box::new(Tracer::with_capacity(64))),
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
        s.windows.counter("reqs", &[]).add(2);
        s.slos
            .register(SloConfig::error_rate("errs", 0.9))
            .record(true);
        s.tracer.new_track("t").instant("mark");

        let metrics = respond("GET", "/metrics", &s);
        assert_eq!(metrics.status, 200);
        assert!(metrics.body.contains("reqs 3\n"));
        assert!(metrics.body.contains("window_reqs 2\n"));
        assert!(metrics.body.contains("slo_state{objective=\"errs\"} 0\n"));
        assert!(metrics
            .body
            .contains("slo_budget_remaining{objective=\"errs\"} 1\n"));
        assert!(metrics.body.contains("trace_dropped_total 0\n"));
        assert!(metrics
            .body
            .contains("trace_track_dropped{track=\"t\",tid=\"1\"} 0\n"));
        assert!(metrics.body.contains("requests_total 0\n"));
        assert!(metrics.body.contains("requests_dropped_total 0\n"));

        let slo = respond("GET", "/slo", &s);
        assert_eq!(slo.status, 200);
        assert!(slo.body.starts_with("{\"version\":1,\"worst\":\"ok\""));

        let health = respond("GET", "/healthz", &s);
        assert_eq!(health.body, "ok\n");

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
}
