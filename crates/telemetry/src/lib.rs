//! Unified metrics and tracing for the datacomp stack.
//!
//! The paper's methodology (§III-A) is fleet-wide observability: sampled
//! call stacks filtered to compression APIs, with cycles attributed per
//! `(service, algorithm, level)` and per pipeline stage (Figure 7's
//! match-find vs entropy split). This crate is the measurement substrate
//! that replaces the ad-hoc `Instant::now()` pairs previously scattered
//! across the profiler, the codec metrics, and the managed service:
//!
//! * [`Registry`] — a sharded table of named series. Three kinds:
//!   monotonic [`Counter`]s, last-value [`Gauge`]s, and log-bucketed
//!   [`Histogram`]s (power-of-two buckets, p50/p90/p99/max, mergeable
//!   across threads because every cell is atomic).
//! * [`Stage`] — stage timing through a `static` handle resolved on
//!   first use: `MATCH_FIND.record(start, elapsed)` feeds the histogram
//!   `span.zstdx.match_find` and the open request.
//! * [`export`] — machine-readable exporters: JSON (for `BENCH_*.json`
//!   style cross-PR trend tracking) and the Prometheus text exposition
//!   format.
//! * [`request`] — the one store of per-event observations: requests
//!   ([`requests`]) opened per operation collect their stages and
//!   [marks](request::mark) into span trees, attributed over every
//!   request and tail-sampled into a bounded store. [`chrome`] renders
//!   the sampled trees as Chrome trace-event JSON loadable in Perfetto.
//! * [`window`] — the live plane: sliding-window counters and
//!   histograms ([`windows`]) rotated on an injectable [`clock`],
//!   yielding per-window p50/p90/p99 and rates, with exemplars naming
//!   the request each sub-window maximum was observed in.
//! * [`slo`] — declarative objectives ([`slos`]) fed through
//!   [`SloHandle`]s and evaluated on read as multi-window burn rates
//!   with error-budget accounting.
//! * [`serve`] — a dependency-free HTTP scrape server exposing
//!   `/metrics` (every plane through the one Prometheus writer),
//!   `/slo`, `/healthz` and the JSON request endpoints, on the accept
//!   loop the compression daemon shares.
//!
//! The crate is dependency-free (std only) so every layer of the stack
//! can use it without weight. Request paths hold handles (`Arc`s
//! resolved once where their labels are fixed) rather than looking
//! series up by name per call; a name lookup that hits allocates
//! nothing, so the cold paths that keep them stay cheap too.
//!
//! # Example
//!
//! ```
//! use telemetry::Registry;
//!
//! let reg = Registry::new();
//! reg.counter("requests", &[("service", "DW1")]).inc();
//! reg.histogram("latency.nanos", &[]).observe(1500);
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("requests", &[("service", "DW1")]), 1);
//! let json = telemetry::export::to_json(&snap);
//! assert!(json.contains("\"requests\""));
//! ```

#![warn(missing_docs)]

pub mod chrome;
pub mod clock;
pub mod export;
pub mod histogram;
pub mod registry;
pub mod request;
pub mod serve;
pub mod slo;
pub mod span;
pub mod window;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{Counter, Gauge, Registry, Series, SeriesKey, SeriesValue, Snapshot};
pub use request::{
    KeepReason, Op, RequestCtx, RequestHandle, RequestSampler, SampledRequest, SamplerConfig,
    SamplerStats, SizeClass, SpanNode,
};
pub use serve::{ScrapeServer, Sources};
pub use slo::{Slo, SloConfig, SloHandle, SloKind, SloRegistry, SloState};
pub use span::Stage;
pub use window::{
    Exemplar, SubWindows, WindowConfig, WindowRegistry, WindowedCounter, WindowedHistogram,
};

use std::sync::{Arc, OnceLock};

/// The process-wide registry that the instrumented crates (codecs,
/// fleet, managed) record into by default.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// The process-wide monotonic clock that the global windowed views and
/// SLOs rotate on, anchored at first use.
pub fn global_clock() -> Arc<dyn Clock> {
    static GLOBAL: OnceLock<Arc<MonotonicClock>> = OnceLock::new();
    Arc::clone(GLOBAL.get_or_init(|| Arc::new(MonotonicClock::new()))) as Arc<dyn Clock>
}

/// The process-wide windowed-metrics registry (default 30 s window)
/// behind the `window_*` series on `/metrics`.
pub fn windows() -> &'static WindowRegistry {
    static GLOBAL: OnceLock<WindowRegistry> = OnceLock::new();
    GLOBAL.get_or_init(|| WindowRegistry::new(WindowConfig::DEFAULT, global_clock()))
}

/// The process-wide SLO registry behind `/slo` and the `slo_*` gauges.
pub fn slos() -> &'static SloRegistry {
    static GLOBAL: OnceLock<SloRegistry> = OnceLock::new();
    GLOBAL.get_or_init(|| SloRegistry::new(global_clock()))
}

/// The process-wide tail-based request sampler behind `/profile.json`
/// and `/requests.json`. Requests opened via
/// [`RequestSampler::open`] on this instance are attributed and
/// tail-sampled with the default policy (errors always, slowest-8 per
/// sub-window, 1-in-64 baseline).
pub fn requests() -> &'static RequestSampler {
    static GLOBAL: OnceLock<RequestSampler> = OnceLock::new();
    GLOBAL.get_or_init(|| RequestSampler::new(SamplerConfig::default(), global_clock()))
}

/// Snapshot of the process-wide registry.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}
