//! Request-scoped causal tracing with tail-based sampling: the one
//! store of per-event observations.
//!
//! The aggregate planes answer *how much* (registry), *recently*
//! (windows), and *against objective* (SLOs). None of them connect a
//! burning p99 back to the concrete operations where the time went.
//! This module closes that loop, mirroring the always-on sampled
//! profiling the paper's fleet characterization rests on (§III-A), but
//! per request:
//!
//! * [`RequestCtx`] — a guard the managed service (and the fleet
//!   profiler) opens per operation. While it is live on the thread,
//!   every stage reported through
//!   [`Stage::record`](crate::span::Stage::record) (the codec block
//!   loops' single instrumentation point) additionally becomes a node
//!   in the request's span tree: span id, parent id, start offset,
//!   total and self nanoseconds. A [`mark`] is a zero-length node: a
//!   point event (a shed, a quarantine, a breaker transition) placed on
//!   the request it happened to.
//! * [`RequestSampler`] — a deterministic tail-based sampler with a
//!   bounded store. At request finish it keeps every errored request,
//!   the slowest-N per sliding sub-window (rotated on the injected
//!   [`Clock`], so tests drive it with
//!   [`ManualClock`](crate::ManualClock)), and a seed-driven 1-in-k probabilistic
//!   baseline. Everything else is dropped — counted, never silent.
//! * an **attribution report** — running p99 self-time per stage, and
//!   a count per mark, split by `(service, op, size class)`, aggregated
//!   over *all* finished requests (not just the sampled ones, so the
//!   report is unbiased). Served as `/profile.json`; the sampled span
//!   trees as `/requests.json` and, rendered by [`crate::chrome`], as
//!   `/trace.json`.
//!
//! Windowed-histogram exemplars link here too: a new sub-window maximum
//! stores the [`current_id`] of the request it was observed in.
//!
//! Recording is sampling-gated by construction: a stage observation
//! costs one thread-local `Option` check when no context is live, so
//! the raw codec paths (and the decode-guard bench) pay nothing
//! measurable.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::clock::Clock;
use crate::export::json_string;
use crate::histogram::{Histogram, HistogramSnapshot};
use crate::registry::Series;
use crate::window::WindowConfig;

/// Spans (marks included) stored individually per request; further
/// reports fold into the per-name aggregate and count as dropped spans.
pub const MAX_SPANS_PER_REQUEST: usize = 256;

/// Default bound on retained sampled requests.
pub const DEFAULT_STORE_CAPACITY: usize = 256;

/// The operation a request performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// A compression request.
    Compress,
    /// A decompression request.
    Decompress,
}

impl Op {
    /// Stable label (`compress` / `decompress`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Op::Compress => "compress",
            Op::Decompress => "decompress",
        }
    }
}

/// Payload size class, bucketing requests the way the paper buckets
/// block sizes (Figure 5): dictionaries matter under ~1 KiB, the cache
/// sweet spot is tens of KiB, streaming blocks beyond that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SizeClass {
    /// Up to 1 KiB.
    Tiny,
    /// 1 KiB to 16 KiB.
    Small,
    /// 16 KiB to 256 KiB.
    Medium,
    /// Beyond 256 KiB.
    Large,
}

impl SizeClass {
    /// Classifies a payload length.
    pub fn of(len: usize) -> Self {
        match len {
            0..=1024 => SizeClass::Tiny,
            1025..=16_384 => SizeClass::Small,
            16_385..=262_144 => SizeClass::Medium,
            _ => SizeClass::Large,
        }
    }

    /// Stable label (`tiny` / `small` / `medium` / `large`).
    pub fn as_str(&self) -> &'static str {
        match self {
            SizeClass::Tiny => "tiny",
            SizeClass::Small => "small",
            SizeClass::Medium => "medium",
            SizeClass::Large => "large",
        }
    }
}

/// Why the sampler kept a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeepReason {
    /// The request errored; errors are always kept.
    Error,
    /// The request ranked among the slowest-N of its sub-window.
    Slow,
    /// The seed-driven 1-in-k probabilistic baseline.
    Baseline,
}

impl KeepReason {
    /// Stable label (`error` / `slow` / `baseline`).
    pub fn as_str(&self) -> &'static str {
        match self {
            KeepReason::Error => "error",
            KeepReason::Slow => "slow",
            KeepReason::Baseline => "baseline",
        }
    }
}

/// One node of a finished request's span tree. Node ids are 1-based;
/// the root (the request operation itself) is id 1 with parent 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanNode {
    /// 1-based span id within the request.
    pub id: u32,
    /// Parent span id; 0 for the root.
    pub parent: u32,
    /// Stage name (the root carries the operation name).
    pub name: &'static str,
    /// Start offset from the request open, nanoseconds.
    pub start_nanos: u64,
    /// Wall time covered by this span.
    pub total_nanos: u64,
    /// Total minus the sum of direct children's totals (saturating).
    pub self_nanos: u64,
}

impl SpanNode {
    /// True for a [`mark`]: a zero-length span below the root.
    pub(crate) fn is_mark(&self) -> bool {
        self.total_nanos == 0 && self.parent != 0
    }
}

/// A finished request retained by the tail sampler.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledRequest {
    /// Process-unique request id (also the Chrome export's `tid`).
    pub id: u64,
    /// Service / use-case name.
    pub service: String,
    /// Operation.
    pub op: Op,
    /// Payload size class.
    pub size_class: SizeClass,
    /// Error label when the request failed; `None` on success.
    pub error: Option<&'static str>,
    /// Why the sampler kept it.
    pub reason: KeepReason,
    /// End-to-end latency on the sampler's clock.
    pub latency_nanos: u64,
    /// Request open time, nanoseconds from the process epoch the first
    /// sampler was created at; anchors the span tree in the Chrome
    /// export.
    pub opened_at_nanos: u64,
    /// The span tree: root first, then stages in start order.
    pub spans: Vec<SpanNode>,
    /// Stage reports beyond [`MAX_SPANS_PER_REQUEST`] folded into the
    /// attribution aggregate instead of stored as nodes.
    pub spans_dropped: u32,
}

impl SampledRequest {
    /// Sum of self-times across the whole tree. Equals
    /// [`Self::latency_nanos`] whenever the recorded stages nest
    /// cleanly inside the request (the tree invariant the e2e test
    /// pins).
    pub fn self_nanos_total(&self) -> u64 {
        self.spans.iter().map(|s| s.self_nanos).sum()
    }
}

/// Tail-sampler policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct SamplerConfig {
    /// Sliding-window shape for the slowest-N criterion.
    pub window: WindowConfig,
    /// Requests kept per sub-window for being slowest (N).
    pub slowest_per_window: usize,
    /// Probabilistic baseline: keep 1 in `baseline_one_in` requests
    /// (0 disables the baseline).
    pub baseline_one_in: u64,
    /// Bounded store capacity; the oldest non-error entry is evicted
    /// first when full.
    pub capacity: usize,
    /// Seed for the deterministic baseline decision.
    pub seed: u64,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        Self {
            window: WindowConfig::DEFAULT,
            slowest_per_window: 8,
            baseline_one_in: 64,
            capacity: DEFAULT_STORE_CAPACITY,
            seed: 0x7265_7174, // "reqt"
        }
    }
}

/// Sampler health counters, all monotonic since process start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SamplerStats {
    /// Requests opened.
    pub opened: u64,
    /// Requests finished (every open is eventually finished).
    pub finished: u64,
    /// Requests kept because they errored.
    pub kept_error: u64,
    /// Requests kept as slowest-N of their sub-window.
    pub kept_slow: u64,
    /// Requests kept by the probabilistic baseline.
    pub kept_baseline: u64,
    /// Requests finished but not sampled.
    pub dropped: u64,
    /// Sampled requests later pushed out of the bounded store.
    pub evicted: u64,
    /// Stage spans folded into aggregates past the per-request cap.
    pub spans_dropped: u64,
}

impl SamplerStats {
    /// Total requests kept, across all reasons.
    pub fn kept(&self) -> u64 {
        self.kept_error + self.kept_slow + self.kept_baseline
    }
}

/// A raw stage report captured while the request was live.
#[derive(Debug, Clone, Copy)]
struct RawSpan {
    name: &'static str,
    start_nanos: u64,
    total_nanos: u64,
}

/// The thread's currently open request (top of the LIFO stack).
struct ActiveRequest {
    sampler: RequestSampler,
    id: u64,
    service: String,
    op: Op,
    size_class: SizeClass,
    /// Sampler-clock time at open; latency is measured against it.
    open_clock_nanos: u64,
    /// Wall anchor for stage start offsets.
    open_instant: Instant,
    spans: Vec<RawSpan>,
    /// Stage totals folded past the span cap, per name.
    overflow: HashMap<&'static str, (u64, u64)>, // (count, total_nanos)
    spans_dropped: u32,
    error: Option<&'static str>,
    /// Armed per-request budget relative to `open_instant`, if any.
    deadline_nanos: Option<u64>,
    /// Set by [`observe_stage`] when a stage ends past the budget.
    deadline_hit: bool,
}

thread_local! {
    static ACTIVE: std::cell::RefCell<Vec<ActiveRequest>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Guard for one open request. Dropping it finishes the request:
/// latency is read off the sampler's clock, the span tree is built,
/// the attribution aggregate is updated, and the tail sampler decides
/// keep-or-drop. Contexts must close LIFO per thread (they are guards;
/// the borrow checker enforces this under normal use).
#[derive(Debug)]
pub struct RequestCtx {
    /// Request id, for callers that want to correlate logs.
    id: u64,
}

impl RequestCtx {
    /// The process-unique request id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Runs `f` on this request's record while it is the thread's
    /// innermost open request.
    fn with_top<R>(&self, f: impl FnOnce(&mut ActiveRequest) -> R) -> Option<R> {
        ACTIVE.with(|cell| {
            let mut stack = cell.borrow_mut();
            stack.last_mut().filter(|top| top.id == self.id).map(f)
        })
    }

    /// Marks the request failed; the label lands in `/requests.json`
    /// and `/trace.json`. An errored request is always sampled.
    pub fn mark_error(&self, label: &'static str) {
        self.with_top(|top| top.error = Some(label));
    }

    /// Arms a per-request deadline of `budget_nanos`, measured from the
    /// request's open instant. Subsequent [`observe_stage`] reports set
    /// the [`deadline_exceeded`](Self::deadline_exceeded) flag once a
    /// stage ends past the budget, so services can check between stages
    /// without their own timer plumbing. A zero budget disarms.
    pub fn arm_deadline(&self, budget_nanos: u64) {
        self.with_top(|top| {
            top.deadline_nanos = (budget_nanos != 0).then_some(budget_nanos);
            top.deadline_hit = false;
        });
    }

    /// Whether an armed deadline has been observed exceeded — either by
    /// a completed stage report ([`observe_stage`]) or by wall time at
    /// the moment of this call.
    pub fn deadline_exceeded(&self) -> bool {
        self.with_top(|top| {
            let Some(budget) = top.deadline_nanos else {
                return false;
            };
            top.deadline_hit |= nanos(top.open_instant.elapsed()) > budget;
            top.deadline_hit
        })
        .unwrap_or(false)
    }
}

impl Drop for RequestCtx {
    fn drop(&mut self) {
        let finished = ACTIVE.with(|cell| {
            let mut stack = cell.borrow_mut();
            match stack.last() {
                Some(top) if top.id == self.id => stack.pop(),
                // Mismatched guard order (should not happen with
                // guard-scoped use): drop the record rather than
                // corrupt another request's tree.
                _ => None,
            }
        });
        if let Some(active) = finished {
            let sampler = active.sampler.clone();
            sampler.finish(active);
        }
    }
}

/// Records a point event on the thread's open request, if any: a
/// zero-length span at the current instant, nested under whichever
/// stage encloses it. Costs one thread-local check when no request is
/// live.
pub fn mark(name: &'static str) {
    observe_stage(name, Instant::now(), Duration::ZERO);
}

/// The id of the thread's innermost open request, if any — what a
/// windowed-histogram exemplar links its sample to.
pub fn current_id() -> Option<u64> {
    ACTIVE.with(|cell| cell.borrow().last().map(|top| top.id))
}

/// Reports a completed stage into the thread's open request, if any.
/// This is the hook [`Stage::record`](crate::span::Stage::record)
/// calls; instrumentation that bypasses it (e.g. whole-call codec
/// observers) can call it directly. Costs one thread-local check when
/// no request is live.
pub fn observe_stage(name: &'static str, start: Instant, elapsed: Duration) {
    ACTIVE.with(|cell| {
        let mut stack = cell.borrow_mut();
        let Some(top) = stack.last_mut() else { return };
        let start_nanos = nanos(start.saturating_duration_since(top.open_instant));
        let total_nanos = nanos(elapsed);
        if let Some(budget) = top.deadline_nanos {
            if start_nanos.saturating_add(total_nanos) > budget {
                top.deadline_hit = true;
            }
        }
        if top.spans.len() < MAX_SPANS_PER_REQUEST {
            top.spans.push(RawSpan {
                name,
                start_nanos,
                total_nanos,
            });
        } else {
            let e = top.overflow.entry(name).or_insert((0, 0));
            e.0 += 1;
            e.1 += total_nanos;
            top.spans_dropped = top.spans_dropped.saturating_add(1);
        }
    });
}

// ---------------------------------------------------------------------
// Attribution aggregate
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct StageCell {
    count: u64,
    self_hist: Histogram,
    self_sum: u64,
}

#[derive(Debug, Default)]
struct AttrCell {
    requests: u64,
    errors: u64,
    latency: Histogram,
    stages: HashMap<&'static str, StageCell>,
    marks: BTreeMap<&'static str, u64>,
}

/// One `(service, op, size class)` row of the attribution report.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionRow {
    /// Service / use-case name.
    pub service: String,
    /// Operation.
    pub op: Op,
    /// Payload size class.
    pub size_class: SizeClass,
    /// Requests aggregated into this row.
    pub requests: u64,
    /// Errored requests in this row.
    pub errors: u64,
    /// End-to-end latency distribution.
    pub latency: HistogramSnapshot,
    /// Per-stage self-time aggregates, largest self-time sum first.
    /// Marks take no time and are not stages: they are in `marks`.
    pub stages: Vec<StageAttribution>,
    /// Marks recorded on this row's requests, `(name, count)` sorted
    /// by name.
    pub marks: Vec<(&'static str, u64)>,
}

/// Self-time aggregate for one stage within an attribution row.
#[derive(Debug, Clone, PartialEq)]
pub struct StageAttribution {
    /// Stage name (the operation name for root self-time).
    pub stage: &'static str,
    /// Observations.
    pub count: u64,
    /// Total self nanoseconds attributed to the stage.
    pub self_sum: u64,
    /// Self-time distribution (p50/p90/p99 via the usual math).
    pub self_hist: HistogramSnapshot,
    /// Share of the row's total self time in `[0, 1]`.
    pub share: f64,
}

// ---------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Default)]
struct SlowSlot {
    epoch: u64,
    kept: Vec<u64>,
}

#[derive(Debug)]
struct Inner {
    cfg: SamplerConfig,
    clock: Arc<dyn Clock>,
    next_id: AtomicU64,
    opened: AtomicU64,
    finished: AtomicU64,
    kept_error: AtomicU64,
    kept_slow: AtomicU64,
    kept_baseline: AtomicU64,
    dropped: AtomicU64,
    evicted: AtomicU64,
    spans_dropped: AtomicU64,
    slow: Mutex<Vec<SlowSlot>>,
    store: Mutex<std::collections::VecDeque<SampledRequest>>,
    /// Keyed by service first, so a finish looks its row up by the
    /// borrowed name and clones it only for a service's first request.
    attribution: Mutex<HashMap<String, ServiceRows>>,
}

/// One service's attribution rows, by `(op, size class)`.
type ServiceRows = HashMap<(Op, SizeClass), AttrCell>;

/// The tail-based request sampler. Cheap to clone (shared state); the
/// process-wide instance is [`crate::requests`].
#[derive(Debug, Clone)]
pub struct RequestSampler {
    inner: Arc<Inner>,
}

impl RequestSampler {
    /// Creates a sampler rotating its slowest-N window on `clock`.
    pub fn new(cfg: SamplerConfig, clock: Arc<dyn Clock>) -> Self {
        process_epoch();
        let slots = cfg.window.sub_windows;
        Self {
            inner: Arc::new(Inner {
                cfg: SamplerConfig {
                    capacity: cfg.capacity.max(1),
                    ..cfg
                },
                clock,
                next_id: AtomicU64::new(1),
                opened: AtomicU64::new(0),
                finished: AtomicU64::new(0),
                kept_error: AtomicU64::new(0),
                kept_slow: AtomicU64::new(0),
                kept_baseline: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                evicted: AtomicU64::new(0),
                spans_dropped: AtomicU64::new(0),
                slow: Mutex::new(vec![SlowSlot::default(); slots]),
                store: Mutex::new(std::collections::VecDeque::new()),
                attribution: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// Opens a request context on the calling thread. Stage reports on
    /// this thread nest into its span tree until the guard drops.
    pub fn open(&self, service: &str, op: Op, payload_len: usize) -> RequestCtx {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        self.inner.opened.fetch_add(1, Ordering::Relaxed);
        let active = ActiveRequest {
            sampler: self.clone(),
            id,
            service: service.to_string(),
            op,
            size_class: SizeClass::of(payload_len),
            open_clock_nanos: self.inner.clock.now_nanos(),
            open_instant: Instant::now(),
            spans: Vec::new(),
            overflow: HashMap::new(),
            spans_dropped: 0,
            error: None,
            deadline_nanos: None,
            deadline_hit: false,
        };
        ACTIVE.with(|cell| cell.borrow_mut().push(active));
        RequestCtx { id }
    }

    fn finish(&self, mut active: ActiveRequest) {
        let inner = &self.inner;
        inner.finished.fetch_add(1, Ordering::Relaxed);
        inner
            .spans_dropped
            .fetch_add(active.spans_dropped as u64, Ordering::Relaxed);
        let now = inner.clock.now_nanos();
        let latency = now.saturating_sub(active.open_clock_nanos);
        let spans = build_tree(active.op.as_str(), latency, &mut active.spans);

        // Attribution aggregates over every finished request, so the
        // report is unbiased by the sampling decision below.
        {
            let mut attr = inner
                .attribution
                .lock()
                .expect("attribution map not poisoned");
            if !attr.contains_key(active.service.as_str()) {
                attr.insert(active.service.clone(), HashMap::new());
            }
            let cell = attr
                .get_mut(active.service.as_str())
                .expect("inserted above")
                .entry((active.op, active.size_class))
                .or_default();
            cell.requests += 1;
            if active.error.is_some() {
                cell.errors += 1;
            }
            cell.latency.observe(latency);
            for s in &spans {
                if s.is_mark() {
                    *cell.marks.entry(s.name).or_default() += 1;
                    continue;
                }
                let sc = cell.stages.entry(s.name).or_default();
                sc.count += 1;
                sc.self_hist.observe(s.self_nanos);
                sc.self_sum += s.self_nanos;
            }
            for (name, (count, total)) in &active.overflow {
                // A name whose overflowed reports all had zero length
                // was marked, not timed.
                if *total == 0 {
                    *cell.marks.entry(name).or_default() += count;
                    continue;
                }
                let sc = cell.stages.entry(name).or_default();
                sc.count += count;
                sc.self_hist.observe(*total);
                sc.self_sum += total;
            }
        }

        // Tail decision: error > slowest-N > baseline.
        let reason = if active.error.is_some() {
            Some(KeepReason::Error)
        } else if self.qualifies_slow(now, latency) {
            Some(KeepReason::Slow)
        } else if self.baseline_keeps(active.id) {
            Some(KeepReason::Baseline)
        } else {
            None
        };
        let Some(reason) = reason else {
            inner.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        match reason {
            KeepReason::Error => inner.kept_error.fetch_add(1, Ordering::Relaxed),
            KeepReason::Slow => inner.kept_slow.fetch_add(1, Ordering::Relaxed),
            KeepReason::Baseline => inner.kept_baseline.fetch_add(1, Ordering::Relaxed),
        };
        let sampled = SampledRequest {
            id: active.id,
            service: active.service,
            op: active.op,
            size_class: active.size_class,
            error: active.error,
            reason,
            latency_nanos: latency,
            opened_at_nanos: nanos(
                active
                    .open_instant
                    .saturating_duration_since(process_epoch()),
            ),
            spans,
            spans_dropped: active.spans_dropped,
        };
        let mut store = inner.store.lock().expect("sample store not poisoned");
        if store.len() >= inner.cfg.capacity {
            // Evict the oldest non-error entry first; errors only fall
            // out when the whole store is errors.
            let victim = store.iter().position(|r| r.error.is_none()).unwrap_or(0);
            store.remove(victim);
            inner.evicted.fetch_add(1, Ordering::Relaxed);
        }
        store.push_back(sampled);
    }

    /// Whether `latency` ranks among the slowest-N of the current
    /// sub-window (and reserves its slot when it does).
    fn qualifies_slow(&self, now_nanos: u64, latency: u64) -> bool {
        let n = self.inner.cfg.slowest_per_window;
        if n == 0 {
            return false;
        }
        let cfg = self.inner.cfg.window;
        let epoch = now_nanos / cfg.sub_window_nanos;
        let mut slots = self.inner.slow.lock().expect("slow slots not poisoned");
        let len = slots.len() as u64;
        let Some(slot) = slots.get_mut((epoch % len) as usize) else {
            return false;
        };
        if slot.epoch != epoch {
            *slot = SlowSlot {
                epoch,
                kept: Vec::with_capacity(n),
            };
        }
        if slot.kept.len() < n {
            slot.kept.push(latency);
            return true;
        }
        let (min_idx, &min) = slot
            .kept
            .iter()
            .enumerate()
            .min_by_key(|(_, &v)| v)
            .expect("kept is non-empty");
        if latency > min {
            if let Some(v) = slot.kept.get_mut(min_idx) {
                *v = latency;
            }
            return true;
        }
        false
    }

    /// Deterministic 1-in-k baseline: a SplitMix64 hash of the seed
    /// and request id, so a fixed seed replays to identical decisions.
    fn baseline_keeps(&self, id: u64) -> bool {
        let k = self.inner.cfg.baseline_one_in;
        if k == 0 {
            return false;
        }
        splitmix64(self.inner.cfg.seed ^ id).is_multiple_of(k)
    }

    /// Health counters.
    pub fn stats(&self) -> SamplerStats {
        let i = &self.inner;
        SamplerStats {
            opened: i.opened.load(Ordering::Relaxed),
            finished: i.finished.load(Ordering::Relaxed),
            kept_error: i.kept_error.load(Ordering::Relaxed),
            kept_slow: i.kept_slow.load(Ordering::Relaxed),
            kept_baseline: i.kept_baseline.load(Ordering::Relaxed),
            dropped: i.dropped.load(Ordering::Relaxed),
            evicted: i.evicted.load(Ordering::Relaxed),
            spans_dropped: i.spans_dropped.load(Ordering::Relaxed),
        }
    }

    /// The retained sampled requests, oldest first.
    pub fn sampled(&self) -> Vec<SampledRequest> {
        self.inner
            .store
            .lock()
            .expect("sample store not poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// The aggregated p99 attribution report, sorted by service, op,
    /// then size class; stages within a row sorted by self-time sum.
    pub fn attribution(&self) -> Vec<AttributionRow> {
        let attr = self
            .inner
            .attribution
            .lock()
            .expect("attribution map not poisoned");
        let mut rows: Vec<AttributionRow> = attr
            .iter()
            .flat_map(|(service, cells)| cells.iter().map(move |(key, cell)| (service, key, cell)))
            .map(|(service, (op, size_class), cell)| {
                let mut stages: Vec<StageAttribution> = cell
                    .stages
                    .iter()
                    .map(|(name, sc)| StageAttribution {
                        stage: name,
                        count: sc.count,
                        self_sum: sc.self_sum,
                        self_hist: sc.self_hist.snapshot(),
                        share: 0.0,
                    })
                    .collect();
                let total: u64 = stages.iter().map(|s| s.self_sum).sum();
                for s in &mut stages {
                    s.share = if total == 0 {
                        0.0
                    } else {
                        s.self_sum as f64 / total as f64
                    };
                }
                stages.sort_by(|a, b| b.self_sum.cmp(&a.self_sum).then(a.stage.cmp(b.stage)));
                AttributionRow {
                    service: service.clone(),
                    op: *op,
                    size_class: *size_class,
                    requests: cell.requests,
                    errors: cell.errors,
                    latency: cell.latency.snapshot(),
                    stages,
                    marks: cell.marks.iter().map(|(&name, &n)| (name, n)).collect(),
                }
            })
            .collect();
        rows.sort_by(|a, b| {
            (a.service.as_str(), a.op.as_str(), a.size_class).cmp(&(
                b.service.as_str(),
                b.op.as_str(),
                b.size_class,
            ))
        });
        rows
    }

    /// Renders the attribution report as the `/profile.json` payload.
    pub fn profile_json(&self) -> String {
        to_profile_json(&self.attribution(), &self.stats())
    }

    /// Renders the sampled store as the `/requests.json` payload.
    pub fn requests_json(&self) -> String {
        to_requests_json(&self.sampled(), &self.stats())
    }

    /// Publishes the sampler's health counters: `requests.total`,
    /// `requests.sampled_total{reason}`, `requests.dropped_total`,
    /// `requests.evicted_total` and `request.spans_dropped_total`.
    pub fn publish(&self, out: &mut Vec<Series>) {
        let s = self.stats();
        out.extend([
            Series::counter("requests.total", &[], s.finished),
            Series::counter(
                "requests.sampled_total",
                &[("reason", "error")],
                s.kept_error,
            ),
            Series::counter("requests.sampled_total", &[("reason", "slow")], s.kept_slow),
            Series::counter(
                "requests.sampled_total",
                &[("reason", "baseline")],
                s.kept_baseline,
            ),
            Series::counter("requests.dropped_total", &[], s.dropped),
            Series::counter("requests.evicted_total", &[], s.evicted),
            Series::counter("request.spans_dropped_total", &[], s.spans_dropped),
        ]);
    }
}

/// The instant every [`SampledRequest::opened_at_nanos`] counts from:
/// fixed when the first sampler is created, so it precedes every open.
fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Builds the span tree from raw stage reports: spans sorted by
/// (start asc, end desc) nest by time containment under a stack, the
/// root spanning the whole request. Self-time is total minus direct
/// children's totals, saturating (partial overlaps from timer jitter
/// cannot drive it negative).
fn build_tree(root_name: &'static str, latency: u64, raw: &mut [RawSpan]) -> Vec<SpanNode> {
    let end = |r: &RawSpan| r.start_nanos.saturating_add(r.total_nanos);
    raw.sort_by(|a, b| a.start_nanos.cmp(&b.start_nanos).then(end(b).cmp(&end(a))));
    let mut nodes = Vec::with_capacity(raw.len() + 1);
    nodes.push(SpanNode {
        id: 1,
        parent: 0,
        name: root_name,
        start_nanos: 0,
        total_nanos: latency,
        self_nanos: latency,
    });
    // (node index, end nanos) of the open enclosing spans.
    let mut stack: Vec<(usize, u64)> = Vec::with_capacity(raw.len() + 1);
    stack.push((0, u64::MAX));
    for r in raw.iter() {
        while stack.len() > 1 {
            let &(_, top_end) = stack.last().expect("stack non-empty");
            if r.start_nanos >= top_end {
                stack.pop();
            } else {
                break;
            }
        }
        let &(parent_idx, _) = stack.last().expect("root stays on the stack");
        let parent_id = nodes.get(parent_idx).map(|n| n.id).unwrap_or(1);
        let idx = nodes.len();
        nodes.push(SpanNode {
            id: idx as u32 + 1,
            parent: parent_id,
            name: r.name,
            start_nanos: r.start_nanos,
            total_nanos: r.total_nanos,
            self_nanos: r.total_nanos,
        });
        if let Some(parent) = nodes.get_mut(parent_idx) {
            parent.self_nanos = parent.self_nanos.saturating_sub(r.total_nanos);
        }
        stack.push((idx, end(r)));
    }
    nodes
}

// ---------------------------------------------------------------------
// JSON rendering
// ---------------------------------------------------------------------

fn push_stats(out: &mut String, stats: &SamplerStats) {
    out.push_str(&format!(
        "\"requests_total\":{},\"kept\":{},\"kept_error\":{},\"kept_slow\":{},\
         \"kept_baseline\":{},\"dropped\":{},\"evicted\":{},\"spans_dropped\":{}",
        stats.finished,
        stats.kept(),
        stats.kept_error,
        stats.kept_slow,
        stats.kept_baseline,
        stats.dropped,
        stats.evicted,
        stats.spans_dropped,
    ));
}

/// Renders the attribution report plus sampler counters as JSON — the
/// `/profile.json` payload.
fn to_profile_json(rows: &[AttributionRow], stats: &SamplerStats) -> String {
    let mut out = String::with_capacity(rows.len() * 512 + 256);
    out.push_str("{\"version\":1,");
    push_stats(&mut out, stats);
    out.push_str(",\"attribution\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"service\":");
        json_string(&mut out, &row.service);
        out.push_str(&format!(
            ",\"op\":\"{}\",\"size_class\":\"{}\",\"requests\":{},\"errors\":{},\
             \"latency\":{{\"count\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{},\"mean\":{:.1}}},\"stages\":[",
            row.op.as_str(),
            row.size_class.as_str(),
            row.requests,
            row.errors,
            row.latency.count(),
            row.latency.quantile(0.50),
            row.latency.quantile(0.90),
            row.latency.quantile(0.99),
            row.latency.max,
            row.latency.mean(),
        ));
        for (j, s) in row.stages.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"stage\":");
            json_string(&mut out, s.stage);
            out.push_str(&format!(
                ",\"count\":{},\"self_sum\":{},\"self_p50\":{},\"self_p99\":{},\"share\":{:.4}}}",
                s.count,
                s.self_sum,
                s.self_hist.quantile(0.50),
                s.self_hist.quantile(0.99),
                s.share,
            ));
        }
        out.push_str("],\"marks\":{");
        for (j, (name, n)) in row.marks.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            json_string(&mut out, name);
            out.push_str(&format!(":{n}"));
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Renders the sampled span trees as JSON — the `/requests.json`
/// payload.
fn to_requests_json(sampled: &[SampledRequest], stats: &SamplerStats) -> String {
    let mut out = String::with_capacity(sampled.len() * 512 + 256);
    out.push_str("{\"version\":1,");
    push_stats(&mut out, stats);
    out.push_str(",\"requests\":[");
    for (i, r) in sampled.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"id\":{},\"service\":", r.id));
        json_string(&mut out, &r.service);
        out.push_str(&format!(
            ",\"op\":\"{}\",\"size_class\":\"{}\",\"outcome\":\"{}\"",
            r.op.as_str(),
            r.size_class.as_str(),
            if r.error.is_some() { "error" } else { "ok" },
        ));
        if let Some(e) = r.error {
            out.push_str(",\"error\":");
            json_string(&mut out, e);
        }
        out.push_str(&format!(
            ",\"reason\":\"{}\",\"latency_nanos\":{},\"opened_at_nanos\":{},\
             \"spans_dropped\":{},\"spans\":[",
            r.reason.as_str(),
            r.latency_nanos,
            r.opened_at_nanos,
            r.spans_dropped,
        ));
        for (j, s) in r.spans.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"span\":{},\"parent\":{},\"name\":",
                s.id, s.parent
            ));
            json_string(&mut out, s.name);
            out.push_str(&format!(
                ",\"start\":{},\"total\":{},\"self\":{}}}",
                s.start_nanos, s.total_nanos, s.self_nanos
            ));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    const MS: u64 = 1_000_000;

    fn manual_sampler(cfg: SamplerConfig) -> (RequestSampler, Arc<ManualClock>) {
        let clock = ManualClock::shared();
        (
            RequestSampler::new(cfg, Arc::clone(&clock) as Arc<dyn Clock>),
            clock,
        )
    }

    fn tight_cfg() -> SamplerConfig {
        SamplerConfig {
            window: WindowConfig::new(100 * MS, 4),
            slowest_per_window: 2,
            baseline_one_in: 0,
            capacity: 8,
            seed: 42,
        }
    }

    #[test]
    fn armed_deadlines_flag_via_stage_reports_and_wall_time() {
        let (s, _clock) = manual_sampler(tight_cfg());
        let ctx = s.open("svc", Op::Compress, 100);
        assert!(!ctx.deadline_exceeded(), "no deadline armed");
        // A generous budget is not exceeded by an instant stage.
        ctx.arm_deadline(60_000_000_000);
        observe_stage("fast", Instant::now(), Duration::from_nanos(1));
        assert!(!ctx.deadline_exceeded());
        // A 1ns budget trips on the next stage report (stage end is
        // necessarily past it) and stays tripped.
        ctx.arm_deadline(1);
        observe_stage("slow", Instant::now(), Duration::from_millis(1));
        assert!(ctx.deadline_exceeded());
        assert!(ctx.deadline_exceeded(), "flag is sticky");
        // Re-arming with zero disarms.
        ctx.arm_deadline(0);
        assert!(!ctx.deadline_exceeded());
        drop(ctx);
        // Wall-time path: no stage report needed once time has passed.
        let ctx = s.open("svc", Op::Compress, 100);
        ctx.arm_deadline(1);
        std::thread::sleep(Duration::from_millis(2));
        assert!(ctx.deadline_exceeded());
    }

    #[test]
    fn size_classes_bucket_payloads() {
        assert_eq!(SizeClass::of(0), SizeClass::Tiny);
        assert_eq!(SizeClass::of(1024), SizeClass::Tiny);
        assert_eq!(SizeClass::of(1025), SizeClass::Small);
        assert_eq!(SizeClass::of(16 * 1024), SizeClass::Small);
        assert_eq!(SizeClass::of(200_000), SizeClass::Medium);
        assert_eq!(SizeClass::of(1 << 20), SizeClass::Large);
    }

    #[test]
    fn errored_requests_are_always_kept() {
        let (s, clock) = manual_sampler(SamplerConfig {
            slowest_per_window: 0,
            baseline_one_in: 0,
            ..tight_cfg()
        });
        for i in 0..5 {
            let ctx = s.open("svc", Op::Decompress, 100);
            clock.advance(MS);
            if i % 2 == 0 {
                ctx.mark_error("corrupt");
            }
            drop(ctx);
        }
        let stats = s.stats();
        assert_eq!(stats.finished, 5);
        assert_eq!(stats.kept_error, 3);
        assert_eq!(stats.dropped, 2);
        let sampled = s.sampled();
        assert_eq!(sampled.len(), 3);
        assert!(sampled.iter().all(|r| r.error == Some("corrupt")));
        assert!(sampled.iter().all(|r| r.reason == KeepReason::Error));
        assert!(sampled.iter().all(|r| r.latency_nanos == MS));
    }

    #[test]
    fn slowest_n_per_window_is_kept_and_window_slides() {
        // N=2 per 100 ms sub-window; total elapsed stays inside the
        // first sub-window (25 ms < 100 ms).
        let (s, clock) = manual_sampler(tight_cfg());
        for l in [5u64, 1, 9, 3, 7] {
            let ctx = s.open("svc", Op::Compress, 100);
            clock.advance(l * MS);
            drop(ctx);
        }
        // 5 ms and 1 ms fill the two slots; 9 ms evicts min(1); 3 ms
        // beats neither survivor (5, 9); 7 ms evicts min(5).
        assert_eq!(s.stats().kept_slow, 4, "5,1,9,7 qualify; 3 does not");
        // A fresh sub-window resets the slots.
        clock.advance(100 * MS);
        let ctx = s.open("svc", Op::Compress, 100);
        clock.advance(MS);
        drop(ctx);
        assert_eq!(s.stats().kept_slow, 5, "new sub-window starts empty");
    }

    #[test]
    fn baseline_is_deterministic_under_a_fixed_seed() {
        let decisions = |seed: u64| -> Vec<bool> {
            let (s, clock) = manual_sampler(SamplerConfig {
                slowest_per_window: 0,
                baseline_one_in: 4,
                seed,
                ..tight_cfg()
            });
            (0..64)
                .map(|_| {
                    let before = s.stats().kept_baseline;
                    let ctx = s.open("svc", Op::Compress, 10);
                    clock.advance(MS);
                    drop(ctx);
                    s.stats().kept_baseline > before
                })
                .collect()
        };
        let a = decisions(7);
        let b = decisions(7);
        let c = decisions(8);
        assert_eq!(a, b, "same seed must replay identically");
        assert_ne!(a, c, "different seeds must differ");
        let kept = a.iter().filter(|&&k| k).count();
        assert!((4..=28).contains(&kept), "1-in-4 baseline kept {kept}/64");
    }

    #[test]
    fn store_is_bounded_and_evicts_non_errors_first() {
        let (s, clock) = manual_sampler(SamplerConfig {
            slowest_per_window: 0,
            baseline_one_in: 1, // keep everything
            capacity: 4,
            ..tight_cfg()
        });
        // Two errors, then a stream of ok requests.
        for _ in 0..2 {
            let ctx = s.open("svc", Op::Compress, 10);
            clock.advance(MS);
            ctx.mark_error("boom");
            drop(ctx);
        }
        for _ in 0..10 {
            let ctx = s.open("svc", Op::Compress, 10);
            clock.advance(MS);
            drop(ctx);
        }
        let sampled = s.sampled();
        assert_eq!(sampled.len(), 4, "store stays at capacity");
        assert_eq!(s.stats().evicted, 8);
        let errors = sampled.iter().filter(|r| r.error.is_some()).count();
        assert_eq!(errors, 2, "errors out-live ok entries under eviction");
    }

    #[test]
    fn span_tree_nests_by_containment_and_self_times_sum() {
        let mut raw = [
            // outer: [0, 10ms); inner a: [1ms, 4ms); inner b: [5ms, 8ms)
            RawSpan {
                name: "outer",
                start_nanos: 0,
                total_nanos: 10 * MS,
            },
            RawSpan {
                name: "inner.a",
                start_nanos: MS,
                total_nanos: 3 * MS,
            },
            RawSpan {
                name: "inner.b",
                start_nanos: 5 * MS,
                total_nanos: 3 * MS,
            },
            // sibling of outer: [12ms, 14ms)
            RawSpan {
                name: "tail",
                start_nanos: 12 * MS,
                total_nanos: 2 * MS,
            },
        ];
        let nodes = build_tree("op", 16 * MS, &mut raw);
        assert_eq!(nodes.len(), 5);
        let by_name = |n: &str| *nodes.iter().find(|s| s.name == n).expect(n);
        let root = by_name("op");
        let outer = by_name("outer");
        let a = by_name("inner.a");
        let b = by_name("inner.b");
        let tail = by_name("tail");
        assert_eq!(root.parent, 0);
        assert_eq!(outer.parent, root.id);
        assert_eq!(a.parent, outer.id);
        assert_eq!(b.parent, outer.id);
        assert_eq!(tail.parent, root.id);
        assert_eq!(outer.self_nanos, 4 * MS, "10 - 3 - 3");
        assert_eq!(root.self_nanos, 4 * MS, "16 - 10 - 2");
        let self_sum: u64 = nodes.iter().map(|s| s.self_nanos).sum();
        assert_eq!(self_sum, 16 * MS, "self-times partition the latency");
    }

    #[test]
    fn observe_stage_feeds_the_open_request_only() {
        let (s, clock) = manual_sampler(SamplerConfig {
            baseline_one_in: 1,
            slowest_per_window: 0,
            ..tight_cfg()
        });
        // No open request: a stage report is a no-op.
        observe_stage("orphan", Instant::now(), Duration::from_millis(1));
        let ctx = s.open("svc", Op::Compress, 2000);
        let t0 = Instant::now();
        observe_stage("stage.x", t0, Duration::from_millis(2));
        observe_stage(
            "stage.y",
            t0 + Duration::from_millis(3),
            Duration::from_millis(1),
        );
        clock.advance(6 * MS);
        drop(ctx);
        let sampled = s.sampled();
        assert_eq!(sampled.len(), 1);
        let r = &sampled[0];
        assert_eq!(r.size_class, SizeClass::Small);
        let names: Vec<&str> = r.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["compress", "stage.x", "stage.y"]);
        assert_eq!(r.latency_nanos, 6 * MS);
        assert_eq!(r.self_nanos_total(), r.latency_nanos);
    }

    #[test]
    fn marks_are_zero_length_nodes_of_the_innermost_request() {
        let (s, clock) = manual_sampler(SamplerConfig {
            baseline_one_in: 1,
            slowest_per_window: 0,
            ..tight_cfg()
        });
        mark("orphan"); // no open request: a no-op
        assert_eq!(current_id(), None);
        let outer = s.open("svc", Op::Compress, 10);
        let inner = s.open("svc", Op::Decompress, 10);
        assert_eq!(current_id(), Some(inner.id()));
        mark("inner.mark");
        drop(inner);
        assert_eq!(current_id(), Some(outer.id()));
        let t0 = Instant::now();
        mark("outer.mark");
        mark("outer.mark");
        observe_stage("stage", t0, Duration::from_secs(1));
        clock.advance(2 * MS);
        let outer_id = outer.id();
        drop(outer);
        // The attribution report counts marks per row and keeps them
        // out of the timed stages.
        let rows = s.attribution();
        let compress = rows.iter().find(|r| r.op == Op::Compress).unwrap();
        assert_eq!(compress.marks, vec![("outer.mark", 2)]);
        assert!(compress.stages.iter().all(|st| st.stage != "outer.mark"));
        let decompress = rows.iter().find(|r| r.op == Op::Decompress).unwrap();
        assert_eq!(decompress.marks, vec![("inner.mark", 1)]);
        assert!(s.profile_json().contains("\"marks\":{\"outer.mark\":2}"));
        let sampled = s.sampled();
        let outer = sampled.iter().find(|r| r.id == outer_id).unwrap();
        let m = outer.spans.iter().find(|n| n.name == "outer.mark").unwrap();
        assert_eq!((m.total_nanos, m.self_nanos), (0, 0));
        // Placed at its instant: inside the enclosing stage.
        let stage = outer.spans.iter().find(|n| n.name == "stage").unwrap();
        assert_eq!(m.parent, stage.id);
        assert!(!outer.spans.iter().any(|n| n.name == "inner.mark"));
        assert!(sampled
            .iter()
            .any(|r| r.spans.iter().any(|n| n.name == "inner.mark")));
    }

    #[test]
    fn span_cap_folds_overflow_into_attribution() {
        let (s, clock) = manual_sampler(SamplerConfig {
            baseline_one_in: 1,
            slowest_per_window: 0,
            ..tight_cfg()
        });
        let ctx = s.open("svc", Op::Compress, 10);
        let t0 = Instant::now();
        for i in 0..(MAX_SPANS_PER_REQUEST + 10) {
            observe_stage(
                "stage.many",
                t0 + Duration::from_nanos(i as u64),
                Duration::from_nanos(10),
            );
        }
        // Marks past the cap fold too, and still count as marks.
        mark("late.mark");
        mark("late.mark");
        clock.advance(MS);
        drop(ctx);
        let r = &s.sampled()[0];
        assert_eq!(r.spans.len(), MAX_SPANS_PER_REQUEST + 1, "root + cap");
        assert_eq!(r.spans_dropped, 12);
        assert_eq!(s.stats().spans_dropped, 12);
        let attr = s.attribution();
        let stage = attr[0]
            .stages
            .iter()
            .find(|st| st.stage == "stage.many")
            .expect("stage aggregated");
        assert_eq!(stage.count as usize, MAX_SPANS_PER_REQUEST + 10);
        assert_eq!(attr[0].marks, vec![("late.mark", 2)]);
        assert!(attr[0].stages.iter().all(|st| st.stage != "late.mark"));
    }

    #[test]
    fn attribution_rows_split_by_service_op_and_size() {
        let (s, clock) = manual_sampler(tight_cfg());
        for (svc, op, len) in [
            ("a", Op::Compress, 100),
            ("a", Op::Compress, 100),
            ("a", Op::Decompress, 100),
            ("b", Op::Compress, 2000),
        ] {
            let ctx = s.open(svc, op, len);
            clock.advance(MS);
            drop(ctx);
        }
        let rows = s.attribution();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].service, "a");
        assert_eq!(rows[0].op, Op::Compress);
        assert_eq!(rows[0].requests, 2);
        assert_eq!(rows[1].op, Op::Decompress);
        assert_eq!(rows[2].service, "b");
        assert_eq!(rows[2].size_class, SizeClass::Small);
        // The root stage carries 100% of self time when no stages ran.
        assert_eq!(rows[0].stages.len(), 1);
        assert_eq!(rows[0].stages[0].stage, "compress");
        assert!((rows[0].stages[0].share - 1.0).abs() < 1e-12);
    }

    #[test]
    fn json_payloads_are_balanced_and_carry_the_data() {
        let (s, clock) = manual_sampler(SamplerConfig {
            baseline_one_in: 1,
            ..tight_cfg()
        });
        let ctx = s.open("svc\"quoted", Op::Compress, 100);
        observe_stage("stage.q", Instant::now(), Duration::from_millis(1));
        clock.advance(2 * MS);
        ctx.mark_error("corrupt \"frame\"");
        drop(ctx);
        for json in [s.profile_json(), s.requests_json()] {
            assert_eq!(json.matches('{').count(), json.matches('}').count());
            assert_eq!(json.matches('[').count(), json.matches(']').count());
            assert!(json.contains("svc\\\"quoted"), "quotes escaped: {json}");
        }
        let rq = s.requests_json();
        assert!(rq.contains("\"outcome\":\"error\""));
        assert!(rq.contains("\"reason\":\"error\""));
        assert!(rq.contains("\"name\":\"stage.q\""));
        let pf = s.profile_json();
        assert!(pf.contains("\"attribution\":["));
        assert!(pf.contains("\"stage\":\"stage.q\""));
        let mut series = Vec::new();
        s.publish(&mut series);
        series.sort_by(|a, b| a.key.cmp(&b.key));
        let snap = crate::Snapshot { series };
        assert_eq!(snap.counter("requests.total", &[]), 1);
        assert_eq!(
            snap.counter("requests.sampled_total", &[("reason", "error")]),
            1
        );
    }
}
