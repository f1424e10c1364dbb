//! Time-windowed metrics: sliding-window rate counters and
//! ring-of-buckets histograms with request exemplars.
//!
//! The cumulative [`Registry`](crate::Registry) answers "how much since
//! process start"; it cannot answer the live-operations questions the
//! paper's fleet characterization is built on — "what is zstdx p99
//! decode latency over the last 30 s, and is it rising?" This module
//! adds that temporal axis:
//!
//! * [`WindowedCounter`] — a ring of N sub-window tallies rotated on an
//!   injected [`Clock`]. Reads merge the sub-windows that are still
//!   live, yielding a total and a rate over the window span.
//! * [`WindowedHistogram`] — the same ring, but each sub-window bucket
//!   holds a full log-bucketed histogram (the 65-bucket layout of
//!   [`crate::histogram`]). Reads merge live buckets into one
//!   [`HistogramSnapshot`], so per-window p50/p90/p99 come from the
//!   existing quantile math. Each sub-window bucket also retains an
//!   [`Exemplar`] — the id of the request its max-latency sample was
//!   observed in — linking a p99 spike on `/metrics` to that request's
//!   span tree in `/requests.json` and `/trace.json`.
//! * [`WindowRegistry`] — a sharded `(name, labels)` table of windowed
//!   series, mirroring the cumulative registry's API, that
//!   [publishes](WindowRegistry::publish) `window.*` gauges (p50/p90/p99,
//!   rates, exemplar request ids) for the registry's exporters.
//!
//! The clock is a trait so tests drive time by hand ([`ManualClock`])
//! and window rotation is exact: a fixed event sequence produces exact
//! window percentiles, deterministically.

use std::sync::{Arc, Mutex};

use crate::clock::{Clock, ManualClock};
use crate::histogram::{bucket_index, HistogramSnapshot, NUM_BUCKETS};
use crate::registry::{Series, SeriesKey, SeriesTable, SeriesValue};

/// How a windowed series buckets time: `sub_windows` rotating slots of
/// `sub_window_nanos` each; the live window spans their product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Width of one ring slot, in nanoseconds.
    pub sub_window_nanos: u64,
    /// Number of ring slots.
    pub sub_windows: usize,
}

impl WindowConfig {
    /// The default operational window: 10 slots × 3 s = a 30 s view.
    pub const DEFAULT: WindowConfig = WindowConfig {
        sub_window_nanos: 3_000_000_000,
        sub_windows: 10,
    };

    /// Builds a config, clamping both dimensions to at least 1.
    pub fn new(sub_window_nanos: u64, sub_windows: usize) -> Self {
        Self {
            sub_window_nanos: sub_window_nanos.max(1),
            sub_windows: sub_windows.max(1),
        }
    }

    /// Total window span in nanoseconds.
    pub fn span_nanos(&self) -> u64 {
        self.sub_window_nanos
            .saturating_mul(self.sub_windows as u64)
    }

    /// Total window span in seconds.
    fn span_secs(&self) -> f64 {
        self.span_nanos() as f64 / 1e9
    }

    /// The absolute sub-window index (since clock epoch) of time `t`.
    fn epoch_of(&self, t_nanos: u64) -> u64 {
        t_nanos / self.sub_window_nanos
    }
}

impl Default for WindowConfig {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// A metric sample's link to the request it was observed in: the value
/// plus the request id ([`crate::request::current_id`]). The id names
/// the request in `/requests.json` and its `req:<id>` thread in
/// `/trace.json` while the tail sampler keeps it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// The observed value (e.g. latency in nanoseconds).
    pub value: u64,
    /// The id of the innermost request open when it was observed.
    pub request: u64,
}

// ---------------------------------------------------------------------
// The slot ring every windowed kind rotates
// ---------------------------------------------------------------------

/// `sub_windows` slots of tallies `S`, each stamped with the absolute
/// sub-window it holds. A slot found holding an older sub-window is
/// reset in place, so rotation never allocates. Unlocked: the owner
/// keeps it under the one lock that guards everything else it updates
/// with the same reading — an [`Slo`](crate::Slo) its fast and slow
/// windows, a circuit breaker its outcomes.
#[derive(Debug, Clone)]
pub struct SubWindows<S> {
    cfg: WindowConfig,
    slots: Vec<(u64, S)>,
}

impl<S: Clone + Default> SubWindows<S> {
    /// Empty slots of shape `cfg`.
    pub fn new(cfg: WindowConfig) -> Self {
        Self {
            cfg,
            slots: vec![(0, S::default()); cfg.sub_windows],
        }
    }

    /// Runs `f` on the slot of the sub-window that holds time `now`.
    // indexing_slicing: the index is taken modulo the slots vec's length.
    #[allow(clippy::indexing_slicing)]
    pub fn update<R>(&mut self, now: u64, f: impl FnOnce(&mut S) -> R) -> R {
        let epoch = self.cfg.epoch_of(now);
        let len = self.slots.len() as u64;
        let (held, slot) = &mut self.slots[(epoch % len) as usize];
        if *held != epoch {
            *held = epoch;
            *slot = S::default();
        }
        f(slot)
    }

    /// Folds the slots of the window live at time `now` (the last
    /// `sub_windows` sub-windows, including the in-progress one).
    pub fn fold<T>(&self, now: u64, init: T, f: impl FnMut(T, &S) -> T) -> T {
        let now = self.cfg.epoch_of(now);
        let live = now.saturating_sub(self.cfg.sub_windows as u64 - 1)..=now;
        self.slots
            .iter()
            .filter(|(epoch, _)| live.contains(epoch))
            .map(|(_, slot)| slot)
            .fold(init, f)
    }
}

/// [`SubWindows`] behind their own lock, read on an injected clock.
#[derive(Debug)]
struct Ring<S> {
    cfg: WindowConfig,
    clock: Arc<dyn Clock>,
    slots: Mutex<SubWindows<S>>,
}

impl<S: Clone + Default> Ring<S> {
    fn new(cfg: WindowConfig, clock: Arc<dyn Clock>) -> Self {
        Self {
            cfg,
            clock,
            slots: Mutex::new(SubWindows::new(cfg)),
        }
    }

    fn update<R>(&self, now: u64, f: impl FnOnce(&mut S) -> R) -> R {
        let mut slots = self.slots.lock().expect("window slots not poisoned");
        slots.update(now, f)
    }

    /// Folds the window live now, on the ring's clock.
    fn fold<T>(&self, init: T, f: impl FnMut(T, &S) -> T) -> T {
        let now = self.clock.now_nanos();
        let slots = self.slots.lock().expect("window slots not poisoned");
        slots.fold(now, init, f)
    }
}

// ---------------------------------------------------------------------
// Windowed counter
// ---------------------------------------------------------------------

/// A sliding-window event counter. See the [module docs](self).
#[derive(Debug)]
pub struct WindowedCounter {
    ring: Ring<u64>,
}

impl WindowedCounter {
    /// Creates a counter rotating on `clock`.
    fn new(cfg: WindowConfig, clock: Arc<dyn Clock>) -> Self {
        Self {
            ring: Ring::new(cfg, clock),
        }
    }

    /// Adds `n` to the sub-window holding `now`, a reading of the
    /// counter's clock the caller already took.
    pub fn add(&self, n: u64, now: u64) {
        self.ring.update(now, |count| *count += n);
    }

    /// Total events in the live window (the last `sub_windows`
    /// sub-windows, including the in-progress one).
    fn total(&self) -> u64 {
        self.ring.fold(0, |total, count| total + count)
    }

    /// Events per second over the full window span. During warm-up
    /// (before one full span has elapsed) this under-reports by design:
    /// the denominator is always the span, keeping the value exact and
    /// deterministic rather than dependent on process start time.
    fn rate_per_sec(&self) -> f64 {
        self.total() as f64 / self.ring.cfg.span_secs()
    }
}

// ---------------------------------------------------------------------
// Windowed histogram
// ---------------------------------------------------------------------

/// One sub-window of a [`WindowedHistogram`]; fixed-size, so a reset
/// overwrites it in place.
#[derive(Debug, Clone)]
struct HistSlot {
    buckets: [u64; NUM_BUCKETS],
    sum: u64,
    max: u64,
    /// The max-latency sample of this sub-window bucket, when it was
    /// observed inside a request.
    exemplar: Option<Exemplar>,
}

impl Default for HistSlot {
    fn default() -> Self {
        Self {
            buckets: [0; NUM_BUCKETS],
            sum: 0,
            max: 0,
            exemplar: None,
        }
    }
}

/// A point-in-time merged view of a [`WindowedHistogram`]'s live
/// window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedHistogramSnapshot {
    /// The merged distribution over the live window; quantiles and
    /// mean come from the usual [`HistogramSnapshot`] math.
    pub histogram: HistogramSnapshot,
    /// The max-value exemplar across the live window, when any
    /// observation ran inside a request. Its value equals
    /// `histogram.max` unless only observations outside any request hit
    /// the maximum.
    pub exemplar: Option<Exemplar>,
    /// The window configuration the snapshot merged over.
    pub config: WindowConfig,
}

impl WindowedHistogramSnapshot {
    /// Observations per second over the window span.
    fn rate_per_sec(&self) -> f64 {
        self.histogram.count() as f64 / self.config.span_secs()
    }
}

/// A sliding-window log-bucketed histogram with exemplars. See the
/// [module docs](self).
#[derive(Debug)]
pub struct WindowedHistogram {
    ring: Ring<HistSlot>,
}

impl WindowedHistogram {
    /// Creates a histogram rotating on `clock`.
    fn new(cfg: WindowConfig, clock: Arc<dyn Clock>) -> Self {
        Self {
            ring: Ring::new(cfg, clock),
        }
    }

    /// Records one value into the sub-window holding `now`, a reading of
    /// the histogram's clock the caller already took. When it sets a new
    /// sub-window maximum inside an open request, that request's id
    /// becomes the bucket's exemplar; the thread-local lookup runs for
    /// new maxima only.
    // indexing_slicing: `bucket_index` clamps to the last bucket.
    #[allow(clippy::indexing_slicing)]
    pub fn record(&self, v: u64, now: u64) {
        self.ring.update(now, |slot| {
            slot.buckets[bucket_index(v)] += 1;
            slot.sum = slot.sum.wrapping_add(v);
            let is_new_max = v >= slot.max && (v > 0 || slot.exemplar.is_none());
            slot.max = slot.max.max(v);
            if is_new_max {
                if let Some(request) = crate::request::current_id() {
                    slot.exemplar = Some(Exemplar { value: v, request });
                }
            }
        });
    }

    /// [`Self::record`] at the clock's current time, for a caller that
    /// holds no reading of its own.
    pub fn observe(&self, v: u64) {
        self.record(v, self.ring.clock.now_nanos());
    }

    /// Merges the live sub-windows into one snapshot.
    fn window_snapshot(&self) -> WindowedHistogramSnapshot {
        let init = (HistogramSnapshot::default(), None::<Exemplar>);
        let (histogram, exemplar) = self.ring.fold(init, |(mut merged, mut exemplar), slot| {
            for (a, b) in merged.buckets.iter_mut().zip(&slot.buckets) {
                *a += b;
            }
            merged.sum = merged.sum.wrapping_add(slot.sum);
            merged.max = merged.max.max(slot.max);
            if let Some(e) = slot.exemplar {
                if exemplar.is_none_or(|cur| e.value >= cur.value) {
                    exemplar = Some(e);
                }
            }
            (merged, exemplar)
        });
        WindowedHistogramSnapshot {
            histogram,
            exemplar,
            config: self.ring.cfg,
        }
    }
}

// ---------------------------------------------------------------------
// Registry of windowed series
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum WindowMetric {
    Counter(Arc<WindowedCounter>),
    Histogram(Arc<WindowedHistogram>),
}

impl WindowMetric {
    fn kind(&self) -> &'static str {
        match self {
            WindowMetric::Counter(_) => "counter",
            WindowMetric::Histogram(_) => "histogram",
        }
    }
}

/// A sharded `(name, labels)` table of windowed series — the live
/// sibling of the cumulative [`Registry`](crate::Registry), on the same
/// allocation-free series table. All series share the registry's
/// clock and window configuration, so every `/metrics` scrape reads one
/// coherent window.
#[derive(Debug)]
pub struct WindowRegistry {
    cfg: WindowConfig,
    clock: Arc<dyn Clock>,
    table: SeriesTable<WindowMetric>,
}

impl WindowRegistry {
    /// Creates a registry on the given clock and window shape.
    pub fn new(cfg: WindowConfig, clock: Arc<dyn Clock>) -> Self {
        Self {
            cfg,
            clock,
            table: SeriesTable::new(),
        }
    }

    /// Creates a registry on a shared [`ManualClock`] — the test
    /// harness shape.
    pub fn manual(cfg: WindowConfig) -> (Self, Arc<ManualClock>) {
        let clock = ManualClock::shared();
        (Self::new(cfg, Arc::clone(&clock) as Arc<dyn Clock>), clock)
    }

    /// Fetches (registering on first use) the windowed counter
    /// `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics if the series was already registered as a histogram —
    /// a programming error, as for the cumulative registry.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<WindowedCounter> {
        let made = self.table.get_or_insert(name, labels, || {
            WindowMetric::Counter(Arc::new(WindowedCounter::new(
                self.cfg,
                Arc::clone(&self.clock),
            )))
        });
        match made {
            WindowMetric::Counter(c) => c,
            other => panic!(
                "window series {name} already registered as {}",
                other.kind()
            ),
        }
    }

    /// Fetches (registering on first use) the windowed histogram
    /// `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics on metric-kind mismatch, as for
    /// [`WindowRegistry::counter`].
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<WindowedHistogram> {
        let made = self.table.get_or_insert(name, labels, || {
            WindowMetric::Histogram(Arc::new(WindowedHistogram::new(
                self.cfg,
                Arc::clone(&self.clock),
            )))
        });
        match made {
            WindowMetric::Histogram(h) => h,
            other => panic!(
                "window series {name} already registered as {}",
                other.kind()
            ),
        }
    }

    /// The clock every series of the registry rotates on: readings
    /// given to [`WindowedCounter::add`] and [`WindowedHistogram::record`]
    /// are of it.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Number of registered windowed series.
    pub fn series_count(&self) -> usize {
        self.table.len()
    }

    /// Publishes every series' live window as gauges (a windowed value
    /// can go down), namespaced `window.<name>` so they never collide
    /// with the cumulative series of the same base name:
    ///
    /// * `window.span_seconds`, the span every series merges over;
    /// * counters → `window.<name>` (total) and `window.<name>.rate`
    ///   (events/s over the span);
    /// * histograms → `window.<name>.{count,sum,p50,p90,p99,max,rate}`
    ///   and, while an exemplar is live, `window.<name>.exemplar{request}`
    ///   carrying the max-latency sample's value with the id of the
    ///   request it was observed in as a label.
    pub fn publish(&self, out: &mut Vec<Series>) {
        let span = self.cfg.span_secs();
        out.push(Series::gauge("window.span_seconds", &[], span));
        for (key, metric) in self.table.sorted(WindowMetric::clone) {
            let mut put = |suffix: &str, mut labels: Vec<(String, String)>, v: f64| {
                labels.extend_from_slice(&key.labels);
                labels.sort_unstable();
                let name = format!("window.{}{suffix}", key.name);
                let (key, value) = (SeriesKey { name, labels }, SeriesValue::Gauge(v));
                out.push(Series { key, value });
            };
            match metric {
                WindowMetric::Counter(c) => {
                    put("", Vec::new(), c.total() as f64);
                    put(".rate", Vec::new(), c.rate_per_sec());
                }
                WindowMetric::Histogram(h) => {
                    let w = h.window_snapshot();
                    let hist = &w.histogram;
                    for (suffix, v) in [
                        (".count", hist.count()),
                        (".sum", hist.sum),
                        (".p50", hist.quantile(0.50)),
                        (".p90", hist.quantile(0.90)),
                        (".p99", hist.quantile(0.99)),
                        (".max", hist.max),
                    ] {
                        put(suffix, Vec::new(), v as f64);
                    }
                    put(".rate", Vec::new(), w.rate_per_sec());
                    if let Some(e) = w.exemplar {
                        let request = ("request".to_string(), e.request.to_string());
                        put(".exemplar", vec![request], e.value as f64);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Op, RequestSampler, SamplerConfig};

    const MS: u64 = 1_000_000;

    fn manual(sub_ms: u64, slots: usize) -> (WindowRegistry, Arc<ManualClock>) {
        WindowRegistry::manual(WindowConfig::new(sub_ms * MS, slots))
    }

    #[test]
    fn counter_window_slides_and_expires() {
        let (reg, clock) = manual(100, 4); // 4 × 100 ms = 400 ms window
        let c = reg.counter("reqs", &[]);
        c.add(5, clock.now_nanos()); // t=0, sub-window 0
        clock.advance(100 * MS);
        c.add(3, clock.now_nanos()); // sub-window 1
        assert_eq!(c.total(), 8);
        clock.advance(250 * MS); // t=350ms: both still live
        assert_eq!(c.total(), 8);
        clock.advance(100 * MS); // t=450ms: sub-window 0 expired
        assert_eq!(c.total(), 3);
        clock.advance(400 * MS); // everything expired
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn counter_rate_is_exact_over_the_span() {
        let (reg, clock) = manual(250, 4); // 1 s window
        let c = reg.counter("reqs", &[]);
        for _ in 0..4 {
            c.add(25, clock.now_nanos());
            clock.advance(250 * MS);
        }
        // 100 events still live at t=1s minus the expired first slot?
        // At t=1000ms slot 0 (epoch 0) has expired: live = 75.
        assert_eq!(c.total(), 75);
        assert!((c.rate_per_sec() - 75.0).abs() < 1e-9);
    }

    #[test]
    fn slot_reuse_resets_stale_tallies() {
        let (reg, clock) = manual(100, 2); // 200 ms window, 2 slots
        let c = reg.counter("reqs", &[]);
        c.add(7, clock.now_nanos());
        clock.advance(1000 * MS); // many rotations later, same slot index parity
        c.add(1, clock.now_nanos());
        assert_eq!(c.total(), 1, "stale slot contents must not leak");
    }

    #[test]
    fn histogram_window_percentiles_are_exact() {
        let (reg, clock) = manual(100, 4);
        let h = reg.histogram("lat", &[]);
        // Sub-window 0: a burst of slow samples.
        for _ in 0..100 {
            h.observe(8000); // bucket [4096, 8191]
        }
        clock.advance(100 * MS);
        // Sub-window 1: fast samples.
        for _ in 0..100 {
            h.observe(500); // bucket [256, 511]
        }
        let s = h.window_snapshot();
        assert_eq!(s.histogram.count(), 200);
        assert_eq!(s.histogram.quantile(0.50), 511);
        assert_eq!(s.histogram.quantile(0.99), 8000); // clamped to max
                                                      // Advance to t=400ms (epoch 4): live epochs are 1..=4, so the
                                                      // slow burst (epoch 0) has fallen out and the fast samples
                                                      // (epoch 1) are on their last sub-window.
        clock.advance(300 * MS);
        let s = h.window_snapshot();
        assert_eq!(s.histogram.count(), 100);
        assert_eq!(s.histogram.max, 500);
        assert_eq!(s.histogram.quantile(0.99), 500);
    }

    #[test]
    fn histogram_rate_counts_window_observations() {
        let (reg, clock) = manual(500, 2); // 1 s window
        let h = reg.histogram("lat", &[]);
        for _ in 0..10 {
            h.observe(100);
        }
        clock.advance(500 * MS);
        for _ in 0..30 {
            h.observe(100);
        }
        let s = h.window_snapshot();
        assert_eq!(s.histogram.count(), 40);
        assert!((s.rate_per_sec() - 40.0).abs() < 1e-9);
    }

    fn sampler(clock: &Arc<ManualClock>) -> RequestSampler {
        RequestSampler::new(
            SamplerConfig::default(),
            Arc::clone(clock) as Arc<dyn Clock>,
        )
    }

    #[test]
    fn exemplar_tracks_sub_window_max_and_expires() {
        let (reg, clock) = manual(100, 2);
        let requests = sampler(&clock);
        let h = reg.histogram("lat", &[]);
        h.observe(5000); // outside any request: no exemplar
        assert!(h.window_snapshot().exemplar.is_none());
        clock.advance(200 * MS);
        let first = requests.open("svc", Op::Compress, 10);
        h.observe(100);
        h.observe(900);
        let first_id = first.id();
        drop(first);
        let second = requests.open("svc", Op::Compress, 10);
        h.observe(300); // not a new max: the exemplar stays
        drop(second);
        let e = h.window_snapshot().exemplar.expect("exemplar retained");
        assert_eq!(
            e,
            Exemplar {
                value: 900,
                request: first_id
            }
        );
        // A bigger sample in the next sub-window takes over...
        clock.advance(100 * MS);
        let third = requests.open("svc", Op::Compress, 10);
        h.observe(1500);
        drop(third);
        assert_eq!(h.window_snapshot().exemplar.unwrap().value, 1500);
        // ...and expiry drops the old bucket's exemplar with it.
        clock.advance(100 * MS);
        assert_eq!(h.window_snapshot().exemplar.unwrap().value, 1500);
        clock.advance(100 * MS);
        assert!(h.window_snapshot().exemplar.is_none());
    }

    #[test]
    fn registry_shares_series_and_rejects_kind_mismatch() {
        let (reg, _clock) = manual(100, 4);
        reg.counter("x", &[("a", "1")]).add(1, 0);
        reg.counter("x", &[("a", "1")]).add(1, 0);
        assert_eq!(reg.series_count(), 1);
        assert_eq!(reg.counter("x", &[("a", "1")]).total(), 2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reg.histogram("x", &[("a", "1")])
        }));
        assert!(r.is_err(), "kind mismatch must panic");
    }

    #[test]
    fn published_window_series_render_percentiles_rates_and_exemplars() {
        let (reg, clock) = manual(100, 4);
        let requests = sampler(&clock);
        reg.counter("reqs", &[("service", "CACHE1")])
            .add(12, clock.now_nanos());
        let h = reg.histogram("decode.nanos", &[("service", "CACHE1")]);
        h.observe(100);
        let req = requests.open("CACHE1", Op::Decompress, 10);
        h.observe(5000);
        let id = req.id();
        drop(req);
        let mut series = Vec::new();
        reg.publish(&mut series);
        series.sort_by(|a, b| a.key.cmp(&b.key));
        let text = crate::export::to_prometheus(&crate::Snapshot { series });
        assert!(text.contains("# TYPE window_reqs gauge\n"));
        assert!(text.contains("# TYPE window_decode_nanos_p99 gauge\n"));
        assert!(text.contains("window_span_seconds 0.4\n"));
        assert!(text.contains("window_reqs{service=\"CACHE1\"} 12\n"));
        assert!(text.contains("window_reqs_rate{service=\"CACHE1\"} 30\n")); // 12 / 0.4s
        assert!(text.contains("window_decode_nanos_count{service=\"CACHE1\"} 2\n"));
        assert!(text.contains("window_decode_nanos_p99{service=\"CACHE1\"} 5000\n"));
        assert!(text.contains("window_decode_nanos_max{service=\"CACHE1\"} 5000\n"));
        assert!(
            text.contains(&format!(
                "window_decode_nanos_exemplar{{request=\"{id}\",service=\"CACHE1\"}} 5000\n"
            )),
            "{text}"
        );
        // Every sample line parses: name{...} value.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("sample line");
            assert!(value.parse::<f64>().is_ok(), "unparseable: {line}");
        }
    }

    #[test]
    fn sub_windows_count_at_the_given_readings() {
        let mut w = SubWindows::<u64>::new(WindowConfig::new(100 * MS, 2));
        let total = |w: &SubWindows<u64>, now| w.fold(now, 0, |t, n| t + n);
        w.update(0, |n| *n += 1);
        w.update(50 * MS, |n| *n += 1);
        w.update(150 * MS, |n| *n += 1);
        assert_eq!(total(&w, 150 * MS), 3);
        assert_eq!(total(&w, 250 * MS), 1, "sub-window 0 expired");
        w.update(1000 * MS, |n| *n += 1);
        assert_eq!(total(&w, 1000 * MS), 1, "a reused slot starts empty");
    }

    #[test]
    fn window_default_config_is_30s() {
        assert_eq!(WindowConfig::DEFAULT.span_secs(), 30.0);
    }
}
