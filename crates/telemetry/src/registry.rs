//! The sharded metric registry.
//!
//! Series are keyed by `(name, sorted labels)` and live in one of 16
//! lock shards selected by the key hash, so concurrent threads touching
//! different series rarely contend — the same aggregation-table shape a
//! profiling daemon uses. Handles are `Arc`s: callers on hot paths fetch
//! a handle once and update it lock-free afterwards.
//!
//! The table (`SeriesTable`, shared with the
//! [windowed registry](crate::window::WindowRegistry)) hashes the
//! *borrowed* `(name, labels)` and compares it against stored keys in
//! place, so a lookup that hits allocates nothing; only the first
//! registration of a series builds an owned [`SeriesKey`].

use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::histogram::{Histogram, HistogramSnapshot};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins floating-point gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `v` (compare-and-swap loop; fine for low-rate gauges).
    pub fn add(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Identity of one series: metric name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeriesKey {
    /// Metric name (dotted hierarchy, e.g. `fleet.compress.nanos`).
    pub name: String,
    /// Label pairs, sorted by label name.
    pub labels: Vec<(String, String)>,
}

impl SeriesKey {
    /// Builds a canonical key (labels sorted by name).
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        with_sorted(labels, |sorted| Self::from_sorted(name, sorted))
    }

    fn from_sorted(name: &str, sorted: &[(&str, &str)]) -> Self {
        Self {
            name: name.to_string(),
            labels: sorted
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Whether this key is `name` with the already-sorted `labels`.
    fn matches(&self, name: &str, labels: &[(&str, &str)]) -> bool {
        self.name == name
            && self.labels.len() == labels.len()
            && self
                .labels
                .iter()
                .zip(labels)
                .all(|((k, v), (bk, bv))| k == bk && v == bv)
    }
}

/// Label sets up to this size are sorted on the stack.
const INLINE_LABELS: usize = 8;

/// Runs `f` on `labels` sorted the way [`SeriesKey::new`] sorts them.
fn with_sorted<R>(labels: &[(&str, &str)], f: impl FnOnce(&[(&str, &str)]) -> R) -> R {
    let mut inline = [("", ""); INLINE_LABELS];
    match inline.get_mut(..labels.len()) {
        Some(buf) => {
            buf.copy_from_slice(labels);
            buf.sort_unstable();
            f(buf)
        }
        None => {
            let mut buf = labels.to_vec();
            buf.sort_unstable();
            f(&buf)
        }
    }
}

const SHARDS: usize = 16;

/// One shard: entries sorted by key hash, so a lookup is a binary
/// search plus an in-place compare of the (rarely more than one)
/// entries sharing that hash.
type Shard<M> = RwLock<Vec<(u64, SeriesKey, M)>>;

/// The sharded `(name, labels) → M` table behind both registries. See
/// the [module docs](self).
#[derive(Debug)]
pub(crate) struct SeriesTable<M> {
    shards: Vec<Shard<M>>,
}

impl<M: Clone> SeriesTable<M> {
    pub(crate) fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| RwLock::new(Vec::new())).collect(),
        }
    }

    /// The series `name{labels}`, registering `make()` on first use.
    /// A hit takes one read lock and allocates nothing.
    // indexing_slicing: the index is taken modulo `SHARDS`, the vec's
    // construction length.
    #[allow(clippy::indexing_slicing)]
    pub(crate) fn get_or_insert(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> M,
    ) -> M {
        with_sorted(labels, |sorted| {
            let mut h = DefaultHasher::new();
            (name, sorted).hash(&mut h);
            let hash = h.finish();
            let find = |entries: &[(u64, SeriesKey, M)]| {
                let first = entries.partition_point(|e| e.0 < hash);
                let mut same_hash = entries.get(first..)?.iter().take_while(|e| e.0 == hash);
                same_hash
                    .find(|e| e.1.matches(name, sorted))
                    .map(|e| e.2.clone())
            };
            let shard = &self.shards[(hash % SHARDS as u64) as usize];
            if let Some(m) = find(&shard.read().expect("series shard not poisoned")) {
                return m;
            }
            let mut entries = shard.write().expect("series shard not poisoned");
            if let Some(m) = find(&entries) {
                return m;
            }
            let made = make();
            let at = entries.partition_point(|e| e.0 <= hash);
            entries.insert(
                at,
                (hash, SeriesKey::from_sorted(name, sorted), made.clone()),
            );
            made
        })
    }

    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("series shard not poisoned").len())
            .sum()
    }

    /// Every series mapped through `f`, sorted by key.
    pub(crate) fn sorted<T>(&self, mut f: impl FnMut(&M) -> T) -> Vec<(SeriesKey, T)> {
        let mut out = Vec::with_capacity(self.len());
        for shard in &self.shards {
            for (_, key, m) in shard.read().expect("series shard not poisoned").iter() {
                out.push((key.clone(), f(m)));
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A sharded table of named metric series. See the [module docs](self).
#[derive(Debug)]
pub struct Registry {
    table: SeriesTable<Metric>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self {
            table: SeriesTable::new(),
        }
    }

    /// Fetches (registering on first use) the counter `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics if the same series was already registered as a different
    /// metric kind — that is a programming error, not a runtime state.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self
            .table
            .get_or_insert(name, labels, || Metric::Counter(Arc::default()))
        {
            Metric::Counter(c) => c,
            other => panic!("series {name} already registered as {}", other.kind()),
        }
    }

    /// Fetches (registering on first use) the gauge `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics on metric-kind mismatch, as for [`Registry::counter`].
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self
            .table
            .get_or_insert(name, labels, || Metric::Gauge(Arc::default()))
        {
            Metric::Gauge(g) => g,
            other => panic!("series {name} already registered as {}", other.kind()),
        }
    }

    /// Fetches (registering on first use) the histogram `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics on metric-kind mismatch, as for [`Registry::counter`].
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self
            .table
            .get_or_insert(name, labels, || Metric::Histogram(Arc::default()))
        {
            Metric::Histogram(h) => h,
            other => panic!("series {name} already registered as {}", other.kind()),
        }
    }

    /// Number of registered series.
    pub fn series_count(&self) -> usize {
        self.table.len()
    }

    /// A point-in-time copy of every series, sorted by key for
    /// deterministic export output.
    pub fn snapshot(&self) -> Snapshot {
        let series = self
            .table
            .sorted(|metric| match metric {
                Metric::Counter(c) => SeriesValue::Counter(c.get()),
                Metric::Gauge(g) => SeriesValue::Gauge(g.get()),
                Metric::Histogram(h) => SeriesValue::Histogram(h.snapshot()),
            })
            .into_iter()
            .map(|(key, value)| Series { key, value })
            .collect();
        Snapshot { series }
    }
}

/// One exported series: key plus current value.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// The series identity.
    pub key: SeriesKey,
    /// The captured value.
    pub value: SeriesValue,
}

impl Series {
    /// A counter series `name{labels}` holding `v`.
    pub fn counter(name: &str, labels: &[(&str, &str)], v: u64) -> Self {
        Self {
            key: SeriesKey::new(name, labels),
            value: SeriesValue::Counter(v),
        }
    }

    /// A gauge series `name{labels}` holding `v`.
    pub fn gauge(name: &str, labels: &[(&str, &str)], v: f64) -> Self {
        Self {
            key: SeriesKey::new(name, labels),
            value: SeriesValue::Gauge(v),
        }
    }
}

/// The captured value of a series.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesValue {
    /// Monotonic count.
    Counter(u64),
    /// Last-set value.
    Gauge(f64),
    /// Log-bucketed distribution.
    Histogram(HistogramSnapshot),
}

/// A point-in-time copy of a [`Registry`], ready for export or merging.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// All series, sorted by key.
    pub series: Vec<Series>,
}

impl Snapshot {
    /// Looks up one series value.
    // indexing_slicing: `i` comes from `binary_search_by` on `series`.
    #[allow(clippy::indexing_slicing)]
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SeriesValue> {
        let key = SeriesKey::new(name, labels);
        self.series
            .binary_search_by(|s| s.key.cmp(&key))
            .ok()
            .map(|i| &self.series[i].value)
    }

    /// Counter value of `name{labels}`, 0 when absent.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.get(name, labels) {
            Some(SeriesValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Gauge value of `name{labels}`, 0.0 when absent.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        match self.get(name, labels) {
            Some(SeriesValue::Gauge(v)) => *v,
            _ => 0.0,
        }
    }

    /// Histogram snapshot of `name{labels}`, if present.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        match self.get(name, labels) {
            Some(SeriesValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Every series with metric name `name`.
    pub fn with_name<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Series> {
        self.series.iter().filter(move |s| s.key.name == name)
    }

    /// Merges `other` into `self`: counters add, histograms merge
    /// bucket-wise, gauges take `other`'s value; series unknown to
    /// `self` are appended. The cross-thread/cross-process aggregation
    /// step of the paper's profiling pipeline.
    // indexing_slicing: `i` comes from `binary_search_by` on `series`.
    #[allow(clippy::indexing_slicing)]
    pub fn merge(&mut self, other: &Snapshot) {
        for s in &other.series {
            match self.series.binary_search_by(|own| own.key.cmp(&s.key)) {
                Ok(i) => match (&mut self.series[i].value, &s.value) {
                    (SeriesValue::Counter(a), SeriesValue::Counter(b)) => *a += b,
                    (SeriesValue::Gauge(a), SeriesValue::Gauge(b)) => *a = *b,
                    (SeriesValue::Histogram(a), SeriesValue::Histogram(b)) => a.merge(b),
                    (mine, theirs) => {
                        panic!(
                            "series {} kind mismatch: {mine:?} vs {theirs:?}",
                            s.key.name
                        )
                    }
                },
                Err(i) => self.series.insert(i, s.clone()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_series() {
        let reg = Registry::new();
        reg.counter("calls", &[("algo", "zstdx")]).inc();
        reg.counter("calls", &[("algo", "zstdx")]).add(2);
        reg.counter("calls", &[("algo", "lz4x")]).inc();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("calls", &[("algo", "zstdx")]), 3);
        assert_eq!(snap.counter("calls", &[("algo", "lz4x")]), 1);
        assert_eq!(snap.counter("calls", &[("algo", "zlibx")]), 0);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let reg = Registry::new();
        reg.counter("c", &[("a", "1"), ("b", "2")]).inc();
        reg.counter("c", &[("b", "2"), ("a", "1")]).inc();
        assert_eq!(reg.series_count(), 1);
        assert_eq!(reg.snapshot().counter("c", &[("a", "1"), ("b", "2")]), 2);
    }

    #[test]
    fn gauges_set_and_add() {
        let reg = Registry::new();
        let g = reg.gauge("secs", &[]);
        g.set(1.5);
        g.add(0.25);
        assert!((reg.snapshot().gauge("secs", &[]) - 1.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x", &[]).inc();
        let _ = reg.gauge("x", &[]);
    }

    #[test]
    fn handles_are_shared_across_threads() {
        let reg = std::sync::Arc::new(Registry::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let reg = std::sync::Arc::clone(&reg);
                std::thread::spawn(move || {
                    let c = reg.counter("shared", &[]);
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(reg.snapshot().counter("shared", &[]), 8000);
    }

    #[test]
    fn snapshot_merge_adds_and_appends() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter("c", &[]).add(2);
        b.counter("c", &[]).add(3);
        b.counter("only-b", &[]).inc();
        a.histogram("h", &[]).observe(10);
        b.histogram("h", &[]).observe(20);
        let mut sa = a.snapshot();
        let sb = b.snapshot();
        sa.merge(&sb);
        assert_eq!(sa.counter("c", &[]), 5);
        assert_eq!(sa.counter("only-b", &[]), 1);
        let h = sa.histogram("h", &[]).unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max, 20);
    }
}
