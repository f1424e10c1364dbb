//! The flight recorder: always-on, lock-light event tracing.
//!
//! Aggregate metrics (the [`Registry`](crate::Registry)) answer *how
//! much* time each compression stage costs; they cannot answer *when*
//! or *in which block*. This module adds the temporal axis the paper's
//! methodology is built on (§III-A: sampled stacks over a 30-day
//! window, attributed per service and stage): a process-wide
//! [`Tracer`] holding one bounded ring buffer per thread ("track"),
//! each recording fixed-size [`TraceEvent`]s:
//!
//! * span **begin/end** pairs — per-block codec stage timings;
//! * **instant** events — block boundaries, dictionary hits;
//! * **counter samples** — live values (bytes, queue depths);
//! * CompOpt **decision** events — one per candidate evaluation,
//!   carrying the Eq. 1–3 cost terms, the Eq. 4 total, and why the
//!   candidate won or was pruned.
//!
//! Rings are bounded at a fixed capacity and never block the recording
//! thread: once full, the *oldest* event is overwritten in place (no
//! reallocation) and a drop counter increments — classic
//! flight-recorder semantics, so the most recent window of activity
//! always survives. Timestamps are nanoseconds from
//! the tracer's epoch and are clamped monotonically non-decreasing per
//! track, so a drained track is always a valid timeline.
//!
//! [`drain`](Tracer::drain) snapshots and clears every ring; the
//! result serializes to Chrome trace-event JSON via
//! [`chrome::to_chrome_json`](crate::chrome::to_chrome_json), loadable
//! in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::registry::Series;

/// Default events per track ring. At ~112 bytes per fixed-size event
/// this bounds a track at well under a megabyte.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Environment variable overriding the global tracer's ring capacity.
pub const RING_CAPACITY_ENV: &str = "DATACOMP_TRACE_RING";

/// A short string stored inline (no heap), truncated at
/// [`InlineStr::CAPACITY`] bytes on a UTF-8 boundary. Keeps
/// [`TraceEvent`] fixed-size even when it carries dynamic labels such
/// as CompOpt candidate names.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct InlineStr {
    len: u8,
    buf: [u8; Self::CAPACITY],
}

impl InlineStr {
    /// Maximum stored bytes.
    pub const CAPACITY: usize = 30;

    /// Builds from `s`, truncating to the last UTF-8 boundary at or
    /// below [`Self::CAPACITY`].
    // indexing_slicing: `end <= min(s.len(), CAPACITY)` bounds both the
    // source slice and the fixed-size destination.
    #[allow(clippy::indexing_slicing)]
    pub fn new(s: &str) -> Self {
        let mut end = s.len().min(Self::CAPACITY);
        while end > 0 && !s.is_char_boundary(end) {
            end -= 1;
        }
        let mut buf = [0u8; Self::CAPACITY];
        buf[..end].copy_from_slice(&s.as_bytes()[..end]);
        Self {
            len: end as u8,
            buf,
        }
    }

    /// The stored string.
    // indexing_slicing: `len <= CAPACITY` is the construction invariant.
    #[allow(clippy::indexing_slicing)]
    pub fn as_str(&self) -> &str {
        // Construction only copies up to a char boundary.
        std::str::from_utf8(&self.buf[..self.len as usize]).expect("inline str is valid utf-8")
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::fmt::Debug for InlineStr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl std::fmt::Display for InlineStr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for InlineStr {
    fn from(s: &str) -> Self {
        Self::new(s)
    }
}

/// One CompOpt candidate evaluation, explained: the Eq. 1–3 cost-term
/// breakdown, the Eq. 4 weighted total, and the verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Candidate label (config string or CompSim name), truncated to
    /// [`InlineStr::CAPACITY`] bytes.
    pub label: InlineStr,
    /// Equation (1): compute cost.
    pub compute: f64,
    /// Equation (2): storage cost.
    pub storage: f64,
    /// Equation (3): network cost.
    pub network: f64,
    /// Equation (4): weighted total the argmin ranks by.
    pub total: f64,
    /// Whether every constraint was satisfied.
    pub feasible: bool,
    /// Whether this candidate is the argmin (the chosen optimum).
    pub won: bool,
    /// The first violated constraint when infeasible; empty otherwise.
    pub pruned_by: InlineStr,
}

/// What a [`TraceEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A stage opened (Chrome `ph:"B"`).
    Begin {
        /// Stage name.
        name: &'static str,
    },
    /// A stage closed (Chrome `ph:"E"`).
    End {
        /// Stage name.
        name: &'static str,
    },
    /// A point-in-time marker (Chrome `ph:"i"`).
    Instant {
        /// Marker name.
        name: &'static str,
    },
    /// A sampled counter value (Chrome `ph:"C"`).
    Counter {
        /// Counter name.
        name: &'static str,
        /// Sampled value.
        value: f64,
    },
    /// A CompOpt candidate evaluation (rendered as an instant event
    /// with the cost breakdown in `args`).
    Decision(Decision),
}

/// One fixed-size trace event: a timestamp plus what happened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Nanoseconds since the tracer's epoch, monotonically
    /// non-decreasing within a track.
    pub ts_nanos: u64,
    /// Position in the track's event stream: the n-th event ever
    /// recorded on this track (0-based), stable across ring overwrites.
    /// `(track tid, seq)` uniquely identifies an event, which is what
    /// metric exemplars store to link a latency sample back to its
    /// flight-recorder event.
    pub seq: u64,
    /// The recorded event.
    pub kind: EventKind,
}

/// A durable reference to one recorded trace event: the track it lives
/// on, its sequence number, and its timestamp. This is the link a
/// windowed-histogram exemplar carries from a `/metrics` sample to the
/// flight recorder ([`crate::window::Exemplar`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRef {
    /// Track id ([`Track::tid`], the `tid` of the Chrome export).
    pub track: u64,
    /// The event's per-track sequence number ([`TraceEvent::seq`]).
    pub seq: u64,
    /// The event's timestamp ([`TraceEvent::ts_nanos`]).
    pub ts_nanos: u64,
}

/// The bounded per-track ring. Overwrites the oldest event when full.
struct Ring {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    /// High-water timestamp, enforcing per-track monotonic order.
    last_ts: u64,
    /// Events ever pushed; assigns each event its sequence number.
    pushed: u64,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Self {
            // Grows lazily (amortized) up to `capacity`, then never
            // again: short-lived tracks — e.g. one profiler thread per
            // (day, service) in a drift simulation — shouldn't each
            // pin a full ring's worth of memory up front.
            buf: Vec::new(),
            capacity,
            head: 0,
            last_ts: 0,
            pushed: 0,
        }
    }

    /// Pushes one event; returns its assigned sequence number, its
    /// (monotonically clamped) timestamp, and whether an old event was
    /// dropped to make room. Never reallocates past the fixed capacity.
    // indexing_slicing: `head < capacity == buf.len()` on the overwrite
    // arm (the ring only wraps once `buf` is full).
    #[allow(clippy::indexing_slicing)]
    fn push(&mut self, mut ev: TraceEvent) -> (u64, u64, bool) {
        ev.ts_nanos = ev.ts_nanos.max(self.last_ts);
        self.last_ts = ev.ts_nanos;
        ev.seq = self.pushed;
        self.pushed += 1;
        let dropped = if self.buf.len() < self.capacity {
            self.buf.push(ev);
            false
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            true
        };
        (ev.seq, ev.ts_nanos, dropped)
    }

    /// Copies all events in timestamp order without clearing.
    // indexing_slicing: `head < buf.len()` whenever the ring has wrapped,
    // and `head == 0` before that.
    #[allow(clippy::indexing_slicing)]
    fn peek(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Removes and returns all events in timestamp order.
    fn drain(&mut self) -> Vec<TraceEvent> {
        let out = self.peek();
        self.buf.clear();
        self.head = 0;
        out
    }
}

/// One thread's (or one logical actor's) recording destination. Cheap
/// to clone via `Arc`; only its owner writes, so the inner mutex is
/// effectively uncontended outside of drains.
pub struct Track {
    tid: u64,
    name: Mutex<String>,
    ring: Mutex<Ring>,
    dropped: AtomicU64,
    epoch: Instant,
}

impl std::fmt::Debug for Track {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Track")
            .field("tid", &self.tid)
            .field("name", &self.name())
            .finish_non_exhaustive()
    }
}

impl Track {
    /// The track id (`tid` in the Chrome export).
    pub fn tid(&self) -> u64 {
        self.tid
    }

    /// The current track name.
    pub fn name(&self) -> String {
        self.name.lock().expect("track name not poisoned").clone()
    }

    /// Renames the track (e.g. to the service a profiler thread runs).
    pub fn set_name(&self, name: &str) {
        *self.name.lock().expect("track name not poisoned") = name.to_string();
    }

    /// Events dropped (overwritten) so far on this track.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    fn now_nanos(&self) -> u64 {
        duration_nanos(self.epoch.elapsed())
    }

    /// Nanoseconds from the tracer epoch to `t` (0 when `t` predates
    /// the epoch).
    pub fn nanos_of(&self, t: Instant) -> u64 {
        duration_nanos(t.checked_duration_since(self.epoch).unwrap_or_default())
    }

    fn record(&self, ts_nanos: u64, kind: EventKind) -> EventRef {
        let (seq, ts_nanos, dropped) =
            self.ring
                .lock()
                .expect("track ring not poisoned")
                .push(TraceEvent {
                    ts_nanos,
                    seq: 0, // assigned by the ring
                    kind,
                });
        if dropped {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        EventRef {
            track: self.tid,
            seq,
            ts_nanos,
        }
    }

    /// Records a stage opening now.
    pub fn begin(&self, name: &'static str) {
        self.record(self.now_nanos(), EventKind::Begin { name });
    }

    /// Records a stage closing now.
    pub fn end(&self, name: &'static str) {
        self.record(self.now_nanos(), EventKind::End { name });
    }

    /// Records an instant marker now.
    pub fn instant(&self, name: &'static str) {
        self.record(self.now_nanos(), EventKind::Instant { name });
    }

    /// Records an instant marker now and returns a durable reference
    /// to it — the hook metric exemplars use to link a sample back to
    /// this event.
    pub fn instant_ref(&self, name: &'static str) -> EventRef {
        self.record(self.now_nanos(), EventKind::Instant { name })
    }

    /// Records a counter sample now.
    pub fn counter(&self, name: &'static str, value: f64) {
        self.record(self.now_nanos(), EventKind::Counter { name, value });
    }

    /// Records a CompOpt decision now.
    pub fn decision(&self, d: Decision) {
        self.record(self.now_nanos(), EventKind::Decision(d));
    }

    /// Records a completed stage retrospectively as a begin/end pair —
    /// the shape the codec block loops need, where the stage was timed
    /// with an `Instant` pair before being reported.
    pub fn stage(&self, name: &'static str, start: Instant, elapsed: Duration) {
        let t0 = self.nanos_of(start);
        self.record(t0, EventKind::Begin { name });
        self.record(
            t0.saturating_add(duration_nanos(elapsed)),
            EventKind::End { name },
        );
    }

    fn drain(&self) -> TrackSnapshot {
        let events = self.ring.lock().expect("track ring not poisoned").drain();
        TrackSnapshot {
            tid: self.tid,
            name: self.name(),
            dropped: self.dropped.swap(0, Ordering::Relaxed),
            events,
        }
    }

    fn peek(&self) -> TrackSnapshot {
        let events = self.ring.lock().expect("track ring not poisoned").peek();
        TrackSnapshot {
            tid: self.tid,
            name: self.name(),
            dropped: self.dropped.load(Ordering::Relaxed),
            events,
        }
    }
}

fn duration_nanos(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// The process-wide flight recorder: a set of per-thread [`Track`]s
/// sharing one epoch.
pub struct Tracer {
    epoch: Instant,
    capacity: usize,
    tracks: Mutex<Vec<Arc<Track>>>,
    next_tid: AtomicU64,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Creates a tracer with the default per-track ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// Creates a tracer whose tracks hold at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            capacity: capacity.max(1),
            tracks: Mutex::new(Vec::new()),
            next_tid: AtomicU64::new(1),
        }
    }

    /// Per-track ring capacity, in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Registers a new track named `name`.
    pub fn new_track(&self, name: &str) -> Arc<Track> {
        let track = Arc::new(Track {
            tid: self.next_tid.fetch_add(1, Ordering::Relaxed),
            name: Mutex::new(name.to_string()),
            ring: Mutex::new(Ring::new(self.capacity)),
            dropped: AtomicU64::new(0),
            epoch: self.epoch,
        });
        self.tracks
            .lock()
            .expect("tracer track list not poisoned")
            .push(Arc::clone(&track));
        track
    }

    /// Number of registered tracks.
    pub fn track_count(&self) -> usize {
        self.tracks
            .lock()
            .expect("tracer track list not poisoned")
            .len()
    }

    /// Events dropped across all tracks since the last drain.
    pub fn dropped_total(&self) -> u64 {
        self.tracks
            .lock()
            .expect("tracer track list not poisoned")
            .iter()
            .map(|t| t.dropped())
            .sum()
    }

    /// Publishes flight-recorder health without copying any events:
    /// `trace.dropped_total` plus one `trace.track_dropped{track,tid}`
    /// counter per registered track, so ring saturation on `/metrics`
    /// is alertable instead of silent.
    pub fn publish(&self, out: &mut Vec<Series>) {
        let tracks = self.tracks.lock().expect("tracer track list not poisoned");
        let total = tracks.iter().map(|t| t.dropped()).sum();
        out.push(Series::counter("trace.dropped_total", &[], total));
        for t in tracks.iter() {
            let (name, tid) = (t.name(), t.tid().to_string());
            let labels = [("track", name.as_str()), ("tid", tid.as_str())];
            out.push(Series::counter("trace.track_dropped", &labels, t.dropped()));
        }
    }

    /// Copies every track's current events without clearing anything —
    /// the live-scrape variant of [`drain`](Self::drain), used by the
    /// `/trace.json` endpoint so a scrape never steals the flight
    /// recorder from a later `--trace` export. Tracks with no events
    /// and no drops are omitted, as for drain.
    pub fn snapshot(&self) -> TraceSnapshot {
        let tracks = self
            .tracks
            .lock()
            .expect("tracer track list not poisoned")
            .clone();
        TraceSnapshot {
            tracks: tracks
                .iter()
                .map(|t| t.peek())
                .filter(|t| !t.events.is_empty() || t.dropped > 0)
                .collect(),
        }
    }

    /// Drains every track: returns all recorded events (per track, in
    /// timestamp order) and clears the rings and drop counters. Tracks
    /// that recorded nothing since the last drain are omitted.
    pub fn drain(&self) -> TraceSnapshot {
        let tracks = self
            .tracks
            .lock()
            .expect("tracer track list not poisoned")
            .clone();
        TraceSnapshot {
            tracks: tracks
                .iter()
                .map(|t| t.drain())
                .filter(|t| !t.events.is_empty() || t.dropped > 0)
                .collect(),
        }
    }
}

/// One drained track: identity plus its ordered events.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackSnapshot {
    /// Track id (`tid` in the Chrome export).
    pub tid: u64,
    /// Track name at drain time.
    pub name: String,
    /// Events dropped (overwritten) on this track since the previous
    /// drain.
    pub dropped: u64,
    /// Events in timestamp order.
    pub events: Vec<TraceEvent>,
}

/// All tracks drained at one point in time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSnapshot {
    /// Per-track event lists.
    pub tracks: Vec<TrackSnapshot>,
}

impl TraceSnapshot {
    /// Total events across all tracks.
    pub fn event_count(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }

    /// Total dropped events across all tracks.
    pub fn dropped_total(&self) -> u64 {
        self.tracks.iter().map(|t| t.dropped).sum()
    }
}

/// The process-wide tracer the instrumented crates record into. Ring
/// capacity honors [`RING_CAPACITY_ENV`] when set.
pub fn global_tracer() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let capacity = std::env::var(RING_CAPACITY_ENV)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_RING_CAPACITY);
        Tracer::with_capacity(capacity)
    })
}

thread_local! {
    static CURRENT_TRACK: RefCell<Option<Arc<Track>>> = const { RefCell::new(None) };
}

/// The calling thread's track on the [global tracer](global_tracer),
/// registering one (named after the thread) on first use.
pub fn current_track() -> Arc<Track> {
    CURRENT_TRACK.with(|cell| {
        let mut slot = cell.borrow_mut();
        match &*slot {
            Some(t) => Arc::clone(t),
            None => {
                let name = std::thread::current()
                    .name()
                    .map(str::to_string)
                    .unwrap_or_else(|| format!("thread-{:?}", std::thread::current().id()));
                let t = global_tracer().new_track(&name);
                *slot = Some(Arc::clone(&t));
                t
            }
        }
    })
}

/// Names the calling thread's track — the profiler uses this to get
/// one track per service.
pub fn set_track_name(name: &str) {
    current_track().set_name(name);
}

/// Records an instant marker on the calling thread's track.
pub fn instant(name: &'static str) {
    current_track().instant(name);
}

/// Records an instant marker on the calling thread's track and returns
/// a durable [`EventRef`] to it, for use as a metric exemplar.
pub fn instant_ref(name: &'static str) -> EventRef {
    current_track().instant_ref(name)
}

/// Records a counter sample on the calling thread's track.
pub fn counter(name: &'static str, value: f64) {
    current_track().counter(name, value);
}

/// Records a CompOpt decision on the calling thread's track.
pub fn decision(d: Decision) {
    current_track().decision(d);
}

/// Records a completed stage (begin/end pair) on the calling thread's
/// track.
pub fn stage(name: &'static str, start: Instant, elapsed: Duration) {
    current_track().stage(name, start, elapsed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_fixed_size_and_small() {
        // The ring pre-allocates capacity × this size; keep it bounded
        // so always-on tracing stays cheap.
        assert!(std::mem::size_of::<TraceEvent>() <= 128);
    }

    #[test]
    fn inline_str_truncates_on_char_boundary() {
        let s = InlineStr::new("short");
        assert_eq!(s.as_str(), "short");
        let long = "x".repeat(100);
        assert_eq!(InlineStr::new(&long).as_str().len(), InlineStr::CAPACITY);
        // Multi-byte char straddling the cap is dropped whole.
        let tricky = format!("{}é", "a".repeat(InlineStr::CAPACITY - 1));
        let t = InlineStr::new(&tricky);
        assert_eq!(t.as_str(), &tricky[..InlineStr::CAPACITY - 1]);
        assert!(InlineStr::new("").is_empty());
    }

    #[test]
    fn overflow_drops_oldest_without_reallocating() {
        let tracer = Tracer::with_capacity(4);
        let track = tracer.new_track("t");
        for i in 0..10 {
            track.counter("c", i as f64);
        }
        assert_eq!(track.dropped(), 6, "6 of 10 events must be dropped");
        let snap = tracer.drain();
        assert_eq!(snap.tracks.len(), 1);
        let t = &snap.tracks[0];
        assert_eq!(t.events.len(), 4, "ring stays at capacity");
        assert_eq!(t.dropped, 6);
        // Flight-recorder semantics: the *newest* events survive.
        let values: Vec<f64> = t
            .events
            .iter()
            .map(|e| match e.kind {
                EventKind::Counter { value, .. } => value,
                _ => panic!("unexpected kind"),
            })
            .collect();
        assert_eq!(values, vec![6.0, 7.0, 8.0, 9.0]);
        // Drain resets both ring and drop counter.
        assert_eq!(tracer.dropped_total(), 0);
        assert_eq!(tracer.drain().event_count(), 0);
    }

    #[test]
    fn drained_events_are_timestamp_ordered() {
        let tracer = Tracer::with_capacity(64);
        let track = tracer.new_track("t");
        for _ in 0..10 {
            track.begin("stage.a");
            track.end("stage.a");
            track.instant("mark");
        }
        let snap = tracer.drain();
        for t in &snap.tracks {
            assert!(
                t.events.windows(2).all(|w| w[0].ts_nanos <= w[1].ts_nanos),
                "events out of order on track {}",
                t.name
            );
        }
    }

    #[test]
    fn stage_emits_matched_pair_with_plausible_timestamps() {
        let tracer = Tracer::with_capacity(16);
        let track = tracer.new_track("t");
        let start = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        track.stage("zstdx.match_find", start, Duration::from_micros(250));
        let snap = tracer.drain();
        let events = &snap.tracks[0].events;
        assert_eq!(events.len(), 2);
        match (&events[0].kind, &events[1].kind) {
            (EventKind::Begin { name: b }, EventKind::End { name: e }) => {
                assert_eq!(*b, "zstdx.match_find");
                assert_eq!(*e, "zstdx.match_find");
            }
            other => panic!("expected begin/end pair, got {other:?}"),
        }
        assert_eq!(events[1].ts_nanos - events[0].ts_nanos, 250_000);
    }

    #[test]
    fn timestamps_clamp_monotonic_even_for_retrospective_stages() {
        let tracer = Tracer::with_capacity(16);
        let track = tracer.new_track("t");
        track.instant("late"); // now
        let epoch_ish = Instant::now() - Duration::from_secs(1);
        // A stage whose start predates the previous event must clamp
        // forward, not travel back in time.
        track.stage("early", epoch_ish, Duration::from_nanos(10));
        let events = tracer.drain().tracks.remove(0).events;
        assert!(events.windows(2).all(|w| w[0].ts_nanos <= w[1].ts_nanos));
    }

    #[test]
    fn track_renaming_and_tids() {
        let tracer = Tracer::with_capacity(8);
        let a = tracer.new_track("one");
        let b = tracer.new_track("two");
        assert_ne!(a.tid(), b.tid());
        a.set_name("svc:DW1");
        a.instant("x");
        b.instant("y");
        let snap = tracer.drain();
        let names: Vec<&str> = snap.tracks.iter().map(|t| t.name.as_str()).collect();
        assert!(names.contains(&"svc:DW1"));
        assert!(names.contains(&"two"));
    }

    #[test]
    fn decision_payload_roundtrips() {
        let tracer = Tracer::with_capacity(8);
        let track = tracer.new_track("opt");
        track.decision(Decision {
            label: "(zstdx, 3)".into(),
            compute: 1.5,
            storage: 2.5,
            network: 0.5,
            total: 4.5,
            feasible: true,
            won: true,
            pruned_by: "".into(),
        });
        let snap = tracer.drain();
        match snap.tracks[0].events[0].kind {
            EventKind::Decision(d) => {
                assert_eq!(d.label.as_str(), "(zstdx, 3)");
                assert_eq!(d.compute + d.storage + d.network, d.total);
                assert!(d.won && d.feasible);
                assert!(d.pruned_by.is_empty());
            }
            ref other => panic!("expected decision, got {other:?}"),
        }
    }

    #[test]
    fn seq_numbers_are_dense_and_survive_overwrite() {
        let tracer = Tracer::with_capacity(4);
        let track = tracer.new_track("t");
        let mut refs = Vec::new();
        for _ in 0..10 {
            refs.push(track.instant_ref("mark"));
        }
        // Every recorded event got a distinct, dense sequence number.
        let seqs: Vec<u64> = refs.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<u64>>());
        assert!(refs.iter().all(|r| r.track == track.tid()));
        // After overwrite, the surviving events keep their original
        // seqs — so an EventRef to a surviving event still resolves.
        let snap = tracer.drain();
        let survivor_seqs: Vec<u64> = snap.tracks[0].events.iter().map(|e| e.seq).collect();
        assert_eq!(survivor_seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn snapshot_is_non_destructive() {
        let tracer = Tracer::with_capacity(8);
        let track = tracer.new_track("t");
        track.instant("a");
        track.instant("b");
        let peek1 = tracer.snapshot();
        let peek2 = tracer.snapshot();
        assert_eq!(peek1.event_count(), 2);
        assert_eq!(peek1, peek2, "snapshot must not consume events");
        // Drain still sees everything afterwards.
        assert_eq!(tracer.drain().event_count(), 2);
        assert_eq!(tracer.snapshot().event_count(), 0);
    }

    #[test]
    fn empty_tracks_are_omitted_from_drain() {
        let tracer = Tracer::with_capacity(8);
        let _idle = tracer.new_track("idle");
        let busy = tracer.new_track("busy");
        busy.instant("x");
        let snap = tracer.drain();
        assert_eq!(snap.tracks.len(), 1);
        assert_eq!(snap.tracks[0].name, "busy");
    }

    #[test]
    fn global_thread_track_records() {
        let before = global_tracer().track_count();
        std::thread::spawn(|| {
            set_track_name("svc:TEST");
            stage("g.stage", Instant::now(), Duration::from_nanos(5));
            instant("g.mark");
            counter("g.count", 3.0);
        })
        .join()
        .unwrap();
        assert!(global_tracer().track_count() > before);
        // Don't drain here: the global tracer is shared across tests.
    }
}
