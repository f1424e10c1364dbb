//! Zero-allocation guard for request-path telemetry.
//!
//! A counting global allocator (per thread, so concurrently running
//! tests do not see each other) pins what a request pays the allocator
//! for its bookkeeping: nothing for an update through a resolved
//! handle, nothing for a name lookup that hits — across sub-window
//! rotations too — nothing for a stage or a mark outside any request,
//! nothing for a request the tail sampler drops, and for a whole warm
//! `ManagedCompression::decompress` of a dictionary frame only what the
//! decoder allocates. One codec-level count rides along: a warm
//! dictionary compress, pinned exactly, so an entropy stage that builds
//! tables only to discard them shows up. A counting clock rides along
//! too: a warm managed call reads the service's clock once when it
//! opens and once when it ends.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use datacomp::managed::{ManagedCompression, ManagedConfig, PASSTHROUGH_MAGIC};
use datacomp::telemetry::{
    request, Clock, ManualClock, MonotonicClock, Op, Registry, RequestSampler, SamplerConfig,
    SloHandle, Stage, WindowConfig, WindowRegistry,
};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`;
// counting touches only a const-initialised thread-local `Cell`, which
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations the calling thread makes while running `f`.
fn allocations<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    std::hint::black_box(f());
    ALLOCATIONS.with(Cell::get) - before
}

const MS: u64 = 1_000_000;

#[test]
fn resolved_handles_and_warm_lookups_allocate_nothing() {
    let reg = Registry::new();
    let (win, clock) = WindowRegistry::manual(WindowConfig::new(MS, 4));
    let labels = [("tenant", "CACHE1"), ("op", "compress"), ("status", "ok")];
    let counter = reg.counter("guard.requests", &labels);
    let hist = reg.histogram("guard.nanos", &labels);
    let window_counter = win.counter("guard.requests", &labels);
    let window_hist = win.histogram("guard.nanos", &labels);

    let updates = allocations(|| {
        for v in 0..256 {
            counter.inc();
            hist.observe(v);
            window_counter.add(1, clock.now_nanos());
            window_hist.observe(v);
        }
    });
    assert_eq!(updates, 0, "updates through resolved handles");

    // Every slot of both rings rotates to a new sub-window.
    let rotations = allocations(|| {
        for v in 0..16 {
            clock.advance(MS);
            window_counter.add(2, clock.now_nanos());
            window_hist.observe(v);
        }
    });
    assert_eq!(rotations, 0, "sub-window rotation");

    // A lookup that hits, with the labels in another order, through
    // rotations, on the per-instance and the process-wide registries.
    let reordered = [("status", "ok"), ("tenant", "CACHE1"), ("op", "compress")];
    datacomp::telemetry::global().counter("guard.requests", &labels);
    let lookups = allocations(|| {
        for v in 0..64 {
            clock.advance(MS / 2);
            reg.counter("guard.requests", &reordered).inc();
            reg.histogram("guard.nanos", &reordered).observe(v);
            win.counter("guard.requests", &reordered)
                .add(1, clock.now_nanos());
            win.histogram("guard.nanos", &reordered).observe(v);
            datacomp::telemetry::global()
                .counter("guard.requests", &reordered)
                .inc();
        }
    });
    assert_eq!(lookups, 0, "warm name lookups");
    assert_eq!(reg.snapshot().counter("guard.requests", &labels), 256 + 64);

    // An SLO handle with nothing newly registered is one atomic load.
    let slos = datacomp::telemetry::slos();
    let mut handle = SloHandle::new("guard.never.registered");
    handle.get(slos);
    let slo_reads = allocations(|| {
        for _ in 0..64 {
            assert!(handle.get(slos).is_none());
        }
    });
    assert_eq!(slo_reads, 0, "resolved SLO handle");
}

static MATCH_FIND: Stage = Stage::new("guard.match_find");
static ENTROPY: Stage = Stage::new("guard.entropy");

#[test]
fn stages_and_marks_outside_a_request_allocate_nothing() {
    // The first record resolves the stage's histogram.
    MATCH_FIND.record(Instant::now(), Duration::from_nanos(1));
    let outside = allocations(|| {
        for _ in 0..64 {
            MATCH_FIND.record(Instant::now(), Duration::from_nanos(300));
            request::mark("guard.mark");
        }
    });
    assert_eq!(outside, 0, "stage records and marks with no request open");
}

/// Allocations one finished, unsampled request with two stages makes,
/// opened by name or through a resolved handle: none. Its spans go onto
/// the thread's span stack, which keeps its capacity; its self-times are
/// computed without building its span tree; its attribution row is
/// resolved beforehand and counted with atomic adds. It made 4 when it copied its service name, grew a span
/// list and built the tree it then dropped, and 7 (8 whenever the ring
/// grew) when every stage record also wrote into the thread's
/// flight-recorder ring.
const UNSAMPLED_REQUEST_ALLOCATIONS: u64 = 0;

#[test]
fn an_unsampled_request_allocates_nothing() {
    // A sampler that keeps nothing: no slowest-N, no baseline, and the
    // requests do not error, so each is attributed and dropped.
    let clock = ManualClock::shared();
    let sampler = RequestSampler::new(
        SamplerConfig {
            slowest_per_window: 0,
            baseline_one_in: 0,
            ..SamplerConfig::default()
        },
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    let stages = || {
        let t0 = Instant::now();
        MATCH_FIND.record(t0, Duration::from_nanos(300));
        ENTROPY.record(t0 + Duration::from_nanos(300), Duration::from_nanos(200));
        request::mark("guard.mark");
    };
    let by_name = || {
        let req = sampler.open("guard", Op::Compress, 512);
        stages();
        drop(req);
    };
    let handle = sampler.handle("guard", Op::Decompress);
    let by_handle = || {
        let req = handle.open(512, clock.now_nanos());
        stages();
        clock.advance(1_000);
        req.finish(clock.now_nanos());
    };
    // Warm: the attribution rows, their stage cells and the thread's
    // request stack exist after the first requests.
    for _ in 0..4 {
        by_name();
        by_handle();
    }
    for _ in 0..16 {
        assert_eq!(allocations(by_name), UNSAMPLED_REQUEST_ALLOCATIONS);
        assert_eq!(allocations(by_handle), UNSAMPLED_REQUEST_ALLOCATIONS);
    }
    assert_eq!(sampler.stats().dropped, 40);
}

/// Allocations a warm codec-level dictionary compress of a CACHE1 item
/// long enough for described sequence tables makes: the frame, the
/// working buffer, the finder's tables, the parse (and its growth), the
/// code lanes and the literal and sequence sections. Pinned exactly, so
/// building and discarding entropy tables again shows up here. When every
/// lane of at least 48 codes built a table before pricing it, the same
/// call made 85; deciding on the lane's Shannon bound first made it 39,
/// and the priced level-3 parse (fewer, longer sequences) 25.
const WARM_DICT_COMPRESS_ALLOCATIONS: u64 = 25;

#[test]
fn warm_dictionary_compress_allocates_what_it_keeps() {
    use datacomp::codecs::dict::train;
    use datacomp::codecs::zstdx::Zstdx;
    use datacomp::codecs::Compressor;
    use datacomp::corpus::cache::{cache1_profile, generate_items};

    let items = generate_items(&cache1_profile(), 2000, 24);
    let of_type: Vec<&[u8]> = items
        .iter()
        .filter(|i| i.type_id == 0)
        .map(|i| i.data.as_slice())
        .collect();
    let dict = train(&of_type[..64], 16 << 10, 1);
    // The longest held-out item up to 1 KiB: about a hundred sequences,
    // so every lane crosses the 48-code gate.
    let item = of_type[64..]
        .iter()
        .filter(|p| p.len() <= 1024)
        .max_by_key(|p| p.len())
        .unwrap();
    assert!(item.len() > 768, "{} bytes", item.len());
    let c = Zstdx::new(3);
    let frame = c.compress_with_dict(item, &dict);
    assert_eq!(c.decompress_with_dict(&frame, &dict).unwrap(), *item);
    let mut counts: Vec<u64> = (0..9)
        .map(|_| allocations(|| c.compress_with_dict(item, &dict)))
        .collect();
    counts.sort_unstable();
    assert_eq!(
        counts[counts.len() / 2],
        WARM_DICT_COMPRESS_ALLOCATIONS,
        "a warm dictionary compress (sorted: {counts:?})"
    );
}

/// Allocations a warm dictionary-frame decompress may make: the decoded
/// output and the decoder's literal buffer; the request plane makes
/// none for a request it drops. It made 6 while the request copied its
/// service name, grew a span list and built its span tree; ~60 more
/// when the guard was written (one `String` per name and label per
/// registry lookup, a dozen lookups per call); and 9 while the span
/// tree was built through a sorted copy of the span list and a nesting
/// stack grown per span.
const WARM_DECOMPRESS_ALLOCATIONS: u64 = 2;

#[test]
fn warm_managed_decompress_allocates_a_pinned_handful() {
    let payload = |i: usize| {
        format!(
            "{{\"schema\":\"event.click.v7\",\"session\":{},\"target\":\"btn-{}\",\"ts\":{}}}",
            i % 500,
            i % 23,
            1_700_000_000 + i
        )
        .into_bytes()
    };
    let mut svc = ManagedCompression::new(ManagedConfig::default());
    // The eighth compress trains the first dictionary.
    for i in 0..16 {
        svc.compress("events", &payload(i)).unwrap();
    }
    let data = payload(99);
    let frame = svc.compress("events", &data).unwrap();
    assert_ne!(frame[..4], PASSTHROUGH_MAGIC, "a codec frame");
    assert_eq!(frame[4] & 1, 1, "cut with a dictionary");
    for _ in 0..64 {
        assert_eq!(svc.decompress("events", &frame).unwrap(), data);
    }
    // The median call: the tail sampler keeps a few requests per
    // sub-window (copying their span trees), which is not what a
    // typical request pays.
    let mut counts: Vec<u64> = (0..33)
        .map(|_| allocations(|| svc.decompress("events", &frame).unwrap()))
        .collect();
    counts.sort_unstable();
    let median = counts[counts.len() / 2];
    assert_eq!(
        median, WARM_DECOMPRESS_ALLOCATIONS,
        "a warm decompress (sorted: {counts:?})"
    );
}

/// A process clock that counts its readings.
#[derive(Debug, Default)]
struct CountingClock {
    reads: AtomicU64,
    inner: MonotonicClock,
}

impl Clock for CountingClock {
    fn now_nanos(&self) -> u64 {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.now_nanos()
    }
}

/// Readings a warm managed compress or decompress takes of the
/// service's clock: one when the call opens and one when it ends. They
/// start its deadline and place its breaker outcome; on the process
/// clock, which the request sampler and the window registry run on,
/// they also time its request and (for a compress) its windowed
/// latency, and a service on another clock, like this one, reads the
/// process clock for those instead. Each call read
/// the clock 5 times while the deadline took its own start reading and
/// the breaker read the clock for the outcome, its window and both of
/// its totals; the request plane read the process clock twice more on
/// top.
const WARM_CALL_CLOCK_READS: u64 = 2;

#[test]
fn a_warm_managed_call_reads_its_clock_at_open_and_end() {
    let clock = Arc::new(CountingClock::default());
    let mut svc = ManagedCompression::with_clock(
        ManagedConfig::default(),
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    let data = b"{\"schema\":\"event.click.v7\",\"session\":7,\"target\":\"btn-3\"}".repeat(4);
    let mut frame = Vec::new();
    for _ in 0..16 {
        frame = svc.compress("events", &data).unwrap();
        assert_eq!(svc.decompress("events", &frame).unwrap(), data);
    }
    let reads = |f: &mut dyn FnMut()| {
        let before = clock.reads.load(Ordering::Relaxed);
        f();
        clock.reads.load(Ordering::Relaxed) - before
    };
    for _ in 0..8 {
        let decompress = reads(&mut || {
            svc.decompress("events", &frame).unwrap();
        });
        assert_eq!(decompress, WARM_CALL_CLOCK_READS, "a warm decompress");
        let compress = reads(&mut || {
            svc.compress("events", &data).unwrap();
        });
        assert_eq!(compress, WARM_CALL_CLOCK_READS, "a warm compress");
    }
}
