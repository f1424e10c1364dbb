//! Zero-allocation guard for request-path telemetry.
//!
//! A counting global allocator (per thread, so concurrently running
//! tests do not see each other) pins what a request pays the allocator
//! for its bookkeeping: nothing for an update through a resolved
//! handle, nothing for a name lookup that hits — across sub-window
//! rotations too — nothing for a stage or a mark outside any request,
//! an exact count for a request's own span tree, and a small, fixed
//! number of allocations for a whole warm
//! `ManagedCompression::decompress` of a dictionary frame, most of
//! them the decoded output and the request's span tree. One codec-level
//! count rides along: a warm dictionary compress, pinned exactly, so an
//! entropy stage that builds tables only to discard them shows up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use datacomp::managed::{ManagedCompression, ManagedConfig, PASSTHROUGH_MAGIC};
use datacomp::telemetry::{
    request, Clock, ManualClock, Op, Registry, RequestSampler, SamplerConfig, SloHandle, Stage,
    WindowConfig, WindowRegistry,
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
            window_counter.inc();
            window_hist.observe(v);
        }
    });
    assert_eq!(updates, 0, "updates through resolved handles");

    // Every slot of both rings rotates to a new sub-window.
    let rotations = allocations(|| {
        for v in 0..16 {
            clock.advance(MS);
            window_counter.add(2);
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
            win.counter("guard.requests", &reordered).inc();
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

/// Allocations one finished, unsampled request with two stages makes:
/// its service name, its raw span list, and the node list and nesting
/// stack of its span tree. When every stage record also wrote into the
/// thread's flight-recorder ring, the same request made 7 (8 whenever
/// the ring grew): the tree was built through a sorted copy of the span
/// list, and its node list and stack grew per span.
const UNSAMPLED_REQUEST_ALLOCATIONS: u64 = 4;

#[test]
fn an_unsampled_request_allocates_its_span_tree_exactly() {
    // A sampler that keeps nothing: no slowest-N, no baseline, and the
    // requests do not error, so each is attributed and dropped.
    let sampler = RequestSampler::new(
        SamplerConfig {
            slowest_per_window: 0,
            baseline_one_in: 0,
            ..SamplerConfig::default()
        },
        ManualClock::shared() as Arc<dyn Clock>,
    );
    let one = || {
        let req = sampler.open("guard", Op::Compress, 512);
        let t0 = Instant::now();
        MATCH_FIND.record(t0, Duration::from_nanos(300));
        ENTROPY.record(t0 + Duration::from_nanos(300), Duration::from_nanos(200));
        drop(req);
    };
    // Warm: the attribution row, its stage cells and the thread's
    // request stack exist after the first requests.
    for _ in 0..4 {
        one();
    }
    for _ in 0..16 {
        assert_eq!(allocations(one), UNSAMPLED_REQUEST_ALLOCATIONS);
    }
    assert_eq!(sampler.stats().dropped, 20);
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
/// output, the decoder's history and table buffers, and the request
/// context (its service name, span list and span tree). When the guard
/// was written the same call made ~60 more — one `String` per name and
/// label per registry lookup, a dozen lookups per call — and 9 while
/// the span tree was built through a sorted copy of the span list and a
/// nesting stack grown per span.
const WARM_DECOMPRESS_ALLOCATIONS: u64 = 6;

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
    assert!(
        median <= WARM_DECOMPRESS_ALLOCATIONS,
        "a warm decompress allocated {median} times (sorted: {counts:?})"
    );
}
