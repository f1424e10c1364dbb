//! What a served request pays for its bookkeeping, piece by piece: the
//! numbers behind DESIGN.md §6 "Observability that costs what it
//! measures". It prints, in nanoseconds per call (the fastest of five
//! batches):
//!
//! * one `Instant::now()` and one reading of the process clock
//!   (`telemetry::global_clock().now_nanos()`);
//! * one request on the request plane: its two readings, the open, one
//!   stage report and the finish, tail-sampled with the default policy;
//! * one windowed-histogram write, the daemon's two SLO writes (a
//!   latency and an error-rate objective) and one circuit-breaker
//!   outcome, each given a reading the caller already holds;
//!
//! and then the whole of it on the managed path: `ManagedCompression::
//! decompress` against `Zstdx::decompress` of the same plain CACHE1
//! frames (no dictionary, `dict_size: 0`; passthrough frames skipped),
//! 20 rounds with the two sides interleaved call by call, as the median
//! and quartiles of managed minus codec per call.
//!
//! ```text
//! taskset -c 1 cargo run --release --example bookkeeping
//! ```

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use datacomp::codecs::zstdx::Zstdx;
use datacomp::codecs::Compressor;
use datacomp::corpus::cache::{cache1_profile, generate_items};
use datacomp::managed::{
    BreakerConfig, CircuitBreaker, ManagedCompression, ManagedConfig, PASSTHROUGH_MAGIC,
};
use datacomp::telemetry::{self, Op, RequestSampler, SamplerConfig, Slo, SloConfig, Stage};

const CALLS: u64 = 200_000;
const ROUNDS: usize = 20;

static STAGE: Stage = Stage::new("probe.stage");

/// Nanoseconds per call of `f`: the fastest of five batches.
fn ns_per_call(mut f: impl FnMut(u64)) -> f64 {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            for i in 0..CALLS {
                f(i);
            }
            start.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn quartiles(mut v: Vec<f64>) -> (f64, f64, f64) {
    v.sort_by(f64::total_cmp);
    let at = |q: f64| v[((v.len() - 1) as f64 * q).round() as usize];
    (at(0.25), at(0.5), at(0.75))
}

fn main() {
    let clock = telemetry::global_clock();
    println!("bookkeeping probe (ns per call, fastest of 5 x {CALLS})");
    let instant = ns_per_call(|_| {
        black_box(Instant::now());
    });
    println!("  Instant::now                       {instant:8.1}");
    let reading = ns_per_call(|_| {
        black_box(clock.now_nanos());
    });
    println!("  global_clock().now_nanos           {reading:8.1}");

    let sampler = RequestSampler::new(SamplerConfig::default(), Arc::clone(&clock));
    let handle = sampler.handle("probe", Op::Decompress);
    let request = ns_per_call(|i| {
        let req = handle.open(256, clock.now_nanos());
        STAGE.record(Instant::now(), Duration::from_nanos(i % 512));
        req.finish(clock.now_nanos());
    });
    println!("  request: 2 readings, open, stage, finish {request:8.1}");

    let now = clock.now_nanos();
    let window = telemetry::windows().histogram("probe.nanos", &[]);
    let observe = ns_per_call(|i| window.record(black_box(2_000 + i % 4096), now));
    println!("  windowed histogram write           {observe:8.1}");
    let latency_slo = Slo::new(
        SloConfig::latency("probe.latency", 5_000, 0.999),
        clock.clone(),
    );
    let errors_slo = Slo::new(SloConfig::error_rate("probe.errors", 0.999), clock.clone());
    let slos = ns_per_call(|i| {
        latency_slo.record_latency(black_box(2_000 + i % 4096), now);
        errors_slo.record(black_box(true), now);
    });
    println!("  two serve SLO writes               {slos:8.1}");
    let breaker = CircuitBreaker::new(BreakerConfig::default());
    let outcome = ns_per_call(|_| breaker.record(black_box(true), now));
    println!("  breaker outcome                    {outcome:8.1}");

    // Managed against codec on the same plain frames.
    let mut svc = ManagedCompression::new(ManagedConfig {
        dict_size: 0,
        ..ManagedConfig::default()
    });
    let items = generate_items(&cache1_profile(), 2_000, 46);
    let frames: Vec<(String, Vec<u8>)> = items
        .iter()
        .filter_map(|item| {
            let use_case = format!("cache1.t{}", item.type_id);
            let frame = svc.compress(&use_case, &item.data).expect("admitted");
            (!frame.starts_with(&PASSTHROUGH_MAGIC)).then_some((use_case, frame))
        })
        .collect();
    let codec = Zstdx::new(3);
    let (mut managed, mut raw, mut diff) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        // The two sides take turns frame by frame, each going first on
        // every other frame, so drift and a warm frame favour neither.
        let (mut codec_total, mut managed_total) = (Duration::ZERO, Duration::ZERO);
        for (i, (use_case, frame)) in frames.iter().enumerate() {
            for side in [i % 2, 1 - i % 2] {
                let start = Instant::now();
                if side == 0 {
                    black_box(codec.decompress(frame).expect("plain frame"));
                    codec_total += start.elapsed();
                } else {
                    black_box(svc.decompress(use_case, frame).expect("plain frame"));
                    managed_total += start.elapsed();
                }
            }
        }
        let per_call = |total: Duration| total.as_nanos() as f64 / frames.len() as f64;
        let (codec_ns, managed_ns) = (per_call(codec_total), per_call(managed_total));
        raw.push(codec_ns);
        managed.push(managed_ns);
        diff.push(managed_ns - codec_ns);
    }
    let (_, codec_med, _) = quartiles(raw);
    let (_, managed_med, _) = quartiles(managed);
    let (q1, med, q3) = quartiles(diff);
    println!(
        "managed vs codec decompress, {} plain CACHE1 frames, {ROUNDS} interleaved rounds",
        frames.len()
    );
    println!("  codec   median {codec_med:8.1}");
    println!("  managed median {managed_med:8.1}");
    println!("  managed - codec median {med:8.1}  (q1 {q1:.1}, q3 {q3:.1})");
}
