//! One workload, start to finish: cold starts, measured passes against
//! the last daemon, the reconciliation of counters, and — in the traced
//! run — the span recording and the layer ladder.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use server::client::Client;

use crate::daemon::Daemon;
use crate::deck::{Deck, Shape, Workload, WARMUP_LAPS};
use crate::ladder;
use crate::report::{Metrics, Outcome};
use crate::served::{Segment, Session, Tally};
use crate::spans::{self, Recorder};
use crate::stats::{median, percentile, ratio};

/// Cold starts are repeated until this much time has gone by.
const SETUP_BUDGET: Duration = Duration::from_secs(2);
const MIN_COLD_STARTS: usize = 3;
const MAX_COLD_STARTS: usize = 25;

/// Where things are, and what the run was asked to do.
pub struct Env {
    pub daemon_bin: PathBuf,
    pub out_dir: PathBuf,
    pub pinned: bool,
    pub seed: u64,
    pub quick: bool,
    pub traced: bool,
}

/// What one invocation measured for one workload.
pub struct RunResult {
    pub outcome: Outcome,
    pub metrics: Metrics,
    /// Run-health lines printed with either kind of run.
    pub noise: Metrics,
    /// Wall time of every untraced pass, in order, for the run record:
    /// where the busy stretches fell.
    pub pass_ms: Vec<f64>,
    /// Duration of every cold start, in order, for the run record.
    pub cold_start_s: Vec<f64>,
}

/// One cold start's timings, in seconds.
struct ColdStart {
    total: f64,
    generate: f64,
    ready: f64,
    warmup: f64,
}

/// A daemon that has been started cold and warmed, and what it served
/// so far.
struct Warm {
    daemon: Daemon,
    client: Client,
    tally: Tally,
    deck: Deck,
}

/// Generates the deck, spawns a daemon, connects, and runs and verifies
/// the warm-up laps: everything a user waits for before the first
/// steady-state request.
fn cold_start(env: &Env, workload: &Workload) -> Result<(Warm, ColdStart), String> {
    let start = Instant::now();
    let deck = Deck::build(workload, env.seed);
    let generate = start.elapsed().as_secs_f64();
    let (daemon, ready) = Daemon::spawn(&env.daemon_bin, &env.out_dir, workload.name)?;
    let warm_start = Instant::now();
    let client = Client::connect(daemon.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut rec = Recorder::new(false);
    let mut session = Session {
        client,
        workload,
        deck: &deck,
        expect: &deck,
        rec: &mut rec,
        tally: Tally::default(),
    };
    session.run_laps(0, WARMUP_LAPS)?;
    let Session { client, tally, .. } = session;
    let timing = ColdStart {
        total: start.elapsed().as_secs_f64(),
        generate,
        ready: ready.as_secs_f64(),
        warmup: warm_start.elapsed().as_secs_f64(),
    };
    Ok((
        Warm {
            daemon,
            client,
            tally,
            deck,
        },
        timing,
    ))
}

/// A fixed hash-and-histogram kernel over 64 KiB, timed before each
/// pass: if it slows down, the machine did, not the code under test.
/// Reported, never applied.
fn calib_kernel() -> u64 {
    let start = Instant::now();
    let mut hist = [0u32; 256];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..64 * 1024 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        hist[(x & 0xff) as usize] += 1;
    }
    std::hint::black_box(hist);
    start.elapsed().as_nanos() as u64
}

/// One pass: its segments, in lap order.
pub type Pass = Vec<Segment>;

/// Runs `count` passes, segment by segment, reading the daemon's CPU
/// time at every segment boundary, where the daemon is blocked in
/// `read` and its counters are settled.
fn serve_passes(
    session: &mut Session<'_>,
    daemon: &Daemon,
    count: usize,
) -> Result<Vec<Pass>, String> {
    let workload = session.workload;
    let mut passes = Vec::with_capacity(count);
    for pass_no in 0..count {
        let calib_ns = calib_kernel();
        let mut cpu = daemon.cpu_ns();
        let mut pass = Pass::new();
        session.rec.open("bench.pass", pass_no as u64);
        for first_lap in (0..workload.laps_per_pass).step_by(workload.segment_laps) {
            let mut segment = session.run_laps(first_lap, workload.segment_laps)?;
            let cpu_now = daemon.cpu_ns();
            segment.cpu_ns = cpu_now.saturating_sub(cpu);
            cpu = cpu_now;
            pass.push(segment);
        }
        session.rec.close();
        pass[0].calib_ns = calib_ns;
        passes.push(pass);
    }
    Ok(passes)
}

/// Timing metrics over the pooled calls of the quiet segments.
pub struct Pooled {
    /// Passes that supplied at least one quiet segment.
    pub quiet_passes: usize,
    pub ops: u64,
    pub ops_per_s: f64,
    pub us_per_op: f64,
    pub compress_us_per_op: f64,
    pub decompress_us_per_op: f64,
    /// Samples of the pooled segments, ascending.
    pub compress_ns: Vec<u64>,
    pub decompress_ns: Vec<u64>,
    pub cpu_us_per_op: f64,
    /// Median pass wall time over the first-quartile pass wall time.
    pub pass_p50_over_q1: f64,
    /// Mean time per op over every segment, over the quiet segments'.
    pub all_over_quiet: f64,
}

/// Rule 3. Segment `s` of every pass replays the same laps and holds
/// the same dictionary retrains, so its instances across passes are the
/// same work, and the fastest of them by wall time is the quiet one.
pub fn pool(passes: &[Pass]) -> Pooled {
    let positions = passes.first().map_or(0, Vec::len);
    // The pass each position's quiet instance is in; ties go to the
    // earlier pass.
    let quiet_in: Vec<usize> = (0..positions)
        .filter_map(|s| (0..passes.len()).min_by_key(|&p| passes[p][s].wall_ns))
        .collect();
    let quiet: Vec<&Segment> = quiet_in
        .iter()
        .enumerate()
        .map(|(s, &p)| &passes[p][s])
        .collect();
    let mut quiet_passes = quiet_in;
    quiet_passes.sort_unstable();
    quiet_passes.dedup();
    let sum = |f: &dyn Fn(&Segment) -> u64| quiet.iter().map(|seg| f(seg)).sum::<u64>() as f64;
    let sorted = |f: &dyn Fn(&Segment) -> &Vec<u64>| {
        let mut v: Vec<u64> = quiet
            .iter()
            .flat_map(|seg| f(seg).iter().copied())
            .collect();
        v.sort_unstable();
        v
    };
    let (ops, wall) = (sum(&|s| s.ops()), sum(&|s| s.wall_ns));
    let every = || passes.iter().flatten();
    let all_ops = every().map(Segment::ops).sum::<u64>() as f64;
    let all_wall = every().map(|s| s.wall_ns).sum::<u64>() as f64;
    let mut pass_walls: Vec<u64> = passes
        .iter()
        .map(|p| p.iter().map(|s| s.wall_ns).sum())
        .collect();
    pass_walls.sort_unstable();
    Pooled {
        quiet_passes: quiet_passes.len(),
        ops: ops as u64,
        ops_per_s: ratio(ops * 1e9, wall),
        us_per_op: ratio(wall / 1e3, ops),
        compress_us_per_op: ratio(sum(&|s| s.compress_time_ns) / 1e3, sum(&|s| s.compress_ops)),
        decompress_us_per_op: ratio(
            sum(&|s| s.decompress_time_ns) / 1e3,
            sum(&|s| s.decompress_ops),
        ),
        compress_ns: sorted(&|s| &s.compress_ns),
        decompress_ns: sorted(&|s| &s.decompress_ns),
        cpu_us_per_op: ratio(sum(&|s| s.cpu_ns) / 1e3, ops),
        pass_p50_over_q1: ratio(percentile(&pass_walls, 0.5), percentile(&pass_walls, 0.25)),
        all_over_quiet: ratio(ratio(all_wall, all_ops), ratio(wall, ops)),
    }
}

/// The timings of a run's cold starts.
struct SetupTimes {
    colds: Vec<ColdStart>,
}

impl SetupTimes {
    /// The fastest of the cold starts, for the reason rule 3 gives. It
    /// is also the steadiest: between five pairs of run sets the median
    /// of the starts drifted by up to 40%, their first quartile by up
    /// to 27% and their minimum by up to 11% (the README has the table).
    fn quiet_of(&self, f: impl Fn(&ColdStart) -> f64) -> f64 {
        self.colds.iter().map(f).fold(f64::INFINITY, f64::min)
    }

    fn count(&self) -> u64 {
        self.colds.len() as u64
    }
}

/// Rule 4: starts cold, again and again with a fresh daemon, until
/// `SETUP_BUDGET` has gone by. The last daemon is kept, warm, to serve
/// the measured passes.
fn cold_starts(env: &Env, workload: &Workload) -> Result<(Warm, SetupTimes), String> {
    let start = Instant::now();
    // A smoke run starts cold once.
    let (budget, least) = if env.quick {
        (Duration::ZERO, 1)
    } else {
        (SETUP_BUDGET, MIN_COLD_STARTS)
    };
    let mut colds = Vec::new();
    loop {
        let (warm, timing) = cold_start(env, workload)?;
        colds.push(timing);
        let enough = colds.len() >= least && start.elapsed() >= budget;
        if enough || colds.len() >= MAX_COLD_STARTS {
            return Ok((warm, SetupTimes { colds }));
        }
        // Dropping `warm` kills and reaps that daemon.
    }
}

/// What a traced run served after its untraced fifth.
#[derive(Default)]
struct Traced {
    /// As many passes again with the span recorder on.
    passes: Vec<Pass>,
    /// `cache_pipe` only: as many again in whole 64-lap bursts.
    burst64: Vec<Pass>,
}

/// Runs one workload and returns its metrics: the end-to-end set from
/// an untraced run, or the per-layer set from a traced one.
pub fn run_workload(env: &Env, workload: &'static Workload) -> Result<RunResult, String> {
    let (warm, setup) = cold_starts(env, workload)?;
    let Warm {
        daemon,
        client,
        tally,
        deck,
    } = warm;

    // `cache_pipe` without its send window, for the traced run.
    let whole_bursts = Workload {
        shape: Shape::Pipeline { window: usize::MAX },
        ..*workload
    };
    let mut rec = Recorder::new(false);
    let mut session = Session {
        client,
        workload,
        deck: &deck,
        expect: &deck,
        rec: &mut rec,
        tally,
    };

    // The traced run replays a fifth of the passes untraced and a fifth
    // traced; the difference between the two is the tracing overhead.
    // On the pipelined shape it then replays a fifth in whole 64-lap
    // bursts, which the daemon answers in several writes.
    let passes = workload.passes_for(env.quick);
    let measured = if env.traced {
        passes.div_ceil(5)
    } else {
        passes
    };
    let untraced = serve_passes(&mut session, &daemon, measured)?;
    let mut traced = Traced::default();
    if env.traced {
        session.rec.set_on(true);
        session.rec.open("bench.run", 0);
        traced.passes = serve_passes(&mut session, &daemon, measured)?;
        if workload.shape != Shape::RoundTrip {
            session.workload = &whole_bursts;
            traced.burst64 = serve_passes(&mut session, &daemon, measured)?;
        }
    }

    let outcome = Outcome {
        count_mismatch: session.count_mismatches()?,
        attempted: session.tally.attempted,
        failed: session.tally.failed,
    };
    let rss_kb = daemon.vm_hwm_kb();
    drop(session);
    drop(daemon);

    let base = pool(&untraced);
    let cold_start_s: Vec<f64> = setup.colds.iter().map(|c| c.total).collect();
    let pass_ms: Vec<f64> = untraced
        .iter()
        .map(|p| p.iter().map(|s| s.wall_ns).sum::<u64>() as f64 / 1e6)
        .collect();
    let calib: Vec<f64> = untraced
        .iter()
        .chain(&traced.passes)
        .chain(&traced.burst64)
        .map(|p| p[0].calib_ns as f64 / 1e3)
        .collect();
    let n_passes = untraced.len() as u64;
    let mut noise = Metrics::default();
    noise.put("noise.pinned", f64::from(u8::from(env.pinned)), 1);
    noise.put("noise.quiet_passes", base.quiet_passes as f64, n_passes);
    noise.put("noise.pass_p50_over_q1", base.pass_p50_over_q1, n_passes);
    noise.put("noise.all_over_quiet", base.all_over_quiet, n_passes);
    noise.put("noise.calib_kernel_us", median(&calib), calib.len() as u64);

    if !env.traced {
        return Ok(RunResult {
            outcome,
            metrics: end_to_end(&setup, &untraced, &base, rss_kb),
            noise,
            pass_ms,
            cold_start_s,
        });
    }

    let served = pool(&traced.passes);
    let mut metrics = per_layer(
        workload, &deck, &setup, &outcome, &traced, &served, &mut rec,
    )?;
    rec.close();
    metrics.0.append(&mut noise.0);
    metrics.put("trace.spans", rec.spans().len() as f64, 1);
    metrics.put(
        "trace.overhead_share",
        ratio(served.us_per_op - base.us_per_op, base.us_per_op),
        served.ops,
    );

    let spans_path = env.out_dir.join(format!("{}.spans.json", workload.name));
    spans::write_json(&spans_path, rec.spans())
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
    println!(
        "{:<11} spans by name (count, total ms, self ms):",
        workload.name
    );
    for (name, count, total_ns, self_ns) in spans::by_name(rec.spans()) {
        println!(
            "{:<11}   {name:<30} {count:>8} {:>12.3} {:>12.3}",
            workload.name,
            total_ns as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }
    Ok(RunResult {
        outcome,
        metrics,
        noise: Metrics::default(),
        pass_ms,
        cold_start_s,
    })
}

/// What a user of the served system sees.
fn end_to_end(setup: &SetupTimes, passes: &[Pass], quiet: &Pooled, rss_kb: u64) -> Metrics {
    let every = || passes.iter().flatten();
    let payload: u64 = every().map(|s| s.payload_bytes).sum();
    let frames: u64 = every().map(|s| s.frame_bytes).sum();
    let compresses: u64 = every().map(|s| s.compress_ops).sum();
    let (n_compress, n_decompress) = (
        quiet.compress_ns.len() as u64,
        quiet.decompress_ns.len() as u64,
    );
    let mut m = Metrics::default();
    m.put("setup_s", setup.quiet_of(|c| c.total), setup.count());
    m.put("ops_per_s", quiet.ops_per_s, quiet.ops);
    m.put("compress_us_per_op", quiet.compress_us_per_op, n_compress);
    m.put(
        "decompress_us_per_op",
        quiet.decompress_us_per_op,
        n_decompress,
    );
    m.put(
        "compress_p50_us",
        percentile(&quiet.compress_ns, 0.5) / 1e3,
        n_compress,
    );
    m.put(
        "decompress_p50_us",
        percentile(&quiet.decompress_ns, 0.5) / 1e3,
        n_decompress,
    );
    m.put("cpu_us_per_op", quiet.cpu_us_per_op, quiet.ops);
    m.put("rss_mb", rss_kb as f64 / 1024.0, 1);
    m.put("ratio", ratio(payload as f64, frames as f64), compresses);
    m
}

/// The served rung from the traced passes, then the ladder below it,
/// each rung timed in this process on the same deck and lap order.
fn per_layer(
    workload: &Workload,
    deck: &Deck,
    setup: &SetupTimes,
    outcome: &Outcome,
    traced: &Traced,
    served: &Pooled,
    rec: &mut Recorder,
) -> Result<Metrics, String> {
    let managed = ladder::managed_round(workload, deck, rec)?;
    let codecs = ladder::codecs_round(workload, deck, rec)?;
    let lz = ladder::lzkit_round(deck, rec)?;
    let ent = ladder::entropy_round(&lz.blocks, rec)?;
    let protocol_ns = ladder::protocol_round(workload, deck, &codecs.frames, rec)?;
    let tel = ladder::telemetry_round(rec);
    let plain = ladder::plain_rows(deck)?;

    // Mean time per op of a lap's mix: one compress and R decompresses.
    let reads = workload.reads as f64;
    let per_op = |compress: f64, decompress: f64| (compress + reads * decompress) / (1.0 + reads);
    let m = pool(&managed.passes);
    let served_us = per_op(served.compress_us_per_op, served.decompress_us_per_op);
    let managed_us = per_op(m.compress_us_per_op, m.decompress_us_per_op);
    let codecs_us = per_op(codecs.compress_ns_per_op, codecs.decompress_ns_per_op) / 1e3;
    let below_codecs_us = per_op(
        lz.parse_ns_per_op
            + ent.huffman_build
            + ent.huffman_encode
            + ent.fse_build
            + ent.fse_encode,
        lz.reconstruct_ns_per_op + ent.huffman_decode + ent.fse_decode,
    ) / 1e3;

    let every = || traced.passes.iter().flatten();
    let traced_ops: u64 = every().map(Segment::ops).sum();
    let bursts: u64 = traced.burst64.iter().flatten().map(|s| s.bursts).sum();
    let stalled: u64 = traced
        .burst64
        .iter()
        .flatten()
        .map(|s| s.stalled_bursts)
        .sum();
    let wire: u64 = every().map(|s| s.wire_bytes).sum();
    let call_max = every().map(|s| s.call_max_ns).max().unwrap_or(0);
    let retrains: Vec<u64> = managed
        .passes
        .iter()
        .map(|p| p.iter().map(|s| s.retrains).sum())
        .collect();
    let n_retrains: u64 = retrains.iter().sum();
    let n_managed = retrains.len() as u64;
    let managed_compress_ns: u64 = managed
        .passes
        .iter()
        .flatten()
        .map(|s| s.compress_time_ns)
        .sum();
    let cards = deck.cards.len() as u64;
    let (n_compress, n_decompress) = (
        served.compress_ns.len() as u64,
        served.decompress_ns.len() as u64,
    );

    let mut out = Metrics::default();
    out.put(
        "cli.daemon_ready_ms",
        setup.quiet_of(|c| c.ready) * 1e3,
        setup.count(),
    );
    out.put(
        "cli.warmup_ms",
        setup.quiet_of(|c| c.warmup) * 1e3,
        setup.count(),
    );
    out.put(
        "server.compress_us_per_op",
        served.compress_us_per_op,
        n_compress,
    );
    out.put(
        "server.decompress_us_per_op",
        served.decompress_us_per_op,
        n_decompress,
    );
    out.put("server.self_us_per_op", served_us - managed_us, served.ops);
    out.put("server.protocol_us_per_op", protocol_ns / 1e3, cards);
    out.put(
        "server.wire_bytes_per_op",
        ratio(wire as f64, traced_ops as f64),
        traced_ops,
    );
    out.put(
        "server.compress_p99_us",
        percentile(&served.compress_ns, 0.99) / 1e3,
        n_compress,
    );
    out.put(
        "server.decompress_p99_us",
        percentile(&served.decompress_ns, 0.99) / 1e3,
        n_decompress,
    );
    out.put("server.call_max_ms", call_max as f64 / 1e6, traced_ops);
    out.put(
        "server.burst_stall_share",
        ratio(stalled as f64, bursts as f64),
        bursts,
    );
    let whole = pool(&traced.burst64);
    out.put("server.burst64_ops_per_s", whole.ops_per_s, whole.ops);
    out.put(
        "server.failed_ops",
        outcome.failed as f64,
        outcome.attempted,
    );
    out.put(
        "server.count_mismatch",
        outcome.count_mismatch as f64,
        outcome.attempted,
    );
    out.put(
        "managed.compress_us_per_op",
        m.compress_us_per_op,
        m.compress_ns.len() as u64,
    );
    out.put(
        "managed.decompress_us_per_op",
        m.decompress_us_per_op,
        m.decompress_ns.len() as u64,
    );
    out.put(
        "managed.compress_p50_us",
        percentile(&m.compress_ns, 0.5) / 1e3,
        m.compress_ns.len() as u64,
    );
    out.put("managed.self_us_per_op", managed_us - codecs_us, m.ops);
    out.put(
        "managed.retrain_share",
        ratio(managed.retrain_ns as f64, managed_compress_ns as f64),
        n_retrains,
    );
    out.put(
        "managed.retrain_max_ms",
        managed.retrain_max_ns as f64 / 1e6,
        n_retrains,
    );
    out.put(
        "managed.retrains_per_pass_min",
        retrains.iter().min().copied().unwrap_or(0) as f64,
        n_managed,
    );
    out.put(
        "managed.retrains_per_pass_max",
        retrains.iter().max().copied().unwrap_or(0) as f64,
        n_managed,
    );
    out.put(
        "managed.versions_trained",
        managed.versions_trained as f64,
        n_managed,
    );
    out.put(
        "managed.passthrough_frames",
        managed.passthrough_frames as f64,
        n_managed,
    );
    out.put(
        "codecs.zstdx.compress_us_per_op",
        codecs.compress_ns_per_op / 1e3,
        cards,
    );
    out.put(
        "codecs.zstdx.decompress_us_per_op",
        codecs.decompress_ns_per_op / 1e3,
        cards * workload.reads as u64,
    );
    out.put(
        "codecs.zstdx.match_find_share",
        codecs.match_find_share,
        cards,
    );
    out.put("codecs.dict_train_ms", codecs.dict_train_ms, 1);
    out.put("codecs.self_us_per_op", codecs_us - below_codecs_us, cards);
    for (row, [compress, decompress, rate]) in plain.iter().zip([
        [
            "codecs.lz4x.compress_mb_s",
            "codecs.lz4x.decompress_mb_s",
            "codecs.lz4x.ratio",
        ],
        [
            "codecs.zlibx.compress_mb_s",
            "codecs.zlibx.decompress_mb_s",
            "codecs.zlibx.ratio",
        ],
        [
            "codecs.zstdx.compress_mb_s",
            "codecs.zstdx.decompress_mb_s",
            "codecs.zstdx.ratio",
        ],
    ]) {
        out.put(compress, row.compress_mb_s, cards);
        out.put(decompress, row.decompress_mb_s, cards);
        out.put(rate, row.ratio, cards);
    }
    out.put("lzkit.parse_us_per_op", lz.parse_ns_per_op / 1e3, cards);
    out.put(
        "lzkit.reconstruct_us_per_op",
        lz.reconstruct_ns_per_op / 1e3,
        cards,
    );
    out.put("lzkit.sequences_per_kb", lz.sequences_per_kb, cards);
    out.put("lzkit.match_coverage", lz.match_coverage, cards);
    for (name, ns) in [
        ("entropy.huffman_build_us_per_op", ent.huffman_build),
        ("entropy.huffman_encode_us_per_op", ent.huffman_encode),
        ("entropy.huffman_decode_us_per_op", ent.huffman_decode),
        ("entropy.fse_build_us_per_op", ent.fse_build),
        ("entropy.fse_encode_us_per_op", ent.fse_encode),
        ("entropy.fse_decode_us_per_op", ent.fse_decode),
    ] {
        out.put(name, ns / 1e3, cards);
    }
    out.put(
        "entropy.literal_bytes_per_op",
        ent.literal_bytes_per_op,
        cards,
    );
    out.put("telemetry.counter_inc_ns", tel[0], ladder::TELEMETRY_BATCH);
    out.put(
        "telemetry.window_observe_ns",
        tel[1],
        ladder::TELEMETRY_BATCH,
    );
    out.put("telemetry.request_ctx_ns", tel[2], ladder::TELEMETRY_BATCH);
    out.put(
        "corpus.generate_ms",
        setup.quiet_of(|c| c.generate) * 1e3,
        setup.count(),
    );
    out.put("corpus.deck_items", cards as f64, 1);
    out.put("corpus.deck_bytes", deck.bytes() as f64, 1);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A segment of 2 compresses and 4 decompresses whose calls take
    /// `call_ns` and `call_ns / 2`.
    fn segment(call_ns: u64, retrain_ns: u64) -> Segment {
        Segment {
            wall_ns: 4 * call_ns + retrain_ns,
            compress_ns: vec![call_ns, call_ns + retrain_ns],
            decompress_ns: vec![call_ns / 2; 4],
            compress_time_ns: 2 * call_ns + retrain_ns,
            decompress_time_ns: 2 * call_ns,
            compress_ops: 2,
            decompress_ops: 4,
            cpu_ns: 2 * call_ns,
            ..Segment::default()
        }
    }

    #[test]
    fn pooling_reads_only_the_quiet_instance_of_each_position() {
        // Twenty passes of two segments; positions are different work
        // (1 µs and 3 µs calls, the second with a retrain in it). A
        // busy stretch makes every pass three times slower but for the
        // first segment of pass 4 and the second of passes 7 and 9:
        // each position pools its quiet instance, retrain included (a
        // tie goes to the earlier pass), and the busy ones move nothing.
        let mut passes: Vec<Pass> = vec![vec![segment(3_000, 0), segment(9_000, 30_000)]; 20];
        passes[4][0] = segment(1_000, 0);
        passes[7][1] = segment(3_000, 10_000);
        passes[9][1] = segment(3_000, 10_000);
        let p = pool(&passes);
        assert_eq!(p.quiet_passes, 2);
        assert_eq!(p.ops, 12);
        assert_eq!(p.us_per_op, (4.0 + 22.0) / 12.0);
        assert_eq!(p.compress_us_per_op, (2.0 + 16.0) / 4.0);
        assert_eq!(p.decompress_us_per_op, 1.0);
        assert_eq!(p.compress_ns, vec![1_000, 1_000, 3_000, 13_000]);
        assert_eq!(p.cpu_us_per_op, (2.0 + 6.0) / 12.0);
        assert_eq!(p.pass_p50_over_q1, 1.0);
        let all = (17.0 * 78.0 + 70.0 + 2.0 * 34.0) / 240.0;
        assert!((p.all_over_quiet - all / (26.0 / 12.0)).abs() < 1e-9);
    }

    #[test]
    fn calibration_kernel_takes_measurable_time() {
        assert!(calib_kernel() > 0);
    }
}
