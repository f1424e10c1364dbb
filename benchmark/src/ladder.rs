//! The outside-in layer ladder: each layer below the server is timed
//! in this process, through its public functions, on the same deck and
//! lap order the daemon was served. Subtracting neighbouring rungs
//! gives each layer's self time, so what the rungs do not explain shows
//! up as a number (`codecs.self_us_per_op`) instead of hiding.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use codecs::codes::{ll_code, ml_code, of_code, MAX_LL_CODE, MAX_ML_CODE, OF_ALPHABET};
use codecs::lz4x::Lz4x;
use codecs::zlibx::Zlibx;
use codecs::zstdx::Zstdx;
use codecs::{Compressor, DecodeLimits};
use entropy::fse::FseTable;
use entropy::hist::{byte_histogram, symbol_histogram};
use entropy::huffman::HuffmanTable;
use lzkit::ParsedBlock;
use managed::{ManagedCompression, ManagedConfig};
use server::protocol::{self, Op, Request, Response, Status};

use crate::deck::{Deck, Workload, TENANT, WARMUP_LAPS};
use crate::measure::Pass;
use crate::served::Segment;
use crate::spans::Recorder;
use crate::stats::ratio;

/// The level the daemon serves at, and its smallest match.
const LEVEL: i32 = 3;
const ZSTDX_MIN_MATCH: u32 = 3;
/// Times the stateless rungs traverse the deck; the fastest traversal
/// is the quiet one.
const TRAVERSALS: usize = 4;
/// Iterations per timed batch of a telemetry primitive.
pub const TELEMETRY_BATCH: u64 = 20_000;

/// Component totals of one traversal of the deck, in nanoseconds.
type Totals = Vec<u64>;

/// The components of the quiet traversal — the one whose components
/// sum to the least — divided by `ops` per traversal: mean nanoseconds
/// per op, per component.
fn quiet_means(passes: &[Totals], ops: usize) -> Vec<f64> {
    let quiet = passes.iter().min_by_key(|p| p.iter().sum::<u64>());
    quiet
        .into_iter()
        .flatten()
        .map(|&total| ratio(total as f64, ops as f64))
        .collect()
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Instant, Instant) {
    let t0 = Instant::now();
    let out = f();
    (out, t0, Instant::now())
}

/// What the `managed` rung measured.
pub struct ManagedRound {
    pub passes: Vec<Pass>,
    pub retrain_ns: u64,
    pub retrain_max_ns: u64,
    pub versions_trained: u64,
    pub passthrough_frames: u64,
}

/// Replays the served laps against an in-process `ManagedCompression`
/// configured as the daemon configures its tenants.
pub fn managed_round(
    workload: &Workload,
    deck: &Deck,
    rec: &mut Recorder,
) -> Result<ManagedRound, String> {
    let mut svc = ManagedCompression::new(ManagedConfig::default());
    // Read after every compress to spot the calls that retrained, so it
    // must cost an atomic load, not a registry snapshot between two
    // timed calls (which is what `stats()` takes).
    let trained: BTreeMap<&str, _> = deck
        .use_cases()
        .into_iter()
        .map(|case| {
            let labels = [("use_case", case)];
            let counter = svc.telemetry().counter("managed.versions_trained", &labels);
            (case, counter)
        })
        .collect();
    let mut round = ManagedRound {
        passes: Vec::new(),
        retrain_ns: 0,
        retrain_max_ns: 0,
        versions_trained: 0,
        passthrough_frames: 0,
    };
    // The daemon was warmed by the cold start; warm this one the same.
    for lap in 0..WARMUP_LAPS {
        let card = deck.card(lap);
        svc.compress(&card.use_case, &card.payload)
            .map_err(|e| format!("managed warm-up compress: {e}"))?;
    }
    rec.open("ladder.managed", 0);
    for pass_no in 0..workload.ladder_passes {
        let mut pass = Pass::new();
        rec.open("ladder.pass", pass_no as u64);
        for first_lap in (0..workload.laps_per_pass).step_by(workload.segment_laps) {
            let mut segment = Segment::default();
            for lap in first_lap..first_lap + workload.segment_laps {
                let card = deck.card(lap);
                let versions = &trained[card.use_case.as_str()];
                let before = versions.get();
                let (frame, t0, t1) = timed(|| svc.compress(&card.use_case, &card.payload));
                let frame = frame.map_err(|e| format!("managed compress on lap {lap}: {e}"))?;
                rec.leaf("managed.call.compress", lap as u64, t0, t1);
                let ns = (t1 - t0).as_nanos() as u64;
                segment.compress_ns.push(ns);
                segment.compress_time_ns += ns;
                segment.compress_ops += 1;
                let raised = versions.get() - before;
                if raised > 0 {
                    segment.retrains += raised;
                    round.retrain_ns += ns;
                    round.retrain_max_ns = round.retrain_max_ns.max(ns);
                }
                for _ in 0..workload.reads {
                    let (back, t0, t1) = timed(|| svc.decompress(&card.use_case, &frame));
                    rec.leaf("managed.call.decompress", lap as u64, t0, t1);
                    if back.as_deref() != Ok(card.payload.as_slice()) {
                        return Err(format!("managed round trip differs on lap {lap}"));
                    }
                    let ns = (t1 - t0).as_nanos() as u64;
                    segment.decompress_ns.push(ns);
                    segment.decompress_time_ns += ns;
                    segment.decompress_ops += 1;
                }
            }
            // Time inside the layer, not the harness's own bookkeeping
            // between calls.
            segment.wall_ns = segment.compress_time_ns + segment.decompress_time_ns;
            pass.push(segment);
        }
        rec.close();
        round.passes.push(pass);
    }
    rec.close();
    for case in deck.use_cases() {
        if let Some(s) = svc.stats(case) {
            round.versions_trained += u64::from(s.versions_trained);
            round.passthrough_frames += s.passthrough;
        }
    }
    Ok(round)
}

/// What the `codecs` rung measured, and the frames it made (the
/// protocol rung frames them again).
pub struct CodecsRound {
    pub compress_ns_per_op: f64,
    pub decompress_ns_per_op: f64,
    pub match_find_share: f64,
    pub dict_train_ms: f64,
    pub frames: Vec<Vec<u8>>,
}

/// `zstdx` level 3 with one dictionary trained from the deck's first 64
/// payloads: the codec call underneath `managed`, without its
/// bookkeeping.
pub fn codecs_round(
    workload: &Workload,
    deck: &Deck,
    rec: &mut Recorder,
) -> Result<CodecsRound, String> {
    let cfg = ManagedConfig::default();
    let samples: Vec<&[u8]> = deck
        .cards
        .iter()
        .take(cfg.reservoir_capacity)
        .map(|c| c.payload.as_slice())
        .collect();
    rec.open("ladder.codecs", 0);
    let (dict, t0, t1) = timed(|| codecs::dict::train(&samples, cfg.dict_size, 1));
    rec.leaf("codecs.call.dict_train", 0, t0, t1);
    let dict_train_ms = (t1 - t0).as_secs_f64() * 1e3;
    let zstdx = Zstdx::new(LEVEL);
    let mut passes = Vec::new();
    let mut frames = Vec::new();
    for _ in 0..TRAVERSALS {
        let mut totals = vec![0u64; 2];
        frames.clear();
        for (lap, card) in deck.cards.iter().enumerate() {
            let (frame, t0, t1) = timed(|| zstdx.compress_with_dict(&card.payload, &dict));
            rec.leaf("codecs.call.compress", lap as u64, t0, t1);
            totals[0] += (t1 - t0).as_nanos() as u64;
            for _ in 0..workload.reads {
                let (back, t0, t1) = timed(|| zstdx.decompress_with_dict(&frame, &dict));
                rec.leaf("codecs.call.decompress", lap as u64, t0, t1);
                if back.as_deref() != Ok(card.payload.as_slice()) {
                    return Err(format!("zstdx dictionary round trip differs on card {lap}"));
                }
                totals[1] += (t1 - t0).as_nanos() as u64;
            }
            frames.push(frame);
        }
        passes.push(totals);
    }
    // The stage split comes from its own traversal: the timed variant
    // reads the clock inside the codec, which the rows above must not
    // pay for.
    let mut stages = codecs::timing::StageTiming::default();
    for card in &deck.cards {
        let (_, timing) = zstdx.compress_with_dict_timed(&card.payload, &dict);
        stages.accumulate(&timing);
    }
    rec.close();
    let means = quiet_means(&passes, deck.cards.len());
    Ok(CodecsRound {
        compress_ns_per_op: means[0],
        decompress_ns_per_op: means[1] / workload.reads as f64,
        match_find_share: stages.match_find_fraction(),
        dict_train_ms,
        frames,
    })
}

/// One ledger row: a codec without a dictionary over the whole deck.
pub struct PlainRow {
    pub compress_mb_s: f64,
    pub decompress_mb_s: f64,
    pub ratio: f64,
}

/// `lz4x` level 1, `zlibx` level 6 and `zstdx` level 3 without a
/// dictionary — the algorithm × data ledger. The daemon serves only
/// `zstdx`, so the other two rows move no end-to-end metric.
pub fn plain_rows(deck: &Deck) -> Result<[PlainRow; 3], String> {
    let codecs: [Box<dyn Compressor>; 3] = [
        Box::new(Lz4x::new(1)),
        Box::new(Zlibx::new(6)),
        Box::new(Zstdx::new(LEVEL)),
    ];
    let mut rows = Vec::new();
    for codec in &codecs {
        let mut passes = Vec::new();
        let mut frame_bytes = 0usize;
        for _ in 0..TRAVERSALS {
            let mut totals = vec![0u64; 2];
            frame_bytes = 0;
            for card in &deck.cards {
                let (frame, t0, t1) = timed(|| codec.compress(&card.payload));
                totals[0] += (t1 - t0).as_nanos() as u64;
                let (back, t0, t1) = timed(|| codec.decompress(&frame));
                totals[1] += (t1 - t0).as_nanos() as u64;
                if back.as_deref() != Ok(card.payload.as_slice()) {
                    return Err(format!("{} round trip differs", codec.name()));
                }
                frame_bytes += frame.len();
            }
            passes.push(totals);
        }
        // Nanoseconds per deck, so bytes / ns * 1e3 is MB/s.
        let means = quiet_means(&passes, 1);
        rows.push(PlainRow {
            compress_mb_s: ratio(deck.bytes() as f64 * 1e3, means[0]),
            decompress_mb_s: ratio(deck.bytes() as f64 * 1e3, means[1]),
            ratio: ratio(deck.bytes() as f64, frame_bytes as f64),
        });
    }
    rows.try_into()
        .map_err(|_| "three codecs, three rows".to_string())
}

/// What the `lzkit` rung measured, and its parses (the `entropy` rung
/// codes their literals and sequence codes).
pub struct LzkitRound {
    pub parse_ns_per_op: f64,
    pub reconstruct_ns_per_op: f64,
    pub sequences_per_kb: f64,
    pub match_coverage: f64,
    pub blocks: Vec<ParsedBlock>,
}

/// Match finding alone, with the parameters `zstdx` level 3 uses.
pub fn lzkit_round(deck: &Deck, rec: &mut Recorder) -> Result<LzkitRound, String> {
    let zstdx = Zstdx::new(LEVEL);
    let mut passes = Vec::new();
    let mut blocks = Vec::new();
    rec.open("ladder.lzkit", 0);
    for _ in 0..TRAVERSALS {
        let mut totals = vec![0u64; 2];
        blocks.clear();
        for (lap, card) in deck.cards.iter().enumerate() {
            let params = zstdx.params().shrunk_for_input(card.payload.len());
            let (block, t0, t1) = timed(|| lzkit::parse(&card.payload, 0, &params));
            rec.leaf("lzkit.call.parse", lap as u64, t0, t1);
            totals[0] += (t1 - t0).as_nanos() as u64;
            let (back, t0, t1) = timed(|| lzkit::reconstruct(&block, &[]));
            rec.leaf("lzkit.call.reconstruct", lap as u64, t0, t1);
            totals[1] += (t1 - t0).as_nanos() as u64;
            if back.as_deref() != Ok(card.payload.as_slice()) {
                return Err(format!("lzkit parse does not reconstruct card {lap}"));
            }
            blocks.push(block);
        }
        passes.push(totals);
    }
    rec.close();
    let means = quiet_means(&passes, deck.cards.len());
    let sequences: usize = blocks.iter().map(|b| b.sequences.len()).sum();
    let matched: f64 = blocks
        .iter()
        .map(|b| b.match_coverage() * b.decoded_len() as f64)
        .sum();
    Ok(LzkitRound {
        parse_ns_per_op: means[0],
        reconstruct_ns_per_op: means[1],
        sequences_per_kb: ratio(sequences as f64 * 1024.0, deck.bytes() as f64),
        match_coverage: ratio(matched, deck.bytes() as f64),
        blocks,
    })
}

/// Mean nanoseconds per compressed payload in each entropy primitive.
pub struct EntropyRound {
    pub huffman_build: f64,
    pub huffman_encode: f64,
    pub huffman_decode: f64,
    pub fse_build: f64,
    pub fse_encode: f64,
    pub fse_decode: f64,
    pub literal_bytes_per_op: f64,
}

/// The entropy primitives on exactly what the parse above hands the
/// codec: Huffman over each block's literals, FSE over its
/// literal-length, match-length and offset codes.
pub fn entropy_round(blocks: &[ParsedBlock], rec: &mut Recorder) -> Result<EntropyRound, String> {
    let mut passes = Vec::new();
    rec.open("ladder.entropy", 0);
    for _ in 0..TRAVERSALS {
        let mut totals = vec![0u64; 6];
        for (lap, block) in blocks.iter().enumerate() {
            let lap = lap as u64;
            let mut add = |rec: &mut Recorder, slot: usize, name, t0: Instant, t1: Instant| {
                rec.leaf(name, lap, t0, t1);
                totals[slot] += (t1 - t0).as_nanos() as u64;
            };

            let lits = &block.literals;
            let (table, t0, t1) = timed(|| HuffmanTable::build(&byte_histogram(lits), 11));
            add(rec, 0, "entropy.call.huffman_build", t0, t1);
            if let Some(table) = table {
                let (coded, t0, t1) = timed(|| table.encode(lits));
                add(rec, 1, "entropy.call.huffman_encode", t0, t1);
                let (back, t0, t1) = timed(|| table.decode_fast(&coded, lits.len()));
                add(rec, 2, "entropy.call.huffman_decode", t0, t1);
                if back.as_deref() != Ok(lits.as_slice()) {
                    return Err("huffman round trip differs".into());
                }
            }

            let seqs = &block.sequences;
            let lanes: [(Vec<u16>, usize); 3] = [
                (
                    seqs.iter().map(|s| ll_code(s.literal_len).into()).collect(),
                    MAX_LL_CODE as usize + 1,
                ),
                (
                    seqs.iter()
                        .map(|s| ml_code(s.match_len.saturating_sub(ZSTDX_MIN_MATCH)).into())
                        .collect(),
                    MAX_ML_CODE as usize + 1,
                ),
                (
                    seqs.iter()
                        .map(|s| of_code(s.offset.max(1)).into())
                        .collect(),
                    OF_ALPHABET,
                ),
            ];
            for (codes, alphabet) in &lanes {
                if codes.is_empty() {
                    continue;
                }
                let (table, t0, t1) = timed(|| {
                    FseTable::from_frequencies(&symbol_histogram(codes, *alphabet), 9, codes.len())
                });
                add(rec, 3, "entropy.call.fse_build", t0, t1);
                // A lane with one distinct code has no table to build;
                // the codec ships it as a run.
                let Ok(table) = table else { continue };
                let (coded, t0, t1) = timed(|| table.encode(codes));
                add(rec, 4, "entropy.call.fse_encode", t0, t1);
                let (back, t0, t1) = timed(|| table.decode_fast(&coded, codes.len()));
                add(rec, 5, "entropy.call.fse_decode", t0, t1);
                if back.as_deref() != Ok(codes.as_slice()) {
                    return Err("fse round trip differs".into());
                }
            }
        }
        passes.push(totals);
    }
    rec.close();
    let means = quiet_means(&passes, blocks.len());
    let literal_bytes: usize = blocks.iter().map(|b| b.literals.len()).sum();
    Ok(EntropyRound {
        huffman_build: means[0],
        huffman_encode: means[1],
        huffman_decode: means[2],
        fse_build: means[3],
        fse_encode: means[4],
        fse_decode: means[5],
        literal_bytes_per_op: ratio(literal_bytes as f64, blocks.len() as f64),
    })
}

/// Nanoseconds per call of the telemetry primitives every served
/// request pays: `[counter_inc, window_observe, request_ctx]`.
pub fn telemetry_round(rec: &mut Recorder) -> [f64; 3] {
    let mut passes = Vec::new();
    rec.open("ladder.telemetry", 0);
    for pass_no in 0..TRAVERSALS as u64 {
        let mut totals = vec![0u64; 3];
        let (_, t0, t1) = timed(|| {
            for _ in 0..TELEMETRY_BATCH {
                telemetry::global()
                    .counter(
                        "bench.requests",
                        &[("tenant", TENANT), ("op", "compress"), ("status", "ok")],
                    )
                    .inc();
            }
        });
        rec.leaf("telemetry.call.counter_inc", pass_no, t0, t1);
        totals[0] = (t1 - t0).as_nanos() as u64;
        let (_, t0, t1) = timed(|| {
            for i in 0..TELEMETRY_BATCH {
                telemetry::windows()
                    .histogram("bench.request.nanos", &[("tenant", TENANT)])
                    .observe(black_box(20_000 + i));
            }
        });
        rec.leaf("telemetry.call.window_observe", pass_no, t0, t1);
        totals[1] = (t1 - t0).as_nanos() as u64;
        let (_, t0, t1) = timed(|| {
            for _ in 0..TELEMETRY_BATCH {
                drop(black_box(telemetry::requests().open(
                    "bench",
                    telemetry::Op::Compress,
                    256,
                )));
            }
        });
        rec.leaf("telemetry.call.request_ctx", pass_no, t0, t1);
        totals[2] = (t1 - t0).as_nanos() as u64;
        passes.push(totals);
    }
    rec.close();
    let means = quiet_means(&passes, TELEMETRY_BATCH as usize);
    [means[0], means[1], means[2]]
}

/// Nanoseconds per op spent framing: every request and response of a
/// lap encoded and parsed back over an in-memory cursor, which is the
/// protocol's share of a served call without the socket.
pub fn protocol_round(
    workload: &Workload,
    deck: &Deck,
    frames: &[Vec<u8>],
    rec: &mut Recorder,
) -> Result<f64, String> {
    let limits = DecodeLimits::default();
    let echo = |op: Op, use_case: &str, sent: &[u8], answer: &[u8]| -> Result<(), String> {
        let mut wire = Vec::new();
        let req = Request {
            op,
            tenant: TENANT.into(),
            use_case: use_case.into(),
            payload: sent.to_vec(),
        };
        protocol::encode_request(&mut wire, &req).map_err(|e| e.to_string())?;
        let got =
            protocol::read_request(&mut wire.as_slice(), &limits).map_err(|e| e.to_string())?;
        let resp = Response {
            status: Status::Ok,
            payload: answer.to_vec(),
        };
        wire.clear();
        protocol::encode_response(&mut wire, &resp);
        let back =
            protocol::read_response(&mut wire.as_slice(), &limits).map_err(|e| e.to_string())?;
        if got.as_ref() != Some(&req) || back != resp {
            return Err("protocol round trip differs".into());
        }
        Ok(())
    };
    let mut passes = Vec::new();
    rec.open("ladder.protocol", 0);
    for _ in 0..TRAVERSALS {
        let (done, t0, t1) = timed(|| {
            for (card, frame) in deck.cards.iter().zip(frames) {
                echo(Op::Compress, &card.use_case, &card.payload, frame)?;
                for _ in 0..workload.reads {
                    echo(Op::Decompress, &card.use_case, frame, &card.payload)?;
                }
            }
            Ok::<(), String>(())
        });
        done?;
        rec.leaf("server.call.protocol", 0, t0, t1);
        passes.push(vec![(t1 - t0).as_nanos() as u64]);
    }
    rec.close();
    Ok(quiet_means(&passes, deck.cards.len() * workload.ops_per_lap())[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_means_pool_the_fastest_traversal_per_component() {
        // Four traversals of 10 ops: the quiet one totals 100.
        let passes = vec![vec![300, 300], vec![60, 40], vec![500, 100], vec![70, 50]];
        assert_eq!(quiet_means(&passes, 10), vec![6.0, 4.0]);
        assert_eq!(quiet_means(&[], 10), Vec::<f64>::new());
    }

    /// Every rung runs on a real deck, verifies its own round trips and
    /// reports the counts the interaction table relies on.
    #[test]
    fn rungs_run_and_verify_on_the_sst_deck() {
        let workload = Workload {
            ladder_passes: 1,
            ..*Workload::by_name("sst_block").unwrap()
        };
        let mut deck = Deck::build(&workload, 5);
        deck.cards.truncate(8);
        let workload = Workload {
            laps_per_pass: 8,
            ..workload
        };
        let mut rec = Recorder::new(true);
        rec.open("bench.run", 0);

        let codecs = codecs_round(&workload, &deck, &mut rec).unwrap();
        assert_eq!(codecs.frames.len(), 8);
        assert!(codecs.compress_ns_per_op > codecs.decompress_ns_per_op);
        assert!((0.0..=1.0).contains(&codecs.match_find_share));

        let lz = lzkit_round(&deck, &mut rec).unwrap();
        assert_eq!(lz.blocks.len(), 8);
        assert!(lz.match_coverage > 0.3 && lz.match_coverage < 1.0);
        let ent = entropy_round(&lz.blocks, &mut rec).unwrap();
        assert!(ent.literal_bytes_per_op > 0.0 && ent.huffman_encode > 0.0);
        assert!(ent.fse_decode > 0.0);

        let plain = plain_rows(&deck).unwrap();
        assert!(plain.iter().all(|r| r.ratio > 1.0 && r.compress_mb_s > 0.0));
        assert!(protocol_round(&workload, &deck, &codecs.frames, &mut rec).unwrap() > 0.0);
        assert!(telemetry_round(&mut rec).iter().all(|&ns| ns > 0.0));
        rec.close();
        let roots = rec
            .spans()
            .iter()
            .filter(|s| s.parent == crate::spans::NO_PARENT)
            .count();
        assert_eq!(roots, 1, "the ladder's spans hang off one run");
    }

    #[test]
    fn managed_rung_counts_one_retrain_per_sst_pass() {
        let workload = Workload {
            ladder_passes: 2,
            ..*Workload::by_name("sst_block").unwrap()
        };
        let deck = Deck::build(&workload, 5);
        let round = managed_round(&workload, &deck, &mut Recorder::new(false)).unwrap();
        assert_eq!(round.passes.len(), 2);
        for pass in &round.passes {
            assert_eq!(pass.len(), 128 / workload.segment_laps);
            // The retrain falls on the same lap of every pass: the
            // eighth.
            let at = 7 / workload.segment_laps;
            for (s, segment) in pass.iter().enumerate() {
                assert_eq!(segment.retrains, u64::from(s == at), "segment {s}");
            }
        }
        assert_eq!(round.versions_trained, 1 + 2);
        assert_eq!(round.passthrough_frames, 0);
        assert!(round.retrain_max_ns > 0);
    }
}
