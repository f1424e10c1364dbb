//! Scratch experiment: Single-vs-Auto decode throughput per corpus
//! class, used to recalibrate the Auto stream-policy thresholds. Two
//! tables follow it: one- against four-stream Huffman literal decode by
//! literal-section size, and, per 128 KiB block of the served ORC deck
//! (`cargo run --release --example policy_xover [seed]`, default 200),
//! its literal share, the layout zstdx's `Auto` gate picks and both
//! literal decoders' speed on its literals.

use std::time::Instant;

use datacomp::codecs::dict::train;
use datacomp::codecs::zstdx::BLOCK_SIZE;
use datacomp::codecs::{zlibx::Zlibx, zstdx::Zstdx, Compressor, StreamPolicy};
use datacomp::corpus::orc::generate_blocks;
use datacomp::corpus::silesia::FileClass;
use datacomp::entropy::hist::byte_histogram;
use datacomp::entropy::huffman::HuffmanTable;
use datacomp::lzkit::parse_with_prefix;

fn mbps(comp: &dyn Compressor, data: &[u8], iters: usize) -> f64 {
    let frame = comp.compress(data);
    for _ in 0..2 {
        assert_eq!(comp.decompress(&frame).unwrap().len(), data.len());
    }
    let mut best = 0.0f64;
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(comp.decompress(&frame).unwrap());
        }
        let v = data.len() as f64 * iters as f64 / t0.elapsed().as_secs_f64() / 1e6;
        best = best.max(v);
    }
    best
}

/// MB/s of the one- and four-stream fast literal decoders on `lits`,
/// each the fastest of nine, through the table zstdx would build.
fn literal_mbps(lits: &[u8]) -> Option<(f64, f64)> {
    let built = HuffmanTable::build(&byte_histogram(lits), 11)?;
    let table = HuffmanTable::from_lengths(built.lengths()).expect("built lengths");
    let one = table.encode(lits);
    let four = table.encode_4stream(lits);
    let bufs = [&four[0][..], &four[1][..], &four[2][..], &four[3][..]];
    let best = |f: &dyn Fn()| {
        let reps = (1 << 20) / lits.len().max(1) + 1;
        (0..9)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..reps {
                    f();
                }
                (lits.len() * reps) as f64 / t0.elapsed().as_secs_f64() / 1e6
            })
            .fold(0.0, f64::max)
    };
    let single = best(&|| {
        std::hint::black_box(table.decode_fast(&one, lits.len()).unwrap());
    });
    let quad = best(&|| {
        std::hint::black_box(table.decode_4stream_fast(bufs, lits.len()).unwrap());
    });
    Some((single, quad))
}

/// Literal decode by section size, on bytes over 40 symbols drawn with
/// weight `2k + 1` (the differential tests' literal-heavy shape).
fn literal_sizes() {
    let mut x = 0x2545_f491u32;
    let pool: Vec<u8> = (0..64 << 10)
        .map(|_| {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            f64::from((x >> 16) % 1600).sqrt() as u8
        })
        .collect();
    println!(
        "{:>8} {:>10} {:>10} {:>8}",
        "literals", "1-stream", "4-stream", "delta"
    );
    for n in [256usize, 512, 1024, 2048, 4096, 16 << 10, 64 << 10] {
        let (single, quad) = literal_mbps(&pool[..n]).expect("40 symbols");
        println!(
            "{n:>8} {single:>10.1} {quad:>10.1} {:>+7.1}%",
            (quad / single - 1.0) * 100.0
        );
    }
}

/// Per block of the served ORC deck: the eight held-out 256 KiB payloads
/// parsed at level 3 against a 16 KiB dictionary trained on 64 KiB
/// windows of the sixteen before them, as `parse_shape` builds it.
fn orc_blocks(seed: u64) {
    let blocks: Vec<Vec<u8>> = generate_blocks(24 * (256 << 10), seed)
        .into_iter()
        .filter(|b| b.len() == 256 << 10)
        .collect();
    let (train_on, held_out) = blocks.split_at(16);
    let windows: Vec<&[u8]> = train_on
        .iter()
        .cycle()
        .take(64)
        .enumerate()
        .map(|(i, b)| {
            let at = (i * 7919 * 64) % (b.len() - (64 << 10));
            &b[at..at + (64 << 10)]
        })
        .collect();
    let dict = train(&windows, 16 << 10, 101);
    let params = *Zstdx::new(3).params();
    println!(
        "ORC seed {seed}: {:>5} {:>8} {:>6} {:>7} {:>10} {:>10}",
        "block", "literals", "share", "Auto", "1-stream", "4-stream"
    );
    for (p, payload) in held_out.iter().take(8).enumerate() {
        let mut history = dict.as_bytes().to_vec();
        for (b, block) in payload.chunks(BLOCK_SIZE).enumerate() {
            let start = history.len();
            history.extend_from_slice(block);
            // The dictionary is history; `compress_with_dict` attaches its
            // index only to blocks no longer than the dictionary.
            let lits = parse_with_prefix(&history, start, &params, None).literals;
            let share = lits.len() as f64 / block.len() as f64;
            // `Auto`'s gate: at least 1 KiB of literals, half the block.
            let four = lits.len() >= 1024 && lits.len() * 2 >= block.len();
            let (single, quad) = literal_mbps(&lits).unwrap_or((0.0, 0.0));
            println!(
                "{:>17} {:>8} {share:>6.3} {:>7} {single:>10.1} {quad:>10.1}",
                format!("{p}.{b}"),
                lits.len(),
                if four { "4" } else { "1" },
            );
        }
    }
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map_or(200, |s| s.parse().expect("seed must be an integer"));
    let per_class = 256 << 10;
    // Literal fraction per class at zlibx level 6 (64 KiB blocks).
    let z6 = Zlibx::new(6);
    for class in FileClass::ALL {
        let data = datacomp::corpus::silesia::generate(class, per_class, 0x5157);
        let params = z6.params().expect("level 6 has params");
        let mut fracs = Vec::new();
        let mut start = 0usize;
        while start < data.len() {
            let end = (start + 64 * 1024).min(data.len());
            let block = datacomp::lzkit::parse(&data[..end], start, params);
            fracs.push(block.literals.len() as f64 / (end - start) as f64);
            start = end;
        }
        let mean = fracs.iter().sum::<f64>() / fracs.len() as f64;
        let min = fracs.iter().cloned().fold(f64::MAX, f64::min);
        let max = fracs.iter().cloned().fold(f64::MIN, f64::max);
        println!("litfrac {class:?}: mean {mean:.3} min {min:.3} max {max:.3}");
    }
    println!(
        "{:<12} {:>10} {:>10} {:>8}",
        "class", "single", "auto", "delta"
    );
    for codec in ["zlibx", "zstdx"] {
        let mut mixed = Vec::new();
        for (i, class) in FileClass::ALL.into_iter().enumerate() {
            let data = datacomp::corpus::silesia::generate(class, per_class, 0x5157 + i as u64);
            mixed.extend_from_slice(&data);
            let (s, q): (Box<dyn Compressor>, Box<dyn Compressor>) = match codec {
                "zlibx" => (
                    Box::new(Zlibx::new(6).with_stream_policy(StreamPolicy::Single)),
                    Box::new(Zlibx::new(6).with_stream_policy(StreamPolicy::Auto)),
                ),
                _ => (
                    Box::new(Zstdx::new(3).with_stream_policy(StreamPolicy::Single)),
                    Box::new(Zstdx::new(3).with_stream_policy(StreamPolicy::Auto)),
                ),
            };
            let ms = mbps(s.as_ref(), &data, 6);
            let mq = mbps(q.as_ref(), &data, 6);
            println!(
                "{codec:<6}{:<12} {ms:>10.1} {mq:>10.1} {:>+7.1}%",
                format!("{class:?}"),
                (mq / ms - 1.0) * 100.0
            );
        }
        let (s, q): (Box<dyn Compressor>, Box<dyn Compressor>) = match codec {
            "zlibx" => (
                Box::new(Zlibx::new(6).with_stream_policy(StreamPolicy::Single)),
                Box::new(Zlibx::new(6).with_stream_policy(StreamPolicy::Auto)),
            ),
            _ => (
                Box::new(Zstdx::new(3).with_stream_policy(StreamPolicy::Single)),
                Box::new(Zstdx::new(3).with_stream_policy(StreamPolicy::Auto)),
            ),
        };
        let ms = mbps(s.as_ref(), &mixed, 4);
        let mq = mbps(q.as_ref(), &mixed, 4);
        println!(
            "{codec:<6}{:<12} {ms:>10.1} {mq:>10.1} {:>+7.1}%",
            "MIXED",
            (mq / ms - 1.0) * 100.0
        );
    }
    literal_sizes();
    orc_blocks(seed);
}
