//! The shape of zstdx's parse on the three served decks: the table behind
//! DESIGN.md §6 "A priced level-3 parse". Per deck and level it prints
//! sequences per KB of input split by match length (3 / 4 / 5–8 / 9–16 /
//! 17+) and offset class (a repeat-offset code / < 1 KiB / 1–16 KiB /
//! ≥ 16 KiB), the share of input bytes matched, the frame ratio and the
//! fastest of three compress passes.
//!
//! Each deck is parsed the way the managed service serves it: a 16 KiB
//! dictionary trained on the first 64 payloads (per type for CACHE1,
//! 64 KiB windows of whole blocks for ORC) is the history of every
//! held-out payload, attached as a prepared index when the block is no
//! longer than the dictionary, and offsets are classed by the same
//! three-slot repeat history the encoder codes them with. It uses
//! nothing newer than the public `lzkit` parse and the `zstdx` level
//! table, so it builds at older commits too: run it on both sides of a
//! match-finder change and read the difference off the two tables.
//!
//! ```text
//! cargo run --release --example parse_shape [seed]
//! ```

use std::time::Instant;

use datacomp::codecs::codes::RepHistory;
use datacomp::codecs::dict::{train, Dictionary};
use datacomp::codecs::zstdx::{Zstdx, BLOCK_SIZE};
use datacomp::codecs::Compressor;
use datacomp::corpus::cache::{cache1_profile, generate_items};
use datacomp::corpus::orc::generate_blocks;
use datacomp::corpus::sst::generate_sst;
use datacomp::lzkit::{parse_with_prefix, PrefixIndex};

const LEVELS: [i32; 3] = [1, 3, 7];
/// The managed service's reservoir capacity and dictionary budget.
const RESERVOIR: usize = 64;
const DICT_SIZE: usize = 16 << 10;
/// What the service's reservoir keeps of a longer payload.
const WINDOW: usize = 4 * DICT_SIZE;

const LEN_CLASSES: [&str; 5] = ["3", "4", "5-8", "9-16", "17+"];
const OFF_CLASSES: [&str; 4] = ["rep", "<1K", "1-16K", ">=16K"];

fn len_class(len: u32) -> usize {
    match len {
        0..=3 => 0,
        4 => 1,
        5..=8 => 2,
        9..=16 => 3,
        _ => 4,
    }
}

fn off_class(offset: u32, rep: bool) -> usize {
    match offset {
        _ if rep => 0,
        0..1024 => 1,
        1024..16384 => 2,
        _ => 3,
    }
}

/// A dictionary with the index a compress attaches.
struct Prepared {
    dict: Dictionary,
    index: PrefixIndex,
}

impl Prepared {
    fn train(samples: &[&[u8]], id: u32) -> Prepared {
        let dict = train(samples, DICT_SIZE, id);
        let index = PrefixIndex::build(dict.as_bytes());
        Prepared { dict, index }
    }
}

/// What one deck parsed into at one level.
#[derive(Default)]
struct Shape {
    cells: [[u64; 4]; 5],
    sequences: u64,
    matched: u64,
    bytes: u64,
    frame_bytes: u64,
    compress_us: f64,
}

fn shape(level: i32, work: &[(&[u8], &Prepared)]) -> Shape {
    let c = Zstdx::new(level);
    let params = *c.params();
    let mut s = Shape::default();
    for (payload, prep) in work {
        let base = prep.dict.len();
        let buf = [prep.dict.as_bytes(), payload].concat();
        let mut start = base;
        while start < buf.len() {
            let end = (start + BLOCK_SIZE).min(buf.len());
            // The attach gate of `Zstdx::compress_with_dict`.
            let index = (end - start <= base).then_some(&prep.index);
            let block = parse_with_prefix(&buf[..end], start, &params, index);
            // The encoder restarts its repeat history every block.
            let mut reps = RepHistory::default();
            for q in &block.sequences {
                let rep = reps.encode(q.offset).is_some();
                s.cells[len_class(q.match_len)][off_class(q.offset, rep)] += 1;
                s.sequences += 1;
                s.matched += u64::from(q.match_len);
            }
            start = end;
        }
        s.bytes += payload.len() as u64;
        let frame = c.compress_with_dict(payload, &prep.dict);
        assert_eq!(
            c.decompress_with_dict(&frame, &prep.dict).unwrap(),
            *payload
        );
        s.frame_bytes += frame.len() as u64;
    }
    let mut best = f64::MAX;
    for _ in 0..3 {
        let t0 = Instant::now();
        for (payload, prep) in work {
            std::hint::black_box(c.compress_with_dict(payload, &prep.dict));
        }
        best = best.min(t0.elapsed().as_secs_f64() * 1e6 / work.len() as f64);
    }
    s.compress_us = best;
    s
}

fn print(deck: &str, level: i32, s: &Shape) {
    let kb = s.bytes as f64 / 1024.0;
    println!(
        "\n{deck} l{level}: {:.1} sequences/KB, mean match {:.2} B, {:.3} of input matched, \
         ratio {:.4}, {:.2} us/compress",
        s.sequences as f64 / kb,
        s.matched as f64 / s.sequences.max(1) as f64,
        s.matched as f64 / s.bytes as f64,
        s.bytes as f64 / s.frame_bytes as f64,
        s.compress_us,
    );
    print!("{:<8}", "len\\off");
    for o in OFF_CLASSES {
        print!("{o:>8}");
    }
    println!("{:>8}", "all");
    let per_kb = |n: u64| n as f64 / kb;
    for (l, row) in LEN_CLASSES.iter().zip(&s.cells) {
        print!("{l:<8}");
        for &n in row {
            print!("{:>8.1}", per_kb(n));
        }
        println!("{:>8.1}", per_kb(row.iter().sum()));
    }
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map_or(200, |s| s.parse().expect("seed must be an integer"));

    // CACHE1: one dictionary per type from the type's first 64 items.
    let items = generate_items(&cache1_profile(), 4000, seed);
    let cache_dicts: Vec<Prepared> = (0..cache1_profile().n_types as u32)
        .map(|t| {
            let samples: Vec<&[u8]> = items
                .iter()
                .filter(|i| i.type_id == t)
                .take(RESERVOIR)
                .map(|i| i.data.as_slice())
                .collect();
            Prepared::train(&samples, t)
        })
        .collect();
    let mut seen = vec![0usize; cache_dicts.len()];
    let cache: Vec<(&[u8], &Prepared)> = items
        .iter()
        .filter(|i| {
            seen[i.type_id as usize] += 1;
            seen[i.type_id as usize] > RESERVOIR
        })
        .map(|i| (i.data.as_slice(), &cache_dicts[i.type_id as usize]))
        .collect();

    // SST: 16 KiB blocks, the first 64 train.
    let sst_bytes = generate_sst(2 << 20, seed);
    let sst_blocks: Vec<&[u8]> = sst_bytes.chunks_exact(16 << 10).collect();
    let sst_dict = Prepared::train(&sst_blocks[..RESERVOIR], 100);
    let sst: Vec<(&[u8], &Prepared)> = sst_blocks[RESERVOIR..]
        .iter()
        .map(|b| (*b, &sst_dict))
        .collect();

    // ORC: sixteen blocks fill the reservoir four times over with one
    // window each, as the warehouse deck does; eight more are held out.
    let orc_blocks: Vec<Vec<u8>> = generate_blocks(24 * (256 << 10), seed)
        .into_iter()
        .filter(|b| b.len() == 256 << 10)
        .collect();
    let (train_on, held_out) = orc_blocks.split_at(16);
    let windows: Vec<&[u8]> = train_on
        .iter()
        .cycle()
        .take(RESERVOIR)
        .enumerate()
        .map(|(i, b)| {
            let at = (i * 7919 * 64) % (b.len() - WINDOW);
            &b[at..at + WINDOW]
        })
        .collect();
    let orc_dict = Prepared::train(&windows, 101);
    let orc: Vec<(&[u8], &Prepared)> = held_out
        .iter()
        .take(8)
        .map(|b| (b.as_slice(), &orc_dict))
        .collect();

    println!("zstdx parse shape, seed {seed}; cells are sequences per KB of input");
    for (deck, work) in [("CACHE1", &cache), ("SST", &sst), ("ORC", &orc)] {
        for level in LEVELS {
            print(deck, level, &shape(level, work));
        }
    }
}
