//! Dictionary cost and payoff per payload size class, in process: the
//! tables behind DESIGN.md §6 "Prepared dictionaries" and "Dictionary
//! training". Per class it prints the dictionary compress cost and the
//! ratio with and without the dictionary; per deck, what one `train`
//! over a full reservoir (64 samples) costs. It uses nothing newer than
//! `train` and `compress_with_dict`, so the same file builds at an older
//! commit; run it on both sides of a change to the dictionary path and
//! read the difference off the two tables.
//!
//! ```text
//! cargo run --release --example dict_xover [seed]
//! ```

use std::time::Instant;

use datacomp::codecs::dict::{train, Dictionary};
use datacomp::codecs::zstdx::Zstdx;
use datacomp::codecs::Compressor;
use datacomp::corpus::cache::{cache1_profile, generate_items};
use datacomp::corpus::orc::generate_blocks;
use datacomp::corpus::sst::generate_sst;

/// Size classes: upper bounds in bytes, the last one open.
const CLASSES: [usize; 7] = [256, 512, 1024, 2048, 4096, 16 << 10, usize::MAX];
/// The managed service's reservoir capacity and dictionary budget.
const RESERVOIR: usize = 64;
const DICT_SIZE: usize = 16 << 10;
/// What the service's reservoir keeps of a longer payload.
const WINDOW: usize = 4 * DICT_SIZE;

/// What one pass over `work` measured.
struct Row {
    us_per_item: f64,
    ratio: f64,
    plain_ratio: f64,
}

/// Fastest of five passes over `work`, microseconds per payload, plus
/// the ratios with and without the dictionary (identical every pass).
fn time(c: &Zstdx, work: &[(&[u8], &Dictionary)]) -> Row {
    let mut best = f64::MAX;
    let (mut bytes_in, mut bytes_out, mut plain_out) = (0usize, 0usize, 0usize);
    for pass in 0..5 {
        let t0 = Instant::now();
        for (payload, dict) in work {
            let frame = std::hint::black_box(c.compress_with_dict(payload, dict));
            if pass == 0 {
                assert_eq!(c.decompress_with_dict(&frame, dict).unwrap(), *payload);
                bytes_in += payload.len();
                bytes_out += frame.len();
            }
        }
        best = best.min(t0.elapsed().as_secs_f64() * 1e6 / work.len() as f64);
    }
    for (payload, _) in work {
        plain_out += c.compress(payload).len();
    }
    Row {
        us_per_item: best,
        ratio: bytes_in as f64 / bytes_out as f64,
        plain_ratio: bytes_in as f64 / plain_out as f64,
    }
}

/// What the `train` calls of one deck cost: samples and bytes read,
/// milliseconds taken.
struct Train {
    label: &'static str,
    samples: usize,
    bytes: usize,
    ms: f64,
}

impl Train {
    fn new(label: &'static str) -> Train {
        Train {
            label,
            samples: 0,
            bytes: 0,
            ms: 0.0,
        }
    }

    /// Trains on `samples`, adding the fastest of three runs to the tally.
    fn run(&mut self, samples: &[&[u8]], id: u32) -> Dictionary {
        let mut best = f64::MAX;
        let mut dict = None;
        for _ in 0..3 {
            let t0 = Instant::now();
            dict = Some(std::hint::black_box(train(samples, DICT_SIZE, id)));
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        self.samples += samples.len();
        self.bytes += samples.iter().map(|s| s.len()).sum::<usize>();
        self.ms += best;
        dict.expect("three runs")
    }
}

fn print_row(label: &str, items: usize, row: &Row, note: &str) {
    println!(
        "{label:<22} {items:>7} {:>10.2} {:>8.3} {:>9.3}{note}",
        row.us_per_item, row.ratio, row.plain_ratio
    );
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map_or(20823, |s| s.parse().expect("seed must be an integer"));
    let c = Zstdx::new(3);
    let mut cache_train = Train::new("cache1 items, all types");

    // CACHE1: one 16 KiB-budget dictionary per type, trained on the
    // first 64 items of the type (the managed service's reservoir size).
    let items = generate_items(&cache1_profile(), 12_000, seed);
    let dicts: Vec<Dictionary> = (0..cache1_profile().n_types as u32)
        .map(|t| {
            let samples: Vec<&[u8]> = items
                .iter()
                .filter(|i| i.type_id == t)
                .take(RESERVOIR)
                .map(|i| i.data.as_slice())
                .collect();
            cache_train.run(&samples, t)
        })
        .collect();
    println!(
        "{:<22} {:>7} {:>10} {:>8} {:>9}",
        "class", "items", "us/item", "ratio", "no dict"
    );
    let mut lo = 0usize;
    for hi in CLASSES {
        let work: Vec<(&[u8], &Dictionary)> = items
            .iter()
            .filter(|i| (lo..hi).contains(&i.data.len()))
            .map(|i| (i.data.as_slice(), &dicts[i.type_id as usize]))
            .filter(|(_, d)| !d.is_empty())
            .collect();
        if !work.is_empty() {
            let label = if hi == usize::MAX {
                format!("cache1 >= {lo} B")
            } else {
                format!("cache1 {lo}..{hi} B")
            };
            print_row(&label, work.len(), &time(&c, &work), "");
        }
        lo = hi;
    }

    // The two block shapes above any 16 KiB dictionary.
    let sst = generate_sst(2 << 20, seed);
    let sst_blocks: Vec<&[u8]> = sst.chunks_exact(16 << 10).collect();
    let mut sst_train = Train::new("sst 16 KiB blocks");
    let sst_dict = sst_train.run(&sst_blocks[..RESERVOIR], 100);
    let mut trains = vec![cache_train, sst_train];
    let work: Vec<(&[u8], &Dictionary)> = sst_blocks[RESERVOIR..]
        .iter()
        .map(|b| (*b, &sst_dict))
        .collect();
    let note = format!("   (dictionary {} B)", sst_dict.len());
    print_row("sst 16 KiB", work.len(), &time(&c, &work), &note);

    // Sixteen distinct blocks fill the 64 slots four times over, as the
    // warehouse deck does. The service used to keep them whole and now
    // keeps one window of each, so both sample sets are trained and the
    // held-out blocks are compressed with each.
    let orc = generate_blocks(24 * (256 << 10), seed);
    let orc_blocks: Vec<&[u8]> = orc
        .iter()
        .filter(|b| b.len() == 256 << 10)
        .map(Vec::as_slice)
        .collect();
    let (seen, held_out) = orc_blocks.split_at(16);
    let whole: Vec<&[u8]> = seen.iter().cycle().take(RESERVOIR).copied().collect();
    let windows: Vec<&[u8]> = whole
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let at = (i * 7919 * 64) % (b.len() - WINDOW);
            &b[at..at + WINDOW]
        })
        .collect();
    for (label, samples, id) in [
        ("orc 256 KiB blocks", &whole, 101),
        ("orc 64 KiB windows", &windows, 102),
    ] {
        let mut orc_train = Train::new(label);
        let dict = orc_train.run(samples, id);
        trains.push(orc_train);
        let work: Vec<(&[u8], &Dictionary)> = held_out.iter().map(|b| (*b, &dict)).collect();
        let note = format!("   (dictionary {} B from {label})", dict.len());
        print_row("orc 256 KiB", work.len(), &time(&c, &work), &note);
    }

    println!("\ntrain over full reservoirs, fastest of three");
    for t in &trains {
        println!(
            "{:<26} {:>4} samples {:>9} B {:>10.3} ms {:>8.1} MB/s",
            t.label,
            t.samples,
            t.bytes,
            t.ms,
            t.bytes as f64 / t.ms / 1e3
        );
    }
}
