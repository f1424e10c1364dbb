//! Dictionary-compress cost per payload size class, in process: the
//! table behind DESIGN.md §6 "Prepared dictionaries". It uses nothing
//! newer than `compress_with_dict`, so the same file builds at an older
//! commit; run it on both sides of a change to the dictionary path and
//! read the crossover off the two tables.
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

/// Fastest of five passes over `work`, microseconds per payload, plus
/// the ratio of the pass (identical every pass).
fn time(c: &Zstdx, work: &[(&[u8], &Dictionary)]) -> (f64, f64) {
    let mut best = f64::MAX;
    let (mut bytes_in, mut bytes_out) = (0usize, 0usize);
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
    (best, bytes_in as f64 / bytes_out as f64)
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map_or(20823, |s| s.parse().expect("seed must be an integer"));
    let c = Zstdx::new(3);

    // CACHE1: one 16 KiB-budget dictionary per type, trained on the
    // first 64 items of the type (the managed service's reservoir size).
    let items = generate_items(&cache1_profile(), 12_000, seed);
    let dicts: Vec<Dictionary> = (0..cache1_profile().n_types as u32)
        .map(|t| {
            let samples: Vec<&[u8]> = items
                .iter()
                .filter(|i| i.type_id == t)
                .take(64)
                .map(|i| i.data.as_slice())
                .collect();
            train(&samples, 16 << 10, t)
        })
        .collect();
    println!(
        "{:<22} {:>7} {:>10} {:>8}",
        "class", "items", "us/item", "ratio"
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
            let (us, ratio) = time(&c, &work);
            let label = if hi == usize::MAX {
                format!("cache1 >= {lo} B")
            } else {
                format!("cache1 {lo}..{hi} B")
            };
            println!("{label:<22} {:>7} {us:>10.2} {ratio:>8.3}", work.len());
        }
        lo = hi;
    }

    // The two block shapes above any 16 KiB dictionary.
    let sst = generate_sst(2 << 20, seed);
    let sst_blocks: Vec<&[u8]> = sst.chunks_exact(16 << 10).collect();
    let sst_dict = train(&sst_blocks[..64], 16 << 10, 100);
    let work: Vec<(&[u8], &Dictionary)> =
        sst_blocks[64..].iter().map(|b| (*b, &sst_dict)).collect();
    let (us, ratio) = time(&c, &work);
    println!(
        "{:<22} {:>7} {us:>10.2} {ratio:>8.3}   (dictionary {} B)",
        "sst 16 KiB",
        work.len(),
        sst_dict.len()
    );

    let orc = generate_blocks(8 * (256 << 10), seed);
    let orc_blocks: Vec<&[u8]> = orc
        .iter()
        .filter(|b| b.len() == 256 << 10)
        .map(Vec::as_slice)
        .collect();
    let orc_dict = train(&orc_blocks[..2], 16 << 10, 101);
    let work: Vec<(&[u8], &Dictionary)> = orc_blocks[2..].iter().map(|b| (*b, &orc_dict)).collect();
    let (us, ratio) = time(&c, &work);
    println!(
        "{:<22} {:>7} {us:>10.2} {ratio:>8.3}   (dictionary {} B)",
        "orc 256 KiB",
        work.len(),
        orc_dict.len()
    );
}
