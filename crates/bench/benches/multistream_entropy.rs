//! Microbenchmark for the entropy hot loops: isolates the 1- and
//! 4-stream Huffman literal decode and the single-state FSE decode from
//! the codec wrappers, so reader/loop changes can be attributed before
//! they show up (diluted) in `decode_guard`.

use std::time::Instant;

use benchkit::{print_table, Scale};
use entropy::fse::FseTable;
use entropy::hist::{byte_histogram, normalize_counts, symbol_histogram};
use entropy::huffman::HuffmanTable;

fn skewed_bytes(n: usize, alphabet: u32, seed: u32) -> Vec<u8> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            ((x >> 16) % alphabet) as u8
        })
        .collect()
}

fn mbps(bytes: usize, iters: usize, f: impl Fn()) -> f64 {
    f(); // warm
    let mut rounds: Vec<f64> = (0..7)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            bytes as f64 * iters as f64 / t0.elapsed().as_secs_f64() / 1e6
        })
        .collect();
    rounds.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    rounds[rounds.len() / 2]
}

fn main() {
    let scale = Scale::from_env();
    let n = scale.pick(4 << 20, 512 << 10);
    let iters = scale.pick(20, 5);
    let data = skewed_bytes(n, 13, 0x2545_f491);

    let freqs = byte_histogram(&data);
    let table = HuffmanTable::build(&freqs, 11).expect("multi-symbol alphabet");
    let single = table.encode(&data);
    let quad = table.encode_4stream(&data);
    let quad_refs = [
        quad[0].as_slice(),
        quad[1].as_slice(),
        quad[2].as_slice(),
        quad[3].as_slice(),
    ];

    let mut rows = Vec::new();
    let h1 = mbps(n, iters, || {
        std::hint::black_box(table.decode_fast(&single, data.len()).unwrap());
    });
    rows.push(vec![
        "huffman decode_fast (1 stream)".into(),
        format!("{h1:.1}"),
    ]);
    let h4 = mbps(n, iters, || {
        std::hint::black_box(table.decode_4stream_fast(quad_refs, data.len()).unwrap());
    });
    rows.push(vec![
        "huffman decode_4stream_fast".into(),
        format!("{h4:.1}"),
    ]);

    // FSE over a sequence-code-shaped alphabet.
    let symbols: Vec<u16> = data.iter().map(|&b| (b % 24) as u16).collect();
    let hist = symbol_histogram(&symbols, 24);
    let norm = normalize_counts(&hist, 9).expect("normalizable");
    let fse = FseTable::from_normalized(&norm, 9).expect("valid table");
    let enc1 = fse.encode(&symbols);
    let f1 = mbps(n, iters.min(8), || {
        std::hint::black_box(fse.decode(&enc1, symbols.len()).unwrap());
    });
    rows.push(vec!["fse decode (1-state)".into(), format!("{f1:.1}")]);

    print_table(
        &format!("multi-stream entropy hot loops ({n} bytes)"),
        &["loop", "MB/s"],
        &rows,
    );
}
