//! Scratch experiment: Single-vs-Auto decode throughput per corpus
//! class, used to recalibrate the Auto stream-policy thresholds.

use std::time::Instant;

use datacomp::codecs::{zlibx::Zlibx, zstdx::Zstdx, Compressor, StreamPolicy};
use datacomp::corpus::silesia::FileClass;

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

fn main() {
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
}
