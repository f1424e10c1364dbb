//! Multi-threaded frame compression (zstdmt-style job splitting).
//!
//! The input is cut into independent 128 KiB blocks compressed on worker
//! threads; blocks do not back-reference earlier blocks, trading a
//! little ratio (no cross-block matches) for near-linear speedup. Each
//! worker runs the codec's own block writer, with all of its settings
//! (checksum, repeat offsets, stream policy), and the frame container
//! writes the frame around the blocks, so the output is the frame the serial
//! writer would produce for the same blocks; on one block, it is that
//! frame byte for byte.
//!
//! This is the software analogue of the paper's observation (§II-C) that
//! compression work is a prime offload target: the per-block independence
//! introduced here is exactly what parallel hardware engines need too.

use crate::zstdx::{Zstdx, BLOCK_SIZE};
use crate::{container, Algorithm};

/// Compresses `src` with `threads` workers into a standard zstdx frame.
///
/// With `threads == 1` this still goes through the block-independent
/// path, which isolates the ratio cost of independence from the speedup
/// (the ablation bench uses exactly that).
///
/// # Errors
///
/// Returns [`crate::CodecError::InvalidConfig`] if `threads == 0`.
pub fn compress_parallel(codec: &Zstdx, src: &[u8], threads: usize) -> crate::Result<Vec<u8>> {
    if threads == 0 {
        return Err(crate::CodecError::InvalidConfig(
            "compress_parallel requires at least one worker thread",
        ));
    }
    let blocks: Vec<&[u8]> = src.chunks(BLOCK_SIZE).collect();
    let per_worker = blocks.len().div_ceil(threads).max(1);

    let encoded: Vec<(Vec<u8>, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = blocks
            .chunks(per_worker)
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|block| {
                            let mut b = Vec::with_capacity(block.len() / 2 + 64);
                            let v4 = codec.write_block(block, 0, None, &mut b, None);
                            (b, v4)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("compression workers do not panic"))
            .collect()
    });
    let frame = container::write_frame(Algorithm::Zstdx, src, codec.checksum, None, |out| {
        encoded.iter().fold(false, |any_v4, (b, v4)| {
            out.extend_from_slice(b);
            any_v4 | v4
        })
    });
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Compressor;

    fn sample(n: usize) -> Vec<u8> {
        (0..n / 16 + 1)
            .flat_map(|i| format!("blk {:08x} data ", i * 37).into_bytes())
            .take(n)
            .collect()
    }

    #[test]
    fn parallel_frames_decode_with_standard_decoder() {
        // ~6 blocks of text, and 3 of literal-heavy bytes that the
        // codec's `Auto` policy lays out as v4 blocks.
        let z = Zstdx::new(3);
        for (data, v4) in [
            (sample(700_000), false),
            (literal_heavy(3 * BLOCK_SIZE + 1000), true),
        ] {
            for threads in [1, 2, 4, 7] {
                let frame = compress_parallel(&z, &data, threads).unwrap();
                assert!(!v4 || Algorithm::Zstdx.frame_header(&frame).unwrap().v4);
                assert_eq!(z.decompress(&frame).unwrap(), data, "threads={threads}");
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_output() {
        // Deterministic: partitioning differs but the block stream is
        // identical regardless of worker count.
        let data = sample(500_000);
        let z = Zstdx::new(2);
        let a = compress_parallel(&z, &data, 1).unwrap();
        let b = compress_parallel(&z, &data, 4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn independence_costs_bounded_ratio() {
        // Cross-block matches are lost; on realistic data the loss is a
        // few percent, never a blowup.
        // Representative service data (mostly block-local redundancy).
        let data = corpus::sst::generate_sst(1 << 20, 3);
        let z = Zstdx::new(3);
        let chained = z.compress(&data).len();
        let independent = compress_parallel(&z, &data, 4).unwrap().len();
        assert!(
            independent as f64 >= chained as f64 * 0.99,
            "independence should not beat chaining on block-spanning data: {independent} vs {chained}"
        );
        assert!(
            (independent as f64) < chained as f64 * 1.15,
            "independence cost too high: {independent} vs {chained}"
        );
    }

    #[test]
    fn adversarial_periodic_data_stays_bounded() {
        // Exactly-periodic data is a known greedy-parse blind spot: the
        // chained parse prefers slightly-longer far matches whose offset
        // diversity defeats repeat-offset coding, so independence can
        // *win* here. Pin the behavior so a regression (in either
        // direction) is visible.
        let data = sample(1_000_000);
        let z = Zstdx::new(3);
        let chained = z.compress(&data).len();
        let independent = compress_parallel(&z, &data, 4).unwrap().len();
        assert!((independent as f64) < chained as f64 * 1.15);
        assert!((independent as f64) > chained as f64 * 0.5);
    }

    #[test]
    fn small_inputs_work() {
        let z = Zstdx::new(1);
        for data in [vec![], b"x".to_vec(), sample(1000)] {
            let frame = compress_parallel(&z, &data, 8).unwrap();
            assert_eq!(z.decompress(&frame).unwrap(), data);
        }
    }

    #[test]
    fn zero_threads_is_an_error_not_a_panic() {
        let z = Zstdx::new(3);
        let err = compress_parallel(&z, b"payload", 0).unwrap_err();
        assert_eq!(err.kind(), "invalid_config");
    }

    /// Skewed bytes over 40 symbols: literal-dominated, so `Auto` lays
    /// blocks out in the v4 multi-stream layout.
    fn literal_heavy(n: usize) -> Vec<u8> {
        let lcg = |x: &u32| Some(x.wrapping_mul(1_103_515_245).wrapping_add(12_345));
        let states = std::iter::successors(lcg(&0x2545_f491), lcg);
        states
            .take(n)
            .map(|x| f64::from((x >> 16) % 1600).sqrt() as u8)
            .collect()
    }

    /// On one block there is no cross-block history to lose, so the
    /// parallel frame is the serial frame, under every codec setting.
    #[test]
    fn one_block_equals_the_serial_frame() {
        let codecs = [
            Zstdx::new(3),
            Zstdx::new(3).with_checksum(false),
            Zstdx::new(3).with_rep_offsets(false),
            Zstdx::new(3).with_stream_policy(crate::StreamPolicy::Single),
        ];
        let inputs = [
            Vec::new(),
            b"x".to_vec(),
            sample(1000),
            sample(BLOCK_SIZE),
            literal_heavy(20 << 10),
        ];
        for (ci, z) in codecs.iter().enumerate() {
            for data in &inputs {
                for threads in [1, 4] {
                    assert_eq!(
                        compress_parallel(z, data, threads).unwrap(),
                        z.compress(data),
                        "codec {ci}, {} bytes, {threads} threads",
                        data.len()
                    );
                }
            }
        }
    }

    #[test]
    fn empty_input_produces_a_well_formed_frame() {
        let z = Zstdx::new(3);
        let frame = compress_parallel(&z, &[], 4).unwrap();
        assert_eq!(z.decompress(&frame).unwrap(), Vec::<u8>::new());
        // And it matches what the serial compressor-independent layout
        // promises: a checksummed header of zero content size.
        let header = Algorithm::Zstdx.frame_header(&frame).unwrap();
        assert!(header.checksum && !header.v4 && header.content == 0);
        assert_eq!(frame.len(), 4 + 1 + 1 + 4, "magic, flags, size, checksum");
    }
}
