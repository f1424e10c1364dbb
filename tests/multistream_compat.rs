//! Cross-version compatibility contract for the multi-stream entropy
//! format (v4): frames written by pre-v4 encoders — modeled exactly by
//! `StreamPolicy::Single`, which byte-for-byte reproduces the legacy
//! writers — must keep decoding on current engines, sub-threshold Auto
//! frames must stay byte-identical to legacy output, the v4 format bit
//! must gate the new block types in both directions, and a flag bit a
//! decoder does not know fails the frame on its header, so the next
//! format bit is rejected cleanly by the decoders that predate it.

use datacomp::codecs::{zlibx::Zlibx, zstdx::Zstdx};
use datacomp::codecs::{Algorithm, CodecError, Compressor, DecodeLimits, StreamPolicy};

fn corpus() -> Vec<Vec<u8>> {
    vec![
        Vec::new(),
        b"abc".to_vec(),
        vec![7u8; 4096],
        (0..50_000u32).map(|i| (i % 97) as u8).collect(),
        (0..200_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect(),
    ]
}

/// Frames from a single-stream ("old") encoder decode on both current
/// engines and never carry the v4 version bit.
#[test]
fn old_single_stream_frames_decode_on_current_engines() {
    let limits = DecodeLimits::default();
    for data in corpus() {
        let zs = Zstdx::new(3)
            .with_stream_policy(StreamPolicy::Single)
            .compress(&data);
        assert_eq!(zs[4] & 8, 0, "zstdx Single frame must not set FLAG_V4");
        assert_eq!(
            Zstdx::new(3).decompress_limited(&zs, &limits).unwrap(),
            data
        );
        assert_eq!(
            Zstdx::new(3).decompress_reference(&zs, &limits).unwrap(),
            data
        );

        let zl = Zlibx::new(6)
            .with_stream_policy(StreamPolicy::Single)
            .compress(&data);
        assert_eq!(
            zl[1] & 0x01,
            0,
            "zlibx Single frame must not set v4 magic bit"
        );
        assert_eq!(
            Zlibx::new(6).decompress_limited(&zl, &limits).unwrap(),
            data
        );
        assert_eq!(
            Zlibx::new(6).decompress_reference(&zl, &limits).unwrap(),
            data
        );
    }
}

/// Below the Auto split thresholds the default encoder emits frames
/// byte-identical to the legacy single-stream writer, so existing
/// golden frames and old decoders are unaffected by the upgrade.
#[test]
fn auto_policy_is_byte_identical_to_legacy_below_threshold() {
    for n in [0usize, 1, 64, 512, 1023] {
        let data: Vec<u8> = (0..n).map(|i| (i % 7) as u8).collect();
        let auto = Zstdx::new(3).compress(&data);
        let single = Zstdx::new(3)
            .with_stream_policy(StreamPolicy::Single)
            .compress(&data);
        assert_eq!(auto, single, "zstdx n={n}");
    }
    for n in [0usize, 1, 63, 1024, 16_383] {
        let data: Vec<u8> = (0..n).map(|i| (i % 11) as u8).collect();
        let auto = Zlibx::new(6).compress(&data);
        let single = Zlibx::new(6)
            .with_stream_policy(StreamPolicy::Single)
            .compress(&data);
        assert_eq!(auto, single, "zlibx n={n}");
    }
}

/// Skewed pseudo-random bytes over a 40-symbol alphabet (symbol `k`
/// drawn with weight `2k + 1`): Huffman-compressible literals with few
/// matches, so Auto takes the v4 layout in both codecs once a block
/// spans at least 16 KiB (zstdx splits from 1.5 KiB).
fn literal_heavy(n: usize) -> Vec<u8> {
    let mut x = 0x2545f491u32;
    (0..n)
        .map(|_| {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            f64::from((x >> 16) % 1600).sqrt() as u8
        })
        .collect()
}

/// Auto's four-stream frames round-trip through both engines across
/// levels; each frame is checked to carry the v4 bit rather than
/// assumed to.
#[test]
fn v4_frames_roundtrip_on_both_engines() {
    let limits = DecodeLimits::default();
    for n in [16 << 10, 100_000] {
        let data = literal_heavy(n);
        for level in [1, 3, 9] {
            let zs = Zstdx::new(level).compress(&data);
            assert_ne!(zs[4] & 8, 0, "zstdx l{level} n={n} must set FLAG_V4");
            assert_eq!(
                Zstdx::new(level).decompress_limited(&zs, &limits).unwrap(),
                data
            );
            assert_eq!(
                Zstdx::new(level)
                    .decompress_reference(&zs, &limits)
                    .unwrap(),
                data
            );

            let zl = Zlibx::new(level).compress(&data);
            assert_ne!(zl[1] & 0x01, 0, "zlibx l{level} n={n} must set the v4 bit");
            assert_eq!(
                Zlibx::new(level).decompress_limited(&zl, &limits).unwrap(),
                data
            );
            assert_eq!(
                Zlibx::new(level)
                    .decompress_reference(&zl, &limits)
                    .unwrap(),
                data
            );
        }
    }
}

/// Clearing the version bit on a frame that contains multi-stream
/// blocks makes both engines reject it with an error — the new block
/// types are unreachable for decoders that predate v4.
#[test]
fn v4_blocks_require_the_version_bit() {
    let limits = DecodeLimits::default();
    let data = literal_heavy(100_000);

    let mut zs = Zstdx::new(3).compress(&data);
    assert_ne!(zs[4] & 8, 0, "literal-heavy Auto frame must set FLAG_V4");
    zs[4] &= !8;
    assert!(Zstdx::new(3).decompress_limited(&zs, &limits).is_err());
    assert!(Zstdx::new(3).decompress_reference(&zs, &limits).is_err());

    let mut zl = Zlibx::new(6).compress(&data);
    assert_ne!(
        zl[1] & 0x01,
        0,
        "literal-heavy Auto frame must set the v4 magic bit"
    );
    zl[1] &= !0x01;
    assert!(Zlibx::new(6).decompress_limited(&zl, &limits).is_err());
    assert!(Zlibx::new(6).decompress_reference(&zl, &limits).is_err());
}

/// A flag bit the codec does not know fails the frame on its header:
/// the frame cut right after its flag byte fails the same way as the
/// whole frame, with `BadFrame`, so no block is read. The bits are the
/// next free zstdx flag, a zlibx magic bit, and zlibx's v4 bit on an
/// lz4x frame, whose codec has no v4 layout.
#[test]
fn unknown_flag_bits_fail_on_the_header() {
    let data = literal_heavy(16 << 10);
    for (algo, at, bit) in [
        (Algorithm::Zstdx, 4, 0x10),
        (Algorithm::Zlibx, 1, 0x02),
        (Algorithm::Lz4x, 1, 0x01),
    ] {
        let codec = algo.compressor(6);
        let mut frame = codec.compress(&data);
        frame[at] ^= bit;
        for cut in [&frame[..], &frame[..=at]] {
            assert!(
                matches!(codec.decompress(cut), Err(CodecError::BadFrame(_))),
                "{algo}: bit {bit:#04x}, {} bytes",
                cut.len()
            );
        }
    }
}
