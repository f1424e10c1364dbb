//! Differential decode contract: the checked fast-path engines
//! (wild LZ copies, word-at-a-time bit readers, multi-symbol entropy
//! tables) must be observationally identical to the reference decoders
//! that predate them — identical bytes on success, identical typed
//! error on failure — over both valid frames and the full faultline
//! injector matrix, and over every frame of the container fault table.
//! zstdx's engines are held to it on streaming frames too, which no
//! writer emits any more but which must still decode.

use datacomp::codecs::{lz4x::Lz4x, zlibx::Zlibx, zstdx::Zstdx};
use datacomp::codecs::{CodecError, Compressor, DecodeLimits, StreamPolicy};
use datacomp::faultline::{Injector, Rng};
use proptest::prelude::*;

#[path = "common/header_faults.rs"]
mod header_faults;
#[path = "common/streaming.rs"]
mod streaming;

type CompressFn = Box<dyn Fn(&[u8]) -> Vec<u8>>;
type DecodeFn = Box<dyn Fn(&[u8], &DecodeLimits) -> Result<Vec<u8>, CodecError>>;

struct Engine {
    name: &'static str,
    compress: CompressFn,
    fast: DecodeFn,
    reference: DecodeFn,
}

/// The three codecs, each exposed as (production fast decode,
/// reference slow decode). Checksums are enabled on the writer so bit
/// flips that survive framing still have to agree on the error kind.
fn engines() -> Vec<Engine> {
    vec![
        Engine {
            name: "lz4x",
            compress: Box::new(|d| Lz4x::new(6).with_checksum(true).compress(d)),
            fast: Box::new(|d, l| Lz4x::new(6).decompress_limited(d, l)),
            reference: Box::new(|d, l| Lz4x::new(6).decompress_reference(d, l)),
        },
        Engine {
            name: "zlibx",
            compress: Box::new(|d| Zlibx::new(6).with_checksum(true).compress(d)),
            fast: Box::new(|d, l| Zlibx::new(6).decompress_limited(d, l)),
            reference: Box::new(|d, l| Zlibx::new(6).decompress_reference(d, l)),
        },
        Engine {
            name: "zstdx",
            compress: Box::new(|d| Zstdx::new(3).with_checksum(true).compress(d)),
            fast: Box::new(|d, l| Zstdx::new(3).decompress_limited(d, l)),
            reference: Box::new(|d, l| Zstdx::new(3).decompress_reference(d, l)),
        },
        stream_engine(),
    ]
}

/// zstdx streaming frames (the removed writer's, as
/// `common/streaming.rs` models them), read by the two slice engines.
fn stream_engine() -> Engine {
    Engine {
        name: "zstdx-stream",
        compress: Box::new(|d| streaming::streaming_frame(d, 3)),
        fast: Box::new(|d, l| Zstdx::new(3).decompress_limited(d, l)),
        reference: Box::new(|d, l| Zstdx::new(3).decompress_reference(d, l)),
    }
}

/// Asserts the two engines agree on one input: equal bytes on `Ok`,
/// equal [`CodecError::kind`] on `Err`.
fn assert_agree(e: &Engine, input: &[u8], limits: &DecodeLimits, ctx: &str) {
    let fast = (e.fast)(input, limits);
    let slow = (e.reference)(input, limits);
    match (&fast, &slow) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{}: {ctx}: Ok bytes diverge", e.name),
        (Err(a), Err(b)) => assert_eq!(
            a.kind(),
            b.kind(),
            "{}: {ctx}: error kinds diverge ({a:?} vs {b:?})",
            e.name
        ),
        _ => panic!(
            "{}: {ctx}: fast={:?} reference={:?}",
            e.name,
            fast.as_ref().map(|v| v.len()),
            slow.as_ref().map(|v| v.len())
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Valid frames: both engines reproduce the input exactly — over a
    /// compressible input (LZ copy + entropy fast paths), an
    /// incompressible one (raw/stored block paths), and a literal-
    /// dominated one of at least 16 KiB, on which Auto writes v4
    /// multi-stream frames in zstdx and zlibx (asserted, not assumed).
    #[test]
    fn engines_agree_on_valid_frames(
        compressible in proptest::collection::vec(0u8..16, 0..4096),
        incompressible in proptest::collection::vec(any::<u8>(), 0..2048),
        literal_heavy in proptest::collection::vec(
            // Symbol k of 40 drawn with weight 2k + 1.
            (0u32..1600).prop_map(|r| f64::from(r).sqrt() as u8),
            (16 << 10)..(20 << 10),
        ),
    ) {
        let limits = DecodeLimits::default();
        for (data, v4) in [(&compressible, false), (&incompressible, false), (&literal_heavy, true)] {
            for e in engines() {
                let frame = (e.compress)(data);
                if v4 {
                    match e.name {
                        "zstdx" | "zstdx-stream" => {
                            prop_assert_ne!(frame[4] & 8, 0, "zstdx frame not v4")
                        }
                        "zlibx" => prop_assert_ne!(frame[1] & 1, 0, "zlibx frame not v4"),
                        _ => {}
                    }
                }
                let out = (e.fast)(&frame, &limits);
                prop_assert_eq!(&out.expect("valid frame"), data, "{}", e.name);
                assert_agree(&e, &frame, &limits, "valid frame");
            }
        }
    }

    /// Corrupted frames (full injector matrix): identical outcome —
    /// same bytes or same typed error — on every variant.
    #[test]
    fn engines_agree_on_corrupted_frames(
        data in proptest::collection::vec(0u8..24, 64..1536),
        seed in any::<u64>(),
    ) {
        let limits = DecodeLimits::default();
        for e in engines() {
            let frame = (e.compress)(&data);
            for inj in Injector::ALL {
                let rng = Rng::new(seed ^ 0xd1ff);
                for (vi, variant) in inj.corrupt(&frame, &rng, 6).iter().enumerate() {
                    assert_agree(&e, variant, &limits, &format!("{inj} variant {vi}"));
                }
            }
        }
    }

    /// zstdx's four-stream literal section under the injector matrix.
    /// Skewed, literal-dominated payloads of 4 KiB and up (13 to 40
    /// symbols, as `multistream_entropy` draws them): the `Auto` frame
    /// differs from the `Single` one, so it carries `LIT_HUFFMAN4`, and
    /// every corrupted variant of it decodes alike through both engines.
    #[test]
    fn zstdx_engines_agree_on_corrupted_four_stream_literals(
        len in (4usize << 10)..(12 << 10),
        alphabet in 13u32..=40,
        seed in any::<u32>(),
    ) {
        let mut x = seed | 1;
        let data: Vec<u8> = (0..len)
            .map(|_| {
                x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
                ((x >> 16) % alphabet) as u8
            })
            .collect();
        let single = Zstdx::new(3).with_checksum(true).with_stream_policy(StreamPolicy::Single);
        let e = engines().into_iter().find(|e| e.name == "zstdx").unwrap();
        let frame = (e.compress)(&data);
        prop_assert_ne!(&frame, &single.compress(&data), "no four-stream section");
        let limits = DecodeLimits::default();
        assert_agree(&e, &frame, &limits, "valid frame");
        for inj in Injector::ALL {
            let rng = Rng::new(u64::from(seed) ^ 0x4157);
            for (vi, variant) in inj.corrupt(&frame, &rng, 8).iter().enumerate() {
                assert_agree(&e, variant, &limits, &format!("{inj} variant {vi}"));
            }
        }
    }

    /// Every strict prefix of a valid frame: the engines fail with the
    /// same error kind at every cut point.
    #[test]
    fn engines_agree_on_every_truncation(
        data in proptest::collection::vec(0u8..16, 1..512),
    ) {
        let limits = DecodeLimits::default();
        for e in engines() {
            let frame = (e.compress)(&data);
            for k in 0..frame.len() {
                assert_agree(&e, &frame[..k], &limits, &format!("prefix {k}"));
            }
        }
    }

    /// Tight output budgets: both engines respect `DecodeLimits`
    /// identically (the limit check is part of the shared contract, not
    /// the per-engine inner loop).
    #[test]
    fn engines_agree_under_tight_limits(
        data in proptest::collection::vec(0u8..16, 2..2048),
        divisor in 1usize..5,
    ) {
        for e in engines() {
            let frame = (e.compress)(&data);
            let tight = DecodeLimits::with_max_output((data.len() / divisor).max(1));
            assert_agree(&e, &frame, &tight, &format!("limit/{divisor}"));
        }
    }
}

/// Multi-block streaming frames — history across blocks, the last-block
/// marker after full ones — compressible and literal-heavy, and the
/// empty and one-byte ones: both engines reproduce the input. A
/// streaming header declares v4 up front, so the literal-heavy frame
/// shows it holds v4 blocks by failing to decode once the bit is
/// cleared.
#[test]
fn stream_readers_agree_on_multi_block_frames() {
    let (e, limits) = (stream_engine(), DecodeLimits::default());
    let mut x = 0x2545_f491u32;
    let literal_heavy = (0..200 << 10).map(|_| {
        x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
        f64::from((x >> 16) % 1600).sqrt() as u8
    });
    let compressible = b"row 000123 | row 004567 | ".repeat(12_000);
    for (data, v4) in [(compressible, false), (literal_heavy.collect(), true)] {
        let mut frame = (e.compress)(&data);
        assert_eq!((e.fast)(&frame, &limits).unwrap(), data);
        assert_agree(&e, &frame, &limits, "multi-block frame");
        frame[4] &= !8;
        assert_eq!((e.fast)(&frame, &limits).is_err(), v4, "v4 blocks: {v4}");
    }
    for data in [&b""[..], b"x"] {
        let frame = (e.compress)(data);
        assert_eq!(frame[4] & 4, 4, "a streaming frame");
        assert_eq!((e.fast)(&frame, &limits).unwrap(), data);
        assert_agree(&e, &frame, &limits, "short frame");
    }
}

/// Flag bits flipped and bytes appended (`common/header_faults.rs`):
/// the engines agree on every case. What each case must decode to is
/// `fault_injection::flag_bit_flips_and_appended_bytes_are_typed_errors`.
#[test]
fn engines_agree_on_header_faults() {
    let (engines, limits) = (engines(), DecodeLimits::default());
    for case in header_faults::cases() {
        let e = engines.iter().find(|e| e.name == case.algo.name()).unwrap();
        assert_agree(e, &case.frame, &limits, &case.what);
    }
}

/// A block size written `85 00` — five, with a redundant zero group —
/// is corrupt to both engines.
#[test]
fn stream_readers_agree_on_an_overlong_varint() {
    let mut frame = vec![0x5a, 0x53, 0x58, 0x44, 0x04, 0x80, 0x05, 0x85, 0x00];
    frame.extend_from_slice(b"hello");
    let (e, limits) = (stream_engine(), DecodeLimits::default());
    assert_agree(&e, &frame, &limits, "overlong varint");
    let err = (e.reference)(&frame, &limits).unwrap_err();
    assert_eq!(err.kind(), "corrupt");
}
