//! Tier-1 fault-injection suite: the decode contract over hostile input.
//!
//! Complements the unit tests inside `codecs` and `faultline` with
//! cross-crate sweeps: every-prefix truncation per codec, checksum
//! detection of payload corruption, the full injector × codec × corpus
//! sweep at fixed seeds, a sweep over multi-block zstdx streaming
//! frames, and the frame container's header and end-of-frame rules.

use codecs::{Algorithm, CodecError, DecodeLimits};
use faultline::{check_decode, sweep, Injector, Outcome, Rng, SweepConfig};

#[path = "common/header_faults.rs"]
mod header_faults;
#[path = "common/streaming.rs"]
mod streaming;

fn corpus_blocks(size: usize) -> Vec<Vec<u8>> {
    corpus::silesia::FileClass::ALL
        .into_iter()
        .enumerate()
        .map(|(i, c)| corpus::silesia::generate(c, size, 0x5157 + i as u64))
        .collect()
}

/// `decompress(&compressed[..k])` for *every* prefix `k` must return
/// `Err` — never panic, never succeed on a strict prefix.
#[test]
fn every_prefix_truncation_errors_not_panics() {
    let input = corpus::silesia::generate(corpus::silesia::FileClass::Text, 4 << 10, 0x77);
    for algo in Algorithm::ALL {
        for comp in [algo.compressor(3), algo.compressor_checked(3)] {
            let frame = comp.compress(&input);
            for k in 0..frame.len() {
                let result = comp.decompress(&frame[..k]);
                assert!(
                    result.is_err(),
                    "{}: prefix of {k}/{} bytes decoded Ok",
                    comp.name(),
                    frame.len()
                );
            }
            // The full frame still decodes.
            assert_eq!(comp.decompress(&frame).unwrap(), input);
        }
    }
}

/// With content checksums on, flipping any payload byte must be
/// detected — `Ok` with wrong bytes is the one forbidden outcome.
#[test]
fn checksummed_frames_detect_payload_corruption() {
    let input = corpus::silesia::generate(corpus::silesia::FileClass::Log, 8 << 10, 0xc4ec);
    for algo in Algorithm::ALL {
        let comp = algo.compressor_checked(3);
        let frame = comp.compress(&input);
        let mut checksum_hits = 0usize;
        // Flip one byte at a time, sampling every 7th position for speed.
        for pos in (0..frame.len()).step_by(7) {
            let mut bad = frame.clone();
            bad[pos] ^= 0x10;
            match comp.decompress(&bad) {
                Err(CodecError::ChecksumMismatch { .. }) => checksum_hits += 1,
                Err(_) => {}
                Ok(out) => assert_eq!(
                    out,
                    input,
                    "{}: silent corruption from byte flip at {pos}",
                    comp.name()
                ),
            }
        }
        assert!(
            checksum_hits > 0,
            "{}: no corruption reached the checksum stage — is the checksum wired in?",
            comp.name()
        );
    }
}

/// The full sweep (all injectors × all codecs × all corpus classes) at
/// the pinned seed: zero panics, zero silent corruptions.
#[test]
fn sweep_all_injectors_all_codecs_zero_violations() {
    let blocks = corpus_blocks(16 << 10);
    let cfg = SweepConfig {
        seed: 0x5157,
        budget_per_block: 32,
        level: 3,
        checksums: true,
    };
    let report = sweep(&blocks, &Injector::ALL, Algorithm::ALL.as_ref(), &cfg);
    assert!(
        report.total_cases() > 1000,
        "sweep too small to be meaningful"
    );
    assert_eq!(
        report.violations(),
        0,
        "decode-contract violations:\n{}",
        report.render_table()
    );
}

/// Two and a quarter blocks of text as a streaming frame (history
/// across blocks, the last-block marker after full ones), every
/// corrupted variant decoded under the input's size as the budget: the
/// original bytes or an error, never a panic or wrong bytes.
#[test]
fn sweep_over_multi_block_streaming_frames_finds_no_violations() {
    let size = 2 * codecs::zstdx::BLOCK_SIZE + (32 << 10);
    let block = corpus::silesia::generate(corpus::silesia::FileClass::Text, size, 0xfa04);
    let frame = streaming::streaming_frame(&block, 3);
    let comp = codecs::zstdx::Zstdx::new(3);
    let limits = DecodeLimits::with_max_output(size);
    let mut cases = 0;
    for (i, inj) in Injector::ALL.into_iter().enumerate() {
        let rng = Rng::new(0x5157).derive(i as u64);
        for variant in inj.corrupt(&frame, &rng, 16) {
            let (outcome, _) = check_decode(&comp, &variant, &block, &limits);
            assert!(
                matches!(outcome, Outcome::ErrorDetected | Outcome::OkIntact),
                "{inj}: {outcome:?}"
            );
            cases += 1;
        }
    }
    assert!(cases > 0);
}

/// Checksum verification is frame-driven, not constructor-driven: a
/// decoder built without `with_checksum(true)` must still verify (and a
/// checksum-configured decoder must still accept plain frames). The
/// frame header alone decides whether a trailer is present and checked,
/// and clearing its checksum bit leaves 4 bytes after the frame, an
/// error, not an unchecked decode.
#[test]
fn checksum_verification_follows_the_frame_not_the_constructor() {
    use codecs::Compressor;
    let input = corpus::silesia::generate(corpus::silesia::FileClass::Xml, 8 << 10, 0x31c5);
    let pairs: [(Box<dyn Compressor>, Box<dyn Compressor>); 3] = [
        (
            Box::new(codecs::lz4x::Lz4x::new(6).with_checksum(true)),
            Box::new(codecs::lz4x::Lz4x::new(6).with_checksum(false)),
        ),
        (
            Box::new(codecs::zlibx::Zlibx::new(6).with_checksum(true)),
            Box::new(codecs::zlibx::Zlibx::new(6).with_checksum(false)),
        ),
        (
            Box::new(codecs::zstdx::Zstdx::new(3).with_checksum(true)),
            Box::new(codecs::zstdx::Zstdx::new(3).with_checksum(false)),
        ),
    ];
    for (checked, plain) in &pairs {
        // Every (writer config, reader config) combination round-trips.
        for writer in [checked, plain] {
            let frame = writer.compress(&input);
            for reader in [checked, plain] {
                assert_eq!(
                    reader.decompress(&frame).unwrap(),
                    input,
                    "{}: cross-config round-trip failed",
                    reader.name()
                );
            }
        }
        // A corrupted checksummed frame is rejected by BOTH reader
        // configs — verification cannot be disabled by construction.
        // Nor by clearing the frame's checksum bit.
        let frame = checked.compress(&input);
        let mut bad = frame.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff; // trailer byte: guaranteed checksum-stage hit
        let mut stripped = frame.clone();
        match checked.name() {
            "zstdx" => stripped[4] ^= 0x02,
            _ => stripped[1] ^= 0x80,
        }
        for reader in [checked, plain] {
            assert!(
                matches!(
                    reader.decompress(&bad),
                    Err(CodecError::ChecksumMismatch { .. })
                ),
                "{}: corrupted trailer not flagged as checksum mismatch",
                reader.name()
            );
            assert!(
                matches!(reader.decompress(&stripped), Err(CodecError::BadFrame(_))),
                "{}: a cleared checksum bit must not skip the check",
                reader.name()
            );
        }
    }
}

/// The frame container's rules (DESIGN.md §6): each flag bit flipped,
/// and bytes appended, in every codec, plain and checksummed. A bit the
/// codec does not know and bytes after the frame are `BadFrame`; every
/// other flip is a typed error, except the one named no-op, a v4 bit
/// set on a frame with no v4 block. Lists every case that breaks the
/// rules.
#[test]
fn flag_bit_flips_and_appended_bytes_are_typed_errors() {
    use header_faults::Expect;
    let cases = header_faults::cases();
    let mut wrong = Vec::new();
    for case in &cases {
        // `Ok(true)`: read back intact; `Ok(false)`: wrong bytes.
        let got = case.algo.compressor(6).decompress(&case.frame);
        let got = got.map(|out| out == case.input);
        match (case.expect, &got) {
            (Expect::Intact, Ok(true))
            | (Expect::BadFrame, Err(CodecError::BadFrame(_)))
            | (Expect::Error, Err(_)) => {}
            _ => wrong.push(format!(
                "{}: want {:?}, got {got:?}",
                case.what, case.expect
            )),
        }
    }
    let n = (wrong.len(), cases.len());
    assert!(wrong.is_empty(), "{n:?} wrong:\n{}", wrong.join("\n"));
}

/// Hostile declared sizes are rejected against the caller's budget
/// before any allocation-scale work happens.
#[test]
fn decode_limits_bound_hostile_allocations() {
    let input = corpus::silesia::generate(corpus::silesia::FileClass::Database, 64 << 10, 0xbeef);
    for algo in Algorithm::ALL {
        let comp = algo.compressor(3);
        let frame = comp.compress(&input);
        let tight = DecodeLimits::with_max_output(1024);
        match comp.decompress_limited(&frame, &tight) {
            Err(CodecError::LimitExceeded { requested, limit }) => {
                assert_eq!(limit, 1024);
                assert_eq!(requested, input.len(), "{}", comp.name());
            }
            other => panic!("{}: expected LimitExceeded, got {other:?}", comp.name()),
        }
        // An exact budget decodes.
        let exact = DecodeLimits::with_max_output(input.len());
        assert_eq!(comp.decompress_limited(&frame, &exact).unwrap(), input);
    }
}
