//! `lz4x` — an LZ4-like codec: LZ77 with byte-aligned token encoding and
//! **no entropy stage**.
//!
//! The format mirrors the LZ4 block format: each sequence is a token
//! byte (4-bit literal length / 4-bit match length), optional
//! 255-extension bytes, raw literals, and a 2-byte little-endian offset.
//! Emitting uncompressed literals is exactly why the paper places LZ4 at
//! the fast-decompression / low-ratio end of the entropy trade-off
//! (§II-B: "LZ4 is a simple and fast encoder that emits uncompressed
//! literals").
//!
//! Levels 1–12 follow the LZ4 / LZ4-HC split: levels 1–2 use the
//! single-probe fast path, 3–9 hash chains of growing depth, 10–12 the
//! optimal parser.

use std::time::Instant;

use lzkit::{MatchParams, ParsedBlock, Strategy};

use crate::container;
use crate::varint::Cursor;
use crate::{Algorithm, Compressor, DecodeLimits, Result};

/// Format minimum match length (as in LZ4).
const MIN_MATCH: u32 = 4;
/// Offsets are encoded in 2 bytes.
const MAX_WINDOW_LOG: u32 = 16;

/// The LZ4-like compressor. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Lz4x {
    level: i32,
    params: MatchParams,
    checksum: bool,
}

impl Lz4x {
    /// Creates a compressor at `level` (clamped to 1..=12).
    pub fn new(level: i32) -> Self {
        let level = level.clamp(1, 12);
        Self {
            level,
            params: level_params(level),
            checksum: false,
        }
    }

    /// Builder-style checksum toggle (`false` by default, matching LZ4's
    /// checksum-free block format). Checksummed frames set the header's
    /// checksum bit and end in an XXH64 content checksum; frames written
    /// either way decode everywhere.
    pub fn with_checksum(mut self, checksum: bool) -> Self {
        self.checksum = checksum;
        self
    }

    /// The match-finding parameters this level maps to.
    pub fn params(&self) -> &MatchParams {
        &self.params
    }

    /// Reference decode path: byte-at-a-time match copies, no wild-copy
    /// fast path. Semantically identical to
    /// [`Compressor::decompress_limited`] — the differential suite pins
    /// the two engines against each other.
    ///
    /// # Errors
    ///
    /// Same as [`Compressor::decompress_limited`].
    pub fn decompress_reference(&self, src: &[u8], limits: &DecodeLimits) -> Result<Vec<u8>> {
        self.decompress_inner::<false>(src, limits)
    }

    /// Shared decode engine; `FAST` selects the wild-copy match loop.
    #[deny(clippy::indexing_slicing)]
    fn decompress_inner<const FAST: bool>(
        &self,
        src: &[u8],
        limits: &DecodeLimits,
    ) -> Result<Vec<u8>> {
        let start = Instant::now();
        let mut c = Cursor::new(src);
        let header = container::read_header(Algorithm::Lz4x, &mut c, limits)?;
        let content = header.content;
        let mut out = Vec::with_capacity(crate::initial_capacity(content, src.len(), limits));
        while out.len() < content {
            let token = c.read_u8()?;
            let ll = read_ext_len(&mut c, (token >> 4) as u32)? as usize;
            out.extend_from_slice(c.read_slice(ll)?);
            if out.len() == content {
                break; // literals-only tail
            }
            let offset = c.read_u16()? as usize;
            let ml = read_ext_len(&mut c, (token & 0x0f) as u32)? as usize + MIN_MATCH as usize;
            if offset == 0 || offset > out.len() {
                return Err(c.corrupt("lz4x offset out of range"));
            }
            if out.len() + ml > content {
                return Err(c.corrupt("lz4x match overruns content"));
            }
            // Offset and length were validated against `out` and
            // `content` just above — the region the copy touches is
            // known-safe before a single byte moves.
            if FAST {
                crate::lz_copy(&mut out, offset, ml);
            } else {
                crate::lz_copy_checked(&mut out, offset, ml);
            }
        }
        header.finish(&mut c, &out)?;
        crate::obs::record_decompress(Algorithm::Lz4x, self.level, out.len(), start);
        Ok(out)
    }
}

fn level_params(level: i32) -> MatchParams {
    let (strategy, hash_log, attempts, target) = match level {
        1 => (Strategy::Fast, 14, 1, 8),
        2 => (Strategy::Fast, 16, 1, 12),
        3 => (Strategy::Greedy, 16, 4, 16),
        4 => (Strategy::Greedy, 16, 8, 24),
        5 => (Strategy::Lazy, 17, 8, 32),
        6 => (Strategy::Lazy, 17, 12, 48),
        7 => (Strategy::Lazy, 17, 16, 64),
        8 => (Strategy::Lazy, 17, 24, 96),
        9 => (Strategy::Lazy, 17, 32, 128),
        10 => (Strategy::Optimal, 17, 24, 256),
        11 => (Strategy::Optimal, 17, 32, 384),
        _ => (Strategy::Optimal, 17, 48, 512),
    };
    MatchParams {
        window_log: MAX_WINDOW_LOG,
        hash_log,
        chain_log: 16,
        search_attempts: attempts,
        min_match: MIN_MATCH,
        target_length: target,
        rep_preference: true,
        priced_parse: false,
        strategy,
    }
}

/// Writes an LZ4-style extended length: 4-bit nibble handled by the
/// caller; this emits the 255-run extension bytes for `v >= 15`.
fn write_ext_len(out: &mut Vec<u8>, mut v: u32) {
    // Caller encoded min(v, 15) in the nibble; extension only if v >= 15.
    debug_assert!(v >= 15);
    v -= 15;
    while v >= 255 {
        out.push(255);
        v -= 255;
    }
    out.push(v as u8);
}

#[deny(clippy::indexing_slicing)]
fn read_ext_len(c: &mut Cursor<'_>, nibble: u32) -> Result<u32> {
    if nibble < 15 {
        return Ok(nibble);
    }
    let mut v = 15u32;
    loop {
        let b = c.read_u8()?;
        v = v
            .checked_add(b as u32)
            .ok_or(c.corrupt("lz4x length overflow"))?;
        if b != 255 {
            return Ok(v);
        }
    }
}

// indexing_slicing: encode side — `lit_pos` advances by exactly the
// per-sequence literal lengths the parser drew from `literals`, so every
// slice stays inside `lits`.
#[allow(clippy::indexing_slicing)]
fn encode_block(block: &ParsedBlock, out: &mut Vec<u8>) {
    let lits = &block.literals;
    let mut lit_pos = 0usize;
    for seq in &block.sequences {
        let ll = seq.literal_len;
        let ml = seq.match_len - MIN_MATCH;
        let token = ((ll.min(15) as u8) << 4) | (ml.min(15) as u8);
        out.push(token);
        if ll >= 15 {
            write_ext_len(out, ll);
        }
        out.extend_from_slice(&lits[lit_pos..lit_pos + ll as usize]);
        lit_pos += ll as usize;
        out.extend_from_slice(&(seq.offset as u16).to_le_bytes());
        if ml >= 15 {
            write_ext_len(out, ml);
        }
    }
    // Tail literals: token with zero match nibble and no offset, ended
    // by the content size (as in LZ4, the last sequence is literals-only).
    let tail = &lits[lit_pos..];
    if !tail.is_empty() {
        let ll = tail.len() as u32;
        out.push((ll.min(15) as u8) << 4);
        if ll >= 15 {
            write_ext_len(out, ll);
        }
        out.extend_from_slice(tail);
    }
}

impl Compressor for Lz4x {
    fn name(&self) -> &'static str {
        "lz4x"
    }

    fn level(&self) -> i32 {
        self.level
    }

    fn compress(&self, src: &[u8]) -> Vec<u8> {
        let start = Instant::now();
        static MATCH_FIND: telemetry::Stage = telemetry::Stage::new("lz4x.match_find");
        static ENCODE: telemetry::Stage = telemetry::Stage::new("lz4x.encode");
        let out = container::write_frame(Algorithm::Lz4x, src, self.checksum, None, |out| {
            let mf_start = Instant::now();
            let block = lzkit::parse(src, 0, &self.params);
            MATCH_FIND.record(mf_start, mf_start.elapsed());
            let enc_start = Instant::now();
            encode_block(&block, out);
            ENCODE.record(enc_start, enc_start.elapsed());
            false
        });
        crate::obs::record_compress(Algorithm::Lz4x, self.level, src.len(), out.len(), start);
        out
    }

    fn decompress_limited(&self, src: &[u8], limits: &DecodeLimits) -> Result<Vec<u8>> {
        self.decompress_inner::<true>(src, limits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CodecError;

    fn sample() -> Vec<u8> {
        (0..400u32)
            .flat_map(|i| format!("entry:{}/payload:{};", i % 37, i % 11).into_bytes())
            .collect()
    }

    #[test]
    fn roundtrip_all_levels() {
        let data = sample();
        for level in 1..=12 {
            let c = Lz4x::new(level);
            let enc = c.compress(&data);
            assert!(enc.len() < data.len(), "level {level} did not compress");
            assert_eq!(c.decompress(&enc).unwrap(), data, "level {level}");
        }
    }

    #[test]
    fn roundtrip_edge_inputs() {
        let c = Lz4x::new(1);
        for data in [vec![], vec![7u8], b"abc".to_vec(), vec![0u8; 100_000]] {
            let enc = c.compress(&data);
            assert_eq!(c.decompress(&enc).unwrap(), data);
        }
    }

    #[test]
    fn long_literal_runs_use_extension_bytes() {
        // Incompressible stretch > 270 bytes exercises 255-run extensions.
        let mut state = 99u64;
        let data: Vec<u8> = (0..1000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 40) as u8
            })
            .collect();
        let c = Lz4x::new(6);
        assert_eq!(c.decompress(&c.compress(&data)).unwrap(), data);
    }

    #[test]
    fn long_match_runs_use_extension_bytes() {
        let mut data = b"seed".to_vec();
        data.extend(std::iter::repeat_n(b'q', 5000));
        let c = Lz4x::new(2);
        let enc = c.compress(&data);
        assert!(enc.len() < 64);
        assert_eq!(c.decompress(&enc).unwrap(), data);
    }

    #[test]
    fn higher_levels_never_much_worse() {
        let data = sample();
        let l1 = Lz4x::new(1).compress(&data).len();
        let l9 = Lz4x::new(9).compress(&data).len();
        let l12 = Lz4x::new(12).compress(&data).len();
        assert!(l9 <= l1, "HC level should beat fast level: {l9} vs {l1}");
        assert!(l12 <= l9 + l9 / 20);
    }

    #[test]
    fn rejects_malformed() {
        let c = Lz4x::new(1);
        assert!(c.decompress(b"").is_err());
        assert!(c.decompress(b"zz\x05hello").is_err());
        // Valid magic, bogus offset.
        let mut frame = b"X4".to_vec();
        crate::varint::write_varint(&mut frame, 20);
        frame.push(0x14); // 1 literal, match len 8
        frame.push(b'a');
        frame.extend_from_slice(&500u16.to_le_bytes()); // offset 500 > out
        assert!(c.decompress(&frame).is_err());
    }

    #[test]
    fn truncated_frames_error_not_panic() {
        let data = sample();
        let c = Lz4x::new(4);
        let enc = c.compress(&data);
        for cut in [0, 1, 2, 5, enc.len() / 2, enc.len() - 1] {
            assert!(c.decompress(&enc[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn checksum_is_opt_in_and_detects_corruption() {
        let data = sample();
        let plain = Lz4x::new(4).compress(&data);
        let checked = Lz4x::new(4).with_checksum(true).compress(&data);
        assert_eq!(checked.len(), plain.len() + 4);
        // Both magics decode with any decoder instance.
        assert_eq!(Lz4x::new(1).decompress(&plain).unwrap(), data);
        assert_eq!(Lz4x::new(1).decompress(&checked).unwrap(), data);
        // Flipping a literal byte is invisible to the plain format but
        // caught by the checksummed one.
        let mut bad = checked.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x01;
        match Lz4x::new(1).decompress(&bad) {
            Ok(got) => panic!("corruption decoded silently: {} bytes", got.len()),
            Err(
                CodecError::ChecksumMismatch { .. }
                | CodecError::Corrupt { .. }
                | CodecError::Truncated(_),
            ) => {}
            Err(other) => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn limits_reject_oversized_content() {
        let data = sample();
        let c = Lz4x::new(1);
        let enc = c.compress(&data);
        assert!(matches!(
            c.decompress_limited(&enc, &DecodeLimits::with_max_output(16)),
            Err(CodecError::LimitExceeded { .. })
        ));
        assert_eq!(
            c.decompress_limited(&enc, &DecodeLimits::with_max_output(data.len()))
                .unwrap(),
            data
        );
    }
}
