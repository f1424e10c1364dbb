//! LZ77 match-finding substrate shared by all datacomp codecs.
//!
//! The paper (Section II-B) describes LZ compressors as a *match-finding
//! stage* that emits literals and sequences, followed by an *encoding
//! stage*. This crate is the match-finding stage: it turns a byte block
//! into a [`ParsedBlock`] — a literal buffer plus a list of
//! [`Sequence`]s — that the codecs (`lz4x`, `zlibx`, `zstdx`) then encode
//! with their respective entropy schemes.
//!
//! The compression-speed ↔ ratio trade-off that the paper attributes to
//! the match-finding stage is materialized here as [`Strategy`]:
//!
//! * [`Strategy::Fast`] — single-probe hash table with skip
//!   acceleration (LZ4-style greedy).
//! * [`Strategy::Greedy`] — hash chain, takes the best match at each
//!   position, where a farther candidate must be enough longer to pay
//!   for its extra offset bits. With [`MatchParams::priced_parse`] the
//!   first candidate must pay for its whole offset too, and unmatched
//!   runs are crossed with a growing stride.
//! * [`Strategy::Lazy`] — hash chain with one-position lazy evaluation
//!   (same acceptance rule).
//! * [`Strategy::Optimal`] — price-based dynamic-programming parse over
//!   hash-chain candidates ("slow dynamic programming algorithms which
//!   attempt to find the optimal encoding", §II-B).
//!
//! Parameters ([`MatchParams`]) mirror the knobs compression levels tune
//! in real codecs: window size, hash/chain table sizes, probe counts,
//! minimum match length. [`MatchParams::shrunk_for_input`] reproduces the
//! hash-table shrinking for small inputs that the paper calls out in its
//! KVSTORE1 study (Section IV-E).
//!
//! # Example
//!
//! ```
//! use lzkit::{parse, reconstruct, MatchParams, Strategy};
//!
//! let data = b"a quick brown fox, a quick brown dog, a quick brown cat";
//! let params = MatchParams::new(Strategy::Greedy);
//! let block = parse(data, 0, &params);
//! assert!(block.sequences.len() >= 2); // repeated "a quick brown " found
//! let restored = reconstruct(&block, &[]).unwrap();
//! assert_eq!(restored, data);
//! ```

// Match finding indexes window/head/chain arrays on every probe; the
// panic-free indexing contract applies to *decode* paths, enforced by
// `#[deny(clippy::indexing_slicing)]` on those functions in the codec
// crates. Compress-side indexing here is bounds-checked by
// construction and stays idiomatic.
#![allow(clippy::indexing_slicing)]
#![warn(missing_docs)]

use std::cell::Cell;

mod hashchain;
mod hashfast;
mod optimal;
mod params;
mod prefix;
mod seq;

pub use params::{MatchParams, Strategy};
pub use prefix::PrefixIndex;
pub use seq::{reconstruct, ParsedBlock, Sequence};

/// Errors produced when validating or applying LZ sequences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A sequence's offset reaches before the start of the window.
    OffsetOutOfRange {
        /// Index of the offending sequence.
        position: usize,
        /// The out-of-range backward distance.
        offset: u32,
    },
    /// The literal buffer is shorter than the sequences demand.
    LiteralsExhausted,
    /// A match length is below the format minimum.
    MatchTooShort(u32),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::OffsetOutOfRange { position, offset } => {
                write!(f, "offset {offset} out of range at position {position}")
            }
            Error::LiteralsExhausted => write!(f, "literal buffer exhausted"),
            Error::MatchTooShort(l) => write!(f, "match length {l} below minimum"),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias for sequence validation/application.
pub type Result<T> = std::result::Result<T, Error>;

/// Parses `buf[start..]` into literals and match sequences.
///
/// `buf[..start]` is treated as already-processed history (a dictionary
/// or earlier frame content): matches may reference it, but no output is
/// produced for it. The parse is driven by `params.strategy`, with all
/// table sizes first shrunk for the input size via
/// [`MatchParams::shrunk_for_input`].
///
/// The returned block always reconstructs exactly `buf[start..]` (see
/// [`reconstruct`]); this invariant is property-tested.
///
/// # Panics
///
/// Panics if `start > buf.len()`.
pub fn parse(buf: &[u8], start: usize, params: &MatchParams) -> ParsedBlock {
    parse_with_prefix(buf, start, params, None)
}

/// [`parse`] with a prepared index attached over the head of the
/// history: `prefix` must have been built over
/// `buf[..prefix.content_len()]`. The finders then hash only what the
/// index does not cover — the history after it and the block — and a
/// search that runs out of per-call candidates continues in the index.
/// Same finders, same acceptance rules; only where candidates come from
/// differs, and with it the hash log they were bucketed under, so an
/// attached parse may pick different (on small inputs: better) matches
/// than an unattached one.
///
/// An index built over other bytes cannot corrupt the parse — every
/// candidate is verified against `buf` — it only finds fewer matches.
///
/// # Panics
///
/// Panics if `start > buf.len()` or the index covers more than
/// `buf[..start]`.
pub fn parse_with_prefix(
    buf: &[u8],
    start: usize,
    params: &MatchParams,
    prefix: Option<&PrefixIndex>,
) -> ParsedBlock {
    assert!(start <= buf.len(), "start beyond buffer");
    assert!(
        prefix.is_none_or(|ix| ix.content_len() <= start),
        "prefix index reaches into the block"
    );
    let mut p = params.shrunk_for_input(buf.len() - start);
    // Table sizes shrink with the block being parsed, but the window is
    // only capped by the *total* history available (earlier frame
    // content / dictionary), not by the block length — a block in the
    // middle of a frame may match far back into it.
    if buf.len() > 1 {
        let avail_log = (usize::BITS - (buf.len() - 1).leading_zeros()).max(10);
        p.window_log = params.window_log.min(avail_log);
    }
    match p.strategy {
        Strategy::Fast => hashfast::parse(buf, start, &p, prefix),
        Strategy::Greedy => hashchain::parse(buf, start, &p, false, prefix),
        Strategy::Lazy => hashchain::parse(buf, start, &p, true, prefix),
        Strategy::Optimal => optimal::parse(buf, start, &p, prefix),
    }
}

thread_local! {
    static HASHED: Cell<u64> = const { Cell::new(0) };
}

/// Positions hashed into per-call match-finder tables by this thread's
/// parses so far. A work count, not a timing: the difference across a
/// call is exact and repeats, which is what lets tests hold "a
/// dictionary compress hashes only its input" without a clock.
pub fn positions_hashed() -> u64 {
    HASHED.with(Cell::get)
}

/// Adds one parse's tally to [`positions_hashed`].
pub(crate) fn note_hashed(n: usize) {
    HASHED.with(|c| c.set(c.get() + n as u64));
}

/// Compares bytes at `a` and `b`, returning the shared prefix length,
/// reading at most until `limit` (exclusive upper index for `b`).
///
/// `a < b` is required; the comparison reads 8 bytes at a time.
#[inline]
pub(crate) fn match_length(buf: &[u8], a: usize, b: usize, limit: usize) -> usize {
    debug_assert!(a < b);
    let max = limit - b;
    let mut n = 0;
    while n + 8 <= max {
        let x = u64::from_le_bytes(buf[a + n..a + n + 8].try_into().unwrap());
        let y = u64::from_le_bytes(buf[b + n..b + n + 8].try_into().unwrap());
        let diff = x ^ y;
        if diff != 0 {
            return n + (diff.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    while n < max && buf[a + n] == buf[b + n] {
        n += 1;
    }
    n
}

/// Reads a 4-byte little-endian word at `pos`.
#[inline]
pub(crate) fn read_u32(buf: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap())
}

/// Multiplicative hash of a 4-byte word into `hash_log` bits.
#[inline]
pub(crate) fn hash_word(word: u32, hash_log: u32) -> usize {
    (word.wrapping_mul(2_654_435_761) >> (32 - hash_log)) as usize
}

/// [`hash_word`] of the 4 bytes at `pos`.
#[inline]
pub(crate) fn hash4(buf: &[u8], pos: usize, hash_log: u32) -> usize {
    hash_word(read_u32(buf, pos), hash_log)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn match_length_finds_prefix() {
        let buf = b"abcdefgh_abcdefgh_abcdeXgh";
        // Periodic region: positions 0 and 9 agree until the 'X' breaks it.
        assert_eq!(match_length(buf, 0, 9, buf.len()), 14);
        assert_eq!(match_length(buf, 0, 18, buf.len()), 5);
    }

    #[test]
    fn match_length_honors_limit() {
        let buf = b"aaaaaaaaaaaaaaaaaaaaaaaa";
        assert_eq!(match_length(buf, 0, 4, 10), 6);
    }

    #[test]
    fn match_length_overlapping_run() {
        // Self-referential RLE-style match: a=0, b=1 over a run.
        let buf = b"aaaaaaaaaaab";
        assert_eq!(match_length(buf, 0, 1, buf.len()), 10);
    }

    #[test]
    fn parse_empty_input() {
        let params = MatchParams::new(Strategy::Greedy);
        let block = parse(b"", 0, &params);
        assert!(block.sequences.is_empty());
        assert!(block.literals.is_empty());
    }

    #[test]
    fn parse_rejects_bad_start() {
        let params = MatchParams::new(Strategy::Fast);
        let r = std::panic::catch_unwind(|| parse(b"ab", 5, &params));
        assert!(r.is_err());
    }

    #[test]
    fn all_strategies_roundtrip_mixed_data() {
        let mut data = Vec::new();
        for i in 0..200u32 {
            data.extend_from_slice(format!("record-{}|{}|", i % 17, i).as_bytes());
            data.extend_from_slice(&i.to_le_bytes());
        }
        for strategy in [
            Strategy::Fast,
            Strategy::Greedy,
            Strategy::Lazy,
            Strategy::Optimal,
        ] {
            let params = MatchParams::new(strategy);
            let block = parse(&data, 0, &params);
            let restored = reconstruct(&block, &[]).unwrap();
            assert_eq!(restored, data, "{strategy:?} failed roundtrip");
            assert!(
                !block.sequences.is_empty(),
                "{strategy:?} found no matches in redundant data"
            );
        }
    }

    #[test]
    fn dictionary_prefix_enables_matches() {
        let dict = b"the common preamble shared by every message in this type";
        let msg = b"the common preamble shared by every message differs at the end";
        let mut buf = dict.to_vec();
        let start = buf.len();
        buf.extend_from_slice(msg);
        for strategy in [
            Strategy::Fast,
            Strategy::Greedy,
            Strategy::Lazy,
            Strategy::Optimal,
        ] {
            let params = MatchParams::new(strategy);
            let block = parse(&buf, start, &params);
            let restored = reconstruct(&block, dict).unwrap();
            assert_eq!(restored, msg, "{strategy:?} failed dict roundtrip");
            // The long shared prefix must be found as a match into the dict.
            assert!(
                block.literals.len() < msg.len() / 2,
                "{strategy:?} did not exploit the dictionary"
            );
        }
    }

    #[test]
    fn attached_prefix_finds_the_same_dictionary_match_and_hashes_only_the_input() {
        let dict = b"the common preamble shared by every message in this type";
        let msg = b"the common preamble shared by every message differs at the end";
        let mut buf = dict.to_vec();
        let start = buf.len();
        buf.extend_from_slice(msg);
        let index = PrefixIndex::build(dict);
        for strategy in [
            Strategy::Fast,
            Strategy::Greedy,
            Strategy::Lazy,
            Strategy::Optimal,
        ] {
            let params = MatchParams::new(strategy);
            let before = positions_hashed();
            let block = parse_with_prefix(&buf, start, &params, Some(&index));
            let hashed = positions_hashed() - before;
            assert_eq!(reconstruct(&block, dict).unwrap(), msg, "{strategy:?}");
            assert!(
                block.literals.len() < msg.len() / 2,
                "{strategy:?} did not exploit the attached dictionary"
            );
            assert!(
                hashed <= msg.len() as u64 + 3,
                "{strategy:?} hashed {hashed} positions for {} input bytes",
                msg.len()
            );

            let before = positions_hashed();
            parse(&buf, start, &params);
            let unattached = positions_hashed() - before;
            if strategy != Strategy::Fast {
                // Chain finders index every position with a 4-byte window.
                assert_eq!(unattached, buf.len() as u64 - 3, "{strategy:?}");
            }
            assert!(unattached > hashed);
        }
    }

    #[test]
    fn match_may_start_in_the_last_three_dictionary_bytes() {
        // "xyz0123456789" occurs once before its repeat, and that
        // occurrence starts two bytes before the dictionary ends: its
        // 4-byte window straddles the boundary, so only the per-call
        // tables can know it.
        let dict = b"................QRSxy";
        let msg = b"z0123456789 -- xyz0123456789";
        let mut buf = dict.to_vec();
        let start = buf.len();
        buf.extend_from_slice(msg);
        let index = PrefixIndex::build(dict);
        for strategy in [
            Strategy::Fast,
            Strategy::Greedy,
            Strategy::Lazy,
            Strategy::Optimal,
        ] {
            let block = parse_with_prefix(&buf, start, &MatchParams::new(strategy), Some(&index));
            assert_eq!(reconstruct(&block, dict).unwrap(), msg, "{strategy:?}");
            assert!(
                block
                    .sequences
                    .iter()
                    .any(|s| s.offset == 17 && s.match_len == 13),
                "{strategy:?} missed the straddling source: {block:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "prefix index reaches into the block")]
    fn prefix_longer_than_the_history_is_rejected() {
        let index = PrefixIndex::build(b"0123456789");
        parse_with_prefix(
            b"0123456789",
            4,
            &MatchParams::new(Strategy::Greedy),
            Some(&index),
        );
    }

    #[test]
    fn stronger_strategies_compress_no_worse() {
        // On highly structured data the parse cost (literals + sequences)
        // should not degrade as strategies get stronger.
        let data: Vec<u8> = (0..20_000u32)
            .flat_map(|i| format!("key{:04}=value{:02};", i % 300, i % 7).into_bytes())
            .collect();
        let approx_cost = |s: Strategy| {
            let block = parse(&data, 0, &MatchParams::new(s));
            block.literals.len() + 3 * block.sequences.len()
        };
        let fast = approx_cost(Strategy::Fast);
        let greedy = approx_cost(Strategy::Greedy);
        let lazy = approx_cost(Strategy::Lazy);
        let optimal = approx_cost(Strategy::Optimal);
        assert!(greedy <= fast, "greedy {greedy} worse than fast {fast}");
        assert!(lazy <= greedy, "lazy {lazy} worse than greedy {greedy}");
        assert!(
            optimal <= lazy + lazy / 10,
            "optimal {optimal} much worse than lazy {lazy}"
        );
    }

    #[test]
    fn incompressible_data_yields_mostly_literals() {
        // A pseudo-random block: no strategy should find much.
        let mut state = 0x1234_5678_9abc_def0u64;
        let data: Vec<u8> = (0..8192)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        let block = parse(&data, 0, &MatchParams::new(Strategy::Lazy));
        assert!(block.literals.len() > data.len() * 9 / 10);
        assert_eq!(reconstruct(&block, &[]).unwrap(), data);
    }
}
