//! LZ sequences and the reference reconstruction routine.

use crate::{Error, Result};

/// One LZ77 sequence: copy `literal_len` bytes from the literal buffer,
/// then copy `match_len` bytes from `offset` bytes back in the output.
///
/// Offsets may be smaller than `match_len` (overlapping copy), which is
/// how LZ represents runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sequence {
    /// Number of literal bytes preceding the match.
    pub literal_len: u32,
    /// Match length in bytes (>= the producing format's minimum).
    pub match_len: u32,
    /// Backward distance of the match source (>= 1).
    pub offset: u32,
}

impl Sequence {
    /// Creates a sequence.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `offset == 0` while `match_len > 0`.
    pub fn new(literal_len: u32, match_len: u32, offset: u32) -> Self {
        debug_assert!(match_len == 0 || offset >= 1);
        Self {
            literal_len,
            match_len,
            offset,
        }
    }
}

/// The output of a match-finding parse: a shared literal buffer plus the
/// sequences that interleave it with back-references.
///
/// This mirrors the zstd block model, where literals are gathered into
/// one section (so the entropy stage can code them together) and the
/// sequences reference them implicitly in order. Literal bytes left over
/// after the final sequence form the block's tail.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedBlock {
    /// Concatenated literal bytes, consumed in order by `sequences`.
    pub literals: Vec<u8>,
    /// The match sequences.
    pub sequences: Vec<Sequence>,
}

impl ParsedBlock {
    /// Creates an empty block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decoded (original) size this block reconstructs to.
    pub fn decoded_len(&self) -> usize {
        self.literals.len()
            + self
                .sequences
                .iter()
                .map(|s| s.match_len as usize)
                .sum::<usize>()
    }

    /// Fraction of output bytes covered by matches (0.0 = all literals).
    pub fn match_coverage(&self) -> f64 {
        let total = self.decoded_len();
        if total == 0 {
            return 0.0;
        }
        let matched: usize = self.sequences.iter().map(|s| s.match_len as usize).sum();
        matched as f64 / total as f64
    }
}

/// Applies a parsed block on top of `prefix` history, returning the
/// reconstructed data (not including the prefix).
///
/// This is the reference decoder used to validate every match finder and
/// by the codecs' tests; the codecs inline equivalent logic in their
/// decompressors.
///
/// # Errors
///
/// * [`Error::LiteralsExhausted`] if sequences demand more literal bytes
///   than the block carries.
/// * [`Error::OffsetOutOfRange`] if a match reaches before the start of
///   the prefix.
pub fn reconstruct(block: &ParsedBlock, prefix: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(prefix.len() + block.decoded_len());
    out.extend_from_slice(prefix);
    let mut lit_pos = 0usize;
    for (i, seq) in block.sequences.iter().enumerate() {
        let lit_end = lit_pos + seq.literal_len as usize;
        if lit_end > block.literals.len() {
            return Err(Error::LiteralsExhausted);
        }
        out.extend_from_slice(&block.literals[lit_pos..lit_end]);
        lit_pos = lit_end;

        let offset = seq.offset as usize;
        if offset == 0 || offset > out.len() {
            return Err(Error::OffsetOutOfRange {
                position: i,
                offset: seq.offset,
            });
        }
        // Overlapping copies must proceed byte-serially.
        let start = out.len() - offset;
        for src in start..start + seq.match_len as usize {
            let b = out[src];
            out.push(b);
        }
    }
    out.extend_from_slice(&block.literals[lit_pos..]);
    out.drain(..prefix.len());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconstruct_literal_only() {
        let block = ParsedBlock {
            literals: b"hello".to_vec(),
            sequences: vec![],
        };
        assert_eq!(reconstruct(&block, &[]).unwrap(), b"hello");
        assert_eq!(block.decoded_len(), 5);
        assert_eq!(block.match_coverage(), 0.0);
    }

    #[test]
    fn reconstruct_with_match() {
        // "abcabc" = literals "abc" + match(len 3, offset 3).
        let block = ParsedBlock {
            literals: b"abc".to_vec(),
            sequences: vec![Sequence::new(3, 3, 3)],
        };
        assert_eq!(reconstruct(&block, &[]).unwrap(), b"abcabc");
        assert!((block.match_coverage() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reconstruct_overlapping_match() {
        // "aaaaaaa" = literal "a" + match(len 6, offset 1).
        let block = ParsedBlock {
            literals: b"a".to_vec(),
            sequences: vec![Sequence::new(1, 6, 1)],
        };
        assert_eq!(reconstruct(&block, &[]).unwrap(), b"aaaaaaa");
    }

    #[test]
    fn reconstruct_into_prefix() {
        let block = ParsedBlock {
            literals: b"!".to_vec(),
            sequences: vec![Sequence::new(0, 4, 8), Sequence::new(1, 0, 1)],
        };
        // Match starts 8 back into the prefix "dictiona" -> copies "dict".
        assert_eq!(reconstruct(&block, b"dictiona").unwrap(), b"dict!");
    }

    #[test]
    fn reconstruct_rejects_bad_offset() {
        let block = ParsedBlock {
            literals: b"ab".to_vec(),
            sequences: vec![Sequence::new(2, 3, 10)],
        };
        assert_eq!(
            reconstruct(&block, &[]),
            Err(Error::OffsetOutOfRange {
                position: 0,
                offset: 10
            })
        );
    }

    #[test]
    fn reconstruct_rejects_missing_literals() {
        let block = ParsedBlock {
            literals: b"a".to_vec(),
            sequences: vec![Sequence::new(5, 0, 1)],
        };
        assert_eq!(reconstruct(&block, &[]), Err(Error::LiteralsExhausted));
    }

    #[test]
    fn tail_literals_are_appended() {
        let block = ParsedBlock {
            literals: b"abXtail".to_vec(),
            sequences: vec![Sequence::new(2, 2, 2)],
        };
        assert_eq!(reconstruct(&block, &[]).unwrap(), b"ababXtail");
    }
}
