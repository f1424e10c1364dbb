//! A read-only match index over a dictionary, built once.
//!
//! Every dictionary compress used to re-hash the whole dictionary into
//! fresh tables — ~12 K positions to serve a 250-byte cache item. A
//! [`PrefixIndex`] holds the same hash-chain structure for the
//! dictionary alone, independent of level and input, so the finders
//! attach it read-only ([`crate::parse_with_prefix`]) and keep per-call
//! tables only for the bytes that change between calls.
//!
//! The index covers every position whose 4-byte window lies wholly
//! inside the content; the last three positions straddle whatever
//! follows and stay with the per-call tables.

use crate::hash4;

/// "No position" in a chain walk, shared with the per-call tables.
pub(crate) const NONE: u32 = u32::MAX;

const MIN_HASH_LOG: u32 = 6;
/// Cap on the head table: the largest hash table any level asks for.
const MAX_HASH_LOG: u32 = 18;

/// One entry of a link table: a position, or "none" (all ones).
trait Link: Copy {
    const NONE: Self;
    fn at(pos: usize) -> Self;
}

impl Link for u16 {
    const NONE: Self = u16::MAX;
    fn at(pos: usize) -> Self {
        pos as u16
    }
}

impl Link for u32 {
    const NONE: Self = u32::MAX;
    fn at(pos: usize) -> Self {
        pos as u32
    }
}

/// `head[hash]` is the last position with that hash, `chain[pos]` the
/// previous position with `pos`'s hash.
fn build_tables<L: Link>(content: &[u8], hash_log: u32) -> (Vec<L>, Vec<L>) {
    let mut head = vec![L::NONE; 1usize << hash_log];
    let mut chain = vec![L::NONE; content.len().saturating_sub(3)];
    for (pos, link) in chain.iter_mut().enumerate() {
        let h = hash4(content, pos, hash_log);
        *link = head[h];
        head[h] = L::at(pos);
    }
    (head, chain)
}

/// The two tables: `u16` links while every position fits (content below
/// 64 KiB — the common trained-dictionary size, where it halves the
/// footprint), `u32` above.
#[derive(Debug, Clone)]
enum Tables {
    Narrow { head: Vec<u16>, chain: Vec<u16> },
    Wide { head: Vec<u32>, chain: Vec<u32> },
}

/// Reads entry `i` of a link table as a position or [`NONE`]. The index
/// comes from a hash or from another link, i.e. from table contents; an
/// out-of-range one reads as "none" rather than trusting the builder.
#[deny(clippy::indexing_slicing)]
#[inline]
fn link_at<L: Link + Into<u32> + PartialEq>(table: &[L], i: usize) -> u32 {
    match table.get(i) {
        Some(&l) if l != L::NONE => l.into(),
        _ => NONE,
    }
}

/// Hash-chain index over one dictionary's content. See the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct PrefixIndex {
    content_len: usize,
    hash_log: u32,
    tables: Tables,
}

impl PrefixIndex {
    /// Indexes `content`. The hash log follows the content's length
    /// (not the level's, and not the input's: one index serves every
    /// level and every message), so chains stay about one entry deep.
    ///
    /// # Panics
    ///
    /// Panics if `content` is 4 GiB or longer.
    pub fn build(content: &[u8]) -> Self {
        assert!(
            u32::try_from(content.len()).is_ok_and(|n| n < NONE),
            "dictionary content must stay below 4 GiB"
        );
        let len_log = usize::BITS - content.len().saturating_sub(1).leading_zeros();
        let hash_log = len_log.clamp(MIN_HASH_LOG, MAX_HASH_LOG);
        let tables = if content.len() < 1 << 16 {
            let (head, chain) = build_tables(content, hash_log);
            Tables::Narrow { head, chain }
        } else {
            let (head, chain) = build_tables(content, hash_log);
            Tables::Wide { head, chain }
        };
        Self {
            content_len: content.len(),
            hash_log,
            tables,
        }
    }

    /// Length of the content this index was built over.
    pub fn content_len(&self) -> usize {
        self.content_len
    }

    /// Number of indexed positions: the content's length less the three
    /// whose 4-byte window runs past its end.
    pub fn positions(&self) -> usize {
        self.content_len.saturating_sub(3)
    }

    /// Heap bytes held by the two tables.
    pub fn heap_bytes(&self) -> usize {
        match &self.tables {
            Tables::Narrow { head, chain } => 2 * (head.len() + chain.len()),
            Tables::Wide { head, chain } => 4 * (head.len() + chain.len()),
        }
    }

    /// The last indexed position whose 4 bytes hash like `word`, or
    /// [`NONE`].
    #[deny(clippy::indexing_slicing)]
    #[inline]
    pub(crate) fn head(&self, word: u32) -> u32 {
        let h = crate::hash_word(word, self.hash_log);
        match &self.tables {
            Tables::Narrow { head, .. } => link_at(head, h),
            Tables::Wide { head, .. } => link_at(head, h),
        }
    }

    /// The indexed position before `pos` on its hash chain, or [`NONE`].
    #[deny(clippy::indexing_slicing)]
    #[inline]
    pub(crate) fn link(&self, pos: usize) -> u32 {
        match &self.tables {
            Tables::Narrow { chain, .. } => link_at(chain, pos),
            Tables::Wide { chain, .. } => link_at(chain, pos),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn walk(ix: &PrefixIndex, content: &[u8], word: u32) -> Vec<usize> {
        let mut out = Vec::new();
        let mut c = ix.head(word);
        while c != NONE {
            if crate::read_u32(content, c as usize) == word {
                out.push(c as usize);
            }
            c = ix.link(c as usize);
        }
        out
    }

    #[test]
    fn every_window_is_reachable_newest_first() {
        let content: Vec<u8> = (0..3000u32)
            .flat_map(|i| format!("k{}=v{};", i % 37, i % 11).into_bytes())
            .collect();
        let ix = PrefixIndex::build(&content);
        assert_eq!(ix.positions(), content.len() - 3);
        for pos in (0..ix.positions()).step_by(17) {
            let word = crate::read_u32(&content, pos);
            let hits = walk(&ix, &content, word);
            assert!(hits.contains(&pos), "position {pos} lost");
            assert!(hits.windows(2).all(|w| w[0] > w[1]), "chain must descend");
        }
    }

    #[test]
    fn tiny_and_empty_content_index_nothing() {
        for content in [&b""[..], b"a", b"abc"] {
            let ix = PrefixIndex::build(content);
            assert_eq!(ix.positions(), 0);
            assert_eq!(ix.head(0x6162_6364), NONE);
        }
        let ix = PrefixIndex::build(b"abcd");
        assert_eq!(ix.positions(), 1);
        assert_eq!(ix.head(u32::from_le_bytes(*b"abcd")), 0);
        assert_eq!(ix.link(0), NONE);
    }

    #[test]
    fn links_narrow_below_64k_and_widen_at_it() {
        let small = PrefixIndex::build(&vec![7u8; 16 << 10]);
        // 16 Ki heads + 16 Ki - 3 links, two bytes each.
        assert_eq!(small.heap_bytes(), 2 * ((16 << 10) + (16 << 10) - 3));
        assert!(small.heap_bytes() <= 64 << 10);
        let content: Vec<u8> = (0..70_000u32).map(|i| (i % 251) as u8).collect();
        let big = PrefixIndex::build(&content);
        assert!(matches!(big.tables, Tables::Wide { .. }));
        // A position past the u16 range survives the round trip.
        let pos = 69_000;
        let word = crate::read_u32(&content, pos);
        assert!(walk(&big, &content, word).contains(&pos));
        // The largest narrow content keeps its last position distinct
        // from the "none" marker.
        let edge: Vec<u8> = (0..u32::from(u16::MAX))
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        let ix = PrefixIndex::build(&edge);
        assert!(matches!(ix.tables, Tables::Narrow { .. }));
        let last = ix.positions() - 1;
        assert!(walk(&ix, &edge, crate::read_u32(&edge, last)).contains(&last));
    }
}
