//! Hash-chain match finder: `Greedy` and `Lazy` strategies.
//!
//! A classic zlib/zstd-style chain: `head[hash]` points at the most
//! recent position with that hash, `chain[pos & mask]` links to the
//! previous one. The lazy variant re-evaluates at `pos + 1` and defers
//! the current match when the next position offers a longer one — the
//! mid-level compression behaviour of real codecs.
//!
//! A candidate farther back than the current best must be enough longer
//! to pay for its extra offset bits. With [`MatchParams::priced_parse`]
//! the first candidate pays too — against the literals it replaces — and
//! a run of positions without a match is crossed with a growing stride.

use crate::params::MatchParams;
use crate::prefix::{PrefixIndex, NONE};
use crate::seq::{ParsedBlock, Sequence};
use crate::{hash4, match_length, read_u32};

pub(crate) struct ChainFinder<'b> {
    buf: &'b [u8],
    /// Prepared index over the head of `buf`, when attached.
    prefix: Option<&'b PrefixIndex>,
    /// First position the per-call tables cover; everything below it
    /// is the prefix index's. Zero when nothing is attached.
    local_start: usize,
    head: Vec<u32>,
    chain: Vec<u32>,
    chain_mask: usize,
    hash_log: u32,
    max_offset: usize,
    min_match: usize,
    target_length: usize,
    search_attempts: u32,
    /// [`MatchParams::priced_parse`].
    priced: bool,
    /// Next position to insert into the tables.
    inserted: usize,
    /// Number of positions at which a 4-byte hash exists.
    hash_limit: usize,
}

impl<'b> ChainFinder<'b> {
    pub(crate) fn new(buf: &'b [u8], p: &MatchParams, prefix: Option<&'b PrefixIndex>) -> Self {
        let local_start = prefix.map_or(0, PrefixIndex::positions);
        // The chain table must cover the whole window: if positions
        // wrap within the window, newer inserts clobber live chain
        // links and the walk degrades to one or two hops. (zlib sizes
        // prev[] to exactly its window for the same reason.) Only the
        // positions this call inserts need a slot.
        let span = p.max_offset().min(buf.len() - local_start).max(2);
        let span_log = usize::BITS - (span - 1).leading_zeros();
        let chain_log = p.chain_log.max(span_log).clamp(1, 22);
        let chain_size = 1usize << chain_log;
        Self {
            buf,
            prefix,
            local_start,
            head: vec![NONE; 1usize << p.hash_log],
            chain: vec![NONE; chain_size],
            chain_mask: chain_size - 1,
            hash_log: p.hash_log,
            max_offset: p.max_offset(),
            min_match: p.min_match as usize,
            target_length: p.target_length as usize,
            search_attempts: p.search_attempts.max(1),
            priced: p.priced_parse,
            inserted: local_start,
            hash_limit: buf.len().saturating_sub(3),
        }
    }

    /// Inserts all positions up to and including `upto`.
    pub(crate) fn insert_through(&mut self, upto: usize) {
        while self.inserted <= upto && self.inserted < self.hash_limit {
            let pos = self.inserted;
            let h = hash4(self.buf, pos, self.hash_log);
            self.chain[pos & self.chain_mask] = self.head[h];
            self.head[h] = pos as u32;
            self.inserted += 1;
        }
    }

    /// Positions this finder has hashed into its own tables.
    pub(crate) fn hashed(&self) -> usize {
        self.inserted - self.local_start
    }

    /// Where `pos`'s candidates continue once the per-call chain is
    /// spent: the newest prefix position sharing its 4 bytes' hash.
    #[deny(clippy::indexing_slicing)]
    #[inline]
    fn prefix_head(&self, pos: usize) -> u32 {
        self.prefix
            .map_or(NONE, |ix| ix.head(read_u32(self.buf, pos)))
    }

    /// First candidate for `pos` (already inserted, so it is its own
    /// chain head; start at its predecessor).
    #[inline]
    fn first_candidate(&self, pos: usize) -> u32 {
        match self.chain[pos & self.chain_mask] {
            NONE => self.prefix_head(pos),
            c => c,
        }
    }

    /// The candidate after `c` on `pos`'s walk: down the per-call chain,
    /// across to the prefix index at its head for the same 4 bytes, then
    /// down the index's chain. Positions only ever decrease.
    #[inline]
    fn next_candidate(&self, pos: usize, c: usize) -> u32 {
        if c < self.local_start {
            return self.prefix.map_or(NONE, |ix| ix.link(c));
        }
        match self.chain[c & self.chain_mask] {
            NONE => self.prefix_head(pos),
            next => next,
        }
    }

    /// The shortest match at `new_off` that beats the current best
    /// (`best_len` at `best_off`; `best_off` is 0 until a candidate is
    /// taken), counting ≈ 4 bits of entropy-coded output per literal a
    /// match replaces. A challenger must be longer, and enough longer to
    /// pay for its extra offset bits: `4 * (len - best_len) >=
    /// bits(new_off) - bits(best_off)`. The first candidate only has to
    /// reach the minimum match unless the parse is priced; then it must
    /// pay for its whole offset and its codes:
    /// `4 * len >= bits(new_off) + FIRST_MATCH_BITS`. Adding the two
    /// inequalities shows that every accepted challenger satisfies the
    /// first one as well.
    #[inline]
    fn needed_len(&self, best_len: usize, new_off: usize, best_off: usize) -> usize {
        let longer = best_len + 1;
        if best_off == 0 {
            if !self.priced {
                return longer;
            }
            return longer.max((offset_bits(new_off) + FIRST_MATCH_BITS).div_ceil(4) as usize);
        }
        let extra = offset_bits(new_off).saturating_sub(offset_bits(best_off));
        best_len + (extra.div_ceil(4) as usize).max(1)
    }

    /// Finds the best match at `pos`. Returns `(length, offset)`; length
    /// 0 means no acceptable match. Requires `pos` already inserted.
    pub(crate) fn best_match(&self, pos: usize) -> (usize, usize) {
        if pos >= self.hash_limit {
            return (0, 0);
        }
        let buf = self.buf;
        let len = buf.len();
        let mut best_len = self.min_match - 1;
        let mut best_off = 0usize;
        let mut cand = self.first_candidate(pos);
        let mut attempts = self.search_attempts;
        while cand != NONE && attempts > 0 {
            let c = cand as usize;
            if c >= pos || pos - c > self.max_offset {
                break;
            }
            // Quick rejection: the last byte of the shortest match that
            // would be taken.
            let need = self.needed_len(best_len, pos - c, best_off);
            if pos + need <= len && buf[c + need - 1] == buf[pos + need - 1] {
                let l = match_length(buf, c, pos, len);
                if l >= need {
                    best_len = l;
                    best_off = pos - c;
                    if l >= self.target_length {
                        break;
                    }
                }
            }
            let next = self.next_candidate(pos, c);
            // Stale-entry guard: chains must strictly decrease.
            if next != NONE && next as usize >= c {
                break;
            }
            cand = next;
            attempts -= 1;
        }
        if best_len >= self.min_match {
            (best_len, best_off)
        } else {
            (0, 0)
        }
    }

    /// Gathers up to `cap` candidates at `pos` with strictly increasing
    /// match lengths (closest-first along the chain, so each kept entry
    /// pairs a longer length with a larger offset). Used by the optimal
    /// parser.
    pub(crate) fn candidates(&self, pos: usize, cap: usize, out: &mut Vec<(u32, u32)>) {
        out.clear();
        if pos >= self.hash_limit {
            return;
        }
        let buf = self.buf;
        let len = buf.len();
        let mut best_len = self.min_match - 1;
        let mut cand = self.first_candidate(pos);
        let mut attempts = self.search_attempts;
        while cand != NONE && attempts > 0 && out.len() < cap {
            let c = cand as usize;
            if c >= pos || pos - c > self.max_offset {
                break;
            }
            if pos + best_len < len && buf[c + best_len] == buf[pos + best_len] {
                let l = match_length(buf, c, pos, len);
                if l > best_len {
                    best_len = l;
                    out.push((l as u32, (pos - c) as u32));
                }
            }
            let next = self.next_candidate(pos, c);
            if next != NONE && next as usize >= c {
                break;
            }
            cand = next;
            attempts -= 1;
        }
    }
}

/// What a priced parse charges a non-repeat match beyond its offset's
/// extra bits: the offset, match-length and literal-length codes, in
/// bits (DESIGN.md §6, "A priced level-3 parse").
const FIRST_MATCH_BITS: u32 = 6;

/// A priced parse's stride over unmatched positions grows by one every
/// `1 << SKIP_TRIGGER` misses: the fast finder's skip acceleration, with
/// an earlier trigger.
const SKIP_TRIGGER: u32 = 4;

/// Significant bits of an offset: what a log2-coded offset costs.
#[inline]
fn offset_bits(offset: usize) -> u32 {
    usize::BITS - offset.leading_zeros()
}

pub(crate) fn parse(
    buf: &[u8],
    start: usize,
    p: &MatchParams,
    lazy: bool,
    prefix: Option<&PrefixIndex>,
) -> ParsedBlock {
    let len = buf.len();
    let mut block = ParsedBlock::new();
    if len - start == 0 {
        return block;
    }

    let mut finder = ChainFinder::new(buf, p, prefix);
    if start > 0 {
        finder.insert_through(start - 1);
    }

    let mut pos = start;
    let mut anchor = start;
    // Repeat-offset preference: the entropy stage codes a repeated
    // offset almost for free, so a match at the previous offset wins
    // unless the chain finds one clearly longer (zstd's lazy matcher
    // applies the same rule).
    let mut last_offset = 0usize;
    // Positions visited since the last match; a priced parse steps over
    // `misses >> SKIP_TRIGGER` more per miss. Skipped positions are still
    // inserted (the next visit inserts through them), so later matches
    // can find them.
    let mut misses = 0u32;
    while pos < finder.hash_limit {
        finder.insert_through(pos);
        // Rep check first: a long-enough repeat match short-circuits the
        // chain walk entirely (as in zstd), which also keeps degenerate
        // buckets — e.g. oceans of zero bytes — from dragging the search.
        let rep_len = if p.rep_preference && last_offset > 0 && last_offset <= pos {
            match_length(buf, pos - last_offset, pos, len)
        } else {
            0
        };
        let (mut mlen, mut moff);
        if rep_len >= finder.min_match.max(8).min(finder.target_length) {
            mlen = rep_len;
            moff = last_offset;
        } else {
            let found = finder.best_match(pos);
            mlen = found.0;
            moff = found.1;
            if rep_len >= finder.min_match && rep_len + 3 >= mlen {
                mlen = rep_len;
                moff = last_offset;
            }
        }
        if mlen == 0 {
            pos += 1;
            if finder.priced {
                misses += 1;
                pos += (misses >> SKIP_TRIGGER) as usize;
            }
            continue;
        }
        misses = 0;
        let mut mpos = pos;
        if lazy && pos + 1 < finder.hash_limit {
            finder.insert_through(pos + 1);
            let (l2, o2) = finder.best_match(pos + 1);
            // Deferring costs one literal; require a strictly longer match.
            if l2 > mlen {
                mlen = l2;
                moff = o2;
                mpos = pos + 1;
            }
        }

        // Backward extension into pending literals.
        let mut src = mpos - moff;
        let mut back = 0usize;
        while mpos - back > anchor && src > back && buf[mpos - back - 1] == buf[src - back - 1] {
            back += 1;
        }
        let mpos = mpos - back;
        src -= back;
        let mlen = mlen + back;
        debug_assert_eq!(mpos - src, moff);

        block.literals.extend_from_slice(&buf[anchor..mpos]);
        block.sequences.push(Sequence::new(
            (mpos - anchor) as u32,
            mlen as u32,
            moff as u32,
        ));
        last_offset = moff;
        // Index the interior of the match so later repeats are visible.
        finder.insert_through(mpos + mlen - 1);
        pos = mpos + mlen;
        anchor = pos;
    }

    block.literals.extend_from_slice(&buf[anchor..]);
    crate::note_hashed(finder.hashed());
    block
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::reconstruct;
    use crate::Strategy;

    fn greedy() -> MatchParams {
        MatchParams::new(Strategy::Greedy)
    }

    fn lazy() -> MatchParams {
        MatchParams::new(Strategy::Lazy)
    }

    #[test]
    fn greedy_roundtrip() {
        let data = b"abcabcabcabc_then_something_else_abcabc";
        let block = parse(data, 0, &greedy().shrunk_for_input(data.len()), false, None);
        assert_eq!(reconstruct(&block, &[]).unwrap(), data);
    }

    #[test]
    fn chain_finds_farther_better_match() {
        // A longer match sits farther back than the most recent chain
        // candidate; the walk must go past the near one. Lazy evaluation
        // is needed because a decoy match begins one position earlier.
        let data = b"match_longer_XXXX_match_lo_YYYY_match_longer_";
        let p = lazy().shrunk_for_input(data.len());
        let block = parse(data, 0, &p, true, None);
        assert_eq!(reconstruct(&block, &[]).unwrap(), data);
        let max_match = block.sequences.iter().map(|s| s.match_len).max().unwrap();
        assert!(
            max_match >= 13,
            "expected 'match_longer_' match, got {max_match}"
        );
    }

    #[test]
    fn lazy_beats_greedy_on_crafted_input() {
        // At position p a 4-byte match exists, but p+1 starts a much
        // longer one. Greedy takes the short match and truncates the
        // long one; lazy defers.
        let data = b"abcd~~~~bcdefghijklmnop____abcdefghijklmnop";
        let pg = greedy().shrunk_for_input(data.len());
        let pl = lazy().shrunk_for_input(data.len());
        let g = parse(data, 0, &pg, false, None);
        let l = parse(data, 0, &pl, true, None);
        assert_eq!(reconstruct(&g, &[]).unwrap(), data);
        assert_eq!(reconstruct(&l, &[]).unwrap(), data);
        let cost = |b: &ParsedBlock| b.literals.len() + 3 * b.sequences.len();
        assert!(cost(&l) <= cost(&g));
    }

    #[test]
    fn respects_window_limit() {
        // Repeat separated by more than the window: no match allowed.
        let mut data = b"unique_prefix_0123456789".to_vec();
        data.extend(vec![b'.'; 2100]);
        data.extend_from_slice(b"unique_prefix_0123456789");
        let p = greedy().with_window_log(10); // 1 KiB window
        let block = parse(&data, 0, &p, false, None);
        assert_eq!(reconstruct(&block, &[]).unwrap(), data);
        for s in &block.sequences {
            assert!(s.offset as usize <= 1 << 10);
        }
    }

    #[test]
    fn candidates_increasing_lengths() {
        let data = b"abcd_1_abcde_2_abcdef_3_abcdefg";
        let p = greedy().shrunk_for_input(data.len());
        let mut f = ChainFinder::new(data, &p, None);
        f.insert_through(data.len());
        let pos = data.len() - 7; // final "abcdefg"
        let mut cands = Vec::new();
        f.candidates(pos, 8, &mut cands);
        assert!(!cands.is_empty());
        for w in cands.windows(2) {
            assert!(w[1].0 > w[0].0, "lengths must strictly increase");
            assert!(w[1].1 > w[0].1, "offsets must strictly increase");
        }
    }

    #[test]
    fn long_runs_terminate() {
        // Hash chains on runs are degenerate; target_length early exit
        // plus attempt caps must keep this fast and correct.
        let data = vec![0u8; 100_000];
        let block = parse(&data, 0, &lazy().shrunk_for_input(data.len()), true, None);
        assert_eq!(reconstruct(&block, &[]).unwrap(), data);
        assert!(block.literals.len() < 64);
    }
}
