//! Match-finder parameterization.
//!
//! These are the knobs that compression levels map onto (the paper,
//! §II-B: "The users of these compression algorithms can tune the
//! parameters such as the match window size indirectly by changing the
//! compression level"). Each codec owns a level table producing
//! [`MatchParams`]; hardware modeling (`compopt::compsim`) constrains
//! `window_log` directly, as in the paper's sensitivity study 3.

/// Match-finding algorithm family, ordered from fastest to strongest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Strategy {
    /// Single-probe hash table with skip acceleration (LZ4-style).
    Fast,
    /// Hash chain, greedy selection.
    Greedy,
    /// Hash chain with one-position lazy evaluation.
    Lazy,
    /// Price-based dynamic-programming parse over chain candidates.
    Optimal,
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Strategy::Fast => "fast",
            Strategy::Greedy => "greedy",
            Strategy::Lazy => "lazy",
            Strategy::Optimal => "optimal",
        };
        f.write_str(s)
    }
}

/// Tunable parameters of a match-finding pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatchParams {
    /// Maximum match offset is `1 << window_log`.
    pub window_log: u32,
    /// Hash table has `1 << hash_log` entries.
    pub hash_log: u32,
    /// Chain table has `1 << chain_log` entries (chain strategies only).
    pub chain_log: u32,
    /// Maximum candidate probes per position (chain strategies only).
    pub search_attempts: u32,
    /// Minimum acceptable match length (the paper names this as one of
    /// the per-level heuristics, §IV-C).
    pub min_match: u32,
    /// Stop probing once a match of at least this length is found.
    pub target_length: u32,
    /// Prefer matches at the previous offset (repeat offsets are nearly
    /// free for entropy stages that code them). Disable only to ablate.
    pub rep_preference: bool,
    /// Price the chain finders' matches for a coder that spends about
    /// `log2(offset)` bits on an offset (zstdx): the first candidate at
    /// a position is only taken when `4 * len >= bits(offset) + 6`, as
    /// later candidates already had to pay for their extra offset bits,
    /// and the parse strides past unmatched runs the way the fast finder
    /// does. Off for lz4x (raw literals, flat 16-bit offsets) and zlibx
    /// (no repeat-offset codes), where fewer, longer matches measured a
    /// ratio loss. The optimal parser prices offsets itself and ignores
    /// it.
    pub priced_parse: bool,
    /// Algorithm family.
    pub strategy: Strategy,
}

impl MatchParams {
    /// Reasonable defaults for the given strategy (mid-level settings).
    pub fn new(strategy: Strategy) -> Self {
        let (hash_log, chain_log, attempts, target) = match strategy {
            Strategy::Fast => (16, 0, 1, 12),
            Strategy::Greedy => (17, 16, 8, 32),
            Strategy::Lazy => (17, 16, 16, 64),
            Strategy::Optimal => (17, 16, 32, 256),
        };
        Self {
            window_log: 21,
            hash_log,
            chain_log,
            search_attempts: attempts,
            min_match: 3,
            target_length: target,
            rep_preference: true,
            priced_parse: false,
            strategy,
        }
    }

    /// Builder-style override of the window log.
    pub fn with_window_log(mut self, window_log: u32) -> Self {
        self.window_log = window_log;
        self
    }

    /// Builder-style override of the minimum match length.
    pub fn with_min_match(mut self, min_match: u32) -> Self {
        self.min_match = min_match;
        self
    }

    /// Shrinks table sizes for small inputs.
    ///
    /// "For smaller inputs, Zstd shrinks its hash tables, because there
    /// is little benefit to using a 1MB hash table to process 1KB of
    /// input. Shrinking the table will make the algorithm significantly
    /// faster because the working memory will sit in a faster cache."
    /// (paper, §IV-E). This adjustment — together with the fixed
    /// per-compression setup cost of allocating the tables — is what
    /// produces Figure 13's non-monotonic speed profile.
    pub fn shrunk_for_input(mut self, input_len: usize) -> Self {
        if input_len == 0 {
            return self;
        }
        // Smallest power of two covering the input, floor 10 (1 KiB).
        let input_log = (usize::BITS - (input_len - 1).max(1).leading_zeros()).max(10);
        self.hash_log = self.hash_log.min(input_log + 1).max(6);
        self.chain_log = self.chain_log.min(input_log);
        self.window_log = self.window_log.min(input_log.max(10));
        self
    }

    /// Maximum backward offset permitted by this window.
    ///
    /// One less than the window size, so formats that encode offsets in
    /// exactly `window_log` bits (e.g. lz4x's 16-bit offsets) can
    /// represent every permitted offset.
    pub fn max_offset(&self) -> usize {
        (1usize << self.window_log) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategies_are_ordered_by_strength() {
        assert!(Strategy::Fast < Strategy::Greedy);
        assert!(Strategy::Greedy < Strategy::Lazy);
        assert!(Strategy::Lazy < Strategy::Optimal);
    }

    #[test]
    fn shrink_reduces_tables_for_small_inputs() {
        let p = MatchParams::new(Strategy::Lazy);
        let small = p.shrunk_for_input(1024);
        assert!(small.hash_log < p.hash_log);
        assert!(small.window_log <= p.window_log);
        let large = p.shrunk_for_input(4 << 20);
        assert_eq!(large.hash_log, p.hash_log);
        assert_eq!(large.window_log, p.window_log);
    }

    #[test]
    fn shrink_is_monotone_in_input_size() {
        let p = MatchParams::new(Strategy::Greedy);
        let mut prev = 0;
        for len in [64usize, 256, 1024, 4096, 65536, 1 << 20] {
            let s = p.shrunk_for_input(len);
            assert!(s.hash_log >= prev);
            prev = s.hash_log;
        }
    }

    #[test]
    fn shrink_handles_empty_input() {
        let p = MatchParams::new(Strategy::Fast);
        assert_eq!(p.shrunk_for_input(0), p);
    }

    #[test]
    fn display_names() {
        assert_eq!(Strategy::Optimal.to_string(), "optimal");
        assert_eq!(Strategy::Fast.to_string(), "fast");
    }
}
