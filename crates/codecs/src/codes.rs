//! Value-code tables for literal lengths, match lengths, and offsets.
//!
//! Sequence fields span huge ranges (a literal run can be a whole 128 KiB
//! block), so — like DEFLATE and zstd — the codecs entropy-code a small
//! *code* per value and append the remainder as raw extra bits. `zlibx`
//! Huffman-codes these codes; `zstdx` FSE-codes them. The tables follow
//! the zstd shape: small values map directly, larger values into
//! doubling buckets.

use std::sync::OnceLock;

use entropy::fse::FseTable;
use entropy::hist::normalize_counts;

/// Highest literal-length code (values up to 131 071).
pub const MAX_LL_CODE: u8 = 35;
/// Highest match-length code (values up to 131 071, where the value is
/// `match_len - min_match`).
pub const MAX_ML_CODE: u8 = 52;
/// Highest *power-of-two* offset code (offsets up to `2^30`).
pub const MAX_OF_CODE: u8 = 30;
/// First repeat-offset code: codes `31..=33` mean "reuse the 1st/2nd/3rd
/// most recent offset" and carry no extra bits — zstd's repeat-offset
/// mechanism, which is a large part of its ratio edge on structured
/// data where a few distances recur constantly.
pub const OF_REP_BASE: u8 = 31;
/// Number of repeat-offset slots.
pub const NUM_REP_OFFSETS: usize = 3;
/// Size of the offset-code alphabet including repeat codes.
pub const OF_ALPHABET: usize = OF_REP_BASE as usize + NUM_REP_OFFSETS;

/// Table log used by the predefined FSE distributions.
pub const PREDEFINED_TABLE_LOG: u32 = 6;

// (base, extra_bits) for LL codes 16..=35.
const LL_EXTENDED: [(u32, u32); 20] = [
    (16, 1),
    (18, 1),
    (20, 1),
    (22, 1),
    (24, 2),
    (28, 2),
    (32, 3),
    (40, 3),
    (48, 4),
    (64, 6),
    (128, 7),
    (256, 8),
    (512, 9),
    (1024, 10),
    (2048, 11),
    (4096, 12),
    (8192, 13),
    (16384, 14),
    (32768, 15),
    (65536, 16),
];

// (base, extra_bits) for ML codes 32..=52.
const ML_EXTENDED: [(u32, u32); 21] = [
    (32, 1),
    (34, 1),
    (36, 1),
    (38, 1),
    (40, 2),
    (44, 2),
    (48, 3),
    (56, 3),
    (64, 4),
    (80, 4),
    (96, 5),
    (128, 7),
    (256, 8),
    (512, 9),
    (1024, 10),
    (2048, 11),
    (4096, 12),
    (8192, 13),
    (16384, 14),
    (32768, 15),
    (65536, 16),
];

// indexing_slicing: every table starts at a base `<= direct <= v`, so
// `partition_point` is at least 1 and `idx` is a valid entry.
#[allow(clippy::indexing_slicing)]
fn extended_code(v: u32, table: &'static [(u32, u32)], direct: u32) -> u8 {
    debug_assert!(v >= direct);
    // Largest entry whose base <= v.
    let idx = table.partition_point(|&(base, _)| base <= v) - 1;
    debug_assert!(v < table[idx].0 + (1 << table[idx].1));
    (direct as usize + idx) as u8
}

/// Maps a literal-run length to its code.
pub fn ll_code(v: u32) -> u8 {
    if v < 16 {
        v as u8
    } else {
        extended_code(v, &LL_EXTENDED, 16)
    }
}

/// `(base, extra_bits)` for a literal-length code.
///
/// Total: codes above [`MAX_LL_CODE`] return `(0, 0)`. Decoders validate
/// the code range first and reject such streams as corrupt, so the
/// fallback never reaches output.
#[deny(clippy::indexing_slicing)]
pub fn ll_extra(code: u8) -> (u32, u32) {
    if code < 16 {
        (code as u32, 0)
    } else {
        debug_assert!(code <= MAX_LL_CODE);
        LL_EXTENDED
            .get(code as usize - 16)
            .copied()
            .unwrap_or((0, 0))
    }
}

/// Maps a match-length *value* (`match_len - min_match`) to its code.
pub fn ml_code(v: u32) -> u8 {
    if v < 32 {
        v as u8
    } else {
        extended_code(v, &ML_EXTENDED, 32)
    }
}

/// `(base, extra_bits)` for a match-length code.
///
/// Total: codes above [`MAX_ML_CODE`] return `(0, 0)`. Decoders validate
/// the code range first and reject such streams as corrupt, so the
/// fallback never reaches output.
#[deny(clippy::indexing_slicing)]
pub fn ml_extra(code: u8) -> (u32, u32) {
    if code < 32 {
        (code as u32, 0)
    } else {
        debug_assert!(code <= MAX_ML_CODE);
        ML_EXTENDED
            .get(code as usize - 32)
            .copied()
            .unwrap_or((0, 0))
    }
}

/// Maps an offset (>= 1) to its code: `floor(log2(offset))`.
pub fn of_code(offset: u32) -> u8 {
    debug_assert!(offset >= 1);
    (31 - offset.leading_zeros()) as u8
}

/// `(base, extra_bits)` for an offset code: offsets in
/// `[2^code, 2^(code+1))` carry `code` extra bits. Repeat codes carry
/// no extra bits.
pub fn of_extra(code: u8) -> (u32, u32) {
    if code >= OF_REP_BASE {
        (0, 0)
    } else {
        (1u32 << code, code as u32)
    }
}

/// Repeat-offset history with zstd-style move-to-front updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepHistory([u32; NUM_REP_OFFSETS]);

impl Default for RepHistory {
    fn default() -> Self {
        // Arbitrary but fixed initial offsets, shared by encoder and
        // decoder (zstd uses 1, 4, 8).
        Self([1, 4, 8])
    }
}

impl RepHistory {
    /// If `offset` matches a slot, returns its repeat code and promotes
    /// the slot; otherwise records `offset` as most recent and returns
    /// `None`.
    // indexing_slicing: `k` comes from `position()` on the array itself.
    #[allow(clippy::indexing_slicing)]
    pub fn encode(&mut self, offset: u32) -> Option<u8> {
        match self.0.iter().position(|&r| r == offset) {
            Some(k) => {
                let v = self.0[k];
                self.0.copy_within(0..k, 1);
                self.0[0] = v;
                Some(OF_REP_BASE + k as u8)
            }
            None => {
                self.0.copy_within(0..NUM_REP_OFFSETS - 1, 1);
                self.0[0] = offset;
                None
            }
        }
    }

    /// Resolves a repeat code to its offset, promoting the slot.
    ///
    /// Returns `None` for out-of-range repeat indices.
    // indexing_slicing: `k < NUM_REP_OFFSETS` (the array length) is
    // checked on the line above the access.
    #[allow(clippy::indexing_slicing)]
    pub fn decode(&mut self, rep_code: u8) -> Option<u32> {
        let k = (rep_code as usize).checked_sub(OF_REP_BASE as usize)?;
        if k >= NUM_REP_OFFSETS {
            return None;
        }
        let v = self.0[k];
        self.0.copy_within(0..k, 1);
        self.0[0] = v;
        Some(v)
    }

    /// Records a literally-coded offset as most recent.
    pub fn push(&mut self, offset: u32) {
        self.0.copy_within(0..NUM_REP_OFFSETS - 1, 1);
        self.0[0] = offset;
    }

    /// Resolves a decoded offset-code/raw-offset pair to the absolute
    /// offset: repeat codes look up (and promote) history, literal codes
    /// push their raw offset. Returns `None` for an out-of-range repeat
    /// index. One call per sequence, at apply time and in sequence
    /// order, evolves the history exactly as the encoder saw it.
    pub fn resolve(&mut self, ofc: u8, raw: u32) -> Option<u32> {
        if ofc >= OF_REP_BASE {
            self.decode(ofc)
        } else {
            self.push(raw);
            Some(raw)
        }
    }
}

/// Predefined FSE table for literal-length codes (zstdx's no-header
/// fallback for blocks too small to amortize a table description).
// indexing_slicing: the 16 prior overrides index a vec of
// `MAX_LL_CODE + 1 == 36` slots.
#[allow(clippy::indexing_slicing)]
pub fn predefined_ll() -> &'static FseTable {
    static T: OnceLock<FseTable> = OnceLock::new();
    T.get_or_init(|| {
        // Prior: short literal runs dominate.
        let mut prior = vec![1u32; MAX_LL_CODE as usize + 1];
        for (i, p) in [24u32, 20, 18, 16, 14, 12, 10, 8, 7, 6, 5, 4, 4, 3, 3, 3]
            .iter()
            .enumerate()
        {
            prior[i] = *p;
        }
        build_predefined(&prior)
    })
}

/// Predefined FSE table for match-length codes.
// indexing_slicing: the 16 prior overrides index a vec of
// `MAX_ML_CODE + 1 == 53` slots.
#[allow(clippy::indexing_slicing)]
pub fn predefined_ml() -> &'static FseTable {
    static T: OnceLock<FseTable> = OnceLock::new();
    T.get_or_init(|| {
        // Prior: short matches dominate, with a slow tail.
        let mut prior = vec![1u32; MAX_ML_CODE as usize + 1];
        for (i, p) in [20u32, 18, 16, 14, 12, 10, 8, 7, 6, 5, 4, 4, 3, 3, 2, 2]
            .iter()
            .enumerate()
        {
            prior[i] = *p;
        }
        build_predefined(&prior)
    })
}

/// Predefined FSE table for offset codes.
pub fn predefined_of() -> &'static FseTable {
    static T: OnceLock<FseTable> = OnceLock::new();
    T.get_or_init(|| {
        // Prior: mid-range offsets most common, repeat offsets very
        // common (structured data reuses distances constantly).
        let prior: Vec<u32> = (0..OF_ALPHABET as u32)
            .map(|c| match c {
                0..=2 => 2,
                3..=9 => 4,
                10..=16 => 3,
                31 => 10, // rep1
                32 => 5,  // rep2
                33 => 3,  // rep3
                _ => 1,
            })
            .collect();
        build_predefined(&prior)
    })
}

fn build_predefined(prior: &[u32]) -> FseTable {
    let norm = normalize_counts(prior, PREDEFINED_TABLE_LOG)
        .expect("predefined priors normalize by construction");
    FseTable::from_normalized(&norm, PREDEFINED_TABLE_LOG)
        .expect("predefined tables build by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ll_codes_cover_range_contiguously() {
        let mut prev_end = 0u32;
        for code in 0..=MAX_LL_CODE {
            let (base, bits) = ll_extra(code);
            assert_eq!(base, prev_end, "gap before code {code}");
            prev_end = base + (1 << bits);
        }
        assert!(prev_end >= 128 * 1024, "LL must cover a full block");
    }

    #[test]
    fn ml_codes_cover_range_contiguously() {
        let mut prev_end = 0u32;
        for code in 0..=MAX_ML_CODE {
            let (base, bits) = ml_extra(code);
            assert_eq!(base, prev_end, "gap before code {code}");
            prev_end = base + (1 << bits);
        }
        assert!(prev_end >= 128 * 1024);
    }

    #[test]
    fn code_of_value_is_inverse_of_extra() {
        for v in (0..131_072u32).step_by(7) {
            let c = ll_code(v);
            let (base, bits) = ll_extra(c);
            assert!(v >= base && v < base + (1 << bits), "ll v={v} code={c}");
            let c = ml_code(v);
            let (base, bits) = ml_extra(c);
            assert!(v >= base && v < base + (1 << bits), "ml v={v} code={c}");
        }
        for off in [1u32, 2, 3, 7, 8, 255, 256, 65535, 1 << 22] {
            let c = of_code(off);
            let (base, bits) = of_extra(c);
            assert!(off >= base && off < base + (1 << bits), "of={off}");
        }
    }

    #[test]
    fn small_values_map_directly() {
        for v in 0..16u32 {
            assert_eq!(ll_code(v), v as u8);
            assert_eq!(ll_extra(v as u8), (v, 0));
        }
        for v in 0..32u32 {
            assert_eq!(ml_code(v), v as u8);
        }
    }

    #[test]
    fn predefined_tables_build_and_roundtrip() {
        for (table, max_code) in [
            (predefined_ll(), MAX_LL_CODE),
            (predefined_ml(), MAX_ML_CODE),
            (predefined_of(), OF_ALPHABET as u8 - 1),
        ] {
            assert_eq!(table.table_log(), PREDEFINED_TABLE_LOG);
            // Every code must be representable.
            for c in 0..=max_code {
                assert!(
                    table.normalized_counts()[c as usize] > 0,
                    "code {c} unrepresentable"
                );
            }
            let symbols: Vec<u16> = (0..500u32)
                .map(|i| (i % (max_code as u32 + 1)) as u16)
                .collect();
            let buf = table.encode(&symbols);
            assert_eq!(table.decode(&buf, symbols.len()).unwrap(), symbols);
        }
    }
}

/// Packs code lengths (each <= 15) as nibbles, two per byte.
// indexing_slicing: `chunks(2)` never yields an empty chunk.
#[allow(clippy::indexing_slicing)]
pub fn write_nibble_lengths(out: &mut Vec<u8>, lens: &[u8]) {
    for pair in lens.chunks(2) {
        let lo = pair[0];
        let hi = pair.get(1).copied().unwrap_or(0);
        debug_assert!(lo <= 15 && hi <= 15);
        out.push(lo | (hi << 4));
    }
}

/// Reads `n` nibble-packed code lengths.
///
/// # Errors
///
/// Returns [`crate::CodecError::Truncated`] on truncation.
#[deny(clippy::indexing_slicing)]
pub fn read_nibble_lengths(c: &mut crate::varint::Cursor<'_>, n: usize) -> crate::Result<Vec<u8>> {
    let bytes = c.read_slice(n.div_ceil(2))?;
    let mut lens = Vec::with_capacity(n);
    for b in bytes {
        lens.push(b & 0x0f);
        lens.push(b >> 4);
    }
    lens.truncate(n);
    Ok(lens)
}

#[cfg(test)]
mod rep_tests {
    use super::*;

    #[test]
    fn rep_history_mirror() {
        // Encoder and decoder histories must stay in lockstep.
        let offsets = [100u32, 100, 200, 100, 300, 200, 300, 300, 8];
        let mut enc = RepHistory::default();
        let mut dec = RepHistory::default();
        for &off in &offsets {
            match enc.encode(off) {
                Some(code) => assert_eq!(dec.decode(code), Some(off)),
                None => dec.push(off),
            }
        }
        assert_eq!(enc, dec);
    }

    #[test]
    fn rep_hits_after_first_use() {
        let mut h = RepHistory::default();
        assert_eq!(h.encode(1234), None);
        assert_eq!(h.encode(1234), Some(OF_REP_BASE));
        assert_eq!(h.encode(5678), None);
        assert_eq!(h.encode(1234), Some(OF_REP_BASE + 1));
        // 1234 promoted back to front.
        assert_eq!(h.encode(1234), Some(OF_REP_BASE));
    }

    #[test]
    fn rep_extra_bits_are_zero() {
        for k in 0..NUM_REP_OFFSETS as u8 {
            assert_eq!(of_extra(OF_REP_BASE + k), (0, 0));
        }
    }

    #[test]
    fn decode_rejects_out_of_range() {
        let mut h = RepHistory::default();
        assert_eq!(h.decode(OF_REP_BASE + NUM_REP_OFFSETS as u8), None);
    }
}
