//! Finite State Entropy — tabled asymmetric numeral systems (tANS).
//!
//! This is the entropy scheme the paper credits for Zstd's compression
//! ratio edge over LZ4 (Section II-B: "compressing the sequences with
//! Finite State Entropy"). The implementation follows the classic tANS
//! construction:
//!
//! * States live in `[L, 2L)` where `L = 1 << table_log`.
//! * Symbols are spread over the `L` table slots with a coprime step.
//! * Decoding maps a state to a symbol plus a refill (`base + read(nb)`),
//!   encoding is the exact inverse (push state down into
//!   `[count, 2*count)` by emitting low bits, then jump via the encode
//!   table).
//! * The encoder processes symbols in **reverse** and the decoder reads
//!   the bitstream back-to-front via
//!   [`ReverseBitReader`](crate::bitio::ReverseBitReader), exactly like
//!   the reference FSE.
//!
//! Multiple streams (zstdx uses three: literal-length, match-length,
//! offset codes) can interleave into one bitstream by mirroring
//! encode/decode operation order; [`FseEncoder`]/[`FseDecoder`] expose
//! the per-operation primitives that make this possible.
//!
//! # Example
//!
//! ```
//! use entropy::fse::FseTable;
//! use entropy::hist::{normalize_counts, symbol_histogram};
//!
//! let symbols: Vec<u16> = (0..1000).map(|i| (i % 7) as u16 / 2).collect();
//! let hist = symbol_histogram(&symbols, 4);
//! let norm = normalize_counts(&hist, 6).unwrap();
//! let table = FseTable::from_normalized(&norm, 6).unwrap();
//! let encoded = table.encode(&symbols);
//! assert_eq!(table.decode(&encoded, symbols.len()).unwrap(), symbols);
//! ```

use crate::bitio::{BitWriter, RevBitSrc, ReverseBitReader, ReverseBitReaderFast};
use crate::hist::{normalize_counts, optimal_table_log};
use crate::{Error, Result};

/// Maximum supported `table_log` (matches the normalization bound).
pub const MAX_TABLE_LOG: u32 = 15;

/// A built FSE coding table (encode and decode directions).
#[derive(Debug, Clone)]
pub struct FseTable {
    table_log: u32,
    /// Normalized counts (sum == `1 << table_log`).
    norm: Vec<u32>,
    /// Decode: slot -> symbol.
    dec_symbol: Vec<u16>,
    /// Decode: slot -> number of refill bits.
    dec_nbits: Vec<u8>,
    /// Decode: slot -> next-state base (`x' << nb`, already in `[L, 2L)`).
    dec_base: Vec<u32>,
    /// Encode: `enc_state[cum[s] + (sub - norm[s])]` -> next state.
    enc_state: Vec<u32>,
    /// Per-symbol offset into `enc_state`.
    cum_start: Vec<u32>,
}

impl FseTable {
    /// Builds a table from normalized counts summing to `1 << table_log`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `table_log` is out of range
    /// or the counts do not sum to the table size.
    // indexing_slicing: table construction over arrays we just sized.
    // `symbol_at`/`dec_*`/`enc_state` hold `size` slots and `pos`/`u`
    // stay `< size` (`pos` is masked, `u` ranges over `0..size`);
    // `next_val`/`cum_start` are sized from `norm` and indexed by
    // symbols drawn from `norm`; the `enc_state` index is
    // `cum[s] + (xp - norm[s])` with `xp` in `[norm[s], 2*norm[s])`,
    // which by construction of the cumulative sums is `< size`.
    #[allow(clippy::indexing_slicing)]
    pub fn from_normalized(norm: &[u32], table_log: u32) -> Result<Self> {
        if !(5..=MAX_TABLE_LOG).contains(&table_log) {
            return Err(Error::InvalidParameter("table_log out of range"));
        }
        let size = 1usize << table_log;
        let total: u64 = norm.iter().map(|&c| c as u64).sum();
        if total != size as u64 {
            return Err(Error::InvalidParameter(
                "normalized counts must sum to table size",
            ));
        }
        if norm.len() > u16::MAX as usize {
            return Err(Error::InvalidParameter("alphabet too large"));
        }

        // Spread symbols over the slots with an odd (hence coprime) step,
        // same shape as FSE_buildCTable's spread loop.
        let mask = size - 1;
        let step = (size >> 1) + (size >> 3) + 3;
        let mut symbol_at = vec![0u16; size];
        let mut pos = 0usize;
        for (s, &c) in norm.iter().enumerate() {
            for _ in 0..c {
                symbol_at[pos] = s as u16;
                pos = (pos + step) & mask;
            }
        }
        debug_assert_eq!(pos, 0, "coprime step must cycle back to zero");

        let mut cum_start = vec![0u32; norm.len() + 1];
        for (s, &c) in norm.iter().enumerate() {
            cum_start[s + 1] = cum_start[s] + c;
        }

        let mut dec_symbol = vec![0u16; size];
        let mut dec_nbits = vec![0u8; size];
        let mut dec_base = vec![0u32; size];
        let mut enc_state = vec![0u32; size];
        // Occurrences of each symbol, visited in increasing slot order,
        // take the values norm[s], norm[s]+1, ..., 2*norm[s]-1.
        let mut next_val: Vec<u32> = norm.to_vec();
        for u in 0..size {
            let s = symbol_at[u] as usize;
            let xp = next_val[s];
            next_val[s] += 1;
            let nb = table_log - floor_log2(xp);
            dec_symbol[u] = s as u16;
            dec_nbits[u] = nb as u8;
            dec_base[u] = xp << nb;
            enc_state[(cum_start[s] + (xp - norm[s])) as usize] = (size + u) as u32;
        }

        Ok(Self {
            table_log,
            norm: norm.to_vec(),
            dec_symbol,
            dec_nbits,
            dec_base,
            enc_state,
            cum_start: cum_start[..norm.len()].to_vec(),
        })
    }

    /// Builds a table directly from raw symbol frequencies, choosing a
    /// table log via [`optimal_table_log`] capped at `max_log`.
    ///
    /// # Errors
    ///
    /// Propagates normalization failures (empty histogram, oversized
    /// alphabet).
    pub fn from_frequencies(freqs: &[u32], max_log: u32, n_symbols: usize) -> Result<Self> {
        let card = crate::hist::cardinality(freqs);
        let log = optimal_table_log(max_log, n_symbols, card);
        let norm = normalize_counts(freqs, log)?;
        Self::from_normalized(&norm, log)
    }

    /// The table log (table size is `1 << table_log`).
    pub fn table_log(&self) -> u32 {
        self.table_log
    }

    /// Normalized counts this table was built from.
    pub fn normalized_counts(&self) -> &[u32] {
        &self.norm
    }

    /// Estimated cost in bits of coding `sym` once (`log2(L / count)`).
    // indexing_slicing: panicking on an out-of-alphabet symbol is the
    // encode-side contract (same as `encode`).
    #[allow(clippy::indexing_slicing)]
    pub fn symbol_cost_bits(&self, sym: u16) -> f64 {
        let c = self.norm[sym as usize];
        if c == 0 {
            return f64::INFINITY;
        }
        self.table_log as f64 - (c as f64).log2()
    }

    /// Encodes `symbols` into a standalone sentinel-terminated buffer.
    ///
    /// # Panics
    ///
    /// Panics if any symbol has a zero normalized count (it cannot be
    /// represented by this table).
    pub fn encode(&self, symbols: &[u16]) -> Vec<u8> {
        let mut w = BitWriter::with_capacity(symbols.len() / 2 + 8);
        let mut enc = FseEncoder::new(self);
        for &s in symbols.iter().rev() {
            enc.encode(&mut w, s);
        }
        enc.finish(&mut w);
        w.finish_with_sentinel()
    }

    /// Decodes exactly `n` symbols from a buffer produced by
    /// [`Self::encode`].
    ///
    /// # Errors
    ///
    /// Returns a decode error if the stream is truncated, the sentinel is
    /// missing, or the final state does not return to its initial value
    /// (corruption check).
    pub fn decode(&self, buf: &[u8], n: usize) -> Result<Vec<u16>> {
        let mut r = ReverseBitReader::from_sentinel(buf)?;
        self.decode_with(&mut r, n)
    }

    /// [`Self::decode`] through the word-refilling
    /// [`ReverseBitReaderFast`]. Same bytes in, same symbols (or same
    /// typed error) out.
    ///
    /// # Errors
    ///
    /// Identical to [`Self::decode`].
    pub fn decode_fast(&self, buf: &[u8], n: usize) -> Result<Vec<u16>> {
        let mut r = ReverseBitReaderFast::from_sentinel(buf)?;
        self.decode_with(&mut r, n)
    }

    /// Single-state decode loop shared by the reference and fast readers.
    fn decode_with<R: RevBitSrc>(&self, r: &mut R, n: usize) -> Result<Vec<u16>> {
        let mut dec = FseDecoder::init(self, r)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(dec.peek_symbol());
            dec.update(r)?;
        }
        if !dec.at_initial_state() || r.remaining() != 0 {
            return Err(Error::CorruptData("fse stream did not terminate cleanly"));
        }
        Ok(out)
    }

    /// Serializes `table_log` + normalized counts into `out`.
    ///
    /// Layout: 1 byte table_log, 2 bytes alphabet length (LE), then each
    /// count in `table_log + 1` bits, LSB-first, sentinel-free (the byte
    /// length is implied by the alphabet length).
    pub fn write_description(&self, out: &mut Vec<u8>) {
        out.push(self.table_log as u8);
        let n = self.norm.len() as u16;
        out.extend_from_slice(&n.to_le_bytes());
        let mut w = BitWriter::new();
        for &c in &self.norm {
            w.write_bits(c as u64, self.table_log + 1);
        }
        let (bytes, _) = w.finish();
        out.extend_from_slice(&bytes);
    }

    /// Bytes [`Self::write_description`] writes for a table of
    /// `table_log` over `alphabet` symbols, known before building it.
    pub fn description_len(alphabet: usize, table_log: u32) -> usize {
        3 + (alphabet * (table_log as usize + 1)).div_ceil(8)
    }

    /// Deserializes a description written by [`Self::write_description`].
    ///
    /// Returns the table and the number of bytes consumed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CorruptTable`] on truncation or counts that do not
    /// sum to the table size.
    // indexing_slicing: `buf[0]`/`buf[1]`/`buf[2]` sit behind the
    // explicit `buf.len() < 3` truncation check; the variable-length
    // payload uses checked `.get(..)`.
    #[allow(clippy::indexing_slicing)]
    pub fn read_description(buf: &[u8]) -> Result<(Self, usize)> {
        if buf.len() < 3 {
            return Err(Error::CorruptTable("fse description truncated"));
        }
        let table_log = buf[0] as u32;
        if !(5..=MAX_TABLE_LOG).contains(&table_log) {
            return Err(Error::CorruptTable("fse table_log out of range"));
        }
        let n = u16::from_le_bytes([buf[1], buf[2]]) as usize;
        let bits_needed = n * (table_log as usize + 1);
        let bytes_needed = bits_needed.div_ceil(8);
        let payload = buf
            .get(3..3 + bytes_needed)
            .ok_or(Error::CorruptTable("fse description truncated"))?;
        let mut r = crate::bitio::BitReader::new(payload, bits_needed);
        let mut norm = Vec::with_capacity(n);
        for _ in 0..n {
            norm.push(r.read_bits(table_log + 1)? as u32);
        }
        let table = Self::from_normalized(&norm, table_log)
            .map_err(|_| Error::CorruptTable("fse counts do not sum to table size"))?;
        Ok((table, 3 + bytes_needed))
    }
}

/// Streaming FSE encoder: one state over one table, writing into a shared
/// [`BitWriter`]. Symbols must be fed in **reverse** order.
#[derive(Debug, Clone)]
pub struct FseEncoder<'t> {
    table: &'t FseTable,
    state: u32,
}

impl<'t> FseEncoder<'t> {
    /// Starts a new encoder at the canonical initial state `L`.
    pub fn new(table: &'t FseTable) -> Self {
        Self {
            table,
            state: 1 << table.table_log,
        }
    }

    /// Encodes one symbol (reverse order!), emitting its refill bits.
    ///
    /// # Panics
    ///
    /// Panics if `sym` has a zero normalized count.
    // indexing_slicing: panicking on an out-of-alphabet symbol is the
    // documented encode-side contract; the `enc_state` index is
    // `cum[s] + (sub - norm)` with `sub` held in `[norm, 2*norm)` by the
    // preceding shift (debug-asserted), which is `< table size` by
    // construction of the cumulative sums.
    #[allow(clippy::indexing_slicing)]
    #[inline]
    pub fn encode(&mut self, w: &mut BitWriter, sym: u16) {
        let t = self.table;
        let norm = t.norm[sym as usize];
        assert!(norm > 0, "encoding symbol with zero probability");
        let k = floor_log2(norm);
        let mut nb = t.table_log - k;
        if (self.state >> nb) < norm {
            nb -= 1;
        }
        debug_assert!((self.state >> nb) >= norm && (self.state >> nb) < 2 * norm);
        w.write_bits((self.state & ((1 << nb) - 1)) as u64, nb);
        let sub = self.state >> nb;
        self.state = t.enc_state[(t.cum_start[sym as usize] + (sub - norm)) as usize];
    }

    /// Flushes the final state. Must be the last write of this encoder
    /// into the stream (per-encoder; interleaved encoders coordinate
    /// their flush order with the decoder's init order).
    pub fn finish(self, w: &mut BitWriter) {
        let l = 1u32 << self.table.table_log;
        w.write_bits((self.state - l) as u64, self.table.table_log);
    }
}

/// Streaming FSE decoder: mirror of [`FseEncoder`].
#[derive(Debug, Clone)]
pub struct FseDecoder<'t> {
    table: &'t FseTable,
    state: u32,
}

impl<'t> FseDecoder<'t> {
    /// Reads the initial state from the (reverse) stream.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnexpectedEof`] if the stream is too short.
    pub fn init<R: RevBitSrc>(table: &'t FseTable, r: &mut R) -> Result<Self> {
        let raw = r.read_bits(table.table_log)? as u32;
        Ok(Self {
            table,
            state: (1 << table.table_log) + raw,
        })
    }

    /// The symbol encoded by the current state (no bits consumed).
    // indexing_slicing: the tANS state invariant keeps `state` in
    // `[L, 2L)` — `init` adds `raw < 2^table_log` to `L`, and `update`
    // produces `dec_base[u] + bits` where the table construction makes
    // that exactly a state in `[L, 2L)` — so `state - L` is always a
    // valid index into the `L`-sized decode tables. This is the hot
    // decode loop; a checked `.get()` here costs measurable throughput
    // (guarded by the decode_guard benchmark budget).
    #[allow(clippy::indexing_slicing)]
    #[inline]
    pub fn peek_symbol(&self) -> u16 {
        self.table.dec_symbol[(self.state - (1 << self.table.table_log)) as usize]
    }

    /// Advances the state by consuming this step's refill bits.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnexpectedEof`] on a truncated stream.
    // indexing_slicing: same `state ∈ [L, 2L)` invariant as
    // `peek_symbol` — `state - L` indexes the `L`-sized decode tables.
    #[allow(clippy::indexing_slicing)]
    #[inline]
    pub fn update<R: RevBitSrc>(&mut self, r: &mut R) -> Result<()> {
        let u = (self.state - (1 << self.table.table_log)) as usize;
        let nb = self.table.dec_nbits[u] as u32;
        let bits = r.read_bits(nb)? as u32;
        self.state = self.table.dec_base[u] + bits;
        Ok(())
    }

    /// True when the state equals the encoder's canonical initial state —
    /// a cheap end-of-stream integrity check.
    fn at_initial_state(&self) -> bool {
        self.state == 1 << self.table.table_log
    }
}

#[inline]
fn floor_log2(v: u32) -> u32 {
    debug_assert!(v > 0);
    31 - v.leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::symbol_histogram;

    fn build_for(symbols: &[u16], alphabet: usize, max_log: u32) -> FseTable {
        let hist = symbol_histogram(symbols, alphabet);
        FseTable::from_frequencies(&hist, max_log, symbols.len()).unwrap()
    }

    #[test]
    fn roundtrip_skewed() {
        let symbols: Vec<u16> = (0..5000u32)
            .map(|i| if i % 11 == 0 { 3 } else { (i % 3) as u16 })
            .collect();
        let t = build_for(&symbols, 8, 9);
        let buf = t.encode(&symbols);
        assert_eq!(t.decode(&buf, symbols.len()).unwrap(), symbols);
    }

    #[test]
    fn roundtrip_single_dominant_symbol_table() {
        // One symbol holding nearly the whole table.
        let mut symbols = vec![0u16; 4000];
        symbols[17] = 1;
        symbols[3999] = 1;
        let t = build_for(&symbols, 2, 9);
        let buf = t.encode(&symbols);
        assert_eq!(t.decode(&buf, symbols.len()).unwrap(), symbols);
    }

    #[test]
    fn roundtrip_uniform_alphabet() {
        let symbols: Vec<u16> = (0..4096u32).map(|i| (i % 53) as u16).collect();
        let t = build_for(&symbols, 53, 9);
        let buf = t.encode(&symbols);
        assert_eq!(t.decode(&buf, symbols.len()).unwrap(), symbols);
    }

    #[test]
    fn roundtrip_empty() {
        let symbols: Vec<u16> = vec![0, 1];
        let t = build_for(&symbols, 2, 6);
        let empty: Vec<u16> = Vec::new();
        let buf = t.encode(&empty);
        assert_eq!(t.decode(&buf, 0).unwrap(), empty);
    }

    #[test]
    fn compressed_size_tracks_entropy() {
        // Skewed distribution must code near its Shannon entropy.
        let symbols: Vec<u16> = (0..100_000u32)
            .map(|i| match i % 16 {
                0..=11 => 0u16,
                12..=14 => 1,
                _ => 2,
            })
            .collect();
        let hist = symbol_histogram(&symbols, 3);
        let h = crate::hist::shannon_entropy(&hist);
        let t = build_for(&symbols, 3, 11);
        let buf = t.encode(&symbols);
        let bits_per_sym = buf.len() as f64 * 8.0 / symbols.len() as f64;
        assert!(
            bits_per_sym < h + 0.1,
            "fse {bits_per_sym:.3} bits/sym vs entropy {h:.3}"
        );
    }

    #[test]
    fn fse_beats_fixed_width() {
        // 5-symbol alphabet with skew: fixed width needs 3 bits, FSE less.
        let symbols: Vec<u16> = (0..50_000u32)
            .map(|i| if i % 10 < 6 { 0 } else { (i % 5) as u16 })
            .collect();
        let t = build_for(&symbols, 5, 11);
        let buf = t.encode(&symbols);
        assert!((buf.len() as f64) < 3.0 * symbols.len() as f64 / 8.0);
    }

    #[test]
    fn description_roundtrip() {
        let symbols: Vec<u16> = (0..3000u32).map(|i| (i % 7) as u16).collect();
        let t = build_for(&symbols, 7, 8);
        let mut desc = Vec::new();
        t.write_description(&mut desc);
        desc.extend_from_slice(b"trailing"); // reader must not over-consume
        let (t2, consumed) = FseTable::read_description(&desc).unwrap();
        assert_eq!(consumed, desc.len() - 8);
        assert_eq!(consumed, FseTable::description_len(7, t.table_log()));
        assert_eq!(t2.normalized_counts(), t.normalized_counts());
        let buf = t.encode(&symbols);
        assert_eq!(t2.decode(&buf, symbols.len()).unwrap(), symbols);
    }

    #[test]
    fn description_rejects_garbage() {
        assert!(FseTable::read_description(&[]).is_err());
        assert!(FseTable::read_description(&[99, 1, 0]).is_err());
        // Valid log but counts do not sum.
        let mut desc = vec![6u8, 2, 0];
        desc.extend_from_slice(&[0u8; 4]);
        assert!(FseTable::read_description(&desc).is_err());
    }

    #[test]
    fn decode_detects_truncation() {
        let symbols: Vec<u16> = (0..2000u32).map(|i| (i % 5) as u16).collect();
        let t = build_for(&symbols, 5, 9);
        let buf = t.encode(&symbols);
        let cut = &buf[..buf.len() / 2];
        assert!(t.decode(cut, symbols.len()).is_err());
    }

    #[test]
    fn decode_wrong_count_fails_integrity() {
        let symbols: Vec<u16> = (0..999u32).map(|i| (i % 4) as u16).collect();
        let t = build_for(&symbols, 4, 9);
        let buf = t.encode(&symbols);
        // Asking for fewer symbols leaves bits unread -> integrity failure.
        assert!(t.decode(&buf, symbols.len() - 1).is_err());
    }

    #[test]
    fn decode_fast_matches_decode() {
        let symbols: Vec<u16> = (0..5000u32)
            .map(|i| if i % 13 == 0 { 5 } else { (i % 4) as u16 })
            .collect();
        let t = build_for(&symbols, 8, 9);
        let buf = t.encode(&symbols);
        assert_eq!(t.decode_fast(&buf, symbols.len()).unwrap(), symbols);
        // Parity on every truncation prefix: same Ok/Err outcome.
        for k in 0..buf.len() {
            let slow = t.decode(&buf[..k], symbols.len());
            let fast = t.decode_fast(&buf[..k], symbols.len());
            assert_eq!(slow.is_ok(), fast.is_ok(), "prefix {k}");
            assert_eq!(slow.ok(), fast.ok(), "prefix {k}");
        }
        // Wrong-count integrity failure matches too.
        assert!(t.decode_fast(&buf, symbols.len() - 1).is_err());
    }

    #[test]
    fn roundtrip_across_table_logs() {
        // All accuracy logs the normalizer accepts for this alphabet,
        // through both bit readers.
        let symbols: Vec<u16> = (0..3000u32)
            .map(|i| if i % 17 == 0 { 7 } else { (i % 6) as u16 })
            .collect();
        for log in 5..=12 {
            let t = build_for(&symbols, 8, log);
            let buf = t.encode(&symbols);
            assert_eq!(t.decode(&buf, symbols.len()).unwrap(), symbols, "log={log}");
            assert_eq!(
                t.decode_fast(&buf, symbols.len()).unwrap(),
                symbols,
                "log={log}"
            );
        }
    }

    #[test]
    fn interleaved_two_tables_one_stream() {
        // Mirror of the zstdx sequences layout: two code streams, two
        // states, one bitstream. Decoder reads in forward order; encoder
        // mirrors in reverse.
        let a: Vec<u16> = (0..500u32).map(|i| (i % 3) as u16).collect();
        let b: Vec<u16> = (0..500u32).map(|i| ((i / 2) % 4) as u16).collect();
        let ta = build_for(&a, 3, 7);
        let tb = build_for(&b, 4, 7);

        let mut w = BitWriter::new();
        let mut ea = FseEncoder::new(&ta);
        let mut eb = FseEncoder::new(&tb);
        // Encoder: reverse item order; within an item, reverse of the
        // decoder's (a then b) read order, i.e. encode b then a.
        for i in (0..a.len()).rev() {
            eb.encode(&mut w, b[i]);
            ea.encode(&mut w, a[i]);
        }
        // Decoder inits a first, so a's state must be written last.
        eb.finish(&mut w);
        ea.finish(&mut w);
        let buf = w.finish_with_sentinel();

        let mut r = ReverseBitReader::from_sentinel(&buf).unwrap();
        let mut da = FseDecoder::init(&ta, &mut r).unwrap();
        let mut db = FseDecoder::init(&tb, &mut r).unwrap();
        for i in 0..a.len() {
            assert_eq!(da.peek_symbol(), a[i], "stream a at {i}");
            da.update(&mut r).unwrap();
            assert_eq!(db.peek_symbol(), b[i], "stream b at {i}");
            db.update(&mut r).unwrap();
        }
        assert!(da.at_initial_state());
        assert!(db.at_initial_state());
        assert_eq!(r.remaining(), 0);
    }
}
