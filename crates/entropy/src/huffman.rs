//! Canonical, length-limited Huffman coding.
//!
//! Code lengths are computed with the package-merge algorithm, which
//! yields optimal lengths under a maximum-depth constraint. Codes are
//! assigned canonically (shorter codes first, ties by symbol index) so a
//! table can be reconstructed from its length array alone — that is what
//! the codecs serialize into their block headers.
//!
//! Encoded streams are LSB-first ([`crate::bitio`]); codes are stored
//! bit-reversed so the decoder can peek a fixed `max_bits`-wide window and
//! index a flat lookup table.

use std::sync::OnceLock;

use crate::bitio::{BitReader, BitReaderFast, BitSrc, BitWriter};
use crate::{Error, Result};

/// Upper bound on code length supported by the flat decode table.
pub const MAX_CODE_BITS: u32 = 15;

/// The decode-side tables of a [`HuffmanTable`]: derived from the
/// lengths alone, and the expensive part of a table (`1 << max_bits`
/// slots against a few hundred lengths and codes).
#[derive(Debug, Clone)]
struct DecodeTables {
    /// Flat table of size `1 << max_bits`: window -> (symbol, len).
    flat: Vec<(u16, u8)>,
    /// Every window decodes and every present symbol fits in a byte:
    /// no symbol read can fail while a whole window lies inside the
    /// buffer, which is what the unchecked literal body relies on.
    unchecked: bool,
}

impl DecodeTables {
    // indexing_slicing: table construction. The fill index starts at
    // `rev < 2^l <= 2^max_bits` and the loop condition bounds it below
    // `flat.len()`; `codes` and `lens` have one entry per symbol.
    #[allow(clippy::indexing_slicing)]
    fn new(lens: &[u8], codes: &[u16], max_bits: u32) -> Self {
        let mut flat = vec![(0u16, 0u8); 1usize << max_bits];
        for (sym, &l) in lens.iter().enumerate() {
            if l == 0 {
                continue;
            }
            // Fill every slot whose low `l` bits equal the reversed code.
            let step = 1usize << l;
            let mut idx = codes[sym] as usize;
            while idx < flat.len() {
                flat[idx] = (sym as u16, l);
                idx += step;
            }
        }
        let complete = flat.iter().all(|&(_, l)| l > 0);
        let bytes = lens.iter().skip(256).all(|&l| l == 0);
        Self {
            flat,
            unchecked: complete && bytes,
        }
    }
}

/// One cursor of the literal decoders: the unread part of its stream
/// from the byte holding its bit position, that position's bit offset
/// (`< 8`), and the output it has yet to fill.
struct Lane<'a, 'o> {
    buf: &'a [u8],
    bit: u32,
    out: &'o mut [u8],
}

impl Lane<'_, '_> {
    /// The next 57+ stream bits, when 8 bytes of buffer remain under the
    /// position and `per` output slots remain to fill.
    #[inline]
    fn word(&self, per: usize) -> Option<u64> {
        let w = self.buf.first_chunk::<8>()?;
        (self.out.len() >= per).then(|| u64::from_le_bytes(*w) >> self.bit)
    }
}

/// Where a table's decode side is. Decoders get theirs built up front
/// and read it through plain loads the optimiser can keep in registers
/// across a symbol loop (an atomic once-cell check per symbol cost the
/// zlibx single-stream loop ~5%); an encoder's table defers it behind a
/// once-cell that only a decode through that same table ever fills.
#[derive(Debug, Clone)]
enum DecodeSide {
    Ready(DecodeTables),
    Deferred(OnceLock<DecodeTables>),
}

/// A built Huffman code: per-symbol lengths and codes, plus the flat
/// decode tables, which an encoder never touches and so are only
/// materialised by the first decode (or eagerly by
/// [`HuffmanTable::from_lengths`], the decoders' entry).
#[derive(Debug, Clone)]
pub struct HuffmanTable {
    /// Code length per symbol; 0 means the symbol is absent.
    lens: Vec<u8>,
    /// Bit-reversed canonical code per symbol (LSB-first stream order).
    codes: Vec<u16>,
    /// Length of the longest code.
    max_bits: u32,
    decode: DecodeSide,
}

impl HuffmanTable {
    /// Builds a length-limited canonical Huffman code for `freqs`:
    /// lengths and codes only, which is all encoding needs. The decode
    /// tables follow on the first decode through this table.
    ///
    /// Returns `None` when fewer than two symbols are present — callers
    /// should fall back to raw or run-length representations, exactly as
    /// the zstd format does for its literals section.
    ///
    /// # Panics
    ///
    /// Panics if `max_bits` is 0 or greater than [`MAX_CODE_BITS`], or if
    /// the alphabet cannot fit in `max_bits` (more than `1 << max_bits`
    /// present symbols).
    pub fn build(freqs: &[u32], max_bits: u32) -> Option<Self> {
        assert!(
            (1..=MAX_CODE_BITS).contains(&max_bits),
            "max_bits must be in 1..=15"
        );
        // Ascending weight, ties by symbol index: the order every
        // tie-break downstream is defined against.
        let mut items: Vec<(u32, u32)> = freqs
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f > 0)
            .map(|(sym, &f)| (f, sym as u32))
            .collect();
        if items.len() < 2 {
            return None;
        }
        assert!(
            (items.len() as u64) <= (1u64 << max_bits),
            "alphabet does not fit in max_bits"
        );
        items.sort_unstable();
        let lens = package_merge_lengths(&items, freqs.len(), max_bits);
        let max_bits = lens.iter().copied().max().unwrap_or(0) as u32;
        Some(Self {
            codes: canonical_codes(&lens),
            lens,
            max_bits,
            decode: DecodeSide::Deferred(OnceLock::new()),
        })
    }

    /// Reconstructs a table from canonical code lengths (0 = absent),
    /// decode tables included.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CorruptTable`] if the lengths do not describe a
    /// complete prefix code, contain a length above [`MAX_CODE_BITS`], or
    /// fewer than two symbols are present.
    pub fn from_lengths(lens: &[u8]) -> Result<Self> {
        let max_bits = lens.iter().copied().max().unwrap_or(0) as u32;
        if max_bits == 0 {
            return Err(Error::CorruptTable("no symbols present"));
        }
        if max_bits > MAX_CODE_BITS {
            return Err(Error::CorruptTable("code length above maximum"));
        }
        if lens.iter().filter(|&&l| l > 0).count() < 2 {
            return Err(Error::CorruptTable("fewer than two symbols present"));
        }
        // Kraft sum must be exactly 1 for a complete code.
        let kraft: u64 = lens
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1u64 << (max_bits - l as u32))
            .sum();
        if kraft != (1u64 << max_bits) {
            return Err(Error::CorruptTable("lengths do not form a complete code"));
        }
        let codes = canonical_codes(lens);
        Ok(Self {
            decode: DecodeSide::Ready(DecodeTables::new(lens, &codes, max_bits)),
            lens: lens.to_vec(),
            codes,
            max_bits,
        })
    }

    /// The decode tables, built on first use when deferred. Racing
    /// first decodes are safe: one builds, the rest wait and share its
    /// result.
    #[inline]
    fn tables(&self) -> &DecodeTables {
        match &self.decode {
            DecodeSide::Ready(t) => t,
            DecodeSide::Deferred(cell) => self.deferred_tables(cell),
        }
    }

    /// Out of line: symbol loops inline [`Self::tables`], and only the
    /// `Ready` arm belongs in them.
    #[cold]
    #[inline(never)]
    fn deferred_tables<'a>(&'a self, cell: &'a OnceLock<DecodeTables>) -> &'a DecodeTables {
        cell.get_or_init(|| DecodeTables::new(&self.lens, &self.codes, self.max_bits))
    }

    /// Per-symbol code lengths (0 = absent). Serializable table form.
    pub fn lengths(&self) -> &[u8] {
        &self.lens
    }

    /// Length of the longest code in bits.
    pub fn max_bits(&self) -> u32 {
        self.max_bits
    }

    /// Exact encoded size in bits for the given histogram.
    pub fn encoded_bits(&self, freqs: &[u32]) -> u64 {
        freqs
            .iter()
            .zip(&self.lens)
            .map(|(&c, &l)| c as u64 * l as u64)
            .sum()
    }

    /// Appends the code for `sym` to `w`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `sym` is absent from the code.
    // indexing_slicing: panicking on an out-of-alphabet symbol is the
    // documented encode-side contract.
    #[allow(clippy::indexing_slicing)]
    #[inline]
    pub fn write_symbol(&self, w: &mut BitWriter, sym: u16) {
        let len = self.lens[sym as usize];
        debug_assert!(len > 0, "encoding absent symbol");
        w.write_bits(self.codes[sym as usize] as u64, len as u32);
    }

    /// Reads one symbol from `r`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CorruptData`] if the window does not match any
    /// code, or [`Error::UnexpectedEof`] if the stream is exhausted.
    // indexing_slicing: `window` is a `max_bits`-wide peek, so it is
    // `< 2^max_bits == flat.len()`. Hot decode loop (decode_guard
    // benchmark budget); invalid windows are rejected via `len == 0`.
    #[allow(clippy::indexing_slicing)]
    #[inline]
    pub fn read_symbol<R: BitSrc>(&self, r: &mut R) -> Result<u16> {
        let window = r.peek_bits_lenient(self.max_bits) as usize;
        let (sym, len) = self.tables().flat[window];
        if len == 0 {
            return Err(Error::CorruptData("invalid huffman window"));
        }
        r.consume(len as u32)?;
        Ok(sym)
    }

    /// Encodes a byte slice into a fresh bit buffer (zero-padded): the
    /// bytes [`Self::write_symbol`] would write into a [`BitWriter`].
    /// Codes gather in a 64-bit accumulator as many at a time as fit in
    /// 56 bits, and the whole bytes go out in one 8-byte copy, instead of
    /// a flush check and a byte push per symbol.
    ///
    /// # Panics
    ///
    /// Panics if a byte lies outside the table's alphabet.
    // indexing_slicing: panicking on an out-of-alphabet symbol is the
    // encode-side contract, as in `write_symbol`.
    #[allow(clippy::indexing_slicing)]
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        // At most 7 bits stay pending between flushes, so `per` codes of
        // up to `max_bits` each keep the accumulator within 63 bits.
        let per = (56 / self.max_bits.max(1)) as usize;
        let mut out = Vec::with_capacity(data.len() * self.max_bits as usize / 8 + 16);
        let (mut acc, mut nbits) = (0u64, 0u32);
        for chunk in data.chunks(per) {
            for &b in chunk {
                let s = b as usize;
                debug_assert!(self.lens[s] > 0, "encoding absent symbol");
                acc |= u64::from(self.codes[s]) << nbits;
                nbits += u32::from(self.lens[s]);
            }
            let whole = nbits / 8;
            let at = out.len();
            out.extend_from_slice(&acc.to_le_bytes());
            out.truncate(at + whole as usize);
            acc >>= 8 * whole;
            nbits -= 8 * whole;
        }
        if nbits > 0 {
            out.push(acc as u8);
        }
        out
    }

    /// Decodes exactly `n` byte symbols from `buf`.
    ///
    /// # Errors
    ///
    /// Propagates decode errors from [`Self::read_symbol`], plus
    /// [`Error::CorruptData`] if a decoded symbol exceeds `u8::MAX`.
    pub fn decode(&self, buf: &[u8], n: usize) -> Result<Vec<u8>> {
        let mut r = BitReader::new(buf, buf.len() * 8);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let sym = self.read_symbol(&mut r)?;
            let byte =
                u8::try_from(sym).map_err(|_| Error::CorruptData("symbol out of byte range"))?;
            out.push(byte);
        }
        Ok(out)
    }

    /// Decodes exactly `n` byte symbols from `buf` through the fast path:
    /// an unchecked multi-symbol body while 8 bytes of stream remain,
    /// then the checked per-symbol loop of [`Self::decode`]. Returns the
    /// same bytes, or the same error, as [`Self::decode`] for every input.
    ///
    /// # Errors
    ///
    /// Identical to [`Self::decode`].
    #[deny(clippy::indexing_slicing)]
    pub fn decode_fast(&self, buf: &[u8], n: usize) -> Result<Vec<u8>> {
        let mut out = vec![0u8; n];
        self.finish_lane(Lane {
            buf,
            bit: 0,
            out: &mut out,
        })?;
        Ok(out)
    }

    /// Splits `data` into the four substreams of the multi-stream
    /// literals layout (three streams of `n / 4` symbols, the fourth
    /// the remainder) and encodes each
    /// independently. Decode with [`Self::decode_4stream`] or
    /// [`Self::decode_4stream_fast`].
    pub fn encode_4stream(&self, data: &[u8]) -> [Vec<u8>; 4] {
        let [n0, n1, n2, _] = four_stream_split(data.len());
        let (s0, rest) = data.split_at(n0);
        let (s1, rest) = rest.split_at(n1);
        let (s2, s3) = rest.split_at(n2);
        [
            self.encode(s0),
            self.encode(s1),
            self.encode(s2),
            self.encode(s3),
        ]
    }

    /// Reference decode of four substreams produced by
    /// [`Self::encode_4stream`]: each stream decodes sequentially
    /// through the checked per-symbol reader, then the pieces
    /// concatenate. The straightforward loop the differential tests
    /// hold the fast engine against.
    ///
    /// # Errors
    ///
    /// Propagates the first failing stream's decode error.
    #[deny(clippy::indexing_slicing)]
    pub fn decode_4stream(&self, bufs: [&[u8]; 4], total: usize) -> Result<Vec<u8>> {
        let ns = four_stream_split(total);
        let mut out = Vec::with_capacity(total);
        for (buf, n) in bufs.iter().zip(ns) {
            out.extend_from_slice(&self.decode(buf, n)?);
        }
        Ok(out)
    }

    /// Fast decode of four substreams: the unchecked body runs the four
    /// cursors in lockstep, so the CPU keeps four independent dependency
    /// chains in flight, until one of them nears its end; then each
    /// stream finishes in order, alone, as [`Self::decode_fast`] does.
    /// The body cannot fail, so the first error is the first failing
    /// stream's, as in [`Self::decode_4stream`], and so are the bytes.
    ///
    /// # Errors
    ///
    /// Identical to [`Self::decode_4stream`].
    #[deny(clippy::indexing_slicing)]
    pub fn decode_4stream_fast(&self, bufs: [&[u8]; 4], total: usize) -> Result<Vec<u8>> {
        let [n0, n1, n2, _] = four_stream_split(total);
        let mut out = vec![0u8; total];
        let (s0, rest) = out.split_at_mut(n0);
        let (s1, rest) = rest.split_at_mut(n1);
        let (s2, s3) = rest.split_at_mut(n2);
        let [b0, b1, b2, b3] = bufs;
        let lane = |buf, out| Lane { buf, bit: 0, out };
        let mut lanes = [lane(b0, s0), lane(b1, s1), lane(b2, s2), lane(b3, s3)];
        self.decode_body(&mut lanes);
        for lane in lanes {
            self.finish_lane(lane)?;
        }
        Ok(out)
    }

    /// Drains one cursor: the unchecked body while it can run, then,
    /// from exactly its bit position, the checked per-symbol loop of
    /// [`Self::decode`].
    #[deny(clippy::indexing_slicing)]
    fn finish_lane(&self, lane: Lane<'_, '_>) -> Result<()> {
        let mut lanes = [lane];
        self.decode_body(&mut lanes);
        let [Lane { buf, bit, out }] = lanes;
        let mut r = BitReaderFast::new(buf, buf.len() * 8);
        r.consume(bit)?;
        for slot in out.iter_mut() {
            let sym = self.read_symbol(&mut r)?;
            *slot =
                u8::try_from(sym).map_err(|_| Error::CorruptData("symbol out of byte range"))?;
        }
        Ok(())
    }

    /// The unchecked literal body over `N` cursors in lockstep. Each
    /// round loads one little-endian word per cursor and decodes
    /// `56 / max_bits` symbols out of it through the flat table, with
    /// no per-symbol check: it runs only on tables where no window
    /// fails and no symbol exceeds a byte, and only while every cursor
    /// has 8 bytes of buffer and a round of output left, so every bit
    /// it consumes lies inside the buffer. That is exactly the
    /// condition under which the checked loop cannot fail either, so
    /// the body decodes what the checked loop would, and an error can
    /// only come from the checked tail.
    // indexing_slicing: `flat` has `1 << max_bits` slots and every index
    // is masked to `max_bits`; `word` let the round start only with
    // `per <= out.len()`, and `i < per == head.len()`; `bits <= 7 + 56`,
    // so `bits >> 3 <= 7 < 8 <= buf.len()`.
    #[allow(clippy::indexing_slicing)]
    #[inline]
    fn decode_body<const N: usize>(&self, lanes: &mut [Lane<'_, '_>; N]) {
        let tables = self.tables();
        if !tables.unchecked {
            return;
        }
        let flat = tables.flat.as_slice();
        let per = (56 / self.max_bits) as usize;
        let mask = (1u64 << self.max_bits) - 1;
        let mut words = [0u64; N];
        loop {
            for (w, lane) in words.iter_mut().zip(lanes.iter()) {
                match lane.word(per) {
                    Some(word) => *w = word,
                    None => return,
                }
            }
            let mut heads = lanes.each_mut().map(|lane| {
                let (head, rest) = std::mem::take(&mut lane.out).split_at_mut(per);
                lane.out = rest;
                head
            });
            let mut used = [0u32; N];
            for i in 0..per {
                let lanes = words.iter_mut().zip(&mut heads).zip(&mut used);
                for ((word, head), used) in lanes {
                    let (sym, len) = flat[(*word & mask) as usize];
                    // The table holds byte symbols only (`unchecked`).
                    head[i] = sym as u8;
                    *word >>= len;
                    *used += u32::from(len);
                }
            }
            for (lane, used) in lanes.iter_mut().zip(used) {
                let bits = lane.bit + used;
                lane.buf = &lane.buf[(bits >> 3) as usize..];
                lane.bit = bits & 7;
            }
        }
    }
}

/// Substream sizes for the 4-stream literals layout: the first three
/// streams carry `n / 4` symbols each and the fourth the remainder
/// (`n - 3 * (n / 4)`), so the split is total-preserving and
/// non-negative for every `n` — both sides derive it from the symbol
/// count alone, no sizes on the wire beyond the per-stream byte
/// lengths.
fn four_stream_split(n: usize) -> [usize; 4] {
    let q = n / 4;
    [q, q, q, n - 3 * q]
}

/// Canonical code assignment (RFC 1951 style): shorter codes first,
/// ties by symbol index; returned bit-reversed for LSB-first streams.
// indexing_slicing: `bl_count`/`next_code` are indexed by code lengths,
// which callers hold `<= MAX_CODE_BITS`.
#[allow(clippy::indexing_slicing)]
fn canonical_codes(lens: &[u8]) -> Vec<u16> {
    let mut bl_count = [0u32; MAX_CODE_BITS as usize + 1];
    for &l in lens.iter().filter(|&&l| l > 0) {
        bl_count[l as usize] += 1;
    }
    let mut next_code = [0u32; MAX_CODE_BITS as usize + 2];
    let mut code = 0u32;
    for bits in 1..=MAX_CODE_BITS as usize {
        code = (code + bl_count[bits - 1]) << 1;
        next_code[bits] = code;
    }
    lens.iter()
        .map(|&l| {
            if l == 0 {
                return 0;
            }
            let c = next_code[l as usize];
            next_code[l as usize] += 1;
            reverse_bits(c, l as u32) as u16
        })
        .collect()
}

/// Computes optimal length-limited code lengths via package-merge.
///
/// `items` is every present symbol as `(weight, symbol)`, ascending.
/// Level 1 is the items themselves; level `j` merges the items with the
/// packages (adjacent pairs) of level `j - 1`, items first on equal
/// weight. A symbol's length is how many of the first `2(n - 1)` nodes
/// of the last level contain it. Instead of carrying each node's leaf
/// set, every level records only *which of its nodes are items*: the
/// first `t` nodes of a level hold its `a` smallest items plus its
/// first `t - a` packages, i.e. the first `2(t - a)` nodes of the level
/// below — so walking down from `t = 2(n - 1)` and crediting the `a`
/// smallest items at each level counts exactly what the leaf sets
/// would, with three flat buffers in place of a vector per node.
// indexing_slicing: `items` is non-empty (callers pass >= 2); `a`/`b`
// are merge cursors bounded by the loop conditions; every level holds
// at most `2n - 1` nodes, the stride of `is_item`; `rank < n` indexes
// `items`, whose symbols index `lens` (sized to the alphabet).
#[allow(clippy::indexing_slicing)]
fn package_merge_lengths(items: &[(u32, u32)], alphabet: usize, max_bits: u32) -> Vec<u8> {
    let n = items.len();
    let stride = 2 * n;
    let levels = max_bits as usize;
    // Weights of the previous and the current level.
    let mut prev: Vec<u64> = items.iter().map(|&(w, _)| w as u64).collect();
    let mut cur: Vec<u64> = Vec::with_capacity(stride);
    // `is_item[level * stride + k]`: node `k` of `level` is an item.
    let mut is_item = vec![false; levels * stride];
    is_item[..n].fill(true);
    for level in 1..levels {
        let flags = &mut is_item[level * stride..(level + 1) * stride];
        let packages = prev.len() / 2;
        cur.clear();
        let (mut a, mut b) = (0, 0);
        while a < n && b < packages {
            let package = prev[2 * b] + prev[2 * b + 1];
            if items[a].0 as u64 <= package {
                flags[cur.len()] = true;
                cur.push(items[a].0 as u64);
                a += 1;
            } else {
                cur.push(package);
                b += 1;
            }
        }
        for &(w, _) in &items[a..] {
            flags[cur.len()] = true;
            cur.push(w as u64);
        }
        for b in b..packages {
            cur.push(prev[2 * b] + prev[2 * b + 1]);
        }
        std::mem::swap(&mut prev, &mut cur);
    }

    let mut lens = vec![0u8; alphabet];
    let mut take = 2 * (n - 1);
    for level in (0..levels).rev() {
        let flags = &is_item[level * stride..level * stride + take];
        let leaves = flags.iter().filter(|&&f| f).count();
        for &(_, sym) in &items[..leaves] {
            lens[sym as usize] += 1;
        }
        take = 2 * (take - leaves);
    }
    lens
}

/// Reverses the low `n` bits of `v`.
#[inline]
fn reverse_bits(v: u32, n: u32) -> u32 {
    v.reverse_bits() >> (32 - n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::byte_histogram;

    fn roundtrip(data: &[u8], max_bits: u32) {
        let freqs = byte_histogram(data);
        let table = HuffmanTable::build(&freqs, max_bits).unwrap();
        let encoded = table.encode(data);
        let decoded = table.decode(&encoded, data.len()).unwrap();
        assert_eq!(decoded, data);
    }

    #[test]
    fn roundtrip_text() {
        roundtrip(b"the quick brown fox jumps over the lazy dog", 11);
    }

    #[test]
    fn roundtrip_two_symbols() {
        roundtrip(b"abababababbbbaaab", 11);
        roundtrip(b"ab", 1);
    }

    #[test]
    fn roundtrip_all_bytes() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        roundtrip(&data, 11);
    }

    #[test]
    fn encode_writes_the_bytes_of_one_symbol_at_a_time() {
        // Every length limit, skews from flat to near-unary, lengths that
        // are not multiples of the batch, the empty input.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for max_bits in [6, 8, 11, 15] {
            for skew in [0u32, 1, 3, 7] {
                let data: Vec<u8> = (0..3001)
                    .map(|_| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let x = (state >> 40) as u32;
                        (x >> (x % (skew + 1))) as u8 & 0x3f
                    })
                    .collect();
                let table = HuffmanTable::build(&byte_histogram(&data), max_bits).unwrap();
                for n in [0, 1, 7, 100, 3001] {
                    let mut w = BitWriter::new();
                    for &b in &data[..n] {
                        table.write_symbol(&mut w, b as u16);
                    }
                    assert_eq!(
                        table.encode(&data[..n]),
                        w.finish().0,
                        "{max_bits}/{skew}/{n}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_symbol_returns_none() {
        let freqs = byte_histogram(b"aaaaaaa");
        assert!(HuffmanTable::build(&freqs, 11).is_none());
        assert!(HuffmanTable::build(&byte_histogram(b""), 11).is_none());
    }

    #[test]
    fn respects_length_limit() {
        // Fibonacci-like weights force long codes in unlimited Huffman.
        let mut freqs = vec![0u32; 24];
        let mut a = 1u32;
        let mut b = 1u32;
        for f in freqs.iter_mut() {
            *f = a;
            let next = a.saturating_add(b);
            a = b;
            b = next;
        }
        for limit in [6u32, 8, 11, 15] {
            let table = HuffmanTable::build(&freqs, limit).unwrap();
            assert!(table.max_bits() <= limit, "limit {limit} violated");
            // Still decodable.
            let data: Vec<u8> = (0..24u8).collect();
            let encoded = table.encode(&data);
            assert_eq!(table.decode(&encoded, data.len()).unwrap(), data);
        }
    }

    #[test]
    fn skewed_is_shorter_than_uniform() {
        // A heavily skewed distribution must encode below 8 bits/symbol.
        let mut data = vec![b'a'; 1000];
        data.extend_from_slice(b"bcdefgh");
        let freqs = byte_histogram(&data);
        let table = HuffmanTable::build(&freqs, 11).unwrap();
        let bits = table.encoded_bits(&freqs);
        assert!(
            bits < data.len() as u64 * 2,
            "expected < 2 bits/sym, got {bits}"
        );
    }

    #[test]
    fn lengths_roundtrip_through_from_lengths() {
        let data = b"canonical codes reconstruct from lengths alone";
        let freqs = byte_histogram(data);
        let table = HuffmanTable::build(&freqs, 11).unwrap();
        let rebuilt = HuffmanTable::from_lengths(table.lengths()).unwrap();
        let encoded = table.encode(data);
        assert_eq!(rebuilt.decode(&encoded, data.len()).unwrap(), data);
    }

    #[test]
    fn from_lengths_rejects_incomplete() {
        // Lengths {1} alone: kraft sum 1/2 != 1.
        let mut lens = vec![0u8; 4];
        lens[0] = 1;
        assert!(HuffmanTable::from_lengths(&lens).is_err());
        // Oversubscribed: three codes of length 1.
        let lens = vec![1u8, 1, 1];
        assert!(HuffmanTable::from_lengths(&lens).is_err());
        // Empty.
        assert!(HuffmanTable::from_lengths(&[0u8; 8]).is_err());
    }

    #[test]
    fn decode_rejects_truncated_stream() {
        let data = b"some data to encode for truncation";
        let freqs = byte_histogram(data);
        let table = HuffmanTable::build(&freqs, 11).unwrap();
        let encoded = table.encode(data);
        let truncated = &encoded[..encoded.len() / 2];
        assert!(table.decode(truncated, data.len()).is_err());
    }

    #[test]
    fn decode_fast_matches_decode_including_errors() {
        let data: Vec<u8> = b"fast and slow paths must agree on every byte and every error"
            .iter()
            .cycle()
            .take(4096)
            .copied()
            .collect();
        let freqs = byte_histogram(&data);
        for max_bits in [8u32, 11, 15] {
            let table = HuffmanTable::build(&freqs, max_bits).unwrap();
            let encoded = table.encode(&data);
            assert_eq!(
                table.decode_fast(&encoded, data.len()).unwrap(),
                data,
                "max_bits={max_bits}"
            );
            // Every truncation prefix: identical Ok/Err outcome and value.
            for k in (0..encoded.len()).step_by(3) {
                let slow = table.decode(&encoded[..k], data.len());
                let fast = table.decode_fast(&encoded[..k], data.len());
                assert_eq!(slow, fast, "max_bits={max_bits} prefix {k}");
            }
            // Bit flips: identical outcome (flipped streams may still
            // decode to identical wrong bytes — both paths must agree).
            for pos in (0..encoded.len()).step_by(37) {
                let mut bad = encoded.clone();
                bad[pos] ^= 0x44;
                assert_eq!(
                    table.decode(&bad, data.len()),
                    table.decode_fast(&bad, data.len()),
                    "max_bits={max_bits} flip at {pos}"
                );
            }
        }
    }

    #[test]
    fn decode_fast_handles_odd_symbol_counts() {
        // 255 symbols of 8 bits: 7 per body round, 3 left for the tail.
        let data: Vec<u8> = (0..=254u8).collect();
        let freqs = byte_histogram(&data);
        let table = HuffmanTable::build(&freqs, 11).unwrap();
        let encoded = table.encode(&data);
        assert_eq!(table.decode_fast(&encoded, data.len()).unwrap(), data);
    }

    #[test]
    fn four_stream_split_is_total_preserving() {
        for n in 0..64usize {
            let parts = four_stream_split(n);
            assert_eq!(parts.iter().sum::<usize>(), n, "n={n}");
            // First three parts equal; fourth carries the remainder.
            assert_eq!(parts[0], parts[1]);
            assert_eq!(parts[1], parts[2]);
            assert!(parts[3] >= parts[0], "n={n}: {parts:?}");
        }
    }

    #[test]
    fn four_stream_roundtrip_both_engines() {
        let base: Vec<u8> = b"four independent huffman substreams, one table"
            .iter()
            .cycle()
            .take(4096)
            .copied()
            .collect();
        let freqs = byte_histogram(&base);
        for max_bits in [8u32, 11, 15] {
            let table = HuffmanTable::build(&freqs, max_bits).unwrap();
            // Every split-boundary shape: n % 4 in 0..4, plus tiny inputs
            // down to empty substreams.
            for n in [0usize, 1, 2, 3, 4, 5, 6, 7, 8, 100, 4093, 4094, 4095, 4096] {
                let data = &base[..n];
                let streams = table.encode_4stream(data);
                let bufs = [
                    streams[0].as_slice(),
                    streams[1].as_slice(),
                    streams[2].as_slice(),
                    streams[3].as_slice(),
                ];
                assert_eq!(
                    table.decode_4stream(bufs, n).unwrap(),
                    data,
                    "reference max_bits={max_bits} n={n}"
                );
                assert_eq!(
                    table.decode_4stream_fast(bufs, n).unwrap(),
                    data,
                    "fast max_bits={max_bits} n={n}"
                );
            }
        }
    }

    #[test]
    fn four_stream_engines_agree_on_truncation_and_flips() {
        let data: Vec<u8> = (0..=255u8).cycle().take(2048).collect();
        let freqs = byte_histogram(&data);
        for max_bits in [11u32, 15] {
            let table = HuffmanTable::build(&freqs, max_bits).unwrap();
            let streams = table.encode_4stream(&data);
            // Truncate every stream at every byte boundary: both engines
            // must agree — same bytes when a shortened substream still
            // happens to decode, same failure when it cannot.
            for k in 0..4usize {
                for cut in 0..streams[k].len() {
                    let mut mut_streams = streams.clone();
                    mut_streams[k].truncate(cut);
                    let bufs = [
                        mut_streams[0].as_slice(),
                        mut_streams[1].as_slice(),
                        mut_streams[2].as_slice(),
                        mut_streams[3].as_slice(),
                    ];
                    let slow = table.decode_4stream(bufs, data.len());
                    let fast = table.decode_4stream_fast(bufs, data.len());
                    assert_eq!(
                        slow.is_ok(),
                        fast.is_ok(),
                        "stream {k} cut {cut} max_bits={max_bits}"
                    );
                    if let (Ok(s), Ok(f)) = (&slow, &fast) {
                        assert_eq!(s, f, "stream {k} cut {cut}");
                    }
                }
            }
            // Bit flips: identical bytes or both-error.
            for k in 0..4usize {
                for pos in (0..streams[k].len()).step_by(11) {
                    let mut mut_streams = streams.clone();
                    mut_streams[k][pos] ^= 0x29;
                    let bufs = [
                        mut_streams[0].as_slice(),
                        mut_streams[1].as_slice(),
                        mut_streams[2].as_slice(),
                        mut_streams[3].as_slice(),
                    ];
                    let slow = table.decode_4stream(bufs, data.len());
                    let fast = table.decode_4stream_fast(bufs, data.len());
                    assert_eq!(slow.is_ok(), fast.is_ok(), "stream {k} flip {pos}");
                    if let (Ok(s), Ok(f)) = (&slow, &fast) {
                        assert_eq!(s, f, "stream {k} flip {pos}");
                    }
                }
            }
        }
    }

    /// The leaf-vector package-merge `build` used before the flat
    /// rewrite, kept verbatim as the oracle: each node carries the
    /// leaves it covers, and a symbol's length is the number of the
    /// first `2(n - 1)` final nodes that contain it.
    fn package_merge_oracle(freqs: &[u32], max_bits: u32) -> Vec<u8> {
        #[derive(Clone)]
        struct Node {
            weight: u64,
            leaves: Vec<u32>,
        }
        let present: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
        let mut items: Vec<Node> = present
            .iter()
            .map(|&i| Node {
                weight: freqs[i] as u64,
                leaves: vec![i as u32],
            })
            .collect();
        items.sort_by_key(|n| n.weight);

        let mut list: Vec<Node> = items.clone();
        for _ in 1..max_bits {
            let mut packaged: Vec<Node> = Vec::with_capacity(list.len() / 2);
            for pair in list.chunks_exact(2) {
                let mut leaves = pair[0].leaves.clone();
                leaves.extend_from_slice(&pair[1].leaves);
                packaged.push(Node {
                    weight: pair[0].weight + pair[1].weight,
                    leaves,
                });
            }
            let mut merged = Vec::with_capacity(items.len() + packaged.len());
            let (mut a, mut b) = (0, 0);
            while a < items.len() && b < packaged.len() {
                if items[a].weight <= packaged[b].weight {
                    merged.push(items[a].clone());
                    a += 1;
                } else {
                    merged.push(packaged[b].clone());
                    b += 1;
                }
            }
            merged.extend_from_slice(&items[a..]);
            merged.extend_from_slice(&packaged[b..]);
            list = merged;
        }

        let mut lens = vec![0u8; freqs.len()];
        for node in list.iter().take(2 * (present.len() - 1)) {
            for &leaf in &node.leaves {
                lens[leaf as usize] += 1;
            }
        }
        lens
    }

    fn assert_matches_oracle(freqs: &[u32]) {
        let present = freqs.iter().filter(|&&f| f > 0).count();
        for max_bits in 1..=MAX_CODE_BITS {
            if present < 2 || present as u64 > 1u64 << max_bits {
                continue;
            }
            let table = HuffmanTable::build(freqs, max_bits).unwrap();
            assert_eq!(
                table.lengths(),
                package_merge_oracle(freqs, max_bits),
                "max_bits {max_bits}, freqs {freqs:?}"
            );
        }
    }

    #[test]
    fn lengths_equal_the_leaf_vector_oracle_on_tie_heavy_histograms() {
        // All-equal weights (every comparison is a tie), two-valued
        // weights, powers of two (package weights collide with items),
        // Fibonacci (deep codes that hit the limit), a lone heavy symbol.
        let fib: Vec<u32> = (0..30)
            .scan((1u32, 1u32), |s, _| {
                let v = s.0;
                *s = (s.1, s.0 + s.1);
                Some(v)
            })
            .collect();
        let mut sparse = vec![0u32; 300];
        for (i, f) in [(3usize, 9u32), (17, 9), (18, 1), (255, 1), (299, 4)] {
            sparse[i] = f;
        }
        for n in [2usize, 3, 4, 5, 7, 8, 9, 16, 31, 64, 257] {
            assert_matches_oracle(&vec![1; n]);
            assert_matches_oracle(&(0..n).map(|i| 1 + (i % 2) as u32).collect::<Vec<_>>());
            assert_matches_oracle(&(0..n).map(|i| 1u32 << (i % 12)).collect::<Vec<_>>());
            let mut heavy = vec![1u32; n];
            heavy[n / 2] = 1_000_000;
            assert_matches_oracle(&heavy);
        }
        assert_matches_oracle(&fib);
        assert_matches_oracle(&sparse);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn lengths_equal_the_leaf_vector_oracle_on_random_histograms(
            freqs in proptest::collection::vec(0u32..40, 2..80),
            scale in 1u32..5000,
        ) {
            // Small counts keep ties frequent; the scaled copy spreads
            // the same shape over the range byte histograms reach.
            assert_matches_oracle(&freqs);
            let scaled: Vec<u32> = freqs.iter().map(|&f| f * scale).collect();
            assert_matches_oracle(&scaled);
        }
    }

    #[test]
    fn build_defers_the_decode_tables_and_from_lengths_does_not() {
        let freqs = byte_histogram(b"encode-only callers never pay for decode windows");
        let built = HuffmanTable::build(&freqs, 11).unwrap();
        let deferred_and_built = |t: &HuffmanTable| match &t.decode {
            DecodeSide::Deferred(cell) => Some(cell.get().is_some()),
            DecodeSide::Ready(_) => None,
        };
        assert_eq!(deferred_and_built(&built), Some(false));
        let encoded = built.encode(b"encode");
        assert_eq!(
            deferred_and_built(&built),
            Some(false),
            "encoding must not build them"
        );
        let parsed = HuffmanTable::from_lengths(built.lengths()).unwrap();
        assert_eq!(deferred_and_built(&parsed), None, "decoders start ready");
        assert_eq!(parsed.decode(&encoded, 6).unwrap(), b"encode");
        assert_eq!(built.decode(&encoded, 6).unwrap(), b"encode");
        assert_eq!(deferred_and_built(&built), Some(true));
    }

    #[test]
    fn wide_alphabets_take_the_checked_loop_and_fail_alike() {
        // zlibx's 310-symbol literal/length alphabet: a symbol above 255
        // cannot be a byte, so the fast entries must not run the
        // unchecked body and must report the reference's error.
        let freqs: Vec<u32> = (0..310u32).map(|s| 1 + (s % 7) * (s % 3)).collect();
        let table =
            HuffmanTable::from_lengths(HuffmanTable::build(&freqs, 15).unwrap().lengths()).unwrap();
        assert!(!table.tables().unchecked);
        // The wide symbol comes early, where the body would decode it.
        let syms: Vec<u16> = [7, 300]
            .into_iter()
            .chain((0..600).map(|i| i % 250))
            .collect();
        let stream = |syms: &[u16]| {
            let mut w = BitWriter::new();
            syms.iter().for_each(|&s| table.write_symbol(&mut w, s));
            w.finish().0
        };
        let one = stream(&syms);
        let wide = Err(Error::CorruptData("symbol out of byte range"));
        assert_eq!(table.decode(&one, syms.len()), wide);
        assert_eq!(table.decode_fast(&one, syms.len()), wide);
        assert_eq!(table.decode_fast(&one, 1), Ok(vec![7]));
        // Four streams, the wide symbol first in the third.
        let [q, _, _, r] = four_stream_split(syms.len());
        let mut third = syms[2..q + 2].to_vec();
        third[0] = 300;
        let quads = [
            stream(&syms[2..q + 2]),
            stream(&syms[2..q + 2]),
            stream(&third),
            stream(&syms[2..r + 2]),
        ];
        let bufs = [&quads[0][..], &quads[1][..], &quads[2][..], &quads[3][..]];
        assert_eq!(table.decode_4stream(bufs, syms.len()), wide);
        assert_eq!(table.decode_4stream_fast(bufs, syms.len()), wide);
        // And an incomplete code cannot run the body either.
        let lens = [1u8, 2];
        assert!(!DecodeTables::new(&lens, &canonical_codes(&lens), 2).unchecked);
    }

    #[test]
    fn optimality_close_to_entropy() {
        // Average code length must sit within 1 bit of Shannon entropy.
        let data: Vec<u8> = b"abcc".iter().cycle().take(8192).copied().collect();
        let freqs = byte_histogram(&data);
        let table = HuffmanTable::build(&freqs, 11).unwrap();
        let avg = table.encoded_bits(&freqs) as f64 / data.len() as f64;
        let h = crate::hist::shannon_entropy(&freqs);
        assert!(avg >= h - 1e-9);
        assert!(avg < h + 1.0);
    }
}
