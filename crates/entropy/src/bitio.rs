//! LSB-first bit streams.
//!
//! Three access patterns are provided:
//!
//! * [`BitWriter`] — appends bits in LSB-first order. Bit `j` of a value
//!   written with [`BitWriter::write_bits`] lands at stream position
//!   `p + j` where `p` is the stream length before the write.
//! * [`BitReader`] — consumes a stream front-to-back in write order.
//!   Used by the Huffman decoders.
//! * [`ReverseBitReader`] — consumes a stream back-to-front: the most
//!   recently written *chunk* is returned first, but each chunk is
//!   reassembled with the same bit significance the writer used. This is
//!   the access pattern FSE/tANS decoding requires, because the encoder
//!   processes symbols in reverse order.
//!
//! Each reader also has a fast sibling ([`BitReaderFast`],
//! [`ReverseBitReaderFast`]) with bit-identical semantics: where the
//! reference readers assemble values byte-by-byte, the fast readers load
//! an aligned-enough 64-bit little-endian word per operation and fall
//! back to the byte loop only when fewer than 8 bytes of buffer remain
//! under the read position. Decoders stay generic over [`BitSrc`] /
//! [`RevBitSrc`] so the same loop body runs against either engine; the
//! differential proptests in this module's test suite pin the
//! equivalence.

use crate::{Error, Result};

/// Maximum number of bits accepted by a single `write_bits`/`read_bits` call.
pub const MAX_BITS_PER_OP: u32 = 56;

/// An append-only LSB-first bit stream.
///
/// # Example
///
/// ```
/// use entropy::bitio::{BitWriter, BitReader};
///
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_bits(0x7f, 7);
/// let (bytes, bits) = w.finish();
/// let mut r = BitReader::new(&bytes, bits);
/// assert_eq!(r.read_bits(3).unwrap(), 0b101);
/// assert_eq!(r.read_bits(7).unwrap(), 0x7f);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Bits accumulated but not yet flushed to `buf`.
    acc: u64,
    /// Number of valid bits in `acc` (always < 8 after `flush_acc`).
    nbits: u32,
}

impl BitWriter {
    /// Creates an empty bit stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty bit stream with capacity for `bytes` output bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bytes),
            acc: 0,
            nbits: 0,
        }
    }

    /// Total number of bits written so far.
    fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.nbits as usize
    }

    /// Returns true if no bits have been written.
    pub fn is_empty(&self) -> bool {
        self.bit_len() == 0
    }

    /// Appends the low `n` bits of `value` (LSB first).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `n > 56` or if `value` has bits set above
    /// bit `n`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= MAX_BITS_PER_OP, "write_bits supports at most 56 bits");
        debug_assert!(n == 64 || value < (1u64 << n), "value has bits above n");
        self.acc |= value << self.nbits;
        self.nbits += n;
        while self.nbits >= 8 {
            self.buf.push((self.acc & 0xff) as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    /// Finishes the stream, zero-padding the final partial byte.
    ///
    /// Returns the byte buffer and the exact number of valid bits.
    pub fn finish(mut self) -> (Vec<u8>, usize) {
        let bits = self.bit_len();
        if self.nbits > 0 {
            self.buf.push((self.acc & 0xff) as u8);
        }
        (self.buf, bits)
    }

    /// Finishes the stream by appending a single `1` sentinel bit and
    /// zero-padding. A [`ReverseBitReader`] uses the sentinel to recover
    /// the exact bit length from the byte buffer alone.
    pub fn finish_with_sentinel(mut self) -> Vec<u8> {
        self.write_bits(1, 1);
        let (buf, _) = self.finish();
        buf
    }
}

/// Front-to-back reader over a bit stream produced by [`BitWriter`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Next bit position to read.
    pos: usize,
    /// Total number of valid bits.
    len: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `buf` containing exactly `bit_len` valid bits.
    pub fn new(buf: &'a [u8], bit_len: usize) -> Self {
        debug_assert!(bit_len <= buf.len() * 8);
        Self {
            buf,
            pos: 0,
            len: bit_len.min(buf.len() * 8),
        }
    }

    /// Number of unread bits remaining.
    pub fn remaining(&self) -> usize {
        self.len - self.pos
    }

    /// Reads `n` bits in write order.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnexpectedEof`] if fewer than `n` bits remain, and
    /// [`Error::InvalidParameter`] if `n > MAX_BITS_PER_OP`.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u64> {
        if n > MAX_BITS_PER_OP {
            return Err(Error::InvalidParameter("read_bits width exceeds 56"));
        }
        if (n as usize) > self.remaining() {
            return Err(Error::UnexpectedEof);
        }
        let v = extract_bits(self.buf, self.pos, n);
        self.pos += n as usize;
        Ok(v)
    }

    /// Peeks up to `n` bits without consuming; missing bits beyond the end
    /// of the stream read as zero. Used by table-driven Huffman decoding,
    /// which peeks a fixed-width window that may extend past the final
    /// code.
    #[inline]
    pub fn peek_bits_lenient(&self, n: u32) -> u64 {
        let avail = self.remaining().min(n as usize) as u32;
        extract_bits(self.buf, self.pos, avail)
    }

    /// Consumes `n` bits previously peeked.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnexpectedEof`] if fewer than `n` bits remain.
    #[inline]
    pub fn consume(&mut self, n: u32) -> Result<()> {
        if (n as usize) > self.remaining() {
            return Err(Error::UnexpectedEof);
        }
        self.pos += n as usize;
        Ok(())
    }
}

/// Word-at-a-time variant of [`BitReader`] with identical semantics.
///
/// Every read refills from a single unaligned 64-bit load while at
/// least 8 bytes of buffer remain under the read position; the final
/// bytes fall back to the byte-looped `extract_bits`, so the two
/// readers return the same values and the same errors for every input.
#[derive(Debug, Clone)]
pub struct BitReaderFast<'a> {
    buf: &'a [u8],
    /// Next bit position to read.
    pos: usize,
    /// Total number of valid bits.
    len: usize,
}

impl<'a> BitReaderFast<'a> {
    /// Creates a reader over `buf` containing exactly `bit_len` valid bits.
    pub fn new(buf: &'a [u8], bit_len: usize) -> Self {
        debug_assert!(bit_len <= buf.len() * 8);
        Self {
            buf,
            pos: 0,
            len: bit_len.min(buf.len() * 8),
        }
    }

    /// Number of unread bits remaining.
    pub fn remaining(&self) -> usize {
        self.len - self.pos
    }

    /// Reads `n` bits in write order. Same contract as
    /// [`BitReader::read_bits`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnexpectedEof`] if fewer than `n` bits remain, and
    /// [`Error::InvalidParameter`] if `n > MAX_BITS_PER_OP`.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u64> {
        if n > MAX_BITS_PER_OP {
            return Err(Error::InvalidParameter("read_bits width exceeds 56"));
        }
        if (n as usize) > self.remaining() {
            return Err(Error::UnexpectedEof);
        }
        let v = load_bits(self.buf, self.pos, n);
        self.pos += n as usize;
        Ok(v)
    }

    /// Peeks up to `n` bits without consuming; missing bits beyond the
    /// end of the stream read as zero. Same contract as
    /// [`BitReader::peek_bits_lenient`].
    #[inline]
    pub fn peek_bits_lenient(&self, n: u32) -> u64 {
        let avail = self.remaining().min(n as usize) as u32;
        load_bits(self.buf, self.pos, avail)
    }

    /// Consumes `n` bits previously peeked.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnexpectedEof`] if fewer than `n` bits remain.
    #[inline]
    pub fn consume(&mut self, n: u32) -> Result<()> {
        if (n as usize) > self.remaining() {
            return Err(Error::UnexpectedEof);
        }
        self.pos += n as usize;
        Ok(())
    }
}

/// Forward bit source: the interface shared by [`BitReader`] and
/// [`BitReaderFast`], letting decode loops (Huffman symbol reads, extra
/// bits) stay generic over the reference and fast engines.
pub trait BitSrc {
    /// Number of unread bits remaining.
    fn remaining(&self) -> usize;
    /// Reads `n` bits in write order; see [`BitReader::read_bits`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnexpectedEof`] if fewer than `n` bits remain,
    /// and [`Error::InvalidParameter`] if `n > MAX_BITS_PER_OP`.
    fn read_bits(&mut self, n: u32) -> Result<u64>;
    /// Peeks up to `n` bits, zero-filling past the end of the stream.
    fn peek_bits_lenient(&self, n: u32) -> u64;
    /// Consumes `n` previously peeked bits.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnexpectedEof`] if fewer than `n` bits remain.
    fn consume(&mut self, n: u32) -> Result<()>;
}

impl BitSrc for BitReader<'_> {
    #[inline]
    fn remaining(&self) -> usize {
        BitReader::remaining(self)
    }
    #[inline]
    fn read_bits(&mut self, n: u32) -> Result<u64> {
        BitReader::read_bits(self, n)
    }
    #[inline]
    fn peek_bits_lenient(&self, n: u32) -> u64 {
        BitReader::peek_bits_lenient(self, n)
    }
    #[inline]
    fn consume(&mut self, n: u32) -> Result<()> {
        BitReader::consume(self, n)
    }
}

impl BitSrc for BitReaderFast<'_> {
    #[inline]
    fn remaining(&self) -> usize {
        BitReaderFast::remaining(self)
    }
    #[inline]
    fn read_bits(&mut self, n: u32) -> Result<u64> {
        BitReaderFast::read_bits(self, n)
    }
    #[inline]
    fn peek_bits_lenient(&self, n: u32) -> u64 {
        BitReaderFast::peek_bits_lenient(self, n)
    }
    #[inline]
    fn consume(&mut self, n: u32) -> Result<()> {
        BitReaderFast::consume(self, n)
    }
}

/// Back-to-front reader matching FSE's reverse decode order.
///
/// If the writer performed writes `W1, W2, ..., Wk`, this reader returns
/// the values of `Wk, ..., W2, W1` (each value reassembled exactly as
/// written) when the reads use the same widths in reverse order.
#[derive(Debug, Clone)]
pub struct ReverseBitReader<'a> {
    buf: &'a [u8],
    /// Number of valid bits not yet consumed, counted from the front.
    pos: usize,
}

impl<'a> ReverseBitReader<'a> {
    /// Creates a reverse reader over a buffer produced by
    /// [`BitWriter::finish_with_sentinel`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::CorruptData`] if the buffer is empty or its final
    /// byte is zero (no sentinel).
    pub fn from_sentinel(buf: &'a [u8]) -> Result<Self> {
        let last = *buf
            .last()
            .ok_or(Error::CorruptData("empty reverse bitstream"))?;
        if last == 0 {
            return Err(Error::CorruptData("missing sentinel bit"));
        }
        let sentinel_pos = (buf.len() - 1) * 8 + (7 - last.leading_zeros() as usize);
        Ok(Self {
            buf,
            pos: sentinel_pos,
        })
    }

    /// Number of unread bits remaining.
    pub fn remaining(&self) -> usize {
        self.pos
    }

    /// Reads the `n` most recently written bits, reassembled in write
    /// significance.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnexpectedEof`] if fewer than `n` bits remain, and
    /// [`Error::InvalidParameter`] if `n > MAX_BITS_PER_OP`.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u64> {
        if n > MAX_BITS_PER_OP {
            return Err(Error::InvalidParameter("read_bits width exceeds 56"));
        }
        if (n as usize) > self.pos {
            return Err(Error::UnexpectedEof);
        }
        self.pos -= n as usize;
        Ok(extract_bits(self.buf, self.pos, n))
    }
}

/// Word-at-a-time variant of [`ReverseBitReader`] with identical
/// semantics. Reverse streams start reading near the end of the buffer
/// (where fewer than 8 bytes remain under the position, hitting the
/// byte-looped fallback) and speed up as the position retreats into
/// full-word territory — the steady state for any stream longer than a
/// word.
#[derive(Debug, Clone)]
pub struct ReverseBitReaderFast<'a> {
    buf: &'a [u8],
    /// Number of valid bits not yet consumed, counted from the front.
    pos: usize,
}

impl<'a> ReverseBitReaderFast<'a> {
    /// Creates a reverse reader over a buffer produced by
    /// [`BitWriter::finish_with_sentinel`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::CorruptData`] if the buffer is empty or its final
    /// byte is zero (no sentinel).
    pub fn from_sentinel(buf: &'a [u8]) -> Result<Self> {
        let last = *buf
            .last()
            .ok_or(Error::CorruptData("empty reverse bitstream"))?;
        if last == 0 {
            return Err(Error::CorruptData("missing sentinel bit"));
        }
        let sentinel_pos = (buf.len() - 1) * 8 + (7 - last.leading_zeros() as usize);
        Ok(Self {
            buf,
            pos: sentinel_pos,
        })
    }

    /// Number of unread bits remaining.
    pub fn remaining(&self) -> usize {
        self.pos
    }

    /// Reads the `n` most recently written bits, reassembled in write
    /// significance. Same contract as [`ReverseBitReader::read_bits`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnexpectedEof`] if fewer than `n` bits remain, and
    /// [`Error::InvalidParameter`] if `n > MAX_BITS_PER_OP`.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u64> {
        if n > MAX_BITS_PER_OP {
            return Err(Error::InvalidParameter("read_bits width exceeds 56"));
        }
        if (n as usize) > self.pos {
            return Err(Error::UnexpectedEof);
        }
        self.pos -= n as usize;
        Ok(load_bits(self.buf, self.pos, n))
    }
}

/// Reverse bit source: the interface shared by [`ReverseBitReader`] and
/// [`ReverseBitReaderFast`], letting FSE decode loops stay generic over
/// the reference and fast engines.
pub trait RevBitSrc {
    /// Number of unread bits remaining.
    fn remaining(&self) -> usize;
    /// Reads the `n` most recently written bits; see
    /// [`ReverseBitReader::read_bits`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnexpectedEof`] if fewer than `n` bits remain,
    /// and [`Error::InvalidParameter`] if `n > MAX_BITS_PER_OP`.
    fn read_bits(&mut self, n: u32) -> Result<u64>;
}

impl RevBitSrc for ReverseBitReader<'_> {
    #[inline]
    fn remaining(&self) -> usize {
        ReverseBitReader::remaining(self)
    }
    #[inline]
    fn read_bits(&mut self, n: u32) -> Result<u64> {
        ReverseBitReader::read_bits(self, n)
    }
}

impl RevBitSrc for ReverseBitReaderFast<'_> {
    #[inline]
    fn remaining(&self) -> usize {
        ReverseBitReaderFast::remaining(self)
    }
    #[inline]
    fn read_bits(&mut self, n: u32) -> Result<u64> {
        ReverseBitReaderFast::read_bits(self, n)
    }
}

/// Opens four reference [`BitReader`] cursors over four independent
/// substreams — the multi-stream entropy layout's reader bank. Each
/// cursor owns its own position and valid-bit length but all four share
/// the same refill discipline (and therefore the same EOF and zero-fill
/// semantics), so interleaved decode loops can rotate over them without
/// per-cursor special cases.
pub fn quad_readers<'a>(bufs: [&'a [u8]; 4], bit_lens: [usize; 4]) -> [BitReader<'a>; 4] {
    let [b0, b1, b2, b3] = bufs;
    let [l0, l1, l2, l3] = bit_lens;
    [
        BitReader::new(b0, l0),
        BitReader::new(b1, l1),
        BitReader::new(b2, l2),
        BitReader::new(b3, l3),
    ]
}

/// Word-refilling sibling of [`quad_readers`]: four [`BitReaderFast`]
/// cursors with bit-identical semantics, for the fast decode engines.
pub fn quad_readers_fast<'a>(bufs: [&'a [u8]; 4], bit_lens: [usize; 4]) -> [BitReaderFast<'a>; 4] {
    let [b0, b1, b2, b3] = bufs;
    let [l0, l1, l2, l3] = bit_lens;
    [
        BitReaderFast::new(b0, l0),
        BitReaderFast::new(b1, l1),
        BitReaderFast::new(b2, l2),
        BitReaderFast::new(b3, l3),
    ]
}

/// Loads `n <= 56` bits starting at absolute bit position `pos` with a
/// single unaligned 64-bit little-endian load when a full 8-byte window
/// fits in `buf`, falling back to [`extract_bits`] near the end of the
/// buffer. Returns exactly what `extract_bits(buf, pos, n)` returns for
/// every input: the shift is at most 7 bits, so `n + 7 <= 63` valid bits
/// always survive the word load.
#[inline]
#[deny(clippy::indexing_slicing)]
fn load_bits(buf: &[u8], pos: usize, n: u32) -> u64 {
    debug_assert!(n <= MAX_BITS_PER_OP);
    let byte = pos >> 3;
    match byte.checked_add(8).and_then(|end| buf.get(byte..end)) {
        Some(window) => {
            let word = u64::from_le_bytes(window.try_into().expect("window is 8 bytes"));
            (word >> (pos & 7)) & ((1u64 << n.min(MAX_BITS_PER_OP)) - 1)
        }
        None => extract_bits(buf, pos, n),
    }
}

/// Extracts `n` bits starting at absolute bit position `pos` (LSB-first).
/// Bits past the end of `buf` read as zero; callers bound `n` against the
/// valid bit length before calling.
#[inline]
#[deny(clippy::indexing_slicing)]
fn extract_bits(buf: &[u8], pos: usize, n: u32) -> u64 {
    debug_assert!(n <= MAX_BITS_PER_OP);
    let n = n.min(MAX_BITS_PER_OP);
    if n == 0 {
        return 0;
    }
    let first_byte = pos / 8;
    let bit_off = (pos % 8) as u32;
    let mut acc: u64 = 0;
    let mut filled: u32 = 0;
    let mut bytes = buf.iter().skip(first_byte);
    // First (possibly partial) byte.
    if let Some(&b) = bytes.next() {
        acc = (b as u64) >> bit_off;
        filled = 8 - bit_off;
    }
    while filled < n {
        match bytes.next() {
            Some(&b) => {
                acc |= (b as u64) << filled;
                filled += 8;
            }
            None => break,
        }
    }
    acc & ((1u64 << n) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        w.write_bits(0b1010, 4);
        w.write_bits(0xdead, 16);
        w.write_bits(0, 3);
        let (buf, bits) = w.finish();
        assert_eq!(bits, 24);
        let mut r = BitReader::new(&buf, bits);
        assert_eq!(r.read_bits(1).unwrap(), 0b1);
        assert_eq!(r.read_bits(4).unwrap(), 0b1010);
        assert_eq!(r.read_bits(16).unwrap(), 0xdead);
        assert_eq!(r.read_bits(3).unwrap(), 0);
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.read_bits(1), Err(Error::UnexpectedEof));
    }

    #[test]
    fn empty_writer() {
        let w = BitWriter::new();
        assert!(w.is_empty());
        let (buf, bits) = w.finish();
        assert!(buf.is_empty());
        assert_eq!(bits, 0);
    }

    #[test]
    fn zero_width_ops() {
        let mut w = BitWriter::new();
        w.write_bits(0, 0);
        w.write_bits(0b11, 2);
        let (buf, bits) = w.finish();
        let mut r = BitReader::new(&buf, bits);
        assert_eq!(r.read_bits(0).unwrap(), 0);
        assert_eq!(r.read_bits(2).unwrap(), 0b11);
    }

    #[test]
    fn reverse_reader_lifo() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0x3f, 6);
        w.write_bits(0x1234, 13);
        let buf = w.finish_with_sentinel();
        let mut r = ReverseBitReader::from_sentinel(&buf).unwrap();
        assert_eq!(r.read_bits(13).unwrap(), 0x1234);
        assert_eq!(r.read_bits(6).unwrap(), 0x3f);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.read_bits(1), Err(Error::UnexpectedEof));
    }

    #[test]
    fn reverse_reader_rejects_empty_and_zero_tail() {
        assert!(ReverseBitReader::from_sentinel(&[]).is_err());
        assert!(ReverseBitReader::from_sentinel(&[0u8]).is_err());
    }

    #[test]
    fn sentinel_only_stream() {
        let w = BitWriter::new();
        let buf = w.finish_with_sentinel();
        let r = ReverseBitReader::from_sentinel(&buf).unwrap();
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn peek_lenient_past_end() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        let (buf, bits) = w.finish();
        let r = BitReader::new(&buf, bits);
        // Peeking 8 bits when only 2 remain: missing bits read as zero.
        assert_eq!(r.peek_bits_lenient(8), 0b11);
    }

    #[test]
    fn read_bits_rejects_truncated_stream() {
        // Buffer physically holds 16 bits but only 9 are valid: reads past
        // the valid length must fail, not expose padding.
        let buf = [0xff, 0xff];
        let mut r = BitReader::new(&buf, 9);
        assert_eq!(r.read_bits(8).unwrap(), 0xff);
        assert_eq!(r.read_bits(2), Err(Error::UnexpectedEof));
        // Position is unchanged after a failed read.
        assert_eq!(r.read_bits(1).unwrap(), 1);
    }

    #[test]
    fn read_bits_rejects_oversized_width() {
        let buf = [0u8; 16];
        let mut r = BitReader::new(&buf, 128);
        assert!(matches!(r.read_bits(57), Err(Error::InvalidParameter(_))));
        let sbuf = [0u8, 0x80];
        let mut rr = ReverseBitReader::from_sentinel(&sbuf).unwrap();
        assert!(matches!(rr.read_bits(57), Err(Error::InvalidParameter(_))));
    }

    #[test]
    fn consume_rejects_truncated_stream() {
        let buf = [0xabu8];
        let mut r = BitReader::new(&buf, 5);
        assert_eq!(r.consume(9), Err(Error::UnexpectedEof));
        assert_eq!(r.remaining(), 5);
        r.consume(5).unwrap();
        assert_eq!(r.consume(1), Err(Error::UnexpectedEof));
    }

    #[test]
    fn peek_lenient_never_reads_past_buffer() {
        // 3 valid bits in a 1-byte buffer; a 56-bit peek must stay in
        // bounds and zero-fill the missing bits.
        let buf = [0b0000_0101u8];
        let r = BitReader::new(&buf, 3);
        assert_eq!(r.peek_bits_lenient(56), 0b101);
        // Empty stream peeks as zero.
        let empty = BitReader::new(&[], 0);
        assert_eq!(empty.peek_bits_lenient(8), 0);
    }

    #[test]
    fn reverse_read_bits_rejects_truncated_stream() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        let buf = w.finish_with_sentinel();
        let mut r = ReverseBitReader::from_sentinel(&buf).unwrap();
        // Asking for more bits than were written fails without panicking.
        assert_eq!(r.read_bits(5), Err(Error::UnexpectedEof));
        assert_eq!(r.remaining(), 4);
        assert_eq!(r.read_bits(4).unwrap(), 0b1011);
        assert_eq!(r.read_bits(1), Err(Error::UnexpectedEof));
    }

    #[test]
    fn from_sentinel_rejects_truncated_tails() {
        // Every prefix of a valid sentinel stream whose final byte is zero
        // must be rejected rather than mis-synchronized.
        let mut w = BitWriter::new();
        w.write_bits(0xffff, 16);
        w.write_bits(0, 8);
        let buf = w.finish_with_sentinel();
        assert!(ReverseBitReader::from_sentinel(&buf[..3]).is_err());
        assert!(ReverseBitReader::from_sentinel(&[]).is_err());
    }

    /// Deterministic xorshift so parity tests don't need an external RNG.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn fast_forward_reader_matches_reference() {
        let mut state = 0x5157u64;
        for round in 0..64 {
            let mut w = BitWriter::new();
            let mut widths = Vec::new();
            for _ in 0..(round + 1) {
                let n = (xorshift(&mut state) % 57) as u32;
                let v = if n == 0 {
                    0
                } else {
                    xorshift(&mut state) & ((1u64 << n) - 1)
                };
                w.write_bits(v, n);
                widths.push(n);
            }
            let (buf, bits) = w.finish();
            let mut slow = BitReader::new(&buf, bits);
            let mut fast = BitReaderFast::new(&buf, bits);
            for &n in &widths {
                assert_eq!(slow.peek_bits_lenient(11), fast.peek_bits_lenient(11));
                assert_eq!(slow.read_bits(n), fast.read_bits(n));
                assert_eq!(slow.remaining(), fast.remaining());
            }
            // Both agree on the EOF error too.
            assert_eq!(slow.read_bits(1), fast.read_bits(1));
        }
    }

    #[test]
    fn fast_reverse_reader_matches_reference() {
        let mut state = 0x20823u64;
        for round in 0..64 {
            let mut w = BitWriter::new();
            let mut widths = Vec::new();
            for _ in 0..(round + 1) {
                let n = (xorshift(&mut state) % 57) as u32;
                let v = if n == 0 {
                    0
                } else {
                    xorshift(&mut state) & ((1u64 << n) - 1)
                };
                w.write_bits(v, n);
                widths.push(n);
            }
            let buf = w.finish_with_sentinel();
            let mut slow = ReverseBitReader::from_sentinel(&buf).unwrap();
            let mut fast = ReverseBitReaderFast::from_sentinel(&buf).unwrap();
            assert_eq!(slow.remaining(), fast.remaining());
            for &n in widths.iter().rev() {
                assert_eq!(slow.read_bits(n), fast.read_bits(n));
                assert_eq!(slow.remaining(), fast.remaining());
            }
            assert_eq!(slow.read_bits(1), fast.read_bits(1));
        }
    }

    #[test]
    fn fast_readers_match_on_truncated_and_hostile_buffers() {
        // Truncated valid-length: only 9 of 16 physical bits valid.
        let buf = [0xff, 0xff];
        let mut slow = BitReader::new(&buf, 9);
        let mut fast = BitReaderFast::new(&buf, 9);
        assert_eq!(slow.read_bits(8), fast.read_bits(8));
        assert_eq!(slow.read_bits(2), fast.read_bits(2));
        assert_eq!(slow.read_bits(1), fast.read_bits(1));
        // Oversized width errors identically.
        let mut slow = BitReader::new(&buf, 16);
        let mut fast = BitReaderFast::new(&buf, 16);
        assert_eq!(slow.read_bits(57), fast.read_bits(57));
        // Reverse: rejects empty / zero-tail buffers identically.
        assert_eq!(
            ReverseBitReader::from_sentinel(&[]).map(|r| r.remaining()),
            ReverseBitReaderFast::from_sentinel(&[]).map(|r| r.remaining())
        );
        assert_eq!(
            ReverseBitReader::from_sentinel(&[0u8]).map(|r| r.remaining()),
            ReverseBitReaderFast::from_sentinel(&[0u8]).map(|r| r.remaining())
        );
    }

    #[test]
    fn load_bits_matches_extract_bits_at_every_offset() {
        // A 24-byte buffer exercises both the word path and the tail
        // fallback as `pos` sweeps the whole range.
        let buf: Vec<u8> = (0..24u8)
            .map(|b| b.wrapping_mul(37).wrapping_add(11))
            .collect();
        for pos in 0..buf.len() * 8 {
            for n in 0..=MAX_BITS_PER_OP {
                assert_eq!(
                    load_bits(&buf, pos, n),
                    extract_bits(&buf, pos, n),
                    "pos={pos} n={n}"
                );
            }
        }
    }

    #[test]
    fn quad_reader_banks_match_single_cursors() {
        // Four substreams with different lengths; the bank cursors must
        // behave exactly like independently constructed readers.
        let streams: Vec<(Vec<u8>, usize)> = (0..4u64)
            .map(|k| {
                let mut w = BitWriter::new();
                for i in 0..(k + 1) * 3 {
                    w.write_bits((i * 7 + k) & 0x1f, 5);
                }
                let (buf, bits) = w.finish();
                (buf, bits)
            })
            .collect();
        let bufs = [
            streams[0].0.as_slice(),
            streams[1].0.as_slice(),
            streams[2].0.as_slice(),
            streams[3].0.as_slice(),
        ];
        let lens = [streams[0].1, streams[1].1, streams[2].1, streams[3].1];
        let mut bank = quad_readers(bufs, lens);
        let mut bank_fast = quad_readers_fast(bufs, lens);
        for (k, (buf, bits)) in streams.iter().enumerate() {
            let mut single = BitReader::new(buf, *bits);
            loop {
                let want = single.read_bits(5);
                assert_eq!(bank[k].read_bits(5), want, "stream {k}");
                assert_eq!(bank_fast[k].read_bits(5), want, "stream {k} fast");
                if want.is_err() {
                    break;
                }
            }
        }
    }

    #[test]
    fn long_values_cross_many_bytes() {
        let mut w = BitWriter::new();
        w.write_bits(0x00ab_cdef_0123, 48);
        w.write_bits(0x5a, 7);
        let (buf, bits) = w.finish();
        let mut r = BitReader::new(&buf, bits);
        assert_eq!(r.read_bits(48).unwrap(), 0x00ab_cdef_0123);
        assert_eq!(r.read_bits(7).unwrap(), 0x5a);
    }
}
