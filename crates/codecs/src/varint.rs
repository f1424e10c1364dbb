//! LEB128-style variable-length integers used by the frame formats.
//!
//! Decoding is strict: only the *canonical* encoding of each value is
//! accepted. Redundant trailing continuation groups (`[0x80, 0x00]` for
//! zero) and tenth-byte payloads that overflow `u64` are rejected with
//! [`CodecError::Corrupt`], so every value has exactly one wire form and
//! a flipped continuation bit cannot silently alias another value.

use crate::{CodecError, Result};

/// Appends `v` as a LEB128 varint.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a varint, returning `(value, bytes_consumed)`.
///
/// # Errors
///
/// Returns [`CodecError::Truncated`] when the buffer ends mid-varint,
/// and [`CodecError::Corrupt`] for non-canonical encodings: more than
/// 10 bytes, a final byte of `0x00` after at least one continuation
/// byte (a shorter encoding exists), or tenth-byte bits that would
/// shift past the top of `u64`.
pub fn read_varint(buf: &[u8]) -> Result<(u64, usize)> {
    let mut v: u64 = 0;
    for (i, &byte) in buf.iter().enumerate().take(10) {
        if i == 9 && byte > 0x01 {
            // Bits 1..7 of the tenth byte would shift past u64::MAX.
            return Err(CodecError::corrupt("varint overflows u64", i));
        }
        v |= u64::from(byte & 0x7f) << (7 * i);
        if byte & 0x80 == 0 {
            if byte == 0 && i > 0 {
                // A trailing zero group encodes nothing; the canonical
                // form is one byte shorter.
                return Err(CodecError::corrupt("varint non-canonical", i));
            }
            return Ok((v, i + 1));
        }
    }
    if buf.len() < 10 {
        return Err(CodecError::Truncated("varint"));
    }
    Err(CodecError::corrupt("varint overlong", 10))
}

/// Cursor-style reader over a byte buffer with checked primitives.
///
/// All read failures carry the cursor position, so frame decoders get
/// `Corrupt { offset }` values that point at the offending byte.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Creates a cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// A [`CodecError::Corrupt`] anchored at the current position.
    pub fn corrupt(&self, stage: &'static str) -> CodecError {
        CodecError::corrupt(stage, self.pos)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] at end of buffer.
    pub fn read_u8(&mut self) -> Result<u8> {
        let b = *self.buf.get(self.pos).ok_or(CodecError::Truncated("u8"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a little-endian u16.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] at end of buffer.
    // indexing_slicing: `read_slice(2)` returned exactly two bytes.
    #[allow(clippy::indexing_slicing)]
    pub fn read_u16(&mut self) -> Result<u16> {
        let s = self.read_slice(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    /// Reads a little-endian u32.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] at end of buffer.
    // indexing_slicing: `read_slice(4)` returned exactly four bytes.
    #[allow(clippy::indexing_slicing)]
    pub fn read_u32(&mut self) -> Result<u32> {
        let s = self.read_slice(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a varint.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] on truncation and
    /// [`CodecError::Corrupt`] on non-canonical encodings (see
    /// [`read_varint`]).
    pub fn read_varint(&mut self) -> Result<u64> {
        let rest = self.buf.get(self.pos..).unwrap_or(&[]);
        let (v, n) = read_varint(rest).map_err(|e| e.rebase(self.pos))?;
        self.pos += n;
        Ok(v)
    }

    /// Returns the unread remainder without consuming it.
    ///
    /// # Errors
    ///
    /// Infallible in practice (kept `Result` for call-site uniformity).
    pub fn read_slice_remaining(&self) -> Result<&'a [u8]> {
        Ok(self.buf.get(self.pos..).unwrap_or(&[]))
    }

    /// Skips `n` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] if fewer than `n` bytes remain.
    pub fn advance(&mut self, n: usize) -> Result<()> {
        if n > self.remaining() {
            return Err(CodecError::Truncated("advance"));
        }
        self.pos += n;
        Ok(())
    }

    /// Reads `n` bytes as a slice.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] if fewer than `n` bytes remain.
    pub fn read_slice(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(self.corrupt("length overflow"))?;
        let s = self
            .buf
            .get(self.pos..end)
            .ok_or(CodecError::Truncated("slice"))?;
        self.pos = end;
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, 65535, 1 << 20, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let (got, n) = read_varint(&buf).unwrap();
            assert_eq!(got, v);
            assert_eq!(n, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncated() {
        assert!(matches!(read_varint(&[]), Err(CodecError::Truncated(_))));
        assert!(matches!(
            read_varint(&[0x80]),
            Err(CodecError::Truncated(_))
        ));
        assert!(read_varint(&[0x80; 11]).is_err());
    }

    #[test]
    fn varint_rejects_non_canonical() {
        // 0 padded to two bytes: a shorter encoding exists.
        assert!(matches!(
            read_varint(&[0x80, 0x00]),
            Err(CodecError::Corrupt { .. })
        ));
        // 1 padded to three bytes.
        assert!(matches!(
            read_varint(&[0x81, 0x80, 0x00]),
            Err(CodecError::Corrupt { .. })
        ));
        // Single zero byte IS canonical.
        assert_eq!(read_varint(&[0x00]).unwrap(), (0, 1));
    }

    #[test]
    fn varint_rejects_u64_overflow() {
        // Ten continuation groups with a tenth byte carrying bits that
        // shift past bit 63.
        let mut buf = [0x80u8; 10];
        buf[9] = 0x02;
        assert!(matches!(read_varint(&buf), Err(CodecError::Corrupt { .. })));
        // u64::MAX itself (tenth byte 0x01) is accepted.
        let mut max = Vec::new();
        write_varint(&mut max, u64::MAX);
        assert_eq!(max.len(), 10);
        assert_eq!(read_varint(&max).unwrap(), (u64::MAX, 10));
    }

    #[test]
    fn every_two_byte_pattern_is_total() {
        // Exhaustive: decode must return Ok or Err, never panic, and
        // every Ok must re-encode to the same bytes (canonical).
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                if let Ok((v, n)) = read_varint(&[a, b]) {
                    let mut re = Vec::new();
                    write_varint(&mut re, v);
                    assert_eq!(&re[..], &[a, b][..n]);
                }
            }
        }
    }

    #[test]
    fn cursor_reads() {
        let mut buf = vec![7u8, 0x34, 0x12];
        write_varint(&mut buf, 999);
        buf.extend_from_slice(b"tail");
        let mut c = Cursor::new(&buf);
        assert_eq!(c.read_u8().unwrap(), 7);
        assert_eq!(c.read_u16().unwrap(), 0x1234);
        assert_eq!(c.read_varint().unwrap(), 999);
        assert_eq!(c.read_slice(4).unwrap(), b"tail");
        assert_eq!(c.remaining(), 0);
        assert!(matches!(c.read_u8(), Err(CodecError::Truncated(_))));
    }

    #[test]
    fn cursor_errors_carry_offset() {
        let buf = [0x01, 0x80, 0x00];
        let mut c = Cursor::new(&buf);
        c.read_u8().unwrap();
        match c.read_varint() {
            Err(CodecError::Corrupt { offset, .. }) => assert_eq!(offset, 2),
            other => panic!("expected Corrupt with offset, got {other:?}"),
        }
    }
}
