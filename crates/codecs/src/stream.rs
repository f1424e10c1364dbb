//! Streaming compression — `std::io::Write`/`Read` adapters over the
//! zstdx frame format.
//!
//! Services like the paper's DW2 shuffle pipe data through compression
//! without ever holding a whole file in memory. [`CompressWriter`]
//! produces *streaming frames* (no up-front content size; the final
//! block carries a last-block marker) and [`DecompressReader`] consumes
//! them incrementally, retaining only a window of history.
//!
//! # Example
//!
//! ```
//! use std::io::{Read, Write};
//! use codecs::stream::{CompressWriter, DecompressReader};
//!
//! # fn main() -> std::io::Result<()> {
//! let mut w = CompressWriter::new(Vec::new(), 3);
//! w.write_all(b"streamed streamed streamed")?;
//! let frame = w.finish()?;
//!
//! let mut out = Vec::new();
//! DecompressReader::new(frame.as_slice(), 3).read_to_end(&mut out)?;
//! assert_eq!(out, b"streamed streamed streamed");
//! # Ok(())
//! # }
//! ```

use std::io::{self, Read, Write};

use lzkit::MatchParams;

use crate::xxhash::Xxh64;
use crate::zstdx::{
    decode_block_payload, level_params, write_block_opts, BLOCK_COMPRESSED, BLOCK_LAST, BLOCK_RAW,
    BLOCK_RLE, BLOCK_SIZE, FLAG_CHECKSUM, FLAG_STREAMING, FLAG_V4, MAGIC,
};
use crate::{CodecError, StreamPolicy};

/// History retained for back-references, in bytes. Must cover the
/// largest window any level uses (2^22).
const WINDOW_KEEP: usize = 1 << 22;

/// A `Write` adapter that compresses into a zstdx streaming frame.
///
/// Data is buffered into 128 KiB blocks; each full block is compressed
/// against the retained window and written through. Call
/// [`Self::finish`] to flush the final block, the last-block marker, and
/// the content checksum — dropping the writer without finishing writes
/// the remaining data on a best-effort basis (errors ignored), so
/// explicit `finish` is strongly preferred.
pub struct CompressWriter<W: Write> {
    inner: Option<W>,
    params: MatchParams,
    /// Window tail followed by not-yet-compressed input.
    buf: Vec<u8>,
    /// Length of the already-compressed window prefix of `buf`.
    history_len: usize,
    hasher: Xxh64,
    wrote_header: bool,
    finished: bool,
}

impl<W: Write> CompressWriter<W> {
    /// Creates a streaming compressor at `level` writing into `inner`.
    pub fn new(inner: W, level: i32) -> Self {
        Self {
            inner: Some(inner),
            params: level_params(level.clamp(-5, 19)),
            buf: Vec::with_capacity(2 * BLOCK_SIZE),
            history_len: 0,
            hasher: Xxh64::new(0),
            wrote_header: false,
            finished: false,
        }
    }

    fn write_header(&mut self) -> io::Result<()> {
        if !self.wrote_header {
            let w = self.inner.as_mut().expect("writer present until finish");
            w.write_all(&MAGIC)?;
            // The header goes out before any block is encoded, so the
            // v4 bit is declared up front: it *permits* multi-stream
            // blocks, it does not require them, and sub-threshold
            // blocks keep the legacy layout.
            w.write_all(&[FLAG_STREAMING | FLAG_CHECKSUM | FLAG_V4])?;
            self.wrote_header = true;
        }
        Ok(())
    }

    fn emit_block(&mut self, last: bool) -> io::Result<()> {
        self.write_header()?;
        let end = (self.history_len + BLOCK_SIZE).min(self.buf.len());
        let mut block = Vec::with_capacity(end - self.history_len + 64);
        let _ = write_block_opts(
            &self.buf,
            self.history_len,
            end,
            None,
            &self.params,
            last,
            true,
            StreamPolicy::Auto,
            &mut block,
            None,
        );
        self.inner
            .as_mut()
            .expect("writer present until finish")
            .write_all(&block)?;
        self.history_len = end;
        // Trim history beyond the window to bound memory.
        if self.history_len > WINDOW_KEEP {
            let drop = self.history_len - WINDOW_KEEP;
            self.buf.drain(..drop);
            self.history_len -= drop;
        }
        Ok(())
    }

    /// Flushes all pending data, writes the final block and checksum,
    /// and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates IO errors from the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.finish_mut()?;
        Ok(self.inner.take().expect("writer present until finish"))
    }

    fn finish_mut(&mut self) -> io::Result<()> {
        if self.finished {
            return Ok(());
        }
        // Emit remaining full blocks, then the (possibly empty) last one.
        while self.buf.len() - self.history_len > BLOCK_SIZE {
            self.emit_block(false)?;
        }
        self.emit_block(true)?;
        let digest = self.hasher.digest() as u32;
        self.inner
            .as_mut()
            .expect("writer present until finish")
            .write_all(&digest.to_le_bytes())?;
        self.finished = true;
        Ok(())
    }
}

impl<W: Write> Write for CompressWriter<W> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if self.finished {
            return Err(io::Error::other("stream already finished"));
        }
        self.hasher.update(data);
        self.buf.extend_from_slice(data);
        while self.buf.len() - self.history_len >= 2 * BLOCK_SIZE {
            self.emit_block(false)?;
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        // Block boundaries are compression-ratio relevant; flush only
        // forwards to the inner writer without forcing a short block.
        if let Some(w) = self.inner.as_mut() {
            w.flush()?;
        }
        Ok(())
    }
}

impl<W: Write> Drop for CompressWriter<W> {
    fn drop(&mut self) {
        if self.inner.is_some() && !self.finished {
            // Best effort; errors cannot surface from drop (C-DTOR-FAIL).
            let _ = self.finish_mut();
        }
    }
}

/// A `Read` adapter that decompresses a zstdx streaming frame.
pub struct DecompressReader<R: Read> {
    inner: R,
    /// Decoded history; bytes before `cursor` were already served.
    out: Vec<u8>,
    cursor: usize,
    hasher: Xxh64,
    header_read: bool,
    has_checksum: bool,
    v4: bool,
    saw_last: bool,
    done: bool,
}

impl<R: Read> DecompressReader<R> {
    /// Creates a streaming decompressor over `inner`.
    ///
    /// The `_level` parameter is accepted for symmetry with
    /// [`CompressWriter::new`] but unused: zstdx frames are
    /// self-describing.
    pub fn new(inner: R, _level: i32) -> Self {
        Self {
            inner,
            out: Vec::new(),
            cursor: 0,
            hasher: Xxh64::new(0),
            header_read: false,
            has_checksum: false,
            v4: false,
            saw_last: false,
            done: false,
        }
    }

    fn io_err(e: CodecError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }

    fn read_exact_vec(&mut self, n: usize) -> io::Result<Vec<u8>> {
        let mut buf = vec![0u8; n];
        self.inner.read_exact(&mut buf)?;
        Ok(buf)
    }

    fn read_u8(&mut self) -> io::Result<u8> {
        let mut b = [0u8; 1];
        self.inner.read_exact(&mut b)?;
        Ok(b[0])
    }

    fn read_varint(&mut self) -> io::Result<u64> {
        let mut v = 0u64;
        for i in 0..10 {
            let b = self.read_u8()?;
            if i == 9 && b > 0x01 {
                return Err(Self::io_err(CodecError::corrupt("varint overflows u64", i)));
            }
            v |= u64::from(b & 0x7f) << (7 * i);
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(Self::io_err(CodecError::corrupt("varint overlong", 10)))
    }

    fn read_header(&mut self) -> io::Result<()> {
        if self.header_read {
            return Ok(());
        }
        let magic = self.read_exact_vec(4)?;
        if magic != MAGIC {
            return Err(Self::io_err(CodecError::BadFrame("zstdx magic mismatch")));
        }
        let flags = self.read_u8()?;
        if flags & FLAG_STREAMING == 0 {
            return Err(Self::io_err(CodecError::BadFrame(
                "not a streaming frame (use Zstdx::decompress)",
            )));
        }
        if flags & 1 != 0 {
            return Err(Self::io_err(CodecError::BadFrame(
                "streaming frames do not support dictionaries",
            )));
        }
        self.has_checksum = flags & FLAG_CHECKSUM != 0;
        self.v4 = flags & FLAG_V4 != 0;
        self.header_read = true;
        Ok(())
    }

    /// Decodes the next block into `self.out`. Returns false at end of
    /// frame.
    // indexing_slicing: `before` is `out.len()` captured before this
    // block appended to it.
    #[allow(clippy::indexing_slicing)]
    fn decode_next_block(&mut self) -> io::Result<bool> {
        self.read_header()?;
        if self.saw_last {
            self.verify_checksum()?;
            return Ok(false);
        }
        let type_byte = self.read_u8()?;
        let block_type = type_byte & !BLOCK_LAST;
        self.saw_last = type_byte & BLOCK_LAST != 0;
        let decoded = self.read_varint()? as usize;
        let payload_len = self.read_varint()? as usize;
        if decoded > BLOCK_SIZE || (decoded == 0 && !self.saw_last) {
            return Err(Self::io_err(CodecError::corrupt("zstdx bad block size", 0)));
        }
        let payload = self.read_exact_vec(payload_len)?;
        let before = self.out.len();
        match block_type {
            BLOCK_RAW => {
                if payload.len() != decoded {
                    return Err(Self::io_err(CodecError::corrupt(
                        "raw block size mismatch",
                        0,
                    )));
                }
                self.out.extend_from_slice(&payload);
            }
            BLOCK_RLE => {
                let b = *payload
                    .first()
                    .ok_or_else(|| Self::io_err(CodecError::corrupt("empty rle block", 0)))?;
                self.out.resize(before + decoded, b);
            }
            BLOCK_COMPRESSED => {
                decode_block_payload::<true>(&payload, &mut self.out, decoded, self.v4)
                    .map_err(Self::io_err)?;
            }
            _ if decoded == 0 => {}
            _ => return Err(Self::io_err(CodecError::corrupt("zstdx bad block type", 0))),
        }
        self.hasher.update(&self.out[before..]);
        Ok(true)
    }

    fn verify_checksum(&mut self) -> io::Result<()> {
        if self.done {
            return Ok(());
        }
        self.done = true;
        if self.has_checksum {
            let trailer: [u8; 4] = self
                .read_exact_vec(4)?
                .try_into()
                .map_err(|_| Self::io_err(CodecError::Truncated("checksum trailer")))?;
            let want = u32::from_le_bytes(trailer);
            let got = self.hasher.digest() as u32;
            if want != got {
                return Err(Self::io_err(CodecError::ChecksumMismatch {
                    expected: want,
                    got,
                }));
            }
        }
        Ok(())
    }

    fn trim_history(&mut self) {
        if self.cursor > WINDOW_KEEP {
            let drop = self.cursor - WINDOW_KEEP;
            self.out.drain(..drop);
            self.cursor -= drop;
        }
    }
}

impl<R: Read> Read for DecompressReader<R> {
    // indexing_slicing: `n <= buf.len()` and
    // `cursor + n <= out.len()` by the `min` on the line above the copy.
    #[allow(clippy::indexing_slicing)]
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        while self.cursor == self.out.len() {
            if self.done || !self.decode_next_block()? {
                return Ok(0);
            }
        }
        let n = buf.len().min(self.out.len() - self.cursor);
        buf[..n].copy_from_slice(&self.out[self.cursor..self.cursor + n]);
        self.cursor += n;
        self.trim_history();
        Ok(n)
    }
}

/// Convenience: compresses a whole buffer into a streaming frame.
pub fn compress_stream(data: &[u8], level: i32) -> Vec<u8> {
    let mut w = CompressWriter::new(Vec::new(), level);
    w.write_all(data).expect("Vec sink never fails");
    w.finish().expect("Vec sink never fails")
}

/// Convenience: decompresses a whole streaming frame.
///
/// # Errors
///
/// Returns an IO error wrapping the [`CodecError`] for malformed frames.
pub fn decompress_stream(frame: &[u8]) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    DecompressReader::new(frame, 0).read_to_end(&mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Compressor;

    fn sample(n: usize) -> Vec<u8> {
        corpus_like(n)
    }

    fn corpus_like(n: usize) -> Vec<u8> {
        (0..n / 20 + 1)
            .flat_map(|i| format!("stream record {:06} | ", i % 5000).into_bytes())
            .take(n)
            .collect()
    }

    #[test]
    fn roundtrip_small() {
        let data = sample(1000);
        let frame = compress_stream(&data, 3);
        assert_eq!(decompress_stream(&frame).unwrap(), data);
        assert!(frame.len() < data.len());
    }

    #[test]
    fn roundtrip_empty() {
        let frame = compress_stream(b"", 1);
        assert_eq!(decompress_stream(&frame).unwrap(), b"");
    }

    #[test]
    fn roundtrip_multi_block() {
        // > 2 blocks so window history and block chaining both engage.
        let data = sample(5 * BLOCK_SIZE / 2);
        let frame = compress_stream(&data, 2);
        assert_eq!(decompress_stream(&frame).unwrap(), data);
        // Streaming ratio should be close to the batch ratio.
        let batch = crate::zstdx::Zstdx::new(2).compress(&data);
        assert!((frame.len() as f64) < batch.len() as f64 * 1.1);
    }

    #[test]
    fn tiny_writes_and_reads() {
        let data = sample(300_000);
        let mut w = CompressWriter::new(Vec::new(), 1);
        for chunk in data.chunks(7) {
            w.write_all(chunk).unwrap();
        }
        let frame = w.finish().unwrap();

        let mut r = DecompressReader::new(frame.as_slice(), 1);
        let mut out = Vec::new();
        let mut small = [0u8; 13];
        loop {
            let n = r.read(&mut small).unwrap();
            if n == 0 {
                break;
            }
            out.extend_from_slice(&small[..n]);
        }
        assert_eq!(out, data);
    }

    #[test]
    fn drop_flushes_best_effort() {
        let data = sample(10_000);
        let mut sink = Vec::new();
        {
            let mut w = CompressWriter::new(&mut sink, 1);
            w.write_all(&data).unwrap();
            // dropped without finish()
        }
        assert_eq!(decompress_stream(&sink).unwrap(), data);
    }

    #[test]
    fn corrupted_stream_errors() {
        let data = sample(200_000);
        let mut frame = compress_stream(&data, 1);
        let mid = frame.len() / 2;
        frame[mid] ^= 0x55;
        assert!(decompress_stream(&frame).is_err());
    }

    #[test]
    fn truncated_stream_errors() {
        let data = sample(50_000);
        let frame = compress_stream(&data, 1);
        for cut in [0, 3, 5, frame.len() / 2, frame.len() - 1] {
            assert!(decompress_stream(&frame[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn batch_decoder_reads_streaming_frames() {
        // The one-shot decoder understands streaming frames too.
        let data = sample(400_000);
        let frame = compress_stream(&data, 3);
        assert_eq!(
            crate::zstdx::Zstdx::new(3).decompress(&frame).unwrap(),
            data
        );
    }

    #[test]
    fn batch_reader_rejected_by_stream_reader() {
        let data = sample(1000);
        let frame = crate::zstdx::Zstdx::new(3).compress(&data);
        assert!(decompress_stream(&frame).is_err());
    }

    #[test]
    fn incompressible_stream_roundtrips() {
        let mut state = 11u64;
        let data: Vec<u8> = (0..300_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 24) as u8
            })
            .collect();
        let frame = compress_stream(&data, 1);
        assert_eq!(decompress_stream(&frame).unwrap(), data);
        assert!(frame.len() < data.len() + 1024);
    }
}
