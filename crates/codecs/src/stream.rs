//! Streaming compression — `std::io::Write`/`Read` adapters over the
//! zstdx frame format.
//!
//! Services like the paper's DW2 shuffle pipe data through compression
//! without ever holding a whole file in memory. [`CompressWriter`]
//! produces *streaming frames* (no up-front content size; the final
//! block carries a last-block marker) and [`DecompressReader`] consumes
//! them incrementally, retaining only a window of history. Both are thin
//! adapters: the header, block and trailer code is
//! [`Zstdx`]'s own, so a streaming frame is written and read by exactly
//! the code that writes and reads a sized one.
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
//! DecompressReader::new(frame.as_slice()).read_to_end(&mut out)?;
//! assert_eq!(out, b"streamed streamed streamed");
//! # Ok(())
//! # }
//! ```

use std::io::{self, Read, Write};

use crate::xxhash::Xxh64;
use crate::zstdx::{Frame, FrameSource, Zstdx, BLOCK_SIZE};
use crate::{CodecError, DecodeLimits};

/// History retained for back-references, in bytes. Must cover the
/// largest window any level uses (2^22).
const WINDOW_KEEP: usize = 1 << 22;

/// The reader's decode limits: a stream is as long as it is, and only
/// its window is held.
const UNLIMITED: DecodeLimits = DecodeLimits::with_max_output(usize::MAX);

/// A malformed frame surfaces from the adapters as
/// [`io::ErrorKind::InvalidData`] wrapping the [`CodecError`].
impl From<CodecError> for io::Error {
    fn from(e: CodecError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

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
    codec: Zstdx,
    /// Window tail followed by not-yet-compressed input.
    buf: Vec<u8>,
    /// Length of the already-compressed window prefix of `buf`.
    history_len: usize,
    /// Encoded bytes not yet written through: the header, until the
    /// first block goes out with it.
    pending: Vec<u8>,
    hasher: Xxh64,
    finished: bool,
}

impl<W: Write> CompressWriter<W> {
    /// Creates a streaming compressor at `level` writing into `inner`.
    pub fn new(inner: W, level: i32) -> Self {
        let codec = Zstdx::new(level);
        let mut pending = Vec::new();
        codec.write_header(&mut pending, None, None);
        Self {
            inner: Some(inner),
            codec,
            buf: Vec::with_capacity(2 * BLOCK_SIZE),
            history_len: 0,
            pending,
            hasher: Xxh64::new(0),
            finished: false,
        }
    }

    fn write_pending(&mut self) -> io::Result<()> {
        self.inner
            .as_mut()
            .expect("writer present until finish")
            .write_all(&self.pending)?;
        self.pending.clear();
        Ok(())
    }

    fn emit_block(&mut self, last: bool) -> io::Result<()> {
        let end = (self.history_len + BLOCK_SIZE).min(self.buf.len());
        let buf = self.buf.get(..end).unwrap_or_default();
        let out = &mut self.pending;
        self.codec
            .write_block(buf, self.history_len, None, last, out, None);
        self.write_pending()?;
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
        self.codec
            .write_trailer(&mut self.pending, || self.hasher.digest() as u32);
        self.write_pending()?;
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

/// A `Read` adapter that decompresses a zstdx frame written without a
/// dictionary — a streaming frame, or a sized one — with the frame
/// parser [`Zstdx`]'s decoders use. A malformed frame fails with
/// [`io::ErrorKind::InvalidData`] wrapping the [`CodecError`] they
/// return; a short one with [`io::ErrorKind::UnexpectedEof`].
pub struct DecompressReader<R: Read> {
    src: Source<R>,
    /// The frame being read, once its header is.
    frame: Option<Frame>,
    /// Decoded history; bytes before `cursor` were already served.
    out: Vec<u8>,
    cursor: usize,
    hasher: Xxh64,
    done: bool,
}

/// The reader's bytes: `inner`, with one payload buffered at a time
/// (at most [`BLOCK_SIZE`], checked before it is read).
struct Source<R> {
    inner: R,
    buf: Vec<u8>,
    pos: usize,
}

impl<R: Read> FrameSource for Source<R> {
    type Error = io::Error;

    fn read_slice(&mut self, n: usize) -> io::Result<&[u8]> {
        self.buf.resize(n, 0);
        self.inner.read_exact(&mut self.buf)?;
        self.pos += n;
        Ok(&self.buf)
    }

    fn position(&self) -> usize {
        self.pos
    }
}

impl<R: Read> DecompressReader<R> {
    /// Creates a decompressor over `inner`.
    pub fn new(inner: R) -> Self {
        Self {
            src: Source {
                inner,
                buf: Vec::new(),
                pos: 0,
            },
            frame: None,
            out: Vec::new(),
            cursor: 0,
            hasher: Xxh64::new(0),
            done: false,
        }
    }

    /// Decodes the next block into `self.out`. Returns false at end of
    /// frame.
    fn decode_next_block(&mut self) -> io::Result<bool> {
        let frame = match &mut self.frame {
            Some(frame) => frame,
            None => self
                .frame
                .insert(Frame::read(&mut self.src, None, UNLIMITED)?),
        };
        let before = self.out.len();
        if frame.read_block::<true, _>(&mut self.src, &mut self.out)? {
            self.hasher
                .update(self.out.get(before..).unwrap_or_default());
            return Ok(true);
        }
        self.done = true;
        frame.check_trailer(&mut self.src, || self.hasher.digest() as u32)?;
        Ok(false)
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
        // Keep the window of history, not everything served.
        if self.cursor > WINDOW_KEEP {
            let drop = self.cursor - WINDOW_KEEP;
            self.out.drain(..drop);
            self.cursor -= drop;
        }
        Ok(n)
    }
}

/// Convenience: compresses a whole buffer into a streaming frame.
pub fn compress_stream(data: &[u8], level: i32) -> Vec<u8> {
    let mut w = CompressWriter::new(Vec::new(), level);
    w.write_all(data).expect("Vec sink never fails");
    w.finish().expect("Vec sink never fails")
}

/// Convenience: decompresses a whole frame through [`DecompressReader`].
///
/// # Errors
///
/// As [`DecompressReader`]'s reads.
pub fn decompress_stream(frame: &[u8]) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    DecompressReader::new(frame).read_to_end(&mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Compressor;

    fn sample(n: usize) -> Vec<u8> {
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

        let mut r = DecompressReader::new(frame.as_slice());
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

    /// The reader parses frames with the slice decoder's code, so it
    /// reads sized frames too, and fails where the slice decoder does.
    #[test]
    fn sized_frames_read_like_the_slice_decoder() {
        let (data, z) = (sample(300_000), Zstdx::new(3));
        assert_eq!(decompress_stream(&z.compress(&data)).unwrap(), data);
        let dict = crate::dict::Dictionary::new(sample(4096), 7);
        let frame = z.compress_with_dict(&data, &dict);
        let err = decompress_stream(&frame).unwrap_err();
        assert_eq!(codec_kind(&err), z.decompress(&frame).unwrap_err().kind());
    }

    fn codec_kind(e: &io::Error) -> &'static str {
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
        let inner = e.get_ref().and_then(|i| i.downcast_ref::<CodecError>());
        inner.expect("a CodecError inside").kind()
    }

    /// A block header declaring a payload of 2^40 (or `u64::MAX`) bytes
    /// once made the reader allocate it before reading: an abort, or a
    /// capacity-overflow panic. The header check now rejects it first,
    /// with the slice decoder's error.
    #[test]
    fn huge_declared_payload_is_a_typed_error() {
        for len in [1u64 << 40, u64::MAX] {
            let mut frame = vec![0x5a, 0x53, 0x58, 0x44, 0x06, 0x80, 0x00];
            crate::varint::write_varint(&mut frame, len);
            let want = Zstdx::new(3).decompress(&frame).unwrap_err().kind();
            let read = DecompressReader::new(frame.as_slice()).read_to_end(&mut Vec::new());
            for err in [decompress_stream(&frame).unwrap_err(), read.unwrap_err()] {
                assert_eq!(codec_kind(&err), want, "len {len}");
            }
        }
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
