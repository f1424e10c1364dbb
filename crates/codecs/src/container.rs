//! The frame container the three codecs share: a magic, one flag byte,
//! the content size (varint), in zstdx the dictionary id, then the
//! codec's blocks and an optional 4-byte checksum trailer. zstdx's flag
//! byte follows its 4-byte magic; lz4x's and zlibx's is the second byte
//! of their 2-byte magic, whose identity bits the flags leave clear.
//! A flag bit the codec does not know, and bytes after the frame, are
//! [`CodecError::BadFrame`] (DESIGN.md §6, "One frame container").

use crate::varint::{write_varint, Cursor};
use crate::{Algorithm, CodecError, DecodeLimits, Result, MAX_CONTENT_SIZE};

/// One codec's header: the magic before the flag byte, the flag byte
/// with no option set, and the codec's option bits (0: no such option).
struct Spec {
    magic: &'static [u8],
    base: u8,
    checksum: u8,
    v4: u8,
    dict: u8,
    /// Read only: no writer emits streaming frames.
    streaming: u8,
}

const LZ4X: Spec = Spec {
    magic: b"X",
    base: 0x34,
    checksum: 0x80,
    v4: 0,
    dict: 0,
    streaming: 0,
};

const ZLIBX: Spec = Spec {
    base: 0x5a,
    v4: 0x01,
    ..LZ4X
};

const ZSTDX: Spec = Spec {
    magic: b"ZSXD",
    base: 0,
    checksum: 0x02,
    v4: 0x08,
    dict: 0x01,
    streaming: 0x04,
};

fn spec(algo: Algorithm) -> &'static Spec {
    match algo {
        Algorithm::Lz4x => &LZ4X,
        Algorithm::Zlibx => &ZLIBX,
        Algorithm::Zstdx => &ZSTDX,
    }
}

/// What a frame header declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// A content checksum (the low half of XXH64, seed 0) ends the frame.
    pub checksum: bool,
    /// Blocks may use the v4 multi-stream layout; a no-op on a frame
    /// that holds no v4 block.
    pub v4: bool,
    /// No content size: the last block is marked instead (zstdx frames
    /// of earlier writers).
    pub streaming: bool,
    /// Id of the dictionary the frame was written with (zstdx only).
    pub dict_id: Option<u32>,
    /// Declared content size; 0 for a streaming frame.
    pub content: usize,
}

impl Algorithm {
    /// Reads the header at the start of `frame` without decoding its
    /// blocks.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadFrame`] on a foreign magic, a flag bit the codec
    /// does not know or an implausible content size;
    /// [`CodecError::Truncated`] on a cut header.
    pub fn frame_header(&self, frame: &[u8]) -> Result<FrameHeader> {
        read_header(*self, &mut Cursor::new(frame), &DecodeLimits::default())
    }
}

/// Reads a frame header: the magic, the flag byte, whose unknown bits
/// fail before anything else is read, the content size and the
/// dictionary id.
pub(crate) fn read_header(
    algo: Algorithm,
    c: &mut Cursor,
    limits: &DecodeLimits,
) -> Result<FrameHeader> {
    let spec = spec(algo);
    if c.read_slice(spec.magic.len())? != spec.magic {
        return Err(CodecError::BadFrame("frame magic mismatch"));
    }
    let flags = c.read_u8()?;
    let known = spec.checksum | spec.v4 | spec.dict | spec.streaming;
    if flags & !known != spec.base {
        return Err(CodecError::BadFrame("unknown frame flag bits"));
    }
    // Implausible sizes fail first, then sizes over the caller's budget.
    let streaming = flags & spec.streaming != 0;
    let content = if streaming {
        0
    } else {
        c.read_varint()? as usize
    };
    if content > MAX_CONTENT_SIZE {
        return Err(CodecError::BadFrame("content size implausible"));
    }
    limits.check_output(content)?;
    let dict_id = (flags & spec.dict != 0).then(|| c.read_u32()).transpose()?;
    Ok(FrameHeader {
        checksum: flags & spec.checksum != 0,
        v4: flags & spec.v4 != 0,
        streaming,
        dict_id,
        content,
    })
}

impl FrameHeader {
    /// Ends a frame whose blocks `c` has read and whose decoded content
    /// is `content`: the checksum trailer, if declared, must match, and
    /// then the buffer must end.
    pub(crate) fn finish(&self, c: &mut Cursor, content: &[u8]) -> Result<()> {
        if self.checksum {
            let (expected, got) = (c.read_u32()?, crate::xxhash::content_checksum(content));
            if expected != got {
                return Err(CodecError::ChecksumMismatch { expected, got });
            }
        }
        if c.remaining() != 0 {
            return Err(CodecError::BadFrame("bytes after the frame"));
        }
        Ok(())
    }
}

/// Writes the frame of `src`: the header, the blocks `blocks` appends,
/// and the checksum trailer. `blocks` returns whether any block uses the
/// v4 layout; only then is the v4 bit set, so frames without v4 blocks
/// stay byte-identical to older writers' output.
pub(crate) fn write_frame(
    algo: Algorithm,
    src: &[u8],
    checksum: bool,
    dict_id: Option<u32>,
    blocks: impl FnOnce(&mut Vec<u8>) -> bool,
) -> Vec<u8> {
    let spec = spec(algo);
    let mut out = Vec::with_capacity(src.len() / 2 + 32);
    out.extend_from_slice(spec.magic);
    let dict = if dict_id.is_some() { spec.dict } else { 0 };
    out.push(spec.base | dict | if checksum { spec.checksum } else { 0 });
    write_varint(&mut out, src.len() as u64);
    if let Some(id) = dict_id {
        out.extend_from_slice(&id.to_le_bytes());
    }
    if blocks(&mut out) {
        if let Some(f) = out.get_mut(spec.magic.len()) {
            *f |= spec.v4;
        }
    }
    if checksum {
        out.extend_from_slice(&crate::xxhash::content_checksum(src).to_le_bytes());
    }
    out
}
