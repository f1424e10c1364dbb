//! zstdx streaming frames for tests. No writer emits them any more,
//! but frames written before still decode, so the tests model the
//! removed streaming writer here. Its frame for an input is byte for
//! byte the sized frame of the same input, with the header rewritten
//! (the streaming flag and the v4 bit set, the content size dropped)
//! and the last block marked; for empty input it wrote one empty raw
//! last block. `tests/frame_digests.rs`' `STREAM` rows, pinned from the
//! writer, hold this model to it.

use datacomp::codecs::varint::read_varint;
use datacomp::codecs::zstdx::Zstdx;
use datacomp::codecs::Compressor;

const FLAG_STREAMING: u8 = 4;
const FLAG_V4: u8 = 8;
const BLOCK_RAW: u8 = 0;
const BLOCK_LAST: u8 = 0x80;

/// The streaming frame the removed writer produced for `data` at
/// `level`: checksummed, under the `Auto` stream policy, which declared
/// v4 up front.
pub fn streaming_frame(data: &[u8], level: i32) -> Vec<u8> {
    let sized = Zstdx::new(level).compress(data);
    let (mut left, n) = read_varint(&sized[5..]).unwrap();
    let mut out = sized[..4].to_vec();
    out.push(sized[4] | FLAG_STREAMING | FLAG_V4);
    if left == 0 {
        out.extend_from_slice(&[BLOCK_RAW | BLOCK_LAST, 0, 0]);
    }
    let mut at = 5 + n;
    while left > 0 {
        let (decoded, a) = read_varint(&sized[at + 1..]).unwrap();
        let (payload, b) = read_varint(&sized[at + 1 + a..]).unwrap();
        left -= decoded;
        out.push(sized[at] | if left == 0 { BLOCK_LAST } else { 0 });
        let end = at + 1 + a + b + payload as usize;
        out.extend_from_slice(&sized[at + 1..end]);
        at = end;
    }
    out.extend_from_slice(&sized[at..]);
    out
}
