//! From-scratch LZ-family codecs reproducing the compression stack the
//! paper characterizes.
//!
//! Three codecs share the [`lzkit`] match-finding substrate and the
//! [`entropy`] coding substrate, and differ exactly where the paper says
//! the real ones differ (§II-B):
//!
//! | Codec | Entropy stage | Analogue | Trade-off position |
//! |-------|---------------|----------|--------------------|
//! | [`lz4x`] | none (byte-aligned tokens) | LZ4 | fastest decompression, lowest ratio |
//! | [`zlibx`] | canonical Huffman | Zlib/DEFLATE | middle |
//! | [`zstdx`] | Huffman literals + FSE sequences | Zstandard | best ratio, fast decompression |
//!
//! All three implement the object-safe [`Compressor`] trait, which is the
//! interface `compopt`'s CompEngine enumerates over. Dictionary
//! compression ([`dict`]) and per-stage timing ([`timing`]) support the
//! paper's caching study (Figures 10–11) and warehouse study (Figure 7).
//!
//! # Example
//!
//! ```
//! use codecs::{Algorithm, Compressor};
//!
//! let data = b"datacenter services compress data, datacenter services decompress data";
//! let zstd = Algorithm::Zstdx.compressor(3);
//! let compressed = zstd.compress(data);
//! assert!(compressed.len() < data.len());
//! assert_eq!(zstd.decompress(&compressed).unwrap(), data);
//! ```

#![warn(missing_docs)]

pub mod codes;
mod container;
pub mod dict;
pub mod lz4x;
pub mod metrics;
mod obs;
pub mod parallel;
pub mod timing;
pub mod varint;
pub mod xxhash;
pub mod zlibx;
pub mod zstdx;

pub use container::FrameHeader;
pub use dict::Dictionary;
pub use metrics::{measure, measure_blocks, CompressionMetrics};

/// Errors returned by decompression.
///
/// The taxonomy distinguishes *why* a frame was rejected so callers can
/// react differently: [`Truncated`](CodecError::Truncated) frames may be
/// retried after refetching, [`UnknownDictVersion`](CodecError::UnknownDictVersion)
/// frames after a dictionary lookup, while
/// [`Corrupt`](CodecError::Corrupt) and
/// [`ChecksumMismatch`](CodecError::ChecksumMismatch) frames are
/// permanently damaged and belong in quarantine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Frame magic or structural headers are malformed.
    BadFrame(&'static str),
    /// The input ended before the named field or payload was complete.
    Truncated(&'static str),
    /// The compressed payload is internally inconsistent.
    Corrupt {
        /// Decode stage that rejected the payload (e.g. `"zstdx block"`).
        stage: &'static str,
        /// Byte offset into the frame where the inconsistency surfaced.
        offset: usize,
    },
    /// A header-declared size exceeds the caller's [`DecodeLimits`].
    LimitExceeded {
        /// Bytes the frame asked the decoder to produce or allocate.
        requested: usize,
        /// The configured budget that was exceeded.
        limit: usize,
    },
    /// The decoded content hashed differently than the stored checksum.
    ChecksumMismatch {
        /// Checksum stored in the frame trailer.
        expected: u32,
        /// Checksum of the bytes actually decoded.
        got: u32,
    },
    /// The frame references a dictionary version that was not provided
    /// (or the wrong one was).
    UnknownDictVersion {
        /// Dictionary id the frame was written with.
        expected: u32,
        /// Dictionary id supplied by the caller, if any.
        got: Option<u32>,
    },
    /// An entropy table or stream failed to decode.
    Entropy(entropy::Error),
    /// LZ sequence application failed (bad offset / lengths).
    Sequence(lzkit::Error),
    /// A caller-supplied configuration value is unusable (e.g. a
    /// zero-thread parallel compress).
    InvalidConfig(&'static str),
}

impl CodecError {
    /// Shorthand for [`CodecError::Corrupt`].
    #[inline]
    pub(crate) fn corrupt(stage: &'static str, offset: usize) -> Self {
        CodecError::Corrupt { stage, offset }
    }

    /// Shifts a [`CodecError::Corrupt`] offset by `base` bytes, so an
    /// error produced against a nested payload cursor points at the
    /// right byte of the enclosing frame. Other variants pass through.
    #[inline]
    pub(crate) fn rebase(self, base: usize) -> Self {
        match self {
            CodecError::Corrupt { stage, offset } => CodecError::Corrupt {
                stage,
                offset: offset.saturating_add(base),
            },
            other => other,
        }
    }

    /// Stable lowercase kind name, used for telemetry labels and the
    /// fault-injection report table.
    pub fn kind(&self) -> &'static str {
        match self {
            CodecError::BadFrame(_) => "bad_frame",
            CodecError::Truncated(_) => "truncated",
            CodecError::Corrupt { .. } => "corrupt",
            CodecError::LimitExceeded { .. } => "limit_exceeded",
            CodecError::ChecksumMismatch { .. } => "checksum_mismatch",
            CodecError::UnknownDictVersion { .. } => "unknown_dict_version",
            CodecError::Entropy(_) => "entropy",
            CodecError::Sequence(_) => "sequence",
            CodecError::InvalidConfig(_) => "invalid_config",
        }
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadFrame(m) => write!(f, "bad frame: {m}"),
            CodecError::Truncated(m) => write!(f, "truncated input: {m}"),
            CodecError::Corrupt { stage, offset } => {
                write!(f, "corrupt payload: {stage} (offset {offset})")
            }
            CodecError::LimitExceeded { requested, limit } => {
                write!(f, "decode limit exceeded: {requested} > {limit} bytes")
            }
            CodecError::ChecksumMismatch { expected, got } => {
                write!(
                    f,
                    "checksum mismatch: stored {expected:#010x}, computed {got:#010x}"
                )
            }
            CodecError::UnknownDictVersion { expected, got } => {
                write!(
                    f,
                    "unknown dictionary version: frame wants id {expected}, got {got:?}"
                )
            }
            CodecError::Entropy(e) => write!(f, "entropy decode failed: {e}"),
            CodecError::Sequence(e) => write!(f, "sequence apply failed: {e}"),
            CodecError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Entropy(e) => Some(e),
            CodecError::Sequence(e) => Some(e),
            _ => None,
        }
    }
}

impl From<entropy::Error> for CodecError {
    fn from(e: entropy::Error) -> Self {
        CodecError::Entropy(e)
    }
}

impl From<lzkit::Error> for CodecError {
    fn from(e: lzkit::Error) -> Self {
        CodecError::Sequence(e)
    }
}

/// Result alias for codec operations.
pub type Result<T> = std::result::Result<T, CodecError>;

/// Upper bound accepted for declared content sizes (1 GiB). Guards
/// decoders against memory exhaustion on corrupt or hostile frames.
pub const MAX_CONTENT_SIZE: usize = 1 << 30;

/// Caller-supplied allocation budget for decompression.
///
/// Hostile frames can declare arbitrarily large content sizes in a
/// handful of header bytes; every decoder validates header-declared
/// sizes against these limits *before* allocating. The default budget
/// is [`MAX_CONTENT_SIZE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeLimits {
    /// Maximum decompressed output size accepted, in bytes.
    pub max_output: usize,
}

impl Default for DecodeLimits {
    fn default() -> Self {
        DecodeLimits {
            max_output: MAX_CONTENT_SIZE,
        }
    }
}

impl DecodeLimits {
    /// A budget of `max_output` decompressed bytes.
    pub const fn with_max_output(max_output: usize) -> Self {
        DecodeLimits { max_output }
    }

    /// Rejects a header-declared output size that exceeds the budget.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::LimitExceeded`] when `requested` is larger
    /// than `max_output`.
    #[inline]
    pub fn check_output(&self, requested: usize) -> Result<()> {
        if requested > self.max_output {
            return Err(CodecError::LimitExceeded {
                requested,
                limit: self.max_output,
            });
        }
        Ok(())
    }
}

/// Initial output-buffer capacity for a frame declaring `declared`
/// content bytes. Clamped to the caller's budget and to a plausibility
/// bound derived from the compressed size, so a 10-byte hostile frame
/// declaring 1 GiB cannot force a 1 GiB allocation up front — the
/// buffer grows only as real decoded data arrives.
#[inline]
pub(crate) fn initial_capacity(declared: usize, src_len: usize, limits: &DecodeLimits) -> usize {
    declared
        .min(limits.max_output)
        .min(src_len.saturating_mul(512).saturating_add(4096))
}

/// Appends `len` bytes copied from `offset` back in `out` — the LZ match
/// copy. Overlapping copies (offset < len) replicate the period, with a
/// doubling window so long runs stay O(log) calls.
///
/// # Panics
///
/// Panics in debug builds if `offset` is 0 or exceeds `out.len()`;
/// callers validate offsets first.
#[inline]
pub(crate) fn lz_copy_checked(out: &mut Vec<u8>, offset: usize, mut len: usize) {
    debug_assert!(offset >= 1 && offset <= out.len());
    let start = out.len() - offset;
    while len > 0 {
        let avail = out.len() - start;
        let chunk = len.min(avail);
        out.extend_from_within(start..start + chunk);
        len -= chunk;
    }
}

/// Fast LZ match copy: identical output to [`lz_copy_checked`], but for
/// non-overlapping-enough matches (`offset >= 8`) it copies in 8-byte
/// chunks inside a safe region reserved up front, checking bounds once
/// per match instead of once per byte. Close-range matches (`offset < 8`)
/// fall back to the checked doubling loop, which handles period
/// replication.
///
/// # Panics
///
/// Panics in debug builds if `offset` is 0 or exceeds `out.len()`;
/// callers validate offsets first (region setup time), exactly as for
/// [`lz_copy_checked`].
#[inline]
pub(crate) fn lz_copy(out: &mut Vec<u8>, offset: usize, len: usize) {
    debug_assert!(offset >= 1 && offset <= out.len());
    if offset < 8 {
        return lz_copy_checked(out, offset, len);
    }
    let old_len = out.len();
    // Safe region: the copy may overshoot by up to 7 bytes, so reserve
    // the full match plus one spare word before taking any pointers.
    out.reserve(len + 8);
    // SAFETY:
    // * `reserve` guarantees capacity >= old_len + len + 8, so every
    //   8-byte write below (last write starts at < old_len + len) stays
    //   inside the allocation.
    // * `offset >= 8` means src + 8 <= dst at every step: each chunk
    //   reads bytes that are initialized — either part of the original
    //   `old_len` bytes (offset was validated <= old_len) or written by
    //   an earlier chunk of this loop.
    // * `set_len(old_len + len)` only exposes bytes the loop wrote:
    //   writes cover [old_len, old_len + len) before it runs (the loop
    //   exits once dst >= end, and dst advances 8 per write from
    //   old_len).
    // * src and dst ranges within one `copy_nonoverlapping` call are
    //   disjoint (they are 8 bytes wide and 8 <= offset apart).
    unsafe {
        let base = out.as_mut_ptr();
        let mut src = base.add(old_len - offset);
        let mut dst = base.add(old_len);
        let end = base.add(old_len + len);
        while dst < end {
            std::ptr::copy_nonoverlapping(src, dst, 8);
            src = src.add(8);
            dst = dst.add(8);
        }
        out.set_len(old_len + len);
    }
}

/// Copies `len` bytes from `offset` back of `dst` into `out[dst..dst + len]`
/// — the backfill form of the LZ match copy, used by multi-substream
/// decoders that materialize literals for a whole block first and apply
/// the recorded matches afterwards. Overlapping copies (offset < len)
/// replicate the period with a doubling window. Unlike
/// [`lz_copy_checked`] this writes into an already-sized buffer and
/// never grows it.
///
/// # Panics
///
/// Panics in debug builds if `offset` is 0 or exceeds `dst`, or if
/// `dst + len` exceeds `out.len()`; callers validate both first.
#[inline]
pub(crate) fn lz_backfill_checked(out: &mut [u8], dst: usize, offset: usize, len: usize) {
    debug_assert!(offset >= 1 && offset <= dst);
    debug_assert!(dst + len <= out.len());
    let start = dst - offset;
    let mut copied = 0usize;
    while copied < len {
        // The source window always begins at `start`: every chunk size
        // is `offset + copied` (a multiple of the period while the
        // window is still growing), so `out[start + j]` is the right
        // byte for `out[dst + copied + j]` and the window of valid
        // source bytes doubles each pass for overlapping matches.
        let chunk = (len - copied).min(offset + copied);
        out.copy_within(start..start + chunk, dst + copied);
        copied += chunk;
    }
}

/// Fast sibling of [`lz_backfill_checked`]: identical bytes out, but
/// non-overlapping-enough matches (`offset >= 8`) copy in 8-byte chunks
/// with an exact sub-word tail. Unlike [`lz_copy`] there is no
/// overshoot: the destination buffer already holds later streams'
/// literals, which a wild 8-byte tail write would clobber.
///
/// # Panics
///
/// Panics in debug builds under the same conditions as
/// [`lz_backfill_checked`].
#[inline]
pub(crate) fn lz_backfill(out: &mut [u8], dst: usize, offset: usize, len: usize) {
    debug_assert!(offset >= 1 && offset <= dst);
    debug_assert!(dst + len <= out.len());
    if offset < 8 {
        return lz_backfill_checked(out, dst, offset, len);
    }
    // SAFETY:
    // * callers validated `dst + len <= out.len()` (debug-asserted), so
    //   every 8-byte write (the loop runs only while `remaining >= 8`)
    //   and the exact `remaining < 8` tail write stay inside the slice;
    // * `offset >= 8` keeps each 8-byte source window disjoint from its
    //   destination window, and earlier chunks initialize the bytes later
    //   chunks read (source trails destination by `offset`);
    // * the slice is fully initialized (`out` is `&mut [u8]`), so reads
    //   are always of initialized memory.
    unsafe {
        let base = out.as_mut_ptr();
        let mut src = base.add(dst - offset);
        let mut cur = base.add(dst);
        let mut remaining = len;
        while remaining >= 8 {
            std::ptr::copy_nonoverlapping(src, cur, 8);
            src = src.add(8);
            cur = cur.add(8);
            remaining -= 8;
        }
        if remaining > 0 {
            std::ptr::copy_nonoverlapping(src, cur, remaining);
        }
    }
}

/// How a codec's block writer lays out entropy-coded payloads: the
/// legacy single stream, or the v4 multi-stream layout (four
/// independent Huffman literal substreams) that parallelizes literal
/// decode.
///
/// `Auto` is the production default and the only layout decision: each
/// block is laid out from its own parse, so large literal-dominated
/// blocks get the multi-stream layout while small or match-dominated
/// blocks keep the single-stream layout bit-identical to older
/// encoders. `Single` forces the legacy layout everywhere (frames decode
/// on old readers); it is the reference the multi-stream frames are
/// compared against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StreamPolicy {
    /// Choose per block from its parse (production default).
    #[default]
    Auto,
    /// Always emit the legacy single-stream layout.
    Single,
}

/// A lossless block compressor.
///
/// Object-safe: `compopt` enumerates candidates as `Box<dyn Compressor>`.
/// Implementations must guarantee `decompress(compress(x)) == x` for all
/// inputs, and the dictionary variants likewise when given the same
/// dictionary on both sides.
pub trait Compressor: Send + Sync {
    /// Short stable name, e.g. `"zstdx"`.
    fn name(&self) -> &'static str;

    /// The compression level this instance is configured with.
    fn level(&self) -> i32;

    /// Compresses `src` into a fresh self-describing frame.
    fn compress(&self, src: &[u8]) -> Vec<u8>;

    /// Decompresses a frame produced by [`Self::compress`] under the
    /// default [`DecodeLimits`].
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on any malformed input; never panics.
    fn decompress(&self, src: &[u8]) -> Result<Vec<u8>> {
        self.decompress_limited(src, &DecodeLimits::default())
    }

    /// Decompresses a frame, refusing to produce (or pre-allocate) more
    /// than `limits.max_output` bytes.
    ///
    /// This is the decode contract the `faultline` harness enforces:
    /// for *any* byte string — corrupt, truncated, spliced, or hostile —
    /// this either returns the original content or a structured
    /// [`CodecError`]. It never panics and never allocates beyond the
    /// caller's budget.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on any malformed input, including
    /// [`CodecError::LimitExceeded`] when a header-declared size is
    /// over budget.
    fn decompress_limited(&self, src: &[u8], limits: &DecodeLimits) -> Result<Vec<u8>>;

    /// Compresses with a shared dictionary as LZ history.
    ///
    /// The default implementation ignores the dictionary (matching
    /// codecs without dictionary support); [`zstdx`] overrides it.
    fn compress_with_dict(&self, src: &[u8], _dict: &Dictionary) -> Vec<u8> {
        self.compress(src)
    }

    /// Decompresses a frame produced by [`Self::compress_with_dict`].
    ///
    /// # Errors
    ///
    /// Same as [`Self::decompress`], plus
    /// [`CodecError::UnknownDictVersion`] when the frame references a
    /// different dictionary.
    fn decompress_with_dict(&self, src: &[u8], dict: &Dictionary) -> Result<Vec<u8>> {
        self.decompress_with_dict_limited(src, dict, &DecodeLimits::default())
    }

    /// Dictionary variant of [`Self::decompress_limited`].
    ///
    /// # Errors
    ///
    /// Same as [`Self::decompress_with_dict`] plus
    /// [`CodecError::LimitExceeded`].
    fn decompress_with_dict_limited(
        &self,
        src: &[u8],
        _dict: &Dictionary,
        limits: &DecodeLimits,
    ) -> Result<Vec<u8>> {
        self.decompress_limited(src, limits)
    }

    /// Whether [`Self::compress_with_dict`] actually uses the dictionary.
    fn supports_dictionaries(&self) -> bool {
        false
    }
}

/// The compression algorithms available in the datacomp suite, mirroring
/// the three algorithms the paper measures fleet-wide (§III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Algorithm {
    /// LZ4-like: no entropy stage.
    Lz4x,
    /// Zlib-like: Huffman entropy stage.
    Zlibx,
    /// Zstd-like: Huffman literals + FSE sequences.
    Zstdx,
}

impl Algorithm {
    /// All algorithms, in fleet-usage order (paper §III-B: Zstd 3.9%,
    /// LZ4 0.4%, Zlib 0.3% of fleet cycles).
    pub const ALL: [Algorithm; 3] = [Algorithm::Zstdx, Algorithm::Lz4x, Algorithm::Zlibx];

    /// Stable lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Lz4x => "lz4x",
            Algorithm::Zlibx => "zlibx",
            Algorithm::Zstdx => "zstdx",
        }
    }

    /// Supported level range (inclusive), mirroring the real codecs'
    /// ranges as described in the paper's introduction: "Zstd provides
    /// compression levels from -5 to 22, while Zlib offers ten
    /// compression levels from 0 to 9".
    pub fn levels(&self) -> std::ops::RangeInclusive<i32> {
        match self {
            Algorithm::Lz4x => 1..=12,
            Algorithm::Zlibx => 0..=9,
            Algorithm::Zstdx => -5..=19,
        }
    }

    /// Instantiates a compressor at `level` (clamped to the range).
    pub fn compressor(&self, level: i32) -> Box<dyn Compressor> {
        let level = level.clamp(*self.levels().start(), *self.levels().end());
        match self {
            Algorithm::Lz4x => Box::new(lz4x::Lz4x::new(level)),
            Algorithm::Zlibx => Box::new(zlibx::Zlibx::new(level)),
            Algorithm::Zstdx => Box::new(zstdx::Zstdx::new(level)),
        }
    }

    /// Instantiates a compressor at `level` with content checksums
    /// enabled, so decoders detect payload corruption that preserves
    /// valid framing. Zstdx frames carry a checksum by default; lz4x and
    /// zlibx opt in here via their frame's checksum bit.
    pub fn compressor_checked(&self, level: i32) -> Box<dyn Compressor> {
        let level = level.clamp(*self.levels().start(), *self.levels().end());
        match self {
            Algorithm::Lz4x => Box::new(lz4x::Lz4x::new(level).with_checksum(true)),
            Algorithm::Zlibx => Box::new(zlibx::Zlibx::new(level).with_checksum(true)),
            Algorithm::Zstdx => Box::new(zstdx::Zstdx::new(level)),
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Algorithm {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "lz4x" | "lz4" => Ok(Algorithm::Lz4x),
            "zlibx" | "zlib" => Ok(Algorithm::Zlibx),
            "zstdx" | "zstd" => Ok(Algorithm::Zstdx),
            other => Err(format!("unknown algorithm: {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lz_backfill_engines_agree_on_all_overlap_phases() {
        // Every (offset, len) shape around the 8-byte fast-path pivot,
        // including offset < len overlaps whose doubling window must
        // replicate the period exactly.
        for offset in 1..=20usize {
            for len in 1..=40usize {
                let dst = offset + 3;
                let total = dst + len;
                let mut base = vec![0u8; total];
                for (i, b) in base.iter_mut().enumerate().take(dst) {
                    *b = (i * 7 + 13) as u8;
                }
                let mut expect = base.clone();
                for i in 0..len {
                    expect[dst + i] = expect[dst + i - offset];
                }
                let mut checked = base.clone();
                lz_backfill_checked(&mut checked, dst, offset, len);
                assert_eq!(checked, expect, "checked offset {offset} len {len}");
                let mut fast = base.clone();
                lz_backfill(&mut fast, dst, offset, len);
                assert_eq!(fast, expect, "fast offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn algorithm_parsing() {
        assert_eq!("zstd".parse::<Algorithm>().unwrap(), Algorithm::Zstdx);
        assert_eq!("lz4x".parse::<Algorithm>().unwrap(), Algorithm::Lz4x);
        assert!("gzip".parse::<Algorithm>().is_err());
    }

    #[test]
    fn level_ranges_match_paper() {
        assert_eq!(Algorithm::Zlibx.levels(), 0..=9);
        assert!(Algorithm::Zstdx.levels().contains(&-5));
        assert!(Algorithm::Zstdx.levels().contains(&19));
    }

    #[test]
    fn compressor_clamps_levels() {
        let c = Algorithm::Zlibx.compressor(100);
        assert_eq!(c.level(), 9);
        let c = Algorithm::Zstdx.compressor(-100);
        assert_eq!(c.level(), -5);
    }

    #[test]
    fn trait_is_object_safe() {
        let boxed: Vec<Box<dyn Compressor>> =
            Algorithm::ALL.iter().map(|a| a.compressor(1)).collect();
        for c in &boxed {
            let data = b"object safety check data data data";
            assert_eq!(c.decompress(&c.compress(data)).unwrap(), data);
        }
    }
}
