//! `zlibx` — a Zlib/DEFLATE-like codec: LZ77 plus a canonical **Huffman**
//! entropy stage.
//!
//! Structure follows DEFLATE: a merged literal/length alphabet (256
//! literals + end-of-block + match-length codes) under one Huffman
//! table, offsets under a second, length/offset remainders as raw extra
//! bits, a 32 KiB window, and per-64 KiB-block adaptive tables. Level 0
//! stores blocks uncompressed, levels 1–9 deepen the match search —
//! "Zlib offers ten compression levels from 0 to 9" (paper, §I).

use std::time::Instant;

use entropy::bitio::{BitReader, BitReaderFast, BitSrc, BitWriter};
use entropy::huffman::HuffmanTable;
use lzkit::{MatchParams, Strategy};

use crate::codes::{
    ml_code, ml_extra, of_code, of_extra, read_nibble_lengths, write_nibble_lengths,
};
use crate::container;
use crate::varint::{write_varint, Cursor};
use crate::{Algorithm, Compressor, DecodeLimits, Result, StreamPolicy};

/// DEFLATE-style window: 32 KiB.
const WINDOW_LOG: u32 = 15;
/// Format minimum match length (as in DEFLATE).
const MIN_MATCH: u32 = 3;
/// Block granularity.
const BLOCK_SIZE: usize = 64 * 1024;
/// End-of-block symbol in the merged literal/length alphabet.
const EOB: u16 = 256;
/// Match-length codes start here in the merged alphabet.
const ML_SYM_BASE: u16 = 257;
/// Merged alphabet size: 256 literals + EOB + 53 length codes.
const LITLEN_ALPHABET: usize = 310;
/// Offset-code alphabet (window 2^15 -> codes 0..=15).
const DIST_ALPHABET: usize = 16;
/// Code-length cap for type-2 (four-substream) block tables; see
/// `encode_block4`. Legacy type-1 blocks keep the DEFLATE-style 15.
const MULTI_STREAM_MAX_BITS: u32 = 11;

/// The Zlib-like compressor. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Zlibx {
    level: i32,
    params: Option<MatchParams>,
    checksum: bool,
    streams: StreamPolicy,
}

impl Zlibx {
    /// Creates a compressor at `level` (clamped to 0..=9; 0 = stored).
    pub fn new(level: i32) -> Self {
        let level = level.clamp(0, 9);
        Self {
            level,
            params: level_params(level),
            checksum: false,
            streams: StreamPolicy::default(),
        }
    }

    /// Builder-style checksum toggle (`false` by default, matching
    /// zlib's raw-deflate mode). Checksummed frames set the header's
    /// checksum bit and end in an XXH64 content checksum; frames written
    /// either way decode everywhere.
    pub fn with_checksum(mut self, checksum: bool) -> Self {
        self.checksum = checksum;
        self
    }

    /// Builder-style multi-stream entropy policy
    /// ([`StreamPolicy::Auto`] by default, which writes four-substream
    /// blocks for large, literal-dominated spans). `Single` pins the
    /// legacy one-stream blocks (frames stay byte-identical to pre-v4
    /// encoders).
    pub fn with_stream_policy(mut self, streams: StreamPolicy) -> Self {
        self.streams = streams;
        self
    }

    /// The match-finding parameters (None at level 0).
    pub fn params(&self) -> Option<&MatchParams> {
        self.params.as_ref()
    }

    /// Reference decode path: byte-at-a-time bit reads and match copies.
    /// Semantically identical to [`Compressor::decompress_limited`] —
    /// the differential suite pins the two engines against each other.
    ///
    /// # Errors
    ///
    /// Same as [`Compressor::decompress_limited`].
    pub fn decompress_reference(&self, src: &[u8], limits: &DecodeLimits) -> Result<Vec<u8>> {
        self.decompress_inner::<false>(src, limits)
    }

    /// Shared decode engine; `FAST` selects the word-refilling bit reader
    /// and the wild-copy match loop.
    #[deny(clippy::indexing_slicing)]
    fn decompress_inner<const FAST: bool>(
        &self,
        src: &[u8],
        limits: &DecodeLimits,
    ) -> Result<Vec<u8>> {
        let begin = Instant::now();
        let mut c = Cursor::new(src);
        let header = container::read_header(Algorithm::Zlibx, &mut c, limits)?;
        let content = header.content;
        let mut out = Vec::with_capacity(crate::initial_capacity(content, src.len(), limits));
        while out.len() < content {
            let decoded_len = c.read_varint()? as usize;
            if decoded_len == 0 || out.len() + decoded_len > content {
                return Err(c.corrupt("zlibx bad block length"));
            }
            let decode = match c.read_u8()? {
                0 => {
                    out.extend_from_slice(c.read_slice(decoded_len)?);
                    continue;
                }
                1 => decode_block::<FAST>,
                2 if header.v4 => decode_block4::<FAST>,
                _ => return Err(c.corrupt("zlibx bad block type")),
            };
            let body_len = c.read_varint()? as usize;
            let body_at = c.position();
            let mut bc = Cursor::new(c.read_slice(body_len)?);
            decode(&mut bc, &mut out, decoded_len).map_err(|e| e.rebase(body_at))?;
        }
        header.finish(&mut c, &out)?;
        crate::obs::record_decompress(Algorithm::Zlibx, self.level, out.len(), begin);
        Ok(out)
    }
}

fn level_params(level: i32) -> Option<MatchParams> {
    let (strategy, attempts, target) = match level {
        0 => return None,
        1 => (Strategy::Fast, 1, 8),
        2 => (Strategy::Greedy, 4, 16),
        3 => (Strategy::Greedy, 8, 24),
        4 => (Strategy::Lazy, 8, 32),
        5 => (Strategy::Lazy, 12, 48),
        6 => (Strategy::Lazy, 16, 64),
        7 => (Strategy::Lazy, 24, 96),
        8 => (Strategy::Lazy, 32, 128),
        _ => (Strategy::Optimal, 32, 258),
    };
    Some(MatchParams {
        window_log: WINDOW_LOG,
        hash_log: 16,
        chain_log: 15,
        search_attempts: attempts,
        min_match: MIN_MATCH,
        target_length: target,
        rep_preference: true,
        priced_parse: false,
        strategy,
    })
}

/// Runs the match finder over one block span, recording the
/// `zlibx.match_find` stage. The parse is shared by both block layouts
/// so the stream-policy decision can inspect it without parsing twice.
// indexing_slicing: encode side — callers pass `end <= buf.len()`
// (`end = (start + BLOCK).min(data.len())` in `compress`).
#[allow(clippy::indexing_slicing)]
fn parse_block(buf: &[u8], start: usize, end: usize, params: &MatchParams) -> lzkit::ParsedBlock {
    static MATCH_FIND: telemetry::Stage = telemetry::Stage::new("zlibx.match_find");
    let mf_start = Instant::now();
    let block = lzkit::parse(&buf[..end], start, params);
    MATCH_FIND.record(mf_start, mf_start.elapsed());
    block
}

static ENTROPY: telemetry::Stage = telemetry::Stage::new("zlibx.entropy");

/// A block's two Huffman tables, as its table header describes them.
/// Both block layouts share this header and the match coding below.
struct Tables {
    /// The merged literal/EOB/match-length table.
    lit: HuffmanTable,
    /// How offset codes are coded (the header's distance mode).
    dists: Dists,
}

/// The header's distance mode: 0 when the block has no matches, 1 when
/// an offset-code table follows, 2 when every match shares one code.
enum Dists {
    None,
    Table(HuffmanTable),
    Fixed(u8),
}

/// Builds `block`'s tables and writes its table header to `out`: the
/// literal/length code lengths, then the distance mode and its table or
/// code. `eobs` is the layout's end-of-block count (one per substream)
/// and `max_bits` its code-length cap. Returns None when Huffman coding
/// is impossible.
// indexing_slicing: encode side. Histogram indices are alphabet codes
// (`ml_code`/`of_code` outputs) within the freshly sized freq vecs;
// `sequences[0]` exists when exactly one offset code is present.
#[allow(clippy::indexing_slicing)]
fn write_tables(
    out: &mut Vec<u8>,
    block: &lzkit::ParsedBlock,
    eobs: u32,
    max_bits: u32,
) -> Option<Tables> {
    let mut lit_freq = vec![0u32; LITLEN_ALPHABET];
    let mut dist_freq = vec![0u32; DIST_ALPHABET];
    for &b in &block.literals {
        lit_freq[b as usize] += 1;
    }
    lit_freq[EOB as usize] += eobs;
    for seq in &block.sequences {
        lit_freq[(ML_SYM_BASE + ml_code(seq.match_len - MIN_MATCH) as u16) as usize] += 1;
        dist_freq[of_code(seq.offset) as usize] += 1;
    }

    let lit = HuffmanTable::build(&lit_freq, max_bits)?;
    write_nibble_lengths(out, lit.lengths());
    let dists = match dist_freq.iter().filter(|&&c| c > 0).count() {
        0 => {
            out.push(0);
            Dists::None
        }
        1 => {
            let code = of_code(block.sequences[0].offset);
            out.extend_from_slice(&[2, code]);
            Dists::Fixed(code)
        }
        _ => {
            let t = HuffmanTable::build(&dist_freq, max_bits).expect(">=2 symbols present");
            out.push(1);
            write_nibble_lengths(out, t.lengths());
            Dists::Table(t)
        }
    };
    Some(Tables { lit, dists })
}

/// Reads the table header [`write_tables`] writes.
#[deny(clippy::indexing_slicing)]
fn read_tables(c: &mut Cursor<'_>) -> Result<Tables> {
    let lit = HuffmanTable::from_lengths(&read_nibble_lengths(c, LITLEN_ALPHABET)?)?;
    let dists = match c.read_u8()? {
        0 => Dists::None,
        1 => {
            let lens = read_nibble_lengths(c, DIST_ALPHABET)?;
            Dists::Table(HuffmanTable::from_lengths(&lens)?)
        }
        2 => Dists::Fixed(c.read_u8()?),
        _ => return Err(c.corrupt("zlibx bad dist mode")),
    };
    Ok(Tables { lit, dists })
}

/// Writes one match: its length symbol and extra bits, then its offset
/// code (unless the block has one fixed code) and extra bits.
fn write_match(w: &mut BitWriter, t: &Tables, seq: &lzkit::Sequence) {
    let mlv = seq.match_len - MIN_MATCH;
    let mlc = ml_code(mlv);
    t.lit.write_symbol(w, ML_SYM_BASE + mlc as u16);
    let (base, bits) = ml_extra(mlc);
    w.write_bits((mlv - base) as u64, bits);
    let ofc = of_code(seq.offset);
    if let Dists::Table(d) = &t.dists {
        d.write_symbol(w, ofc as u16);
    }
    let (base, bits) = of_extra(ofc);
    w.write_bits((seq.offset - base) as u64, bits);
}

/// Reads the rest of the match whose length symbol `sym` was just read
/// and returns its `(offset, len)`, with the length and offset codes
/// range-checked. The caller checks the offset and length against its
/// output position.
#[deny(clippy::indexing_slicing)]
#[inline(always)]
fn read_match<R: BitSrc>(
    c: &Cursor<'_>,
    r: &mut R,
    t: &Tables,
    sym: u16,
) -> Result<(usize, usize)> {
    let mlc = (sym - ML_SYM_BASE) as u8;
    if mlc > crate::codes::MAX_ML_CODE {
        return Err(c.corrupt("zlibx bad length symbol"));
    }
    let (base, bits) = ml_extra(mlc);
    let mlv = base + r.read_bits(bits)? as u32;
    let ofc = match &t.dists {
        Dists::Table(d) => d.read_symbol(r)? as u8,
        Dists::Fixed(f) => *f,
        Dists::None => return Err(c.corrupt("zlibx match without dists")),
    };
    if ofc as usize >= DIST_ALPHABET {
        return Err(c.corrupt("zlibx bad offset code"));
    }
    let (base, bits) = of_extra(ofc);
    let offset = (base + r.read_bits(bits)? as u32) as usize;
    Ok((offset, (mlv + MIN_MATCH) as usize))
}

/// Encodes one type-1 block from its parse. Returns None when Huffman
/// coding is impossible or unprofitable, in which case the caller
/// stores the block raw.
// indexing_slicing: encode side. `lit_pos` advances by the literal
// lengths the parser drew from `literals`.
#[allow(clippy::indexing_slicing)]
fn encode_block(data: &[u8], block: &lzkit::ParsedBlock) -> Option<Vec<u8>> {
    let ent_start = Instant::now();
    let mut out = Vec::with_capacity(data.len() / 2 + 256);
    let t = write_tables(&mut out, block, 1, 15)?;

    let mut w = BitWriter::with_capacity(data.len() / 2);
    let mut lit_pos = 0usize;
    for seq in &block.sequences {
        for &b in &block.literals[lit_pos..lit_pos + seq.literal_len as usize] {
            t.lit.write_symbol(&mut w, b as u16);
        }
        lit_pos += seq.literal_len as usize;
        write_match(&mut w, &t, seq);
    }
    for &b in &block.literals[lit_pos..] {
        t.lit.write_symbol(&mut w, b as u16);
    }
    t.lit.write_symbol(&mut w, EOB);

    let (bits, nbits) = w.finish();
    write_varint(&mut out, nbits as u64);
    out.extend_from_slice(&bits);
    ENTROPY.record(ent_start, ent_start.elapsed());
    (out.len() < data.len()).then_some(out)
}

/// Minimum block size at which [`StreamPolicy::Auto`] emits type-2
/// (four-substream) blocks; smaller blocks don't amortize the extra
/// EOBs, size words, and per-stream bit padding.
const AUTO_SPLIT: usize = 16 * 1024;

/// Minimum literal share of the decoded block (in percent) at which
/// [`StreamPolicy::Auto`] emits type-2 blocks. The four-stream layout
/// parallelizes *literal* Huffman decode; its deferred-match second
/// phase makes match-dominated blocks strictly slower. Measured on the
/// mixed guard corpus (best-of-5, 256 KiB per class, 64 KiB blocks):
/// literal-heavy Binary decodes +43% split four ways while every
/// match-dominated class (literal share <= 15%) loses 10-33%, so Auto
/// splits only blocks the parse shows are literal-dominated. The
/// measured corpus is sharply bimodal (<= 0.15 vs >= 0.98 literal
/// share); 50% sits in the gap with margin on both sides.
const AUTO_LIT_PERCENT: usize = 50;

/// Whether [`StreamPolicy::Auto`] picks the type-2 layout for a block
/// span of `len` bytes whose parse produced `block`.
fn auto_quad(block: &lzkit::ParsedBlock, len: usize) -> bool {
    len >= AUTO_SPLIT && block.literals.len() * 100 >= len * AUTO_LIT_PERCENT
}

/// Encodes one type-2 block: the [`write_tables`] header followed by
/// four independently decodable substreams, each covering a
/// contiguous span of the output and terminated by its own EOB. Cuts
/// land on event boundaries (a literal or a whole match) at roughly
/// quarter-output marks, so a long match can leave a middle substream
/// empty. Returns None when Huffman coding is impossible or
/// unprofitable.
// indexing_slicing: encode side — same invariants as `encode_block`,
// plus `streams`/`stream_lens` hold exactly 4 entries by construction.
#[allow(clippy::indexing_slicing)]
fn encode_block4(data: &[u8], block: &lzkit::ParsedBlock) -> Option<Vec<u8>> {
    let decoded_len = data.len();
    let ent_start = Instant::now();
    let mut out = Vec::with_capacity(data.len() / 2 + 256);
    // Type-2 blocks cap codes at 11 bits: the flat decode table shrinks
    // from 2^15 entries (128 KiB, L2-resident) to 2^11 (8 KiB, L1), which
    // buys far more decode throughput than the slightly longer codes
    // cost in ratio — and it is what lets the four interleaved cursors
    // actually overlap their lookups instead of queueing on L2.
    let t = write_tables(&mut out, block, 4, MULTI_STREAM_MAX_BITS)?;

    // Symbol streams: walk events in order, cutting to the next
    // substream once the produced-output counter passes each quarter
    // mark. A cut writes the current stream's EOB and starts a fresh
    // bit writer.
    let mut streams: Vec<(usize, Vec<u8>, usize)> = Vec::with_capacity(4);
    let mut w = BitWriter::with_capacity(data.len() / 8);
    let mut produced = 0usize;
    let mut stream_start = 0usize;
    let maybe_cut = |w: &mut BitWriter,
                     streams: &mut Vec<(usize, Vec<u8>, usize)>,
                     stream_start: &mut usize,
                     produced: usize| {
        while streams.len() < 3 && produced >= (streams.len() + 1) * decoded_len / 4 {
            t.lit.write_symbol(w, EOB);
            let (bits, nbits) = std::mem::replace(w, BitWriter::with_capacity(64)).finish();
            streams.push((produced - *stream_start, bits, nbits));
            *stream_start = produced;
        }
    };

    let mut lit_pos = 0usize;
    for seq in &block.sequences {
        for &b in &block.literals[lit_pos..lit_pos + seq.literal_len as usize] {
            t.lit.write_symbol(&mut w, b as u16);
            produced += 1;
            maybe_cut(&mut w, &mut streams, &mut stream_start, produced);
        }
        lit_pos += seq.literal_len as usize;
        write_match(&mut w, &t, seq);
        produced += seq.match_len as usize;
        maybe_cut(&mut w, &mut streams, &mut stream_start, produced);
    }
    for &b in &block.literals[lit_pos..] {
        t.lit.write_symbol(&mut w, b as u16);
        produced += 1;
        maybe_cut(&mut w, &mut streams, &mut stream_start, produced);
    }
    debug_assert_eq!(produced, decoded_len);
    t.lit.write_symbol(&mut w, EOB);
    let (bits, nbits) = w.finish();
    streams.push((produced - stream_start, bits, nbits));
    debug_assert_eq!(streams.len(), 4);

    for (out_len, _, nbits) in &streams {
        write_varint(&mut out, *out_len as u64);
        write_varint(&mut out, *nbits as u64);
    }
    for (_, bits, _) in &streams {
        out.extend_from_slice(bits);
    }
    ENTROPY.record(ent_start, ent_start.elapsed());
    (out.len() < data.len()).then_some(out)
}

#[deny(clippy::indexing_slicing)]
fn decode_block<const FAST: bool>(
    c: &mut Cursor<'_>,
    out: &mut Vec<u8>,
    decoded_len: usize,
) -> Result<()> {
    let t = read_tables(c)?;
    let nbits = c.read_varint()? as usize;
    let payload = c.read_slice(nbits.div_ceil(8))?;
    if FAST {
        let mut r = BitReaderFast::new(payload, nbits);
        decode_symbols::<_, FAST>(c, &mut r, &t, out, decoded_len)
    } else {
        let mut r = BitReader::new(payload, nbits);
        decode_symbols::<_, FAST>(c, &mut r, &t, out, decoded_len)
    }
}

#[deny(clippy::indexing_slicing)]
fn decode_block4<const FAST: bool>(
    c: &mut Cursor<'_>,
    out: &mut Vec<u8>,
    decoded_len: usize,
) -> Result<()> {
    let t = read_tables(c)?;
    let mut out_lens = [0usize; 4];
    let mut nbits = [0usize; 4];
    for (ol, nb) in out_lens.iter_mut().zip(nbits.iter_mut()) {
        *ol = c.read_varint()? as usize;
        *nb = c.read_varint()? as usize;
    }
    if out_lens
        .iter()
        .try_fold(0usize, |a, &l| a.checked_add(l))
        .is_none_or(|total| total != decoded_len)
    {
        return Err(c.corrupt("zlibx substream lengths do not sum to block"));
    }
    let [n0, n1, n2, n3] = nbits;
    let payloads = [
        c.read_slice(n0.div_ceil(8))?,
        c.read_slice(n1.div_ceil(8))?,
        c.read_slice(n2.div_ceil(8))?,
        c.read_slice(n3.div_ceil(8))?,
    ];
    if FAST {
        let mut rs = entropy::bitio::quad_readers_fast(payloads, nbits);
        decode_symbols4::<_, FAST>(c, &mut rs, &t, out, out_lens)
    } else {
        let mut rs = entropy::bitio::quad_readers(payloads, nbits);
        decode_symbols4::<_, FAST>(c, &mut rs, &t, out, out_lens)
    }
}

/// Per-substream decode state for [`decode_symbols4`]: a write cursor
/// over the substream's span of `out`, plus the matches found there,
/// deferred until every substream's literals are in place.
struct SubStream {
    pos: usize,
    end: usize,
    done: bool,
    matches: Vec<(usize, usize, usize)>,
}

/// Four-cursor symbol loop of [`decode_block4`]. Phase 1 drains the
/// substreams round-robin — one symbol each per rotation, which is what
/// lets four Huffman code reads be in flight at once — writing literals
/// straight into the zero-extended output and *recording* matches,
/// since a match may reference a span of a neighbor substream that has
/// not been decoded yet. Phase 2 executes the matches in ascending
/// destination order, by which point every source byte is populated
/// (literals from phase 1, earlier-destination matches from this
/// phase).
#[deny(clippy::indexing_slicing)]
fn decode_symbols4<R: BitSrc, const FAST: bool>(
    c: &Cursor<'_>,
    rs: &mut [R; 4],
    t: &Tables,
    out: &mut Vec<u8>,
    out_lens: [usize; 4],
) -> Result<()> {
    let block_start = out.len();
    let decoded_len: usize = out_lens.iter().sum();
    out.resize(block_start + decoded_len, 0);

    let mut subs: [SubStream; 4] = {
        let mut pos = block_start;
        out_lens.map(|l| {
            let s = SubStream {
                pos,
                end: pos + l,
                done: false,
                matches: Vec::new(),
            };
            pos += l;
            s
        })
    };

    // Phase 1: round-robin, one symbol per live substream per rotation —
    // four Huffman window lookups in flight per rotation, which is what
    // hides the decode table's load latency (sequential per-substream
    // drains measure ~6% slower on the mixed corpus).
    let mut live = 4usize;
    while live > 0 {
        for (r, s) in rs.iter_mut().zip(subs.iter_mut()) {
            if s.done {
                continue;
            }
            let sym = t.lit.read_symbol(r)?;
            if sym < 256 {
                if s.pos >= s.end {
                    return Err(c.corrupt("zlibx literal overruns block"));
                }
                if FAST {
                    // SAFETY: `s.pos < s.end`, and every substream's `end`
                    // is within `out` by the resize above.
                    unsafe {
                        *out.get_unchecked_mut(s.pos) = sym as u8;
                    }
                } else {
                    *out.get_mut(s.pos)
                        .ok_or(c.corrupt("zlibx literal overruns block"))? = sym as u8;
                }
                s.pos += 1;
            } else if sym == EOB {
                if s.pos != s.end {
                    return Err(c.corrupt("zlibx substream ends early"));
                }
                s.done = true;
                live -= 1;
            } else {
                let (offset, ml) = read_match(c, r, t, sym)?;
                if offset == 0 || offset > s.pos {
                    return Err(c.corrupt("zlibx offset out of range"));
                }
                if s.pos + ml > s.end {
                    return Err(c.corrupt("zlibx match overruns block"));
                }
                s.matches.push((s.pos, offset, ml));
                s.pos += ml;
            }
        }
    }

    // Phase 2: substreams cover ascending spans and matches within one
    // are recorded in cursor order, so this walk is globally ascending
    // by destination. Sources were validated in phase 1 (`offset <=
    // pos`, destination within the substream's span), so the copy
    // region is safe before it runs.
    for s in &subs {
        for &(dst, offset, len) in &s.matches {
            if FAST {
                crate::lz_backfill(out.as_mut_slice(), dst, offset, len);
            } else {
                crate::lz_backfill_checked(out.as_mut_slice(), dst, offset, len);
            }
        }
    }
    Ok(())
}

/// Symbol loop of [`decode_block`], generic over the bit-source engine.
/// Error offsets anchor at the block cursor's position (the byte after
/// the entropy payload), identically for both engines.
#[deny(clippy::indexing_slicing)]
fn decode_symbols<R: BitSrc, const FAST: bool>(
    c: &Cursor<'_>,
    r: &mut R,
    t: &Tables,
    out: &mut Vec<u8>,
    decoded_len: usize,
) -> Result<()> {
    let end = out.len() + decoded_len;
    loop {
        let sym = t.lit.read_symbol(r)?;
        if sym < 256 {
            if out.len() >= end {
                return Err(c.corrupt("zlibx literal overruns block"));
            }
            out.push(sym as u8);
        } else if sym == EOB {
            break;
        } else {
            let (offset, ml) = read_match(c, r, t, sym)?;
            if offset == 0 || offset > out.len() {
                return Err(c.corrupt("zlibx offset out of range"));
            }
            if out.len() + ml > end {
                return Err(c.corrupt("zlibx match overruns block"));
            }
            // Offset and length validated against `out` and the block
            // end just above, so the copy region is safe before it runs.
            if FAST {
                crate::lz_copy(out, offset, ml);
            } else {
                crate::lz_copy_checked(out, offset, ml);
            }
        }
    }
    if out.len() != end {
        return Err(c.corrupt("zlibx block length mismatch"));
    }
    Ok(())
}

impl Compressor for Zlibx {
    fn name(&self) -> &'static str {
        "zlibx"
    }

    fn level(&self) -> i32 {
        self.level
    }

    // indexing_slicing: `end = (start + BLOCK).min(src.len())`, so the
    // raw-block slice is in-bounds.
    #[allow(clippy::indexing_slicing)]
    fn compress(&self, src: &[u8]) -> Vec<u8> {
        let begin = Instant::now();
        let out = container::write_frame(Algorithm::Zlibx, src, self.checksum, None, |out| {
            let mut any_v4 = false;
            let mut start = 0usize;
            while start < src.len() {
                let end = (start + BLOCK_SIZE).min(src.len());
                let mut four = false;
                let encoded = self.params.as_ref().and_then(|p| {
                    let block = parse_block(src, start, end, p);
                    let data = &src[start..end];
                    four = match self.streams {
                        StreamPolicy::Single => false,
                        StreamPolicy::Auto => auto_quad(&block, end - start),
                    };
                    if four {
                        encode_block4(data, &block)
                    } else {
                        encode_block(data, &block)
                    }
                });
                write_varint(out, (end - start) as u64);
                match encoded {
                    Some(body) => {
                        out.push(if four { 2 } else { 1 });
                        any_v4 |= four;
                        write_varint(out, body.len() as u64);
                        out.extend_from_slice(&body);
                    }
                    None => {
                        out.push(0);
                        out.extend_from_slice(&src[start..end]);
                    }
                }
                start = end;
            }
            any_v4
        });
        crate::obs::record_compress(Algorithm::Zlibx, self.level, src.len(), out.len(), begin);
        out
    }

    fn decompress_limited(&self, src: &[u8], limits: &DecodeLimits) -> Result<Vec<u8>> {
        self.decompress_inner::<true>(src, limits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CodecError;

    fn sample() -> Vec<u8> {
        (0..900u32)
            .flat_map(|i| format!("<row id='{}'><v>{}</v></row>", i % 61, i % 13).into_bytes())
            .collect()
    }

    #[test]
    fn roundtrip_all_levels() {
        let data = sample();
        for level in 0..=9 {
            let c = Zlibx::new(level);
            let enc = c.compress(&data);
            assert_eq!(c.decompress(&enc).unwrap(), data, "level {level}");
            if level > 0 {
                assert!(enc.len() < data.len() / 2, "level {level} ratio too weak");
            }
        }
    }

    #[test]
    fn level0_stores() {
        let data = sample();
        let enc = Zlibx::new(0).compress(&data);
        assert!(enc.len() >= data.len());
        assert_eq!(Zlibx::new(0).decompress(&enc).unwrap(), data);
    }

    #[test]
    fn roundtrip_edge_inputs() {
        let c = Zlibx::new(6);
        for data in [
            vec![],
            vec![1u8],
            b"ab".to_vec(),
            vec![9u8; 300_000],
            (0u8..=255).collect::<Vec<_>>(),
        ] {
            let enc = c.compress(&data);
            assert_eq!(c.decompress(&enc).unwrap(), data);
        }
    }

    #[test]
    fn multi_block_inputs_cross_boundaries() {
        // > BLOCK_SIZE with repetition crossing the 64 KiB boundary.
        let unit = b"0123456789abcdef_:";
        let data: Vec<u8> = unit.iter().cycle().take(200_000).copied().collect();
        let c = Zlibx::new(5);
        let enc = c.compress(&data);
        assert!(enc.len() < data.len() / 4);
        assert_eq!(c.decompress(&enc).unwrap(), data);
    }

    #[test]
    fn huffman_helps_on_skewed_literals() {
        // Zero-heavy, match-poor data: the Huffman stage must beat lz4x.
        let mut state = 7u64;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                if state % 16 < 11 {
                    0
                } else {
                    (state >> 33) as u8
                }
            })
            .collect();
        let z = Zlibx::new(6).compress(&data).len();
        let l = crate::lz4x::Lz4x::new(9).compress(&data).len();
        assert!(
            z < l,
            "zlibx {z} should beat lz4x {l} on entropy-skewed data"
        );
    }

    #[test]
    fn rejects_malformed() {
        let c = Zlibx::new(6);
        assert!(c.decompress(b"").is_err());
        assert!(c.decompress(b"no").is_err());
        let enc = c.compress(&sample());
        for cut in [3, 10, enc.len() / 2, enc.len() - 1] {
            assert!(
                c.decompress(&enc[..cut.min(enc.len())]).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn checksum_is_opt_in_and_detects_corruption() {
        let data = sample();
        let plain = Zlibx::new(6).compress(&data);
        let checked = Zlibx::new(6).with_checksum(true).compress(&data);
        assert_eq!(checked.len(), plain.len() + 4);
        assert_eq!(Zlibx::new(6).decompress(&plain).unwrap(), data);
        assert_eq!(Zlibx::new(6).decompress(&checked).unwrap(), data);
        // Corrupting the stored checksum must be detected.
        let mut bad = checked.clone();
        let n = bad.len();
        bad[n - 1] ^= 0xff;
        assert!(matches!(
            Zlibx::new(6).decompress(&bad),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn limits_reject_oversized_content() {
        let data = sample();
        let c = Zlibx::new(6);
        let enc = c.compress(&data);
        assert!(matches!(
            c.decompress_limited(&enc, &DecodeLimits::with_max_output(64)),
            Err(CodecError::LimitExceeded { .. })
        ));
        assert_eq!(
            c.decompress_limited(&enc, &DecodeLimits::with_max_output(data.len()))
                .unwrap(),
            data
        );
    }

    #[test]
    fn single_distance_code_path() {
        // All matches at the same offset code: dist_mode == 2.
        let data: Vec<u8> = b"abcdefgh".iter().cycle().take(4096).copied().collect();
        let c = Zlibx::new(4);
        let enc = c.compress(&data);
        assert_eq!(c.decompress(&enc).unwrap(), data);
    }
}

#[cfg(test)]
mod multi_stream_tests {
    use super::*;

    fn is_v4(frame: &[u8]) -> bool {
        Algorithm::Zlibx.frame_header(frame).unwrap().v4
    }

    fn sample(n: usize) -> Vec<u8> {
        (0..n / 30 + 1)
            .flat_map(|i| format!("<row id='{}'><v>{}</v></row>", i % 61, i % 13).into_bytes())
            .take(n)
            .collect()
    }

    /// Huffman-compressible 7-bit noise: essentially no LZ matches, so
    /// nearly every decoded byte is a literal and Auto should split.
    fn noise(n: usize) -> Vec<u8> {
        let mut x = 0x9e37_79b9u32;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 8) as u8 & 0x7f
            })
            .collect()
    }

    /// [`noise`] with a 48-byte repeat of earlier content every 512
    /// bytes: still literal-dominated, so Auto writes type-2 blocks for
    /// spans of at least [`AUTO_SPLIT`], whose sequences carry matches.
    fn lit_heavy(n: usize) -> Vec<u8> {
        let mut data = noise(n);
        for at in (512..n.saturating_sub(48)).step_by(512) {
            data.copy_within(at - 400..at - 352, at);
        }
        data
    }

    #[test]
    fn auto_policy_sets_v4_magic_and_roundtrips_both_engines() {
        // Literal-dominated input: the quad layout parallelizes literal
        // decode, so Auto must pick type-2 blocks here.
        let data = noise(120_000);
        let c = Zlibx::new(6);
        let enc = c.compress(&data);
        assert!(is_v4(&enc), "literal-heavy block should go type-2");
        assert_eq!(c.decompress(&enc).unwrap(), data);
        assert_eq!(
            c.decompress_reference(&enc, &DecodeLimits::default())
                .unwrap(),
            data
        );
    }

    #[test]
    fn auto_policy_keeps_match_dominated_blocks_single_stream() {
        // The XML-ish sample is almost all matches (~2% literal share);
        // the deferred-match phase of type-2 blocks makes those strictly
        // slower to decode, so Auto must keep the legacy layout.
        let data = sample(120_000);
        let c = Zlibx::new(6);
        let enc = c.compress(&data);
        assert!(!is_v4(&enc), "match-heavy block must stay single");
        let single = Zlibx::new(6)
            .with_stream_policy(StreamPolicy::Single)
            .compress(&data);
        assert_eq!(enc, single);
    }

    #[test]
    fn single_policy_output_matches_legacy_magic() {
        let data = sample(120_000);
        let c = Zlibx::new(6).with_stream_policy(StreamPolicy::Single);
        let enc = c.compress(&data);
        assert_eq!(enc[..2], *b"XZ");
        assert_eq!(c.decompress(&enc).unwrap(), data);
    }

    #[test]
    fn sub_threshold_auto_output_is_byte_identical_to_single() {
        let data = sample(8_000);
        let auto = Zlibx::new(6).compress(&data);
        let single = Zlibx::new(6)
            .with_stream_policy(StreamPolicy::Single)
            .compress(&data);
        assert_eq!(auto, single);
        assert_eq!(auto[..2], *b"XZ");
    }

    #[test]
    fn auto_v4_roundtrips_all_levels_and_sizes() {
        for level in 1..=9 {
            let c = Zlibx::new(level);
            for n in [AUTO_SPLIT, AUTO_SPLIT + 1, 40_000, 70_000, 200_000] {
                let data = lit_heavy(n);
                let enc = c.compress(&data);
                assert!(is_v4(&enc), "level {level} n {n} must be v4");
                assert_eq!(c.decompress(&enc).unwrap(), data, "level {level} n {n}");
                assert_eq!(
                    c.decompress_reference(&enc, &DecodeLimits::default())
                        .unwrap(),
                    data,
                    "reference engine, level {level} n {n}"
                );
            }
        }
    }

    #[test]
    fn cross_substream_matches_resolve() {
        // Literal-dominated noise with a 3000-byte repeat of content
        // 20 000 bytes back after every 6000 fresh bytes: the long
        // matches' sources live in earlier substreams (and in prior
        // blocks), exercising the deferred backfill across every cut
        // boundary while the block stays literal-dominated.
        let fresh = noise(180_000);
        let mut data = fresh[..20_000].to_vec();
        for chunk in fresh[20_000..].chunks(6000) {
            data.extend_from_slice(chunk);
            let at = data.len() - 20_000;
            data.extend_from_within(at..at + 3000);
        }
        data.truncate(180_000);
        let c = Zlibx::new(9);
        let enc = c.compress(&data);
        assert!(is_v4(&enc), "must be v4");
        assert_eq!(c.decompress(&enc).unwrap(), data);
        assert_eq!(
            c.decompress_reference(&enc, &DecodeLimits::default())
                .unwrap(),
            data
        );
    }

    /// A plain frame, so the v4 gate rejects it, not the checksum.
    #[test]
    fn type2_blocks_without_version_bit_are_rejected() {
        let c = Zlibx::new(6);
        let mut enc = c.compress(&lit_heavy(120_000));
        assert!(is_v4(&enc));
        enc[1] ^= 0x01;
        assert!(!is_v4(&enc), "0x01 is the v4 bit");
        assert!(c.decompress(&enc).is_err(), "fast engine must reject");
        let reference = c.decompress_reference(&enc, &DecodeLimits::default());
        assert!(reference.is_err(), "reference engine must reject");
    }

    #[test]
    fn v4_truncation_and_corruption_agree_across_engines() {
        let data = lit_heavy(AUTO_SPLIT + 1000);
        let c = Zlibx::new(6);
        let enc = c.compress(&data);
        assert!(is_v4(&enc));
        for cut in 0..enc.len() {
            let fast = c.decompress(&enc[..cut]);
            let reference = c.decompress_reference(&enc[..cut], &DecodeLimits::default());
            assert_eq!(fast.is_ok(), reference.is_ok(), "cut {cut}");
        }
        for i in (0..enc.len()).step_by(3) {
            let mut bad = enc.clone();
            bad[i] ^= 0xff;
            let fast = c.decompress(&bad);
            let reference = c.decompress_reference(&bad, &DecodeLimits::default());
            assert_eq!(fast.is_ok(), reference.is_ok(), "flip {i}");
            if let (Ok(f), Ok(r)) = (&fast, &reference) {
                assert_eq!(f, r, "engines decoded different bytes at flip {i}");
            }
        }
    }

    #[test]
    fn checksummed_v4_frames_roundtrip() {
        let data = noise(150_000);
        let c = Zlibx::new(5).with_checksum(true);
        let enc = c.compress(&data);
        let header = Algorithm::Zlibx.frame_header(&enc).unwrap();
        assert!(header.checksum && header.v4);
        assert_eq!(c.decompress(&enc).unwrap(), data);
    }
}
