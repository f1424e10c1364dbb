//! Golden digests over the frames the prepared-dictionary change (PR 16)
//! promises not to alter: every no-dictionary frame, and every
//! dictionary frame whose block is longer than its dictionary (the
//! attach gate leaves those on the per-call history path). The
//! digests were computed on the parent commit and pinned; a mismatch
//! means frame bytes moved for inputs that were meant to stay
//! byte-identical. Frames at or below the gate are free to change (and do:
//! the index's hash log follows the dictionary) — those are covered by
//! round-trip tests, not digests.
//!
//! The trained dictionaries are pinned as well, by a digest over their
//! bytes, so an edit to the trainer shows up as a trainer diff
//! (`TRAINED`) and not as a codec diff. PR 17 replaced the trainer: the
//! `sst/2k` and `orc/16k` dictionaries and their frames were re-pinned
//! then (`cache1/256` came out byte-identical); every no-dictionary row
//! and the hand-made `block-1` rows stayed as they were, which is the
//! proof that no codec byte moved.
//!
//! When zstdx's chain parse began pricing its first candidate
//! (`MatchParams::priced_parse`), the rows that parse feeds were
//! re-pinned: every `l3` and `l7` row, and `cache1/l13/*` and
//! `cache1/256/l13`, where the rep-friendly lazy alternative of the
//! optimal levels wins. Every `l1` row, every other `l13` row and the
//! trained dictionaries stayed byte-identical, and the `lz4x` / `zlibx`
//! rows (`OTHER_CODECS`, pinned from the commit before) hold the codecs
//! that keep the unpriced parse.

use datacomp::codecs::dict::{train, Dictionary};
use datacomp::codecs::lz4x::Lz4x;
use datacomp::codecs::parallel::compress_parallel;
use datacomp::codecs::xxhash::xxh64;
use datacomp::codecs::zlibx::Zlibx;
use datacomp::codecs::zstdx::Zstdx;
use datacomp::codecs::{Algorithm, Compressor, DecodeLimits, StreamPolicy};
use datacomp::corpus::cache::{cache1_profile, generate_items};
use datacomp::corpus::orc::generate_blocks;
use datacomp::corpus::sst::generate_sst;

#[path = "common/streaming.rs"]
mod streaming;

const SEED: u64 = 20823;
const LEVELS: [i32; 4] = [1, 3, 7, 13];

/// The three payload shapes the benchmark serves, at test scale.
fn decks() -> [(&'static str, Vec<Vec<u8>>); 3] {
    let cache = generate_items(&cache1_profile(), 96, SEED)
        .into_iter()
        .map(|item| item.data)
        .collect();
    let sst = generate_sst(4 * (16 << 10), SEED)
        .chunks_exact(16 << 10)
        .map(<[u8]>::to_vec)
        .collect();
    // One 256 KiB block: two zstdx blocks, so the second parses with
    // in-frame history.
    let orc = generate_blocks(256 << 10, SEED)
        .into_iter()
        .take(1)
        .collect();
    [("cache1", cache), ("sst", sst), ("orc", orc)]
}

fn digest(frames: impl Iterator<Item = Vec<u8>>) -> u64 {
    let mut buf = Vec::new();
    for f in frames {
        buf.extend_from_slice(&(f.len() as u64).to_le_bytes());
        buf.extend_from_slice(&f);
    }
    xxh64(&buf, 0)
}

fn check(what: &str, got: &[(String, u64)], want: &[(&str, u64)]) {
    let listing: String = got
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    let same = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|((gn, gd), (wn, wd))| gn == wn && gd == wd);
    assert!(same, "{what} bytes moved; computed digests:\n{listing}");
}

#[test]
fn plain_frames_are_byte_identical_to_the_pinned_parent() {
    let mut got = Vec::new();
    for (deck, payloads) in decks() {
        for level in LEVELS {
            for (tag, policy) in [
                ("auto", StreamPolicy::Auto),
                ("single", StreamPolicy::Single),
            ] {
                let c = Zstdx::new(level).with_stream_policy(policy);
                let d = digest(payloads.iter().map(|p| {
                    let f = c.compress(p);
                    assert_eq!(c.decompress(&f).unwrap(), *p);
                    f
                }));
                got.push((format!("{deck}/l{level}/{tag}"), d));
            }
        }
    }
    check("no-dictionary frame", &got, &PLAIN);
}

/// Dictionaries shorter than the blocks they serve: a small trained
/// dictionary under every deck (cache items no longer than theirs are
/// skipped), plus the boundary case of a dictionary one byte shorter
/// than the 16 KiB SST block.
#[test]
fn dictionary_frames_above_the_gate_are_byte_identical_to_the_pinned_parent() {
    let mut got = Vec::new();
    let mut trained = Vec::new();
    for (deck, payloads) in decks() {
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let mut dicts = match deck {
            "cache1" => vec![("256", train(&refs, 256, 7))],
            "sst" => vec![("2k", train(&refs, 2 << 10, 7))],
            _ => vec![("16k", train(&refs, 16 << 10, 7))],
        };
        for (dtag, dict) in &dicts {
            let d = digest(std::iter::once(dict.as_bytes().to_vec()));
            trained.push((format!("{deck}/{dtag}"), d));
        }
        if deck == "sst" {
            let other = generate_sst((16 << 10) - 1, SEED ^ 1);
            dicts.push(("block-1", Dictionary::new(other, 9)));
        }
        for (dtag, dict) in &dicts {
            let eligible: Vec<&Vec<u8>> =
                payloads.iter().filter(|p| p.len() > dict.len()).collect();
            assert!(eligible.len() * 4 >= payloads.len(), "{deck}/{dtag}");
            for level in LEVELS {
                let c = Zstdx::new(level);
                let d = digest(eligible.iter().map(|p| {
                    let f = c.compress_with_dict(p, dict);
                    assert_eq!(c.decompress_with_dict(&f, dict).unwrap(), **p);
                    f
                }));
                got.push((format!("{deck}/{dtag}/l{level}"), d));
            }
        }
    }
    // The trainer first: when both lists moved, that is the cause.
    check("trained dictionary", &trained, &TRAINED);
    check("dictionary frame", &got, &DICT);
}

/// The other two codecs share `lzkit`'s finders with zstdx, at the
/// levels that reach each of them: the fast finder and both chain
/// strategies for `lz4x`, the two greedy levels and a lazy one for
/// `zlibx`. A change to how zstdx levels parse must leave these alone.
#[test]
fn lz4x_and_zlibx_frames_are_byte_identical_to_the_pinned_parent() {
    let mut got = Vec::new();
    for (deck, payloads) in decks() {
        let codecs: [(String, Box<dyn Compressor>); 6] = [
            ("lz4x/l1".into(), Box::new(Lz4x::new(1))),
            ("lz4x/l3".into(), Box::new(Lz4x::new(3))),
            ("lz4x/l4".into(), Box::new(Lz4x::new(4))),
            ("zlibx/l2".into(), Box::new(Zlibx::new(2))),
            ("zlibx/l3".into(), Box::new(Zlibx::new(3))),
            ("zlibx/l6".into(), Box::new(Zlibx::new(6))),
        ];
        for (tag, c) in codecs {
            let d = digest(payloads.iter().map(|p| {
                let f = c.compress(p);
                assert_eq!(c.decompress(&f).unwrap(), *p);
                f
            }));
            got.push((format!("{deck}/{tag}"), d));
        }
    }
    check("lz4x / zlibx frame", &got, &OTHER_CODECS);
}

/// 7-bit xorshift noise: Huffman-compressible, with only chance matches.
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

/// Literal-dominated payloads, built as the zlibx unit tests build
/// theirs, so `Auto` writes type-2 (four-substream) blocks: noise with
/// a 48-byte repeat every 512 bytes (`lit_heavy`; its 6 KiB tail block
/// stays type-1), noise with a 3000-byte repeat of content 20 000 bytes
/// back after every 6000 fresh bytes, whose matches reach into earlier
/// substreams and blocks (`cross_substream_matches_resolve`), and 20 KB
/// of plain noise, which parses to no match at all. Between them both
/// layouts write all three distance modes: no offsets, an offset
/// table, and one fixed offset code.
fn literal_deck() -> Vec<Vec<u8>> {
    let mut lit_heavy = noise(70_000);
    for at in (512..70_000 - 48).step_by(512) {
        lit_heavy.copy_within(at - 400..at - 352, at);
    }
    let fresh = noise(180_000);
    let mut cross = fresh[..20_000].to_vec();
    for chunk in fresh[20_000..].chunks(6000) {
        cross.extend_from_slice(chunk);
        let at = cross.len() - 20_000;
        cross.extend_from_within(at..at + 3000);
    }
    cross.truncate(180_000);
    vec![lit_heavy, cross, noise(20_000)]
}

/// zlibx under both stream layouts: levels 1 and 9 over the served
/// decks (levels 2, 3 and 6 are `OTHER_CODECS`), and every level family
/// (fast, greedy, lazy, optimal) over a literal-dominated deck. `Auto`
/// writes type-2 blocks for the ORC block and the literal deck, so each
/// frame's version bit is checked: set under `Auto` there, clear under
/// `Single` everywhere. Pinned on the commit before the two layouts
/// began sharing one table header and one match coder; each frame also
/// decodes through the reference engine.
#[test]
fn zlibx_type2_and_single_frames_are_byte_identical_to_the_pinned_parent() {
    let mut got = Vec::new();
    let decks = decks()
        .into_iter()
        .map(|(deck, p)| (deck, p, [1, 9].as_slice()));
    let lit = ("lit", literal_deck(), [1, 2, 3, 6, 9].as_slice());
    for (deck, payloads, levels) in decks.chain([lit]) {
        for &level in levels {
            for (tag, policy) in [
                ("auto", StreamPolicy::Auto),
                ("single", StreamPolicy::Single),
            ] {
                let c = Zlibx::new(level).with_stream_policy(policy);
                let type2 = policy == StreamPolicy::Auto && matches!(deck, "orc" | "lit");
                let d = digest(payloads.iter().map(|p| {
                    let f = c.compress(p);
                    let v4 = Algorithm::Zlibx.frame_header(&f).unwrap().v4;
                    assert_eq!(v4, type2, "{deck}/l{level}/{tag}");
                    assert_eq!(c.decompress(&f).unwrap(), *p);
                    let reference = c.decompress_reference(&f, &DecodeLimits::default());
                    assert_eq!(reference.unwrap(), *p);
                    f
                }));
                got.push((format!("{deck}/zlibx/l{level}/{tag}"), d));
            }
        }
    }
    check("zlibx frame", &got, &ZLIBX);
}

/// Digests of the frames `write` makes at levels 1, 3 and 7 over every
/// deck, each checked to decode through the slice decoder.
fn writer_rows(write: impl Fn(i32, &[u8]) -> Vec<u8>) -> Vec<(String, u64)> {
    let mut got = Vec::new();
    for (deck, payloads) in decks() {
        for level in [1, 3, 7] {
            let d = digest(payloads.iter().map(|p| {
                let f = write(level, p);
                assert_eq!(Zstdx::new(level).decompress(&f).unwrap(), *p);
                f
            }));
            got.push((format!("{deck}/l{level}"), d));
        }
    }
    got
}

/// Streaming frames, pinned from the streaming writer on the commit
/// before it began sharing the block writer of the sized frames. The
/// writer is gone; its frames now come from the test-side model
/// (`tests/common/streaming.rs`), which must reproduce every pin, and
/// decode through both slice engines.
#[test]
fn streaming_frames_are_byte_identical_to_the_pinned_parent() {
    let got = writer_rows(|level, p| {
        let f = streaming::streaming_frame(p, level);
        let reference = Zstdx::new(level).decompress_reference(&f, &DecodeLimits::default());
        assert_eq!(reference.unwrap(), p);
        f
    });
    check("streaming frame", &got, &STREAM);
}

/// Parallel frames (`compress_parallel`, four workers), pinned when the
/// parallel writer began running the codec's own block writer under
/// the codec's stream policy (`Auto`; it used to force `Single`).
#[test]
fn parallel_frames_are_byte_identical_to_the_pinned_writer() {
    let got = writer_rows(|level, p| compress_parallel(&Zstdx::new(level), p, 4).unwrap());
    check("parallel frame", &got, &PARALLEL);
}

/// The `cache1` and `sst` payloads are one block each, so their rows
/// equal the serial `auto` rows in `PLAIN`.
const PARALLEL: [(&str, u64); 9] = [
    ("cache1/l1", 0xfe9002cdfc76d866),
    ("cache1/l3", 0x354de7950772292f),
    ("cache1/l7", 0x4c38ae6fc5020bc8),
    ("sst/l1", 0xa7c26a520411079e),
    ("sst/l3", 0xef78cf0bbb42c02d),
    ("sst/l7", 0x8e3a1f256b4249e2),
    ("orc/l1", 0x686bd363ad47feeb),
    ("orc/l3", 0x47c91d26a6345bc8),
    ("orc/l7", 0xf34b654a18950b3c),
];

const STREAM: [(&str, u64); 9] = [
    ("cache1/l1", 0x85ee5e97c7fb83b3),
    ("cache1/l3", 0x094cffb161ba493e),
    ("cache1/l7", 0xa3e08757286d72b2),
    ("sst/l1", 0x23aef9ed708babaf),
    ("sst/l3", 0x5302a6cf3cc4db82),
    ("sst/l7", 0xb33b07d4ff4c543f),
    ("orc/l1", 0x9887547ba6643c0b),
    ("orc/l3", 0x9223bb62b773915c),
    ("orc/l7", 0xb2746c5d55e95c86),
];

const PLAIN: [(&str, u64); 24] = [
    ("cache1/l1/auto", 0xfe9002cdfc76d866),
    ("cache1/l1/single", 0xfe9002cdfc76d866),
    ("cache1/l3/auto", 0x354de7950772292f),
    ("cache1/l3/single", 0x354de7950772292f),
    ("cache1/l7/auto", 0x4c38ae6fc5020bc8),
    ("cache1/l7/single", 0x4c38ae6fc5020bc8),
    ("cache1/l13/auto", 0x7c63622c53f3bd66),
    ("cache1/l13/single", 0x7c63622c53f3bd66),
    ("sst/l1/auto", 0xa7c26a520411079e),
    ("sst/l1/single", 0xa7c26a520411079e),
    ("sst/l3/auto", 0xef78cf0bbb42c02d),
    ("sst/l3/single", 0xef78cf0bbb42c02d),
    ("sst/l7/auto", 0x8e3a1f256b4249e2),
    ("sst/l7/single", 0x8e3a1f256b4249e2),
    ("sst/l13/auto", 0xbf511d23c0afd41f),
    ("sst/l13/single", 0xbf511d23c0afd41f),
    ("orc/l1/auto", 0x9f25f875430cd09b),
    ("orc/l1/single", 0xced0bf2b623d4ad0),
    ("orc/l3/auto", 0x0c41d0b70f94bbc4),
    ("orc/l3/single", 0x5a71f40be0f6b6ff),
    ("orc/l7/auto", 0x788306a6207f78c9),
    ("orc/l7/single", 0x67c315539a41e19d),
    ("orc/l13/auto", 0xa951d3b12c65289f),
    ("orc/l13/single", 0xa951d3b12c65289f),
];

const DICT: [(&str, u64); 16] = [
    ("cache1/256/l1", 0x80b5355980fc56a5),
    ("cache1/256/l3", 0x87b73bd12420326f),
    ("cache1/256/l7", 0xcb478dd8c451d744),
    ("cache1/256/l13", 0x54d9591c2a0cd07d),
    ("sst/2k/l1", 0x1917444b44b2098b),
    ("sst/2k/l3", 0x93b2dabb0f956435),
    ("sst/2k/l7", 0xeabb5b880fbcbee5),
    ("sst/2k/l13", 0x96e50c4479490a92),
    ("sst/block-1/l1", 0xc5783d71690db418),
    ("sst/block-1/l3", 0x06e24dcdc4243f1a),
    ("sst/block-1/l7", 0xba40e9476eed33f6),
    ("sst/block-1/l13", 0xa6632eb13f46aa6c),
    ("orc/16k/l1", 0xa886121078e44899),
    ("orc/16k/l3", 0xd60a7b36d0e48629),
    ("orc/16k/l7", 0x6f6bd10afdcec377),
    ("orc/16k/l13", 0x74943f1ac5b44d28),
];

const OTHER_CODECS: [(&str, u64); 18] = [
    ("cache1/lz4x/l1", 0x99078fe80335f0e2),
    ("cache1/lz4x/l3", 0xbb0d93ef1acfc804),
    ("cache1/lz4x/l4", 0xe979cd78705d0ca2),
    ("cache1/zlibx/l2", 0xbaeaa1663352685a),
    ("cache1/zlibx/l3", 0xe7e753e12faebf6f),
    ("cache1/zlibx/l6", 0xbd342b201820debe),
    ("sst/lz4x/l1", 0x0149d593199b696e),
    ("sst/lz4x/l3", 0x3a3c89a8286cafa4),
    ("sst/lz4x/l4", 0x7cf1e0af9fca00e6),
    ("sst/zlibx/l2", 0x34668d4c59aaa25d),
    ("sst/zlibx/l3", 0xc22f5fdc6cf23a55),
    ("sst/zlibx/l6", 0x319ec98e4a70d6b0),
    ("orc/lz4x/l1", 0x0afafafd52f74e9e),
    ("orc/lz4x/l3", 0xce4f6d22ee58d327),
    ("orc/lz4x/l4", 0x6018f53a03b2a22f),
    ("orc/zlibx/l2", 0xbe516a9e3e2f9c52),
    ("orc/zlibx/l3", 0x66c8b12691513669),
    ("orc/zlibx/l6", 0xc6b8b8f2637797ed),
];

const ZLIBX: [(&str, u64); 22] = [
    ("cache1/zlibx/l1/auto", 0x44a2f19acd2ad9ff),
    ("cache1/zlibx/l1/single", 0x44a2f19acd2ad9ff),
    ("cache1/zlibx/l9/auto", 0x554a732daa3f4ce9),
    ("cache1/zlibx/l9/single", 0x554a732daa3f4ce9),
    ("sst/zlibx/l1/auto", 0xdc41e52c7d99cf9c),
    ("sst/zlibx/l1/single", 0xdc41e52c7d99cf9c),
    ("sst/zlibx/l9/auto", 0xb6530fc6913fed99),
    ("sst/zlibx/l9/single", 0xb6530fc6913fed99),
    ("orc/zlibx/l1/auto", 0x503b0cc075e2d199),
    ("orc/zlibx/l1/single", 0xa7a82d892061e5a7),
    ("orc/zlibx/l9/auto", 0x45205341812b01c1),
    ("orc/zlibx/l9/single", 0xc405820c94cc98ff),
    ("lit/zlibx/l1/auto", 0x9ddf464645ab7428),
    ("lit/zlibx/l1/single", 0xa2719e2270975059),
    ("lit/zlibx/l2/auto", 0x964bb8955f61159c),
    ("lit/zlibx/l2/single", 0x98fe5773547f9772),
    ("lit/zlibx/l3/auto", 0x964bb8955f61159c),
    ("lit/zlibx/l3/single", 0x98fe5773547f9772),
    ("lit/zlibx/l6/auto", 0x565d0aab8c5ff9f3),
    ("lit/zlibx/l6/single", 0x84725bacd370219b),
    ("lit/zlibx/l9/auto", 0x565d0aab8c5ff9f3),
    ("lit/zlibx/l9/single", 0x84725bacd370219b),
];

const TRAINED: [(&str, u64); 3] = [
    ("cache1/256", 0x418a501b473a53ba),
    ("sst/2k", 0x40905787621e3ffd),
    ("orc/16k", 0x6c1dc6ad28762056),
];
