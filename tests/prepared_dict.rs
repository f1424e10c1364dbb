//! The prepared-dictionary contract, held with counts instead of
//! clocks: a dictionary compress at or below the attach gate hashes its
//! input and nothing else, one above it hashes dictionary and input
//! exactly as before, and frames from both sides decode.

use datacomp::codecs::dict::{train, Dictionary};
use datacomp::codecs::zstdx::Zstdx;
use datacomp::codecs::Compressor;
use datacomp::corpus::cache::{cache1_profile, generate_items};
use datacomp::lzkit::positions_hashed;

const SEED: u64 = 20823;

fn cache_items(n: usize) -> Vec<Vec<u8>> {
    generate_items(&cache1_profile(), n, SEED)
        .into_iter()
        .map(|item| item.data)
        .collect()
}

/// Positions one dictionary compress hashed (this thread's counter).
fn hashed_by(c: &Zstdx, payload: &[u8], dict: &Dictionary) -> (u64, Vec<u8>) {
    let before = positions_hashed();
    let frame = c.compress_with_dict(payload, dict);
    (positions_hashed() - before, frame)
}

fn roundtrips(c: &Zstdx, frame: &[u8], dict: &Dictionary, payload: &[u8]) {
    assert_eq!(c.decompress_with_dict(frame, dict).unwrap(), payload);
}

#[test]
fn attached_compress_hashes_only_its_input() {
    let items = cache_items(400);
    let refs: Vec<&[u8]> = items.iter().map(Vec::as_slice).collect();
    let dict = train(&refs[..64], 4 << 10, 11);
    assert!(dict.len() > 1024);
    // Level 13 parses twice (optimal, then the rep-friendly lazy pass).
    for (level, parses) in [(1, 1), (3, 1), (7, 1), (13, 2)] {
        let c = Zstdx::new(level);
        let mut seen = 0;
        for item in items.iter().filter(|i| i.len() <= dict.len()) {
            let (hashed, frame) = hashed_by(&c, item, &dict);
            assert!(
                hashed <= parses * (item.len() as u64 + 3),
                "level {level}: {hashed} positions hashed for a {} B item",
                item.len()
            );
            roundtrips(&c, &frame, &dict, item);
            seen += 1;
        }
        assert!(seen > 300, "the deck must sit below the gate");
    }
}

#[test]
fn gate_is_one_length_comparison_and_above_it_every_position_is_hashed() {
    let items = cache_items(64);
    let content: Vec<u8> = items.concat();
    let dict = Dictionary::new(content[..2048].to_vec(), 3);
    let pool = &content[2048..];
    // Chain levels index every position that has a 4-byte window.
    for level in [3, 7] {
        let c = Zstdx::new(level);
        let at_gate = &pool[..dict.len()];
        let (hashed, frame) = hashed_by(&c, at_gate, &dict);
        assert_eq!(hashed, at_gate.len() as u64, "level {level}: attached");
        roundtrips(&c, &frame, &dict, at_gate);

        let above = &pool[..dict.len() + 1];
        let (hashed, frame) = hashed_by(&c, above, &dict);
        assert_eq!(
            hashed,
            (dict.len() + above.len() - 3) as u64,
            "level {level}: one byte past the gate indexes the prefix per call"
        );
        roundtrips(&c, &frame, &dict, above);
    }
}

#[test]
fn multi_block_frames_index_history_past_the_dictionary_locally() {
    // A dictionary longer than a 128 KiB block (wide links), under an
    // input of three blocks: every block attaches, and blocks two and
    // three must find the earlier blocks through the per-call tables.
    let items = cache_items(3000);
    let content: Vec<u8> = items.concat();
    assert!(content.len() > 500 << 10);
    let dict = Dictionary::new(content[..160 << 10].to_vec(), 21);
    let mut body = content[200 << 10..500 << 10].to_vec();
    // 4 KiB of noise inside block one, repeated as the frame's last
    // bytes (block three, 200 KiB later: inside every level's window).
    // Nothing in the dictionary resembles it, so only in-frame history
    // can supply the repeat.
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let noise: Vec<u8> = (0..4096)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            (x >> 56) as u8
        })
        .collect();
    body[100 << 10..104 << 10].copy_from_slice(&noise);
    let mut payload = body.clone();
    payload.extend_from_slice(&noise);
    for level in [1, 3, 7] {
        let c = Zstdx::new(level);
        let (hashed, frame) = hashed_by(&c, &payload, &dict);
        roundtrips(&c, &frame, &dict, &payload);
        assert!(dict.index_bytes() > 0);
        // Never the dictionary: at most each block plus the frame
        // content before it (re-indexed per block, as without one).
        let blocks = payload.len().div_ceil(128 << 10) as u64;
        assert!(
            hashed <= blocks * (payload.len() as u64 + 3),
            "level {level}: {hashed}"
        );
        let without_repeat = c.compress_with_dict(&body, &dict).len();
        assert!(
            frame.len() < without_repeat + 64,
            "level {level}: the repeated noise must match in-frame history \
             ({} vs {without_repeat})",
            frame.len()
        );
    }
}

#[test]
fn empty_and_tiny_dictionaries_and_inputs_roundtrip() {
    let c = Zstdx::new(3);
    for dict_len in [0usize, 1, 3, 4, 5, 64] {
        let dict = Dictionary::new(b"abcdefgh".repeat(8)[..dict_len].to_vec(), 2);
        for input in [&b""[..], b"a", b"abc", b"abcd", b"abcdefghabcdefgh"] {
            let frame = c.compress_with_dict(input, &dict);
            roundtrips(&c, &frame, &dict, input);
        }
    }
}
