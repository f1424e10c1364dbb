//! Property-based tests for the entropy substrate: Huffman and FSE
//! round-trips over arbitrary distributions, and normalization
//! invariants.

use datacomp::entropy::fse::FseTable;
use datacomp::entropy::hist::{byte_histogram, normalize_counts, symbol_histogram};
use datacomp::entropy::huffman::HuffmanTable;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn huffman_roundtrips_any_bytes(data in proptest::collection::vec(any::<u8>(), 2..4096)) {
        let freqs = byte_histogram(&data);
        // Needs >= 2 distinct symbols; otherwise build returns None.
        if let Some(t) = HuffmanTable::build(&freqs, 11) {
            prop_assert_eq!(t.decode(&t.encode(&data), data.len()).unwrap(), data);
        }
    }

    #[test]
    fn huffman_respects_any_length_limit(
        data in proptest::collection::vec(any::<u8>(), 16..2048),
        max_bits in 8u32..=15,
    ) {
        let freqs = byte_histogram(&data);
        if let Some(t) = HuffmanTable::build(&freqs, max_bits) {
            prop_assert!(t.max_bits() <= max_bits);
        }
    }

    /// `build` hands the encoder lengths and codes and leaves the decode
    /// tables for whoever decodes first; `from_lengths` is the decoder's
    /// eager entry. For every length limit and for tie-heavy as well as
    /// random histograms the two must be the same code: each decodes
    /// what the other encoded, through both engines. (That the lengths
    /// equal the leaf-vector package-merge's is held against the oracle
    /// in the entropy crate's own tests.)
    #[test]
    fn huffman_build_and_from_lengths_are_one_code_at_every_limit(
        counts in proptest::collection::vec(0u32..6, 2..64),
        scale in prop_oneof![Just(1u32), 2u32..2000],
    ) {
        let freqs: Vec<u32> = counts.iter().map(|&c| c * scale).collect();
        let present = freqs.iter().filter(|&&f| f > 0).count();
        let data: Vec<u8> = freqs
            .iter()
            .enumerate()
            .flat_map(|(sym, &f)| std::iter::repeat_n(sym as u8, f.min(3) as usize))
            .collect();
        for max_bits in 1u32..=15 {
            if present < 2 || present > 1 << max_bits {
                continue;
            }
            let built = HuffmanTable::build(&freqs, max_bits).unwrap();
            prop_assert!(built.max_bits() <= max_bits);
            let parsed = HuffmanTable::from_lengths(built.lengths()).unwrap();
            let by_built = built.encode(&data);
            prop_assert_eq!(&by_built, &parsed.encode(&data));
            prop_assert_eq!(parsed.decode_fast(&by_built, data.len()).unwrap(), data.clone());
            prop_assert_eq!(built.decode(&by_built, data.len()).unwrap(), data.clone());
        }
    }

    #[test]
    fn fse_roundtrips_any_symbols(
        symbols in proptest::collection::vec(0u16..24, 1..4096),
        table_log in 6u32..=11,
    ) {
        let hist = symbol_histogram(&symbols, 24);
        if let Ok(norm) = normalize_counts(&hist, table_log) {
            let t = FseTable::from_normalized(&norm, table_log).unwrap();
            prop_assert_eq!(t.decode(&t.encode(&symbols), symbols.len()).unwrap(), symbols);
        }
    }

    #[test]
    fn normalization_preserves_support(
        freqs in proptest::collection::vec(0u32..10_000, 1..64),
        table_log in 6u32..=12,
    ) {
        if let Ok(norm) = normalize_counts(&freqs, table_log) {
            // Sum is exact and support is preserved both ways.
            prop_assert_eq!(norm.iter().map(|&n| n as u64).sum::<u64>(), 1u64 << table_log);
            for (i, (&f, &n)) in freqs.iter().zip(&norm).enumerate() {
                prop_assert_eq!(f > 0, n > 0, "symbol {}", i);
            }
        }
    }

    /// Four-stream Huffman: splitting the literals into four
    /// independently coded substreams is lossless for any input, and the
    /// fast (word-at-a-time) and checked decoders agree byte-for-byte.
    #[test]
    fn huffman_4stream_roundtrips_any_bytes(
        data in proptest::collection::vec(any::<u8>(), 4..4096),
    ) {
        let freqs = byte_histogram(&data);
        if let Some(t) = HuffmanTable::build(&freqs, 11) {
            let streams = t.encode_4stream(&data);
            let bufs = [&streams[0][..], &streams[1][..], &streams[2][..], &streams[3][..]];
            prop_assert_eq!(t.decode_4stream(bufs, data.len()).unwrap(), data.clone());
            prop_assert_eq!(t.decode_4stream_fast(bufs, data.len()).unwrap(), data.clone());
        }
    }

    /// Truncating any one of the four Huffman substreams at every byte
    /// boundary must surface as a typed error from both decoders — never
    /// a panic, never a silent wrong answer.
    #[test]
    fn huffman_4stream_truncation_errors_at_every_boundary(
        data in proptest::collection::vec(any::<u8>(), 16..512),
    ) {
        let freqs = byte_histogram(&data);
        if let Some(t) = HuffmanTable::build(&freqs, 11) {
            let streams = t.encode_4stream(&data);
            for cut_stream in 0..4 {
                for cut in 0..streams[cut_stream].len() {
                    let bufs: [&[u8]; 4] = std::array::from_fn(|i| {
                        if i == cut_stream { &streams[i][..cut] } else { &streams[i][..] }
                    });
                    prop_assert!(t.decode_4stream(bufs, data.len()).is_err());
                    prop_assert!(t.decode_4stream_fast(bufs, data.len()).is_err());
                }
            }
        }
    }

    /// Single-state FSE through both bit readers: the word-refilling
    /// fast engine (`decode_fast`) and the byte-loop reference
    /// (`decode`) both round-trip any symbol stream.
    #[test]
    fn fse_engines_roundtrip_any_symbols(
        symbols in proptest::collection::vec(0u16..24, 1..4096),
        table_log in 6u32..=11,
    ) {
        let hist = symbol_histogram(&symbols, 24);
        if let Ok(norm) = normalize_counts(&hist, table_log) {
            let t = FseTable::from_normalized(&norm, table_log).unwrap();
            let buf = t.encode(&symbols);
            prop_assert_eq!(t.decode_fast(&buf, symbols.len()).unwrap(), symbols.clone());
            prop_assert_eq!(t.decode(&buf, symbols.len()).unwrap(), symbols);
        }
    }

    /// Every strict prefix of an FSE stream: the fast and reference
    /// decoders reach the same outcome at every cut point (equal
    /// symbols, or the same typed error), so the integrity check is
    /// engine-independent.
    #[test]
    fn fse_engines_agree_at_every_truncation(
        symbols in proptest::collection::vec(0u16..16, 8..256),
    ) {
        let hist = symbol_histogram(&symbols, 16);
        if let Ok(norm) = normalize_counts(&hist, 9) {
            let t = FseTable::from_normalized(&norm, 9).unwrap();
            let buf = t.encode(&symbols);
            for cut in 0..buf.len() {
                let fast = t.decode_fast(&buf[..cut], symbols.len());
                let slow = t.decode(&buf[..cut], symbols.len());
                prop_assert_eq!(fast, slow, "cut {}", cut);
            }
        }
    }

    #[test]
    fn fse_compresses_skewed_below_fixed_width(skew in 2u32..20) {
        // A 4-symbol alphabet where symbol 0 has `skew` times the mass:
        // FSE must beat the 2-bit fixed-width code.
        let symbols: Vec<u16> = (0..20_000u32)
            .map(|i| if i % (skew + 3) < skew { 0 } else { (i % 4) as u16 })
            .collect();
        let hist = symbol_histogram(&symbols, 4);
        let t = FseTable::from_frequencies(&hist, 11, symbols.len()).unwrap();
        let encoded = t.encode(&symbols);
        prop_assert!(encoded.len() as f64 <= symbols.len() as f64 * 2.0 / 8.0 + 16.0);
    }
}

/// A table from `build` has no decode side until someone decodes. Two
/// threads released together on a fresh table both get the right bytes:
/// one materialises the tables, the other waits for them.
#[test]
fn huffman_lazy_decode_tables_survive_a_two_thread_race() {
    let data: Vec<u8> = (0..6000u32).map(|i| (i * i % 23) as u8 + b'a').collect();
    let freqs = byte_histogram(&data);
    for max_bits in [8u32, 11, 15] {
        for _ in 0..16 {
            let table = HuffmanTable::build(&freqs, max_bits).unwrap();
            let streams = table.encode_4stream(&data);
            let single = table.encode(&data);
            let gate = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                let quad = s.spawn(|| {
                    gate.wait();
                    let bufs = [
                        &streams[0][..],
                        &streams[1][..],
                        &streams[2][..],
                        &streams[3][..],
                    ];
                    table.decode_4stream_fast(bufs, data.len())
                });
                let one = s.spawn(|| {
                    gate.wait();
                    table.decode_fast(&single, data.len())
                });
                assert_eq!(quad.join().unwrap().unwrap(), data);
                assert_eq!(one.join().unwrap().unwrap(), data);
            });
        }
    }
}
