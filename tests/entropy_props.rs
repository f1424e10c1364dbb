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

    /// The fast literal decoders run an unchecked body while 8 bytes of
    /// buffer remain under a cursor, then the checked per-symbol tail.
    /// Wherever that switch lands they equal the reference decoders:
    /// the same bytes, or the same error. Lengths sit on and around
    /// multiples of the body's round (`56 / max_bits` symbols), streams
    /// run from a few bytes (tail only) to a few KiB, and lopsided
    /// inputs give four-stream sections whose first stream is shorter
    /// than 8 bytes while the others are not.
    #[test]
    fn huffman_fast_decoders_equal_the_reference_at_body_tail_boundaries(
        seed in any::<u64>(),
        alphabet in 2usize..=256,
        limit in 1u32..=15,
        skew in 0u32..8,
        rounds in prop_oneof![0usize..8, 0usize..400],
        offset in 0usize..5,
        lopsided in any::<bool>(),
    ) {
        let alphabet = alphabet.min(1 << limit);
        let mut pool = skewed_bytes(seed, alphabet, skew, 2048);
        pool[..2].copy_from_slice(&[0, 1]);
        let t = HuffmanTable::build(&byte_histogram(&pool), limit).unwrap();
        let per = (56 / t.max_bits()) as usize;
        let n = (rounds * per + offset).saturating_sub(2).min(pool.len());
        let mut data = pool[..n].to_vec();
        if lopsided {
            // The first quarter (stream 0) all in the shortest code.
            let shortest = (0..=255u8)
                .filter(|&b| t.lengths().get(b as usize).is_some_and(|&l| l > 0))
                .min_by_key(|&b| t.lengths()[b as usize])
                .unwrap();
            data[..n / 4].fill(shortest);
        }
        fast_decoders_equal_the_reference(&t, &data, seed);
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

/// `len` bytes below `alphabet`, each the least of `skew + 1` uniform
/// draws: uniform at skew 0, leaning harder on the low symbols above.
fn skewed_bytes(seed: u64, alphabet: usize, skew: u32, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    let mut draw = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) % alphabet as u64
    };
    (0..len)
        .map(|_| (0..=skew).map(|_| draw()).min().unwrap() as u8)
        .collect()
}

/// `decode_fast` against `decode` and `decode_4stream_fast` against
/// `decode_4stream` on `data`'s encoding, on every truncation prefix of
/// every stream, and on sampled single bit flips: equal results, errors
/// included.
fn fast_decoders_equal_the_reference(t: &HuffmanTable, data: &[u8], seed: u64) {
    let n = data.len();
    // Sixteen hashed bit positions in a `len`-byte stream.
    let flips = |len: usize, salt: u64| {
        (0..16u64).filter(move |_| len > 0).map(move |i| {
            let h = (seed ^ salt)
                .wrapping_add(i)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15);
            (h >> 16) as usize % (len * 8)
        })
    };

    let enc = t.encode(data);
    assert_eq!(t.decode_fast(&enc, n).as_deref(), Ok(data));
    assert_eq!(t.decode(&enc, n).as_deref(), Ok(data));
    for k in 0..enc.len() {
        let cut = &enc[..k];
        assert_eq!(t.decode_fast(cut, n), t.decode(cut, n), "prefix {k}");
    }
    for bit in flips(enc.len(), 0) {
        let mut bad = enc.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        assert_eq!(t.decode_fast(&bad, n), t.decode(&bad, n), "flip {bit}");
    }

    let streams = t.encode_4stream(data);
    let both = |s: &[Vec<u8>; 4]| {
        let bufs = [&s[0][..], &s[1][..], &s[2][..], &s[3][..]];
        (t.decode_4stream_fast(bufs, n), t.decode_4stream(bufs, n))
    };
    let (fast, reference) = both(&streams);
    assert_eq!(fast.as_deref(), Ok(data));
    assert_eq!(reference.as_deref(), Ok(data));
    for s in 0..4 {
        for cut in 0..streams[s].len() {
            let mut cut_streams = streams.clone();
            cut_streams[s].truncate(cut);
            let (fast, reference) = both(&cut_streams);
            assert_eq!(fast, reference, "stream {s} prefix {cut}");
        }
        for bit in flips(streams[s].len(), s as u64 + 1) {
            let mut bad = streams.clone();
            bad[s][bit / 8] ^= 1 << (bit % 8);
            let (fast, reference) = both(&bad);
            assert_eq!(fast, reference, "stream {s} flip {bit}");
        }
    }
}
