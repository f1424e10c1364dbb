//! Property-based tests for the match-finding substrate: every strategy
//! must produce a parse that reconstructs its input exactly, under any
//! parameters, with or without dictionary history.

use datacomp::lzkit::Strategy as LzStrategy;
use datacomp::lzkit::{parse, parse_with_prefix, reconstruct, MatchParams, PrefixIndex};
use proptest::prelude::*;

fn any_strategy() -> impl Strategy<Value = LzStrategy> {
    prop_oneof![
        Just(LzStrategy::Fast),
        Just(LzStrategy::Greedy),
        Just(LzStrategy::Lazy),
        Just(LzStrategy::Optimal),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parse_reconstructs_exactly(
        data in proptest::collection::vec(0u8..16, 0..8192),
        strategy in any_strategy(),
        window_log in 10u32..=18,
    ) {
        let params = MatchParams::new(strategy).with_window_log(window_log);
        let block = parse(&data, 0, &params);
        prop_assert_eq!(reconstruct(&block, &[]).unwrap(), data);
    }

    #[test]
    fn parse_with_history_reconstructs(
        dict in proptest::collection::vec(0u8..8, 1..1024),
        data in proptest::collection::vec(0u8..8, 0..2048),
        strategy in any_strategy(),
    ) {
        let mut buf = dict.clone();
        let start = buf.len();
        buf.extend_from_slice(&data);
        let params = MatchParams::new(strategy);
        let block = parse(&buf, start, &params);
        prop_assert_eq!(reconstruct(&block, &dict).unwrap(), data);
    }

    /// An attached parse reconstructs its input for any dictionary and
    /// input, down to empty and sub-window (< 4 byte) ones, where the
    /// index holds nothing and every position is the per-call tables'.
    #[test]
    fn attached_parse_reconstructs(
        dict in proptest::collection::vec(0u8..6, 0..1536),
        data in proptest::collection::vec(0u8..6, 0..2048),
        strategy in any_strategy(),
    ) {
        let index = PrefixIndex::build(&dict);
        let mut buf = dict.clone();
        buf.extend_from_slice(&data);
        let params = MatchParams::new(strategy);
        let block = parse_with_prefix(&buf, dict.len(), &params, Some(&index));
        prop_assert_eq!(reconstruct(&block, &dict).unwrap(), data);
    }

    /// The same with the dictionary and input cut to the boundary
    /// sizes the 4-byte window makes special.
    #[test]
    fn attached_parse_reconstructs_tiny_dictionaries_and_inputs(
        dict_len in 0usize..8,
        data_len in 0usize..8,
        seed in proptest::collection::vec(0u8..3, 16..17),
        strategy in any_strategy(),
    ) {
        let dict = &seed[..dict_len];
        let data = &seed[8..8 + data_len];
        let index = PrefixIndex::build(dict);
        let buf = [dict, data].concat();
        let params = MatchParams::new(strategy);
        let block = parse_with_prefix(&buf, dict.len(), &params, Some(&index));
        prop_assert_eq!(reconstruct(&block, dict).unwrap(), data);
    }

    /// A later block of a frame: the history is the dictionary plus the
    /// blocks before this one, and only the dictionary is in the index —
    /// the rest must be found through the per-call tables. The block
    /// repeats a stretch of the earlier one, so missing it shows.
    #[test]
    fn attached_parse_indexes_history_past_the_dictionary(
        dict in proptest::collection::vec(0u8..8, 0..512),
        earlier in proptest::collection::vec(any::<u8>(), 64..1024),
        fresh in proptest::collection::vec(0u8..8, 0..256),
        strategy in any_strategy(),
    ) {
        let index = PrefixIndex::build(&dict);
        let mut block_bytes = fresh.clone();
        block_bytes.extend_from_slice(&earlier[8..56]);
        let history = [dict.as_slice(), earlier.as_slice()].concat();
        let buf = [history.as_slice(), block_bytes.as_slice()].concat();
        let params = MatchParams::new(strategy);
        let block = parse_with_prefix(&buf, history.len(), &params, Some(&index));
        prop_assert_eq!(reconstruct(&block, &history).unwrap(), block_bytes);
        // 48 random bytes recur nowhere but in `earlier`.
        prop_assert!(
            block.sequences.iter().any(|s| s.match_len >= 40),
            "the repeat of the earlier block went unmatched"
        );
    }

    #[test]
    fn offsets_respect_window(
        data in proptest::collection::vec(0u8..4, 256..4096),
        strategy in any_strategy(),
    ) {
        let params = MatchParams::new(strategy).with_window_log(10);
        let block = parse(&data, 0, &params);
        for seq in &block.sequences {
            prop_assert!(seq.offset as usize <= 1 << 10);
            prop_assert!(seq.match_len >= params.min_match);
        }
    }

    /// A priced chain parse takes a new offset only when the match pays
    /// for it at ≈ 4 bits per literal replaced:
    /// `4 * len >= bits(offset) + 6`. The first candidate is priced
    /// directly; a challenger and the backward extension only add length
    /// for the bits they add, so the rule holds for whatever the parse
    /// emits — with or without history and an attached index — and the
    /// parse still reconstructs.
    #[test]
    fn priced_parse_takes_only_new_offsets_that_pay(
        dict in proptest::collection::vec(0u8..12, 0..2048),
        data in proptest::collection::vec(0u8..12, 0..6144),
        lazy in any::<bool>(),
        attach in any::<bool>(),
        min_match in 3u32..=5,
    ) {
        let strategy = if lazy { LzStrategy::Lazy } else { LzStrategy::Greedy };
        let params = MatchParams {
            priced_parse: true,
            ..MatchParams::new(strategy).with_min_match(min_match)
        };
        let index = PrefixIndex::build(&dict);
        let buf = [dict.as_slice(), data.as_slice()].concat();
        let block = parse_with_prefix(&buf, dict.len(), &params, attach.then_some(&index));
        prop_assert_eq!(reconstruct(&block, &dict).unwrap(), data);
        let mut previous = 0;
        for s in &block.sequences {
            if s.offset != previous {
                let bits = u32::BITS - s.offset.leading_zeros();
                prop_assert!(
                    4 * s.match_len >= bits + 6,
                    "a {}-byte match at offset {} does not pay", s.match_len, s.offset
                );
            }
            previous = s.offset;
        }
    }

    #[test]
    fn decoded_len_invariant(
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        strategy in any_strategy(),
    ) {
        let block = parse(&data, 0, &MatchParams::new(strategy));
        prop_assert_eq!(block.decoded_len(), data.len());
    }
}
