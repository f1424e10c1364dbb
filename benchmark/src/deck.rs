//! The four workloads and their seeded decks.
//!
//! A workload is a fixed amount of work, not a fixed time: a seeded
//! *deck* of payloads replayed for a fixed number of *passes*, a pass
//! being one replay of the deck, lap by lap — one compress, then
//! `reads` decompresses of the frame just returned. Counts (ratio,
//! bytes, retrains) therefore repeat exactly for a seed.

use corpus::cache::{cache1_profile, generate_items};
use corpus::orc::{generate_blocks, ORC_BLOCK_SIZE};
use corpus::sst::generate_sst;

/// The tenant every request is sent under.
pub const TENANT: &str = "bench";

/// Laps every cold start runs before it counts as set up: enough for
/// every hot use case to have trained its first dictionary.
pub const WARMUP_LAPS: usize = 128;

/// How the load thread drives its one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Blocking round trips: the next request waits for the reply.
    RoundTrip,
    /// Bursts of up to `BURST_LAPS` laps: their compresses in one
    /// pipelined write, then each read of their frames as one more. A
    /// burst of more than one lap keeps at most `window` bytes of
    /// compress requests in flight.
    Pipeline { window: usize },
}

/// Most laps in a pipelined burst: the daemon's `batch_max`.
pub const BURST_LAPS: usize = 64;
/// The client's send window on `cache_pipe`. It is the client's policy,
/// whatever the daemon does with it; the traced run replays the same
/// deck without a window and shows what the daemon does then
/// (`server.burst_stall_share`, `server.burst64_ops_per_s`). The README
/// has the measurements behind the choice.
pub const PIPELINE_WINDOW: usize = 8 << 10;

/// Compress calls of a use case between two dictionary retrains
/// (`ManagedConfig::retrain_interval`, which the daemon runs with).
/// Every deck holds a whole number of them per use case, so the
/// retrains fall on the same laps of every pass.
pub const RETRAIN_INTERVAL: usize = 128;

/// Retrain intervals of each CACHE1 item type in the cache deck: the
/// type mix `corpus::cache` draws (type `k` with probability
/// log8((k+2)/(k+1)); it never draws the eighth type), over 31
/// intervals.
const CACHE_TYPE_INTERVALS: [usize; 7] = [11, 6, 4, 3, 3, 2, 2];
/// Items drawn to fill the cache deck; the type that fills last needs
/// 4,400 on average and needed 5,100 at most over 1,700 seeds.
const CACHE_STREAM: usize = 6144;

/// Which `corpus` generator fills a workload's deck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// CACHE1 items in generated order, each type up to its share of
    /// `CACHE_TYPE_INTERVALS`; one use case per item type.
    CacheItems,
    /// A 2 MiB SST file cut into 16 KiB blocks.
    SstBlocks,
    /// Sixteen 256 KiB ORC blocks.
    OrcBlocks,
}

/// One workload's definition.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub source: Source,
    pub shape: Shape,
    /// Decompresses per compress.
    pub reads: usize,
    /// Laps in a pass: one replay of the deck, or eight of the ORC one.
    pub laps_per_pass: usize,
    /// Laps per segment: a few milliseconds of work. Segment `s` of
    /// every pass replays the same laps, and the quiet instance is
    /// picked per segment, so a busy stretch costs only the segments it
    /// touched.
    pub segment_laps: usize,
    /// Passes of a run, sized to take about fifteen seconds at the
    /// speed of the commit that defined the benchmark (the cold starts
    /// take the rest of `RUN_SECONDS`).
    pub passes: usize,
    /// Full passes the in-process `managed` ladder round replays.
    pub ladder_passes: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "cache_rr",
        why: "sub-KB typed cache items with per-type dictionaries over blocking round trips: per-call fixed cost (entropy table set-up on SET, server and telemetry bookkeeping on GET) does the work",
        source: Source::CacheItems,
        shape: Shape::RoundTrip,
        reads: 4,
        laps_per_pass: 31 * RETRAIN_INTERVAL,
        segment_laps: 64,
        passes: 24,
        ladder_passes: 2,
    },
    Workload {
        name: "cache_pipe",
        why: "the same deck in pipelined bursts of up to 64 laps within an 8 KiB send window: exercises the server's batch coalescing and skips the per-request wake-up, so a server change moves it unlike cache_rr",
        source: Source::CacheItems,
        shape: Shape::Pipeline {
            window: PIPELINE_WINDOW,
        },
        reads: 4,
        laps_per_pass: 31 * RETRAIN_INTERVAL,
        segment_laps: 64,
        passes: 36,
        ladder_passes: 2,
    },
    Workload {
        name: "sst_block",
        why: "16 KiB SST blocks (KVSTORE1): match finding, steady-state entropy coding and the every-128-calls dictionary retrain do the work; server overhead is a few percent, so a server change predicts no move",
        source: Source::SstBlocks,
        shape: Shape::RoundTrip,
        reads: 2,
        laps_per_pass: RETRAIN_INTERVAL,
        segment_laps: 4,
        passes: 180,
        ladder_passes: 10,
    },
    Workload {
        name: "orc_stripe",
        why: "256 KiB ORC blocks (warehouse bulk path): codec throughput, the multi-stream layouts that only engage on large blocks, protocol payload copies and daemon memory; per-call floors vanish",
        source: Source::OrcBlocks,
        shape: Shape::RoundTrip,
        reads: 1,
        laps_per_pass: RETRAIN_INTERVAL,
        segment_laps: 1,
        passes: 5,
        ladder_passes: 1,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Requests one lap sends.
    pub fn ops_per_lap(&self) -> usize {
        1 + self.reads
    }

    /// Passes of the untraced run; `--quick` runs a tenth.
    pub fn passes_for(&self, quick: bool) -> usize {
        if quick {
            self.passes.div_ceil(10)
        } else {
            self.passes
        }
    }
}

/// One payload and the use case it is sent under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Card {
    pub use_case: String,
    pub payload: Vec<u8>,
}

/// A workload's payloads, in replay order. Lap `i` plays card
/// `i % len`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deck {
    pub cards: Vec<Card>,
}

impl Deck {
    /// Builds the deck of `workload` from `seed`. The seed feeds
    /// `corpus` and nothing else; the daemon only ever sees the bytes.
    pub fn build(workload: &Workload, seed: u64) -> Deck {
        let cards = match workload.source {
            Source::CacheItems => {
                let mut wanted = CACHE_TYPE_INTERVALS.map(|n| n * RETRAIN_INTERVAL);
                let cards = generate_items(&cache1_profile(), CACHE_STREAM, seed)
                    .into_iter()
                    .filter(|item| match wanted.get_mut(item.type_id as usize) {
                        Some(left) if *left > 0 => {
                            *left -= 1;
                            true
                        }
                        _ => false,
                    })
                    .map(|item| Card {
                        use_case: format!("cache1.type{}", item.type_id),
                        payload: item.data,
                    })
                    .collect();
                assert_eq!(wanted, [0; 7], "seed {seed}: the item stream ran short");
                cards
            }
            Source::SstBlocks => generate_sst(2 << 20, seed)
                .chunks_exact(16 << 10)
                .map(|block| Card {
                    use_case: "kvstore1.sst16k".to_string(),
                    payload: block.to_vec(),
                })
                .collect(),
            Source::OrcBlocks => generate_blocks(16 * ORC_BLOCK_SIZE, seed)
                .into_iter()
                .filter(|block| block.len() == ORC_BLOCK_SIZE)
                .take(16)
                .map(|payload| Card {
                    use_case: "dw1.orc".to_string(),
                    payload,
                })
                .collect(),
        };
        Deck { cards }
    }

    pub fn card(&self, lap: usize) -> &Card {
        &self.cards[lap % self.cards.len()]
    }

    pub fn bytes(&self) -> usize {
        self.cards.iter().map(|c| c.payload.len()).sum()
    }

    /// Distinct use cases, sorted.
    pub fn use_cases(&self) -> Vec<&str> {
        let mut cases: Vec<&str> = self.cards.iter().map(|c| c.use_case.as_str()).collect();
        cases.sort_unstable();
        cases.dedup();
        cases
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_and_other_seed_other_bytes() {
        for w in &WORKLOADS {
            let a = Deck::build(w, 20823);
            assert_eq!(a, Deck::build(w, 20823), "{} must replay", w.name);
            assert_ne!(a, Deck::build(w, 20824), "{} must follow the seed", w.name);
        }
    }

    #[test]
    fn decks_have_the_specified_sizes() {
        let cache = Deck::build(Workload::by_name("cache_rr").unwrap(), 1);
        assert_eq!(cache.cards.len(), 31 * RETRAIN_INTERVAL);
        assert_eq!(cache.use_cases().len(), 7);
        assert!(cache
            .cards
            .iter()
            .all(|c| c.use_case.starts_with("cache1.type")));
        assert_eq!(
            cache,
            Deck::build(Workload::by_name("cache_pipe").unwrap(), 1)
        );

        let sst = Deck::build(Workload::by_name("sst_block").unwrap(), 1);
        assert_eq!(sst.cards.len(), 128);
        assert!(sst.cards.iter().all(|c| c.payload.len() == 16 << 10));
        assert_eq!(sst.use_cases(), vec!["kvstore1.sst16k"]);

        let orc = Deck::build(Workload::by_name("orc_stripe").unwrap(), 1);
        assert_eq!(orc.cards.len(), 16);
        assert!(orc.cards.iter().all(|c| c.payload.len() == ORC_BLOCK_SIZE));
        assert_eq!(orc.bytes(), 16 * ORC_BLOCK_SIZE);
    }

    #[test]
    fn quick_runs_a_tenth_of_the_passes_and_at_least_one() {
        for w in &WORKLOADS {
            assert_eq!(w.passes_for(false), w.passes);
            assert_eq!(w.passes_for(true), w.passes.div_ceil(10));
            assert!(w.passes_for(true) >= 1);
        }
    }

    /// Quiet segments are picked per position by wall time, so segment
    /// `s` must be the same work in every pass. The payloads are (a
    /// pass replays whole decks), and so are the dictionary retrains:
    /// the daemon retrains a use case every `RETRAIN_INTERVAL` compress
    /// calls and a pass holds a whole number of intervals of every use
    /// case, so each retrain falls on the same lap of every pass and
    /// pooling cannot prefer passes that held fewer.
    #[test]
    fn every_pass_holds_the_same_retrains_on_the_same_laps() {
        let interval = managed::ManagedConfig::default().retrain_interval as usize;
        assert_eq!(RETRAIN_INTERVAL, interval);
        for w in &WORKLOADS {
            assert_eq!(w.laps_per_pass % w.segment_laps, 0, "{}", w.name);
            assert!(WARMUP_LAPS <= w.laps_per_pass);
            let deck = Deck::build(w, 20823);
            assert_eq!(w.laps_per_pass % deck.cards.len(), 0, "{}", w.name);
            // A use case first trains with its eighth sample and then
            // every `interval` compresses, counted from the warm-up,
            // which replays the head of the deck.
            let mut calls = std::collections::BTreeMap::new();
            let mut retrain_laps = vec![Vec::new(); 3];
            let warm_up = (0..WARMUP_LAPS).map(|lap| (None, lap));
            let passes = (0..3).flat_map(|p| (0..w.laps_per_pass).map(move |lap| (Some(p), lap)));
            for (pass, lap) in warm_up.chain(passes) {
                let n = calls.entry(&deck.card(lap).use_case).or_insert(0usize);
                *n += 1;
                if *n >= 8 && (*n - 8).is_multiple_of(interval) {
                    if let Some(p) = pass {
                        retrain_laps[p].push(lap);
                    }
                }
            }
            assert_eq!(retrain_laps[0].len(), w.laps_per_pass / interval);
            assert_eq!(retrain_laps[0], retrain_laps[1], "{}", w.name);
            assert_eq!(retrain_laps[1], retrain_laps[2], "{}", w.name);
        }
    }
}
