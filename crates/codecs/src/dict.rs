//! Dictionary training and representation.
//!
//! "LZ dictionaries are constructed ahead of time from sample data and
//! capture these inter-message repetitions. Next, they are communicated
//! out-of-band to the compressor/decompressor and used as shared
//! history." (paper, §II-B). The paper's caching study (Figures 10–11)
//! shows dictionaries recovering the ratio lost by compressing small
//! items individually; `fig10`/`fig11` reproduce that with dictionaries
//! trained here.
//!
//! The trainer follows zstd's fastCover: samples are cut into fixed-size
//! segments, segments are scored by the total frequency of the k-mers
//! they contain — counted across all samples in a fixed, cache-resident
//! array indexed by a hash of the k-mer, not in a map — and the
//! highest-scoring segments that still add new k-mers are concatenated,
//! most valuable content last, where offsets into it are shortest. It
//! costs a few table accesses per sample byte (a work count its tests
//! hold to a multiple of the input size) and a
//! count table of at most a megabyte whatever the input size; DESIGN.md
//! §6 "Dictionary training" has the sizing rules and the measurements
//! behind them.

use std::sync::{Arc, OnceLock};

use lzkit::PrefixIndex;

/// Shared compression history plus an identifier carried in frames.
///
/// A dictionary that compresses also carries a *prepared* form: a match
/// index over its content ([`lzkit::PrefixIndex`]), built by the first
/// compress that can use it and reused by every later one, so a
/// 250-byte item no longer pays for re-hashing 12 KiB of dictionary.
/// Clones share it. Decoding never needs it and never builds it.
/// Equality is content and id; the index is derived state.
#[derive(Debug, Clone)]
pub struct Dictionary {
    data: Vec<u8>,
    id: u32,
    index: Arc<OnceLock<PrefixIndex>>,
}

impl PartialEq for Dictionary {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id && self.data == other.data
    }
}

impl Eq for Dictionary {}

impl Dictionary {
    /// Wraps raw dictionary content with an id.
    pub fn new(data: Vec<u8>, id: u32) -> Self {
        Self {
            data,
            id,
            index: Arc::default(),
        }
    }

    /// The dictionary content used as LZ history.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// The id carried in frames for mismatch detection.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Content size in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the dictionary carries no content.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The match index over the content, built on first call.
    pub(crate) fn index(&self) -> &PrefixIndex {
        self.index.get_or_init(|| PrefixIndex::build(&self.data))
    }

    /// Heap bytes the match index holds right now: zero until a compress
    /// has built it, and again after [`Self::release_index`].
    pub fn index_bytes(&self) -> usize {
        self.index.get().map_or(0, PrefixIndex::heap_bytes)
    }

    /// Drops this handle's claim on the match index (clones keep
    /// theirs). For a dictionary that will only decode from now on — a
    /// superseded generation — so its index memory goes with the role.
    /// Compressing with it again simply rebuilds the index.
    pub fn release_index(&mut self) {
        self.index = Arc::default();
    }
}

/// K-mer width used for scoring.
const KMER: usize = 8;
/// Segment granularity of the trainer.
const SEGMENT: usize = 64;
/// Most count-table slots: 2^19 `u16`s are a megabyte, which stays in an
/// L2. Beyond it more k-mers share a slot; down to a slot per two
/// positions that moved no deck's ratio by half a percent.
const MAX_COUNT_LOG: u32 = 19;
/// Odd 64-bit multiplier (2^64 / golden ratio): the top bits of
/// `key * MIX` index both tables.
const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// Every k-mer of `s` as the little-endian word of its bytes: the key a
/// rolling `key >> 8 | b << 56` would hold at each position, read with
/// one unaligned load instead (measured faster than rolling it).
fn kmers(s: &[u8]) -> impl Iterator<Item = u64> + '_ {
    s.windows(KMER)
        .map(|w| u64::from_le_bytes(w.try_into().expect("window is KMER bytes")))
}

/// Log2 of the slots a table needs for `entries`, at least 2^4.
fn slots_log(entries: usize) -> u32 {
    entries.max(16).next_power_of_two().trailing_zeros()
}

/// Log2 of the count-table slots for `total_in` sample bytes: two slots
/// per position, capped.
fn count_log(total_in: usize) -> u32 {
    slots_log(total_in.saturating_mul(2)).min(MAX_COUNT_LOG)
}

/// Log2 of the coverage-set slots: twice the k-mers the picked segments
/// can hold, so half the slots stay empty and probes stay short. Picked
/// bytes stop at the budget plus the segment that crosses it (or at the
/// whole input), and `SEGMENT` bytes hold `SEGMENT - KMER + 1` k-mers.
fn cover_log(total_in: usize, max_size: usize) -> u32 {
    let picked_bytes = total_in.min(max_size.saturating_add(SEGMENT));
    let kmers = picked_bytes / SEGMENT * (SEGMENT - KMER + 1) + picked_bytes % SEGMENT;
    slots_log(kmers.saturating_mul(2))
}

/// Approximate k-mer frequencies: a fixed array indexed by a hash of the
/// k-mer, as in zstd's fastCover. K-mers that share a slot share a
/// count, and a count stops at 65,535; neither changes which segments
/// rank first by enough to show in a ratio.
struct Counts {
    slots: Vec<u16>,
    shift: u32,
    touches: u64,
}

// indexing_slicing: `slots` holds `1 << log` entries and the index is
// the top `log` bits of a 64-bit product.
#[allow(clippy::indexing_slicing)]
impl Counts {
    fn new(log: u32) -> Self {
        Self {
            slots: vec![0; 1 << log],
            shift: u64::BITS - log,
            touches: 0,
        }
    }

    fn slot(&mut self, key: u64) -> &mut u16 {
        self.touches += 1;
        &mut self.slots[(key.wrapping_mul(MIX) >> self.shift) as usize]
    }
}

/// The k-mers of the segments picked so far. Unlike the counts this set
/// decides what enters the dictionary, so it does not alias: open
/// addressing over the full 64-bit product `key * MIX`, a bijection of
/// the key. Zero marks an empty slot; the one key whose product is zero
/// is stored as 1 and so shares an entry with one other key of 2^64.
struct Covered {
    slots: Vec<u64>,
    shift: u32,
    probes: u64,
}

// indexing_slicing: `slots` holds `1 << log` entries, the first index is
// the top `log` bits of a 64-bit product and later ones are masked. A
// probe ends at an empty slot, and `cover_log` keeps half of them empty.
#[allow(clippy::indexing_slicing)]
impl Covered {
    fn new(log: u32) -> Self {
        Self {
            slots: vec![0; 1 << log],
            shift: u64::BITS - log,
            probes: 0,
        }
    }

    /// The slot holding `key`'s entry, or the empty one where it goes.
    /// One exit test for both outcomes: which of the two it was is data,
    /// not a branch, so runs of covered and fresh k-mers cost the same.
    fn find(&mut self, entry: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = (entry >> self.shift) as usize;
        loop {
            self.probes += 1;
            if (self.slots[at] == entry) | (self.slots[at] == 0) {
                return at;
            }
            at = (at + 1) & mask;
        }
    }

    fn contains(&mut self, key: u64) -> bool {
        let at = self.find(Self::entry(key));
        self.slots[at] != 0
    }

    fn insert(&mut self, key: u64) {
        let entry = Self::entry(key);
        let at = self.find(entry);
        self.slots[at] = entry;
    }

    fn entry(key: u64) -> u64 {
        key.wrapping_mul(MIX).max(1)
    }
}

/// One candidate: a sample's bytes from `start` to the next multiple of
/// [`SEGMENT`] or the sample's end. Twelve bytes, the trainer's only
/// scratch that grows with the input; `SEGMENT` saturated counts fit the
/// score.
struct Seg {
    score: u32,
    sample: u32,
    start: u32,
}

/// Segments a sample of `len >= KMER` bytes is cut into: one per
/// `SEGMENT` bytes that still holds a whole k-mer.
fn segments_in(len: usize) -> usize {
    (len - KMER) / SEGMENT + 1
}

thread_local! {
    static TRAIN_WORK: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Table accesses made by this thread's [`train`] calls so far: one per
/// count-table read or write and one per coverage-set slot inspected. A
/// work count, not a timing (compare `lzkit::positions_hashed`): tests
/// hold it to a multiple of the input size, so neither pass can go
/// super-linear unnoticed.
#[cfg(test)]
fn train_work() -> u64 {
    TRAIN_WORK.with(std::cell::Cell::get)
}

/// Trains a dictionary of at most `max_size` bytes from `samples`.
///
/// Samples are cut into 64-byte segments, each segment is
/// scored by the summed frequency of its k-mers across all samples, and
/// segments are taken best first, skipping those whose k-mers the
/// dictionary mostly holds already; the most valuable content goes
/// last, where offsets into it are shortest. Scratch memory is the
/// count table (at most a megabyte), the coverage set (16 bytes per
/// dictionary byte) and 12 bytes per segment.
///
/// Deterministic for a given input. Samples shorter than the k-mer width
/// are ignored; if nothing scores, the result is an empty dictionary
/// (which codecs treat as plain history of length zero).
// indexing_slicing: segment ranges are clamped with
// `end = (start + SEGMENT).min(s.len())` before slicing, and
// `seg.sample` is an enumeration index of `samples`.
#[allow(clippy::indexing_slicing)]
pub fn train(samples: &[&[u8]], max_size: usize, id: u32) -> Dictionary {
    let bytes_of = |seg: &Seg| {
        let s = samples[seg.sample as usize];
        let start = seg.start as usize;
        &s[start..(start + SEGMENT).min(s.len())]
    };

    let usable = || samples.iter().filter(|s| s.len() >= KMER);
    let total_in: usize = usable().map(|s| s.len()).sum();
    if total_in == 0 || max_size == 0 {
        return Dictionary::new(Vec::new(), id);
    }

    // Count k-mer occurrences across all samples.
    let mut counts = Counts::new(count_log(total_in));
    for s in usable() {
        for key in kmers(s) {
            let n = counts.slot(key);
            *n = n.saturating_add(1);
        }
    }

    // Score every segment by the k-mers wholly inside it. Samples and
    // offsets past `u32` would need 4 GiB of input; they are left out.
    let n_segs = usable().map(|s| segments_in(s.len())).sum();
    let mut segs: Vec<Seg> = Vec::with_capacity(n_segs);
    for (si, &s) in samples.iter().enumerate() {
        for start in (0..(s.len() + 1).saturating_sub(KMER)).step_by(SEGMENT) {
            let (Ok(sample), Ok(at)) = (u32::try_from(si), u32::try_from(start)) else {
                break;
            };
            let end = (start + SEGMENT).min(s.len());
            let score = kmers(&s[start..end])
                .map(|key| u32::from(*counts.slot(key)))
                .sum();
            segs.push(Seg {
                score,
                sample,
                start: at,
            });
        }
    }
    // Deterministic order: by score descending, ties by (sample, start).
    // The key is unique, so the in-place unstable sort is deterministic.
    segs.sort_unstable_by_key(|seg| (std::cmp::Reverse(seg.score), seg.sample, seg.start));

    // Take segments best first. A k-mer only counts once per selection
    // run, so the dictionary does not fill up with copies of one hot
    // segment: a segment whose k-mers are mostly covered is skipped, and
    // the scan of it stops as soon as that is certain.
    let mut covered = Covered::new(cover_log(total_in, max_size));
    let mut picked: Vec<&Seg> = Vec::new();
    let mut total = 0usize;
    for seg in &segs {
        if total >= max_size {
            break;
        }
        let body = bytes_of(seg);
        // At least half the k-mers (rounded as the first trainer did)
        // must be new.
        let n_kmers = body.len() - (KMER - 1);
        let may_be_covered = n_kmers - (body.len() - KMER).div_ceil(2);
        let mut stale = 0;
        let fresh_enough = kmers(body).all(|key| {
            stale += usize::from(covered.contains(key));
            stale <= may_be_covered
        });
        if !fresh_enough {
            continue;
        }
        for key in kmers(body) {
            covered.insert(key);
        }
        picked.push(seg);
        total += body.len();
    }
    TRAIN_WORK.with(|w| w.set(w.get() + counts.touches + covered.probes));

    // Most valuable content last (shortest offsets from the input).
    let mut data = Vec::with_capacity(total);
    for seg in picked.iter().rev() {
        data.extend_from_slice(bytes_of(seg));
    }
    if data.len() > max_size {
        let cut = data.len() - max_size;
        data.drain(..cut);
    }
    Dictionary::new(data, id)
}

/// The trainer this module shipped before the frequency table: exact
/// k-mer counts and an exact coverage set in SipHash maps. Kept as the
/// quality oracle for the one above.
#[cfg(test)]
mod oracle {
    use super::{Dictionary, KMER, SEGMENT};
    use std::collections::HashMap;

    #[allow(clippy::indexing_slicing)]
    pub(super) fn train(samples: &[&[u8]], max_size: usize, id: u32) -> Dictionary {
        // Count k-mer occurrences across all samples.
        let mut counts: HashMap<u64, u32> = HashMap::new();
        for &s in samples {
            for w in s.windows(KMER) {
                let key = u64::from_le_bytes(w.try_into().expect("window is KMER bytes"));
                *counts.entry(key).or_insert(0) += 1;
            }
        }

        // Score every segment; a k-mer only counts once per selection run so
        // the dictionary does not fill up with copies of one hot segment.
        struct Seg {
            score: u64,
            sample: usize,
            start: usize,
        }
        let mut segs: Vec<Seg> = Vec::new();
        for (si, &s) in samples.iter().enumerate() {
            let mut start = 0;
            while start + KMER <= s.len() {
                let end = (start + SEGMENT).min(s.len());
                let score: u64 = s[start..end.min(start + SEGMENT)]
                    .windows(KMER)
                    .map(|w| {
                        let key = u64::from_le_bytes(w.try_into().expect("window is KMER bytes"));
                        counts.get(&key).copied().unwrap_or(0) as u64
                    })
                    .sum();
                segs.push(Seg {
                    score,
                    sample: si,
                    start,
                });
                start += SEGMENT;
            }
        }
        // Deterministic order: by score descending, ties by (sample, start).
        segs.sort_by(|a, b| {
            b.score
                .cmp(&a.score)
                .then(a.sample.cmp(&b.sample))
                .then(a.start.cmp(&b.start))
        });

        let mut picked: Vec<&Seg> = Vec::new();
        let mut used: HashMap<u64, ()> = HashMap::new();
        let mut total = 0usize;
        for seg in &segs {
            if total >= max_size {
                break;
            }
            let s = samples[seg.sample];
            let end = (seg.start + SEGMENT).min(s.len());
            let body = &s[seg.start..end];
            if body.len() < KMER {
                continue;
            }
            // Skip segments whose k-mers are mostly already covered.
            let fresh = body
                .windows(KMER)
                .filter(|w| {
                    let key = u64::from_le_bytes((*w).try_into().expect("window is KMER bytes"));
                    !used.contains_key(&key)
                })
                .count();
            if fresh * 2 < body.len().saturating_sub(KMER) {
                continue;
            }
            for w in body.windows(KMER) {
                let key = u64::from_le_bytes(w.try_into().expect("window is KMER bytes"));
                used.insert(key, ());
            }
            picked.push(seg);
            total += body.len();
        }

        // Most valuable content last (shortest offsets from the input).
        let mut data = Vec::with_capacity(total.min(max_size));
        for seg in picked.iter().rev() {
            let s = samples[seg.sample];
            let end = (seg.start + SEGMENT).min(s.len());
            data.extend_from_slice(&s[seg.start..end]);
        }
        if data.len() > max_size {
            let cut = data.len() - max_size;
            data.drain(..cut);
        }
        Dictionary::new(data, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zstdx::Zstdx;
    use crate::Compressor;

    fn typed_samples(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                format!(
                    "{{\"schema\":\"cache.item.v2\",\"shard\":{},\"payload\":\"user-profile-{}\",\"flags\":[\"hot\",\"replicated\"]}}",
                    i % 5,
                    i
                )
                .into_bytes()
            })
            .collect()
    }

    /// Seeds the quality comparison is pinned at.
    const SEEDS: [u64; 4] = [20823, 200, 201, 202];

    fn refs(samples: &[Vec<u8>]) -> Vec<&[u8]> {
        samples.iter().map(Vec::as_slice).collect()
    }

    /// `n` seeded random bytes.
    fn noise(n: usize, seed: u64) -> Vec<u8> {
        use rand::{rngs::StdRng, RngCore, SeedableRng};
        let mut out = vec![0; n];
        StdRng::seed_from_u64(seed).fill_bytes(&mut out);
        out
    }

    /// Table accesses of one `train` call, and what it returned.
    fn work_of(samples: &[&[u8]], max_size: usize) -> (u64, Dictionary) {
        let before = train_work();
        let dict = train(samples, max_size, 1);
        (train_work() - before, dict)
    }

    /// Whether `data` is whole segments of `samples` end to end, after at
    /// most one leading segment that lost its front to the size cut.
    pub(super) fn is_made_of_segments(data: &[u8], samples: &[&[u8]]) -> bool {
        let bodies: Vec<&[u8]> = samples
            .iter()
            .flat_map(|s| s.chunks(SEGMENT).filter(|b| b.len() >= KMER))
            .collect();
        // parses[at]: `data[at..]` is a run of whole segments.
        let mut parses = vec![false; data.len() + 1];
        parses[data.len()] = true;
        for at in (0..data.len()).rev() {
            parses[at] = bodies
                .iter()
                .any(|b| data[at..].starts_with(b) && parses[at + b.len()]);
        }
        parses[0]
            || bodies.iter().any(|b| {
                (1..b.len()).any(|cut| data.starts_with(&b[cut..]) && parses[b.len() - cut])
            })
    }

    #[test]
    fn nothing_to_train_on_allocates_nothing() {
        let long = noise(4096, 1);
        for (samples, max_size) in [
            (vec![], 1024),
            (vec![&b"ab"[..], &b"1234567"[..], &b""[..]], 1024),
            (vec![&long[..]], 0),
        ] {
            let (work, dict) = work_of(&samples, max_size);
            assert!(dict.is_empty());
            assert_eq!(work, 0, "no table was touched");
        }
    }

    /// Counts, not clocks: every pass is linear in the input whatever its
    /// shape. One count and at most one score access per position, then
    /// at most one coverage lookup per position visited plus the inserts,
    /// each a short probe because half the set stays empty.
    #[test]
    fn work_is_linear_in_the_input() {
        let distinct: Vec<u8> = (0..32_768u64)
            .flat_map(|i| i.wrapping_mul(MIX).to_le_bytes())
            .collect();
        for (shape, content) in [
            ("random", noise(256 << 10, 7)),
            ("one byte", vec![0x5a; 256 << 10]),
            ("all distinct", distinct),
            ("text", typed_samples(2600).concat()),
        ] {
            for pieces in [1, 16, 1024] {
                let samples: Vec<&[u8]> = content.chunks(content.len() / pieces).collect();
                let total_in: usize = samples.iter().map(|s| s.len()).sum();
                let (work, dict) = work_of(&samples, 16 << 10);
                assert!(!dict.is_empty(), "{shape}/{pieces}");
                assert!(
                    work <= 4 * total_in as u64,
                    "{shape} in {pieces} samples: {work} table accesses for {total_in} B"
                );
            }
        }
    }

    /// Heap bytes one `train` call holds besides its output: count table,
    /// coverage set, segment list.
    fn scratch_bytes(total_in: usize, segments: usize, max_size: usize) -> usize {
        use std::mem::size_of;
        (size_of::<u16>() << count_log(total_in))
            + (size_of::<u64>() << cover_log(total_in, max_size))
            + size_of::<Seg>() * segments
    }

    /// Peak RSS is a benchmark metric and the trainer's scratch is in
    /// it: a megabyte of counts however large the input, a coverage set
    /// that follows the budget, and nothing else that grows except the
    /// 16-byte segment records.
    #[test]
    fn scratch_is_bounded_by_the_budget_not_the_input() {
        assert!(std::mem::size_of::<Seg>() <= 16);
        for len in [8usize, 300, 16 << 10, 256 << 10, 16 << 20] {
            for n in [1usize, 8, 64] {
                let (total_in, segments) = (n * len, n * segments_in(len));
                for max_size in [256usize, 4 << 10, 16 << 10, 112 << 10] {
                    let scratch = scratch_bytes(total_in, segments, max_size);
                    assert!(
                        scratch <= (1 << 20) + 32 * (max_size + SEGMENT) + 16 * segments,
                        "{n} x {len} B, budget {max_size}: {scratch} B of scratch"
                    );
                    // Small inputs get small tables: a few words per byte.
                    assert!(
                        scratch <= 256 + 48 * total_in,
                        "{n} x {len} B, budget {max_size}: {scratch} B of scratch"
                    );
                }
            }
        }
        // The managed service's shape: 16 KiB out of at most 4 MiB in.
        assert_eq!(scratch_bytes(4 << 20, 0, 16 << 10), (1 << 20) + (256 << 10));
    }

    /// A corpus deck split into what the trainer sees and what is
    /// compressed with the result.
    struct Deck {
        name: &'static str,
        samples: Vec<Vec<u8>>,
        held_out: Vec<Vec<u8>>,
    }

    /// The corpus decks the service trains on.
    fn decks(seed: u64) -> Vec<Deck> {
        use corpus::cache::{cache1_profile, generate_items};
        use corpus::orc::generate_blocks;
        use corpus::sst::generate_sst;
        let mut out = Vec::new();
        let items = generate_items(&cache1_profile(), 4000, seed);
        for type_id in [0, 3] {
            let mut of_type: Vec<Vec<u8>> = items
                .iter()
                .filter(|i| i.type_id == type_id)
                .map(|i| i.data.clone())
                .collect();
            let held_out = of_type.split_off(64);
            out.push(Deck {
                name: "cache1",
                samples: of_type,
                held_out,
            });
        }
        let mut sst: Vec<Vec<u8>> = generate_sst(1536 << 10, seed)
            .chunks_exact(16 << 10)
            .map(<[u8]>::to_vec)
            .collect();
        let held_out = sst.split_off(64);
        out.push(Deck {
            name: "sst",
            samples: sst,
            held_out,
        });
        // 64 KiB windows of 256 KiB blocks, as the managed reservoir
        // keeps them; the blocks after them are held out whole.
        let mut orc = generate_blocks(12 * (256 << 10), seed);
        orc.retain(|b| b.len() == 256 << 10);
        let held_out = orc.split_off(8);
        let windows = orc
            .iter()
            .enumerate()
            .flat_map(|(i, b)| {
                [0, 2].map(|k| {
                    let at = (i % 2 + k) * (64 << 10);
                    b[at..at + (64 << 10)].to_vec()
                })
            })
            .collect();
        out.push(Deck {
            name: "orc",
            samples: windows,
            held_out,
        });
        out
    }

    #[test]
    fn dictionaries_compress_held_out_payloads_as_well_as_the_oracles() {
        let c = Zstdx::new(3);
        let compressed = |dict: &Dictionary, payloads: &[Vec<u8>]| -> usize {
            payloads
                .iter()
                .map(|p| c.compress_with_dict(p, dict).len())
                .sum()
        };
        for seed in SEEDS {
            for deck in decks(seed) {
                assert!(deck.held_out.len() >= 4, "{}/{seed}", deck.name);
                let samples = refs(&deck.samples);
                let ours = compressed(&train(&samples, 16 << 10, 1), &deck.held_out);
                let theirs = compressed(&oracle::train(&samples, 16 << 10, 1), &deck.held_out);
                assert!(
                    ours as f64 <= theirs as f64 * 1.005,
                    "{} seed {seed}: {ours} B against the oracle's {theirs} B",
                    deck.name
                );
            }
        }
    }

    #[test]
    fn training_is_deterministic() {
        let samples = typed_samples(50);
        let refs: Vec<&[u8]> = samples.iter().map(|v| v.as_slice()).collect();
        let d1 = train(&refs, 2048, 9);
        let d2 = train(&refs, 2048, 9);
        assert_eq!(d1, d2);
        assert!(d1.len() <= 2048);
        assert!(!d1.is_empty());
    }

    #[test]
    fn trained_dict_improves_small_item_ratio() {
        let samples = typed_samples(200);
        let refs: Vec<&[u8]> = samples.iter().map(|v| v.as_slice()).collect();
        let dict = train(&refs[..100], 4096, 1);
        let c = Zstdx::new(3);
        let mut plain = 0usize;
        let mut with_dict = 0usize;
        for s in &refs[100..] {
            plain += c.compress(s).len();
            let enc = c.compress_with_dict(s, &dict);
            assert_eq!(c.decompress_with_dict(&enc, &dict).unwrap(), *s);
            with_dict += enc.len();
        }
        assert!(
            (with_dict as f64) < plain as f64 * 0.8,
            "dict {with_dict} should be well below plain {plain}"
        );
    }

    #[test]
    fn equality_ignores_the_index_and_clones_share_it() {
        let content = typed_samples(40).concat();
        let a = Dictionary::new(content.clone(), 5);
        let b = Dictionary::new(content.clone(), 5);
        assert_eq!(a.index_bytes(), 0, "nothing is built up front");
        let shared = a.clone();
        Zstdx::new(3).compress_with_dict(b"{\"schema\":\"cache.item.v2\"}", &a);
        assert!(a.index_bytes() > 0, "the first compress builds the index");
        assert_eq!(shared.index_bytes(), a.index_bytes(), "clones share it");
        assert_eq!(b.index_bytes(), 0);
        assert_eq!(a, b, "an indexed dictionary equals its unindexed twin");
        assert_ne!(a, Dictionary::new(content.clone(), 6));
        assert_ne!(a, Dictionary::new(content[1..].to_vec(), 5));
        // A clone taken after the build shares it too, and releasing
        // one handle leaves the others'.
        let mut late = a.clone();
        assert_eq!(late.index_bytes(), a.index_bytes());
        late.release_index();
        assert_eq!(late.index_bytes(), 0);
        assert!(a.index_bytes() > 0);
        assert_eq!(late, a);
    }

    #[test]
    fn decoding_and_rebinding_never_build_an_index() {
        let content = typed_samples(40).concat();
        let dict = Dictionary::new(content, 5);
        let c = Zstdx::new(3);
        let msg = typed_samples(41).pop().unwrap();
        let frame = c.compress_with_dict(&msg, &dict);
        // The managed decode-retry path: same content under another id.
        let rebound = Dictionary::new(dict.as_bytes().to_vec(), 5);
        assert_eq!(c.decompress_with_dict(&frame, &rebound).unwrap(), msg);
        assert_eq!(rebound.index_bytes(), 0);
        let mut released = dict.clone();
        released.release_index();
        assert_eq!(c.decompress_with_dict(&frame, &released).unwrap(), msg);
        assert_eq!(released.index_bytes(), 0);
    }

    #[test]
    fn empty_and_tiny_samples() {
        let d = train(&[], 1024, 0);
        assert!(d.is_empty());
        let d = train(&[&b"ab"[..]], 1024, 0);
        assert!(d.is_empty());
    }

    #[test]
    fn respects_max_size() {
        let samples = typed_samples(500);
        let refs: Vec<&[u8]> = samples.iter().map(|v| v.as_slice()).collect();
        for max in [64usize, 256, 1024, 16384] {
            assert!(train(&refs, max, 0).len() <= max);
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::tests::is_made_of_segments;
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any sample set, any budget: the same dictionary twice, inside
        /// the budget, and nothing in it that is not a segment of a sample.
        #[test]
        fn output_is_bounded_deterministic_and_cut_from_the_samples(
            samples in proptest::collection::vec(
                proptest::collection::vec(0u8..4, 0..400), 0..12),
            max_size in 0usize..1500,
        ) {
            let samples: Vec<&[u8]> = samples.iter().map(Vec::as_slice).collect();
            let dict = train(&samples, max_size, 7);
            prop_assert_eq!(&dict, &train(&samples, max_size, 7));
            prop_assert!(dict.len() <= max_size);
            prop_assert!(is_made_of_segments(dict.as_bytes(), &samples));
            let usable = samples.iter().any(|s| s.len() >= KMER);
            prop_assert_eq!(dict.is_empty(), !usable || max_size == 0);
        }
    }
}
