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
//! The trainer is a simplified COVER: samples are cut into fixed-size
//! segments, segments are scored by the total frequency of the k-mers
//! they contain (counted across all samples), and the highest-scoring
//! segments are concatenated — most valuable content last, where offsets
//! into it are shortest.

use std::collections::HashMap;
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

/// Trains a dictionary of at most `max_size` bytes from `samples`.
///
/// Deterministic for a given input. Samples shorter than the k-mer width
/// are ignored; if nothing scores, the result is an empty dictionary
/// (which codecs treat as plain history of length zero).
// indexing_slicing: segment ranges are clamped with
// `end = (start + SEGMENT).min(s.len())` before slicing, and
// `seg.sample` is an enumeration index of `samples`.
#[allow(clippy::indexing_slicing)]
pub fn train(samples: &[&[u8]], max_size: usize, id: u32) -> Dictionary {
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
