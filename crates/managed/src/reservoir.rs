//! Reservoir sampling of compression inputs.
//!
//! The service cannot retain all traffic; a classic Algorithm-R
//! reservoir keeps a uniform sample of everything seen so far, which is
//! what dictionary training consumes. It is bounded in bytes as well as
//! in items: of a payload longer than the window it keeps one window's
//! worth, so what a retrain reads does not grow with the payload size.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fixed-capacity uniform sample over a stream of byte payloads.
#[derive(Debug, Clone)]
pub struct Reservoir {
    samples: Vec<Vec<u8>>,
    capacity: usize,
    window: usize,
    seen: u64,
    rng: StdRng,
}

impl Reservoir {
    /// Creates a reservoir holding at most `capacity` samples of at most
    /// `window` bytes each.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub fn new(capacity: usize, window: usize, seed: u64) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        Self {
            samples: Vec::with_capacity(capacity),
            capacity,
            window,
            seen: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Offers one payload to the reservoir (Algorithm R). A replaced
    /// slot is overwritten in place, keeping its allocation.
    pub fn offer(&mut self, payload: &[u8]) {
        self.seen += 1;
        if self.samples.len() < self.capacity {
            let kept = window_of(&mut self.rng, self.window, payload);
            self.samples.push(kept.to_vec());
        } else {
            let j = self.rng.gen_range(0..self.seen);
            if let Some(slot) = self.samples.get_mut(j as usize) {
                slot.clear();
                slot.extend_from_slice(window_of(&mut self.rng, self.window, payload));
            }
        }
    }

    /// The retained samples.
    pub fn samples(&self) -> &[Vec<u8>] {
        &self.samples
    }

    /// Bytes held across the retained samples: at most `capacity`
    /// windows.
    pub fn bytes(&self) -> usize {
        self.samples.iter().map(Vec::len).sum()
    }

    /// Total payloads offered so far.
    #[cfg(test)]
    fn seen(&self) -> u64 {
        self.seen
    }

    /// Whether the reservoir holds enough content to train from.
    pub fn is_warm(&self) -> bool {
        self.samples.len() >= self.capacity.min(8)
    }
}

/// The part of `payload` a slot keeps: all of it up to `window` bytes,
/// else one window at a random offset. The offset is drawn only for a
/// longer payload, so a stream of short ones samples exactly as an
/// unbounded reservoir would.
// indexing_slicing: `at` is drawn from `0..=len - window`.
#[allow(clippy::indexing_slicing)]
fn window_of<'a>(rng: &mut StdRng, window: usize, payload: &'a [u8]) -> &'a [u8] {
    if payload.len() <= window {
        return payload;
    }
    let at = rng.gen_range(0..=payload.len() - window);
    &payload[at..at + window]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A seeded stream of payloads whose lengths cycle through `lens`.
    fn stream(lens: &[usize], n: usize, seed: u64) -> Vec<Vec<u8>> {
        use rand::RngCore;
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let mut payload = vec![0; lens[i % lens.len()]];
                rng.fill_bytes(&mut payload);
                payload
            })
            .collect()
    }

    /// Digest of the retained samples, lengths included.
    fn digest(r: &Reservoir) -> u64 {
        let mut buf = Vec::new();
        for s in r.samples() {
            buf.extend_from_slice(&(s.len() as u64).to_le_bytes());
            buf.extend_from_slice(s);
        }
        codecs::xxhash::xxh64(&buf, 0)
    }

    fn filled(capacity: usize, window: usize, seed: u64, payloads: &[Vec<u8>]) -> Reservoir {
        let mut r = Reservoir::new(capacity, window, seed);
        for p in payloads {
            r.offer(p);
        }
        r
    }

    /// The digests were computed with the unbounded reservoir of the
    /// commit before the window existed: payloads that fit the window
    /// draw nothing extra from the rng, so the same slots hold the same
    /// bytes.
    #[test]
    fn payloads_within_the_window_sample_as_they_always_did() {
        const WINDOW: usize = 64 << 10;
        let cache_like = stream(&[40, 900, 260, 77, 512, 1500], 2000, 7);
        let r = filled(64, WINDOW, 0x4d43, &cache_like);
        assert_eq!(digest(&r), 0xac0a_1699_8f27_7210);
        assert!(r.samples().iter().all(|s| cache_like.contains(s)));
        let blocks = stream(&[16 << 10], 300, 9);
        let r = filled(64, WINDOW, 0x4d43, &blocks);
        assert_eq!(digest(&r), 0xede1_51ed_93a8_f7e8);
        // A payload of exactly the window is still stored whole.
        let r = filled(64, 16 << 10, 0x4d43, &blocks);
        assert_eq!(digest(&r), 0xede1_51ed_93a8_f7e8);
    }

    #[test]
    fn long_payloads_keep_one_window_each_and_windows_replay_per_seed() {
        const WINDOW: usize = 64 << 10;
        let blocks = stream(&[256 << 10], 150, 11);
        let mut r = Reservoir::new(64, WINDOW, 5);
        for (i, block) in blocks.iter().enumerate() {
            r.offer(block);
            assert!(r.bytes() <= 64 * WINDOW);
            assert_eq!(r.bytes(), r.samples().len() * WINDOW, "after offer {i}");
        }
        // Same seed, same windows; another seed, other windows.
        assert_eq!(digest(&r), digest(&filled(64, WINDOW, 5, &blocks)));
        assert_ne!(digest(&r), digest(&filled(64, WINDOW, 6, &blocks)));
    }

    #[test]
    fn a_window_is_a_verbatim_slice_at_a_drawn_offset() {
        const WINDOW: usize = 256;
        let blocks = stream(&[1024], 200, 13);
        let r = filled(16, WINDOW, 5, &blocks);
        let offsets: Vec<usize> = r
            .samples()
            .iter()
            .map(|s| {
                blocks
                    .iter()
                    .find_map(|b| b.windows(WINDOW).position(|w| w == s.as_slice()))
                    .expect("a sample is a window of a payload")
            })
            .collect();
        assert!(offsets.iter().any(|&at| at != offsets[0]), "{offsets:?}");
        assert!(
            offsets.iter().any(|&at| at > 1024 - 2 * WINDOW),
            "{offsets:?}"
        );
    }

    #[test]
    fn replaced_slots_keep_their_allocation() {
        let blocks = stream(&[4096], 400, 3);
        let mut r = Reservoir::new(8, usize::MAX, 1);
        for b in &blocks[..8] {
            r.offer(b);
        }
        let before: Vec<*const u8> = r.samples().iter().map(|s| s.as_ptr()).collect();
        let first = digest(&r);
        for b in &blocks[8..] {
            r.offer(b);
        }
        assert_ne!(digest(&r), first, "later payloads replaced earlier ones");
        let after: Vec<*const u8> = r.samples().iter().map(|s| s.as_ptr()).collect();
        assert_eq!(
            before, after,
            "same-size replacements reuse the slot's buffer"
        );
    }

    #[test]
    fn fills_then_replaces() {
        let mut r = Reservoir::new(4, usize::MAX, 1);
        for i in 0..100u32 {
            r.offer(&i.to_le_bytes());
        }
        assert_eq!(r.samples().len(), 4);
        assert_eq!(r.seen(), 100);
        // With 100 offers, at least one late element should have landed.
        assert!(
            r.samples()
                .iter()
                .any(|s| u32::from_le_bytes(s[..4].try_into().unwrap()) >= 4),
            "reservoir never replaced an early sample"
        );
    }

    #[test]
    fn uniformity_rough_check() {
        // Each of 50 items should appear with probability 10/50; over
        // many independent reservoirs, early and late items appear
        // comparably often.
        let mut early = 0u32;
        let mut late = 0u32;
        for seed in 0..300 {
            let mut r = Reservoir::new(10, usize::MAX, seed);
            for i in 0..50u32 {
                r.offer(&i.to_le_bytes());
            }
            for s in r.samples() {
                let v = u32::from_le_bytes(s[..4].try_into().unwrap());
                if v < 25 {
                    early += 1;
                } else {
                    late += 1;
                }
            }
        }
        let ratio = early as f64 / late as f64;
        assert!((0.8..1.25).contains(&ratio), "early/late ratio {ratio}");
    }

    #[test]
    fn warmness() {
        let mut r = Reservoir::new(100, usize::MAX, 2);
        assert!(!r.is_warm());
        for i in 0..8u32 {
            r.offer(&i.to_le_bytes());
        }
        assert!(r.is_warm());
    }
}
