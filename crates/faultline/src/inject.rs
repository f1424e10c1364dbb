//! Seed-driven corruption injectors.
//!
//! Every injector is a pure function of `(frame, rng stream, budget)`:
//! the same seed always yields byte-identical corrupted variants, so a
//! failing sweep case can be replayed from its `(seed, injector, codec,
//! block)` coordinates alone.

use crate::rng::Rng;

/// Maximum header prefix (bytes) targeted by header-focused injectors.
/// Covers every datacomp frame header: zstdx's 4-byte magic, flag
/// byte, content-size varint and 4-byte dictionary id (at most 14
/// bytes), and lz4x's and zlibx's 2-byte magic, whose second byte holds
/// the flags, and content-size varint.
const HEADER_WINDOW: usize = 24;

/// A corruption strategy over an encoded frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injector {
    /// Flips `flips` randomly chosen bits anywhere in the frame.
    BitFlip {
        /// Number of bits flipped per variant (1 = single-event upset).
        flips: u32,
    },
    /// Cuts the frame at byte boundaries: every boundary when the frame
    /// is small enough, otherwise the full header window plus evenly
    /// spaced interior boundaries up to the budget.
    Truncate,
    /// Overwrites a window of the frame with bytes copied from a
    /// different offset of the same frame (models misdirected DMA /
    /// cross-frame buffer reuse).
    Splice,
    /// Saturates bytes in the header window to `0xff`, inflating
    /// length/size fields (models a length-field attack on allocation).
    LengthInflate,
    /// Perturbs the dictionary-id region of the header (models rollout
    /// skew where a frame meets the wrong dictionary generation).
    DictSkew,
}

impl Injector {
    /// All injectors in sweep order.
    pub const ALL: [Injector; 6] = [
        Injector::BitFlip { flips: 1 },
        Injector::BitFlip { flips: 8 },
        Injector::Truncate,
        Injector::Splice,
        Injector::LengthInflate,
        Injector::DictSkew,
    ];

    /// Stable name used in reports and on the CLI.
    pub fn name(&self) -> &'static str {
        match self {
            Injector::BitFlip { flips: 1 } => "bitflip",
            Injector::BitFlip { .. } => "multiflip",
            Injector::Truncate => "truncate",
            Injector::Splice => "splice",
            Injector::LengthInflate => "length-inflate",
            Injector::DictSkew => "dict-skew",
        }
    }

    /// Parses a name produced by [`Injector::name`].
    pub fn from_name(s: &str) -> Option<Injector> {
        match s {
            "bitflip" => Some(Injector::BitFlip { flips: 1 }),
            "multiflip" => Some(Injector::BitFlip { flips: 8 }),
            "truncate" => Some(Injector::Truncate),
            "splice" => Some(Injector::Splice),
            "length-inflate" => Some(Injector::LengthInflate),
            "dict-skew" => Some(Injector::DictSkew),
            _ => None,
        }
    }

    /// Generates up to `budget` corrupted variants of `frame`,
    /// deterministically from `rng`'s stream. Variants identical to the
    /// input are dropped (nothing was corrupted, so the decode contract
    /// has nothing to say about them).
    pub fn corrupt(&self, frame: &[u8], rng: &Rng, budget: usize) -> Vec<Vec<u8>> {
        let mut out = match self {
            Injector::BitFlip { flips } => bit_flips(frame, rng, budget, *flips),
            Injector::Truncate => truncations(frame, budget),
            Injector::Splice => splices(frame, rng, budget),
            Injector::LengthInflate => length_inflations(frame, budget),
            Injector::DictSkew => dict_skews(frame, rng, budget),
        };
        out.retain(|v| v.as_slice() != frame);
        out
    }
}

impl std::fmt::Display for Injector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// indexing_slicing: `bit < buf.len() * 8`, so `bit / 8 < buf.len()`.
#[allow(clippy::indexing_slicing)]
fn bit_flips(frame: &[u8], rng: &Rng, budget: usize, flips: u32) -> Vec<Vec<u8>> {
    if frame.is_empty() {
        return Vec::new();
    }
    (0..budget)
        .map(|v| {
            let mut r = rng.derive(v as u64);
            let mut buf = frame.to_vec();
            for _ in 0..flips {
                let bit = r.gen_range(buf.len() * 8);
                buf[bit / 8] ^= 1 << (bit % 8);
            }
            buf
        })
        .collect()
}

// indexing_slicing: every cut is clamped to `< n == frame.len()`.
#[allow(clippy::indexing_slicing)]
fn truncations(frame: &[u8], budget: usize) -> Vec<Vec<u8>> {
    // Boundaries 0..frame.len()-1; the full frame is not a truncation.
    let n = frame.len();
    if n == 0 {
        return Vec::new();
    }
    let cuts: Vec<usize> = if n <= budget {
        (0..n).collect()
    } else {
        // Every header boundary, then evenly spaced interior cuts.
        let head = HEADER_WINDOW.min(n).min(budget);
        let rest = budget - head;
        let mut c: Vec<usize> = (0..head).collect();
        for i in 0..rest {
            // Spread over (head, n) exclusive of both ends.
            let cut = head + 1 + (i * (n - head - 1)) / rest.max(1);
            c.push(cut.min(n - 1));
        }
        c.dedup();
        c
    };
    cuts.into_iter().map(|k| frame[..k].to_vec()).collect()
}

// indexing_slicing: `len <= buf.len()` and both window starts are drawn
// from `0..buf.len() - len + 1`, so `src + len`/`dst + len` are
// in-bounds.
#[allow(clippy::indexing_slicing)]
fn splices(frame: &[u8], rng: &Rng, budget: usize) -> Vec<Vec<u8>> {
    if frame.len() < 2 {
        return Vec::new();
    }
    (0..budget)
        .map(|v| {
            let mut r = rng.derive(v as u64);
            let mut buf = frame.to_vec();
            let len = 1 + r.gen_range(32.min(buf.len() - 1));
            let src = r.gen_range(buf.len() - len + 1);
            let dst = r.gen_range(buf.len() - len + 1);
            let window: Vec<u8> = buf[src..src + len].to_vec();
            buf[dst..dst + len].copy_from_slice(&window);
            buf
        })
        .collect()
}

// indexing_slicing: `pos < window <= frame.len()`.
#[allow(clippy::indexing_slicing)]
fn length_inflations(frame: &[u8], budget: usize) -> Vec<Vec<u8>> {
    // One variant per header byte position, saturating it to 0xff. This
    // reliably inflates LEB128 size fields (continuation bit + max
    // payload) and length nibbles.
    let window = HEADER_WINDOW.min(frame.len());
    (0..window.min(budget))
        .map(|pos| {
            let mut buf = frame.to_vec();
            buf[pos] = 0xff;
            buf
        })
        .collect()
}

// indexing_slicing: `pos` is drawn from `lo..hi` with
// `hi <= frame.len()` and `frame.len() > 3 == lo` checked above.
#[allow(clippy::indexing_slicing)]
fn dict_skews(frame: &[u8], rng: &Rng, budget: usize) -> Vec<Vec<u8>> {
    // A zstdx frame's dictionary id follows its 4-byte magic, flag byte
    // and content-size varint; perturb bytes 3.. of the header window
    // with nonzero XORs, which covers the id and what precedes it.
    if frame.len() <= 3 {
        return Vec::new();
    }
    let lo = 3;
    let hi = HEADER_WINDOW.min(frame.len());
    (0..budget)
        .map(|v| {
            let mut r = rng.derive(v as u64);
            let mut buf = frame.to_vec();
            let pos = lo + r.gen_range(hi - lo);
            let mask = (1 + r.gen_range(255)) as u8;
            buf[pos] ^= mask;
            buf
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> Vec<u8> {
        (0u8..=255).cycle().take(1024).collect()
    }

    #[test]
    fn injectors_are_deterministic() {
        let f = frame();
        let rng = Rng::new(0x5157);
        for inj in Injector::ALL {
            let a = inj.corrupt(&f, &rng, 16);
            let b = inj.corrupt(&f, &rng, 16);
            assert_eq!(a, b, "{inj} not deterministic");
            assert!(!a.is_empty(), "{inj} produced no variants");
        }
    }

    #[test]
    fn variants_differ_from_input() {
        let f = frame();
        let rng = Rng::new(1);
        for inj in Injector::ALL {
            for v in inj.corrupt(&f, &rng, 16) {
                assert_ne!(v, f, "{inj} returned an uncorrupted variant");
            }
        }
    }

    #[test]
    fn truncate_covers_every_boundary_when_small() {
        let f: Vec<u8> = (0..10).collect();
        let cuts = Injector::Truncate.corrupt(&f, &Rng::new(0), 64);
        assert_eq!(cuts.len(), 10);
        for (k, v) in cuts.iter().enumerate() {
            assert_eq!(v.len(), k);
        }
    }

    #[test]
    fn truncate_respects_budget_when_large() {
        let f = vec![7u8; 1 << 16];
        let cuts = Injector::Truncate.corrupt(&f, &Rng::new(0), 128);
        assert!(cuts.len() <= 128);
        assert!(cuts.iter().all(|v| v.len() < f.len()));
    }

    #[test]
    fn names_round_trip() {
        for inj in Injector::ALL {
            assert_eq!(Injector::from_name(inj.name()), Some(inj));
        }
        assert_eq!(Injector::from_name("nope"), None);
    }

    #[test]
    fn empty_frame_yields_no_variants() {
        let rng = Rng::new(3);
        for inj in Injector::ALL {
            assert!(inj.corrupt(&[], &rng, 8).is_empty());
        }
    }
}
