//! Memory-page workloads (far-memory / cold-page compression).
//!
//! The paper's introduction lists "reducing the memory total cost of
//! ownership (TCO) by proactively compressing cold memory pages" among
//! the fleet's compression uses (citing software-defined far memory and
//! TMO). Pages are 4 KiB and their compressibility is bimodal: many are
//! zero/near-zero, many are pointer-and-small-integer heap pages, some
//! are incompressible (already-compressed or media content).

use rand::Rng;

use crate::rng;

/// Page size, bytes.
pub const PAGE_SIZE: usize = 4096;

/// The content class of a synthetic page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageClass {
    /// All zeros (untouched or madvised).
    Zero,
    /// Heap objects: small integers, repeated pointers, slack space.
    Heap,
    /// Text/metadata strings.
    Text,
    /// High-entropy (compressed media, ciphertext).
    Random,
}

/// Per-class mix of a cold-page population. Fractions must sum to 1.
#[derive(Debug, Clone, Copy)]
pub struct PageMix {
    /// Fraction of zero pages.
    pub zero: f64,
    /// Fraction of heap pages.
    pub heap: f64,
    /// Fraction of text pages.
    pub text: f64,
    /// Fraction of random pages.
    pub random: f64,
}

impl PageMix {
    /// A cold-memory mix in the spirit of published far-memory studies:
    /// mostly heap, a solid zero fraction, some text, a random tail.
    pub fn cold_memory() -> Self {
        Self {
            zero: 0.2,
            heap: 0.5,
            text: 0.2,
            random: 0.1,
        }
    }
}

/// Generates one page of the given class.
fn generate_page(class: PageClass, seed: u64) -> Vec<u8> {
    let mut r = rng(seed ^ 0x9a9e);
    let mut page = vec![0u8; PAGE_SIZE];
    match class {
        PageClass::Zero => {}
        PageClass::Heap => {
            // 16-byte "objects": a plausible pointer, a small int, slack.
            let heap_base: u64 = 0x7f3a_0000_0000 + (r.gen_range(0..0x1000u64) << 12);
            let mut off = 0;
            while off + 16 <= PAGE_SIZE {
                let ptr = heap_base + r.gen_range(0..0x40000u64) * 8;
                page[off..off + 8].copy_from_slice(&ptr.to_le_bytes());
                let small: u32 = if r.gen_bool(0.6) {
                    r.gen_range(0..256)
                } else {
                    r.gen()
                };
                page[off + 8..off + 12].copy_from_slice(&small.to_le_bytes());
                // 4 bytes of slack stay zero.
                off += 16;
            }
        }
        PageClass::Text => {
            let text = crate::silesia::generate(crate::silesia::FileClass::Text, PAGE_SIZE, seed);
            page.copy_from_slice(&text);
        }
        PageClass::Random => {
            r.fill(&mut page[..]);
        }
    }
    page
}

/// Generates `n` pages drawn from `mix`, with their classes.
pub fn generate_pages(mix: &PageMix, n: usize, seed: u64) -> Vec<(PageClass, Vec<u8>)> {
    let mut r = rng(seed);
    (0..n)
        .map(|i| {
            let u: f64 = r.gen();
            let class = if u < mix.zero {
                PageClass::Zero
            } else if u < mix.zero + mix.heap {
                PageClass::Heap
            } else if u < mix.zero + mix.heap + mix.text {
                PageClass::Text
            } else {
                PageClass::Random
            };
            (
                class,
                generate_page(class, seed.wrapping_add(i as u64 * 131)),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_are_page_sized_and_deterministic() {
        for class in [
            PageClass::Zero,
            PageClass::Heap,
            PageClass::Text,
            PageClass::Random,
        ] {
            let p = generate_page(class, 9);
            assert_eq!(p.len(), PAGE_SIZE);
            assert_eq!(p, generate_page(class, 9));
        }
    }

    #[test]
    fn classes_span_compressibility() {
        let zero = generate_page(PageClass::Zero, 1);
        assert!(zero.iter().all(|&b| b == 0));
        let heap = generate_page(PageClass::Heap, 1);
        let heap_zeros = heap.iter().filter(|&&b| b == 0).count();
        assert!(
            heap_zeros > PAGE_SIZE / 4,
            "heap pages carry slack zeros: {heap_zeros}"
        );
        let random = generate_page(PageClass::Random, 1);
        let rand_zeros = random.iter().filter(|&&b| b == 0).count();
        assert!(
            rand_zeros < PAGE_SIZE / 32,
            "random pages have no structure"
        );
    }

    #[test]
    fn mix_fractions_respected() {
        let mix = PageMix::cold_memory();
        let pages = generate_pages(&mix, 4000, 3);
        let frac = |c: PageClass| {
            pages.iter().filter(|(pc, _)| *pc == c).count() as f64 / pages.len() as f64
        };
        assert!((frac(PageClass::Zero) - mix.zero).abs() < 0.05);
        assert!((frac(PageClass::Heap) - mix.heap).abs() < 0.05);
        assert!((frac(PageClass::Random) - mix.random).abs() < 0.05);
    }
}
