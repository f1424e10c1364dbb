//! XXH64 — the non-cryptographic checksum zstd frames carry.
//!
//! Implemented from the xxHash specification; a checksummed frame of any
//! codec ends in the low 32 bits of the content digest (as real zstd
//! frames do) so decoders detect corruption that happens to parse.

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline]
fn merge_round(h: u64, v: u64) -> u64 {
    (h ^ round(0, v)).wrapping_mul(P1).wrapping_add(P4)
}

// indexing_slicing: every caller checks `b.len() >= 8` first (the loop
// conditions in `xxh64`).
#[allow(clippy::indexing_slicing)]
#[inline]
fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

// indexing_slicing: every caller checks `b.len() >= 4` first.
#[allow(clippy::indexing_slicing)]
#[inline]
fn read_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("4 bytes"))
}

/// Computes the XXH64 digest of `data` with `seed`.
// indexing_slicing: each `rest[k..]` advance sits behind the matching
// `rest.len() >= 32/8/4` loop or branch condition.
#[allow(clippy::indexing_slicing)]
pub fn xxh64(data: &[u8], seed: u64) -> u64 {
    let len = data.len();
    let mut rest = data;
    let mut h: u64;

    if len >= 32 {
        let mut v1 = seed.wrapping_add(P1).wrapping_add(P2);
        let mut v2 = seed.wrapping_add(P2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(P1);
        while rest.len() >= 32 {
            v1 = round(v1, read_u64(&rest[0..]));
            v2 = round(v2, read_u64(&rest[8..]));
            v3 = round(v3, read_u64(&rest[16..]));
            v4 = round(v4, read_u64(&rest[24..]));
            rest = &rest[32..];
        }
        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = merge_round(h, v1);
        h = merge_round(h, v2);
        h = merge_round(h, v3);
        h = merge_round(h, v4);
    } else {
        h = seed.wrapping_add(P5);
    }

    h = h.wrapping_add(len as u64);
    while rest.len() >= 8 {
        h = (h ^ round(0, read_u64(rest)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        h = (h ^ u64::from(read_u32(rest)).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }

    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^= h >> 32;
    h
}

/// The low 32 bits of the seed-0 digest — what zstdx frames store.
pub fn content_checksum(data: &[u8]) -> u32 {
    xxh64(data, 0) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Reference values from the xxHash specification test suite.
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
    }

    #[test]
    fn seed_changes_digest() {
        assert_ne!(xxh64(b"hello world", 0), xxh64(b"hello world", 1));
    }

    #[test]
    fn covers_all_length_branches() {
        // <4, 4..8, 8..32, >=32, and stripe remainders all distinct.
        let data: Vec<u8> = (0..100u8).collect();
        let mut digests = std::collections::HashSet::new();
        for n in [0usize, 1, 3, 4, 7, 8, 15, 31, 32, 33, 63, 64, 100] {
            assert!(digests.insert(xxh64(&data[..n], 0)), "collision at len {n}");
        }
    }

    #[test]
    fn single_bit_flips_change_digest() {
        let base: Vec<u8> = (0..64u8).collect();
        let h0 = xxh64(&base, 0);
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] ^= 1;
            assert_ne!(xxh64(&flipped, 0), h0, "bit flip at byte {i} undetected");
        }
    }
}
