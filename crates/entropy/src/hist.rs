//! Symbol histograms and power-of-two count normalization.
//!
//! FSE requires symbol frequencies normalized so they sum to an exact
//! power of two (`1 << table_log`) with every present symbol keeping at
//! least one slot. [`normalize_counts`] implements a largest-remainder
//! normalization with that guarantee, mirroring the role of
//! `FSE_normalizeCount` in the reference implementation.

use crate::{Error, Result};

/// Counts occurrences of each byte value in `data`.
///
/// # Example
///
/// ```
/// let h = entropy::hist::byte_histogram(b"aab");
/// assert_eq!(h[b'a' as usize], 2);
/// assert_eq!(h[b'b' as usize], 1);
/// ```
// indexing_slicing: `h` has exactly 256 slots and `b as usize` is a
// `u8` widened, so the index is always < 256.
#[allow(clippy::indexing_slicing)]
pub fn byte_histogram(data: &[u8]) -> [u32; 256] {
    let mut h = [0u32; 256];
    for &b in data {
        h[b as usize] += 1;
    }
    h
}

/// Counts occurrences of each symbol in `symbols`, where symbols are drawn
/// from `0..alphabet_size`.
///
/// # Panics
///
/// Panics if any symbol is `>= alphabet_size`.
// indexing_slicing: panicking on an out-of-alphabet symbol is this
// function's documented contract (encode-side input validation).
#[allow(clippy::indexing_slicing)]
pub fn symbol_histogram(symbols: &[u16], alphabet_size: usize) -> Vec<u32> {
    let mut h = vec![0u32; alphabet_size];
    for &s in symbols {
        h[s as usize] += 1;
    }
    h
}

/// Number of distinct symbols with non-zero count.
pub fn cardinality(freqs: &[u32]) -> usize {
    freqs.iter().filter(|&&c| c > 0).count()
}

/// Shannon entropy of the histogram, in bits per symbol.
///
/// Returns 0.0 for empty histograms.
pub fn shannon_entropy(freqs: &[u32]) -> f64 {
    let total: u64 = freqs.iter().map(|&c| c as u64).sum();
    if total == 0 {
        return 0.0;
    }
    let total_f = total as f64;
    freqs
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / total_f;
            -p * p.log2()
        })
        .sum()
}

/// Normalizes `freqs` so the counts sum to exactly `1 << table_log`.
///
/// Every symbol with a non-zero input count receives at least one slot.
/// Slots are apportioned proportionally and the remainder is distributed
/// to the symbols with the largest fractional parts (largest-remainder
/// method), falling back to shaving the biggest holders when the minimum-
/// one-slot rule forces an overshoot.
///
/// # Errors
///
/// * [`Error::InvalidParameter`] if `table_log` is outside `5..=15` or the
///   histogram is empty.
/// * [`Error::InvalidParameter`] if the alphabet has more present symbols
///   than `1 << table_log` slots.
// indexing_slicing: encode-side table construction. `norm` is sized
// `freqs.len()` and every index into `norm`/`freqs` comes from
// enumerating those same slices; `remainders[k % remainders.len()]` is
// only reached when `deficit > 0`, which requires at least one present
// symbol and hence a non-empty `remainders`.
#[allow(clippy::indexing_slicing)]
pub fn normalize_counts(freqs: &[u32], table_log: u32) -> Result<Vec<u32>> {
    if !(5..=15).contains(&table_log) {
        return Err(Error::InvalidParameter("table_log must be in 5..=15"));
    }
    let table_size = 1u64 << table_log;
    let total: u64 = freqs.iter().map(|&c| c as u64).sum();
    if total == 0 {
        return Err(Error::InvalidParameter("cannot normalize empty histogram"));
    }
    let present = cardinality(freqs) as u64;
    if present > table_size {
        return Err(Error::InvalidParameter("alphabet larger than FSE table"));
    }

    let mut norm = vec![0u32; freqs.len()];
    // Fractional apportionment: ideal share is count * table_size / total.
    let mut assigned: u64 = 0;
    let mut remainders: Vec<(u64, usize)> = Vec::new();
    for (i, &c) in freqs.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let scaled = (c as u64) * table_size;
        let share = (scaled / total).max(1);
        let rem = scaled % total;
        norm[i] = share as u32;
        assigned += share;
        remainders.push((rem, i));
    }

    use std::cmp::Ordering;
    match assigned.cmp(&table_size) {
        Ordering::Equal => {}
        Ordering::Less => {
            // Hand extra slots to the largest fractional remainders,
            // breaking ties toward the most frequent symbol.
            let mut deficit = (table_size - assigned) as usize;
            remainders.sort_by(|a, b| b.0.cmp(&a.0).then(freqs[b.1].cmp(&freqs[a.1])));
            let mut k = 0;
            while deficit > 0 {
                let (_, i) = remainders[k % remainders.len()];
                norm[i] += 1;
                deficit -= 1;
                k += 1;
            }
        }
        Ordering::Greater => {
            // Minimum-one-slot rule overshot: shave the biggest holders.
            let mut excess = assigned - table_size;
            while excess > 0 {
                let i = norm
                    .iter()
                    .enumerate()
                    .filter(|&(_, &n)| n > 1)
                    .max_by_key(|&(_, &n)| n)
                    .map(|(i, _)| i)
                    .ok_or(Error::InvalidParameter("cannot shave normalized counts"))?;
                let take = ((norm[i] - 1) as u64).min(excess);
                norm[i] -= take as u32;
                excess -= take;
            }
        }
    }

    debug_assert_eq!(norm.iter().map(|&n| n as u64).sum::<u64>(), table_size);
    Ok(norm)
}

/// Picks a reasonable FSE table log for `n_symbols` of data over an
/// alphabet with `cardinality` present symbols.
///
/// Mirrors the heuristic role of `FSE_optimalTableLog`: small inputs get
/// small tables (which is also the mechanism behind the paper's
/// observation in Section IV-E that Zstd shrinks its tables for small
/// inputs).
pub fn optimal_table_log(max_log: u32, n_symbols: usize, cardinality: usize) -> u32 {
    let mut log = max_log;
    // No point making the table bigger than the input.
    let input_log = (n_symbols.max(2) as f64).log2().ceil() as u32;
    log = log.min(input_log.saturating_sub(2).max(5));
    // Must at least fit every present symbol.
    let min_log = (cardinality.max(2) as f64).log2().ceil() as u32;
    log = log.max(min_log).max(5);
    log.min(15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts() {
        let h = byte_histogram(b"hello");
        assert_eq!(h[b'l' as usize], 2);
        assert_eq!(h[b'h' as usize], 1);
        assert_eq!(cardinality(&h), 4);
    }

    #[test]
    fn entropy_bounds() {
        // Uniform over 256 symbols -> 8 bits.
        let h = [1u32; 256];
        assert!((shannon_entropy(&h) - 8.0).abs() < 1e-9);
        // Single symbol -> 0 bits.
        let mut h = [0u32; 256];
        h[42] = 100;
        assert_eq!(shannon_entropy(&h), 0.0);
        // Empty -> 0 bits.
        assert_eq!(shannon_entropy(&[0u32; 8]), 0.0);
    }

    #[test]
    fn normalize_sums_to_table_size() {
        let mut freqs = vec![0u32; 16];
        freqs[0] = 1000;
        freqs[1] = 300;
        freqs[2] = 7;
        freqs[3] = 1;
        let norm = normalize_counts(&freqs, 8).unwrap();
        assert_eq!(norm.iter().map(|&n| n as u64).sum::<u64>(), 256);
        // Present symbols keep at least one slot.
        assert!(norm[2] >= 1);
        assert!(norm[3] >= 1);
        // Proportions roughly respected.
        assert!(norm[0] > norm[1]);
        assert!(norm[1] > norm[2]);
    }

    #[test]
    fn normalize_many_rare_symbols() {
        // 64 symbols, each count 1, table of 64: exactly one slot each.
        let freqs = vec![1u32; 64];
        let norm = normalize_counts(&freqs, 6).unwrap();
        assert!(norm.iter().all(|&n| n == 1));
    }

    #[test]
    fn normalize_overshoot_shaves() {
        // 31 rare symbols + 1 huge one in a 32-slot table: rare symbols
        // each get forced to 1 slot, big symbol must end with exactly 1.
        let mut freqs = vec![1u32; 32];
        freqs[0] = 1_000_000;
        let norm = normalize_counts(&freqs, 5).unwrap();
        assert_eq!(norm.iter().map(|&n| n as u64).sum::<u64>(), 32);
        assert!(norm.iter().all(|&n| n >= 1));
    }

    #[test]
    fn normalize_rejects_bad_params() {
        assert!(normalize_counts(&[1, 1], 4).is_err());
        assert!(normalize_counts(&[1, 1], 16).is_err());
        assert!(normalize_counts(&[0, 0], 8).is_err());
        let too_many = vec![1u32; 40];
        assert!(normalize_counts(&too_many, 5).is_err());
    }

    #[test]
    fn optimal_log_shrinks_for_small_inputs() {
        let small = optimal_table_log(11, 64, 16);
        let large = optimal_table_log(11, 1 << 20, 16);
        assert!(small < large);
        assert_eq!(large, 11);
        assert!(small >= 5);
    }

    #[test]
    fn optimal_log_fits_alphabet() {
        assert!(optimal_table_log(11, 32, 200) >= 8);
    }
}
