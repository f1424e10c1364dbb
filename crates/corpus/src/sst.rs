//! SST-block generators (KVSTORE1 / RocksDB stand-ins).
//!
//! "Usually, each SST file is broken into a number of blocks (with a
//! block size of 16KB or 64KB) and compressed in a block granularity."
//! (paper, §IV-E). Keys are sorted with heavy shared prefixes; values
//! are JSON-ish documents — the classic RocksDB workload shape from the
//! paper's reference \[20\].

use rand::Rng;

use crate::{rng, vocabulary, zipf_index};

/// Generates an SST file of roughly `size` bytes: sorted key/value
/// entries, length-prefixed.
pub fn generate_sst(size: usize, seed: u64) -> Vec<u8> {
    let mut r = rng(seed);
    let vocab = vocabulary(120, &mut r);
    let mut out = Vec::with_capacity(size + 256);
    let mut user = 1000u64;
    let mut object = 0u64;
    while out.len() < size {
        // Sorted keys with shared prefixes; occasional user advance.
        if r.gen_bool(0.10) {
            user += r.gen_range(1..5);
            object = 0;
        }
        object += r.gen_range(1..20);
        let key = format!("acct:{user:010}/obj:{object:08}/rev:{}", r.gen_range(0..4));
        let w1 = &vocab[zipf_index(vocab.len(), &mut r)];
        let w2 = &vocab[zipf_index(vocab.len(), &mut r)];
        let value = format!(
            "{{\"state\":\"{}\",\"owner\":\"{w1}\",\"tag\":\"{w2}\",\"size\":{},\"ver\":{}}}",
            if r.gen_bool(0.8) { "live" } else { "tombstone" },
            r.gen_range(0..100_000),
            r.gen_range(1..9)
        );
        out.extend_from_slice(&(key.len() as u16).to_le_bytes());
        out.extend(key.as_bytes());
        out.extend_from_slice(&(value.len() as u16).to_le_bytes());
        out.extend(value.as_bytes());
    }
    out.truncate(size);
    out
}

/// Splits `data` into blocks of `block_size` (the unit KVSTORE1
/// compresses and must decompress whole to serve a read).
pub fn blocks(data: &[u8], block_size: usize) -> Vec<&[u8]> {
    data.chunks(block_size.max(1)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sst_deterministic_and_sized() {
        let a = generate_sst(100_000, 21);
        assert_eq!(a, generate_sst(100_000, 21));
        assert_eq!(a.len(), 100_000);
    }

    #[test]
    fn keys_are_sorted_with_shared_prefixes() {
        let data = generate_sst(50_000, 22);
        // Walk entries, collect keys.
        let mut keys = Vec::new();
        let mut pos = 0usize;
        while pos + 2 <= data.len() {
            let klen = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
            pos += 2;
            if pos + klen > data.len() {
                break;
            }
            keys.push(data[pos..pos + klen].to_vec());
            pos += klen;
            if pos + 2 > data.len() {
                break;
            }
            let vlen = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
            pos += 2 + vlen;
        }
        assert!(keys.len() > 100);
        for w in keys.windows(2) {
            assert!(w[0] <= w[1], "keys out of order");
        }
        // Shared prefix: all start with "acct:".
        assert!(keys.iter().all(|k| k.starts_with(b"acct:")));
    }

    #[test]
    fn blocks_cover_data() {
        let data = generate_sst(70_000, 23);
        let bs = blocks(&data, 16 * 1024);
        assert_eq!(bs.iter().map(|b| b.len()).sum::<usize>(), data.len());
        assert!(bs[..bs.len() - 1].iter().all(|b| b.len() == 16 * 1024));
    }
}
