//! ML inference request generators (ADS1 stand-ins).
//!
//! "An ADS1 service request is composed of a model input feature with
//! metadata... which includes dense float and sparse integer embeddings.
//! The ratio between different types of embeddings varies significantly
//! between different models. Usually, higher compression ratios are
//! achieved when compressing requests with more sparse embeddings due to
//! the numerous zeros in the data." (paper, §IV-D)
//!
//! Three models reproduce Figure 12's variance:
//!
//! * [`Model::A`] — the biggest-traffic model: large requests (~192 KiB),
//!   balanced dense/sparse mix.
//! * [`Model::B`] — smaller requests (~48 KiB), sparse-heavy (compresses
//!   best).
//! * [`Model::C`] — model B's features under a different serialization
//!   (varint-packed), changing its compression profile.

use rand::Rng;

use crate::rng;

/// The ranking models of the ADS1 case study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Model {
    /// Largest requests, highest traffic, ~50% sparse.
    A,
    /// Smaller requests, ~80% sparse.
    B,
    /// Model B's content, varint serialization.
    C,
}

impl Model {
    /// All models.
    pub const ALL: [Model; 3] = [Model::A, Model::B, Model::C];

    /// Stable name.
    pub fn name(&self) -> &'static str {
        match self {
            Model::A => "model-a",
            Model::B => "model-b",
            Model::C => "model-c",
        }
    }

    /// Average request size in bytes (approximate target).
    #[cfg(test)]
    fn request_size(&self) -> usize {
        match self {
            Model::A => 48 * 48 * 1024,
            Model::B => 12 * 4 * 1024,
            Model::C => 10 * 4 * 1024,
        }
    }

    /// Fraction of the feature payload that is sparse embeddings.
    fn sparse_fraction(&self) -> f64 {
        match self {
            Model::A => 0.5,
            Model::B | Model::C => 0.8,
        }
    }
}

impl std::fmt::Display for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Generates one inference request for `model`.
///
/// A request is a stream of *candidate records* (one per ranked ad
/// candidate). Each record carries:
///
/// * a **feature template** — a schema/metadata blob shared by every
///   record of the same template id. Templates are zipf-popular, so the
///   distance back to the previous same-template record spans many
///   scales: popular templates recur within a few records, rare ones a
///   megabyte apart. This multi-scale redundancy is what makes larger
///   match windows keep paying off (the paper's Figure 16 sweep).
/// * a dense segment of quantized f32 embeddings (low mantissa bits
///   zeroed, as production embeddings are);
/// * a sparse segment of ascending ids with zero-heavy weights.
pub fn generate_request(model: Model, seed: u64) -> Vec<u8> {
    let mut r = rng(seed ^ (model as u64) << 40);
    let (n_records, record_size, n_templates) = match model {
        Model::A => (48, 48 * 1024, 32),
        Model::B => (12, 4 * 1024, 8),
        Model::C => (12, 4 * 1024, 8),
    };
    let sparse_fraction = model.sparse_fraction();

    // Template blobs: pseudo-random (individually incompressible), fixed
    // per (model, template id) so recurrences are exact repeats.
    let template_len = record_size / 8;
    let templates: Vec<Vec<u8>> = (0..n_templates)
        .map(|t| {
            let mut tr = rng((model as u64) << 16 | t as u64 | 0xfeed_0000);
            (0..template_len).map(|_| tr.gen()).collect()
        })
        .collect();

    let mut out = Vec::with_capacity(n_records * record_size + 128);
    out.extend(
        format!(
            "REQ1|model={}|ts={}|",
            model.name(),
            1_700_000_000u64 + seed
        )
        .as_bytes(),
    );

    for rec in 0..n_records {
        let t = crate::zipf_index(n_templates, &mut r);
        out.extend(format!("REC{rec}|tmpl={t}|").as_bytes());
        out.extend_from_slice(&templates[t]);

        let body = record_size - template_len;
        let sparse_bytes = (body as f64 * sparse_fraction) as usize;
        let dense_bytes = body - sparse_bytes;

        out.extend_from_slice(b"DENSE:");
        for _ in 0..dense_bytes / 4 {
            let v: f32 = r.gen_range(-2.0..2.0f32);
            let q = f32::from_bits(v.to_bits() & 0xffff_e000);
            out.extend_from_slice(&q.to_le_bytes());
        }

        out.extend_from_slice(b"SPARSE:");
        match model {
            Model::A | Model::B => {
                let n_sparse = sparse_bytes / 12;
                let mut id = 0u64;
                for _ in 0..n_sparse {
                    id += r.gen_range(1..300);
                    out.extend_from_slice(&(id as u32).to_le_bytes());
                    let w: u64 = if r.gen_bool(0.85) {
                        0
                    } else {
                        r.gen_range(1..1 << 16)
                    };
                    out.extend_from_slice(&w.to_le_bytes());
                }
            }
            Model::C => {
                // Varint serialization: same information, fewer explicit
                // zero bytes -> lower ratio, smaller wire size.
                let n_sparse = sparse_bytes / 5;
                let mut id = 0u64;
                for _ in 0..n_sparse {
                    id += r.gen_range(1..300);
                    write_uvarint(&mut out, id);
                    let w: u64 = if r.gen_bool(0.85) {
                        0
                    } else {
                        r.gen_range(1..1 << 16)
                    };
                    write_uvarint(&mut out, w);
                }
            }
        }
    }
    out
}

/// Generates `n` requests with distinct seeds derived from `seed`.
pub fn generate_requests(model: Model, n: usize, seed: u64) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| generate_request(model, seed.wrapping_add(i as u64 * 7919)))
        .collect()
}

fn write_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_deterministic_and_sized() {
        for m in Model::ALL {
            let a = generate_request(m, 5);
            let b = generate_request(m, 5);
            assert_eq!(a, b);
            let target = m.request_size();
            assert!(
                a.len() > target / 2 && a.len() < target * 2,
                "{m}: {} vs target {target}",
                a.len()
            );
        }
    }

    #[test]
    fn model_a_is_largest() {
        let a = generate_request(Model::A, 1).len();
        let b = generate_request(Model::B, 1).len();
        let c = generate_request(Model::C, 1).len();
        assert!(a > b && a > c);
    }

    #[test]
    fn sparse_models_have_more_zero_bytes() {
        let count_zeros = |v: &[u8]| v.iter().filter(|&&b| b == 0).count() as f64 / v.len() as f64;
        let a = count_zeros(&generate_request(Model::A, 2));
        let b = count_zeros(&generate_request(Model::B, 2));
        let c = count_zeros(&generate_request(Model::C, 2));
        assert!(b > a, "B zeros {b} should exceed A zeros {a}");
        assert!(
            b > c,
            "varint C must carry fewer explicit zeros: {c} vs {b}"
        );
    }

    #[test]
    fn distinct_requests_differ() {
        let reqs = generate_requests(Model::B, 5, 100);
        assert_eq!(reqs.len(), 5);
        assert_ne!(reqs[0], reqs[1]);
    }
}
