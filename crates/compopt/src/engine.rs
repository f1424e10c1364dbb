//! CompEngine — candidate enumeration and measurement.
//!
//! "We introduce a module called CompEngine in CompOpt to generate
//! different candidate compression options with different compression
//! algorithms, compression levels, and block sizes... CompEngine runs
//! candidate compression options with the sample data, which are then
//! coupled with the corresponding compression ratio, compression speed,
//! and decompression speed." (paper, §V-A)

use codecs::{measure, measure_blocks, Algorithm, CompressionMetrics, Compressor, Dictionary};

use crate::compsim::CompSim;
use crate::config::CompressionConfig;

/// A measured candidate: configuration plus its compression metrics.
#[derive(Debug, Clone)]
pub struct Measured {
    /// The candidate configuration.
    pub config: CompressionConfig,
    /// Display label (configuration string, or the CompSim name).
    pub label: String,
    /// Measured metrics over the sample set.
    pub metrics: CompressionMetrics,
    /// Whether this candidate is a simulated accelerator.
    pub simulated: bool,
    /// For simulated candidates: the accelerator's `α_compute`, which
    /// replaces the CPU rate when pricing this candidate.
    pub alpha_compute_override: Option<f64>,
}

enum Candidate {
    Standard(CompressionConfig),
    Simulated(CompSim),
}

/// Enumerates and measures candidate compression options.
///
/// "The current version of CompOpt supports several compressors
/// including LZ4, Zlib, and Zstd. It can be easily extended... using the
/// provided interfaces." — `add_simulated` is that interface for
/// hardware candidates.
#[derive(Default)]
pub struct CompEngine {
    candidates: Vec<Candidate>,
    dictionary: Option<Dictionary>,
}

impl CompEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one explicit configuration.
    pub fn add_config(&mut self, config: CompressionConfig) -> &mut Self {
        self.candidates.push(Candidate::Standard(config));
        self
    }

    /// Adds `algorithm` at each of `levels` (no block chunking).
    pub fn add_levels(
        &mut self,
        algorithm: Algorithm,
        levels: impl IntoIterator<Item = i32>,
    ) -> &mut Self {
        for l in levels {
            self.add_config(CompressionConfig::new(algorithm, l));
        }
        self
    }

    /// Adds the full grid `algorithm × levels × block_sizes`.
    pub fn add_grid(
        &mut self,
        algorithm: Algorithm,
        levels: impl IntoIterator<Item = i32> + Clone,
        block_sizes: impl IntoIterator<Item = usize> + Clone,
    ) -> &mut Self {
        for bs in block_sizes {
            for l in levels.clone() {
                self.add_config(CompressionConfig::new(algorithm, l).with_block_size(bs));
            }
        }
        self
    }

    /// Adds a simulated hardware candidate (CompSim).
    pub fn add_simulated(&mut self, sim: CompSim) -> &mut Self {
        self.candidates.push(Candidate::Simulated(sim));
        self
    }

    /// Uses a shared dictionary for all candidates that support one.
    pub fn with_dictionary(&mut self, dict: Dictionary) -> &mut Self {
        self.dictionary = Some(dict);
        self
    }

    /// Number of registered candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// True when no candidates are registered.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Runs every candidate over `samples` and returns the measurements.
    ///
    /// Samples are compressed independently (with block chunking when the
    /// configuration sets a block size), matching how the services the
    /// paper studies invoke compression.
    pub fn measure(&self, samples: &[&[u8]]) -> Vec<Measured> {
        self.candidates
            .iter()
            .map(|cand| match cand {
                Candidate::Standard(config) => {
                    let comp = config.compressor();
                    let metrics = self.measure_one(comp.as_ref(), samples, config.block_size);
                    Measured {
                        config: *config,
                        label: config.to_string(),
                        metrics,
                        simulated: false,
                        alpha_compute_override: None,
                    }
                }
                Candidate::Simulated(sim) => {
                    let comp = sim.compressor();
                    let raw = self.measure_one(comp.as_ref(), samples, sim.base.block_size);
                    Measured {
                        config: sim.base,
                        label: sim.label(),
                        metrics: sim.scale_metrics(raw),
                        simulated: true,
                        alpha_compute_override: Some(sim.alpha_compute),
                    }
                }
            })
            .collect()
    }

    fn measure_one(
        &self,
        comp: &dyn Compressor,
        samples: &[&[u8]],
        block_size: Option<usize>,
    ) -> CompressionMetrics {
        match (block_size, &self.dictionary) {
            (Some(bs), _) => {
                // Chunked: concatenate per-sample block measurements.
                let mut m = CompressionMetrics::default();
                for &s in samples {
                    m.accumulate(&measure_blocks(comp, s, bs));
                }
                m
            }
            (None, Some(d)) if comp.supports_dictionaries() => {
                codecs::metrics::measure_with_dict(comp, samples, Some(d))
            }
            (None, _) => measure(comp, samples),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Vec<u8>> {
        (0..3)
            .map(|i| corpus::silesia::generate(corpus::silesia::FileClass::Database, 8192, i))
            .collect()
    }

    #[test]
    fn grid_enumerates_cross_product() {
        let mut e = CompEngine::new();
        e.add_grid(Algorithm::Zstdx, [1, 3], [4096, 16384, 65536]);
        assert_eq!(e.len(), 6);
    }

    #[test]
    fn measure_returns_metrics_per_candidate() {
        let s = samples();
        let refs: Vec<&[u8]> = s.iter().map(|v| v.as_slice()).collect();
        let mut e = CompEngine::new();
        e.add_levels(Algorithm::Zstdx, [1]);
        e.add_levels(Algorithm::Lz4x, [1]);
        let out = e.measure(&refs);
        assert_eq!(out.len(), 2);
        for m in &out {
            assert!(m.metrics.ratio() > 1.0, "{}", m.label);
            assert!(!m.simulated);
        }
        // zstdx compresses tighter than lz4x at level 1.
        assert!(out[0].metrics.ratio() > out[1].metrics.ratio());
    }

    #[test]
    fn block_chunking_changes_call_count() {
        let s = samples();
        let refs: Vec<&[u8]> = s.iter().map(|v| v.as_slice()).collect();
        let mut e = CompEngine::new();
        e.add_config(CompressionConfig::new(Algorithm::Zstdx, 1).with_block_size(1024));
        let out = e.measure(&refs);
        assert_eq!(out[0].metrics.calls, 24); // 3 samples * 8 blocks
    }

    #[test]
    fn dictionary_improves_small_samples() {
        let items = corpus::cache::generate_items(&corpus::cache::cache1_profile(), 150, 3);
        let train: Vec<&[u8]> = items[..75].iter().map(|i| i.data.as_slice()).collect();
        let test: Vec<&[u8]> = items[75..].iter().map(|i| i.data.as_slice()).collect();
        let dict = codecs::dict::train(&train, 16384, 42);

        let mut plain = CompEngine::new();
        plain.add_levels(Algorithm::Zstdx, [3]);
        let without = plain.measure(&test);

        let mut with = CompEngine::new();
        with.add_levels(Algorithm::Zstdx, [3]);
        with.with_dictionary(dict);
        let with = with.measure(&test);

        assert!(
            with[0].metrics.ratio() > without[0].metrics.ratio() * 1.1,
            "dict {} vs plain {}",
            with[0].metrics.ratio(),
            without[0].metrics.ratio()
        );
    }
}
