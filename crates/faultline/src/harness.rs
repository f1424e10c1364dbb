//! Sweep harness asserting the decode contract.
//!
//! The contract, for every decode of a corrupted frame:
//!
//! 1. it returns `Err(CodecError)` or an `Ok` whose bytes equal the
//!    original input (a corruption the format provably tolerates) —
//!    never `Ok` with silently wrong bytes;
//! 2. it never panics;
//! 3. it never produces output beyond the caller-supplied
//!    [`codecs::DecodeLimits`] byte budget (the harness sets the budget
//!    to the original input size, so header-inflation attacks must be
//!    rejected before allocation, not after).

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};

use codecs::{Algorithm, Compressor, DecodeLimits};

use crate::inject::Injector;
use crate::rng::Rng;

/// Outcome of decoding one corrupted variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Decode returned `Err` — the corruption was detected.
    ErrorDetected,
    /// Decode returned `Ok` with bytes identical to the original input.
    /// Possible when the flipped bits were redundant (e.g. padding).
    OkIntact,
    /// Decode returned `Ok` with wrong bytes, or output exceeding the
    /// decode limit. A contract violation.
    SilentCorruption,
    /// Decode panicked. A contract violation.
    Panicked,
}

/// Aggregated outcomes for one `(injector, codec)` cell of the sweep.
#[derive(Debug, Clone, Default)]
pub struct Cell {
    /// Total corrupted variants decoded.
    pub cases: usize,
    /// Variants whose corruption was detected as `Err`.
    pub error_detected: usize,
    /// Variants decoding to the original bytes.
    pub ok_intact: usize,
    /// Contract violations: wrong bytes returned as `Ok`.
    pub silent_corruption: usize,
    /// Contract violations: the decoder panicked.
    pub panicked: usize,
    /// Histogram of [`codecs::CodecError::kind`] labels seen.
    pub error_kinds: BTreeMap<&'static str, usize>,
}

impl Cell {
    fn record(&mut self, outcome: Outcome, kind: Option<&'static str>) {
        self.cases += 1;
        match outcome {
            Outcome::ErrorDetected => self.error_detected += 1,
            Outcome::OkIntact => self.ok_intact += 1,
            Outcome::SilentCorruption => self.silent_corruption += 1,
            Outcome::Panicked => self.panicked += 1,
        }
        if let Some(k) = kind {
            *self.error_kinds.entry(k).or_insert(0) += 1;
        }
    }

    /// Contract violations in this cell.
    pub fn violations(&self) -> usize {
        self.silent_corruption + self.panicked
    }
}

/// Full sweep report: one [`Cell`] per `(injector, codec)` pair.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Cells keyed `(injector name, codec name)`, in sweep order.
    pub cells: Vec<((&'static str, &'static str), Cell)>,
    /// Seed the sweep ran with (for replay).
    pub seed: u64,
}

impl Report {
    // indexing_slicing: `i` comes from `position()` on `cells` itself.
    #[allow(clippy::indexing_slicing)]
    fn cell_mut(&mut self, injector: &'static str, codec: &'static str) -> &mut Cell {
        if let Some(i) = self
            .cells
            .iter()
            .position(|((inj, co), _)| *inj == injector && *co == codec)
        {
            return &mut self.cells[i].1;
        }
        self.cells.push(((injector, codec), Cell::default()));
        &mut self.cells.last_mut().expect("just pushed").1
    }

    /// Total corrupted variants decoded across all cells.
    pub fn total_cases(&self) -> usize {
        self.cells.iter().map(|(_, c)| c.cases).sum()
    }

    /// Total contract violations (panics + silent corruptions).
    pub fn violations(&self) -> usize {
        self.cells.iter().map(|(_, c)| c.violations()).sum()
    }

    /// Renders a fixed-width outcome table for terminals and CI logs.
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("fault-injection sweep (seed {:#x})\n", self.seed));
        s.push_str(&format!(
            "{:<16} {:<8} {:>7} {:>9} {:>9} {:>8} {:>8}\n",
            "injector", "codec", "cases", "detected", "intact", "silent", "panic"
        ));
        for ((inj, codec), c) in &self.cells {
            s.push_str(&format!(
                "{:<16} {:<8} {:>7} {:>9} {:>9} {:>8} {:>8}\n",
                inj, codec, c.cases, c.error_detected, c.ok_intact, c.silent_corruption, c.panicked
            ));
        }
        s.push_str(&format!(
            "total: {} cases, {} violations\n",
            self.total_cases(),
            self.violations()
        ));
        s
    }

    /// Histogram of error kinds across all cells.
    pub fn error_kinds(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        for (_, c) in &self.cells {
            for (k, n) in &c.error_kinds {
                *out.entry(*k).or_insert(0) += n;
            }
        }
        out
    }
}

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Root seed; every case derives its own deterministic stream.
    pub seed: u64,
    /// Corrupted variants generated per `(injector, block)` pair.
    pub budget_per_block: usize,
    /// Compression level used per algorithm (zstdx default 3, others 6).
    pub level: i32,
    /// Enable frame content checksums. On (the default), every silent
    /// corruption is a contract violation. Off, payload corruption that
    /// preserves valid framing is undetectable by construction — the
    /// sweep then only asserts the panic-free and limit halves of the
    /// contract, tallying the silent decodes for comparison.
    pub checksums: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            seed: 0x5157,
            budget_per_block: 64,
            level: 3,
            checksums: true,
        }
    }
}

/// Runs one decode under `catch_unwind` and classifies the outcome.
///
/// `original` is the pristine uncompressed input the frame was built
/// from; `limits` caps the decoder's output budget.
pub fn check_decode(
    comp: &dyn Compressor,
    corrupted: &[u8],
    original: &[u8],
    limits: &DecodeLimits,
) -> (Outcome, Option<&'static str>) {
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        comp.decompress_limited(corrupted, limits)
    }));
    match result {
        Err(_) => (Outcome::Panicked, None),
        // Every typed error counts as detection — including
        // `LimitExceeded` on an input the corruption left intact.
        // Refusing to decode inside the caller's budget is the limit
        // contract working, not the decoder corrupting data, so it must
        // never be tallied as `SilentCorruption`.
        Ok(Err(e)) => (Outcome::ErrorDetected, Some(e.kind())),
        // An `Ok` that overran the caller's byte budget is a limit
        // violation even if the bytes happen to be right.
        Ok(Ok(out)) if out.len() > limits.max_output => (Outcome::SilentCorruption, None),
        Ok(Ok(out)) if out == original => (Outcome::OkIntact, None),
        Ok(Ok(_)) => (Outcome::SilentCorruption, None),
    }
}

/// Silences the default panic hook for the duration of a sweep so
/// expected `catch_unwind` probes do not spam stderr; restores the
/// previous hook on drop.
pub(crate) struct QuietPanics;

impl QuietPanics {
    pub(crate) fn install() -> Self {
        panic::set_hook(Box::new(|_| {}));
        QuietPanics
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        let _ = panic::take_hook();
    }
}

/// Sweeps `injectors` × `algos` × `blocks`, decoding every corrupted
/// variant and classifying it against the decode contract.
///
/// `blocks` are uncompressed corpus inputs; each is compressed once per
/// algorithm and corrupted `budget_per_block` ways per injector. The
/// sweep is deterministic in `cfg.seed`.
pub fn sweep(
    blocks: &[Vec<u8>],
    injectors: &[Injector],
    algos: &[Algorithm],
    cfg: &SweepConfig,
) -> Report {
    let _quiet = QuietPanics::install();
    let root = Rng::new(cfg.seed);
    let mut report = Report {
        seed: cfg.seed,
        ..Report::default()
    };
    for algo in algos {
        let comp = if cfg.checksums {
            algo.compressor_checked(cfg.level)
        } else {
            algo.compressor(cfg.level)
        };
        for (bi, block) in blocks.iter().enumerate() {
            let frame = comp.compress(block);
            let limits = DecodeLimits::with_max_output(block.len());
            for inj in injectors {
                // Key the stream by (algo, block, injector) so adding or
                // reordering sweep axes never reshuffles other cases.
                let tag = (algo_tag(*algo) << 32) ^ ((bi as u64) << 8) ^ inj_tag(*inj);
                let case_rng = root.derive(tag);
                let cell = report.cell_mut(inj.name(), algo.name());
                for variant in inj.corrupt(&frame, &case_rng, cfg.budget_per_block) {
                    let (outcome, kind) = check_decode(comp.as_ref(), &variant, block, &limits);
                    cell.record(outcome, kind);
                }
            }
        }
    }
    report
}

/// Probes the true dictionary-version-skew path: compresses `block`
/// with a trained dictionary, then decodes with a dictionary of a
/// different generation. The decode must fail (typically
/// `unknown_dict_version`) or reproduce the original bytes — never
/// return wrong bytes or panic.
pub fn dict_skew_probe(
    algo: Algorithm,
    block: &[u8],
    cfg: &SweepConfig,
) -> (Outcome, Option<&'static str>) {
    let comp = algo.compressor(cfg.level);
    let samples: Vec<&[u8]> = block.chunks(256).collect();
    let right = codecs::dict::train(&samples, 4 << 10, 1);
    let wrong = codecs::dict::Dictionary::new(right.as_bytes().to_vec(), 2);
    let frame = comp.compress_with_dict(block, &right);
    let limits = DecodeLimits::with_max_output(block.len());
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        comp.decompress_with_dict_limited(&frame, &wrong, &limits)
    }));
    match result {
        Err(_) => (Outcome::Panicked, None),
        Ok(Err(e)) => (Outcome::ErrorDetected, Some(e.kind())),
        Ok(Ok(out)) if out == block => (Outcome::OkIntact, None),
        Ok(Ok(_)) => (Outcome::SilentCorruption, None),
    }
}

fn algo_tag(a: Algorithm) -> u64 {
    match a {
        Algorithm::Zstdx => 1,
        Algorithm::Lz4x => 2,
        Algorithm::Zlibx => 3,
    }
}

fn inj_tag(i: Injector) -> u64 {
    match i {
        Injector::BitFlip { flips } => 0x10 | flips as u64,
        Injector::Truncate => 0x20,
        Injector::Splice => 0x30,
        Injector::LengthInflate => 0x40,
        Injector::DictSkew => 0x50,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_blocks() -> Vec<Vec<u8>> {
        vec![
            corpus::silesia::generate(corpus::silesia::FileClass::Text, 4 << 10, 0xfa01),
            corpus::silesia::generate(corpus::silesia::FileClass::Binary, 4 << 10, 0xfa02),
        ]
    }

    #[test]
    fn sweep_is_deterministic() {
        let blocks = small_blocks();
        let cfg = SweepConfig {
            budget_per_block: 8,
            ..SweepConfig::default()
        };
        let a = sweep(
            &blocks,
            &[Injector::BitFlip { flips: 1 }],
            Algorithm::ALL.as_ref(),
            &cfg,
        );
        let b = sweep(
            &blocks,
            &[Injector::BitFlip { flips: 1 }],
            Algorithm::ALL.as_ref(),
            &cfg,
        );
        assert_eq!(a.total_cases(), b.total_cases());
        for (ca, cb) in a.cells.iter().zip(b.cells.iter()) {
            assert_eq!(ca.0, cb.0);
            assert_eq!(ca.1.error_detected, cb.1.error_detected);
            assert_eq!(ca.1.ok_intact, cb.1.ok_intact);
        }
    }

    #[test]
    fn sweep_finds_no_violations() {
        let blocks = small_blocks();
        let cfg = SweepConfig {
            budget_per_block: 16,
            ..SweepConfig::default()
        };
        let report = sweep(&blocks, &Injector::ALL, Algorithm::ALL.as_ref(), &cfg);
        assert!(report.total_cases() > 0);
        assert_eq!(
            report.violations(),
            0,
            "contract violations:\n{}",
            report.render_table()
        );
    }

    #[test]
    fn sweep_over_v4_multi_stream_frames_finds_no_violations() {
        // Skewed pseudo-random bytes over 40 symbols (symbol k drawn
        // with weight 2k + 1): compressible, literal-dominated and
        // 20 KiB, so Auto writes the v4 multi-stream layout in both
        // zstdx (four Huffman literal substreams) and zlibx (type-2
        // blocks), and the sweep puts those decoders under hostile bytes.
        let mut x = 0x2545_f491u32;
        let block: Vec<u8> = (0..20 << 10)
            .map(|_| {
                x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
                f64::from((x >> 16) % 1600).sqrt() as u8
            })
            .collect();
        let cfg = SweepConfig {
            budget_per_block: 16,
            ..SweepConfig::default()
        };
        let zs = Algorithm::Zstdx
            .compressor_checked(cfg.level)
            .compress(&block);
        let v4 = |algo: Algorithm, frame: &[u8]| algo.frame_header(frame).unwrap().v4;
        assert!(v4(Algorithm::Zstdx, &zs), "zstdx frame must be v4");
        let zl = Algorithm::Zlibx
            .compressor_checked(cfg.level)
            .compress(&block);
        assert!(v4(Algorithm::Zlibx, &zl), "zlibx frame must be v4");
        assert!(zs.len() < block.len() && zl.len() < block.len());

        let report = sweep(
            &[block],
            &Injector::ALL,
            &[Algorithm::Zstdx, Algorithm::Zlibx],
            &cfg,
        );
        assert!(report.total_cases() > 0);
        assert_eq!(
            report.violations(),
            0,
            "contract violations:\n{}",
            report.render_table()
        );
    }

    #[test]
    fn check_decode_classifies_intact_frames() {
        let comp = Algorithm::Zstdx.compressor(3);
        let data = b"hello faultline hello faultline".to_vec();
        let frame = comp.compress(&data);
        let limits = DecodeLimits::with_max_output(data.len());
        let (outcome, _) = check_decode(comp.as_ref(), &frame, &data, &limits);
        assert_eq!(outcome, Outcome::OkIntact);
    }

    #[test]
    fn limit_exceeded_on_intact_input_is_error_detected() {
        // A pristine frame decoded under a too-small budget fails with
        // `LimitExceeded`. That is the limit contract *working*; the
        // harness must classify it as detection, not silent corruption.
        let comp = Algorithm::Zstdx.compressor(3);
        let data = corpus::silesia::generate(corpus::silesia::FileClass::Text, 4 << 10, 0xfa03);
        let frame = comp.compress(&data);
        let tight = DecodeLimits::with_max_output(16);
        let (outcome, kind) = check_decode(comp.as_ref(), &frame, &data, &tight);
        assert_eq!(outcome, Outcome::ErrorDetected);
        assert_eq!(kind, Some("limit_exceeded"));
    }

    #[test]
    fn dict_skew_probe_never_returns_wrong_bytes() {
        let block = corpus::silesia::generate(corpus::silesia::FileClass::Xml, 8 << 10, 0xd1c7);
        for algo in Algorithm::ALL {
            let (outcome, _) = dict_skew_probe(algo, &block, &SweepConfig::default());
            assert!(
                matches!(outcome, Outcome::ErrorDetected | Outcome::OkIntact),
                "{algo}: dict skew outcome {outcome:?}"
            );
        }
    }

    #[test]
    fn report_table_renders() {
        let blocks = vec![corpus::silesia::generate(
            corpus::silesia::FileClass::Log,
            2 << 10,
            1,
        )];
        let cfg = SweepConfig {
            budget_per_block: 4,
            ..SweepConfig::default()
        };
        let report = sweep(&blocks, &[Injector::Truncate], &[Algorithm::Lz4x], &cfg);
        let table = report.render_table();
        assert!(table.contains("truncate"));
        assert!(table.contains("lz4x"));
        assert!(table.contains("total:"));
    }
}
