//! The sampling profiler: runs every service's workload through the
//! real codecs and attributes time per `(service, algorithm, level)`.
//!
//! Mirrors the paper's methodology (§III-A): "We look at sampled
//! application call stacks in the profiling result, filter the call
//! stacks for compression APIs, and aggregate cycles spent in relevant
//! compression function calls including Zstd, Zlib, and LZ4." Here the
//! "call stacks" are real invocations of our codecs; services profile in
//! parallel (one thread each, via crossbeam) and the observations are
//! merged under a `parking_lot` mutex, like a profiling daemon's
//! aggregation table.

use std::collections::HashMap;
use std::time::Instant;

use codecs::zstdx::Zstdx;
use codecs::{Algorithm, Compressor, Dictionary};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::services::{registry, Category, ServiceSpec};

/// Profiling run configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProfileConfig {
    /// Work units sampled per service (one unit = one request/job's
    /// compression activity).
    pub work_units: usize,
    /// Base seed for workload generation and mix sampling.
    pub seed: u64,
    /// Per-request stage deadline armed on every profiled request
    /// (nanoseconds). A stage that ends past the budget marks the
    /// request with a `deadline` error and bumps the
    /// `fleet.deadline_stage_expired{service=...}` counter, so the
    /// attribution report shows which services blow their budgets.
    /// Zero (the default) disarms: profiling runs unbounded.
    pub stage_deadline_nanos: u64,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        Self {
            work_units: 12,
            seed: 30,
            stage_deadline_nanos: 0,
        }
    }
}

/// Accumulated measurements for one `(service, algorithm, level)` cell.
#[derive(Debug, Clone)]
pub struct Observation {
    /// Service name.
    pub service: &'static str,
    /// Service category.
    pub category: Category,
    /// Compression algorithm observed.
    pub algorithm: Algorithm,
    /// Compression level observed.
    pub level: i32,
    /// Seconds in compression calls.
    pub compress_secs: f64,
    /// Seconds in decompression calls.
    pub decompress_secs: f64,
    /// Of `compress_secs` (zstdx only): match-finding stage seconds.
    pub match_find_secs: f64,
    /// Of `compress_secs` (zstdx only): entropy-stage seconds.
    pub entropy_secs: f64,
    /// Blocks whose stage split was measured (zstdx only, both plain
    /// and dictionary paths). Deterministic, unlike the stage clocks,
    /// which can round to zero on tiny work units.
    pub stage_blocks: u64,
    /// Uncompressed bytes compressed.
    pub bytes: u64,
    /// Compression calls.
    pub comp_calls: u64,
    /// Decompression calls.
    pub decomp_calls: u64,
}

/// The result of a fleet profiling run.
#[derive(Debug, Clone)]
pub struct FleetProfile {
    /// Per-(service, algorithm, level) measurements.
    pub observations: Vec<Observation>,
    /// Modeled non-compression application seconds per service, derived
    /// from the declared compression tax (see crate docs).
    pub app_secs: HashMap<&'static str, f64>,
    /// The registry snapshot this profile was taken over.
    pub services: Vec<ServiceSpec>,
}

impl FleetProfile {
    /// Total (de)compression seconds of a service.
    pub fn compression_secs(&self, service: &str) -> f64 {
        self.observations
            .iter()
            .filter(|o| o.service == service)
            .map(|o| o.compress_secs + o.decompress_secs)
            .sum()
    }

    /// Publishes this profile into a telemetry registry: per-service
    /// call/byte counters and seconds gauges, labeled `{service=...}`.
    /// Per-call latency histograms (`fleet.compress.nanos`,
    /// `fleet.decompress.nanos`) are recorded live during profiling into
    /// the global registry; this publishes the aggregated totals, so a
    /// snapshot taken afterwards carries the whole profile.
    pub fn record_to(&self, reg: &telemetry::Registry) {
        for spec in &self.services {
            let labels = [("service", spec.name)];
            let mut comp = 0.0;
            let mut decomp = 0.0;
            let mut mf = 0.0;
            let mut ent = 0.0;
            let (mut bytes, mut ccalls, mut dcalls, mut blocks) = (0u64, 0u64, 0u64, 0u64);
            for o in self.observations.iter().filter(|o| o.service == spec.name) {
                comp += o.compress_secs;
                decomp += o.decompress_secs;
                mf += o.match_find_secs;
                ent += o.entropy_secs;
                bytes += o.bytes;
                ccalls += o.comp_calls;
                dcalls += o.decomp_calls;
                blocks += o.stage_blocks;
            }
            reg.counter("fleet.compress.calls", &labels).add(ccalls);
            reg.counter("fleet.decompress.calls", &labels).add(dcalls);
            reg.counter("fleet.bytes", &labels).add(bytes);
            reg.counter("fleet.stage_blocks", &labels).add(blocks);
            reg.gauge("fleet.compress.secs", &labels).set(comp);
            reg.gauge("fleet.decompress.secs", &labels).set(decomp);
            reg.gauge("fleet.match_find.secs", &labels).set(mf);
            reg.gauge("fleet.entropy.secs", &labels).set(ent);
            reg.gauge("fleet.app.secs", &labels)
                .set(self.app_secs.get(spec.name).copied().unwrap_or(0.0));
        }
    }
}

/// Profiles the whole modeled fleet in parallel (one thread per
/// service).
pub fn profile_fleet(config: &ProfileConfig) -> FleetProfile {
    let services = registry();
    let results: Mutex<Vec<Observation>> = Mutex::new(Vec::new());

    crossbeam::thread::scope(|scope| {
        for (si, spec) in services.iter().enumerate() {
            let results = &results;
            let config = *config;
            scope.spawn(move |_| {
                let obs = profile_service(spec, &config, si as u64);
                results.lock().extend(obs);
            });
        }
    })
    .expect("profiler threads do not panic");

    let observations = results.into_inner();

    // Derive each service's application time from its declared tax:
    // tax = comp / (comp + app)  =>  app = comp * (1 - tax) / tax.
    let mut app_secs = HashMap::new();
    for spec in &services {
        let comp: f64 = observations
            .iter()
            .filter(|o| o.service == spec.name)
            .map(|o| o.compress_secs + o.decompress_secs)
            .sum();
        let app = comp * (1.0 - spec.compression_tax) / spec.compression_tax;
        app_secs.insert(spec.name, app);
    }

    FleetProfile {
        observations,
        app_secs,
        services,
    }
}

fn profile_service(spec: &ServiceSpec, config: &ProfileConfig, salt: u64) -> Vec<Observation> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ (salt << 32));
    let mut cells: HashMap<(Algorithm, i32), Observation> = HashMap::new();
    let svc_labels = [("service", spec.name)];

    // Dictionary-compressed services train one dictionary up front from
    // a held-out unit (paper §IV-C: one dictionary per data type; we
    // fold types into one dictionary for profiling purposes).
    let dictionary: Option<Dictionary> = spec.workload.uses_dictionary().then(|| {
        let training_unit = spec.workload.generate_unit(config.seed ^ 0xd1c7);
        let refs: Vec<&[u8]> = training_unit.iter().map(|v| v.as_slice()).collect();
        codecs::dict::train(&refs, 16 * 1024, 1)
    });

    for unit_idx in 0..config.work_units {
        let unit = spec
            .workload
            .generate_unit(config.seed ^ (salt << 32) ^ unit_idx as u64);
        let algorithm = sample_mix(spec.algorithm_mix, &mut rng);
        let level = if algorithm == Algorithm::Zstdx {
            sample_mix(spec.level_mix, &mut rng)
        } else {
            1
        };

        let cell = cells
            .entry((algorithm, level))
            .or_insert_with(|| Observation {
                service: spec.name,
                category: spec.category,
                algorithm,
                level,
                compress_secs: 0.0,
                decompress_secs: 0.0,
                match_find_secs: 0.0,
                entropy_secs: 0.0,
                stage_blocks: 0,
                bytes: 0,
                comp_calls: 0,
                decomp_calls: 0,
            });

        for block in &unit {
            let reads = sample_reads(spec.reads_per_write, &mut rng);
            let comp_elapsed;
            // Each block write is one compress request: the stage spans
            // the codec records (match-find, entropy, whole-call) nest
            // under this context, so `datacomp profile` populates the
            // p99 attribution report and the tail sampler sees fleet
            // traffic. The guard is scoped to the compression only —
            // the read-back decompressions below are their own
            // requests.
            let frame = {
                let req =
                    telemetry::requests().open(spec.name, telemetry::Op::Compress, block.len());
                req.arm_deadline(config.stage_deadline_nanos);
                if dictionary.is_some() && algorithm == Algorithm::Zstdx {
                    telemetry::request::mark("fleet.dict_hit");
                }
                let frame = match (algorithm, &dictionary) {
                    (Algorithm::Zstdx, None) => {
                        let z = Zstdx::new(level);
                        let (frame, timing) = z.compress_timed(block);
                        cell.compress_secs += timing.total.as_secs_f64();
                        cell.match_find_secs += timing.match_find.as_secs_f64();
                        cell.entropy_secs += timing.entropy.as_secs_f64();
                        cell.stage_blocks += timing.blocks;
                        comp_elapsed = timing.total;
                        frame
                    }
                    (Algorithm::Zstdx, Some(d)) => {
                        let z = Zstdx::new(level);
                        let (frame, timing) = z.compress_with_dict_timed(block, d);
                        cell.compress_secs += timing.total.as_secs_f64();
                        cell.match_find_secs += timing.match_find.as_secs_f64();
                        cell.entropy_secs += timing.entropy.as_secs_f64();
                        cell.stage_blocks += timing.blocks;
                        comp_elapsed = timing.total;
                        frame
                    }
                    (algo, _) => {
                        let c = algo.compressor(level);
                        let t0 = Instant::now();
                        let frame = c.compress(block);
                        comp_elapsed = t0.elapsed();
                        cell.compress_secs += comp_elapsed.as_secs_f64();
                        frame
                    }
                };
                if config.stage_deadline_nanos > 0 && req.deadline_exceeded() {
                    req.mark_error("deadline");
                    telemetry::global()
                        .counter("fleet.deadline_stage_expired", &svc_labels)
                        .add(1);
                }
                // Live windowed view of the latency: the scrape endpoint
                // reports a sliding-window p99 per service, and the
                // slowest block in each sub-window names this request as
                // its exemplar.
                telemetry::windows()
                    .histogram("fleet.compress.nanos", &svc_labels)
                    .observe(comp_elapsed.as_nanos() as u64);
                frame
            };
            let reader = algorithm.compressor(level);
            let read_dict = if algorithm == Algorithm::Zstdx {
                dictionary.as_ref()
            } else {
                None
            };
            decompress_n(
                reader.as_ref(),
                &frame,
                read_dict,
                reads,
                cell,
                config.stage_deadline_nanos,
            );
            telemetry::global()
                .histogram("fleet.compress.nanos", &svc_labels)
                .observe_duration(comp_elapsed);
            telemetry::windows()
                .counter("fleet.compress.bytes", &svc_labels)
                .add(block.len() as u64);
            cell.bytes += block.len() as u64;
            cell.comp_calls += 1;
        }
    }
    cells.into_values().collect()
}

fn decompress_n(
    comp: &dyn Compressor,
    frame: &[u8],
    dict: Option<&Dictionary>,
    reads: u64,
    cell: &mut Observation,
    stage_deadline_nanos: u64,
) {
    for _ in 0..reads {
        // Every read-back is a decompress request of its own, so read
        // amplification shows up as request volume in the attribution
        // report exactly as it does in the paper's fleet mix.
        let req = telemetry::requests().open(cell.service, telemetry::Op::Decompress, frame.len());
        req.arm_deadline(stage_deadline_nanos);
        let t0 = Instant::now();
        let out = match dict {
            Some(d) => comp.decompress_with_dict(frame, d),
            None => comp.decompress(frame),
        };
        let elapsed = t0.elapsed();
        cell.decompress_secs += elapsed.as_secs_f64();
        out.expect("own frames round-trip");
        if stage_deadline_nanos > 0 && req.deadline_exceeded() {
            req.mark_error("deadline");
            telemetry::global()
                .counter("fleet.deadline_stage_expired", &[("service", cell.service)])
                .add(1);
        }
        let svc_labels = [("service", cell.service)];
        telemetry::global()
            .histogram("fleet.decompress.nanos", &svc_labels)
            .observe_duration(elapsed);
        telemetry::windows()
            .histogram("fleet.decompress.nanos", &svc_labels)
            .observe(elapsed.as_nanos() as u64);
        cell.decomp_calls += 1;
    }
}

fn sample_mix<T: Copy>(mix: &[(T, f64)], rng: &mut StdRng) -> T {
    let mut u: f64 = rng.gen();
    for &(v, f) in mix {
        if u < f {
            return v;
        }
        u -= f;
    }
    mix.last().expect("mix is non-empty").0
}

fn sample_reads(reads_per_write: f64, rng: &mut StdRng) -> u64 {
    let base = reads_per_write.floor() as u64;
    let frac = reads_per_write - reads_per_write.floor();
    base + u64::from(rng.gen_bool(frac.clamp(0.0, 1.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_profile() -> FleetProfile {
        profile_fleet(&ProfileConfig {
            work_units: 2,
            seed: 7,
            stage_deadline_nanos: 0,
        })
    }

    #[test]
    fn profile_covers_all_services() {
        let p = quick_profile();
        for spec in &p.services {
            assert!(
                p.observations.iter().any(|o| o.service == spec.name),
                "{} missing",
                spec.name
            );
            // Deterministic: call counts cannot round to zero the way
            // wall-clock sums can on very fast work units.
            let calls: u64 = p
                .observations
                .iter()
                .filter(|o| o.service == spec.name)
                .map(|o| o.comp_calls)
                .sum();
            assert!(calls > 0, "{} recorded no compression calls", spec.name);
        }
    }

    #[test]
    fn app_time_respects_declared_tax() {
        let p = quick_profile();
        for spec in &p.services {
            let comp = p.compression_secs(spec.name);
            let tax = comp / (comp + p.app_secs[spec.name]);
            assert!(
                (tax - spec.compression_tax).abs() < 1e-9,
                "{}: derived tax {tax} vs declared {}",
                spec.name,
                spec.compression_tax
            );
        }
    }

    #[test]
    fn read_heavy_services_decompress_more_often() {
        let p = quick_profile();
        let calls = |name: &str| {
            let (c, d) = p
                .observations
                .iter()
                .filter(|o| o.service == name)
                .fold((0u64, 0u64), |(c, d), o| {
                    (c + o.comp_calls, d + o.decomp_calls)
                });
            (c, d)
        };
        let (c, d) = calls("CACHE2"); // reads_per_write = 8
        assert!(d > c * 6, "CACHE2 reads {d} vs writes {c}");
        let (c, d) = calls("DW1"); // reads_per_write = 0.3
        assert!(d < c, "DW1 reads {d} vs writes {c}");
    }

    #[test]
    fn zstd_observations_carry_stage_split() {
        let p = quick_profile();
        let dw1: Vec<&Observation> = p
            .observations
            .iter()
            .filter(|o| o.service == "DW1")
            .collect();
        assert!(!dw1.is_empty());
        for o in dw1 {
            assert_eq!(o.algorithm, Algorithm::Zstdx);
            // The block counter is the deterministic witness that the
            // stage split was measured; the second sums can round to
            // zero on a timer with coarse granularity.
            assert!(o.stage_blocks > 0, "DW1 cell measured no blocks");
            assert!(o.match_find_secs >= 0.0 && o.entropy_secs >= 0.0);
            assert!(o.match_find_secs + o.entropy_secs <= o.compress_secs + 1e-6);
        }
    }

    #[test]
    fn dictionary_services_carry_stage_split_too() {
        // CACHE1/CACHE2 compress through the dictionary path, which used
        // to report zero stage time; it now goes through
        // `compress_with_dict_timed` and measures blocks like the rest.
        let p = quick_profile();
        for svc in ["CACHE1", "CACHE2"] {
            let blocks: u64 = p
                .observations
                .iter()
                .filter(|o| o.service == svc && o.algorithm == Algorithm::Zstdx)
                .map(|o| o.stage_blocks)
                .sum();
            assert!(blocks > 0, "{svc} dict path measured no stage blocks");
        }
    }

    #[test]
    fn record_to_publishes_per_service_series() {
        let p = quick_profile();
        let reg = telemetry::Registry::new();
        p.record_to(&reg);
        let snap = reg.snapshot();
        for spec in &p.services {
            let labels = [("service", spec.name)];
            assert!(
                snap.counter("fleet.compress.calls", &labels) > 0,
                "{} missing call counter",
                spec.name
            );
            assert!(
                snap.get("fleet.compress.secs", &labels).is_some(),
                "{}",
                spec.name
            );
            assert!(
                snap.get("fleet.app.secs", &labels).is_some(),
                "{}",
                spec.name
            );
        }
        // Live per-call latency histograms land in the global registry.
        let global = telemetry::snapshot();
        assert!(
            global
                .histogram("fleet.compress.nanos", &[("service", "DW1")])
                .is_some_and(|h| h.count() > 0),
            "profiling left no latency histogram for DW1"
        );
    }

    #[test]
    fn profiling_attributes_every_service_and_links_its_exemplars() {
        let p = quick_profile();
        let rows = telemetry::requests().attribution();
        for spec in &p.services {
            assert!(
                rows.iter()
                    .any(|r| r.service == spec.name && r.op == telemetry::Op::Compress),
                "{} has no compress requests in the attribution report",
                spec.name
            );
            // The windowed compress latency is observed inside the
            // block's request, so its exemplar names one.
            let labels = [("service", spec.name)];
            let window = telemetry::windows()
                .histogram("fleet.compress.nanos", &labels)
                .window_snapshot();
            let exemplar = window
                .exemplar
                .unwrap_or_else(|| panic!("{} exemplar not linked to a request", spec.name));
            assert!(exemplar.request > 0);
        }
        // Dictionary services mark the hit on the block's request; the
        // attribution report counts marks per row, apart from the timed
        // stages.
        let hits: u64 = rows
            .iter()
            .flat_map(|r| &r.marks)
            .filter(|(name, _)| *name == "fleet.dict_hit")
            .map(|(_, n)| n)
            .sum();
        assert!(hits > 0, "no fleet.dict_hit mark attributed");
        assert!(rows
            .iter()
            .flat_map(|r| &r.stages)
            .all(|st| st.stage != "fleet.dict_hit"));
    }

    #[test]
    fn stage_deadline_marks_and_counts_expiries() {
        // A 1ns budget cannot survive any real codec call, so every
        // service must record at least one expiry. Counters are
        // cumulative per process; assert on the delta.
        let labels = [("service", "DW1")];
        let before = telemetry::snapshot().counter("fleet.deadline_stage_expired", &labels);
        profile_fleet(&ProfileConfig {
            work_units: 1,
            seed: 13,
            stage_deadline_nanos: 1,
        });
        let after = telemetry::snapshot().counter("fleet.deadline_stage_expired", &labels);
        assert!(after > before, "1ns stage budget never expired for DW1");
    }

    #[test]
    fn sample_mix_respects_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        let mix = [(0u8, 0.9), (1u8, 0.1)];
        let mut counts = [0u32; 2];
        for _ in 0..2000 {
            counts[sample_mix(&mix, &mut rng) as usize] += 1;
        }
        assert!(counts[0] > 1600 && counts[1] > 50, "{counts:?}");
    }

    #[test]
    fn sample_reads_mean_matches() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 4000;
        let total: u64 = (0..n).map(|_| sample_reads(2.5, &mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 2.5).abs() < 0.1, "mean {mean}");
    }
}
