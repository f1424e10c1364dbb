//! Registry instrumentation shared by the codec implementations.
//!
//! Every successful `compress`/`decompress` call on any codec records,
//! into the [global telemetry registry](telemetry::global), the series
//! the paper's fleet profiler aggregates per `(algorithm, level)`
//! (§III-A):
//!
//! * `codecs.compress.calls` / `codecs.decompress.calls` — counters
//! * `codecs.compress.bytes_in` / `codecs.compress.bytes_out` /
//!   `codecs.decompress.bytes_out` — byte counters
//!
//! and the whole call is a `codec.compress` / `codec.decompress` stage
//! of any open request, which is where its latency is read (the
//! attribution report, `/profile.json`).
//!
//! That is three series per compress and two per decompress. They are
//! not looked up per call: each `(algorithm, level, direction)` resolves
//! its handles once, on its first call, into a bundle kept in a static
//! table, so a call costs one table index and relaxed atomic adds; it
//! takes no lock. A level outside the table (only
//! [`Zstdx::with_params`](crate::zstdx::Zstdx::with_params) can make
//! one) resolves its handles on every call instead.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use telemetry::Counter;

use crate::Algorithm;

/// Series and stage names of one direction.
struct Names {
    calls: &'static str,
    /// Uncompressed bytes: compress input, decompress output.
    raw_bytes: &'static str,
    /// Compressed bytes, where the direction exports them.
    frame_bytes: Option<&'static str>,
    stage: &'static str,
}

const COMPRESS: Names = Names {
    calls: "codecs.compress.calls",
    raw_bytes: "codecs.compress.bytes_in",
    frame_bytes: Some("codecs.compress.bytes_out"),
    stage: "codec.compress",
};

const DECOMPRESS: Names = Names {
    calls: "codecs.decompress.calls",
    raw_bytes: "codecs.decompress.bytes_out",
    frame_bytes: None,
    stage: "codec.decompress",
};

/// The resolved handles of one `(algorithm, level, direction)`.
struct Bundle {
    names: &'static Names,
    calls: Arc<Counter>,
    raw_bytes: Arc<Counter>,
    frame_bytes: Option<Arc<Counter>>,
}

impl Bundle {
    fn resolve(names: &'static Names, algo: Algorithm, level: i32) -> Self {
        let level = level.to_string();
        let labels = [("algo", algo.name()), ("level", level.as_str())];
        let reg = telemetry::global();
        Self {
            names,
            calls: reg.counter(names.calls, &labels),
            raw_bytes: reg.counter(names.raw_bytes, &labels),
            frame_bytes: names.frame_bytes.map(|name| reg.counter(name, &labels)),
        }
    }

    fn emit(&self, raw: usize, frame: usize, start: Instant) {
        // Whole-call stage for any live request context (a thread-local
        // check when none is open, so raw codec paths pay nothing).
        telemetry::request::observe_stage(self.names.stage, start, start.elapsed());
        self.calls.inc();
        self.raw_bytes.add(raw as u64);
        if let Some(c) = &self.frame_bytes {
            c.add(frame as u64);
        }
    }
}

/// Lowest level with a table slot; covers every codec's clamped range
/// (zstdx −5..=19, lz4x 1..=12, zlibx 0..=9).
const LEVEL_MIN: i32 = -8;
const LEVEL_SLOTS: usize = 32;

/// Bundles per algorithm (`Algorithm as usize`) and level slot.
type Table = [[OnceLock<Bundle>; LEVEL_SLOTS]; 3];

static COMPRESSES: Table = [const { [const { OnceLock::new() }; LEVEL_SLOTS] }; 3];
static DECOMPRESSES: Table = [const { [const { OnceLock::new() }; LEVEL_SLOTS] }; 3];

fn emit(
    table: &'static Table,
    names: &'static Names,
    algo: Algorithm,
    level: i32,
    raw: usize,
    frame: usize,
    start: Instant,
) {
    let slot = usize::try_from(level - LEVEL_MIN)
        .ok()
        .and_then(|i| table.get(algo as usize)?.get(i));
    let uncached;
    let bundle = match slot {
        Some(cell) => cell.get_or_init(|| Bundle::resolve(names, algo, level)),
        None => {
            uncached = Bundle::resolve(names, algo, level);
            &uncached
        }
    };
    bundle.emit(raw, frame, start);
}

/// Records one compression call.
pub(crate) fn record_compress(
    algo: Algorithm,
    level: i32,
    bytes_in: usize,
    bytes_out: usize,
    start: Instant,
) {
    emit(
        &COMPRESSES,
        &COMPRESS,
        algo,
        level,
        bytes_in,
        bytes_out,
        start,
    );
}

/// Records one successful decompression call.
pub(crate) fn record_decompress(algo: Algorithm, level: i32, bytes_out: usize, start: Instant) {
    emit(&DECOMPRESSES, &DECOMPRESS, algo, level, bytes_out, 0, start);
}

#[cfg(test)]
mod tests {
    use crate::Algorithm;

    #[test]
    fn codec_calls_show_up_in_global_registry() {
        let data = b"instrumentation check data data data data".repeat(10);
        let labels = |algo: &'static str, level: &'static str| [("algo", algo), ("level", level)];
        // Global registry is shared across concurrently running tests,
        // so assert deltas (other tests only ever add).
        let before = telemetry::snapshot();
        for a in Algorithm::ALL {
            let c = a.compressor(2);
            let frame = c.compress(&data);
            assert_eq!(c.decompress(&frame).unwrap(), data);
        }
        let after = telemetry::snapshot();
        for algo in ["zstdx", "lz4x", "zlibx"] {
            let l = labels(algo, "2");
            assert!(
                after.counter("codecs.compress.calls", &l)
                    > before.counter("codecs.compress.calls", &l),
                "{algo} compress call not recorded"
            );
            assert!(
                after.counter("codecs.decompress.calls", &l)
                    > before.counter("codecs.decompress.calls", &l),
                "{algo} decompress call not recorded"
            );
            assert!(
                after.counter("codecs.compress.bytes_in", &l)
                    >= before.counter("codecs.compress.bytes_in", &l) + data.len() as u64,
                "{algo} bytes_in not recorded"
            );
            assert!(
                after.counter("codecs.decompress.bytes_out", &l)
                    >= before.counter("codecs.decompress.bytes_out", &l) + data.len() as u64,
                "{algo} decompress bytes_out not recorded"
            );
        }
        // Decompress exports no compressed-bytes series.
        assert!(after
            .get("codecs.decompress.bytes_in", &labels("zstdx", "2"))
            .is_none());
    }

    #[test]
    fn out_of_table_levels_still_record() {
        use crate::Compressor;
        let params = *crate::zstdx::Zstdx::new(3).params();
        let codec = crate::zstdx::Zstdx::with_params(99, params);
        let l = [("algo", "zstdx"), ("level", "99")];
        let before = telemetry::snapshot().counter("codecs.compress.calls", &l);
        let frame = codec.compress(b"an out-of-range level still reports");
        codec.decompress(&frame).unwrap();
        codec.compress(b"and reports every call");
        assert_eq!(
            telemetry::snapshot().counter("codecs.compress.calls", &l),
            before + 2
        );
    }
}
