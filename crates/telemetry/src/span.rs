//! Stage timing through handles resolved once.
//!
//! A [`Stage`] attributes externally timed intervals — the zstdx
//! match-find/entropy split, the lz4x/zlibx stages — to a named stage.
//! One [`Stage::record`] feeds two sinks from one instrumentation
//! point: the global histogram `span.<name>` (call counts and
//! p50/p90/p99/max) and the thread's open
//! [request context](crate::request), if any — the one store of
//! per-event observations. Declared as `static`s at the call site, a
//! stage looks its histogram up on the first record only, so the
//! per-block cost is the histogram update plus one thread-local check.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crate::histogram::Histogram;

/// Prefix applied to stage histogram names.
pub const SPAN_PREFIX: &str = "span.";

/// A named stage whose histogram is resolved on first use. See the
/// [module docs](self).
///
/// ```
/// use std::time::Instant;
/// static STAGE: telemetry::Stage = telemetry::Stage::new("demo.stage");
/// let start = Instant::now();
/// // ... stage work ...
/// STAGE.record(start, start.elapsed()); // histogram "span.demo.stage"
/// ```
#[derive(Debug)]
pub struct Stage {
    name: &'static str,
    hist: OnceLock<Arc<Histogram>>,
}

impl Stage {
    /// A stage named `name`; nothing is registered until it records.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            hist: OnceLock::new(),
        }
    }

    /// Records one interval of this stage into the global registry and
    /// the calling thread's open request, if any.
    pub fn record(&self, start: Instant, elapsed: Duration) {
        self.hist
            .get_or_init(|| crate::global().histogram(&format!("{SPAN_PREFIX}{}", self.name), &[]))
            .observe_duration(elapsed);
        crate::request::observe_stage(self.name, start, elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, ManualClock};
    use crate::request::{Op, RequestSampler, SamplerConfig};

    #[test]
    fn stage_feeds_histogram_and_open_request() {
        static STAGE: Stage = Stage::new("test.stage");
        let count = || {
            crate::snapshot()
                .histogram("span.test.stage", &[])
                .map_or(0, |h| h.count())
        };
        let before = count();
        let sampler = RequestSampler::new(
            SamplerConfig {
                baseline_one_in: 1,
                ..SamplerConfig::default()
            },
            ManualClock::shared() as Arc<dyn Clock>,
        );
        let req = sampler.open("svc", Op::Compress, 10);
        STAGE.record(Instant::now(), Duration::from_nanos(900));
        drop(req);
        STAGE.record(Instant::now(), Duration::from_nanos(100)); // no request open
        assert_eq!(count(), before + 2);
        let names: Vec<&str> = sampler.sampled()[0].spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["compress", "test.stage"]);
    }
}
