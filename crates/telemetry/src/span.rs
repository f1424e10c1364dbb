//! Stage timing through handles resolved once.
//!
//! A [`Stage`] attributes externally timed intervals — the zstdx
//! match-find/entropy split, the lz4x/zlibx stages — to a named stage.
//! One [`Stage::record`] feeds three sinks from one instrumentation
//! point: the global histogram `span.<name>` (call counts and
//! p50/p90/p99/max), a begin/end pair on the calling thread's
//! [flight-recorder track](crate::trace), and the open
//! [request context](crate::request), if any. Declared as `static`s at
//! the call site, a stage looks its histogram up on the first record
//! only, so the per-block cost is the updates themselves.

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

    /// Records one interval of this stage into the global registry, the
    /// calling thread's trace track and its open request, if any.
    pub fn record(&self, start: Instant, elapsed: Duration) {
        self.hist
            .get_or_init(|| crate::global().histogram(&format!("{SPAN_PREFIX}{}", self.name), &[]))
            .observe_duration(elapsed);
        crate::trace::stage(self.name, start, elapsed);
        crate::request::observe_stage(self.name, start, elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_feeds_histogram_and_trace() {
        static STAGE: Stage = Stage::new("test.stage");
        let count = || {
            crate::snapshot()
                .histogram("span.test.stage", &[])
                .map_or(0, |h| h.count())
        };
        let before = count();
        STAGE.record(Instant::now(), Duration::from_nanos(900));
        STAGE.record(Instant::now(), Duration::from_nanos(100));
        assert_eq!(count(), before + 2);
        // The trace side lands on this thread's global track; a full
        // drain assertion lives in the trace e2e test (the global
        // tracer is shared across concurrently running tests).
        assert!(crate::trace::global_tracer().track_count() >= 1);
    }
}
