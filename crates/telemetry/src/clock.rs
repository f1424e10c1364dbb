//! Injectable monotonic time.
//!
//! The windowed metrics ([`crate::window`]) and the SLO engine
//! ([`crate::slo`]) rotate state on a clock. Production code uses the
//! process-monotonic [`MonotonicClock`]; tests inject a [`ManualClock`]
//! and advance it explicitly, so window rotation, burn rates, and state
//! transitions are exact and deterministic — no sleeps, no flakes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A source of monotonically non-decreasing nanosecond timestamps.
///
/// Implementations must never go backwards; the epoch (what nanosecond
/// zero means) is implementation-defined and only differences matter.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Nanoseconds since this clock's epoch.
    fn now_nanos(&self) -> u64;

    /// The wall instant at which this clock read `nanos`: where a
    /// request opened at that reading places its `Instant`-timed stages.
    /// A clock that does not follow wall time has no such instant and
    /// answers the wall time of the call (the default).
    fn wall_instant(&self, _nanos: u64) -> Instant {
        Instant::now()
    }
}

/// Wall-progress clock backed by [`Instant`], anchored at construction.
#[derive(Debug, Clone)]
pub struct MonotonicClock {
    epoch: Instant,
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl MonotonicClock {
    /// Creates a clock whose zero is "now".
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }
}

impl Clock for MonotonicClock {
    fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    fn wall_instant(&self, nanos: u64) -> Instant {
        self.epoch + Duration::from_nanos(nanos)
    }
}

/// A hand-driven clock for deterministic tests: time moves only when
/// [`ManualClock::advance`] (or [`set`](ManualClock::set)) is called.
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    /// Creates a clock at nanosecond `start`.
    pub fn new(start: u64) -> Self {
        Self {
            nanos: AtomicU64::new(start),
        }
    }

    /// Creates a shareable clock at nanosecond 0.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new(0))
    }

    /// Moves time forward by `nanos`.
    pub fn advance(&self, nanos: u64) {
        self.nanos.fetch_add(nanos, Ordering::SeqCst);
    }

    /// Jumps to an absolute time; clamps so the clock never rewinds.
    pub fn set(&self, nanos: u64) {
        self.nanos.fetch_max(nanos, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_advances() {
        let c = MonotonicClock::new();
        let a = c.now_nanos();
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(c.now_nanos() > a);
    }

    #[test]
    fn monotonic_readings_map_back_to_their_instants() {
        let c = MonotonicClock::new();
        let before = Instant::now();
        let at = c.wall_instant(c.now_nanos());
        assert!(at >= before && at <= Instant::now());
    }

    #[test]
    fn manual_clock_moves_only_by_hand() {
        let c = ManualClock::new(5);
        assert_eq!(c.now_nanos(), 5);
        c.advance(10);
        assert_eq!(c.now_nanos(), 15);
        c.set(12); // never rewinds
        assert_eq!(c.now_nanos(), 15);
        c.set(40);
        assert_eq!(c.now_nanos(), 40);
    }
}
