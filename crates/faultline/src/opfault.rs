//! Seed-driven *operational* fault injectors.
//!
//! The injectors in [`crate::inject`] corrupt bytes; the ones here
//! corrupt *operations* — they model the failure weather a managed
//! compression deployment lives in (flaky dependencies, latency
//! spikes, error bursts, clock skew) by driving the service's
//! [`FaultHook`] and a shared [`ManualClock`]. Like everything in
//! `faultline`, a plan is a pure function of its seed and call index:
//! the same seed replays the same fault schedule byte for byte.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use managed::{FaultHook, FaultSite};
use telemetry::ManualClock;

/// Manual-clock advance modeling one latency spike (5 ms).
const SPIKE_NANOS: u64 = 5_000_000;

/// Manual-clock jump modeling one clock-skew event (250 ms).
const SKEW_NANOS: u64 = 250_000_000;

/// SplitMix64: the one-u64-in, one-u64-out mixer behind every
/// per-call-index fault decision. Public so harnesses (and the
/// `datacomp monitor --chaos-seed` replay) share the exact generator.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An operational fault strategy over a stream of codec attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpInjectorKind {
    /// Every 7th attempt stalls 5 ms on the shared manual
    /// clock and then fails (a dependency that timed out); other
    /// attempts see small jittered latency and succeed.
    LatencySpike,
    /// 60% of attempts fail, i.i.d. per call index — above the default
    /// breaker threshold, so breakers must open.
    CodecErrors,
    /// Deterministic bursts: 12 consecutive failing attempts out of
    /// every 40 (a dependency flapping hard, then recovering).
    ErrorBurst,
    /// No failures, but 1-in-16 attempts jump the shared clock forward
    /// 250 ms — stressing every time-based window and cooldown.
    ClockSkew,
}

impl OpInjectorKind {
    /// All operational injectors in sweep order.
    pub const ALL: [OpInjectorKind; 4] = [
        OpInjectorKind::LatencySpike,
        OpInjectorKind::CodecErrors,
        OpInjectorKind::ErrorBurst,
        OpInjectorKind::ClockSkew,
    ];

    /// Stable name used in reports and on the CLI.
    pub fn name(&self) -> &'static str {
        match self {
            OpInjectorKind::LatencySpike => "latency-spike",
            OpInjectorKind::CodecErrors => "codec-errors",
            OpInjectorKind::ErrorBurst => "error-burst",
            OpInjectorKind::ClockSkew => "clock-skew",
        }
    }

    /// Parses a name produced by [`OpInjectorKind::name`].
    pub fn from_name(s: &str) -> Option<OpInjectorKind> {
        match s {
            "latency-spike" => Some(OpInjectorKind::LatencySpike),
            "codec-errors" => Some(OpInjectorKind::CodecErrors),
            "error-burst" => Some(OpInjectorKind::ErrorBurst),
            "clock-skew" => Some(OpInjectorKind::ClockSkew),
            _ => None,
        }
    }

    /// Whether this injector's failure rate is high enough that the
    /// chaos sweep requires the decompress breaker to open.
    pub fn expects_breaker_open(&self) -> bool {
        matches!(
            self,
            OpInjectorKind::CodecErrors | OpInjectorKind::ErrorBurst
        )
    }
}

impl std::fmt::Display for OpInjectorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A live fault schedule: one [`OpInjectorKind`] bound to a seed, a
/// call counter, and the shared [`ManualClock`] it perturbs. Install it
/// with [`OpFaultPlan::as_hook`]; flip it off (recovery phase) with
/// [`OpFaultPlan::deactivate`] — the hook stays installed but answers
/// "no fault" and stops touching the clock.
#[derive(Debug)]
pub struct OpFaultPlan {
    kind: OpInjectorKind,
    seed: u64,
    clock: Arc<ManualClock>,
    calls: AtomicU64,
    injected: AtomicU64,
    active: AtomicBool,
}

impl OpFaultPlan {
    /// Creates an active plan for `kind`, deterministic in `seed`.
    pub fn new(kind: OpInjectorKind, seed: u64, clock: Arc<ManualClock>) -> Arc<Self> {
        Arc::new(Self {
            kind,
            seed,
            clock,
            calls: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            active: AtomicBool::new(true),
        })
    }

    /// The injector this plan runs.
    pub fn kind(&self) -> OpInjectorKind {
        self.kind
    }

    /// Stops injecting (and perturbing the clock); idempotent.
    pub fn deactivate(&self) {
        self.active.store(false, Ordering::Release);
    }

    /// Attempts consulted while active.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Acquire)
    }

    /// Failures injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Acquire)
    }

    /// One fault decision for the next call index. Side effects (clock
    /// advances) happen here.
    fn decide(&self, _site: &FaultSite<'_>) -> bool {
        if !self.active.load(Ordering::Acquire) {
            return false;
        }
        let n = self.calls.fetch_add(1, Ordering::AcqRel);
        let fault = match self.kind {
            OpInjectorKind::CodecErrors => splitmix64(self.seed ^ n) % 100 < 60,
            OpInjectorKind::ErrorBurst => n % 40 < 12,
            OpInjectorKind::LatencySpike => {
                if n.is_multiple_of(7) {
                    self.clock.advance(SPIKE_NANOS);
                    true
                } else {
                    self.clock.advance(splitmix64(self.seed ^ n) % 200_000);
                    false
                }
            }
            OpInjectorKind::ClockSkew => {
                if splitmix64(self.seed ^ n).is_multiple_of(16) {
                    self.clock.advance(SKEW_NANOS);
                }
                false
            }
        };
        if fault {
            self.injected.fetch_add(1, Ordering::AcqRel);
        }
        fault
    }

    /// The plan as a service fault hook
    /// ([`ManagedCompression::set_fault_hook`]).
    ///
    /// [`ManagedCompression::set_fault_hook`]: managed::ManagedCompression::set_fault_hook
    pub fn as_hook(self: &Arc<Self>) -> FaultHook {
        let plan = Arc::clone(self);
        Arc::new(move |site: &FaultSite<'_>| plan.decide(site))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn consult(plan: &Arc<OpFaultPlan>, n: usize) -> Vec<bool> {
        let hook = plan.as_hook();
        let site = FaultSite {
            use_case: "t",
            op: "decompress",
            attempt: 0,
        };
        (0..n).map(|_| hook(&site)).collect()
    }

    #[test]
    fn plans_replay_deterministically_per_seed() {
        for kind in OpInjectorKind::ALL {
            let a = consult(&OpFaultPlan::new(kind, 99, ManualClock::shared()), 256);
            let b = consult(&OpFaultPlan::new(kind, 99, ManualClock::shared()), 256);
            assert_eq!(a, b, "{kind} not deterministic");
        }
        let a = consult(
            &OpFaultPlan::new(OpInjectorKind::CodecErrors, 1, ManualClock::shared()),
            256,
        );
        let b = consult(
            &OpFaultPlan::new(OpInjectorKind::CodecErrors, 2, ManualClock::shared()),
            256,
        );
        assert_ne!(a, b, "different seeds schedule differently");
    }

    #[test]
    fn error_burst_is_12_of_every_40() {
        let plan = OpFaultPlan::new(OpInjectorKind::ErrorBurst, 7, ManualClock::shared());
        let faults = consult(&plan, 80);
        let count = faults.iter().filter(|f| **f).count();
        assert_eq!(count, 24);
        assert!(faults.iter().take(12).all(|f| *f), "burst is consecutive");
        assert!(!faults.iter().skip(12).take(28).any(|f| *f), "then quiet");
    }

    #[test]
    fn latency_spikes_advance_the_shared_clock() {
        let clock = ManualClock::shared();
        let plan = OpFaultPlan::new(OpInjectorKind::LatencySpike, 3, Arc::clone(&clock));
        let before = telemetry::Clock::now_nanos(&*clock);
        let faults = consult(&plan, 70);
        assert_eq!(faults.iter().filter(|f| **f).count(), 10, "every 7th");
        let advanced = telemetry::Clock::now_nanos(&*clock) - before;
        assert!(advanced >= 10 * SPIKE_NANOS, "spikes stall the clock");
    }

    #[test]
    fn clock_skew_jumps_but_never_fails() {
        let clock = ManualClock::shared();
        let plan = OpFaultPlan::new(OpInjectorKind::ClockSkew, 11, Arc::clone(&clock));
        let faults = consult(&plan, 256);
        assert!(faults.iter().all(|f| !*f), "skew injects no failures");
        assert!(
            telemetry::Clock::now_nanos(&*clock) >= SKEW_NANOS,
            "at least one jump in 256 calls"
        );
    }

    #[test]
    fn deactivation_silences_the_plan_mid_stream() {
        let plan = OpFaultPlan::new(OpInjectorKind::ErrorBurst, 5, ManualClock::shared());
        assert!(consult(&plan, 4).iter().all(|f| *f), "burst head faults");
        plan.deactivate();
        assert!(consult(&plan, 64).iter().all(|f| !*f));
        assert_eq!(plan.injected(), 4);
    }

    #[test]
    fn names_round_trip() {
        for kind in OpInjectorKind::ALL {
            assert_eq!(OpInjectorKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(OpInjectorKind::from_name("nope"), None);
    }
}
