//! Operational resilience policies for the managed service.
//!
//! The paper frames compression as a fleet service absorbing millions
//! of requests per second; at that scale overload and partial failure
//! are the steady state, not the exception. This module supplies the
//! control-plane guardrails the data-plane hardening (`faultline`,
//! PR 3) deliberately left out:
//!
//! * [`Deadline`] — a per-request time budget on an injectable
//!   [`Clock`], started at the request's opening reading and checked
//!   between service stages so an operation returns a typed
//!   [`ManagedError::DeadlineExceeded`] instead of running long.
//! * [`Backoff`] + [`RetryBudget`] — decorrelated-jitter exponential
//!   backoff (deterministic per seed, always within `[base, cap]`)
//!   gated by a token-bucket budget, so retryable failures (e.g.
//!   dict-generation decode misses) never amplify into retry storms.
//! * [`CircuitBreaker`] — a per-(use case, op) Closed → Open →
//!   HalfOpen state machine over a rolling error-rate window
//!   ([`SubWindows`]), driven by the readings of the service's
//!   injectable clock so tests walk it deterministically with a
//!   [`ManualClock`](telemetry::ManualClock).
//! * [`AdmissionController`] — a concurrency limiter with a brownout
//!   degradation ladder: under load the service first drops to a
//!   cheaper compression level, then to passthrough frames, then
//!   sheds with a typed [`ManagedError::Overloaded`].
//!
//! Everything here is policy + mechanism only; the wiring through
//! `compress`/`decompress` lives in [`ManagedCompression`](crate::ManagedCompression).
//!
//! [`ManagedError::DeadlineExceeded`]: crate::ManagedError::DeadlineExceeded
//! [`ManagedError::Overloaded`]: crate::ManagedError::Overloaded

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use telemetry::{Clock, SubWindows, WindowConfig};

/// Breaker transitions retained for inspection (oldest dropped first).
const MAX_TRANSITIONS: usize = 256;

// ---------------------------------------------------------------------
// Policy configuration
// ---------------------------------------------------------------------

/// The full resilience policy attached to a managed service instance.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResiliencePolicy {
    /// Per-request time budget in nanoseconds; 0 disables deadlines.
    pub deadline_nanos: u64,
    /// Retry/backoff policy for retryable decode failures.
    pub retry: RetryPolicy,
    /// Circuit-breaker policy, one breaker per (use case, op).
    pub breaker: BreakerConfig,
    /// Admission control and the brownout degradation ladder.
    pub admission: AdmissionConfig,
}

/// Retry policy: attempt count, backoff shape, and token-bucket budget.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Maximum retries of one transiently failing attempt.
    pub max_attempts: u32,
    /// Backoff lower bound in nanoseconds.
    pub base_nanos: u64,
    /// Backoff upper bound in nanoseconds.
    pub cap_nanos: u64,
    /// Tokens earned per admitted request (classic retry-budget ratio:
    /// 0.1 allows retry volume up to 10% of request volume).
    pub budget_ratio: f64,
    /// Token-bucket burst capacity.
    pub budget_cap: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_nanos: 100_000,   // 100 µs
            cap_nanos: 10_000_000, // 10 ms
            budget_ratio: 0.1,
            budget_cap: 10.0,
        }
    }
}

/// Circuit-breaker policy.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Rolling window the error rate is computed over.
    pub window: WindowConfig,
    /// Minimum samples in the window before the breaker may open.
    pub min_samples: u64,
    /// Error-rate threshold in `[0, 1]` that opens the breaker.
    pub open_error_rate: f64,
    /// Time the breaker stays open before probing (HalfOpen).
    pub cooldown_nanos: u64,
    /// Consecutive HalfOpen probe successes required to close.
    pub probe_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            window: WindowConfig::new(500_000_000, 10), // 5 s rolling
            min_samples: 10,
            open_error_rate: 0.5,
            cooldown_nanos: 2_000_000_000, // 2 s
            probe_successes: 3,
        }
    }
}

/// Admission-control policy. Thresholds are occupancy (in-flight
/// requests including the one being admitted): occupancy above
/// `degrade_at` drops to `cheap_level`, above `passthrough_at` skips
/// the codec entirely (stored MCPT frames), above `max_inflight` the
/// request is shed with [`crate::ManagedError::Overloaded`].
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Hard concurrency limit; acquisition beyond it sheds.
    pub max_inflight: usize,
    /// Occupancy above which compression drops to `cheap_level`.
    pub degrade_at: usize,
    /// Occupancy above which frames ship as passthrough.
    pub passthrough_at: usize,
    /// The cheaper zstdx level used on the first ladder step.
    pub cheap_level: i32,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            max_inflight: 64,
            degrade_at: 32,
            passthrough_at: 48,
            cheap_level: 1,
        }
    }
}

// ---------------------------------------------------------------------
// Deadline
// ---------------------------------------------------------------------

/// A per-request time budget on an injectable clock. A zero budget
/// means "no deadline" and never expires (and never reads the clock).
#[derive(Debug, Clone, Copy)]
pub struct Deadline<'a> {
    clock: &'a dyn Clock,
    start_nanos: u64,
    budget_nanos: u64,
}

impl<'a> Deadline<'a> {
    /// A deadline of `budget_nanos` on `clock`, started at
    /// `start_nanos`: the reading the request opened at.
    pub fn new(clock: &'a dyn Clock, start_nanos: u64, budget_nanos: u64) -> Self {
        Self {
            clock,
            start_nanos,
            budget_nanos,
        }
    }

    /// Nanoseconds elapsed since the deadline started.
    fn elapsed_nanos(&self) -> u64 {
        self.clock.now_nanos().saturating_sub(self.start_nanos)
    }

    /// Whether the budget has been exceeded.
    pub fn expired(&self) -> bool {
        self.budget_nanos > 0 && self.elapsed_nanos() > self.budget_nanos
    }
}

// ---------------------------------------------------------------------
// Decorrelated-jitter backoff
// ---------------------------------------------------------------------

/// Decorrelated-jitter exponential backoff: each delay is drawn
/// uniformly from `[base, min(cap, prev * 3)]`, so consecutive delays
/// decorrelate across callers while growing geometrically. The RNG is
/// a seeded SplitMix64, making the sequence deterministic per seed —
/// the property the chaos harness and proptests pin.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: u64,
    cap: u64,
    prev: u64,
    state: u64,
}

impl Backoff {
    /// Creates a backoff for `policy`, seeded with `seed`.
    pub fn new(policy: &RetryPolicy, seed: u64) -> Self {
        let base = policy.base_nanos;
        let cap = policy.cap_nanos.max(base);
        Self {
            base,
            cap,
            prev: base,
            state: seed,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The next delay in nanoseconds, always within `[base, cap]`.
    pub fn next_delay_nanos(&mut self) -> u64 {
        let upper = self.prev.saturating_mul(3).clamp(self.base, self.cap);
        let span = upper - self.base;
        let jitter = if span == 0 {
            0
        } else {
            self.next_u64() % (span + 1)
        };
        let delay = self.base + jitter;
        self.prev = delay;
        delay
    }
}

// ---------------------------------------------------------------------
// Retry budget (token bucket)
// ---------------------------------------------------------------------

/// A token-bucket retry budget: every admitted request deposits
/// `budget_ratio` tokens (up to `budget_cap`); every retry withdraws
/// one. When the bucket runs dry retries are denied, bounding total
/// retry volume to `ratio × requests + cap` — the classic no-retry-storm
/// guarantee. Token arithmetic is in milli-tokens on one atomic, so the
/// budget is exact under concurrent use.
#[derive(Debug)]
pub struct RetryBudget {
    tokens_milli: AtomicU64,
    ratio_milli: u64,
    cap_milli: u64,
}

impl RetryBudget {
    /// Creates a budget from the policy knobs, starting full.
    pub fn new(policy: &RetryPolicy) -> Self {
        let cap_milli = (policy.budget_cap.max(0.0) * 1000.0) as u64;
        Self {
            tokens_milli: AtomicU64::new(cap_milli),
            ratio_milli: (policy.budget_ratio.max(0.0) * 1000.0) as u64,
            cap_milli,
        }
    }

    /// Deposits the per-request earn, saturating at the cap; a full
    /// bucket is left alone without a read-modify-write.
    pub fn deposit(&self) {
        if self.tokens_milli.load(Ordering::Acquire) >= self.cap_milli {
            return;
        }
        let _ = self
            .tokens_milli
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                Some((cur + self.ratio_milli).min(self.cap_milli))
            });
    }

    /// Withdraws one token; `false` when the budget denies the retry.
    pub fn try_spend(&self) -> bool {
        self.tokens_milli
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                cur.checked_sub(1000)
            })
            .is_ok()
    }

    /// Tokens currently available.
    #[cfg(test)]
    fn tokens(&self) -> f64 {
        self.tokens_milli.load(Ordering::Acquire) as f64 / 1000.0
    }
}

// ---------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------

/// Circuit-breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; outcomes feed the rolling error-rate window.
    Closed,
    /// Tripped: attempts fast-fail until the cooldown elapses.
    Open,
    /// Probing: a limited number of attempts are let through; enough
    /// successes close the breaker, any failure re-opens it.
    HalfOpen,
}

impl BreakerState {
    /// Stable label (`closed` / `open` / `half_open`).
    pub fn as_str(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    /// Gauge encoding: closed 0, open 1, half-open 2.
    pub fn as_gauge(&self) -> f64 {
        match self {
            BreakerState::Closed => 0.0,
            BreakerState::Open => 1.0,
            BreakerState::HalfOpen => 2.0,
        }
    }
}

/// What the breaker allows for the next attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerDecision {
    /// Closed: proceed normally.
    Allow,
    /// HalfOpen: proceed, but this attempt is a recovery probe.
    Probe,
    /// Open: skip the guarded work and degrade.
    FastFail,
}

/// One recorded state transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerTransition {
    /// Clock time of the transition, nanoseconds.
    pub at_nanos: u64,
    /// The state entered.
    pub to: BreakerState,
}

#[derive(Debug)]
struct BreakerInner {
    /// `(good, bad)` attempts per sub-window.
    outcomes: SubWindows<(u64, u64)>,
    opened_at: u64,
    probes_ok: u32,
    transitions: Vec<BreakerTransition>,
}

/// A Closed → Open → HalfOpen circuit breaker over a rolling error-rate
/// window. All time comes from the caller's readings of one injected
/// [`Clock`], so tests drive the full state walk with a
/// [`ManualClock`](telemetry::ManualClock). Every transition puts a
/// `resilience.breaker.*` mark on the calling thread's open request.
///
/// The state lives in an atomic, stored (`Release`) only under the lock:
/// a Closed or HalfOpen breaker admits, and reports its state, from an
/// `Acquire` load without taking the lock. An admission that races a
/// transition decides on the state just before it, as a locked admit
/// followed by the transition would.
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: AtomicU8,
    inner: Mutex<BreakerInner>,
}

impl CircuitBreaker {
    /// Creates a closed breaker.
    pub fn new(cfg: BreakerConfig) -> Self {
        let inner = BreakerInner {
            outcomes: SubWindows::new(cfg.window),
            opened_at: 0,
            probes_ok: 0,
            transitions: Vec::new(),
        };
        Self {
            cfg,
            state: AtomicU8::new(BreakerState::Closed as u8),
            inner: Mutex::new(inner),
        }
    }

    /// Enters `to` at `now`; called under the lock.
    fn transition(&self, inner: &mut BreakerInner, now: u64, to: BreakerState) {
        self.state.store(to as u8, Ordering::Release);
        if inner.transitions.len() >= MAX_TRANSITIONS {
            inner.transitions.remove(0);
        }
        inner
            .transitions
            .push(BreakerTransition { at_nanos: now, to });
        telemetry::request::mark(match to {
            BreakerState::Closed => "resilience.breaker.closed",
            BreakerState::Open => "resilience.breaker.open",
            BreakerState::HalfOpen => "resilience.breaker.half_open",
        });
    }

    /// Consults the breaker before an attempt, at `now` (a reading of
    /// the breaker's clock). Only an Open breaker takes the lock.
    pub fn admit(&self, now: u64) -> BreakerDecision {
        let state = self.state();
        if state != BreakerState::Open {
            return Self::decision(state);
        }
        let mut inner = self.inner.lock();
        let state = self.state();
        if state != BreakerState::Open {
            return Self::decision(state);
        }
        if now.saturating_sub(inner.opened_at) >= self.cfg.cooldown_nanos {
            inner.probes_ok = 0;
            self.transition(&mut inner, now, BreakerState::HalfOpen);
            BreakerDecision::Probe
        } else {
            BreakerDecision::FastFail
        }
    }

    /// What a breaker that is not Open decides.
    fn decision(state: BreakerState) -> BreakerDecision {
        match state {
            BreakerState::HalfOpen => BreakerDecision::Probe,
            _ => BreakerDecision::Allow,
        }
    }

    /// Records an attempt outcome at `now` (a reading of the breaker's
    /// clock) and advances the state machine, under one lock: a Closed
    /// breaker counts the outcome and evaluates its error rate on the
    /// same reading.
    pub fn record(&self, ok: bool, now: u64) {
        let mut inner = self.inner.lock();
        match self.state() {
            BreakerState::Closed => {
                let outcomes = &mut inner.outcomes;
                outcomes.update(now, |(good, bad)| *if ok { good } else { bad } += 1);
                let (good, bad) = outcomes.fold(now, (0, 0), |(g, b), &(sg, sb)| (g + sg, b + sb));
                let total = good + bad;
                if total >= self.cfg.min_samples
                    && bad as f64 / total as f64 >= self.cfg.open_error_rate
                {
                    inner.opened_at = now;
                    self.transition(&mut inner, now, BreakerState::Open);
                }
            }
            BreakerState::HalfOpen => {
                if ok {
                    inner.probes_ok += 1;
                    if inner.probes_ok >= self.cfg.probe_successes {
                        // A fresh window: the error burst that opened
                        // the breaker must not instantly re-trip it.
                        inner.outcomes = SubWindows::new(self.cfg.window);
                        self.transition(&mut inner, now, BreakerState::Closed);
                    }
                } else {
                    inner.opened_at = now;
                    inner.probes_ok = 0;
                    self.transition(&mut inner, now, BreakerState::Open);
                }
            }
            BreakerState::Open => {
                // Late outcomes of attempts admitted before the trip:
                // failures refresh the cooldown, successes are moot.
                if !ok {
                    inner.opened_at = now;
                }
            }
        }
    }

    /// The current state.
    pub fn state(&self) -> BreakerState {
        match self.state.load(Ordering::Acquire) {
            0 => BreakerState::Closed,
            1 => BreakerState::Open,
            _ => BreakerState::HalfOpen,
        }
    }

    /// The recorded transitions, oldest first (bounded).
    pub fn transitions(&self) -> Vec<BreakerTransition> {
        self.inner.lock().transitions.clone()
    }
}

// ---------------------------------------------------------------------
// Admission control + brownout ladder
// ---------------------------------------------------------------------

/// The service mode the brownout ladder selected for a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceMode {
    /// Full service: configured level, dictionary path, training.
    Normal,
    /// First ladder step: cheaper compression level, no retraining.
    CheapLevel,
    /// Second step: stored (MCPT) frames, no codec work at all.
    Passthrough,
    /// Final step: the request was shed with a typed error.
    Shed,
}

impl ServiceMode {
    /// Stable label (`normal` / `cheap_level` / `passthrough` / `shed`).
    pub fn as_str(&self) -> &'static str {
        match self {
            ServiceMode::Normal => "normal",
            ServiceMode::CheapLevel => "cheap_level",
            ServiceMode::Passthrough => "passthrough",
            ServiceMode::Shed => "shed",
        }
    }

    /// Request mark name for a transition into this mode.
    pub fn mark_name(&self) -> &'static str {
        match self {
            ServiceMode::Normal => "resilience.mode.normal",
            ServiceMode::CheapLevel => "resilience.mode.cheap_level",
            ServiceMode::Passthrough => "resilience.mode.passthrough",
            ServiceMode::Shed => "resilience.mode.shed",
        }
    }
}

/// A concurrency limiter with the brownout ladder. The counter is a
/// single atomic: acquisition increments, the permit's drop decrements,
/// and an over-limit acquisition backs its increment out — so permits
/// are never lost under concurrency (the 8-thread stress test pins
/// this).
#[derive(Debug)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    inflight: AtomicUsize,
}

impl AdmissionController {
    /// Creates a shareable controller.
    pub fn new(cfg: AdmissionConfig) -> Arc<Self> {
        Arc::new(Self {
            cfg,
            inflight: AtomicUsize::new(0),
        })
    }

    /// Tries to admit one request. `None` means shed.
    pub fn try_acquire(&self) -> Option<AdmissionPermit<'_>> {
        let occ = self.inflight.fetch_add(1, Ordering::AcqRel) + 1;
        if occ > self.cfg.max_inflight {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            return None;
        }
        let mode = if occ > self.cfg.passthrough_at {
            ServiceMode::Passthrough
        } else if occ > self.cfg.degrade_at {
            ServiceMode::CheapLevel
        } else {
            ServiceMode::Normal
        };
        Some(AdmissionPermit { ctl: self, mode })
    }

    /// Requests currently holding permits.
    #[cfg(test)]
    fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Acquire)
    }

    /// The configured thresholds.
    pub fn config(&self) -> AdmissionConfig {
        self.cfg
    }
}

/// A held admission slot; dropping it releases the slot.
#[derive(Debug)]
pub struct AdmissionPermit<'a> {
    ctl: &'a AdmissionController,
    mode: ServiceMode,
}

impl AdmissionPermit<'_> {
    /// The ladder mode selected at admission time.
    pub fn mode(&self) -> ServiceMode {
        self.mode
    }
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.ctl.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

// ---------------------------------------------------------------------
// Operational fault hook
// ---------------------------------------------------------------------

/// Where an operational fault hook is being consulted: one codec
/// attempt of one operation.
#[derive(Debug, Clone, Copy)]
pub struct FaultSite<'a> {
    /// The use case being served.
    pub use_case: &'a str,
    /// `"compress"` or `"decompress"`.
    pub op: &'static str,
    /// 0 for the first attempt, incrementing per retry.
    pub attempt: u32,
}

/// An injectable operational fault hook, consulted before every codec
/// attempt. Returning `true` injects a transient failure for that
/// attempt (the codec is not called). Hooks own their side effects —
/// the chaos injectors advance a shared
/// [`ManualClock`](telemetry::ManualClock) here to model latency spikes and clock
/// skew. Production services leave the hook unset; it costs one
/// `Option` check.
pub type FaultHook = Arc<dyn Fn(&FaultSite<'_>) -> bool + Send + Sync>;

/// How the service waits out a backoff delay. The default sleeps the
/// thread; deterministic harnesses install one that advances a
/// [`ManualClock`](telemetry::ManualClock) instead.
pub type Sleeper = Arc<dyn Fn(u64) + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::ManualClock;

    const MS: u64 = 1_000_000;

    fn manual() -> (Arc<ManualClock>, Arc<dyn Clock>) {
        let c = ManualClock::shared();
        let d = Arc::clone(&c) as Arc<dyn Clock>;
        (c, d)
    }

    #[test]
    fn deadline_expires_on_the_injected_clock() {
        let (manual, clock) = manual();
        manual.advance(5 * MS);
        let d = Deadline::new(&*clock, 5 * MS, 10 * MS);
        assert!(!d.expired());
        manual.advance(10 * MS);
        assert!(!d.expired(), "exactly at budget is not over it");
        manual.advance(1);
        assert!(d.expired());
        assert_eq!(d.elapsed_nanos(), 10 * MS + 1);
    }

    #[test]
    fn zero_deadline_never_expires() {
        let (manual, clock) = manual();
        let d = Deadline::new(&*clock, 0, 0);
        manual.advance(u64::MAX / 2);
        assert!(!d.expired());
    }

    #[test]
    fn backoff_is_deterministic_and_grows() {
        let policy = RetryPolicy::default();
        let a: Vec<u64> = {
            let mut b = Backoff::new(&policy, 7);
            (0..32).map(|_| b.next_delay_nanos()).collect()
        };
        let b: Vec<u64> = {
            let mut b = Backoff::new(&policy, 7);
            (0..32).map(|_| b.next_delay_nanos()).collect()
        };
        let c: Vec<u64> = {
            let mut b = Backoff::new(&policy, 8);
            (0..32).map(|_| b.next_delay_nanos()).collect()
        };
        assert_eq!(a, b, "same seed replays identically");
        assert_ne!(a, c, "different seeds differ");
        for d in &a {
            assert!(*d >= policy.base_nanos && *d <= policy.cap_nanos);
        }
    }

    #[test]
    fn retry_budget_bounds_retry_volume() {
        let budget = RetryBudget::new(&RetryPolicy {
            budget_ratio: 0.5,
            budget_cap: 2.0,
            ..RetryPolicy::default()
        });
        // Burst capacity: 2 tokens.
        assert!(budget.try_spend());
        assert!(budget.try_spend());
        assert!(!budget.try_spend(), "bucket is dry");
        // Two requests earn one token.
        budget.deposit();
        assert!(!budget.try_spend(), "half a token is not a retry");
        budget.deposit();
        assert!(budget.try_spend());
        // Deposits saturate at the cap.
        for _ in 0..100 {
            budget.deposit();
        }
        assert!((budget.tokens() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn breaker_walks_closed_open_half_open_closed() {
        let (manual, clock) = manual();
        let cfg = BreakerConfig {
            min_samples: 4,
            open_error_rate: 0.5,
            cooldown_nanos: 100 * MS,
            probe_successes: 2,
            ..BreakerConfig::default()
        };
        let b = CircuitBreaker::new(cfg);
        let now = || clock.now_nanos();
        assert_eq!(b.state(), BreakerState::Closed);
        // Below min_samples nothing trips, even at 100% errors.
        for _ in 0..3 {
            assert_eq!(b.admit(now()), BreakerDecision::Allow);
            b.record(false, now());
        }
        assert_eq!(b.state(), BreakerState::Closed);
        b.record(false, now()); // 4th failure: 4/4 >= 0.5 with min samples met
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.admit(now()), BreakerDecision::FastFail);
        // Cooldown not yet elapsed.
        manual.advance(99 * MS);
        assert_eq!(b.admit(now()), BreakerDecision::FastFail);
        // Cooldown elapses: probing starts.
        manual.advance(MS);
        assert_eq!(b.admit(now()), BreakerDecision::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // A probe failure re-opens and restarts the cooldown.
        b.record(false, now());
        assert_eq!(b.state(), BreakerState::Open);
        manual.advance(100 * MS);
        assert_eq!(b.admit(now()), BreakerDecision::Probe);
        b.record(true, now());
        assert_eq!(b.state(), BreakerState::HalfOpen, "one probe is not enough");
        assert_eq!(b.admit(now()), BreakerDecision::Probe);
        b.record(true, now());
        assert_eq!(b.state(), BreakerState::Closed);
        // The recovery reset the windows: one immediate failure does
        // not re-trip on the stale burst.
        b.record(false, now());
        assert_eq!(b.state(), BreakerState::Closed);
        // The whole walk is on the transition log.
        let walk: Vec<BreakerState> = b.transitions().iter().map(|t| t.to).collect();
        assert_eq!(
            walk,
            vec![
                BreakerState::Open,
                BreakerState::HalfOpen,
                BreakerState::Open,
                BreakerState::HalfOpen,
                BreakerState::Closed,
            ]
        );
    }

    #[test]
    fn breaker_needs_error_rate_not_just_errors() {
        let b = CircuitBreaker::new(BreakerConfig {
            min_samples: 10,
            open_error_rate: 0.5,
            ..BreakerConfig::default()
        });
        // 30% errors over plenty of samples: stays closed.
        for i in 0..100 {
            b.record(i % 10 >= 3, 0);
        }
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn admission_ladder_steps_with_occupancy() {
        let ctl = AdmissionController::new(AdmissionConfig {
            max_inflight: 6,
            degrade_at: 2,
            passthrough_at: 4,
            cheap_level: 1,
        });
        let mut permits = Vec::new();
        let mut modes = Vec::new();
        for _ in 0..6 {
            let p = ctl.try_acquire().expect("within limit");
            modes.push(p.mode());
            permits.push(p);
        }
        assert_eq!(
            modes,
            vec![
                ServiceMode::Normal,
                ServiceMode::Normal,
                ServiceMode::CheapLevel,
                ServiceMode::CheapLevel,
                ServiceMode::Passthrough,
                ServiceMode::Passthrough,
            ]
        );
        assert!(ctl.try_acquire().is_none(), "7th is shed");
        permits.pop();
        let reacquired = ctl.try_acquire();
        assert!(reacquired.is_some(), "released slot re-admits");
        drop(permits);
        assert_eq!(ctl.inflight(), 1, "one re-acquired permit still live");
        drop(reacquired);
        assert_eq!(ctl.inflight(), 0);
    }

    #[test]
    fn admission_accounting_loses_no_permits_under_8_threads() {
        let ctl = AdmissionController::new(AdmissionConfig {
            max_inflight: 5,
            degrade_at: 2,
            passthrough_at: 4,
            cheap_level: 1,
        });
        let shed = Arc::new(AtomicUsize::new(0));
        let served = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let ctl = Arc::clone(&ctl);
                let shed = Arc::clone(&shed);
                let served = Arc::new(Arc::clone(&served));
                std::thread::spawn(move || {
                    for _ in 0..2000 {
                        match ctl.try_acquire() {
                            Some(p) => {
                                assert!(ctl.inflight() <= 5, "limit breached");
                                served.fetch_add(1, Ordering::Relaxed);
                                drop(p);
                            }
                            None => {
                                shed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panics");
        }
        assert_eq!(ctl.inflight(), 0, "every permit was returned");
        assert_eq!(
            served.load(Ordering::Relaxed) + shed.load(Ordering::Relaxed),
            8 * 2000
        );
        // With limit 5 and 8 spinning threads, both outcomes occurred.
        assert!(served.load(Ordering::Relaxed) > 0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Decorrelated-jitter backoff is deterministic per seed and
        /// every delay stays within [base, cap].
        #[test]
        fn backoff_deterministic_and_bounded(
            seed in any::<u64>(),
            base in 0u64..10_000_000,
            cap_extra in 0u64..100_000_000,
            n in 1usize..64,
        ) {
            let policy = RetryPolicy {
                base_nanos: base,
                cap_nanos: base + cap_extra,
                ..RetryPolicy::default()
            };
            let mut a = Backoff::new(&policy, seed);
            let mut b = Backoff::new(&policy, seed);
            for _ in 0..n {
                let da = a.next_delay_nanos();
                let db = b.next_delay_nanos();
                prop_assert_eq!(da, db);
                prop_assert!(da >= policy.base_nanos);
                prop_assert!(da <= policy.cap_nanos.max(policy.base_nanos));
            }
        }

        /// Total granted retries never exceed ratio × requests + cap.
        #[test]
        fn retry_budget_never_overruns(
            requests in 0u64..500,
            attempts_per in 1u64..5,
            ratio in 0.0f64..1.0,
            cap in 0.0f64..20.0,
        ) {
            let policy = RetryPolicy {
                budget_ratio: ratio,
                budget_cap: cap,
                ..RetryPolicy::default()
            };
            let budget = RetryBudget::new(&policy);
            let mut granted = 0u64;
            for _ in 0..requests {
                budget.deposit();
                for _ in 0..attempts_per {
                    if budget.try_spend() {
                        granted += 1;
                    }
                }
            }
            let allowance = ratio * requests as f64 + cap;
            prop_assert!(
                granted as f64 <= allowance + 1e-6,
                "granted {} > allowance {}", granted, allowance
            );
        }
    }
}
