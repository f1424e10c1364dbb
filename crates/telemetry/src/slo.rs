//! Declarative SLOs with multi-window burn-rate alerting and
//! error-budget accounting.
//!
//! An [`Slo`] declares what "good" means — a latency threshold
//! ([`SloKind::Latency`]) or plain success/failure
//! ([`SloKind::ErrorRate`]) — plus a target fraction of good events
//! (e.g. 0.999). Every recorded event lands in two sliding windows (a
//! fast one and a slow one, per the multi-window multi-burn-rate
//! alerting strategy of the Google SRE workbook: fast 5 m / slow 1 h
//! in production, scaled down by tests and the CLI monitor) and in a
//! cumulative error-budget tally.
//!
//! The **burn rate** of a window is `bad_fraction / (1 - target)`: 1.0
//! means the service is spending its error budget exactly as fast as
//! the target allows; 10 means ten times too fast. Evaluation maps the
//! two burn rates onto [`SloState`]:
//!
//! * `Burning` — both windows at or above the page threshold (the slow
//!   window confirms the fast one, suppressing blips);
//! * `Warning` — either window at or above the warn threshold;
//! * `Ok` — otherwise.
//!
//! State transitions are appended to an inspectable log
//! ([`Slo::transitions`]).
//!
//! Request paths only [`record`](Slo::record), through an [`SloHandle`]
//! resolved once; evaluation happens where state is read —
//! [`Slo::report`] and everything built on it (`/slo`, the `slo.*`
//! gauges [`SloRegistry::publish`] adds to `/metrics`, the CLI
//! verdicts). A transition is therefore stamped with the time of the
//! read that observed it, not of the request that caused it.
//!
//! Everything rotates on the injected [`Clock`], so tests drive exact
//! `Ok → Warning → Burning` sequences with a [`ManualClock`](crate::ManualClock).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::clock::Clock;
use crate::export::{json_number, json_string};
use crate::registry::Series;
use crate::window::{WindowConfig, WindowedCounter};

/// What counts as a "good" event for an objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloKind {
    /// Good iff the observed latency is at or under the threshold.
    Latency {
        /// Inclusive upper bound for a good sample, in nanoseconds.
        threshold_nanos: u64,
    },
    /// Good iff the operation reported success.
    ErrorRate,
}

/// A declarative service-level objective.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Objective name, e.g. `"decode.latency"`.
    pub name: String,
    /// What "good" means.
    pub kind: SloKind,
    /// Target fraction of good events in `(0, 1)`, e.g. 0.999.
    pub target: f64,
    /// The fast confirmation window.
    pub fast_window: WindowConfig,
    /// The slow confirmation window.
    pub slow_window: WindowConfig,
    /// Burn rate at which both windows must agree to page
    /// ([`SloState::Burning`]).
    pub page_burn: f64,
    /// Burn rate at which either window warns ([`SloState::Warning`]).
    pub warn_burn: f64,
}

impl SloConfig {
    /// A latency objective with the default window/burn shape:
    /// fast 30 s (10 × 3 s), slow 5 m (10 × 30 s), page at 14.4×,
    /// warn at 6× — the classic SRE-workbook thresholds.
    pub fn latency(name: impl Into<String>, threshold_nanos: u64, target: f64) -> Self {
        Self {
            kind: SloKind::Latency { threshold_nanos },
            ..Self::error_rate(name, target)
        }
    }

    /// An error-rate objective (ceiling `1 - target`) with the default
    /// window/burn shape of [`SloConfig::latency`].
    pub fn error_rate(name: impl Into<String>, target: f64) -> Self {
        Self {
            name: name.into(),
            kind: SloKind::ErrorRate,
            target,
            fast_window: WindowConfig::new(3_000_000_000, 10),
            slow_window: WindowConfig::new(30_000_000_000, 10),
            page_burn: 14.4,
            warn_burn: 6.0,
        }
    }

    /// Rescales both windows (e.g. for a short monitor run or a test).
    pub fn with_windows(mut self, fast: WindowConfig, slow: WindowConfig) -> Self {
        self.fast_window = fast;
        self.slow_window = slow;
        self
    }

    /// Overrides the burn thresholds.
    #[cfg(test)]
    fn with_burns(mut self, page: f64, warn: f64) -> Self {
        self.page_burn = page;
        self.warn_burn = warn;
        self
    }
}

/// The health of an objective, from its two burn rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SloState {
    /// Burning budget within plan.
    Ok,
    /// At least one window is burning fast enough to worry.
    Warning,
    /// Both windows confirm a page-worthy burn.
    Burning,
}

impl SloState {
    /// Lower-case label, as used in JSON and metric values.
    pub fn as_str(&self) -> &'static str {
        match self {
            SloState::Ok => "ok",
            SloState::Warning => "warning",
            SloState::Burning => "burning",
        }
    }
}

/// One recorded state change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloTransition {
    /// Clock time of the evaluation that flipped the state.
    pub at_nanos: u64,
    /// State before.
    pub from: SloState,
    /// State after.
    pub to: SloState,
}

/// Cumulative error-budget accounting for one objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetReport {
    /// Total events recorded since process start.
    pub total: u64,
    /// Bad events recorded since process start.
    pub bad: u64,
    /// Bad events the target allows for `total` events:
    /// `(1 - target) × total`.
    pub allowed: f64,
    /// Fraction of the budget still unspent, in `[0, 1]`.
    pub remaining_fraction: f64,
    /// True once more budget is spent than the target allows.
    pub exhausted: bool,
}

/// A point-in-time evaluation of one objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Objective name.
    pub name: String,
    /// Target fraction of good events.
    pub target: f64,
    /// Current state.
    pub state: SloState,
    /// Burn rate over the fast window.
    pub fast_burn: f64,
    /// Burn rate over the slow window.
    pub slow_burn: f64,
    /// Cumulative budget accounting.
    pub budget: BudgetReport,
}

/// A live objective: two windows of good/bad tallies plus cumulative
/// budget counters. See the [module docs](self).
#[derive(Debug)]
pub struct Slo {
    cfg: SloConfig,
    clock: Arc<dyn Clock>,
    fast_good: WindowedCounter,
    fast_bad: WindowedCounter,
    slow_good: WindowedCounter,
    slow_bad: WindowedCounter,
    total_good: AtomicU64,
    total_bad: AtomicU64,
    state: Mutex<SloState>,
    transitions: Mutex<Vec<SloTransition>>,
}

impl Slo {
    /// Creates an objective rotating on `clock`.
    pub fn new(cfg: SloConfig, clock: Arc<dyn Clock>) -> Self {
        Self {
            fast_good: WindowedCounter::new(cfg.fast_window, Arc::clone(&clock)),
            fast_bad: WindowedCounter::new(cfg.fast_window, Arc::clone(&clock)),
            slow_good: WindowedCounter::new(cfg.slow_window, Arc::clone(&clock)),
            slow_bad: WindowedCounter::new(cfg.slow_window, Arc::clone(&clock)),
            total_good: AtomicU64::new(0),
            total_bad: AtomicU64::new(0),
            state: Mutex::new(SloState::Ok),
            transitions: Mutex::new(Vec::new()),
            cfg,
            clock,
        }
    }

    /// Records a latency sample against a [`SloKind::Latency`]
    /// objective; good iff at or under the threshold. No-op semantics
    /// for other kinds are a programming error, so this panics.
    pub fn record_latency(&self, nanos: u64) {
        match self.cfg.kind {
            SloKind::Latency { threshold_nanos } => self.record(nanos <= threshold_nanos),
            SloKind::ErrorRate => panic!("latency sample recorded against error-rate SLO"),
        }
    }

    /// Records one event outcome.
    pub fn record(&self, good: bool) {
        if good {
            self.fast_good.inc();
            self.slow_good.inc();
            self.total_good.fetch_add(1, Ordering::Relaxed);
        } else {
            self.fast_bad.inc();
            self.slow_bad.inc();
            self.total_bad.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Burn rates over (fast, slow) windows. A window with no events
    /// burns at 0.
    pub fn burn_rates(&self) -> (f64, f64) {
        (
            burn(
                self.fast_good.total(),
                self.fast_bad.total(),
                self.cfg.target,
            ),
            burn(
                self.slow_good.total(),
                self.slow_bad.total(),
                self.cfg.target,
            ),
        )
    }

    /// Cumulative error-budget accounting.
    pub fn budget(&self) -> BudgetReport {
        let good = self.total_good.load(Ordering::Relaxed);
        let bad = self.total_bad.load(Ordering::Relaxed);
        let total = good + bad;
        let allowed = (1.0 - self.cfg.target) * total as f64;
        let remaining_fraction = if total == 0 || allowed <= 0.0 {
            if bad == 0 {
                1.0
            } else {
                0.0
            }
        } else {
            (1.0 - bad as f64 / allowed).clamp(0.0, 1.0)
        };
        BudgetReport {
            total,
            bad,
            allowed,
            remaining_fraction,
            exhausted: total > 0 && bad as f64 > allowed,
        }
    }

    /// Re-derives the state from current burn rates. On a change, the
    /// transition is logged ([`Slo::transitions`]).
    pub fn evaluate(&self) -> SloState {
        let (fast, slow) = self.burn_rates();
        let next = if fast >= self.cfg.page_burn && slow >= self.cfg.page_burn {
            SloState::Burning
        } else if fast >= self.cfg.warn_burn || slow >= self.cfg.warn_burn {
            SloState::Warning
        } else {
            SloState::Ok
        };
        let mut state = self.state.lock().expect("slo state not poisoned");
        if *state != next {
            self.transitions
                .lock()
                .expect("slo transitions not poisoned")
                .push(SloTransition {
                    at_nanos: self.clock.now_nanos(),
                    from: *state,
                    to: next,
                });
            *state = next;
        }
        next
    }

    /// The state as of the last [`Slo::evaluate`] call.
    pub fn state(&self) -> SloState {
        *self.state.lock().expect("slo state not poisoned")
    }

    /// All state changes so far, in order.
    pub fn transitions(&self) -> Vec<SloTransition> {
        self.transitions
            .lock()
            .expect("slo transitions not poisoned")
            .clone()
    }

    /// Evaluates and bundles everything the `/slo` endpoint reports.
    pub fn report(&self) -> SloReport {
        let state = self.evaluate();
        let (fast_burn, slow_burn) = self.burn_rates();
        SloReport {
            name: self.cfg.name.clone(),
            target: self.cfg.target,
            state,
            fast_burn,
            slow_burn,
            budget: self.budget(),
        }
    }
}

/// A request-path reference to one objective by well-known name: the
/// `Arc<Slo>` is resolved once and re-resolved only after a
/// registration bumps the registry's generation, so an objective
/// declared after the first request still receives every later sample.
#[derive(Debug)]
pub struct SloHandle {
    name: &'static str,
    seen: u64,
    slo: Option<Arc<Slo>>,
}

impl SloHandle {
    /// A handle on the objective `name`, unresolved until first use.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            seen: 0,
            slo: None,
        }
    }

    /// The objective in `registry`, if registered.
    pub fn get(&mut self, registry: &SloRegistry) -> Option<&Slo> {
        let generation = registry.generation.load(Ordering::Acquire);
        if generation != self.seen {
            self.slo = registry.get(self.name);
            self.seen = generation;
        }
        self.slo.as_deref()
    }
}

fn burn(good: u64, bad: u64, target: f64) -> f64 {
    let total = good + bad;
    if total == 0 {
        return 0.0;
    }
    let bad_fraction = bad as f64 / total as f64;
    let budget_fraction = (1.0 - target).max(f64::EPSILON);
    bad_fraction / budget_fraction
}

/// A named set of objectives sharing one clock — the process-global
/// shape behind [`crate::slos`].
#[derive(Debug)]
pub struct SloRegistry {
    clock: Arc<dyn Clock>,
    slos: RwLock<Vec<Arc<Slo>>>,
    /// Bumped by every new registration, so [`SloHandle`]s re-resolve
    /// with one atomic load instead of a name scan per request. The
    /// `Release` bump pairs with the handle's `Acquire` load; the
    /// re-resolve itself reads under the `slos` lock.
    generation: AtomicU64,
}

impl SloRegistry {
    /// Creates an empty registry on `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        Self {
            clock,
            slos: RwLock::new(Vec::new()),
            generation: AtomicU64::new(0),
        }
    }

    /// Registers (or fetches, by name) an objective. A re-register
    /// under an existing name returns the existing objective and
    /// ignores the new config, so instrumentation sites can race.
    pub fn register(&self, cfg: SloConfig) -> Arc<Slo> {
        let mut slos = self.slos.write().expect("slo registry not poisoned");
        if let Some(s) = slos.iter().find(|s| s.cfg.name == cfg.name) {
            return Arc::clone(s);
        }
        let slo = Arc::new(Slo::new(cfg, Arc::clone(&self.clock)));
        slos.push(Arc::clone(&slo));
        slos.sort_by(|a, b| a.cfg.name.cmp(&b.cfg.name));
        self.generation.fetch_add(1, Ordering::Release);
        slo
    }

    /// Fetches an objective by name.
    pub fn get(&self, name: &str) -> Option<Arc<Slo>> {
        self.slos
            .read()
            .expect("slo registry not poisoned")
            .iter()
            .find(|s| s.cfg.name == name)
            .cloned()
    }

    /// Evaluates every objective, name order.
    pub fn reports(&self) -> Vec<SloReport> {
        self.slos
            .read()
            .expect("slo registry not poisoned")
            .iter()
            .map(|s| s.report())
            .collect()
    }

    /// Publishes each objective's evaluation as gauges labelled
    /// `objective`: `slo.state` (0=ok 1=warning 2=burning) and
    /// `slo.budget_remaining`. The burn rates behind the state are read
    /// from `/slo` and the CLI verdict tables.
    pub fn publish(&self, out: &mut Vec<Series>) {
        for r in self.reports() {
            let labels = [("objective", r.name.as_str())];
            for (name, v) in [
                ("slo.state", f64::from(r.state as u8)),
                ("slo.budget_remaining", r.budget.remaining_fraction),
            ] {
                out.push(Series::gauge(name, &labels, v));
            }
        }
    }

    /// Worst current state across objectives ([`SloState::Ok`] when
    /// empty).
    pub fn worst_state(&self) -> SloState {
        self.reports()
            .iter()
            .map(|r| r.state)
            .max()
            .unwrap_or(SloState::Ok)
    }
}

/// Serializes reports as the `/slo` JSON document:
/// `{"version":1,"worst":"...","objectives":[...]}`.
pub fn to_json_reports(reports: &[SloReport]) -> String {
    let worst = reports
        .iter()
        .map(|r| r.state)
        .max()
        .unwrap_or(SloState::Ok);
    let mut out = String::with_capacity(reports.len() * 160 + 64);
    out.push_str("{\"version\":1,\"worst\":\"");
    out.push_str(worst.as_str());
    out.push_str("\",\"objectives\":[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json_string(&mut out, &r.name);
        out.push_str(",\"target\":");
        json_number(&mut out, r.target);
        out.push_str(",\"state\":\"");
        out.push_str(r.state.as_str());
        out.push_str("\",\"fast_burn\":");
        json_number(&mut out, r.fast_burn);
        out.push_str(",\"slow_burn\":");
        json_number(&mut out, r.slow_burn);
        out.push_str(&format!(
            ",\"budget\":{{\"total\":{},\"bad\":{},\"allowed\":",
            r.budget.total, r.budget.bad
        ));
        json_number(&mut out, r.budget.allowed);
        out.push_str(",\"remaining_fraction\":");
        json_number(&mut out, r.budget.remaining_fraction);
        out.push_str(",\"exhausted\":");
        out.push_str(if r.budget.exhausted { "true" } else { "false" });
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    const MS: u64 = 1_000_000;

    /// target 0.9 → 10% budget. Fast window 400 ms, slow 1600 ms.
    /// Page at 2× (bad ≥ 20%), warn at 1.5× (bad ≥ 15%).
    fn test_slo(clock: &Arc<ManualClock>) -> Slo {
        let cfg = SloConfig::error_rate("decode.errors", 0.9)
            .with_windows(
                WindowConfig::new(100 * MS, 4),
                WindowConfig::new(400 * MS, 4),
            )
            .with_burns(2.0, 1.5);
        Slo::new(cfg, Arc::clone(clock) as Arc<dyn Clock>)
    }

    fn record_mix(slo: &Slo, good: u64, bad: u64) {
        for _ in 0..good {
            slo.record(true);
        }
        for _ in 0..bad {
            slo.record(false);
        }
    }

    #[test]
    fn burn_rate_math_is_exact() {
        let clock = ManualClock::shared();
        let slo = test_slo(&clock);
        record_mix(&slo, 90, 10); // bad fraction 0.1 = budget → burn 1.0
        let (fast, slow) = slo.burn_rates();
        assert!((fast - 1.0).abs() < 1e-9, "{fast}");
        assert!((slow - 1.0).abs() < 1e-9, "{slow}");
        assert_eq!(slo.evaluate(), SloState::Ok);
    }

    #[test]
    fn transitions_ok_warning_burning_and_back() {
        let clock = ManualClock::shared();
        let slo = test_slo(&clock);
        // Phase 1: healthy traffic → Ok.
        record_mix(&slo, 100, 0);
        assert_eq!(slo.evaluate(), SloState::Ok);
        assert!(slo.transitions().is_empty(), "Ok → Ok is not a transition");
        // Phase 2: bad fraction 16% → burn 1.6: warn (≥1.5), not page.
        clock.advance(100 * MS);
        record_mix(&slo, 84, 16);
        // Fast window: 184 good, 16 bad → 8% → burn 0.8? No: fast
        // window (400 ms) still holds phase 1. total 200, bad 16 →
        // burn 0.8. Slow window identical. Still Ok.
        assert_eq!(slo.evaluate(), SloState::Ok);
        // Phase 3: the fast window forgets phase 1, the slow window
        // still remembers it → Warning (fast over, slow under).
        clock.advance(400 * MS); // t=500ms: fast holds only ≥200ms epochs
        assert_eq!(slo.evaluate(), SloState::Ok, "fast window is now empty");
        record_mix(&slo, 80, 20); // fast: 20% bad → burn 2.0; slow: 36/300 → 1.2
        assert_eq!(slo.evaluate(), SloState::Warning);
        // Phase 4: sustained badness fills the slow window too → Burning.
        clock.advance(100 * MS);
        record_mix(&slo, 0, 60); // slow: 96 bad / 360 → burn 2.67; fast: 80/160 → 5.0
        assert_eq!(slo.evaluate(), SloState::Burning);
        // Phase 5: all traffic ages out → Ok again.
        clock.advance(3200 * MS);
        assert_eq!(slo.evaluate(), SloState::Ok);
        let transitions: Vec<(SloState, SloState)> =
            slo.transitions().iter().map(|t| (t.from, t.to)).collect();
        assert_eq!(
            transitions,
            vec![
                (SloState::Ok, SloState::Warning),
                (SloState::Warning, SloState::Burning),
                (SloState::Burning, SloState::Ok),
            ]
        );
        // Transition timestamps come from the injected clock.
        assert_eq!(slo.transitions()[0].at_nanos, 500 * MS);
        assert_eq!(slo.transitions()[1].at_nanos, 600 * MS);
        assert_eq!(slo.transitions()[2].at_nanos, 3800 * MS);
    }

    #[test]
    fn latency_kind_classifies_by_threshold() {
        let clock = ManualClock::shared();
        let cfg = SloConfig::latency("decode.latency", 1000, 0.5).with_windows(
            WindowConfig::new(100 * MS, 4),
            WindowConfig::new(400 * MS, 4),
        );
        let slo = Slo::new(cfg, Arc::clone(&clock) as Arc<dyn Clock>);
        slo.record_latency(999); // good
        slo.record_latency(1000); // good (inclusive)
        slo.record_latency(1001); // bad
        let b = slo.budget();
        assert_eq!(b.total, 3);
        assert_eq!(b.bad, 1);
    }

    #[test]
    fn budget_accounting_and_exhaustion() {
        let clock = ManualClock::shared();
        let slo = test_slo(&clock); // 10% budget
        record_mix(&slo, 95, 5);
        let b = slo.budget();
        assert_eq!(b.total, 100);
        assert_eq!(b.bad, 5);
        assert!((b.allowed - 10.0).abs() < 1e-9);
        assert!((b.remaining_fraction - 0.5).abs() < 1e-9);
        assert!(!b.exhausted);
        record_mix(&slo, 0, 20);
        let b = slo.budget();
        assert_eq!(b.bad, 25);
        assert!((b.allowed - 12.0).abs() < 1e-9);
        assert!(b.exhausted);
        assert_eq!(b.remaining_fraction, 0.0);
    }

    #[test]
    fn registry_deduplicates_by_name_and_reports_worst() {
        let clock = ManualClock::shared();
        let reg = SloRegistry::new(Arc::clone(&clock) as Arc<dyn Clock>);
        let a = reg.register(
            SloConfig::error_rate("a", 0.9)
                .with_windows(
                    WindowConfig::new(100 * MS, 4),
                    WindowConfig::new(400 * MS, 4),
                )
                .with_burns(2.0, 1.5),
        );
        let a2 = reg.register(SloConfig::error_rate("a", 0.5));
        assert!(Arc::ptr_eq(&a, &a2), "same name → same objective");
        reg.register(
            SloConfig::error_rate("b", 0.9)
                .with_windows(
                    WindowConfig::new(100 * MS, 4),
                    WindowConfig::new(400 * MS, 4),
                )
                .with_burns(2.0, 1.5),
        );
        for _ in 0..10 {
            a.record(false);
        }
        assert_eq!(reg.worst_state(), SloState::Burning);
        assert!(reg.reports().iter().any(|r| r.budget.exhausted));
        let reports = reg.reports();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].name, "a");
        assert_eq!(reports[1].name, "b");
        assert_eq!(reports[1].state, SloState::Ok);
    }

    #[test]
    fn slo_json_is_balanced_and_complete() {
        let clock = ManualClock::shared();
        let reg = SloRegistry::new(Arc::clone(&clock) as Arc<dyn Clock>);
        let slo = reg.register(
            SloConfig::error_rate("decode.errors", 0.9)
                .with_windows(
                    WindowConfig::new(100 * MS, 4),
                    WindowConfig::new(400 * MS, 4),
                )
                .with_burns(2.0, 1.5),
        );
        for _ in 0..10 {
            slo.record(false);
        }
        let json = to_json_reports(&reg.reports());
        assert!(json.starts_with("{\"version\":1,\"worst\":\"burning\""));
        assert!(json.contains("\"name\":\"decode.errors\""));
        assert!(json.contains("\"state\":\"burning\""));
        assert!(json.contains("\"fast_burn\":10"));
        assert!(json.contains("\"exhausted\":true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(json.matches('"').count() % 2, 0);
    }

    #[test]
    fn handles_resolve_late_registrations_and_never_evaluate() {
        let clock = ManualClock::shared();
        let reg = SloRegistry::new(Arc::clone(&clock) as Arc<dyn Clock>);
        let mut handle = SloHandle::new("late");
        assert!(handle.get(&reg).is_none(), "nothing registered yet");
        reg.register(SloConfig::error_rate("other", 0.9));
        assert!(handle.get(&reg).is_none());
        let late = reg.register(SloConfig::error_rate("late", 0.9).with_burns(2.0, 1.5));
        for _ in 0..10 {
            handle
                .get(&reg)
                .expect("resolved after registration")
                .record(false);
        }
        assert_eq!(late.budget().bad, 10);
        // Recording does not evaluate: the state moves when it is read.
        assert_eq!(late.state(), SloState::Ok);
        assert!(late.transitions().is_empty());
        assert_eq!(reg.worst_state(), SloState::Burning);
        assert_eq!(late.transitions().len(), 1);
    }

    #[test]
    fn empty_registry_reports_ok() {
        let clock = ManualClock::shared();
        let reg = SloRegistry::new(Arc::clone(&clock) as Arc<dyn Clock>);
        assert_eq!(reg.worst_state(), SloState::Ok);
        assert!(!reg.reports().iter().any(|r| r.budget.exhausted));
        assert_eq!(
            to_json_reports(&reg.reports()),
            "{\"version\":1,\"worst\":\"ok\",\"objectives\":[]}"
        );
    }
}
