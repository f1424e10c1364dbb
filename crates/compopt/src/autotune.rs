//! Compression auto-tuning — the paper's §VI-C research direction.
//!
//! "Service characteristics often change over time. Hence, the optimal
//! compression configuration is expected to change over time as it
//! depends on data characteristics... The autotuners should be
//! cost/SLO-aware instead of just focusing on naive compression
//! metrics."
//!
//! [`AutoTuner`] wraps the CompOpt pipeline into a periodic re-tuning
//! loop: feed it fresh traffic samples each round; it re-measures its
//! candidate space, re-runs the cost model under the service's
//! constraints, and switches configurations only when the improvement
//! clears a fixed 5 % hysteresis (so measurement noise cannot flap the
//! fleet between configs).

use serde::Serialize;

use crate::config::CompressionConfig;
use crate::constraints::Constraint;
use crate::engine::CompEngine;
use crate::model::{CostParams, CostWeights};
use crate::optimize::{evaluate_all, optimum, Evaluation};

/// One re-tuning round's outcome.
#[derive(Debug, Clone, Serialize)]
pub struct TuneEvent {
    /// Round counter (0-based).
    pub round: usize,
    /// Configuration selected after this round.
    pub selected: String,
    /// Its weighted total cost on this round's samples.
    pub total_cost: f64,
    /// Whether this round changed the active configuration.
    pub switched: bool,
}

/// Relative cost improvement a candidate needs over the current
/// configuration, both priced on the same round's samples, before the
/// tuner switches to it.
const HYSTERESIS: f64 = 0.05;

/// A cost/SLO-aware configuration auto-tuner.
pub struct AutoTuner {
    configs: Vec<CompressionConfig>,
    params: CostParams,
    weights: CostWeights,
    constraints: Vec<Constraint>,
    current: Option<Evaluation>,
    history: Vec<TuneEvent>,
}

impl AutoTuner {
    /// Creates a tuner over a candidate space.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty.
    pub fn new(configs: Vec<CompressionConfig>, params: CostParams, weights: CostWeights) -> Self {
        assert!(!configs.is_empty(), "autotuner needs candidates");
        Self {
            configs,
            params,
            weights,
            constraints: Vec::new(),
            current: None,
            history: Vec::new(),
        }
    }

    /// Adds service SLO constraints.
    pub fn with_constraints(mut self, constraints: Vec<Constraint>) -> Self {
        self.constraints = constraints;
        self
    }

    /// All re-tuning rounds so far.
    pub fn history(&self) -> &[TuneEvent] {
        &self.history
    }

    /// Runs one re-tuning round on fresh traffic samples. Returns the
    /// active evaluation afterwards (`None` if no candidate is
    /// feasible this round; the previous config is kept in that case).
    pub fn retune(&mut self, samples: &[&[u8]]) -> Option<&Evaluation> {
        let mut engine = CompEngine::new();
        for c in &self.configs {
            engine.add_config(*c);
        }
        let measured = engine.measure(samples);
        let evals = evaluate_all(&measured, &self.params, self.weights, &self.constraints);
        let round = self.history.len();

        let best = match optimum(&evals) {
            Some(b) => b.clone(),
            None => {
                // Nothing feasible: keep flying on the old config.
                if let Some(cur) = &self.current {
                    self.history.push(TuneEvent {
                        round,
                        selected: cur.label.clone(),
                        total_cost: cur.total_cost,
                        switched: false,
                    });
                }
                return self.current.as_ref();
            }
        };

        let switched = match &self.current {
            None => true,
            Some(cur) if cur.label == best.label => false,
            Some(cur) => {
                // Compare on THIS round's measurements: find the current
                // config's fresh cost and require a clear win.
                let cur_fresh = evals
                    .iter()
                    .find(|e| e.label == cur.label)
                    .map(|e| e.total_cost)
                    .unwrap_or(f64::INFINITY);
                best.total_cost < cur_fresh * (1.0 - HYSTERESIS)
            }
        };

        if switched {
            self.current = Some(best);
        } else if let Some(cur) = &mut self.current {
            // Refresh the kept config's numbers from this round.
            if let Some(fresh) = evals.iter().find(|e| e.label == cur.label) {
                *cur = fresh.clone();
            }
        }
        let active = self
            .current
            .as_ref()
            .expect("some config is active after a feasible round");
        self.history.push(TuneEvent {
            round,
            selected: active.label.clone(),
            total_cost: active.total_cost,
            switched,
        });
        self.current.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pricing::Pricing;
    use codecs::Algorithm;

    fn tuner() -> AutoTuner {
        let configs = vec![
            CompressionConfig::new(Algorithm::Zstdx, 1),
            CompressionConfig::new(Algorithm::Zstdx, 6),
            CompressionConfig::new(Algorithm::Lz4x, 1),
        ];
        // Byte-priced objective so debug-build compute noise cannot
        // dominate the tests.
        let params = CostParams::from_pricing(&Pricing::aws_2023(), 1.0, 60.0);
        let weights = CostWeights {
            compute: 0.0,
            storage: 1.0,
            network: 1.0,
        };
        AutoTuner::new(configs, params, weights)
    }

    fn text_samples() -> Vec<Vec<u8>> {
        (0..3)
            .map(|i| corpus::silesia::generate(corpus::silesia::FileClass::Log, 16 << 10, i))
            .collect()
    }

    fn binary_samples() -> Vec<Vec<u8>> {
        (0..3)
            .map(|i| corpus::silesia::generate(corpus::silesia::FileClass::Binary, 16 << 10, i))
            .collect()
    }

    #[test]
    fn first_round_selects_something() {
        let mut t = tuner();
        let s = text_samples();
        let refs: Vec<&[u8]> = s.iter().map(|v| v.as_slice()).collect();
        let e = t.retune(&refs).expect("feasible");
        assert!(
            e.label.contains("zstdx"),
            "byte-priced text optimum: {}",
            e.label
        );
        assert_eq!(t.history().len(), 1);
        assert!(t.history()[0].switched);
    }

    #[test]
    fn stable_workload_does_not_flap() {
        let mut t = tuner();
        let s = text_samples();
        let refs: Vec<&[u8]> = s.iter().map(|v| v.as_slice()).collect();
        t.retune(&refs);
        let first = t.history().last().unwrap().selected.clone();
        for _ in 0..3 {
            t.retune(&refs);
        }
        assert_eq!(t.history().last().unwrap().selected, first);
        assert!(
            t.history()[1..].iter().all(|e| !e.switched),
            "{:?}",
            t.history()
        );
    }

    #[test]
    fn drift_can_switch_configuration() {
        // Move from compressible logs to incompressible binary: with
        // bytes priced, ratios collapse toward 1 for every candidate;
        // the tuner must keep functioning and keep a feasible config.
        let mut t = tuner();
        let s1 = text_samples();
        let refs1: Vec<&[u8]> = s1.iter().map(|v| v.as_slice()).collect();
        t.retune(&refs1);
        let s2 = binary_samples();
        let refs2: Vec<&[u8]> = s2.iter().map(|v| v.as_slice()).collect();
        let e = t.retune(&refs2).expect("still feasible");
        assert!(e.ratio < 1.2, "binary data barely compresses: {}", e.ratio);
        assert_eq!(t.history().len(), 2);
    }

    #[test]
    fn infeasible_round_keeps_previous_config() {
        let mut t = tuner();
        let s = text_samples();
        let refs: Vec<&[u8]> = s.iter().map(|v| v.as_slice()).collect();
        t.retune(&refs);
        let before = t.history().last().unwrap().selected.clone();
        // Impossible SLO from now on.
        t.constraints = vec![Constraint::MinCompressionRatio(1e12)];
        t.retune(&refs);
        assert_eq!(t.history().last().unwrap().selected, before);
    }

    #[test]
    #[should_panic(expected = "autotuner needs candidates")]
    fn empty_space_panics() {
        let params = CostParams::from_pricing(&Pricing::aws_2023(), 1.0, 1.0);
        let _ = AutoTuner::new(vec![], params, CostWeights::ALL);
    }
}
