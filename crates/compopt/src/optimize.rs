//! Configuration search — Equation (4) and its extensions.
//!
//! "The goal of CompOpt is to find the optimal compression configuration
//! x_opt, which minimizes the overall cost... With more compression
//! parameters in the compression configuration, one might need to adopt
//! efficient search methods based on random sampling, gradient-descent,
//! or genetic algorithm, but the exhaustive search is sufficient for our
//! study." (paper, §V-A). [`evaluate_all`] + [`optimum`] are the
//! exhaustive path; [`random_search`] and [`hill_climb`] implement the
//! suggested extensions for larger spaces.

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

/// Pareto front over (ratio, compression speed): candidates no other
/// candidate dominates on both axes. Sorted by descending speed.
pub fn pareto_front(measured: &[Measured]) -> Vec<&Measured> {
    let mut by_speed: Vec<&Measured> = measured.iter().collect();
    by_speed.sort_by(|a, b| {
        b.metrics
            .compress_mbps()
            .total_cmp(&a.metrics.compress_mbps())
    });
    let mut front = Vec::new();
    let mut best_ratio = f64::NEG_INFINITY;
    for m in by_speed {
        if m.metrics.ratio() > best_ratio {
            best_ratio = m.metrics.ratio();
            front.push(m);
        }
    }
    front
}

/// Random-sampling search: evaluates `k` uniformly chosen candidates
/// and returns the best feasible one. A cheap stand-in for exhaustive
/// search on large spaces.
pub fn random_search(evals: &[Evaluation], k: usize, seed: u64) -> Option<&Evaluation> {
    if evals.is_empty() || k == 0 {
        return None;
    }
    // Deterministic LCG so results are reproducible without rand.
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut best: Option<&Evaluation> = None;
    for _ in 0..k {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let idx = (state >> 33) as usize % evals.len();
        let e = &evals[idx];
        if !e.feasible {
            continue;
        }
        if best.is_none_or(|b| e.total_cost < b.total_cost) {
            best = Some(e);
        }
    }
    best
}

/// Hill climbing over the evaluation list treated as a 1-D neighborhood
/// (candidates must be inserted in parameter order, e.g. by level).
/// Starts at `start` and moves to the cheaper feasible neighbor until a
/// local optimum is reached.
pub fn hill_climb(evals_in_param_order: &[Evaluation], start: usize) -> Option<&Evaluation> {
    if evals_in_param_order.is_empty() {
        return None;
    }
    let cost = |i: usize| {
        let e = &evals_in_param_order[i];
        if e.feasible {
            e.total_cost
        } else {
            f64::INFINITY
        }
    };
    let mut i = start.min(evals_in_param_order.len() - 1);
    loop {
        let mut next = i;
        if i > 0 && cost(i - 1) < cost(next) {
            next = i - 1;
        }
        if i + 1 < evals_in_param_order.len() && cost(i + 1) < cost(next) {
            next = i + 1;
        }
        if next == i {
            break;
        }
        i = next;
    }
    evals_in_param_order[i]
        .feasible
        .then(|| &evals_in_param_order[i])
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
    fn pareto_front_is_monotone() {
        let samples: Vec<Vec<u8>> = (0..2)
            .map(|i| corpus::silesia::generate(corpus::silesia::FileClass::Xml, 16 * 1024, i))
            .collect();
        let refs: Vec<&[u8]> = samples.iter().map(|v| v.as_slice()).collect();
        let mut e = CompEngine::new();
        e.add_levels(Algorithm::Zstdx, [1, 3, 6, 9]);
        let measured = e.measure(&refs);
        let front = pareto_front(&measured);
        assert!(!front.is_empty());
        for w in front.windows(2) {
            assert!(w[0].metrics.compress_mbps() >= w[1].metrics.compress_mbps());
            assert!(w[0].metrics.ratio() <= w[1].metrics.ratio());
        }
    }

    #[test]
    fn random_search_finds_good_candidate() {
        let evals = evaluations(&[]);
        let exhaustive = optimum(&evals).unwrap().total_cost;
        // Sampling the whole space repeatedly must find the optimum.
        let found = random_search(&evals, 64, 9).unwrap().total_cost;
        assert!((found - exhaustive).abs() <= f64::EPSILON.max(exhaustive * 1e-12));
    }

    #[test]
    fn hill_climb_reaches_local_optimum() {
        let evals = evaluations(&[]);
        // Re-sort by label to get a stable "parameter order".
        let mut ordered = evals.clone();
        ordered.sort_by(|a, b| a.label.cmp(&b.label));
        let best = hill_climb(&ordered, 0).unwrap();
        let i = ordered.iter().position(|e| e.label == best.label).unwrap();
        if i > 0 {
            assert!(ordered[i - 1].total_cost >= best.total_cost);
        }
        if i + 1 < ordered.len() {
            assert!(ordered[i + 1].total_cost >= best.total_cost);
        }
    }

    #[test]
    fn empty_inputs() {
        assert!(optimum(&[]).is_none());
        assert!(random_search(&[], 10, 1).is_none());
        assert!(hill_climb(&[], 0).is_none());
        assert!(pareto_front(&[]).is_empty());
    }
}

/// Genetic-algorithm search over a *structured* configuration space —
/// the third search method the paper names for larger spaces ("random
/// sampling, gradient-descent, or genetic algorithm", §V-A).
///
/// Individuals are indices into axis value lists (algorithm × level ×
/// block size); fitness is the weighted cost, with infeasible
/// individuals heavily penalized. The evaluator is a callback so tests
/// can drive it with a synthetic landscape and real users with a
/// measure-and-price closure.
pub mod genetic {
    use codecs::Algorithm;

    use crate::config::CompressionConfig;

    /// The discrete search space: one value list per axis.
    #[derive(Debug, Clone)]
    pub struct Space {
        /// Candidate algorithms.
        pub algorithms: Vec<Algorithm>,
        /// Candidate levels (clamped per algorithm on use).
        pub levels: Vec<i32>,
        /// Candidate block sizes (`None` = whole-sample).
        pub block_sizes: Vec<Option<usize>>,
    }

    impl Space {
        /// Number of points in the space.
        pub fn len(&self) -> usize {
            self.algorithms.len() * self.levels.len() * self.block_sizes.len()
        }

        /// True when any axis is empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        fn config(&self, genome: [usize; 3]) -> CompressionConfig {
            let mut c = CompressionConfig::new(
                self.algorithms[genome[0] % self.algorithms.len()],
                self.levels[genome[1] % self.levels.len()],
            );
            if let Some(bs) = self.block_sizes[genome[2] % self.block_sizes.len()] {
                c = c.with_block_size(bs);
            }
            c
        }
    }

    /// GA hyper-parameters.
    #[derive(Debug, Clone, Copy)]
    pub struct GaParams {
        /// Individuals per generation.
        pub population: usize,
        /// Generations to run.
        pub generations: usize,
        /// Per-gene mutation probability (0..1).
        pub mutation_rate: f64,
        /// RNG seed (deterministic runs).
        pub seed: u64,
    }

    impl Default for GaParams {
        fn default() -> Self {
            Self {
                population: 12,
                generations: 10,
                mutation_rate: 0.2,
                seed: 7,
            }
        }
    }

    /// Runs the GA; `fitness` maps a configuration to a cost (lower is
    /// better; return `f64::INFINITY` for infeasible configs).
    /// Returns the best configuration and its cost.
    ///
    /// # Panics
    ///
    /// Panics if the space or population is empty.
    pub fn search(
        space: &Space,
        params: &GaParams,
        mut fitness: impl FnMut(&CompressionConfig) -> f64,
    ) -> (CompressionConfig, f64) {
        assert!(!space.is_empty(), "empty search space");
        assert!(params.population >= 2, "population too small");

        // Small deterministic xorshift RNG: the GA needs reproducibility
        // more than statistical quality.
        let mut state = params.seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let axes = [
            space.algorithms.len(),
            space.levels.len(),
            space.block_sizes.len(),
        ];

        let mut population: Vec<[usize; 3]> = (0..params.population)
            .map(|_| [0, 1, 2].map(|a| next() as usize % axes[a]))
            .collect();
        let mut best: Option<([usize; 3], f64)> = None;
        // Memoize: fitness evaluations are expensive (real measurements).
        let mut cache: std::collections::HashMap<[usize; 3], f64> = Default::default();

        for _ in 0..params.generations {
            let mut scored: Vec<([usize; 3], f64)> = population
                .iter()
                .map(|&g| {
                    let cost = *cache.entry(g).or_insert_with(|| fitness(&space.config(g)));
                    (g, cost)
                })
                .collect();
            scored.sort_by(|a, b| a.1.total_cmp(&b.1));
            if best.is_none() || scored[0].1 < best.expect("set").1 {
                best = Some(scored[0]);
            }
            // Elitist reproduction: top half survives, children from
            // uniform crossover + mutation fill the rest.
            let survivors = params.population / 2;
            let parents: Vec<[usize; 3]> =
                scored[..survivors.max(2)].iter().map(|&(g, _)| g).collect();
            population = parents.clone();
            while population.len() < params.population {
                let a = parents[next() as usize % parents.len()];
                let b = parents[next() as usize % parents.len()];
                let mut child = [0usize; 3];
                for (i, c) in child.iter_mut().enumerate() {
                    *c = if next() % 2 == 0 { a[i] } else { b[i] };
                    if (next() % 1000) as f64 / 1000.0 < params.mutation_rate {
                        *c = next() as usize % axes[i];
                    }
                }
                population.push(child);
            }
        }
        let (genome, cost) = best.expect("at least one generation ran");
        (space.config(genome), cost)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn space() -> Space {
            Space {
                algorithms: vec![Algorithm::Zstdx, Algorithm::Lz4x, Algorithm::Zlibx],
                levels: vec![-1, 1, 3, 5, 7, 9],
                block_sizes: vec![None, Some(4 << 10), Some(16 << 10), Some(64 << 10)],
            }
        }

        #[test]
        fn finds_global_optimum_of_synthetic_landscape() {
            // Fitness with a unique known minimum at (zstdx, 5, 16K).
            let target = CompressionConfig::new(Algorithm::Zstdx, 5).with_block_size(16 << 10);
            let fit = |c: &CompressionConfig| {
                let mut d = 0.0;
                if c.algorithm != target.algorithm {
                    d += 10.0;
                }
                d += (c.level - target.level).abs() as f64;
                d += match (c.block_size, target.block_size) {
                    (Some(a), Some(b)) => (a as f64).log2().abs() - (b as f64).log2().abs(),
                    (None, Some(_)) | (Some(_), None) => 5.0,
                    (None, None) => 0.0,
                }
                .abs();
                d
            };
            let (best, cost) = search(
                &space(),
                &GaParams {
                    population: 16,
                    generations: 25,
                    ..Default::default()
                },
                fit,
            );
            assert_eq!(best, target, "cost {cost}");
            assert_eq!(cost, 0.0);
        }

        #[test]
        fn deterministic_for_a_seed() {
            let fit = |c: &CompressionConfig| c.level.abs() as f64;
            let a = search(&space(), &GaParams::default(), fit);
            let b = search(&space(), &GaParams::default(), fit);
            assert_eq!(a.0, b.0);
        }

        #[test]
        fn penalized_configs_are_avoided() {
            // Everything infeasible except lz4x.
            let fit = |c: &CompressionConfig| {
                if c.algorithm == Algorithm::Lz4x {
                    c.level as f64
                } else {
                    f64::INFINITY
                }
            };
            let (best, cost) = search(&space(), &GaParams::default(), fit);
            assert_eq!(best.algorithm, Algorithm::Lz4x);
            assert!(cost.is_finite());
        }

        #[test]
        #[should_panic(expected = "empty search space")]
        fn empty_space_panics() {
            let s = Space {
                algorithms: vec![],
                levels: vec![1],
                block_sizes: vec![None],
            };
            let _ = search(&s, &GaParams::default(), |_| 0.0);
        }
    }
}
