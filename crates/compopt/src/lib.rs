//! **CompOpt** — the paper's contribution: a first-order compression
//! optimizer that "quantifies the costs of integrating compression and
//! associated system design choices" (paper, §V).
//!
//! The pipeline mirrors Figure 14:
//!
//! ```text
//!  sample data ─┐
//!               ├─> CompEngine ──> compression metrics ──> cost model ──> x_opt
//!  costs/reqs ──┘      │  (ratio, comp/decomp speed)       (Eq. 1-4)
//!                      └── candidates: algorithm × level × block size
//!                          (+ CompSim simulated accelerators)
//! ```
//!
//! * [`config`] — [`CompressionConfig`]: the tuple *(algorithm, level,
//!   block size)* the paper optimizes over.
//! * [`engine`] — [`CompEngine`]: enumerates candidate configurations and
//!   measures them on user-supplied sample data.
//! * [`model`] — the analytical cost model, Equations (1)–(4) verbatim.
//! * [`pricing`] — AWS EC2/EIA/S3-derived cost rates (the paper's §V-B
//!   cost sources).
//! * [`constraints`] — service requirements (minimum compression speed,
//!   maximum decompression latency) that gate feasibility.
//! * [`optimize`] — exhaustive argmin (Eq. 4), the search the paper
//!   finds sufficient (§V-A).
//! * [`compsim`] — [`CompSim`]: the hardware-accelerator modeling
//!   interface (speed multiplier γ, accelerator α_compute, restricted
//!   match window).
//! * [`studies`] — the three sensitivity studies of §V-B as reusable
//!   functions.
//!
//! # Example
//!
//! ```
//! use compopt::prelude::*;
//!
//! let samples: Vec<Vec<u8>> = (0..4)
//!     .map(|i| corpus::silesia::generate(corpus::silesia::FileClass::Log, 16 * 1024, i))
//!     .collect();
//! let refs: Vec<&[u8]> = samples.iter().map(|v| v.as_slice()).collect();
//!
//! let mut engine = CompEngine::new();
//! engine.add_levels(codecs::Algorithm::Zstdx, [1, 3]);
//! let measured = engine.measure(&refs);
//!
//! let params = CostParams::from_pricing(&Pricing::aws_2023(), 1.0, 30.0);
//! let evals = evaluate_all(&measured, &params, CostWeights::ALL, &[]);
//! let best = optimum(&evals).expect("a feasible candidate exists");
//! assert!(best.total_cost.is_finite());
//! ```

#![warn(missing_docs)]

pub mod autotune;
pub mod compsim;
pub mod config;
pub mod constraints;
pub mod engine;
pub mod model;
pub mod optimize;
pub mod pricing;
pub mod report;
pub mod studies;

/// Common imports for CompOpt users.
pub mod prelude {
    pub use crate::autotune::AutoTuner;
    pub use crate::compsim::CompSim;
    pub use crate::config::CompressionConfig;
    pub use crate::constraints::Constraint;
    pub use crate::engine::{CompEngine, Measured};
    pub use crate::model::{CostParams, CostWeights, Costs};
    pub use crate::optimize::{evaluate_all, optimum, Evaluation};
    pub use crate::pricing::Pricing;
}
