//! Deterministic fault-injection for the datacomp codecs.
//!
//! Datacenter compression services decode bytes that crossed machines,
//! disks, and software generations; the paper's fleet characterization
//! (§III) is implicitly a study of formats that must tolerate all of
//! that. `faultline` asserts the robustness half of that story: a
//! seed-driven corruption harness that sweeps injector × codec × corpus
//! and checks the **decode contract** on every case:
//!
//! * corrupted input decodes to `Err(CodecError)` or provably intact
//!   bytes — never to silently wrong output;
//! * no decode path panics, whatever the input;
//! * output never exceeds the caller's [`codecs::DecodeLimits`] budget,
//!   so hostile length fields cannot drive allocation.
//!
//! The [`opfault`]/[`chaos`] half injects *operational* faults instead
//! of byte corruption: latency spikes, codec error bursts, and clock
//! skew driven through the managed service's fault hook, with a sweep
//! asserting the resilience invariants (typed errors only, bounded
//! retries, breakers that open and recover, a brownout ladder that
//! still round-trips).
//!
//! Everything is deterministic: a sweep is replayable from its seed, and
//! a failing case from its `(seed, injector, codec, block)` coordinates.
//!
//! ```
//! use faultline::{sweep, Injector, SweepConfig};
//! use codecs::Algorithm;
//!
//! let blocks = vec![corpus::silesia::generate(
//!     corpus::silesia::FileClass::Text, 4 << 10, 7)];
//! let cfg = SweepConfig { budget_per_block: 8, ..SweepConfig::default() };
//! let report = sweep(&blocks, &Injector::ALL, &Algorithm::ALL.to_vec(), &cfg);
//! assert_eq!(report.violations(), 0);
//! ```

pub mod chaos;
pub mod harness;
pub mod inject;
pub mod opfault;
pub mod rng;

pub use chaos::{deadline_probe, run as chaos_run, ChaosCell, ChaosConfig, ChaosReport};
pub use harness::{check_decode, dict_skew_probe, sweep, Cell, Outcome, Report, SweepConfig};
pub use inject::Injector;
pub use opfault::{OpFaultPlan, OpInjectorKind};
pub use rng::Rng;
