//! Managed Compression — a stateful dictionary-lifecycle service.
//!
//! The paper (§I, §II-B) describes Meta's *Managed Compression*:
//! "services like Managed Compression expose a stateless interface to
//! users while the service keeps the states to train dictionaries using
//! previous samples to provide a better performance." This crate
//! implements that architecture over the [`codecs`] stack:
//!
//! * Clients call [`ManagedCompression::compress`]/[`decompress`] with a
//!   *use case* name and bytes — no dictionary handling on their side.
//! * The service reservoir-samples a fraction of the traffic per use
//!   case, periodically (re)trains a dictionary from the reservoir, and
//!   rolls it out as a new **version**.
//! * Frames embed the dictionary version; older versions are retained
//!   so in-flight and at-rest data stays decodable across rollouts.
//! * The service degrades gracefully under hostile or damaged input:
//!   incompressible (or codec-failing) payloads ship as stored
//!   *passthrough* frames, a frame that misses its dictionary is retried
//!   against every retained version, and a frame that still fails is
//!   **quarantined** ([`ManagedError::Quarantined`]) rather than taking
//!   the service down — all of it visible in telemetry
//!   (`managed.passthrough`, `managed.decode_retries`,
//!   `managed.quarantined`) and as marks on the requests it happened to.
//!
//! [`decompress`]: ManagedCompression::decompress
//!
//! # Example
//!
//! ```
//! use managed::{ManagedCompression, ManagedConfig};
//!
//! let mut svc = ManagedCompression::new(ManagedConfig::default());
//! let payload = br#"{"type":"user.profile","name":"n","flags":[1,2]}"#;
//! let frame = svc.compress("user-profiles", payload).unwrap();
//! assert_eq!(svc.decompress("user-profiles", &frame).unwrap(), payload);
//! ```

#![warn(missing_docs)]

mod reservoir;
pub mod resilience;
mod service;

pub use reservoir::Reservoir;
pub use resilience::{
    AdmissionConfig, AdmissionController, AdmissionPermit, Backoff, BreakerConfig, BreakerDecision,
    BreakerState, BreakerTransition, CircuitBreaker, Deadline, FaultHook, FaultSite,
    ResiliencePolicy, RetryBudget, RetryPolicy, ServiceMode, Sleeper,
};
pub use service::{ManagedCompression, ManagedConfig, UseCaseStats, PASSTHROUGH_MAGIC};

/// Errors returned by the managed service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManagedError {
    /// The named use case has never been seen by this service instance.
    UnknownUseCase(String),
    /// The frame references a dictionary version that has been retired.
    RetiredDictionary {
        /// The use case the frame belongs to.
        use_case: String,
        /// The retired dictionary version the frame references.
        version: u32,
    },
    /// The underlying codec rejected the frame.
    Codec(codecs::CodecError),
    /// The frame failed to decode under every retained dictionary
    /// version and was quarantined for offline inspection. The service
    /// stays up; the frame is retrievable via
    /// [`ManagedCompression::quarantined`].
    Quarantined {
        /// The use case the frame was submitted under.
        use_case: String,
        /// The codec error from the final decode attempt.
        source: codecs::CodecError,
    },
    /// The request's time budget ran out between service stages. The
    /// work already done is abandoned; no partial frame is returned.
    DeadlineExceeded {
        /// The use case the request was submitted under.
        use_case: String,
        /// Nanoseconds elapsed when the deadline check fired.
        elapsed_nanos: u64,
        /// The configured budget in nanoseconds.
        budget_nanos: u64,
    },
    /// Admission control shed the request: the service is past its
    /// concurrency limit and the brownout ladder is exhausted.
    Overloaded {
        /// The use case the request was submitted under.
        use_case: String,
    },
}

impl std::fmt::Display for ManagedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManagedError::UnknownUseCase(u) => write!(f, "unknown use case: {u}"),
            ManagedError::RetiredDictionary { use_case, version } => {
                write!(f, "dictionary v{version} of {use_case} has been retired")
            }
            ManagedError::Codec(e) => write!(f, "codec error: {e}"),
            ManagedError::Quarantined { use_case, source } => {
                write!(f, "frame quarantined for {use_case}: {source}")
            }
            ManagedError::DeadlineExceeded {
                use_case,
                elapsed_nanos,
                budget_nanos,
            } => write!(
                f,
                "deadline exceeded for {use_case}: {elapsed_nanos}ns elapsed of {budget_nanos}ns budget"
            ),
            ManagedError::Overloaded { use_case } => {
                write!(f, "request for {use_case} shed: service overloaded")
            }
        }
    }
}

impl std::error::Error for ManagedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ManagedError::Codec(e) => Some(e),
            ManagedError::Quarantined { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<codecs::CodecError> for ManagedError {
    fn from(e: codecs::CodecError) -> Self {
        ManagedError::Codec(e)
    }
}

/// Result alias for managed-service operations.
pub type Result<T> = std::result::Result<T, ManagedError>;
