//! The managed-compression service proper.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use codecs::zstdx::Zstdx;
use codecs::{Compressor, Dictionary};
use telemetry::{
    Clock, Counter, Gauge, Registry, RequestSampler, SloHandle, WindowedCounter, WindowedHistogram,
};

use crate::reservoir::Reservoir;
use crate::resilience::{
    AdmissionController, Backoff, BreakerDecision, BreakerState, CircuitBreaker, Deadline,
    FaultHook, FaultSite, ResiliencePolicy, RetryBudget, ServiceMode, Sleeper,
};
use crate::{ManagedError, Result};

/// Magic prefix of a stored (passthrough) frame: the payload follows
/// uncompressed. Emitted when compression fails or does not pay for
/// itself; distinct from every codec frame magic.
pub const PASSTHROUGH_MAGIC: [u8; 4] = [0x4d, 0x43, 0x50, 0x54]; // "MCPT"

/// Most recent failed frames retained per use case for inspection.
const QUARANTINE_CAP: usize = 32;

/// Default byte bound on the per-use-case quarantine store.
const QUARANTINE_BYTES: usize = 256 * 1024;

/// Bytes the reservoir keeps of one payload, in dictionary sizes.
/// Training distils the samples into `dict_size` bytes, so reading much
/// more than that per sample buys nothing: on 256 KiB warehouse blocks
/// the ratio climbs up to four dictionaries' worth and falls again
/// beyond eight (scores over megabytes dilute), and the whole block
/// costs a hundred times the time and memory. DESIGN.md §6 "Dictionary
/// training" has the table.
const SAMPLE_WINDOW_DICTS: usize = 4;

/// Service configuration.
#[derive(Debug, Clone, Copy)]
pub struct ManagedConfig {
    /// Zstdx level used for all use cases.
    pub level: i32,
    /// Reservoir capacity per use case.
    pub reservoir_capacity: usize,
    /// (Re)train after this many compress calls per use case.
    pub retrain_interval: u64,
    /// Trained dictionary size in bytes.
    pub dict_size: usize,
    /// Dictionary versions retained for decompression.
    pub versions_kept: usize,
    /// Seed for reservoir sampling.
    pub seed: u64,
    /// Byte bound on the per-use-case quarantine store (entries are
    /// additionally capped in count); oldest frames are evicted first.
    pub quarantine_bytes: usize,
    /// Operational resilience policy: deadlines, retries, breakers,
    /// and the admission/brownout ladder. The default is permissive
    /// (no deadline, generous concurrency) so library use is unchanged
    /// until a policy is dialed in.
    pub resilience: ResiliencePolicy,
}

impl Default for ManagedConfig {
    fn default() -> Self {
        Self {
            level: 3,
            reservoir_capacity: 64,
            retrain_interval: 128,
            dict_size: 16 * 1024,
            versions_kept: 4,
            seed: 0x4d43,
            quarantine_bytes: QUARANTINE_BYTES,
            resilience: ResiliencePolicy::default(),
        }
    }
}

/// Per-use-case observability counters.
///
/// Backed by the service's per-instance [telemetry registry]
/// ([`ManagedCompression::telemetry`]); this struct is the stable view
/// [`ManagedCompression::stats`] reconstructs from it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UseCaseStats {
    /// Compress calls served.
    pub compress_calls: u64,
    /// Decompress calls served.
    pub decompress_calls: u64,
    /// Dictionary versions trained so far.
    pub versions_trained: u32,
    /// Uncompressed bytes in.
    pub bytes_in: u64,
    /// Compressed bytes out.
    pub bytes_out: u64,
    /// Frames emitted stored (compression failed or did not pay).
    pub passthrough: u64,
    /// Extra dictionary versions tried on decode after a miss.
    pub decode_retries: u64,
    /// Frames quarantined after failing every decode attempt.
    pub quarantined: u64,
    /// Requests shed by admission control ([`ManagedError::Overloaded`]).
    pub shed: u64,
    /// Requests abandoned on their deadline
    /// ([`ManagedError::DeadlineExceeded`]).
    pub deadline_exceeded: u64,
    /// Backoff retries granted for transient (injected) failures.
    pub retry_attempts: u64,
    /// Retries denied because the token-bucket budget ran dry.
    pub retry_budget_denied: u64,
    /// Operations degraded to passthrough because a breaker was open.
    pub breaker_fast_fail: u64,
    /// Decode-retry fan-outs that ultimately recovered via a retained
    /// dictionary generation.
    pub decode_retry_recovered: u64,
    /// Quarantined frames evicted by the count or byte bound.
    pub quarantine_evicted: u64,
}

impl UseCaseStats {
    /// Achieved compression ratio so far.
    pub fn ratio(&self) -> f64 {
        if self.bytes_out == 0 {
            return 1.0;
        }
        self.bytes_in as f64 / self.bytes_out as f64
    }
}

struct UseCase {
    reservoir: Reservoir,
    /// Retained dictionary versions, oldest first. The last one is
    /// active. Version numbers start at 1; frames before the first
    /// training carry no dictionary.
    versions: Vec<(u32, Dictionary)>,
    next_version: u32,
    calls_since_train: u64,
    /// Most recent frames that failed every decode attempt, newest last.
    quarantine: VecDeque<Vec<u8>>,
    /// Bytes currently held in `quarantine`.
    quarantine_bytes: usize,
    obs: UseCaseObs,
}

impl UseCase {
    fn new(
        use_case: &str,
        config: &ManagedConfig,
        registry: &Registry,
        clock: &Arc<dyn Clock>,
    ) -> Self {
        let mut h = DefaultHasher::new();
        use_case.hash(&mut h);
        Self {
            reservoir: Reservoir::new(
                config.reservoir_capacity,
                SAMPLE_WINDOW_DICTS * config.dict_size,
                config.seed ^ h.finish(),
            ),
            versions: Vec::new(),
            next_version: 1,
            calls_since_train: 0,
            quarantine: VecDeque::new(),
            quarantine_bytes: 0,
            obs: UseCaseObs::new(use_case, config, registry, clock),
        }
    }
}

/// What one use case reports, resolved once when the use case is first
/// seen, so a request updates handles instead of looking series up by
/// name. Shed, deadline, retry, quarantine and decode-retry recovery
/// are rare and keep their lookups.
struct UseCaseObs {
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
    passthrough: Arc<Counter>,
    versions_trained: Arc<Counter>,
    compress: OpObs,
    decompress: OpObs,
    /// `managed.compress.nanos{use_case}`, windowed: its exemplars are
    /// what `/metrics` links to `/requests.json`. Registered on first
    /// use, so `/metrics` lists exactly the series traffic produced.
    window_nanos: Option<Arc<WindowedHistogram>>,
}

impl UseCaseObs {
    fn new(
        use_case: &str,
        config: &ManagedConfig,
        registry: &Registry,
        clock: &Arc<dyn Clock>,
    ) -> Self {
        let labels = [("use_case", use_case)];
        let op = |op, calls| OpObs {
            op,
            calls: registry.counter(calls, &labels),
            breaker: CircuitBreaker::new(config.resilience.breaker, Arc::clone(clock)),
            breaker_gauge: None,
        };
        Self {
            bytes_in: registry.counter("managed.bytes_in", &labels),
            bytes_out: registry.counter("managed.bytes_out", &labels),
            passthrough: registry.counter("managed.passthrough", &labels),
            versions_trained: registry.counter("managed.versions_trained", &labels),
            compress: op("compress", "managed.compress.calls"),
            decompress: op("decompress", "managed.decompress.calls"),
            window_nanos: None,
        }
    }
}

/// One operation of one use case: its per-instance call counter, its
/// breaker over the zstdx codec, and the process-global breaker gauge,
/// registered on first use.
struct OpObs {
    op: &'static str,
    calls: Arc<Counter>,
    breaker: CircuitBreaker,
    breaker_gauge: Option<Arc<Gauge>>,
}

impl OpObs {
    /// Publishes breaker state to the global gauge the scrape endpoint
    /// exports (`resilience_breaker_state{use_case,op,codec}`).
    fn publish_breaker(&mut self, use_case: &str) {
        let op = self.op;
        self.breaker_gauge
            .get_or_insert_with(|| {
                telemetry::global().gauge(
                    "resilience.breaker.state",
                    &[("use_case", use_case), ("op", op), ("codec", "zstdx")],
                )
            })
            .set(self.breaker.state().as_gauge());
    }
}

/// The service-wide admission series, resolved at construction.
struct LadderObs {
    /// Last ladder mode, for transition marks/counters.
    last_mode: ServiceMode,
    admitted: Arc<WindowedCounter>,
}

impl LadderObs {
    fn new() -> Self {
        Self {
            last_mode: ServiceMode::Normal,
            admitted: telemetry::windows().counter("resilience.admitted", &[]),
        }
    }

    /// Records the ladder mode chosen for a request: a request mark and
    /// a transition counter when it differs from the last one.
    fn note(&mut self, mode: ServiceMode) {
        if mode != self.last_mode {
            telemetry::request::mark(mode.mark_name());
            telemetry::windows()
                .counter("resilience.mode.transitions", &[("to", mode.as_str())])
                .inc();
            self.last_mode = mode;
        }
    }
}

/// The objectives the service feeds when the embedding process (e.g.
/// `datacomp monitor`) has declared them; silent otherwise.
struct ServiceSlos {
    compress_latency: SloHandle,
    decompress_latency: SloHandle,
    decompress_errors: SloHandle,
}

/// The stateful service. See the [crate docs](crate).
pub struct ManagedCompression {
    config: ManagedConfig,
    codec: Zstdx,
    use_cases: HashMap<String, UseCase>,
    /// Per-instance registry: counters under `managed.*{use_case=...}`.
    /// Not the global one, so concurrent service instances (and tests)
    /// never see each other's traffic.
    registry: Arc<Registry>,
    /// Clock behind deadlines and breakers; injectable for tests.
    clock: Arc<dyn Clock>,
    /// Where each call's span tree is finished: the process-wide tail
    /// sampler, which tests swap for one on a manual clock.
    requests: RequestSampler,
    /// Concurrency limiter + brownout ladder, shared so harnesses can
    /// hold permits externally to simulate load.
    admission: Arc<AdmissionController>,
    /// Service-wide token-bucket retry budget.
    retry_budget: Arc<RetryBudget>,
    /// Operational fault hook (chaos harness); `None` in production.
    fault_hook: Option<FaultHook>,
    /// How backoff delays are waited out; injectable for determinism.
    sleeper: Sleeper,
    ladder: LadderObs,
    slos: ServiceSlos,
    /// Per-operation salt so each retry loop gets a fresh backoff seed.
    retry_seq: u64,
}

impl ManagedCompression {
    /// Creates a service with `config` on the process monotonic clock.
    pub fn new(config: ManagedConfig) -> Self {
        Self::with_clock(config, telemetry::global_clock())
    }

    /// Creates a service with `config` on an injected clock, so tests
    /// and chaos harnesses drive deadlines and breaker cooldowns with a
    /// [`ManualClock`](telemetry::ManualClock).
    pub fn with_clock(config: ManagedConfig, clock: Arc<dyn Clock>) -> Self {
        Self {
            config,
            codec: Zstdx::new(config.level),
            use_cases: HashMap::new(),
            registry: Arc::new(Registry::new()),
            clock,
            requests: telemetry::requests().clone(),
            admission: AdmissionController::new(config.resilience.admission),
            retry_budget: Arc::new(RetryBudget::new(&config.resilience.retry)),
            fault_hook: None,
            sleeper: Arc::new(|nanos| std::thread::sleep(std::time::Duration::from_nanos(nanos))),
            ladder: LadderObs::new(),
            slos: ServiceSlos {
                compress_latency: SloHandle::new("managed.compress.latency"),
                decompress_latency: SloHandle::new("managed.decompress.latency"),
                decompress_errors: SloHandle::new("managed.decompress.errors"),
            },
            retry_seq: 0,
        }
    }

    /// Installs an operational fault hook, consulted before every codec
    /// attempt ([`FaultSite`]). Chaos harnesses inject transient
    /// failures, latency spikes, and clock skew here.
    pub fn set_fault_hook(&mut self, hook: Option<FaultHook>) {
        self.fault_hook = hook;
    }

    /// Replaces how backoff delays are waited out. Deterministic
    /// harnesses install a sleeper that advances a manual clock instead
    /// of blocking the thread.
    pub fn set_sleeper(&mut self, sleeper: Sleeper) {
        self.sleeper = sleeper;
    }

    /// The admission controller, shared: holding permits on the
    /// returned handle simulates concurrent load against this service.
    pub fn admission(&self) -> Arc<AdmissionController> {
        Arc::clone(&self.admission)
    }

    /// Replaces the admission controller with a shared one, so several
    /// service instances (e.g. per-tenant shards behind one server)
    /// count against a single concurrency limit and walk the same
    /// brownout ladder instead of each browning out independently.
    pub fn set_admission(&mut self, admission: Arc<AdmissionController>) {
        self.admission = admission;
    }

    fn breaker_of(&self, use_case: &str, op: &str) -> Option<&CircuitBreaker> {
        let obs = &self.use_cases.get(use_case)?.obs;
        match op {
            "compress" => Some(&obs.compress.breaker),
            "decompress" => Some(&obs.decompress.breaker),
            _ => None,
        }
    }

    /// The state of the breaker guarding `(use_case, op)` — `op` is
    /// `"compress"` or `"decompress"` — or `None` for a use case the
    /// service has not seen.
    pub fn breaker_state(&self, use_case: &str, op: &'static str) -> Option<BreakerState> {
        self.breaker_of(use_case, op).map(|b| b.state())
    }

    /// The recorded state transitions of the breaker guarding
    /// `(use_case, op)`, oldest first; empty before any traffic. Chaos
    /// harnesses assert the Closed → Open → HalfOpen → Closed walk here.
    pub fn breaker_transitions(
        &self,
        use_case: &str,
        op: &'static str,
    ) -> Vec<crate::resilience::BreakerTransition> {
        self.breaker_of(use_case, op)
            .map(|b| b.transitions())
            .unwrap_or_default()
    }

    /// The per-instance telemetry registry backing [`Self::stats`]:
    /// one counter per event, labeled `{use_case=...}` —
    /// `managed.{compress,decompress}.calls`, `managed.bytes_in`,
    /// `managed.bytes_out`, `managed.versions_trained`,
    /// `managed.passthrough` and the resilience outcomes (`managed.shed`,
    /// `managed.deadline_exceeded`, `managed.retry_attempts`, ...).
    /// Latencies are not here: each call's is its request's, on the
    /// request plane.
    pub fn telemetry(&self) -> &Registry {
        &self.registry
    }

    fn dict_id(use_case: &str, version: u32) -> u32 {
        let mut h = DefaultHasher::new();
        use_case.hash(&mut h);
        // Top 12 bits from the use case, low 20 from the version: cheap
        // collision resistance for mismatched-service bugs.
        ((h.finish() as u32) << 20) | (version & 0xfffff)
    }

    /// Compresses `data` under `use_case`, transparently using (and
    /// maintaining) the case's dictionary.
    ///
    /// The resilience policy runs first: admission control walks the
    /// request down the brownout ladder under load (cheaper level →
    /// stored passthrough frames → shed), an open circuit breaker
    /// degrades to passthrough, and the per-request deadline is checked
    /// between the training and codec stages. A degraded frame is still
    /// a valid frame — every non-error return round-trips.
    ///
    /// # Errors
    ///
    /// * [`ManagedError::Overloaded`] when admission control sheds the
    ///   request (concurrency limit reached).
    /// * [`ManagedError::DeadlineExceeded`] when the request's time
    ///   budget runs out between stages.
    pub fn compress(&mut self, use_case: &str, data: &[u8]) -> Result<Vec<u8>> {
        let config = self.config;
        let policy = config.resilience;
        let labels = [("use_case", use_case)];
        let start = Instant::now();
        // Request-scoped causal trace: stages recorded below (codec
        // block loops, dict training) nest under this context until it
        // drops at return; the tail sampler then decides keep-or-drop.
        let req = self
            .requests
            .open(use_case, telemetry::Op::Compress, data.len());
        req.arm_deadline(policy.deadline_nanos);
        let deadline = Deadline::new(Arc::clone(&self.clock), policy.deadline_nanos);

        // Admission first: a shed request does no work at all.
        let Some(permit) = self.admission.try_acquire() else {
            self.ladder.note(ServiceMode::Shed);
            self.registry.counter("managed.shed", &labels).inc();
            telemetry::request::mark("resilience.shed");
            req.mark_error("overloaded");
            return Err(ManagedError::Overloaded {
                use_case: use_case.to_string(),
            });
        };
        let mode = permit.mode();
        self.ladder.note(mode);
        self.ladder.admitted.inc();
        self.retry_budget.deposit();

        if !self.use_cases.contains_key(use_case) {
            let case = UseCase::new(use_case, &config, &self.registry, &self.clock);
            self.use_cases.insert(use_case.to_string(), case);
        }
        let case = self.use_cases.get_mut(use_case).expect("inserted above");
        let reg = &self.registry;
        case.reservoir.offer(data);
        case.calls_since_train += 1;
        case.obs.compress.calls.inc();
        case.obs.bytes_in.add(data.len() as u64);

        // Rollout: train a new version when the interval elapses (or on
        // the first warm reservoir) — but only at full service; the
        // brownout ladder sheds this optional work first.
        let due = case.calls_since_train >= config.retrain_interval
            || (case.versions.is_empty() && case.reservoir.is_warm());
        if mode == ServiceMode::Normal && due && case.reservoir.is_warm() {
            let refs: Vec<&[u8]> = case
                .reservoir
                .samples()
                .iter()
                .map(|v| v.as_slice())
                .collect();
            let version = case.next_version;
            // Once per `retrain_interval` calls: a stage in the
            // request's span tree, so `/profile.json` attributes a slow
            // call to training.
            let train_start = Instant::now();
            let dict =
                codecs::dict::train(&refs, config.dict_size, Self::dict_id(use_case, version));
            telemetry::request::observe_stage("dict.train", train_start, train_start.elapsed());
            if !dict.is_empty() {
                // Only the newest generation compresses; the one it
                // supersedes keeps its content for decoding and gives
                // back its match index.
                if let Some((_, superseded)) = case.versions.last_mut() {
                    superseded.release_index();
                }
                case.versions.push((version, dict));
                case.next_version += 1;
                case.obs.versions_trained.inc();
                while case.versions.len() > config.versions_kept {
                    case.versions.remove(0);
                }
            }
            case.calls_since_train = 0;
        }

        // Deadline check between the two heavy stages (training above,
        // codec below): abandon rather than run long.
        if deadline.expired() || req.deadline_exceeded() {
            reg.counter("managed.deadline_exceeded", &labels).inc();
            telemetry::request::mark("resilience.deadline");
            req.mark_error("deadline");
            let wall = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            return Err(ManagedError::DeadlineExceeded {
                use_case: use_case.to_string(),
                elapsed_nanos: deadline.elapsed_nanos().max(wall),
                budget_nanos: policy.deadline_nanos,
            });
        }

        let stored = |data: &[u8]| {
            let mut f = Vec::with_capacity(PASSTHROUGH_MAGIC.len() + data.len());
            f.extend_from_slice(&PASSTHROUGH_MAGIC);
            f.extend_from_slice(data);
            f
        };
        // A compressor panic (hostile input tripping a codec bug), an
        // incompressible payload, an open breaker, and deep brownout
        // all degrade to a stored frame: an admitted compress call
        // never fails on codec grounds.
        let dict = case.versions.last().map(|(_, d)| d);
        let breaker = &case.obs.compress.breaker;
        let decision = breaker.admit();
        let frame = if mode == ServiceMode::Passthrough || decision == BreakerDecision::FastFail {
            if decision == BreakerDecision::FastFail {
                reg.counter("managed.breaker_fast_fail", &labels).inc();
            }
            case.obs.passthrough.inc();
            stored(data)
        } else if self.fault_hook.as_ref().is_some_and(|h| {
            h(&FaultSite {
                use_case,
                op: "compress",
                attempt: 0,
            })
        }) {
            // Injected operational fault: the codec attempt "fails";
            // compress degrades to a stored frame and the breaker sees
            // the failure.
            breaker.record(false);
            case.obs.passthrough.inc();
            stored(data)
        } else {
            let level = if mode == ServiceMode::CheapLevel {
                reg.counter("managed.degraded", &labels).inc();
                policy.admission.cheap_level
            } else {
                config.level
            };
            let codec = &self.codec;
            let compressed = panic::catch_unwind(AssertUnwindSafe(|| {
                let cheap;
                let codec = if level == config.level {
                    codec
                } else {
                    cheap = Zstdx::new(level);
                    &cheap
                };
                match dict {
                    Some(dict) => codec.compress_with_dict(data, dict),
                    None => codec.compress(data),
                }
            }))
            .ok();
            breaker.record(compressed.is_some());
            match compressed {
                Some(f) if f.len() < data.len() + PASSTHROUGH_MAGIC.len() => f,
                _ => {
                    case.obs.passthrough.inc();
                    stored(data)
                }
            }
        };
        case.obs.compress.publish_breaker(use_case);
        case.obs.bytes_out.add(frame.len() as u64);
        let elapsed = start.elapsed();
        // The sub-window max names this request as its exemplar.
        case.obs
            .window_nanos
            .get_or_insert_with(|| {
                telemetry::windows().histogram("managed.compress.nanos", &labels)
            })
            .observe(elapsed.as_nanos() as u64);
        if let Some(slo) = self.slos.compress_latency.get(telemetry::slos()) {
            slo.record_latency(elapsed.as_nanos() as u64);
        }
        Ok(frame)
    }

    /// Decompresses a frame produced by [`Self::compress`] for the same
    /// use case, resolving whichever retained dictionary version the
    /// frame references.
    ///
    /// A checksummed frame that misses its dictionary is retried
    /// against every retained version's content rebound to the
    /// requested id (`managed.decode_retries` counts the extra
    /// attempts; a recovery is attributed to the generation that
    /// decoded it via `managed.decode_retry_recovered_generation`). A
    /// frame that still fails is pushed into a bounded
    /// per-use-case quarantine ([`Self::quarantined`]) and reported
    /// without affecting service health; the event increments
    /// `managed.quarantined` and puts a `managed.quarantine` mark on the
    /// (errored, so always sampled) request.
    ///
    /// # Errors
    ///
    /// * [`ManagedError::UnknownUseCase`] for a never-seen use case.
    /// * [`ManagedError::RetiredDictionary`] when the frame's version
    ///   has been rolled past `versions_kept` and no retained
    ///   generation's content decodes it.
    /// * [`ManagedError::Quarantined`] when the frame fails under every
    ///   retained dictionary version.
    /// * [`ManagedError::Overloaded`] when admission control sheds.
    /// * [`ManagedError::DeadlineExceeded`] when the budget runs out
    ///   between decode attempts.
    pub fn decompress(&mut self, use_case: &str, frame: &[u8]) -> Result<Vec<u8>> {
        let config = self.config;
        let policy = config.resilience;
        let start = Instant::now();
        let req = self
            .requests
            .open(use_case, telemetry::Op::Decompress, frame.len());
        req.arm_deadline(policy.deadline_nanos);
        let deadline = Deadline::new(Arc::clone(&self.clock), policy.deadline_nanos);
        if !self.use_cases.contains_key(use_case) {
            req.mark_error("unknown_use_case");
            return Err(ManagedError::UnknownUseCase(use_case.to_string()));
        }
        let labels = [("use_case", use_case)];

        // Admission: decode work sits behind the same shed boundary.
        // (There is no cheaper decode — the frame dictates the work —
        // so the ladder's intermediate rungs do not apply here.)
        let Some(_permit) = self.admission.try_acquire() else {
            self.ladder.note(ServiceMode::Shed);
            self.registry.counter("managed.shed", &labels).inc();
            telemetry::request::mark("resilience.shed");
            req.mark_error("overloaded");
            return Err(ManagedError::Overloaded {
                use_case: use_case.to_string(),
            });
        };
        self.ladder.admitted.inc();
        self.retry_budget.deposit();
        let case = self.use_cases.get_mut(use_case).expect("checked above");
        let reg = &self.registry;
        case.obs.decompress.calls.inc();

        // Stored frames decode by stripping the passthrough magic.
        if let Some(raw) = frame.strip_prefix(&PASSTHROUGH_MAGIC) {
            let elapsed = start.elapsed();
            let slos = telemetry::slos();
            if let Some(slo) = self.slos.decompress_latency.get(slos) {
                slo.record_latency(elapsed.as_nanos() as u64);
            }
            if let Some(slo) = self.slos.decompress_errors.get(slos) {
                slo.record(true);
            }
            return Ok(raw.to_vec());
        }

        let codec = &self.codec;
        let sleeper = &self.sleeper;
        let budget = &self.retry_budget;
        let breaker = &case.obs.decompress.breaker;
        let decision = breaker.admit();

        // Operational fault hook: an injected transient failure retries
        // under decorrelated-jitter backoff while the token-bucket
        // budget allows and the breaker/deadline permit. An open
        // breaker fails the attempt immediately instead of hammering a
        // known-bad dependency.
        self.retry_seq = self.retry_seq.wrapping_add(1);
        let mut backoff = Backoff::new(&policy.retry, config.seed ^ self.retry_seq);
        let mut injected_failure = false;
        if let Some(h) = &self.fault_hook {
            let mut attempt = 0u32;
            loop {
                let faulted = h(&FaultSite {
                    use_case,
                    op: "decompress",
                    attempt,
                });
                if !faulted {
                    break;
                }
                breaker.record(false);
                attempt += 1;
                if decision == BreakerDecision::FastFail
                    || attempt >= policy.retry.max_attempts
                    || deadline.expired()
                {
                    injected_failure = true;
                    break;
                }
                if !budget.try_spend() {
                    reg.counter("managed.retry_budget_denied", &labels).inc();
                    injected_failure = true;
                    break;
                }
                reg.counter("managed.retry_attempts", &labels).inc();
                sleeper(backoff.next_delay_nanos());
            }
        }

        // Try dict-less first; on a dictionary mismatch error the frame
        // tells us which id it wants.
        let out = if injected_failure {
            Err(ManagedError::Codec(codecs::CodecError::Corrupt {
                stage: "injected operational fault",
                offset: 0,
            }))
        } else {
            let attempt = match codec.decompress(frame) {
                Ok(data) => Ok(data),
                Err(codecs::CodecError::UnknownDictVersion { expected, .. }) => {
                    let version = expected & 0xfffff;
                    let exact = case
                        .versions
                        .iter()
                        .find(|(v, d)| *v == version && d.id() == expected)
                        .map(|(_, d)| d);
                    match exact {
                        Some(dict) => codec.decompress_with_dict(frame, dict).map_err(Into::into),
                        None => {
                            // Rollout skew: the exact generation is gone
                            // (or the id is foreign). Retry every
                            // retained version newest-first, rebinding
                            // its *content* to the id the frame asks
                            // for — the frame's trailing checksum is
                            // the correctness guard, so only
                            // checksummed frames fan out. Each extra
                            // attempt costs a retry-budget token, and
                            // an open breaker sheds the whole fan-out.
                            let mut last_err = codecs::CodecError::UnknownDictVersion {
                                expected,
                                got: None,
                            };
                            let mut recovered = None;
                            let mut expired = false;
                            if decision == BreakerDecision::FastFail {
                                reg.counter("managed.breaker_fast_fail", &labels).inc();
                            } else if Zstdx::frame_has_checksum(frame) {
                                for (v, dict) in case.versions.iter().rev() {
                                    if deadline.expired() || req.deadline_exceeded() {
                                        expired = true;
                                        break;
                                    }
                                    if !budget.try_spend() {
                                        reg.counter("managed.retry_budget_denied", &labels).inc();
                                        break;
                                    }
                                    reg.counter("managed.decode_retries", &labels).inc();
                                    let rebound =
                                        Dictionary::new(dict.as_bytes().to_vec(), expected);
                                    match codec.decompress_with_dict(frame, &rebound) {
                                        Ok(data) => {
                                            recovered = Some((*v, data));
                                            break;
                                        }
                                        Err(e) => last_err = e,
                                    }
                                }
                            }
                            match recovered {
                                Some((v, data)) => {
                                    // Retry causality: which retained
                                    // generation saved this frame.
                                    telemetry::request::mark("managed.decode_retry.recovered");
                                    reg.counter("managed.decode_retry_recovered", &labels).inc();
                                    let generation = format!("v{v}");
                                    reg.counter(
                                        "managed.decode_retry_recovered_generation",
                                        &[
                                            ("use_case", use_case),
                                            ("generation", generation.as_str()),
                                        ],
                                    )
                                    .inc();
                                    Ok(data)
                                }
                                None if expired => {
                                    let wall =
                                        start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                                    Err(ManagedError::DeadlineExceeded {
                                        use_case: use_case.to_string(),
                                        elapsed_nanos: deadline.elapsed_nanos().max(wall),
                                        budget_nanos: policy.deadline_nanos,
                                    })
                                }
                                None if Self::dict_id(use_case, version) == expected
                                    && version < case.next_version =>
                                {
                                    // A generation this use case really
                                    // produced, rolled past versions_kept.
                                    Err(ManagedError::RetiredDictionary {
                                        use_case: use_case.to_string(),
                                        version,
                                    })
                                }
                                None => Err(last_err.into()),
                            }
                        }
                    }
                }
                Err(e) => Err(e.into()),
            };
            // Codec-level failures are breaker failures; service-level
            // classifications (retired generation, deadline) are not a
            // dependency-health signal.
            breaker.record(!matches!(&attempt, Err(ManagedError::Codec(_))));
            attempt
        };
        case.obs.decompress.publish_breaker(use_case);
        // Codec-level failures quarantine the frame; service-level
        // classifications (retired generation) pass through unchanged.
        let out = match out {
            Err(ManagedError::Codec(source)) => {
                case.quarantine.push_back(frame.to_vec());
                case.quarantine_bytes += frame.len();
                // Bounded by entries and bytes: evict oldest first.
                while case.quarantine.len() > QUARANTINE_CAP
                    || case.quarantine_bytes > config.quarantine_bytes
                {
                    let Some(old) = case.quarantine.pop_front() else {
                        break;
                    };
                    case.quarantine_bytes = case.quarantine_bytes.saturating_sub(old.len());
                    reg.counter("managed.quarantine_evicted", &labels).inc();
                }
                reg.counter("managed.quarantined", &labels).inc();
                telemetry::request::mark("managed.quarantine");
                Err(ManagedError::Quarantined {
                    use_case: use_case.to_string(),
                    source,
                })
            }
            other => other,
        };
        if let Err(e) = &out {
            req.mark_error(match e {
                ManagedError::UnknownUseCase(_) => "unknown_use_case",
                ManagedError::RetiredDictionary { .. } => "retired_dictionary",
                ManagedError::Quarantined { .. } => "quarantined",
                ManagedError::Codec(_) => "codec",
                ManagedError::DeadlineExceeded { .. } => "deadline",
                ManagedError::Overloaded { .. } => "overloaded",
            });
        }
        let elapsed = start.elapsed();
        let slos = telemetry::slos();
        if let Some(slo) = self.slos.decompress_latency.get(slos) {
            slo.record_latency(elapsed.as_nanos() as u64);
        }
        if let Some(slo) = self.slos.decompress_errors.get(slos) {
            slo.record(out.is_ok());
        }
        out
    }

    /// The quarantined frames retained for `use_case`, oldest first
    /// (bounded; oldest entries are dropped past the cap). Empty for an
    /// unknown use case.
    pub fn quarantined(&self, use_case: &str) -> Vec<&[u8]> {
        self.use_cases
            .get(use_case)
            .map(|c| c.quarantine.iter().map(|f| f.as_slice()).collect())
            .unwrap_or_default()
    }

    /// Observability counters for a use case, reconstructed from the
    /// [per-instance registry](Self::telemetry).
    pub fn stats(&self, use_case: &str) -> Option<UseCaseStats> {
        if !self.use_cases.contains_key(use_case) {
            return None;
        }
        let labels = [("use_case", use_case)];
        let snap = self.registry.snapshot();
        Some(UseCaseStats {
            compress_calls: snap.counter("managed.compress.calls", &labels),
            decompress_calls: snap.counter("managed.decompress.calls", &labels),
            versions_trained: snap.counter("managed.versions_trained", &labels) as u32,
            bytes_in: snap.counter("managed.bytes_in", &labels),
            bytes_out: snap.counter("managed.bytes_out", &labels),
            passthrough: snap.counter("managed.passthrough", &labels),
            decode_retries: snap.counter("managed.decode_retries", &labels),
            quarantined: snap.counter("managed.quarantined", &labels),
            shed: snap.counter("managed.shed", &labels),
            deadline_exceeded: snap.counter("managed.deadline_exceeded", &labels),
            retry_attempts: snap.counter("managed.retry_attempts", &labels),
            retry_budget_denied: snap.counter("managed.retry_budget_denied", &labels),
            breaker_fast_fail: snap.counter("managed.breaker_fast_fail", &labels),
            decode_retry_recovered: snap.counter("managed.decode_retry_recovered", &labels),
            quarantine_evicted: snap.counter("managed.quarantine_evicted", &labels),
        })
    }

    /// Names of all use cases the service has seen.
    pub fn use_cases(&self) -> Vec<&str> {
        self.use_cases.keys().map(|s| s.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn typed_payload(i: usize) -> Vec<u8> {
        format!(
            "{{\"schema\":\"event.click.v7\",\"session\":{},\"target\":\"btn-{}\",\"ts\":{}}}",
            i % 500,
            i % 23,
            1_700_000_000 + i
        )
        .into_bytes()
    }

    #[test]
    fn roundtrip_before_any_dictionary() {
        let mut svc = ManagedCompression::new(ManagedConfig::default());
        // First call: reservoir warm-up threshold not met -> dict-less.
        let p = typed_payload(0);
        let f = svc.compress("events", &p).unwrap();
        assert_eq!(svc.decompress("events", &f).unwrap(), p);
    }

    #[test]
    fn dictionary_rollout_improves_ratio() {
        let mut svc = ManagedCompression::new(ManagedConfig::default());
        // Warm-up traffic.
        let mut early_out = 0usize;
        let mut early_in = 0usize;
        for i in 0..8 {
            let p = typed_payload(i);
            early_in += p.len();
            early_out += svc.compress("events", &p).unwrap().len();
        }
        // Post-rollout traffic.
        let mut late_out = 0usize;
        let mut late_in = 0usize;
        for i in 100..150 {
            let p = typed_payload(i);
            late_in += p.len();
            let f = svc.compress("events", &p).unwrap();
            late_out += f.len();
            assert_eq!(svc.decompress("events", &f).unwrap(), p);
        }
        let early_ratio = early_in as f64 / early_out as f64;
        let late_ratio = late_in as f64 / late_out as f64;
        assert!(
            late_ratio > early_ratio * 1.3,
            "dictionary rollout should lift ratio: {early_ratio:.2} -> {late_ratio:.2}"
        );
        assert!(svc.stats("events").unwrap().versions_trained >= 1);
    }

    #[test]
    fn old_frames_decode_after_retrain() {
        let cfg = ManagedConfig {
            retrain_interval: 20,
            ..Default::default()
        };
        let mut svc = ManagedCompression::new(cfg);
        let mut kept: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for i in 0..70 {
            let p = typed_payload(i);
            let f = svc.compress("events", &p).unwrap();
            kept.push((p, f));
        }
        let stats = svc.stats("events").unwrap();
        assert!(stats.versions_trained >= 2, "expected multiple rollouts");
        // Every historical frame still decodes.
        for (p, f) in &kept {
            assert_eq!(&svc.decompress("events", f).unwrap(), p);
        }
    }

    #[test]
    fn superseded_generations_hold_no_index_and_still_decode() {
        let cfg = ManagedConfig {
            retrain_interval: 20,
            ..Default::default()
        };
        let mut svc = ManagedCompression::new(cfg);
        let mut kept: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for i in 0..70 {
            let p = typed_payload(i);
            let f = svc.compress("events", &p).unwrap();
            kept.push((p, f));
        }
        let index_bytes = |svc: &ManagedCompression| -> Vec<usize> {
            svc.use_cases["events"]
                .versions
                .iter()
                .map(|(_, d)| d.index_bytes())
                .collect()
        };
        let held = index_bytes(&svc);
        assert!(held.len() >= 3, "expected several retained generations");
        let (newest, superseded) = held.split_last().unwrap();
        assert!(*newest > 0, "the compressing generation is indexed");
        assert!(*newest <= 4 * cfg.dict_size, "index {newest} B");
        assert!(
            superseded.iter().all(|&b| b == 0),
            "superseded generations must give their index back: {held:?}"
        );
        // Old frames decode through the retained content alone, and
        // decoding builds nothing.
        for (p, f) in &kept {
            assert_eq!(&svc.decompress("events", f).unwrap(), p);
        }
        assert_eq!(index_bytes(&svc), held);
    }

    #[test]
    fn a_retraining_compress_reports_dict_train_in_its_span_tree() {
        use telemetry::{ManualClock, SamplerConfig};
        let clock = ManualClock::shared();
        let sampler = RequestSampler::new(
            SamplerConfig {
                baseline_one_in: 1, // keep every request
                ..Default::default()
            },
            clock.clone(),
        );
        let mut svc = ManagedCompression::new(ManagedConfig::default());
        svc.requests = sampler.clone();
        // The sampler's clock moves once per call, between training and
        // the codec, by more than any real stage lasts: every latency is
        // exactly this, and the stages must still partition it.
        const CALL_NANOS: u64 = 60_000_000_000;
        svc.set_fault_hook(Some(Arc::new(move |_| {
            clock.advance(CALL_NANOS);
            false
        })));
        for i in 0..10 {
            svc.compress("events", &typed_payload(i)).unwrap();
        }
        let sampled = sampler.sampled();
        assert_eq!(sampled.len(), 10);
        for (call, req) in sampled.iter().enumerate() {
            // The eighth call warms the reservoir and trains.
            let trains: Vec<_> = req
                .spans
                .iter()
                .filter(|s| s.name == "dict.train")
                .collect();
            assert_eq!(trains.len(), usize::from(call == 7), "call {call}");
            assert!(trains.iter().all(|s| s.parent == 1 && s.total_nanos > 0));
            assert_eq!(req.latency_nanos, CALL_NANOS);
            assert_eq!(req.self_nanos_total(), req.latency_nanos, "call {call}");
        }
        // What `/profile.json` serves attributes the time to the stage,
        // and the service's own counters hold the one retrain.
        let rows = sampler.attribution();
        assert!(rows
            .iter()
            .any(|row| row.stages.iter().any(|s| s.stage == "dict.train")));
        assert_eq!(svc.stats("events").unwrap().versions_trained, 1);
    }

    #[test]
    fn big_blocks_train_on_schedule_from_a_bounded_reservoir() {
        // 256 KiB of typed records, different per block.
        let block = |i: usize| -> Vec<u8> {
            let mut out = Vec::with_capacity(256 << 10);
            let mut j = 0;
            while out.len() < 256 << 10 {
                out.extend_from_slice(&typed_payload(i * 100_000 + j));
                j += 1;
            }
            out.truncate(256 << 10);
            out
        };
        let cfg = ManagedConfig {
            level: 1,
            ..Default::default()
        };
        let mut svc = ManagedCompression::new(cfg);
        let mut frames = Vec::new();
        let mut trained_on = Vec::new();
        for call in 1..=300 {
            let before = svc.stats("blocks").map_or(0, |s| s.versions_trained);
            frames.push(svc.compress("blocks", &block(call)).unwrap());
            if svc.stats("blocks").unwrap().versions_trained > before {
                trained_on.push(call);
            }
            let held = svc.use_cases["blocks"].reservoir.bytes();
            assert!(
                held <= cfg.reservoir_capacity * SAMPLE_WINDOW_DICTS * cfg.dict_size,
                "reservoir holds {held} B after call {call}"
            );
        }
        // The first warm reservoir, then every `retrain_interval` calls.
        assert_eq!(trained_on, [8, 136, 264]);
        for (i, frame) in frames.iter().enumerate() {
            assert_eq!(svc.decompress("blocks", frame).unwrap(), block(i + 1));
        }
        let versions = &svc.use_cases["blocks"].versions;
        assert_eq!(versions.len(), 3);
        let (_, superseded) = versions.split_last().unwrap();
        assert!(superseded.iter().all(|(_, d)| d.index_bytes() == 0));
    }

    #[test]
    fn retired_versions_are_reported() {
        let cfg = ManagedConfig {
            retrain_interval: 10,
            versions_kept: 1,
            ..Default::default()
        };
        let mut svc = ManagedCompression::new(cfg);
        let mut first_dict_frame = None;
        for i in 0..100 {
            let p = typed_payload(i);
            let f = svc.compress("events", &p).unwrap();
            if first_dict_frame.is_none()
                && svc.stats("events").unwrap().versions_trained == 1
                && f.get(..4) != Some(&PASSTHROUGH_MAGIC)
                && f.get(4).is_some_and(|flags| flags & 1 != 0)
            {
                first_dict_frame = Some(f);
            }
        }
        let mut frame = first_dict_frame.expect("a dictionary-compressed v1 frame was captured");
        // Strip the content checksum flag: a non-checksummed frame is
        // ineligible for rebind recovery (no correctness guard), so its
        // rolled-past generation must surface as RetiredDictionary.
        // (With the checksum intact the service may legitimately
        // recover the frame through a newer generation whose trained
        // content converged — that path is covered separately.)
        frame[4] &= !0x02;
        let out = svc.decompress("events", &frame);
        assert!(
            matches!(out, Err(ManagedError::RetiredDictionary { .. })),
            "v1 should be retired after many rollouts with versions_kept=1, got {out:?}"
        );
    }

    #[test]
    fn use_cases_are_isolated() {
        let mut svc = ManagedCompression::new(ManagedConfig::default());
        for i in 0..20 {
            svc.compress("a", &typed_payload(i)).unwrap();
            svc.compress("b", &vec![b'#'; 100 + i]).unwrap();
        }
        let fa = svc.compress("a", &typed_payload(99)).unwrap();
        // Frames from one use case must not decode under another's name
        // once dictionaries are live (different dict ids).
        if svc.stats("a").unwrap().versions_trained > 0 {
            assert!(svc.decompress("b", &fa).is_err());
        }
        assert!(matches!(
            svc.decompress("never-seen", &fa),
            Err(ManagedError::UnknownUseCase(_))
        ));
        let mut names = svc.use_cases();
        names.sort_unstable();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn stats_track_calls() {
        let mut svc = ManagedCompression::new(ManagedConfig::default());
        for i in 0..5 {
            let f = svc.compress("s", &typed_payload(i)).unwrap();
            svc.decompress("s", &f).unwrap();
        }
        let st = svc.stats("s").unwrap();
        assert_eq!(st.compress_calls, 5);
        assert_eq!(st.decompress_calls, 5);
        assert!(st.ratio() > 0.5);
    }

    #[test]
    fn incompressible_input_ships_as_passthrough() {
        let mut svc = ManagedCompression::new(ManagedConfig::default());
        // High-entropy bytes: compression cannot pay for itself.
        let mut noise = vec![0u8; 2048];
        let mut x = 0x243f_6a88_85a3_08d3u64;
        for b in noise.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *b = x as u8;
        }
        let frame = svc.compress("noisy", &noise).unwrap();
        assert_eq!(frame[..4], PASSTHROUGH_MAGIC);
        assert_eq!(frame.len(), noise.len() + 4);
        assert_eq!(svc.decompress("noisy", &frame).unwrap(), noise);
        assert_eq!(svc.stats("noisy").unwrap().passthrough, 1);
    }

    #[test]
    fn payload_starting_with_magic_roundtrips() {
        let mut svc = ManagedCompression::new(ManagedConfig::default());
        let mut data = PASSTHROUGH_MAGIC.to_vec();
        data.extend_from_slice(&[0xaa; 600]);
        let frame = svc.compress("edge", &data).unwrap();
        assert_eq!(svc.decompress("edge", &frame).unwrap(), data);
    }

    #[test]
    fn corrupt_frame_is_quarantined_not_fatal() {
        let mut svc = ManagedCompression::new(ManagedConfig::default());
        // Drive a full rollout so the dictionary path is live.
        let mut frames = Vec::new();
        for i in 0..80 {
            frames.push(svc.compress("events", &typed_payload(i)).unwrap());
        }
        assert!(svc.stats("events").unwrap().versions_trained >= 1);
        // Corrupt a frame body (past magic/flags) and submit it.
        let mut bad = frames[70].clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x41;
        bad[mid + 1] ^= 0x7f;
        match svc.decompress("events", &bad) {
            Err(ManagedError::Quarantined { use_case, .. }) => assert_eq!(use_case, "events"),
            other => panic!("expected quarantine, got {other:?}"),
        }
        // The service stays up: healthy traffic continues to round-trip.
        let p = typed_payload(999);
        let f = svc.compress("events", &p).unwrap();
        assert_eq!(svc.decompress("events", &f).unwrap(), p);
        // The frame is retained for inspection and counted.
        let q = svc.quarantined("events");
        assert_eq!(q.len(), 1);
        assert_eq!(q[0], bad.as_slice());
        assert_eq!(svc.stats("events").unwrap().quarantined, 1);
    }

    #[test]
    fn quarantine_is_bounded() {
        let mut svc = ManagedCompression::new(ManagedConfig::default());
        svc.compress("q", &typed_payload(0)).unwrap();
        for i in 0..(QUARANTINE_CAP + 9) {
            // Valid magic, garbage body: always a codec failure.
            let mut bad = vec![0x5a, 0x53, 0x58, 0x44];
            bad.extend_from_slice(&[i as u8; 16]);
            let _ = svc.decompress("q", &bad);
        }
        assert_eq!(svc.quarantined("q").len(), QUARANTINE_CAP);
        assert!(svc.stats("q").unwrap().quarantined >= QUARANTINE_CAP as u64);
        assert!(svc.quarantined("never-seen").is_empty());
    }

    #[test]
    fn decode_retries_recover_version_skew() {
        // versions_kept=2 with frequent retrains: a frame whose exact
        // dictionary generation is still retained decodes via the exact
        // path; a foreign id triggers retries across retained versions.
        let mut svc = ManagedCompression::new(ManagedConfig {
            retrain_interval: 10,
            ..Default::default()
        });
        for i in 0..40 {
            svc.compress("skew", &typed_payload(i)).unwrap();
        }
        assert!(svc.stats("skew").unwrap().versions_trained >= 1);
        // A frame claiming a dict id this use case never issued, cut
        // with dictionary content "skew" never trained (a different
        // schema, so the rebound fan-out cannot checksum-match): the
        // service retries every retained version, then quarantines.
        let mut svc2 = ManagedCompression::new(ManagedConfig {
            retrain_interval: 10,
            ..Default::default()
        });
        let xml = |i: usize| {
            format!(
                "<row id='{i}'><metric name='cpu' value='{}'/></row>",
                i * 37
            )
            .into_bytes()
        };
        for i in 0..40 {
            svc2.compress("other", &xml(i)).unwrap();
        }
        assert!(svc2.stats("other").unwrap().versions_trained >= 1);
        let foreign = svc2.compress("other", &xml(1)).unwrap();
        let err = svc.decompress("skew", &foreign);
        assert!(
            matches!(err, Err(ManagedError::Quarantined { .. })),
            "foreign-dictionary frame should quarantine, got {err:?}"
        );
        assert!(svc.stats("skew").unwrap().decode_retries >= 1);
    }

    #[test]
    fn admission_full_sheds_with_typed_overloaded() {
        let mut svc = ManagedCompression::new(ManagedConfig {
            resilience: crate::resilience::ResiliencePolicy {
                admission: crate::resilience::AdmissionConfig {
                    max_inflight: 2,
                    degrade_at: 2,
                    passthrough_at: 2,
                    cheap_level: 1,
                },
                ..Default::default()
            },
            ..Default::default()
        });
        // Establish the use case at full service first.
        let warm = svc.compress("busy", &typed_payload(0)).unwrap();
        // Simulate two concurrent requests by holding their permits.
        let admission = svc.admission();
        let _p1 = admission.try_acquire().expect("slot 1");
        let _p2 = admission.try_acquire().expect("slot 2");
        let err = svc.compress("busy", &typed_payload(1));
        assert!(
            matches!(err, Err(ManagedError::Overloaded { ref use_case }) if use_case == "busy"),
            "expected typed Overloaded, got {err:?}"
        );
        // Decompress sits behind the same boundary.
        let err = svc.decompress("busy", &warm);
        assert!(matches!(err, Err(ManagedError::Overloaded { .. })));
        assert_eq!(svc.stats("busy").unwrap().shed, 2);
        // Releasing the load resumes service untouched.
        drop(_p1);
        drop(_p2);
        let p = typed_payload(2);
        let f = svc.compress("busy", &p).unwrap();
        assert_eq!(svc.decompress("busy", &f).unwrap(), p);
    }

    #[test]
    fn brownout_ladder_degrades_before_shedding() {
        let mut svc = ManagedCompression::new(ManagedConfig {
            resilience: crate::resilience::ResiliencePolicy {
                admission: crate::resilience::AdmissionConfig {
                    max_inflight: 8,
                    degrade_at: 1,
                    passthrough_at: 2,
                    cheap_level: 1,
                },
                ..Default::default()
            },
            ..Default::default()
        });
        let admission = svc.admission();
        // One concurrent request: occupancy 2 > degrade_at -> cheaper
        // level, still a real compressed frame that round-trips. The
        // payload is large and repetitive so every level compresses it.
        let hold1 = admission.try_acquire().expect("slot");
        let p = typed_payload(0).repeat(20);
        let f = svc.compress("load", &p).unwrap();
        assert_eq!(svc.decompress("load", &f).unwrap(), p);
        let snap = svc.telemetry().snapshot();
        assert_eq!(snap.counter("managed.degraded", &[("use_case", "load")]), 1);
        // Two concurrent requests: occupancy 3 > passthrough_at -> the
        // codec is skipped entirely; the stored frame still round-trips.
        let hold2 = admission.try_acquire().expect("slot");
        let f = svc.compress("load", &p).unwrap();
        assert_eq!(f[..4], PASSTHROUGH_MAGIC);
        assert_eq!(svc.decompress("load", &f).unwrap(), p);
        drop(hold1);
        drop(hold2);
        // Load gone: full service again (dictionary-quality frames).
        let f = svc.compress("load", &p).unwrap();
        assert_ne!(f[..4], PASSTHROUGH_MAGIC);
        assert_eq!(svc.decompress("load", &f).unwrap(), p);
    }

    #[test]
    fn exhausted_deadline_is_typed() {
        // A 1ns budget cannot survive the training/codec stages; the
        // wall-clock request context trips it deterministically.
        let mut svc = ManagedCompression::new(ManagedConfig {
            resilience: crate::resilience::ResiliencePolicy {
                deadline_nanos: 1,
                ..Default::default()
            },
            ..Default::default()
        });
        let err = svc.compress("slow", &typed_payload(0));
        match err {
            Err(ManagedError::DeadlineExceeded {
                use_case,
                budget_nanos,
                ..
            }) => {
                assert_eq!(use_case, "slow");
                assert_eq!(budget_nanos, 1);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(svc.stats("slow").unwrap().deadline_exceeded, 1);
    }

    #[test]
    fn quarantine_is_bounded_by_bytes_with_eviction_counter() {
        let mut svc = ManagedCompression::new(ManagedConfig {
            quarantine_bytes: 64,
            ..Default::default()
        });
        svc.compress("q", &typed_payload(0)).unwrap();
        // Three 52-byte corrupt frames (dict flag set, an id this use
        // case never issued: guaranteed codec failure): the second and
        // third inserts must evict under the 64-byte bound.
        for i in 0..3u8 {
            // magic, flags=dict, content varint, bogus dict id, junk.
            let mut bad = vec![0x5a, 0x53, 0x58, 0x44, 0x01, 0x05, 0xaa, 0xab, 0xac, 0xad];
            bad.extend_from_slice(&[i; 42]);
            let _ = svc.decompress("q", &bad);
        }
        let held: usize = svc.quarantined("q").iter().map(|f| f.len()).sum();
        assert!(held <= 64, "quarantine holds {held} bytes past the bound");
        let st = svc.stats("q").unwrap();
        assert_eq!(st.quarantined, 3);
        assert!(
            st.quarantine_evicted >= 1,
            "byte-bound eviction was not counted"
        );
    }

    #[test]
    fn decode_retry_recovery_is_attributed_to_generation() {
        let mut svc = ManagedCompression::new(ManagedConfig {
            retrain_interval: 10,
            ..Default::default()
        });
        for i in 0..30 {
            svc.compress("g", &typed_payload(i)).unwrap();
        }
        let p = typed_payload(500);
        let mut f = svc.compress("g", &p).unwrap();
        // Read the generation count after cutting the frame: that
        // compress call may itself have retrained, and the frame is
        // always cut with the newest dictionary.
        let trained = svc.stats("g").unwrap().versions_trained;
        assert!(trained >= 1);
        assert_ne!(f[..4], PASSTHROUGH_MAGIC);
        assert_eq!(f[4] & 1, 1, "frame should be dictionary-compressed");
        // Forge the frame's dictionary id into a generation this
        // service never trained — a writer one rollout ahead whose
        // dictionary content matched ours. The exact-id lookup misses;
        // the fan-out rebinds retained content under the wanted id and
        // the trailing checksum confirms the decode. (Payload < 128
        // bytes, so the length varint is one byte and the id sits at
        // bytes 6..10.)
        assert!(p.len() < 128);
        let forged = (u32::from_le_bytes(f[6..10].try_into().unwrap()) & !0xfffff) | 999;
        f[6..10].copy_from_slice(&forged.to_le_bytes());
        assert_eq!(svc.decompress("g", &f).unwrap(), p);
        let st = svc.stats("g").unwrap();
        assert!(st.decode_retries >= 1);
        assert_eq!(st.decode_retry_recovered, 1);
        // The frame was cut with the newest dictionary, so recovery is
        // attributed to that generation.
        let snap = svc.telemetry().snapshot();
        let generation = format!("v{trained}");
        assert_eq!(
            snap.counter(
                "managed.decode_retry_recovered_generation",
                &[("use_case", "g"), ("generation", generation.as_str())],
            ),
            1,
            "recovery not attributed to generation {generation}"
        );
    }

    #[test]
    fn telemetry_registry_is_per_instance() {
        let mut a = ManagedCompression::new(ManagedConfig::default());
        let mut b = ManagedCompression::new(ManagedConfig::default());
        for i in 0..3 {
            a.compress("s", &typed_payload(i)).unwrap();
        }
        b.compress("s", &typed_payload(0)).unwrap();
        // Exact counts hold because each instance owns its registry.
        let sa = a.telemetry().snapshot();
        let sb = b.telemetry().snapshot();
        let labels = [("use_case", "s")];
        assert_eq!(sa.counter("managed.compress.calls", &labels), 3);
        assert_eq!(sb.counter("managed.compress.calls", &labels), 1);
        // The snapshot serializes through both exporters.
        assert!(telemetry::export::to_json(&sa).contains("managed.compress.calls"));
        assert!(telemetry::export::to_prometheus(&sa).contains("managed_compress_calls"));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Any payload sequence round-trips across dictionary rollouts.
        #[test]
        fn any_traffic_roundtrips(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..512), 1..60),
            retrain in 5u64..40,
        ) {
            // Retain every version: retirement of old dictionaries is
            // legitimate (and separately tested); this property is about
            // frames decoding across any number of rollouts.
            let mut svc = ManagedCompression::new(ManagedConfig {
                retrain_interval: retrain,
                reservoir_capacity: 16,
                versions_kept: usize::MAX,
                ..Default::default()
            });
            let mut frames = Vec::new();
            for p in &payloads {
                frames.push(svc.compress("case", p).unwrap());
            }
            for (p, f) in payloads.iter().zip(&frames) {
                prop_assert_eq!(&svc.decompress("case", f).unwrap(), p);
            }
        }

        /// Stats accounting is exact regardless of traffic.
        #[test]
        fn stats_are_exact(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..256), 1..30),
        ) {
            let mut svc = ManagedCompression::new(ManagedConfig::default());
            let mut bytes_in = 0u64;
            for p in &payloads {
                svc.compress("c", p).unwrap();
                bytes_in += p.len() as u64;
            }
            let st = svc.stats("c").unwrap();
            prop_assert_eq!(st.compress_calls, payloads.len() as u64);
            prop_assert_eq!(st.bytes_in, bytes_in);
            prop_assert!(st.bytes_out > 0);
        }
    }
}
