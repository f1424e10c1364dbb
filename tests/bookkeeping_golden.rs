//! Golden pins for the bookkeeping planes under a hand-driven clock.
//!
//! One fixed sequence of 2,000 mixed operations runs on a single
//! [`ManualClock`] through every plane a served request writes: the
//! tail sampler ([`RequestSampler`]), a windowed latency histogram and
//! counter ([`WindowRegistry::manual`]), a latency and an error-rate
//! objective ([`Slo`]) and a [`CircuitBreaker`]. The sequence holds
//! errors and slow outliers, an error burst that trips the breaker and
//! burns both objectives, the breaker's recovery, and clock jumps that
//! rotate every sub-window ring.
//!
//! What the planes report is pinned byte for byte, as a length and an
//! FNV-1a digest per artifact: `/requests.json` (with the two fields
//! that count wall time, `opened_at_nanos` and span `start`, masked),
//! the attribution rows, the published window series (quantiles, rates
//! and exemplar request ids), the objectives' reports and transitions,
//! the breaker's decisions and transitions, and the sampler counters.
//! A change to how the planes take their time readings must leave
//! every pin as it is.
//!
//! The writes go through the helpers under "Entry points", so a change
//! to how a reading reaches a plane touches those lines only.

use std::sync::Arc;
use std::time::{Duration, Instant};

use datacomp::managed::{BreakerConfig, BreakerDecision, CircuitBreaker};
use datacomp::telemetry::export::to_prometheus;
use datacomp::telemetry::request::observe_stage;
use datacomp::telemetry::{
    Clock, ManualClock, Op, RequestCtx, RequestSampler, SamplerConfig, Slo, SloConfig, Snapshot,
    WindowConfig, WindowRegistry, WindowedCounter, WindowedHistogram,
};

const MS: u64 = 1_000_000;
const OPS: usize = 2_000;

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

fn window_observe(h: &WindowedHistogram, v: u64, clock: &ManualClock) {
    h.record(v, clock.now_nanos());
}

fn window_count(c: &WindowedCounter, clock: &ManualClock) {
    c.add(1, clock.now_nanos());
}

fn slo_latency(slo: &Slo, nanos: u64, clock: &ManualClock) {
    slo.record_latency(nanos, clock.now_nanos());
}

fn slo_outcome(slo: &Slo, good: bool, clock: &ManualClock) {
    slo.record(good, clock.now_nanos());
}

fn new_breaker(cfg: BreakerConfig, _clock: &Arc<dyn Clock>) -> CircuitBreaker {
    CircuitBreaker::new(cfg)
}

fn open_request(
    sampler: &RequestSampler,
    service: &'static str,
    op: Op,
    len: usize,
    clock: &Arc<ManualClock>,
) -> RequestCtx {
    sampler.handle(service, op).open(len, clock.now_nanos())
}

fn finish_request(req: RequestCtx, clock: &ManualClock) {
    req.finish(clock.now_nanos());
}

fn breaker_admit(b: &CircuitBreaker, clock: &ManualClock) -> BreakerDecision {
    b.admit(clock.now_nanos())
}

fn breaker_record(b: &CircuitBreaker, ok: bool, clock: &ManualClock) {
    b.record(ok, clock.now_nanos());
}

// ---------------------------------------------------------------------
// The sequence
// ---------------------------------------------------------------------

/// SplitMix64: the sequence's only source of variety.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Everything the planes reported, one string per artifact.
struct Artifacts {
    requests_json: String,
    attribution: String,
    windows: String,
    slos: String,
    breaker: String,
    stats: String,
}

fn run_sequence() -> Artifacts {
    let (win, clock) = WindowRegistry::manual(WindowConfig::new(100 * MS, 5));
    let shared = Arc::clone(&clock) as Arc<dyn Clock>;
    let sampler = RequestSampler::new(
        SamplerConfig {
            window: WindowConfig::new(100 * MS, 4),
            slowest_per_window: 3,
            baseline_one_in: 16,
            capacity: 24,
            seed: 46,
        },
        Arc::clone(&shared),
    );
    let windows = (
        WindowConfig::new(50 * MS, 4),
        WindowConfig::new(200 * MS, 4),
    );
    let latency_slo = Slo::new(
        SloConfig::latency("golden.latency", 4 * MS, 0.99).with_windows(windows.0, windows.1),
        Arc::clone(&shared),
    );
    let errors_slo = Slo::new(
        SloConfig::error_rate("golden.errors", 0.99).with_windows(windows.0, windows.1),
        Arc::clone(&shared),
    );
    let breaker = new_breaker(
        BreakerConfig {
            window: WindowConfig::new(50 * MS, 4),
            min_samples: 10,
            open_error_rate: 0.5,
            cooldown_nanos: 100 * MS,
            probe_successes: 3,
        },
        &shared,
    );
    let hist = win.histogram("golden.nanos", &[("plane", "request")]);
    let count = win.counter("golden.requests", &[]);

    let mut rng = Rng(0x4246);
    let mut window_text = String::new();
    let mut slo_text = String::new();
    let mut decisions = String::new();
    for i in 0..OPS {
        // Ops 700..1000 are an error burst with slow outliers; the rest
        // err and straggle now and then.
        let burst = (700..1000).contains(&i);
        let service = ["cache", "sst", "orc"][rng.below(3) as usize];
        let op = if rng.below(2) == 0 {
            Op::Compress
        } else {
            Op::Decompress
        };
        let len = [100, 2_000, 20_000, 300_000][rng.below(4) as usize];
        let errored = rng.below(100) < if burst { 60 } else { 3 };
        let slow = rng.below(100) < if burst { 30 } else { 2 };
        let latency = if slow {
            (20 + rng.below(40)) * MS
        } else {
            MS + rng.below(2 * MS)
        };

        let req = open_request(&sampler, service, op, len, &clock);
        let decision = breaker_admit(&breaker, &clock);
        decisions.push(match decision {
            BreakerDecision::Allow => 'a',
            BreakerDecision::Probe => 'p',
            BreakerDecision::FastFail => 'f',
        });
        // Stages on offsets from one instant, so their nesting does not
        // depend on how long the open took: an outer stage holding an
        // inner one and a zero-length mark, then a sibling; all inside
        // the shortest latency.
        let t0 = Instant::now();
        let stages = rng.below(4);
        if stages >= 1 {
            observe_stage("golden.outer", t0 + us(100), us(600));
        }
        if stages >= 2 {
            observe_stage("golden.inner", t0 + us(200), us(300));
            observe_stage("golden.mark", t0 + us(400), us(0));
        }
        if stages >= 3 {
            observe_stage("golden.tail", t0 + us(900), us(100));
        }
        window_observe(&hist, latency, &clock);
        clock.advance(latency);
        if errored {
            req.mark_error(if slow { "deadline" } else { "corrupt" });
        }
        finish_request(req, &clock);

        slo_latency(&latency_slo, latency, &clock);
        slo_outcome(&errors_slo, !errored, &clock);
        if decision != BreakerDecision::FastFail {
            breaker_record(&breaker, !errored, &clock);
        }
        window_count(&count, &clock);

        // Gaps between requests, and a jump now and then that rotates
        // every ring.
        clock.advance(if i % 400 == 399 {
            500 * MS
        } else {
            MS / 5 + rng.below(2 * MS)
        });
        if i % 100 == 99 {
            for slo in [&latency_slo, &errors_slo] {
                slo_text.push_str(&format!("{i} {:?}\n", slo.report()));
            }
        }
        if i % 250 == 249 {
            let mut series = Vec::new();
            win.publish(&mut series);
            series.sort_by(|a, b| a.key.cmp(&b.key));
            window_text.push_str(&format!("# op {i}\n"));
            window_text.push_str(&to_prometheus(&Snapshot { series }));
        }
    }
    for slo in [&latency_slo, &errors_slo] {
        slo_text.push_str(&format!("{:?}\n", slo.transitions()));
    }
    Artifacts {
        requests_json: mask_wall_time(&sampler.requests_json()),
        attribution: format!("{:#?}", sampler.attribution()),
        windows: window_text,
        slos: slo_text,
        breaker: format!(
            "{decisions}\n{:?}\n{:?}",
            breaker.transitions(),
            breaker.state()
        ),
        stats: format!("{:?}", sampler.stats()),
    }
}

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

/// Replaces the digits of every `"opened_at_nanos":` and `"start":`
/// field with `_`: both count wall time from an `Instant`, the only
/// readings the manual clock does not drive.
fn mask_wall_time(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(at) = ["\"opened_at_nanos\":", "\"start\":"]
        .iter()
        .filter_map(|key| rest.find(key).map(|i| (i, key.len())))
        .min()
    {
        let (i, key_len) = at;
        out.push_str(&rest[..i + key_len]);
        out.push('_');
        rest = rest[i + key_len..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(artifact, length, FNV-1a)` for each artifact of the sequence.
const PINS: [(&str, usize, u64); 6] = [
    ("requests_json", 10217, 0x4952591fe527abff),
    ("attribution", 246540, 0x2efeddaad276f245),
    ("windows", 13543, 0x784375fa10d85714),
    ("slos", 10286, 0x54e951cfbff2ef8a),
    ("breaker", 5704, 0x730ba602483c8e0e),
    ("stats", 144, 0x7a0255277f0937cb),
];

#[test]
fn bookkeeping_planes_report_the_pinned_bytes() {
    let a = run_sequence();
    let got = [
        ("requests_json", &a.requests_json),
        ("attribution", &a.attribution),
        ("windows", &a.windows),
        ("slos", &a.slos),
        ("breaker", &a.breaker),
        ("stats", &a.stats),
    ];
    let mut broken = Vec::new();
    for ((name, text), (pin_name, len, digest)) in got.iter().zip(PINS) {
        assert_eq!(*name, pin_name);
        if (text.len(), fnv1a(text)) != (len, digest) {
            eprintln!("--- {name} ---\n{text}");
            broken.push(format!(
                "(\"{name}\", {}, {:#018x})",
                text.len(),
                fnv1a(text)
            ));
        }
    }
    assert!(broken.is_empty(), "changed pins: {}", broken.join(", "));
}

#[test]
fn the_sequence_walks_every_state_it_pins() {
    let a = run_sequence();
    // The breaker tripped, probed and closed again.
    for state in ["Open", "HalfOpen", "Closed"] {
        assert!(a.breaker.contains(state), "{}", a.breaker);
    }
    assert!(a.breaker.contains('f'), "fast fails while open");
    // Both objectives burned and recovered.
    assert!(a.slos.contains("Burning"), "{}", a.slos);
    assert!(a.slos.contains("to: Ok"), "{}", a.slos);
    // Every keep reason fired; the store ends up holding errors and
    // the newest slow request. Marks and exemplars are reported.
    for reason in ["kept_error: 0", "kept_slow: 0", "kept_baseline: 0"] {
        assert!(!a.stats.contains(reason), "{}", a.stats);
    }
    for reason in ["\"reason\":\"error\"", "\"reason\":\"slow\""] {
        assert!(a.requests_json.contains(reason), "{reason}");
    }
    assert!(a.attribution.contains("golden.mark"));
    assert!(a.windows.contains("golden_nanos_exemplar{"));
    // Masking left no wall time behind.
    assert!(!a.requests_json.contains("\"start\":0"));
}
