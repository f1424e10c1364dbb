//! Subcommand implementations.

use std::fs;

use codecs::{Algorithm, Dictionary};
use compopt::prelude::*;
use telemetry::request::{AttributionRow, SamplerStats};

use crate::args::Args;

const USAGE: &str =
    "datacomp <compress|decompress|bench|train-dict|optimize|gen|fleet|profile|fault-inject|chaos|monitor|serve|loadgen> ...";

/// Dispatches a parsed command line.
///
/// Every command accepts `--telemetry <path>`: after the command runs,
/// the snapshot `/metrics` would serve (the registry plus every live
/// plane's series) is written to `<path>` as JSON and to `<path>.prom`
/// in Prometheus text format. Every command also accepts `--trace
/// <path>`: the request plane's tail-sampled span trees are written to
/// `<path>` as Chrome trace-event JSON (open in Perfetto or
/// `chrome://tracing`). Neither write consumes what it reads.
///
/// # Errors
///
/// Returns a human-readable message for any usage or IO failure.
pub fn run(argv: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(format!("usage: {USAGE}"));
    };
    let args = Args::parse(rest)?;
    let result = match cmd.as_str() {
        "compress" => compress(&args),
        "decompress" => decompress(&args),
        "bench" => bench(&args),
        "train-dict" => train_dict(&args),
        "optimize" => optimize(&args),
        "gen" => gen(&args),
        // `profile` is the direct spelling of `fleet profile`.
        "fleet" | "profile" => fleet_tables(&args),
        "fault-inject" => fault_inject(&args),
        "chaos" => chaos(&args),
        "monitor" => monitor(&args),
        "serve" => serve(&args),
        "loadgen" => loadgen(&args),
        other => Err(format!("unknown command {other}; usage: {USAGE}")),
    };
    if result.is_ok() {
        if let Some(path) = args.options.get("telemetry") {
            write_telemetry(path)?;
        }
        if let Some(path) = args.options.get("trace") {
            write_trace(path)?;
        }
    }
    result
}

/// Writes the process-global planes' snapshot to `path` (JSON) and
/// `path.prom` (Prometheus text exposition).
fn write_telemetry(path: &str) -> Result<(), String> {
    let snap = telemetry::Sources::global().snapshot();
    fs::write(path, telemetry::export::to_json(&snap))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    let prom_path = format!("{path}.prom");
    fs::write(&prom_path, telemetry::export::to_prometheus(&snap))
        .map_err(|e| format!("cannot write {prom_path}: {e}"))?;
    println!(
        "telemetry: {} series -> {path}, {prom_path}",
        snap.series.len()
    );
    Ok(())
}

/// Writes the tail-sampled requests to `path` as Chrome trace-event
/// JSON.
fn write_trace(path: &str) -> Result<(), String> {
    let sampled = telemetry::requests().sampled();
    fs::write(path, telemetry::chrome::to_chrome_json(&sampled))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    let spans: usize = sampled.iter().map(|r| r.spans.len()).sum();
    println!(
        "trace: {} sampled requests, {spans} spans -> {path}",
        sampled.len()
    );
    Ok(())
}

/// `datacomp fault-inject [--seed N] [--injector A,B] [--algo X,Y]
/// [--budget N] [--block-size BYTES] [--level N] [--checksums on|off]`
/// — sweeps corruption injectors over every codec and corpus class,
/// asserting the decode contract (no panics, no silent wrong bytes, no
/// allocation past the decode limit). Prints the outcome table and
/// fails the process on any contract violation, so CI can gate on it.
fn fault_inject(args: &Args) -> Result<(), String> {
    use faultline::{dict_skew_probe, sweep, Injector, Outcome, SweepConfig};

    let cfg = SweepConfig {
        seed: args.opt_or("seed", 0x5157u64)?,
        budget_per_block: args.opt_or("budget", 64usize)?,
        level: args.opt_or("level", 3)?,
        checksums: match args.options.get("checksums").map(String::as_str) {
            None | Some("on") => true,
            Some("off") => false,
            Some(other) => return Err(format!("bad --checksums {other}; pick on|off")),
        },
    };
    let injectors: Vec<Injector> = match args.options.get("injector") {
        None => Injector::ALL.to_vec(),
        Some(list) => list
            .split(',')
            .map(|s| {
                Injector::from_name(s.trim()).ok_or_else(|| {
                    format!(
                        "unknown injector {s}; pick one of {}",
                        Injector::ALL.map(|i| i.name()).join(",")
                    )
                })
            })
            .collect::<Result<_, _>>()?,
    };
    let algos: Vec<Algorithm> = match args.options.get("algo") {
        None => Algorithm::ALL.to_vec(),
        Some(list) => list
            .split(',')
            .map(|s| s.trim().parse())
            .collect::<Result<_, _>>()?,
    };
    let block_size = args.opt_or("block-size", 64usize << 10)?;
    let blocks: Vec<Vec<u8>> = corpus::silesia::FileClass::ALL
        .into_iter()
        .map(|c| corpus::silesia::generate(c, block_size, cfg.seed ^ c.name().len() as u64))
        .collect();

    let report = sweep(&blocks, &injectors, &algos, &cfg);
    // Publish the sweep outcome as counters so a `--telemetry` snapshot
    // (or a live `/metrics` scrape in the same process) carries the
    // contract-violation record alongside the printed table.
    let reg = telemetry::global();
    for ((inj, codec), cell) in &report.cells {
        let labels = [("injector", *inj), ("codec", *codec)];
        reg.counter("faultline.cases", &labels)
            .add(cell.cases as u64);
        reg.counter("faultline.detected", &labels)
            .add(cell.error_detected as u64);
        reg.counter("faultline.intact", &labels)
            .add(cell.ok_intact as u64);
        reg.counter("faultline.violations", &labels)
            .add(cell.violations() as u64);
    }
    print!("{}", report.render_table());
    let kinds = report.error_kinds();
    for (kind, n) in &kinds {
        reg.counter("faultline.error_kind", &[("kind", kind)])
            .add(*n as u64);
    }
    if !kinds.is_empty() {
        let summary: Vec<String> = kinds.iter().map(|(k, n)| format!("{k}={n}")).collect();
        println!("error kinds: {}", summary.join(" "));
    }
    // The true dictionary-skew path (wrong generation supplied) on top
    // of the header-level dict-skew injector.
    for algo in &algos {
        let (outcome, kind) = dict_skew_probe(*algo, &blocks[0], &cfg);
        println!(
            "dict-skew probe   {:<8} {:?}{}",
            algo.name(),
            outcome,
            kind.map(|k| format!(" ({k})")).unwrap_or_default()
        );
        if matches!(outcome, Outcome::Panicked | Outcome::SilentCorruption) {
            return Err(format!(
                "dict-skew probe violated the decode contract on {algo}"
            ));
        }
    }
    if report.violations() > 0 {
        return Err(format!(
            "{} decode-contract violations (of {} cases)",
            report.violations(),
            report.total_cases()
        ));
    }
    println!(
        "decode contract held: {} cases, 0 violations",
        report.total_cases()
    );
    Ok(())
}

/// `datacomp chaos [--seed N] [--ops N] [--mix A,B] [--injector A,B]`
/// — the operational chaos sweep: runs a real managed-compression
/// service per (injector × fleet mix) cell on a manual clock, injects
/// seed-deterministic operational faults (latency spikes, codec error
/// bursts, clock skew), and asserts the resilience invariants — typed
/// errors only, retry volume inside the token-bucket budget, breakers
/// that open under sustained errors and recover after them, a brownout
/// ladder whose degraded frames still round-trip, and a typed
/// `DeadlineExceeded` for expired budgets. Prints the verdict table and
/// fails the process on any violation, so CI can gate on it.
fn chaos(args: &Args) -> Result<(), String> {
    use faultline::{ChaosConfig, OpInjectorKind};

    let mut cfg = ChaosConfig {
        seed: args.opt_or("seed", ChaosConfig::default().seed)?,
        ops: args.opt_or("ops", ChaosConfig::default().ops)?,
        ..ChaosConfig::default()
    };
    if cfg.ops == 0 {
        return Err("bad --ops 0; need at least one operation per cell".to_string());
    }
    if let Some(list) = args.options.get("injector") {
        cfg.injectors = list
            .split(',')
            .map(|s| {
                OpInjectorKind::from_name(s.trim()).ok_or_else(|| {
                    format!(
                        "unknown injector {s}; pick one of {}",
                        OpInjectorKind::ALL.map(|k| k.name()).join(",")
                    )
                })
            })
            .collect::<Result<_, _>>()?;
    }
    if let Some(list) = args.options.get("mix") {
        // Resolve against the fleet registry so cells replay real
        // workloads (and typos fail fast with the valid names).
        cfg.mixes = list
            .split(',')
            .map(|s| fleet_service("mix", s).map(|spec| spec.name))
            .collect::<Result<_, _>>()?;
    }

    let report = faultline::chaos_run(&cfg);
    print!("{}", report.render_table());

    if report.violations() > 0 {
        return Err(format!(
            "{} resilience-invariant violations across {} cells",
            report.violations(),
            report.cells.len()
        ));
    }
    println!(
        "resilience invariants held: {} cells, 0 violations",
        report.cells.len()
    );
    Ok(())
}

/// `datacomp monitor [--addr HOST:PORT] [--workload NAME] [--seconds S]
/// [--slo-ms MS] [--slo-target F] [--error-target F] [--addr-file PATH]`
/// — the live observability plane in one command: registers latency and
/// error-rate SLOs, starts the HTTP scrape server (`/metrics`, `/slo`,
/// `/healthz`, `/trace.json`), and replays one fleet service's workload
/// through the managed compression service until the deadline. Every
/// replayed block feeds the windowed registries and the SLO burn-rate
/// engine, so a Prometheus scrape during the run sees live `window_*`
/// p99s (with request exemplars) and `slo_*` gauges. Exits non-zero when
/// any objective's cumulative error budget is exhausted, so the command
/// doubles as a canary gate.
///
/// `--addr 127.0.0.1:0` picks a free port; `--addr-file` writes the
/// resolved address for scripted scrapers (tests, CI smoke jobs).
///
/// `--chaos-seed N` replays the same traffic with operational faults: a
/// seed-deterministic error burst is injected into the managed service
/// mid-run (via its fault hook), the SLO windows are shrunk so burn
/// rates move within the run, and the exit gate flips from "budget
/// intact" to "the error SLO left Ok (Warning or Burning) during the
/// burst and recovered to Ok by the end" — proving the burn-rate
/// machinery detects and releases a real incident. Needs `--seconds`
/// of at least 5 so the recovery window can drain.
fn monitor(args: &Args) -> Result<(), String> {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let addr = args
        .options
        .get("addr")
        .map_or("127.0.0.1:9184", String::as_str);
    let workload = args
        .options
        .get("workload")
        .map_or("cache1", String::as_str);
    let seconds: f64 = args.opt_or("seconds", 10.0)?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err(format!("bad --seconds {seconds}; need a positive number"));
    }
    let slo_ms: f64 = args.opt_or("slo-ms", 5.0)?;
    let slo_target: f64 = args.opt_or("slo-target", 0.99)?;
    let error_target: f64 = args.opt_or("error-target", 0.999)?;
    let chaos_seed: Option<u64> = match args.options.get("chaos-seed") {
        None => None,
        Some(s) => Some(
            s.parse()
                .map_err(|e| format!("bad --chaos-seed {s}: {e}"))?,
        ),
    };
    if chaos_seed.is_some() && seconds < 5.0 {
        return Err(format!(
            "--chaos-seed needs --seconds >= 5 to fit the fault burst and the recovery window (got {seconds})"
        ));
    }

    let spec = fleet_service("workload", workload)?;

    // Declare the objectives the managed service feeds by well-known
    // name. Registration must precede the replay (and the addr-file
    // handshake) so every sample lands in an SLO window.
    let slos = telemetry::slos();
    let threshold = (slo_ms * 1e6) as u64;
    // Chaos runs shrink both burn windows so a mid-run fault burst can
    // push an objective through Warning/Burning *and* drain back to Ok
    // within a single short replay.
    let shaped = |cfg: telemetry::SloConfig| {
        if chaos_seed.is_some() {
            cfg.with_windows(
                telemetry::WindowConfig::new(200_000_000, 10), // 2 s fast
                telemetry::WindowConfig::new(300_000_000, 10), // 3 s slow
            )
        } else {
            cfg
        }
    };
    slos.register(shaped(telemetry::SloConfig::latency(
        "managed.compress.latency",
        threshold,
        slo_target,
    )));
    slos.register(shaped(telemetry::SloConfig::latency(
        "managed.decompress.latency",
        threshold,
        slo_target,
    )));
    slos.register(shaped(telemetry::SloConfig::error_rate(
        "managed.decompress.errors",
        error_target,
    )));

    let server = telemetry::ScrapeServer::bind(addr, telemetry::Sources::global())
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = server.local_addr();
    if let Some(path) = args.options.get("addr-file") {
        fs::write(path, local.to_string()).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!("monitor: serving /metrics /slo /healthz /trace.json on http://{local}/");
    println!(
        "monitor: replaying {} ({}) for {seconds}s",
        spec.name, spec.description
    );

    let mut svc = managed::ManagedCompression::new(managed::ManagedConfig::default());
    let t0 = Instant::now();
    if let Some(seed) = chaos_seed {
        // Operational fault burst: between 15% and 40% of the run,
        // ~70% of decode attempts (seed-deterministic per consult)
        // fail transiently. The service's own resilience machinery
        // (retries under budget, breakers, quarantine) responds; what
        // leaks through drives the error-rate SLO into its burn.
        let consults = Arc::new(AtomicU64::new(0));
        let (burst_from, burst_to) = (seconds * 0.15, seconds * 0.40);
        let hook: managed::FaultHook = Arc::new(move |site| {
            if site.op != "decompress" {
                return false;
            }
            let t = t0.elapsed().as_secs_f64();
            if t < burst_from || t > burst_to {
                return false;
            }
            let n = consults.fetch_add(1, Ordering::Relaxed);
            faultline::opfault::splitmix64(seed ^ n) % 100 < 70
        });
        svc.set_fault_hook(Some(hook));
        println!(
            "monitor: chaos seed {seed} — decode fault burst in [{burst_from:.1}s, {burst_to:.1}s]"
        );
    }
    // Honor the service's read/write mix so decompression windows (and
    // the decode-error SLO) see realistic traffic.
    let reads_per_write = spec.reads_per_write.round().max(1.0) as usize;
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let (mut units, mut blocks, mut bytes) = (0u64, 0u64, 0u64);
    let mut chaos_errors = 0u64;
    let mut worst_seen = telemetry::SloState::Ok;
    'replay: while Instant::now() < deadline {
        for block in spec.workload.generate_unit(units) {
            let frame = match svc.compress(spec.name, &block) {
                Ok(f) => f,
                // Typed resilience errors (shed, deadline) are expected
                // traffic under chaos; anything else is still fatal.
                Err(e) if chaos_seed.is_some() => {
                    chaos_errors += 1;
                    let _ = e;
                    continue;
                }
                Err(e) => return Err(format!("replay compress failed on {}: {e}", spec.name)),
            };
            for _ in 0..reads_per_write {
                match svc.decompress(spec.name, &frame) {
                    Ok(_) => {}
                    Err(e) if chaos_seed.is_some() => {
                        chaos_errors += 1;
                        let _ = e;
                    }
                    Err(e) => {
                        return Err(format!("replay decode failed on {}: {e}", spec.name));
                    }
                }
            }
            blocks += 1;
            bytes += block.len() as u64;
            if chaos_seed.is_some() {
                let state = slos.worst_state();
                if state > worst_seen {
                    println!(
                        "monitor: SLO state -> {} at {:.1}s",
                        state.as_str(),
                        t0.elapsed().as_secs_f64()
                    );
                    worst_seen = state;
                }
            }
            if Instant::now() >= deadline {
                break 'replay;
            }
        }
        units += 1;
    }
    server.shutdown();
    println!("monitor: replayed {blocks} blocks ({bytes} bytes) across {units} work units");
    if chaos_seed.is_some() {
        println!("monitor: {chaos_errors} chaos-injected request errors tolerated");
    }

    // Final verdict: one line per objective, then the gate.
    let reports = slos.reports();
    println!(
        "{:<32} {:>8} {:>10} {:>10} {:>8}",
        "objective", "state", "fast_burn", "slow_burn", "budget"
    );
    for r in &reports {
        println!(
            "{:<32} {:>8} {:>10.2} {:>10.2} {:>7.0}%",
            r.name,
            r.state.as_str(),
            r.fast_burn,
            r.slow_burn,
            r.budget.remaining_fraction * 100.0
        );
    }
    if let Some(seed) = chaos_seed {
        // Chaos verdict: the burn-rate machinery must have seen the
        // incident (left Ok) and released it (back to Ok by the end).
        // The cumulative-budget gate is expected to blow under an
        // injected burst, so it does not apply here.
        let final_state = slos.worst_state();
        println!(
            "monitor: chaos verdict (seed {seed}): worst state {} during burst, {} at end",
            worst_seen.as_str(),
            final_state.as_str()
        );
        if worst_seen == telemetry::SloState::Ok {
            return Err(
                "chaos run never left Ok: the fault burst did not move the burn rate".to_string(),
            );
        }
        if final_state != telemetry::SloState::Ok {
            return Err(format!(
                "chaos run did not recover: worst state still {} at end",
                final_state.as_str()
            ));
        }
        println!("monitor: burn-rate detection and recovery proven");
        return Ok(());
    }
    budget_verdict(&reports)?;
    println!("monitor: worst SLO state {}", slos.worst_state().as_str());
    Ok(())
}

/// `datacomp serve [--addr 127.0.0.1:9185] [--metrics-addr 127.0.0.1:0]
/// [--addr-file path] [--seconds 0] [--workers 0] [--slo-ms 5.0]
/// [--slo-target 0.99] [--error-target 0.999] [--max-frame bytes]
/// [--max-inflight 64] [--degrade-at 32] [--passthrough-at 48]
/// [--cheap-level 1]` — runs the compression daemon.
///
/// The binary protocol is served on `--addr`; `/metrics`, `/slo`,
/// `/healthz`, `/trace.json`, `/profile.json`, `/requests.json` on
/// `--metrics-addr`. `--addr-file` receives both bound addresses
/// (daemon first, scrape second), one per line, for harnesses using
/// port 0. `--seconds 0` serves until killed; a positive value runs a
/// bounded session and then gates the exit on the SLO error budgets —
/// an exhausted budget is a non-zero exit.
fn serve(args: &Args) -> Result<(), String> {
    use std::time::{Duration, Instant};

    let addr = args
        .options
        .get("addr")
        .map_or("127.0.0.1:9185", String::as_str);
    let metrics_addr = args
        .options
        .get("metrics-addr")
        .map_or("127.0.0.1:0", String::as_str);
    let seconds: f64 = args.opt_or("seconds", 0.0)?;
    let slo_ms: f64 = args.opt_or("slo-ms", 5.0)?;
    let slo_target: f64 = args.opt_or("slo-target", 0.99)?;
    let error_target: f64 = args.opt_or("error-target", 0.999)?;

    let mut cfg = server::ServerConfig {
        workers: args.opt_or("workers", 0usize)?,
        ..server::ServerConfig::default()
    };
    if let Some(max_frame) = args.opt::<usize>("max-frame")? {
        cfg.limits = codecs::DecodeLimits::with_max_output(max_frame);
    }
    let admission = &mut cfg.managed.resilience.admission;
    admission.max_inflight = args.opt_or("max-inflight", admission.max_inflight)?;
    admission.degrade_at = args.opt_or("degrade-at", admission.degrade_at)?;
    admission.passthrough_at = args.opt_or("passthrough-at", admission.passthrough_at)?;
    admission.cheap_level = args.opt_or("cheap-level", admission.cheap_level)?;

    // Objectives the request loop feeds by well-known name; register
    // before the first request so every sample lands in a window.
    let slos = telemetry::slos();
    slos.register(telemetry::SloConfig::latency(
        "server.request.latency",
        (slo_ms * 1e6) as u64,
        slo_target,
    ));
    slos.register(telemetry::SloConfig::error_rate(
        "server.errors",
        error_target,
    ));

    let daemon = server::CompressionServer::bind(addr, cfg)
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let scrape = telemetry::ScrapeServer::bind(metrics_addr, telemetry::Sources::global())
        .map_err(|e| format!("cannot bind {metrics_addr}: {e}"))?;
    let (daddr, maddr) = (daemon.local_addr(), scrape.local_addr());
    if let Some(path) = args.options.get("addr-file") {
        fs::write(path, format!("{daddr}\n{maddr}\n"))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!("serve: compression protocol on {daddr}");
    println!("serve: /metrics /slo /healthz /trace.json on http://{maddr}/");

    if seconds > 0.0 {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(50));
        }
    } else {
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    daemon.shutdown();
    scrape.shutdown();

    // Per-tenant traffic summary from the counters /metrics served.
    let snap = telemetry::snapshot();
    let mut rows: Vec<(&str, &str, &str, u64)> = Vec::new();
    for s in &snap.series {
        if s.key.name != "server.requests" {
            continue;
        }
        if let telemetry::SeriesValue::Counter(n) = s.value {
            let find = |l: &str| {
                s.key
                    .labels
                    .iter()
                    .find(|(k, _)| k == l)
                    .map_or("", |(_, v)| v.as_str())
            };
            rows.push((find("tenant"), find("op"), find("status"), n));
        }
    }
    rows.sort_unstable();
    println!(
        "{:<16} {:<12} {:<10} {:>10}",
        "tenant", "op", "status", "requests"
    );
    for (tenant, op, status, n) in &rows {
        println!("{tenant:<16} {op:<12} {status:<10} {n:>10}");
    }
    let reports = slos.reports();
    for r in &reports {
        println!(
            "serve: slo {:<28} state {:<8} budget {:>5.0}%",
            r.name,
            r.state.as_str(),
            r.budget.remaining_fraction * 100.0
        );
    }
    budget_verdict(&reports)?;
    println!(
        "serve: clean shutdown, worst SLO state {}",
        slos.worst_state().as_str()
    );
    Ok(())
}

/// `datacomp loadgen [--addr host:port | --addr-file path]
/// [--mix cache1,cache2,kvstore1] [--seconds 5] [--concurrency 4]
/// [--seed 1]` — deterministic fleet-mix replay against a live daemon.
///
/// Each worker thread opens one connection and replays seeded work
/// units from the named fleet services (tenant = service name),
/// round-tripping every block (compress, then `reads_per_write`
/// decompressions with equality checks) and recording client-observed
/// latency. Reports per-service outcome counts, p50/p99, and goodput;
/// when the daemon's scrape address is known (second line of
/// `--addr-file`) the server-side p99 and SLO worst-state are pulled
/// from `/metrics` and `/slo`.
fn loadgen(args: &Args) -> Result<(), String> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let (addr, metrics_addr) = match args.options.get("addr-file") {
        Some(path) => {
            let body = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let mut lines = body.lines();
            let addr = lines
                .next()
                .ok_or_else(|| format!("{path} is empty"))?
                .to_string();
            (addr, lines.next().map(str::to_string))
        }
        None => (
            args.options
                .get("addr")
                .ok_or("need --addr or --addr-file")?
                .clone(),
            None,
        ),
    };
    let mix_arg = args
        .options
        .get("mix")
        .map_or("cache1,cache2,kvstore1", String::as_str);
    let seconds: f64 = args.opt_or("seconds", 5.0)?;
    let concurrency: usize = args.opt_or("concurrency", 4)?;
    let seed: u64 = args.opt_or("seed", 1)?;
    if !seconds.is_finite() || seconds <= 0.0 || concurrency == 0 {
        return Err("need positive --seconds and --concurrency".into());
    }

    let specs: Vec<fleet::ServiceSpec> = mix_arg
        .split(',')
        .map(|name| fleet_service("mix", name))
        .collect::<Result<_, _>>()?;
    println!(
        "loadgen: {} threads replaying [{}] against {addr} for {seconds}s (seed {seed})",
        concurrency, mix_arg
    );

    #[derive(Default)]
    struct Tally {
        ok: u64,
        shed: u64,
        deadline: u64,
        errors: u64,
        bytes_ok: u64,
        latencies: Vec<u64>,
    }
    let stop = Arc::new(AtomicBool::new(false));
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for t in 0..concurrency {
        let addr = addr.clone();
        let specs = specs.clone();
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || -> Result<Tally, String> {
            let mut client = server::client::Client::connect(&addr)
                .map_err(|e| format!("connect {addr}: {e}"))?;
            let mut tally = Tally::default();
            let mut unit = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // One spec per unit, round-robin; deterministic in
                // (seed, thread, unit) so reruns replay byte-identical
                // traffic.
                let spec = &specs[(unit as usize) % specs.len()];
                let unit_seed = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add((t as u64) << 32)
                    .wrapping_add(unit);
                let reads = spec.reads_per_write.round().max(1.0) as usize;
                for block in spec.workload.generate_unit(unit_seed) {
                    let start = Instant::now();
                    let resp = client
                        .compress(spec.name, spec.name, &block)
                        .map_err(|e| format!("compress transport: {e}"))?;
                    tally.latencies.push(start.elapsed().as_nanos() as u64);
                    use server::protocol::Status;
                    match resp.status {
                        Status::Ok => {
                            tally.ok += 1;
                            tally.bytes_ok += block.len() as u64;
                            for _ in 0..reads {
                                let back = client
                                    .decompress(spec.name, spec.name, &resp.payload)
                                    .map_err(|e| format!("decompress transport: {e}"))?;
                                match back.status {
                                    Status::Ok => {
                                        if back.payload != block {
                                            return Err(format!(
                                                "round-trip mismatch on {}",
                                                spec.name
                                            ));
                                        }
                                        tally.ok += 1;
                                    }
                                    Status::Shed => tally.shed += 1,
                                    Status::Deadline => tally.deadline += 1,
                                    _ => tally.errors += 1,
                                }
                            }
                        }
                        Status::Shed => tally.shed += 1,
                        Status::Deadline => tally.deadline += 1,
                        _ => tally.errors += 1,
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                unit += 1;
            }
            Ok(tally)
        }));
    }
    std::thread::sleep(Duration::from_secs_f64(seconds));
    stop.store(true, Ordering::Relaxed);
    let mut total = Tally::default();
    for h in handles {
        let t = h
            .join()
            .map_err(|_| "loadgen thread panicked".to_string())??;
        total.ok += t.ok;
        total.shed += t.shed;
        total.deadline += t.deadline;
        total.errors += t.errors;
        total.bytes_ok += t.bytes_ok;
        total.latencies.extend(t.latencies);
    }
    let wall = t0.elapsed().as_secs_f64();
    total.latencies.sort_unstable();
    let pct = |p: f64| -> f64 {
        if total.latencies.is_empty() {
            return 0.0;
        }
        let idx = ((total.latencies.len() - 1) as f64 * p) as usize;
        total.latencies.get(idx).copied().unwrap_or(0) as f64 / 1e6
    };
    println!(
        "loadgen: {} ok, {} shed, {} deadline, {} errors in {wall:.1}s",
        total.ok, total.shed, total.deadline, total.errors
    );
    println!(
        "loadgen: client p50 {:.3} ms, p99 {:.3} ms, goodput {:.1} MB/s",
        pct(0.50),
        pct(0.99),
        total.bytes_ok as f64 / wall / 1e6
    );
    if let Some(maddr) = metrics_addr {
        let maddr: std::net::SocketAddr = maddr
            .parse()
            .map_err(|e| format!("bad metrics addr {maddr}: {e}"))?;
        let metrics = telemetry::serve::http_get(maddr, "/metrics")
            .map_err(|e| format!("scrape /metrics: {e}"))?;
        for line in metrics.lines() {
            if line.starts_with("window_server_request_nanos_p99") {
                println!("loadgen: server {line}");
            }
        }
        let slo =
            telemetry::serve::http_get(maddr, "/slo").map_err(|e| format!("scrape /slo: {e}"))?;
        let worst = slo
            .split("\"worst\":\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .unwrap_or("unknown");
        println!("loadgen: server SLO worst state {worst}");
    }
    if total.errors > 0 {
        return Err(format!("{} request errors", total.errors));
    }
    Ok(())
}

/// The gate `monitor` and `serve` end on: `Err` naming every objective
/// whose cumulative error budget is exhausted.
fn budget_verdict(reports: &[telemetry::slo::SloReport]) -> Result<(), String> {
    let broke: Vec<&str> = reports
        .iter()
        .filter(|r| r.budget.exhausted)
        .map(|r| r.name.as_str())
        .collect();
    if broke.is_empty() {
        return Ok(());
    }
    Err(format!("error budget exhausted: {}", broke.join(", ")))
}

/// The fleet service named `name` (any case); an unknown name is an
/// error that lists the valid ones, naming the flag as `what`.
fn fleet_service(what: &str, name: &str) -> Result<fleet::ServiceSpec, String> {
    let registry = fleet::registry();
    let names: Vec<String> = registry
        .iter()
        .map(|s| s.name.to_ascii_lowercase())
        .collect();
    registry
        .into_iter()
        .find(|s| s.name.eq_ignore_ascii_case(name.trim()))
        .ok_or_else(|| format!("unknown {what} {name}; pick one of {}", names.join("|")))
}

fn algo(args: &Args) -> Result<Algorithm, String> {
    args.options
        .get("algo")
        .map_or(Ok(Algorithm::Zstdx), |s| s.parse())
}

fn load_dict(args: &Args) -> Result<Option<Dictionary>, String> {
    match args.options.get("dict") {
        None => Ok(None),
        Some(path) => {
            let data = fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            // Dictionary id: stable hash of the content, so compress and
            // decompress invocations agree without extra bookkeeping.
            let id = codecs::xxhash::xxh64(&data, 0) as u32;
            Ok(Some(Dictionary::new(data, id)))
        }
    }
}

fn compress(args: &Args) -> Result<(), String> {
    args.need(
        2,
        "datacomp compress <in> <out> [--algo A] [--level N] [--dict F]",
    )?;
    let input = fs::read(&args.positionals[0])
        .map_err(|e| format!("cannot read {}: {e}", args.positionals[0]))?;
    let level = args.opt_or("level", 3)?;
    let comp = algo(args)?.compressor(level);
    let frame = match load_dict(args)? {
        Some(d) => comp.compress_with_dict(&input, &d),
        None => comp.compress(&input),
    };
    fs::write(&args.positionals[1], &frame)
        .map_err(|e| format!("cannot write {}: {e}", args.positionals[1]))?;
    println!(
        "{} -> {} bytes (ratio {:.2}, {} level {})",
        input.len(),
        frame.len(),
        input.len() as f64 / frame.len().max(1) as f64,
        comp.name(),
        comp.level()
    );
    Ok(())
}

fn decompress(args: &Args) -> Result<(), String> {
    args.need(2, "datacomp decompress <in> <out> [--algo A] [--dict F]")?;
    let frame = fs::read(&args.positionals[0])
        .map_err(|e| format!("cannot read {}: {e}", args.positionals[0]))?;
    let comp = algo(args)?.compressor(args.opt_or("level", 3)?);
    let data = match load_dict(args)? {
        Some(d) => comp.decompress_with_dict(&frame, &d),
        None => comp.decompress(&frame),
    }
    .map_err(|e| format!("decompression failed: {e}"))?;
    fs::write(&args.positionals[1], &data)
        .map_err(|e| format!("cannot write {}: {e}", args.positionals[1]))?;
    println!("{} -> {} bytes", frame.len(), data.len());
    Ok(())
}

fn bench(args: &Args) -> Result<(), String> {
    args.need(
        1,
        "datacomp bench <in> [--algo A] [--levels 1,3,6] [--block BYTES]",
    )?;
    let input = fs::read(&args.positionals[0])
        .map_err(|e| format!("cannot read {}: {e}", args.positionals[0]))?;
    let a = algo(args)?;
    let levels: Vec<i32> = match args.options.get("levels") {
        Some(list) => list
            .split(',')
            .map(|s| s.trim().parse().map_err(|_| format!("bad level: {s}")))
            .collect::<Result<_, _>>()?,
        None => vec![1, 3, 6],
    };
    let block: Option<usize> = args.opt("block")?;
    println!(
        "{:>6} {:>8} {:>12} {:>12}",
        "level", "ratio", "comp MB/s", "decomp MB/s"
    );
    for level in levels {
        let comp = a.compressor(level);
        let m = match block {
            Some(bs) => codecs::measure_blocks(comp.as_ref(), &input, bs),
            None => codecs::measure(comp.as_ref(), &[&input]),
        };
        println!(
            "{:>6} {:>8.2} {:>12.1} {:>12.1}",
            level,
            m.ratio(),
            m.compress_mbps(),
            m.decompress_mbps()
        );
    }
    Ok(())
}

fn train_dict(args: &Args) -> Result<(), String> {
    args.need(2, "datacomp train-dict <out> <samples...> [--size BYTES]")?;
    let size = args.opt_or("size", 16 * 1024)?;
    let samples: Vec<Vec<u8>> = args.positionals[1..]
        .iter()
        .map(|p| fs::read(p).map_err(|e| format!("cannot read {p}: {e}")))
        .collect::<Result<_, _>>()?;
    let refs: Vec<&[u8]> = samples.iter().map(|v| v.as_slice()).collect();
    let dict = codecs::dict::train(&refs, size, 0);
    fs::write(&args.positionals[0], dict.as_bytes())
        .map_err(|e| format!("cannot write {}: {e}", args.positionals[0]))?;
    println!(
        "trained {} bytes of dictionary from {} samples",
        dict.len(),
        refs.len()
    );
    Ok(())
}

fn optimize(args: &Args) -> Result<(), String> {
    args.need(
        1,
        "datacomp optimize <samples...> [--retention DAYS] [--objective all|network|storage] [--min-speed MBPS] [--max-latency MS]",
    )?;
    let samples: Vec<Vec<u8>> = args
        .positionals
        .iter()
        .map(|p| fs::read(p).map_err(|e| format!("cannot read {p}: {e}")))
        .collect::<Result<_, _>>()?;
    let refs: Vec<&[u8]> = samples.iter().map(|v| v.as_slice()).collect();

    let mut engine = CompEngine::new();
    for a in Algorithm::ALL {
        engine.add_levels(a, [1, 3, 6, 9]);
    }
    let measured = engine.measure(&refs);

    let retention = args.opt_or("retention", 30.0)?;
    let params = CostParams::from_pricing(&Pricing::aws_2023(), 1.0, retention);
    let weights = match args.options.get("objective").map(String::as_str) {
        None | Some("all") => CostWeights::ALL,
        Some("network") => CostWeights::COMPUTE_NETWORK,
        Some("storage") => CostWeights::COMPUTE_STORAGE,
        Some(other) => return Err(format!("unknown objective {other}")),
    };
    let mut constraints = Vec::new();
    if let Some(v) = args.opt("min-speed")? {
        constraints.push(Constraint::MinCompressionSpeedMbps(v));
    }
    if let Some(v) = args.opt("max-latency")? {
        constraints.push(Constraint::MaxDecompressionLatencyMs(v));
    }
    let evals = evaluate_all(&measured, &params, weights, &constraints);
    print!("{}", optimize_table(&evals));
    match optimum(&evals) {
        Some(best) => println!("\noptimal: {}", best.label),
        None => println!("\nno feasible configuration under the given constraints"),
    }
    Ok(())
}

/// The `optimize` table: per candidate, the Eq. 1–3 cost terms beside
/// the weighted total, and the constraint that pruned it, if any.
fn optimize_table(evals: &[Evaluation]) -> String {
    let mut out = format!(
        "{:>16} {:>7} {:>11} {:>11} {:>11} {:>11} {:>11} {:>9}  {}\n",
        "config",
        "ratio",
        "comp MB/s",
        "c_compute",
        "c_storage",
        "c_network",
        "cost",
        "feasible",
        "pruned_by"
    );
    for e in evals {
        out.push_str(&format!(
            "{:>16} {:>7.2} {:>11.1} {:>11.3e} {:>11.3e} {:>11.3e} {:>11.3e} {:>9}  {}\n",
            e.label,
            e.ratio,
            e.compress_mbps,
            e.costs.compute,
            e.costs.storage,
            e.costs.network,
            e.total_cost,
            if e.feasible { "yes" } else { "no" },
            e.pruned_by.as_deref().unwrap_or("-")
        ));
    }
    out
}

fn gen(args: &Args) -> Result<(), String> {
    args.need(3, "datacomp gen <class> <bytes> <out> [--seed N]")?;
    let size: usize = args.positionals[1]
        .parse()
        .map_err(|_| "bad size".to_string())?;
    let seed = args.opt_or("seed", 1u64)?;
    let class = &args.positionals[0];
    let data = match class.as_str() {
        "text" | "xml" | "source" | "database" | "binary" | "log" => {
            let fc = corpus::silesia::FileClass::ALL
                .into_iter()
                .find(|c| c.name() == class)
                .expect("name matched");
            corpus::silesia::generate(fc, size, seed)
        }
        "sst" => corpus::sst::generate_sst(size, seed),
        "orc" => corpus::orc::generate_blocks(size, seed).concat(),
        "ads" => corpus::mlreq::generate_request(corpus::mlreq::Model::A, seed),
        "cache" => {
            corpus::cache::generate_items(&corpus::cache::cache1_profile(), size / 300 + 1, seed)
                .into_iter()
                .flat_map(|i| i.data)
                .take(size)
                .collect()
        }
        other => {
            return Err(format!(
                "unknown class {other}; pick text|xml|source|database|binary|log|sst|orc|ads|cache"
            ))
        }
    };
    fs::write(&args.positionals[2], &data)
        .map_err(|e| format!("cannot write {}: {e}", args.positionals[2]))?;
    println!("wrote {} bytes of {class}", data.len());
    Ok(())
}

fn fleet_tables(args: &Args) -> Result<(), String> {
    // `datacomp fleet`, `datacomp fleet profile`, and `datacomp
    // profile` are synonyms; the positional is accepted for symmetry
    // with the other subcommands.
    if let Some(p) = args.positionals.first() {
        if p != "profile" {
            return Err(format!("unknown fleet subcommand {p}; usage: datacomp fleet [profile] [--units N] [--telemetry PATH] [--trace PATH]"));
        }
    }
    let units = args.opt_or("units", 4usize)?;
    let profile = fleet::profile_fleet(&fleet::ProfileConfig {
        work_units: units,
        seed: 30,
    });
    // Publish per-service aggregates so a --telemetry snapshot taken
    // after this command carries the whole profile.
    profile.record_to(telemetry::global());
    println!(
        "fleet compression tax: {:.2}%",
        fleet::agg::fleet_compression_tax(&profile) * 100.0
    );
    println!("\nzstdx cycles by category:");
    for (c, f) in fleet::agg::category_zstd_cycles(&profile) {
        println!("  {:<16} {:>5.1}%", c.to_string(), f * 100.0);
    }
    println!("\nzstdx cycles by service (Table I):");
    for (s, f) in fleet::agg::service_zstd_cycles(&profile) {
        println!("  {s:<10} {:>5.1}%", f * 100.0);
    }
    let sampler = telemetry::requests();
    print!(
        "{}",
        attribution_table(&sampler.attribution(), &sampler.stats())
    );
    Ok(())
}

/// The "where does p99 go" table: per `(service, op, size class)` row,
/// the request-latency p99 and each codec stage's share of total
/// self-time with its own self-time p99 — the request-scoped answer to
/// Figure 7's stage split, fed by the contexts the fleet profiler (and
/// any managed service in-process) opened. Marks take no time, so they
/// are not stage lines: the `marks` column counts them on each row's
/// first line. Empty when no request finished.
fn attribution_table(rows: &[AttributionRow], stats: &SamplerStats) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let mut out = String::from("\nwhere does p99 go (self-time per stage):\n");
    out.push_str(&format!(
        "  {:<10} {:<10} {:<7} {:>8} {:>13}   {:<20} {:>6} {:>13}   marks\n",
        "service", "op", "size", "reqs", "p99 ns", "stage", "share", "self p99 ns"
    ));
    for row in rows {
        let mut lead = format!(
            "  {:<10} {:<10} {:<7} {:>8} {:>13}",
            row.service,
            row.op.as_str(),
            row.size_class.as_str(),
            row.requests,
            row.latency.quantile(0.99),
        );
        let mut marks: String = row.marks.iter().map(|(m, n)| format!("{m}={n} ")).collect();
        for s in &row.stages {
            let line = format!(
                "{lead}   {:<20} {:>5.1}% {:>13}   {marks}",
                s.stage,
                s.share * 100.0,
                s.self_hist.quantile(0.99),
            );
            out.push_str(line.trim_end());
            out.push('\n');
            // Only the first stage line repeats the row columns.
            lead = format!("  {:<10} {:<10} {:<7} {:>8} {:>13}", "", "", "", "", "");
            marks.clear();
        }
    }
    out.push_str(&format!(
        "  tail sampler: {} requests, {} kept ({} error / {} slow / {} baseline), {} dropped\n",
        stats.finished,
        stats.kept(),
        stats.kept_error,
        stats.kept_slow,
        stats.kept_baseline,
        stats.dropped
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("datacomp-cli-tests");
        fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(name)
    }

    /// Serializes the commands these tests run. They all report into
    /// the process-global planes, and `monitor` gates on a latency SLO
    /// over them: a concurrent `profile` (one thread per fleet service)
    /// starves the replay thread enough to exhaust that budget.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static PLANES: std::sync::Mutex<()> = std::sync::Mutex::new(());
        PLANES
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn run_cmd(args: &[&str]) -> Result<(), String> {
        let _serial = serial();
        run(&argv(args))
    }

    #[test]
    fn compress_decompress_roundtrip_via_files() {
        let input = tmp("in.txt");
        let packed = tmp("in.zsx");
        let out = tmp("out.txt");
        fs::write(&input, b"cli roundtrip cli roundtrip cli roundtrip").unwrap();
        run_cmd(&[
            "compress",
            input.to_str().unwrap(),
            packed.to_str().unwrap(),
            "--level",
            "5",
        ])
        .unwrap();
        run_cmd(&[
            "decompress",
            packed.to_str().unwrap(),
            out.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(fs::read(&out).unwrap(), fs::read(&input).unwrap());
    }

    #[test]
    fn dictionary_flow_via_files() {
        let dict_path = tmp("d.dict");
        let sample = tmp("sample.json");
        fs::write(
            &sample,
            br#"{"k":"value","k2":"value","k3":"value"}"#.repeat(20),
        )
        .unwrap();
        run_cmd(&[
            "train-dict",
            dict_path.to_str().unwrap(),
            sample.to_str().unwrap(),
            "--size",
            "4096",
        ])
        .unwrap();
        let input = tmp("msg.json");
        fs::write(&input, br#"{"k":"value","k2":"other"}"#).unwrap();
        let packed = tmp("msg.zsx");
        let out = tmp("msg.out");
        run_cmd(&[
            "compress",
            input.to_str().unwrap(),
            packed.to_str().unwrap(),
            "--dict",
            dict_path.to_str().unwrap(),
        ])
        .unwrap();
        // Without the dictionary the frame must refuse to decode.
        assert!(run_cmd(&[
            "decompress",
            packed.to_str().unwrap(),
            out.to_str().unwrap()
        ])
        .is_err());
        run_cmd(&[
            "decompress",
            packed.to_str().unwrap(),
            out.to_str().unwrap(),
            "--dict",
            dict_path.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(fs::read(&out).unwrap(), fs::read(&input).unwrap());
    }

    #[test]
    fn gen_then_bench() {
        let data = tmp("gen.log");
        run_cmd(&["gen", "log", "20000", data.to_str().unwrap()]).unwrap();
        assert_eq!(fs::read(&data).unwrap().len(), 20000);
        run_cmd(&["bench", data.to_str().unwrap(), "--levels", "1,3"]).unwrap();
    }

    #[test]
    fn optimize_runs_on_generated_samples() {
        let data = tmp("opt.db");
        run_cmd(&["gen", "database", "30000", data.to_str().unwrap()]).unwrap();
        run_cmd(&["optimize", data.to_str().unwrap(), "--objective", "storage"]).unwrap();
    }

    #[test]
    fn usage_errors_are_clear() {
        assert!(run_cmd(&[]).unwrap_err().contains("usage"));
        assert!(run_cmd(&["frobnicate"])
            .unwrap_err()
            .contains("unknown command"));
        assert!(run_cmd(&["compress", "only-one-arg"])
            .unwrap_err()
            .contains("usage"));
        assert!(run_cmd(&["gen", "nope", "10", "/tmp/x"])
            .unwrap_err()
            .contains("unknown class"));
        assert!(run_cmd(&["fleet", "nope"])
            .unwrap_err()
            .contains("unknown fleet subcommand"));
        assert!(run_cmd(&["trace"]).unwrap_err().contains("unknown command"));
    }

    #[test]
    fn fault_inject_reports_clean_sweep() {
        // Small sweep: one injector, one codec, tiny blocks.
        run_cmd(&[
            "fault-inject",
            "--injector",
            "truncate",
            "--algo",
            "lz4x",
            "--budget",
            "8",
            "--block-size",
            "4096",
        ])
        .unwrap();
    }

    #[test]
    fn fault_inject_rejects_bad_flags() {
        assert!(run_cmd(&["fault-inject", "--injector", "gamma-ray"])
            .unwrap_err()
            .contains("unknown injector"));
        assert!(run_cmd(&["fault-inject", "--checksums", "maybe"])
            .unwrap_err()
            .contains("pick on|off"));
    }

    #[test]
    fn monitor_serves_endpoints_and_gates_on_slos() {
        use std::time::{Duration, Instant};
        use telemetry::serve::http_get;

        let _serial = serial();
        let addr_file = tmp("monitor.addr");
        let _ = fs::remove_file(&addr_file);
        let af = addr_file.clone();
        let replay = std::thread::spawn(move || {
            run(&argv(&[
                "monitor",
                "--addr",
                "127.0.0.1:0",
                "--addr-file",
                af.to_str().unwrap(),
                "--workload",
                "cache1",
                "--seconds",
                "1.5",
            ]))
        });
        // Handshake: the command writes the resolved address once the
        // server is up and the SLOs are registered.
        let deadline = Instant::now() + Duration::from_secs(10);
        let addr = loop {
            if let Ok(s) = fs::read_to_string(&addr_file) {
                if let Ok(addr) = s.parse::<std::net::SocketAddr>() {
                    break addr;
                }
            }
            assert!(Instant::now() < deadline, "monitor never wrote addr file");
            std::thread::sleep(Duration::from_millis(10));
        };
        let fetch = |path: &str| http_get(addr, path).expect(path);
        // All four endpoints answer mid-replay. Windowed series appear
        // once the first block lands; poll briefly for them.
        let metrics = loop {
            let m = fetch("/metrics");
            if m.contains("window_managed_compress_nanos_p99") || Instant::now() >= deadline {
                break m;
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        assert!(
            metrics.contains("window_managed_compress_nanos_p99"),
            "live windowed p99 missing mid-replay"
        );
        assert!(metrics.contains("slo_state{objective=\"managed.compress.latency\"}"));
        assert!(metrics.contains("slo_budget_remaining{objective=\"managed.decompress.errors\"}"));
        let slo = fetch("/slo");
        assert!(slo.contains("\"managed.decompress.latency\""), "{slo}");
        assert_eq!(fetch("/healthz"), "ok\n");
        assert!(fetch("/trace.json").contains("traceEvents"));
        // Healthy replay: clean exit (no budget exhaustion).
        replay.join().unwrap().unwrap();
    }

    #[test]
    fn monitor_rejects_bad_flags() {
        assert!(
            run_cmd(&["monitor", "--workload", "nope", "--seconds", "0.1"])
                .unwrap_err()
                .contains("unknown workload")
        );
        assert!(run_cmd(&["monitor", "--seconds", "-1"])
            .unwrap_err()
            .contains("bad --seconds"));
    }

    #[test]
    fn fault_inject_publishes_sweep_counters() {
        let before = telemetry::snapshot();
        run_cmd(&[
            "fault-inject",
            "--injector",
            "truncate",
            "--algo",
            "zstdx",
            "--budget",
            "4",
            "--block-size",
            "4096",
        ])
        .unwrap();
        let after = telemetry::snapshot();
        let labels = [("injector", "truncate"), ("codec", "zstdx")];
        assert!(
            after.counter("faultline.cases", &labels) > before.counter("faultline.cases", &labels),
            "sweep cases not published to the registry"
        );
        assert_eq!(
            after.counter("faultline.violations", &labels),
            before.counter("faultline.violations", &labels),
            "clean sweep must publish zero new violations"
        );
    }

    #[test]
    fn telemetry_flag_writes_json_and_prometheus() {
        let input = tmp("tel-in.txt");
        let packed = tmp("tel-in.zsx");
        let tel = tmp("tel.json");
        fs::write(&input, b"telemetry file flow telemetry file flow").unwrap();
        run_cmd(&[
            "compress",
            input.to_str().unwrap(),
            packed.to_str().unwrap(),
            "--telemetry",
            tel.to_str().unwrap(),
        ])
        .unwrap();
        let json = fs::read_to_string(&tel).unwrap();
        assert!(
            json.contains("codecs.compress.calls"),
            "snapshot missing codec counters"
        );
        let prom = fs::read_to_string(tmp("tel.json.prom")).unwrap();
        assert!(
            prom.contains("codecs_compress_calls"),
            "prometheus text missing counters"
        );
        // The file carries the live planes' series, as `/metrics` does.
        for family in [
            "window_span_seconds",
            "requests_total",
            "request_spans_dropped_total",
        ] {
            assert!(prom.contains(&format!("# TYPE {family} ")), "{family}");
        }
    }

    #[test]
    fn profile_trace_writes_chrome_trace_json() {
        let out = tmp("trace.json");
        run_cmd(&["profile", "--units", "1", "--trace", out.to_str().unwrap()]).unwrap();
        let json = fs::read_to_string(&out).unwrap();
        // Structurally valid JSON (balanced braces/brackets/quotes);
        // the full-parser check lives in the workspace e2e test.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(json.matches('"').count() % 2, 0);
        assert!(json.contains("\"traceEvents\":["));
        // Sampled requests render as `req:` threads of complete events;
        // some sampled fleet compression carries the codec stages.
        assert!(json.contains("\"args\":{\"name\":\"req:"));
        for stage in ["zstdx.match_find", "zstdx.entropy"] {
            assert!(
                json.contains(&format!(
                    "\"name\":\"{stage}\",\"cat\":\"request\",\"ph\":\"X\""
                )),
                "no {stage} span in the trace"
            );
        }
        // Every event carries the required Chrome fields.
        let events = json.split_once("\"traceEvents\":[").unwrap().1;
        for obj in events.split("},{") {
            for field in ["\"ph\":", "\"ts\":", "\"pid\":", "\"tid\":"] {
                assert!(obj.contains(field), "missing {field} in {obj}");
            }
        }
        // Rendering consumes nothing: a second invocation still writes
        // a complete file.
        let out2 = tmp("trace2.json");
        run_cmd(&["profile", "--units", "1", "--trace", out2.to_str().unwrap()]).unwrap();
        let json2 = fs::read_to_string(&out2).unwrap();
        assert!(json2.contains("\"name\":\"zstdx.match_find\""));
    }

    #[test]
    fn profile_table_counts_marks_instead_of_listing_them_as_stages() {
        let _serial = serial();
        let hits = |rows: &[AttributionRow]| -> u64 {
            let marks = rows.iter().flat_map(|r| &r.marks);
            marks
                .filter(|(m, _)| *m == "fleet.dict_hit")
                .map(|(_, n)| n)
                .sum()
        };
        let sampler = telemetry::requests();
        let before = hits(&sampler.attribution());
        run(&argv(&["profile", "--units", "1"])).unwrap();
        let rows = sampler.attribution();
        // The profiler marks every block it compresses through a
        // dictionary; the same profile, rerun, says how many there are.
        let profile = fleet::profile_fleet(&fleet::ProfileConfig {
            work_units: 1,
            ..Default::default()
        });
        let dict = |name| {
            profile
                .services
                .iter()
                .any(|s| s.name == name && s.workload.uses_dictionary())
        };
        let expected: u64 = (profile.observations.iter())
            .filter(|o| o.algorithm == Algorithm::Zstdx && dict(o.service))
            .map(|o| o.comp_calls)
            .sum();
        assert!(expected > 0, "no dictionary blocks profiled");
        assert_eq!(hits(&rows) - before, expected);

        let table = attribution_table(&rows, &sampler.stats());
        let mut shown = 0;
        for cell in table.split_whitespace() {
            let is_mark = rows.iter().any(|r| r.marks.iter().any(|(m, _)| *m == cell));
            assert!(!is_mark, "a mark printed as a stage:\n{table}");
            if let Some(n) = cell.strip_prefix("fleet.dict_hit=") {
                shown += n.parse::<u64>().unwrap();
            }
        }
        assert_eq!(shown, hits(&rows), "{table}");
    }

    #[test]
    fn optimize_table_explains_a_pruned_candidate() {
        let samples: Vec<Vec<u8>> = (0..2)
            .map(|i| corpus::silesia::generate(corpus::silesia::FileClass::Log, 16 * 1024, i))
            .collect();
        let refs: Vec<&[u8]> = samples.iter().map(|v| v.as_slice()).collect();
        let mut engine = CompEngine::new();
        engine.add_levels(Algorithm::Zstdx, [1, 3]);
        let measured = engine.measure(&refs);
        let params = CostParams::from_pricing(&Pricing::aws_2023(), 1.0, 30.0);
        let impossible = Constraint::MinCompressionSpeedMbps(1e9);
        let evals = evaluate_all(&measured, &params, CostWeights::ALL, &[impossible]);
        let table = optimize_table(&evals);
        let mut lines = table.lines();
        let header: Vec<&str> = lines.next().unwrap().split_whitespace().collect();
        for column in ["c_compute", "c_storage", "c_network", "cost", "pruned_by"] {
            assert!(header.contains(&column), "{column} missing from {header:?}");
        }
        let row = lines.next().expect("one row per candidate");
        let cells: Vec<&str> = row.split_whitespace().collect();
        let e = &evals[0];
        // label (two words), ratio, MB/s, then the three cost terms.
        let terms: Vec<f64> = cells[4..7].iter().map(|c| c.parse().unwrap()).collect();
        for (shown, exact) in terms
            .iter()
            .zip([e.costs.compute, e.costs.storage, e.costs.network])
        {
            assert!((shown - exact).abs() <= exact.abs() * 1e-3, "{row}");
        }
        assert_eq!(cells[8], "no", "{row}");
        assert!(row.ends_with(&impossible.to_string()), "{row}");
    }

    #[test]
    fn fleet_profile_telemetry_has_per_service_series() {
        let tel = tmp("fleet-tel.json");
        run_cmd(&[
            "fleet",
            "profile",
            "--units",
            "1",
            "--telemetry",
            tel.to_str().unwrap(),
        ])
        .unwrap();
        let json = fs::read_to_string(&tel).unwrap();
        for svc in ["DW1", "CACHE1", "LONGTAIL"] {
            assert!(json.contains(svc), "fleet snapshot missing service {svc}");
        }
        assert!(
            json.contains("span.zstdx.match_find"),
            "missing stage spans"
        );
    }
}
