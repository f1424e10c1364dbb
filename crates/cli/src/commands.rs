//! Subcommand implementations.

use std::fs;

use codecs::{Algorithm, Dictionary};
use compopt::prelude::*;
use telemetry::request::{AttributionRow, SamplerStats};

use crate::args::{Args, Command, Flag};

#[rustfmt::skip]
const ALGO: Flag = Flag { name: "algo", value: "A", default: Some("zstdx"), help: "codec: zstdx, lz4x or zlibx" };
#[rustfmt::skip]
const DICT: Flag = Flag { name: "dict", value: "FILE", default: None, help: "dictionary written by train-dict" };
#[rustfmt::skip]
const LEVEL: Flag = Flag { name: "level", value: "N", default: Some("3"), help: "compression level" };
#[rustfmt::skip]
const UNITS: Flag = Flag { name: "units", value: "N", default: Some("4"), help: "work units profiled per service" };

/// Every command with its positionals and options: dispatch, arity
/// checks, defaults and usage text all read this table.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "compress", synopsis: "<in> <out>", run: compress, flags: &[ALGO, LEVEL, DICT] },
    Command { name: "decompress", synopsis: "<in> <out>", run: decompress, flags: &[ALGO, DICT] },
    Command { name: "bench", synopsis: "<in>", run: bench, flags: &[
        ALGO,
        Flag { name: "levels", value: "N,N", default: Some("1,3,6"), help: "compression levels to measure" },
        Flag { name: "block", value: "BYTES", default: None, help: "measure per block of BYTES, not the whole input" },
    ] },
    Command { name: "train-dict", synopsis: "<out> <samples...>", run: train_dict, flags: &[
        Flag { name: "size", value: "BYTES", default: Some("16384"), help: "dictionary size" }] },
    Command { name: "optimize", synopsis: "<samples...>", run: optimize, flags: &[
        Flag { name: "retention", value: "DAYS", default: Some("30"), help: "days compressed data is stored" },
        Flag { name: "objective", value: "all|network|storage", default: Some("all"), help: "cost terms weighed beside compute" },
        Flag { name: "min-speed", value: "MBPS", default: None, help: "prune configurations that compress slower" },
        Flag { name: "max-latency", value: "MS", default: None, help: "prune configurations that decompress slower" },
    ] },
    Command { name: "gen", synopsis: "<class> <bytes> <out>", run: gen, flags: &[
        Flag { name: "seed", value: "N", default: Some("1"), help: "generator seed" }] },
    // `profile` is the direct spelling of `fleet profile`.
    Command { name: "fleet", synopsis: "[profile]", run: fleet_tables, flags: &[UNITS] },
    Command { name: "profile", synopsis: "", run: fleet_tables, flags: &[UNITS] },
    Command { name: "fault-inject", synopsis: "", run: fault_inject, flags: &[
        Flag { name: "seed", value: "N", default: Some("20823"), help: "sweep seed" },
        Flag { name: "injector", value: "A,B", default: None, help: "corruption injectors (default all)" },
        Flag { name: "algo", value: "A,B", default: None, help: "codecs (default all)" },
        Flag { name: "budget", value: "N", default: Some("64"), help: "corruption cases per block" },
        Flag { name: "block-size", value: "BYTES", default: Some("65536"), help: "bytes per corpus block" },
        LEVEL,
        Flag { name: "checksums", value: "on|off", default: Some("on"), help: "frame checksums" },
    ] },
    Command { name: "chaos", synopsis: "", run: chaos, flags: &[
        Flag { name: "seed", value: "N", default: None, help: "sweep seed (default the sweep's own)" },
        Flag { name: "ops", value: "N", default: None, help: "operations per cell (default the sweep's own)" },
        Flag { name: "mix", value: "A,B", default: None, help: "fleet services to replay (default the sweep's own)" },
        Flag { name: "injector", value: "A,B", default: None, help: "operational injectors (default all)" },
    ] },
    Command { name: "serve", synopsis: "", run: serve, flags: &[
        Flag { name: "addr", value: "HOST:PORT", default: Some("127.0.0.1:9185"), help: "binary protocol address" },
        Flag { name: "metrics-addr", value: "HOST:PORT", default: Some("127.0.0.1:0"), help: "scrape endpoints' address" },
        Flag { name: "addr-file", value: "PATH", default: None, help: "write both bound addresses to PATH, one per line" },
        Flag { name: "seconds", value: "S", default: Some("0"), help: "session length; 0 serves until killed" },
        Flag { name: "workers", value: "N", default: Some("0"), help: "worker threads; 0 runs one per core" },
        Flag { name: "slo-ms", value: "MS", default: Some("5.0"), help: "request latency objective" },
        Flag { name: "slo-target", value: "F", default: Some("0.99"), help: "share of requests within --slo-ms" },
        Flag { name: "error-target", value: "F", default: Some("0.999"), help: "share of requests without error" },
    ] },
    Command { name: "loadgen", synopsis: "", run: loadgen, flags: &[
        Flag { name: "addr", value: "HOST:PORT", default: None, help: "daemon address" },
        Flag { name: "addr-file", value: "PATH", default: None, help: "read the addresses serve --addr-file wrote" },
        Flag { name: "mix", value: "A,B", default: Some("cache1,cache2,kvstore1"), help: "fleet services to replay" },
        Flag { name: "seconds", value: "S", default: Some("5"), help: "replay length" },
        Flag { name: "concurrency", value: "N", default: Some("4"), help: "connections, one thread each" },
        Flag { name: "seed", value: "N", default: Some("1"), help: "traffic seed" },
    ] },
];

/// Every command's synopsis, as the error for a missing or unknown
/// command.
fn usage() -> String {
    let lines: Vec<String> = COMMANDS.iter().map(Command::synopsis_line).collect();
    format!("usage:\n  {}", lines.join("\n  "))
}

/// Runs a command line: the command the first argument names, then
/// the `--telemetry` and `--trace` writes, neither of which consumes
/// what it reads.
///
/// # Errors
///
/// Returns a human-readable message for any usage or IO failure.
pub fn run(argv: &[String]) -> Result<(), String> {
    let (name, rest) = argv.split_first().ok_or_else(usage)?;
    let command = (COMMANDS.iter().find(|c| c.name == name))
        .ok_or_else(|| format!("unknown command {name}; {}", usage()))?;
    let args = Args::parse(rest, command)?;
    (command.run)(&args)?;
    if let Some(path) = args.opt::<String>("telemetry")? {
        write_telemetry(&path)?;
    }
    if let Some(path) = args.opt::<String>("trace")? {
        write_trace(&path)?;
    }
    Ok(())
}

/// Writes the process-global planes' snapshot to `path` (JSON) and
/// `path.prom` (Prometheus text exposition).
fn write_telemetry(path: &str) -> Result<(), String> {
    let snap = telemetry::Sources::global().snapshot();
    write(path, telemetry::export::to_json(&snap))?;
    let prom_path = format!("{path}.prom");
    write(&prom_path, telemetry::export::to_prometheus(&snap))?;
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
    write(path, telemetry::chrome::to_chrome_json(&sampled))?;
    let spans: usize = sampled.iter().map(|r| r.spans.len()).sum();
    println!(
        "trace: {} sampled requests, {spans} spans -> {path}",
        sampled.len()
    );
    Ok(())
}

/// `datacomp fault-inject` sweeps corruption injectors over every codec
/// and corpus class, asserting the decode contract (no panics, no
/// silent wrong bytes, no allocation past the decode limit). Prints the
/// outcome table and fails the process on any contract violation, so CI
/// can gate on it.
fn fault_inject(args: &Args) -> Result<(), String> {
    use faultline::{dict_skew_probe, sweep, Injector, Outcome, SweepConfig};

    let cfg = SweepConfig {
        seed: args.get("seed")?,
        budget_per_block: args.get("budget")?,
        level: args.get("level")?,
        checksums: match args.get::<String>("checksums")?.as_str() {
            "on" => true,
            "off" => false,
            other => return Err(format!("bad --checksums {other}; pick on|off")),
        },
    };
    let injectors = args.list("injector", |s| {
        Injector::from_name(s).ok_or_else(|| {
            let names = Injector::ALL.map(|i| i.name()).join(",");
            format!("unknown injector {s}; pick one of {names}")
        })
    })?;
    let injectors = injectors.unwrap_or_else(|| Injector::ALL.to_vec());
    let algos = args.list("algo", str::parse::<Algorithm>)?;
    let algos = algos.unwrap_or_else(|| Algorithm::ALL.to_vec());
    let block_size = args.get("block-size")?;
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

/// `datacomp chaos` is the operational chaos sweep: it runs a real
/// managed-compression service per (injector × fleet mix) cell on a
/// manual clock, injects seed-deterministic operational faults (latency
/// spikes, codec error bursts, clock skew), and asserts the resilience
/// invariants — typed errors only, retry volume inside the token-bucket
/// budget, breakers that open under sustained errors and recover after
/// them, a brownout ladder whose degraded frames still round-trip, and
/// a typed `DeadlineExceeded` for expired budgets. Prints the verdict
/// table and fails the process on any violation, so CI can gate on it.
fn chaos(args: &Args) -> Result<(), String> {
    use faultline::{ChaosConfig, OpInjectorKind};

    let mut cfg = ChaosConfig::default();
    cfg.seed = args.opt("seed")?.unwrap_or(cfg.seed);
    cfg.ops = args.opt("ops")?.unwrap_or(cfg.ops);
    if cfg.ops == 0 {
        return Err("bad --ops 0; need at least one operation per cell".to_string());
    }
    let injectors = args.list("injector", |s| {
        OpInjectorKind::from_name(s).ok_or_else(|| {
            let names = OpInjectorKind::ALL.map(|k| k.name()).join(",");
            format!("unknown injector {s}; pick one of {names}")
        })
    })?;
    cfg.injectors = injectors.unwrap_or(cfg.injectors);
    // Resolve against the fleet registry so cells replay real workloads
    // (and typos fail fast with the valid names).
    let mixes = args.list("mix", |s| fleet_service(s).map(|spec| spec.name))?;
    cfg.mixes = mixes.unwrap_or(cfg.mixes);

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

/// `datacomp serve` runs the compression daemon on `--addr`, and
/// `/metrics`, `/slo`, `/healthz`, `/trace.json`, `/profile.json` and
/// `/requests.json` on `--metrics-addr`. A bounded session gates its
/// exit on the SLO error budgets: an exhausted budget fails it.
fn serve(args: &Args) -> Result<(), String> {
    use std::time::{Duration, Instant};

    let addr: String = args.get("addr")?;
    let metrics_addr: String = args.get("metrics-addr")?;
    let seconds: f64 = args.get("seconds")?;
    if !seconds.is_finite() || seconds < 0.0 {
        return Err(format!(
            "bad --seconds {seconds}; need 0 (until killed) or a positive number"
        ));
    }
    let slo_ms: f64 = args.get("slo-ms")?;
    let slo_target: f64 = args.get("slo-target")?;
    let error_target: f64 = args.get("error-target")?;

    let cfg = server::ServerConfig {
        workers: args.get("workers")?,
        ..server::ServerConfig::default()
    };

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

    let daemon = server::CompressionServer::bind(&addr, cfg)
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let scrape = telemetry::ScrapeServer::bind(&metrics_addr, telemetry::Sources::global())
        .map_err(|e| format!("cannot bind {metrics_addr}: {e}"))?;
    let (daddr, maddr) = (daemon.local_addr(), scrape.local_addr());
    if let Some(path) = args.opt::<String>("addr-file")? {
        write(&path, format!("{daddr}\n{maddr}\n"))?;
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
            let find = |l| s.key.label(l).unwrap_or("");
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
    // The gate: an exhausted cumulative error budget fails the exit.
    let broke: Vec<&str> = reports
        .iter()
        .filter(|r| r.budget.exhausted)
        .map(|r| r.name.as_str())
        .collect();
    if !broke.is_empty() {
        return Err(format!("error budget exhausted: {}", broke.join(", ")));
    }
    println!(
        "serve: clean shutdown, worst SLO state {}",
        slos.worst_state().as_str()
    );
    Ok(())
}

/// `datacomp loadgen` replays a deterministic fleet mix against a live
/// daemon.
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
    use server::protocol::Status;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let (addr, metrics_addr) = match args.opt::<String>("addr-file")? {
        Some(path) => {
            let body = fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let mut lines = body.lines().map(str::to_string);
            (
                lines.next().ok_or(format!("{path} is empty"))?,
                lines.next(),
            )
        }
        None => (args.opt("addr")?.ok_or("need --addr or --addr-file")?, None),
    };
    let mix_arg: String = args.get("mix")?;
    let seconds: f64 = args.get("seconds")?;
    let concurrency: usize = args.get("concurrency")?;
    let seed: u64 = args.get("seed")?;
    if !seconds.is_finite() || seconds <= 0.0 || concurrency == 0 {
        return Err("need positive --seconds and --concurrency".into());
    }

    let specs = args
        .list("mix", fleet_service)?
        .expect("--mix has a default");
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
    impl Tally {
        /// Counts one response; true when it succeeded.
        fn count(&mut self, status: Status) -> bool {
            match status {
                Status::Ok => self.ok += 1,
                Status::Shed => self.shed += 1,
                Status::Deadline => self.deadline += 1,
                _ => self.errors += 1,
            }
            status == Status::Ok
        }
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
                    if tally.count(resp.status) {
                        tally.bytes_ok += block.len() as u64;
                        for _ in 0..reads {
                            let back = client
                                .decompress(spec.name, spec.name, &resp.payload)
                                .map_err(|e| format!("decompress transport: {e}"))?;
                            if back.status == Status::Ok && back.payload != block {
                                return Err(format!("round-trip mismatch on {}", spec.name));
                            }
                            tally.count(back.status);
                        }
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

/// The fleet service named `name` (any case); an unknown name is an
/// error that lists the valid ones.
fn fleet_service(name: &str) -> Result<fleet::ServiceSpec, String> {
    let registry = fleet::registry();
    let names: Vec<String> = registry
        .iter()
        .map(|s| s.name.to_ascii_lowercase())
        .collect();
    registry
        .into_iter()
        .find(|s| s.name.eq_ignore_ascii_case(name.trim()))
        .ok_or_else(|| format!("unknown mix {name}; pick one of {}", names.join("|")))
}

fn read(path: &str) -> Result<Vec<u8>, String> {
    fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn write(path: &str, data: impl AsRef<[u8]>) -> Result<(), String> {
    fs::write(path, data).map_err(|e| format!("cannot write {path}: {e}"))
}

fn load_dict(args: &Args) -> Result<Option<Dictionary>, String> {
    match args.opt::<String>("dict")? {
        None => Ok(None),
        Some(path) => {
            let data = read(&path)?;
            // Dictionary id: stable hash of the content, so compress and
            // decompress invocations agree without extra bookkeeping.
            let id = codecs::xxhash::xxh64(&data, 0) as u32;
            Ok(Some(Dictionary::new(data, id)))
        }
    }
}

fn compress(args: &Args) -> Result<(), String> {
    let input = read(&args.positionals[0])?;
    let algo: Algorithm = args.get("algo")?;
    let comp = algo.compressor(args.get("level")?);
    let frame = match load_dict(args)? {
        Some(d) => comp.compress_with_dict(&input, &d),
        None => comp.compress(&input),
    };
    write(&args.positionals[1], &frame)?;
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
    let frame = read(&args.positionals[0])?;
    // Frames carry what decoding needs; the level is never read.
    let comp = args.get::<Algorithm>("algo")?.compressor(3);
    let data = match load_dict(args)? {
        Some(d) => comp.decompress_with_dict(&frame, &d),
        None => comp.decompress(&frame),
    }
    .map_err(|e| format!("decompression failed: {e}"))?;
    write(&args.positionals[1], &data)?;
    println!("{} -> {} bytes", frame.len(), data.len());
    Ok(())
}

fn bench(args: &Args) -> Result<(), String> {
    let input = read(&args.positionals[0])?;
    let a: Algorithm = args.get("algo")?;
    let levels = args.list("levels", |s| {
        s.parse().map_err(|_| format!("bad level: {s}"))
    })?;
    let block: Option<usize> = args.opt("block")?;
    println!(
        "{:>6} {:>8} {:>12} {:>12}",
        "level", "ratio", "comp MB/s", "decomp MB/s"
    );
    for level in levels.expect("--levels has a default") {
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
    let size = args.get("size")?;
    let samples: Vec<Vec<u8>> = args.positionals[1..]
        .iter()
        .map(|p| read(p))
        .collect::<Result<_, _>>()?;
    let refs: Vec<&[u8]> = samples.iter().map(|v| v.as_slice()).collect();
    let dict = codecs::dict::train(&refs, size, 0);
    write(&args.positionals[0], dict.as_bytes())?;
    println!(
        "trained {} bytes of dictionary from {} samples",
        dict.len(),
        refs.len()
    );
    Ok(())
}

fn optimize(args: &Args) -> Result<(), String> {
    let params = CostParams::from_pricing(&Pricing::aws_2023(), 1.0, args.get("retention")?);
    let weights = match args.get::<String>("objective")?.as_str() {
        "all" => CostWeights::ALL,
        "network" => CostWeights::COMPUTE_NETWORK,
        "storage" => CostWeights::COMPUTE_STORAGE,
        other => return Err(format!("unknown objective {other}")),
    };
    let constraints = [
        args.opt("min-speed")?
            .map(Constraint::MinCompressionSpeedMbps),
        args.opt("max-latency")?
            .map(Constraint::MaxDecompressionLatencyMs),
    ];
    let constraints: Vec<Constraint> = constraints.into_iter().flatten().collect();
    let samples: Vec<Vec<u8>> = args
        .positionals
        .iter()
        .map(|p| read(p))
        .collect::<Result<_, _>>()?;
    let refs: Vec<&[u8]> = samples.iter().map(|v| v.as_slice()).collect();

    let mut engine = CompEngine::new();
    for a in Algorithm::ALL {
        engine.add_levels(a, [1, 3, 6, 9]);
    }
    let measured = engine.measure(&refs);
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
    let size: usize = args.positionals[1]
        .parse()
        .map_err(|_| "bad size".to_string())?;
    let seed = args.get("seed")?;
    let class = &args.positionals[0];
    let silesia = corpus::silesia::FileClass::ALL
        .into_iter()
        .find(|c| c.name() == class);
    let data = match (class.as_str(), silesia) {
        (_, Some(fc)) => corpus::silesia::generate(fc, size, seed),
        ("sst", _) => corpus::sst::generate_sst(size, seed),
        ("orc", _) => corpus::orc::generate_blocks(size, seed).concat(),
        ("ads", _) => corpus::mlreq::generate_request(corpus::mlreq::Model::A, seed),
        ("cache", _) => {
            corpus::cache::generate_items(&corpus::cache::cache1_profile(), size / 300 + 1, seed)
                .into_iter()
                .flat_map(|i| i.data)
                .take(size)
                .collect()
        }
        (other, _) => {
            return Err(format!(
                "unknown class {other}; pick text|xml|source|database|binary|log|sst|orc|ads|cache"
            ))
        }
    };
    write(&args.positionals[2], &data)?;
    println!("wrote {} bytes of {class}", data.len());
    Ok(())
}

fn fleet_tables(args: &Args) -> Result<(), String> {
    if let Some(p) = args.positionals.first().filter(|p| *p != "profile") {
        return Err(format!("unknown fleet subcommand {p}; pick profile"));
    }
    let units = args.get("units")?;
    let profile = fleet::profile_fleet(&fleet::ProfileConfig {
        work_units: units,
        ..fleet::ProfileConfig::default()
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
    /// the process-global planes, and several read those planes back
    /// (the sweep counters, the profile table, the serve endpoints),
    /// where a concurrent command's series would land too.
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
        assert!(run_cmd(&["monitor"])
            .unwrap_err()
            .contains("unknown command"));
        // The mix is checked before loadgen connects, so nothing dials out.
        let err = run_cmd(&["loadgen", "--addr", "127.0.0.1:1", "--mix", "nope"]).unwrap_err();
        assert!(err.contains("unknown mix nope; pick one of dw1|"), "{err}");

        // A misspelt flag, one per command, fails in the parse: before a
        // file is read or written, serve binds, or loadgen dials out.
        let out = tmp("never-written");
        let _ = fs::remove_file(&out);
        let o = out.to_str().unwrap();
        let misspelt: [(&str, &[&str]); 12] = [
            (
                "--levle",
                &["compress", "in", o, "--levle", "19", "--no-such-flag", "x"],
            ),
            ("--levle", &["decompress", "in", o, "--levle", "3"]),
            ("--level", &["bench", "in.log", "--level", "19"]),
            ("--sise", &["train-dict", o, "in", "--sise", "1024"]),
            ("--objectve", &["optimize", "in", "--objectve", "storage"]),
            ("--sed", &["gen", "log", "100", o, "--sed", "2"]),
            ("--unit", &["fleet", "profile", "--unit", "1"]),
            ("--unit", &["profile", "--unit", "1"]),
            ("--budjet", &["fault-inject", "--budjet", "8"]),
            ("--op", &["chaos", "--op", "16"]),
            (
                "--slo",
                &["serve", "--addr-file", o, "--seconds", "0.01", "--slo", "1"],
            ),
            (
                "--bogus",
                &["loadgen", "--addr", "127.0.0.1:1", "--bogus", "1"],
            ),
        ];
        for ((bad, argv), command) in misspelt.iter().zip(COMMANDS) {
            assert_eq!(argv[0], command.name, "one misspelling per command");
            let err = run_cmd(argv).unwrap_err();
            let usage = format!("unknown flag {bad}\nusage: datacomp {} ", command.name);
            assert!(err.starts_with(&usage), "{err}");
            for f in command.flags {
                assert!(
                    err.contains(&format!("\n  --{} {} ", f.name, f.value)),
                    "{err}"
                );
            }
        }
        for (argv, fault) in [
            (
                &["compress", "in", o, "--level", "3", "--level", "19"][..],
                "--level given twice",
            ),
            (
                &["bench", "in.log", "--levels"],
                "--levels needs a value N,N",
            ),
            (
                &["decompress", "in", o, "extra"],
                "unexpected argument extra",
            ),
            (&["gen", "log", "100"], "missing <out>"),
        ] {
            let err = run_cmd(argv).unwrap_err();
            assert!(
                err.starts_with(&format!("{fault}\nusage: datacomp {} ", argv[0])),
                "{err}"
            );
        }
        assert!(!out.exists(), "a command ran despite a usage error");
    }

    /// The arguments after each `datacomp` in a code context of `text`:
    /// in Markdown a fenced block's lines and inline code spans, in YAML
    /// every line. A binary path ending in `datacomp`, or `-p
    /// datacomp-cli --`, starts one; the line's end, a comment or a shell
    /// operator ends it.
    fn command_lines(text: &str, markdown: bool) -> Vec<Vec<String>> {
        let text = text.replace("\\\n", " ");
        let mut code: Vec<String> = Vec::new();
        for (i, part) in text.split("```").enumerate() {
            if !markdown || i % 2 == 1 {
                code.extend(part.lines().map(str::to_string));
            } else {
                let spans = part.split('`').skip(1).step_by(2);
                code.extend(spans.map(|s| s.replace('\n', " ")));
            }
        }
        let mut lines = Vec::new();
        for line in &code {
            let words: Vec<&str> = line.split_whitespace().collect();
            for (i, w) in words.iter().enumerate() {
                let cargo = *w == "--" && i > 0 && words[i - 1] == "datacomp-cli";
                if !(cargo || *w == "datacomp" || w.ends_with("/datacomp")) {
                    continue;
                }
                let args = words[i + 1..].iter().take_while(|w| {
                    !w.starts_with(['#', '&', '|', ';', '>', ')'])
                        && **w != "<"
                        && !w.starts_with("2>")
                });
                let args: Vec<String> = args.map(|w| w.to_string()).collect();
                if !args.is_empty() {
                    lines.push(args);
                }
            }
        }
        lines
    }

    #[test]
    fn documented_command_lines_parse() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut lines = Vec::new();
        for (doc, markdown) in [
            (".github/workflows/ci.yml", false),
            ("README.md", true),
            ("EXPERIMENTS.md", true),
        ] {
            let text = fs::read_to_string(format!("{root}/{doc}")).expect(doc);
            lines.extend(command_lines(&text, markdown));
        }
        // A copy of the line benchmark/src/daemon.rs:83-86 starts the
        // daemon with, the address file's path aside.
        lines.push(argv(&[
            "serve",
            "--workers",
            "1",
            "--seconds",
            "0",
            "--addr",
            "127.0.0.1:0",
            "--metrics-addr",
            "127.0.0.1:0",
            "--addr-file",
            "daemon.addr",
        ]));
        assert!(
            lines.len() >= 25,
            "found only {} command lines",
            lines.len()
        );
        let faults: Vec<String> = (lines.iter())
            .filter_map(|line| match COMMANDS.iter().find(|c| c.name == line[0]) {
                None => Some(format!("{line:?}: unknown command")),
                Some(command) => Args::parse(&line[1..], command)
                    .err()
                    .map(|e| format!("{line:?}: {}", e.lines().next().unwrap_or(""))),
            })
            .collect();
        assert!(faults.is_empty(), "{}", faults.join("\n"));
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
    fn serve_serves_endpoints_and_gates_on_slos() {
        use server::client::Client;
        use server::protocol::Status;
        use std::time::{Duration, Instant};
        use telemetry::serve::http_get;

        // One run: objectives are registered once per process (a second
        // registration keeps the first threshold), so the run that
        // serves the endpoints is the one whose exit is gated. No request
        // meets a 100 ns objective.
        let _serial = serial();
        let addr_file = tmp("serve.addr");
        let _ = fs::remove_file(&addr_file);
        let af = addr_file.clone();
        let daemon = std::thread::spawn(move || {
            run(&argv(&[
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--metrics-addr",
                "127.0.0.1:0",
                "--addr-file",
                af.to_str().unwrap(),
                "--seconds",
                "3",
                "--slo-ms",
                "0.0001",
            ]))
        });
        // Handshake: the daemon address, then the scrape address, written
        // once both listen and the objectives are registered.
        let deadline = Instant::now() + Duration::from_secs(10);
        let (daddr, maddr) = loop {
            let body = fs::read_to_string(&addr_file).unwrap_or_default();
            let addrs: Vec<std::net::SocketAddr> =
                body.lines().filter_map(|l| l.parse().ok()).collect();
            if let [d, m] = addrs[..] {
                break (d, m);
            }
            assert!(Instant::now() < deadline, "serve never wrote addr file");
            std::thread::sleep(Duration::from_millis(10));
        };
        let mut client = Client::connect(daddr).expect("connect");
        let item = b"{\"user\":42,\"name\":\"ada\"}".repeat(8);
        for _ in 0..4 {
            let frame = client.compress("cli", "items", &item).expect("compress");
            assert_eq!(frame.status, Status::Ok);
            let back = client
                .decompress("cli", "items", &frame.payload)
                .expect("decompress");
            assert_eq!((back.status, back.payload), (Status::Ok, item.clone()));
        }
        let fetch = |path: &str| http_get(maddr, path).expect(path);
        let metrics = fetch("/metrics");
        assert!(
            metrics.contains("window_managed_compress_nanos_p99"),
            "live windowed p99 missing"
        );
        assert!(metrics.contains("slo_state{objective=\"server.request.latency\"}"));
        assert!(metrics.contains("slo_budget_remaining{objective=\"server.errors\"}"));
        let slo = fetch("/slo");
        for name in ["\"server.request.latency\"", "\"server.errors\""] {
            assert!(slo.contains(name), "{slo}");
        }
        assert_eq!(fetch("/healthz"), "ok\n");
        assert!(fetch("/trace.json").contains("traceEvents"));
        // Every request missed the latency objective and none failed.
        let err = daemon.join().unwrap().unwrap_err();
        assert_eq!(err, "error budget exhausted: server.request.latency");
    }

    #[test]
    fn serve_rejects_bad_flags() {
        use std::time::Duration;

        for bad in ["-1", "nan", "inf"] {
            // On a thread with a timeout: a value that slips past the
            // check would serve until killed.
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let _ = tx.send(run(&argv(&[
                    "serve",
                    "--addr",
                    "127.0.0.1:0",
                    "--metrics-addr",
                    "127.0.0.1:0",
                    "--seconds",
                    bad,
                ])));
            });
            let out = rx
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|e| panic!("serve --seconds {bad} did not return: {e}"));
            assert!(out.unwrap_err().contains("bad --seconds"), "{bad}");
        }
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
