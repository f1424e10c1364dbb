//! The repo benchmark: four fixed-work workloads served by the real
//! `datacomp serve --workers 1` daemon over loopback, and an outside-in
//! ladder that times each layer below it. See `README.md` beside this
//! package for the glossary; `run.sh` builds both programs and calls
//! this one.

mod compare;
mod daemon;
mod deck;
mod ladder;
mod measure;
mod report;
mod served;
mod spans;
mod stats;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use deck::{Workload, WORKLOADS};
use measure::{Env, RunResult};

/// `run_seconds` of `BENCHMARK.json`: what a run's fixed work — cold
/// starts and passes — takes, near enough, at the commit that defined
/// the benchmark.
pub const RUN_SECONDS: u64 = 20;

/// The seed of the recorded A/A tables.
const DEFAULT_SEED: u64 = 20823;

const USAGE: &str = "usage: run.sh [--workload W] [--seed N] [--trace 0|1] [--quick]
       run.sh --compare A B
workloads: cache_rr cache_pipe sst_block orc_stripe (default: all four)
--seconds S is accepted for the benchmark driver and changes nothing: the work is fixed";

struct Args {
    /// What every workload's run is told.
    env: Env,
    workloads: Vec<&'static Workload>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        env: Env {
            daemon_bin: PathBuf::new(),
            out_dir: PathBuf::from("benchmark/out"),
            pinned: false,
            seed: DEFAULT_SEED,
            quick: false,
            traced: false,
        },
        workloads: WORKLOADS.iter().collect(),
        compare: None,
    };
    let env = &mut args.env;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--daemon" => env.daemon_bin = value()?.into(),
            "--out-dir" => env.out_dir = value()?.into(),
            "--workload" => {
                let name = value()?;
                let workload = Workload::by_name(name)
                    .ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?;
                args.workloads = vec![workload];
            }
            "--seed" => {
                env.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            // The driver passes `--seconds <run_seconds>` and asks for a
            // run that long. The work is fixed and sized for it (rule 2),
            // so that counts repeat for a seed; the value changes nothing.
            "--seconds" => {
                value()?
                    .parse::<u64>()
                    .map_err(|_| "--seconds takes a whole number")?;
            }
            "--trace" => {
                env.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--quick" => env.quick = true,
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// The line appended to the record file: the result line's fields plus
/// what identifies the run, for `--compare`.
fn record_line(env: &Env, workload: &Workload, run: &RunResult) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"quick\": {}, \"traced\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"noise\": {}, \"pass_ms\": {:.3?}, \"cold_start_s\": {:.6?}}}\n",
        workload.name,
        env.seed,
        env.quick,
        env.traced,
        run.outcome.correct(),
        run.outcome.attempted,
        run.outcome.failed,
        run.metrics.to_json(),
        run.noise.to_json(),
        run.pass_ms,
        run.cold_start_s,
    )
}

fn run(mut args: Args) -> Result<bool, String> {
    if let Some((a, b)) = &args.compare {
        let read = |p: &PathBuf| {
            std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
        };
        let outside = compare::compare(&read(a)?, &read(b)?)?;
        if outside > 0 {
            println!("{outside} end-to-end metric(s) outside their bound");
        }
        return Ok(outside == 0);
    }

    // Rule 1: pin before the first daemon is spawned, so it inherits
    // the one-CPU mask.
    args.env.pinned = daemon::pin_to_last_cpu();
    let env = &args.env;
    std::fs::create_dir_all(&env.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", env.out_dir.display()))?;
    let out_file = env.out_dir.join("runs.jsonl");
    let mut all_correct = true;
    let mut results = Vec::new();
    for &workload in &args.workloads {
        println!("{}: {}", workload.name, workload.why);
        let run = measure::run_workload(env, workload)?;
        run.metrics.print(workload.name);
        run.noise.print(workload.name);
        let attempted = run.outcome.attempted;
        let failed_share = run.outcome.failed_share();
        report::print_line(
            workload.name,
            "failed_share",
            failed_share,
            "share",
            attempted,
        );
        if !env.traced {
            // The traced run prints it among the per-layer metrics.
            let mismatch = run.outcome.count_mismatch as f64;
            report::print_line(
                workload.name,
                "server.count_mismatch",
                mismatch,
                "count",
                attempted,
            );
        }
        let mut records = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&out_file)
            .map_err(|e| format!("cannot open {}: {e}", out_file.display()))?;
        records
            .write_all(record_line(env, workload, &run).as_bytes())
            .map_err(|e| format!("cannot write {}: {e}", out_file.display()))?;
        all_correct &= run.outcome.correct();
        results.push(run.outcome.result_line(&run.metrics));
    }
    // One result line per workload, last: the final line of standard
    // output is the one a driver reads.
    for line in results {
        println!("{line}");
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&raw).and_then(run);
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("datacomp-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
