//! `datacomp` — command-line access to the compression stack.
//!
//! ```text
//! datacomp compress   <in> <out> [--algo A] [--level N] [--dict F]
//! datacomp decompress <in> <out> [--algo A] [--dict F]
//! datacomp bench      <in> [--algo A] [--levels 1,3,6] [--block BYTES]
//! datacomp train-dict <out> <samples...> [--size BYTES]
//! datacomp optimize   <samples...> [--retention DAYS] [--objective all|network|storage]
//!                     [--min-speed MBPS] [--max-latency MS]
//! datacomp gen        <class> <bytes> <out> [--seed N]
//! datacomp fleet      [profile] [--units N]
//! datacomp profile    [--units N]            (same as fleet profile)
//! datacomp fault-inject [--seed N] [--injector A,B] [--algo X,Y] [--budget N]
//!                     [--block-size BYTES] [--level N] [--checksums on|off]
//! datacomp chaos      [--seed N] [--ops N] [--mix A,B] [--injector A,B]
//! datacomp serve      [--addr HOST:PORT] [--metrics-addr HOST:PORT] [--addr-file PATH]
//!                     [--seconds S] [--workers N] [--slo-ms MS] [--slo-target F]
//!                     [--error-target F]
//! datacomp loadgen    [--addr HOST:PORT | --addr-file PATH] [--mix A,B] [--seconds S]
//!                     [--concurrency N] [--seed N]
//! ```
//!
//! `serve` runs the compression daemon and the live observability
//! plane: the binary protocol on `--addr`, and `/metrics` (Prometheus,
//! with windowed views and request exemplars), `/slo` (error-budget
//! JSON), `/healthz` and the request endpoints on `--metrics-addr`. It
//! feeds the `server.request.latency` and `server.errors` objectives on
//! every request and, after a bounded `--seconds` session, exits
//! non-zero when either error budget is exhausted. `loadgen` replays
//! seeded fleet traffic against it.
//!
//! `chaos` is the operational chaos sweep: per (injector × fleet mix)
//! cell it drives a managed service through latency spikes, error
//! bursts, and clock skew on a manual clock, asserting the resilience
//! invariants (typed errors only, bounded retries, breakers that open
//! and recover, a brownout ladder that still round-trips). It exits
//! non-zero on any violation.
//!
//! Every command also accepts `--telemetry <path>`, writing the series
//! `/metrics` would serve to `<path>` (JSON) and `<path>.prom`
//! (Prometheus text) after the command completes, and `--trace <path>`,
//! rendering the tail-sampled requests' span trees to `<path>` as Chrome
//! trace-event JSON for Perfetto / `chrome://tracing`.

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("datacomp: {e}");
            ExitCode::FAILURE
        }
    }
}
