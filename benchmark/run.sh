#!/usr/bin/env bash
# The repo benchmark, one command:
#
#   benchmark/run.sh [--workload W] [--seed N] [--trace 0|1] [--quick]
#   benchmark/run.sh --compare A B
#
# Builds the daemon and the harness from source (not timed), then runs
# the workloads against the real daemon, verifies every answer, and
# prints every metric by name and unit plus one JSON line per workload.
# See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# One target directory for both builds when the caller names one (made
# absolute: the two builds run from different manifests); otherwise
# each workspace keeps its own.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    case "$CARGO_TARGET_DIR" in
        /*) ;;
        *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
    esac
    export CARGO_TARGET_DIR
    daemon_target="$CARGO_TARGET_DIR"
    harness_target="$CARGO_TARGET_DIR"
else
    daemon_target="$root/target"
    harness_target="$here/target"
fi

# Build output goes to stderr: standard output belongs to the results.
cargo build --release --offline --manifest-path "$root/Cargo.toml" -p datacomp-cli >&2
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2

# exec: signals reach the harness itself, which owns the daemon.
exec "$harness_target/release/datacomp-benchmark" \
    --daemon "$daemon_target/release/datacomp" \
    --out-dir "$here/out" \
    "$@"
