#!/usr/bin/env bash
# Public-surface scan (DESIGN.md §6, "Public surface audit"): every
# `pub fn` under crates/ and src/ whose name no other .rs file in the
# repository mentions. `benchmark/`, `tests/` and `examples/` count as
# callers. Prints `file name` per hit, and exits non-zero on any hit
# other than the names kept on purpose, each of which has an in-file
# caller and a reason in DESIGN.md.
#
#   scripts/surface_scan.sh      # from anywhere inside the repository
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

kept=" prom_name respond to_http burn_rates "

status=0
for f in $(git ls-files 'crates/*.rs' 'src/*.rs'); do
    for n in $(grep -oP 'pub fn \K\w+' "$f" | sort -u); do
        if ! git grep -qw "$n" -- '*.rs' ":!$f"; then
            echo "$f $n"
            case "$kept" in
                *" $n "*) ;;
                *) status=1 ;;
            esac
        fi
    done
done
if [ "$status" -ne 0 ]; then
    echo "surface scan: a pub fn above has no caller outside its file;" \
        "delete it, make it private, or give it a reader" >&2
fi
exit "$status"
