#!/usr/bin/env bash
# Public-surface scan (DESIGN.md §6, "Public surface audit"): every
# `pub fn` under crates/ and src/ whose name no other .rs file in the
# repository mentions. `benchmark/`, `tests/` and `examples/` count as
# callers. Prints `file name` per hit, and exits non-zero on any hit
# other than the names kept on purpose, each of which has an in-file
# caller and a reason in DESIGN.md. Then it prints, as a report that
# does not change the exit status, the public methods nothing outside
# their file calls (below).
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

# Report, not a gate: `pub fn` methods of public types that no other
# .rs file calls, reading a call as `.name(` or `Type::name` in a file
# that names the type. The names above are checked across the whole
# repository, so common ones (`new`, `get`, `add`) never reach them.
# A method listed here whose name another file does call (`?`) may be
# called through a value whose type that file never names: a possible
# false positive, counted on the last line.
echo "report: pub methods of public types with no caller outside their file"
listed=0
possible=0
for f in $(git ls-files 'crates/*.rs' 'src/*.rs'); do
    for method in $(awk '
        /^#\[cfg\(test\)\]/ { exit }
        /^impl(<[^>]*>)? [A-Z][A-Za-z0-9_]*(<[^>]*>)? *\{/ {
            t = $0; sub(/^impl(<[^>]*>)? /, "", t); sub(/[<{ ].*/, "", t); ty = t; next
        }
        /^impl/ || /^}/ { ty = ""; next }
        ty != "" && /^    pub fn [a-z_0-9]+/ {
            m = $0; sub(/^    pub fn /, "", m); sub(/[^a-z_0-9].*/, "", m); print ty "::" m
        }' "$f"); do
        ty=${method%%::*}
        n=${method##*::}
        grep -qE "^pub (struct|enum) $ty\b" "$f" || continue
        users=$(git grep -lw "$ty" -- '*.rs' ":!$f" || true)
        # shellcheck disable=SC2086 # one argument per file
        if [ -n "$users" ] && grep -qE "\.$n\(|\b$ty::$n\b" $users; then
            continue
        fi
        listed=$((listed + 1))
        if git grep -qE "\.$n\(|::$n\b" -- '*.rs' ":!$f"; then
            possible=$((possible + 1))
            echo "  $f $method ?"
        else
            echo "  $f $method"
        fi
    done
done
echo "report: $listed listed, $possible of them possible false positives (?)"
exit "$status"
