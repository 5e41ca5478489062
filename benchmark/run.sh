#!/usr/bin/env bash
# The benchmark's one command. Builds the harness offline, then
#
#   run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--papers N]
#       one run of one workload; the last line of stdout is its result
#       (this is the form BENCHMARK.json's `command` is run in), or
#
#   run.sh [--seed N] [--seconds S] [--papers N]
#       the whole set: every workload in a process of its own, untraced
#       for the end-to-end metrics and then traced for the per-layer
#       ones; prints every metric by name with its unit, writes
#       benchmark/out/results.json, and exits non-zero if any operation
#       failed or answered wrongly.
#
# Run it from the repository root or from anywhere else: it finds its
# files beside itself and writes only under benchmark/out/ and the
# cargo target directory ($CARGO_TARGET_DIR, or benchmark/target/).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --locked --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/etable-benchmark"
commit="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
mkdir -p "$here/out"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@" --out "$here/out" --commit "$commit"
    fi
done

status=0
results="$here/out/results.json"
exec 3>&1
{
    printf '{"commit": "%s", "runs": {' "$commit"
    sep=""
    for workload in browse_tasks browse_revisit wire_read wire_mixed; do
        printf '%s"%s": {' "$sep" "$workload"
        sep=", "
        for trace in 0 1; do
            log="$here/out/$workload-trace$trace.log"
            "$bin" --workload "$workload" --trace "$trace" "$@" \
                --out "$here/out" --commit "$commit" >"$log" || status=$?
            # Everything but the result line is for the reader.
            sed '$d' "$log" >&3
            [ "$trace" = 0 ] && printf '"end_to_end": ' || printf ', "per_layer": '
            tail -n 1 "$log"
        done
        printf '}'
    done
    printf '}}\n'
} >"$results"
echo "results: $results"
if [ "$status" != 0 ]; then
    echo "error: a run failed or answered wrongly (status $status)" >&2
fi
exit "$status"
