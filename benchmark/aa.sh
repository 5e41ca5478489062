#!/usr/bin/env bash
# A/A check: measures the same code twice and holds the two sets against
# the bounds BENCHMARK.json fixes.
#
#   aa.sh [runs-per-workload-and-set]        (default 10, as the driver does)
#
# Each set runs every workload that many times untraced, each run with
# another --seed. For every end-to-end metric of every workload it then
# prints both medians and the spread (first to third quartile, as a
# share of the median), and fails when the second median is worse than
# the first by more than the metric's bound, when a spread other than
# setup_s's exceeds its bound, or when any operation failed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs="${1:-10}"
mkdir -p "$here/out"
for set in 1 2; do
    : >"$here/out/aa-$set.jsonl"
    for workload in browse_tasks browse_revisit wire_read wire_mixed; do
        for i in $(seq 1 "$runs"); do
            seed=$((set * 1000 + i))
            echo "set $set: $workload seed $seed" >&2
            line="$(bash "$here/run.sh" --workload "$workload" --seed "$seed" --trace 0 | tail -n 1)"
            printf '{"workload": "%s", "result": %s}\n' "$workload" "$line" >>"$here/out/aa-$set.jsonl"
        done
    done
done

python3 - "$here/../BENCHMARK.json" "$here/out/aa-1.jsonl" "$here/out/aa-2.jsonl" <<'PY'
import json, statistics, sys

bench = json.load(open(sys.argv[1]))
sets = []
for path in sys.argv[2:]:
    values, failed = {}, 0
    for line in open(path):
        run = json.loads(line)
        failed += run["result"]["failed"] + (not run["result"]["correct"])
        for name, m in run["result"]["metrics"].items():
            values.setdefault((run["workload"], name), []).append(m["value"])
    sets.append((values, failed))

ok = all(failed == 0 for _, failed in sets)
print(f"failed operations: {sets[0][1]} and {sets[1][1]}")
print(f"{'workload':15} {'metric':12} {'median 1':>12} {'median 2':>12} {'change':>8} {'spread 1':>9} {'spread 2':>9} {'bound':>6}")
for w in [w["name"] for w in bench["workloads"]]:
    for m in bench["end_to_end"]:
        a, b = (s[0][(w, m["name"])] for s in sets)
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        def spread(v):
            if len(v) < 2:
                return 0.0
            q = statistics.quantiles(v, n=4)
            return (q[2] - q[0]) / statistics.median(v)
        bad = worse > m["bound"] or (m["name"] != "setup_s" and max(spread(a), spread(b)) > m["bound"])
        ok &= not bad
        print(f"{w:15} {m['name']:12} {ma:12.4f} {mb:12.4f} {worse:+8.1%} {spread(a):9.1%} {spread(b):9.1%} {m['bound']:6.0%}{'  <-- outside' if bad else ''}")
print("A/A: every metric within its bound" if ok else "A/A: FAILED")
sys.exit(0 if ok else 1)
PY
