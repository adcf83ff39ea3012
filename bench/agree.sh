#!/usr/bin/env bash
# Runs two full sets (every workload, untraced and traced) back to back and
# checks that the second agrees with the first: every end-to-end metric on
# every workload within its own bound from BENCHMARK.json, every engine.*
# count exactly. Prints the table; exits non-zero on disagreement, on a wrong
# output, or when a set was void (taken on a disturbed machine).
#
#   bench/agree.sh [--seed N] [--smoke]
set -uo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$here/out"
status=0
for set in 1 2; do
    "$here/run.sh" --traced "$@" > "$here/out/set$set.jsonl" || status=$?
done
if [ "$status" -ne 0 ]; then
    echo "agree.sh: a set exited $status (1 wrong output, 3 void); comparing anyway" >&2
fi

python3 - "$here/../BENCHMARK.json" "$here/out/set1.jsonl" "$here/out/set2.jsonl" <<'PY' || status=1
import json, sys

spec = json.load(open(sys.argv[1]))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
counts = {m["name"] for m in spec["per_layer"]
          if m["name"].startswith("engine.") and m["unit"] in ("count", "share", "words")}

def load(path):
    values = {}
    for line in open(path):
        row = json.loads(line)
        if "metric" in row:
            values[(row["workload"], row["metric"])] = row["value"]
    return values

first, second = load(sys.argv[2]), load(sys.argv[3])
bad = 0
print(f"{'workload':11} {'metric':30} {'set 1':>14} {'set 2':>14} {'change':>8} {'allowed':>8}")
for key in sorted(first):
    workload, metric = key
    exact = metric in counts
    if metric not in bounds and not exact:
        continue
    a, b = first[key], second.get(key)
    if b is None:
        verdict, change, allowed = "MISSING", float("nan"), 0.0
    elif exact:
        change, allowed = b - a, 0.0
        verdict = "ok" if a == b else "DIFFERS"
    else:
        change, allowed = (b - a) / a, bounds[metric]
        verdict = "ok" if abs(change) <= allowed else "DISAGREES"
    bad += verdict != "ok"
    shown = f"{change:+8.0f}" if exact else f"{change:+8.1%}"
    print(f"{workload:11} {metric:30} {a:14.6g} {b if b is not None else float('nan'):14.6g} {shown} {allowed:8.0%} {verdict}")
print(f"{bad} disagreement(s)")
sys.exit(1 if bad else 0)
PY
exit "$status"
