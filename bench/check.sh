#!/usr/bin/env bash
# The bench crate's own gate (scripts/ci.sh does not reach into bench/):
# formatting, clippy with warnings denied, the unit tests, a smoke run of
# every workload untraced and traced, and a check that the metric names the
# runs print are exactly the ones BENCHMARK.json declares.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest=(--manifest-path "$here/Cargo.toml")
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

cargo fmt "${manifest[@]}" -- --check
cargo clippy --offline --locked --all-targets "${manifest[@]}" -- -D warnings
cargo test --offline --locked --release "${manifest[@]}"

mkdir -p "$here/out"
"$here/run.sh" --smoke --traced > "$here/out/smoke.jsonl"

python3 - "$here/../BENCHMARK.json" "$here/out/smoke.jsonl" <<'PY'
import json, sys

spec = json.load(open(sys.argv[1]))
want = {False: {m["name"] for m in spec["end_to_end"]}, True: {m["name"] for m in spec["per_layer"]}}
units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
results = [json.loads(l) for l in open(sys.argv[2]) if l.startswith('{"correct"')]
assert len(results) == 2 * len(spec["workloads"]), f"{len(results)} result lines"
for r in results:
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1, r
    traced = "setup_s" not in r["metrics"]
    assert set(r["metrics"]) == want[traced], set(r["metrics"]) ^ want[traced]
    for name, m in r["metrics"].items():
        assert m["unit"] == units[name], (name, m["unit"], units[name])
print(f"check.sh: {len(results)} runs correct, metric names and units match BENCHMARK.json")
PY
