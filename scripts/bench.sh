#!/usr/bin/env bash
# Runtime micro-benchmarks: the primitive-cost benchmarks plus the three
# deterministic benches (phase profiler, DPOR model checker, static
# analyzer), which together regenerate BENCH_runtime.json at the
# repo root. Everything in the JSON is a deterministic counter (cost units,
# validate words, exact-scan words, schedules explored, trace hashes) —
# no wall-clock — so the file is stable across machines and is checked in;
# a diff after running this script means the runtime's work profile
# actually changed. Wall time is bench/'s job.
#
# Usage: scripts/bench.sh [--smoke]
#   --smoke   deterministic benches only (the part CI runs)
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

smoke=false
if [[ "${1:-}" == "--smoke" ]]; then
  smoke=true
fi

if ! $smoke; then
  echo "== runtime_micro (wall-clock, informational) =="
  cargo bench -p alter-bench --bench runtime_micro
  echo
fi

# cargo runs bench binaries from the package directory, so hand the benches
# absolute paths.
mkdir -p target
echo "== phase profiler (per-phase cost units, worker sweep) =="
cargo bench -p alter-bench --bench phases -- --json "$PWD/target/bench-phases.json"
echo
echo "== DPOR model checker (schedules explored vs naive, pruning gate) =="
cargo bench -p alter-bench --bench check -- --json "$PWD/target/bench-check.json"
echo
echo "== static analyzer probe economics (skips >= 10 gate) =="
cargo bench -p alter-bench --bench absint -- --json "$PWD/target/bench-absint.json"

# Merge the deterministic summaries into the checked-in profile.
{
  printf '{\n"phases":\n'
  cat target/bench-phases.json
  printf ',\n"check":\n'
  cat target/bench-check.json
  printf ',\n"absint":\n'
  cat target/bench-absint.json
  printf '}\n'
} > BENCH_runtime.json

# The printf/cat splice above fails silently if a bench ever changes its
# output shape, so re-parse the merged file with a strict JSON grammar and
# fail the script (set -e) before anyone consumes a corrupt profile.
echo
echo "== validate merged profile =="
cargo run -q -p alter-bench --bin alter-check-json -- BENCH_runtime.json

echo
echo "BENCH_runtime.json:"
cat BENCH_runtime.json
