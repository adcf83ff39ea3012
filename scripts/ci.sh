#!/usr/bin/env bash
# Tier-1 gate: format, lint, build, test — fully offline (the workspace has
# no external dependencies). Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== fmt --check =="
cargo fmt --all --check

echo "== clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== build --release (warnings are errors) =="
RUSTFLAGS="-D warnings" cargo build --release

echo "== test (workspace) =="
cargo test --workspace --quiet

echo "== bench/check.sh (the wall benchmark's own gate) =="
# The benchmark crate is outside the workspace and binds to the crates'
# public surface (bench/README.md lists it), so only its own build notices
# when that surface narrows. Its gate is fmt, clippy, 25 unit tests and a
# validated 1 s smoke of all six workloads, untraced and traced.
bash bench/check.sh

if command -v taskset > /dev/null && command -v timeout > /dev/null; then
  echo "== one-CPU starvation gate (pool waiters must yield, not spin) =="
  # Coordinator and every lane contend for one CPU — what the wall
  # benchmark's placement does to lane 0 in a program's first loop and to
  # every lane in its later ones, and what `taskset -c 0` does to any run.
  # A waiter that yields hands the CPU to whoever it waits for; one that
  # spins burns its whole time slice per handoff and times out here
  # (measured on one CPU: pool tests 0.2 s yielding vs 22 s spinning,
  # round_modes 36 s vs 351 s). On one CPU the coordinator also takes back
  # nearly every ticket it offered (`WorkerPool::help_round`) — the path a
  # multi-CPU run rarely takes — so the engine's own tests run here too.
  cpu=$(taskset -cp $$ | sed 's/.*: *//; s/[,-].*//') # first allowed CPU
  taskset -c "$cpu" timeout 15 cargo test --quiet -p alter-runtime pool::
  taskset -c "$cpu" timeout 60 cargo test --quiet -p alter-runtime engine::
  taskset -c "$cpu" timeout 180 cargo test --quiet --test round_modes
fi

echo "== alter-lint (isolation sanitizer over all 12 canonical traces) =="
# Records each workload's best-configuration trace with full task_sets
# payloads, replays it through the sanitizer (any isolation-invariant
# violation is a hard failure), and regenerates the static analyzer's
# verdict baseline for the drift check below.
cargo run --release -q -p alter-bench --bin alter-lint -- --analysis ANALYSIS.json
# The baseline writer hand-rolls its JSON, so re-parse it with the strict
# grammar before the drift check consumes it.
cargo run --release -q -p alter-bench --bin alter-check-json -- ANALYSIS.json
if [[ -n "$(git status --porcelain -- ANALYSIS.json)" ]]; then
  echo "error: ANALYSIS.json drifted — the analyzer's dependence/annotation"
  echo "verdicts changed; inspect the diff and re-commit if intended."
  git --no-pager diff -- ANALYSIS.json
  exit 1
fi

echo "== alter-absint (static ⊇ dynamic cross-validation over all 12 specs) =="
# Interprets every workload's declared LoopSpec under the interval × stride
# domain and proves the abstract summary covers the dynamic replay — any
# under-declared access or missed edge is a hard failure — then regenerates
# the static verdict baseline for the drift check below.
cargo run --release -q -p alter-bench --bin alter-absint -- --json STATIC.json
cargo run --release -q -p alter-bench --bin alter-check-json -- STATIC.json
if [[ -n "$(git status --porcelain -- STATIC.json)" ]]; then
  echo "error: STATIC.json drifted — the abstract interpreter's symbolic"
  echo "summaries or static verdicts changed; inspect the diff and"
  echo "re-commit if intended."
  git --no-pager diff -- STATIC.json
  exit 1
fi

echo "== record/replay identity (determinism gate) =="
# Records a journal with full task_sets + profile payloads and re-executes
# it under its recorded configuration: the fresh event stream must be
# byte-identical. On mismatch alter-replay
# bisects to the first divergent round/event and prints the structured
# diff, which is exactly what we want in a CI log.
record_and_replay() {
  local w=$1 out=$2
  cargo run --release -q -p alter-bench --bin alter-replay -- \
    record "$w" --sets --profile --out "$out" > /dev/null
  cargo run --release -q -p alter-bench --bin alter-replay -- replay "$out"
}
for w in genome k-means; do
  record_and_replay "$w" "target/$w.journal"
done

echo "== alter-check (DPOR schedule-space model checker) =="
# Full check of the two flagship workloads at a raised schedule budget,
# then the 12-workload smoke that regenerates the committed CHECK.json
# baseline (schedules explored, DPOR-pruned, per-workload soundness) for
# the drift check below.
cargo run --release -q -p alter-bench --bin alter-check -- \
  check genome best --max-schedules 1024
cargo run --release -q -p alter-bench --bin alter-check -- \
  check k-means best --max-schedules 1024
cargo run --release -q -p alter-bench --bin alter-check -- \
  check all best --json CHECK.json > /dev/null
# The check writer hand-rolls its JSON, so re-parse it with the strict
# grammar before the drift check consumes it.
cargo run --release -q -p alter-bench --bin alter-check-json -- CHECK.json
if [[ -n "$(git status --porcelain -- CHECK.json)" ]]; then
  echo "error: CHECK.json drifted — the schedule-space exploration counts"
  echo "or a soundness verdict changed; inspect the diff and re-commit if"
  echo "intended."
  git --no-pager diff -- CHECK.json
  exit 1
fi
# The checker must also fail when it should: k-means under DOALL is
# deliberately unsound, and the dumped counterexample pair must diverge
# under the replay diff bisector (both commands exit 1).
if cargo run --release -q -p alter-bench --bin alter-check -- \
  check k-means doall --cex target/kmeans-doall > /dev/null; then
  echo "error: k-means under DOALL must be schedule-unsound"
  exit 1
fi
if cargo run --release -q -p alter-bench --bin alter-replay -- \
  diff target/kmeans-doall-expected.journal \
  target/kmeans-doall-actual.journal > /dev/null; then
  echo "error: counterexample journals must diverge under alter-replay diff"
  exit 1
fi

echo "== phase-profile baseline (PROFILE.json drift check) =="
# Regenerates the per-workload phase-cost baseline (pure cost units, no
# wall-clock) and fails on any drift from the committed file.
cargo run --release -q -p alter-bench --bin alter-replay -- \
  profile all --json PROFILE.json > /dev/null
# The profile writer hand-rolls its JSON, so re-parse the regenerated file
# with the strict grammar before the drift check consumes it.
cargo run --release -q -p alter-bench --bin alter-check-json -- PROFILE.json
if [[ -n "$(git status --porcelain -- PROFILE.json)" ]]; then
  echo "error: PROFILE.json drifted — the deterministic per-phase cost"
  echo "profile changed; inspect the diff and re-commit if intended."
  git --no-pager diff -- PROFILE.json
  exit 1
fi

echo "== bench smoke (deterministic counters) =="
scripts/bench.sh --smoke
# `git status --porcelain` (not `git diff --quiet`) so a deleted or
# never-committed BENCH_runtime.json counts as drift too.
if [[ -n "$(git status --porcelain -- BENCH_runtime.json)" ]]; then
  echo "error: BENCH_runtime.json drifted — the runtime's deterministic"
  echo "work profile changed; inspect the diff and re-commit if intended."
  git --no-pager diff -- BENCH_runtime.json
  exit 1
fi

echo "tier-1 gate: OK"
# The workspace size ROADMAP item 4 tracks (lower is better).
echo "workspace .rs lines: $(find crates src tests examples -name '*.rs' | xargs cat | wc -l)"
