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

echo "== rustdoc (warnings are errors) =="
# Catches intra-doc links left dangling when an item is deleted or made
# private, and links that name both a module and a function.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== build --release (warnings are errors) =="
RUSTFLAGS="-D warnings" cargo build --release

echo "== test (workspace) =="
cargo test --workspace --quiet

echo "== bench targets (runtime_micro, ablations) =="
# `cargo test --workspace` builds no `[[bench]]` target, so the assertions
# inside them run only here: runtime_micro's NopRecorder contract (cost
# units and heap digest unchanged) and its guarded-row scan's equal
# counters. One run each, timings discarded. On 2 vCPUs the leg takes
# 5-17 s, of which running both is about 0.5 s and the rest compiling.
cargo bench --quiet -p alter-bench --bench runtime_micro > /dev/null
cargo bench --quiet -p alter-bench --bench ablations > /dev/null

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

# Every verification surface is a subcommand of one bin.
cli() { cargo run --release -q -p alter-bench --bin alter-cli -- "$@"; }

echo "== smoke: tables, figures --quick, gauss_seidel example, trace, lint, absint, deps =="
# Outside the tests these are the only readers of a probe run's sweep and
# pass counts and of its simulated clock; clippy only compiles them. Each
# must exit 0 (about a second each in release mode). `trace --twice` is the
# determinism oracle and prints the runtime's counter line; `lint`,
# `absint` and `deps` with no workload cover all twelve (≈ 1 s together).
cli tables > /dev/null
cli figures --quick > /dev/null
cargo run --release -q --example gauss_seidel > /dev/null
cli trace genome --threaded --twice > /dev/null
cli lint > /dev/null
cli absint > /dev/null
cli deps > /dev/null

echo "== alter-cli baselines (verdict gates + VERDICTS.json drift check) =="
# One process records every workload's best run once (task sets and phase
# profile on) and writes one verdict record per workload to VERDICTS.json,
# exiting non-zero with the gate's message when any gate fails: every best
# run is isolation-sanitizer clean, every declared LoopSpec covers its
# dynamic replay (static ⊇ dynamic), every best run is schedule-sound, the
# trace-folded phase profile equals the RunStats ledger and RunStats,
# profile and checker count the same rounds, DPOR prunes Genome and
# K-means >= 5x below naive enumeration with no budget hit, and the static
# tier skips >= 10 probes without changing an inferred annotation. The
# flagships' N = 1/2/8 phase sweep also gates that the threaded driver
# charges what the sequential one does and that profiling is pure. Every
# number written is a deterministic counter (no wall-clock), so any diff is
# drift. `git status --porcelain` (not `git diff --quiet`) so a deleted or
# never-committed VERDICTS.json counts as drift too.
cli baselines
if [[ -n "$(git status --porcelain -- VERDICTS.json)" ]]; then
  echo "error: VERDICTS.json drifted — an analyzer verdict, static summary,"
  echo "trace hash, phase cost, schedule-space count or probe count changed;"
  echo "inspect the diff and re-commit if intended."
  git --no-pager diff -- VERDICTS.json
  exit 1
fi

echo "== record/replay identity (determinism gate) =="
# Records a journal with full task_sets + profile payloads and re-executes
# it under its recorded configuration: the fresh event stream must be
# byte-identical. On mismatch `replay` finds the first divergent
# round/event and prints the structured diff, which is exactly what we
# want in a CI log. The same journal, model-checked offline, must print the
# summary a fresh `check <w> <annotation>` prints. Floyd adds the biggest
# partial commit (thousands of ranges merged into one 16 384-word object)
# and BarnesHut objects linked into lists. The best runs all record under
# StaleReads, whose journals carry empty read sets; Genome under
# OutOfOrder carries read sets through the journal, the sanitizer and the
# checker.
for leg in "genome best" "k-means best" "floyd best" "barneshut best" "genome outoforder"; do
  read -r w ann <<< "$leg"
  journal="target/$w-$ann.journal"
  cli record "$w" "$ann" --sets --profile --out "$journal" > /dev/null
  cli replay "$journal"
  cli check --journal "$journal" > "target/$w-$ann.check-journal"
  cli check "$w" "$ann" > "target/$w-$ann.check-fresh"
  if ! cmp "target/$w-$ann.check-journal" "target/$w-$ann.check-fresh"; then
    echo "error: check --journal on the recorded $w journal differs from check $w $ann"
    exit 1
  fi
done

echo "== DPOR schedule-space model checker =="
# Full check of the two flagship workloads at a raised schedule budget.
# Their best runs record under StaleReads, whose read sets are empty, so
# Genome under OutOfOrder is the leg whose commutativity relation takes
# the read-vs-write branch at this budget.
cli check genome best --max-schedules 1024
cli check k-means best --max-schedules 1024
cli check genome outoforder --max-schedules 1024
# The checker must also fail when it should: k-means under DOALL is
# deliberately unsound, and the dumped counterexample pair must diverge
# under `alter-cli diff` (both commands exit 1), while a journal diffed
# against itself is identical (exit 0).
if cli check k-means doall --cex target/kmeans-doall > /dev/null; then
  echo "error: k-means under DOALL must be schedule-unsound"
  exit 1
fi
if cli diff target/kmeans-doall-expected.journal \
  target/kmeans-doall-actual.journal > /dev/null; then
  echo "error: counterexample journals must diverge under alter-cli diff"
  exit 1
fi
cli diff target/kmeans-doall-expected.journal \
  target/kmeans-doall-expected.journal > /dev/null

echo "tier-1 gate: OK"
# The workspace size ROADMAP item 7 tracks (lower is better), and the same
# count without test code: no `tests/` or `benches/` file and no
# `#[cfg(test)] mod tests { ... }` block (rustfmt closes one with a `}` in
# column 0), so that adding a test does not move it.
non_test=$(find crates src examples -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' |
  xargs awk '
    /^#\[cfg\(test\)\]$/ { held = 1; next }
    held && /^mod tests \{/ { skip = 1; held = 0; next }
    held { n++; held = 0 }
    skip { if ($0 == "}") skip = 0; next }
    { n++ }
    END { print n }')
echo "workspace .rs lines: $(find crates src tests examples -name '*.rs' | xargs cat | wc -l)" \
  "(without test code: $non_test)"
