#!/usr/bin/env bash
# The benchmark's one command. Builds the bench crate offline, then runs one
# process per workload; each prints one JSON line per metric and, last, the
# result object {"correct","attempted","failed","metrics"}.
#
#   bench/run.sh [--seed N] [--workload W] [--traced] [--smoke]
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1     (driver form)
#
# --traced repeats each workload with spans and Probe.wall_profile on and runs
# the per-layer probes; spans go to bench/out/trace-W.jsonl. --smoke measures
# for 1 s per workload instead of 15 and checks outputs only. Otherwise,
# without --trace, the environment gate is strict: a run taken on a disturbed
# machine exits 3 instead of publishing. Exit status 1 means an output was
# wrong.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
workloads=(genome genome-ooo kmeans floyd barneshut synth-fat)
seed=1
seconds=15
traces=(0)
gate=(--strict-env)

while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --workload) workloads=("$2"); shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) traces=("$2"); gate=(); shift 2 ;;
        --traced) traces=(0 1); shift ;;
        --smoke) seconds=1; gate=(); shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

target="${CARGO_TARGET_DIR:-$here/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --locked \
    --manifest-path "$here/Cargo.toml" >&2
{
    echo "bench: nproc $(nproc), $(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2- | xargs)"
    echo "bench: kernel $(uname -r), $(rustc -V)"
} >&2

status=0
for w in "${workloads[@]}"; do
    for t in "${traces[@]}"; do
        "$target/release/alter-wallbench" --workload "$w" --seed "$seed" \
            --seconds "$seconds" --trace "$t" --out "$here/out" ${gate[@]+"${gate[@]}"} || status=$?
    done
done
exit "$status"
