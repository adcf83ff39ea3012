//! Microbenchmark of the sharded versioned heap: for each measured
//! workload, runs the paper's best configuration with the heap split into
//! 1 and 16 object-id shards and reports the deterministic work counters
//! side by side — trace hash, per-writer `validate_words`, and the words the
//! exact conflict scans actually compared under each layout.
//!
//! Sharding is a pure perf knob: per-shard fingerprints prune whole shards
//! before any exact scan runs, and the word-block scans that remain touch
//! only the surviving shard's ranges. The trace hash therefore must be
//! byte-identical at every shard count, and this bench hard-asserts it.
//!
//! Everything asserted and emitted here is deterministic (counters, not
//! wall-clock), so the JSON summary written by `--json <path>` is stable
//! across machines and can be checked in (`scripts/bench.sh` merges it
//! into `BENCH_runtime.json` as the `"sharding"` section).
//!
//! The run doubles as an acceptance check: it fails if any shard count
//! changes a trace hash, or if sharding does not at least halve exact-scan
//! words on Genome at 16 shards.

use alter_infer::Probe;
use alter_runtime::RunStats;
use alter_trace::{format_hash, trace_hash, Recorder, RingRecorder};
use alter_workloads::{find_benchmark, Benchmark};
use std::fmt::Write as _;
use std::sync::Arc;

/// Worker count for the measured runs: wide rounds mean each validation
/// scans up to N−1 earlier write sets, which is the work per-shard
/// fingerprint pruning cuts down.
const WORKERS: usize = 8;

/// The sharded layout under test, compared against the unsharded heap.
const SHARDS_HI: usize = 16;

/// One measured workload: the same run at 1 shard and at `SHARDS_HI`.
struct Measured {
    name: &'static str,
    annotation: String,
    chunk: usize,
    trace_hash: u64,
    unsharded: RunStats,
    sharded: RunStats,
}

/// Runs `bench` under `probe` at `shards` heap shards with a fresh
/// recorder; returns run stats and the trace hash.
fn recorded_run(bench: &dyn Benchmark, probe: &Probe, shards: usize) -> (RunStats, u64) {
    let rec = Arc::new(RingRecorder::default());
    let mut probe = probe.clone();
    probe.shards = shards;
    probe.recorder = Some(rec.clone() as Arc<dyn Recorder>);
    let run = bench.run_probe(&probe).expect("probe must complete");
    assert_eq!(rec.dropped(), 0, "ring must hold the whole trace");
    (run.stats, trace_hash(&rec.events()))
}

/// Measures one workload under its best annotation at `chunk` iterations
/// per transaction (pinned at 4: genome's tuned cf of 16 drowns
/// no-conflict validations in retry attribution).
fn measure(name: &'static str, chunk: usize) -> Measured {
    let bench = find_benchmark(name).expect("workload is registered");
    let mut probe = bench.best_probe(WORKERS);
    probe.chunk = chunk;
    let (unsharded, hash_1) = recorded_run(bench.as_ref(), &probe, 1);
    let (sharded, hash_16) = recorded_run(bench.as_ref(), &probe, SHARDS_HI);

    assert_eq!(
        hash_1, hash_16,
        "{name}: sharding changed the trace — the optimization is not allowed to be visible"
    );
    // Every verdict must match field for field; only the scan accounting
    // (which scans ran) may move across shard counts.
    assert_eq!(unsharded.validate_words, sharded.validate_words);
    assert_eq!(unsharded.committed, sharded.committed);
    assert_eq!(unsharded.retries(), sharded.retries());
    assert_eq!(unsharded.rounds, sharded.rounds);
    assert_eq!(unsharded.cost_units(), sharded.cost_units());
    assert_eq!(unsharded.shard_validate_words, 0);
    assert!(sharded.shard_imbalance_max <= sharded.shard_validate_words.max(1));

    println!(
        "{name:<10} [{}] cf={} N={WORKERS}: exact-scan words {} -> {} at {SHARDS_HI} shards \
         (shard scans {}, commit batches {} -> {}, imbalance max {})",
        probe.describe(),
        probe.chunk,
        unsharded.exact_scan_words,
        sharded.exact_scan_words,
        sharded.shard_validate_words,
        unsharded.shard_commit_batches,
        sharded.shard_commit_batches,
        sharded.shard_imbalance_max,
    );

    Measured {
        name,
        annotation: probe.describe(),
        chunk: probe.chunk,
        trace_hash: hash_1,
        unsharded,
        sharded,
    }
}

/// Renders the deterministic summary as pretty-printed JSON (hand-rolled;
/// the workspace builds without `serde`).
fn to_json(rows: &[Measured]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"workers\": {WORKERS},");
    let _ = writeln!(out, "  \"shards\": {SHARDS_HI},");
    let _ = writeln!(out, "  \"workloads\": [");
    for (i, m) in rows.iter().enumerate() {
        let reduction =
            m.unsharded.exact_scan_words as f64 / m.sharded.exact_scan_words.max(1) as f64;
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", m.name);
        let _ = writeln!(out, "      \"annotation\": \"{}\",", m.annotation);
        let _ = writeln!(out, "      \"chunk\": {},", m.chunk);
        let _ = writeln!(
            out,
            "      \"validate_words\": {},",
            m.sharded.validate_words
        );
        let _ = writeln!(
            out,
            "      \"exact_scan_words_unsharded\": {},",
            m.unsharded.exact_scan_words
        );
        let _ = writeln!(
            out,
            "      \"exact_scan_words_sharded\": {},",
            m.sharded.exact_scan_words
        );
        let _ = writeln!(out, "      \"scan_reduction_x\": {reduction:.2},");
        let _ = writeln!(
            out,
            "      \"shard_validate_words\": {},",
            m.sharded.shard_validate_words
        );
        let _ = writeln!(
            out,
            "      \"shard_commit_batches\": {},",
            m.sharded.shard_commit_batches
        );
        let _ = writeln!(
            out,
            "      \"shard_imbalance_max\": {},",
            m.sharded.shard_imbalance_max
        );
        let _ = writeln!(
            out,
            "      \"trace_hash\": \"{}\"",
            format_hash(m.trace_hash)
        );
        let _ = writeln!(out, "    }}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

fn main() {
    // `cargo test` runs bench targets with `--test`; nothing to test here.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let mut json_path = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--json" {
            json_path = it.next().cloned();
            if json_path.is_none() {
                eprintln!("error: --json needs a path");
                std::process::exit(1);
            }
        }
    }

    let rows = vec![measure("genome", 4), measure("k-means", 4)];

    // The headline claim, checked on every run: at 16 shards the per-shard
    // fingerprints and word-block scans must at least halve the words the
    // exact scans compare on Genome.
    let g = &rows[0];
    assert!(
        g.sharded.exact_scan_words * 2 <= g.unsharded.exact_scan_words,
        "genome exact-scan words not halved by sharding: {} (sharded) vs {} (unsharded)",
        g.sharded.exact_scan_words,
        g.unsharded.exact_scan_words
    );
    println!(
        "genome exact-scan reduction at {SHARDS_HI} shards: {:.1}x",
        g.unsharded.exact_scan_words as f64 / g.sharded.exact_scan_words.max(1) as f64
    );

    let json = to_json(&rows);
    if let Some(path) = json_path {
        std::fs::write(&path, &json).expect("write JSON summary");
        println!("wrote {path}");
    } else {
        print!("{json}");
    }
}
