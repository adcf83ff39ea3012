//! `list`, `trace` and `deps`: the flight recorder and the dependence
//! summary.
//!
//! `trace` runs one workload under an annotation with a ring recorder
//! attached and dumps the rendered timeline, the aggregated metrics and
//! the 64-bit trace hash. Because the engine emits every event from the
//! sequential validate/commit phase with only deterministic payloads, the
//! trace — and therefore the hash — is a replayable fingerprint of the
//! run: `--twice` executes the same probe a second time and verifies the
//! two JSONL transcripts are byte-identical.

use crate::{find, probe_for, record_run, select, Args};
use alter_analyze::absint::{interpret, ALLOC_REGION};
use alter_infer::Probe;
use alter_runtime::RunStats;
use alter_trace::{format_hash, to_jsonl, trace_hash, Event, Metrics, Profile};
use alter_workloads::{all_benchmarks, Benchmark, Scale};

pub fn list() {
    println!("workloads (inference-scale inputs):");
    for b in all_benchmarks(Scale::Inference) {
        let best = b.best_probe(1).describe();
        println!("  {:<12} best: [{best}]  cf={}", b.name(), b.chunk_factor());
    }
}

/// `deps [workload]`: one workload's summary, or the Dep column for all.
pub fn deps(workload: Option<&String>) -> Result<(), String> {
    match select(workload)?.as_slice() {
        [one] => print_deps(one.as_ref()),
        all => print_deps_table(all),
    }
    Ok(())
}

/// One workload: the full rendered summary, the Dep cell, and the static
/// analyzer's coverage of each observed edge.
fn print_deps(bench: &dyn Benchmark) {
    let summary = bench.probe_summary();
    let dep = summary.report();
    println!("{}: dependence summary", bench.name());
    print!("{}", summary.render());
    println!(
        "Table 3 Dep cell: {}  (RAW {}, WAW {}, WAR {})",
        if dep.any() { "Yes" } else { "No" },
        dep.raw,
        dep.waw,
        dep.war
    );
    let Some(spec) = bench.loop_spec() else {
        println!("static: no LoopSpec declared");
        return;
    };
    let st = interpret(&spec);
    println!();
    println!(
        "static vs dynamic ({} symbolic edge(s) from the LoopSpec):",
        st.edges.len()
    );
    // Each observed edge should be proved by a symbolic one (the
    // `static ⊇ dynamic` contract CI enforces); an uncovered edge means
    // the spec under-declares.
    for e in &summary.edges {
        let status = if st.covers_edge(&spec, e) {
            "proved"
        } else {
            "OBSERVED ONLY (spec under-declares!)"
        };
        println!(
            "  {} obj {:>4} word {:>6} dist [{}, {}]  {status}",
            e.kind.as_str(),
            u64::from(e.obj.index()),
            e.word,
            e.min_dist,
            e.max_dist
        );
    }
    // Symbolic edges nothing dynamic landed on: sound over-approximation.
    for se in &st.edges {
        let observed = summary.edges.iter().any(|e| {
            let region = spec
                .region_of(e.obj)
                .unwrap_or(if spec.is_loop_local(e.obj) {
                    ALLOC_REGION
                } else {
                    usize::MAX - 1
                });
            e.kind == se.kind && region == se.region
        });
        if !observed {
            let region = if se.region == ALLOC_REGION {
                "loop-local allocations"
            } else {
                spec.regions[se.region].name
            };
            println!(
                "  {} region `{region}` dist [{}, {}]  static only",
                se.kind.as_str(),
                se.dist.lo,
                se.dist.hi
            );
        }
    }
}

/// The paper's Table 3 Dep column, plus how much of each observed edge
/// set the static analyzer proves.
fn print_deps_table(benches: &[Box<dyn Benchmark>]) {
    println!("Table 3 Dep column (loop-carried dependences):");
    println!(
        "  {:<12} {:<5} {:<5} {:<5} {:<5} {:<7} static",
        "Benchmark", "Dep", "RAW", "WAW", "WAR", "edges"
    );
    for b in benches {
        let summary = b.probe_summary();
        let dep = summary.report();
        let coverage = match b.loop_spec() {
            None => "no spec".to_owned(),
            Some(spec) => {
                let st = interpret(&spec);
                let proved = summary
                    .edges
                    .iter()
                    .filter(|e| st.covers_edge(&spec, e))
                    .count();
                format!("{proved}/{} proved", summary.edges.len())
            }
        };
        println!(
            "  {:<12} {:<5} {:<5} {:<5} {:<5} {:<7} {}",
            b.name(),
            if dep.any() { "Yes" } else { "No" },
            dep.raw,
            dep.waw,
            dep.war,
            summary.edges.len(),
            coverage
        );
    }
}

/// Records one run and returns its events, the verdict line and the run's
/// statistics (zeros when the run aborted), whose out-of-band perf
/// counters travel outside the event stream — traces are byte-identical
/// under either driver.
fn traced(bench: &dyn Benchmark, probe: &Probe) -> Result<(Vec<Event>, String, RunStats), String> {
    let (events, run) = record_run(bench, probe)?;
    let (verdict, stats) = match run {
        Ok(run) => (
            format!(
                "run: ok  (retry rate {:.3}, {:.1} sequential-work units)",
                run.stats.retry_rate(),
                run.clock.seq_units
            ),
            run.stats,
        ),
        Err(e) => (format!("run: aborted ({e})"), RunStats::default()),
    };
    Ok((events, verdict, stats))
}

pub fn trace(a: &Args) -> Result<bool, String> {
    let bench = find(&a.pos[0])?;
    let mut probe = probe_for(bench.as_ref(), &a.annotation(), a.workers())?;
    if let Some(chunk) = a.number("--chunk") {
        probe.chunk = chunk;
    }
    probe.threaded = a.has("--threaded");
    probe.profile_phases = a.has("--profile");

    println!(
        "{} under [{}], {} worker(s), chunk {}{}",
        bench.name(),
        probe.describe(),
        probe.workers,
        probe.chunk,
        if probe.threaded { " (threaded)" } else { "" }
    );
    let (events, verdict, stats) = traced(bench.as_ref(), &probe)?;
    println!("{verdict}");
    println!();

    if a.has("--jsonl") {
        print!("{}", to_jsonl(&events));
    } else {
        print!("{}", alter_trace::render_timeline(&events));
    }
    println!();
    let runtime_counters = format!(
        "  pool_reuses={} exact_scan_words={}\n  \
         snapshot_slots_copied={} pool_round_handoffs={}\n  \
         tickets_issued={} tickets_requeued={} tickets_helped={}\n",
        stats.pool_reuses,
        stats.exact_scan_words,
        stats.snapshot_slots_copied,
        stats.pool_round_handoffs,
        stats.tickets_issued,
        stats.tickets_requeued,
        stats.tickets_helped
    );
    print!(
        "{}",
        Metrics::from_events(&events).render(&runtime_counters)
    );
    println!();
    if probe.profile_phases {
        // Same aggregation the `profile` subcommand uses.
        print!("{}", Profile::from_events(&events).render(bench.name()));
        println!();
    }
    let hash = trace_hash(&events);
    println!("trace hash: {}", format_hash(hash));

    if a.has("--twice") {
        let (events2, _, _) = traced(bench.as_ref(), &probe)?;
        let identical = to_jsonl(&events) == to_jsonl(&events2);
        let hash2 = trace_hash(&events2);
        println!(
            "second run: {} ({})",
            format_hash(hash2),
            if identical && hash == hash2 {
                "byte-identical trace — deterministic"
            } else {
                "TRACE DIVERGED"
            }
        );
        return Ok(identical && hash == hash2);
    }
    Ok(true)
}
