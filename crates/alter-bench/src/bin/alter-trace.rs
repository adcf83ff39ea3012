//! Flight-recorder CLI: runs one of the twelve workloads under a chosen
//! annotation with a structured-event recorder attached, then dumps the
//! rendered timeline, the aggregated metrics, and the 64-bit trace hash.
//!
//! ```text
//! cargo run -p alter-bench --bin alter-trace -- <workload> [annotation] [flags]
//! ```
//!
//! The annotation is one of `tls`, `outoforder`, `stalereads`, `doall`, or
//! `best` (the paper's chosen configuration for the workload, including any
//! reduction; the default). Because the engine emits every event from the
//! sequential validate/commit phase with only deterministic payloads, the
//! trace — and therefore the hash — is a replayable fingerprint of the run:
//! `--twice` executes the same probe a second time and verifies the two
//! JSONL transcripts are byte-identical.

use alter_analyze::absint::{interpret, ALLOC_REGION};
use alter_infer::{Model, Probe};
use alter_runtime::RunStats;
use alter_trace::{
    format_hash, to_jsonl, trace_hash, Event, Metrics, Profile, Recorder, RingRecorder,
};
use alter_workloads::{all_benchmarks, find_benchmark, Benchmark, Scale};
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
usage: alter-trace <workload> [annotation] [flags]

  workload     one of the twelve Table 2 workloads (case-insensitive),
               e.g. genome, k-means, agglo-clust; `--list` prints them
  annotation   tls | outoforder | stalereads | doall | best   (default best)

flags:
  --workers N  worker count                       (default 4)
  --chunk N    chunk factor                       (default: tuned cf)
  --jsonl      dump the raw JSONL event stream instead of the timeline
  --twice      run the probe twice and verify byte-identical traces
  --profile    enable the deterministic phase profiler (per-round
               phase_profile events) and print the sorted hotspot table
  --threaded   drive rounds on the worker pool's threads instead of the
               sequential simulation (identical traces, different
               wall-clock)
  --tickets    emit ticket-lifecycle events (ticket_issued /
               ticket_validated / ticket_requeued) into the trace; off by
               default so hashes match previous releases
  --deps       print the workload's dependence summary (per-location
               edges with iteration distances) and its Table 3 Dep cell
               instead of running a probe; with no workload, print the
               Dep column for all twelve
  --list       list workload names and exit";

/// `--deps` for one workload: the full rendered summary, the Dep cell, and
/// the static analyzer's coverage of each observed edge.
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

/// `--deps` with no workload: the paper's Table 3 Dep column, plus how
/// much of each observed edge set the static analyzer proves.
fn print_deps_table() {
    println!("Table 3 Dep column (loop-carried dependences):");
    println!(
        "  {:<12} {:<5} {:<5} {:<5} {:<5} {:<7} static",
        "Benchmark", "Dep", "RAW", "WAW", "WAR", "edges"
    );
    for b in all_benchmarks(Scale::Inference) {
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

fn list_workloads() {
    println!("workloads (inference-scale inputs):");
    for b in all_benchmarks(Scale::Inference) {
        let (model, red) = b.best_config();
        let best = match red {
            None => model.to_string(),
            Some((var, op)) => format!("{model} + Reduction({var}, {op})"),
        };
        println!("  {:<12} best: [{best}]  cf={}", b.name(), b.chunk_factor());
    }
}

/// Runs `probe` against `bench` with a fresh ring recorder and returns the
/// captured events, the run verdict line, and the run's statistics
/// (zeros when the run aborted), whose out-of-band perf counters travel
/// outside the event stream — traces are byte-identical under either
/// driver.
fn record_run(bench: &dyn Benchmark, probe: &Probe) -> (Vec<Event>, String, RunStats) {
    let rec = Arc::new(RingRecorder::default());
    let mut probe = probe.clone();
    probe.recorder = Some(rec.clone() as Arc<dyn Recorder>);
    let (verdict, stats) = match bench.run_probe(&probe) {
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
    let events = rec.events();
    if rec.dropped() > 0 {
        eprintln!(
            "warning: ring capacity exceeded, {} oldest event(s) dropped",
            rec.dropped()
        );
    }
    (events, verdict, stats)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        list_workloads();
        return ExitCode::SUCCESS;
    }
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }

    let mut workload = None;
    let mut annotation = None;
    let mut workers = 4usize;
    let mut chunk = None;
    let mut jsonl = false;
    let mut twice = false;
    let mut profile = false;
    let mut threaded = false;
    let mut tickets = false;
    let mut deps = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workers" | "--chunk" => {
                let Some(v) = it.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("error: {a} needs a positive integer");
                    return ExitCode::FAILURE;
                };
                if a == "--workers" {
                    workers = v.max(1);
                } else {
                    chunk = Some(v.max(1));
                }
            }
            "--jsonl" => jsonl = true,
            "--twice" => twice = true,
            "--profile" => profile = true,
            "--threaded" => threaded = true,
            "--tickets" => tickets = true,
            "--deps" => deps = true,
            _ if a.starts_with("--") => {
                eprintln!("error: unknown flag {a}\n{USAGE}");
                return ExitCode::FAILURE;
            }
            _ if workload.is_none() => workload = Some(a.clone()),
            _ if annotation.is_none() => annotation = Some(a.clone()),
            _ => {
                eprintln!("error: unexpected argument {a}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let Some(workload) = workload else {
        if deps {
            print_deps_table();
            return ExitCode::SUCCESS;
        }
        eprintln!("error: no workload given\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let Some(bench) = find_benchmark(&workload) else {
        eprintln!("error: unknown workload `{workload}` (try --list)");
        return ExitCode::FAILURE;
    };
    if deps {
        print_deps(bench.as_ref());
        return ExitCode::SUCCESS;
    }

    let annotation = annotation.unwrap_or_else(|| "best".to_owned());
    let mut probe = if annotation.eq_ignore_ascii_case("best") {
        bench.best_probe(workers)
    } else {
        let Some(model) = Model::parse_token(&annotation) else {
            eprintln!("error: unknown annotation `{annotation}` (tls | outoforder | stalereads | doall | best)");
            return ExitCode::FAILURE;
        };
        Probe::new(model, workers, bench.chunk_factor())
    };
    if let Some(chunk) = chunk {
        probe.chunk = chunk;
    }
    probe.threaded = threaded;
    probe.trace_tickets = tickets;
    probe.profile_phases = profile;

    let mut notes = Vec::new();
    if threaded {
        notes.push("threaded");
    }
    if tickets {
        notes.push("ticket events");
    }
    println!(
        "{} under [{}], {} worker(s), chunk {}{}",
        bench.name(),
        probe.describe(),
        probe.workers,
        probe.chunk,
        if notes.is_empty() {
            String::new()
        } else {
            format!(" ({})", notes.join("; "))
        }
    );
    let (events, verdict, stats) = record_run(bench.as_ref(), &probe);
    println!("{verdict}");
    println!();

    if jsonl {
        print!("{}", to_jsonl(&events));
    } else {
        print!("{}", alter_trace::render_timeline(&events));
    }
    println!();
    let runtime_counters = format!(
        "  fingerprint_hits={} fingerprint_rejects={} pool_reuses={} exact_scan_words={}\n  \
         snapshot_slots_copied={} snapshot_pages_reused={} pool_round_handoffs={}\n  \
         tickets_issued={} tickets_requeued={} tickets_helped={}\n",
        stats.fingerprint_hits,
        stats.fingerprint_rejects,
        stats.pool_reuses,
        stats.exact_scan_words,
        stats.snapshot_slots_copied,
        stats.snapshot_pages_reused,
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
    if profile {
        // Same aggregation the `alter-replay profile` subcommand uses.
        print!("{}", Profile::from_events(&events).render(bench.name()));
        println!();
    }
    let hash = trace_hash(&events);
    println!("trace hash: {}", format_hash(hash));

    if twice {
        let (events2, _, _) = record_run(bench.as_ref(), &probe);
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
        if !identical || hash != hash2 {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
