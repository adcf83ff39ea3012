//! Trace isolation sanitizer + analysis baseline CLI.
//!
//! ```text
//! cargo run -p alter-bench --bin alter-lint -- [workload] [flags]
//! ```
//!
//! With no workload, every Table 2 benchmark is processed. For each one the
//! tool:
//!
//! 1. records a canonical trace of the paper's best configuration with the
//!    opt-in `task_sets` payloads (`ExecParams::record_sets`), and
//! 2. replays it through the isolation sanitizer, re-deriving every
//!    validate/commit verdict from the recorded read/write sets —
//!    deterministic commit order, committed write sets pairwise disjoint
//!    under write-checking policies, conflict attributions exact.
//!
//! Any violation fails the run (non-zero exit), which is how `scripts/ci.sh`
//! uses it as a gate.
//!
//! `--analysis PATH` additionally writes the static analyzer's verdict
//! baseline: per workload, the dependence report, the classifier's
//! must-fail predictions for the three Table 3 models, and the annotation
//! linter's diagnostics for the paper's chosen annotation. The file is a
//! pure function of the sequential replay — no probes run — so it is
//! byte-stable and committed as `ANALYSIS.json`, drift-checked like
//! `BENCH_runtime.json`.

use alter_analyze::{lint, predict, sanitize, AnalyzeConfig, LintTarget, SanitizeConfig};
use alter_infer::{InferConfig, Model};
use alter_runtime::Annotation;
use alter_trace::{Recorder, RingRecorder};
use alter_workloads::{all_benchmarks, find_benchmark, Benchmark, Scale};
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
usage: alter-lint [workload] [flags]

  workload         lint a single Table 2 workload (default: all twelve)

flags:
  --workers N      worker count for the recorded probe   (default 4)
  --analysis PATH  also write the deterministic analyzer verdict
                   baseline (ANALYSIS.json) to PATH
  --list           list workload names and exit";

/// Sanitizer capacity: canonical traces with `task_sets` payloads are much
/// larger than flight-recorder ones; keep every event.
const LINT_RING_CAPACITY: usize = 1 << 20;

/// Records the workload's best-configuration trace with full set payloads
/// and replays it through the sanitizer. Returns the number of events
/// checked and the violations found. An aborting run (AggloClust's
/// RAW-tracking models, say) is fine — the sanitizer audits the prefix.
fn lint_one(bench: &dyn Benchmark, workers: usize) -> (usize, Vec<String>) {
    let rec = Arc::new(RingRecorder::new(LINT_RING_CAPACITY));
    let mut probe = bench.best_probe(workers);
    probe.record_sets = true;
    probe.recorder = Some(rec.clone() as Arc<dyn Recorder>);
    let run = bench.run_probe(&probe);
    let events = rec.events();
    let mut messages = Vec::new();
    if rec.dropped() > 0 {
        messages.push(format!(
            "ring capacity exceeded: {} event(s) dropped, trace not fully auditable",
            rec.dropped()
        ));
        return (events.len(), messages);
    }
    if let Err(e) = run {
        messages.push(format!("probe aborted ({e}); auditing the trace prefix"));
    }
    let params = probe.model.exec_params(probe.workers, probe.chunk);
    let cfg = SanitizeConfig {
        conflict: params.conflict,
        order: params.order,
    };
    for v in sanitize(&events, &cfg) {
        messages.push(v.to_string());
    }
    (events.len(), messages)
}

/// The classifier's verdict line for one workload at the inference
/// geometry, as committed to `ANALYSIS.json`.
fn analysis_entry(bench: &dyn Benchmark, icfg: &InferConfig) -> String {
    let summary = bench.probe_summary();
    let dep = summary.report();
    let acfg = AnalyzeConfig {
        workers: icfg.workers,
        chunk: icfg.chunk,
        high_conflict_threshold: icfg.high_conflict_threshold,
        budget_words: bench.tracked_budget_words().unwrap_or(icfg.budget_words),
        ..AnalyzeConfig::default()
    };
    let mut verdicts = Vec::new();
    for model in Model::TABLE3 {
        let p = model.exec_params(icfg.workers, icfg.chunk);
        let v = predict(&summary, p.conflict, p.order, &[], &acfg);
        verdicts.push(format!(
            "      \"{}\": \"{}\"",
            model.to_string().to_ascii_lowercase(),
            v.class()
        ));
    }
    let (model, reduction) = bench.best_config();
    let best = match &reduction {
        None => model.to_string(),
        Some((var, op)) => format!("{model} + Reduction({var}, {op})"),
    };
    let target = match model {
        Model::Doall => LintTarget::Doall,
        Model::Tls => LintTarget::Tls,
        Model::OutOfOrder | Model::StaleReads => {
            let ann: Annotation = format!("[{best}]").parse().expect("best config parses");
            LintTarget::Annotated(ann)
        }
    };
    // The baseline stores diagnostic *counts* per (severity, code) — a
    // byte-stable fingerprint of the linter's behaviour that stays small
    // even for workloads with thousands of edges (SSCA2). The full
    // messages are available from the library (`diagnostics_json`).
    let diags = lint(&summary, &target);
    let mut counts: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for d in &diags {
        *counts
            .entry(format!("{}:{}", d.severity.as_str(), d.code))
            .or_insert(0) += 1;
    }
    let count_lines: Vec<String> = counts
        .iter()
        .map(|(k, v)| format!("      \"{k}\": {v}"))
        .collect();
    format!(
        "  {{\n    \"name\": \"{}\",\n    \"dep\": {{\"raw\": {}, \"waw\": {}, \"war\": {}, \"cell\": \"{}\"}},\n    \"verdicts\": {{\n{}\n    }},\n    \"best\": \"[{}]\",\n    \"diagnostics\": {{\n{}\n    }}\n  }}",
        bench.name(),
        dep.raw,
        dep.waw,
        dep.war,
        if dep.any() { "Yes" } else { "No" },
        verdicts.join(",\n"),
        best,
        if count_lines.is_empty() {
            "      \"none\": 0".to_owned()
        } else {
            count_lines.join(",\n")
        }
    )
}

/// Renders the full baseline file: stable key order, trailing newline.
fn analysis_json(benches: &[Box<dyn Benchmark>]) -> String {
    let icfg = InferConfig::default();
    let entries: Vec<String> = benches
        .iter()
        .map(|b| analysis_entry(b.as_ref(), &icfg))
        .collect();
    format!(
        "{{\n\"geometry\": {{\"workers\": {}, \"chunk\": {}}},\n\"workloads\": [\n{}\n]\n}}\n",
        icfg.workers,
        icfg.chunk,
        entries.join(",\n")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--list") {
        for b in all_benchmarks(Scale::Inference) {
            println!("{}", b.name());
        }
        return ExitCode::SUCCESS;
    }

    let mut workload = None;
    let mut workers = 4usize;
    let mut analysis_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workers" => {
                let Some(v) = it.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("error: --workers needs a positive integer");
                    return ExitCode::FAILURE;
                };
                workers = v.max(1);
            }
            "--analysis" => {
                let Some(p) = it.next() else {
                    eprintln!("error: --analysis needs a path");
                    return ExitCode::FAILURE;
                };
                analysis_path = Some(p.clone());
            }
            _ if a.starts_with("--") => {
                eprintln!("error: unknown flag {a}\n{USAGE}");
                return ExitCode::FAILURE;
            }
            _ if workload.is_none() => workload = Some(a.clone()),
            _ => {
                eprintln!("error: unexpected argument {a}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let benches: Vec<Box<dyn Benchmark>> = match &workload {
        None => all_benchmarks(Scale::Inference),
        Some(name) => match find_benchmark(name) {
            Some(b) => vec![b],
            None => {
                eprintln!("error: unknown workload `{name}` (try --list)");
                return ExitCode::FAILURE;
            }
        },
    };

    let mut failed = false;
    for b in &benches {
        let (events, messages) = lint_one(b.as_ref(), workers);
        if messages.iter().any(|m| !m.starts_with("probe aborted")) {
            failed = true;
        }
        let status = if messages.is_empty() {
            "clean".to_owned()
        } else {
            format!("{} issue(s)", messages.len())
        };
        println!("{:<12} {:>6} events  {}", b.name(), events, status);
        for m in &messages {
            println!("    {m}");
        }
    }

    if let Some(path) = analysis_path {
        let json = analysis_json(&benches);
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("analysis baseline written to {path}");
    }

    if failed {
        eprintln!("alter-lint: isolation violations found");
        return ExitCode::FAILURE;
    }
    println!("alter-lint: all traces clean");
    ExitCode::SUCCESS
}
