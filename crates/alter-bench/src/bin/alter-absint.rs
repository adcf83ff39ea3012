//! Static loop-summary baseline CLI.
//!
//! ```text
//! cargo run -p alter-bench --bin alter-absint -- [workload] [flags]
//! ```
//!
//! For each Table 2 workload the tool:
//!
//! 1. interprets the declared [`LoopSpec`] under the interval × stride
//!    domain, producing the symbolic footprints, dependence edges, and
//!    per-model static verdicts, and
//! 2. cross-validates the abstract summary against the workload's dynamic
//!    replay (`probe_summary`), proving `static ⊇ dynamic` per location
//!    and per edge.
//!
//! Any cross-validation violation fails the run (non-zero exit), which is
//! how `scripts/ci.sh` uses it as a gate. `--json PATH` writes the
//! deterministic baseline: per workload, the iteration count, symbolic
//! edge counts by kind, the must/may footprint scalars, and the three
//! Table 3 models' static verdict classes. The file is a pure function of
//! the specs — no probes run — so it is byte-stable and committed as
//! `STATIC.json`, drift-checked like `ANALYSIS.json`.

use alter_analyze::absint::{cross_validate, interpret, static_verdict, LoopSpec, StaticSummary};
use alter_analyze::AnalyzeConfig;
use alter_infer::{InferConfig, Model};
use alter_runtime::DepKind;
use alter_workloads::{all_benchmarks, find_benchmark, Benchmark, Scale};
use std::process::ExitCode;

const USAGE: &str = "\
usage: alter-absint [workload] [flags]

  workload     analyze a single Table 2 workload (default: all twelve)

flags:
  --json PATH  also write the deterministic static baseline
               (STATIC.json) to PATH
  --list       list workload names and exit";

/// One workload's spec, summary, and cross-validation violations.
struct Analyzed {
    name: String,
    spec: LoopSpec,
    summary: StaticSummary,
    violations: Vec<String>,
}

fn analyze_one(bench: &dyn Benchmark) -> Option<Analyzed> {
    let spec = bench.loop_spec()?;
    let summary = interpret(&spec);
    let violations = cross_validate(&spec, &summary, &bench.probe_summary());
    Some(Analyzed {
        name: bench.name().to_owned(),
        spec,
        summary,
        violations,
    })
}

fn edge_count(summary: &StaticSummary, kind: DepKind) -> usize {
    summary.edges.iter().filter(|e| e.kind == kind).count()
}

/// The baseline entry for one workload: stable key order, verdicts via
/// `StaticVerdict::class()` at the inference geometry.
fn static_entry(bench: &dyn Benchmark, a: &Analyzed, icfg: &InferConfig) -> String {
    let acfg = AnalyzeConfig {
        workers: icfg.workers,
        chunk: icfg.chunk,
        high_conflict_threshold: icfg.high_conflict_threshold,
        budget_words: bench.tracked_budget_words().unwrap_or(icfg.budget_words),
        ..AnalyzeConfig::default()
    };
    let verdicts: Vec<String> = Model::TABLE3
        .into_iter()
        .map(|model| {
            let p = model.exec_params(icfg.workers, icfg.chunk);
            let v = static_verdict(&a.summary, p.conflict, &acfg);
            format!(
                "      \"{}\": \"{}\"",
                model.to_string().to_ascii_lowercase(),
                v.class()
            )
        })
        .collect();
    format!(
        "  {{\n    \"name\": \"{}\",\n    \"iterations\": {},\n    \"regions\": {},\n    \"edges\": {{\"raw\": {}, \"waw\": {}, \"war\": {}}},\n    \"may_iter_words\": {{\"rw\": {}, \"w\": {}}},\n    \"must_first_words\": {{\"rw\": {}, \"w\": {}}},\n    \"allocates\": {},\n    \"verdicts\": {{\n{}\n    }},\n    \"cross_validation\": \"{}\"\n  }}",
        a.name,
        a.summary.iterations,
        a.spec.regions.len(),
        edge_count(&a.summary, DepKind::Raw),
        edge_count(&a.summary, DepKind::Waw),
        edge_count(&a.summary, DepKind::War),
        a.summary.may_iter_words_rw,
        a.summary.may_iter_words_w,
        a.summary.must_first_words_rw,
        a.summary.must_first_words_w,
        a.summary.allocates,
        verdicts.join(",\n"),
        if a.violations.is_empty() { "ok" } else { "FAIL" }
    )
}

/// Renders the full baseline file: stable key order, trailing newline.
fn static_json(benches: &[Box<dyn Benchmark>], analyzed: &[Analyzed]) -> String {
    let icfg = InferConfig::default();
    let entries: Vec<String> = benches
        .iter()
        .zip(analyzed)
        .map(|(b, a)| static_entry(b.as_ref(), a, &icfg))
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
    let mut json_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => {
                let Some(p) = it.next() else {
                    eprintln!("error: --json needs a path");
                    return ExitCode::FAILURE;
                };
                json_path = Some(p.clone());
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

    let mut analyzed = Vec::new();
    let mut failed = false;
    for b in &benches {
        let Some(a) = analyze_one(b.as_ref()) else {
            eprintln!("{:<12} no LoopSpec declared", b.name());
            failed = true;
            continue;
        };
        println!(
            "{:<12} {:>8} iters  {:>2} edges  must rw/w {:>6}/{:>6}  {}",
            a.name,
            a.summary.iterations,
            a.summary.edges.len(),
            a.summary.must_first_words_rw,
            a.summary.must_first_words_w,
            if a.violations.is_empty() {
                "static ⊇ dynamic".to_owned()
            } else {
                failed = true;
                format!("{} violation(s)", a.violations.len())
            }
        );
        for v in &a.violations {
            println!("    {v}");
        }
        analyzed.push(a);
    }

    if let Some(path) = json_path {
        if analyzed.len() != benches.len() {
            eprintln!("error: refusing to write {path}: incomplete analysis");
            return ExitCode::FAILURE;
        }
        let json = static_json(&benches, &analyzed);
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("static baseline written to {path}");
    }

    if failed {
        eprintln!("alter-absint: cross-validation failed");
        return ExitCode::FAILURE;
    }
    println!("alter-absint: every spec covers its replay");
    ExitCode::SUCCESS
}
