//! `lint`, `absint` and `check`: the sanitizer, the abstract interpreter
//! and the DPOR model checker, plus the writers of the baselines they
//! produce (`ANALYSIS.json`, `STATIC.json`, `CHECK.json`).
//!
//! * `lint` records each workload's best-configuration trace with the
//!   opt-in `task_sets` payloads and replays it through the isolation
//!   sanitizer, re-deriving every validate/commit verdict from the
//!   recorded read/write sets. An aborting run (AggloClust's RAW-tracking
//!   models, say) is fine — the sanitizer audits the prefix.
//! * `absint` interprets each declared [`LoopSpec`] under the interval ×
//!   stride domain and proves `static ⊇ dynamic` against the replay,
//!   per location and per edge.
//! * `check` quantifies over the schedule *space*: per round it
//!   enumerates the commit orders the ticket sequencer could legally have
//!   produced, prunes Mazurkiewicz-equivalent ones by access-set
//!   commutativity ([`alter_analyze::check`]) and re-runs the sanitizer
//!   as the per-schedule oracle. An unsound schedule comes with the
//!   bisected divergence and, with `--cex`, a pair of standalone journals
//!   `diff` renders.
//!
//! The baselines are pure functions of the workloads (deterministic
//! counts, no wall-clock), so they are committed and drift-checked.

use crate::replay::{journal_probe, load_journal};
use crate::{analyze_config, probe_for, record_run, select, Args};
use alter_analyze::absint::{cross_validate, interpret, static_verdict, LoopSpec, StaticSummary};
use alter_analyze::{
    check_events, lint as lint_summary, predict, sanitize, CheckConfig, CheckReport, LintTarget,
    SanitizeConfig, DEFAULT_SCHEDULE_BUDGET,
};
use alter_infer::{InferConfig, Model, Probe};
use alter_runtime::{Annotation, DepKind};
use alter_trace::{Journal, JournalHeader};
use alter_workloads::Benchmark;
use std::collections::BTreeMap;
use std::fmt::Write as _;

pub fn lint(a: &Args) -> Result<bool, String> {
    let clean = sanitize_all(&select(a.pos.first())?, a.workers())?;
    if clean {
        println!("lint: all traces clean");
    } else {
        eprintln!("lint: isolation violations found");
    }
    Ok(clean)
}

/// Sanitizes each workload's canonical trace, printing one line per
/// workload; `Ok(true)` when every trace is clean.
pub fn sanitize_all(benches: &[Box<dyn Benchmark>], workers: usize) -> Result<bool, String> {
    let mut clean = true;
    for b in benches {
        let (events, messages) = lint_one(b.as_ref(), workers)?;
        clean &= messages.iter().all(|m| m.starts_with("probe aborted"));
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
    Ok(clean)
}

/// Records the workload's best-configuration trace with full set payloads
/// and replays it through the sanitizer. Returns the number of events
/// checked and the violations found.
fn lint_one(bench: &dyn Benchmark, workers: usize) -> Result<(usize, Vec<String>), String> {
    let mut probe = bench.best_probe(workers);
    probe.record_sets = true;
    let (events, run) = record_run(bench, &probe)?;
    let mut messages = Vec::new();
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
    Ok((events.len(), messages))
}

/// The classifier's verdict line for one workload at the inference
/// geometry, as committed to `ANALYSIS.json`.
fn analysis_entry(bench: &dyn Benchmark, icfg: &InferConfig) -> String {
    let summary = bench.probe_summary();
    let dep = summary.report();
    let acfg = analyze_config(bench, icfg);
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
    // diagnostics are available from the library (`alter_analyze::lint`).
    let diags = lint_summary(&summary, &target);
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
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

/// Renders `ANALYSIS.json`: stable key order, trailing newline.
pub fn analysis_json(benches: &[Box<dyn Benchmark>]) -> String {
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

pub fn absint(a: &Args) -> Result<bool, String> {
    let (_, covered) = cross_validate_all(&select(a.pos.first())?);
    if covered {
        println!("absint: every spec covers its replay");
    } else {
        eprintln!("absint: cross-validation failed");
    }
    Ok(covered)
}

/// One workload's spec, summary, and cross-validation violations.
pub struct Analyzed {
    name: String,
    spec: LoopSpec,
    summary: StaticSummary,
    violations: Vec<String>,
}

/// Interprets and cross-validates each workload's spec, printing one line
/// per workload; the flag is true when every workload declares a spec and
/// every spec covers its replay.
pub fn cross_validate_all(benches: &[Box<dyn Benchmark>]) -> (Vec<Analyzed>, bool) {
    let mut analyzed = Vec::new();
    let mut covered = true;
    for b in benches {
        let Some(spec) = b.loop_spec() else {
            eprintln!("{:<12} no LoopSpec declared", b.name());
            covered = false;
            continue;
        };
        let summary = interpret(&spec);
        let violations = cross_validate(&spec, &summary, &b.probe_summary());
        covered &= violations.is_empty();
        println!(
            "{:<12} {:>8} iters  {:>2} edges  must rw/w {:>6}/{:>6}  {}",
            b.name(),
            summary.iterations,
            summary.edges.len(),
            summary.must_first_words_rw,
            summary.must_first_words_w,
            if violations.is_empty() {
                "static ⊇ dynamic".to_owned()
            } else {
                format!("{} violation(s)", violations.len())
            }
        );
        for v in &violations {
            println!("    {v}");
        }
        analyzed.push(Analyzed {
            name: b.name().to_owned(),
            spec,
            summary,
            violations,
        });
    }
    (analyzed, covered)
}

fn edge_count(summary: &StaticSummary, kind: DepKind) -> usize {
    summary.edges.iter().filter(|e| e.kind == kind).count()
}

/// The `STATIC.json` entry for one workload: stable key order, verdicts
/// via `StaticVerdict::class()` at the inference geometry.
fn static_entry(bench: &dyn Benchmark, a: &Analyzed, icfg: &InferConfig) -> String {
    let acfg = analyze_config(bench, icfg);
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

/// Renders `STATIC.json` from a complete analysis (one entry per bench):
/// stable key order, trailing newline.
pub fn static_json(benches: &[Box<dyn Benchmark>], analyzed: &[Analyzed]) -> String {
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

/// One workload's check outcome.
pub struct CheckedRun {
    pub name: String,
    annotation: String,
    workers: usize,
    /// False when the recorded run aborted (a journal counts as complete).
    pub completed: bool,
    pub report: CheckReport,
}

/// The schedule space a probe's model validates under: its conflict
/// policy and commit order.
fn check_config(probe: &Probe, max_schedules: u64) -> CheckConfig {
    let p = probe.model.exec_params(probe.workers, probe.chunk);
    CheckConfig {
        max_schedules_per_round: max_schedules,
        ..CheckConfig::new(p.conflict, p.order)
    }
}

/// Records `bench` under `annotation` with task-set recording and
/// model-checks the stream. Aborted runs still leave a checkable
/// (truncated) stream.
pub fn check_workload(
    bench: &dyn Benchmark,
    annotation: &str,
    workers: usize,
    max_schedules: u64,
) -> Result<CheckedRun, String> {
    let mut probe = probe_for(bench, annotation, workers)?;
    probe.record_sets = true;
    let (events, run) = record_run(bench, &probe)?;
    if let Err(e) = &run {
        eprintln!(
            "note: {} aborted ({e}); checking the partial trace",
            bench.name()
        );
    }
    Ok(CheckedRun {
        name: bench.name().to_owned(),
        annotation: annotation.to_owned(),
        workers,
        completed: run.is_ok(),
        report: check_events(&events, &check_config(&probe, max_schedules))?,
    })
}

/// Model-checks a `--sets` journal under the configuration its header
/// records.
fn check_journal(path: &str, max_schedules: u64) -> Result<CheckedRun, String> {
    let journal = load_journal(path)?;
    let h = journal.header();
    if !h.record_sets {
        return Err(format!(
            "{path}: journal was recorded without task_sets payloads: re-record with --sets"
        ));
    }
    let (_, probe) = journal_probe(h)?;
    Ok(CheckedRun {
        name: h.workload.clone(),
        annotation: h.annotation.clone(),
        workers: h.workers as usize,
        completed: true,
        report: check_events(journal.events(), &check_config(&probe, max_schedules))?,
    })
}

pub fn check(a: &Args) -> Result<bool, String> {
    let max_schedules = a
        .number("--max-schedules")
        .map_or(DEFAULT_SCHEDULE_BUDGET, |n| n as u64);
    let runs = match a.value("--journal") {
        Some(path) => {
            if !a.pos.is_empty() || a.has("--workers") {
                return Err(
                    "check --journal takes no workload, annotation or --workers: \
                     the journal header records them"
                        .into(),
                );
            }
            vec![check_journal(path, max_schedules)?]
        }
        None => {
            let target = a.pos.first().ok_or(
                "usage: alter-cli check <workload|all> [annotation] | check --journal FILE",
            )?;
            select(Some(target))?
                .iter()
                .map(|b| check_workload(b.as_ref(), &a.annotation(), a.workers(), max_schedules))
                .collect::<Result<_, _>>()?
        }
    };
    for r in &runs {
        print_summary(r);
        if let Some(u) = r.report.unsound.first() {
            print!("{}", u.divergence.render());
        }
    }
    if let Some(prefix) = a.value("--cex") {
        if let Some(r) = runs.iter().find(|r| !r.report.sound()) {
            write_counterexample(r, prefix)?;
        }
    }
    Ok(runs.iter().all(|r| r.report.sound()))
}

fn print_summary(r: &CheckedRun) {
    let rep = &r.report;
    println!(
        "{} [{}] {} worker(s): {} round(s), {} task(s) — {} naive schedule(s), {} explored, {} pruned, {} reordering(s) flagged{} — {}",
        r.name,
        r.annotation,
        r.workers,
        rep.rounds,
        rep.tasks,
        rep.naive_schedules,
        rep.explored,
        rep.pruned(),
        rep.flagged,
        if rep.budget_hits > 0 {
            format!(" ({} round(s) hit the budget)", rep.budget_hits)
        } else {
            String::new()
        },
        if rep.sound() { "SOUND" } else { "UNSOUND" }
    );
    for u in &rep.unsound {
        println!("  round {}: {}", u.round, u.divergence.render_oneline());
    }
}

/// Packages a counterexample's synthesized streams as standalone journals
/// so `diff` bisects and renders the divergence.
fn write_counterexample(r: &CheckedRun, prefix: &str) -> Result<(), String> {
    let Some(u) = r.report.unsound.first() else {
        return Ok(());
    };
    for (side, events) in [("expected", &u.expected), ("actual", &u.actual)] {
        let header = JournalHeader {
            workload: r.name.clone(),
            annotation: r.annotation.clone(),
            workers: r.workers as u32,
            record_sets: true,
            profile_phases: false,
            trace_hash: 0, // recomputed by Journal::new
        };
        let journal = Journal::new(header, events.clone())?;
        let path = format!("{prefix}-{side}.journal");
        std::fs::write(&path, journal.to_jsonl()).map_err(|e| format!("writing {path}: {e}"))?;
        println!(
            "counterexample ({side} stream, round {}) written to {path}",
            u.round
        );
    }
    println!("render it with: alter-cli diff {prefix}-expected.journal {prefix}-actual.journal");
    Ok(())
}

/// Renders `CHECK.json`: schema tag, the check geometry, and one row per
/// workload in Table 2 order with the explored / pruned / flagged
/// counters and the soundness verdict.
pub fn check_json(workers: usize, max_schedules: u64, runs: &[CheckedRun]) -> String {
    let mut s = String::new();
    s.push_str("{\n\"schema\": \"alter-check-v1\",\n");
    let _ = writeln!(s, "\"workers\": {workers},");
    let _ = writeln!(s, "\"max_schedules_per_round\": {max_schedules},");
    s.push_str("\"workloads\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let rep = &r.report;
        let _ = write!(
            s,
            "{{\"name\": \"{}\", \"annotation\": \"{}\", \"rounds\": {}, \"tasks\": {}, \"naive_schedules\": {}, \"explored\": {}, \"pruned\": {}, \"flagged\": {}, \"budget_hits\": {}, \"sound\": {}",
            r.name,
            r.annotation,
            rep.rounds,
            rep.tasks,
            rep.naive_schedules,
            rep.explored,
            rep.pruned(),
            rep.flagged,
            rep.budget_hits,
            rep.sound()
        );
        s.push_str(if i + 1 < runs.len() { "},\n" } else { "}\n" });
    }
    s.push_str("]\n}\n");
    s
}
