//! `lint`, `absint` and `check`: the sanitizer, the abstract interpreter
//! and the DPOR model checker.
//!
//! * `lint` records each workload's best-configuration trace with the
//!   opt-in `task_sets` payloads and replays it through the isolation
//!   sanitizer, re-deriving every validate/commit verdict from the
//!   recorded read/write sets. An aborting run (AggloClust's RAW-tracking
//!   models, say) is fine — the sanitizer audits the prefix.
//! * `absint` interprets each declared `LoopSpec` under the interval ×
//!   stride domain and proves `static ⊇ dynamic` against the replay,
//!   per location and per edge.
//! * `check` quantifies over the schedule *space*: per round it
//!   enumerates the commit orders the ticket sequencer could legally have
//!   produced, prunes Mazurkiewicz-equivalent ones by access-set
//!   commutativity ([`alter_analyze::check`]) and audits each against the
//!   sanitizer's verdict oracle. An unsound schedule comes with its
//!   divergence and, with `--cex`, a pair of standalone journals `diff`
//!   renders.

use crate::replay::{journal_probe, load_journal};
use crate::{probe_for, record_run, select, Args};
use alter_analyze::absint::{cross_validate, interpret};
use alter_analyze::{check_events, sanitize, CheckReport, DEFAULT_SCHEDULE_BUDGET};
use alter_trace::{Journal, JournalHeader};
use alter_workloads::Benchmark;

pub fn lint(a: &Args) -> Result<bool, String> {
    let mut clean = true;
    for b in select(a.pos.first())? {
        let mut probe = b.best_probe(a.workers());
        probe.record_sets = true;
        let (events, run) = record_run(b.as_ref(), &probe)?;
        let params = probe.model.exec_params(probe.workers, probe.chunk);
        let mut messages: Vec<String> = sanitize(&events, &params)
            .iter()
            .map(ToString::to_string)
            .collect();
        clean &= messages.is_empty();
        if let Err(e) = run {
            messages.insert(0, format!("probe aborted ({e}); auditing the trace prefix"));
        }
        let status = if messages.is_empty() {
            "clean".to_owned()
        } else {
            format!("{} issue(s)", messages.len())
        };
        println!("{:<12} {:>6} events  {}", b.name(), events.len(), status);
        for m in &messages {
            println!("    {m}");
        }
    }
    if clean {
        println!("lint: all traces clean");
    } else {
        eprintln!("lint: isolation violations found");
    }
    Ok(clean)
}

/// Interprets and cross-validates each workload's spec, printing one line
/// per workload; exit 1 unless every workload declares a spec and every
/// spec covers its replay.
pub fn absint(a: &Args) -> Result<bool, String> {
    let mut covered = true;
    for b in select(a.pos.first())? {
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
    }
    if covered {
        println!("absint: every spec covers its replay");
    } else {
        eprintln!("absint: cross-validation failed");
    }
    Ok(covered)
}

/// One workload's check outcome.
struct CheckedRun {
    name: String,
    annotation: String,
    workers: usize,
    report: CheckReport,
}

/// Records `bench` under `annotation` with task-set recording and
/// model-checks the stream. Aborted runs still leave a checkable
/// (truncated) stream.
fn check_workload(
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
    let params = probe.model.exec_params(probe.workers, probe.chunk);
    Ok(CheckedRun {
        name: bench.name().to_owned(),
        annotation: annotation.to_owned(),
        workers,
        report: check_events(&events, &params, max_schedules)?,
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
    let params = probe.model.exec_params(probe.workers, probe.chunk);
    Ok(CheckedRun {
        name: h.workload.clone(),
        annotation: h.annotation.clone(),
        workers: h.workers as usize,
        report: check_events(journal.events(), &params, max_schedules)?,
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
/// so `diff` finds and renders the divergence.
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
