//! DPOR schedule-space model checker CLI: records a workload (or loads a
//! `--sets` journal) and verifies its annotation stays sound under every
//! DPOR-representative commit order — including the committed
//! `CHECK.json` baseline that CI keeps under a drift check.
//!
//! ```text
//! cargo run -p alter-bench --bin alter-check -- <command> [args]
//! ```
//!
//! A recorded journal certifies one schedule; `alter-check` quantifies
//! over the schedule *space*: per round it enumerates the alternative
//! commit orders the ticket sequencer could legally have produced, prunes
//! Mazurkiewicz-equivalent ones by access-set commutativity
//! ([`alter_analyze::check`]), and re-runs the isolation sanitizer as the
//! per-schedule oracle. When a schedule is unsound the checker does not
//! just say so: it emits the bisected [`Divergence`] counterexample and,
//! with `--cex`, a pair of standalone journals that `alter-replay diff`
//! renders — machine-checked, replayable evidence.

use alter_analyze::{check_events, CheckConfig, CheckReport, DEFAULT_SCHEDULE_BUDGET};
use alter_infer::{Model, Probe};
use alter_trace::{Event, Journal, JournalHeader, Recorder, RingRecorder};
use alter_workloads::{all_benchmarks, find_benchmark, Benchmark, Scale};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
usage: alter-check <command> [args]

commands:
  check <workload|all> [annotation] [flags]
      run the workload with task-set recording and model-check every
      DPOR-representative commit order per round (exit 1 when any
      schedule is unsound)
        --workers N        worker count (default 4)
        --max-schedules N  per-round representative budget (default 256)
        --json FILE        write the check report as JSON (`all` at the
                           defaults is the committed CHECK.json baseline)
        --cex PREFIX       on unsoundness, write the first counterexample
                           as PREFIX-expected.journal / PREFIX-actual.journal
                           for `alter-replay diff`
  journal <file> [flags]
      model-check an existing trace journal; it must have been recorded
      with `alter-replay record --sets`
        --max-schedules N, --cex PREFIX as above

  annotation: tls | outoforder | stalereads | doall | best  (default best)";

/// Builds the probe a (workload, annotation token, workers) triple names —
/// the same token grammar `alter-replay` stores in journal headers.
fn probe_for(bench: &dyn Benchmark, annotation: &str, workers: usize) -> Option<Probe> {
    if annotation.eq_ignore_ascii_case("best") {
        Some(bench.best_probe(workers))
    } else {
        let model = Model::parse_token(annotation)?;
        Some(Probe::new(model, workers, bench.chunk_factor()))
    }
}

/// The schedule-space config an annotation token names: the conflict
/// policy and commit order its execution model validates under.
fn config_for(annotation: &str, bench: &dyn Benchmark, max_schedules: u64) -> Option<CheckConfig> {
    let model = if annotation.eq_ignore_ascii_case("best") {
        bench.best_probe(1).model
    } else {
        Model::parse_token(annotation)?
    };
    let p = model.exec_params(1, 1);
    Some(CheckConfig {
        conflict: p.conflict,
        order: p.order,
        max_schedules_per_round: max_schedules,
    })
}

/// Runs `probe` with task-set recording and returns the captured events.
fn record_events(bench: &dyn Benchmark, probe: &Probe) -> Vec<Event> {
    let rec = Arc::new(RingRecorder::default());
    let mut probe = probe.clone();
    probe.record_sets = true;
    probe.recorder = Some(rec.clone() as Arc<dyn Recorder>);
    if let Err(e) = bench.run_probe(&probe) {
        // Aborted runs still leave a checkable (truncated) stream.
        eprintln!(
            "note: {} aborted ({e}); checking the partial trace",
            bench.name()
        );
    }
    if rec.dropped() > 0 {
        eprintln!(
            "warning: ring capacity exceeded, {} oldest event(s) dropped — early rounds unchecked",
            rec.dropped()
        );
    }
    rec.events()
}

/// One workload's check outcome.
struct CheckedRun {
    name: String,
    annotation: String,
    workers: usize,
    report: CheckReport,
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
/// so `alter-replay diff` bisects and renders the divergence.
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
    println!("render it with: alter-replay diff {prefix}-expected.journal {prefix}-actual.journal");
    Ok(())
}

/// Renders the deterministic `CHECK.json` document: schema tag, the check
/// geometry, and one row per workload in Table 2 order with the explored /
/// pruned / flagged counters and the soundness verdict. Everything here is
/// a deterministic count — no wall-clock — so the file drift-checks in CI.
fn check_json(workers: usize, max_schedules: u64, runs: &[CheckedRun]) -> String {
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

struct CheckArgs {
    target: String,
    annotation: String,
    workers: usize,
    max_schedules: u64,
    json: Option<String>,
    cex: Option<String>,
}

fn parse_check_args(args: &[String]) -> Result<CheckArgs, String> {
    let mut target = None;
    let mut annotation = None;
    let mut workers = 4usize;
    let mut max_schedules = DEFAULT_SCHEDULE_BUDGET;
    let mut json = None;
    let mut cex = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workers" => {
                workers = it
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .ok_or("--workers needs a positive integer")?
                    .max(1);
            }
            "--max-schedules" => {
                max_schedules = it
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .ok_or("--max-schedules needs a positive integer")?
                    .max(1);
            }
            "--json" => json = Some(it.next().ok_or("--json needs a file path")?.clone()),
            "--cex" => cex = Some(it.next().ok_or("--cex needs a path prefix")?.clone()),
            _ if a.starts_with("--") => return Err(format!("unknown flag {a}")),
            _ if target.is_none() => target = Some(a.clone()),
            _ if annotation.is_none() => annotation = Some(a.clone()),
            _ => return Err(format!("unexpected argument {a}")),
        }
    }
    Ok(CheckArgs {
        target: target.ok_or("no workload or journal given")?,
        annotation: annotation
            .unwrap_or_else(|| "best".to_owned())
            .to_ascii_lowercase(),
        workers,
        max_schedules,
        json,
        cex,
    })
}

fn check_workload(
    bench: &dyn Benchmark,
    annotation: &str,
    workers: usize,
    max_schedules: u64,
) -> Result<CheckedRun, String> {
    let probe = probe_for(bench, annotation, workers)
        .ok_or(format!("unknown annotation `{annotation}`"))?;
    let cfg = config_for(annotation, bench, max_schedules)
        .ok_or(format!("unknown annotation `{annotation}`"))?;
    let events = record_events(bench, &probe);
    let report = check_events(&events, &cfg)?;
    Ok(CheckedRun {
        name: bench.name().to_owned(),
        annotation: annotation.to_owned(),
        workers,
        report,
    })
}

fn cmd_check(args: &[String]) -> Result<bool, String> {
    let a = parse_check_args(args)?;
    let runs: Vec<CheckedRun> = if a.target.eq_ignore_ascii_case("all") {
        all_benchmarks(Scale::Inference)
            .iter()
            .map(|b| check_workload(b.as_ref(), &a.annotation, a.workers, a.max_schedules))
            .collect::<Result<_, _>>()?
    } else {
        let bench = find_benchmark(&a.target).ok_or(format!("unknown workload `{}`", a.target))?;
        vec![check_workload(
            bench.as_ref(),
            &a.annotation,
            a.workers,
            a.max_schedules,
        )?]
    };
    finish(&runs, a.workers, a.max_schedules, &a)
}

fn cmd_journal(args: &[String]) -> Result<bool, String> {
    let a = parse_check_args(args)?;
    let text =
        std::fs::read_to_string(&a.target).map_err(|e| format!("reading {}: {e}", a.target))?;
    let journal = Journal::from_jsonl(&text).map_err(|e| format!("{}: {e}", a.target))?;
    let h = journal.header();
    if !h.record_sets {
        return Err(format!(
            "{}: journal was recorded without task_sets payloads: re-record with --sets",
            a.target
        ));
    }
    let bench = find_benchmark(&h.workload).ok_or(format!(
        "journal names unknown workload `{}` (registry changed?)",
        h.workload
    ))?;
    let cfg = config_for(&h.annotation, bench.as_ref(), a.max_schedules).ok_or(format!(
        "journal carries unknown annotation `{}`",
        h.annotation
    ))?;
    let report = check_events(journal.events(), &cfg)?;
    let runs = vec![CheckedRun {
        name: h.workload.clone(),
        annotation: h.annotation.clone(),
        workers: h.workers as usize,
        report,
    }];
    finish(&runs, h.workers as usize, a.max_schedules, &a)
}

fn finish(
    runs: &[CheckedRun],
    workers: usize,
    max_schedules: u64,
    a: &CheckArgs,
) -> Result<bool, String> {
    for r in runs {
        print_summary(r);
        if let Some(u) = r.report.unsound.first() {
            print!("{}", u.divergence.render());
        }
    }
    if let Some(prefix) = &a.cex {
        if let Some(r) = runs.iter().find(|r| !r.report.sound()) {
            write_counterexample(r, prefix)?;
        }
    }
    if let Some(path) = &a.json {
        std::fs::write(path, check_json(workers, max_schedules, runs))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("check report written to {path}");
    }
    Ok(runs.iter().all(|r| r.report.sound()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let (cmd, rest) = (args[0].as_str(), &args[1..]);
    let outcome = match cmd {
        "check" => cmd_check(rest),
        "journal" => cmd_journal(rest),
        _ => Err(format!("unknown command `{cmd}`\n{USAGE}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
