//! Deterministic record/replay CLI: packages a workload run as a trace
//! journal, re-executes journals and bisects any divergence to the exact
//! round and event, diffs two journals against each other, and renders the
//! deterministic phase profile — including the committed `PROFILE.json`
//! baseline that CI keeps under a drift check.
//!
//! ```text
//! cargo run -p alter-bench --bin alter-replay -- <command> [args]
//! ```
//!
//! Because engine traces are pure functions of program + annotation, a
//! journal recorded on one machine replays byte-identically on any other;
//! `replay` is therefore a determinism *gate*, not a best-effort check.
//! When the fresh stream forks from the recorded one, the driver does not
//! dump both streams: it binary-searches the round boundaries by cumulative
//! trace-hash prefix and prints a structured diff of the single first
//! divergent event (expected vs. actual payload, access-set delta when the
//! run recorded task sets, and the trace-hash prefix at the fork).

use alter_infer::{Model, Probe};
use alter_runtime::replay::{diverge_bisect, ReplayOutcome};
use alter_trace::{
    format_hash, trace_hash, Event, Journal, JournalHeader, Phase, Profile, Recorder, RingRecorder,
};
use alter_workloads::{all_benchmarks, find_benchmark, Benchmark, Scale};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
usage: alter-replay <command> [args]

commands:
  record <workload> [annotation] [flags]
      run the workload with a recorder attached and write a replayable
      trace journal (header line + canonical JSONL event stream)
        --out FILE   journal file (default <workload>.journal)
        --workers N  worker count (default 4)
        --sets       record per-task access sets (task_sets events)
        --profile    record per-round phase_profile cost-unit events
  replay <journal>
      re-execute the journal's workload under its recorded configuration
      and verify the fresh event stream is byte-identical; on mismatch,
      bisect to the first divergent round/event and print a structured
      diff (exit 1)
  diff <journal-a> <journal-b>
      bisect two journals against each other (exit 1 when they fork)
  profile <workload|all> [annotation] [flags]
      run with the deterministic phase profiler enabled and print the
      sorted per-phase hotspot table
        --workers N  worker count (default 4)
        --folded     print folded-stack lines (flamegraph input) instead
        --json FILE  write the per-workload profile report as JSON
                     (`all` at the default 4 workers is the committed
                     PROFILE.json baseline)

  annotation: tls | outoforder | stalereads | doall | best  (default best)";

/// Builds the probe a (workload, annotation token, workers) triple names.
/// The token is stored verbatim in journal headers, so this is the one
/// place that defines how a recorded configuration is reconstructed.
fn probe_for(bench: &dyn Benchmark, annotation: &str, workers: usize) -> Option<Probe> {
    if annotation.eq_ignore_ascii_case("best") {
        Some(bench.best_probe(workers))
    } else {
        let model = Model::parse_token(annotation)?;
        Some(Probe::new(model, workers, bench.chunk_factor()))
    }
}

/// Runs `probe` with a fresh ring recorder and returns the captured events
/// plus the run verdict.
fn record_events(bench: &dyn Benchmark, probe: &Probe) -> (Vec<Event>, Result<(), String>) {
    let rec = Arc::new(RingRecorder::default());
    let mut probe = probe.clone();
    probe.recorder = Some(rec.clone() as Arc<dyn Recorder>);
    let verdict = match bench.run_probe(&probe) {
        Ok(_) => Ok(()),
        Err(e) => Err(e.to_string()),
    };
    if rec.dropped() > 0 {
        eprintln!(
            "warning: ring capacity exceeded, {} oldest event(s) dropped — journal would be unreplayable",
            rec.dropped()
        );
    }
    (rec.events(), verdict)
}

struct RecordArgs {
    workload: String,
    annotation: String,
    out: Option<String>,
    workers: usize,
    sets: bool,
    profile: bool,
}

/// Shared positional/flag parser for `record` and `profile`.
fn parse_run_args(args: &[String]) -> Result<(RecordArgs, bool, Option<String>), String> {
    let mut workload = None;
    let mut annotation = None;
    let mut out = None;
    let mut workers = 4usize;
    let mut sets = false;
    let mut profile = false;
    let mut folded = false;
    let mut json = None;
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
            "--out" | "--json" => {
                let v = it.next().ok_or(format!("{a} needs a file path"))?.clone();
                if a == "--out" {
                    out = Some(v);
                } else {
                    json = Some(v);
                }
            }
            "--sets" => sets = true,
            "--profile" => profile = true,
            "--folded" => folded = true,
            _ if a.starts_with("--") => return Err(format!("unknown flag {a}")),
            _ if workload.is_none() => workload = Some(a.clone()),
            _ if annotation.is_none() => annotation = Some(a.clone()),
            _ => return Err(format!("unexpected argument {a}")),
        }
    }
    let workload = workload.ok_or("no workload given")?;
    Ok((
        RecordArgs {
            workload,
            annotation: annotation
                .unwrap_or_else(|| "best".to_owned())
                .to_ascii_lowercase(),
            out,
            workers,
            sets,
            profile,
        },
        folded,
        json,
    ))
}

fn cmd_record(args: &[String]) -> Result<(), String> {
    let (a, _, _) = parse_run_args(args)?;
    let bench = find_benchmark(&a.workload).ok_or(format!("unknown workload `{}`", a.workload))?;
    let mut probe = probe_for(bench.as_ref(), &a.annotation, a.workers)
        .ok_or(format!("unknown annotation `{}`", a.annotation))?;
    probe.record_sets = a.sets;
    probe.profile_phases = a.profile;

    let (events, verdict) = record_events(bench.as_ref(), &probe);
    if let Err(e) = &verdict {
        // Aborted runs still journal (the abort event is terminal), but say so.
        eprintln!("note: recorded run aborted ({e}); journaling the abort trace");
    }
    let header = JournalHeader {
        workload: bench.name().to_owned(),
        annotation: a.annotation.clone(),
        workers: a.workers as u32,
        record_sets: a.sets,
        profile_phases: a.profile,
        trace_hash: 0, // recomputed by Journal::new
    };
    let journal = Journal::new(header, events)?;
    let path = a
        .out
        .unwrap_or_else(|| format!("{}.journal", journal.header().workload));
    std::fs::write(&path, journal.to_jsonl()).map_err(|e| format!("writing {path}: {e}"))?;
    println!(
        "recorded {} under [{}], {} worker(s): {} event(s), {} round(s), trace hash {}",
        journal.header().workload,
        probe.describe(),
        a.workers,
        journal.events().len(),
        journal.round_count(),
        format_hash(journal.header().trace_hash)
    );
    println!("journal written to {path}");
    Ok(())
}

/// Re-executes a journal's run and bisects the fresh stream against it.
/// `Ok(None)` means identical; `Ok(Some(diff))` is the rendered divergence.
fn replay_journal(journal: &Journal) -> Result<Option<String>, String> {
    let h = journal.header();
    let bench = find_benchmark(&h.workload).ok_or(format!(
        "journal names unknown workload `{}` (registry changed?)",
        h.workload
    ))?;
    let mut probe = probe_for(bench.as_ref(), &h.annotation, h.workers as usize).ok_or(format!(
        "journal carries unknown annotation `{}`",
        h.annotation
    ))?;
    probe.record_sets = h.record_sets;
    probe.profile_phases = h.profile_phases;
    let (events, _) = record_events(bench.as_ref(), &probe);
    match diverge_bisect(journal.events(), &events) {
        ReplayOutcome::Identical { events, hash } => {
            println!(
                "replay identical: {} under [{}], {} event(s), trace hash {}",
                h.workload,
                h.annotation,
                events,
                format_hash(hash)
            );
            Ok(None)
        }
        ReplayOutcome::Diverged(d) => Ok(Some(d.render())),
    }
}

fn load_journal(path: &str) -> Result<Journal, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Journal::from_jsonl(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_replay(args: &[String]) -> Result<bool, String> {
    let [path] = args else {
        return Err("replay takes exactly one journal file".into());
    };
    let journal = load_journal(path)?;
    match replay_journal(&journal)? {
        None => Ok(true),
        Some(diff) => {
            print!("{diff}");
            Ok(false)
        }
    }
}

fn cmd_diff(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("diff takes exactly two journal files".into());
    };
    let ja = load_journal(a)?;
    let jb = load_journal(b)?;
    match diverge_bisect(ja.events(), jb.events()) {
        ReplayOutcome::Identical { events, hash } => {
            println!(
                "journals identical: {} event(s), trace hash {}",
                events,
                format_hash(hash)
            );
            Ok(true)
        }
        ReplayOutcome::Diverged(d) => {
            print!("{}", d.render());
            Ok(false)
        }
    }
}

/// One workload's phase profile plus the run's trace hash (profiled stream).
struct ProfiledRun {
    name: String,
    annotation: String,
    profile: Profile,
    hash: u64,
}

fn profile_run(
    bench: &dyn Benchmark,
    annotation: &str,
    workers: usize,
) -> Result<ProfiledRun, String> {
    let mut probe = probe_for(bench, annotation, workers)
        .ok_or(format!("unknown annotation `{annotation}`"))?;
    probe.profile_phases = true;
    let (events, verdict) = record_events(bench, &probe);
    if let Err(e) = verdict {
        eprintln!(
            "note: {} aborted ({e}); profiling the partial run",
            bench.name()
        );
    }
    Ok(ProfiledRun {
        name: bench.name().to_owned(),
        annotation: annotation.to_owned(),
        profile: Profile::from_events(&events),
        hash: trace_hash(&events),
    })
}

/// Renders the deterministic `PROFILE.json` document: schema tag, worker
/// count, and one object per workload in Table 2 row order with per-phase
/// cost-unit totals. Pure cost units — wall-clock never appears here, which
/// is what makes the file safe to drift-check in CI.
fn profile_json(workers: usize, runs: &[ProfiledRun]) -> String {
    let mut s = String::new();
    s.push_str("{\n\"schema\": \"alter-profile-v1\",\n");
    let _ = writeln!(s, "\"workers\": {workers},");
    s.push_str("\"workloads\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let _ = write!(
            s,
            "{{\"name\": \"{}\", \"annotation\": \"{}\", \"trace_hash\": \"{}\", \"rounds\": {}, \"total_cost\": {}",
            r.name,
            r.annotation,
            format_hash(r.hash),
            r.profile.rounds(),
            r.profile.total()
        );
        for phase in Phase::ALL {
            let _ = write!(s, ", \"{}\": {}", phase.as_str(), r.profile.cost(phase));
        }
        s.push_str(if i + 1 < runs.len() { "},\n" } else { "}\n" });
    }
    s.push_str("]\n}\n");
    s
}

fn cmd_profile(args: &[String]) -> Result<(), String> {
    let (a, folded, json) = parse_run_args(args)?;
    let workers = a.workers;
    let runs: Vec<ProfiledRun> = if a.workload.eq_ignore_ascii_case("all") {
        all_benchmarks(Scale::Inference)
            .iter()
            .map(|b| profile_run(b.as_ref(), &a.annotation, workers))
            .collect::<Result<_, _>>()?
    } else {
        let bench =
            find_benchmark(&a.workload).ok_or(format!("unknown workload `{}`", a.workload))?;
        vec![profile_run(bench.as_ref(), &a.annotation, workers)?]
    };

    for r in &runs {
        if folded {
            print!("{}", r.profile.folded(&r.name));
        } else {
            let label = format!("{} [{}] {} worker(s)", r.name, r.annotation, workers);
            print!("{}", r.profile.render(&label));
            println!("  trace hash: {}", format_hash(r.hash));
        }
    }
    if let Some(path) = json {
        std::fs::write(&path, profile_json(workers, &runs))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("profile report written to {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let (cmd, rest) = (args[0].as_str(), &args[1..]);
    let outcome = match cmd {
        "record" => cmd_record(rest).map(|()| true),
        "replay" => cmd_replay(rest),
        "diff" => cmd_diff(rest),
        "profile" => cmd_profile(rest).map(|()| true),
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
