//! `record`, `replay`, `diff` and `profile`: trace journals and the
//! deterministic phase profile.
//!
//! Because engine traces are pure functions of program + annotation, a
//! journal recorded on one machine replays byte-identically on any other;
//! `replay` is therefore a determinism *gate*, not a best-effort check.
//! When the fresh stream forks from the recorded one, the driver does not
//! dump both streams: it binary-searches the round boundaries by
//! cumulative trace-hash prefix and prints a structured diff of the single
//! first divergent event (expected vs. actual payload, access-set delta
//! when the run recorded task sets, and the trace-hash prefix at the fork).

use crate::{find, probe_for, record_run, select, Args};
use alter_infer::Probe;
use alter_runtime::replay::{diverge_bisect, ReplayOutcome};
use alter_trace::{format_hash, trace_hash, Event, Journal, JournalHeader, Profile};
use alter_workloads::Benchmark;

pub fn record(a: &Args) -> Result<(), String> {
    let bench = find(&a.pos[0])?;
    let annotation = a.annotation();
    let mut probe = probe_for(bench.as_ref(), &annotation, a.workers())?;
    probe.record_sets = a.has("--sets");
    probe.profile_phases = a.has("--profile");

    let (events, run) = record_run(bench.as_ref(), &probe)?;
    if let Err(e) = &run {
        // Aborted runs still journal (the abort event is terminal), but say so.
        eprintln!("note: recorded run aborted ({e}); journaling the abort trace");
    }
    let header = JournalHeader {
        workload: bench.name().to_owned(),
        annotation,
        workers: probe.workers as u32,
        record_sets: probe.record_sets,
        profile_phases: probe.profile_phases,
        trace_hash: 0, // recomputed by Journal::new
    };
    let journal = Journal::new(header, events)?;
    let path = a.value("--out").map_or_else(
        || format!("{}.journal", journal.header().workload),
        str::to_owned,
    );
    std::fs::write(&path, journal.to_jsonl()).map_err(|e| format!("writing {path}: {e}"))?;
    println!(
        "recorded {} under [{}], {} worker(s): {} event(s), {} round(s), trace hash {}",
        journal.header().workload,
        probe.describe(),
        probe.workers,
        journal.events().len(),
        journal.round_count(),
        format_hash(journal.header().trace_hash)
    );
    println!("journal written to {path}");
    Ok(())
}

pub fn load_journal(path: &str) -> Result<Journal, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Journal::from_jsonl(&text).map_err(|e| format!("{path}: {e}"))
}

/// The workload a journal header names and the probe that reproduces its
/// recorded configuration.
pub fn journal_probe(h: &JournalHeader) -> Result<(Box<dyn Benchmark>, Probe), String> {
    let bench = find(&h.workload).map_err(|_| {
        format!(
            "journal names unknown workload `{}` (registry changed?)",
            h.workload
        )
    })?;
    let mut probe = probe_for(bench.as_ref(), &h.annotation, h.workers as usize)
        .map_err(|e| format!("journal carries {e}"))?;
    probe.record_sets = h.record_sets;
    probe.profile_phases = h.profile_phases;
    Ok((bench, probe))
}

/// Re-executes a journal's run and bisects the fresh stream against it.
pub fn replay(path: &str) -> Result<bool, String> {
    let journal = load_journal(path)?;
    let h = journal.header();
    let (bench, probe) = journal_probe(h)?;
    let (events, _) = record_run(bench.as_ref(), &probe)?;
    let what = format!("replay identical: {} under [{}]", h.workload, h.annotation);
    Ok(print_bisection(journal.events(), &events, &what))
}

pub fn diff(a: &str, b: &str) -> Result<bool, String> {
    let (ja, jb) = (load_journal(a)?, load_journal(b)?);
    Ok(print_bisection(
        ja.events(),
        jb.events(),
        "journals identical",
    ))
}

/// Bisects `actual` against `expected` and prints the verdict: `identical`
/// heads the line for equal streams, a divergence prints its rendered
/// diff. True when the streams are identical.
fn print_bisection(expected: &[Event], actual: &[Event], identical: &str) -> bool {
    match diverge_bisect(expected, actual) {
        ReplayOutcome::Identical { events, hash } => {
            println!(
                "{identical}, {events} event(s), trace hash {}",
                format_hash(hash)
            );
            true
        }
        ReplayOutcome::Diverged(d) => {
            print!("{}", d.render());
            false
        }
    }
}

pub fn profile(a: &Args) -> Result<(), String> {
    let workers = a.workers();
    for b in select(a.pos.first())? {
        let mut probe = probe_for(b.as_ref(), &a.annotation(), workers)?;
        probe.profile_phases = true;
        let (events, run) = record_run(b.as_ref(), &probe)?;
        if let Err(e) = run {
            eprintln!(
                "note: {} aborted ({e}); profiling the partial run",
                b.name()
            );
        }
        let profile = Profile::from_events(&events);
        if a.has("--folded") {
            print!("{}", profile.folded(b.name()));
        } else {
            let label = format!("{} [{}] {} worker(s)", b.name(), a.annotation(), workers);
            print!("{}", profile.render(&label));
            println!("  trace hash: {}", format_hash(trace_hash(&events)));
        }
    }
    Ok(())
}
