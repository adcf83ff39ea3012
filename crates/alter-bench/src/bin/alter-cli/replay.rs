//! `record`, `replay`, `diff` and `profile`: trace journals and the
//! phase ledger.
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
use alter_runtime::{PhaseCosts, RunStats};
use alter_trace::{format_hash, trace_hash, Event, Journal, JournalHeader, Phase};
use alter_workloads::Benchmark;
use std::cmp::Reverse;
use std::fmt::Write as _;

pub fn record(a: &Args) -> Result<(), String> {
    let bench = find(&a.pos[0])?;
    let annotation = a.annotation();
    let mut probe = probe_for(bench.as_ref(), &annotation, a.workers())?;
    probe.record_sets = a.has("--sets");

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

/// `profile`: each selected workload's phase ledger
/// ([`RunStats::phase_costs`]) as a hotspot table, or as folded-stack
/// lines with `--folded`. A run that aborts has no ledger; its note goes
/// to stderr and the next workload follows.
pub fn profile(a: &Args) -> Result<(), String> {
    let workers = a.workers();
    for b in select(a.pos.first())? {
        let probe = probe_for(b.as_ref(), &a.annotation(), workers)?;
        let (events, run) = record_run(b.as_ref(), &probe)?;
        let stats = match run {
            Ok(run) => run.stats,
            Err(e) => {
                eprintln!("note: {} aborted ({e}); no phase ledger", b.name());
                continue;
            }
        };
        if a.has("--folded") {
            print!("{}", folded(b.name(), &stats.phase_costs));
        } else {
            let label = format!("{} [{}] {} worker(s)", b.name(), a.annotation(), workers);
            print!("{}", hotspot_table(&label, &stats));
            println!("  trace hash: {}", format_hash(trace_hash(&events)));
        }
    }
    Ok(())
}

/// The ledger's charged phases with their cost units and shares, most
/// expensive first; ties keep pipeline order.
fn hotspot_table(label: &str, stats: &RunStats) -> String {
    let costs = &stats.phase_costs;
    let total = costs.total();
    let mut out = format!(
        "phase profile: {label} ({total} cost units, {} round(s))\n",
        stats.rounds
    );
    let _ = writeln!(out, "  {:<12} {:>14} {:>8}", "phase", "cost units", "share");
    let mut rows = Phase::ALL.map(|p| (p, costs.cost(p)));
    rows.sort_by_key(|&(_, cost)| Reverse(cost));
    for (phase, cost) in rows.into_iter().filter(|&(_, cost)| cost > 0) {
        let share = cost as f64 / total as f64 * 100.0;
        let _ = writeln!(out, "  {:<12} {cost:>14} {share:>7.1}%", phase.as_str());
    }
    out
}

/// Folded-stack lines (`label;phase cost`), one per charged phase in
/// pipeline order: the input format of standard flamegraph tooling.
fn folded(label: &str, costs: &PhaseCosts) -> String {
    Phase::ALL
        .into_iter()
        .filter(|&p| costs.cost(p) > 0)
        .map(|p| format!("{label};{p} {}\n", costs.cost(p)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(snapshot: u64, execute: u64, validate: u64, commit: u64) -> RunStats {
        RunStats {
            rounds: 2,
            phase_costs: PhaseCosts {
                snapshot,
                execute,
                validate,
                commit,
            },
            ..RunStats::default()
        }
    }

    #[test]
    fn hotspots_sort_by_cost_then_pipeline_order() {
        let table = hotspot_table("w", &ledger(10, 99, 0, 10));
        let phases: Vec<&str> = table
            .lines()
            .skip(2)
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        // Equal costs: snapshot precedes commit (pipeline order).
        assert_eq!(phases, ["execute", "snapshot", "commit"]);
        assert!(table.starts_with("phase profile: w (119 cost units, 2 round(s))\n"));
        assert!(
            table.contains("  execute                  99    83.2%\n"),
            "{table}"
        );
    }

    #[test]
    fn folded_stacks_skip_empty_phases() {
        let costs = ledger(0, 7, 3, 0).phase_costs;
        assert_eq!(
            folded("genome", &costs),
            "genome;execute 7\ngenome;validate 3\n"
        );
    }

    #[test]
    fn render_lists_only_charged_phases() {
        let table = hotspot_table("w", &ledger(0, 7, 0, 0));
        assert!(table.contains("execute"));
        assert!(!table.contains("snapshot"));
    }
}
