//! `baselines`: regenerates the five committed baselines into the current
//! directory in one process, and fails with the gate's message on the
//! first gate any of them asserts:
//!
//! | file | gate |
//! |------|------|
//! | `ANALYSIS.json` | every canonical trace is sanitizer-clean |
//! | `STATIC.json` | every LoopSpec covers its replay (static ⊇ dynamic) |
//! | `CHECK.json` | all twelve best annotations are schedule-sound |
//! | `PROFILE.json` | — |
//! | `BENCH_runtime.json` `phases` | the trace-folded profile equals the `RunStats` ledger, the threaded driver charges what the sequential one does, and profiling is pure |
//! | `BENCH_runtime.json` `check` | Genome and K-means: the run completes, and DPOR prunes ≥ 5× with no budget hit |
//! | `BENCH_runtime.json` `absint` | the static tier skips ≥ 10 probes and changes no inferred annotation |
//!
//! Every number written is a deterministic counter (cost units, schedules,
//! probes, trace hashes) — no wall-clock — so the files are stable across
//! machines and a diff means the runtime's behaviour changed.

use crate::replay::{profile_json, profile_run};
use crate::verify::{
    analysis_json, check_json, check_workload, cross_validate_all, sanitize_all, static_json,
    CheckedRun,
};
use crate::{find, record_run, DEFAULT_WORKERS};
use alter_analyze::{CheckReport, DEFAULT_SCHEDULE_BUDGET};
use alter_infer::{infer, InferConfig};
use alter_runtime::PhaseCosts;
use alter_trace::{trace_hash, Event, Phase, Profile};
use alter_workloads::{all_benchmarks, Benchmark, Scale};
use std::fmt::Write as _;

/// Worker counts of the `phases` section.
const WORKER_SWEEP: [usize; 3] = [1, 2, 8];

/// The engine phases of the `phases` section, in column order.
const ENGINE_PHASES: [Phase; 4] = [
    Phase::Snapshot,
    Phase::Execute,
    Phase::Validate,
    Phase::Commit,
];

/// The workloads of the `phases` and `check` sections, as they name them.
const FLAGSHIPS: [&str; 2] = ["genome", "k-means"];

fn ensure(ok: bool, message: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(message())
    }
}

fn write(path: &str, json: &str) -> Result<(), String> {
    std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

pub fn write_all() -> Result<(), String> {
    let benches = all_benchmarks(Scale::Inference);

    let clean = sanitize_all(&benches, DEFAULT_WORKERS)?;
    ensure(clean, || "sanitizer: isolation violations found".into())?;
    write("ANALYSIS.json", &analysis_json(&benches))?;

    let (analyzed, covered) = cross_validate_all(&benches);
    ensure(covered, || {
        "absint: a LoopSpec is missing or does not cover its replay (static ⊉ dynamic)".into()
    })?;
    write("STATIC.json", &static_json(&benches, &analyzed))?;

    let checks = benches
        .iter()
        .map(|b| check_workload(b.as_ref(), "best", DEFAULT_WORKERS, DEFAULT_SCHEDULE_BUDGET))
        .collect::<Result<Vec<_>, _>>()?;
    if let Some(r) = checks.iter().find(|r| !r.report.sound()) {
        return Err(format!("check: {} [best] is schedule-unsound", r.name));
    }
    write(
        "CHECK.json",
        &check_json(DEFAULT_WORKERS, DEFAULT_SCHEDULE_BUDGET, &checks),
    )?;

    let profiles = benches
        .iter()
        .map(|b| profile_run(b.as_ref(), "best", DEFAULT_WORKERS))
        .collect::<Result<Vec<_>, _>>()?;
    write("PROFILE.json", &profile_json(DEFAULT_WORKERS, &profiles))?;

    // The three sections keep the layout of the per-bench files the
    // retired `scripts/bench.sh` spliced together, separators included.
    let bench_runtime = format!(
        "{{\n\"phases\":\n{},\n\"check\":\n{},\n\"absint\":\n{}}}\n",
        phases_json(&measure_phases()?),
        dpor_json(&measure_dpor(&checks)?),
        absint_json(&measure_absint(&benches)?)
    );
    write("BENCH_runtime.json", &bench_runtime)
}

/// One (workload, workers) measurement of the `phases` section.
struct Measured {
    workers: usize,
    rounds: u64,
    profile: Profile,
}

/// Runs `bench`'s best probe at `workers` and returns the recorded events
/// plus the engine's own phase ledger and round count.
fn profiled_run(
    bench: &dyn Benchmark,
    workers: usize,
    threaded: bool,
    profile_phases: bool,
) -> Result<(Vec<Event>, PhaseCosts, u64), String> {
    let mut probe = bench.best_probe(workers);
    probe.threaded = threaded;
    probe.profile_phases = profile_phases;
    let (events, run) = record_run(bench, &probe)?;
    let run = run.map_err(|e| format!("{}: probe must complete ({e})", bench.name()))?;
    Ok((events, run.stats.phase_costs, run.stats.rounds))
}

/// The profiled sequential run at `workers`, gated against the ledger,
/// the threaded driver and an unprofiled run.
fn measure(name: &str, bench: &dyn Benchmark, workers: usize) -> Result<Measured, String> {
    let (events, ledger, rounds) = profiled_run(bench, workers, false, true)?;
    let profile = Profile::from_events(&events);

    // The trace-folded profile and the engine's in-stats ledger are two
    // paths to the same numbers; they must agree exactly.
    for phase in ENGINE_PHASES {
        ensure(profile.cost(phase) == ledger.cost(phase), || {
            format!("{name} N={workers}: trace profile and RunStats ledger disagree on {phase}")
        })?;
    }
    // One entry per engine phase per round. (`Profile::rounds()` can be
    // smaller than `stats.rounds` for workloads that drive the loop once
    // per outer iteration — round numbering restarts each segment.)
    ensure(
        profile.total() == ledger.total() && profile.entries() == 4 * rounds,
        || format!("{name} N={workers}: trace profile and RunStats ledger disagree on the totals"),
    )?;

    // Phase costs are trace-stable: the threaded driver must charge the
    // exact same units as the sequential simulation.
    let (threaded_events, threaded_ledger, _) = profiled_run(bench, workers, true, true)?;
    ensure(
        ledger == threaded_ledger && trace_hash(&events) == trace_hash(&threaded_events),
        || format!("{name} N={workers}: drive mode changed phase costs"),
    )?;

    // Profiling must be observationally pure: stripping the phase_profile
    // events recovers the unprofiled trace byte for byte, and the ledger
    // is folded either way.
    let (plain_events, plain_ledger, _) = profiled_run(bench, workers, false, false)?;
    let stripped: Vec<Event> = events
        .iter()
        .filter(|ev| !matches!(ev, Event::PhaseProfile { .. }))
        .cloned()
        .collect();
    ensure(
        trace_hash(&stripped) == trace_hash(&plain_events) && ledger == plain_ledger,
        || format!("{name} N={workers}: profiler perturbed the underlying trace"),
    )?;

    Ok(Measured {
        workers,
        rounds,
        profile,
    })
}

/// Per-phase cost units of the flagships under their best annotations
/// across [`WORKER_SWEEP`] — the numbers behind the EXPERIMENTS.md
/// cost-share table.
fn measure_phases() -> Result<Vec<(String, String, Vec<Measured>)>, String> {
    let mut rows = Vec::new();
    for name in FLAGSHIPS {
        let bench = find(name)?;
        let runs = WORKER_SWEEP
            .iter()
            .map(|&w| measure(name, bench.as_ref(), w))
            .collect::<Result<_, _>>()?;
        rows.push((name.to_owned(), bench.best_probe(1).describe(), runs));
    }
    Ok(rows)
}

/// Renders the `phases` section.
fn phases_json(rows: &[(String, String, Vec<Measured>)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"workloads\": [");
    for (i, (name, annotation, runs)) in rows.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{name}\",");
        let _ = writeln!(out, "      \"annotation\": \"{annotation}\",");
        let _ = writeln!(out, "      \"configs\": [");
        for (j, m) in runs.iter().enumerate() {
            let _ = write!(
                out,
                "        {{\"workers\": {}, \"rounds\": {}, \"total_cost\": {}",
                m.workers,
                m.rounds,
                m.profile.total()
            );
            for phase in ENGINE_PHASES {
                let _ = write!(out, ", \"{}\": {}", phase.as_str(), m.profile.cost(phase));
            }
            let _ = writeln!(out, "}}{}", if j + 1 < runs.len() { "," } else { "" });
        }
        let _ = writeln!(out, "      ]");
        let _ = writeln!(out, "    }}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// One flagship's schedule-space audit: its `CHECK.json` run.
struct Audited<'a> {
    name: &'static str,
    annotation: String,
    report: &'a CheckReport,
}

/// The DPOR pruning economics of the flagships' `CHECK.json` runs: naive
/// schedule count (`Σ n!` over rounds), representatives explored,
/// reorderings flagged and the words the commutativity block scans
/// compared. DPOR must explore at least 5× fewer schedules than naive
/// enumeration, within the budget.
fn measure_dpor(checks: &[CheckedRun]) -> Result<Vec<Audited<'_>>, String> {
    let mut rows = Vec::new();
    for name in FLAGSHIPS {
        let bench = find(name)?;
        let run = checks
            .iter()
            .find(|r| r.name == bench.name())
            .expect("CHECK.json covers every workload");
        ensure(run.completed, || format!("{name}: probe must complete"))?;
        let report = &run.report;
        ensure(report.budget_hits == 0, || {
            format!("{name}: schedule budget must not bite")
        })?;
        ensure(report.explored * 5 <= report.naive_schedules, || {
            format!(
                "{name}: DPOR pruning below 5x: {} explored vs {} naive",
                report.explored, report.naive_schedules
            )
        })?;
        rows.push(Audited {
            name,
            annotation: bench.best_probe(DEFAULT_WORKERS).describe(),
            report,
        });
    }
    Ok(rows)
}

/// Renders the `check` section.
fn dpor_json(rows: &[Audited]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"workers\": {DEFAULT_WORKERS},");
    let _ = writeln!(out, "  \"workloads\": [");
    for (i, m) in rows.iter().enumerate() {
        let r = m.report;
        let ratio = r.naive_schedules as f64 / r.explored.max(1) as f64;
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", m.name);
        let _ = writeln!(out, "      \"annotation\": \"{}\",", m.annotation);
        let _ = writeln!(out, "      \"rounds\": {},", r.rounds);
        let _ = writeln!(out, "      \"tasks\": {},", r.tasks);
        let _ = writeln!(out, "      \"naive_schedules\": {},", r.naive_schedules);
        let _ = writeln!(out, "      \"explored\": {},", r.explored);
        let _ = writeln!(out, "      \"pruned\": {},", r.pruned());
        let _ = writeln!(out, "      \"pruning_ratio_x\": {ratio:.2},");
        let _ = writeln!(out, "      \"flagged\": {},", r.flagged);
        let _ = writeln!(out, "      \"scan_words\": {},", r.scan_words);
        let _ = writeln!(out, "      \"sound\": {}", r.sound());
        let _ = writeln!(out, "    }}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// One workload's probe economics under the two pruning configurations.
struct Economics {
    name: String,
    probes_dynamic: u64,
    probes_combined: u64,
    static_skips: usize,
    /// `class` of each statically decided candidate, e.g.
    /// `"TLS: proved unsound: o.o.m."`.
    skipped: Vec<String>,
}

/// The static analyzer's probe economics: the full inference suite with
/// dynamic-only pruning versus the combined static + dynamic tiers. The
/// static tier must change no answer and skip at least 10 probes.
fn measure_absint(benches: &[Box<dyn Benchmark>]) -> Result<Vec<Economics>, String> {
    let combined_cfg = InferConfig::default();
    let dynamic_cfg = InferConfig {
        static_prune: false,
        ..InferConfig::default()
    };
    let mut rows = Vec::new();
    for b in benches {
        let name = b.name().to_owned();
        let combined = infer(b.as_ref(), &combined_cfg);
        let dynamic = infer(b.as_ref(), &dynamic_cfg);
        ensure(
            combined.valid_annotations == dynamic.valid_annotations,
            || format!("{name}: static pruning changed the inferred annotations"),
        )?;
        ensure(
            dynamic.probes_run.checked_sub(combined.probes_run)
                == Some(combined.static_pruned.len() as u64),
            || format!("{name}: every static skip must save exactly one probe"),
        )?;
        rows.push(Economics {
            name,
            probes_dynamic: dynamic.probes_run,
            probes_combined: combined.probes_run,
            static_skips: combined.static_pruned.len(),
            skipped: combined
                .static_pruned
                .iter()
                .map(|pc| format!("{}: {}", pc.annotation, pc.reason))
                .collect(),
        });
    }
    let total_skips: usize = rows.iter().map(|m| m.static_skips).sum();
    ensure(total_skips >= 10, || {
        format!("static tier skipped only {total_skips} probes suite-wide (need >= 10)")
    })?;
    Ok(rows)
}

/// Renders the `absint` section.
fn absint_json(rows: &[Economics]) -> String {
    let total_dynamic: u64 = rows.iter().map(|m| m.probes_dynamic).sum();
    let total_combined: u64 = rows.iter().map(|m| m.probes_combined).sum();
    let total_skips: usize = rows.iter().map(|m| m.static_skips).sum();
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"probes_dynamic_only\": {total_dynamic},");
    let _ = writeln!(out, "  \"probes_combined\": {total_combined},");
    let _ = writeln!(out, "  \"static_skips\": {total_skips},");
    let _ = writeln!(out, "  \"workloads\": [");
    for (i, m) in rows.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", m.name);
        let _ = writeln!(out, "      \"probes_dynamic_only\": {},", m.probes_dynamic);
        let _ = writeln!(out, "      \"probes_combined\": {},", m.probes_combined);
        let _ = writeln!(out, "      \"static_skips\": {},", m.static_skips);
        let skipped: Vec<String> = m.skipped.iter().map(|s| format!("\"{s}\"")).collect();
        let _ = writeln!(out, "      \"skipped\": [{}]", skipped.join(", "));
        let _ = writeln!(out, "    }}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}
