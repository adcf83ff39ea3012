//! `baselines`: records one verdict per Table 2 workload and writes them,
//! with the flagships' phase sweep, to `VERDICTS.json` in the current
//! directory — or fails with the first gate's message.
//!
//! A workload's verdict comes from one `probe_summary`, one `interpret`,
//! the inference suite with and without the static tier, and one
//! recording of its best run with task sets and the phase profile on.
//! A field is written only if it is measured — nothing a gate pins to a
//! constant, nothing that is arithmetic on other fields — and every number
//! is a deterministic counter, so a diff means the runtime's behaviour
//! changed.

use crate::json::{json, Json};
use crate::verify::{audit, check_config};
use crate::{find, record_run};
use alter_analyze::absint::{cross_validate, interpret, static_verdict};
use alter_analyze::{
    check_events, lint, predict, AnalyzeConfig, CheckReport, LintTarget, DEFAULT_SCHEDULE_BUDGET,
};
use alter_infer::{infer, InferConfig, InferReport, Model, Probe};
use alter_runtime::{DepKind, ExecParams, LoopSummary, RunStats};
use alter_trace::{format_hash, trace_hash, Event, Phase, Profile};
use alter_workloads::{all_benchmarks, Benchmark, Scale};
use std::collections::BTreeMap;

const PATH: &str = "VERDICTS.json";

/// Worker counts of the phase sweep.
const WORKER_SWEEP: [usize; 3] = [1, 2, 8];

/// The workloads whose DPOR pruning is gated and whose phase costs are
/// swept over [`WORKER_SWEEP`].
const FLAGSHIPS: [&str; 2] = ["Genome", "K-means"];

fn ensure(ok: bool, message: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(message())
    }
}

pub fn write_all() -> Result<(), String> {
    let icfg = InferConfig::default();
    let verdicts = all_benchmarks(Scale::Inference)
        .iter()
        .map(|b| Verdict::measure(b.as_ref(), &icfg))
        .collect::<Result<Vec<_>, _>>()?;
    gate(&verdicts)?;
    let sweep = FLAGSHIPS.map(phase_sweep);
    let doc = json!({
        "geometry": json!({
            "workers": icfg.workers as u64,
            "chunk": icfg.chunk as u64,
            "max_schedules_per_round": DEFAULT_SCHEDULE_BUDGET,
        }),
        "workloads": Json::Arr(verdicts.into_iter().map(|v| v.record).collect()),
        "phase_sweep": Json::Arr(sweep.into_iter().collect::<Result<_, _>>()?),
    });
    std::fs::write(PATH, doc.pretty()).map_err(|e| format!("writing {PATH}: {e}"))?;
    println!("wrote {PATH}");
    Ok(())
}

/// One workload's written record and the measurements its gates read.
/// Verdicts are judged at the inference geometry; the recording runs the
/// best annotation at its tuned chunk with the geometry's worker count.
#[derive(Clone)]
struct Verdict {
    name: String,
    record: Json,
    /// Cross-validation violations (static ⊉ dynamic).
    uncovered: Vec<String>,
    /// Sanitizer violations of the recorded stream.
    violations: Vec<String>,
    stats: RunStats,
    profile: Profile,
    dpor: CheckReport,
    /// Inference with both pruning tiers, and with the dynamic tier only.
    combined: InferReport,
    dynamic_only: InferReport,
}

impl Verdict {
    fn measure(bench: &dyn Benchmark, icfg: &InferConfig) -> Result<Verdict, String> {
        let name = bench.name().to_owned();
        let summary = bench.probe_summary();
        let spec = bench
            .loop_spec()
            .ok_or_else(|| format!("absint: {name} declares no LoopSpec"))?;
        let s = interpret(&spec);
        let acfg = AnalyzeConfig {
            workers: icfg.workers,
            chunk: icfg.chunk,
            high_conflict_threshold: icfg.high_conflict_threshold,
            budget_words: bench.tracked_budget_words().unwrap_or(icfg.budget_words),
            ..AnalyzeConfig::default()
        };
        let models =
            Model::TABLE3.map(|m| (m.to_string(), m.exec_params(icfg.workers, icfg.chunk)));
        let per_model = |class: &dyn Fn(&ExecParams) -> &'static str| {
            let classes = models
                .iter()
                .map(|(m, p)| (m.to_ascii_lowercase(), class(p).into()));
            Json::Obj(classes.collect())
        };

        let mut probe = bench.best_probe(icfg.workers);
        probe.record_sets = true;
        probe.profile_phases = true;
        let (events, stats) = completed_run(bench, &probe)?;
        let profile = Profile::from_events(&events);
        let dpor = check_events(&events, &check_config(&probe, DEFAULT_SCHEDULE_BUDGET))?;
        let combined = infer(bench, icfg);
        let mut dynamic_only = icfg.clone();
        dynamic_only.static_prune = false;

        let dep = summary.report();
        let edges = |kind| s.edges.iter().filter(|e| e.kind == kind).count() as u64;
        let cost = |phase| profile.cost(phase);
        let skips = (combined.static_pruned.iter())
            .map(|pc| format!("{}: {}", pc.annotation, pc.reason).into());
        let record = json!({
            "name": name.as_str(),
            "best": format!("[{}]", probe.describe()),
            "chunk": probe.chunk as u64,
            "dep": json!({"raw": dep.raw, "waw": dep.waw, "war": dep.war}),
            "verdicts": json!({
                "dynamic": per_model(&|p| predict(&summary, p.conflict, p.order, &[], &acfg).class()),
                "static": per_model(&|p| static_verdict(&s, p.conflict, &acfg).class()),
            }),
            "lint": lint_counts(&summary, &probe),
            "static_summary": json!({
                "iterations": s.iterations,
                "regions": spec.regions.len() as u64,
                "edges": json!({
                    "raw": edges(DepKind::Raw),
                    "waw": edges(DepKind::Waw),
                    "war": edges(DepKind::War),
                }),
                "may_iter_words": json!({"rw": s.may_iter_words_rw, "w": s.may_iter_words_w}),
                "must_first_words": json!({"rw": s.must_first_words_rw, "w": s.must_first_words_w}),
                "allocates": s.allocates,
            }),
            "run": json!({
                "trace_hash": format_hash(trace_hash(&events)),
                "rounds": stats.rounds,
                "tasks": dpor.tasks,
                "snapshot": cost(Phase::Snapshot),
                "execute": cost(Phase::Execute),
                "validate": cost(Phase::Validate),
                "commit": cost(Phase::Commit),
            }),
            "dpor": json!({
                "naive_schedules": dpor.naive_schedules,
                "explored": dpor.explored,
                "flagged": dpor.flagged,
                "budget_hits": dpor.budget_hits,
            }),
            "probes": json!({
                "run": combined.probes_run,
                "static_skips": Json::Arr(skips.collect()),
            }),
        });
        Ok(Verdict {
            uncovered: cross_validate(&spec, &s, &summary),
            violations: audit(&events, &probe),
            dynamic_only: infer(bench, &dynamic_only),
            name,
            record,
            stats,
            profile,
            dpor,
            combined,
        })
    }

    /// The record-level gates, in order; the first that fails is the
    /// error: the best run is sanitizer-clean, its LoopSpec covers its
    /// replay (static ⊇ dynamic), it is schedule-sound, its profile equals
    /// its ledger, the checker counts the same rounds, DPOR prunes a
    /// flagship ≥ 5× with no budget hit, and the static tier changes no
    /// inferred annotation and saves one probe per skip.
    fn gate(&self) -> Result<(), String> {
        let name = &self.name;
        if let Some(v) = self.violations.first() {
            return Err(format!("sanitizer: {name}: {v}"));
        }
        if let Some(v) = self.uncovered.first() {
            return Err(format!(
                "absint: {name}: LoopSpec does not cover its replay (static ⊉ dynamic): {v}"
            ));
        }
        let r = &self.dpor;
        ensure(r.sound(), || {
            format!("check: {name} [best] is schedule-unsound")
        })?;
        ledger_gate(name, &self.profile, &self.stats)?;
        ensure(r.rounds == self.stats.rounds, || {
            format!(
                "{name}: the checker counts {} round(s), RunStats and the profile {}",
                r.rounds, self.stats.rounds
            )
        })?;
        if FLAGSHIPS.contains(&name.as_str()) {
            ensure(r.budget_hits == 0, || {
                format!("{name}: schedule budget must not bite")
            })?;
            ensure(r.explored * 5 <= r.naive_schedules, || {
                format!(
                    "{name}: DPOR pruning below 5x: {} explored vs {} naive",
                    r.explored, r.naive_schedules
                )
            })?;
        }
        let (c, d) = (&self.combined, &self.dynamic_only);
        ensure(c.valid_annotations == d.valid_annotations, || {
            format!("{name}: static pruning changed the inferred annotations")
        })?;
        ensure(
            d.probes_run.checked_sub(c.probes_run) == Some(c.static_pruned.len() as u64),
            || format!("{name}: every static skip must save exactly one probe"),
        )
    }
}

/// Every record's gates, then the suite-wide one: the static tier skips
/// at least 10 probes.
fn gate(verdicts: &[Verdict]) -> Result<(), String> {
    verdicts.iter().try_for_each(Verdict::gate)?;
    let skips: usize = verdicts
        .iter()
        .map(|v| v.combined.static_pruned.len())
        .sum();
    ensure(skips >= 10, || {
        format!("absint: the static tier skipped only {skips} probes suite-wide (need >= 10)")
    })
}

/// The trace-folded profile and the engine's in-stats ledger are two
/// paths to the same numbers, per phase (the ledger charges nothing to
/// inference) and in rounds.
fn ledger_gate(what: &str, profile: &Profile, stats: &RunStats) -> Result<(), String> {
    for phase in Phase::ALL {
        ensure(profile.cost(phase) == stats.phase_costs.cost(phase), || {
            format!("{what}: trace profile and RunStats ledger disagree on {phase}")
        })?;
    }
    ensure(profile.rounds() == stats.rounds, || {
        format!(
            "{what}: the profile counts {} round(s), RunStats {}",
            profile.rounds(),
            stats.rounds
        )
    })
}

/// Lint diagnostic counts per `severity:code` under the probe's
/// annotation: a byte-stable fingerprint of the linter that stays small
/// even for SSCA2's thousands of edges.
fn lint_counts(summary: &LoopSummary, probe: &Probe) -> Json {
    let target = match probe.model {
        Model::Doall => LintTarget::Doall,
        Model::Tls => LintTarget::Tls,
        Model::OutOfOrder | Model::StaleReads => LintTarget::Annotated(
            format!("[{}]", probe.describe())
                .parse()
                .expect("a best configuration is a valid annotation"),
        ),
    };
    let mut counts = BTreeMap::new();
    for d in lint(summary, &target) {
        *counts
            .entry(format!("{}:{}", d.severity.as_str(), d.code))
            .or_insert(0) += 1;
    }
    Json::Obj(
        counts
            .into_iter()
            .map(|(code, n)| (code, Json::Int(n)))
            .collect(),
    )
}

/// One flagship's best run at each of [`WORKER_SWEEP`]: rounds and phase
/// costs, each run gated against the ledger, the threaded driver and an
/// unprofiled run.
fn phase_sweep(name: &str) -> Result<Json, String> {
    let bench = find(name)?;
    let run = |workers, threaded, profile_phases| {
        let mut probe = bench.best_probe(workers);
        probe.threaded = threaded;
        probe.profile_phases = profile_phases;
        completed_run(bench.as_ref(), &probe)
    };
    let runs = WORKER_SWEEP
        .iter()
        .map(|&workers| {
            let what = format!("{name} N={workers}");
            let (events, stats) = run(workers, false, true)?;
            ledger_gate(&what, &Profile::from_events(&events), &stats)?;

            // Phase costs are trace-stable: the threaded driver must charge
            // the exact same units as the sequential simulation.
            let (threaded_events, threaded) = run(workers, true, true)?;
            ensure(
                stats.phase_costs == threaded.phase_costs
                    && trace_hash(&events) == trace_hash(&threaded_events),
                || format!("{what}: drive mode changed phase costs"),
            )?;

            // Profiling must be observationally pure: stripping the
            // phase_profile events recovers the unprofiled trace byte for
            // byte, and the ledger is folded either way.
            let (plain_events, plain) = run(workers, false, false)?;
            let mut stripped = events.clone();
            stripped.retain(|ev| !matches!(ev, Event::PhaseProfile { .. }));
            ensure(
                trace_hash(&stripped) == trace_hash(&plain_events)
                    && stats.phase_costs == plain.phase_costs,
                || format!("{what}: profiler perturbed the underlying trace"),
            )?;

            let c = &stats.phase_costs;
            Ok(json!({
                "workers": workers as u64,
                "rounds": stats.rounds,
                "snapshot": c.snapshot,
                "execute": c.execute,
                "validate": c.validate,
                "commit": c.commit,
            }))
        })
        .collect::<Result<_, String>>()?;
    Ok(json!({"name": name, "runs": Json::Arr(runs)}))
}

/// Records `probe` against `bench`; the run must complete.
fn completed_run(bench: &dyn Benchmark, probe: &Probe) -> Result<(Vec<Event>, RunStats), String> {
    let (events, run) = record_run(bench, probe)?;
    let run = run.map_err(|e| format!("{}: the run must complete ({e})", bench.name()))?;
    Ok((events, run.stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_gate_rejects_its_doctored_record() {
        let good =
            Verdict::measure(find("genome").unwrap().as_ref(), &InferConfig::default()).unwrap();
        assert_eq!(good.gate(), Ok(()));
        // Genome's candidates all run, so on its own it fails the suite gate.
        let suite = gate(std::slice::from_ref(&good)).unwrap_err();
        assert_eq!(
            suite,
            "absint: the static tier skipped only 0 probes suite-wide (need >= 10)"
        );
        let doctors: [fn(&mut Verdict); 11] = [
            |v| v.violations.push("overlap".into()),
            |v| v.uncovered.push("RAW edge".into()),
            |v| v.dpor.unsound_rounds = 1,
            |v| v.profile.record(0, Phase::Commit, 1),
            |v| v.profile.record(0, Phase::InferProbe, 1),
            |v| v.stats.rounds += 1,
            |v| v.dpor.rounds += 1,
            |v| v.dpor.budget_hits = 1,
            |v| v.dpor.explored = v.dpor.naive_schedules,
            |v| v.dynamic_only.valid_annotations.clear(),
            |v| v.dynamic_only.probes_run += 1,
        ];
        let errors = doctors.map(|doctor| {
            let mut v = good.clone();
            doctor(&mut v);
            v.gate().unwrap_err()
        });
        assert_eq!(
            errors,
            [
                "sanitizer: Genome: overlap",
                "absint: Genome: LoopSpec does not cover its replay (static ⊉ dynamic): RAW edge",
                "check: Genome [best] is schedule-unsound",
                "Genome: trace profile and RunStats ledger disagree on commit",
                "Genome: trace profile and RunStats ledger disagree on infer_probe",
                "Genome: the profile counts 38 round(s), RunStats 39",
                "Genome: the checker counts 39 round(s), RunStats and the profile 38",
                "Genome: schedule budget must not bite",
                "Genome: DPOR pruning below 5x: 889 explored vs 889 naive",
                "Genome: static pruning changed the inferred annotations",
                "Genome: every static skip must save exactly one probe",
            ]
        );
    }
}
