//! The annotation inference algorithm (paper §5).
//!
//! "ALTER creates many different versions, each containing a single
//! annotation on a single loop … runs each of these programs on every input
//! in the test suite … Those versions matching the output of the unmodified
//! sequential version are presented to the user as annotations that are
//! likely valid."

use crate::outcome::Outcome;
use crate::target::{InferTarget, Model, Probe, ProgramOutput};
use alter_analyze::{interpret, predict, static_verdict, AnalyzeConfig, StaticVerdict, Verdict};
use alter_runtime::{quiet::quiet_panics, DepReport, RedOp, RunError, WorkerPool};
use alter_trace::{Event, Phase, Recorder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Tunables of the inference engine, with the paper's defaults.
#[derive(Clone)]
pub struct InferConfig {
    /// Workers used during probing.
    pub workers: usize,
    /// Chunk factor during probing — "fixing the chunk factor at 16" (§5).
    pub chunk: usize,
    /// Timeout threshold: "more than 10 times the sequential execution
    /// time" (§5).
    pub timeout_factor: f64,
    /// High-conflict threshold: "more than 50% of the attempted commits
    /// fail" (§5).
    pub high_conflict_threshold: f64,
    /// Per-transaction tracked-memory budget (emulates physical memory).
    pub budget_words: u64,
    /// Structured-event sink. Each probe is bracketed by
    /// `ProbeStart`/`ProbeOutcome` events and its engine run emits into the
    /// same recorder, so a trace shows each candidate annotation followed
    /// by exactly what its execution did. While one is enabled the probes
    /// run one after another, because their event streams would otherwise
    /// interleave; without one they run concurrently through a
    /// [`WorkerPool`], and since each probe owns its heap and its seeded
    /// inputs the report is the same either way.
    pub recorder: Option<Arc<dyn Recorder>>,
    /// Consult the static analyzer before each probe and skip candidates it
    /// proves must fail (on by default). Pruning never changes which
    /// annotations are reported valid — the analyzer's verdicts are
    /// one-sided — only how many probes actually run; see
    /// [`InferReport::pruned_candidates`]. Off re-enables the paper's
    /// exhaustive search, for A/B comparison (and also disables the static
    /// tier below — `prune: false` means exhaustive).
    pub prune: bool,
    /// Consult the abstract interpreter's two-sided verdicts before the
    /// dynamic predictor (on by default; requires `prune` and a target
    /// that provides [`InferTarget::loop_spec`]). Candidates it proves
    /// safe or unsound skip their probes entirely — no replay, no
    /// execution — and are counted in [`InferReport::static_pruned`].
    /// Off isolates PR 5's dynamic-only pruning, for A/B comparison.
    pub static_prune: bool,
    /// Emit phase-profile events (off by default). Each probe's engine run
    /// emits per-round phase costs, and the inference driver adds one
    /// `infer_probe` entry per executed probe (its total cost units, keyed
    /// by probe index), so a profiled inference trace attributes cost to
    /// the search itself as well as to the engine phases within it.
    pub profile_phases: bool,
}

impl std::fmt::Debug for InferConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferConfig")
            .field("workers", &self.workers)
            .field("chunk", &self.chunk)
            .field("timeout_factor", &self.timeout_factor)
            .field("high_conflict_threshold", &self.high_conflict_threshold)
            .field("budget_words", &self.budget_words)
            .field("recorder", &self.recorder.as_ref().map(|r| r.is_enabled()))
            .field("prune", &self.prune)
            .field("static_prune", &self.static_prune)
            .field("profile_phases", &self.profile_phases)
            .finish()
    }
}

impl Default for InferConfig {
    fn default() -> Self {
        InferConfig {
            workers: 4,
            chunk: 16,
            timeout_factor: 10.0,
            high_conflict_threshold: 0.5,
            budget_words: 1 << 22, // 4M words = 32 MiB of tracked state
            recorder: None,
            prune: true,
            static_prune: true,
            profile_phases: false,
        }
    }
}

/// Result of probing one reduction candidate.
#[derive(Clone, Debug, PartialEq)]
pub struct ReductionResult {
    /// Model the reduction was combined with.
    pub model: Model,
    /// Variable name.
    pub var: String,
    /// Operator.
    pub op: RedOp,
    /// Classified outcome.
    pub outcome: Outcome,
}

/// A candidate annotation the static analyzer proved must fail; its probe
/// was skipped and the predicted outcome recorded in its place.
#[derive(Clone, Debug, PartialEq)]
pub struct PrunedCandidate {
    /// Annotation-style probe description (e.g. `StaleReads`,
    /// `OutOfOrder + Reduction(sum, +)`).
    pub annotation: String,
    /// The outcome recorded in the report for this candidate.
    pub outcome: Outcome,
    /// The analyzer's verdict, human-readable (predicted retry rate or
    /// tracked-words footprint).
    pub reason: String,
}

/// The complete inference result for one benchmark — one row of Table 3.
#[derive(Clone, Debug, PartialEq)]
pub struct InferReport {
    /// Benchmark name.
    pub name: String,
    /// Loop-carried dependence check (the Dep column).
    pub dep: DepReport,
    /// Outcome under thread-level speculation.
    pub tls: Outcome,
    /// Outcome under `[OutOfOrder]` (no reductions).
    pub out_of_order: Outcome,
    /// Outcome under `[StaleReads]` (no reductions).
    pub stale_reads: Outcome,
    /// Outcomes of the bounded reduction search (empty when a policy-only
    /// annotation already succeeded).
    pub reductions: Vec<ReductionResult>,
    /// Annotation strings that preserved the program output.
    pub valid_annotations: Vec<String>,
    /// Candidates skipped because the dynamic predictor proved they must
    /// fail (empty when pruning is off or the target provides no summary).
    pub pruned_candidates: Vec<PrunedCandidate>,
    /// Candidates skipped on the abstract interpreter's two-sided proofs —
    /// both proved-safe candidates (recorded as successes, so they still
    /// appear in [`InferReport::valid_annotations`]) and proved-unsound
    /// ones. Empty when static pruning is off or the target provides no
    /// [`InferTarget::loop_spec`]. Disjoint from
    /// [`InferReport::pruned_candidates`]: the static tier is consulted
    /// first and a statically-decided probe never reaches the predictor.
    pub static_pruned: Vec<PrunedCandidate>,
    /// Number of candidate probes actually executed (pruned candidates
    /// excluded; the internal sequential-cost replay is not counted).
    pub probes_run: u64,
}

impl InferReport {
    /// The reduction suggestions that succeeded, e.g. `["+", "max"]` for
    /// SG3D.
    pub fn successful_reductions(&self) -> Vec<&ReductionResult> {
        self.reductions
            .iter()
            .filter(|r| r.outcome.is_success())
            .collect()
    }

    /// The Table 3 "Reduction" cell: operators that worked, or `N/A`.
    pub fn reduction_cell(&self) -> String {
        let mut ops: Vec<String> = Vec::new();
        for r in self.successful_reductions() {
            let s = r.op.to_string();
            if !ops.contains(&s) {
                ops.push(s);
            }
        }
        if ops.is_empty() {
            "N/A".to_owned()
        } else {
            ops.join("/")
        }
    }
}

/// Classifies a probe result per §5. The timeout check compares the
/// simulated parallel time against the run's own sequential-work clock
/// ("more than 10 times the sequential execution time"); the high-conflict
/// check uses the retry rate ("more than 50% of the attempted commits
/// fail").
pub fn classify(
    target: &dyn InferTarget,
    reference: &ProgramOutput,
    result: Result<crate::target::ProbeRun, RunError>,
    cfg: &InferConfig,
) -> Outcome {
    match result {
        Err(RunError::Crash(msg)) => Outcome::Crash(msg),
        Err(RunError::OutOfMemory { .. }) => Outcome::OutOfMemory,
        Err(RunError::WorkBudgetExceeded { .. }) => Outcome::Timeout,
        Ok(run) => {
            if run.clock.par_units > cfg.timeout_factor * run.clock.seq_units.max(1.0) {
                Outcome::Timeout
            } else if run.stats.retry_rate() > cfg.high_conflict_threshold {
                Outcome::HighConflicts
            } else if target.validate(reference, &run.output) {
                Outcome::Success
            } else {
                Outcome::OutputMismatch
            }
        }
    }
}

fn probe_outcome(
    target: &dyn InferTarget,
    reference: &ProgramOutput,
    probe: &Probe,
    cfg: &InferConfig,
    probe_index: &AtomicU64,
) -> Outcome {
    // Every executed probe consumes one index, recording or not, so the
    // numbering matches "probes run" whenever emission happens (recording
    // forces the serial schedule, so the order is deterministic too).
    let index = probe_index.fetch_add(1, Ordering::Relaxed);
    let rec = cfg.recorder.as_deref().filter(|r| r.is_enabled());
    if let Some(rec) = rec {
        rec.record(Event::ProbeStart {
            annotation: probe.describe(),
        });
    }
    let result = quiet_panics(|| target.run_probe(probe));
    let probe_cost = result.as_ref().map_or(0, |run| run.stats.cost_units());
    let outcome = classify(target, reference, result, cfg);
    if let Some(rec) = rec {
        if cfg.profile_phases {
            rec.record(Event::PhaseProfile {
                round: index,
                phase: Phase::InferProbe,
                cost: probe_cost,
            });
        }
        rec.record(Event::ProbeOutcome {
            annotation: probe.describe(),
            outcome: outcome.short().to_owned(),
        });
    }
    outcome
}

/// Measures the sequential cost of the program in cost units, by running
/// the target loop single-worker without conflict checking (semantically
/// sequential).
fn sequential_cost(target: &dyn InferTarget, cfg: &InferConfig) -> u64 {
    let probe = Probe::new(Model::Doall, 1, cfg.chunk);
    match quiet_panics(|| target.run_probe(&probe)) {
        Ok(run) => run.stats.cost_units().max(1),
        // If even the sequential replay fails, fall back to an arbitrary
        // budget; every probe will fail anyway and be reported as such.
        Err(_) => 1 << 20,
    }
}

/// Runs a batch of independent probes and returns their outcomes in probe
/// order. Serial when the batch is trivial or when a recorder is enabled
/// (each probe's engine run writes to the shared recorder, and concurrency
/// would interleave the event streams); otherwise the probes are handed to
/// a [`WorkerPool`] in rounds, job *i* on worker *i*, so the outcome vector
/// — and everything derived from it — is byte-identical to the serial
/// schedule.
fn run_probes(
    target: &(dyn InferTarget + Sync),
    reference: &ProgramOutput,
    probes: &[Probe],
    cfg: &InferConfig,
    probe_index: &AtomicU64,
) -> Vec<Outcome> {
    let serial = probes.len() <= 1 || cfg.recorder.as_deref().is_some_and(|r| r.is_enabled());
    if serial {
        return probes
            .iter()
            .map(|p| probe_outcome(target, reference, p, cfg, probe_index))
            .collect();
    }
    let run_one = |_worker: usize, idx: usize| {
        probe_outcome(target, reference, &probes[idx], cfg, probe_index)
    };
    std::thread::scope(|scope| {
        let mut pool = WorkerPool::new(scope, cfg.workers, &run_one);
        let indices: Vec<usize> = (0..probes.len()).collect();
        let mut outcomes = Vec::with_capacity(probes.len());
        for round in indices.chunks(pool.workers()) {
            outcomes.extend(pool.run_round(round.to_vec()));
        }
        outcomes
    })
}

/// How one planned candidate will be resolved.
enum Plan {
    /// Neither tier proved anything — execute the probe.
    Run,
    /// The dynamic predictor proved the probe must fail (always a
    /// must-fail [`Verdict`] by construction).
    Dyn(Verdict),
    /// The abstract interpreter proved the outcome in either direction;
    /// the string is the human-readable proof.
    Static(Outcome, String),
}

impl Plan {
    /// Wraps a dynamic-predictor verdict: `Unknown` means "just run it".
    fn from_dynamic(verdict: Verdict) -> Plan {
        if verdict.must_fail() {
            Plan::Dyn(verdict)
        } else {
            Plan::Run
        }
    }
}

/// Mutable pruning ledger threaded through the candidate batches: how many
/// probes actually executed, and what each tier skipped.
#[derive(Default)]
struct PruneLedger {
    probes_run: u64,
    pruned: Vec<PrunedCandidate>,
    static_pruned: Vec<PrunedCandidate>,
}

/// Resolves a batch of planned `(probe, plan)` pairs: probes neither tier
/// could rule on are run (in batch order, through the serial/concurrent
/// scheduler); statically-proved probes record their proved outcome in
/// `ledger.static_pruned`, dynamically-must-fail probes their predicted
/// outcome in `ledger.pruned`.
fn resolve_batch(
    target: &(dyn InferTarget + Sync),
    reference: &ProgramOutput,
    planned: &[(Probe, Plan)],
    cfg: &InferConfig,
    ledger: &mut PruneLedger,
    probe_index: &AtomicU64,
) -> Vec<Outcome> {
    let live: Vec<Probe> = planned
        .iter()
        .filter(|(_, plan)| matches!(plan, Plan::Run))
        .map(|(p, _)| p.clone())
        .collect();
    ledger.probes_run += live.len() as u64;
    let mut live_outcomes = run_probes(target, reference, &live, cfg, probe_index).into_iter();
    planned
        .iter()
        .map(|(probe, plan)| match plan {
            Plan::Run => live_outcomes.next().expect("one outcome per live probe"),
            Plan::Dyn(verdict) => {
                let outcome = match verdict {
                    Verdict::OutOfMemory { .. } => Outcome::OutOfMemory,
                    Verdict::HighConflicts { .. } => Outcome::HighConflicts,
                    Verdict::Unknown => unreachable!("Plan::Dyn holds must-fail verdicts only"),
                };
                ledger.pruned.push(PrunedCandidate {
                    annotation: probe.describe(),
                    outcome: outcome.clone(),
                    reason: verdict.to_string(),
                });
                outcome
            }
            Plan::Static(outcome, reason) => {
                ledger.static_pruned.push(PrunedCandidate {
                    annotation: probe.describe(),
                    outcome: outcome.clone(),
                    reason: reason.clone(),
                });
                outcome.clone()
            }
        })
        .collect()
}

/// Runs the full inference algorithm on one target: dependence check, the
/// three Table 3 models, and — if no policy-only annotation succeeds — the
/// bounded reduction search over the target's candidate variables and the
/// six operators. When [`InferConfig::prune`] is on and the target provides
/// a dependence summary, each candidate is first shown to the static
/// analyzer and skipped if it is proven to fail; with
/// [`InferConfig::static_prune`] also on and a [`InferTarget::loop_spec`]
/// available, the abstract interpreter rules first and can skip probes in
/// *both* directions (proved safe as well as proved unsound) without any
/// replay.
pub fn infer(target: &(dyn InferTarget + Sync), cfg: &InferConfig) -> InferReport {
    let reference = target.run_sequential();
    let seq_cost = sequential_cost(target, cfg);
    // Hard safety net: a parallel run re-executes at most `workers`× the
    // sequential work under the lock-step protocol, so anything beyond
    // workers × factor × sequential is a runaway.
    let work_budget = (seq_cost as f64 * cfg.timeout_factor * cfg.workers as f64) as u64;

    let summary = target.probe_summary();
    let dep = summary.report();

    let budget_words = target.tracked_budget_words().unwrap_or(cfg.budget_words);
    let acfg = AnalyzeConfig {
        workers: cfg.workers,
        chunk: cfg.chunk,
        high_conflict_threshold: cfg.high_conflict_threshold,
        budget_words,
        ..AnalyzeConfig::default()
    };
    // The static tier: the abstract interpreter's summary of the target's
    // declared loop spec, evaluated once and consulted per model probe.
    let static_summary = if cfg.prune && cfg.static_prune {
        target.loop_spec().map(|spec| interpret(&spec))
    } else {
        None
    };
    // The analyzer's verdict for one candidate, or `Unknown` ("just run
    // it") when pruning is off. A reduction candidate is only simulated
    // when the summary knows which heap object the variable labels — the
    // reduction privatises that object, so its accesses are elided from
    // the simulated sets exactly as the runtime removes them from the real
    // tracked sets.
    let verdict_for = |model: Model, reduction: Option<&(String, RedOp)>| -> Verdict {
        if !cfg.prune {
            return Verdict::Unknown;
        }
        let elide: Vec<alter_heap::ObjId> = match reduction {
            None => Vec::new(),
            Some((var, _)) => match summary.labeled(var) {
                Some(obj) => vec![obj],
                None => return Verdict::Unknown,
            },
        };
        let params = model.exec_params(cfg.workers, cfg.chunk);
        predict(&summary, params.conflict, params.order, &elide, &acfg)
    };
    // Resolution plan for one candidate: the static tier rules first (its
    // proofs are two-sided and need no replay), the dynamic predictor
    // second. Reduction candidates are left to the dynamic tier — the
    // spec's reduction accesses describe the *unannotated* loop, so the
    // static verdict does not transfer once the variable is privatised.
    let plan_for = |model: Model, reduction: Option<&(String, RedOp)>| -> Plan {
        if reduction.is_none() {
            if let Some(st) = &static_summary {
                let params = model.exec_params(cfg.workers, cfg.chunk);
                match static_verdict(st, params.conflict, &acfg) {
                    StaticVerdict::ProvedSafe => {
                        return Plan::Static(
                            Outcome::Success,
                            "statically proved safe: no loop-carried dependences, \
                             chunk footprint within budget"
                                .to_owned(),
                        );
                    }
                    StaticVerdict::ProvedUnsound(v) => {
                        let outcome = match &v {
                            Verdict::HighConflicts { .. } => Outcome::HighConflicts,
                            _ => Outcome::OutOfMemory,
                        };
                        return Plan::Static(outcome, format!("statically proved unsound: {v}"));
                    }
                    StaticVerdict::Unknown => {}
                }
            }
        }
        Plan::from_dynamic(verdict_for(model, reduction))
    };
    let mut ledger = PruneLedger::default();
    let probe_index = AtomicU64::new(0);
    let make_probe = |model: Model, reduction: Option<(String, RedOp)>| {
        let mut probe = Probe::new(model, cfg.workers, cfg.chunk);
        probe.reduction = reduction;
        probe.budget_words = budget_words;
        probe.work_budget = Some(work_budget);
        probe.recorder = cfg.recorder.clone();
        probe.profile_phases = cfg.profile_phases;
        probe
    };

    let model_probes: Vec<(Probe, Plan)> = Model::TABLE3
        .into_iter()
        .map(|m| (make_probe(m, None), plan_for(m, None)))
        .collect();
    let mut model_outcomes = resolve_batch(
        target,
        &reference,
        &model_probes,
        cfg,
        &mut ledger,
        &probe_index,
    )
    .into_iter();
    let tls = model_outcomes.next().expect("three model probes");
    let out_of_order = model_outcomes.next().expect("three model probes");
    let stale_reads = model_outcomes.next().expect("three model probes");

    let mut valid_annotations = Vec::new();
    for ((probe, _), outcome) in model_probes.iter().zip([&tls, &out_of_order, &stale_reads]) {
        if outcome.is_success() {
            valid_annotations.push(format!("[{}]", probe.describe()));
        }
    }

    // "A search for a valid reduction is performed only if none of the
    // annotations of the form (P, ε) are valid" (§5). Dynamically-pruned
    // model probes keep the gate firing (their recorded outcomes are
    // failures); a statically-proved-safe probe suppresses it exactly as
    // its real execution would, because its recorded outcome is the
    // success the probe was proved to produce.
    let mut reductions = Vec::new();
    if !out_of_order.is_success() && !stale_reads.is_success() {
        let mut red_probes = Vec::new();
        let mut red_meta = Vec::new();
        for var in target.reduction_candidates() {
            for op in RedOp::ALL {
                for model in [Model::OutOfOrder, Model::StaleReads] {
                    let reduction = (var.clone(), op);
                    let plan = plan_for(model, Some(&reduction));
                    red_probes.push((make_probe(model, Some(reduction)), plan));
                    red_meta.push((model, var.clone(), op));
                }
            }
        }
        let outcomes = resolve_batch(
            target,
            &reference,
            &red_probes,
            cfg,
            &mut ledger,
            &probe_index,
        );
        for (((model, var, op), (probe, _)), outcome) in
            red_meta.into_iter().zip(&red_probes).zip(outcomes)
        {
            if outcome.is_success() {
                valid_annotations.push(format!("[{}]", probe.describe()));
            }
            reductions.push(ReductionResult {
                model,
                var,
                op,
                outcome,
            });
        }
    }

    InferReport {
        name: target.name().to_owned(),
        dep,
        tls,
        out_of_order,
        stale_reads,
        reductions,
        valid_annotations,
        pruned_candidates: ledger.pruned,
        static_pruned: ledger.static_pruned,
        probes_run: ledger.probes_run,
    }
}
