//! The interface between the inference engine and an instrumented program.
//!
//! A program exposes one target loop. The inference engine never looks
//! inside it: it only asks for sequential reference output, probe runs under
//! candidate configurations, a dependence check, and the list of scalar
//! variables a reduction annotation could name.

use alter_analyze::absint::LoopSpec;
use alter_runtime::{ExecParams, LoopSummary, RedOp, RedVars, RunError, RunStats};
use alter_sim::SimClock;
use alter_trace::Recorder;
use std::sync::Arc;

/// The execution model a probe exercises — the columns of Table 3 plus
/// DOALL (used internally to measure sequential cost).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Model {
    /// Thread-level speculation: `RAW + InOrder` (sequential semantics).
    Tls,
    /// The `OutOfOrder` annotation: `RAW + OutOfOrder`.
    OutOfOrder,
    /// The `StaleReads` annotation: `WAW + OutOfOrder`.
    StaleReads,
    /// DOALL: no conflict checking.
    Doall,
}

impl Model {
    /// The three models reported in Table 3, in column order.
    pub const TABLE3: [Model; 3] = [Model::Tls, Model::OutOfOrder, Model::StaleReads];

    /// Parses a CLI/journal annotation token (`tls`, `outoforder`/`ooo`,
    /// `stalereads`/`stale`, `doall`), case-insensitively. The trace CLIs
    /// and the journal replay driver share this so recorded annotations
    /// round-trip.
    pub fn parse_token(s: &str) -> Option<Model> {
        match s.to_ascii_lowercase().as_str() {
            "tls" => Some(Model::Tls),
            "outoforder" | "ooo" => Some(Model::OutOfOrder),
            "stalereads" | "stale" => Some(Model::StaleReads),
            "doall" => Some(Model::Doall),
            _ => None,
        }
    }

    /// Base parameters for this model (Theorems 4.1–4.4).
    pub fn exec_params(self, workers: usize, chunk: usize) -> ExecParams {
        match self {
            Model::Tls => ExecParams::tls(workers, chunk),
            Model::OutOfOrder => ExecParams::from_annotation(
                &"[OutOfOrder]".parse().expect("static"),
                workers,
                chunk,
            ),
            Model::StaleReads => ExecParams::from_annotation(
                &"[StaleReads]".parse().expect("static"),
                workers,
                chunk,
            ),
            Model::Doall => ExecParams::doall(workers, chunk),
        }
    }
}

impl std::fmt::Display for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Model::Tls => "TLS",
            Model::OutOfOrder => "OutOfOrder",
            Model::StaleReads => "StaleReads",
            Model::Doall => "DOALL",
        };
        f.write_str(s)
    }
}

/// One candidate configuration to try on the target loop.
#[derive(Clone)]
pub struct Probe {
    /// Execution model.
    pub model: Model,
    /// Optional reduction: `(variable name, operator)`.
    pub reduction: Option<(String, RedOp)>,
    /// Worker count.
    pub workers: usize,
    /// Chunk factor (the paper fixes 16 during inference).
    pub chunk: usize,
    /// Per-transaction tracked-memory budget, in words.
    pub budget_words: u64,
    /// Total cost budget (the 10×-sequential timeout), if any.
    pub work_budget: Option<u64>,
    /// Structured-event sink forwarded to the engine run.
    pub recorder: Option<Arc<dyn Recorder>>,
    /// Whether the target should drive the loop with real threads
    /// ([`alter_runtime::Driver::threaded`]) instead of the sequential
    /// simulation of the workers. Either driver yields byte-identical
    /// traces; threading only changes wall-clock time.
    pub threaded: bool,
    /// Whether the engine records each task's full tracked read/write sets
    /// into the trace (`task_sets` events) for the isolation sanitizer.
    /// Off by default: the payloads are large and recorded traces stay
    /// byte-identical to previous releases unless asked for.
    pub record_sets: bool,
    /// Whether the engine emits per-round `phase_profile` cost-unit events
    /// (the deterministic phase profiler). Off by default, for the same
    /// reason as `record_sets`: recorded traces stay byte-identical unless
    /// a profiling consumer opts in.
    pub profile_phases: bool,
    /// Wall-clock phase accumulator forwarded to the engine (informational
    /// mirror of the cost-unit profiler; never recorded in traces).
    pub wall_profile: Option<Arc<alter_trace::WallProfile>>,
}

impl std::fmt::Debug for Probe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Probe")
            .field("model", &self.model)
            .field("reduction", &self.reduction)
            .field("workers", &self.workers)
            .field("chunk", &self.chunk)
            .field("budget_words", &self.budget_words)
            .field("work_budget", &self.work_budget)
            .field("recorder", &self.recorder.as_ref().map(|r| r.is_enabled()))
            .field("threaded", &self.threaded)
            .field("record_sets", &self.record_sets)
            .field("profile_phases", &self.profile_phases)
            .field("wall_profile", &self.wall_profile.is_some())
            .finish()
    }
}

impl Probe {
    /// A probe of `model` with the given geometry and effectively unlimited
    /// budgets.
    pub fn new(model: Model, workers: usize, chunk: usize) -> Self {
        Probe {
            model,
            reduction: None,
            workers,
            chunk,
            budget_words: u64::MAX,
            work_budget: None,
            recorder: None,
            threaded: false,
            record_sets: false,
            profile_phases: false,
            wall_profile: None,
        }
    }

    /// The loop driver this probe asks for: threaded when
    /// [`Probe::threaded`] is set, the sequential round simulation
    /// otherwise. Targets should pass this to
    /// [`alter_runtime::LoopBuilder::run`] instead of hard-coding a driver.
    pub fn driver(&self) -> alter_runtime::Driver {
        if self.threaded {
            alter_runtime::Driver::threaded()
        } else {
            alter_runtime::Driver::sequential()
        }
    }

    /// Resolves this probe into engine parameters, looking the reduction
    /// variable (if any) up in `reds`.
    ///
    /// # Panics
    ///
    /// Panics if the reduction names a variable absent from `reds` — probes
    /// are built from [`InferTarget::reduction_candidates`], so this is a
    /// target bug.
    pub fn exec_params(&self, reds: &RedVars) -> ExecParams {
        let mut p = self.model.exec_params(self.workers, self.chunk);
        p.budget_words = self.budget_words;
        p.work_budget = self.work_budget;
        p.recorder = self.recorder.clone();
        p.record_sets = self.record_sets;
        p.profile_phases = self.profile_phases;
        p.wall_profile = self.wall_profile.clone();
        if let Some((name, op)) = &self.reduction {
            let var = reds
                .lookup(name)
                .unwrap_or_else(|| panic!("unknown reduction candidate `{name}`"));
            p.reductions = vec![(var, *op)];
        }
        p
    }

    /// Human-readable annotation-style description, e.g.
    /// `StaleReads + Reduction(delta, +)`.
    pub fn describe(&self) -> String {
        match &self.reduction {
            None => self.model.to_string(),
            Some((name, op)) => format!("{} + Reduction({name}, {op})", self.model),
        }
    }
}

/// Output of one full program execution, compared by the program-specific
/// validator.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProgramOutput {
    /// Floating-point outputs (solution vectors, distances, …).
    pub floats: Vec<f64>,
    /// Integer outputs (counts, memberships, digests, …).
    pub ints: Vec<i64>,
}

impl ProgramOutput {
    /// Builds an output from float values only.
    pub fn from_floats(floats: Vec<f64>) -> Self {
        ProgramOutput {
            floats,
            ints: Vec::new(),
        }
    }

    /// Builds an output from integer values only.
    pub fn from_ints(ints: Vec<i64>) -> Self {
        ProgramOutput {
            floats: Vec::new(),
            ints,
        }
    }

    /// Approximate comparison: integers exactly, floats within `tol`
    /// relative error — "our program-specific output validation script …
    /// often made approximate comparisons between floating-point values"
    /// (§7.1).
    pub fn approx_eq(&self, other: &ProgramOutput, tol: f64) -> bool {
        if self.ints != other.ints || self.floats.len() != other.floats.len() {
            return false;
        }
        self.floats.iter().zip(&other.floats).all(|(a, b)| {
            let scale = a.abs().max(b.abs()).max(1.0);
            (a - b).abs() <= tol * scale
        })
    }
}

/// A completed probe run.
#[derive(Clone, Debug)]
pub struct ProbeRun {
    /// The program's output under the probe configuration.
    pub output: ProgramOutput,
    /// Aggregate runtime statistics (drives the high-conflict check and
    /// Table 4).
    pub stats: RunStats,
    /// Virtual-time accounting (drives the chunk-factor search and the
    /// speedup figures).
    pub clock: SimClock,
}

/// A program with one target loop, as seen by the inference engine.
///
/// Implementations must be deterministic: each probe starts from identical
/// program state (targets re-generate their input from a fixed seed), so
/// "a single test is sufficient to identify incorrect annotations" (§7.1).
pub trait InferTarget {
    /// Benchmark name (Table 2/3 row label).
    fn name(&self) -> &str;

    /// Runs the unmodified sequential program and returns its output.
    fn run_sequential(&self) -> ProgramOutput;

    /// Runs the program with the target loop under `probe`.
    ///
    /// # Errors
    ///
    /// Propagates the runtime's crash / out-of-memory / work-budget aborts.
    fn run_probe(&self, probe: &Probe) -> Result<ProbeRun, RunError>;

    /// Replays the loop sequentially into the full dependence-summary IR
    /// (see [`alter_runtime::summarize_dependences`]): per-location edges
    /// with iteration distances, access statistics, and per-iteration
    /// read/write sets. The analyzer consumes this to prune provably
    /// failing probes and to lint annotations, and Table 3's Dep column is
    /// its [`LoopSummary::report`].
    ///
    /// The default returns an empty summary, which disables analysis-based
    /// pruning for this target and reports no dependences.
    fn probe_summary(&self) -> LoopSummary {
        LoopSummary::default()
    }

    /// Scalar variables a reduction annotation may name.
    fn reduction_candidates(&self) -> Vec<String> {
        Vec::new()
    }

    /// Program-specific output validation. Defaults to approximate
    /// equality at 1e-6 relative tolerance.
    fn validate(&self, reference: &ProgramOutput, candidate: &ProgramOutput) -> bool {
        reference.approx_eq(candidate, 1e-6)
    }

    /// Per-transaction tracked-memory budget override, in words. Programs
    /// whose instrumented read sets exhaust memory (the paper's AggloClust
    /// under TLS/OutOfOrder, §7.1) model their machine's capacity here;
    /// `None` uses the engine default.
    fn tracked_budget_words(&self) -> Option<u64> {
        None
    }

    /// The declarative symbolic description of the target loop's accesses
    /// (see [`alter_analyze::absint::LoopSpec`]), over the same
    /// deterministic heap [`InferTarget::probe_summary`] replays. `None`
    /// (the default) disables the static pruning tier for this target; a
    /// provided spec is held to the `static ⊇ dynamic` contract by the
    /// cross-validation gate in `tests/absint.rs`.
    fn loop_spec(&self) -> Option<LoopSpec> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alter_runtime::{CommitOrder, ConflictPolicy, RedVal};

    #[test]
    fn model_params_match_theorems() {
        let p = Model::Tls.exec_params(4, 16);
        assert_eq!(
            (p.conflict, p.order),
            (ConflictPolicy::Raw, CommitOrder::InOrder)
        );
        let p = Model::OutOfOrder.exec_params(4, 16);
        assert_eq!(
            (p.conflict, p.order),
            (ConflictPolicy::Raw, CommitOrder::OutOfOrder)
        );
        let p = Model::StaleReads.exec_params(4, 16);
        assert_eq!(
            (p.conflict, p.order),
            (ConflictPolicy::Waw, CommitOrder::OutOfOrder)
        );
        let p = Model::Doall.exec_params(4, 16);
        assert_eq!(p.conflict, ConflictPolicy::None);
    }

    #[test]
    fn probe_resolves_reduction_against_registry() {
        let mut reds = RedVars::new();
        let d = reds.declare("delta", RedVal::F64(0.0));
        let mut probe = Probe::new(Model::StaleReads, 4, 16);
        probe.reduction = Some(("delta".into(), RedOp::Add));
        probe.work_budget = Some(1000);
        let p = probe.exec_params(&reds);
        assert_eq!(p.reductions, vec![(d, RedOp::Add)]);
        assert_eq!(p.work_budget, Some(1000));
        assert_eq!(probe.describe(), "StaleReads + Reduction(delta, +)");
        assert_eq!(Probe::new(Model::Tls, 2, 4).describe(), "TLS");
    }

    #[test]
    fn parse_token_accepts_cli_spellings() {
        assert_eq!(Model::parse_token("TLS"), Some(Model::Tls));
        assert_eq!(Model::parse_token("ooo"), Some(Model::OutOfOrder));
        assert_eq!(Model::parse_token("stale"), Some(Model::StaleReads));
        assert_eq!(Model::parse_token("doall"), Some(Model::Doall));
        assert_eq!(Model::parse_token("best"), None);
    }

    #[test]
    fn approx_eq_tolerates_small_float_drift() {
        let a = ProgramOutput::from_floats(vec![1.0, 1000.0]);
        let b = ProgramOutput::from_floats(vec![1.0 + 1e-9, 1000.0 + 1e-5]);
        assert!(a.approx_eq(&b, 1e-6));
        let c = ProgramOutput::from_floats(vec![1.0, 1001.0]);
        assert!(!a.approx_eq(&c, 1e-6));
    }

    #[test]
    fn approx_eq_requires_exact_ints_and_shapes() {
        let a = ProgramOutput::from_ints(vec![1, 2]);
        let b = ProgramOutput::from_ints(vec![1, 3]);
        assert!(!a.approx_eq(&b, 1.0));
        let c = ProgramOutput::from_floats(vec![0.0]);
        assert!(!a.approx_eq(&c, 1.0));
        assert!(a.approx_eq(&a.clone(), 0.0));
    }
}
