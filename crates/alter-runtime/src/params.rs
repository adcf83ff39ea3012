//! Runtime configuration parameters (paper §4.2).
//!
//! The ALTER compiler emits a concurrent program parameterized by four
//! knobs: `ConflictPolicy`, `CommitOrderPolicy`, `ReductionPolicy`, and
//! `ChunkFactor`. The theorems of §4.2 map annotations to parameter
//! settings; [`ExecParams::from_annotation`], [`ExecParams::tls`] and
//! [`ExecParams::doall`] encode those mappings.

use crate::annotation::{Annotation, Policy, RedOp};
use crate::reduction::{RedVarId, RedVars};
use alter_heap::TrackMode;
use alter_trace::Recorder;
use std::sync::Arc;

/// The four conflict definitions, forming a partial order from most to
/// least restrictive: `FULL` ⊒ {`WAW`, `RAW`} ⊒ `NONE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConflictPolicy {
    /// Commit only if neither read nor write set overlaps the write set of
    /// any concurrent transaction that committed earlier.
    Full,
    /// Commit only if the write set does not overlap earlier write sets
    /// (snapshot isolation / StaleReads).
    Waw,
    /// Commit only if the read set does not overlap earlier write sets
    /// (conflict serializability / OutOfOrder).
    Raw,
    /// Commit unconditionally (DOALL).
    None,
}

impl ConflictPolicy {
    /// The tracking mode a transaction needs under this policy.
    ///
    /// `WAW` and `NONE` elide read instrumentation entirely — the
    /// optimization behind StaleReads' performance advantage (§7.2). Write
    /// instrumentation is always on: commit needs the write ranges to merge
    /// private copies back without clobbering concurrent commits.
    pub fn track_mode(self) -> TrackMode {
        match self {
            ConflictPolicy::Full | ConflictPolicy::Raw => TrackMode::ReadsAndWrites,
            ConflictPolicy::Waw | ConflictPolicy::None => TrackMode::WritesOnly,
        }
    }
}

impl std::fmt::Display for ConflictPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ConflictPolicy::Full => "FULL",
            ConflictPolicy::Waw => "WAW",
            ConflictPolicy::Raw => "RAW",
            ConflictPolicy::None => "NONE",
        };
        f.write_str(s)
    }
}

/// Whether commits must respect program order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CommitOrder {
    /// Iterations commit in program order; a failed validation squashes all
    /// later in-flight iterations (thread-level-speculation behaviour).
    InOrder,
    /// Iterations commit in validation order; only the failing iteration
    /// retries.
    OutOfOrder,
}

impl std::fmt::Display for CommitOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommitOrder::InOrder => f.write_str("InOrder"),
            CommitOrder::OutOfOrder => f.write_str("OutOfOrder"),
        }
    }
}

/// Complete configuration for one parallel loop execution.
#[derive(Clone)]
pub struct ExecParams {
    /// Conflict definition applied at validation.
    pub conflict: ConflictPolicy,
    /// Commit ordering discipline.
    pub order: CommitOrder,
    /// Active reductions: `(variable, operator)` pairs.
    pub reductions: Vec<(RedVarId, RedOp)>,
    /// Iterations per transaction (the paper fixes 16 during inference and
    /// tunes by iterative doubling afterwards).
    pub chunk: usize,
    /// Number of concurrent workers (the paper's process count N).
    pub workers: usize,
    /// Abort the run if one transaction tracks more than this many words
    /// (emulates the paper's out-of-memory crashes on huge read sets).
    pub budget_words: u64,
    /// Abort the run once total executed cost units exceed this (emulates
    /// the paper's 10×-sequential timeout).
    pub work_budget: Option<u64>,
    /// Structured-event sink. `None` (the default) means no tracing; the
    /// engine also short-circuits on [`Recorder::is_enabled`], so the hot
    /// path pays a single branch either way.
    pub recorder: Option<Arc<dyn Recorder>>,
    /// Emit an `Event::TaskSets` with each validated task's full read and
    /// write sets (canonical `obj:lo-hi,…` form). Off by default — it fattens
    /// traces considerably and exists for the `alter-cli lint` isolation
    /// sanitizer, which re-checks validation verdicts against the recorded
    /// sets. No effect without a recorder.
    pub record_sets: bool,
    /// Wall-clock mirror of the phase ledger (`RunStats::phase_costs`):
    /// when attached, the engine adds elapsed seconds per phase. Lives outside the event stream (wall
    /// time is nondeterministic), so it never affects traces or hashes.
    pub wall_profile: Option<Arc<alter_trace::WallProfile>>,
}

impl std::fmt::Debug for ExecParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecParams")
            .field("conflict", &self.conflict)
            .field("order", &self.order)
            .field("reductions", &self.reductions)
            .field("chunk", &self.chunk)
            .field("workers", &self.workers)
            .field("budget_words", &self.budget_words)
            .field("work_budget", &self.work_budget)
            .field("recorder", &self.recorder.as_ref().map(|r| r.is_enabled()))
            .field("record_sets", &self.record_sets)
            .field("wall_profile", &self.wall_profile.is_some())
            .finish()
    }
}

impl ExecParams {
    /// Baseline parameters: StaleReads-like defaults with the given worker
    /// count and chunk factor.
    pub fn new(workers: usize, chunk: usize) -> Self {
        ExecParams {
            conflict: ConflictPolicy::Waw,
            order: CommitOrder::OutOfOrder,
            reductions: Vec::new(),
            chunk: chunk.max(1),
            workers: workers.max(1),
            budget_words: u64::MAX,
            work_budget: None,
            recorder: None,
            record_sets: false,
            wall_profile: None,
        }
    }

    /// Parameters enforcing an [`Annotation`] (Theorems 4.1 and 4.2):
    /// `OutOfOrder ↦ (RAW, OutOfOrder)`, `StaleReads ↦ (WAW, OutOfOrder)`,
    /// plus the annotation's reductions resolved against `reds`.
    ///
    /// # Panics
    ///
    /// Panics if a reduction names a variable not declared in `reds`.
    pub fn from_annotation_in(
        ann: &Annotation,
        reds: &RedVars,
        workers: usize,
        chunk: usize,
    ) -> Self {
        let mut p = Self::new(workers, chunk);
        p.conflict = match ann.policy {
            Policy::OutOfOrder => ConflictPolicy::Raw,
            Policy::StaleReads => ConflictPolicy::Waw,
        };
        p.order = CommitOrder::OutOfOrder;
        p.reductions = ann
            .reductions
            .iter()
            .map(|r| {
                let var = reds
                    .lookup(&r.var)
                    .unwrap_or_else(|| panic!("unknown reduction variable `{}`", r.var));
                (var, r.op)
            })
            .collect();
        p
    }

    /// Like [`ExecParams::from_annotation_in`] for annotations without
    /// reductions.
    ///
    /// # Panics
    ///
    /// Panics if the annotation declares reductions (they need a registry).
    pub fn from_annotation(ann: &Annotation, workers: usize, chunk: usize) -> Self {
        assert!(
            ann.reductions.is_empty(),
            "use from_annotation_in to resolve reduction variables"
        );
        Self::from_annotation_in(ann, &RedVars::new(), workers, chunk)
    }

    /// Safe speculative parallelism — sequential semantics (Theorem 4.3):
    /// `(RAW, InOrder)` with no reductions.
    pub fn tls(workers: usize, chunk: usize) -> Self {
        let mut p = Self::new(workers, chunk);
        p.conflict = ConflictPolicy::Raw;
        p.order = CommitOrder::InOrder;
        p
    }

    /// DOALL parallelism (Theorem 4.4): no conflict checking.
    pub fn doall(workers: usize, chunk: usize) -> Self {
        let mut p = Self::new(workers, chunk);
        p.conflict = ConflictPolicy::None;
        p.order = CommitOrder::OutOfOrder;
        p
    }

    /// Builder-style: attach a structured-event recorder.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Short human-readable form, e.g. `WAW/OutOfOrder cf=16 N=4`.
    pub fn describe(&self) -> String {
        format!(
            "{}/{} cf={} N={}",
            self.conflict, self.order, self.chunk, self.workers
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduction::RedVal;

    #[test]
    fn track_modes_follow_policies() {
        assert_eq!(ConflictPolicy::Full.track_mode(), TrackMode::ReadsAndWrites);
        assert_eq!(ConflictPolicy::Raw.track_mode(), TrackMode::ReadsAndWrites);
        assert_eq!(ConflictPolicy::Waw.track_mode(), TrackMode::WritesOnly);
        assert_eq!(ConflictPolicy::None.track_mode(), TrackMode::WritesOnly);
    }

    #[test]
    fn annotation_mapping_matches_theorems() {
        let ooo = ExecParams::from_annotation(&"[OutOfOrder]".parse().unwrap(), 4, 16);
        assert_eq!(ooo.conflict, ConflictPolicy::Raw);
        assert_eq!(ooo.order, CommitOrder::OutOfOrder);

        let stale = ExecParams::from_annotation(&"[StaleReads]".parse().unwrap(), 4, 16);
        assert_eq!(stale.conflict, ConflictPolicy::Waw);
        assert_eq!(stale.order, CommitOrder::OutOfOrder);

        let tls = ExecParams::tls(4, 16);
        assert_eq!(tls.conflict, ConflictPolicy::Raw);
        assert_eq!(tls.order, CommitOrder::InOrder);

        let doall = ExecParams::doall(4, 16);
        assert_eq!(doall.conflict, ConflictPolicy::None);
    }

    #[test]
    fn annotation_reductions_resolve_against_registry() {
        let mut reds = RedVars::new();
        let delta = reds.declare("delta", RedVal::F64(0.0));
        let ann: Annotation = "[StaleReads + Reduction(delta, +)]".parse().unwrap();
        let p = ExecParams::from_annotation_in(&ann, &reds, 2, 8);
        assert_eq!(p.reductions, vec![(delta, RedOp::Add)]);
    }

    #[test]
    #[should_panic(expected = "unknown reduction variable")]
    fn unknown_reduction_variable_panics() {
        let ann: Annotation = "[StaleReads + Reduction(ghost, +)]".parse().unwrap();
        ExecParams::from_annotation_in(&ann, &RedVars::new(), 2, 8);
    }

    #[test]
    fn builders_and_describe() {
        let p = ExecParams::new(0, 0) // clamped to 1
            .with_recorder(Arc::new(alter_trace::RingRecorder::default()));
        assert_eq!(p.workers, 1);
        assert_eq!(p.chunk, 1);
        assert!(p.recorder.is_some());
        assert_eq!(
            ExecParams::new(4, 16).describe(),
            "WAW/OutOfOrder cf=16 N=4"
        );
    }
}
