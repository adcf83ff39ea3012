//! # alter-analyze — dependence/annotation soundness analysis
//!
//! The inference engine of the paper (§5) brute-forces every candidate
//! annotation and lets probes fail at runtime; `dep.rs` reduces the whole
//! dependence structure to three booleans. This crate adds the layer that
//! *explains* and *predicts*, consuming the
//! [`LoopSummary`](alter_runtime::LoopSummary) IR produced by the shared
//! sequential replay:
//!
//! * [`classify`] — a schedule-prediction simulator ([`predict`]) that
//!   replays the engine's exact lock-step round algorithm over the
//!   summarised access sets, validating through the checker's verdict
//!   oracle, and yields conservative must-fail verdicts ([`Verdict`]) the
//!   inference engine uses to prune provably-failing probes.
//! * [`lint`](mod@lint) — an annotation linter: given a parsed
//!   [`Annotation`](alter_runtime::Annotation) (or the DOALL/TLS targets),
//!   emit structured [`Diagnostic`]s — severity, stable rule code,
//!   location, human message — from one table of which dependences each
//!   target may break (SEMANTICS.md §6).
//! * [`sanitize`](mod@sanitize) — a trace isolation sanitizer, and the crate's one
//!   reader of a trace's rounds: read a recorded JSONL trace (with
//!   `ExecParams::record_sets` payloads) into task records once and
//!   re-check the isolation invariants — deterministic commit order,
//!   committed write-sets disjoint under StaleReads, validate verdicts
//!   consistent with the recorded read/write sets.
//! * [`absint`] — the static half of the synergy: a declarative
//!   [`LoopSpec`] IR (symbolic per-iteration accesses over the iteration
//!   index) evaluated by an abstract interpreter under an interval ×
//!   stride congruence domain ([`StrideInterval`]) into a
//!   [`StaticSummary`] with two-sided per-probe verdicts
//!   ([`StaticVerdict`]); a CI-gated [`cross_validate`] pass proves
//!   `static ⊇ dynamic` against the replayed summary for every workload.
//! * [`check`] — a DPOR schedule-space model checker over recorded
//!   journals: enumerate the alternative commit orders each round's
//!   tickets could legally produce, prune Mazurkiewicz-equivalent ones
//!   by access-set commutativity, and audit each with the sanitizer's
//!   verdict oracle, reporting unsound rounds as
//!   [`Divergence`](alter_runtime::replay::Divergence) counterexamples.
//!
//! Every entry point reads the run it judges from the
//! [`ExecParams`](alter_runtime::ExecParams) the probe runs (or ran)
//! under: the conflict policy and commit order, and for the two predictors
//! also the worker count, chunk factor and tracked-words budget. The §5
//! high-conflict threshold is [`HIGH_CONFLICT_THRESHOLD`].
//!
//! The prediction contract is deliberately one-sided: [`predict`] may
//! return [`Verdict::Unknown`] for a probe that will fail, but must never
//! return a must-fail verdict for a probe that would succeed — pruning
//! never changes the outcome of inference, only its cost. The
//! cross-validation suite in `tests/analysis.rs` checks this against the
//! observed probe outcomes of all 12 workloads.

#![warn(missing_docs)]

pub mod absint;
pub mod check;
pub mod classify;
pub mod lint;
pub mod sanitize;

pub use absint::{
    cross_validate, interpret, static_verdict, AccessKind, AccessSpec, LoopSpec, Member, Region,
    RegionFootprint, StaticEdge, StaticSummary, StaticVerdict, StrideInterval, Words,
};
pub use check::{
    check_events, check_journal, schedule_is_clean, CheckReport, UnsoundRound,
    DEFAULT_SCHEDULE_BUDGET,
};
pub use classify::{predict, Verdict, HIGH_CONFLICT_THRESHOLD};
pub use lint::{lint, Diagnostic, LintTarget, Severity};
pub use sanitize::{sanitize, Violation};
