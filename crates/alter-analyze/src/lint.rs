//! The annotation linter: structured soundness diagnostics for a parsed
//! annotation (or the DOALL/TLS targets) against a loop's dependence
//! summary.
//!
//! Rules (DESIGN.md §11):
//!
//! * **DOALL** — any RAW or WAW edge is an error (no conflict checking,
//!   so a broken flow dependence or lost update commits silently). WAR
//!   edges are informational: snapshotting breaks them for free.
//! * **TLS** — always sound (sequential semantics); RAW/WAW edges are
//!   warnings because validation will serialize the loop.
//! * **OutOfOrder** — RAW edges are errors when they connect (nearly)
//!   every iteration pair ("cannot commit") and warnings otherwise; a WAW
//!   edge with no covering RAW on the same words is an error, because RAW
//!   validation never looks at write sets and the lost update commits
//!   silently.
//! * **StaleReads** — RAW edges are informational (that is the point of
//!   the annotation); WAW edges are errors when pervasive, warnings
//!   otherwise.
//! * **Reductions** — `Reduction(var, op)` is checked against the
//!   location's access shape: plain (non-reductive) accesses, multiple
//!   observed operators, or a non-scalar location are errors; an
//!   annotation operator that differs from the observed source operator is
//!   only a warning (the paper's SG3D writes `err max=` under a
//!   `Reduction(err, +)` annotation — testing is the final arbiter).
//!   Locations that check out reduction-shaped suppress the policy
//!   diagnostics above, exactly as the runtime privatises them.
//!
//! Diagnostics are deterministic: generation follows the summary's sorted
//! edge order and the annotation's declaration order, so two lints of the
//! same summary compare equal.

use crate::classify::reduction_shaped;
use alter_runtime::{Annotation, DepKind, LoopSummary, Policy};

/// What the linter checks an annotation-shaped target against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LintTarget {
    /// DOALL: no conflict checking at all (Theorem 4.4).
    Doall,
    /// Thread-level speculation: RAW validation, in-order commit
    /// (Theorem 4.3) — sound for every loop.
    Tls,
    /// A parsed annotation: `[OutOfOrder]`, `[StaleReads]`, with optional
    /// reductions.
    Annotated(Annotation),
}

impl std::fmt::Display for LintTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintTarget::Doall => f.write_str("DOALL"),
            LintTarget::Tls => f.write_str("TLS"),
            LintTarget::Annotated(a) => write!(f, "{a}"),
        }
    }
}

/// Diagnostic severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The annotation is unsound or cannot make progress concurrently.
    Error,
    /// Suspicious: likely high-conflict, or sound only by testing.
    Warning,
    /// Informational: a dependence the model breaks by design.
    Info,
}

impl Severity {
    /// Stable lowercase name used in JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        }
    }
}

/// One structured diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity class.
    pub severity: Severity,
    /// Stable machine-readable rule code, e.g. `doall-waw`.
    pub code: &'static str,
    /// The location (allocation index) the diagnostic is about, if any.
    pub obj: Option<u32>,
    /// Human name of the location, when the summary has a label for it.
    pub label: Option<String>,
    /// Human-readable message.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}]: {}",
            self.severity.as_str(),
            self.code,
            self.message
        )
    }
}

/// Names a location for messages: `delta (obj 3)` or `obj 3`.
fn loc_name(summary: &LoopSummary, obj: alter_heap::ObjId) -> String {
    match summary.label_of(obj) {
        Some(n) => format!("{n} (obj {})", obj.index()),
        None => format!("obj {}", obj.index()),
    }
}

/// Whether an edge connects (nearly) every iteration pair it could: each
/// later iteration touching the location depends on an earlier one.
fn pervasive(summary: &LoopSummary, edge: &alter_runtime::DepEdge) -> bool {
    summary.iterations > 1 && edge.dsts >= summary.iterations - 1
}

/// Lints one target against a loop summary. See the module docs for the
/// rule set. An empty summary yields a single informational diagnostic.
pub fn lint(summary: &LoopSummary, target: &LintTarget) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if summary.is_empty() {
        out.push(Diagnostic {
            severity: Severity::Info,
            code: "no-evidence",
            obj: None,
            label: None,
            message: "no replay evidence: summary is empty".into(),
        });
        return out;
    }

    let mut diag = |severity, code, obj: Option<alter_heap::ObjId>, message: String| {
        out.push(Diagnostic {
            severity,
            code,
            obj: obj.map(|o| o.index()),
            label: obj.and_then(|o| summary.label_of(o).map(str::to_owned)),
            message,
        });
    };

    // Locations privatised by the target's reductions (when their shape
    // checks out) are exempt from the policy rules.
    let reductions: &[alter_runtime::Reduction] = match target {
        LintTarget::Annotated(a) => &a.reductions,
        _ => &[],
    };
    let covered: Vec<alter_heap::ObjId> = reductions
        .iter()
        .filter_map(|r| summary.labeled(&r.var))
        .filter(|&o| summary.location(o).and_then(reduction_shaped).is_some())
        .collect();

    for edge in &summary.edges {
        if covered.contains(&edge.obj) {
            continue;
        }
        let name = loc_name(summary, edge.obj);
        let shape = if pervasive(summary, edge) {
            format!(
                "{} edge on every iteration pair (word {}, distance {}..{})",
                edge.kind, edge.word, edge.min_dist, edge.max_dist
            )
        } else {
            format!(
                "{} edge over {} of {} iterations (word {}, distance {}..{})",
                edge.kind, edge.dsts, summary.iterations, edge.word, edge.min_dist, edge.max_dist
            )
        };
        match (target, edge.kind) {
            (LintTarget::Doall, DepKind::Raw) => diag(
                Severity::Error,
                "doall-raw",
                Some(edge.obj),
                format!("DOALL invalid: {shape} on {name} commits stale reads unchecked"),
            ),
            (LintTarget::Doall, DepKind::Waw) => diag(
                Severity::Error,
                "doall-waw",
                Some(edge.obj),
                format!("DOALL invalid: {shape} on {name} loses updates"),
            ),
            (LintTarget::Doall, DepKind::War) | (LintTarget::Tls, DepKind::War) => diag(
                Severity::Info,
                "war-snapshot",
                Some(edge.obj),
                format!("{shape} on {name}: broken by snapshot isolation"),
            ),
            (LintTarget::Tls, _) => diag(
                Severity::Warning,
                "tls-serializes",
                Some(edge.obj),
                format!("TLS stays sound but will serialize: {shape} on {name}"),
            ),
            (LintTarget::Annotated(a), DepKind::Raw) => match a.policy {
                Policy::OutOfOrder => {
                    let sev = if pervasive(summary, edge) {
                        Severity::Error
                    } else {
                        Severity::Warning
                    };
                    let verb = if sev == Severity::Error {
                        "cannot commit"
                    } else {
                        "will retry"
                    };
                    diag(
                        sev,
                        "outoforder-raw",
                        Some(edge.obj),
                        format!("OutOfOrder {verb}: {shape} on {name}"),
                    );
                }
                Policy::StaleReads => diag(
                    Severity::Info,
                    "stalereads-raw-broken",
                    Some(edge.obj),
                    format!("{shape} on {name}: StaleReads commits through it (reads may be stale)"),
                ),
            },
            (LintTarget::Annotated(a), DepKind::Waw) => match a.policy {
                Policy::OutOfOrder => diag(
                    Severity::Error,
                    "outoforder-waw-unchecked",
                    Some(edge.obj),
                    format!(
                        "OutOfOrder unsound: {shape} on {name} is invisible to RAW validation (lost update)"
                    ),
                ),
                Policy::StaleReads => {
                    let sev = if pervasive(summary, edge) {
                        Severity::Error
                    } else {
                        Severity::Warning
                    };
                    let verb = if sev == Severity::Error {
                        "cannot commit"
                    } else {
                        "will retry"
                    };
                    diag(
                        sev,
                        "stalereads-waw",
                        Some(edge.obj),
                        format!("StaleReads {verb}: {shape} on {name}"),
                    );
                }
            },
            (LintTarget::Annotated(_), DepKind::War) => diag(
                Severity::Info,
                "war-snapshot",
                Some(edge.obj),
                format!("{shape} on {name}: broken by snapshot isolation"),
            ),
        }
    }

    // Reduction shape checks, in annotation declaration order.
    for r in reductions {
        let Some(obj) = summary.labeled(&r.var) else {
            diag(
                Severity::Warning,
                "reduction-unknown-var",
                None,
                format!(
                    "Reduction({}, {}) names a variable the summary has no label for",
                    r.var, r.op
                ),
            );
            continue;
        };
        let Some(loc) = summary.location(obj) else {
            diag(
                Severity::Info,
                "reduction-untouched",
                Some(obj),
                format!("Reduction({}, {}): the loop never touches it", r.var, r.op),
            );
            continue;
        };
        let dist = summary.edges_on(obj).map(|e| e.min_dist).min().unwrap_or(0);
        if loc.plain_iters > 0 {
            diag(
                Severity::Error,
                "reduction-plain-access",
                Some(obj),
                format!(
                    "Reduction({}, {}) unsound: {} read non-reductively in {} of {} iterations at iteration distance {}",
                    r.var, r.op, r.var, loc.plain_iters, summary.iterations, dist
                ),
            );
        }
        if loc.ops.len() > 1 {
            let names: Vec<&str> = loc.ops.iter().map(|o| o.as_str()).collect();
            diag(
                Severity::Error,
                "reduction-mixed-ops",
                Some(obj),
                format!(
                    "Reduction({}, {}) unsound: multiple operators observed ({})",
                    r.var,
                    r.op,
                    names.join(", ")
                ),
            );
        }
        if loc.max_word > 0 {
            diag(
                Severity::Error,
                "reduction-not-scalar",
                Some(obj),
                format!(
                    "Reduction({}, {}) unsound: {} spans {} words (reductions privatise scalars)",
                    r.var,
                    r.op,
                    r.var,
                    loc.max_word + 1
                ),
            );
        }
        if let [op] = loc.ops.as_slice() {
            if loc.plain_iters == 0 && loc.max_word == 0 {
                if *op != r.op {
                    diag(
                        Severity::Warning,
                        "reduction-op-mismatch",
                        Some(obj),
                        format!(
                            "Reduction({}, {}): observed source operator is {} — sound only if testing accepts the {} merge (paper §4.2)",
                            r.var, r.op, op, r.op
                        ),
                    );
                } else {
                    diag(
                        Severity::Info,
                        "reduction-verified",
                        Some(obj),
                        format!(
                            "Reduction({}, {}) verified: every access flows through {}",
                            r.var, r.op, op
                        ),
                    );
                }
            }
        } else if loc.ops.is_empty() && loc.plain_iters > 0 {
            // Already reported as plain access; nothing reductive at all.
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use alter_heap::Heap;
    use alter_runtime::{summarize_dependences, BoundScalar, RangeSpace, RedVal, RedVars};

    fn counter_summary() -> (LoopSummary, alter_heap::ObjId) {
        let mut heap = Heap::new();
        let mut reds = RedVars::new();
        let delta = BoundScalar::declare(&mut heap, &mut reds, "delta", RedVal::F64(0.0));
        let mut s = summarize_dependences(&mut heap, &mut RangeSpace::new(0, 32), {
            move |ctx, _| {
                delta.add(ctx, 1.0);
            }
        });
        s.label("delta", delta.object());
        (s, delta.object())
    }

    #[test]
    fn doall_flags_raw_and_waw_as_errors() {
        let (s, obj) = counter_summary();
        let diags = lint(&s, &LintTarget::Doall);
        let errors: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert_eq!(errors.len(), 2, "{diags:?}");
        assert!(errors.iter().all(|d| d.obj == Some(obj.index())));
        assert!(errors.iter().any(|d| d.code == "doall-raw"));
        assert!(errors.iter().any(|d| d.code == "doall-waw"));
        assert!(diags.iter().any(|d| d.message.contains("DOALL invalid")));
    }

    #[test]
    fn tls_warns_but_never_errors() {
        let (s, _) = counter_summary();
        let diags = lint(&s, &LintTarget::Tls);
        assert!(!diags.is_empty());
        assert!(diags.iter().all(|d| d.severity != Severity::Error));
        assert!(diags.iter().any(|d| d.code == "tls-serializes"));
    }

    #[test]
    fn stale_reads_with_the_reduction_is_clean() {
        let (s, _) = counter_summary();
        let ann: Annotation = "[StaleReads + Reduction(delta, +)]".parse().unwrap();
        let diags = lint(&s, &LintTarget::Annotated(ann));
        assert!(
            diags.iter().all(|d| d.severity != Severity::Error),
            "{diags:?}"
        );
        assert!(diags.iter().any(|d| d.code == "reduction-verified"));
    }

    #[test]
    fn bare_stale_reads_cannot_commit_the_counter() {
        let (s, _) = counter_summary();
        let ann: Annotation = "[StaleReads]".parse().unwrap();
        let diags = lint(&s, &LintTarget::Annotated(ann));
        let err = diags
            .iter()
            .find(|d| d.code == "stalereads-waw")
            .expect("WAW error");
        assert_eq!(err.severity, Severity::Error);
        assert_eq!(err.label.as_deref(), Some("delta"));
        assert!(err.message.contains("cannot commit"), "{}", err.message);
        assert!(
            err.message.contains("every iteration pair"),
            "{}",
            err.message
        );
    }

    #[test]
    fn non_reductive_read_is_reported_with_distance() {
        let mut heap = Heap::new();
        let mut reds = RedVars::new();
        let delta = BoundScalar::declare(&mut heap, &mut reds, "delta", RedVal::F64(0.0));
        let mut s = summarize_dependences(&mut heap, &mut RangeSpace::new(0, 16), {
            move |ctx, i| {
                if i % 2 == 0 {
                    delta.add(ctx, 1.0);
                } else {
                    let _ = ctx.tx.read_f64(delta.object(), 0);
                }
            }
        });
        s.label("delta", delta.object());
        let ann: Annotation = "[StaleReads + Reduction(delta, +)]".parse().unwrap();
        let diags = lint(&s, &LintTarget::Annotated(ann));
        let err = diags
            .iter()
            .find(|d| d.code == "reduction-plain-access")
            .expect("plain access error");
        assert_eq!(err.severity, Severity::Error);
        assert!(
            err.message.contains("read non-reductively"),
            "{}",
            err.message
        );
        assert!(
            err.message.contains("iteration distance 1"),
            "{}",
            err.message
        );
    }

    #[test]
    fn operator_mismatch_is_a_warning_not_an_error() {
        let mut heap = Heap::new();
        let mut reds = RedVars::new();
        let err_var = BoundScalar::declare(&mut heap, &mut reds, "err", RedVal::F64(0.0));
        let mut s = summarize_dependences(&mut heap, &mut RangeSpace::new(0, 16), {
            move |ctx, i| {
                err_var.max(ctx, i as f64);
            }
        });
        s.label("err", err_var.object());
        let ann: Annotation = "[StaleReads + Reduction(err, +)]".parse().unwrap();
        let diags = lint(&s, &LintTarget::Annotated(ann));
        let w = diags
            .iter()
            .find(|d| d.code == "reduction-op-mismatch")
            .expect("mismatch warning");
        assert_eq!(w.severity, Severity::Warning);
        // The covered location suppresses the WAW policy error.
        assert!(diags.iter().all(|d| d.severity != Severity::Error));
    }

    #[test]
    fn diagnostics_are_deterministic_and_labelled() {
        let (s, _) = counter_summary();
        let ann: Annotation = "[StaleReads]".parse().unwrap();
        let a = lint(&s, &LintTarget::Annotated(ann.clone()));
        let b = lint(&s, &LintTarget::Annotated(ann));
        assert_eq!(a, b);
        assert_eq!(a[0].label.as_deref(), Some("delta"), "{:?}", a[0]);
    }

    #[test]
    fn empty_summary_reports_no_evidence() {
        let diags = lint(&LoopSummary::default(), &LintTarget::Doall);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "no-evidence");
        assert_eq!(diags[0].severity, Severity::Info);
    }
}
