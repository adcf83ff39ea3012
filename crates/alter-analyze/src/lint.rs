//! The annotation linter: structured soundness diagnostics for a parsed
//! annotation (or the DOALL/TLS targets) against a loop's dependence
//! summary.
//!
//! Which dependences each target may break is one private table, `rule`,
//! with one row per target × dependence kind; SEMANTICS.md §6 is the same
//! table in prose, each row linked to the test that pins it. A row's
//! severity is fixed, or *retries*: an error when the edge links every
//! iteration pair ("cannot commit"), a warning otherwise ("will retry").
//!
//! **Reductions.** `Reduction(var, op)` is checked against the location's
//! access shape: plain (non-reductive) accesses, multiple observed
//! operators, or a non-scalar location are errors; an annotation operator
//! that differs from the observed source operator is only a warning (the
//! paper's SG3D writes `err max=` under a `Reduction(err, +)` annotation —
//! testing is the final arbiter). Locations that check out
//! reduction-shaped are exempt from the table, exactly as the runtime
//! privatises them.
//!
//! Diagnostics are deterministic: generation follows the summary's sorted
//! edge order and the annotation's declaration order, so two lints of the
//! same summary compare equal.

use alter_runtime::{Annotation, DepEdge, DepKind, LocationStats, LoopSummary, Policy, RedOp};

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
fn pervasive(summary: &LoopSummary, edge: &DepEdge) -> bool {
    summary.iterations > 1 && edge.dsts >= summary.iterations - 1
}

/// Whether the location's accesses all flow through exactly one reduction
/// operator (scalar word 0 only, no plain reads or writes).
///
/// One caveat, inherited from the replay's operator log: an iteration that
/// both applies the operator *and* separately reads the cell raw is
/// indistinguishable from a purely reductive one. Testing (paper §6)
/// remains the final arbiter of such an annotation.
fn reduction_shaped(loc: &LocationStats) -> Option<RedOp> {
    match loc.ops.as_slice() {
        [op] if loc.plain_iters == 0 && loc.max_word == 0 => Some(*op),
        _ => None,
    }
}

/// How severe a [`rule`]'s diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Level {
    /// The same severity for every edge of the kind.
    Fixed(Severity),
    /// The target validates the kind and retries the later iteration: an
    /// error when the edge links every iteration pair ("cannot commit"), a
    /// warning otherwise ("will retry").
    Retries,
}

/// Which dependences each target may break: SEMANTICS.md §6, one row per
/// target × dependence kind, as `(level, code, message)`. In the message,
/// `{edge}` stands for `{shape} on {name}` and `{verdict}` for a
/// `Retries` row's "cannot commit" or "will retry".
#[rustfmt::skip]
fn rule(target: &LintTarget, kind: DepKind) -> (Level, &'static str, &'static str) {
    use DepKind::{Raw, War, Waw};
    use Level::{Fixed, Retries};
    use LintTarget::{Annotated, Doall, Tls};
    use Policy::{OutOfOrder, StaleReads};
    use Severity::{Error, Info, Warning};
    match (target, kind) {
        (_, War) => (Fixed(Info), "war-snapshot", "{edge}: broken by snapshot isolation"),
        (Doall, Raw) => (Fixed(Error), "doall-raw", "DOALL invalid: {edge} commits stale reads unchecked"),
        (Doall, Waw) => (Fixed(Error), "doall-waw", "DOALL invalid: {edge} loses updates"),
        (Tls, Raw | Waw) => (Fixed(Warning), "tls-serializes", "TLS stays sound but will serialize: {edge}"),
        (Annotated(Annotation { policy: OutOfOrder, .. }), Raw) => (Retries, "outoforder-raw", "OutOfOrder {verdict}: {edge}"),
        (Annotated(Annotation { policy: OutOfOrder, .. }), Waw) => (Fixed(Error), "outoforder-waw-unchecked", "OutOfOrder unsound: {edge} is invisible to RAW validation (lost update)"),
        (Annotated(Annotation { policy: StaleReads, .. }), Raw) => (Fixed(Info), "stalereads-raw-broken", "{edge}: StaleReads commits through it (reads may be stale)"),
        (Annotated(Annotation { policy: StaleReads, .. }), Waw) => (Retries, "stalereads-waw", "StaleReads {verdict}: {edge}"),
    }
}

/// Lints one target against a loop summary: one diagnostic per dependence
/// edge, by the table of SEMANTICS.md §6, then the reduction checks (see
/// the module docs). An empty summary yields a single informational
/// diagnostic.
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
        let pervasive = pervasive(summary, edge);
        let shape = if pervasive {
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
        let (level, code, message) = rule(target, edge.kind);
        let (severity, verdict) = match level {
            Level::Fixed(severity) => (severity, ""),
            Level::Retries if pervasive => (Severity::Error, "cannot commit"),
            Level::Retries => (Severity::Warning, "will retry"),
        };
        let message = message
            .replace("{verdict}", verdict)
            .replace("{edge}", &format!("{shape} on {name}"));
        diag(severity, code, Some(edge.obj), message);
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
        if let Some(op) = reduction_shaped(loc) {
            if op != r.op {
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

    /// A plain read-modify-write of one cell in every `every`-th of 16
    /// iterations: a RAW, a WAW and a WAR edge, pervasive when `every` is 1.
    fn rmw_summary(every: u64) -> LoopSummary {
        let mut heap = Heap::new();
        let cell = heap.alloc(alter_heap::ObjData::scalar_i64(0));
        summarize_dependences(&mut heap, &mut RangeSpace::new(0, 16), move |ctx, i| {
            if i % every == 0 {
                let v = ctx.tx.read_i64(cell, 0);
                ctx.tx.write_i64(cell, 0, v + 1);
            }
        })
    }

    /// SEMANTICS.md §6 row by row: each target × dependence kind gets its
    /// `(severity, code)`, for an edge that links every iteration pair and
    /// for one that does not.
    #[test]
    fn every_target_and_dependence_kind_gets_its_row() {
        use DepKind::{Raw, War, Waw};
        use Severity::{Error, Info, Warning};
        let ann = |s: &str| LintTarget::Annotated(s.parse().unwrap());
        let (doall, tls) = (LintTarget::Doall, LintTarget::Tls);
        let (ooo, stale) = (ann("[OutOfOrder]"), ann("[StaleReads]"));
        // (target, kind, (severity when not pervasive, when pervasive), code)
        let table = [
            (&doall, Raw, (Error, Error), "doall-raw"),
            (&doall, Waw, (Error, Error), "doall-waw"),
            (&doall, War, (Info, Info), "war-snapshot"),
            (&tls, Raw, (Warning, Warning), "tls-serializes"),
            (&tls, Waw, (Warning, Warning), "tls-serializes"),
            (&tls, War, (Info, Info), "war-snapshot"),
            (&ooo, Raw, (Warning, Error), "outoforder-raw"),
            (&ooo, Waw, (Error, Error), "outoforder-waw-unchecked"),
            (&ooo, War, (Info, Info), "war-snapshot"),
            (&stale, Raw, (Info, Info), "stalereads-raw-broken"),
            (&stale, Waw, (Warning, Error), "stalereads-waw"),
            (&stale, War, (Info, Info), "war-snapshot"),
        ];
        for (every, pervasive) in [(4, false), (1, true)] {
            let s = rmw_summary(every);
            let kinds: Vec<DepKind> = s.edges.iter().map(|e| e.kind).collect();
            assert_eq!(kinds.len(), 3, "{kinds:?}");
            assert!(s.edges.iter().all(|e| super::pervasive(&s, e) == pervasive));
            for (target, kind, (partial, full), code) in table {
                let at = kinds.iter().position(|&k| k == kind).unwrap();
                let d = &lint(&s, target)[at];
                let severity = if pervasive { full } else { partial };
                assert_eq!(
                    (d.severity, d.code),
                    (severity, code),
                    "{target} {kind} pervasive={pervasive}: {d}"
                );
                assert!(d.message.contains(&format!("{kind} edge")), "{d}");
            }
        }
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
