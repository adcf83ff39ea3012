//! The ALTER annotation language (paper §3, Figure 3).
//!
//! ```text
//! A := (P, R)
//! P := OutOfOrder | StaleReads
//! R := ε | R; R | (var, O)
//! O := + | × | max | min | ∧ | ∨
//! ```
//!
//! Annotations are written in source as `[StaleReads]`,
//! `[OutOfOrder + Reduction(delta, +)]`, etc. This module provides the data
//! model plus a parser and pretty-printer for that concrete syntax, so the
//! inference engine can report suggestions in the same notation the paper
//! uses.

use std::fmt;
use std::str::FromStr;

/// The parallelism policy `P` of an annotation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Iterations may be reordered; execution must be equivalent to *some*
    /// serial ordering (conflict serializability).
    OutOfOrder,
    /// In addition to reordering, reads may be stale, drawn from a
    /// consistent snapshot (snapshot isolation).
    StaleReads,
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Policy::OutOfOrder => f.write_str("OutOfOrder"),
            Policy::StaleReads => f.write_str("StaleReads"),
        }
    }
}

/// A commutative and associative reduction operator `O`.
///
/// `+` and `×` merge by delta (`Sc := Sc + (new − old)`); the other four are
/// idempotent and merge directly (`Sc := Sc op new`) — paper §4.2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RedOp {
    /// Addition.
    Add,
    /// Multiplication.
    Mul,
    /// Maximum.
    Max,
    /// Minimum.
    Min,
    /// Logical/bitwise conjunction (the paper's ∧).
    And,
    /// Logical/bitwise disjunction (the paper's ∨).
    Or,
}

impl RedOp {
    /// All six operators, in the paper's order — the inference engine's
    /// search space.
    pub const ALL: [RedOp; 6] = [
        RedOp::Add,
        RedOp::Mul,
        RedOp::Max,
        RedOp::Min,
        RedOp::And,
        RedOp::Or,
    ];

    /// The operator's annotation-language spelling (`+`, `*`, `max`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            RedOp::Add => "+",
            RedOp::Mul => "*",
            RedOp::Max => "max",
            RedOp::Min => "min",
            RedOp::And => "and",
            RedOp::Or => "or",
        }
    }
}

impl fmt::Display for RedOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for RedOp {
    type Err = ParseAnnotationError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "+" => Ok(RedOp::Add),
            "*" | "x" | "×" => Ok(RedOp::Mul),
            "max" => Ok(RedOp::Max),
            "min" => Ok(RedOp::Min),
            "and" | "&" | "∧" => Ok(RedOp::And),
            "or" | "|" | "∨" => Ok(RedOp::Or),
            other => Err(ParseAnnotationError::new(format!(
                "unknown reduction operator `{other}`"
            ))),
        }
    }
}

/// One `(var, op)` reduction declaration.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Reduction {
    /// Name of the program variable.
    pub var: String,
    /// Merge operator.
    pub op: RedOp,
}

impl fmt::Display for Reduction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Reduction({}, {})", self.var, self.op)
    }
}

/// A complete loop annotation `(P, R)`.
///
/// ```
/// use alter_runtime::{Annotation, Policy, RedOp};
/// let a: Annotation = "[StaleReads + Reduction(delta, +)]".parse()?;
/// assert_eq!(a.policy, Policy::StaleReads);
/// assert_eq!(a.reductions[0].op, RedOp::Add);
/// assert_eq!(a.to_string(), "[StaleReads + Reduction(delta, +)]");
/// # Ok::<(), alter_runtime::ParseAnnotationError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Annotation {
    /// The parallelism policy.
    pub policy: Policy,
    /// Zero or more reductions.
    pub reductions: Vec<Reduction>,
}

impl Annotation {
    /// An annotation with no reductions.
    pub fn new(policy: Policy) -> Self {
        Annotation {
            policy,
            reductions: Vec::new(),
        }
    }

    /// Adds a reduction (builder style).
    pub fn with_reduction(mut self, var: impl Into<String>, op: RedOp) -> Self {
        self.reductions.push(Reduction {
            var: var.into(),
            op,
        });
        self
    }
}

impl fmt::Display for Annotation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}", self.policy)?;
        for r in &self.reductions {
            write!(f, " + {r}")?;
        }
        f.write_str("]")
    }
}

/// Error parsing the concrete annotation syntax.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseAnnotationError {
    msg: String,
}

impl ParseAnnotationError {
    fn new(msg: impl Into<String>) -> Self {
        ParseAnnotationError { msg: msg.into() }
    }
}

impl fmt::Display for ParseAnnotationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid annotation: {}", self.msg)
    }
}

impl std::error::Error for ParseAnnotationError {}

impl FromStr for Annotation {
    type Err = ParseAnnotationError;

    /// Parses e.g. `[StaleReads + Reduction(delta, +)]`. The surrounding
    /// brackets are optional; components are separated by `+` at the top
    /// level (`+` inside `Reduction(...)` parentheses is the operator).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let s = s.strip_prefix('[').unwrap_or(s);
        let s = s.strip_suffix(']').unwrap_or(s);

        // Split on top-level `+` (depth 0 w.r.t. parentheses).
        let mut parts = Vec::new();
        let mut depth = 0usize;
        let mut start = 0usize;
        for (i, c) in s.char_indices() {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth = depth
                        .checked_sub(1)
                        .ok_or_else(|| ParseAnnotationError::new("unbalanced parentheses"))?;
                }
                '+' if depth == 0 => {
                    parts.push(&s[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
        if depth != 0 {
            return Err(ParseAnnotationError::new("unbalanced parentheses"));
        }
        parts.push(&s[start..]);

        let mut policy = None;
        let mut reductions = Vec::new();
        for part in parts {
            let part = part.trim();
            if part.is_empty() {
                return Err(ParseAnnotationError::new("empty component"));
            }
            if part.eq_ignore_ascii_case("OutOfOrder") {
                if policy.replace(Policy::OutOfOrder).is_some() {
                    return Err(ParseAnnotationError::new("multiple policies"));
                }
            } else if part.eq_ignore_ascii_case("StaleReads") {
                if policy.replace(Policy::StaleReads).is_some() {
                    return Err(ParseAnnotationError::new("multiple policies"));
                }
            } else if let Some(rest) = part
                .strip_prefix("Reduction")
                .map(str::trim_start)
                .and_then(|r| r.strip_prefix('('))
                .and_then(|r| r.strip_suffix(')'))
            {
                let (var, op) = rest.rsplit_once(',').ok_or_else(|| {
                    ParseAnnotationError::new(format!("malformed reduction `{part}`"))
                })?;
                let var = var.trim();
                if var.is_empty() {
                    return Err(ParseAnnotationError::new("empty reduction variable"));
                }
                reductions.push(Reduction {
                    var: var.to_owned(),
                    op: op.parse()?,
                });
            } else {
                return Err(ParseAnnotationError::new(format!(
                    "unrecognized component `{part}`"
                )));
            }
        }
        let policy =
            policy.ok_or_else(|| ParseAnnotationError::new("missing parallelism policy"))?;
        Ok(Annotation { policy, reductions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bare_policy() {
        let a: Annotation = "[StaleReads]".parse().unwrap();
        assert_eq!(a, Annotation::new(Policy::StaleReads));
        let a: Annotation = "OutOfOrder".parse().unwrap();
        assert_eq!(a.policy, Policy::OutOfOrder);
    }

    #[test]
    fn parses_policy_with_reductions() {
        let a: Annotation = "[OutOfOrder + Reduction(delta, +)]".parse().unwrap();
        assert_eq!(a.policy, Policy::OutOfOrder);
        assert_eq!(
            a.reductions,
            vec![Reduction {
                var: "delta".into(),
                op: RedOp::Add
            }]
        );

        let a: Annotation = "[StaleReads + Reduction(err, max) + Reduction(n, *)]"
            .parse()
            .unwrap();
        assert_eq!(a.reductions.len(), 2);
        assert_eq!(a.reductions[1].op, RedOp::Mul);
    }

    #[test]
    fn roundtrips_through_display() {
        let cases = [
            Annotation::new(Policy::StaleReads),
            Annotation::new(Policy::OutOfOrder).with_reduction("delta", RedOp::Add),
            Annotation::new(Policy::StaleReads)
                .with_reduction("e", RedOp::Max)
                .with_reduction("f", RedOp::And),
        ];
        for a in cases {
            let reparsed: Annotation = a.to_string().parse().unwrap();
            assert_eq!(reparsed, a);
        }
    }

    #[test]
    fn parses_all_operators() {
        for (src, op) in [
            ("+", RedOp::Add),
            ("*", RedOp::Mul),
            ("×", RedOp::Mul),
            ("max", RedOp::Max),
            ("min", RedOp::Min),
            ("and", RedOp::And),
            ("or", RedOp::Or),
            ("∧", RedOp::And),
            ("∨", RedOp::Or),
        ] {
            let a: Annotation = format!("[StaleReads + Reduction(v, {src})]")
                .parse()
                .unwrap();
            assert_eq!(a.reductions[0].op, op, "operator {src}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "[]",
            "[Bogus]",
            "[StaleReads + OutOfOrder]",
            "[StaleReads + Reduction(x, ?)]",
            "[StaleReads + Reduction(x +)]",
            "[Reduction(x, +)]",
            "[StaleReads + Reduction(, +)]",
            "[StaleReads + Reduction(x, +]",
        ] {
            assert!(bad.parse::<Annotation>().is_err(), "should reject `{bad}`");
        }
    }

    #[test]
    fn error_displays_reason() {
        let err = "[Bogus]".parse::<Annotation>().unwrap_err();
        assert!(err.to_string().contains("Bogus"));
    }
}
