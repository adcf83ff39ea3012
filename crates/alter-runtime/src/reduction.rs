//! Reduction variables and their merge algebra (paper §4.2, ReductionPolicy).
//!
//! Reduction variables live *outside* the transactional heap: the annotation
//! asserts that inside the loop every access to such a variable is an update
//! with the declared operator, and that nothing else reads it. The runtime
//! therefore gives loop bodies an update-only handle and merges per-
//! transaction contributions at commit time, in deterministic commit order:
//!
//! * idempotent ops (`max`, `min`, `∧`, `∨`): `Sc := Sc op new`;
//! * `+`: `Sc := Sc + (new − old)`; `×` analogously.
//!
//! Crucially, the loop body updates its private copy with the *source
//! program's* operator, while the *annotation's* operator is only applied
//! at merge time. The two need not agree: annotating SG3D's max-update
//! error with `+` still produces a valid (if slower-converging) execution,
//! exactly as §7.1 reports. [`RedLocals`] therefore tracks `(oldSt, newSt)`
//! per variable and [`RedVars::merge`] applies the paper's commit rules.

use crate::annotation::RedOp;
use std::fmt;

/// What a boolean operator on a float variable is: an invalid annotation.
const BOOL_ON_F64: &str = "type error: boolean reduction over f64 variable";

/// A typed reduction value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RedVal {
    /// Floating point.
    F64(f64),
    /// Integer. `∧`/`∨` treat the value as a boolean (`0`/non-zero).
    I64(i64),
}

impl RedVal {
    /// Applies `op` pointwise: `self op other`.
    ///
    /// # Panics
    ///
    /// Panics on type mismatch (mixing `F64` and `I64`) — inference treats
    /// this as a crash of the candidate annotation.
    pub fn apply(self, op: RedOp, other: RedVal) -> RedVal {
        match (self, other) {
            (RedVal::F64(a), RedVal::F64(b)) => RedVal::F64(match op {
                RedOp::Add => a + b,
                RedOp::Mul => a * b,
                RedOp::Max => a.max(b),
                RedOp::Min => a.min(b),
                RedOp::And | RedOp::Or => panic!("{BOOL_ON_F64}"),
            }),
            (RedVal::I64(a), RedVal::I64(b)) => RedVal::I64(match op {
                RedOp::Add => a.wrapping_add(b),
                RedOp::Mul => a.wrapping_mul(b),
                RedOp::Max => a.max(b),
                RedOp::Min => a.min(b),
                RedOp::And => i64::from(a != 0 && b != 0),
                RedOp::Or => i64::from(a != 0 || b != 0),
            }),
            (a, b) => panic!("type error: reduction over mixed types {a:?} and {b:?}"),
        }
    }

    /// The float payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is an integer.
    pub fn as_f64(self) -> f64 {
        match self {
            RedVal::F64(v) => v,
            RedVal::I64(_) => panic!("type error: expected f64 reduction value"),
        }
    }

    /// The integer payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is a float.
    pub fn as_i64(self) -> i64 {
        match self {
            RedVal::I64(v) => v,
            RedVal::F64(_) => panic!("type error: expected i64 reduction value"),
        }
    }
}

impl fmt::Display for RedVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RedVal::F64(v) => write!(f, "{v}"),
            RedVal::I64(v) => write!(f, "{v}"),
        }
    }
}

impl From<f64> for RedVal {
    fn from(v: f64) -> Self {
        RedVal::F64(v)
    }
}

impl From<i64> for RedVal {
    fn from(v: i64) -> Self {
        RedVal::I64(v)
    }
}

/// Handle to a declared reduction variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RedVarId(pub(crate) usize);

impl RedVarId {
    /// Index of the variable in its registry.
    pub fn index(self) -> usize {
        self.0
    }
}

/// The registry of scalar program variables that may be named by reduction
/// annotations. Sequential code reads and writes them freely between
/// parallel loops; inside an annotated loop they are update-only.
///
/// ```
/// use alter_runtime::{RedVal, RedVars};
/// let mut reds = RedVars::new();
/// let delta = reds.declare("delta", RedVal::F64(0.0));
/// assert_eq!(reds.lookup("delta"), Some(delta));
/// reds.set(delta, RedVal::F64(2.5));
/// assert_eq!(reds.get(delta).as_f64(), 2.5);
/// ```
#[derive(Clone, Debug, Default)]
pub struct RedVars {
    names: Vec<String>,
    vals: Vec<RedVal>,
}

impl RedVars {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a variable with an initial value and returns its handle.
    pub fn declare(&mut self, name: impl Into<String>, init: RedVal) -> RedVarId {
        self.names.push(name.into());
        self.vals.push(init);
        RedVarId(self.vals.len() - 1)
    }

    /// Current committed value.
    pub fn get(&self, var: RedVarId) -> RedVal {
        self.vals[var.0]
    }

    /// Sets the committed value (sequential code only — e.g. `delta = 0.0`
    /// at the top of a convergence loop).
    pub fn set(&mut self, var: RedVarId, v: RedVal) {
        self.vals[var.0] = v;
    }

    /// Declared name of `var`.
    pub fn name(&self, var: RedVarId) -> &str {
        &self.names[var.0]
    }

    /// Looks a variable up by name.
    pub fn lookup(&self, name: &str) -> Option<RedVarId> {
        self.names.iter().position(|n| n == name).map(RedVarId)
    }

    /// All declared handles, in declaration order.
    pub fn ids(&self) -> impl Iterator<Item = RedVarId> {
        (0..self.vals.len()).map(RedVarId)
    }

    /// The committed values, in declaration order — all a transaction
    /// needs of the registry.
    pub(crate) fn values(&self) -> &[RedVal] {
        &self.vals
    }

    /// Number of declared variables.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// Whether no variable is declared.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Checks that every `(variable, operator)` pair of a reduction
    /// policy can merge: a boolean operator on a float variable cannot. The
    /// engine checks this once, when a run starts, so that no commit's
    /// [`RedVars::merge`] fails; the error is the crash message.
    pub(crate) fn check_policy(&self, policy: &[(RedVarId, RedOp)]) -> Result<(), String> {
        let bool_on_f64 = |&(var, op): &(RedVarId, RedOp)| {
            matches!(
                (op, self.get(var)),
                (RedOp::And | RedOp::Or, RedVal::F64(_))
            )
        };
        if policy.iter().any(bool_on_f64) {
            Err(BOOL_ON_F64.to_owned())
        } else {
            Ok(())
        }
    }

    /// Merges one transaction's contribution into the committed value
    /// using the paper's commit rules (§4.2): for idempotent operators
    /// `Sc := Sc op newSt`; for `+`, `Sc := Sc + newSt − oldSt`; `×`
    /// analogously (`Sc := Sc × newSt ∕ oldSt`, with the exact-zero case
    /// resolved to `Sc := newSt` when `Sc = oldSt`).
    ///
    /// # Panics
    ///
    /// Panics on a boolean operator over a float variable, and on values
    /// of mixed types.
    pub fn merge(&mut self, d: &RedDelta) {
        let sc = self.vals[d.var.0];
        self.vals[d.var.0] = match d.op {
            RedOp::Max | RedOp::Min | RedOp::And | RedOp::Or => sc.apply(d.op, d.new),
            RedOp::Add => match (sc, d.old, d.new) {
                (RedVal::F64(s), RedVal::F64(o), RedVal::F64(n)) => RedVal::F64(s + (n - o)),
                (RedVal::I64(s), RedVal::I64(o), RedVal::I64(n)) => {
                    RedVal::I64(s.wrapping_add(n.wrapping_sub(o)))
                }
                _ => panic!("type error: reduction over mixed types"),
            },
            RedOp::Mul => match (sc, d.old, d.new) {
                (RedVal::F64(s), RedVal::F64(o), RedVal::F64(n)) => {
                    if o != 0.0 {
                        RedVal::F64(s * (n / o))
                    } else if s == o {
                        RedVal::F64(n)
                    } else {
                        RedVal::F64(f64::NAN)
                    }
                }
                (RedVal::I64(s), RedVal::I64(o), RedVal::I64(n)) => {
                    if o != 0 && n % o == 0 {
                        RedVal::I64(s.wrapping_mul(n / o))
                    } else if s == o {
                        RedVal::I64(n)
                    } else {
                        // Non-divisible integer ratio: the annotation is
                        // invalid for this program; poison the value so the
                        // validator rejects it.
                        RedVal::I64(i64::MIN)
                    }
                }
                _ => panic!("type error: reduction over mixed types"),
            },
        };
    }
}

/// One transaction's contribution to a reduction variable: the private
/// start value `oldSt` and current value `newSt` (paper §4.2 notation).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RedDelta {
    /// The variable.
    pub var: RedVarId,
    /// The *annotation's* merge operator.
    pub op: RedOp,
    /// Value of the private copy at transaction start.
    pub old: RedVal,
    /// Value of the private copy at transaction end.
    pub new: RedVal,
}

/// Per-transaction reduction state: a private copy of each variable named
/// in the active `ReductionPolicy`, updated with the source program's own
/// operators.
#[derive(Clone, Debug, Default)]
pub struct RedLocals {
    accs: Vec<RedDelta>,
}

impl RedLocals {
    /// Builds the private copies for the active reductions, initialized
    /// from the committed values (the transaction's `oldSt`).
    pub fn for_policy(policy: &[(RedVarId, RedOp)], committed: &RedVars) -> Self {
        Self::for_values(policy, committed.values(), Vec::new())
    }

    /// [`RedLocals::for_policy`] from the committed values alone
    /// ([`RedVars::values`]), which is what a round ships to its lanes,
    /// built in `spent`: an earlier transaction's deltas, whose contents are
    /// dropped and whose storage is reused.
    pub(crate) fn for_values(
        policy: &[(RedVarId, RedOp)],
        committed: &[RedVal],
        mut spent: Vec<RedDelta>,
    ) -> Self {
        spent.clear();
        spent.extend(policy.iter().map(|&(var, op)| {
            let v = committed[var.0];
            RedDelta {
                var,
                op,
                old: v,
                new: v,
            }
        }));
        RedLocals { accs: spent }
    }

    /// Applies the source-program update `var source_op= v` to the private
    /// copy. `source_op` is the operator written in the loop body; it may
    /// differ from the annotated merge operator.
    ///
    /// # Panics
    ///
    /// Panics if `var` is not covered by the active reduction policy — the
    /// annotation contract says such variables must be accessed through the
    /// heap instead.
    pub fn apply_source(&mut self, var: RedVarId, source_op: RedOp, v: RedVal) {
        let acc = self
            .accs
            .iter_mut()
            .find(|d| d.var == var)
            .unwrap_or_else(|| {
                panic!("reduction update to variable not in the active ReductionPolicy")
            });
        acc.new = acc.new.apply(source_op, v);
    }

    /// Whether `var` is covered by the active policy.
    pub fn covers(&self, var: RedVarId) -> bool {
        self.accs.iter().any(|d| d.var == var)
    }

    /// Extracts the contributions for the commit engine.
    pub fn into_deltas(self) -> Vec<RedDelta> {
        self.accs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boolean_ops_on_i64() {
        let t = RedVal::I64(5); // non-zero = true
        let f = RedVal::I64(0);
        assert_eq!(t.apply(RedOp::And, f).as_i64(), 0);
        assert_eq!(t.apply(RedOp::And, t).as_i64(), 1);
        assert_eq!(f.apply(RedOp::Or, t).as_i64(), 1);
        assert_eq!(f.apply(RedOp::Or, f).as_i64(), 0);
    }

    #[test]
    #[should_panic(expected = "type error")]
    fn boolean_op_on_f64_panics() {
        RedVal::F64(1.0).apply(RedOp::And, RedVal::F64(1.0));
    }

    #[test]
    #[should_panic(expected = "mixed types")]
    fn mixed_types_panic() {
        RedVal::F64(1.0).apply(RedOp::Add, RedVal::I64(1));
    }

    #[test]
    fn registry_declare_lookup_set() {
        let mut rv = RedVars::new();
        let a = rv.declare("delta", RedVal::F64(0.0));
        let b = rv.declare("count", RedVal::I64(3));
        assert_eq!(rv.len(), 2);
        assert_eq!(rv.lookup("count"), Some(b));
        assert_eq!(rv.lookup("nope"), None);
        assert_eq!(rv.name(a), "delta");
        rv.set(a, RedVal::F64(2.0));
        assert_eq!(rv.get(a).as_f64(), 2.0);
        assert_eq!(rv.ids().count(), 2);
    }

    #[test]
    fn delta_merge_equals_serial_fold_for_add() {
        // Two concurrent transactions each add some values starting from
        // the same committed oldSt; merging in commit order must equal the
        // serial sum.
        let mut rv = RedVars::new();
        let d = rv.declare("delta", RedVal::F64(10.0));
        let policy = vec![(d, RedOp::Add)];

        let mut t1 = RedLocals::for_policy(&policy, &rv);
        t1.apply_source(d, RedOp::Add, RedVal::F64(1.0));
        t1.apply_source(d, RedOp::Add, RedVal::F64(2.0));
        let mut t2 = RedLocals::for_policy(&policy, &rv);
        t2.apply_source(d, RedOp::Add, RedVal::F64(5.0));

        for locals in [t1, t2] {
            for delta in locals.into_deltas() {
                rv.merge(&delta);
            }
        }
        assert_eq!(rv.get(d).as_f64(), 18.0);
    }

    #[test]
    fn idempotent_merge_matches_paper_rule() {
        // Sc := Sc op newSt.
        let mut rv = RedVars::new();
        let e = rv.declare("err", RedVal::F64(0.5));
        let policy = vec![(e, RedOp::Max)];
        let mut t = RedLocals::for_policy(&policy, &rv);
        t.apply_source(e, RedOp::Max, RedVal::F64(0.1)); // below committed max
        for delta in t.into_deltas() {
            rv.merge(&delta);
        }
        assert_eq!(rv.get(e).as_f64(), 0.5);

        let mut t = RedLocals::for_policy(&policy, &rv);
        t.apply_source(e, RedOp::Max, RedVal::F64(0.9));
        for delta in t.into_deltas() {
            rv.merge(&delta);
        }
        assert_eq!(rv.get(e).as_f64(), 0.9);
    }

    #[test]
    fn mismatched_source_and_merge_ops_emulate_sg3d() {
        // The body computes `err max= v` but the annotation says `+`:
        // committed value overestimates the max but stays non-negative and
        // bounded — "also produces a valid output but convergence takes
        // much longer" (§7.1).
        let mut rv = RedVars::new();
        let e = rv.declare("err", RedVal::F64(0.0));
        let policy = vec![(e, RedOp::Add)]; // annotation op: +
        let mut t1 = RedLocals::for_policy(&policy, &rv);
        t1.apply_source(e, RedOp::Max, RedVal::F64(0.3));
        let mut t2 = RedLocals::for_policy(&policy, &rv);
        t2.apply_source(e, RedOp::Max, RedVal::F64(0.4));
        for locals in [t1, t2] {
            for d in locals.into_deltas() {
                rv.merge(&d);
            }
        }
        // Sum of per-transaction maxima, not the global max.
        assert_eq!(rv.get(e).as_f64(), 0.7);
    }

    #[test]
    fn mul_reduction_handles_zero_old_value() {
        // oldSt = 0 makes the literal Sc×new∕old rule ill-defined; the
        // Sc == oldSt case resolves to newSt.
        let mut rv = RedVars::new();
        let p = rv.declare("prod", RedVal::F64(0.0));
        let policy = vec![(p, RedOp::Mul)];
        let mut t = RedLocals::for_policy(&policy, &rv);
        t.apply_source(p, RedOp::Mul, RedVal::F64(4.0));
        for delta in t.into_deltas() {
            rv.merge(&delta);
        }
        assert_eq!(rv.get(p).as_f64(), 0.0, "0 × 4 stays 0");
    }

    #[test]
    fn mul_reduction_composes_ratios() {
        let mut rv = RedVars::new();
        let p = rv.declare("prod", RedVal::F64(2.0));
        let policy = vec![(p, RedOp::Mul)];
        let mut t1 = RedLocals::for_policy(&policy, &rv);
        t1.apply_source(p, RedOp::Mul, RedVal::F64(3.0));
        let mut t2 = RedLocals::for_policy(&policy, &rv);
        t2.apply_source(p, RedOp::Mul, RedVal::F64(5.0));
        for locals in [t1, t2] {
            for d in locals.into_deltas() {
                rv.merge(&d);
            }
        }
        assert_eq!(rv.get(p).as_f64(), 30.0, "2 × 3 × 5");
    }

    #[test]
    fn mul_merge_poisons_a_ratio_it_cannot_take() {
        // The body adds but the annotation says ×: the second committer's
        // ratio newSt ∕ oldSt is not exact, and Sc has moved off oldSt.
        let mut rv = RedVars::new();
        let n = rv.declare("n", RedVal::I64(4));
        let x = rv.declare("x", RedVal::F64(0.0));
        let policy = vec![(n, RedOp::Mul), (x, RedOp::Mul)];
        let mut t1 = RedLocals::for_policy(&policy, &rv);
        t1.apply_source(n, RedOp::Add, RedVal::I64(3));
        t1.apply_source(x, RedOp::Add, RedVal::F64(2.0));
        let mut t2 = RedLocals::for_policy(&policy, &rv);
        t2.apply_source(n, RedOp::Add, RedVal::I64(1));
        t2.apply_source(x, RedOp::Add, RedVal::F64(3.0));
        for d in t1.into_deltas() {
            rv.merge(&d);
        }
        // Sc = oldSt: the first committer's newSt is taken as is.
        assert_eq!((rv.get(n), rv.get(x)), (RedVal::I64(7), RedVal::F64(2.0)));
        for d in t2.into_deltas() {
            rv.merge(&d);
        }
        assert_eq!(rv.get(n), RedVal::I64(i64::MIN), "5 ∕ 4 is not an integer");
        assert!(rv.get(x).as_f64().is_nan(), "oldSt = 0 with Sc = 2");
    }

    #[test]
    #[should_panic(expected = "not in the active ReductionPolicy")]
    fn update_outside_policy_panics() {
        let mut rv = RedVars::new();
        let a = rv.declare("a", RedVal::F64(0.0));
        let b = rv.declare("b", RedVal::F64(0.0));
        let mut locals = RedLocals::for_policy(&[(a, RedOp::Add)], &rv);
        assert!(locals.covers(a));
        assert!(!locals.covers(b));
        locals.apply_source(b, RedOp::Add, RedVal::F64(1.0));
    }

    #[test]
    fn conversions() {
        assert_eq!(RedVal::from(2.5).as_f64(), 2.5);
        assert_eq!(RedVal::from(7i64).as_i64(), 7);
        assert_eq!(RedVal::F64(1.5).to_string(), "1.5");
    }
}
