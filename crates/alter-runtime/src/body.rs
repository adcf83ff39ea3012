//! Loop bodies and the per-transaction context they execute in.

use crate::annotation::RedOp;
use crate::reduction::{RedLocals, RedVal, RedVarId};
use alter_heap::{ObjId, Tx};

/// Everything a loop body may touch during one transaction: the isolated
/// heap view and the update-only reduction accumulators.
pub struct TxCtx<'s> {
    /// Instrumented, isolated heap access.
    pub tx: Tx<'s>,
    pub(crate) reds: RedLocals,
    /// When set (only by the dependence-summary replay), `BoundScalar`
    /// heap-path updates log `(object, operator)` here so the analyzer can
    /// tell reductive accesses apart from plain reads/writes.
    pub(crate) op_log: Option<Vec<(ObjId, RedOp)>>,
}

impl<'s> TxCtx<'s> {
    pub(crate) fn new(tx: Tx<'s>, reds: RedLocals) -> Self {
        TxCtx {
            tx,
            reds,
            op_log: None,
        }
    }

    /// Applies the source update `var op= v` to the private copy of a
    /// reduction variable. The operator here is the one written in the
    /// program; the *annotation's* operator is applied at merge time and
    /// need not agree (an `[… + Reduction(err, +)]` annotation on a loop
    /// that computes `err max= v` is the paper's SG3D example).
    ///
    /// There is deliberately no read accessor: the annotation contract
    /// prohibits reading reduction variables inside the loop.
    ///
    /// # Panics
    ///
    /// Panics if `var` is not in the active policy; access such variables
    /// through the heap instead (see `BoundScalar`).
    #[inline]
    pub fn red_apply(&mut self, var: RedVarId, source_op: RedOp, v: impl Into<RedVal>) {
        self.reds.apply_source(var, source_op, v.into());
    }

    /// Source update `var += v`.
    #[inline]
    pub fn red_add(&mut self, var: RedVarId, v: impl Into<RedVal>) {
        self.red_apply(var, RedOp::Add, v);
    }

    /// Whether `var` is covered by the active reduction policy (used by
    /// workloads that fall back to heap read-modify-write when a variable
    /// is not annotated).
    #[inline]
    pub fn red_covers(&self, var: RedVarId) -> bool {
        self.reds.covers(var)
    }

    pub(crate) fn into_parts(self) -> (Tx<'s>, RedLocals) {
        (self.tx, self.reds)
    }
}

impl std::fmt::Debug for TxCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxCtx").field("tx", &self.tx).finish()
    }
}

/// A loop body: called once per iteration with the transaction context and
/// the iteration identifier.
///
/// Bodies must be deterministic functions of the snapshot contents and the
/// iteration id; any hidden state would break ALTER's determinism guarantee
/// (§4.3). They must also be `Sync`, because under the threaded executor
/// one body value is shared by all workers.
pub trait LoopBody: Sync {
    /// Executes iteration `iter`.
    fn run_iter(&self, ctx: &mut TxCtx<'_>, iter: u64);
}

impl<F> LoopBody for F
where
    F: Fn(&mut TxCtx<'_>, u64) + Sync,
{
    fn run_iter(&self, ctx: &mut TxCtx<'_>, iter: u64) {
        self(ctx, iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::RedOp;
    use crate::reduction::RedVars;
    use alter_heap::{Heap, IdReservation, ObjData, TrackMode};

    #[test]
    fn red_update_accumulates_and_covers_reports() {
        let mut heap = Heap::new();
        let obj = heap.alloc(ObjData::scalar_f64(0.0));
        let mut rv = RedVars::new();
        let d = rv.declare("d", RedVal::F64(0.0));
        let other = rv.declare("other", RedVal::F64(0.0));

        let snap = heap.snapshot();
        let tx = Tx::new(
            &snap,
            TrackMode::WritesOnly,
            IdReservation::new(heap.high_water(), 0, 1, 16),
            u64::MAX,
        );
        let locals = RedLocals::for_policy(&[(d, RedOp::Add)], &rv);
        let mut ctx = TxCtx::new(tx, locals);

        assert!(ctx.red_covers(d));
        assert!(!ctx.red_covers(other));
        ctx.red_add(d, 2.0);
        ctx.red_add(d, 3.0);
        ctx.tx.write_f64(obj, 0, 1.0);

        let (_tx, locals) = ctx.into_parts();
        let deltas = locals.into_deltas();
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].old.as_f64(), 0.0);
        assert_eq!(deltas[0].new.as_f64(), 5.0);
    }

    #[test]
    fn closures_implement_loop_body() {
        fn assert_body<B: LoopBody>(_: &B) {}
        let body = |_ctx: &mut TxCtx<'_>, _i: u64| {};
        assert_body(&body);
    }
}
