//! Scalar loop variables that may or may not be reduction-annotated.
//!
//! The inference engine tries annotations with and without reductions on
//! the *same* loop body. A [`BoundScalar`] gives the body one way to write
//! `delta += x`: if the active `ReductionPolicy` covers the variable, the
//! update goes to the private reduction copy; otherwise it is an ordinary
//! instrumented heap read-modify-write — which creates exactly the
//! loop-carried dependence and commit conflicts the unannotated program
//! has.

use crate::annotation::RedOp;
use crate::body::TxCtx;
use crate::params::ExecParams;
use crate::reduction::{RedVal, RedVarId, RedVars};
use alter_heap::{Heap, ObjData, ObjId};

/// A named scalar bound to both a heap cell and a reduction-variable slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoundScalar {
    red: RedVarId,
    obj: ObjId,
    is_float: bool,
}

impl BoundScalar {
    /// Declares the scalar in both worlds with the same initial value.
    pub fn declare(
        heap: &mut Heap,
        reds: &mut RedVars,
        name: impl Into<String>,
        init: RedVal,
    ) -> Self {
        let (obj, is_float) = match init {
            RedVal::F64(v) => (heap.alloc(ObjData::scalar_f64(v)), true),
            RedVal::I64(v) => (heap.alloc(ObjData::scalar_i64(v)), false),
        };
        let red = reds.declare(name, init);
        BoundScalar { red, obj, is_float }
    }

    /// The reduction-variable handle (for building `ReductionPolicy`
    /// entries).
    pub fn red_var(&self) -> RedVarId {
        self.red
    }

    /// The heap cell backing the unannotated configuration.
    pub fn object(&self) -> ObjId {
        self.obj
    }

    fn heap_value(&self, ctx: &mut TxCtx<'_>) -> RedVal {
        if self.is_float {
            RedVal::F64(ctx.tx.read_f64(self.obj, 0))
        } else {
            RedVal::I64(ctx.tx.read_i64(self.obj, 0))
        }
    }

    fn heap_store(&self, ctx: &mut TxCtx<'_>, v: RedVal) {
        match v {
            RedVal::F64(x) => ctx.tx.write_f64(self.obj, 0, x),
            RedVal::I64(x) => ctx.tx.write_i64(self.obj, 0, x),
        }
    }

    /// Applies the source update `self op= v` inside a transaction:
    /// through the reduction machinery when annotated, through the heap
    /// otherwise.
    pub fn apply(&self, ctx: &mut TxCtx<'_>, op: RedOp, v: impl Into<RedVal>) {
        let v = v.into();
        if ctx.red_covers(self.red) {
            ctx.red_apply(self.red, op, v);
        } else {
            if let Some(log) = ctx.op_log.as_mut() {
                log.push((self.obj, op));
            }
            let cur = self.heap_value(ctx);
            self.heap_store(ctx, cur.apply(op, v));
        }
    }

    /// Source update `self += v`.
    pub fn add(&self, ctx: &mut TxCtx<'_>, v: impl Into<RedVal>) {
        self.apply(ctx, RedOp::Add, v);
    }

    /// Source update `self = max(self, v)`.
    pub fn max(&self, ctx: &mut TxCtx<'_>, v: impl Into<RedVal>) {
        self.apply(ctx, RedOp::Max, v);
    }

    /// Source update `self = min(self, v)`.
    pub fn min(&self, ctx: &mut TxCtx<'_>, v: impl Into<RedVal>) {
        self.apply(ctx, RedOp::Min, v);
    }

    /// Sets the value from sequential code (both copies), e.g.
    /// `delta = 0.0` at the top of a convergence loop.
    pub fn seq_set(&self, heap: &mut Heap, reds: &mut RedVars, v: RedVal) {
        match v {
            RedVal::F64(x) => heap.get_mut(self.obj).f64s_mut()[0] = x,
            RedVal::I64(x) => heap.get_mut(self.obj).i64s_mut()[0] = x,
        }
        reds.set(self.red, v);
    }

    /// Reads the value from sequential code after a parallel loop run under
    /// `params`. The registry copy is authoritative exactly when *this*
    /// variable is in the run's `ReductionPolicy`; otherwise the heap copy
    /// is, whatever else the loop reduced. The other copy is synchronized
    /// as a side effect.
    pub fn seq_get_sync(&self, heap: &mut Heap, reds: &mut RedVars, params: &ExecParams) -> RedVal {
        let v = if params.reductions.iter().any(|&(var, _)| var == self.red) {
            reds.get(self.red)
        } else if self.is_float {
            RedVal::F64(heap.get(self.obj).f64s()[0])
        } else {
            RedVal::I64(heap.get(self.obj).i64s()[0])
        };
        self.seq_set(heap, reds, v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{Driver, LoopBuilder};

    #[test]
    fn annotated_updates_flow_through_reductions() {
        let mut heap = Heap::new();
        let mut reds = RedVars::new();
        let delta = BoundScalar::declare(&mut heap, &mut reds, "delta", RedVal::F64(0.0));
        let mut params = ExecParams::new(4, 4);
        params.reductions = vec![(delta.red_var(), RedOp::Add)];
        let stats = LoopBuilder::new(&params)
            .range(0, 64)
            .reductions(&mut reds)
            .run(&mut heap, Driver::sequential(), |ctx, _| {
                delta.add(ctx, 1.0);
            })
            .unwrap();
        assert_eq!(stats.retries(), 0, "reduction updates never conflict");
        let v = delta.seq_get_sync(&mut heap, &mut reds, &params);
        assert_eq!(v.as_f64(), 64.0);
        // Heap copy synchronized.
        assert_eq!(heap.get(delta.object()).f64s()[0], 64.0);
    }

    #[test]
    fn unannotated_updates_flow_through_heap_and_conflict() {
        let mut heap = Heap::new();
        let mut reds = RedVars::new();
        let delta = BoundScalar::declare(&mut heap, &mut reds, "delta", RedVal::F64(0.0));
        let params = ExecParams::new(4, 4); // WAW, no reductions
        let mut reds2 = reds.clone();
        let stats = LoopBuilder::new(&params)
            .range(0, 64)
            .reductions(&mut reds2)
            .run(&mut heap, Driver::sequential(), |ctx, _| {
                delta.add(ctx, 1.0);
            })
            .unwrap();
        assert!(stats.retries() > 0, "heap RMW on a shared scalar conflicts");
        let v = delta.seq_get_sync(&mut heap, &mut reds, &params);
        assert_eq!(v.as_f64(), 64.0, "but the result is still exact");
    }

    #[test]
    fn a_loop_reducing_another_variable_reads_this_ones_heap_copy() {
        let mut heap = Heap::new();
        let mut reds = RedVars::new();
        let sum = BoundScalar::declare(&mut heap, &mut reds, "sum", RedVal::I64(0));
        let count = BoundScalar::declare(&mut heap, &mut reds, "count", RedVal::I64(0));
        let mut params = ExecParams::new(1, 4);
        params.reductions = vec![(sum.red_var(), RedOp::Add)];
        LoopBuilder::new(&params)
            .range(0, 8)
            .reductions(&mut reds)
            .run(&mut heap, Driver::sequential(), |ctx, i| {
                sum.add(ctx, i as i64);
                count.add(ctx, 1i64);
            })
            .unwrap();
        // `count` was updated through the heap; its registry copy is stale.
        assert_eq!(reds.get(count.red_var()).as_i64(), 0);
        assert_eq!(
            count.seq_get_sync(&mut heap, &mut reds, &params).as_i64(),
            8
        );
        assert_eq!(reds.get(count.red_var()).as_i64(), 8, "registry synced");
        assert_eq!(sum.seq_get_sync(&mut heap, &mut reds, &params).as_i64(), 28);
    }

    #[test]
    fn seq_set_and_int_scalars() {
        let mut heap = Heap::new();
        let mut reds = RedVars::new();
        let n = BoundScalar::declare(&mut heap, &mut reds, "n", RedVal::I64(5));
        n.seq_set(&mut heap, &mut reds, RedVal::I64(9));
        assert_eq!(heap.get(n.object()).i64s()[0], 9);
        assert_eq!(reds.get(n.red_var()).as_i64(), 9);
        let params = ExecParams::new(1, 1);
        assert_eq!(n.seq_get_sync(&mut heap, &mut reds, &params).as_i64(), 9);
    }
}
