//! # alter-runtime — the ALTER runtime system
//!
//! This crate is the paper's primary contribution (Udupa, Rajan, Thies,
//! *ALTER: Exploiting Breakable Dependences for Parallelization*, PLDI
//! 2011): a runtime that parallelizes loops by treating iterations as
//! transactions on isolated memory snapshots and *breaking* selected
//! dependences at commit time.
//!
//! * [`Annotation`] — the annotation language of §3
//!   (`[StaleReads + Reduction(delta, +)]`, …).
//! * [`ExecParams`] — the four runtime parameters of §4.2
//!   ([`ConflictPolicy`], [`CommitOrder`], the reduction policy, and the
//!   chunk factor) plus the theorem mappings
//!   ([`ExecParams::from_annotation`], [`ExecParams::tls`],
//!   [`ExecParams::doall`]).
//! * [`run_loop`] / [`LoopBuilder`] — deterministic lock-step fork-join
//!   execution of an annotated loop (§4.1, Figure 4); a [`Session`] runs
//!   several loops on one set of worker lanes.
//! * [`RedVars`] / [`RedVal`] — reduction variables and the merge algebra
//!   of the `ReductionPolicy`.
//!
//! ## Example: breaking a dependence chain with `StaleReads`
//!
//! ```
//! use alter_runtime::{Annotation, ExecParams, LoopBuilder, Driver};
//! use alter_heap::{Heap, ObjData};
//!
//! let mut heap = Heap::new();
//! let xs = heap.alloc(ObjData::zeros_f64(64));
//!
//! // x[i] = x[i-1] + 1 has a loop-carried RAW dependence. Snapshot
//! // isolation runs it in parallel anyway: writes are disjoint, reads may
//! // be stale.
//! let ann: Annotation = "[StaleReads]".parse()?;
//! let params = ExecParams::from_annotation(&ann, 4, 8);
//! let stats = LoopBuilder::new(&params)
//!     .range(1, 64)
//!     .run(&mut heap, Driver::threaded(), |ctx, i| {
//!         let prev = ctx.tx.read_f64(xs, i as usize - 1);
//!         ctx.tx.write_f64(xs, i as usize, prev + 1.0);
//!     })?;
//! assert_eq!(stats.retries(), 0); // no WAW conflicts
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod annotation;
mod body;
mod dep;
mod engine;
mod executor;
mod params;
mod pool;
pub mod quiet;
mod reduction;
pub mod replay;
mod space;
mod var;

pub use annotation::{Annotation, ParseAnnotationError, Policy, RedOp, Reduction};
pub use body::{LoopBody, TxCtx};
pub use dep::{
    summarize_dependences, DepEdge, DepKind, DepReport, IterAccess, LocationStats, LoopSummary,
};
pub use engine::{
    ConflictDetail, NullObserver, PhaseCosts, RoundObserver, RoundReport, RunError, RunStats,
    TaskReport,
};
pub use executor::{run_loop, run_loop_observed, Driver, LoopBuilder, Session};
pub use params::{CommitOrder, ConflictPolicy, ExecParams};
pub use pool::{TicketStream, WorkerPool};
pub use reduction::{RedDelta, RedLocals, RedVal, RedVarId, RedVars};
pub use replay::{diverge_bisect, Divergence, ReplayOutcome, SetDelta};
pub use space::{IterSpace, RangeSpace, SeqSpace};
pub use var::BoundScalar;
