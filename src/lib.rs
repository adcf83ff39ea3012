//! # alter — facade crate
//!
//! Re-exports the whole ALTER system (PLDI 2011 reproduction) behind one
//! dependency. See the individual crates for details:
//!
//! * [`heap`] — versioned object heap, snapshots, COW transactions.
//! * [`trace`] — deterministic structured tracing: events, recorders,
//!   metrics, JSONL export, flight-recorder rendering, trace hashing.
//! * [`runtime`] — annotation language, conflict policies, reductions, and
//!   the deterministic fork-join loop executor.
//! * [`collections`] — `AlterVec` / `AlterList` / `AlterHashSet` collection
//!   classes whose iterators act as induction variables.
//! * [`sim`] — deterministic virtual-time multicore simulator (substitute
//!   for the paper's 8-core Xeon; see DESIGN.md).
//! * [`analyze`] — dependence/annotation soundness analyzer: annotation
//!   linting, inference pruning verdicts, and
//!   the trace isolation sanitizer behind `alter-cli lint`.
//! * [`infer`] — test-driven annotation inference.
//! * [`workloads`] — the 12 evaluation loops from the paper.
//!
//! ## Quickstart
//!
//! ```
//! use alter::runtime::{Annotation, ExecParams, LoopBuilder, Driver};
//! use alter::heap::{Heap, ObjData};
//!
//! // A loop with a breakable dependence: x[i] = f(all of x).
//! let mut heap = Heap::new();
//! let xs = heap.alloc(ObjData::F64(vec![1.0; 8]));
//!
//! let ann: Annotation = "[StaleReads]".parse()?;
//! let params = ExecParams::from_annotation(&ann, 2, 2);
//! let stats = LoopBuilder::new(&params)
//!     .range(0, 8)
//!     .run(&mut heap, Driver::sequential(), |ctx, i| {
//!         let n = ctx.tx.len(xs);
//!         let sum = ctx.tx.with_f64s(xs, 0, n, |s| s.iter().sum::<f64>());
//!         ctx.tx.write_f64(xs, i as usize, sum / n as f64);
//!     })?;
//! assert_eq!(stats.committed, 4); // 8 iterations / chunk factor 2
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use alter_analyze as analyze;
pub use alter_collections as collections;
pub use alter_heap as heap;
pub use alter_infer as infer;
pub use alter_runtime as runtime;
pub use alter_sim as sim;
pub use alter_trace as trace;
pub use alter_workloads as workloads;
