//! # alter-collections — ALTER collection classes
//!
//! The paper's runtime ships "a library of standard data structures that
//! are commonly iterated over" (§4.1): replacing a plain container with its
//! ALTER equivalent makes the loop's iterator recognizable as an induction
//! variable and makes element accesses instrumented, isolated heap
//! operations. This crate provides:
//!
//! * [`AlterVec`] — ALTERVector: a typed fixed-length array (one heap
//!   allocation);
//! * [`AlterList`] — ALTERList: a doubly linked list whose node sequence
//!   can be captured as an iteration space (used by AggloClust and
//!   BarnesHut in the evaluation);
//! * [`AlterHashSet`] — a bucketized hash set (the shared structure behind
//!   the Genome benchmark).
//!
//! All three "can also safely be used in a sequential program" (§4.1): each
//! offers `seq_*` accessors that work directly on the committed heap.
//!
//! ```
//! use alter_heap::Heap;
//! use alter_collections::AlterList;
//! use alter_runtime::{ExecParams, LoopBuilder, Driver};
//!
//! let mut heap = Heap::new();
//! let list: AlterList<f64> = AlterList::from_iter(&mut heap, (0..10).map(f64::from));
//!
//! // Parallel loop over a linked structure: capture the node ids, then
//! // treat them as the iteration space.
//! let params = ExecParams::new(4, 2);
//! LoopBuilder::new(&params)
//!     .items(list.node_ids(&heap))
//!     .run(&mut heap, Driver::sequential(), |ctx, raw| {
//!         let node = alter_heap::ObjId::from_index(raw as u32);
//!         let v = list.value(ctx, node);
//!         list.set_value(ctx, node, v + 1.0);
//!     })?;
//! assert_eq!(list.seq_values(&heap)[3], 4.0);
//! # Ok::<(), alter_runtime::RunError>(())
//! ```

#![warn(missing_docs)]

mod element;
mod hashset;
mod list;
mod vec;

pub use element::Element;
pub use hashset::AlterHashSet;
pub use list::AlterList;
pub use vec::AlterVec;
