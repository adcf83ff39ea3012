//! # alter-sim — deterministic virtual-time multicore simulation
//!
//! The paper's evaluation runs on an 8-core Xeon. This reproduction may run
//! on a single core, where wall-clock speedup is physically impossible — so
//! speedup figures (Figures 6–13) are regenerated on a *simulated*
//! multicore. The loop is executed for real through the deterministic
//! runtime (results are identical to threaded execution by the determinism
//! guarantee, §4.3); a [`SimObserver`] watches each lock-step round and
//! charges virtual time under a [`CostModel`]:
//!
//! * execution: workers run concurrently, a round lasts as long as its
//!   slowest worker;
//! * instrumentation: tracked accesses pay per-operation costs — elided
//!   read tracking under WAW is exactly why StaleReads beats OutOfOrder;
//! * commit & validation: serialized in deterministic commit order;
//! * barrier & snapshot: fixed per-round overhead;
//! * optional shared-bandwidth ceiling for memory-bound kernels.
//!
//! All inputs are measured (op counts, set sizes, retry schedules), so the
//! *shape* of the paper's results — who wins, by what factor, where scaling
//! saturates — is driven by the same mechanisms as on real hardware. See
//! DESIGN.md for the substitution argument.
#![warn(missing_docs)]

mod cost;
mod sim;

pub use cost::CostModel;
pub use sim::{SimClock, SimObserver};
