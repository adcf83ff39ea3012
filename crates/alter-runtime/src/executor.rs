//! Public entry points for running annotated loops.

use crate::engine::{run_loop_engine, Lanes, NullObserver, RoundObserver, RunError, RunStats};
use crate::params::ExecParams;
use crate::reduction::RedVars;
use crate::space::{IterSpace, RangeSpace, SeqSpace};
use alter_heap::Heap;
use std::sync::Arc;

/// How transactions of a round are executed.
///
/// Both drivers produce *identical* results — rounds, retry schedules,
/// committed state, statistics — because all scheduling decisions are made
/// deterministically between rounds (paper §4.3). The threaded driver runs
/// each round's transactions on real OS threads; the sequential driver runs
/// them one after another on the calling thread (useful for debugging, for
/// the virtual-time simulator, and on single-core machines).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Driver {
    threaded: bool,
}

impl Driver {
    /// Execute each round's transactions sequentially.
    pub fn sequential() -> Self {
        Driver { threaded: false }
    }

    /// Execute each round's transactions on OS threads.
    pub fn threaded() -> Self {
        Driver { threaded: true }
    }

    /// Whether this driver uses threads.
    pub fn is_threaded(self) -> bool {
        self.threaded
    }
}

impl Default for Driver {
    fn default() -> Self {
        Driver::sequential()
    }
}

/// One run of a program's annotated loops under one set of parameters and
/// one driver — the paper's N workers, forked once per program and fed
/// every loop (§4.1). Under the threaded driver at two or more workers the
/// session spawns its `workers` lanes when it opens ([`Session::open`]) and
/// every [`Session::run_loop`] hands its rounds to those lanes; closing the
/// session ends them. The sequential driver and a one-worker session spawn
/// nothing.
///
/// A loop body is handed to the lanes, which outlive the loop, so it may
/// borrow only what outlives the session (`'env`) and owns whatever it
/// needs of the state that changes between loops.
///
/// ```
/// use alter_runtime::{Driver, ExecParams, NullObserver, RangeSpace, RedVars, Session, TxCtx};
/// use alter_heap::{Heap, ObjData};
///
/// let mut heap = Heap::new();
/// let mut reds = RedVars::new();
/// let xs = heap.alloc(ObjData::zeros_f64(8));
/// Session::open(ExecParams::new(2, 2), Driver::threaded(), |mut session| {
///     for pass in 1..=3 {
///         let step = pass as f64; // owned by the body: `pass` changes
///         let body = move |ctx: &mut TxCtx<'_>, i: u64| {
///             let x = ctx.tx.read_f64(xs, i as usize);
///             ctx.tx.write_f64(xs, i as usize, x + step);
///         };
///         let space = &mut RangeSpace::new(0, 8);
///         session.run_loop(&mut heap, &mut reds, space, body, &mut NullObserver)?;
///     }
///     Ok::<(), alter_runtime::RunError>(())
/// })?;
/// assert_eq!(heap.get(xs).f64s(), &[6.0; 8]);
/// # Ok::<(), alter_runtime::RunError>(())
/// ```
pub struct Session<'env> {
    params: Arc<ExecParams>,
    lanes: Option<Lanes<'env>>,
}

impl<'env> Session<'env> {
    /// Opens a session of `params` under `driver` and runs `run` with it.
    /// The lanes, if any, are spawned here and joined before this returns:
    /// `run` ending — finishing with the session or dropping it, unwinding
    /// included — closes their job channels, so the join finds every lane
    /// draining out.
    pub fn open<T>(params: ExecParams, driver: Driver, run: impl FnOnce(Session<'env>) -> T) -> T {
        let params = Arc::new(params);
        if !driver.is_threaded() || params.workers <= 1 {
            return run(Session {
                params,
                lanes: None,
            });
        }
        std::thread::scope(|scope| {
            let lanes = Some(Lanes::new(scope, params.workers));
            run(Session { params, lanes })
        })
    }

    /// The parameters every loop of the session runs under.
    pub fn params(&self) -> &ExecParams {
        &self.params
    }

    /// Runs one loop over `space`, reporting every round to `observer`
    /// (the hook the virtual-time simulator uses).
    ///
    /// `reds` holds the program's reduction-capable scalar variables; pass
    /// a fresh empty registry if the loop has none.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] if a body panics ([`RunError::Crash`]), a
    /// transaction exceeds the tracked-memory budget
    /// ([`RunError::OutOfMemory`]), or the total work budget is exceeded
    /// ([`RunError::WorkBudgetExceeded`]). The session stays usable.
    pub fn run_loop<F>(
        &mut self,
        heap: &mut Heap,
        reds: &mut RedVars,
        space: &mut dyn IterSpace,
        body: F,
        observer: &mut dyn RoundObserver,
    ) -> Result<RunStats, RunError>
    where
        F: Fn(&mut crate::TxCtx<'_>, u64) + Send + Sync + 'env,
    {
        let lanes = self.lanes.as_mut();
        run_loop_engine(heap, reds, space, &self.params, lanes, body, observer)
    }
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("params", &self.params.describe())
            .field("lanes", &self.lanes.is_some())
            .finish()
    }
}

/// Runs a loop over `space` under `params`: a one-loop [`Session`].
///
/// `reds` holds the program's reduction-capable scalar variables; pass a
/// fresh empty registry if the loop has none.
///
/// # Errors
///
/// As [`Session::run_loop`].
pub fn run_loop<F>(
    heap: &mut Heap,
    reds: &mut RedVars,
    space: &mut dyn IterSpace,
    params: &ExecParams,
    driver: Driver,
    body: F,
) -> Result<RunStats, RunError>
where
    F: Fn(&mut crate::TxCtx<'_>, u64) + Send + Sync,
{
    run_loop_observed(heap, reds, space, params, driver, body, &mut NullObserver)
}

/// Like [`run_loop`], additionally reporting every round to `observer`
/// (the hook the virtual-time simulator uses).
///
/// # Errors
///
/// Same as [`run_loop`].
pub fn run_loop_observed<F>(
    heap: &mut Heap,
    reds: &mut RedVars,
    space: &mut dyn IterSpace,
    params: &ExecParams,
    driver: Driver,
    body: F,
    observer: &mut dyn RoundObserver,
) -> Result<RunStats, RunError>
where
    F: Fn(&mut crate::TxCtx<'_>, u64) + Send + Sync,
{
    Session::open(params.clone(), driver, |mut session| {
        session.run_loop(heap, reds, space, body, observer)
    })
}

enum BuilderSpace {
    Range(u64, u64),
    Seq(Vec<u64>),
}

/// Convenience builder for the common cases of [`run_loop`].
///
/// ```
/// use alter_runtime::{ExecParams, LoopBuilder, Driver};
/// use alter_heap::{Heap, ObjData};
///
/// let mut heap = Heap::new();
/// let xs = heap.alloc(ObjData::zeros_f64(8));
/// let params = ExecParams::new(2, 2);
/// let stats = LoopBuilder::new(&params)
///     .range(0, 8)
///     .run(&mut heap, Driver::sequential(), |ctx, i| {
///         ctx.tx.write_f64(xs, i as usize, i as f64);
///     })?;
/// assert_eq!(stats.iterations, 8);
/// # Ok::<(), alter_runtime::RunError>(())
/// ```
pub struct LoopBuilder<'a> {
    params: &'a ExecParams,
    space: BuilderSpace,
    reds: Option<&'a mut RedVars>,
    observer: Option<&'a mut dyn RoundObserver>,
}

impl<'a> LoopBuilder<'a> {
    /// Starts a builder for the given parameters (empty iteration space
    /// until [`LoopBuilder::range`] or [`LoopBuilder::items`] is called).
    pub fn new(params: &'a ExecParams) -> Self {
        LoopBuilder {
            params,
            space: BuilderSpace::Range(0, 0),
            reds: None,
            observer: None,
        }
    }

    /// Iterate over the counted range `lo..hi`.
    pub fn range(mut self, lo: u64, hi: u64) -> Self {
        self.space = BuilderSpace::Range(lo, hi);
        self
    }

    /// Iterate over an explicit sequence of iteration identifiers.
    pub fn items(mut self, items: Vec<u64>) -> Self {
        self.space = BuilderSpace::Seq(items);
        self
    }

    /// Supplies the reduction-variable registry the loop's
    /// `ReductionPolicy` refers to.
    pub fn reductions(mut self, reds: &'a mut RedVars) -> Self {
        self.reds = Some(reds);
        self
    }

    /// Attaches a round observer.
    pub fn observer(mut self, observer: &'a mut dyn RoundObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Runs the loop.
    ///
    /// # Errors
    ///
    /// Same as [`run_loop`].
    pub fn run<F>(self, heap: &mut Heap, driver: Driver, body: F) -> Result<RunStats, RunError>
    where
        F: Fn(&mut crate::TxCtx<'_>, u64) + Send + Sync,
    {
        let mut default_reds = RedVars::new();
        let reds = self.reds.unwrap_or(&mut default_reds);
        let mut null = NullObserver;
        let observer: &mut dyn RoundObserver = match self.observer {
            Some(o) => o,
            None => &mut null,
        };
        match self.space {
            BuilderSpace::Range(lo, hi) => run_loop_observed(
                heap,
                reds,
                &mut RangeSpace::new(lo, hi),
                self.params,
                driver,
                body,
                observer,
            ),
            BuilderSpace::Seq(items) => run_loop_observed(
                heap,
                reds,
                &mut SeqSpace::new(items),
                self.params,
                driver,
                body,
                observer,
            ),
        }
    }
}

impl std::fmt::Debug for LoopBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopBuilder")
            .field("params", &self.params.describe())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::TxCtx;
    use alter_heap::ObjData;

    #[test]
    fn builder_runs_range_loops() {
        let mut heap = Heap::new();
        let xs = heap.alloc(ObjData::zeros_i64(6));
        let params = ExecParams::new(2, 3);
        let stats = LoopBuilder::new(&params)
            .range(0, 6)
            .run(&mut heap, Driver::sequential(), |ctx: &mut TxCtx<'_>, i| {
                ctx.tx.write_i64(xs, i as usize, i as i64 + 1);
            })
            .unwrap();
        assert_eq!(stats.iterations, 6);
        assert_eq!(heap.get(xs).i64s(), &[1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn builder_runs_item_loops() {
        let mut heap = Heap::new();
        let xs = heap.alloc(ObjData::zeros_i64(10));
        let params = ExecParams::new(2, 2);
        let stats = LoopBuilder::new(&params)
            .items(vec![9, 3, 5])
            .run(&mut heap, Driver::threaded(), |ctx: &mut TxCtx<'_>, i| {
                ctx.tx.write_i64(xs, i as usize, 7);
            })
            .unwrap();
        assert_eq!(stats.iterations, 3);
        assert_eq!(heap.get(xs).i64s()[9], 7);
        assert_eq!(heap.get(xs).i64s()[3], 7);
        assert_eq!(heap.get(xs).i64s()[5], 7);
        assert_eq!(heap.get(xs).i64s()[0], 0);
    }

    #[test]
    fn empty_builder_space_runs_zero_iterations() {
        let mut heap = Heap::new();
        let params = ExecParams::new(2, 2);
        let stats = LoopBuilder::new(&params)
            .run(&mut heap, Driver::sequential(), |_: &mut TxCtx<'_>, _| {
                unreachable!("no iterations")
            })
            .unwrap();
        assert_eq!(stats.iterations, 0);
        assert_eq!(stats.rounds, 0);
    }
}
