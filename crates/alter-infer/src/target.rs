//! The interface between the inference engine and an instrumented program.
//!
//! A program exposes one target loop. The inference engine never looks
//! inside it: it only asks for sequential reference output, probe runs under
//! candidate configurations, a dependence check, and the list of scalar
//! variables a reduction annotation could name.
//!
//! A probe run opens one [`ProbeSession`] ([`Probe::session`]) and runs
//! every pass of its target loop through it: under the threaded driver the
//! session's lanes are spawned once, serve every pass, and end when the
//! run does.

use alter_analyze::absint::LoopSpec;
use alter_analyze::LintTarget;
use alter_heap::Heap;
use alter_runtime::{
    Annotation, Driver, ExecParams, IterSpace, LoopSummary, Policy, RedOp, RedVars, RunError,
    RunStats, Session, TxCtx,
};
use alter_sim::{CostModel, SimClock, SimObserver};
use alter_trace::Recorder;
use std::sync::Arc;

/// The execution model a probe exercises — the columns of Table 3 plus
/// DOALL (used internally to measure sequential cost).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Model {
    /// Thread-level speculation: `RAW + InOrder` (sequential semantics).
    Tls,
    /// The `OutOfOrder` annotation: `RAW + OutOfOrder`.
    OutOfOrder,
    /// The `StaleReads` annotation: `WAW + OutOfOrder`.
    StaleReads,
    /// DOALL: no conflict checking.
    Doall,
}

impl Model {
    /// The three models reported in Table 3, in column order.
    pub const TABLE3: [Model; 3] = [Model::Tls, Model::OutOfOrder, Model::StaleReads];

    /// Parses a CLI/journal annotation token (`tls`, `outoforder`/`ooo`,
    /// `stalereads`/`stale`, `doall`), case-insensitively. The trace CLIs
    /// and the journal replay driver share this so recorded annotations
    /// round-trip.
    pub fn parse_token(s: &str) -> Option<Model> {
        match s.to_ascii_lowercase().as_str() {
            "tls" => Some(Model::Tls),
            "outoforder" | "ooo" => Some(Model::OutOfOrder),
            "stalereads" | "stale" => Some(Model::StaleReads),
            "doall" => Some(Model::Doall),
            _ => None,
        }
    }

    /// Base parameters for this model (Theorems 4.1–4.4): those of its
    /// [`Model::lint_target`], as [`ExecParams::doall`], [`ExecParams::tls`]
    /// and [`ExecParams::from_annotation`] write them.
    pub fn exec_params(self, workers: usize, chunk: usize) -> ExecParams {
        match self.lint_target(None) {
            LintTarget::Doall => ExecParams::doall(workers, chunk),
            LintTarget::Tls => ExecParams::tls(workers, chunk),
            LintTarget::Annotated(ann) => ExecParams::from_annotation(&ann, workers, chunk),
        }
    }

    /// What the linter checks this model against: DOALL, TLS, or the
    /// model's annotation with its optional reduction `(variable,
    /// operator)`; DOALL and TLS take none.
    pub fn lint_target(self, reduction: Option<&(String, RedOp)>) -> LintTarget {
        let policy = match self {
            Model::Doall => return LintTarget::Doall,
            Model::Tls => return LintTarget::Tls,
            Model::OutOfOrder => Policy::OutOfOrder,
            Model::StaleReads => Policy::StaleReads,
        };
        let ann = Annotation::new(policy);
        LintTarget::Annotated(match reduction {
            Some((var, op)) => ann.with_reduction(var, *op),
            None => ann,
        })
    }
}

impl std::fmt::Display for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Model::Tls => "TLS",
            Model::OutOfOrder => "OutOfOrder",
            Model::StaleReads => "StaleReads",
            Model::Doall => "DOALL",
        };
        f.write_str(s)
    }
}

/// One candidate configuration to try on the target loop.
#[derive(Clone)]
pub struct Probe {
    /// Execution model.
    pub model: Model,
    /// Optional reduction: `(variable name, operator)`.
    pub reduction: Option<(String, RedOp)>,
    /// Worker count.
    pub workers: usize,
    /// Chunk factor (the paper fixes 16 during inference).
    pub chunk: usize,
    /// Per-transaction tracked-memory budget, in words.
    pub budget_words: u64,
    /// Total cost budget (the 10×-sequential timeout), if any.
    pub work_budget: Option<u64>,
    /// Structured-event sink forwarded to the engine run.
    pub recorder: Option<Arc<dyn Recorder>>,
    /// Whether the target should drive the loop with real threads
    /// ([`alter_runtime::Driver::threaded`]) instead of the sequential
    /// simulation of the workers. Either driver yields byte-identical
    /// traces; threading only changes wall-clock time.
    pub threaded: bool,
    /// Whether the engine records each task's full tracked read/write sets
    /// into the trace (`task_sets` events) for the isolation sanitizer.
    /// Off by default: the payloads are large and recorded traces stay
    /// byte-identical to previous releases unless asked for.
    pub record_sets: bool,
    /// Wall-clock phase accumulator forwarded to the engine (informational
    /// mirror of the phase ledger; never recorded in traces).
    pub wall_profile: Option<Arc<alter_trace::WallProfile>>,
}

impl std::fmt::Debug for Probe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Probe")
            .field("model", &self.model)
            .field("reduction", &self.reduction)
            .field("workers", &self.workers)
            .field("chunk", &self.chunk)
            .field("budget_words", &self.budget_words)
            .field("work_budget", &self.work_budget)
            .field("recorder", &self.recorder.as_ref().map(|r| r.is_enabled()))
            .field("threaded", &self.threaded)
            .field("record_sets", &self.record_sets)
            .field("wall_profile", &self.wall_profile.is_some())
            .finish()
    }
}

impl Probe {
    /// A probe of `model` with the given geometry and effectively unlimited
    /// budgets.
    pub fn new(model: Model, workers: usize, chunk: usize) -> Self {
        Probe {
            model,
            reduction: None,
            workers,
            chunk,
            budget_words: u64::MAX,
            work_budget: None,
            recorder: None,
            threaded: false,
            record_sets: false,
            wall_profile: None,
        }
    }

    /// The loop driver this probe asks for: threaded when
    /// [`Probe::threaded`] is set, the sequential round simulation
    /// otherwise. [`Probe::session`] runs every pass with it, so targets
    /// never hard-code a driver.
    pub fn driver(&self) -> Driver {
        if self.threaded {
            Driver::threaded()
        } else {
            Driver::sequential()
        }
    }

    /// Runs one probe run of a target: resolves this probe against `reds`
    /// ([`Probe::exec_params`]) and its [`Probe::driver`] once, attaches
    /// one [`SimObserver`] charging virtual time under `model` that every
    /// pass of the target loop shares, opens the run's
    /// [`alter_runtime::Session`] — spawning its lanes, if the probe is
    /// threaded — and hands the session and `reds` back to `run`. The lanes
    /// are joined before this returns.
    ///
    /// # Panics
    ///
    /// As [`Probe::exec_params`].
    pub fn session<'env, 'm, T>(
        &self,
        reds: &mut RedVars,
        model: &'m CostModel,
        run: impl FnOnce(ProbeSession<'env, 'm>, &mut RedVars) -> T,
    ) -> T {
        let params = self.exec_params(reds);
        let observer = SimObserver::new(model, params.workers);
        Session::open(params, self.driver(), |session| {
            let stats = RunStats::default();
            run(
                ProbeSession {
                    session,
                    observer,
                    stats,
                },
                reds,
            )
        })
    }

    /// Resolves this probe into engine parameters, looking the reduction
    /// variable (if any) up in `reds`.
    ///
    /// # Panics
    ///
    /// Panics if the reduction names a variable absent from `reds` — probes
    /// are built from [`InferTarget::reduction_candidates`], so this is a
    /// target bug.
    pub fn exec_params(&self, reds: &RedVars) -> ExecParams {
        let mut p = self.model.exec_params(self.workers, self.chunk);
        p.budget_words = self.budget_words;
        p.work_budget = self.work_budget;
        p.recorder = self.recorder.clone();
        p.record_sets = self.record_sets;
        p.wall_profile = self.wall_profile.clone();
        if let Some((name, op)) = &self.reduction {
            let var = reds
                .lookup(name)
                .unwrap_or_else(|| panic!("unknown reduction candidate `{name}`"));
            p.reductions = vec![(var, *op)];
        }
        p
    }

    /// Human-readable annotation-style description, e.g.
    /// `StaleReads + Reduction(delta, +)`.
    pub fn describe(&self) -> String {
        match &self.reduction {
            None => self.model.to_string(),
            Some((name, op)) => format!("{} + Reduction({name}, {op})", self.model),
        }
    }
}

/// Output of one full program execution, compared by the program-specific
/// validator.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProgramOutput {
    /// Floating-point outputs (solution vectors, distances, …).
    pub floats: Vec<f64>,
    /// Integer outputs (counts, memberships, digests, …).
    pub ints: Vec<i64>,
}

impl ProgramOutput {
    /// Builds an output from float values only.
    pub fn from_floats(floats: Vec<f64>) -> Self {
        ProgramOutput {
            floats,
            ints: Vec::new(),
        }
    }

    /// Builds an output from integer values only.
    pub fn from_ints(ints: Vec<i64>) -> Self {
        ProgramOutput {
            floats: Vec::new(),
            ints,
        }
    }

    /// Approximate comparison: integers exactly, floats within `tol`
    /// relative error — "our program-specific output validation script …
    /// often made approximate comparisons between floating-point values"
    /// (§7.1).
    pub fn approx_eq(&self, other: &ProgramOutput, tol: f64) -> bool {
        if self.ints != other.ints || self.floats.len() != other.floats.len() {
            return false;
        }
        self.floats.iter().zip(&other.floats).all(|(a, b)| {
            let scale = a.abs().max(b.abs()).max(1.0);
            (a - b).abs() <= tol * scale
        })
    }
}

/// A completed probe run.
#[derive(Clone, Debug)]
pub struct ProbeRun {
    /// The program's output under the probe configuration.
    pub output: ProgramOutput,
    /// Aggregate runtime statistics (drives the high-conflict check and
    /// Table 4).
    pub stats: RunStats,
    /// Virtual-time accounting (drives the chunk-factor search and the
    /// speedup figures).
    pub clock: SimClock,
}

/// One probe run in progress (see [`Probe::session`]): the run's
/// [`Session`] — its engine parameters, driver and lanes —, the
/// [`SimObserver`] every pass shares, and the passes' statistics so far. A
/// convergence program runs its target loop once per outer iteration
/// through [`ProbeSession::run_loop`], every pass on the same lanes, and
/// closes the run with [`ProbeSession::finish`].
#[derive(Debug)]
pub struct ProbeSession<'env, 'm> {
    session: Session<'env>,
    observer: SimObserver<'m>,
    stats: RunStats,
}

impl<'env> ProbeSession<'env, '_> {
    /// The engine parameters every pass runs under — what sequential code
    /// between passes asks which copy of a reduced scalar is authoritative
    /// ([`alter_runtime::BoundScalar::seq_get_sync`]).
    pub fn params(&self) -> &ExecParams {
        self.session.params()
    }

    /// Runs one pass of the target loop over `space`, adds its statistics
    /// to the run's, and returns them. The body may borrow only what
    /// outlives the session; state that changes between passes it owns.
    ///
    /// # Errors
    ///
    /// Propagates the runtime's crash / out-of-memory / work-budget aborts.
    pub fn run_loop<F>(
        &mut self,
        heap: &mut Heap,
        reds: &mut RedVars,
        space: &mut dyn IterSpace,
        body: F,
    ) -> Result<RunStats, RunError>
    where
        F: Fn(&mut TxCtx<'_>, u64) + Send + Sync + 'env,
    {
        let observer = &mut self.observer;
        let pass = self.session.run_loop(heap, reds, space, body, observer)?;
        self.stats.absorb(&pass);
        Ok(pass)
    }

    /// Closes the run with the program's `output`, charging
    /// `sequential_units` of program text outside the loop (epilogues,
    /// convergence checks) to both clocks once
    /// ([`SimClock::add_sequential`]). The session's lanes end here.
    pub fn finish(self, output: ProgramOutput, sequential_units: f64) -> ProbeRun {
        let mut clock = self.observer.into_clock();
        clock.add_sequential(sequential_units);
        ProbeRun {
            output,
            stats: self.stats,
            clock,
        }
    }
}

/// A program with one target loop, as seen by the inference engine.
///
/// Implementations must be deterministic: each probe starts from identical
/// program state (targets re-generate their input from a fixed seed), so
/// "a single test is sufficient to identify incorrect annotations" (§7.1).
pub trait InferTarget {
    /// Benchmark name (Table 2/3 row label).
    fn name(&self) -> &str;

    /// Runs the unmodified sequential program and returns its output.
    fn run_sequential(&self) -> ProgramOutput;

    /// Runs the program with the target loop under `probe`.
    ///
    /// # Errors
    ///
    /// Propagates the runtime's crash / out-of-memory / work-budget aborts.
    fn run_probe(&self, probe: &Probe) -> Result<ProbeRun, RunError>;

    /// Replays the loop sequentially into the full dependence-summary IR
    /// (see [`alter_runtime::summarize_dependences`]): per-location edges
    /// with iteration distances, access statistics, and per-iteration
    /// read/write sets. The analyzer consumes this to prune provably
    /// failing probes and to lint annotations, and Table 3's Dep column is
    /// its [`LoopSummary::report`].
    ///
    /// The default returns an empty summary, which disables analysis-based
    /// pruning for this target and reports no dependences.
    fn probe_summary(&self) -> LoopSummary {
        LoopSummary::default()
    }

    /// Scalar variables a reduction annotation may name.
    fn reduction_candidates(&self) -> Vec<String> {
        Vec::new()
    }

    /// Program-specific output validation. Defaults to approximate
    /// equality at 1e-6 relative tolerance.
    fn validate(&self, reference: &ProgramOutput, candidate: &ProgramOutput) -> bool {
        reference.approx_eq(candidate, 1e-6)
    }

    /// Per-transaction tracked-memory budget override, in words. Programs
    /// whose instrumented read sets exhaust memory (the paper's AggloClust
    /// under TLS/OutOfOrder, §7.1) model their machine's capacity here;
    /// `None` uses the engine default.
    fn tracked_budget_words(&self) -> Option<u64> {
        None
    }

    /// The declarative symbolic description of the target loop's accesses
    /// (see [`alter_analyze::absint::LoopSpec`]), over the same
    /// deterministic heap [`InferTarget::probe_summary`] replays. `None`
    /// (the default) disables the static pruning tier for this target; a
    /// provided spec is held to the `static ⊇ dynamic` contract by the
    /// cross-validation gate in `tests/absint.rs`.
    fn loop_spec(&self) -> Option<LoopSpec> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alter_heap::{ObjData, ObjId};
    use alter_runtime::{run_loop_observed, CommitOrder, ConflictPolicy, RangeSpace, RedVal};

    #[test]
    fn model_params_match_theorems() {
        let p = Model::Tls.exec_params(4, 16);
        assert_eq!(
            (p.conflict, p.order),
            (ConflictPolicy::Raw, CommitOrder::InOrder)
        );
        let p = Model::OutOfOrder.exec_params(4, 16);
        assert_eq!(
            (p.conflict, p.order),
            (ConflictPolicy::Raw, CommitOrder::OutOfOrder)
        );
        let p = Model::StaleReads.exec_params(4, 16);
        assert_eq!(
            (p.conflict, p.order),
            (ConflictPolicy::Waw, CommitOrder::OutOfOrder)
        );
        let p = Model::Doall.exec_params(4, 16);
        assert_eq!(p.conflict, ConflictPolicy::None);
    }

    #[test]
    fn model_lint_targets_are_the_annotations_they_parse_from() {
        let parsed = |s: &str| LintTarget::Annotated(s.parse().unwrap());
        assert_eq!(Model::OutOfOrder.lint_target(None), parsed("[OutOfOrder]"));
        assert_eq!(
            Model::StaleReads.lint_target(Some(&("delta".into(), RedOp::Add))),
            parsed("[StaleReads + Reduction(delta, +)]")
        );
        assert_eq!(Model::Tls.lint_target(None), LintTarget::Tls);
        assert_eq!(Model::Doall.lint_target(None), LintTarget::Doall);
    }

    #[test]
    fn probe_resolves_reduction_against_registry() {
        let mut reds = RedVars::new();
        let d = reds.declare("delta", RedVal::F64(0.0));
        let mut probe = Probe::new(Model::StaleReads, 4, 16);
        probe.reduction = Some(("delta".into(), RedOp::Add));
        probe.work_budget = Some(1000);
        let p = probe.exec_params(&reds);
        assert_eq!(p.reductions, vec![(d, RedOp::Add)]);
        assert_eq!(p.work_budget, Some(1000));
        assert_eq!(probe.describe(), "StaleReads + Reduction(delta, +)");
        assert_eq!(Probe::new(Model::Tls, 2, 4).describe(), "TLS");
    }

    /// Two passes of a shared-counter loop through one session; returns
    /// the run and each pass's statistics, masked to what both drivers
    /// must agree on.
    fn two_pass_run(probe: &Probe, model: &CostModel) -> (ProbeRun, Vec<RunStats>) {
        let mut heap = Heap::new();
        let c = heap.alloc(ObjData::scalar_i64(0));
        let mut reds = RedVars::new();
        probe.session(&mut reds, model, |mut session, reds| {
            let passes = (0..2)
                .map(|_| {
                    let space = &mut RangeSpace::new(0, 32);
                    let pass = session.run_loop(&mut heap, reds, space, counter_body(c));
                    pass.unwrap().modulo_drive_mode()
                })
                .collect();
            let output = ProgramOutput::from_ints(heap.get(c).i64s().to_vec());
            (session.finish(output, 7.5), passes)
        })
    }

    fn counter_body(c: ObjId) -> impl Fn(&mut TxCtx<'_>, u64) + Send + Sync {
        move |ctx, _| {
            ctx.tx.work(10);
            let v = ctx.tx.read_i64(c, 0);
            ctx.tx.write_i64(c, 0, v + 1);
        }
    }

    #[test]
    fn a_session_absorbs_every_pass_and_adds_sequential_units_once() {
        let model = CostModel::default();
        let probe = Probe::new(Model::OutOfOrder, 4, 2);
        let (run, passes) = two_pass_run(&probe, &model);
        assert_eq!(run.output.ints, vec![64]);

        // The same two passes by hand: one observer carried across both.
        let mut heap = Heap::new();
        let c = heap.alloc(ObjData::scalar_i64(0));
        let mut reds = RedVars::new();
        let params = probe.exec_params(&reds);
        let mut obs = SimObserver::new(&model, params.workers);
        let mut stats = RunStats::default();
        for _ in 0..2 {
            let pass = run_loop_observed(
                &mut heap,
                &mut reds,
                &mut RangeSpace::new(0, 32),
                &params,
                Driver::sequential(),
                counter_body(c),
                &mut obs,
            )
            .unwrap();
            assert!(pass.retries() > 0, "the counter conflicts");
            stats.absorb(&pass);
        }
        let mut clock = obs.into_clock();
        clock.add_sequential(7.5);
        assert_eq!(run.stats, stats);
        assert_eq!(run.stats.iterations, 64);
        assert_eq!(format!("{:?}", run.clock), format!("{clock:?}"));

        let mut threaded = probe.clone();
        threaded.threaded = true;
        let (t, t_passes) = two_pass_run(&threaded, &model);
        assert_eq!(t_passes, passes, "every pass agrees modulo the drive mode");
        assert_eq!(t.output, run.output);
        assert_eq!(t.stats.modulo_drive_mode(), run.stats.modulo_drive_mode());
        assert_eq!(format!("{:?}", t.clock), format!("{:?}", run.clock));
    }

    /// Runs `f` on its own thread and fails, instead of hanging the suite,
    /// if it has not returned within a minute. Re-raises `f`'s panic.
    fn within_deadline<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(value) => value,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("the session hung"),
            Err(_) => std::panic::resume_unwind(runner.join().expect_err("f panicked")),
        }
    }

    /// A threaded session of `workers` lanes, one iteration a ticket.
    fn threaded_probe(workers: usize) -> Probe {
        let mut probe = Probe::new(Model::StaleReads, workers, 1);
        probe.threaded = true;
        probe
    }

    /// A threaded two-worker session runs three loops on the same lanes:
    /// every round's ticket 0, the coordinator's, waits until ticket 1 has
    /// started, which only a lane can have done, and every loop's lane is
    /// the same thread. Each pass's `pool_round_handoffs` counts that pass's
    /// rounds only.
    #[test]
    fn a_sessions_lanes_are_the_same_threads_in_every_loop() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (coordinator, seen, passes) = within_deadline(|| {
            let mut heap = Heap::new();
            let xs = heap.alloc(ObjData::zeros_i64(16));
            let mut reds = RedVars::new();
            let seen = std::sync::Mutex::new(Vec::new());
            let started: Vec<AtomicBool> = (0..3 * 16).map(|_| AtomicBool::new(false)).collect();
            let model = CostModel::default();
            let passes = threaded_probe(2).session(&mut reds, &model, |mut session, reds| {
                let passes: Vec<RunStats> = (0..3)
                    .map(|pass| {
                        let (seen, started) = (&seen, &started);
                        let body = move |ctx: &mut TxCtx<'_>, i: u64| {
                            let me = std::thread::current().id();
                            seen.lock().unwrap().push((pass, me));
                            let flag = |i: u64| &started[(pass * 16 + i as i64) as usize];
                            if i % 2 == 1 {
                                flag(i).store(true, Ordering::SeqCst);
                            } else {
                                let waiting = std::time::Instant::now();
                                while !flag(i + 1).load(Ordering::SeqCst) {
                                    assert!(waiting.elapsed().as_secs() < 30, "no lane took {i}");
                                    std::thread::yield_now();
                                }
                            }
                            ctx.tx.write_i64(xs, i as usize, pass * 100 + i as i64);
                        };
                        let space = &mut RangeSpace::new(0, 16);
                        session.run_loop(&mut heap, reds, space, body).unwrap()
                    })
                    .collect();
                session.finish(ProgramOutput::default(), 0.0);
                passes
            });
            let expect: Vec<i64> = (0..16).map(|i| 200 + i).collect();
            assert_eq!(heap.get(xs).i64s(), expect);
            (
                std::thread::current().id(),
                seen.into_inner().unwrap(),
                passes,
            )
        });
        let lanes = |pass: Option<i64>| -> std::collections::HashSet<_> {
            let on_a_lane = seen.iter().filter(|&&(_, id)| id != coordinator);
            let in_pass = on_a_lane.filter(|&&(p, _)| pass.is_none_or(|pass| p == pass));
            in_pass.map(|&(_, id)| id).collect()
        };
        for pass in 0..3 {
            assert_eq!(lanes(Some(pass)).len(), 1, "pass {pass}: {seen:?}");
        }
        assert_eq!(lanes(None).len(), 1, "one lane thread across the passes");
        for pass in passes {
            assert_eq!((pass.rounds, pass.pool_round_handoffs), (8, 8));
            assert_eq!(pass.tickets_helped, 8, "ticket 0 of every round");
        }
    }

    /// The body of a loop that writes `obj[i] = i + 1` over `0..12` and
    /// panics at iteration `at`.
    fn writes(obj: ObjId, at: Option<u64>) -> impl Fn(&mut TxCtx<'_>, u64) + Send + Sync {
        move |ctx, i| {
            ctx.tx.write_i64(obj, i as usize, i as i64 + 1);
            assert_ne!(Some(i), at, "iteration exploded");
        }
    }

    /// Three loops on a fresh heap of three 12-word objects, at four
    /// workers: the first writes the first object, the second writes the
    /// second and panics at ticket `at`, the third writes the third. With
    /// `split`, the third loop runs on a second, fresh session. Returns the
    /// second loop's error, the digest it left, and the final digest.
    fn fault_in_the_second_loop(probe: &Probe, at: u64, split: bool) -> (RunError, u64, u64) {
        let mut heap = Heap::new();
        let objs: Vec<ObjId> = (0..3).map(|_| heap.alloc(ObjData::zeros_i64(12))).collect();
        let mut reds = RedVars::new();
        let model = CostModel::default();
        let space = || RangeSpace::new(0, 12);
        let (err, faulted) = probe.session(&mut reds, &model, |mut session, reds| {
            let first = session.run_loop(&mut heap, reds, &mut space(), writes(objs[0], None));
            assert_eq!(first.unwrap().committed, 12);
            let second = session.run_loop(&mut heap, reds, &mut space(), writes(objs[1], Some(at)));
            let faulted = heap.digest();
            if !split {
                let third = session.run_loop(&mut heap, reds, &mut space(), writes(objs[2], None));
                assert_eq!(third.expect("the lanes serve the next loop").committed, 12);
                // Finish at one ticket, drop at the others.
                if at == 1 {
                    session.finish(ProgramOutput::default(), 0.0);
                }
            }
            (second.unwrap_err(), faulted)
        });
        if split {
            probe.session(&mut reds, &model, |mut session, reds| {
                let third = session.run_loop(&mut heap, reds, &mut space(), writes(objs[2], None));
                assert_eq!(third.unwrap().committed, 12);
            });
        }
        (err, faulted, heap.digest())
    }

    /// A body panic at ticket 0, 1 or 3 of a threaded session's second
    /// loop returns the crash with the sequential driver's committed prefix
    /// and no hang, and leaves the session's lanes serving a third loop
    /// exactly as a fresh session's do; finishing or dropping the session
    /// then returns.
    #[test]
    fn a_fault_in_a_sessions_second_loop_leaves_its_lanes_reusable() {
        let seq = Probe::new(Model::StaleReads, 4, 1);
        alter_runtime::quiet::quiet_panics(|| {
            for at in [0, 1, 3] {
                let (err, faulted, last) = fault_in_the_second_loop(&seq, at, false);
                assert!(
                    matches!(err, RunError::Crash(ref m) if m.contains("exploded")),
                    "{err:?}"
                );
                let thr = within_deadline(move || {
                    let probe = threaded_probe(4);
                    let same = fault_in_the_second_loop(&probe, at, false);
                    let fresh = fault_in_the_second_loop(&probe, at, true);
                    (same, fresh)
                });
                assert_eq!(
                    thr.0,
                    (err.clone(), faulted, last),
                    "ticket {at}: same session"
                );
                assert_eq!(thr.1, (err, faulted, last), "ticket {at}: fresh session");
            }
        });
    }

    #[test]
    fn parse_token_accepts_cli_spellings() {
        assert_eq!(Model::parse_token("TLS"), Some(Model::Tls));
        assert_eq!(Model::parse_token("ooo"), Some(Model::OutOfOrder));
        assert_eq!(Model::parse_token("stale"), Some(Model::StaleReads));
        assert_eq!(Model::parse_token("doall"), Some(Model::Doall));
        assert_eq!(Model::parse_token("best"), None);
    }

    #[test]
    fn approx_eq_tolerates_small_float_drift() {
        let a = ProgramOutput::from_floats(vec![1.0, 1000.0]);
        let b = ProgramOutput::from_floats(vec![1.0 + 1e-9, 1000.0 + 1e-5]);
        assert!(a.approx_eq(&b, 1e-6));
        let c = ProgramOutput::from_floats(vec![1.0, 1001.0]);
        assert!(!a.approx_eq(&c, 1e-6));
    }

    #[test]
    fn approx_eq_requires_exact_ints_and_shapes() {
        let a = ProgramOutput::from_ints(vec![1, 2]);
        let b = ProgramOutput::from_ints(vec![1, 3]);
        assert!(!a.approx_eq(&b, 1.0));
        let c = ProgramOutput::from_floats(vec![0.0]);
        assert!(!a.approx_eq(&c, 1.0));
        assert!(a.approx_eq(&a.clone(), 0.0));
    }
}
