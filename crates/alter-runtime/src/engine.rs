//! The deterministic fork-join engine (paper §4.1, Figure 4; determinism
//! argument §4.3).
//!
//! Execution proceeds in lock-step rounds, and a round is a plain sequence
//! of stages — the [`Phase`] taxonomy the cost-unit ledger and the wall
//! spans share — each a method of the `Coordinator`, on the calling thread:
//!
//! 1. **snapshot + issue** (`begin_round`): takes one snapshot of the
//!    committed memory state (the analogue of re-establishing N
//!    copy-on-write mappings) and assigns up to N chunk-transactions —
//!    retries first, then fresh chunks from the iteration space — to
//!    workers in deterministic order. What comes out is the round as data,
//!    a `RoundInput`.
//! 2. **execute** (the driver): a function from the `RoundInput` to one
//!    outcome per ticket, in ticket order, each ticket executed in
//!    isolation. The sequential driver runs the jobs inline on the caller's
//!    thread (reference semantics, simulator, replay); the threaded driver
//!    offers them to the lanes of a [`WorkerPool`] forked once per
//!    [`crate::Session`] and runs, on the caller's thread too, whichever no
//!    lane has started ([`WorkerPool::help_round`]) — the outcomes are
//!    identical by construction.
//! 3. **validate**, then **commit** or **re-queue** (`retire`), in
//!    ascending ticket order (the paper's "ascending order of child pids"):
//!    a task commits iff its sets do not conflict, under the active
//!    [`ConflictPolicy`], with the write sets of tasks that committed
//!    *earlier in the same round* (earlier rounds are already in the
//!    snapshot). Failed tasks re-execute next round; under
//!    [`CommitOrder::InOrder`] a failure also squashes every later task in
//!    the round, which is what makes `RAW + InOrder` equivalent to
//!    sequential execution (Theorem 4.3).
//! 4. **close** (`end_round`): the round's phase ledger joins the run's,
//!    the observer sees the round, the work budget is enforced.
//!
//! Determinism follows exactly as in the paper: isolated executions, an
//! in-order handoff from execution to commit (ticket *s* retires only after
//! ticket *s*−1, however the lanes finish — that order, not the barrier
//! both drivers happen to keep, is what the argument needs), and conflict
//! detection that is a pure function of the (deterministic) sets.

use crate::body::{LoopBody, TxCtx};
use crate::params::{CommitOrder, ConflictPolicy, ExecParams};
use crate::pool::WorkerPool;
use crate::reduction::{RedDelta, RedLocals, RedVal, RedVars};
use crate::space::IterSpace;
use alter_heap::{
    AccessSet, Footprint, Heap, IdReservation, MemoryExceeded, ObjId, Snapshot, Tx, TxEffects,
    TxStats, DEFAULT_BLOCK_SIZE,
};
use alter_trace::{ConflictKind, Event, Phase, Recorder, WallProfile};
use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::thread::Scope;
use std::time::Instant;
use std::vec::Drain;

/// Why a loop execution was aborted.
#[derive(Clone, Debug, PartialEq)]
pub enum RunError {
    /// A loop body panicked; the payload message is preserved.
    Crash(String),
    /// A transaction exceeded the tracked-memory budget — the analogue of
    /// the paper's out-of-memory crashes on very large read sets (§7.1).
    OutOfMemory {
        /// Words tracked when the budget tripped.
        words: u64,
        /// The configured budget.
        budget: u64,
    },
    /// Total executed cost exceeded the work budget — the analogue of the
    /// paper's 10×-sequential timeout (§5).
    WorkBudgetExceeded {
        /// Cost units spent.
        spent: u64,
        /// The configured budget.
        budget: u64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Crash(msg) => write!(f, "loop body crashed: {msg}"),
            RunError::OutOfMemory { words, budget } => write!(
                f,
                "transaction tracked {words} words, exceeding the {budget}-word budget"
            ),
            RunError::WorkBudgetExceeded { spent, budget } => {
                write!(f, "run spent {spent} cost units, exceeding budget {budget}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Deterministic cost units charged to each engine phase of a run — the
/// phase ledger, the one account of where a run's cost went. Every
/// quantity is trace-stable (snapshot slot counts, transaction cost units,
/// the per-writer validate-words accounting, committed write/alloc words),
/// so phase costs are identical under both drivers and a pure function of
/// program + annotation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseCosts {
    /// Snapshot establishment: one slot-table entry per round per slot
    /// (the trace's `RoundStart.snapshot_slots` figure — the size of the
    /// view, not the slots the incremental build copied).
    pub snapshot: u64,
    /// Transaction execution: declared work plus instrumented words moved,
    /// summed over all attempts.
    pub execute: u64,
    /// Conflict validation under the per-earlier-writer accounting (the
    /// trace's `ValidateOk.validate_words` figure — a function of the sets
    /// alone).
    pub validate: u64,
    /// Commit: words merged back into the heap plus words of fresh
    /// allocations published.
    pub commit: u64,
}

impl PhaseCosts {
    /// Total cost units across the four engine phases.
    pub fn total(&self) -> u64 {
        self.snapshot + self.execute + self.validate + self.commit
    }

    /// Accumulates another run's phase costs.
    pub fn add(&mut self, other: &PhaseCosts) {
        self.snapshot += other.snapshot;
        self.execute += other.execute;
        self.validate += other.validate;
        self.commit += other.commit;
    }

    /// The cost charged to one engine phase.
    pub fn cost(&self, phase: Phase) -> u64 {
        match phase {
            Phase::Snapshot => self.snapshot,
            Phase::Execute => self.execute,
            Phase::Validate => self.validate,
            Phase::Commit => self.commit,
        }
    }
}

/// Aggregate statistics of one loop execution.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunStats {
    /// Lock-step rounds executed.
    pub rounds: u64,
    /// Transactions executed, including retried and squashed ones.
    pub attempts: u64,
    /// Transactions that committed.
    pub committed: u64,
    /// Loop iterations committed.
    pub iterations: u64,
    /// Operation counters summed over all attempts.
    pub tx_stats: TxStats,
    /// Sum over attempts of tracked read+write set words.
    pub tracked_words: u64,
    /// Largest tracked read+write set of any single attempt.
    pub max_tracked_words: u64,
    /// Words charged to conflict validation under the per-earlier-writer
    /// accounting (`min(earlier writer's words, tracked words)` per earlier
    /// committer probed, up to and including the one a ticket lost to).
    /// This is the quantity the trace's `ValidateOk` events and the
    /// virtual-time cost model consume: a function of the round's sets
    /// alone, which the sanitizer re-derives from recorded `task_sets`.
    pub validate_words: u64,
    /// Transactions built in the spent effects of an earlier one (emptied,
    /// capacity kept) instead of fresh containers. Every finished attempt's
    /// effects are recycled, so on a clean run this is `attempts` minus the
    /// tickets of the first round.
    pub pool_reuses: u64,
    /// Words booked to the validator's exact scans. The validator scans
    /// each earlier writer directly and is charged per writer, so this is
    /// [`RunStats::validate_words`], copied when the run ends; it stays a
    /// field of its own because the wall-clock benchmark reports it.
    pub exact_scan_words: u64,
    /// Heap slots path-copied because a write landed while some snapshot
    /// still shared its page ([`alter_heap::SnapshotStats::slots_copied`],
    /// summed over the run's round snapshots): zero in the drivers' steady
    /// state, which drop each round's view before committing. Trace-visible
    /// snapshot accounting (`RoundStart.snapshot_slots`, the simulator's
    /// per-slot charge) is the full-table figure instead.
    pub snapshot_slots_copied: u64,
    /// Rounds whose tasks were handed to the persistent [`crate::WorkerPool`]
    /// (zero under the sequential driver). Scheduling telemetry, masked by
    /// [`RunStats::modulo_drive_mode`].
    pub pool_round_handoffs: u64,
    /// Tickets of pool-driven rounds that the coordinator executed itself
    /// because no lane had started them ([`crate::WorkerPool::helped`]; zero
    /// under the sequential driver). Which thread wins a ticket is a race, so
    /// this is scheduling telemetry too, masked by
    /// [`RunStats::modulo_drive_mode`] and never written to an event.
    pub tickets_helped: u64,
    /// Tickets handed out by the sequencer — fresh chunk-transactions only;
    /// a re-queued ticket keeps its sequence number and is counted in
    /// [`RunStats::tickets_requeued`] instead. On a clean run
    /// `tickets_issued + tickets_requeued == attempts`. Both drivers share
    /// the one sequencer, so the counter is identical under either.
    pub tickets_issued: u64,
    /// Re-queue occurrences: tickets sent back to the sequencer, to
    /// re-execute against the next round's snapshot, after failing
    /// validation or being squashed by an earlier in-order failure. Decided by the one coordinator both
    /// drivers serve, so identical under either.
    pub tickets_requeued: u64,
    /// Deterministic cost units charged to each engine phase (the phase
    /// ledger, which `alter-cli profile` prints; identical under both
    /// drivers).
    pub phase_costs: PhaseCosts,
}

impl RunStats {
    /// Attempts that failed validation (the paper's retry count).
    pub fn retries(&self) -> u64 {
        self.attempts - self.committed
    }

    /// Fraction of attempts that failed to commit (Table 4's "Retry Rate").
    pub fn retry_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.retries() as f64 / self.attempts as f64
        }
    }

    /// Average tracked read+write set size per transaction, in words
    /// (Table 4's "RW Set / Trans.").
    pub fn avg_rw_words(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.tracked_words as f64 / self.attempts as f64
        }
    }

    /// Total cost units: declared work plus instrumented words moved. This
    /// is the measure the work budget limits, and the basic currency of the
    /// virtual-time cost model.
    pub fn cost_units(&self) -> u64 {
        self.tx_stats.work + self.tx_stats.read_words + self.tx_stats.write_words
    }

    /// Accumulates another run's statistics (for multi-sweep convergence
    /// loops that call the engine repeatedly).
    pub fn absorb(&mut self, other: &RunStats) {
        self.rounds += other.rounds;
        self.attempts += other.attempts;
        self.committed += other.committed;
        self.iterations += other.iterations;
        self.tx_stats.add(&other.tx_stats);
        self.tracked_words += other.tracked_words;
        self.max_tracked_words = self.max_tracked_words.max(other.max_tracked_words);
        self.validate_words += other.validate_words;
        self.pool_reuses += other.pool_reuses;
        self.exact_scan_words += other.exact_scan_words;
        self.snapshot_slots_copied += other.snapshot_slots_copied;
        self.pool_round_handoffs += other.pool_round_handoffs;
        self.tickets_helped += other.tickets_helped;
        self.tickets_issued += other.tickets_issued;
        self.tickets_requeued += other.tickets_requeued;
        self.phase_costs.add(&other.phase_costs);
    }

    /// These statistics with the two scheduling-telemetry counters masked
    /// to zero: [`RunStats::pool_round_handoffs`] and
    /// [`RunStats::tickets_helped`]. What remains is the
    /// quantity the determinism guarantee promises identical under the
    /// sequential and the threaded driver: semantic work, not how it was
    /// driven. Every counter the choice of driver may legally change
    /// belongs in this mask; everything else must be byte-identical (the
    /// masking contract, unit-tested below).
    pub fn modulo_drive_mode(&self) -> RunStats {
        RunStats {
            pool_round_handoffs: 0,
            tickets_helped: 0,
            ..*self
        }
    }
}

/// Exactly which dependence broke a transaction's validation: the first
/// conflicting word in deterministic (ascending allocation, ascending
/// word) order and the committed writer that owns it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConflictDetail {
    /// Which check failed (RAW vs WAW overlap).
    pub kind: ConflictKind,
    /// Allocation holding the first conflicting word.
    pub obj: ObjId,
    /// Word index within `obj`.
    pub word: u32,
    /// Sequence number of the earlier transaction whose committed write
    /// set owns the word.
    pub winner_seq: u64,
}

/// Per-transaction record handed to [`RoundObserver`]s (the simulator's
/// input).
#[derive(Clone, Debug)]
pub struct TaskReport {
    /// Program-order chunk sequence number.
    pub seq: u64,
    /// Worker the task ran on.
    pub worker: usize,
    /// Iterations in the chunk.
    pub iters: u32,
    /// Whether the task committed this round.
    pub committed: bool,
    /// Whether the task was squashed by an earlier in-order failure (as
    /// opposed to failing validation itself).
    pub squashed: bool,
    /// Operation counters of the execution.
    pub stats: TxStats,
    /// Tracked read-set words.
    pub read_words: u64,
    /// Tracked write-set words.
    pub write_words: u64,
    /// Words this task's validation compared against earlier write sets.
    pub validate_words: u64,
    /// Read operations that actually executed instrumentation (0 when the
    /// conflict policy elides read tracking — the StaleReads fast path).
    /// Every write operation is instrumented: see `stats.write_ops`.
    pub instr_read_ops: u64,
    /// Words of the objects given a private copy in the overlay: their full
    /// lengths, even for one-word writes and however few blocks of a copy
    /// were filled — what the virtual-time cost model charges.
    pub overlay_words: u64,
    /// Words in objects allocated by the task.
    pub alloc_words: u64,
    /// Maximal ranges in the write set (≈ pages dirtied, for the
    /// copy-on-write cost model).
    pub write_ranges: u64,
    /// Why validation failed, when it did. `None` for committed and
    /// squashed tasks (squashed tasks never reached validation).
    pub conflict: Option<ConflictDetail>,
}

/// One lock-step round, as seen by a [`RoundObserver`].
#[derive(Debug)]
pub struct RoundReport<'a> {
    /// Round index within the run (0-based).
    pub round: u64,
    /// The tasks of the round, in commit-validation order.
    pub tasks: &'a [TaskReport],
    /// Slots visible to the round's snapshot (snapshot establishment cost).
    pub snapshot_slots: usize,
}

/// Hook invoked after each round — the virtual-time simulator implements
/// this to charge costs without perturbing execution.
pub trait RoundObserver {
    /// Called once per completed round.
    fn on_round(&mut self, report: &RoundReport<'_>);
}

/// An observer that ignores everything.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl RoundObserver for NullObserver {
    fn on_round(&mut self, _report: &RoundReport<'_>) {}
}

/// One chunk-transaction in flight: the unit the sequencer issues, a
/// worker lane executes, and the coordinator retires strictly in `seq`
/// order.
#[derive(Debug)]
struct Ticket {
    /// Program-order chunk sequence number — assigned once at issue time
    /// and kept across re-queues (validation order is `seq` order).
    seq: u64,
    /// Iterations in the chunk.
    iters: Vec<u64>,
}

/// The ticket source: monotonic sequence numbers for fresh chunks plus the
/// retry queue for tickets whose validation failed. One sequencer serves
/// both drivers, so ticket accounting cannot depend on the driver.
#[derive(Debug, Default)]
struct Sequencer {
    next_seq: u64,
    retry: VecDeque<Ticket>,
    /// Iteration lists of retired tickets, emptied, for fresh ones.
    spare_iters: Vec<Vec<u64>>,
}

impl Sequencer {
    /// Assembles the next round into `tickets`: re-queued tickets first
    /// (already in ascending `seq` order), then fresh chunks up to the worker
    /// count. Returns how many were freshly issued.
    fn next_round(
        &mut self,
        space: &mut dyn IterSpace,
        params: &ExecParams,
        tickets: &mut Vec<Ticket>,
    ) -> u64 {
        tickets.extend(self.retry.drain(..));
        let mut fresh = 0;
        while tickets.len() < params.workers && !space.is_exhausted() {
            let mut iters = self.spare_iters.pop().unwrap_or_default();
            space.next_chunk(params.chunk, &mut iters);
            if iters.is_empty() {
                self.spare_iters.push(iters);
                break;
            }
            tickets.push(Ticket {
                seq: self.next_seq,
                iters,
            });
            self.next_seq += 1;
            fresh += 1;
        }
        fresh
    }

    /// Keeps a committed ticket's iteration list for a later fresh one.
    fn recycle(&mut self, mut ticket: Ticket) {
        ticket.iters.clear();
        self.spare_iters.push(ticket.iters);
    }
}

/// A transaction's containers: its effects and its reduction deltas. An
/// executed ticket hands them to the coordinator full; once retired, they
/// come back emptied ([`TxEffects::reset`]) for a later ticket to build its
/// transaction and reduction locals in.
type Buffers = (TxEffects, Vec<RedDelta>);

/// What one executed ticket hands the coordinator: its filled buffers, or
/// the error its body raised.
type TaskOutcome = Result<Buffers, RunError>;

/// The message a caught panic carries.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

impl RunError {
    /// The error a caught panic stands for: a tripped memory budget unwinds
    /// with its [`MemoryExceeded`]; anything else is a crash of the
    /// candidate program.
    fn from_panic(payload: &(dyn Any + Send)) -> RunError {
        match payload.downcast_ref::<MemoryExceeded>() {
            Some(&MemoryExceeded { words, budget }) => RunError::OutOfMemory { words, budget },
            None => RunError::Crash(panic_message(payload)),
        }
    }

    /// The trace event announcing this abort.
    fn event(&self) -> Event {
        match *self {
            RunError::Crash(ref message) => Event::Crash {
                message: message.clone(),
            },
            RunError::OutOfMemory { words, budget } => Event::Oom { words, budget },
            RunError::WorkBudgetExceeded { spent, budget } => {
                Event::WorkBudgetExceeded { spent, budget }
            }
        }
    }
}

/// One round as the coordinator hands it to a driver. A driver consumes it
/// — snapshot included, so no view of the round outlives its execution and
/// the commits that follow write in place (`Heap::commit`) — and
/// appends one `(ticket, outcome)` per ticket, in ticket order, to the
/// outcome buffer it is given. The tickets and their buffers are drained
/// out of the coordinator's vectors, which keep their capacity for the next
/// round.
struct RoundInput<'c> {
    snap: Snapshot,
    tickets: Drain<'c, Ticket>,
    /// One reset set of [`Buffers`] per ticket, to build its transaction in.
    spent: Drain<'c, Buffers>,
    /// The heap's high water at snapshot time (base of the id reservations).
    base: u32,
    /// The reduction variables' values as of the round's start. Workers
    /// only read them; merges happen on the coordinator, against the
    /// registry itself.
    reds: Arc<[RedVal]>,
}

impl<'c> RoundInput<'c> {
    /// Splits the round into one self-contained job per ticket. The
    /// snapshot and reduction registry ride along as cheap shared handles;
    /// everything else is owned by exactly one job.
    fn into_jobs(self) -> impl ExactSizeIterator<Item = Job> + 'c {
        debug_assert_eq!(self.tickets.len(), self.spent.len());
        let (snap, base, reds) = (self.snap, self.base, self.reds);
        let jobs = self.tickets.zip(self.spent);
        jobs.map(move |(ticket, spent)| Job {
            snap: snap.clone(),
            ticket,
            spent,
            base,
            reds: Arc::clone(&reds),
        })
    }
}

/// One ticket's share of a [`RoundInput`]: what a lane (or the caller's
/// thread) needs to execute it.
struct Job {
    snap: Snapshot,
    ticket: Ticket,
    spent: Buffers,
    base: u32,
    reds: Arc<[RedVal]>,
}

/// Executes one job in isolation as ticket `worker` of its round — the
/// ticket's position, whichever thread this is, so id reservations and
/// everything derived from them do not depend on who executed. The job's
/// view of the round dies here, before the outcome is handed back.
fn run_job<B: LoopBody + ?Sized>(
    worker: usize,
    job: Job,
    params: &ExecParams,
    body: &B,
) -> (Ticket, TaskOutcome) {
    let ids = IdReservation::new(job.base, worker, params.workers, DEFAULT_BLOCK_SIZE);
    let mode = params.conflict.track_mode();
    let (effects, deltas) = job.spent;
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let tx = Tx::with_buffers(&job.snap, mode, ids, params.budget_words, effects);
        let locals = RedLocals::for_values(&params.reductions, &job.reds, deltas);
        let mut ctx = TxCtx::new(tx, locals);
        for &i in &job.ticket.iters {
            body.run_iter(&mut ctx, i);
        }
        let (tx, locals) = ctx.into_parts();
        (tx.finish(), locals.into_deltas())
    }));
    let outcome = result.map_err(|payload| RunError::from_panic(&*payload));
    (job.ticket, outcome)
}

/// The first word of `effects` that `policy` validates and `earlier_writes`
/// holds, with the dependence the overlap breaks: reads come before writes
/// (validation order under `FULL`), and within a set the lowest allocation,
/// then the lowest word, wins.
fn first_conflict(
    policy: ConflictPolicy,
    effects: &TxEffects,
    earlier_writes: &AccessSet,
) -> Option<(ConflictKind, ObjId, u32)> {
    use ConflictPolicy::{Full, Raw, Waw};
    let reads = matches!(policy, Full | Raw).then_some((ConflictKind::Raw, &effects.reads));
    let writes = matches!(policy, Full | Waw).then_some((ConflictKind::Waw, &effects.writes));
    reads.into_iter().chain(writes).find_map(|(kind, set)| {
        let (obj, word) = set.first_overlap(earlier_writes)?;
        Some((kind, obj, word))
    })
}

/// The validate stage: the effects of the current round's committers so
/// far, one entry per committer in commit order, so that a conflict names
/// the transaction it lost to.
struct Validator {
    policy: ConflictPolicy,
    writers: Vec<(u64, Buffers)>,
}

impl Validator {
    fn new(policy: ConflictPolicy) -> Self {
        Validator {
            policy,
            writers: Vec::new(),
        }
    }

    /// Validates one ticket's sets against the round's earlier committers,
    /// walking them in commit order and stopping at the first it overlaps:
    /// returns its `validate_words` charge — `min(writer's words, tracked
    /// words)` for each writer walked, the one it lost to included — and,
    /// if it lost, that writer and the first word. Each writer's set is
    /// walked once. Changes nothing of the validator.
    fn check(&self, effects: &TxEffects) -> (u64, Option<ConflictDetail>) {
        let tracked = effects.reads.words() + effects.writes.words();
        let mut validate_words = 0;
        for &(winner_seq, (ref earlier, _)) in &self.writers {
            validate_words += earlier.writes.words().min(tracked);
            if let Some((kind, obj, word)) = first_conflict(self.policy, effects, &earlier.writes) {
                let lost = ConflictDetail {
                    kind,
                    obj,
                    word,
                    winner_seq,
                };
                return (validate_words, Some(lost));
            }
        }
        (validate_words, None)
    }

    /// Remembers a committed transaction's buffers — its write set is what
    /// later tickets are checked against — with its sequence number, so a
    /// later conflict can name the transaction it lost to.
    fn admit(&mut self, seq: u64, committed: Buffers) {
        self.writers.push((seq, committed));
    }

    /// The log is only meaningful within a round (earlier rounds are
    /// already visible in the next snapshot): hands each committer's
    /// buffers, reset, to `spent`.
    fn end_round(&mut self, spent: &mut Vec<Buffers>) {
        for (_, mut committed) in self.writers.drain(..) {
            committed.0.reset();
            spent.push(committed);
        }
    }
}

/// Runs `f`, adding its wall time to `phase` when a profile is attached.
/// `None` (the default) means no `Instant` is ever taken; the deterministic
/// cost-unit ledger never reads the clock either way.
fn timed<T>(wall: Option<&WallProfile>, phase: Phase, f: impl FnOnce() -> T) -> T {
    let Some(wall) = wall else { return f() };
    let t = Instant::now();
    let out = f();
    wall.add(phase, t.elapsed().as_secs_f64());
    out
}

/// What a lane runs a job under: one loop's body and parameters, owned, so
/// that the lanes can outlive the loop while its body borrows only what
/// outlives them.
type Pass<'env> = Arc<dyn Fn(usize, Job) -> (Ticket, TaskOutcome) + Send + Sync + 'env>;

/// Runs job `worker` of a round under the loop it belongs to.
fn run_pass(worker: usize, (pass, job): (Pass<'_>, Job)) -> (Ticket, TaskOutcome) {
    pass(worker, job)
}

/// A session's lanes: one [`WorkerPool`], spawned when the session opens
/// and fed the helped rounds of every threaded loop the session runs.
pub(crate) struct Lanes<'env>(WorkerPool<(Pass<'env>, Job), (Ticket, TaskOutcome)>);

impl<'env> Lanes<'env> {
    /// Spawns `workers` lanes on `scope`.
    pub(crate) fn new<'scope>(scope: &'scope Scope<'scope, 'env>, workers: usize) -> Self {
        Lanes(WorkerPool::new(scope, workers, &run_pass))
    }
}

/// Runs an annotated loop to completion ([`crate::Session::run_loop`]).
/// This function only picks the driver — how a [`RoundInput`] becomes the
/// round's outcomes; everything else about a run lives in [`run_rounds`]
/// and the [`Coordinator`], so the same (deterministic) scheduling,
/// validation and commit code runs whether a round's jobs execute inline
/// or on the session's `lanes`.
pub(crate) fn run_loop_engine<'env, B: LoopBody + Send + 'env>(
    heap: &mut Heap,
    reds: &mut RedVars,
    space: &mut dyn IterSpace,
    params: &Arc<ExecParams>,
    lanes: Option<&mut Lanes<'env>>,
    body: B,
    observer: &mut dyn RoundObserver,
) -> Result<RunStats, RunError> {
    assert!(params.workers >= 1, "need at least one worker");
    let Some(Lanes(pool)) = lanes else {
        // Sequential driver: every job runs inline, in ticket order, before
        // the first one retires.
        let exec = |round: RoundInput<'_>, out: &mut Vec<(Ticket, TaskOutcome)>| {
            let jobs = round.into_jobs().enumerate();
            out.extend(jobs.map(|(worker, job)| run_job(worker, job, params, &body)));
        };
        return run_rounds(heap, reds, space, params, exec, observer);
    };
    // Threaded driver: job *i* of a round is offered to lane *i* of the
    // session and run — as ticket *i* either way — by that lane or by this
    // thread, whichever reaches it first; `help_round` returns once the
    // last job has finished. The pool's counters span the session, so this
    // loop books their growth.
    let owned = Arc::clone(params);
    let pass: Pass<'env> = Arc::new(move |worker, job| run_job(worker, job, &owned, &body));
    let (handoffs, helped) = (pool.round_handoffs(), pool.helped());
    let exec = |round: RoundInput<'_>, out: &mut Vec<(Ticket, TaskOutcome)>| {
        let jobs = round.into_jobs().map(|job| (Arc::clone(&pass), job));
        pool.help_round(jobs, run_pass, out);
    };
    let mut result = run_rounds(heap, reds, space, params, exec, observer);
    if let Ok(stats) = &mut result {
        stats.pool_round_handoffs = pool.round_handoffs() - handoffs;
        stats.tickets_helped = pool.helped() - helped;
    }
    result
}

/// The round loop, one line per stage of the [`Phase`] taxonomy: snapshot
/// and issue, execute (the driver), then validate and commit — or re-queue
/// — strictly in ticket order, and close the round. That in-order
/// retirement, not the barrier both drivers happen to keep, is the only
/// ordering the determinism argument needs.
fn run_rounds(
    heap: &mut Heap,
    reds: &mut RedVars,
    space: &mut dyn IterSpace,
    params: &ExecParams,
    mut exec: impl FnMut(RoundInput<'_>, &mut Vec<(Ticket, TaskOutcome)>),
    observer: &mut dyn RoundObserver,
) -> Result<RunStats, RunError> {
    // A reduction policy some merge would fail is an invalid annotation:
    // the run crashes before its first round, so every commit merges.
    let typed = reds
        .check_policy(&params.reductions)
        .map_err(RunError::Crash);
    let mut co = Coordinator::new(heap, reds, params);
    let wall = co.wall;
    // The round's outcomes, drained as they retire; kept across rounds.
    let mut outcomes = Vec::new();
    let mut run = || -> Result<(), RunError> {
        loop {
            let Some(round) = co.begin_round(space) else {
                return Ok(());
            };
            timed(wall, Phase::Execute, || exec(round, &mut outcomes));
            for (worker, (ticket, outcome)) in outcomes.drain(..).enumerate() {
                co.retire(worker, ticket, outcome)?;
            }
            co.end_round(observer)?;
        }
    };
    let result = typed.and_then(|()| run());
    co.finish(result)
}

/// Everything about a run that does not depend on how a round's jobs are
/// driven, on the calling thread: the ticket source, the spent buffers, the
/// validator, the heap and reduction registry that commits go to, and the
/// books — statistics, the round's phase ledger and task reports, recorder
/// and wall profile. Its methods are the stages [`run_rounds`] sequences.
/// The containers a round fills are its fields (the outcomes are
/// [`run_rounds`]' own), emptied and refilled round after round, so a warm
/// round allocates none.
struct Coordinator<'a> {
    heap: &'a mut Heap,
    reds: &'a mut RedVars,
    params: &'a ExecParams,
    /// Resolved once: `None` means every emission site is one
    /// predicted-not-taken branch and constructs nothing.
    rec: Option<&'a dyn Recorder>,
    wall: Option<&'a WallProfile>,
    stats: RunStats,
    validator: Validator,
    /// Cross-round recycling: the buffers of finished transactions, reset
    /// (emptied, capacity intact), each the containers of a later ticket's
    /// transaction. Only touched on this thread, and only capacity is
    /// reused, never contents, so recycling cannot perturb determinism.
    spent: Vec<Buffers>,
    /// The tickets of the round being issued.
    tickets: Vec<Ticket>,
    /// The reduction values the round's jobs read; rewritten in place once
    /// the last job of the round before has dropped its handle.
    red_vals: Arc<[RedVal]>,
    /// Phase ledger of the round in flight.
    costs: PhaseCosts,
    /// Set by the round's first in-order validation failure: every later
    /// ticket of the round is squashed by that sequence number.
    squashed_by: Option<u64>,
    // Dropped last, as the closure's locals were: freeing the lane-born
    // sets and buffers last instead costs Genome +10 % peak RSS over
    // repeated runs (EXPERIMENTS "Wall clock: round as data").
    reports: Vec<TaskReport>,
    sequencer: Sequencer,
}

impl<'a> Coordinator<'a> {
    fn new(heap: &'a mut Heap, reds: &'a mut RedVars, params: &'a ExecParams) -> Self {
        let red_vals = reds.values().into();
        Coordinator {
            heap,
            reds,
            params,
            rec: params.recorder.as_deref().filter(|r| r.is_enabled()),
            wall: params.wall_profile.as_deref(),
            stats: RunStats::default(),
            validator: Validator::new(params.conflict),
            spent: Vec::new(),
            tickets: Vec::new(),
            red_vals,
            costs: PhaseCosts::default(),
            squashed_by: None,
            reports: Vec::new(),
            sequencer: Sequencer::default(),
        }
    }

    /// Snapshot + issue: assembles the next round from the sequencer
    /// (re-queued tickets first, then fresh chunks), establishes its
    /// snapshot and announces it. `None` once the space is exhausted and
    /// nothing is left to retry.
    fn begin_round(&mut self, space: &mut dyn IterSpace) -> Option<RoundInput<'_>> {
        let tickets = &mut self.tickets;
        let fresh = self.sequencer.next_round(space, self.params, tickets);
        if tickets.is_empty() {
            return None;
        }
        self.stats.tickets_issued += fresh;

        // One `Arc` clone of the heap's page table root.
        let heap = &mut *self.heap;
        let (snap, snap_stats) = timed(self.wall, Phase::Snapshot, || heap.snapshot_incremental());
        self.stats.snapshot_slots_copied += snap_stats.slots_copied;
        // Snapshot cost is the trace's `snapshot_slots` figure (one charge
        // per slot in the round's view), deliberately not `slots_copied`,
        // which depends on what views the caller held across writes before
        // this round. Taking the view is O(1), so the charge overstates
        // it; it stays because the trace hashes it.
        self.costs = PhaseCosts {
            snapshot: snap.slot_count() as u64,
            ..PhaseCosts::default()
        };
        self.squashed_by = None;
        self.reports.clear();
        if let Some(rec) = self.rec {
            rec.record(Event::RoundStart {
                round: self.stats.rounds,
                tasks: tickets.len() as u32,
                snapshot_slots: self.costs.snapshot,
            });
            for (worker, task) in tickets.iter().enumerate() {
                rec.record(Event::TaskStart {
                    seq: task.seq,
                    worker: worker as u32,
                    iters: task.iters.len() as u32,
                });
            }
        }
        // The last `reused` spent buffers, then fresh ones, in that order.
        let reused = tickets.len().min(self.spent.len());
        self.stats.pool_reuses += reused as u64;
        let first = self.spent.len() - reused;
        self.spent
            .resize_with(first + tickets.len(), Buffers::default);
        let vals = self.reds.values();
        match Arc::get_mut(&mut self.red_vals) {
            Some(mine) if mine.len() == vals.len() => mine.copy_from_slice(vals),
            _ => self.red_vals = vals.into(),
        }
        Some(RoundInput {
            snap,
            tickets: tickets.drain(..),
            spent: self.spent.drain(first..),
            base: self.heap.high_water(),
            reds: Arc::clone(&self.red_vals),
        })
    }

    /// Retires one executed ticket — in ticket order, the caller's duty:
    /// books its execution, validates it unless an earlier in-order failure
    /// already squashed it, and commits or re-queues it. An `Err` (the
    /// body's, or a commit into a freed object) aborts the run.
    fn retire(
        &mut self,
        worker: usize,
        task: Ticket,
        outcome: TaskOutcome,
    ) -> Result<(), RunError> {
        let (effects, deltas) = outcome?;
        let stats = &mut self.stats;
        stats.attempts += 1;
        stats.tx_stats.add(&effects.stats);
        self.costs.execute +=
            effects.stats.work + effects.stats.read_words + effects.stats.write_words;
        let tracked = effects.reads.words() + effects.writes.words();
        stats.tracked_words += tracked;
        stats.max_tracked_words = stats.max_tracked_words.max(tracked);

        let squashed = self.squashed_by.is_some();
        let (validate_words, conflict) = if squashed {
            (0, None)
        } else {
            let validator = &self.validator;
            timed(self.wall, Phase::Validate, || validator.check(&effects))
        };
        stats.validate_words += validate_words;
        self.costs.validate += validate_words;

        let footprint = effects.footprint();
        let mut report = TaskReport {
            seq: task.seq,
            worker,
            iters: task.iters.len() as u32,
            committed: false,
            squashed,
            stats: effects.stats,
            read_words: effects.reads.words(),
            write_words: effects.writes.words(),
            validate_words,
            instr_read_ops: if self.params.conflict.track_mode().tracks_reads() {
                effects.stats.read_ops
            } else {
                0
            },
            overlay_words: footprint.copy_words,
            alloc_words: footprint.alloc_words,
            write_ranges: effects.writes.range_count() as u64,
            conflict,
        };
        // Opt-in sanitizer payload: the full tracked sets, emitted just
        // before the verdict event they justify.
        if let (true, Some(rec)) = (self.params.record_sets, self.rec) {
            rec.record(Event::TaskSets {
                seq: task.seq,
                reads: alter_trace::render_set(&effects.reads),
                writes: alter_trace::render_set(&effects.writes),
            });
        }
        if squashed || conflict.is_some() {
            self.requeue(task, (effects, deltas), conflict);
        } else {
            report.committed = true;
            timed(self.wall, Phase::Commit, || {
                self.commit(&task, (effects, deltas), footprint, &report)
            })?;
            self.sequencer.recycle(task);
        }
        self.reports.push(report);
        Ok(())
    }

    /// Sends a ticket that lost validation (`conflict`) or was squashed
    /// back to the sequencer for the next round; under
    /// [`CommitOrder::InOrder`] a loser also squashes every later ticket of
    /// this one.
    fn requeue(&mut self, task: Ticket, mut spent: Buffers, conflict: Option<ConflictDetail>) {
        if let Some(rec) = self.rec {
            rec.record(match (conflict, self.squashed_by) {
                (Some(c), _) => Event::ValidateConflict {
                    seq: task.seq,
                    kind: c.kind,
                    obj: c.obj,
                    word: c.word,
                    winner_seq: c.winner_seq,
                },
                (None, by_seq) => Event::Squash {
                    seq: task.seq,
                    by_seq: by_seq.expect("a ticket is re-queued for a conflict or a squash"),
                },
            });
        }
        if conflict.is_some() && self.params.order == CommitOrder::InOrder {
            self.squashed_by = Some(task.seq);
        }
        self.stats.tickets_requeued += 1;
        self.sequencer.retry.push_back(task);
        spent.0.reset();
        self.spent.push(spent);
    }

    /// Commits a validated ticket: applies its writes to the heap in place,
    /// merges its reduction deltas, books and announces it, and admits its
    /// write set to the validator. `footprint` is that of the effects. A write
    /// into or a free of an object an earlier committer of the round freed
    /// is a crash, and leaves the heap, the reduction registry, the books
    /// and the trace as they were.
    fn commit(
        &mut self,
        task: &Ticket,
        committed: Buffers,
        footprint: Footprint,
        report: &TaskReport,
    ) -> Result<(), RunError> {
        let (effects, deltas) = &committed;
        self.heap.commit(effects).map_err(|id| {
            RunError::Crash(format!(
                "commit into {id}, which an earlier committer of the round freed"
            ))
        })?;
        for d in deltas {
            self.reds.merge(d);
        }
        self.stats.committed += 1;
        self.stats.iterations += task.iters.len() as u64;
        self.costs.commit += report.write_words + report.alloc_words;
        if let Some(rec) = self.rec {
            rec.record(Event::ValidateOk {
                seq: task.seq,
                validate_words: report.validate_words,
            });
            rec.record(Event::Commit {
                seq: task.seq,
                read_words: report.read_words,
                write_words: report.write_words,
                allocs: footprint.allocs,
                frees: footprint.frees,
            });
            for d in deltas {
                rec.record(Event::ReductionMerge {
                    seq: task.seq,
                    var: d.var.index() as u32,
                    op: d.op.as_str(),
                });
            }
        }
        self.validator.admit(task.seq, committed);
        Ok(())
    }

    /// Closes the round: folds its phase ledger into the run statistics,
    /// resets the validator, reports to the observer and enforces the work
    /// budget.
    fn end_round(&mut self, observer: &mut dyn RoundObserver) -> Result<(), RunError> {
        self.stats.phase_costs.add(&self.costs);
        self.validator.end_round(&mut self.spent);
        observer.on_round(&RoundReport {
            round: self.stats.rounds,
            tasks: &self.reports,
            snapshot_slots: self.costs.snapshot as usize,
        });
        self.stats.rounds += 1;
        if let Some(budget) = self.params.work_budget {
            let spent = self.stats.cost_units();
            if spent > budget {
                return Err(RunError::WorkBudgetExceeded { spent, budget });
            }
        }
        Ok(())
    }

    /// Ends the run: the one place an abort becomes its trace event.
    fn finish(self, result: Result<(), RunError>) -> Result<RunStats, RunError> {
        if let Some(rec) = self.rec {
            rec.record(match &result {
                Err(e) => e.event(),
                Ok(()) => Event::RunEnd {
                    rounds: self.stats.rounds,
                    attempts: self.stats.attempts,
                    committed: self.stats.committed,
                },
            });
        }
        result.map(|()| RunStats {
            exact_scan_words: self.stats.validate_words,
            ..self.stats
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::RedOp;
    use crate::reduction::RedVal;
    use crate::space::RangeSpace;
    use alter_heap::ObjData;

    /// One loop on a session of its own, under the threaded driver or the
    /// sequential one.
    fn one_loop(
        heap: &mut Heap,
        reds: &mut RedVars,
        space: &mut dyn IterSpace,
        p: &ExecParams,
        threaded: bool,
        body: impl Fn(&mut TxCtx<'_>, u64) + Send + Sync,
        observer: &mut dyn RoundObserver,
    ) -> Result<RunStats, RunError> {
        let driver = crate::Driver::threaded();
        let driver = if threaded {
            driver
        } else {
            crate::Driver::sequential()
        };
        crate::run_loop_observed(heap, reds, space, p, driver, body, observer)
    }

    fn params(
        workers: usize,
        chunk: usize,
        conflict: ConflictPolicy,
        order: CommitOrder,
    ) -> ExecParams {
        let mut p = ExecParams::new(workers, chunk);
        p.conflict = conflict;
        p.order = order;
        p
    }

    /// The masking contract of [`RunStats::modulo_drive_mode`], pinned as a
    /// test so a future counter cannot silently dodge it: with every field
    /// non-zero, masking zeroes exactly the two scheduling-telemetry
    /// counters — `pool_round_handoffs` and `tickets_helped` — and passes
    /// every other field, the sequencer's ticket counters included, through
    /// untouched.
    #[test]
    fn modulo_drive_mode_masks_exactly_the_schedule_counters() {
        let full = RunStats {
            rounds: 1,
            attempts: 2,
            committed: 3,
            iterations: 4,
            tx_stats: TxStats {
                read_ops: 5,
                read_words: 6,
                write_ops: 7,
                write_words: 8,
                work: 9,
                traffic_words: 10,
                allocs: 11,
                frees: 12,
            },
            tracked_words: 13,
            max_tracked_words: 14,
            validate_words: 15,
            pool_reuses: 18,
            exact_scan_words: 19,
            snapshot_slots_copied: 20,
            pool_round_handoffs: 22,
            tickets_helped: 25,
            tickets_issued: 23,
            tickets_requeued: 24,
            phase_costs: PhaseCosts {
                snapshot: 27,
                execute: 28,
                validate: 29,
                commit: 30,
            },
        };
        let masked = full.modulo_drive_mode();
        // The masked counters are zeroed...
        assert_eq!((masked.pool_round_handoffs, masked.tickets_helped), (0, 0));
        assert_eq!((masked.tickets_issued, masked.tickets_requeued), (23, 24));
        // ...and nothing else moved: re-zeroing the same fields on the
        // original must reproduce the masked value exactly.
        let expect = RunStats {
            pool_round_handoffs: 0,
            tickets_helped: 0,
            ..full
        };
        assert_eq!(masked, expect);
        // Masking is idempotent.
        assert_eq!(masked.modulo_drive_mode(), masked);
    }

    /// A DOALL loop: every iteration writes its own element.
    #[test]
    fn doall_loop_commits_everything_first_try() {
        for threaded in [false, true] {
            let mut heap = Heap::new();
            let xs = heap.alloc(ObjData::zeros_f64(16));
            let mut reds = RedVars::new();
            let p = params(4, 2, ConflictPolicy::None, CommitOrder::OutOfOrder);
            let stats = one_loop(
                &mut heap,
                &mut reds,
                &mut RangeSpace::new(0, 16),
                &p,
                threaded,
                |ctx: &mut TxCtx<'_>, i: u64| {
                    ctx.tx.write_f64(xs, i as usize, i as f64 * 2.0);
                },
                &mut NullObserver,
            )
            .unwrap();
            assert_eq!(stats.committed, 8, "16 iters / cf 2");
            assert_eq!(stats.iterations, 16);
            assert_eq!(stats.retries(), 0);
            assert_eq!(stats.rounds, 2, "8 chunks / 4 workers");
            let expect: Vec<f64> = (0..16).map(|i| i as f64 * 2.0).collect();
            assert_eq!(heap.get(xs).f64s(), &expect[..], "threaded={threaded}");
        }
    }

    /// All iterations RMW one counter: WAW conflicts force serialization,
    /// one commit per round, but the result equals the sequential sum.
    #[test]
    fn waw_conflicts_serialize_but_preserve_sum() {
        let mut heap = Heap::new();
        let counter = heap.alloc(ObjData::scalar_i64(0));
        let mut reds = RedVars::new();
        let p = params(4, 1, ConflictPolicy::Waw, CommitOrder::OutOfOrder);
        let stats = one_loop(
            &mut heap,
            &mut reds,
            &mut RangeSpace::new(0, 8),
            &p,
            false,
            |ctx: &mut TxCtx<'_>, _i| {
                let v = ctx.tx.read_i64(counter, 0);
                ctx.tx.write_i64(counter, 0, v + 1);
            },
            &mut NullObserver,
        )
        .unwrap();
        assert_eq!(heap.get(counter).i64s()[0], 8);
        assert!(stats.retries() > 0, "conflicts must have occurred");
        assert_eq!(stats.committed, 8);
    }

    /// Every round's task reports, in retirement order.
    #[derive(Default)]
    struct Rounds(Vec<Vec<TaskReport>>);

    impl RoundObserver for Rounds {
        fn on_round(&mut self, report: &RoundReport<'_>) {
            self.0.push(report.tasks.to_vec());
        }
    }

    /// Runs `body` over `0..n` on 2 workers, one iteration a ticket, under
    /// `Waw` and OutOfOrder, under both drivers; returns the round reports
    /// of the sequential run after checking the threaded run's are alike.
    /// A small work budget turns a ticket re-queued forever into a failed
    /// run instead of a hang.
    fn two_worker_rounds(
        n: u64,
        body: &(dyn Fn(&mut TxCtx<'_>, u64, ObjId) + Sync),
    ) -> Vec<Vec<TaskReport>> {
        let mut p = params(2, 1, ConflictPolicy::Waw, CommitOrder::OutOfOrder);
        p.work_budget = Some(1_000);
        let run = |threaded: bool| {
            let mut heap = Heap::new();
            let xs = heap.alloc(ObjData::zeros_i64(32));
            let mut rounds = Rounds::default();
            let step = |ctx: &mut TxCtx<'_>, i| body(ctx, i, xs);
            one_loop(
                &mut heap,
                &mut RedVars::new(),
                &mut RangeSpace::new(0, n),
                &p,
                threaded,
                step,
                &mut rounds,
            )
            .unwrap();
            rounds.0
        };
        let rounds = run(false);
        let digest = |rounds: &[Vec<TaskReport>]| -> Vec<Vec<_>> {
            let task = |t: &TaskReport| (t.seq, t.committed, t.validate_words, t.conflict);
            rounds
                .iter()
                .map(|r| r.iter().map(task).collect())
                .collect()
        };
        assert_eq!(digest(&run(true)), digest(&rounds), "threaded driver");
        rounds
    }

    /// A round that holds a re-queued ticket and fresh chunks issues the
    /// re-queued ticket first: every ticket writes one shared word, so
    /// ticket 1 loses round 0 to ticket 0, and round 1 runs it ahead of the
    /// fresh ticket 2, which loses to it there.
    #[test]
    fn a_requeued_ticket_opens_the_next_round_ahead_of_fresh_chunks() {
        let rounds = two_worker_rounds(3, &|ctx, i, xs| ctx.tx.write_i64(xs, 0, i as i64));
        let order: Vec<Vec<(u64, bool)>> = rounds
            .iter()
            .map(|r| r.iter().map(|t| (t.seq, t.committed)).collect())
            .collect();
        assert_eq!(
            order,
            [
                vec![(0, true), (1, false)],
                vec![(1, true), (2, false)],
                vec![(2, true)]
            ]
        );
        assert_eq!(rounds[1][1].conflict.map(|c| c.winner_seq), Some(1));
        assert_eq!(rounds[1][0].worker, 0, "the re-queued ticket is ticket 0");
    }

    /// A ticket is compared only with its own round's committers: ticket 3
    /// writes the 16 words ticket 0 committed in round 0, yet commits in
    /// round 1, charged for round 1's one earlier writer (ticket 2, one
    /// word) and for none of round 0's.
    #[test]
    fn a_ticket_is_validated_only_against_its_own_rounds_committers() {
        let rounds = two_worker_rounds(4, &|ctx, i, xs| match i {
            0 | 3 => ctx.tx.write_i64s(xs, 0, &[1; 16]),
            _ => ctx.tx.write_i64(xs, 16 + i as usize, 1),
        });
        let verdicts: Vec<Vec<(u64, bool, u64)>> = rounds
            .iter()
            .map(|r| {
                r.iter()
                    .map(|t| (t.seq, t.committed, t.validate_words))
                    .collect()
            })
            .collect();
        assert_eq!(
            verdicts,
            [
                vec![(0, true, 0), (1, true, 1)],
                vec![(2, true, 0), (3, true, 1)]
            ]
        );
    }

    /// Under TLS (RAW + InOrder) the result must match sequential semantics
    /// even for an order-sensitive loop.
    #[test]
    fn tls_matches_sequential_semantics() {
        // x[i] = x[i-1] + 1 — a tight dependence chain.
        let run = |p: &ExecParams| {
            let mut heap = Heap::new();
            let xs = heap.alloc(ObjData::zeros_i64(12));
            let mut reds = RedVars::new();
            let stats = one_loop(
                &mut heap,
                &mut reds,
                &mut RangeSpace::new(1, 12),
                p,
                false,
                |ctx: &mut TxCtx<'_>, i| {
                    let prev = ctx.tx.read_i64(xs, i as usize - 1);
                    ctx.tx.write_i64(xs, i as usize, prev + 1);
                },
                &mut NullObserver,
            )
            .unwrap();
            (heap.get(xs).i64s().to_vec(), stats)
        };
        let p = params(4, 1, ConflictPolicy::Raw, CommitOrder::InOrder);
        let (xs, stats) = run(&p);
        let expect: Vec<i64> = (0..12).collect();
        assert_eq!(xs, expect);
        assert!(
            stats.retries() > 0,
            "speculation must have failed sometimes"
        );
    }

    /// StaleReads (WAW) lets the same dependence chain commit in one round
    /// with broken RAW dependences — values are stale but writes disjoint.
    #[test]
    fn stalereads_breaks_raw_dependences_without_retries() {
        let mut heap = Heap::new();
        let xs = heap.alloc(ObjData::zeros_i64(8));
        let mut reds = RedVars::new();
        let p = params(4, 2, ConflictPolicy::Waw, CommitOrder::OutOfOrder);
        let stats = one_loop(
            &mut heap,
            &mut reds,
            &mut RangeSpace::new(1, 8),
            &p,
            false,
            |ctx: &mut TxCtx<'_>, i| {
                let prev = ctx.tx.read_i64(xs, i as usize - 1);
                ctx.tx.write_i64(xs, i as usize, prev + 1);
            },
            &mut NullObserver,
        )
        .unwrap();
        assert_eq!(
            stats.retries(),
            0,
            "disjoint writes: snapshot isolation is conflict-free"
        );
        // Stale reads: each chunk saw zeros for the previous chunk's cells.
        let xs = heap.get(xs).i64s().to_vec();
        assert_ne!(
            xs,
            (0..8).collect::<Vec<i64>>(),
            "sequential chain must be broken"
        );
        assert_eq!(xs[1], 1, "first iteration read committed x[0]=0");
    }

    /// Reductions merge in deterministic commit order and match the serial
    /// fold.
    #[test]
    fn reduction_sums_match_serial_fold() {
        for threaded in [false, true] {
            let mut heap = Heap::new();
            let _pad = heap.alloc(ObjData::scalar_i64(0));
            let mut reds = RedVars::new();
            let delta = reds.declare("delta", RedVal::F64(0.0));
            let mut p = params(3, 4, ConflictPolicy::Waw, CommitOrder::OutOfOrder);
            p.reductions = vec![(delta, RedOp::Add)];
            let stats = one_loop(
                &mut heap,
                &mut reds,
                &mut RangeSpace::new(0, 100),
                &p,
                threaded,
                |ctx: &mut TxCtx<'_>, i| {
                    ctx.red_add(delta, i as f64);
                },
                &mut NullObserver,
            )
            .unwrap();
            assert_eq!(reds.get(delta).as_f64(), 4950.0);
            assert_eq!(stats.retries(), 0, "reduction variables never conflict");
        }
    }

    /// Runs iterations 0..12 at 4 workers, chunk 1 (three rounds of four
    /// tickets) under both drivers; every iteration writes `xs[i] = i + 1`
    /// and iteration `at` then calls `fault`. Checks that both drivers
    /// return the same error and leave the same heap, and that the same
    /// heap then completes a fault-free run; returns the error and the `xs`
    /// the fault left committed.
    fn run_with_fault(
        p: &ExecParams,
        at: u64,
        fault: impl Fn(&mut TxCtx<'_>, ObjId) + Sync,
    ) -> (RunError, Vec<i64>) {
        assert_eq!((p.workers, p.chunk), (4, 1));
        let run = |threaded: bool| {
            let mut heap = Heap::new();
            let xs = heap.alloc(ObjData::zeros_i64(12));
            let big = heap.alloc(ObjData::zeros_f64(1000));
            let mut reds = RedVars::new();
            let err = one_loop(
                &mut heap,
                &mut reds,
                &mut RangeSpace::new(0, 12),
                p,
                threaded,
                |ctx: &mut TxCtx<'_>, i: u64| {
                    ctx.tx.write_i64(xs, i as usize, i as i64 + 1);
                    if i == at {
                        fault(ctx, big);
                    }
                },
                &mut NullObserver,
            )
            .unwrap_err();
            let left = (heap.digest(), heap.get(xs).i64s().to_vec());
            let again = one_loop(
                &mut heap,
                &mut reds,
                &mut RangeSpace::new(0, 12),
                p,
                threaded,
                |ctx: &mut TxCtx<'_>, i: u64| ctx.tx.write_i64(xs, i as usize, i as i64 + 1),
                &mut NullObserver,
            )
            .expect("the heap and a fresh pool serve the next run");
            assert_eq!(again.committed, 12, "threaded={threaded}");
            assert_eq!(heap.get(xs).i64s(), (1..=12).collect::<Vec<i64>>());
            (err, left)
        };
        let (err_seq, left_seq) = run(false);
        let (err_thr, left_thr) = run(true);
        assert_eq!(err_thr, err_seq, "at={at}: same structured error");
        assert_eq!(left_thr, left_seq, "at={at}: same committed prefix");
        (err_seq, left_seq.1)
    }

    /// `xs` after exactly iterations `0..n` committed.
    fn prefix(n: i64) -> Vec<i64> {
        (1..=12).map(|v| if v <= n { v } else { 0 }).collect()
    }

    /// The engine reports crashes as RunError::Crash with the message,
    /// whichever ticket of the round crashed, leaving the tickets before it
    /// committed.
    #[test]
    fn body_panic_becomes_crash_error() {
        crate::quiet::quiet_panics(|| {
            let p = params(4, 1, ConflictPolicy::None, CommitOrder::OutOfOrder);
            for at in [4, 5, 7] {
                let (err, xs) = run_with_fault(&p, at, |_, _| panic!("iteration exploded"));
                assert!(matches!(err, RunError::Crash(ref m) if m.contains("exploded")));
                assert_eq!(xs, prefix(at as i64));
            }
        });
    }

    /// A body that frees an object twice crashes in its own transaction,
    /// not in the commit on the coordinator: the run returns the crash and
    /// keeps the tickets before it committed.
    #[test]
    fn double_free_in_a_body_becomes_crash_error() {
        crate::quiet::quiet_panics(|| {
            let p = params(4, 1, ConflictPolicy::None, CommitOrder::OutOfOrder);
            for at in [4, 5, 7] {
                let (err, xs) = run_with_fault(&p, at, |ctx, big| {
                    ctx.tx.free(big);
                    ctx.tx.free(big);
                });
                assert!(
                    matches!(err, RunError::Crash(ref m) if m.contains("freed obj#1 twice")),
                    "{err:?}"
                );
                assert_eq!(xs, prefix(at as i64));
            }
        });
    }

    /// A body that touches an object after freeing it crashes in its own
    /// transaction, whichever accessor it uses, instead of its write being
    /// merged and then freed at commit: the run returns the crash and keeps
    /// the tickets before it committed.
    #[test]
    fn use_after_free_in_a_body_becomes_crash_error() {
        crate::quiet::quiet_panics(|| {
            let p = params(4, 1, ConflictPolicy::None, CommitOrder::OutOfOrder);
            let touches: [fn(&mut TxCtx<'_>, ObjId); 3] = [
                |ctx, big| ctx.tx.write_f64(big, 0, 5.0),
                |ctx, big| {
                    ctx.tx.read_f64(big, 999);
                },
                |ctx, big| ctx.tx.row_f64s(big, 0, 8, |row| row.writer().set(1, 5.0)),
            ];
            for (at, touch) in [4, 5, 7].into_iter().zip(touches) {
                let (err, xs) = run_with_fault(&p, at, |ctx, big| {
                    ctx.tx.free(big);
                    touch(ctx, big);
                });
                assert!(
                    matches!(err, RunError::Crash(ref m) if m.contains("accessed freed obj#1")),
                    "{err:?}"
                );
                assert_eq!(xs, prefix(at as i64));
            }
        });
    }

    /// A commit into an object an earlier committer of the round freed is
    /// a crash of the run, not a panic of the coordinator: DOALL compares
    /// no write sets, so ticket 1's write into the object ticket 0 freed
    /// passes validation, and the heap keeps the prefix in which ticket 0
    /// committed. The refused ticket leaves no trace: no `validate_ok` or
    /// `commit` of it is recorded, and the crash follows ticket 0's commit
    /// (SEMANTICS.md §2, clause 6).
    #[test]
    fn a_commit_into_an_object_freed_earlier_in_the_round_is_a_crash() {
        let setup = || {
            let mut heap = Heap::new();
            let ys = heap.alloc(ObjData::zeros_i64(2));
            let x = heap.alloc(ObjData::zeros_i64(4));
            (heap, ys, x)
        };
        let prefix = {
            let (mut heap, ys, x) = setup();
            heap.get_mut(ys).i64s_mut()[0] = 1;
            heap.free(x);
            heap.digest()
        };
        for threaded in [false, true] {
            let rec = Arc::new(alter_trace::RingRecorder::new(1 << 10));
            let p = params(2, 1, ConflictPolicy::None, CommitOrder::OutOfOrder)
                .with_recorder(rec.clone());
            let (mut heap, ys, x) = setup();
            let err = one_loop(
                &mut heap,
                &mut RedVars::new(),
                &mut RangeSpace::new(0, 2),
                &p,
                threaded,
                |ctx: &mut TxCtx<'_>, i: u64| {
                    ctx.tx.write_i64(ys, i as usize, i as i64 + 1);
                    if i == 0 {
                        ctx.tx.free(x);
                    } else {
                        ctx.tx.write_i64(x, 3, 7);
                    }
                },
                &mut NullObserver,
            )
            .unwrap_err();
            assert!(
                matches!(err, RunError::Crash(ref m) if m.contains(&x.to_string())),
                "threaded={threaded}: {err:?}"
            );
            assert_eq!(heap.digest(), prefix, "threaded={threaded}");
            let events = rec.events();
            assert!(
                !events.iter().any(|e| matches!(
                    e,
                    Event::ValidateOk { seq: 1, .. } | Event::Commit { seq: 1, .. }
                )),
                "threaded={threaded}: {events:?}"
            );
            assert!(
                matches!(
                    events[..],
                    [.., Event::Commit { seq: 0, .. }, Event::Crash { .. }]
                ),
                "threaded={threaded}: {events:?}"
            );
        }
    }

    /// A boolean reduction operator on a float variable cannot merge: the
    /// run crashes before its first round, with the heap, the variable and
    /// the trace untouched but for the crash (SEMANTICS.md §4, clause 5).
    #[test]
    fn a_boolean_reduction_over_a_float_variable_crashes_before_any_round() {
        for threaded in [false, true] {
            let mut heap = Heap::new();
            let xs = heap.alloc(ObjData::zeros_i64(8));
            let before = heap.digest();
            let mut reds = RedVars::new();
            let v = reds.declare("v", RedVal::F64(1.5));
            let rec = Arc::new(alter_trace::RingRecorder::new(1 << 10));
            let mut p = params(2, 1, ConflictPolicy::Waw, CommitOrder::OutOfOrder)
                .with_recorder(rec.clone());
            p.reductions = vec![(v, RedOp::And)];
            let err = one_loop(
                &mut heap,
                &mut reds,
                &mut RangeSpace::new(0, 8),
                &p,
                threaded,
                |ctx: &mut TxCtx<'_>, i: u64| {
                    ctx.tx.write_i64(xs, i as usize, 1);
                    ctx.red_add(v, 1.0);
                },
                &mut NullObserver,
            )
            .unwrap_err();
            assert!(
                matches!(err, RunError::Crash(ref m) if m.contains("boolean reduction over f64")),
                "threaded={threaded}: {err:?}"
            );
            assert_eq!(heap.digest(), before, "threaded={threaded}");
            assert_eq!(reds.get(v), RedVal::F64(1.5), "threaded={threaded}");
            assert!(
                matches!(rec.events()[..], [Event::Crash { .. }]),
                "threaded={threaded}: {:?}",
                rec.events()
            );
        }
    }

    /// Tracked-memory budget violations become OutOfMemory.
    #[test]
    fn memory_budget_becomes_oom_error() {
        crate::quiet::quiet_panics(|| {
            let mut p = params(4, 1, ConflictPolicy::Raw, CommitOrder::OutOfOrder);
            p.budget_words = 100;
            for at in [4, 5, 7] {
                let (err, xs) = run_with_fault(&p, at, |ctx, big| {
                    ctx.tx.with_f64s(big, 0, 1000, |_| {});
                });
                assert!(matches!(err, RunError::OutOfMemory { budget: 100, .. }));
                assert_eq!(xs, prefix(at as i64));
            }
        });
    }

    /// Work-budget violations become WorkBudgetExceeded (timeout analogue).
    /// The budget is checked between rounds, so the round that overspent
    /// commits whole.
    #[test]
    fn work_budget_becomes_timeout_error() {
        let mut p = params(4, 1, ConflictPolicy::None, CommitOrder::OutOfOrder);
        p.work_budget = Some(500);
        for at in [4, 5, 7] {
            let (err, xs) = run_with_fault(&p, at, |ctx, _| ctx.tx.work(1000));
            assert!(matches!(
                err,
                RunError::WorkBudgetExceeded { budget: 500, .. }
            ));
            assert_eq!(xs, prefix(8));
        }
    }

    /// Transactional allocation installs objects at commit with stable ids.
    #[test]
    fn transactional_allocation_survives_commit() {
        let mut heap = Heap::new();
        let table = heap.alloc(ObjData::zeros_i64(8));
        let mut reds = RedVars::new();
        let p = params(4, 1, ConflictPolicy::Waw, CommitOrder::OutOfOrder);
        one_loop(
            &mut heap,
            &mut reds,
            &mut RangeSpace::new(0, 8),
            &p,
            false,
            |ctx: &mut TxCtx<'_>, i| {
                let node = ctx.tx.alloc(ObjData::scalar_i64(i as i64 * 10));
                ctx.tx.write_i64(table, i as usize, node.to_i64());
            },
            &mut NullObserver,
        )
        .unwrap();
        for i in 0..8 {
            let id = alter_heap::ObjId::from_i64(heap.get(table).i64s()[i]);
            assert_eq!(heap.get(id).i64s()[0], i as i64 * 10);
        }
        assert_eq!(heap.live_objects(), 9);
    }

    /// Each round's transactions allocate from the heap's high water at the
    /// round's snapshot, worker `w` from its `w`-th block, and the commit
    /// raises the high water past every id it installs, so the next round
    /// starts past them.
    #[test]
    fn each_round_allocates_from_the_high_water_of_its_snapshot() {
        let mut heap = Heap::new();
        let table = heap.alloc(ObjData::zeros_i64(8));
        let mut base = heap.high_water();
        let mut reds = RedVars::new();
        let p = params(2, 1, ConflictPolicy::Waw, CommitOrder::InOrder);
        let stats = one_loop(
            &mut heap,
            &mut reds,
            &mut RangeSpace::new(0, 8),
            &p,
            false,
            |ctx: &mut TxCtx<'_>, i| {
                let node = ctx.tx.alloc(ObjData::scalar_i64(i as i64));
                ctx.tx.write_i64(table, i as usize, node.to_i64());
            },
            &mut NullObserver,
        )
        .unwrap();
        assert_eq!((stats.rounds, stats.retries()), (4, 0));
        let ids: Vec<u32> = (0..8)
            .map(|i| alter_heap::ObjId::from_i64(heap.get(table).i64s()[i]).index())
            .collect();
        for round in ids.chunks(2) {
            assert_eq!(round, [base, base + alter_heap::DEFAULT_BLOCK_SIZE]);
            base = round[1] + 1;
        }
        assert_eq!(heap.high_water(), base);
    }

    /// Allocations made by transactions that later abort are abandoned;
    /// their retries allocate fresh ids and nothing ever collides.
    #[test]
    fn aborted_allocations_never_collide() {
        let mut heap = Heap::new();
        let table = heap.alloc(ObjData::zeros_i64(12));
        let hot = heap.alloc(ObjData::scalar_i64(0));
        let mut reds = RedVars::new();
        let p = params(4, 1, ConflictPolicy::Waw, CommitOrder::OutOfOrder);
        let stats = one_loop(
            &mut heap,
            &mut reds,
            &mut RangeSpace::new(0, 12),
            &p,
            false,
            |ctx: &mut TxCtx<'_>, i| {
                // Everyone contends on `hot`, so most attempts abort after
                // allocating; the committed attempt's node must be unique.
                let node = ctx.tx.alloc(ObjData::scalar_i64(i as i64));
                ctx.tx.write_i64(table, i as usize, node.to_i64());
                let v = ctx.tx.read_i64(hot, 0);
                ctx.tx.write_i64(hot, 0, v + 1);
            },
            &mut NullObserver,
        )
        .unwrap();
        assert!(stats.retries() > 0);
        let mut ids: Vec<i64> = (0..12).map(|i| heap.get(table).i64s()[i]).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 12, "every committed node id is distinct");
        for (i, raw) in (0..12).map(|i| (i, heap.get(table).i64s()[i])) {
            let node = alter_heap::ObjId::from_i64(raw);
            assert_eq!(heap.get(node).i64s()[0], i as i64);
        }
    }

    /// The observer sees every round with per-task commit decisions.
    #[test]
    fn observer_receives_round_reports() {
        struct Collect {
            rounds: u64,
            committed: u64,
            attempts: u64,
        }
        impl RoundObserver for Collect {
            fn on_round(&mut self, r: &RoundReport<'_>) {
                assert_eq!(r.round, self.rounds);
                self.rounds += 1;
                self.attempts += r.tasks.len() as u64;
                self.committed += r.tasks.iter().filter(|t| t.committed).count() as u64;
            }
        }
        let mut heap = Heap::new();
        let xs = heap.alloc(ObjData::zeros_f64(10));
        let mut reds = RedVars::new();
        let p = params(2, 2, ConflictPolicy::Waw, CommitOrder::OutOfOrder);
        let mut obs = Collect {
            rounds: 0,
            committed: 0,
            attempts: 0,
        };
        let stats = one_loop(
            &mut heap,
            &mut reds,
            &mut RangeSpace::new(0, 10),
            &p,
            false,
            |ctx: &mut TxCtx<'_>, i| ctx.tx.write_f64(xs, i as usize, 1.0),
            &mut obs,
        )
        .unwrap();
        assert_eq!(obs.rounds, stats.rounds);
        assert_eq!(obs.attempts, stats.attempts);
        assert_eq!(obs.committed, stats.committed);
    }

    /// A conflict-heavy loop books its scans at the per-writer charge and
    /// recycles transaction buffers across rounds.
    #[test]
    fn conflicting_loop_books_its_scans_and_recycles_buffers() {
        let mut heap = Heap::new();
        let xs = heap.alloc(ObjData::zeros_i64(64));
        let shared = heap.alloc(ObjData::scalar_i64(0));
        let mut reds = RedVars::new();
        let p = params(8, 2, ConflictPolicy::Waw, CommitOrder::OutOfOrder);
        for threaded in [false, true] {
            let stats = one_loop(
                &mut heap,
                &mut reds,
                &mut RangeSpace::new(0, 64),
                &p,
                threaded,
                |ctx: &mut TxCtx<'_>, i| {
                    let s = ctx.tx.read_i64(shared, 0);
                    ctx.tx.write_i64(xs, i as usize, s + i as i64);
                    if i % 7 == 0 {
                        ctx.tx.write_i64(shared, 0, s + 1);
                    }
                },
                &mut NullObserver,
            )
            .unwrap();
            assert!(stats.retries() > 0, "the loop must actually conflict");
            assert!(stats.validate_words > 0, "every validation is charged");
            assert_eq!(stats.exact_scan_words, stats.validate_words);
            // Round 0 fills all 8 lanes (32 chunks) with fresh effects; every
            // later transaction is built in spent ones, so effects that a
            // commit or a re-queue failed to hand back would show here.
            assert_eq!(
                stats.pool_reuses,
                stats.attempts - p.workers as u64,
                "threaded {threaded}"
            );
        }
    }

    /// The exact counts of a two-worker conflicting loop with a reduction,
    /// pinned under both drivers: how many transactions were built in spent
    /// effects (`pool_reuses`), retried and re-queued. Recycling more of a
    /// round's containers changes none of them.
    #[test]
    fn a_two_worker_conflicting_loop_reuses_exactly_the_effects_it_hands_back() {
        for threaded in [false, true] {
            let mut heap = Heap::new();
            let xs = heap.alloc(ObjData::zeros_i64(48));
            let shared = heap.alloc(ObjData::scalar_i64(0));
            let mut reds = RedVars::new();
            let sum = reds.declare("sum", RedVal::I64(0));
            let mut p = params(2, 1, ConflictPolicy::Waw, CommitOrder::OutOfOrder);
            p.reductions = vec![(sum, RedOp::Add)];
            let stats = one_loop(
                &mut heap,
                &mut reds,
                &mut RangeSpace::new(0, 48),
                &p,
                threaded,
                |ctx: &mut TxCtx<'_>, i| {
                    ctx.red_add(sum, RedVal::I64(i as i64));
                    ctx.tx.write_i64(xs, i as usize, 1);
                    if i % 3 != 1 {
                        let s = ctx.tx.read_i64(shared, 0);
                        ctx.tx.write_i64(shared, 0, s + 1);
                    }
                },
                &mut NullObserver,
            )
            .unwrap();
            let counts = (
                stats.rounds,
                stats.attempts,
                stats.tickets_requeued,
                stats.pool_reuses,
            );
            assert_eq!(counts, (32, 63, 15, 61), "threaded {threaded}");
            assert_eq!(reds.get(sum), RedVal::I64((0..48).sum()));
            assert_eq!(heap.get(shared).i64s(), &[32]);
        }
    }

    /// `avg_rw_words` is well-defined (0.0, not NaN) when nothing ran.
    #[test]
    fn avg_rw_words_of_empty_run_is_zero() {
        let stats = RunStats::default();
        assert_eq!(stats.avg_rw_words(), 0.0);
        assert_eq!(stats.retry_rate(), 0.0);
        let some = RunStats {
            attempts: 4,
            tracked_words: 10,
            ..Default::default()
        };
        assert_eq!(some.avg_rw_words(), 2.5);
    }

    /// A helped round from the engine's side: at two workers the caller's
    /// thread and lane 1 both execute tickets — ticket 0 of the first round
    /// does not finish before ticket 1 has started, which only the lane can
    /// have done — and nothing the run produces shows who executed what:
    /// heap, semantic statistics and event stream equal the sequential
    /// driver's (the determinism guarantee); only the two counters that
    /// name the driver differ.
    #[test]
    fn coordinator_and_lane_both_execute_tickets_and_leave_no_trace_of_it() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let run = |threaded: bool| {
            let mut heap = Heap::new();
            let xs = heap.alloc(ObjData::zeros_i64(32));
            let shared = heap.alloc(ObjData::scalar_i64(0));
            let mut reds = RedVars::new();
            let rec = Arc::new(alter_trace::RingRecorder::new(1 << 16));
            let p = params(2, 1, ConflictPolicy::Raw, CommitOrder::OutOfOrder)
                .with_recorder(rec.clone());
            let caller = std::thread::current().id();
            let ticket_1_started = AtomicBool::new(false);
            let ran_on = std::sync::Mutex::new(std::collections::BTreeSet::new());
            let stats = one_loop(
                &mut heap,
                &mut reds,
                &mut RangeSpace::new(0, 32),
                &p,
                threaded,
                |ctx: &mut TxCtx<'_>, i| {
                    let me = std::thread::current();
                    let who = match me.name() {
                        _ if me.id() == caller => "caller",
                        Some(lane) => lane,
                        None => "unnamed",
                    };
                    ran_on.lock().unwrap().insert(who.to_owned());
                    match i {
                        1 => ticket_1_started.store(true, Ordering::SeqCst),
                        0 if threaded => {
                            let waiting = Instant::now();
                            while !ticket_1_started.load(Ordering::SeqCst) {
                                assert!(waiting.elapsed().as_secs() < 30, "no lane took ticket 1");
                                std::thread::yield_now();
                            }
                        }
                        _ => {}
                    }
                    let s = ctx.tx.read_i64(shared, 0);
                    ctx.tx.write_i64(xs, i as usize, s + i as i64);
                    if i % 5 == 0 {
                        ctx.tx.write_i64(shared, 0, s + 1);
                    }
                },
                &mut NullObserver,
            )
            .unwrap();
            assert!(stats.retries() > 0 && stats.rounds > 1);
            assert_eq!(rec.dropped(), 0);
            let hash = alter_trace::trace_hash(&rec.events());
            let ran_on: Vec<String> = ran_on.into_inner().unwrap().into_iter().collect();
            (
                (heap.digest(), stats.modulo_drive_mode(), hash),
                stats,
                ran_on,
            )
        };
        let (seq, s_seq, ran_on_seq) = run(false);
        let (thr, s_thr, ran_on_thr) = run(true);
        assert_eq!(ran_on_seq, ["caller"]);
        assert_eq!(ran_on_thr, ["alter-worker-1", "caller"]);
        assert_eq!(thr, seq, "who executed a ticket cannot be observed");
        assert_eq!((s_seq.tickets_helped, s_seq.pool_round_handoffs), (0, 0));
        assert_eq!(
            s_thr.pool_round_handoffs, s_thr.rounds,
            "the pool drives every round"
        );
        // Ticket 0 of every round is the coordinator's; ticket 1 of the
        // first round, at least, was not.
        assert!((s_thr.rounds..s_thr.attempts).contains(&s_thr.tickets_helped));
    }

    /// Round snapshots copy nothing: every round's view is dropped before
    /// its commits, so a run's writes land in place and
    /// `snapshot_slots_copied` stays zero. It counts one page for a write
    /// made under a view the caller holds, reported by the next round.
    #[test]
    fn round_snapshots_copy_only_pages_written_under_a_held_view() {
        let mut heap = Heap::new();
        // Two pages of cold slots; the hot object is on the second.
        for i in 0..96 {
            heap.alloc(ObjData::scalar_i64(i));
        }
        let xs = heap.alloc(ObjData::zeros_i64(64));
        let p = params(4, 2, ConflictPolicy::Waw, CommitOrder::OutOfOrder);
        let run = |heap: &mut Heap| {
            one_loop(
                heap,
                &mut RedVars::new(),
                &mut RangeSpace::new(0, 64),
                &p,
                false,
                |ctx: &mut TxCtx<'_>, i| {
                    ctx.tx.write_i64(xs, i as usize, i as i64);
                },
                &mut NullObserver,
            )
            .unwrap()
        };
        let stats = run(&mut heap);
        assert!(stats.rounds > 1);
        assert_eq!(stats.snapshot_slots_copied, 0, "no view outlives a round");

        let held = heap.snapshot();
        heap.get_mut(xs).i64s_mut()[0] = -1;
        let stats = run(&mut heap);
        assert_eq!(
            stats.snapshot_slots_copied,
            alter_heap::SNAPSHOT_PAGE_SLOTS as u64,
            "one page was written under the held view, once"
        );
        assert_eq!(held.get(xs).unwrap().i64s()[0], 0);
    }

    /// [`Validator::check`] on its own: three earlier committers of 2, 16
    /// and 4 words in the 64-word blocks 0, 1 and 2 of one object. Pins the
    /// verdict and the per-writer `validate_words` formula on the conflict
    /// path, the clean path and under `NONE`.
    #[test]
    fn validator_check_names_the_writer_lost_to_and_charges_per_writer() {
        let mut heap = Heap::new();
        let xs = heap.alloc(ObjData::zeros_i64(1024));
        let (snap, _) = heap.snapshot_incremental();
        let check = |policy: ConflictPolicy, words: &[usize]| {
            let mut validator = Validator::new(policy);
            for (seq, lo, hi) in [(10, 0, 2), (11, 64, 80), (12, 128, 132)] {
                let mut earlier = TxEffects::default();
                earlier.writes.insert(xs, lo, hi);
                validator.admit(seq, (earlier, Vec::new()));
            }
            let ids = IdReservation::new(heap.high_water(), 0, 1, 8);
            let mut tx = Tx::new(&snap, policy.track_mode(), ids, u64::MAX);
            for &w in words {
                tx.write_i64(xs, w, 1);
            }
            validator.check(&tx.finish())
        };

        // Five tracked words overlapping only the second writer, first at
        // word 70: charged min(2, 5) + min(16, 5) for the writers up to and
        // including the winner, the two writers the walk scanned.
        let overlapping = [70, 71, 72, 300, 301];
        let lost = ConflictDetail {
            kind: ConflictKind::Waw,
            obj: xs,
            word: 70,
            winner_seq: 11,
        };
        assert_eq!(
            check(ConflictPolicy::Waw, &overlapping),
            (2 + 5, Some(lost))
        );
        // Words 512.. are no writer's: every writer is scanned and charged.
        assert_eq!(
            check(ConflictPolicy::Waw, &[512, 513, 514]),
            (2 + 3 + 3, None)
        );
        // NONE never conflicts, but is charged for every writer all the same.
        assert_eq!(check(ConflictPolicy::None, &overlapping), (2 + 5 + 4, None));
    }

    /// [`Validator::check`] against an oracle that shares nothing with the
    /// access sets: random rounds of 0–4 earlier writers and a candidate,
    /// ranges over 3 objects of 512 words, decided under every policy by a
    /// plain `BTreeSet<(ObjId, u32)>` intersection in commit order. The
    /// verdict, winner, kind, word and `validate_words` must all agree.
    #[test]
    fn validator_check_agrees_with_a_naive_intersection_in_commit_order() {
        use std::collections::BTreeSet;
        type Words = BTreeSet<(ObjId, u32)>;
        /// SplitMix64.
        struct Rng(u64);
        impl Rng {
            fn below(&mut self, bound: usize) -> usize {
                self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                ((z ^ (z >> 31)) % bound as u64) as usize
            }

            /// `n` (object, lo, hi) draws: half short ranges, half long.
            fn ranges(&mut self, objs: &[ObjId], n: usize) -> Vec<(ObjId, usize, usize)> {
                (0..n)
                    .map(|_| {
                        let lo = self.below(512);
                        let len = 1 + if self.below(2) == 0 {
                            self.below(128)
                        } else {
                            self.below(4)
                        };
                        (objs[self.below(3)], lo, (lo + len).min(512))
                    })
                    .collect()
            }
        }
        let mut rng = Rng(0x0da7_a5e7);
        let mut heap = Heap::new();
        let objs: Vec<ObjId> = (0..3)
            .map(|_| heap.alloc(ObjData::zeros_i64(512)))
            .collect();
        let (snap, _) = heap.snapshot_incremental();
        let (mut conflicts, mut clean) = (0, 0);
        for case in 0..400 {
            let writers: Vec<Vec<_>> = (0..rng.below(5))
                .map(|_| {
                    let n = 1 + rng.below(3);
                    rng.ranges(&objs, n)
                })
                .collect();
            let n = rng.below(4);
            let reads = rng.ranges(&objs, n);
            let n = rng.below(4);
            let writes = rng.ranges(&objs, n);
            let words = |rs: &[(ObjId, usize, usize)]| -> Words {
                rs.iter()
                    .flat_map(|&(o, lo, hi)| (lo as u32..hi as u32).map(move |w| (o, w)))
                    .collect()
            };
            for policy in [
                ConflictPolicy::Full,
                ConflictPolicy::Raw,
                ConflictPolicy::Waw,
                ConflictPolicy::None,
            ] {
                let mut validator = Validator::new(policy);
                for (seq, w) in writers.iter().enumerate() {
                    let mut earlier = TxEffects::default();
                    for &(o, lo, hi) in w {
                        earlier.writes.insert(o, lo as u32, hi as u32);
                    }
                    validator.admit(seq as u64, (earlier, Vec::new()));
                }
                let ids = IdReservation::new(heap.high_water(), 0, 1, 8);
                let mut tx = Tx::new(&snap, policy.track_mode(), ids, u64::MAX);
                for &(o, lo, hi) in &reads {
                    tx.with_i64s(o, lo, hi, |_| ());
                }
                for &(o, lo, hi) in &writes {
                    tx.write_i64s(o, lo, &vec![1; hi - lo]);
                }
                let (got_words, got) = validator.check(&tx.finish());

                // The oracle. Reads are tracked, and checked, exactly under
                // FULL and RAW.
                let r = match policy {
                    ConflictPolicy::Full | ConflictPolicy::Raw => words(&reads),
                    _ => Words::new(),
                };
                let w = words(&writes);
                let write_checked = matches!(policy, ConflictPolicy::Full | ConflictPolicy::Waw);
                let tracked = r.len() + w.len();
                let mut want_words = 0;
                let mut want = None;
                for (seq, earlier) in writers.iter().enumerate() {
                    let earlier = words(earlier);
                    want_words += earlier.len().min(tracked) as u64;
                    let first = |mine: &Words, kind| {
                        let &(obj, word) = mine.intersection(&earlier).next()?;
                        Some(ConflictDetail {
                            kind,
                            obj,
                            word,
                            winner_seq: seq as u64,
                        })
                    };
                    want = first(&r, ConflictKind::Raw).or_else(|| {
                        write_checked
                            .then(|| first(&w, ConflictKind::Waw))
                            .flatten()
                    });
                    if want.is_some() {
                        break;
                    }
                }
                let ctx = format!("case {case} {policy:?}");
                assert_eq!(got, want, "{ctx}");
                assert_eq!(got_words, want_words, "{ctx}");
                if want.is_some() {
                    conflicts += 1;
                } else if !writers.is_empty() && policy != ConflictPolicy::None {
                    clean += 1;
                }
            }
        }
        // The geometry must exercise both verdicts.
        assert!(conflicts > 150, "only {conflicts} conflicts");
        assert!(clean > 300, "only {clean} clean validations");
    }

    /// The engine's wall spans, which only `bench/` consumed: with a
    /// [`WallProfile`] attached, under both drivers, a conflicting
    /// multi-round loop times each of the four engine phases, nests them
    /// all inside the run, and changes nothing the unprofiled run produces.
    #[test]
    fn wall_spans_cover_every_engine_phase_and_perturb_nothing() {
        let run = |threaded: bool, wall: Option<Arc<WallProfile>>| {
            let mut heap = Heap::new();
            let xs = heap.alloc(ObjData::zeros_i64(32));
            let shared = heap.alloc(ObjData::scalar_i64(0));
            let mut reds = RedVars::new();
            let rec = Arc::new(alter_trace::RingRecorder::new(1 << 16));
            let mut p = params(4, 2, ConflictPolicy::Waw, CommitOrder::OutOfOrder)
                .with_recorder(rec.clone());
            p.wall_profile = wall;
            let started = Instant::now();
            let stats = one_loop(
                &mut heap,
                &mut reds,
                &mut RangeSpace::new(0, 32),
                &p,
                threaded,
                |ctx: &mut TxCtx<'_>, i| {
                    let s = ctx.tx.read_i64(shared, 0);
                    ctx.tx.write_i64(xs, i as usize, s + i as i64);
                    if i % 5 == 0 {
                        ctx.tx.write_i64(shared, 0, s + 1);
                    }
                },
                &mut NullObserver,
            )
            .unwrap();
            let elapsed = started.elapsed().as_secs_f64();
            assert!(stats.retries() > 0 && stats.rounds > 1);
            assert_eq!(rec.dropped(), 0);
            let hash = alter_trace::trace_hash(&rec.events());
            // Two runs of the threaded driver race differently for tickets.
            let stats = RunStats {
                tickets_helped: 0,
                ..stats
            };
            ((stats, heap.digest(), hash), elapsed)
        };
        for threaded in [false, true] {
            let wall = Arc::new(WallProfile::new());
            let (profiled, elapsed) = run(threaded, Some(Arc::clone(&wall)));
            let secs = wall.seconds();
            for phase in Phase::ALL {
                assert!(secs[phase.index()] > 0.0, "{phase}, threaded={threaded}");
            }
            assert!(wall.total() <= elapsed, "spans nest inside the run");
            assert_eq!(profiled, run(threaded, None).0, "threaded={threaded}");
        }
    }
}
