//! A persistent worker pool for lock-step rounds.
//!
//! The paper's runtime forks its N worker processes **once** and then feeds
//! them one chunk-transaction per lock-step round (§4.1, Figure 4).
//! [`WorkerPool`] is that shape: N long-lived threads, a per-round task
//! handoff over channels, and a deterministic join barrier.
//!
//! Determinism needs no care from the workers themselves: each lane has a
//! private job channel and a private result channel, a round's results are
//! collected in job order, and job *i* is always executed as `f(i, job)`.
//! The coordinator therefore observes results in exactly the order the
//! sequential driver would produce them, whatever order the workers finish
//! in — the same argument that makes the paper's commit phase deterministic
//! (§4.3). Only the *commit* order is load-bearing, not which thread
//! executes a ticket (Saad et al., PAPERS.md), and the pool has a round of
//! each kind:
//!
//! * A **lane-addressed round** ([`WorkerPool::run_round`],
//!   [`WorkerPool::stream_round`]) sends job *i* to lane *i* and waits. The
//!   caller is free meanwhile; callers that want a job on a particular
//!   thread (the wall benchmark's far-CPU calibration) or that have nothing
//!   to execute themselves (the inference engine's probes) use it.
//! * A **helped round** ([`WorkerPool::help_round`]) is for a caller that
//!   would otherwise only wait — the engine's coordinator. Job *i* is put
//!   into lane *i*'s *claim cell* and the lane is sent a wake token; the
//!   caller then walks the tickets in order and executes every job still in
//!   its cell itself. Whoever empties the cell runs the job, exactly once;
//!   a lane that wakes to an empty cell goes back to waiting without
//!   answering, so the result channels stay aligned. N tickets keep N
//!   threads runnable, not N + 1, and a run whose threads are stacked on
//!   one CPU degrades to the sequential driver's speed instead of below it.
//!
//! Jobs and results are the caller's types: the engine ships each ticket
//! with the loop it belongs to, so one pool serves every loop of a session,
//! and the inference engine runs independent probes on the same pool.
//!
//! Every wait — a lane for its next message, the coordinator for a lane's
//! result — **polls first and parks last** (`recv_polling`): between
//! back-to-back rounds the other side answers within a few scheduler
//! yields, so neither side sleeps and no send has to wake anyone (a futex
//! wake across the CPUs of a virtual machine costs ~20 µs, and a round paid
//! two). Only *how long* a receive blocks changed, never which value it
//! returns, so the ordering argument above is untouched.
//!
//! Shutdown is by drop: it closes the job channels, each lane's receive
//! loop ends, and the owning `thread::scope` joins the lanes — so drop the
//! pool inside the scope closure, before the scope's implicit join.

use std::sync::mpsc::{channel, Receiver, RecvError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::Scope;

/// Polls a waiter makes before it parks in a blocking `recv`: about half a
/// millisecond of yields on an otherwise idle CPU. Measured, not guessed
/// (EXPERIMENTS "Wall clock: poll-then-park"): rounds of tiny jobs need only
/// a handful, but a waiter that gives up before a fat round's lane skew or
/// serial section is over pays the polls *and* the wake (200 polls made
/// Floyd 5 % slower than blocking; its gain levels off at 2 000), while
/// budgets of 5 000 and up start to cost K-means, because lanes of an idle
/// pool stay runnable that much longer.
const POLL_BUDGET: u32 = 2000;

/// `rx.recv()`, but polling for [`POLL_BUDGET`] scheduler yields before
/// parking. The waiter must *yield*, not spin: a lane may share its CPU
/// with the very thread it waits for, and a spinning waiter would hold
/// that CPU for its whole time slice.
fn recv_polling<T>(rx: &Receiver<T>) -> Result<T, RecvError> {
    for _ in 0..POLL_BUDGET {
        match rx.try_recv() {
            Ok(value) => return Ok(value),
            Err(TryRecvError::Disconnected) => return Err(RecvError),
            Err(TryRecvError::Empty) => std::thread::yield_now(),
        }
    }
    rx.recv()
}

/// What a lane is told over its job channel.
enum Msg<J> {
    /// Run this job: a lane-addressed round.
    Run(J),
    /// Look into the claim cell: a helped round put a job there. The token
    /// is not a job — by the time the lane reads it the coordinator may have
    /// taken the job back, or already refilled the cell for a later round.
    Offer,
}

/// A lane's claim cell: the one job of a helped round that is the lane's to
/// execute unless the coordinator gets to it first.
type Cell<J> = Arc<Mutex<Option<J>>>;

/// Puts `job` into `cell` and returns what was there. With `None` this is
/// the *claim*, the linearisation point of a helped round: of the lane and
/// the coordinator, whoever gets the job out runs it.
fn exchange<J>(cell: &Cell<J>, job: Option<J>) -> Option<J> {
    // Nothing that can panic runs under the guard — the old value is
    // dropped by the caller, a job run by whoever claimed it — so the lock
    // is never poisoned.
    let mut slot = cell.lock().expect("no code panics holding a claim cell");
    std::mem::replace(&mut *slot, job)
}

const DEAD: &str = "pool worker exited early";

struct Worker<J, R> {
    job_tx: Sender<Msg<J>>,
    result_rx: Receiver<R>,
    cell: Cell<J>,
}

/// N long-lived worker threads executing one job each per round.
///
/// ```
/// let square = |_worker: usize, x: u64| x * x; // must outlive the scope
/// std::thread::scope(|scope| {
///     let mut pool = alter_runtime::WorkerPool::new(scope, 4, &square);
///     assert_eq!(pool.run_round(vec![1, 2, 3]), vec![1, 4, 9]);
///     let mut out = Vec::new();
///     pool.help_round(vec![5, 6], &square, &mut out);
///     assert_eq!(out, vec![25, 36]);
///     assert!(pool.run_round(Vec::new()).is_empty());
///     assert_eq!(pool.round_handoffs(), 2); // one per non-empty round
///     assert!((1..=2).contains(&pool.helped())); // job 5 ran right here
/// });
/// ```
pub struct WorkerPool<J, R> {
    workers: Vec<Worker<J, R>>,
    handoffs: u64,
    helped: u64,
}

impl<J, R> WorkerPool<J, R> {
    /// Spawns `workers` long-lived threads on `scope`, each running
    /// `f(worker_index, job)` for every job handed to it.
    ///
    /// `f` must outlive the scope (borrow it from outside the scope
    /// closure); jobs and results only need to survive a single round.
    pub fn new<'scope, 'env, F>(
        scope: &'scope Scope<'scope, 'env>,
        workers: usize,
        f: &'scope F,
    ) -> Self
    where
        F: Fn(usize, J) -> R + Sync,
        J: Send + 'scope,
        R: Send + 'scope,
    {
        let workers = (0..workers.max(1))
            .map(|w| {
                let (job_tx, job_rx) = channel::<Msg<J>>();
                let (result_tx, result_rx) = channel::<R>();
                let cell = Cell::default();
                let offered = Arc::clone(&cell);
                std::thread::Builder::new()
                    .name(format!("alter-worker-{w}"))
                    .spawn_scoped(scope, move || {
                        while let Ok(msg) = recv_polling(&job_rx) {
                            let job = match msg {
                                Msg::Run(job) => job,
                                Msg::Offer => match exchange(&offered, None) {
                                    Some(job) => job,
                                    None => continue,
                                },
                            };
                            if result_tx.send(f(w, job)).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawn pool worker thread");
                Worker {
                    job_tx,
                    result_rx,
                    cell,
                }
            })
            .collect();
        WorkerPool {
            workers,
            handoffs: 0,
            helped: 0,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Rounds handed off so far (empty rounds are not counted).
    pub fn round_handoffs(&self) -> u64 {
        self.handoffs
    }

    /// Jobs of helped rounds the caller of [`WorkerPool::help_round`]
    /// executed itself. Scheduling telemetry: it depends on who was faster.
    pub fn helped(&self) -> u64 {
        self.helped
    }

    /// Books a round of `jobs` jobs.
    fn begin_round(&mut self, jobs: usize) {
        assert!(
            jobs <= self.workers.len(),
            "round of {jobs} jobs exceeds {} workers",
            self.workers.len()
        );
        if jobs > 0 {
            self.handoffs += 1;
        }
    }

    /// Executes one round: job *i* runs on worker *i*; returns the results
    /// in job order. Blocks until every job of the round has finished — the
    /// round barrier.
    ///
    /// # Panics
    ///
    /// Panics if `jobs.len()` exceeds the worker count, or if a worker
    /// thread died (a worker panic propagates when the owning scope joins).
    pub fn run_round(&mut self, jobs: Vec<J>) -> Vec<R> {
        let mut stream = self.stream_round(jobs);
        let mut out = Vec::with_capacity(stream.remaining());
        while let Some(r) = stream.next_ticket() {
            out.push(r);
        }
        out
    }

    /// Dispatches one round's jobs (job *i* to lane *i*) and returns a
    /// stream that yields each lane's result **in ticket order** as soon as
    /// it is available — a barrier-free handoff for callers that can use
    /// results early. Lane *i+1* keeps executing while the caller consumes
    /// ticket *i*; [`WorkerPool::run_round`] is exactly this stream drained
    /// to a `Vec`.
    ///
    /// Dropping the stream early (committer abort) drains the outstanding
    /// results so the lanes stay aligned for the next round.
    ///
    /// # Panics
    ///
    /// Panics if `jobs.len()` exceeds the worker count, or if a worker
    /// thread died (a worker panic propagates when the owning scope joins).
    pub fn stream_round(&mut self, jobs: Vec<J>) -> TicketStream<'_, J, R> {
        let n = jobs.len();
        self.begin_round(n);
        for (lane, job) in self.workers.iter().zip(jobs) {
            lane.job_tx.send(Msg::Run(job)).expect(DEAD);
        }
        TicketStream {
            pool: self,
            next: 0,
            n,
        }
    }

    /// Executes one round with the caller taking part: job *i* is offered
    /// to lane *i*, and the caller — instead of only waiting — walks the
    /// tickets in order and runs `f(i, job)` itself for every job no lane
    /// has started yet. `f` must be the function the pool was built with.
    /// Appends the results to `out` in job order and returns once every job
    /// has finished; which thread ran a job cannot be told from them. The
    /// jobs are offered as `jobs` yields them and the results land in the
    /// caller's buffer, so a caller that keeps its buffers allocates nothing
    /// for a round.
    ///
    /// Ticket 0 is the first the caller reaches, so lane 0 is not woken for
    /// it: an offer there would only keep one more thread runnable, on what
    /// a placed run makes the caller's own CPU. A one-job round therefore
    /// never leaves the caller's thread.
    ///
    /// # Panics
    ///
    /// As [`WorkerPool::run_round`]; a panic of `f` on the caller's thread
    /// passes through, with the rest of the round taken back or awaited so
    /// the lanes stay aligned.
    pub fn help_round<I>(&mut self, jobs: I, f: impl Fn(usize, J) -> R, out: &mut Vec<R>)
    where
        I: IntoIterator<Item = J>,
        I::IntoIter: ExactSizeIterator,
    {
        let jobs = jobs.into_iter();
        let n = jobs.len();
        self.begin_round(n);
        for (i, (lane, job)) in self.workers.iter().zip(jobs).enumerate() {
            exchange(&lane.cell, Some(job));
            if i > 0 {
                lane.job_tx.send(Msg::Offer).expect(DEAD);
            }
        }
        // From here on the stream's drop settles whatever an unwinding `f`
        // leaves of the round.
        let mut stream = TicketStream {
            pool: self,
            next: 0,
            n,
        };
        while stream.next < n {
            let i = stream.next;
            out.push(match exchange(&stream.pool.workers[i].cell, None) {
                Some(job) => {
                    stream.next += 1;
                    stream.pool.helped += 1;
                    f(i, job)
                }
                // Lane `i` has the job: its result is the next on its channel.
                None => stream.next_ticket().expect("ticket i < n"),
            });
        }
    }
}

/// In-order result stream for one dispatched round; see
/// [`WorkerPool::stream_round`].
pub struct TicketStream<'p, J, R> {
    pool: &'p mut WorkerPool<J, R>,
    next: usize,
    n: usize,
}

impl<J, R> TicketStream<'_, J, R> {
    /// Blocks for and returns the next lane's result in ticket order, or
    /// `None` once the round is drained.
    pub fn next_ticket(&mut self) -> Option<R> {
        if self.next >= self.n {
            return None;
        }
        let r = recv_polling(&self.pool.workers[self.next].result_rx).expect(DEAD);
        self.next += 1;
        Some(r)
    }

    /// Tickets not yet consumed from this round.
    pub fn remaining(&self) -> usize {
        self.n - self.next
    }
}

impl<J, R> Drop for TicketStream<'_, J, R> {
    fn drop(&mut self) {
        // Settle the tickets the caller abandoned so the next round's
        // results can't interleave with this one's: a job still in its cell
        // (helped rounds only) is taken back unrun, any other is some
        // lane's to answer for. A worker that died mid-round shows up as a
        // closed channel here; ignore it — its panic propagates when the
        // owning scope joins.
        while self.next < self.n {
            let lane = &self.pool.workers[self.next];
            if exchange(&lane.cell, None).is_none() {
                let _ = recv_polling(&lane.result_rx);
            }
            self.next += 1;
        }
    }
}

impl<J, R> std::fmt::Debug for WorkerPool<J, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .field("handoffs", &self.handoffs)
            .field("helped", &self.helped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::{Duration, Instant};

    /// Far longer than [`POLL_BUDGET`] yields take: after sleeping this
    /// long every waiting lane has parked in its blocking `recv`.
    const IDLE: Duration = Duration::from_millis(30);

    /// Runs `f` on its own thread and fails — instead of hanging the suite
    /// — if it has not returned in time. Re-raises `f`'s panic.
    fn within_deadline<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = channel();
        let runner = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(value) => value,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("the pool hung"),
            Err(_) => resume_unwind(runner.join().expect_err("f panicked before sending")),
        }
    }

    /// Message of the panic that leaves the `thread::scope` when `drive`
    /// runs over a 3-lane pool whose worker dies on job 13.
    fn panic_leaving_scope(
        drive: impl FnOnce(&mut WorkerPool<u64, u64>) + Send + 'static,
    ) -> String {
        let f = |_w: usize, x: u64| {
            assert_ne!(x, 13, "body blew up");
            x
        };
        let payload = within_deadline(move || {
            catch_unwind(AssertUnwindSafe(|| {
                std::thread::scope(|scope| drive(&mut WorkerPool::new(scope, 3, &f)));
            }))
        })
        .expect_err("a worker died");
        crate::engine::panic_message(&*payload)
    }

    #[test]
    fn results_come_back_in_job_order() {
        // Make later jobs finish first: job i sleeps inversely to i.
        let f = |worker: usize, x: u64| {
            std::thread::sleep(std::time::Duration::from_millis(8 - x));
            (worker, x * 10)
        };
        std::thread::scope(|scope| {
            let mut pool = WorkerPool::new(scope, 4, &f);
            let out = pool.run_round(vec![1, 2, 3, 4]);
            assert_eq!(out, vec![(0, 10), (1, 20), (2, 30), (3, 40)]);
        });
    }

    #[test]
    fn pool_survives_many_rounds_and_counts_handoffs() {
        let f = |_w: usize, x: u64| x + 1;
        std::thread::scope(|scope| {
            let mut pool = WorkerPool::new(scope, 2, &f);
            assert_eq!(pool.workers(), 2);
            for round in 0..100u64 {
                assert_eq!(pool.run_round(vec![round]), vec![round + 1]);
            }
            assert_eq!(pool.run_round(Vec::new()), Vec::<u64>::new());
            assert_eq!(pool.round_handoffs(), 100, "empty rounds don't count");
        });
    }

    #[test]
    fn stream_yields_in_ticket_order_while_later_lanes_run() {
        // Lane 0 is the slowest; the stream must still yield 0, 1, 2, 3.
        let f = |worker: usize, x: u64| {
            std::thread::sleep(std::time::Duration::from_millis(2 * x));
            (worker, x)
        };
        std::thread::scope(|scope| {
            let mut pool = WorkerPool::new(scope, 4, &f);
            let mut stream = pool.stream_round(vec![8, 2, 1, 0]);
            assert_eq!(stream.remaining(), 4);
            let mut seen = Vec::new();
            while let Some((w, x)) = stream.next_ticket() {
                seen.push((w, x));
            }
            assert_eq!(seen, vec![(0, 8), (1, 2), (2, 1), (3, 0)]);
            assert_eq!(stream.next_ticket(), None);
            drop(stream);
            assert_eq!(pool.round_handoffs(), 1);
        });
    }

    #[test]
    fn dropping_a_stream_early_drains_the_round() {
        let f = |_w: usize, x: u64| x * 2;
        std::thread::scope(|scope| {
            let mut pool = WorkerPool::new(scope, 3, &f);
            {
                let mut stream = pool.stream_round(vec![1, 2, 3]);
                assert_eq!(stream.next_ticket(), Some(2));
                // Tickets 1 and 2 are abandoned; the drop must drain them.
            }
            // A clean next round proves no stale results interleaved.
            assert_eq!(pool.run_round(vec![10, 20]), vec![20, 40]);
        });
    }

    #[test]
    #[should_panic(expected = "exceeds 1 workers")]
    fn oversized_round_panics() {
        let f = |_w: usize, x: u64| x;
        std::thread::scope(|scope| {
            let mut pool = WorkerPool::new(scope, 1, &f);
            pool.run_round(vec![1, 2]);
        });
    }

    #[test]
    fn parked_lanes_wake_for_a_round_after_a_long_idle() {
        let f = |w: usize, x: u64| {
            let lane = format!("alter-worker-{w}");
            assert_eq!(std::thread::current().name(), Some(lane.as_str()));
            (w, x + 1)
        };
        within_deadline(move || {
            std::thread::scope(|scope| {
                let mut pool = WorkerPool::new(scope, 3, &f);
                for round in 0..3u64 {
                    std::thread::sleep(IDLE);
                    let out = pool.run_round(vec![round, round + 10, round + 20]);
                    assert_eq!(out, vec![(0, round + 1), (1, round + 11), (2, round + 21)]);
                }
                assert_eq!(pool.round_handoffs(), 3);
            });
        });
    }

    #[test]
    fn dropping_the_pool_joins_polling_and_parked_lanes() {
        let f = |_w: usize, x: u64| x;
        within_deadline(move || {
            std::thread::scope(|scope| {
                let mut pool = WorkerPool::new(scope, 4, &f);
                std::thread::sleep(IDLE);
                // Lanes 0 and 1 have just answered and are polling for their
                // next job; lanes 2 and 3 are still parked.
                assert_eq!(pool.run_round(vec![1, 2]), vec![1, 2]);
                drop(pool);
            });
        });
    }

    #[test]
    fn a_dead_worker_panics_next_ticket_instead_of_polling_forever() {
        let message = panic_leaving_scope(|pool| {
            let mut stream = pool.stream_round(vec![1, 13, 3]);
            assert_eq!(stream.next_ticket(), Some(1));
            // Lane 1 died mid-round. The unwind then drops the stream
            // (draining lane 2) and the pool.
            stream.next_ticket();
        });
        assert!(message.contains("pool worker exited early"), "{message}");
    }

    #[test]
    fn dropping_a_stream_over_a_dead_worker_returns() {
        let message = panic_leaving_scope(|pool| drop(pool.stream_round(vec![1, 13, 3])));
        // The worker's own panic surfaces when the scope joins.
        assert!(message.contains("a scoped thread panicked"), "{message}");
    }

    #[test]
    fn oversubscribed_pool_completes_many_rounds_in_lane_order() {
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        let lanes = 4 * cpus;
        let f = |w: usize, x: u64| (w, x);
        within_deadline(move || {
            std::thread::scope(|scope| {
                let mut pool = WorkerPool::new(scope, lanes, &f);
                for round in 0..1000u64 {
                    let out = pool.run_round(vec![round; lanes]);
                    let expected: Vec<_> = (0..lanes).map(|w| (w, round)).collect();
                    assert_eq!(out, expected);
                }
                assert_eq!(pool.round_handoffs(), 1000);
            });
        });
    }

    /// One helped round's results, in a buffer of their own.
    fn help<R>(
        pool: &mut WorkerPool<u64, R>,
        jobs: Vec<u64>,
        f: &impl Fn(usize, u64) -> R,
    ) -> Vec<R> {
        let mut out = Vec::new();
        pool.help_round(jobs, f, &mut out);
        out
    }

    /// Whether the calling thread is one of a pool's lanes.
    fn on_a_lane() -> bool {
        let me = std::thread::current();
        me.name().is_some_and(|n| n.starts_with("alter-worker-"))
    }

    /// Yields until `flag` is raised; fails the test instead of hanging it.
    fn await_flag(flag: &AtomicBool, what: &str) {
        let waiting = Instant::now();
        while !flag.load(Ordering::SeqCst) {
            assert!(waiting.elapsed() < Duration::from_secs(30), "{what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn helped_rounds_run_every_job_exactly_once_and_answer_in_job_order() {
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        for lanes in [2, 4 * cpus] {
            within_deadline(move || {
                let ran: Vec<AtomicU64> = (0..lanes).map(|_| AtomicU64::new(0)).collect();
                let ran_on_lanes = AtomicU64::new(0);
                let f = |w: usize, x: u64| {
                    ran[w].fetch_add(1, Ordering::Relaxed);
                    ran_on_lanes.fetch_add(u64::from(on_a_lane()), Ordering::Relaxed);
                    (w, x)
                };
                std::thread::scope(|scope| {
                    let mut pool = WorkerPool::new(scope, lanes, &f);
                    for round in 0..10_000u64 {
                        let out = help(&mut pool, vec![round; lanes], &f);
                        let expected: Vec<_> = (0..lanes).map(|w| (w, round)).collect();
                        assert_eq!(out, expected);
                        for job in &ran {
                            assert_eq!(job.load(Ordering::Relaxed), round + 1);
                        }
                    }
                    let jobs = 10_000 * lanes as u64;
                    assert_eq!(pool.helped() + ran_on_lanes.load(Ordering::Relaxed), jobs);
                    assert!(pool.helped() >= 10_000, "job 0 is the caller's");
                    assert_eq!(pool.round_handoffs(), 10_000);
                });
            });
        }
    }

    #[test]
    fn lanes_claim_the_jobs_offered_to_them() {
        // Job 0 is the caller's and does not return before job 1 has
        // started — which only another thread can have done.
        let (helped, out) = within_deadline(|| {
            let started = AtomicBool::new(false);
            let f = |w: usize, _: u64| {
                match w {
                    0 => await_flag(&started, "no lane claimed job 1"),
                    _ => started.store(true, Ordering::SeqCst),
                }
                std::thread::current().name().map(str::to_owned)
            };
            std::thread::scope(|scope| {
                let mut pool = WorkerPool::new(scope, 2, &f);
                let out = help(&mut pool, vec![0, 0], &f);
                (pool.helped(), out)
            })
        });
        assert_eq!(out[1].as_deref(), Some("alter-worker-1"));
        assert_ne!(out[0], out[1]);
        assert_eq!(helped, 1, "fewer than the round's two jobs");
    }

    #[test]
    fn the_caller_takes_back_jobs_no_lane_has_started() {
        let f = |w: usize, x: u64| (w, x);
        within_deadline(move || {
            std::thread::scope(|scope| {
                let mut pool = WorkerPool::new(scope, 3, &f);
                // Every lane is parked: the caller is through job 0 long
                // before a woken lane is.
                std::thread::sleep(IDLE);
                for round in 0..1000u64 {
                    let out = help(&mut pool, vec![round; 3], &f);
                    assert_eq!(out, vec![(0, round), (1, round), (2, round)]);
                }
                assert!(pool.helped() > 1000, "more than every round's job 0");
            });
        });
    }

    #[test]
    fn a_lane_that_dies_after_claiming_panics_help_round() {
        let payload = within_deadline(|| {
            // The caller's job 0 returns once lane 1 has claimed job 1,
            // which kills it.
            let claimed = AtomicBool::new(false);
            let f = |w: usize, x: u64| {
                if w == 0 {
                    await_flag(&claimed, "no lane claimed job 1");
                } else if x == 13 {
                    claimed.store(true, Ordering::SeqCst);
                    panic!("body blew up");
                }
                x
            };
            catch_unwind(AssertUnwindSafe(|| {
                std::thread::scope(|scope| {
                    let mut pool = WorkerPool::new(scope, 3, &f);
                    // The unwind drops the round (settling job 2) and then
                    // the pool.
                    help(&mut pool, vec![1, 13, 3], &f);
                });
            }))
        })
        .expect_err("a worker died");
        let message = crate::engine::panic_message(&*payload);
        assert!(message.contains("pool worker exited early"), "{message}");
    }

    #[test]
    fn a_job_that_panics_on_the_caller_leaves_the_lanes_aligned() {
        let f = |w: usize, x: u64| {
            assert_ne!(x, u64::MAX, "body blew up");
            (w, x)
        };
        crate::quiet::quiet_panics(|| {
            within_deadline(move || {
                std::thread::scope(|scope| {
                    let mut pool = WorkerPool::new(scope, 3, &f);
                    for round in 0..100u64 {
                        let jobs = vec![u64::MAX, round, round];
                        let unwound = catch_unwind(AssertUnwindSafe(|| help(&mut pool, jobs, &f)));
                        let message = crate::engine::panic_message(&*unwound.expect_err("job 0"));
                        assert!(message.contains("body blew up"), "{message}");
                        // Jobs 1 and 2 were taken back or awaited: a clean next
                        // round proves no stale result interleaved.
                        let out = pool.run_round(vec![round + 1; 3]);
                        assert_eq!(out, vec![(0, round + 1), (1, round + 1), (2, round + 1)]);
                    }
                });
            })
        });
    }

    #[test]
    fn helped_and_lane_addressed_rounds_interleave_on_one_pool() {
        let f = |w: usize, x: u64| (w, x);
        let all = |x: u64| vec![(0, x), (1, x), (2, x)];
        within_deadline(move || {
            std::thread::scope(|scope| {
                let mut pool = WorkerPool::new(scope, 3, &f);
                for round in (0..4000u64).step_by(4) {
                    // Most helped rounds leave a stale token behind (the
                    // caller was first); it must not be taken for a job.
                    assert_eq!(help(&mut pool, vec![round; 3], &f), all(round));
                    assert_eq!(pool.run_round(vec![round + 1; 3]), all(round + 1));
                    assert_eq!(help(&mut pool, vec![round + 2; 3], &f), all(round + 2));
                    let mut stream = pool.stream_round(vec![round + 3; 3]);
                    assert_eq!(stream.next_ticket(), Some((0, round + 3)));
                    drop(stream);
                }
                assert_eq!(pool.round_handoffs(), 4000);
            });
        });
    }
}
