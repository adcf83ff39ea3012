//! A persistent worker pool for lock-step rounds.
//!
//! The paper's runtime forks its N worker processes **once** and then feeds
//! them one chunk-transaction per lock-step round (§4.1, Figure 4).
//! [`WorkerPool`] is that shape: N long-lived threads, a per-round task
//! handoff over channels, and a deterministic join barrier.
//!
//! Determinism needs no locks and no care from the workers themselves: job
//! *i* of a round always goes to worker *i*, each worker has a private
//! result channel, and [`WorkerPool::run_round`] collects results in
//! worker-index order. The coordinator therefore observes results in
//! exactly the order the sequential driver would produce them, whatever
//! order the workers finish in — the same argument that makes the paper's
//! commit phase deterministic (§4.3).
//!
//! The pool is deliberately generic over the job and result payloads: the
//! engine ships `(Snapshot, task, buffers)` jobs, while the inference
//! engine reuses the same pool to run independent probes concurrently.
//!
//! Every wait — a lane for its next job, the coordinator for a lane's
//! result — **polls first and parks last** (`recv_polling`): between
//! back-to-back rounds the other side answers within a few scheduler
//! yields, so neither side sleeps and no send has to wake anyone (a futex
//! wake across the CPUs of a virtual machine costs ~20 µs, and a round paid
//! two). Only *how long* a receive blocks changed, never which value it
//! returns, so the ordering argument above is untouched.
//!
//! Shutdown is by drop: dropping the pool closes the job channels, each
//! worker's receive loop ends, and the owning `thread::scope` joins them.
//! Keep the pool inside the scope closure so the drop happens before the
//! scope's implicit join (otherwise the join would wait on workers still
//! blocked in `recv`).

use std::sync::mpsc::{channel, Receiver, RecvError, Sender, TryRecvError};
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

struct Worker<J, R> {
    job_tx: Sender<J>,
    result_rx: Receiver<R>,
}

/// N long-lived worker threads executing one job each per round.
///
/// ```
/// let square = |_worker: usize, x: u64| x * x; // must outlive the scope
/// std::thread::scope(|scope| {
///     let mut pool = alter_runtime::WorkerPool::new(scope, 4, &square);
///     assert_eq!(pool.run_round(vec![1, 2, 3]), vec![1, 4, 9]);
///     assert_eq!(pool.run_round(vec![5]), vec![25]);
///     assert!(pool.run_round(Vec::new()).is_empty());
///     assert_eq!(pool.round_handoffs(), 2); // one per non-empty round
/// });
/// ```
pub struct WorkerPool<J, R> {
    workers: Vec<Worker<J, R>>,
    handoffs: u64,
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
                let (job_tx, job_rx) = channel::<J>();
                let (result_tx, result_rx) = channel::<R>();
                std::thread::Builder::new()
                    .name(format!("alter-worker-{w}"))
                    .spawn_scoped(scope, move || {
                        while let Ok(job) = recv_polling(&job_rx) {
                            if result_tx.send(f(w, job)).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawn pool worker thread");
                Worker { job_tx, result_rx }
            })
            .collect();
        WorkerPool {
            workers,
            handoffs: 0,
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
        assert!(
            jobs.len() <= self.workers.len(),
            "round of {} jobs exceeds {} workers",
            jobs.len(),
            self.workers.len()
        );
        let n = jobs.len();
        if n > 0 {
            self.handoffs += 1;
        }
        for (w, job) in jobs.into_iter().enumerate() {
            self.workers[w]
                .job_tx
                .send(job)
                .expect("pool worker exited early");
        }
        TicketStream {
            pool: self,
            next: 0,
            n,
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
        let r = recv_polling(&self.pool.workers[self.next].result_rx)
            .expect("pool worker exited early");
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
        // Drain lanes the caller abandoned so the next round's results
        // can't interleave with this one's. A worker that died mid-round
        // shows up as a closed channel here; ignore it — its panic
        // propagates when the owning scope joins.
        while self.next < self.n {
            let _ = recv_polling(&self.pool.workers[self.next].result_rx);
            self.next += 1;
        }
    }
}

impl<J, R> std::fmt::Debug for WorkerPool<J, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .field("handoffs", &self.handoffs)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::time::Duration;

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
}
