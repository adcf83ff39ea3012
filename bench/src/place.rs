//! Thread placement: the coordinator on one CPU, the engine's workers
//! spread over two.
//!
//! Left to itself, the guest scheduler of the 2-vCPU VM this was developed
//! on runs in one of two modes for minutes at a time. In one it wakes every
//! worker on the waker's CPU: a pool round trip costs 4–12 µs and the
//! "2-worker" run has all its threads stacked on one vCPU, so it cannot be
//! faster than one worker whatever the engine does. In the other the
//! workers sit on different vCPUs: a round trip costs 35–50 µs (the wake is
//! an inter-processor interrupt through the hypervisor) and two workers
//! really run at once. The same binary reads 2–3× apart between the modes.
//! Neither the engine nor its callers choose the mode, so the benchmark
//! does: the main thread is pinned to the first allowed CPU, and every
//! thread the engine spawns during a threaded run is pinned, in spawn
//! order, to the first and second allowed CPU alternately. That is the
//! mode in which "2 workers" means two CPUs, and it repeats.
//!
//! The engine spawns its pool inside `run_probe`, where the harness has no
//! hook, so a helper thread parked on the second CPU finds the new threads
//! in `/proc/self/task` and pins them by thread id. It runs only from the
//! start of a threaded run until the last worker has appeared, which is
//! before that CPU has a worker to run.

use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::Scope;

extern "C" {
    /// `sched_setaffinity(2)`; `pid` is a thread id, 0 for the caller.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts thread `tid` (0: the calling thread) to `cpu`; `false` if the
/// kernel refused.
fn pin(tid: i32, cpu: usize) -> bool {
    let Some(mask) = 1u64.checked_shl(cpu as u32) else {
        return false;
    };
    // SAFETY: the call reads `size_of::<u64>()` bytes from `&mask`, which
    // outlives it, and writes nothing.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// Parses a kernel CPU list such as `0-1` or `0,2-3`.
fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi.min(lo + 4096));
        }
    }
    cpus
}

/// The CPUs this process may run on, from `/proc/self/status`.
fn allowed_cpus() -> Vec<usize> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(parse_cpu_list)
        })
        .unwrap_or_default()
}

/// Thread ids of this process.
fn tids() -> BTreeSet<i32> {
    std::fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse().ok())
        .collect()
}

/// Pins the main thread and owns the helper that pins the engine's workers.
/// On a machine that will not pin it does nothing, and says so.
pub struct Placement {
    helper: Option<Helper>,
    /// Calls of [`Placement::spread`] that found fewer threads than asked.
    misplaced: Cell<u64>,
}

struct Helper {
    go: Sender<(usize, BTreeSet<i32>)>,
    done: Receiver<usize>,
    /// Raised when a run has ended, so the helper stops looking for threads
    /// that never appeared.
    stop: Arc<AtomicBool>,
}

impl Placement {
    /// Pins the calling thread to the first allowed CPU and parks the
    /// helper on the second. With fewer than two CPUs allowed, or a kernel
    /// that refuses to pin, the placement is inactive.
    pub fn start<'scope>(scope: &'scope Scope<'scope, '_>) -> Self {
        Placement {
            helper: Helper::start(scope),
            misplaced: Cell::new(0),
        }
    }

    /// A placement that leaves every thread where the scheduler puts it.
    #[cfg(test)]
    pub fn inactive() -> Self {
        Placement {
            helper: None,
            misplaced: Cell::new(0),
        }
    }

    /// Whether threads are being placed at all.
    pub fn is_active(&self) -> bool {
        self.helper.is_some()
    }

    /// Calls of [`Placement::spread`] that found fewer threads than asked.
    pub fn misplaced(&self) -> u64 {
        self.misplaced.get()
    }

    /// Runs `f`, pinning the first `threads` threads it spawns to the two
    /// CPUs alternately.
    pub fn spread<R>(&self, threads: usize, f: impl FnOnce() -> R) -> R {
        let Some(helper) = self.helper.as_ref().filter(|_| threads > 0) else {
            return f();
        };
        let alive = "the placement helper lives as long as the scope";
        helper.go.send((threads, tids())).expect(alive);
        let r = f();
        helper.stop.store(true, Ordering::Release);
        let pinned = helper.done.recv().expect(alive);
        helper.stop.store(false, Ordering::Release);
        if pinned < threads {
            self.misplaced.set(self.misplaced.get() + 1);
        }
        r
    }
}

impl Helper {
    fn start<'scope>(scope: &'scope Scope<'scope, '_>) -> Option<Self> {
        let cpus = allowed_cpus();
        let (&first, &second) = (cpus.first()?, cpus.get(1)?);
        if !pin(0, first) {
            return None;
        }
        let (go, go_rx) = channel::<(usize, BTreeSet<i32>)>();
        let (done_tx, done) = channel();
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        scope.spawn(move || {
            pin(0, second);
            for (threads, mut known) in go_rx {
                let mut pinned = 0;
                loop {
                    // Acquire pairs with the coordinator's Release store: a
                    // listing begun after it reads true is begun after the
                    // run's last spawn, so no live thread is missed.
                    let run_over = stopped.load(Ordering::Acquire);
                    for tid in tids() {
                        if known.insert(tid) {
                            pin(tid, [first, second][pinned % 2]);
                            pinned += 1;
                        }
                    }
                    if pinned >= threads || run_over {
                        break;
                    }
                    std::hint::spin_loop();
                }
                if done_tx.send(pinned).is_err() {
                    break;
                }
            }
        });
        Some(Helper { go, done, stop })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1\n"), [0, 1]);
        assert_eq!(parse_cpu_list("0,2-4"), [0, 2, 3, 4]);
        assert_eq!(parse_cpu_list("7"), [7]);
        assert!(parse_cpu_list("").is_empty());
    }

    /// The CPUs the calling thread may run on.
    fn my_cpus() -> Vec<usize> {
        let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
        let list = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"));
        parse_cpu_list(list.unwrap())
    }

    #[test]
    fn spawned_threads_land_on_the_two_cpus_alternately() {
        let cpus = allowed_cpus();
        std::thread::scope(|scope| {
            let place = Placement::start(scope);
            if !place.is_active() {
                assert!(cpus.len() < 2, "two CPUs are allowed but pinning failed");
                return;
            }
            let (first, second) = (&cpus[..1], &cpus[1..2]);
            assert_eq!(my_cpus(), first);
            // Both children inherit `first`. The second waits to be moved,
            // and the barrier keeps the first alive until then.
            let barrier = std::sync::Barrier::new(2);
            let seen = place.spread(2, || {
                std::thread::scope(|inner| {
                    let a = inner.spawn(|| {
                        barrier.wait();
                        my_cpus()
                    });
                    let b = inner.spawn(|| {
                        for _ in 0..1_000_000 {
                            if my_cpus() != first {
                                break;
                            }
                            std::thread::yield_now();
                        }
                        barrier.wait();
                        my_cpus()
                    });
                    [a.join().unwrap(), b.join().unwrap()]
                })
            });
            assert_eq!(seen, [first, second]);
            assert_eq!(place.misplaced(), 0);
            // A run that spawns nothing is counted and leaves the helper
            // idle again.
            assert_eq!(place.spread(1, || 7), 7);
            assert_eq!(place.misplaced(), 1);
        });
    }
}
