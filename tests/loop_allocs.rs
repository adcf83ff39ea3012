//! Allocation-count gate for warm transactions.
//!
//! The paper's instrumentation appends to a preallocated array (§4.1); here
//! every per-transaction and per-round buffer is recycled, so the loops of
//! a paper-scale K-means run and a Genome run make at most one allocation
//! per transaction (a bound, not zero: a transaction that allocates an
//! object, like Genome's overflow bucket, stays legal). A counting global
//! allocator in front of `System` measures it, inside a window a recorder
//! opens at each loop's first round and closes at its end, so the run's
//! start state and output are not counted. Both drivers are checked: the
//! sequential one at one worker and the threaded one at two, where a
//! buffer made on a lane would otherwise be freed on the coordinator. This
//! file holds a single test, so no other test's allocations land in the
//! count.

use alter::infer::Probe;
use alter::trace::{Event, Recorder};
use alter::workloads::genome::Genome;
use alter::workloads::kmeans::KMeans;
use alter::workloads::{Benchmark, Scale};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts every allocation and reallocation, then defers to `System`.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter has no effect on memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Adds up the allocations made between each loop's first `RoundStart` and
/// its `RunEnd`. Events are recorded on the coordinator, in order.
#[derive(Default)]
struct LoopWindow {
    opened_at: AtomicU64,
    inside: AtomicU64,
}

impl Recorder for LoopWindow {
    fn record(&self, ev: Event) {
        let now = ALLOCS.load(Ordering::Relaxed);
        match ev {
            Event::RoundStart { round: 0, .. } => self.opened_at.store(now, Ordering::Relaxed),
            Event::RunEnd { .. } => {
                let opened_at = self.opened_at.load(Ordering::Relaxed);
                self.inside.fetch_add(now - opened_at, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

/// Allocations per transaction inside the loops of `bench`'s best probe at
/// `workers` workers, on the second of two runs.
fn loop_allocs_per_tx(bench: &dyn Benchmark, workers: usize, threaded: bool) -> f64 {
    let mut probe: Probe = bench.best_probe(workers);
    probe.threaded = threaded;
    bench.run_probe(&probe).expect("warm-up run");
    let window = Arc::new(LoopWindow::default());
    probe.recorder = Some(window.clone());
    let run = bench.run_probe(&probe).expect("measured run");
    assert!(bench.validate(&bench.run_sequential(), &run.output));
    window.inside.load(Ordering::Relaxed) as f64 / run.stats.attempts as f64
}

#[test]
fn warm_kmeans_and_genome_loops_allocate_at_most_once_per_transaction() {
    let kmeans = KMeans::new(Scale::Paper);
    let genome = Genome::new(Scale::Paper);
    let mut runs = Vec::new();
    for bench in [&kmeans as &dyn Benchmark, &genome] {
        for (workers, threaded) in [(1, false), (2, true)] {
            let per_tx = loop_allocs_per_tx(bench, workers, threaded);
            runs.push((bench.name().to_owned(), workers, per_tx));
        }
    }
    let report: Vec<String> = runs
        .iter()
        .map(|(name, workers, per_tx)| format!("{name} at {workers} worker(s): {per_tx:.2}"))
        .collect();
    assert!(
        runs.iter().all(|&(_, _, per_tx)| per_tx <= 1.0),
        "allocations per transaction inside the loops:\n{}",
        report.join("\n")
    );
}
