//! Allocation-count gate for the commit.
//!
//! A validated transaction's words go straight from its private copies into
//! their pages ([`Heap::commit`]): with no snapshot held, nothing is copied
//! on the way and nothing is allocated. A counting global allocator in front
//! of `System` measures it. This file holds a single test, so no other
//! test's allocations land in the count.

use alter::heap::{Heap, IdReservation, ObjData, ObjId, TrackMode, Tx};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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

#[test]
fn a_commit_with_no_view_held_allocates_nothing() {
    let mut heap = Heap::new();
    let small: Vec<ObjId> = (0..16)
        .map(|_| heap.alloc(ObjData::zeros_f64(10)))
        .collect();
    let big = heap.alloc(ObjData::zeros_f64(16_384));
    let snap = heap.snapshot();
    let ids = IdReservation::new(heap.high_water(), 0, 1, 64);
    let mut tx = Tx::new(&snap, TrackMode::WritesOnly, ids, u64::MAX);
    for (i, &id) in small.iter().enumerate() {
        tx.write_f64s(id, 0, &[i as f64 + 1.0; 10]);
    }
    for w in (0..16_384).step_by(7) {
        tx.write_f64(big, w, w as f64);
    }
    let fx = tx.finish();
    drop(snap);

    let before = ALLOCS.load(Ordering::Relaxed);
    heap.commit(&fx);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    assert_eq!(allocs, 0, "the commit made {allocs} allocations");
    assert_eq!(heap.get(small[15]).f64s(), &[16.0; 10]);
    assert_eq!(heap.get(big).f64s()[7 * 2_000], 14_000.0);
    assert_eq!(heap.get(big).f64s()[1], 0.0);
}
