//! Allocation-count gate for the heap's page layout.
//!
//! A page keeps its objects' words in one buffer per kind, so building
//! Genome's hash set — 131 072 ten-word buckets — allocates per page, not
//! per bucket. A counting global allocator in front of `System` measures
//! it. This file holds a single test, so no other test's allocations land
//! in the count.

use alter::collections::AlterHashSet;
use alter::heap::Heap;
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
fn genome_hash_set_build_allocates_per_page_not_per_bucket() {
    let mut heap = Heap::new();
    let before = ALLOCS.load(Ordering::Relaxed);
    let set = AlterHashSet::new(&mut heap, 131_072, 8);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(heap.live_objects(), 131_073);
    assert_eq!(set.bucket_count(), 131_072);
    assert!(
        allocs <= 5_000,
        "AlterHashSet::new made {allocs} allocations for 131 072 buckets"
    );
}
