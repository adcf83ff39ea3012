//! Allocation-count and byte gate for the heap's page layout.
//!
//! A page keeps its objects' words in one buffer per kind, so building
//! Genome's hash set — 131 072 ten-word buckets — allocates per page, not
//! per bucket; and the copies of one empty bucket on a page share one copy
//! of its words, so the build does not write 10 MiB of them. A counting
//! global allocator in front of `System` measures both. This file holds a
//! single test, so no other test's allocations land in the count.

use alter::collections::AlterHashSet;
use alter::heap::Heap;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation and the bytes each asks for,
/// then defers to `System`.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter has no effect on memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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
    let (before, bytes_before) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let set = AlterHashSet::new(&mut heap, 131_072, 8);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let bytes = BYTES.load(Ordering::Relaxed) - bytes_before;
    assert_eq!(heap.live_objects(), 131_073);
    assert_eq!(set.bucket_count(), 131_072);
    assert!(
        allocs <= 5_000,
        "AlterHashSet::new made {allocs} allocations for 131 072 buckets"
    );
    let mib = bytes as f64 / f64::from(1 << 20);
    assert!(
        bytes <= 8 << 20,
        "AlterHashSet::new requested {mib:.2} MiB for 131 072 ten-word buckets"
    );
}
