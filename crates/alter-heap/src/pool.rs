//! Cross-round transaction buffer recycling.
//!
//! Every lock-step round builds one [`Tx`](crate::Tx) per task, and each
//! `Tx` owns allocation-heavy structures: the copy-on-write overlay map with
//! the private copies in it, the read set and the write set, and the access
//! logs those two are built from. Rebuilding
//! them from scratch every round puts the allocator on the engine's critical
//! path; the paper's runtime avoids the equivalent cost by re-establishing
//! copy-on-write mappings instead of copying (§4.1). [`TxBufferPool`] is the
//! analogue here: finished transactions return their emptied containers to
//! the pool (capacity retained — see [`AccessSet::clear`]), and the next
//! round's transactions start from recycled ones.
//!
//! The pool lives on the coordinating thread and is only touched between
//! rounds, so it needs no synchronization and cannot perturb determinism:
//! what is recycled is *capacity* — of the containers, and of spent private
//! copies, whose words a later transaction overwrites before it reads them
//! (see the [`Tx`](crate::Tx) module docs) — never contents.

use crate::fx::FxHashMap;
use crate::object::{ObjData, ObjId};
use crate::sets::{AccessLog, AccessSet};
use crate::tx::CowScratch;

/// The recyclable allocations backing one transaction: overlay map,
/// private-copy storage, read set, and write set. Acquired from a
/// [`TxBufferPool`] before a task runs and released (emptied, capacity
/// retained) after its effects are consumed.
#[derive(Debug, Default)]
pub struct TxBuffers {
    /// Copy-on-write overlay storage.
    pub overlay: FxHashMap<ObjId, ObjData>,
    /// Block masks and spare buffers of the overlay's private copies.
    pub cow: CowScratch,
    /// Read-set storage.
    pub reads: AccessSet,
    /// Write-set storage.
    pub writes: AccessSet,
    /// Storage of the logs the two sets are built from; always handed over
    /// empty, only their capacity travels.
    pub(crate) read_log: AccessLog,
    pub(crate) write_log: AccessLog,
}

impl TxBuffers {
    /// Fresh, empty buffers (used when the pool is dry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the containers, retaining their capacity and the buffers of
    /// the private copies worth reusing.
    fn reset(&mut self) {
        for (_, copy) in self.overlay.drain() {
            self.cow.recycle(copy);
        }
        self.cow.reset();
        self.reads.clear();
        self.writes.clear();
    }
}

/// A free list of [`TxBuffers`] plus spare [`AccessSet`]s (for the
/// engine's per-round committed write-set log), with a reuse counter that
/// surfaces as `RunStats::pool_reuses`.
#[derive(Debug, Default)]
pub struct TxBufferPool {
    free: Vec<TxBuffers>,
    spare_sets: Vec<AccessSet>,
    reuses: u64,
}

impl TxBufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hands out buffers: recycled if available, freshly allocated
    /// otherwise.
    pub fn acquire(&mut self) -> TxBuffers {
        match self.free.pop() {
            Some(b) => {
                self.reuses += 1;
                b
            }
            None => TxBuffers::new(),
        }
    }

    /// Returns buffers to the pool, emptied with capacity retained.
    pub fn release(&mut self, mut bufs: TxBuffers) {
        bufs.reset();
        self.free.push(bufs);
    }

    /// Hands out a standalone [`AccessSet`] (recycled if available).
    pub fn acquire_set(&mut self) -> AccessSet {
        match self.spare_sets.pop() {
            Some(s) => {
                self.reuses += 1;
                s
            }
            None => AccessSet::new(),
        }
    }

    /// Returns a standalone [`AccessSet`], emptied with capacity retained.
    pub fn release_set(&mut self, mut set: AccessSet) {
        set.clear();
        self.spare_sets.push(set);
    }

    /// Acquisitions served from the free lists (rather than the allocator)
    /// since the pool was created.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Buffers currently parked in the pool (for tests and diagnostics).
    pub fn idle(&self) -> usize {
        self.free.len() + self.spare_sets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_cycle_counts_reuses() {
        let mut pool = TxBufferPool::new();
        let a = pool.acquire();
        assert_eq!(pool.reuses(), 0, "first acquire is a fresh allocation");
        pool.release(a);
        assert_eq!(pool.idle(), 1);
        let b = pool.acquire();
        assert_eq!(pool.reuses(), 1, "second acquire reuses");
        assert!(b.overlay.is_empty() && b.reads.is_empty() && b.writes.is_empty());
    }

    #[test]
    fn released_buffers_come_back_empty_with_capacity() {
        let mut pool = TxBufferPool::new();
        let mut b = pool.acquire();
        b.overlay
            .insert(ObjId::from_index(3), ObjData::scalar_i64(1));
        b.writes.insert(ObjId::from_index(3), 0, 4);
        let cap = b.overlay.capacity();
        pool.release(b);
        let b = pool.acquire();
        assert!(b.overlay.is_empty());
        assert!(b.writes.is_empty());
        assert!(b.writes.fingerprint().is_empty());
        assert!(b.overlay.capacity() >= cap, "capacity must be retained");
    }

    #[test]
    fn standalone_sets_recycle_too() {
        let mut pool = TxBufferPool::new();
        let mut s = pool.acquire_set();
        s.insert(ObjId::from_index(1), 0, 16);
        pool.release_set(s);
        let s = pool.acquire_set();
        assert!(s.is_empty());
        assert_eq!(pool.reuses(), 1);
    }
}
