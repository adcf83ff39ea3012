//! The committed memory state, snapshots of it, and commit application.
//!
//! The paper's runtime keeps one *committed memory state* plus N process-
//! private copy-on-write mappings (§4.1, Figure 4). Here the committed state
//! is a vector of `Arc`'d objects; a [`Snapshot`] is a page-chunked
//! structural copy of that vector (every object shared), and transaction
//! privacy comes from a private copy in the transaction's overlay, made on
//! first write and filled block by block as it is touched ([`crate::Tx`]).
//!
//! # Writing in place
//!
//! A commit (or sequential [`Heap::get_mut`]) must not change a payload some
//! snapshot can still read, and must not copy one nobody can. `Arc` counts
//! decide, and nothing else: the payload is written in place exactly when
//! the committed slot holds the only reference to it. One reference needs an
//! argument — the heap's own snapshot page cache shares every payload it has
//! ever handed out. But the slot being written is journalled first, so the
//! cache's entry for it is already stale: the next incremental snapshot
//! overwrites it before anyone reads it. If no live [`Snapshot`] shares that
//! cached page either (`Arc::get_mut` on it succeeds), the entry is released
//! and the slot's count drops to one. Any round snapshot, one-shot
//! [`Heap::snapshot`] or [`Snapshot::get_arc`] handle that still shares the
//! payload keeps the count above one and gets the copy. The engine's
//! drivers drop the round's snapshot once its last task has returned, so in
//! steady state their commits write in place.
//!
//! Snapshots come in two flavours. [`Heap::snapshot`] builds the page table
//! from scratch (O(slots), one `Arc` clone per slot — the cost this module
//! existed with for its first two releases). [`Heap::snapshot_incremental`]
//! instead patches a persistent page table kept inside the heap, guided by a
//! dirty-slot journal that every mutation path feeds, and is O(slots dirtied
//! since the previous incremental snapshot) — the analogue of the paper's
//! runtime re-establishing only the *invalidated* copy-on-write mappings at
//! a round boundary instead of remapping the whole address space. Both
//! produce bit-identical snapshot views.

use crate::object::{ObjData, ObjId};
use std::sync::Arc;

/// Slots per snapshot page. Pages are the unit of structural sharing
/// between consecutive incremental snapshots: a page none of whose slots
/// were dirtied since the last snapshot is reused as-is (one `Arc` bump for
/// the whole page instead of one per slot).
pub const SNAPSHOT_PAGE_SLOTS: usize = 64;

/// One fixed-size page of a snapshot's slot table. The array is padded
/// with `None` past the heap's current length, which stays correct across
/// heap growth because a slot is `None` until its first allocation — and
/// that allocation lands in the dirty journal.
#[derive(Clone, Debug)]
struct PageData {
    slots: [Option<Arc<ObjData>>; SNAPSHOT_PAGE_SLOTS],
}

impl PageData {
    fn empty() -> Self {
        PageData {
            slots: [const { None }; SNAPSHOT_PAGE_SLOTS],
        }
    }

    /// Builds one page from the slot vector starting at `lo`, tolerating
    /// short (or absent) tails — the padding stays `None`.
    fn from_slots_at(slots: &[Option<Arc<ObjData>>], lo: usize) -> Self {
        let mut page = PageData::empty();
        if lo < slots.len() {
            let hi = (lo + SNAPSHOT_PAGE_SLOTS).min(slots.len());
            for (dst, src) in page.slots.iter_mut().zip(&slots[lo..hi]) {
                *dst = src.clone();
            }
        }
        page
    }
}

type Page = Arc<PageData>;

/// Construction cost of one snapshot, reported by
/// [`Heap::snapshot_incremental`] (the full [`Heap::snapshot`] path costs
/// `slot_count` copies and reuses nothing, by definition).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Slot entries `Arc`-cloned into the page table: every slot on a full
    /// (re)build, only journalled slots on the incremental path.
    pub slots_copied: u64,
    /// Pages carried over from the previous snapshot untouched — their
    /// slots were not copied at all.
    pub pages_reused: u64,
}

/// The committed memory state.
///
/// Sequential (non-transactional) code — program setup, the sequential parts
/// between parallel loops, validation — accesses the heap directly through
/// [`Heap::get`] / [`Heap::get_mut`]. Parallel loops access it only through
/// snapshots and transactions, and mutate it only through
/// [`Heap::apply_commit`] in deterministic commit order.
#[derive(Debug, Default)]
pub struct Heap {
    /// The slot table, indexed by object id. Its length is the high water:
    /// the number of slot ids ever issued (live or dead).
    slots: Vec<Option<Arc<ObjData>>>,
    /// Commit version at which each slot was last written.
    versions: Vec<u64>,
    live: usize,
    live_words: u64,
    /// Commit counter; bumped once per committed transaction.
    version: u64,
    /// Slots freed by sequential code, reusable by sequential allocation.
    free: Vec<u32>,
    /// Persistent page table shared with the last incremental snapshot.
    snap_pages: Vec<Page>,
    /// Slots mutated since the last incremental snapshot, deduplicated via
    /// `journaled`.
    journal: Vec<u32>,
    journaled: Vec<bool>,
    /// Whether `snap_pages` reflects some past snapshot (false until the
    /// first incremental snapshot, which does a full build).
    snap_valid: bool,
    /// Monotonic snapshot epoch: bumped once per round snapshot. The
    /// engine stamps every ticket with the epoch it executes against; a
    /// re-queued ticket gets the next (fresh) epoch.
    epoch: u64,
}

impl Heap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that slot `idx` diverged from the last incremental snapshot.
    #[inline]
    fn mark_dirty(&mut self, idx: usize) {
        if idx >= self.journaled.len() {
            self.journaled.resize(idx + 1, false);
        }
        if !self.journaled[idx] {
            self.journaled[idx] = true;
            self.journal.push(idx as u32);
        }
    }

    /// Mutably borrows the payload in slot `idx`, which the caller has just
    /// journalled — in place if nothing else can read it, a fresh copy
    /// otherwise (the module docs' "Writing in place"). `None` if the slot
    /// is dead or unknown.
    fn payload_mut(&mut self, idx: usize) -> Option<&mut ObjData> {
        debug_assert!(self.journaled[idx], "the cache entry must be stale");
        if let Some(page) = self
            .snap_pages
            .get_mut(idx / SNAPSHOT_PAGE_SLOTS)
            .and_then(Arc::get_mut)
        {
            page.slots[idx % SNAPSHOT_PAGE_SLOTS] = None;
        }
        self.slots.get_mut(idx)?.as_mut().map(Arc::make_mut)
    }

    /// Grows the slot table to cover index `idx`.
    fn ensure(&mut self, idx: usize) {
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, None);
            self.versions.resize(idx + 1, 0);
        }
    }

    /// Allocates an object from sequential code and returns its id.
    ///
    /// Reuses previously freed slots (single-threaded, so reuse is
    /// deterministic). Transactional allocation goes through
    /// [`crate::Tx::alloc`] instead, which draws from per-worker disjoint id
    /// reservations so concurrent transactions can never be handed the same
    /// id (the ALTER-allocator guarantee, §4.1).
    pub fn alloc(&mut self, data: ObjData) -> ObjId {
        let idx = match self.free.pop() {
            Some(idx) => idx as usize,
            None => {
                let idx = self.slots.len();
                u32::try_from(idx).expect("heap exhausted");
                idx
            }
        };
        self.ensure(idx);
        self.live_words += data.len() as u64;
        self.slots[idx] = Some(Arc::new(data));
        self.versions[idx] = self.version;
        self.live += 1;
        self.mark_dirty(idx);
        ObjId(idx as u32)
    }

    /// Frees an object from sequential code.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live (double free or never allocated).
    pub fn free(&mut self, id: ObjId) {
        let idx = id.0 as usize;
        let slot = self
            .slots
            .get_mut(idx)
            .unwrap_or_else(|| panic!("free of unknown {id}"));
        let freed = slot.take().unwrap_or_else(|| panic!("double free of {id}"));
        self.live_words -= freed.len() as u64;
        self.live -= 1;
        self.mark_dirty(idx);
        self.free.push(id.0);
    }

    /// Borrows the committed payload of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    #[inline]
    pub fn get(&self, id: ObjId) -> &ObjData {
        self.slots
            .get(id.0 as usize)
            .and_then(|slot| slot.as_deref())
            .unwrap_or_else(|| panic!("access to dead or unknown {id}"))
    }

    /// Whether `id` names a live allocation.
    pub fn is_live(&self, id: ObjId) -> bool {
        self.slots
            .get(id.0 as usize)
            .is_some_and(|slot| slot.is_some())
    }

    /// Mutably borrows the committed payload of `id` from sequential code,
    /// cloning it first if a live snapshot still shares it.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    pub fn get_mut(&mut self, id: ObjId) -> &mut ObjData {
        let idx = id.0 as usize;
        if idx < self.versions.len() {
            self.versions[idx] = self.version;
        }
        self.mark_dirty(idx);
        self.payload_mut(idx)
            .unwrap_or_else(|| panic!("access to dead or unknown {id}"))
    }

    /// Number of snapshot pages covering the slot table.
    fn page_count(&self) -> usize {
        self.slots.len().div_ceil(SNAPSHOT_PAGE_SLOTS)
    }

    /// Takes a consistent snapshot of the committed state, building the
    /// page table from scratch.
    ///
    /// Cost is one `Arc` clone per slot — the analogue of re-establishing
    /// all N copy-on-write mappings at the start of a lock-step round. The
    /// engine's hot path uses [`Heap::snapshot_incremental`] instead; this
    /// entry point stays for one-shot snapshots (dependence detection,
    /// tests); it leaves the snapshot epoch alone.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            pages: (0..self.page_count())
                .map(|p| {
                    Arc::new(PageData::from_slots_at(
                        &self.slots,
                        p * SNAPSHOT_PAGE_SLOTS,
                    ))
                })
                .collect(),
            len: self.slots.len(),
            version: self.version,
        }
    }

    /// The current snapshot epoch: how many round snapshots this heap has
    /// issued. Monotonic across engine runs on the same heap (convergence
    /// loops drive the engine repeatedly), so an epoch names one snapshot
    /// globally, not just within a run.
    pub fn snapshot_epoch(&self) -> u64 {
        self.epoch
    }

    /// Takes a snapshot bit-identical to [`Heap::snapshot`]'s by patching
    /// the persistent page table, in O(slots dirtied since the previous
    /// incremental snapshot).
    ///
    /// The first call (and any call after [`Heap::reset_snapshot_cache`])
    /// falls back to a full build. Clean pages are shared structurally with
    /// the previous snapshot — one `Arc` bump per page; dirty pages are
    /// patched slot-by-slot, copy-on-write if the previous snapshot is still
    /// alive, in place once it has been dropped (the engine's steady state,
    /// since a round's snapshot dies with the round's last task).
    pub fn snapshot_incremental(&mut self) -> (Snapshot, SnapshotStats) {
        self.epoch += 1;
        let mut stats = SnapshotStats::default();
        let npages = self.page_count();
        if self.snap_valid {
            debug_assert!(self.snap_pages.len() <= npages, "slots never shrink");
            while self.snap_pages.len() < npages {
                self.snap_pages.push(Arc::new(PageData::empty()));
            }
            let mut page_dirty = vec![false; npages];
            for &idx in &self.journal {
                let idx = idx as usize;
                let page_idx = idx / SNAPSHOT_PAGE_SLOTS;
                page_dirty[page_idx] = true;
                let page = Arc::make_mut(&mut self.snap_pages[page_idx]);
                page.slots[idx % SNAPSHOT_PAGE_SLOTS] = self.slots.get(idx).cloned().flatten();
                self.journaled[idx] = false;
            }
            stats.slots_copied = self.journal.len() as u64;
            stats.pages_reused = page_dirty.iter().filter(|d| !**d).count() as u64;
        } else {
            self.snap_pages.clear();
            self.snap_pages.extend((0..npages).map(|p| {
                Arc::new(PageData::from_slots_at(
                    &self.slots,
                    p * SNAPSHOT_PAGE_SLOTS,
                ))
            }));
            for &idx in &self.journal {
                self.journaled[idx as usize] = false;
            }
            stats.slots_copied = self.slots.len() as u64;
            self.snap_valid = true;
        }
        self.journal.clear();
        let snap = Snapshot {
            pages: self.snap_pages.as_slice().into(),
            len: self.slots.len(),
            version: self.version,
        };
        (snap, stats)
    }

    /// Drops the persistent page table; the next
    /// [`Heap::snapshot_incremental`] does a full build. Only useful to
    /// release memory between unrelated parallel phases.
    pub fn reset_snapshot_cache(&mut self) {
        self.snap_pages.clear();
        self.snap_pages.shrink_to_fit();
        self.snap_valid = false;
    }

    /// Current global commit version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Commit version at which `id` was last written.
    pub fn slot_version(&self, id: ObjId) -> u64 {
        self.versions.get(id.0 as usize).copied().unwrap_or(0)
    }

    /// Number of live allocations.
    pub fn live_objects(&self) -> usize {
        self.live
    }

    /// Total words across live allocations (used by the simulator's
    /// bandwidth model and by memory-budget accounting). O(1): payloads
    /// are fixed-length, so the counter moves only on alloc and free.
    pub fn live_words(&self) -> u64 {
        debug_assert_eq!(
            self.live_words,
            self.slots
                .iter()
                .flatten()
                .map(|o| o.len() as u64)
                .sum::<u64>(),
            "live-words counter diverged from the sweep"
        );
        self.live_words
    }

    /// First id that has never been allocated; parallel id reservations
    /// start here (see [`crate::IdReservation`]).
    pub fn high_water(&self) -> u32 {
        u32::try_from(self.slots.len()).expect("heap exhausted")
    }

    /// Applies a validated transaction's effects, in deterministic commit
    /// order, and bumps the commit version.
    ///
    /// Only the word ranges in the transaction's write set are merged back
    /// ([`ObjData::copy_range_from`]): snapshot isolation lets two
    /// transactions commit writes to disjoint ranges of one allocation, so a
    /// whole-object overwrite would lose the earlier commit. The merge
    /// writes the committed payload in place unless a snapshot can still
    /// read it (the module docs' "Writing in place").
    ///
    /// # Panics
    ///
    /// Panics if an op refers to a dead object (the engine validates before
    /// committing, so this indicates a runtime bug) or an alloc id collides
    /// with a live slot (an allocator invariant violation).
    pub fn apply_commit(&mut self, ops: CommitOps) {
        self.version += 1;
        let version = self.version;
        let mut writes = ops.writes.into_iter().peekable();
        while let Some((id, lo, hi, src)) = writes.next() {
            let idx = id.0 as usize;
            self.versions[idx] = version;
            self.mark_dirty(idx);
            let len = self.slots[idx]
                .as_ref()
                .unwrap_or_else(|| panic!("commit write to dead {id}"))
                .len();
            if lo == 0 && hi as usize == src.len() && src.len() == len {
                // Whole-object write: swap the Arc, no copy.
                self.slots[idx] = Some(src);
                continue;
            }
            // The ranges of one object follow each other: find its payload
            // once and merge them all.
            let payload = self.payload_mut(idx).expect("slot checked live");
            payload.copy_range_from(&src, lo as usize, hi as usize);
            while let Some((_, lo, hi, src)) = writes.next_if(|w| w.0 == id) {
                payload.copy_range_from(&src, lo as usize, hi as usize);
            }
        }
        for (id, data) in ops.allocs {
            let idx = id.0 as usize;
            self.ensure(idx);
            assert!(
                self.slots[idx].is_none(),
                "allocator invariant violated: {id} already live at commit"
            );
            self.live_words += data.len() as u64;
            self.slots[idx] = Some(data);
            self.versions[idx] = version;
            self.live += 1;
            self.mark_dirty(idx);
        }
        for id in ops.frees {
            let idx = id.0 as usize;
            let slot = self.slots[idx]
                .take()
                .unwrap_or_else(|| panic!("commit free of dead {id}"));
            self.live_words -= slot.len() as u64;
            drop(slot);
            self.live -= 1;
            self.mark_dirty(idx);
            // Freed parallel slots are not recycled: the paper's allocator
            // also leaves holes rather than risk cross-process reuse races.
        }
    }

    /// Returns a deterministic digest of the committed state, for
    /// output-comparison in tests and the inference engine.
    pub fn digest(&self) -> u64 {
        // FNV-1a over (slot index, kind tag, raw words) of live slots.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        for (i, slot) in self.slots.iter().enumerate() {
            let Some(obj) = slot else {
                continue;
            };
            mix(i as u64);
            match obj.as_ref() {
                ObjData::F64(v) => {
                    mix(1);
                    for x in v {
                        mix(x.to_bits());
                    }
                }
                ObjData::I64(v) => {
                    mix(2);
                    for x in v {
                        mix(*x as u64);
                    }
                }
            }
        }
        h
    }
}

/// A consistent, immutable view of the committed state at some version.
///
/// Cloning a snapshot is O(1); all transactions of one lock-step round share
/// one snapshot. The slot table is chunked into fixed-size pages
/// ([`SNAPSHOT_PAGE_SLOTS`]) so consecutive incremental snapshots can share
/// clean pages structurally; page padding past [`Snapshot::slot_count`] is
/// always `None`, so lookups need no length check.
#[derive(Clone, Debug)]
pub struct Snapshot {
    pages: Arc<[Page]>,
    len: usize,
    version: u64,
}

impl Snapshot {
    /// Borrows the payload of `id` as of this snapshot, or `None` if the
    /// object was dead (or not yet allocated) at snapshot time.
    #[inline]
    pub fn get(&self, id: ObjId) -> Option<&ObjData> {
        let idx = id.0 as usize;
        self.pages
            .get(idx / SNAPSHOT_PAGE_SLOTS)
            .and_then(|p| p.slots[idx % SNAPSHOT_PAGE_SLOTS].as_deref())
    }

    /// Shares the payload `Arc` of `id`, for zero-copy reads.
    pub fn get_arc(&self, id: ObjId) -> Option<Arc<ObjData>> {
        let idx = id.0 as usize;
        self.pages
            .get(idx / SNAPSHOT_PAGE_SLOTS)
            .and_then(|p| p.slots[idx % SNAPSHOT_PAGE_SLOTS].clone())
    }

    /// The commit version this snapshot was taken at.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of slots (live or dead) visible to the snapshot.
    pub fn slot_count(&self) -> usize {
        self.len
    }
}

/// The effects of one validated transaction, applied by
/// [`Heap::apply_commit`].
#[derive(Debug, Default)]
pub struct CommitOps {
    /// `(object, lo, hi, source)` — merge words `lo..hi` of `source` into
    /// the committed object.
    pub writes: Vec<(ObjId, u32, u32, Arc<ObjData>)>,
    /// Objects allocated by the transaction, installed at their reserved ids.
    pub allocs: Vec<(ObjId, Arc<ObjData>)>,
    /// Objects freed by the transaction.
    pub frees: Vec<ObjId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_get_mutate_free() {
        let mut h = Heap::new();
        let a = h.alloc(ObjData::scalar_f64(1.0));
        let b = h.alloc(ObjData::zeros_i64(3));
        assert_eq!(h.live_objects(), 2);
        assert_eq!(h.get(a).f64s()[0], 1.0);
        h.get_mut(b).i64s_mut()[2] = 7;
        assert_eq!(h.get(b).i64s(), &[0, 0, 7]);
        h.free(a);
        assert_eq!(h.live_objects(), 1);
        assert!(!h.is_live(a));
        // Sequential alloc reuses the freed slot deterministically.
        let c = h.alloc(ObjData::scalar_i64(9));
        assert_eq!(c.index(), a.index());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut h = Heap::new();
        let a = h.alloc(ObjData::scalar_i64(0));
        h.free(a);
        // Slot is now empty; freeing again must panic.
        let dead = ObjId::from_index(a.index());
        h.free(dead);
    }

    #[test]
    fn snapshot_is_isolated_from_later_commits() {
        let mut h = Heap::new();
        let a = h.alloc(ObjData::scalar_f64(1.0));
        let snap = h.snapshot();
        h.get_mut(a).f64s_mut()[0] = 2.0;
        assert_eq!(snap.get(a).unwrap().f64s()[0], 1.0);
        assert_eq!(h.get(a).f64s()[0], 2.0);
    }

    #[test]
    fn snapshot_does_not_see_later_allocations() {
        let mut h = Heap::new();
        let snap = h.snapshot();
        let a = h.alloc(ObjData::scalar_i64(1));
        assert!(snap.get(a).is_none());
        assert_eq!(snap.slot_count(), 0);
    }

    #[test]
    fn apply_commit_merges_ranges_not_whole_objects() {
        let mut h = Heap::new();
        let a = h.alloc(ObjData::F64(vec![0.0; 4]));
        // Two "transactions" writing disjoint ranges, both based on the
        // original snapshot contents.
        let tx1 = Arc::new(ObjData::F64(vec![1.0, 1.0, 0.0, 0.0]));
        let tx2 = Arc::new(ObjData::F64(vec![0.0, 0.0, 2.0, 2.0]));
        h.apply_commit(CommitOps {
            writes: vec![(a, 0, 2, tx1)],
            ..Default::default()
        });
        h.apply_commit(CommitOps {
            writes: vec![(a, 2, 4, tx2)],
            ..Default::default()
        });
        assert_eq!(h.get(a).f64s(), &[1.0, 1.0, 2.0, 2.0]);
        assert_eq!(h.version(), 2);
        assert_eq!(h.slot_version(a), 2);
    }

    #[test]
    fn apply_commit_installs_allocs_at_reserved_ids() {
        let mut h = Heap::new();
        let _ = h.alloc(ObjData::scalar_i64(0));
        let far = ObjId::from_index(10);
        h.apply_commit(CommitOps {
            allocs: vec![(far, Arc::new(ObjData::scalar_i64(42)))],
            ..Default::default()
        });
        assert_eq!(h.get(far).i64s(), &[42]);
        assert_eq!(h.live_objects(), 2);
        assert_eq!(h.high_water(), 11);
    }

    #[test]
    fn apply_commit_frees() {
        let mut h = Heap::new();
        let a = h.alloc(ObjData::scalar_i64(1));
        h.apply_commit(CommitOps {
            frees: vec![a],
            ..Default::default()
        });
        assert!(!h.is_live(a));
        assert_eq!(h.live_objects(), 0);
    }

    #[test]
    fn digest_changes_with_content_and_identity() {
        let mut h1 = Heap::new();
        let a = h1.alloc(ObjData::scalar_f64(1.0));
        let d1 = h1.digest();
        h1.get_mut(a).f64s_mut()[0] = 2.0;
        let d2 = h1.digest();
        assert_ne!(d1, d2);

        let mut h2 = Heap::new();
        h2.alloc(ObjData::scalar_f64(2.0));
        assert_eq!(h2.digest(), d2);
    }

    #[test]
    fn snapshot_get_arc_shares_until_write() {
        let mut h = Heap::new();
        let a = h.alloc(ObjData::zeros_f64(4));
        let snap = h.snapshot();
        let arc = snap.get_arc(a).unwrap();
        // Snapshot and heap share the payload until a write forces a copy.
        assert!(std::sync::Arc::ptr_eq(&arc, &snap.get_arc(a).unwrap()));
        h.get_mut(a).f64s_mut()[0] = 5.0;
        assert_eq!(arc.f64s()[0], 0.0, "snapshot view unaffected");
        assert_eq!(h.get(a).f64s()[0], 5.0);
        assert!(snap.get_arc(ObjId::from_index(99)).is_none());
    }

    #[test]
    fn live_words_counts_all_payloads() {
        let mut h = Heap::new();
        h.alloc(ObjData::zeros_f64(10));
        let b = h.alloc(ObjData::zeros_i64(5));
        assert_eq!(h.live_words(), 15);
        h.free(b);
        assert_eq!(h.live_words(), 10);
    }

    #[test]
    fn live_words_tracks_commit_allocs_and_frees() {
        let mut h = Heap::new();
        let a = h.alloc(ObjData::zeros_f64(4));
        h.apply_commit(CommitOps {
            writes: vec![(a, 0, 4, Arc::new(ObjData::zeros_f64(4)))],
            allocs: vec![(ObjId::from_index(7), Arc::new(ObjData::zeros_i64(3)))],
            ..Default::default()
        });
        assert_eq!(h.live_words(), 7);
        h.apply_commit(CommitOps {
            frees: vec![a],
            ..Default::default()
        });
        assert_eq!(h.live_words(), 3);
    }

    /// Asserts `snap` is exactly the view [`Heap::snapshot`] would produce.
    fn assert_snap_matches(snap: &Snapshot, h: &Heap) {
        assert_eq!(snap.slot_count(), h.high_water() as usize);
        assert_eq!(snap.version(), h.version());
        for i in 0..h.high_water() + SNAPSHOT_PAGE_SLOTS as u32 {
            let id = ObjId::from_index(i);
            let expect = if h.is_live(id) { Some(h.get(id)) } else { None };
            assert_eq!(snap.get(id), expect, "slot {i}");
        }
    }

    #[test]
    fn incremental_snapshot_matches_full_snapshot() {
        let mut h = Heap::new();
        let mut ids = Vec::new();
        // Span several pages (the mutations below leave page 3 untouched).
        for i in 0..SNAPSHOT_PAGE_SLOTS * 4 {
            ids.push(h.alloc(ObjData::scalar_i64(i as i64)));
        }
        let (s0, st0) = h.snapshot_incremental();
        assert_eq!(
            st0.slots_copied,
            h.high_water() as u64,
            "first use: full build"
        );
        assert_snap_matches(&s0, &h);
        drop(s0);

        // Dirty a handful of slots through every mutation path.
        h.get_mut(ids[3]).i64s_mut()[0] = -3;
        h.free(ids[70]);
        let reused = h.alloc(ObjData::scalar_f64(0.5)); // reuses slot 70
        assert_eq!(reused.index(), 70);
        h.apply_commit(CommitOps {
            writes: vec![(ids[130], 0, 1, Arc::new(ObjData::scalar_i64(-130)))],
            allocs: vec![(
                ObjId::from_index(h.high_water()),
                Arc::new(ObjData::zeros_f64(2)),
            )],
            frees: vec![ids[131]],
        });

        let (s1, st1) = h.snapshot_incremental();
        assert_snap_matches(&s1, &h);
        assert_eq!(st1.slots_copied, 5, "3, 70, 130, 131 and the new slot");
        assert!(st1.pages_reused >= 1, "untouched pages must be reused");

        // A clean snapshot copies nothing and reuses every page.
        let (s2, st2) = h.snapshot_incremental();
        assert_snap_matches(&s2, &h);
        assert_eq!(st2.slots_copied, 0);
        assert_eq!(st2.pages_reused, s2.pages.len() as u64);
    }

    #[test]
    fn incremental_snapshot_is_isolated_while_previous_lives() {
        let mut h = Heap::new();
        let a = h.alloc(ObjData::scalar_i64(1));
        let (s1, _) = h.snapshot_incremental();
        h.get_mut(a).i64s_mut()[0] = 2;
        // s1 is still alive: the dirty page must be patched copy-on-write.
        let (s2, _) = h.snapshot_incremental();
        assert_eq!(s1.get(a).unwrap().i64s()[0], 1);
        assert_eq!(s2.get(a).unwrap().i64s()[0], 2);
    }

    #[test]
    fn incremental_snapshot_grows_across_page_boundaries() {
        let mut h = Heap::new();
        let (s0, _) = h.snapshot_incremental();
        assert_eq!(s0.slot_count(), 0);
        let mut ids = Vec::new();
        for i in 0..SNAPSHOT_PAGE_SLOTS + 3 {
            ids.push(h.alloc(ObjData::scalar_i64(i as i64)));
        }
        let (s1, st1) = h.snapshot_incremental();
        assert_snap_matches(&s1, &h);
        assert_eq!(st1.slots_copied, (SNAPSHOT_PAGE_SLOTS + 3) as u64);
        assert!(s1.get(ids[SNAPSHOT_PAGE_SLOTS]).is_some());
        // Growth did not leak into the earlier snapshot's view.
        assert_eq!(s0.slot_count(), 0);
    }

    #[test]
    fn reset_snapshot_cache_forces_full_rebuild() {
        let mut h = Heap::new();
        let a = h.alloc(ObjData::scalar_i64(1));
        let _ = h.snapshot_incremental();
        h.reset_snapshot_cache();
        let (s, st) = h.snapshot_incremental();
        assert_eq!(st.slots_copied, 1);
        assert_eq!(s.get(a).unwrap().i64s()[0], 1);
    }

    #[test]
    fn snapshot_epoch_is_monotonic_across_round_snapshots() {
        let mut h = Heap::new();
        let _ = h.alloc(ObjData::scalar_i64(1));
        assert_eq!(h.snapshot_epoch(), 0);
        // Every round snapshot advances the epoch…
        let _ = h.snapshot_incremental();
        assert_eq!(h.snapshot_epoch(), 1);
        let _ = h.snapshot_incremental();
        assert_eq!(h.snapshot_epoch(), 2);
        // …a plain one-shot snapshot does not, and neither does dropping
        // the incremental cache (epochs stay monotonic forever).
        let _ = h.snapshot();
        h.reset_snapshot_cache();
        assert_eq!(h.snapshot_epoch(), 2);
        let _ = h.snapshot_incremental();
        assert_eq!(h.snapshot_epoch(), 3);
    }

    /// A commit of words `1..3` of `id` (a partial range, so the payload is
    /// merged into, not swapped).
    fn partial_commit(h: &mut Heap, id: ObjId, v: i64) {
        h.apply_commit(CommitOps {
            writes: vec![(id, 1, 3, Arc::new(ObjData::I64(vec![v; 4])))],
            ..Default::default()
        });
    }

    #[test]
    fn commit_copies_while_anything_shares_the_payload() {
        // A one-object heap whose page cache is warm, as in a run's later rounds.
        let warm = || {
            let mut h = Heap::new();
            let a = h.alloc(ObjData::I64(vec![0; 4]));
            drop(h.snapshot_incremental());
            (h, a)
        };
        // Commits into `a` while whatever `old` reads through is alive.
        let check = |h: &mut Heap, a: ObjId, old: &dyn Fn() -> Vec<i64>, holder: &str| {
            let before = h.get(a).i64s().as_ptr();
            partial_commit(h, a, 7);
            assert_eq!(h.get(a).i64s(), &[0, 7, 7, 0]);
            assert_ne!(h.get(a).i64s().as_ptr(), before, "{holder}: must copy");
            assert_eq!(old(), [0; 4], "{holder} still reads the old words");
        };
        let (mut h, a) = warm();
        let round = h.snapshot_incremental().0;
        check(
            &mut h,
            a,
            &|| round.get(a).unwrap().i64s().to_vec(),
            "round snapshot",
        );
        let (mut h, a) = warm();
        let one_shot = h.snapshot();
        check(
            &mut h,
            a,
            &|| one_shot.get(a).unwrap().i64s().to_vec(),
            "one-shot snapshot",
        );
        let (mut h, a) = warm();
        let arc = h.snapshot_incremental().0.get_arc(a).unwrap();
        check(&mut h, a, &|| arc.i64s().to_vec(), "get_arc handle");
    }

    #[test]
    fn commit_writes_in_place_once_the_snapshot_is_dead() {
        let mut h = Heap::new();
        let ids: Vec<ObjId> = (0..SNAPSHOT_PAGE_SLOTS * 3)
            .map(|_| h.alloc(ObjData::I64(vec![0; 4])))
            .collect();
        let a = ids[70];
        let (round, _) = h.snapshot_incremental();
        let before = h.get(a).i64s().as_ptr();
        drop(round);
        partial_commit(&mut h, a, 7);
        partial_commit(&mut h, a, 8);
        h.get_mut(a).i64s_mut()[0] = 9;
        assert_eq!(h.get(a).i64s().as_ptr(), before, "nobody could see it");
        // Snapshot economics are what they were when the commit copied: one
        // journalled slot, every other page reused — and the view is right.
        let (snap, stats) = h.snapshot_incremental();
        assert_eq!((stats.slots_copied, stats.pages_reused), (1, 2));
        assert_snap_matches(&snap, &h);
        assert_eq!(snap.get(a).unwrap().i64s(), &[9, 8, 8, 0]);
        // With that snapshot alive the next commit copies again.
        partial_commit(&mut h, a, 1);
        assert_eq!(snap.get(a).unwrap().i64s(), &[9, 8, 8, 0]);
        assert_ne!(h.get(a).i64s().as_ptr(), before);
    }
}
