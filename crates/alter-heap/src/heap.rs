//! The committed memory state, snapshots of it, and commit application.
//!
//! The paper's runtime keeps one *committed memory state* plus N process-
//! private copy-on-write mappings (§4.1, Figure 4). Here the committed state
//! is a persistent page table — a root of `Arc`'d pages of
//! [`SNAPSHOT_PAGE_SLOTS`] slots, each slot holding its payload inline — and
//! a [`Snapshot`] is one `Arc` clone of that root, the analogue of the
//! paper's free `fork`. Transaction privacy comes from a private copy in the
//! transaction's overlay, made on first write and filled block by block as it
//! is touched ([`crate::Tx`]).
//!
//! # Writing in place
//!
//! A mutation ([`Heap::alloc`], [`Heap::free`], [`Heap::get_mut`],
//! [`Heap::apply_commit`]) must not change anything a snapshot can still
//! read, and must not copy anything nobody can. `Arc` counts decide, and
//! nothing else: a mutation reaches its slot through `Arc::make_mut` on the
//! root, then on the slot's page. Each level is written in place when the
//! heap holds the only reference to it and copied when a live [`Snapshot`]
//! shares it — the root's page pointers, or one page together with its
//! payloads, the paper's page-granular copy-on-write — after which later
//! writes along that path are in place again. The engine's drivers drop the
//! round's snapshot once its last task has returned, so in steady state
//! their commits copy nothing; the O(pages) root copy is paid only by the
//! first write under a held view (the analogue of the paper's page faults
//! after a `fork`). A whole-object commit or a transactional alloc moves the
//! transaction's buffer into its slot instead of copying it.

use crate::object::{ObjData, ObjId};
use std::sync::Arc;

/// Slots per page of the committed page table: the unit a write under a
/// held snapshot copies, payloads and all.
pub const SNAPSHOT_PAGE_SLOTS: usize = 64;

/// One page of the table. Slots past the heap's high water are `None`, so
/// a lookup through any snapshot needs no length check.
type Page = [Option<ObjData>; SNAPSHOT_PAGE_SLOTS];

/// The root of the page table, shared by the heap and every snapshot taken
/// since the heap last mutated it.
type Table = Arc<Vec<Arc<Page>>>;

/// Slot `idx` of `table`, or `None` if it is dead or past the table.
#[inline]
fn lookup(table: &[Arc<Page>], idx: usize) -> Option<&ObjData> {
    table.get(idx / SNAPSHOT_PAGE_SLOTS)?[idx % SNAPSHOT_PAGE_SLOTS].as_ref()
}

/// What establishing one round snapshot cost, reported by
/// [`Heap::snapshot_incremental`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Slots path-copied since the previous round snapshot:
    /// [`SNAPSHOT_PAGE_SLOTS`] for every page a write copied because some
    /// snapshot still shared it. Zero when nothing was held across a write.
    pub slots_copied: u64,
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
    table: Table,
    /// The number of slot ids ever issued (live or dead).
    len: usize,
    live: usize,
    live_words: u64,
    /// Commit counter; bumped once per committed transaction.
    version: u64,
    /// Slots freed by sequential code, reusable by sequential allocation.
    free: Vec<u32>,
    /// [`SnapshotStats::slots_copied`] accumulating for the next round
    /// snapshot.
    slots_copied: u64,
}

impl Heap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the table to cover slot `idx`.
    fn ensure(&mut self, idx: usize) {
        if idx >= self.len {
            self.len = idx + 1;
            let pages = self.len.div_ceil(SNAPSHOT_PAGE_SLOTS);
            if pages > self.table.len() {
                Arc::make_mut(&mut self.table)
                    .resize_with(pages, || Arc::new([const { None }; SNAPSHOT_PAGE_SLOTS]));
            }
        }
    }

    /// Slot `idx`, reached for writing (the module docs' "Writing in
    /// place"); `None` past the table.
    fn slot_mut(&mut self, idx: usize) -> Option<&mut Option<ObjData>> {
        let page = Arc::make_mut(&mut self.table).get_mut(idx / SNAPSHOT_PAGE_SLOTS)?;
        if Arc::strong_count(page) > 1 {
            self.slots_copied += SNAPSHOT_PAGE_SLOTS as u64;
        }
        Some(&mut Arc::make_mut(page)[idx % SNAPSHOT_PAGE_SLOTS])
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
                u32::try_from(self.len).expect("heap exhausted");
                self.len
            }
        };
        self.ensure(idx);
        self.live_words += data.len() as u64;
        self.live += 1;
        *self.slot_mut(idx).expect("ensured above") = Some(data);
        ObjId(idx as u32)
    }

    /// Frees an object from sequential code.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live (double free or never allocated).
    pub fn free(&mut self, id: ObjId) {
        let freed = self
            .slot_mut(id.0 as usize)
            .unwrap_or_else(|| panic!("free of unknown {id}"))
            .take()
            .unwrap_or_else(|| panic!("double free of {id}"));
        self.live_words -= freed.len() as u64;
        self.live -= 1;
        self.free.push(id.0);
    }

    /// Borrows the committed payload of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    #[inline]
    pub fn get(&self, id: ObjId) -> &ObjData {
        lookup(&self.table, id.0 as usize)
            .unwrap_or_else(|| panic!("access to dead or unknown {id}"))
    }

    /// Whether `id` names a live allocation.
    pub fn is_live(&self, id: ObjId) -> bool {
        lookup(&self.table, id.0 as usize).is_some()
    }

    /// Mutably borrows the committed payload of `id` from sequential code,
    /// copying its page first if a live snapshot still shares it.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    pub fn get_mut(&mut self, id: ObjId) -> &mut ObjData {
        self.slot_mut(id.0 as usize)
            .and_then(Option::as_mut)
            .unwrap_or_else(|| panic!("access to dead or unknown {id}"))
    }

    /// Takes a consistent snapshot of the committed state: one `Arc` clone
    /// of the page table's root. The engine's rounds use
    /// [`Heap::snapshot_incremental`].
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            table: Arc::clone(&self.table),
            len: self.len,
            version: self.version,
        }
    }

    /// Takes a round snapshot: [`Heap::snapshot`], reporting the slots
    /// path-copied since the previous round snapshot.
    pub fn snapshot_incremental(&mut self) -> (Snapshot, SnapshotStats) {
        let stats = SnapshotStats {
            slots_copied: std::mem::take(&mut self.slots_copied),
        };
        (self.snapshot(), stats)
    }

    /// Current global commit version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of live allocations.
    pub fn live_objects(&self) -> usize {
        self.live
    }

    /// Live slots in index order.
    fn objects(&self) -> impl Iterator<Item = (usize, &ObjData)> {
        self.table
            .iter()
            .flat_map(|page| page.iter())
            .enumerate()
            .filter_map(|(i, slot)| Some((i, slot.as_ref()?)))
    }

    /// Total words across live allocations (used by the simulator's
    /// bandwidth model and by memory-budget accounting). O(1): payloads
    /// are fixed-length, so the counter moves only on alloc and free.
    pub fn live_words(&self) -> u64 {
        debug_assert_eq!(
            self.live_words,
            self.objects().map(|(_, o)| o.len() as u64).sum::<u64>(),
            "live-words counter diverged from the sweep"
        );
        self.live_words
    }

    /// First id that has never been allocated; parallel id reservations
    /// start here (see [`crate::IdReservation`]).
    pub fn high_water(&self) -> u32 {
        u32::try_from(self.len).expect("heap exhausted")
    }

    /// Applies a validated transaction's effects, in deterministic commit
    /// order, and bumps the commit version.
    ///
    /// Only the word ranges in the transaction's write set are merged back
    /// ([`ObjData::copy_range_from`]): snapshot isolation lets two
    /// transactions commit writes to disjoint ranges of one allocation, so a
    /// whole-object overwrite would lose the earlier commit. The merge
    /// writes the committed payload in place unless a snapshot can still
    /// read its page (the module docs' "Writing in place"). Whole-object
    /// writes and allocs move the source's buffer in, or copy it if shared.
    ///
    /// # Panics
    ///
    /// Panics if an op refers to a dead object (the engine validates before
    /// committing, so this is a runtime bug), a write's kind differs from its
    /// object's, or an alloc id collides with a live slot (an allocator bug).
    pub fn apply_commit(&mut self, ops: CommitOps) {
        self.version += 1;
        let mut writes = ops.writes.into_iter().peekable();
        while let Some((id, lo, hi, src)) = writes.next() {
            let payload = self
                .slot_mut(id.0 as usize)
                .and_then(Option::as_mut)
                .unwrap_or_else(|| panic!("commit write to dead {id}"));
            let whole = lo == 0 && hi as usize == src.len() && src.len() == payload.len();
            if whole && src.kind() == payload.kind() {
                // Whole-object write: move the buffer in (a kind mismatch
                // falls through to the merge's type error).
                *payload = Arc::unwrap_or_clone(src);
                continue;
            }
            // The ranges of one object follow each other: find its payload
            // once and merge them all.
            payload.copy_range_from(&src, lo as usize, hi as usize);
            while let Some((_, lo, hi, src)) = writes.next_if(|w| w.0 == id) {
                payload.copy_range_from(&src, lo as usize, hi as usize);
            }
        }
        for (id, data) in ops.allocs {
            let idx = id.0 as usize;
            self.ensure(idx);
            self.live_words += data.len() as u64;
            self.live += 1;
            let slot = self.slot_mut(idx).expect("ensured above");
            assert!(
                slot.is_none(),
                "allocator invariant violated: {id} already live at commit"
            );
            *slot = Some(Arc::unwrap_or_clone(data));
        }
        for id in ops.frees {
            let freed = self
                .slot_mut(id.0 as usize)
                .and_then(Option::take)
                .unwrap_or_else(|| panic!("commit free of dead {id}"));
            self.live_words -= freed.len() as u64;
            self.live -= 1;
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
        for (i, obj) in self.objects() {
            mix(i as u64);
            match obj {
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
/// Taking and cloning a snapshot are O(1): it shares the heap's page table
/// root, and the heap path-copies whatever it writes while a snapshot is
/// alive. All transactions of one lock-step round share one snapshot.
#[derive(Clone, Debug)]
pub struct Snapshot {
    table: Table,
    len: usize,
    version: u64,
}

impl Snapshot {
    /// Borrows the payload of `id` as of this snapshot, or `None` if the
    /// object was dead (or not yet allocated) at snapshot time.
    #[inline]
    pub fn get(&self, id: ObjId) -> Option<&ObjData> {
        lookup(&self.table, id.0 as usize)
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

    /// A commit of words `1..3` of `id` (a partial range, so the payload is
    /// merged into, not swapped).
    fn partial_commit(h: &mut Heap, id: ObjId, v: i64) {
        h.apply_commit(CommitOps {
            writes: vec![(id, 1, 3, Arc::new(ObjData::I64(vec![v; 4])))],
            ..Default::default()
        });
    }

    #[test]
    fn writes_copy_one_page_under_a_held_snapshot_and_nothing_otherwise() {
        let mut h = Heap::new();
        let ids: Vec<ObjId> = (0..SNAPSHOT_PAGE_SLOTS * 3)
            .map(|_| h.alloc(ObjData::I64(vec![0; 4])))
            .collect();
        let a = ids[70];
        let (round, stats) = h.snapshot_incremental();
        assert_eq!(stats.slots_copied, 0, "set-up held no view");
        let before = h.get(a).i64s().as_ptr();
        drop(round);
        partial_commit(&mut h, a, 7);
        partial_commit(&mut h, a, 8);
        h.get_mut(a).i64s_mut()[0] = 9;
        assert_eq!(h.get(a).i64s().as_ptr(), before, "nobody could see it");
        let (snap, stats) = h.snapshot_incremental();
        assert_eq!(stats.slots_copied, 0, "nothing was shared");
        // With that snapshot alive, writes to two slots of one page copy
        // the page once, and the payload, and leave the view alone.
        partial_commit(&mut h, a, 1);
        h.get_mut(ids[71]).i64s_mut()[0] = 1;
        assert_eq!(snap.get(a).unwrap().i64s(), &[9, 8, 8, 0]);
        assert_eq!(h.get(a).i64s(), &[9, 1, 1, 0]);
        assert_ne!(h.get(a).i64s().as_ptr(), before);
        let (_, stats) = h.snapshot_incremental();
        assert_eq!(stats.slots_copied, SNAPSHOT_PAGE_SLOTS as u64);
    }

    /// Where `obj`'s words live.
    fn buffer(obj: &ObjData) -> *const u8 {
        match obj {
            ObjData::F64(v) => v.as_ptr().cast(),
            ObjData::I64(v) => v.as_ptr().cast(),
        }
    }

    #[test]
    #[should_panic(expected = "type error")]
    fn whole_object_commit_of_another_kind_panics() {
        let mut h = Heap::new();
        let a = h.alloc(ObjData::zeros_i64(2));
        h.apply_commit(CommitOps {
            writes: vec![(a, 0, 2, Arc::new(ObjData::zeros_f64(2)))],
            ..Default::default()
        });
    }

    #[test]
    fn whole_object_commits_and_allocs_move_their_buffer_unless_it_is_held() {
        let mut h = Heap::new();
        let a = h.alloc(ObjData::zeros_i64(3));
        let far = ObjId::from_index(5);
        // The caller keeps a handle on both sources: the heap copies them.
        let src = Arc::new(ObjData::I64(vec![1, 2, 3]));
        let fresh = Arc::new(ObjData::F64(vec![4.0, 5.0]));
        h.apply_commit(CommitOps {
            writes: vec![(a, 0, 3, Arc::clone(&src))],
            allocs: vec![(far, Arc::clone(&fresh))],
            ..Default::default()
        });
        assert_eq!(h.get(a).i64s(), &[1, 2, 3]);
        assert_eq!(h.get(far).f64s(), &[4.0, 5.0]);
        assert_ne!(buffer(h.get(a)), buffer(&src));
        assert_ne!(buffer(h.get(far)), buffer(&fresh));
        // Handed over for good: the heap installs the buffer itself.
        let (at, fresh_at) = (buffer(&src), buffer(&fresh));
        h.apply_commit(CommitOps {
            writes: vec![(a, 0, 3, src)],
            allocs: vec![(ObjId::from_index(6), fresh)],
            ..Default::default()
        });
        assert_eq!(buffer(h.get(a)), at);
        assert_eq!(buffer(h.get(ObjId::from_index(6))), fresh_at);
    }

    struct Rng(u64);

    impl Rng {
        fn below(&mut self, bound: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound as u64) as usize
        }

        /// A payload of one to six words of a random kind.
        fn fresh(&mut self) -> ObjData {
            let len = 1 + self.below(6);
            self.payload(len, None)
        }

        /// A payload of `len` words of `like`'s kind (or a random kind).
        fn payload(&mut self, len: usize, like: Option<&ObjData>) -> ObjData {
            let float = like.map_or(self.below(2) == 0, |o| matches!(o, ObjData::F64(_)));
            let words = (0..len).map(|_| self.below(2001) as i64 - 1000);
            if float {
                ObjData::F64(words.map(|w| w as f64).collect())
            } else {
                ObjData::I64(words.collect())
            }
        }
    }

    /// The committed state as a naive slot vector: what the heap reads, and
    /// what a snapshot taken now must read for as long as it lives.
    type Model = Vec<Option<ObjData>>;

    /// `Heap::digest`'s definition, computed over the model.
    fn model_digest(model: &Model) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        for (i, obj) in model.iter().enumerate() {
            let (tag, words): (u64, Vec<u64>) = match obj {
                None => continue,
                Some(ObjData::F64(v)) => (1, v.iter().map(|x| x.to_bits()).collect()),
                Some(ObjData::I64(v)) => (2, v.iter().map(|x| *x as u64).collect()),
            };
            mix(i as u64);
            mix(tag);
            words.into_iter().for_each(&mut mix);
        }
        h
    }

    /// Random sequential allocs, frees and writes and random commits
    /// (partial ranges, whole-object swaps, allocs past the high water,
    /// frees) against a naive model, with snapshots held for random
    /// stretches. After every step: each held snapshot reads exactly the
    /// model as of its creation, the digests agree, a whole-object commit
    /// installed its source's buffer, and every other live payload kept its
    /// buffer unless the step wrote to its page while a held view shared it
    /// — the page is the unit of copy-on-write, so a write under a view moves
    /// every payload on that page and none on any other.
    #[test]
    fn persistent_table_matches_a_naive_model() {
        let mut rng = Rng(0x28_9a6e);
        for case in 0..200 {
            let mut h = Heap::new();
            let mut model: Model = Vec::new();
            // (view, the model when it was taken, the step it is dropped at)
            let mut held: Vec<(Snapshot, Model, usize)> = Vec::new();
            for step in 0..1 + rng.below(80) {
                let ctx = format!("case {case} step {step}");
                held.retain(|(.., until)| *until > step);
                let live: Vec<usize> = (0..model.len()).filter(|&i| model[i].is_some()).collect();
                let pick = |rng: &mut Rng| live[rng.below(live.len())];
                // Every live payload's buffer, and which pages a held view
                // shares, before the step; the slots the step writes; the
                // buffers whole-object commits hand over.
                let before: Vec<(usize, *const u8)> = live
                    .iter()
                    .map(|&i| (i, buffer(h.get(ObjId::from_index(i as u32)))))
                    .collect();
                let shared: Vec<bool> = (0..h.table.len())
                    .map(|p| {
                        held.iter().any(|(s, ..)| {
                            s.table.get(p).is_some_and(|q| Arc::ptr_eq(q, &h.table[p]))
                        })
                    })
                    .collect();
                let mut touched: Vec<usize> = Vec::new();
                let mut moved_in: Vec<(usize, *const u8)> = Vec::new();
                match rng.below(8) {
                    0 | 1 => {
                        let data = rng.fresh();
                        let id = h.alloc(data.clone());
                        let idx = id.index() as usize;
                        touched.push(idx);
                        if idx == model.len() {
                            model.push(None);
                        }
                        assert!(model[idx].is_none(), "{ctx}: alloc into a live slot");
                        model[idx] = Some(data);
                    }
                    2 if !live.is_empty() => {
                        let idx = pick(&mut rng);
                        h.free(ObjId::from_index(idx as u32));
                        model[idx] = None;
                        touched.push(idx);
                    }
                    3 if !live.is_empty() => {
                        let idx = pick(&mut rng);
                        let id = ObjId::from_index(idx as u32);
                        touched.push(idx);
                        let obj = model[idx].as_mut().unwrap();
                        let src = rng.payload(obj.len(), Some(&*obj));
                        let w = rng.below(src.len());
                        h.get_mut(id).copy_range_from(&src, w, w + 1);
                        obj.copy_range_from(&src, w, w + 1);
                    }
                    4 | 5 => {
                        let mut ops = CommitOps::default();
                        let mut written = Vec::new();
                        for _ in 0..rng.below(4).min(live.len()) {
                            let idx = pick(&mut rng);
                            if written.contains(&idx) {
                                continue;
                            }
                            written.push(idx);
                            touched.push(idx);
                            let id = ObjId::from_index(idx as u32);
                            let obj = model[idx].as_mut().unwrap();
                            let len = obj.len();
                            let src = Arc::new(rng.payload(len, Some(&*obj)));
                            if len == 1 || rng.below(3) == 0 {
                                moved_in.push((idx, buffer(&src)));
                                ops.writes.push((id, 0, len as u32, Arc::clone(&src)));
                                *obj = (*src).clone();
                                continue;
                            }
                            for _ in 0..1 + rng.below(3) {
                                let lo = rng.below(len - 1);
                                let hi = lo + 1 + rng.below(len - 1 - lo);
                                ops.writes
                                    .push((id, lo as u32, hi as u32, Arc::clone(&src)));
                                obj.copy_range_from(&src, lo, hi);
                            }
                        }
                        let mut next = model.len();
                        for _ in 0..rng.below(3) {
                            let idx = next + rng.below(SNAPSHOT_PAGE_SLOTS + 2);
                            next = idx + 1;
                            let data = rng.fresh();
                            ops.allocs
                                .push((ObjId::from_index(idx as u32), Arc::new(data.clone())));
                            model.resize(next, None);
                            model[idx] = Some(data);
                            touched.push(idx);
                        }
                        for &idx in &live {
                            if !written.contains(&idx) && rng.below(8) == 0 {
                                ops.frees.push(ObjId::from_index(idx as u32));
                                model[idx] = None;
                                touched.push(idx);
                            }
                        }
                        h.apply_commit(ops);
                    }
                    6 => {
                        let snap = if rng.below(2) == 0 {
                            h.snapshot()
                        } else {
                            h.snapshot_incremental().0
                        };
                        held.push((snap, model.clone(), step + 1 + rng.below(12)));
                    }
                    _ => {}
                }

                assert_eq!(h.high_water() as usize, model.len(), "{ctx}");
                assert_eq!(h.digest(), model_digest(&model), "{ctx}");
                for (snap, view, _) in &held {
                    assert_eq!(snap.slot_count(), view.len(), "{ctx}");
                    for i in 0..view.len() + SNAPSHOT_PAGE_SLOTS {
                        let want = view.get(i).and_then(Option::as_ref);
                        assert_eq!(
                            snap.get(ObjId::from_index(i as u32)),
                            want,
                            "{ctx} slot {i}"
                        );
                    }
                }
                let now = |i: usize| buffer(h.get(ObjId::from_index(i as u32)));
                for &(i, src) in &moved_in {
                    assert_eq!(now(i), src, "{ctx}: slot {i} holds the moved source");
                }
                let copied = |i: usize| {
                    let page = i / SNAPSHOT_PAGE_SLOTS;
                    shared[page] && touched.iter().any(|t| t / SNAPSHOT_PAGE_SLOTS == page)
                };
                for (i, at) in before {
                    if model[i].is_some() && !moved_in.iter().any(|m| m.0 == i) {
                        let moved = now(i) != at;
                        assert_eq!(
                            moved,
                            copied(i),
                            "{ctx}: slot {i} moved iff its page was copied"
                        );
                    }
                }
            }
        }
    }
}
