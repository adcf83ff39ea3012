//! The committed memory state, snapshots of it, and commit application.
//!
//! The paper's runtime keeps one *committed memory state* plus N process-
//! private copy-on-write mappings (§4.1, Figure 4), over a HOARD-like
//! allocator, which carves objects out of superblocks. Here the committed
//! state is a persistent page table — a root of `Arc`'d pages of
//! [`SNAPSHOT_PAGE_SLOTS`] slots — and a [`Snapshot`] is one `Arc` clone of
//! that root, the analogue of the paper's free `fork`. A page is the
//! superblock: it keeps the words of all its objects in one buffer per kind,
//! and a slot records which kind, where in that buffer and how long, so
//! [`Heap::get`] and [`Snapshot::get`] hand out borrowed views ([`ObjRef`])
//! into it. Transaction privacy comes from a private copy in the
//! transaction's overlay, made on first write and filled block by block as it
//! is touched ([`crate::Tx`]).
//!
//! # Writing in place
//!
//! A mutation ([`Heap::alloc`], [`Heap::free`], [`Heap::get_mut`],
//! [`Heap::commit`]) must not change anything a snapshot can still
//! read, and must not copy anything nobody can. `Arc` counts decide, and
//! nothing else: a mutation reaches its slot through `Arc::make_mut` on the
//! root, then on the slot's page. Each level is written in place when the
//! heap holds the only reference to it and copied when a live [`Snapshot`]
//! shares it — the root's page pointers, or one page together with its two
//! buffers, the paper's page-granular copy-on-write — after which later
//! writes along that path are in place again. The engine's drivers drop the
//! round's snapshot once its last task has returned, so in steady state
//! their commits copy nothing; the O(pages) root copy is paid only by the
//! first write under a held view (the analogue of the paper's page faults
//! after a `fork`).
//!
//! Every write copies words into the page's buffer: a commit's ranges and a
//! transactional alloc alike (a long private copy, spent, stays with its
//! transaction's [`crate::TxEffects`], for the next transaction built in
//! them to reuse). An alloc appends its words to the buffer of its kind; a
//! free leaves a hole, and a page whose holes come to outweigh its live
//! words compacts its buffers.

use crate::object::{ObjData, ObjId, ObjKind, ObjMut, ObjRef};
use crate::tx::{Local, TxEffects};
use std::sync::Arc;

/// Slots per page of the committed page table: the unit a write under a
/// held snapshot copies, words and all.
pub const SNAPSHOT_PAGE_SLOTS: usize = 64;

/// Where one live object's words are: `len` words at `at` in its page's
/// buffer of `kind`.
#[derive(Clone, Copy, Debug)]
struct Slot {
    kind: ObjKind,
    at: u32,
    len: u32,
}

impl Slot {
    fn range(self) -> std::ops::Range<usize> {
        self.at as usize..self.at as usize + self.len as usize
    }
}

/// One page of the table: a superblock of up to [`SNAPSHOT_PAGE_SLOTS`]
/// objects. Slots past the heap's high water are `None`, so a lookup
/// through any snapshot needs no length check.
#[derive(Clone, Debug)]
struct Page {
    f64s: Vec<f64>,
    i64s: Vec<i64>,
    slots: [Option<Slot>; SNAPSHOT_PAGE_SLOTS],
    /// Words of the two buffers that no live slot covers.
    dead: usize,
}

impl Page {
    const EMPTY: Page = Page {
        f64s: Vec::new(),
        i64s: Vec::new(),
        slots: [None; SNAPSHOT_PAGE_SLOTS],
        dead: 0,
    };

    #[inline]
    fn get(&self, s: usize) -> Option<ObjRef<'_>> {
        let slot = self.slots[s]?;
        Some(match slot.kind {
            ObjKind::F64 => ObjRef::F64(&self.f64s[slot.range()]),
            ObjKind::I64 => ObjRef::I64(&self.i64s[slot.range()]),
        })
    }

    #[inline]
    fn get_mut(&mut self, s: usize) -> Option<ObjMut<'_>> {
        let slot = self.slots[s]?;
        Some(match slot.kind {
            ObjKind::F64 => ObjMut::F64(&mut self.f64s[slot.range()]),
            ObjKind::I64 => ObjMut::I64(&mut self.i64s[slot.range()]),
        })
    }

    /// Installs a copy of `data` in the empty slot `s`, appended to the
    /// buffer of its kind.
    fn put(&mut self, s: usize, data: ObjRef<'_>) {
        let at = match data {
            ObjRef::F64(words) => append(&mut self.f64s, words),
            ObjRef::I64(words) => append(&mut self.i64s, words),
        };
        self.slots[s] = Some(Slot {
            kind: data.kind(),
            at,
            len: u32::try_from(data.len()).expect("object length fits u32"),
        });
    }

    /// Makes room in the buffer of `data`'s kind for `n` more objects as
    /// long as `data`.
    fn reserve(&mut self, data: ObjRef<'_>, n: usize) {
        match data {
            ObjRef::F64(words) => self.f64s.reserve(n * words.len()),
            ObjRef::I64(words) => self.i64s.reserve(n * words.len()),
        }
    }

    /// Empties slot `s` and returns the length of the object it held, or
    /// `None` if it held none. Compacts the buffers once the holes outweigh
    /// the live words.
    fn take(&mut self, s: usize) -> Option<usize> {
        let len = self.slots[s].take()?.len as usize;
        self.dead += len;
        if 2 * self.dead > self.f64s.len() + self.i64s.len() {
            self.compact();
        }
        Some(len)
    }

    /// Rewrites the buffers to hold the live slots' words and nothing else.
    fn compact(&mut self) {
        let live = |kind| -> usize {
            let slots = self.slots.iter().flatten().filter(|s| s.kind == kind);
            slots.map(|s| s.len as usize).sum()
        };
        let mut f64s = Vec::with_capacity(live(ObjKind::F64));
        let mut i64s = Vec::with_capacity(live(ObjKind::I64));
        for slot in self.slots.iter_mut().flatten() {
            let at = match slot.kind {
                ObjKind::F64 => append(&mut f64s, &self.f64s[slot.range()]),
                ObjKind::I64 => append(&mut i64s, &self.i64s[slot.range()]),
            };
            slot.at = at;
        }
        self.f64s = f64s;
        self.i64s = i64s;
        self.dead = 0;
    }
}

/// Appends `words` to `buf` and returns where they start.
fn append<T: Copy>(buf: &mut Vec<T>, words: &[T]) -> u32 {
    let at = buf.len();
    buf.extend_from_slice(words);
    u32::try_from(at).expect("page buffer fits u32 words")
}

/// Copies each range `lo..hi` of `ranges` from `src` into `dst`.
fn copy_ranges<T: Copy>(dst: &mut [T], src: &[T], ranges: impl Iterator<Item = (u32, u32)>) {
    for (lo, hi) in ranges {
        let (lo, hi) = (lo as usize, hi as usize);
        // A one-word range (Floyd commits thousands) is one store; a
        // `copy_from_slice` of a length known only at run time is a
        // `memcpy` call, which made `runtime_micro`'s
        // `commit_scattered_2341w_16k` 2.5× slower.
        if hi - lo == 1 {
            dst[lo] = src[lo];
        } else {
            dst[lo..hi].copy_from_slice(&src[lo..hi]);
        }
    }
}

/// The root of the page table, shared by the heap and every snapshot taken
/// since the heap last mutated it.
type Table = Arc<Vec<Arc<Page>>>;

/// Slot `idx` of `table`, or `None` if it is dead or past the table.
#[inline]
fn lookup(table: &[Arc<Page>], idx: usize) -> Option<ObjRef<'_>> {
    table
        .get(idx / SNAPSHOT_PAGE_SLOTS)?
        .get(idx % SNAPSHOT_PAGE_SLOTS)
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
/// snapshots and transactions, and mutate it only through [`Heap::commit`]
/// in deterministic commit order.
#[derive(Debug, Default)]
pub struct Heap {
    table: Table,
    /// The number of slot ids ever issued (live or dead).
    len: usize,
    live: usize,
    live_words: u64,
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
                Arc::make_mut(&mut self.table).resize_with(pages, || Arc::new(Page::EMPTY));
            }
        }
    }

    /// The page of slot `idx`, reached for writing (the module docs'
    /// "Writing in place"); `None` past the table.
    fn page_mut(&mut self, idx: usize) -> Option<&mut Page> {
        let page = Arc::make_mut(&mut self.table).get_mut(idx / SNAPSHOT_PAGE_SLOTS)?;
        if Arc::strong_count(page) > 1 {
            self.slots_copied += SNAPSHOT_PAGE_SLOTS as u64;
        }
        Some(Arc::make_mut(page))
    }

    /// Installs `n` copies of `data` at ids `first..first + n`, reaching
    /// each page for writing once and reserving its words once.
    ///
    /// # Panics
    ///
    /// Panics if one of those ids is live (an allocator bug) or past `u32`.
    fn install(&mut self, first: usize, data: ObjRef<'_>, n: usize) {
        let end = first + n;
        u32::try_from(end).expect("heap exhausted");
        if n == 0 {
            return;
        }
        self.ensure(end - 1);
        self.live_words += (n * data.len()) as u64;
        self.live += n;
        let mut idx = first;
        while idx < end {
            let page = self.page_mut(idx).expect("ensured above");
            let page_end = end.min((idx / SNAPSHOT_PAGE_SLOTS + 1) * SNAPSHOT_PAGE_SLOTS);
            page.reserve(data, page_end - idx);
            for i in idx..page_end {
                let s = i % SNAPSHOT_PAGE_SLOTS;
                assert!(
                    page.slots[s].is_none(),
                    "allocator invariant violated: {} already live",
                    ObjId(i as u32)
                );
                page.put(s, data);
            }
            idx = page_end;
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
        let idx = self.free.pop().map_or(self.len, |idx| idx as usize);
        self.install(idx, data.view(), 1);
        ObjId(idx as u32)
    }

    /// Allocates `n` copies of `data` from sequential code, at the next `n`
    /// ids past the high water (freed slots are not reused), and returns
    /// those ids. One [`Heap::alloc`] per copy would reach each page for
    /// writing once per object, and pay a heap allocation per object for
    /// the [`ObjData`]; this reaches it once, and copies from `data`.
    pub fn alloc_copies(&mut self, data: ObjRef<'_>, n: usize) -> impl Iterator<Item = ObjId> {
        let first = self.len;
        self.install(first, data, n);
        (first as u32..(first + n) as u32).map(ObjId)
    }

    /// Frees an object from sequential code.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live (double free or never allocated).
    pub fn free(&mut self, id: ObjId) {
        let idx = id.0 as usize;
        let len = self
            .page_mut(idx)
            .unwrap_or_else(|| panic!("free of unknown {id}"))
            .take(idx % SNAPSHOT_PAGE_SLOTS)
            .unwrap_or_else(|| panic!("double free of {id}"));
        self.live_words -= len as u64;
        self.live -= 1;
        self.free.push(id.0);
    }

    /// Borrows the committed payload of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    #[inline]
    pub fn get(&self, id: ObjId) -> ObjRef<'_> {
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
    pub fn get_mut(&mut self, id: ObjId) -> ObjMut<'_> {
        let idx = id.0 as usize;
        self.page_mut(idx)
            .and_then(|page| page.get_mut(idx % SNAPSHOT_PAGE_SLOTS))
            .unwrap_or_else(|| panic!("access to dead or unknown {id}"))
    }

    /// Takes a consistent snapshot of the committed state: one `Arc` clone
    /// of the page table's root. The engine's rounds use
    /// [`Heap::snapshot_incremental`].
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            table: Arc::clone(&self.table),
            len: self.len,
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

    /// Number of live allocations.
    pub fn live_objects(&self) -> usize {
        self.live
    }

    /// Live slots in index order.
    fn objects(&self) -> impl Iterator<Item = (usize, ObjRef<'_>)> {
        self.table.iter().enumerate().flat_map(|(p, page)| {
            (0..SNAPSHOT_PAGE_SLOTS)
                .filter_map(move |s| Some((p * SNAPSHOT_PAGE_SLOTS + s, page.get(s)?)))
        })
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

    /// Commits a validated transaction's effects: the engine's one way of
    /// writing a parallel loop's results.
    ///
    /// One pass over the transaction's overlay: a private copy merges the
    /// ranges the write set holds for it (snapshot isolation lets two
    /// transactions commit disjoint ranges of one allocation, so a
    /// whole-object overwrite would lose the earlier commit), a fresh object
    /// is installed at its reserved id, and a freed one empties its slot.
    /// The ids are distinct, so the steps commute. Each object's page is
    /// reached once and written in place unless a snapshot can still read
    /// it ("Writing in place" above). The private copies stay in `fx`, for
    /// [`TxEffects::reset`] to recycle.
    ///
    /// # Panics
    ///
    /// Panics if an effect refers to a dead object (the engine validates
    /// before committing, so this is a runtime bug), a write's kind differs
    /// from its object's, or an alloc id collides with a live slot (an
    /// allocator bug).
    pub fn commit(&mut self, fx: &TxEffects) {
        for (&id, local) in &fx.overlay {
            match local {
                // A private copy with no range in the write set wrote nothing.
                Local::Copy { data, .. } => {
                    let ranges = fx.writes.ranges(id);
                    if !ranges.is_empty() {
                        self.merge(id, data.view(), ranges.iter().map(|&(_, lo, hi)| (lo, hi)));
                    }
                }
                Local::Fresh(data) => self.install(id.0 as usize, data.view(), 1),
                Local::Freed => self.commit_free(id),
            }
        }
    }

    /// [`Heap::commit`] of effects given as [`CommitOps`], one range per
    /// write: the form the wall-clock benchmark's probes build and time.
    /// Panics as [`Heap::commit`] does.
    pub fn apply_commit(&mut self, ops: CommitOps) {
        for (id, lo, hi, src) in ops.writes {
            self.merge(id, src.view(), std::iter::once((lo, hi)));
        }
        for (id, data) in ops.allocs {
            self.install(id.0 as usize, data.view(), 1);
        }
        for id in ops.frees {
            self.commit_free(id);
        }
    }

    /// Copies each range `lo..hi` of `ranges` from `src` into the live object
    /// `id`, reaching its page and matching the two kinds once.
    fn merge(&mut self, id: ObjId, src: ObjRef<'_>, ranges: impl Iterator<Item = (u32, u32)>) {
        let idx = id.0 as usize;
        let payload = self
            .page_mut(idx)
            .and_then(|page| page.get_mut(idx % SNAPSHOT_PAGE_SLOTS))
            .unwrap_or_else(|| panic!("commit write to dead {id}"));
        match (payload, src) {
            (ObjMut::F64(dst), ObjRef::F64(src)) => copy_ranges(dst, src, ranges),
            (ObjMut::I64(dst), ObjRef::I64(src)) => copy_ranges(dst, src, ranges),
            // Kinds differ: the merge's own type error.
            (mut payload, src) => payload.copy_range_from(src, 0, 0),
        }
    }

    /// Empties the slot of `id`, freed by a committed transaction.
    fn commit_free(&mut self, id: ObjId) {
        let idx = id.0 as usize;
        let len = self
            .page_mut(idx)
            .and_then(|page| page.take(idx % SNAPSHOT_PAGE_SLOTS))
            .unwrap_or_else(|| panic!("commit free of dead {id}"));
        self.live_words -= len as u64;
        self.live -= 1;
        // Freed parallel slots are not recycled: the paper's allocator also
        // leaves holes rather than risk cross-process reuse races.
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
                ObjRef::F64(v) => {
                    mix(1);
                    for x in v {
                        mix(x.to_bits());
                    }
                }
                ObjRef::I64(v) => {
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

/// A consistent, immutable view of the committed state at one moment.
///
/// Taking and cloning a snapshot are O(1): it shares the heap's page table
/// root, and the heap path-copies whatever it writes while a snapshot is
/// alive. All transactions of one lock-step round share one snapshot.
#[derive(Clone, Debug)]
pub struct Snapshot {
    table: Table,
    len: usize,
}

impl Snapshot {
    /// Borrows the payload of `id` as of this snapshot, or `None` if the
    /// object was dead (or not yet allocated) at snapshot time.
    #[inline]
    pub fn get(&self, id: ObjId) -> Option<ObjRef<'_>> {
        lookup(&self.table, id.0 as usize)
    }

    /// Number of slots (live or dead) visible to the snapshot.
    pub fn slot_count(&self) -> usize {
        self.len
    }
}

/// A transaction's effects as owned operations, applied by
/// [`Heap::apply_commit`]. The engine commits a [`TxEffects`] in place
/// ([`Heap::commit`]); this form is what the wall-clock benchmark builds.
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
    use std::collections::{BTreeMap, BTreeSet};

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
        // the page once, buffers and all, and leave the view alone.
        partial_commit(&mut h, a, 1);
        h.get_mut(ids[71]).i64s_mut()[0] = 1;
        assert_eq!(snap.get(a).unwrap().i64s(), &[9, 8, 8, 0]);
        assert_eq!(h.get(a).i64s(), &[9, 1, 1, 0]);
        assert_ne!(h.get(a).i64s().as_ptr(), before);
        let (_, stats) = h.snapshot_incremental();
        assert_eq!(stats.slots_copied, SNAPSHOT_PAGE_SLOTS as u64);
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
    fn objects_of_a_page_share_one_buffer_per_kind() {
        let mut h = Heap::new();
        let a = h.alloc(ObjData::I64(vec![1, 2, 3]));
        let x = h.alloc(ObjData::F64(vec![0.5]));
        let b = h.alloc(ObjData::I64(vec![4, 5]));
        let far = ObjId::from_index(3);
        h.apply_commit(CommitOps {
            writes: vec![(a, 0, 3, Arc::new(ObjData::I64(vec![7, 8, 9])))],
            allocs: vec![(far, Arc::new(ObjData::I64(vec![6])))],
            ..Default::default()
        });
        let at = h.get(a).i64s().as_ptr();
        // Each kind's words follow each other in the page's buffer, and a
        // whole-object commit wrote over them where they were.
        assert_eq!(h.get(b).i64s().as_ptr(), at.wrapping_add(3));
        assert_eq!(h.get(far).i64s().as_ptr(), at.wrapping_add(5));
        assert_eq!(h.get(a).i64s(), &[7, 8, 9]);
        assert_eq!(h.get(x).f64s(), &[0.5]);
        assert_eq!(h.table.len(), 1);
        assert_eq!(h.table[0].i64s, [7, 8, 9, 4, 5, 6]);
    }

    #[test]
    fn a_page_compacts_once_its_holes_outweigh_its_live_words() {
        let mut h = Heap::new();
        let ids: Vec<ObjId> = (0..10).map(|i| h.alloc(ObjData::I64(vec![i; 4]))).collect();
        for &id in &ids[..5] {
            h.free(id);
        }
        // 20 dead words against 20 live ones: not yet.
        assert_eq!((h.table[0].i64s.len(), h.table[0].dead), (40, 20));
        h.free(ids[5]);
        assert_eq!((h.table[0].i64s.len(), h.table[0].dead), (16, 0));
        for (i, &id) in ids.iter().enumerate().skip(6) {
            assert_eq!(h.get(id).i64s(), &[i as i64; 4]);
        }
        assert_eq!(h.live_words(), 16);
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

        /// A payload of a random kind: mostly up to six words, sometimes
        /// none, sometimes a few hundred.
        fn fresh(&mut self) -> ObjData {
            let len = match self.below(16) {
                0 => 0,
                1 => 1 + self.below(300),
                _ => 1 + self.below(6),
            };
            let float = self.below(2) == 0;
            self.payload(len, float)
        }

        /// A payload of `len` random words, floats if `float`.
        fn payload(&mut self, len: usize, float: bool) -> ObjData {
            let words = (0..len).map(|_| self.below(2001) as i64 - 1000);
            if float {
                ObjData::F64(words.map(|w| w as f64).collect())
            } else {
                ObjData::I64(words.collect())
            }
        }
    }

    /// One version of the committed state: naive owned payloads by id and
    /// the number of ids ever issued, live or dead. What the heap reads, and
    /// what a snapshot taken now must read for as long as it lives.
    #[derive(Clone, Default)]
    struct Model {
        objs: BTreeMap<u32, ObjData>,
        high: u32,
    }

    impl Model {
        /// Records `data` at the newly issued or reused id `i`.
        fn insert(&mut self, i: u32, data: ObjData) {
            self.high = self.high.max(i + 1);
            assert!(self.objs.insert(i, data).is_none(), "id {i} was live");
        }

        /// `Heap::digest`'s definition, computed over the model.
        fn digest(&self) -> u64 {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            let mut mix = |v: u64| {
                h ^= v;
                h = h.wrapping_mul(0x1000_0000_01b3);
            };
            for (&i, obj) in &self.objs {
                let (tag, words): (u64, Vec<u64>) = match obj {
                    ObjData::F64(v) => (1, v.iter().map(|x| x.to_bits()).collect()),
                    ObjData::I64(v) => (2, v.iter().map(|x| *x as u64).collect()),
                };
                mix(u64::from(i));
                mix(tag);
                words.into_iter().for_each(&mut mix);
            }
            h
        }
    }

    /// Random sequential allocs (one at a time and in runs of copies),
    /// frees and in-place writes and random commits (range writes,
    /// whole-object writes, allocs past the high water, frees) against a
    /// `BTreeMap` model, with snapshots held for random stretches, each
    /// with the model of its own version. The model issues the ids: an
    /// alloc must return the high water or an id freed by sequential code.
    /// After every step: each held snapshot reads exactly its version and
    /// counts its version's ids; the counters, the high water and the
    /// digest agree with the model; a page was copied exactly when a held
    /// view shared it and the step wrote to it, and each round snapshot
    /// reports those copies; no page's buffers hold more dead words than
    /// live ones. The model knows nothing of pages; only the last two checks
    /// look at them.
    #[test]
    fn heap_matches_a_btreemap_model_across_held_versions() {
        let mut rng = Rng(0x28_9a6e);
        let (mut compactions, mut page_copies) = (0, 0);
        for case in 0..200 {
            let mut h = Heap::new();
            let mut model = Model::default();
            // Ids freed by sequential code: the ones `alloc` may reuse.
            let mut reusable = BTreeSet::new();
            // (view, the model when it was taken, the step it is dropped at)
            let mut held: Vec<(Snapshot, Model, usize)> = Vec::new();
            // Pages copied since the last round snapshot.
            let mut copied = 0;
            for step in 0..1 + rng.below(80) {
                let ctx = format!("case {case} step {step}");
                held.retain(|(.., until)| *until > step);
                let live: Vec<u32> = model.objs.keys().copied().collect();
                let pick = |rng: &mut Rng| live[rng.below(live.len())];
                let words_before: usize = h.table.iter().map(|p| p.f64s.len() + p.i64s.len()).sum();
                // Each page before the step and whether a held view shares
                // it; the ids the step writes.
                let pages: Vec<*const Page> = h.table.iter().map(Arc::as_ptr).collect();
                let shared: Vec<bool> = (0..pages.len())
                    .map(|p| {
                        held.iter().any(|(s, ..)| {
                            s.table.get(p).is_some_and(|q| Arc::ptr_eq(q, &h.table[p]))
                        })
                    })
                    .collect();
                let mut touched: Vec<u32> = Vec::new();
                match rng.below(8) {
                    0 | 1 => {
                        let data = rng.fresh();
                        let i = h.alloc(data.clone()).index();
                        assert!(i == model.high || reusable.remove(&i), "{ctx}: id {i}");
                        model.insert(i, data);
                        touched.push(i);
                    }
                    2 if !live.is_empty() => {
                        let i = pick(&mut rng);
                        h.free(ObjId::from_index(i));
                        model.objs.remove(&i);
                        reusable.insert(i);
                        touched.push(i);
                    }
                    2 => {
                        let data = rng.fresh();
                        let n = rng.below(2 * SNAPSHOT_PAGE_SLOTS + 2) as u32;
                        let ids: Vec<u32> = h
                            .alloc_copies(data.view(), n as usize)
                            .map(ObjId::index)
                            .collect();
                        let want: Vec<u32> = (model.high..model.high + n).collect();
                        assert_eq!(ids, want, "{ctx}");
                        for i in want {
                            model.insert(i, data.clone());
                            touched.push(i);
                        }
                    }
                    3 if !live.is_empty() => {
                        let i = pick(&mut rng);
                        let obj = model.objs.get_mut(&i).unwrap();
                        if !obj.is_empty() {
                            let float = obj.kind() == ObjKind::F64;
                            let src = rng.payload(obj.len(), float);
                            let w = rng.below(src.len());
                            let mut dst = h.get_mut(ObjId::from_index(i));
                            dst.copy_range_from(src.view(), w, w + 1);
                            obj.copy_range_from(src.view(), w, w + 1);
                            touched.push(i);
                        }
                    }
                    4 | 5 => {
                        let mut ops = CommitOps::default();
                        let mut written = Vec::new();
                        for _ in 0..rng.below(4).min(live.len()) {
                            let i = pick(&mut rng);
                            let obj = model.objs.get_mut(&i).unwrap();
                            if written.contains(&i) || obj.is_empty() {
                                continue;
                            }
                            written.push(i);
                            let id = ObjId::from_index(i);
                            let len = obj.len();
                            let src = Arc::new(rng.payload(len, obj.kind() == ObjKind::F64));
                            if len == 1 || rng.below(3) == 0 {
                                ops.writes.push((id, 0, len as u32, Arc::clone(&src)));
                                *obj = (*src).clone();
                                continue;
                            }
                            for _ in 0..1 + rng.below(3) {
                                let lo = rng.below(len - 1);
                                let hi = lo + 1 + rng.below(len - 1 - lo);
                                ops.writes
                                    .push((id, lo as u32, hi as u32, Arc::clone(&src)));
                                obj.copy_range_from(src.view(), lo, hi);
                            }
                        }
                        touched.extend(&written);
                        for _ in 0..rng.below(3) {
                            let i = model.high + rng.below(SNAPSHOT_PAGE_SLOTS + 2) as u32;
                            let data = rng.fresh();
                            ops.allocs
                                .push((ObjId::from_index(i), Arc::new(data.clone())));
                            model.insert(i, data);
                            touched.push(i);
                        }
                        for &i in &live {
                            if !written.contains(&i) && rng.below(6) == 0 {
                                ops.frees.push(ObjId::from_index(i));
                                model.objs.remove(&i);
                                touched.push(i);
                            }
                        }
                        h.apply_commit(ops);
                    }
                    6 => {
                        let snap = if rng.below(2) == 0 {
                            h.snapshot()
                        } else {
                            let (snap, stats) = h.snapshot_incremental();
                            let want = std::mem::take(&mut copied) * SNAPSHOT_PAGE_SLOTS as u64;
                            assert_eq!(stats.slots_copied, want, "{ctx}");
                            snap
                        };
                        held.push((snap, model.clone(), step + 1 + rng.below(12)));
                    }
                    _ => {}
                }

                assert_eq!(h.high_water(), model.high, "{ctx}");
                assert_eq!(h.live_objects(), model.objs.len(), "{ctx}");
                let words = model.objs.values().map(|o| o.len() as u64).sum::<u64>();
                assert_eq!(h.live_words(), words, "{ctx}");
                assert_eq!(h.digest(), model.digest(), "{ctx}");
                for (snap, view, _) in &held {
                    assert_eq!(snap.slot_count(), view.high as usize, "{ctx}");
                    for i in 0..view.high + SNAPSHOT_PAGE_SLOTS as u32 {
                        let got = snap.get(ObjId::from_index(i)).map(ObjRef::to_owned);
                        assert_eq!(got.as_ref(), view.objs.get(&i), "{ctx} id {i}");
                    }
                }
                for (p, &before) in pages.iter().enumerate() {
                    let wrote = touched
                        .iter()
                        .any(|&i| i as usize / SNAPSHOT_PAGE_SLOTS == p);
                    let moved = Arc::as_ptr(&h.table[p]) != before;
                    assert_eq!(moved, shared[p] && wrote, "{ctx}: page {p} copied");
                    copied += u64::from(moved);
                    page_copies += usize::from(moved);
                }
                for (p, page) in h.table.iter().enumerate() {
                    let live: usize = page.slots.iter().flatten().map(|s| s.len as usize).sum();
                    let dead = page.f64s.len() + page.i64s.len() - live;
                    assert_eq!(page.dead, dead, "{ctx} page {p}");
                    assert!(
                        dead <= live,
                        "{ctx} page {p}: {dead} dead words, {live} live"
                    );
                }
                let words_after: usize = h.table.iter().map(|p| p.f64s.len() + p.i64s.len()).sum();
                compactions += usize::from(words_after < words_before);
            }
        }
        assert!(
            compactions > 100,
            "only {compactions} steps compacted a page"
        );
        assert!(page_copies > 100, "only {page_copies} pages copied");
    }
}
