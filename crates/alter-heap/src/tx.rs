//! Transactions: isolated, instrumented views of a snapshot.
//!
//! Each loop iteration (or chunk of iterations) executes against a [`Tx`]:
//! reads come from the round's shared [`Snapshot`] unless the transaction
//! already wrote the object, in which case they come from its private copy
//! in the overlay. Reads and writes are recorded in word-range
//! [`AccessSet`]s — the `InstrumentRead` / `InstrumentWrite` calls the ALTER
//! compiler inserts (§4.1).
//!
//! # Private copies are filled block by block
//!
//! The paper's transactions pay for the copy-on-write *pages* they dirty
//! (§4.1), not for the allocations those pages belong to. Here the first
//! write to an object longer than [`EAGER_MAX_WORDS`] gives it a private
//! copy of full length whose contents are *not* copied yet, and a validity
//! bit per [`BLOCK_WORDS`]-word block. Every access that goes through the
//! private copy first copies in, from the snapshot, the blocks its word
//! range intersects and that are not valid yet — so the accessors still hand
//! out contiguous slices, a read never sees a word that was not either
//! copied from the snapshot or written by this transaction, and a
//! transaction that changes 4 words of an 8 192-word array copies one block
//! of it, not 64 KiB. An object whose blocks are all valid drops out of the
//! bookkeeping, and shorter objects are cloned whole on first write as
//! before: the copy is cheaper than the mask. Conflict detection is
//! untouched by any of this — access sets stay word ranges keyed by
//! allocation.
//!
//! The unfilled copy is a recycled buffer of the same kind and length when
//! the transaction's [`TxBuffers`] carry one (a private copy whose
//! transaction has committed or been rejected), a zeroed allocation
//! otherwise; either way it is initialised memory, and which one it was
//! cannot be observed: blocks that were never made valid are never read, by
//! the transaction or — see [`TxEffects::commit_ops`] — by the commit.
//!
//! Read tracking is elided when the conflict policy does not need read sets
//! (`WAW`, `NONE`): this is precisely why the paper finds `StaleReads`
//! outperforming `OutOfOrder` — "enforcing StaleReads does not need read
//! instrumentation" (§7.2).

use crate::alloc::IdReservation;
use crate::fx::FxHashMap;
use crate::heap::{CommitOps, Snapshot};
use crate::object::{ObjData, ObjId, ObjKind};
use crate::pool::TxBuffers;
use crate::sets::AccessSet;
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// Words per block of a lazily filled private copy.
const BLOCK_WORDS: usize = 64;

/// Objects up to this many words are cloned whole on their first write.
const EAGER_MAX_WORDS: usize = 2 * BLOCK_WORDS;

/// Spent private copies one set of [`TxBuffers`] keeps for reuse.
const SPARE_MAX: usize = 8;

/// Where one partly filled private copy stands.
#[derive(Debug)]
struct LazyCopy {
    /// Index in [`CowScratch::bits`] of the first word of its validity mask.
    bits_at: usize,
    /// Blocks not yet valid.
    missing: u32,
}

impl LazyCopy {
    /// Makes every block of `obj` that intersects words `lo..hi` valid by
    /// copying it from the snapshot's version, which `src` looks up if a
    /// block needs it.
    fn fill<'a>(
        &mut self,
        bits: &mut [u64],
        obj: &mut ObjData,
        src: impl Fn() -> &'a ObjData,
        lo: usize,
        hi: usize,
    ) {
        for b in lo / BLOCK_WORDS..hi.div_ceil(BLOCK_WORDS) {
            let (word, bit) = (self.bits_at + b / 64, 1u64 << (b % 64));
            if bits[word] & bit == 0 {
                let src = src();
                obj.copy_range_from(src, b * BLOCK_WORDS, ((b + 1) * BLOCK_WORDS).min(src.len()));
                bits[word] |= bit;
                self.missing -= 1;
            }
        }
    }
}

/// What a transaction's private copies need beyond the overlay map: the
/// validity masks of the partly filled ones, and buffers to make the next
/// ones from. Travels with the [`TxBuffers`] it came from — into the
/// [`Tx`], out through [`TxEffects`], back into the pool — so that the
/// masks' storage and the spent copies are reused instead of reallocated.
#[derive(Debug, Default)]
pub struct CowScratch {
    /// Private copies that still have invalid blocks.
    lazy: FxHashMap<ObjId, LazyCopy>,
    /// Validity masks of this transaction's lazy copies, one bit per block,
    /// appended on first write and dropped together at the end.
    bits: Vec<u64>,
    /// Spent private copies: initialised buffers whose contents mean nothing.
    spare: Vec<ObjData>,
    /// Handles on the private copies a commit is merging from; once the heap
    /// has dropped its own, [`CowScratch::reset`] turns them into spares.
    sources: Vec<Arc<ObjData>>,
}

impl CowScratch {
    /// Keeps `data`'s buffer for a later private copy if it is one that
    /// would be made lazily and there is room.
    pub(crate) fn recycle(&mut self, data: ObjData) {
        if data.len() > EAGER_MAX_WORDS && self.spare.len() < SPARE_MAX {
            self.spare.push(data);
        }
    }

    /// An initialised buffer of `src`'s kind and length with arbitrary
    /// contents: a spare if one fits, zeroes otherwise.
    fn buffer_like(&mut self, src: &ObjData) -> ObjData {
        let (kind, len) = (src.kind(), src.len());
        match self
            .spare
            .iter()
            .position(|s| s.kind() == kind && s.len() == len)
        {
            Some(i) => self.spare.swap_remove(i),
            None => match kind {
                ObjKind::F64 => ObjData::zeros_f64(len),
                ObjKind::I64 => ObjData::zeros_i64(len),
            },
        }
    }

    /// Forgets the finished transaction and turns the commit sources nobody
    /// else holds any more into spares.
    pub(crate) fn reset(&mut self) {
        self.lazy.clear();
        self.bits.clear();
        while let Some(src) = self.sources.pop() {
            if let Ok(data) = Arc::try_unwrap(src) {
                self.recycle(data);
            }
        }
    }

    pub(crate) fn is_reset(&self) -> bool {
        self.lazy.is_empty() && self.bits.is_empty() && self.sources.is_empty()
    }

    /// If `id`'s private copy `obj` is partly filled, makes the blocks
    /// intersecting words `lo..hi` valid (see [`LazyCopy::fill`]).
    fn fill(&mut self, snap: &Snapshot, id: ObjId, obj: &mut ObjData, lo: usize, hi: usize) {
        if self.lazy.is_empty() {
            return;
        }
        let Some(lazy) = self.lazy.get_mut(&id) else {
            return;
        };
        let src = || snap.get(id).expect("a lazy copy has an original");
        lazy.fill(&mut self.bits, obj, src, lo, hi);
        if lazy.missing == 0 {
            self.lazy.remove(&id);
        }
    }
}

/// Which access sets a transaction maintains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrackMode {
    /// Track reads and writes (needed by `FULL` and `RAW` conflict policies).
    ReadsAndWrites,
    /// Track writes only (sufficient for `WAW` — the StaleReads fast path).
    WritesOnly,
    /// Track nothing (DOALL / sequential replay; stats still counted).
    None,
}

impl TrackMode {
    /// Whether read instrumentation is active.
    pub fn tracks_reads(self) -> bool {
        matches!(self, TrackMode::ReadsAndWrites)
    }

    /// Whether write instrumentation is active.
    pub fn tracks_writes(self) -> bool {
        !matches!(self, TrackMode::None)
    }
}

/// Panic payload raised when a transaction exceeds its tracked-memory
/// budget. The engine converts it into an out-of-memory abort — the
/// analogue of the paper's AggloClust runs where "the machine runs out of
/// memory (due to very large read sets)" under TLS and OutOfOrder (§7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryExceeded {
    /// Words tracked at the moment the budget was exceeded.
    pub words: u64,
    /// The configured budget.
    pub budget: u64,
}

/// Operation counters for one transaction, fed to the virtual-time cost
/// model and to the Table 4 statistics (RW set sizes, etc.).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TxStats {
    /// Instrumented read operations (one per `read_*`/`with_*` call).
    pub read_ops: u64,
    /// Words covered by read operations (a range read of n words counts n).
    pub read_words: u64,
    /// Instrumented write operations.
    pub write_ops: u64,
    /// Words covered by write operations.
    pub write_words: u64,
    /// Abstract compute work declared by the loop body via [`Tx::work`].
    pub work: u64,
    /// Memory traffic on loop-invariant data outside the heap (e.g. a
    /// read-only matrix streamed by every iteration), declared via
    /// [`Tx::traffic`]. Counts toward the bandwidth model but is never
    /// instrumented.
    pub traffic_words: u64,
    /// Objects allocated.
    pub allocs: u64,
    /// Objects freed.
    pub frees: u64,
}

impl TxStats {
    /// Accumulates `other` into `self`.
    pub fn add(&mut self, other: &TxStats) {
        self.read_ops += other.read_ops;
        self.read_words += other.read_words;
        self.write_ops += other.write_ops;
        self.write_words += other.write_words;
        self.work += other.work;
        self.traffic_words += other.traffic_words;
        self.allocs += other.allocs;
        self.frees += other.frees;
    }
}

/// An isolated, instrumented view of the heap for one transaction.
pub struct Tx<'s> {
    snap: &'s Snapshot,
    /// Private copies of the objects written so far, plus the fresh ones.
    overlay: FxHashMap<ObjId, ObjData>,
    /// Which of those copies are only partly filled (see the module docs).
    cow: CowScratch,
    reads: AccessSet,
    writes: AccessSet,
    mode: TrackMode,
    /// Ids allocated by this transaction; accesses to them are not
    /// instrumented (they cannot conflict — the paper elides instrumentation
    /// for variables "defined afresh in each iteration").
    fresh: Vec<ObjId>,
    freed: Vec<ObjId>,
    ids: IdReservation,
    stats: TxStats,
    /// Abort when tracked read+write words exceed this.
    budget_words: u64,
}

impl<'s> std::fmt::Debug for Tx<'s> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tx")
            .field("mode", &self.mode)
            .field("overlay_objects", &self.overlay.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<'s> Tx<'s> {
    /// Creates a transaction over `snap` with the given tracking mode, id
    /// reservation and tracked-memory budget (in words).
    pub fn new(snap: &'s Snapshot, mode: TrackMode, ids: IdReservation, budget_words: u64) -> Self {
        Self::with_buffers(snap, mode, ids, budget_words, TxBuffers::new())
    }

    /// Like [`Tx::new`], but starting from recycled buffers (overlay map
    /// and access sets with retained capacity) handed out by a
    /// [`crate::TxBufferPool`]. The buffers must be empty; only their
    /// capacity and spare private-copy buffers carry over, so pooled and
    /// fresh transactions behave identically.
    pub fn with_buffers(
        snap: &'s Snapshot,
        mode: TrackMode,
        ids: IdReservation,
        budget_words: u64,
        bufs: TxBuffers,
    ) -> Self {
        debug_assert!(
            bufs.overlay.is_empty()
                && bufs.cow.is_reset()
                && bufs.reads.is_empty()
                && bufs.writes.is_empty(),
            "pooled buffers must be released empty"
        );
        Tx {
            snap,
            overlay: bufs.overlay,
            cow: bufs.cow,
            reads: bufs.reads,
            writes: bufs.writes,
            mode,
            fresh: Vec::new(),
            freed: Vec::new(),
            ids,
            stats: TxStats::default(),
            budget_words,
        }
    }

    fn check_budget(&self) {
        let words = self.reads.words() + self.writes.words();
        if words > self.budget_words {
            std::panic::panic_any(MemoryExceeded {
                words,
                budget: self.budget_words,
            });
        }
    }

    #[inline]
    fn is_fresh(&self, id: ObjId) -> bool {
        self.fresh.contains(&id)
    }

    #[inline]
    fn track_read(&mut self, id: ObjId, lo: u32, hi: u32) {
        self.stats.read_ops += 1;
        self.stats.read_words += u64::from(hi - lo);
        if self.mode.tracks_reads() && !self.is_fresh(id) {
            self.reads.insert(id, lo, hi);
            self.check_budget();
        }
    }

    #[inline]
    fn track_write(&mut self, id: ObjId, lo: u32, hi: u32) {
        self.stats.write_ops += 1;
        self.stats.write_words += u64::from(hi - lo);
        if self.mode.tracks_writes() && !self.is_fresh(id) {
            self.writes.insert(id, lo, hi);
            self.check_budget();
        }
    }

    /// Borrows the payload to read words `lo..hi` of `id` from — the private
    /// copy if there is one, with the blocks of that range made valid first,
    /// the snapshot otherwise — **without** recording a read. Internal
    /// helper; public reads go through the typed accessors.
    fn view(&mut self, id: ObjId, lo: usize, hi: usize) -> &ObjData {
        let Some(obj) = self.overlay.get_mut(&id) else {
            return self
                .snap
                .get(id)
                .unwrap_or_else(|| panic!("transaction accessed dead or unknown {id}"));
        };
        self.cow.fill(self.snap, id, obj, lo, hi);
        obj
    }

    /// Mutably borrows the private copy of `id`, made on the first call,
    /// with the blocks intersecting words `lo..hi` valid.
    fn view_mut(&mut self, id: ObjId, lo: usize, hi: usize) -> &mut ObjData {
        match self.overlay.entry(id) {
            Entry::Occupied(slot) => {
                let obj = slot.into_mut();
                self.cow.fill(self.snap, id, obj, lo, hi);
                obj
            }
            Entry::Vacant(slot) => {
                let src = self
                    .snap
                    .get(id)
                    .unwrap_or_else(|| panic!("transaction wrote dead or unknown {id}"));
                if src.len() <= EAGER_MAX_WORDS {
                    return slot.insert(src.clone());
                }
                let obj = slot.insert(self.cow.buffer_like(src));
                let blocks = src.len().div_ceil(BLOCK_WORDS);
                let mut lazy = LazyCopy {
                    bits_at: self.cow.bits.len(),
                    missing: u32::try_from(blocks).expect("object length fits u32"),
                };
                self.cow.bits.resize(lazy.bits_at + blocks.div_ceil(64), 0);
                lazy.fill(&mut self.cow.bits, obj, || src, lo, hi);
                if lazy.missing > 0 {
                    self.cow.lazy.insert(id, lazy);
                }
                obj
            }
        }
    }

    // ----- typed scalar access -----

    /// Reads word `idx` of float object `id`.
    #[inline]
    pub fn read_f64(&mut self, id: ObjId, idx: usize) -> f64 {
        self.track_read(id, idx as u32, idx as u32 + 1);
        self.view(id, idx, idx + 1).f64s()[idx]
    }

    /// Reads word `idx` of integer object `id`.
    #[inline]
    pub fn read_i64(&mut self, id: ObjId, idx: usize) -> i64 {
        self.track_read(id, idx as u32, idx as u32 + 1);
        self.view(id, idx, idx + 1).i64s()[idx]
    }

    /// Writes word `idx` of float object `id`.
    #[inline]
    pub fn write_f64(&mut self, id: ObjId, idx: usize, v: f64) {
        self.track_write(id, idx as u32, idx as u32 + 1);
        self.view_mut(id, idx, idx + 1).f64s_mut()[idx] = v;
    }

    /// Writes word `idx` of integer object `id`.
    #[inline]
    pub fn write_i64(&mut self, id: ObjId, idx: usize, v: i64) {
        self.track_write(id, idx as u32, idx as u32 + 1);
        self.view_mut(id, idx, idx + 1).i64s_mut()[idx] = v;
    }

    // ----- range access (the paper's induction-variable-range optimization:
    // one instrumentation call covers the whole range) -----

    /// Calls `f` with words `lo..hi` of float object `id`, recording a
    /// single range read.
    pub fn with_f64s<R>(
        &mut self,
        id: ObjId,
        lo: usize,
        hi: usize,
        f: impl FnOnce(&[f64]) -> R,
    ) -> R {
        self.track_read(id, lo as u32, hi as u32);
        f(&self.view(id, lo, hi).f64s()[lo..hi])
    }

    /// Calls `f` with words `lo..hi` of integer object `id`, recording a
    /// single range read.
    pub fn with_i64s<R>(
        &mut self,
        id: ObjId,
        lo: usize,
        hi: usize,
        f: impl FnOnce(&[i64]) -> R,
    ) -> R {
        self.track_read(id, lo as u32, hi as u32);
        f(&self.view(id, lo, hi).i64s()[lo..hi])
    }

    /// Writes `src` into words `lo..` of float object `id` as one range write.
    pub fn write_f64s(&mut self, id: ObjId, lo: usize, src: &[f64]) {
        self.track_write(id, lo as u32, (lo + src.len()) as u32);
        let hi = lo + src.len();
        self.view_mut(id, lo, hi).f64s_mut()[lo..hi].copy_from_slice(src);
    }

    /// Writes `src` into words `lo..` of integer object `id` as one range write.
    pub fn write_i64s(&mut self, id: ObjId, lo: usize, src: &[i64]) {
        self.track_write(id, lo as u32, (lo + src.len()) as u32);
        let hi = lo + src.len();
        self.view_mut(id, lo, hi).i64s_mut()[lo..hi].copy_from_slice(src);
    }

    /// Calls `f` with mutable access to words `lo..hi` of float object `id`,
    /// recording one range read and one range write (read-modify-write).
    pub fn update_f64s<R>(
        &mut self,
        id: ObjId,
        lo: usize,
        hi: usize,
        f: impl FnOnce(&mut [f64]) -> R,
    ) -> R {
        self.track_read(id, lo as u32, hi as u32);
        self.track_write(id, lo as u32, hi as u32);
        f(&mut self.view_mut(id, lo, hi).f64s_mut()[lo..hi])
    }

    /// Like [`Tx::update_f64s`] for integer objects.
    pub fn update_i64s<R>(
        &mut self,
        id: ObjId,
        lo: usize,
        hi: usize,
        f: impl FnOnce(&mut [i64]) -> R,
    ) -> R {
        self.track_read(id, lo as u32, hi as u32);
        self.track_write(id, lo as u32, hi as u32);
        f(&mut self.view_mut(id, lo, hi).i64s_mut()[lo..hi])
    }

    // ----- object lifecycle -----

    /// Length in words of object `id` (not instrumented: object sizes are
    /// immutable, so reading one cannot race).
    pub fn len(&self, id: ObjId) -> usize {
        // Overlay first, like every access; a private copy has its
        // original's length however much of it is filled.
        self.overlay
            .get(&id)
            .or_else(|| self.snap.get(id))
            .unwrap_or_else(|| panic!("transaction accessed dead or unknown {id}"))
            .len()
    }

    /// Allocates a fresh object from this transaction's id reservation.
    ///
    /// The returned id is guaranteed distinct from every id any concurrent
    /// transaction can allocate (the ALTER-allocator guarantee). The object
    /// becomes visible to other transactions only if this one commits.
    pub fn alloc(&mut self, data: ObjData) -> ObjId {
        let id = self.ids.next_id();
        self.stats.allocs += 1;
        self.overlay.insert(id, data);
        self.fresh.push(id);
        id
    }

    /// Frees object `id`. The free takes effect at commit; concurrently it
    /// behaves as a whole-object write for conflict purposes.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not visible to this transaction.
    pub fn free(&mut self, id: ObjId) {
        if let Some(pos) = self.fresh.iter().position(|f| *f == id) {
            // Alloc+free within one transaction cancels out.
            self.fresh.swap_remove(pos);
            self.overlay.remove(&id);
            self.stats.frees += 1;
            return;
        }
        let len = self.len(id) as u32;
        self.track_write(id, 0, len.max(1));
        if let Some(copy) = self.overlay.remove(&id) {
            self.cow.lazy.remove(&id);
            self.cow.recycle(copy);
        }
        self.freed.push(id);
        self.stats.frees += 1;
    }

    /// Whether `id` is visible (live in the snapshot or created here) and
    /// not freed by this transaction.
    pub fn is_live(&self, id: ObjId) -> bool {
        if self.freed.contains(&id) {
            return false;
        }
        self.overlay.contains_key(&id) || self.snap.get(id).is_some()
    }

    /// Declares `n` abstract units of compute work, consumed by the
    /// virtual-time cost model.
    #[inline]
    pub fn work(&mut self, n: u64) {
        self.stats.work += n;
    }

    /// Declares `n` words of memory traffic on loop-invariant inputs that
    /// live outside the transactional heap (read-only matrices, feature
    /// tables, …). The bandwidth model charges them like heap touches; no
    /// instrumentation or tracking happens.
    #[inline]
    pub fn traffic(&mut self, n: u64) {
        self.stats.traffic_words += n;
    }

    /// The tracking mode this transaction runs under.
    pub fn mode(&self) -> TrackMode {
        self.mode
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &TxStats {
        &self.stats
    }

    /// The snapshot this transaction reads through.
    pub fn snapshot(&self) -> &Snapshot {
        self.snap
    }

    /// Finishes the transaction, yielding everything the commit engine
    /// needs: private writes, access sets, allocation log and counters.
    pub fn finish(mut self) -> TxEffects {
        if self.mode == TrackMode::None {
            // Nothing recorded which words were written, so the commit takes
            // whole objects: complete the partly filled ones.
            for (id, lazy) in &mut self.cow.lazy {
                let src = self.snap.get(*id).expect("a lazy copy has an original");
                let obj = self.overlay.get_mut(id).expect("a lazy copy is private");
                lazy.fill(&mut self.cow.bits, obj, || src, 0, src.len());
            }
        }
        let mut overlay = self.overlay;
        let allocs: Vec<(ObjId, ObjData)> = {
            let mut fresh = self.fresh;
            fresh.sort_unstable();
            fresh
                .into_iter()
                .map(|id| {
                    let data = overlay.remove(&id).expect("fresh object lost");
                    (id, data)
                })
                .collect()
        };
        TxEffects {
            overlay,
            reads: self.reads,
            writes: self.writes,
            allocs,
            frees: self.freed,
            stats: self.stats,
            alloc_high_water: self.ids.high_water(),
            cow: self.cow,
        }
    }

    /// Valid blocks of `id`'s private copy (all of them once it is complete
    /// or was cloned whole).
    #[cfg(test)]
    fn valid_blocks(&self, id: ObjId) -> usize {
        let blocks = self.overlay[&id].len().div_ceil(BLOCK_WORDS);
        blocks - self.cow.lazy.get(&id).map_or(0, |l| l.missing as usize)
    }
}

/// Everything a finished transaction hands to the validation/commit engine.
#[derive(Debug)]
pub struct TxEffects {
    /// Private copies of the pre-existing objects the transaction wrote.
    /// Under a tracking mode only the words of [`TxEffects::writes`] (and
    /// the rest of their 64-word blocks) are meaningful in a copy longer
    /// than two blocks; under [`TrackMode::None`] every copy is whole.
    pub overlay: FxHashMap<ObjId, ObjData>,
    /// Read set (empty unless the mode tracked reads).
    pub reads: AccessSet,
    /// Write set (empty under [`TrackMode::None`]).
    pub writes: AccessSet,
    /// Freshly allocated objects, in ascending id order.
    pub allocs: Vec<(ObjId, ObjData)>,
    /// Objects freed.
    pub frees: Vec<ObjId>,
    /// Operation counters.
    pub stats: TxStats,
    /// High-water mark of the id reservation (for advancing the heap).
    pub alloc_high_water: u32,
    /// Recyclable private-copy storage, on its way back to the pool.
    cow: CowScratch,
}

impl TxEffects {
    /// Drains the effects into commit operations for a transaction that ran
    /// under `mode`, leaving the containers empty but with their capacity,
    /// for [`TxEffects::take_buffers`].
    pub fn commit_ops(&mut self, mode: TrackMode) -> CommitOps {
        let mut ops = CommitOps::default();
        if mode == TrackMode::None {
            // No per-range tracking: commit whole private objects, in id order.
            let mut ids: Vec<_> = self.overlay.keys().copied().collect();
            ids.sort_unstable();
            for id in ids {
                let data = self.overlay.remove(&id).expect("key just listed");
                let hi = data.len() as u32;
                ops.writes.push((id, 0, hi, Arc::new(data)));
            }
        } else {
            for (id, ranges) in self.writes.iter_sorted() {
                // Freed objects appear in the write set (a free conflicts like a
                // whole-object write) but have no overlay payload to merge.
                let Some(data) = self.overlay.remove(&id) else {
                    continue;
                };
                let arc = Arc::new(data);
                for (lo, hi) in ranges.iter() {
                    ops.writes.push((id, lo, hi, Arc::clone(&arc)));
                }
                // The heap copies the ranges out and drops its handles; this
                // one lets the buffer serve the next lazy private copy.
                if arc.len() > EAGER_MAX_WORDS {
                    self.cow.sources.push(arc);
                }
            }
        }
        ops.allocs = self
            .allocs
            .drain(..)
            .map(|(id, data)| (id, Arc::new(data)))
            .collect();
        ops.frees = std::mem::take(&mut self.frees);
        ops.frees.sort_unstable();
        ops
    }

    /// Takes the recyclable containers out, contents and all, for
    /// [`crate::TxBufferPool::release`] — which empties them, so call this
    /// once the verdict is in and any commit has been applied.
    pub fn take_buffers(&mut self) -> TxBuffers {
        TxBuffers {
            overlay: std::mem::take(&mut self.overlay),
            reads: std::mem::take(&mut self.reads),
            writes: std::mem::take(&mut self.writes),
            cow: std::mem::take(&mut self.cow),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::Heap;

    fn ids() -> IdReservation {
        IdReservation::new(1000, 0, 1, 16)
    }

    fn setup() -> (Heap, ObjId, ObjId) {
        let mut h = Heap::new();
        let a = h.alloc(ObjData::F64(vec![1.0, 2.0, 3.0]));
        let b = h.alloc(ObjData::I64(vec![10, 20]));
        (h, a, b)
    }

    #[test]
    fn reads_come_from_snapshot_until_written() {
        let (h, a, _) = setup();
        let snap = h.snapshot();
        let mut tx = Tx::new(&snap, TrackMode::ReadsAndWrites, ids(), u64::MAX);
        assert_eq!(tx.read_f64(a, 1), 2.0);
        tx.write_f64(a, 1, 9.0);
        assert_eq!(tx.read_f64(a, 1), 9.0, "read-your-writes");
        // Committed state untouched.
        assert_eq!(h.get(a).f64s()[1], 2.0);
    }

    #[test]
    fn access_sets_record_ranges() {
        let (h, a, b) = setup();
        let snap = h.snapshot();
        let mut tx = Tx::new(&snap, TrackMode::ReadsAndWrites, ids(), u64::MAX);
        tx.with_f64s(a, 0, 3, |s| assert_eq!(s.len(), 3));
        tx.write_i64(b, 0, 5);
        let fx = tx.finish();
        assert!(fx.reads.contains_range(a, 0, 3));
        assert!(!fx.reads.contains_range(b, 0, 1));
        assert!(fx.writes.contains_range(b, 0, 1));
        assert_eq!(fx.stats.read_words, 3);
        assert_eq!(fx.stats.write_words, 1);
    }

    #[test]
    fn writes_only_mode_elides_read_set_but_counts_stats() {
        let (h, a, _) = setup();
        let snap = h.snapshot();
        let mut tx = Tx::new(&snap, TrackMode::WritesOnly, ids(), u64::MAX);
        tx.read_f64(a, 0);
        tx.write_f64(a, 0, 0.0);
        let fx = tx.finish();
        assert!(fx.reads.is_empty());
        assert!(!fx.writes.is_empty());
        assert_eq!(fx.stats.read_ops, 1);
    }

    #[test]
    fn none_mode_tracks_nothing() {
        let (h, a, _) = setup();
        let snap = h.snapshot();
        let mut tx = Tx::new(&snap, TrackMode::None, ids(), u64::MAX);
        tx.read_f64(a, 0);
        tx.write_f64(a, 0, 7.0);
        let fx = tx.finish();
        assert!(fx.reads.is_empty());
        assert!(fx.writes.is_empty());
        assert_eq!(fx.overlay.len(), 1, "overlay still captures the write");
    }

    #[test]
    fn fresh_objects_are_untracked_and_sorted_in_effects() {
        let (h, _, _) = setup();
        let snap = h.snapshot();
        let mut tx = Tx::new(&snap, TrackMode::ReadsAndWrites, ids(), u64::MAX);
        let x = tx.alloc(ObjData::scalar_i64(1));
        let y = tx.alloc(ObjData::scalar_i64(2));
        tx.write_i64(x, 0, 11);
        assert_eq!(tx.read_i64(x, 0), 11);
        let fx = tx.finish();
        assert!(fx.reads.is_empty());
        assert!(fx.writes.is_empty());
        let alloc_ids: Vec<ObjId> = fx.allocs.iter().map(|(i, _)| *i).collect();
        assert_eq!(alloc_ids, vec![x, y]);
        assert_eq!(fx.allocs[0].1.i64s(), &[11]);
    }

    #[test]
    fn alloc_then_free_cancels() {
        let (h, _, _) = setup();
        let snap = h.snapshot();
        let mut tx = Tx::new(&snap, TrackMode::ReadsAndWrites, ids(), u64::MAX);
        let x = tx.alloc(ObjData::scalar_i64(1));
        tx.free(x);
        assert!(!tx.is_live(x));
        let fx = tx.finish();
        assert!(fx.allocs.is_empty());
        assert!(fx.frees.is_empty());
        assert_eq!(fx.stats.allocs, 1);
        assert_eq!(fx.stats.frees, 1);
    }

    #[test]
    fn free_of_snapshot_object_is_whole_object_write() {
        let (h, a, _) = setup();
        let snap = h.snapshot();
        let mut tx = Tx::new(&snap, TrackMode::ReadsAndWrites, ids(), u64::MAX);
        tx.free(a);
        assert!(!tx.is_live(a));
        let fx = tx.finish();
        assert_eq!(fx.frees, vec![a]);
        assert!(fx.writes.contains_range(a, 0, 3));
    }

    #[test]
    fn budget_exceeded_panics_with_typed_payload() {
        let (h, a, _) = setup();
        let snap = h.snapshot();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut tx = Tx::new(&snap, TrackMode::ReadsAndWrites, ids(), 2);
            tx.with_f64s(a, 0, 3, |_| {});
        }));
        let payload = result.unwrap_err();
        let me = payload
            .downcast_ref::<MemoryExceeded>()
            .expect("typed payload");
        assert_eq!(me.budget, 2);
        assert_eq!(me.words, 3);
    }

    #[test]
    fn update_records_read_and_write() {
        let (h, a, _) = setup();
        let snap = h.snapshot();
        let mut tx = Tx::new(&snap, TrackMode::ReadsAndWrites, ids(), u64::MAX);
        tx.update_f64s(a, 0, 2, |s| {
            s[0] += 1.0;
            s[1] += 1.0;
        });
        let fx = tx.finish();
        assert!(fx.reads.contains_range(a, 0, 2));
        assert!(fx.writes.contains_range(a, 0, 2));
    }

    #[test]
    fn work_and_len_helpers() {
        let (h, a, _) = setup();
        let snap = h.snapshot();
        let mut tx = Tx::new(&snap, TrackMode::None, ids(), u64::MAX);
        assert_eq!(tx.len(a), 3);
        tx.work(42);
        assert_eq!(tx.stats().work, 42);
        assert_eq!(tx.mode(), TrackMode::None);
    }

    #[test]
    #[should_panic(expected = "dead or unknown")]
    fn reading_unknown_object_panics() {
        let h = Heap::new();
        let snap = h.snapshot();
        let mut tx = Tx::new(&snap, TrackMode::None, ids(), u64::MAX);
        tx.read_f64(ObjId::from_index(5), 0);
    }

    /// The transaction this module had before private copies were filled
    /// lazily: the whole object is cloned on first write. Kept as the
    /// reference the block bookkeeping is checked against; values are `i64`
    /// whatever the object's kind.
    struct EagerTx<'s> {
        snap: &'s Snapshot,
        overlay: FxHashMap<ObjId, ObjData>,
        reads: AccessSet,
        writes: AccessSet,
        mode: TrackMode,
        freed: Vec<ObjId>,
        stats: TxStats,
    }

    fn word(obj: &ObjData, idx: usize) -> i64 {
        match obj {
            ObjData::F64(v) => v[idx] as i64,
            ObjData::I64(v) => v[idx],
        }
    }

    fn set_word(obj: &mut ObjData, idx: usize, v: i64) {
        match obj {
            ObjData::F64(w) => w[idx] = v as f64,
            ObjData::I64(w) => w[idx] = v,
        }
    }

    impl<'s> EagerTx<'s> {
        fn new(snap: &'s Snapshot, mode: TrackMode) -> Self {
            EagerTx {
                snap,
                overlay: FxHashMap::default(),
                reads: AccessSet::new(),
                writes: AccessSet::new(),
                mode,
                freed: Vec::new(),
                stats: TxStats::default(),
            }
        }

        fn read(&mut self, id: ObjId, lo: usize, hi: usize) -> Vec<i64> {
            self.stats.read_ops += 1;
            self.stats.read_words += (hi - lo) as u64;
            if self.mode.tracks_reads() {
                self.reads.insert(id, lo as u32, hi as u32);
            }
            let obj = self.overlay.get(&id).or_else(|| self.snap.get(id)).unwrap();
            (lo..hi).map(|i| word(obj, i)).collect()
        }

        fn write(&mut self, id: ObjId, lo: usize, vals: &[i64]) {
            self.stats.write_ops += 1;
            self.stats.write_words += vals.len() as u64;
            if self.mode.tracks_writes() {
                self.writes.insert(id, lo as u32, (lo + vals.len()) as u32);
            }
            let snap = self.snap;
            let obj = self
                .overlay
                .entry(id)
                .or_insert_with(|| snap.get(id).unwrap().clone());
            for (i, v) in vals.iter().enumerate() {
                set_word(obj, lo + i, *v);
            }
        }

        fn free(&mut self, id: ObjId) {
            let len = self.snap.get(id).unwrap().len() as u32;
            if self.mode.tracks_writes() {
                self.writes.insert(id, 0, len);
            }
            self.stats.write_ops += 1;
            self.stats.write_words += u64::from(len);
            self.stats.frees += 1;
            self.overlay.remove(&id);
            self.freed.push(id);
        }

        fn finish(self) -> TxEffects {
            TxEffects {
                overlay: self.overlay,
                reads: self.reads,
                writes: self.writes,
                allocs: Vec::new(),
                frees: self.freed,
                stats: self.stats,
                alloc_high_water: ids().high_water(),
                cow: CowScratch::default(),
            }
        }
    }

    // The same five accesses through the real transaction's typed accessors.
    fn tx_read(tx: &mut Tx<'_>, float: bool, id: ObjId, idx: usize) -> i64 {
        if float {
            tx.read_f64(id, idx) as i64
        } else {
            tx.read_i64(id, idx)
        }
    }

    fn tx_write(tx: &mut Tx<'_>, float: bool, id: ObjId, idx: usize, v: i64) {
        if float {
            tx.write_f64(id, idx, v as f64)
        } else {
            tx.write_i64(id, idx, v)
        }
    }

    fn tx_range(tx: &mut Tx<'_>, float: bool, id: ObjId, lo: usize, hi: usize) -> Vec<i64> {
        if float {
            tx.with_f64s(id, lo, hi, |s| s.iter().map(|x| *x as i64).collect())
        } else {
            tx.with_i64s(id, lo, hi, |s| s.to_vec())
        }
    }

    /// `words[lo..hi] += k`, returning the words as they were.
    fn tx_update(
        tx: &mut Tx<'_>,
        float: bool,
        id: ObjId,
        lo: usize,
        hi: usize,
        k: i64,
    ) -> Vec<i64> {
        if float {
            tx.update_f64s(id, lo, hi, |s| {
                let old = s.iter().map(|x| *x as i64).collect();
                s.iter_mut().for_each(|x| *x += k as f64);
                old
            })
        } else {
            tx.update_i64s(id, lo, hi, |s| {
                let old = s.to_vec();
                s.iter_mut().for_each(|x| *x += k);
                old
            })
        }
    }

    fn tx_write_range(tx: &mut Tx<'_>, float: bool, id: ObjId, lo: usize, vals: &[i64]) {
        if float {
            let vals: Vec<f64> = vals.iter().map(|v| *v as f64).collect();
            tx.write_f64s(id, lo, &vals)
        } else {
            tx.write_i64s(id, lo, vals)
        }
    }

    /// Minimal SplitMix64 for deterministic case generation.
    struct Rng(u64);

    impl Rng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, bound: usize) -> usize {
            (self.next_u64() % bound as u64) as usize
        }

        fn small(&mut self) -> i64 {
            self.below(2001) as i64 - 1000
        }

        /// A non-empty sub-range of `0..len`, short more often than not.
        fn range(&mut self, len: usize) -> (usize, usize) {
            let lo = self.below(len);
            let max = if self.below(4) == 0 {
                len - lo
            } else {
                (len - lo).min(5)
            };
            (lo, lo + 1 + self.below(max))
        }
    }

    const SIZES: [usize; 7] = [1, 63, 64, 65, 128, 129, 8192];

    /// One heap of the seven sizes (odd positions hold floats) with seeded
    /// contents.
    fn sized_heap(rng: &mut Rng) -> (Heap, Vec<ObjId>) {
        let mut h = Heap::new();
        let ids = SIZES
            .iter()
            .enumerate()
            .map(|(i, n)| {
                if i % 2 == 1 {
                    h.alloc(ObjData::F64((0..*n).map(|_| rng.small() as f64).collect()))
                } else {
                    h.alloc(ObjData::I64((0..*n).map(|_| rng.small()).collect()))
                }
            })
            .collect();
        (h, ids)
    }

    fn sorted_sets(set: &AccessSet) -> Vec<(ObjId, Vec<(u32, u32)>)> {
        set.iter_sorted()
            .into_iter()
            .map(|(id, r)| (id, r.iter().collect()))
            .collect()
    }

    #[test]
    fn lazy_private_copies_match_the_eager_reference() {
        let mut rng = Rng(0x13_c0de);
        // One pool across all cases, so that later transactions build their
        // private copies in spent buffers full of earlier cases' words.
        let mut pool = crate::TxBufferPool::new();
        for case in 0..120 {
            let mode = [
                TrackMode::ReadsAndWrites,
                TrackMode::WritesOnly,
                TrackMode::None,
            ][case % 3];
            let (mut heap, objs) = sized_heap(&mut rng);
            let mut ref_heap = Heap::new();
            for id in &objs {
                ref_heap.alloc(heap.get(*id).clone());
            }
            let snap = heap.snapshot();
            let mut tx = Tx::with_buffers(&snap, mode, ids(), u64::MAX, pool.acquire());
            let mut eager = EagerTx::new(&snap, mode);
            let mut live: Vec<usize> = (0..objs.len()).collect();
            for step in 0..8 + rng.below(40) {
                let at = rng.below(live.len());
                let o = live[at];
                let (id, float, len) = (objs[o], o % 2 == 1, SIZES[o]);
                let ctx = format!("case {case} step {step} {mode:?} obj {o}");
                match rng.below(16) {
                    0..=3 => {
                        let i = rng.below(len);
                        assert_eq!(
                            tx_read(&mut tx, float, id, i),
                            eager.read(id, i, i + 1)[0],
                            "{ctx}"
                        );
                    }
                    4..=7 => {
                        let (i, v) = (rng.below(len), rng.small());
                        tx_write(&mut tx, float, id, i, v);
                        eager.write(id, i, &[v]);
                    }
                    8..=9 => {
                        let (lo, hi) = rng.range(len);
                        assert_eq!(
                            tx_range(&mut tx, float, id, lo, hi),
                            eager.read(id, lo, hi),
                            "{ctx}"
                        );
                    }
                    10..=11 => {
                        let ((lo, hi), k) = (rng.range(len), rng.small());
                        let old = eager.read(id, lo, hi);
                        assert_eq!(tx_update(&mut tx, float, id, lo, hi, k), old, "{ctx}");
                        let new: Vec<i64> = old.iter().map(|v| v + k).collect();
                        eager.write(id, lo, &new);
                    }
                    12..=14 => {
                        let (lo, hi) = rng.range(len);
                        let vals: Vec<i64> = (lo..hi).map(|_| rng.small()).collect();
                        tx_write_range(&mut tx, float, id, lo, &vals);
                        eager.write(id, lo, &vals);
                    }
                    _ if live.len() > 1 && rng.below(3) == 0 => {
                        tx.free(id);
                        eager.free(id);
                        live.swap_remove(at);
                    }
                    _ => assert_eq!(tx.len(id), len, "{ctx}"),
                }
            }
            let (mut fx, mut want) = (tx.finish(), eager.finish());
            let ctx = format!("case {case} {mode:?}");
            assert_eq!(sorted_sets(&fx.reads), sorted_sets(&want.reads), "{ctx}");
            assert_eq!(sorted_sets(&fx.writes), sorted_sets(&want.writes), "{ctx}");
            assert_eq!(fx.stats, want.stats, "{ctx}");
            assert_eq!(fx.frees, want.frees, "{ctx}");
            assert_eq!(
                fx.overlay.values().map(ObjData::len).sum::<usize>(),
                want.overlay.values().map(ObjData::len).sum::<usize>(),
                "{ctx}: overlay words"
            );
            drop(snap);
            heap.apply_commit(fx.commit_ops(mode));
            ref_heap.apply_commit(want.commit_ops(mode));
            assert_eq!(heap.digest(), ref_heap.digest(), "{ctx}");
            pool.release(fx.take_buffers());
        }
        assert!(pool.reuses() > 0);
    }

    #[test]
    fn adjacent_words_copy_the_blocks_they_touch() {
        let mut h = Heap::new();
        let big = h.alloc(ObjData::I64((0..8192).collect()));
        let small = h.alloc(ObjData::I64((0..128).collect()));
        let snap = h.snapshot();
        let mut tx = Tx::new(&snap, TrackMode::WritesOnly, ids(), u64::MAX);
        // Words 62..66 straddle the boundary between blocks 0 and 1.
        for i in 62..66 {
            tx.write_i64(big, i, -1);
        }
        assert_eq!(tx.valid_blocks(big), 2, "of {}", 8192 / BLOCK_WORDS);
        assert_eq!(tx.read_i64(big, 8191), 8191, "a read fills its own block");
        assert_eq!(tx.valid_blocks(big), 3);
        // Two blocks or fewer: cloned whole, as before.
        tx.write_i64(small, 0, -1);
        assert_eq!(tx.valid_blocks(small), 2);
        // An object with no invalid block left drops out of the bookkeeping.
        tx.write_i64s(big, 0, &vec![7; 8192]);
        assert_eq!(tx.valid_blocks(big), 8192 / BLOCK_WORDS);
        assert!(tx.cow.lazy.is_empty());
        let fx = tx.finish();
        assert_eq!(fx.overlay[&big].i64s()[8191], 7);
    }
}
