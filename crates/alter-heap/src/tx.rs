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
//! # Access sets are built from a log
//!
//! The paper's instrumentation call appends the address to an array and
//! drops duplicates through a hash set (§4.1), and its compiler instruments
//! an induction-variable range once (§4.4): what an instrumented access
//! costs there does not grow with what the transaction has touched. Here a
//! tracked access appends `(allocation, lo, hi)` to the read or the write
//! log — or widens the last entry, when it starts inside or right after
//! it — and [`Tx::finish`] sorts each log once and coalesces it into the
//! [`AccessSet`]. The sets that come out are the ones an
//! ordered insert per access would have built; a write between two ranges
//! already held no longer moves the ranges behind it. The log grows with the
//! accesses that did not continue their predecessor, not with the distinct
//! words, until it is folded; the largest any of the twelve workloads builds
//! under any model is Floyd's 5 748 write entries (67 KiB), and the logs'
//! storage travels with the [`TxBuffers`] like the sets'.
//!
//! The tracked-memory budget stays exact. Each logged access adds an upper
//! bound on the words it newly covers to a running bound that starts from
//! the sets' own count; while the bound is inside the budget, so is the
//! truth. When it is not, the logs are folded into the sets and the exact
//! count decides, so [`MemoryExceeded`] is raised by the access, and with
//! the `words`, it always was.
//!
//! # Guarded rows
//!
//! A body that scans a row and writes the few words it improves — Floyd's
//! relaxation — used to copy the row out (`with_f64s(.., |r| r.to_vec())`),
//! because the slice could not outlive the next `write_f64`, and to pay an
//! overlay lookup and a block-mask check per written word.
//! [`Tx::row_f64s`] hands the body a [`RowF64s`] instead: one range read is
//! recorded, the overlay entry is resolved and the row's blocks are filled
//! once, `get(j)` reads one word, and `set(j, v)` logs exactly word
//! `lo + j`. Write *sets* are what one `write_f64` per `set` would have
//! produced — a conservative whole-row write would be a different program,
//! with different conflicts — and no private copy exists before the first
//! `set`.
//!
//! Each `get` matches on whether the row has a private copy yet, and the
//! compiler cannot hoist that match out of a loop that may `set`. A body
//! that writes rarely therefore scans first and writes second: it reads the
//! row through [`RowF64s::words`], one slice it can compare at plain-loop
//! speed, and enters its `get`/`set` loop only for a row the scan found
//! something to write in. Floyd's relaxation does this: at one worker its
//! passes after the first write under 2 000 of 16 384 cells each, so most
//! rows never reach the write path.
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
use crate::sets::{AccessLog, AccessSet};
use std::collections::hash_map::{Entry, VacantEntry};
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

    /// A private copy of `src`, the snapshot's version of `id`, with the
    /// blocks intersecting words `lo..hi` valid: a whole clone if `src` is
    /// short, a partly filled buffer otherwise.
    fn private_copy(&mut self, id: ObjId, src: &ObjData, lo: usize, hi: usize) -> ObjData {
        if src.len() <= EAGER_MAX_WORDS {
            return src.clone();
        }
        let mut obj = self.buffer_like(src);
        let blocks = src.len().div_ceil(BLOCK_WORDS);
        let mut lazy = LazyCopy {
            bits_at: self.bits.len(),
            missing: u32::try_from(blocks).expect("object length fits u32"),
        };
        self.bits.resize(lazy.bits_at + blocks.div_ceil(64), 0);
        lazy.fill(&mut self.bits, &mut obj, || src, lo, hi);
        if lazy.missing > 0 {
            self.lazy.insert(id, lazy);
        }
        obj
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

/// The instrumentation half of a transaction: counters, access logs, the
/// sets they fold into, and the budget. Apart from the [`Tx`]'s storage so
/// that a [`RowF64s`] can borrow the two separately.
struct Tracker {
    mode: TrackMode,
    stats: TxStats,
    reads: AccessSet,
    writes: AccessSet,
    /// Tracked accesses not yet folded into `reads` / `writes` (see the
    /// module docs).
    read_log: AccessLog,
    write_log: AccessLog,
    /// Upper bound on the tracked words: those of `reads` and `writes` plus
    /// what [`AccessLog::push`] returned for every access logged since.
    tracked_bound: u64,
    /// Abort when tracked read+write words exceed this.
    budget_words: u64,
}

impl Tracker {
    /// Folds the logs into the access sets.
    fn fold_logs(&mut self) {
        self.reads.absorb(&mut self.read_log);
        self.writes.absorb(&mut self.write_log);
        self.tracked_bound = self.reads.words() + self.writes.words();
    }

    /// Accounts for `logged` more words of upper bound (see the module docs
    /// for why this trips where a check of the sets after every insert
    /// would).
    #[inline]
    fn charge_budget(&mut self, logged: u64) {
        self.tracked_bound += logged;
        if self.tracked_bound > self.budget_words {
            self.settle_budget();
        }
    }

    /// The bound has left the budget: folds the logs, which makes it exact,
    /// and raises [`MemoryExceeded`] if it is still outside.
    #[cold]
    fn settle_budget(&mut self) {
        self.fold_logs();
        if self.tracked_bound > self.budget_words {
            std::panic::panic_any(MemoryExceeded {
                words: self.tracked_bound,
                budget: self.budget_words,
            });
        }
    }

    /// Counts a read of words `lo..hi` of `id` and, if it is `instrumented`
    /// (the mode tracks reads and `id` is not fresh), logs it.
    #[inline]
    fn read(&mut self, instrumented: bool, id: ObjId, lo: u32, hi: u32) {
        self.stats.read_ops += 1;
        self.stats.read_words += u64::from(hi - lo);
        if instrumented {
            let logged = self.read_log.push(id, lo, hi);
            self.charge_budget(logged);
        }
    }

    /// Like [`Tracker::read`], for a write.
    #[inline]
    fn write(&mut self, instrumented: bool, id: ObjId, lo: u32, hi: u32) {
        self.stats.write_ops += 1;
        self.stats.write_words += u64::from(hi - lo);
        if instrumented {
            let logged = self.write_log.push(id, lo, hi);
            self.charge_budget(logged);
        }
    }
}

/// An isolated, instrumented view of the heap for one transaction.
pub struct Tx<'s> {
    snap: &'s Snapshot,
    /// Private copies of the objects written so far, plus the fresh ones.
    overlay: FxHashMap<ObjId, ObjData>,
    /// Which of those copies are only partly filled (see the module docs).
    cow: CowScratch,
    track: Tracker,
    /// Ids allocated by this transaction; accesses to them are not
    /// instrumented (they cannot conflict — the paper elides instrumentation
    /// for variables "defined afresh in each iteration").
    fresh: Vec<ObjId>,
    freed: Vec<ObjId>,
    ids: IdReservation,
}

impl<'s> std::fmt::Debug for Tx<'s> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tx")
            .field("mode", &self.track.mode)
            .field("overlay_objects", &self.overlay.len())
            .field("stats", &self.track.stats)
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
                && bufs.writes.is_empty()
                && bufs.read_log.is_empty()
                && bufs.write_log.is_empty(),
            "pooled buffers must be released empty"
        );
        Tx {
            snap,
            overlay: bufs.overlay,
            cow: bufs.cow,
            track: Tracker {
                mode,
                stats: TxStats::default(),
                reads: bufs.reads,
                writes: bufs.writes,
                read_log: bufs.read_log,
                write_log: bufs.write_log,
                tracked_bound: 0,
                budget_words,
            },
            fresh: Vec::new(),
            freed: Vec::new(),
            ids,
        }
    }

    #[inline]
    fn is_fresh(&self, id: ObjId) -> bool {
        self.fresh.contains(&id)
    }

    #[inline]
    fn track_read(&mut self, id: ObjId, lo: u32, hi: u32) {
        let instrumented = self.track.mode.tracks_reads() && !self.is_fresh(id);
        self.track.read(instrumented, id, lo, hi);
    }

    /// Whether writes to `id` are instrumented.
    #[inline]
    fn tracks_writes_to(&self, id: ObjId) -> bool {
        self.track.mode.tracks_writes() && !self.is_fresh(id)
    }

    #[inline]
    fn track_write(&mut self, id: ObjId, lo: u32, hi: u32) {
        let instrumented = self.tracks_writes_to(id);
        self.track.write(instrumented, id, lo, hi);
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
                slot.insert(self.cow.private_copy(id, src, lo, hi))
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

    // ----- guarded rows (one instrumentation call for the reads, one overlay
    // lookup for the row, exact single-word write records) -----

    /// Calls `f` with a guarded view of words `lo..hi` of float object `id`,
    /// recording a single range read. The view reads words with
    /// [`RowF64s::get`], or the whole row with [`RowF64s::words`], and
    /// writes them with [`RowF64s::set`], each `set`
    /// recording exactly the word it writes — the sets and counters are
    /// those of one [`Tx::with_f64s`] followed by one [`Tx::write_f64`] per
    /// `set`, without the copy of the row the first would need to outlive
    /// the second, and without an overlay lookup per write.
    pub fn row_f64s<R>(
        &mut self,
        id: ObjId,
        lo: usize,
        hi: usize,
        f: impl FnOnce(&mut RowF64s<'_>) -> R,
    ) -> R {
        self.track_read(id, lo as u32, hi as u32);
        let tracked = self.tracks_writes_to(id);
        let words = match self.overlay.entry(id) {
            Entry::Occupied(slot) => {
                let obj = slot.into_mut();
                self.cow.fill(self.snap, id, obj, lo, hi);
                RowWords::Private(&mut obj.f64s_mut()[lo..hi])
            }
            Entry::Vacant(slot) => {
                let src = self
                    .snap
                    .get(id)
                    .unwrap_or_else(|| panic!("transaction accessed dead or unknown {id}"));
                RowWords::Shared {
                    row: &src.f64s()[lo..hi],
                    src,
                    slot,
                }
            }
        };
        f(&mut RowF64s {
            words,
            id,
            lo,
            hi,
            tracked,
            track: &mut self.track,
            cow: &mut self.cow,
        })
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
        self.track.stats.allocs += 1;
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
            self.track.stats.frees += 1;
            return;
        }
        let len = self.len(id) as u32;
        self.track_write(id, 0, len.max(1));
        if let Some(copy) = self.overlay.remove(&id) {
            self.cow.lazy.remove(&id);
            self.cow.recycle(copy);
        }
        self.freed.push(id);
        self.track.stats.frees += 1;
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
        self.track.stats.work += n;
    }

    /// Declares `n` words of memory traffic on loop-invariant inputs that
    /// live outside the transactional heap (read-only matrices, feature
    /// tables, …). The bandwidth model charges them like heap touches; no
    /// instrumentation or tracking happens.
    #[inline]
    pub fn traffic(&mut self, n: u64) {
        self.track.stats.traffic_words += n;
    }

    /// The tracking mode this transaction runs under.
    pub fn mode(&self) -> TrackMode {
        self.track.mode
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &TxStats {
        &self.track.stats
    }

    /// Finishes the transaction, yielding everything the commit engine
    /// needs: private writes, access sets, allocation log and counters.
    pub fn finish(mut self) -> TxEffects {
        self.track.fold_logs();
        if self.track.mode == TrackMode::None {
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
            reads: self.track.reads,
            writes: self.track.writes,
            allocs,
            frees: self.freed,
            stats: self.track.stats,
            alloc_high_water: self.ids.high_water(),
            cow: self.cow,
            read_log: self.track.read_log,
            write_log: self.track.write_log,
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

/// Where a [`RowF64s`] finds its words.
enum RowWords<'a> {
    /// The object has no private copy: `row` is the snapshot's words, `src`
    /// the object they belong to, and `slot` where its private copy goes on
    /// the first [`RowF64s::set`].
    Shared {
        row: &'a [f64],
        src: &'a ObjData,
        slot: VacantEntry<'a, ObjId, ObjData>,
    },
    /// The row's words in the private copy, their blocks valid.
    Private(&'a mut [f64]),
}

/// A guarded view of one row — words `lo..hi` of a float object — handed
/// out by [`Tx::row_f64s`], which see. Indices are relative to `lo`.
pub struct RowF64s<'a> {
    words: RowWords<'a>,
    id: ObjId,
    lo: usize,
    hi: usize,
    /// Whether writes to `id` are instrumented.
    tracked: bool,
    track: &'a mut Tracker,
    cow: &'a mut CowScratch,
}

impl RowF64s<'_> {
    /// Word `j` of the row, as this transaction sees it. Not counted: the
    /// range read that opened the row covers it.
    #[inline]
    pub fn get(&self, j: usize) -> f64 {
        match &self.words {
            RowWords::Shared { row, .. } => row[j],
            RowWords::Private(row) => row[j],
        }
    }

    /// The whole row as this transaction sees it: the snapshot's words
    /// while the object has no private copy, the private copy's once it
    /// has one (from the first [`RowF64s::set`], or from the start if the
    /// transaction wrote the object before). Not counted, like
    /// [`RowF64s::get`]: the range read that opened the row covers it. A
    /// scan through this slice pays the shared-or-private match once,
    /// where a loop of `get`s pays it per word.
    #[inline]
    pub fn words(&self) -> &[f64] {
        match &self.words {
            RowWords::Shared { row, .. } => row,
            RowWords::Private(row) => row,
        }
    }

    /// Writes word `j` of the row, recording a write of exactly that word.
    /// The first write through a row whose object the transaction had not
    /// written before makes the private copy.
    #[inline]
    pub fn set(&mut self, j: usize, v: f64) {
        let word = (self.lo + j) as u32;
        self.track.write(self.tracked, self.id, word, word + 1);
        if let RowWords::Shared { .. } = self.words {
            self.make_private();
        }
        let RowWords::Private(row) = &mut self.words else {
            unreachable!("made private above");
        };
        row[j] = v;
    }

    #[cold]
    fn make_private(&mut self) {
        let RowWords::Shared { src, slot, .. } =
            std::mem::replace(&mut self.words, RowWords::Private(&mut []))
        else {
            unreachable!("only called on a shared row");
        };
        // The whole row's blocks, not just the written word's: `get` reads
        // the rest of the row from the copy from now on.
        let obj = slot.insert(self.cow.private_copy(self.id, src, self.lo, self.hi));
        self.words = RowWords::Private(&mut obj.f64s_mut()[self.lo..self.hi]);
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
    /// The emptied access logs, likewise.
    read_log: AccessLog,
    write_log: AccessLog,
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
                // The heap copies partial ranges out and drops its handles;
                // this one lets the buffer serve the next lazy private copy.
                // A whole-object write moves the buffer into the heap, which
                // a handle kept here would force it to copy instead.
                if arc.len() > EAGER_MAX_WORDS && ranges.words() < arc.len() as u64 {
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
            read_log: std::mem::take(&mut self.read_log),
            write_log: std::mem::take(&mut self.write_log),
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
                read_log: AccessLog::default(),
                write_log: AccessLog::default(),
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

    /// One step of a guarded-row script.
    #[derive(Clone, Copy)]
    enum RowStep {
        /// Read word `j` with [`RowF64s::get`].
        Get(usize),
        /// Write word `j` with [`RowF64s::set`].
        Set(usize, i64),
        /// Read the whole row with [`RowF64s::words`].
        Words,
    }

    /// Opens words `lo..hi` of float object `id` as a guarded row and plays
    /// `script` through it, returning what the reads saw.
    fn tx_row(tx: &mut Tx<'_>, id: ObjId, lo: usize, hi: usize, script: &[RowStep]) -> Vec<i64> {
        tx.row_f64s(id, lo, hi, |row| {
            let mut seen = Vec::new();
            for &step in script {
                match step {
                    RowStep::Get(j) => seen.push(row.get(j) as i64),
                    RowStep::Set(j, v) => row.set(j, v as f64),
                    RowStep::Words => seen.extend(row.words().iter().map(|w| *w as i64)),
                }
            }
            seen
        })
    }

    /// The same row through the reference: one range read, then a
    /// single-word write per `set`, reads served from what those leave.
    fn eager_row(
        eager: &mut EagerTx<'_>,
        id: ObjId,
        lo: usize,
        hi: usize,
        script: &[RowStep],
    ) -> Vec<i64> {
        let mut row = eager.read(id, lo, hi);
        let mut seen = Vec::new();
        for &step in script {
            match step {
                RowStep::Get(j) => seen.push(row[j]),
                RowStep::Set(j, v) => {
                    eager.write(id, lo + j, &[v]);
                    row[j] = v;
                }
                RowStep::Words => seen.extend(&row),
            }
        }
        seen
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
                match rng.below(19) {
                    // A guarded row: in-order and out-of-order writes, reads
                    // of written and unwritten words, whole-row reads of the
                    // shared row and of the private one, sometimes no write.
                    16..=18 if float => {
                        let (lo, hi) = rng.range(len);
                        let script: Vec<RowStep> = (0..rng.below(12))
                            .map(|_| match rng.below(6) {
                                0 => RowStep::Words,
                                1 | 2 => RowStep::Get(rng.below(hi - lo)),
                                _ => RowStep::Set(rng.below(hi - lo), rng.small()),
                            })
                            .collect();
                        assert_eq!(
                            tx_row(&mut tx, id, lo, hi, &script),
                            eager_row(&mut eager, id, lo, hi, &script),
                            "{ctx}"
                        );
                    }
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
            // The sets are built from the logs in `finish`, the reference's
            // by one ordered insert per access.
            for (got, want) in [(&fx.reads, &want.reads), (&fx.writes, &want.writes)] {
                assert_eq!(sorted_sets(got), sorted_sets(want), "{ctx}");
                assert_eq!(got.words(), want.words(), "{ctx}");
                assert_eq!(got.range_count(), want.range_count(), "{ctx}");
            }
            assert_eq!(fx.stats, want.stats, "{ctx}");
            assert_eq!(fx.frees, want.frees, "{ctx}");
            let keys = |fx: &TxEffects| {
                let mut keys: Vec<ObjId> = fx.overlay.keys().copied().collect();
                keys.sort_unstable();
                keys
            };
            assert_eq!(keys(&fx), keys(&want), "{ctx}: overlay keys");
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

    /// One tracked access of the budget test's script.
    #[derive(Clone, Copy, Debug)]
    enum Access {
        Read(usize, usize, usize),
        Write(usize, usize, usize),
        /// A guarded row over `lo..hi` with one `set` at `lo + j`.
        RowSet(usize, usize, usize, usize),
    }

    #[test]
    fn memory_budget_trips_at_the_same_access() {
        let mut rng = Rng(0xb0d6e7);
        // Floats only (the guard arm needs them).
        const LENS: [usize; 3] = [65, 129, 8192];
        let mut heap = Heap::new();
        let objs = LENS.map(|n| heap.alloc(ObjData::zeros_f64(n)));
        let snap = heap.snapshot();
        // Repeats, overlaps and contiguous runs, so that the log's upper
        // bound runs well ahead of the exact count before the larger budgets
        // trip.
        let script: Vec<Access> = (0..16_000)
            .map(|step| {
                let o = rng.below(LENS.len());
                let (lo, hi) = match rng.below(3) {
                    0 => {
                        let (lo, hi) = rng.range(LENS[o]);
                        (lo, hi.min(lo + 48))
                    }
                    _ => {
                        let at = (step * 3) % LENS[o];
                        (at, at + 1)
                    }
                };
                match rng.below(5) {
                    0 | 1 => Access::Read(o, lo, hi),
                    2 | 3 => Access::Write(o, lo, hi),
                    _ => Access::RowSet(o, lo, hi, rng.below(hi - lo)),
                }
            })
            .collect();
        for mode in [TrackMode::ReadsAndWrites, TrackMode::WritesOnly] {
            for budget in [1, 7, 64, 65, 4096] {
                // The reference checks the sets themselves after every insert.
                let (mut reads, mut writes) = (AccessSet::new(), AccessSet::new());
                let want = script.iter().enumerate().find_map(|(at, access)| {
                    let (o, read, write) = match *access {
                        Access::Read(o, lo, hi) => (o, Some((lo, hi)), None),
                        Access::Write(o, lo, hi) => (o, None, Some((lo, hi))),
                        Access::RowSet(o, lo, hi, j) => {
                            (o, Some((lo, hi)), Some((lo + j, lo + j + 1)))
                        }
                    };
                    [(true, read), (false, write)]
                        .into_iter()
                        .find_map(|(is_read, range)| {
                            let (lo, hi) = range?;
                            if is_read && mode.tracks_reads() {
                                reads.insert(objs[o], lo as u32, hi as u32);
                            } else if !is_read && mode.tracks_writes() {
                                writes.insert(objs[o], lo as u32, hi as u32);
                            }
                            let words = reads.words() + writes.words();
                            (words > budget).then_some((at, MemoryExceeded { words, budget }))
                        })
                });
                let at = std::cell::Cell::new(0);
                let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut tx = Tx::new(&snap, mode, ids(), budget);
                    for (i, access) in script.iter().enumerate() {
                        at.set(i);
                        match *access {
                            Access::Read(o, lo, hi) => {
                                tx.with_f64s(objs[o], lo, hi, |_| {});
                            }
                            Access::Write(o, lo, hi) => {
                                tx.write_f64s(objs[o], lo, &vec![0.0; hi - lo]);
                            }
                            Access::RowSet(o, lo, hi, j) => {
                                tx.row_f64s(objs[o], lo, hi, |row| row.set(j, 0.0));
                            }
                        }
                    }
                }))
                .err()
                .map(|payload| {
                    let me = payload
                        .downcast_ref::<MemoryExceeded>()
                        .expect("typed payload");
                    (at.get(), *me)
                });
                assert!(
                    want.is_some(),
                    "{mode:?} budget {budget}: the script must trip it"
                );
                assert_eq!(got, want, "{mode:?} budget {budget}");
            }
        }
    }

    /// Per-write seconds of `n` single-word writes into one `n`-word object
    /// as four interleaved ascending sweeps (words 0, 4, 8, … then 1, 5, 9, …
    /// and so on), `finish` included: best of three.
    fn interleaved_sweeps_secs_per_write(n: usize) -> f64 {
        let mut h = Heap::new();
        let obj = h.alloc(ObjData::zeros_f64(n));
        let snap = h.snapshot();
        (0..3)
            .map(|_| {
                let start = std::time::Instant::now();
                let mut tx = Tx::new(&snap, TrackMode::WritesOnly, ids(), u64::MAX);
                for sweep in 0..4 {
                    for i in (sweep..n).step_by(4) {
                        tx.write_f64(obj, i, 1.0);
                    }
                }
                let fx = tx.finish();
                let secs = start.elapsed().as_secs_f64();
                assert_eq!(fx.writes.words(), n as u64);
                assert_eq!(fx.writes.range_count(), 1);
                secs / n as f64
            })
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn a_tracked_write_costs_the_same_however_many_ranges_are_held() {
        // Three of the four sweeps write between ranges already held (up to
        // n / 4 of them). A set that is recounted, or spliced into, on every
        // write makes the per-write time grow with n — 16× between these two
        // sizes; a ratio holds in debug and release alike.
        let small = interleaved_sweeps_secs_per_write(2_000);
        let large = interleaved_sweeps_secs_per_write(32_000);
        assert!(
            large < 4.0 * small,
            "per write: {:.0} ns at 32 000 words against {:.0} ns at 2 000",
            large * 1e9,
            small * 1e9
        );
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

    #[test]
    fn a_whole_object_commit_installs_the_private_copy_itself() {
        for mode in [TrackMode::WritesOnly, TrackMode::None] {
            // One object short enough to be cloned whole, one long enough to
            // be copied lazily.
            for len in [EAGER_MAX_WORDS / 2, 3 * EAGER_MAX_WORDS] {
                let ctx = format!("{len} words under {mode:?}");
                let mut h = Heap::new();
                let a = h.alloc(ObjData::zeros_i64(len));
                let snap = h.snapshot();
                let mut tx = Tx::new(&snap, mode, ids(), u64::MAX);
                tx.write_i64s(a, 0, &vec![7; len]);
                let mut fx = tx.finish();
                let private = fx.overlay[&a].i64s().as_ptr();
                drop(snap);
                h.apply_commit(fx.commit_ops(mode));
                assert_eq!(h.get(a).i64s(), vec![7; len], "{ctx}");
                assert_eq!(
                    h.get(a).i64s().as_ptr(),
                    private,
                    "{ctx}: moved, not copied"
                );
                assert!(fx.cow.sources.is_empty(), "{ctx}: no handle kept");
            }
        }
        // A partial write of a long object still leaves its buffer for reuse.
        let mut h = Heap::new();
        let a = h.alloc(ObjData::zeros_i64(3 * EAGER_MAX_WORDS));
        let snap = h.snapshot();
        let mut tx = Tx::new(&snap, TrackMode::WritesOnly, ids(), u64::MAX);
        tx.write_i64(a, 1, 7);
        let mut fx = tx.finish();
        h.apply_commit(fx.commit_ops(TrackMode::WritesOnly));
        assert_eq!(fx.cow.sources.len(), 1);
        assert_eq!(h.get(a).i64s()[..3], [0, 7, 0]);
    }
}
