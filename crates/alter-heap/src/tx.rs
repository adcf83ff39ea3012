//! Transactions: isolated, instrumented views of a snapshot.
//!
//! Each loop iteration (or chunk of iterations) executes against a [`Tx`]:
//! reads come from the round's shared [`Snapshot`] unless the transaction
//! already wrote the object, in which case they come from its private copy
//! in the overlay. Reads and writes are recorded in word-range
//! [`AccessSet`]s — the `InstrumentRead` / `InstrumentWrite` calls the ALTER
//! compiler inserts (§4.1).
//!
//! # One entry per object
//!
//! The overlay holds one entry per object the transaction did more than
//! read: a private copy of the snapshot's version (with its validity mask's
//! position while it is partly filled, below), an object it allocated, or
//! a snapshot object it freed. Every access looks the id up once, and the
//! entry decides where the words are, which blocks to fill and whether the
//! access is instrumented — not for a fresh object, which cannot conflict
//! (the paper elides instrumentation for variables "defined afresh in each
//! iteration"). Any access to a freed object, a second free included,
//! panics in the body. An alloc and a free in one transaction cancel: the
//! entry goes. [`Tx::finish`] hands the map on as it is.
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
//! of it, not 64 KiB. An object whose blocks are all valid drops its mask
//! position, and shorter objects are cloned whole on first write: the copy
//! is cheaper than the mask. Conflict detection is untouched by any of
//! this — access sets stay word ranges keyed by allocation.
//!
//! The unfilled copy is a recycled buffer of the same kind and length when
//! the spent [`TxEffects`] the transaction was built in carry one (a private
//! copy whose transaction has committed or been rejected), a zeroed
//! allocation otherwise; either way it is initialised memory, and which one
//! it was cannot be observed: blocks that were never made valid are never
//! read, by the transaction or by [`crate::Heap::commit`], which copies the
//! write set's ranges and nothing else out of the private copy.
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
//! [`AccessSet`]. The sets that come out are the ones an ordered insert
//! per access would have built. The log grows with the accesses that did not continue their predecessor, not with the distinct
//! words, until it is folded; the largest any of the twelve workloads builds
//! under any model is Floyd's 5 748 write entries (67 KiB), and the logs'
//! storage is recycled with the [`TxEffects`] like the sets'.
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
//! [`Tx::row_f64s`] hands a body that scans a row and writes the few words
//! it improves — Floyd's relaxation — a [`RowF64s`]: one range read is
//! recorded, the overlay entry is resolved and the row's blocks are filled
//! once, and [`RowF64s::words`] is the row as one slice. Writing has one
//! door: [`RowF64s::writer`] makes the private copy, once, and hands out a
//! [`RowWriter`] over the private row as a `&mut [f64]`, whose `set(j, v)`
//! logs exactly word `lo + j` — the write set one `write_f64` per `set`
//! would have made, not a whole-row write with different conflicts. A body
//! that writes rarely scans first and opens a writer only for a row the
//! scan found something to write in.
//!
//! Read tracking is elided when the conflict policy does not need read sets
//! (`WAW`, `NONE`): this is precisely why the paper finds `StaleReads`
//! outperforming `OutOfOrder` — "enforcing StaleReads does not need read
//! instrumentation" (§7.2).

use crate::alloc::IdReservation;
use crate::fx::FxHashMap;
use crate::heap::Snapshot;
use crate::object::{ObjData, ObjId, ObjKind, ObjRef};
use crate::sets::{AccessLog, AccessSet};
use std::collections::hash_map::{Entry, VacantEntry};

/// Words per block of a lazily filled private copy.
const BLOCK_WORDS: usize = 64;

/// Objects up to this many words are cloned whole on their first write.
const EAGER_MAX_WORDS: usize = 2 * BLOCK_WORDS;

/// Spent private copies one [`TxEffects`] keeps for reuse.
const SPARE_MAX: usize = 8;

/// Where one partly filled private copy stands.
#[derive(Debug)]
pub(crate) struct LazyCopy {
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
        src: impl Fn() -> ObjRef<'a>,
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

/// What a transaction holds of one object beyond the snapshot's version of
/// it (see the module docs).
#[derive(Debug)]
pub(crate) enum Local {
    /// A private copy of the snapshot's version, and where its validity
    /// mask stands while it is only partly filled.
    Copy {
        data: ObjData,
        lazy: Option<LazyCopy>,
    },
    /// An object this transaction allocated.
    Fresh(ObjData),
    /// A snapshot object this transaction freed.
    Freed,
}

impl Local {
    /// The object's words for an access to words `lo..hi` of `id`, with the
    /// blocks of that range valid (see [`LazyCopy::fill`]), and whether the
    /// access is instrumented: not for a fresh object. Panics if the
    /// transaction freed the object.
    #[inline]
    fn words<'a>(
        &mut self,
        id: ObjId,
        bits: &mut [u64],
        src: impl Fn() -> ObjRef<'a>,
        lo: usize,
        hi: usize,
    ) -> (&mut ObjData, bool) {
        match self {
            Local::Copy { data, lazy } => {
                if let Some(copy) = lazy {
                    copy.fill(bits, data, src, lo, hi);
                    if copy.missing == 0 {
                        *lazy = None;
                    }
                }
                (data, true)
            }
            Local::Fresh(data) => (data, false),
            Local::Freed => freed(id),
        }
    }
}

#[cold]
fn freed(id: ObjId) -> ! {
    panic!("transaction accessed freed {id}")
}

#[cold]
fn unknown(id: ObjId) -> ! {
    panic!("transaction accessed dead or unknown {id}")
}

/// The snapshot's version of `id`, which its private copy is filled from.
fn original(snap: &Snapshot, id: ObjId) -> ObjRef<'_> {
    snap.get(id).expect("a private copy has an original")
}

/// What a transaction's private copies need beyond the overlay: the
/// validity masks of the partly filled ones, and buffers to make the next
/// ones from. Travels from a reset [`TxEffects`] into the [`Tx`] built in
/// it and out through the next [`TxEffects`], so that the masks' storage
/// and the spent copies are reused instead of reallocated.
#[derive(Debug, Default)]
pub(crate) struct CowScratch {
    /// Validity masks of this transaction's lazy copies, one bit per block,
    /// appended on first write and dropped together at the end.
    bits: Vec<u64>,
    /// Spent private copies: initialised buffers whose contents mean nothing.
    spare: Vec<ObjData>,
}

impl CowScratch {
    /// Keeps `data`'s buffer for a later private copy if it is one that
    /// would be made lazily and there is room.
    fn recycle(&mut self, data: ObjData) {
        if data.len() > EAGER_MAX_WORDS && self.spare.len() < SPARE_MAX {
            self.spare.push(data);
        }
    }

    /// A private copy of `src`, the snapshot's version of an object: a
    /// whole clone if `src` is short, otherwise an initialised buffer of its
    /// kind and length with no block valid yet ([`Local::words`] fills what
    /// an access needs) — a spare if one fits, zeroes if none does.
    fn private_copy(&mut self, src: ObjRef<'_>) -> Local {
        let (kind, len) = (src.kind(), src.len());
        if len <= EAGER_MAX_WORDS {
            let (data, lazy) = (src.to_owned(), None);
            return Local::Copy { data, lazy };
        }
        let fits = |s: &ObjData| s.kind() == kind && s.len() == len;
        let data = match self.spare.iter().position(fits) {
            Some(i) => self.spare.swap_remove(i),
            None if kind == ObjKind::F64 => ObjData::zeros_f64(len),
            None => ObjData::zeros_i64(len),
        };
        let (bits_at, blocks) = (self.bits.len(), len.div_ceil(BLOCK_WORDS));
        self.bits.resize(bits_at + blocks.div_ceil(64), 0);
        let missing = u32::try_from(blocks).expect("object length fits u32");
        let lazy = Some(LazyCopy { bits_at, missing });
        Local::Copy { data, lazy }
    }
}

/// Which access sets a transaction maintains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrackMode {
    /// Track reads and writes (needed by `FULL` and `RAW` conflict policies).
    ReadsAndWrites,
    /// Track writes only (sufficient for `WAW` and `NONE` — the StaleReads
    /// fast path; a commit needs the write ranges either way).
    WritesOnly,
}

impl TrackMode {
    /// Whether read instrumentation is active.
    pub fn tracks_reads(self) -> bool {
        matches!(self, TrackMode::ReadsAndWrites)
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

    /// Counts a read of words `lo..hi` of `id` and, if the mode tracks
    /// reads and `id` is `tracked` (not fresh), logs it.
    #[inline]
    fn read(&mut self, tracked: bool, id: ObjId, lo: u32, hi: u32) {
        self.stats.read_ops += 1;
        self.stats.read_words += u64::from(hi - lo);
        if tracked && self.mode.tracks_reads() {
            let logged = self.read_log.push(id, lo, hi);
            self.charge_budget(logged);
        }
    }

    /// Counts a write of words `lo..hi` of `id` and, if `id` is `tracked`
    /// (not fresh), logs it.
    #[inline]
    fn write(&mut self, tracked: bool, id: ObjId, lo: u32, hi: u32) {
        self.stats.write_ops += 1;
        self.stats.write_words += u64::from(hi - lo);
        if tracked {
            let logged = self.write_log.push(id, lo, hi);
            self.charge_budget(logged);
        }
    }
}

/// An isolated, instrumented view of the heap for one transaction. Every
/// accessor panics if its object is dead, unknown, or freed by it.
pub struct Tx<'s> {
    snap: &'s Snapshot,
    /// One entry per object written, allocated or freed so far (see the
    /// module docs).
    overlay: FxHashMap<ObjId, Local>,
    /// The private copies' validity masks and spare buffers.
    cow: CowScratch,
    track: Tracker,
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
        Self::with_buffers(snap, mode, ids, budget_words, TxEffects::default())
    }

    /// Like [`Tx::new`], but built in the containers of a finished
    /// transaction's effects, emptied by [`TxEffects::reset`]: only their
    /// capacity and spare private-copy buffers carry over, so a recycled
    /// and a fresh transaction behave identically.
    pub fn with_buffers(
        snap: &'s Snapshot,
        mode: TrackMode,
        ids: IdReservation,
        budget_words: u64,
        spent: TxEffects,
    ) -> Self {
        debug_assert!(spent.is_reset(), "a transaction is built in reset effects");
        Tx {
            snap,
            overlay: spent.overlay,
            cow: spent.cow,
            track: Tracker {
                mode,
                stats: TxStats::default(),
                reads: spent.reads,
                writes: spent.writes,
                read_log: spent.read_log,
                write_log: spent.write_log,
                tracked_bound: 0,
                budget_words,
            },
            ids,
        }
    }

    /// Records a read of words `lo..hi` of `id` and borrows the words to
    /// read it from: the object's overlay entry, with the blocks of that
    /// range made valid, if it has one, the snapshot's version otherwise.
    #[inline]
    fn read_view(&mut self, id: ObjId, lo: usize, hi: usize) -> ObjRef<'_> {
        let snap = self.snap;
        let (obj, tracked) = match self.overlay.get_mut(&id) {
            None => (snap.get(id).unwrap_or_else(|| unknown(id)), true),
            Some(local) => {
                let (data, tracked) =
                    local.words(id, &mut self.cow.bits, || original(snap, id), lo, hi);
                (data.view(), tracked)
            }
        };
        self.track.read(tracked, id, lo as u32, hi as u32);
        obj
    }

    /// Records a write of words `lo..hi` of `id`, after a read of them if
    /// `read_too`, and mutably borrows the object's words: its private
    /// copy, made on the first write, with the blocks of that range valid,
    /// or the fresh object.
    fn write_view(&mut self, id: ObjId, lo: usize, hi: usize, read_too: bool) -> &mut ObjData {
        let snap = self.snap;
        let local = match self.overlay.entry(id) {
            Entry::Occupied(slot) => slot.into_mut(),
            Entry::Vacant(slot) => {
                let src = snap.get(id).unwrap_or_else(|| unknown(id));
                slot.insert(self.cow.private_copy(src))
            }
        };
        let (data, tracked) = local.words(id, &mut self.cow.bits, || original(snap, id), lo, hi);
        let (lo, hi) = (lo as u32, hi as u32);
        if read_too {
            self.track.read(tracked, id, lo, hi);
        }
        self.track.write(tracked, id, lo, hi);
        data
    }

    // ----- typed scalar access -----

    /// Reads word `idx` of float object `id`.
    #[inline]
    pub fn read_f64(&mut self, id: ObjId, idx: usize) -> f64 {
        self.read_view(id, idx, idx + 1).f64s()[idx]
    }

    /// Reads word `idx` of integer object `id`.
    #[inline]
    pub fn read_i64(&mut self, id: ObjId, idx: usize) -> i64 {
        self.read_view(id, idx, idx + 1).i64s()[idx]
    }

    /// Writes word `idx` of float object `id`.
    #[inline]
    pub fn write_f64(&mut self, id: ObjId, idx: usize, v: f64) {
        self.write_view(id, idx, idx + 1, false).f64s_mut()[idx] = v;
    }

    /// Writes word `idx` of integer object `id`.
    #[inline]
    pub fn write_i64(&mut self, id: ObjId, idx: usize, v: i64) {
        self.write_view(id, idx, idx + 1, false).i64s_mut()[idx] = v;
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
        f(&self.read_view(id, lo, hi).f64s()[lo..hi])
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
        f(&self.read_view(id, lo, hi).i64s()[lo..hi])
    }

    /// Writes `src` into words `lo..` of float object `id` as one range write.
    pub fn write_f64s(&mut self, id: ObjId, lo: usize, src: &[f64]) {
        let hi = lo + src.len();
        self.write_view(id, lo, hi, false).f64s_mut()[lo..hi].copy_from_slice(src);
    }

    /// Writes `src` into words `lo..` of integer object `id` as one range write.
    pub fn write_i64s(&mut self, id: ObjId, lo: usize, src: &[i64]) {
        let hi = lo + src.len();
        self.write_view(id, lo, hi, false).i64s_mut()[lo..hi].copy_from_slice(src);
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
        f(&mut self.write_view(id, lo, hi, true).f64s_mut()[lo..hi])
    }

    // ----- guarded rows (one instrumentation call for the reads, one overlay
    // lookup for the row, exact single-word write records) -----

    /// Calls `f` with a guarded view of words `lo..hi` of float object `id`,
    /// recording a single range read. The view reads words with
    /// [`RowF64s::get`], or the whole row with [`RowF64s::words`], and
    /// writes them through [`RowF64s::writer`], each [`RowWriter::set`]
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
        let snap = self.snap;
        let (words, tracked) = match self.overlay.entry(id) {
            Entry::Occupied(slot) => {
                let (data, tracked) =
                    slot.into_mut()
                        .words(id, &mut self.cow.bits, || original(snap, id), lo, hi);
                (RowWords::Private(&mut data.f64s_mut()[lo..hi]), tracked)
            }
            Entry::Vacant(slot) => {
                let src = snap.get(id).unwrap_or_else(|| unknown(id)).f64s();
                let row = &src[lo..hi];
                (RowWords::Shared { row, src, slot }, true)
            }
        };
        self.track.read(tracked, id, lo as u32, hi as u32);
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
        match self.overlay.get(&id) {
            // A private copy has its original's length however much of it
            // is filled.
            Some(Local::Copy { data, .. } | Local::Fresh(data)) => data.len(),
            Some(Local::Freed) => freed(id),
            None => self.snap.get(id).unwrap_or_else(|| unknown(id)).len(),
        }
    }

    /// Allocates a fresh object from this transaction's id reservation.
    ///
    /// The returned id is guaranteed distinct from every id any concurrent
    /// transaction can allocate (the ALTER-allocator guarantee). The object
    /// becomes visible to other transactions only if this one commits.
    pub fn alloc(&mut self, data: ObjData) -> ObjId {
        let id = self.ids.next_id();
        self.track.stats.allocs += 1;
        self.overlay.insert(id, Local::Fresh(data));
        id
    }

    /// Frees object `id`. The free takes effect at commit; concurrently it
    /// behaves as a whole-object write for conflict purposes. An object
    /// this transaction allocated is dropped instead: the alloc and the
    /// free cancel.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not visible to this transaction, which includes an
    /// id it has already freed.
    pub fn free(&mut self, id: ObjId) {
        let len = match self.overlay.entry(id) {
            Entry::Occupied(mut slot) => match slot.insert(Local::Freed) {
                Local::Freed => panic!("transaction freed {id} twice"),
                Local::Fresh(_) => {
                    slot.remove();
                    self.track.stats.frees += 1;
                    return;
                }
                Local::Copy { data, .. } => {
                    let len = data.len();
                    self.cow.recycle(data);
                    len
                }
            },
            Entry::Vacant(slot) => {
                let len = self.snap.get(id).unwrap_or_else(|| unknown(id)).len();
                slot.insert(Local::Freed);
                len
            }
        };
        self.track.write(true, id, 0, (len as u32).max(1));
        self.track.stats.frees += 1;
    }

    /// Whether `id` is visible (live in the snapshot or created here) and
    /// not freed by this transaction.
    pub fn is_live(&self, id: ObjId) -> bool {
        match self.overlay.get(&id) {
            Some(Local::Freed) => false,
            Some(_) => true,
            None => self.snap.get(id).is_some(),
        }
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

    /// Finishes the transaction, yielding everything the commit engine
    /// needs: its objects, access sets and counters.
    pub fn finish(mut self) -> TxEffects {
        self.track.fold_logs();
        TxEffects {
            overlay: self.overlay,
            reads: self.track.reads,
            writes: self.track.writes,
            stats: self.track.stats,
            alloc_high_water: self.ids.high_water(),
            cow: self.cow,
            read_log: self.track.read_log,
            write_log: self.track.write_log,
        }
    }
}

/// Where a [`RowF64s`] finds its words.
enum RowWords<'a> {
    /// The object has no overlay entry: `row` is the snapshot's words, `src`
    /// all the words of the object they belong to, and `slot` where its
    /// private copy goes when the first [`RowWriter`] opens.
    Shared {
        row: &'a [f64],
        src: &'a [f64],
        slot: VacantEntry<'a, ObjId, Local>,
    },
    /// The row's words in the private copy or fresh object, their blocks
    /// valid.
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
        self.words()[j]
    }

    /// The whole row as this transaction sees it: the snapshot's words
    /// while the object has no private copy, the private copy's once it
    /// has one (from the first [`RowF64s::writer`], or from the start if
    /// the transaction wrote the object before). Not counted, like
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

    /// The row's one way into writing: a [`RowWriter`] over the private
    /// row. The first writer of a row whose object the transaction had not
    /// written before makes the private copy, whether or not it then
    /// writes, so open one only for a row there is something to write in.
    #[inline]
    pub fn writer(&mut self) -> RowWriter<'_> {
        if let RowWords::Shared { .. } = self.words {
            self.make_private();
        }
        let RowWords::Private(row) = &mut self.words else {
            unreachable!("made private above");
        };
        RowWriter {
            row,
            id: self.id,
            lo: self.lo,
            tracked: self.tracked,
            track: self.track,
        }
    }

    #[cold]
    fn make_private(&mut self) {
        let RowWords::Shared { src, slot, .. } =
            std::mem::replace(&mut self.words, RowWords::Private(&mut []))
        else {
            unreachable!("only called on a shared row");
        };
        // The whole row's blocks, not just the written words': the row
        // reads the rest of itself from the copy from now on.
        let src = ObjRef::F64(src);
        let copy = slot.insert(self.cow.private_copy(src));
        let (data, _) = copy.words(self.id, &mut self.cow.bits, || src, self.lo, self.hi);
        self.words = RowWords::Private(&mut data.f64s_mut()[self.lo..self.hi]);
    }
}

/// The private words of a guarded row, opened by [`RowF64s::writer`].
/// Reads and writes go straight to the slice; each [`RowWriter::set`]
/// records a write of exactly its word. Indices are relative to the row's
/// `lo`, as in [`RowF64s`].
pub struct RowWriter<'r> {
    row: &'r mut [f64],
    id: ObjId,
    lo: usize,
    tracked: bool,
    track: &'r mut Tracker,
}

impl RowWriter<'_> {
    /// Word `j` of the row. Not counted: the range read that opened the
    /// row covers it.
    #[inline]
    pub fn get(&self, j: usize) -> f64 {
        self.row[j]
    }

    /// Writes word `j` of the row, recording a write of exactly that word.
    #[inline]
    pub fn set(&mut self, j: usize, v: f64) {
        let word = (self.lo + j) as u32;
        self.track.write(self.tracked, self.id, word, word + 1);
        self.row[j] = v;
    }
}

/// What committing a transaction's effects changes in the heap
/// ([`TxEffects::footprint`]). An object allocated and freed in the one
/// transaction counts here in neither direction, in [`TxStats`] in both.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Full lengths of the private copies, however little of each is filled.
    pub copy_words: u64,
    /// Objects allocated.
    pub allocs: u32,
    /// Words of those objects.
    pub alloc_words: u64,
    /// Snapshot objects freed.
    pub frees: u32,
}

/// Everything a finished transaction hands to the validation/commit engine.
/// Once the verdict is in and any commit applied, [`TxEffects::reset`]
/// empties it and the next transaction is built in its containers
/// ([`Tx::with_buffers`]).
#[derive(Debug, Default)]
pub struct TxEffects {
    /// The transaction's objects as [`Tx`] left them (in a private copy
    /// longer than two blocks only the blocks [`TxEffects::writes`] touch
    /// are meaningful).
    pub(crate) overlay: FxHashMap<ObjId, Local>,
    /// Read set (empty unless the mode tracked reads).
    pub reads: AccessSet,
    /// Write set.
    pub writes: AccessSet,
    /// Operation counters.
    pub stats: TxStats,
    /// High-water mark of the id reservation (for advancing the heap).
    pub alloc_high_water: u32,
    /// Recyclable private-copy storage, for the next transaction.
    cow: CowScratch,
    /// The emptied access logs, likewise.
    read_log: AccessLog,
    write_log: AccessLog,
}

impl TxEffects {
    /// What a commit of these effects changes in the heap (one pass over
    /// the overlay).
    pub fn footprint(&self) -> Footprint {
        let mut fp = Footprint::default();
        for local in self.overlay.values() {
            match local {
                Local::Copy { data, .. } => fp.copy_words += data.len() as u64,
                Local::Fresh(data) => {
                    fp.allocs += 1;
                    fp.alloc_words += data.len() as u64;
                }
                Local::Freed => fp.frees += 1,
            }
        }
        fp
    }

    /// Empties the effects for the next transaction to be built in
    /// ([`Tx::with_buffers`]), keeping the containers' capacity and, as
    /// spares, the long private copies — a committed transaction's as well
    /// as a rejected one's, since [`crate::Heap::commit`] copies out of them
    /// and leaves them here. Call it once the verdict is in and any commit
    /// has been applied.
    pub fn reset(&mut self) {
        for (_, local) in self.overlay.drain() {
            if let Local::Copy { data, .. } = local {
                self.cow.recycle(data);
            }
        }
        self.cow.bits.clear();
        self.reads.clear();
        self.writes.clear();
    }

    fn is_reset(&self) -> bool {
        self.overlay.is_empty()
            && self.cow.bits.is_empty()
            && self.reads.is_empty()
            && self.writes.is_empty()
            && self.read_log.is_empty()
            && self.write_log.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::Heap;
    use crate::object::ObjMut;

    fn ids() -> IdReservation {
        IdReservation::new(1000, 0, 1, 16)
    }

    /// Valid blocks of `id`'s private copy (all of them once it is complete
    /// or was cloned whole).
    fn valid_blocks(tx: &Tx<'_>, id: ObjId) -> usize {
        let Local::Copy { data, lazy } = &tx.overlay[&id] else {
            panic!("{id} has no private copy");
        };
        data.len().div_ceil(BLOCK_WORDS) - lazy.as_ref().map_or(0, |l| l.missing as usize)
    }

    /// The words of `id`'s private copy in `fx`.
    fn copy_of(fx: &TxEffects, id: ObjId) -> &ObjData {
        match &fx.overlay[&id] {
            Local::Copy { data, .. } => data,
            other => panic!("{id} has no private copy: {other:?}"),
        }
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
    fn fresh_objects_are_untracked_and_installed_by_the_commit() {
        let (mut h, _, _) = setup();
        let snap = h.snapshot();
        let mut tx = Tx::new(&snap, TrackMode::ReadsAndWrites, ids(), u64::MAX);
        let x = tx.alloc(ObjData::scalar_i64(1));
        let y = tx.alloc(ObjData::zeros_f64(3));
        tx.write_i64(x, 0, 11);
        assert_eq!(tx.read_i64(x, 0), 11);
        tx.row_f64s(y, 0, 3, |row| row.writer().set(2, 5.0));
        assert_eq!(tx.len(y), 3);
        let fx = tx.finish();
        assert!(fx.reads.is_empty());
        assert!(fx.writes.is_empty());
        let footprint = Footprint {
            allocs: 2,
            alloc_words: 4,
            ..Footprint::default()
        };
        assert_eq!(fx.footprint(), footprint);
        drop(snap);
        h.commit(&fx);
        assert_eq!(h.get(x).i64s(), &[11]);
        assert_eq!(h.get(y).f64s(), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn alloc_then_free_cancels() {
        let (h, _, _) = setup();
        let snap = h.snapshot();
        let mut tx = Tx::new(&snap, TrackMode::ReadsAndWrites, ids(), u64::MAX);
        let x = tx.alloc(ObjData::scalar_i64(1));
        tx.free(x);
        assert!(!tx.is_live(x));
        // The id is as unknown as it was before the alloc.
        let touched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| tx.read_i64(x, 0)));
        let payload = touched.expect_err("a read after the free");
        let message = payload.downcast_ref::<String>().expect("a message");
        assert!(message.contains(&format!("unknown {x}")), "{message}");
        let fx = tx.finish();
        assert!(fx.overlay.is_empty());
        assert_eq!(fx.footprint(), Footprint::default());
        assert_eq!(fx.stats.allocs, 1);
        assert_eq!(fx.stats.frees, 1);
    }

    #[test]
    fn free_of_snapshot_object_is_whole_object_write() {
        let (h, a, _) = setup();
        let snap = h.snapshot();
        let mut tx = Tx::new(&snap, TrackMode::ReadsAndWrites, ids(), u64::MAX);
        tx.write_f64(a, 0, 9.0);
        tx.free(a);
        assert!(!tx.is_live(a));
        let fx = tx.finish();
        assert!(matches!(fx.overlay[&a], Local::Freed));
        let footprint = Footprint {
            frees: 1,
            ..Footprint::default()
        };
        assert_eq!(fx.footprint(), footprint);
        assert!(fx.writes.contains_range(a, 0, 3));
    }

    /// Every accessor on an id the transaction freed panics in the
    /// transaction and names the id, whether the object was untouched,
    /// cloned whole or partly filled before the free.
    #[test]
    fn every_access_to_a_freed_object_panics_and_names_it() {
        type Access = fn(&mut Tx<'_>, ObjId);
        let float: [Access; 8] = [
            |tx, id| {
                tx.read_f64(id, 1);
            },
            |tx, id| tx.write_f64(id, 1, 1.0),
            |tx, id| tx.with_f64s(id, 0, 2, |_| ()),
            |tx, id| tx.write_f64s(id, 0, &[1.0, 2.0]),
            |tx, id| tx.update_f64s(id, 0, 2, |_| ()),
            |tx, id| {
                tx.row_f64s(id, 0, 2, |row| row.get(0));
            },
            |tx, id| tx.row_f64s(id, 0, 2, |row| row.writer().set(0, 1.0)),
            |tx, id| {
                tx.len(id);
            },
        ];
        let integer: [Access; 5] = [
            |tx, id| {
                tx.read_i64(id, 1);
            },
            |tx, id| tx.write_i64(id, 1, 1),
            |tx, id| tx.with_i64s(id, 0, 2, |_| ()),
            |tx, id| tx.write_i64s(id, 0, &[1, 2]),
            |tx, id| {
                tx.len(id);
            },
        ];
        let mut h = Heap::new();
        let (short, long) = (EAGER_MAX_WORDS, 3 * EAGER_MAX_WORDS);
        let objs = [
            (
                h.alloc(ObjData::zeros_f64(short)),
                h.alloc(ObjData::zeros_f64(long)),
            ),
            (
                h.alloc(ObjData::zeros_i64(short)),
                h.alloc(ObjData::zeros_i64(long)),
            ),
        ];
        let snap = h.snapshot();
        for ((short, long), accesses) in objs.into_iter().zip([&float[..], &integer[..]]) {
            let states = [
                ("untouched", long),
                ("cloned whole", short),
                ("partly filled", long),
            ];
            for (n, (state, id)) in states.into_iter().enumerate() {
                for (k, access) in accesses.iter().enumerate() {
                    let ctx = format!("{state} {id}, access {k}");
                    let mut tx = Tx::new(&snap, TrackMode::ReadsAndWrites, ids(), u64::MAX);
                    if n > 0 {
                        // The kind's one-word write.
                        accesses[1](&mut tx, id);
                        let partly = matches!(tx.overlay[&id], Local::Copy { lazy: Some(_), .. });
                        assert_eq!(partly, id == long, "{ctx}");
                    }
                    tx.free(id);
                    assert!(!tx.is_live(id), "{ctx}");
                    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        access(&mut tx, id)
                    }))
                    .expect_err(&ctx);
                    let message = payload.downcast_ref::<String>().expect("a message");
                    assert!(message.contains(&format!("freed {id}")), "{ctx}: {message}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "freed obj#0 twice")]
    fn double_free_panics_in_the_transaction() {
        let (h, a, _) = setup();
        let snap = h.snapshot();
        let mut tx = Tx::new(&snap, TrackMode::WritesOnly, ids(), u64::MAX);
        tx.free(a);
        tx.free(a);
    }

    #[test]
    #[should_panic(expected = "dead or unknown")]
    fn double_free_of_a_fresh_object_panics() {
        let (h, _, _) = setup();
        let snap = h.snapshot();
        let mut tx = Tx::new(&snap, TrackMode::WritesOnly, ids(), u64::MAX);
        let x = tx.alloc(ObjData::scalar_i64(1));
        tx.free(x);
        tx.free(x);
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
        let mut tx = Tx::new(&snap, TrackMode::WritesOnly, ids(), u64::MAX);
        assert_eq!(tx.len(a), 3);
        tx.work(42);
        assert_eq!(tx.finish().stats.work, 42);
    }

    #[test]
    #[should_panic(expected = "dead or unknown")]
    fn reading_unknown_object_panics() {
        let h = Heap::new();
        let snap = h.snapshot();
        let mut tx = Tx::new(&snap, TrackMode::WritesOnly, ids(), u64::MAX);
        tx.read_f64(ObjId::from_index(5), 0);
    }

    /// The transaction this module had before private copies were filled
    /// lazily: the whole object is cloned on first write. Kept as the
    /// reference the block bookkeeping is checked against; values are `i64`
    /// whatever the object's kind.
    struct EagerTx<'s> {
        snap: &'s Snapshot,
        overlay: FxHashMap<ObjId, ObjData>,
        /// Objects allocated and not freed; their accesses are not tracked.
        fresh: FxHashMap<ObjId, ObjData>,
        ids: IdReservation,
        reads: AccessSet,
        writes: AccessSet,
        mode: TrackMode,
        freed: Vec<ObjId>,
        stats: TxStats,
    }

    fn word(obj: ObjRef<'_>, idx: usize) -> i64 {
        match obj {
            ObjRef::F64(v) => v[idx] as i64,
            ObjRef::I64(v) => v[idx],
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
                fresh: FxHashMap::default(),
                ids: ids(),
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
            let obj = match (self.fresh.get(&id), self.overlay.get(&id)) {
                (Some(obj), _) => obj.view(),
                (None, copy) => {
                    if self.mode.tracks_reads() {
                        self.reads.insert(id, lo as u32, hi as u32);
                    }
                    copy.map_or_else(|| self.snap.get(id).unwrap(), ObjData::view)
                }
            };
            (lo..hi).map(|i| word(obj, i)).collect()
        }

        /// The private copy of `id`, cloned whole on first call, or the
        /// fresh object itself.
        fn own(&mut self, id: ObjId) -> &mut ObjData {
            let snap = self.snap;
            match self.fresh.get_mut(&id) {
                Some(obj) => obj,
                None => self
                    .overlay
                    .entry(id)
                    .or_insert_with(|| snap.get(id).unwrap().to_owned()),
            }
        }

        fn write(&mut self, id: ObjId, lo: usize, vals: &[i64]) {
            self.stats.write_ops += 1;
            self.stats.write_words += vals.len() as u64;
            if !self.fresh.contains_key(&id) {
                self.writes.insert(id, lo as u32, (lo + vals.len()) as u32);
            }
            let obj = self.own(id);
            for (i, v) in vals.iter().enumerate() {
                set_word(obj, lo + i, *v);
            }
        }

        fn alloc(&mut self, data: ObjData) -> ObjId {
            let id = self.ids.next_id();
            self.stats.allocs += 1;
            self.fresh.insert(id, data);
            id
        }

        /// Frees `id`; an object this transaction allocated just goes.
        fn free(&mut self, id: ObjId) {
            self.stats.frees += 1;
            if self.fresh.remove(&id).is_some() {
                return;
            }
            let len = self.snap.get(id).unwrap().len() as u32;
            self.writes.insert(id, 0, len);
            self.stats.write_ops += 1;
            self.stats.write_words += u64::from(len);
            self.overlay.remove(&id);
            self.freed.push(id);
        }

        fn finish(self) -> TxEffects {
            let copies = self.overlay.into_iter().map(|(id, data)| {
                let lazy = None;
                (id, Local::Copy { data, lazy })
            });
            let fresh = self
                .fresh
                .into_iter()
                .map(|(id, data)| (id, Local::Fresh(data)));
            let frees = self.freed.into_iter().map(|id| (id, Local::Freed));
            TxEffects {
                overlay: copies.chain(fresh).chain(frees).collect(),
                reads: self.reads,
                writes: self.writes,
                stats: self.stats,
                alloc_high_water: self.ids.high_water(),
                ..TxEffects::default()
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
            let old = tx.with_i64s(id, lo, hi, |s| s.to_vec());
            let new: Vec<i64> = old.iter().map(|x| x + k).collect();
            tx.write_i64s(id, lo, &new);
            old
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
    #[derive(Clone)]
    enum RowStep {
        /// Read word `j` with [`RowF64s::get`].
        Get(usize),
        /// Read the whole row with [`RowF64s::words`].
        Words,
        /// Open a [`RowWriter`] and, through it, read word `j` for each
        /// `(j, None)` and write `v` to it for each `(j, Some(v))`.
        Writer(Vec<(usize, Option<i64>)>),
    }

    /// Opens words `lo..hi` of float object `id` as a guarded row and plays
    /// `script` through it, returning what the reads saw.
    fn tx_row(tx: &mut Tx<'_>, id: ObjId, lo: usize, hi: usize, script: &[RowStep]) -> Vec<i64> {
        tx.row_f64s(id, lo, hi, |row| {
            let mut seen = Vec::new();
            for step in script {
                match step {
                    RowStep::Get(j) => seen.push(row.get(*j) as i64),
                    RowStep::Words => seen.extend(row.words().iter().map(|w| *w as i64)),
                    RowStep::Writer(steps) => {
                        let mut writer = row.writer();
                        for &(j, v) in steps {
                            match v {
                                None => seen.push(writer.get(j) as i64),
                                Some(v) => writer.set(j, v as f64),
                            }
                        }
                    }
                }
            }
            seen
        })
    }

    /// The same row through the reference: one range read, then a
    /// single-word write per `set`, reads served from what those leave. A
    /// writer's opening makes the private copy.
    fn eager_row(
        eager: &mut EagerTx<'_>,
        id: ObjId,
        lo: usize,
        hi: usize,
        script: &[RowStep],
    ) -> Vec<i64> {
        let mut row = eager.read(id, lo, hi);
        let mut seen = Vec::new();
        for step in script {
            match step {
                RowStep::Get(j) => seen.push(row[*j]),
                RowStep::Words => seen.extend(&row),
                RowStep::Writer(steps) => {
                    eager.own(id);
                    for &(j, v) in steps {
                        match v {
                            None => seen.push(row[j]),
                            Some(v) => {
                                eager.write(id, lo + j, &[v]);
                                row[j] = v;
                            }
                        }
                    }
                }
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

    /// The reference commit, sharing no code with [`Heap::commit`]: each
    /// word of the write set copied one at a time from the private copy (a
    /// freed object has none), then the frees, then the fresh objects in
    /// ascending id order, each placed by the sequential allocator past the
    /// high water (ids skipped by an alloc the transaction freed again are
    /// filled and freed).
    fn commit_word_by_word(heap: &mut Heap, fx: &TxEffects) {
        for (id, lo, hi) in fx.writes.iter_sorted() {
            let Some(Local::Copy { data: src, .. }) = fx.overlay.get(&id) else {
                continue;
            };
            for w in lo as usize..hi as usize {
                match (heap.get_mut(id), src) {
                    (ObjMut::F64(dst), ObjData::F64(src)) => dst[w] = src[w],
                    (ObjMut::I64(dst), ObjData::I64(src)) => dst[w] = src[w],
                    _ => unreachable!("a private copy has its object's kind"),
                }
            }
        }
        let mut fresh = Vec::new();
        for (&id, local) in &fx.overlay {
            match local {
                Local::Freed => heap.free(id),
                Local::Fresh(data) => fresh.push((id, data)),
                Local::Copy { .. } => {}
            }
        }
        fresh.sort_unstable_by_key(|(id, _)| *id);
        for (id, data) in fresh {
            let gap = id.index() - heap.high_water();
            let skipped: Vec<ObjId> = heap.alloc_copies(ObjRef::I64(&[0]), gap as usize).collect();
            skipped.into_iter().for_each(|id| heap.free(id));
            assert_eq!(heap.alloc_copies(data.view(), 1).next(), Some(id));
        }
    }

    #[test]
    fn lazy_private_copies_match_the_eager_reference() {
        let mut rng = Rng(0x13_c0de);
        // One `TxEffects` through all cases, so that later transactions
        // build their private copies in spent buffers full of earlier cases'
        // words.
        let (mut spent, mut with_spares) = (TxEffects::default(), 0);
        // Fresh objects written and read back at once, freed at once, and
        // committed.
        let (mut fresh_written, mut fresh_freed, mut fresh_committed) = (0, 0, 0);
        for case in 0..120 {
            let mode = [TrackMode::ReadsAndWrites, TrackMode::WritesOnly][case % 2];
            let (mut heap, ids_in_heap) = sized_heap(&mut rng);
            let mut ref_heap = Heap::new();
            for id in &ids_in_heap {
                ref_heap.alloc(heap.get(*id).to_owned());
            }
            // `(id, float, len)` of the snapshot's objects and of those the
            // transaction allocates.
            let mut objs: Vec<(ObjId, bool, usize)> = ids_in_heap
                .into_iter()
                .enumerate()
                .map(|(o, id)| (id, o % 2 == 1, SIZES[o]))
                .collect();
            let snap = heap.snapshot();
            with_spares += usize::from(!spent.cow.spare.is_empty());
            let mut tx = Tx::with_buffers(&snap, mode, ids(), u64::MAX, spent);
            let mut eager = EagerTx::new(&snap, mode);
            let mut live: Vec<usize> = (0..objs.len()).collect();
            for step in 0..8 + rng.below(40) {
                let at = rng.below(live.len());
                let o = live[at];
                let (id, float, len) = objs[o];
                let ctx = format!("case {case} step {step} {mode:?} obj {o}");
                match rng.below(21) {
                    // A guarded row: reads of the shared row and of the
                    // private one, word by word and whole; writers with
                    // in-order and out-of-order writes and reads of written
                    // and unwritten words, one or several per row,
                    // sometimes a writer that writes nothing.
                    16..=18 if float => {
                        let (lo, hi) = rng.range(len);
                        let script: Vec<RowStep> = (0..rng.below(8))
                            .map(|_| match rng.below(4) {
                                0 => RowStep::Words,
                                1 => RowStep::Get(rng.below(hi - lo)),
                                _ => RowStep::Writer(
                                    (0..rng.below(6))
                                        .map(|_| {
                                            let j = rng.below(hi - lo);
                                            (j, (rng.below(3) > 0).then(|| rng.small()))
                                        })
                                        .collect(),
                                ),
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
                    // An alloc, its object sometimes written and read back,
                    // or freed, at once; later steps pick it like any
                    // other live object.
                    19..=20 => {
                        let (float, len) = (rng.below(2) == 1, SIZES[rng.below(SIZES.len())]);
                        let words = (0..len).map(|_| rng.small());
                        let data = if float {
                            ObjData::F64(words.map(|w| w as f64).collect())
                        } else {
                            ObjData::I64(words.collect())
                        };
                        let fresh = tx.alloc(data.clone());
                        assert_eq!(eager.alloc(data), fresh, "{ctx}");
                        match rng.below(3) {
                            0 => {
                                let (i, v) = (rng.below(len), rng.small());
                                tx_write(&mut tx, float, fresh, i, v);
                                eager.write(fresh, i, &[v]);
                                assert_eq!(tx_read(&mut tx, float, fresh, i), v, "{ctx}");
                                assert_eq!(eager.read(fresh, i, i + 1), [v], "{ctx}");
                                fresh_written += 1;
                            }
                            1 => {
                                tx.free(fresh);
                                eager.free(fresh);
                                fresh_freed += 1;
                                continue;
                            }
                            _ => {}
                        }
                        objs.push((fresh, float, len));
                        live.push(objs.len() - 1);
                    }
                    _ if live.len() > 1 && rng.below(3) == 0 => {
                        tx.free(id);
                        eager.free(id);
                        live.swap_remove(at);
                    }
                    _ => assert_eq!(tx.len(id), len, "{ctx}"),
                }
            }
            // A freed object is gone: any access to it panics in the
            // transaction, names it, and leaves the transaction as it was.
            if !eager.freed.is_empty() {
                let id = eager.freed[rng.below(eager.freed.len())];
                let o = objs.iter().position(|x| x.0 == id).expect("one of ours");
                let (_, float, len) = objs[o];
                let (access, i, (lo, hi)) = (rng.below(8), rng.below(len), rng.range(len));
                let ctx = format!("case {case} {mode:?} freed obj {o}, access {access}");
                let touched =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match access {
                        0 => drop(tx_read(&mut tx, float, id, i)),
                        1 => tx_write(&mut tx, float, id, i, 1),
                        2 => drop(tx_range(&mut tx, float, id, lo, hi)),
                        3 => drop(tx_update(&mut tx, float, id, lo, hi, 1)),
                        4 => tx_write_range(&mut tx, float, id, lo, &vec![1; hi - lo]),
                        5 if float => {
                            let script = [RowStep::Words, RowStep::Writer(vec![(0, Some(1))])];
                            drop(tx_row(&mut tx, id, lo, hi, &script));
                        }
                        6 => drop(tx.len(id)),
                        _ => tx.free(id),
                    }));
                let payload = touched.expect_err(&ctx);
                let message = payload.downcast_ref::<String>().expect("a message");
                assert!(message.contains(&format!("freed {id}")), "{ctx}: {message}");
            }
            let (mut fx, want) = (tx.finish(), eager.finish());
            let ctx = format!("case {case} {mode:?}");
            // The sets are built from the logs in `finish`, the reference's
            // by one ordered insert per access.
            assert_eq!(fx.reads, want.reads, "{ctx}");
            assert_eq!(fx.writes, want.writes, "{ctx}");
            assert_eq!(fx.stats, want.stats, "{ctx}");
            // Which objects are copies (0), fresh (1) and freed (2).
            let entries = |fx: &TxEffects| {
                let tag = |local: &Local| match local {
                    Local::Copy { .. } => 0,
                    Local::Fresh(_) => 1,
                    Local::Freed => 2,
                };
                let mut entries: Vec<(ObjId, u8)> =
                    fx.overlay.iter().map(|(id, l)| (*id, tag(l))).collect();
                entries.sort_unstable();
                entries
            };
            assert_eq!(entries(&fx), entries(&want), "{ctx}");
            assert_eq!(fx.footprint(), want.footprint(), "{ctx}");
            fresh_committed += usize::from(fx.footprint().allocs > 0);
            drop(snap);
            heap.commit(&fx);
            commit_word_by_word(&mut ref_heap, &want);
            assert_eq!(heap.digest(), ref_heap.digest(), "{ctx}");
            fx.reset();
            spent = fx;
        }
        assert!(with_spares > 0, "no case was built on a spare");
        let fresh = [fresh_written, fresh_freed, fresh_committed];
        assert!(
            fresh.iter().all(|&n| n > 10),
            "fresh-object cases: {fresh:?}"
        );
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
                            } else if !is_read {
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
                                tx.row_f64s(objs[o], lo, hi, |row| row.writer().set(j, 0.0));
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
        assert_eq!(valid_blocks(&tx, big), 2, "of {}", 8192 / BLOCK_WORDS);
        assert_eq!(tx.read_i64(big, 8191), 8191, "a read fills its own block");
        assert_eq!(valid_blocks(&tx, big), 3);
        // Two blocks or fewer: cloned whole, as before.
        tx.write_i64(small, 0, -1);
        assert_eq!(valid_blocks(&tx, small), 2);
        // An object with no invalid block left drops out of the bookkeeping.
        tx.write_i64s(big, 0, &vec![7; 8192]);
        assert_eq!(valid_blocks(&tx, big), 8192 / BLOCK_WORDS);
        assert!(matches!(tx.overlay[&big], Local::Copy { lazy: None, .. }));
        let fx = tx.finish();
        assert_eq!(copy_of(&fx, big).i64s()[8191], 7);
    }

    #[test]
    fn a_commit_copies_into_the_page_and_keeps_long_copies_for_reuse() {
        // One object short enough to be cloned whole, one long enough to be
        // copied lazily; a whole write of each, then a partial one.
        for len in [EAGER_MAX_WORDS / 2, 3 * EAGER_MAX_WORDS] {
            for whole in [true, false] {
                let ctx = format!("{len} words, whole {whole}");
                let mut h = Heap::new();
                let a = h.alloc(ObjData::zeros_i64(len));
                let committed = h.get(a).i64s().as_ptr();
                let snap = h.snapshot();
                let mut tx = Tx::new(&snap, TrackMode::WritesOnly, ids(), u64::MAX);
                if whole {
                    tx.write_i64s(a, 0, &vec![7; len]);
                } else {
                    tx.write_i64(a, 1, 7);
                }
                let mut fx = tx.finish();
                drop(snap);
                h.commit(&fx);
                let want: Vec<i64> = (0..len)
                    .map(|i| if whole || i == 1 { 7 } else { 0 })
                    .collect();
                assert_eq!(h.get(a).i64s(), want, "{ctx}");
                assert_eq!(h.get(a).i64s().as_ptr(), committed, "{ctx}: in place");
                // The private copy the commit read is still in the effects,
                // and resetting them keeps it as a spare if it is long.
                assert_eq!(copy_of(&fx, a).i64s(), want, "{ctx}");
                fx.reset();
                let long = len > EAGER_MAX_WORDS;
                assert_eq!(fx.cow.spare.len(), usize::from(long), "{ctx}: a spare");
            }
        }
    }

    #[test]
    fn reset_effects_come_back_empty_with_capacity() {
        let mut h = Heap::new();
        let long = h.alloc(ObjData::zeros_f64(3 * EAGER_MAX_WORDS));
        let short = h.alloc(ObjData::scalar_i64(1));
        let snap = h.snapshot();
        let mut tx = Tx::new(&snap, TrackMode::ReadsAndWrites, ids(), u64::MAX);
        tx.read_i64(short, 0);
        tx.write_i64(short, 0, 2);
        tx.write_f64(long, 5, 1.0);
        tx.alloc(ObjData::zeros_f64(3 * EAGER_MAX_WORDS));
        tx.free(short);
        // Rejected: nothing commits, so the long private copy, the alloc
        // and the free are still in the overlay.
        let mut fx = tx.finish();
        assert_eq!((fx.footprint().allocs, fx.footprint().frees), (1, 1));
        let caps = |f: &TxEffects| [&f.reads, &f.writes].map(AccessSet::capacity);
        let (overlay, sets) = (fx.overlay.capacity(), caps(&fx));
        fx.reset();
        assert!(fx.is_reset(), "{fx:?}");
        assert_eq!(fx.overlay.capacity(), overlay, "capacity is kept");
        assert_eq!(caps(&fx), sets, "capacity is kept");
        // The long private copy is a spare, and the next transaction writes
        // into it; the alloc is dropped, not kept as a second spare.
        assert_eq!(fx.cow.spare.len(), 1);
        let spare = fx.cow.spare[0].f64s().as_ptr();
        let mut tx = Tx::with_buffers(&snap, TrackMode::WritesOnly, ids(), u64::MAX, fx);
        tx.write_f64(long, 0, 3.0);
        assert_eq!(copy_of(&tx.finish(), long).f64s().as_ptr(), spare);
    }
}
