//! Read and write sets.
//!
//! The runtime library in the paper stores instrumented addresses "in a
//! (local) hash set as well as a (global) array. The hash set allows quick
//! elimination of duplicates, while the global array allows other processes
//! to check for conflicts" (§4.1). Duplicates go here by sorting instead: a
//! transaction appends its accesses to a log, and the log is sorted and
//! coalesced once into an [`AccessSet`], a sorted array of `(allocation,
//! lo, hi)` word ranges. That array plays the paper's global array: it is
//! what other transactions' validation walks.

use crate::fx::FxHasher;
use crate::object::ObjId;
use std::hash::Hasher as _;

/// Words per fingerprint block: accesses are fingerprinted at the
/// granularity of `(allocation, word >> FINGERPRINT_BLOCK_SHIFT)`, so one
/// hash covers a 64-word block.
const FINGERPRINT_BLOCK_SHIFT: u32 = 6;

/// A 128-bit Bloom-style summary of an access set, built on demand by
/// [`AccessSet::fingerprint`]. No validation path reads it: the validator
/// and the DPOR checker compare the exact sets.
///
/// Each `(ObjId, word-block)` pair of the set sets two bits derived from
/// its deterministic FxHash. The only guarantee is one-sided: if two
/// fingerprints share no bit, the underlying sets share no
/// `(allocation, word)` — so [`Fingerprint::may_intersect`] returning
/// `false` proves [`AccessSet::overlaps`] is `false`.
///
/// ```
/// use alter_heap::{AccessSet, ObjId};
/// let mut a = AccessSet::new();
/// a.insert(ObjId::from_index(1), 0, 8);
/// let mut b = AccessSet::new();
/// b.insert(ObjId::from_index(2), 0, 8);
/// if !a.fingerprint().may_intersect(b.fingerprint()) {
///     assert!(!a.overlaps(&b)); // the rejection is always sound
/// }
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint {
    bits: [u64; 2],
}

impl Fingerprint {
    /// The empty fingerprint (matches the empty set).
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one `(allocation, block)` element in.
    #[inline]
    fn insert_block(&mut self, id: ObjId, block: u32) {
        let mut h = FxHasher::default();
        h.write_u32(id.index());
        h.write_u32(block);
        let hash = h.finish();
        // Two independent bit positions in 0..128 from disjoint hash bits.
        let b1 = (hash & 127) as usize;
        let b2 = ((hash >> 7) & 127) as usize;
        self.bits[b1 >> 6] |= 1u64 << (b1 & 63);
        self.bits[b2 >> 6] |= 1u64 << (b2 & 63);
    }

    /// Folds the blocks covered by words `lo..hi` of `id` in.
    #[inline]
    fn insert_range(&mut self, id: ObjId, lo: u32, hi: u32) {
        debug_assert!(lo < hi);
        for block in (lo >> FINGERPRINT_BLOCK_SHIFT)..=((hi - 1) >> FINGERPRINT_BLOCK_SHIFT) {
            self.insert_block(id, block);
        }
    }

    /// Whether the sets behind the two fingerprints *may* share an element.
    /// `false` is a proof of disjointness; `true` says nothing.
    #[inline]
    pub fn may_intersect(self, other: Fingerprint) -> bool {
        (self.bits[0] & other.bits[0]) | (self.bits[1] & other.bits[1]) != 0
    }

    /// Whether no element was ever folded in.
    pub fn is_empty(self) -> bool {
        self.bits == [0, 0]
    }
}

/// Tracked accesses in program order, not yet folded into an [`AccessSet`].
///
/// Recording an access is a push — or nothing at all when it continues the
/// previous one — and [`AccessSet::absorb`] pays the sort and the coalescing
/// once for the whole log, so the cost of an instrumented access does not
/// depend on how many ranges the transaction already holds.
#[derive(Debug, Default)]
pub(crate) struct AccessLog {
    entries: Vec<(ObjId, u32, u32)>,
}

impl AccessLog {
    /// Records an access to words `lo..hi` of `id` and returns an upper
    /// bound on the words it newly covers: its length, or what it adds to
    /// the previous entry when it starts inside or right after it.
    #[inline]
    pub(crate) fn push(&mut self, id: ObjId, lo: u32, hi: u32) -> u64 {
        if lo >= hi {
            return 0;
        }
        if let Some(last) = self.entries.last_mut() {
            if last.0 == id && last.1 <= lo && lo <= last.2 {
                let added = hi.saturating_sub(last.2);
                last.2 += added;
                return u64::from(added);
            }
        }
        self.entries.push((id, lo, hi));
        u64::from(hi - lo)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A read or write set: the touched words as `(allocation, lo, hi)`
/// half-open ranges, in ascending `(allocation, lo)` order. Within an
/// allocation the ranges are pairwise disjoint and non-adjacent, so the
/// list is canonical: equal sets hold equal lists, and the trace renders
/// the list as it is (`obj:lo-hi,…`).
///
/// ```
/// use alter_heap::{AccessSet, ObjId};
/// let (a, b) = (ObjId::from_index(1), ObjId::from_index(2));
/// let mut reads = AccessSet::new();
/// reads.insert(a, 4, 8);
/// reads.insert(a, 0, 4); // coalesces with the range after it
/// assert_eq!(reads.range_count(), 1);
/// let mut writes = AccessSet::new();
/// writes.insert(b, 0, 16); // different allocation: no conflict
/// assert!(!reads.overlaps(&writes));
/// writes.insert(a, 7, 9); // one shared word: conflict
/// assert_eq!(reads.first_overlap(&writes), Some((a, 7)));
/// assert_eq!(writes.iter_sorted().next(), Some((a, 7, 9)));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AccessSet {
    /// Sorted by `(allocation, lo)`; per allocation disjoint, non-adjacent.
    entries: Vec<(ObjId, u32, u32)>,
    /// Σ `hi - lo` over `entries`, so that [`AccessSet::words`] never walks
    /// the list.
    words: u64,
}

impl AccessSet {
    /// Creates an empty access set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an access to words `lo..hi` of `id`, merging it with the
    /// ranges it overlaps or touches. Inserting an empty range is a no-op.
    pub fn insert(&mut self, id: ObjId, lo: u32, hi: u32) {
        if lo >= hi {
            return;
        }
        // Fast path: at or after the last range (accesses mostly ascend).
        if let Some(last) = self.entries.last_mut() {
            if (id, lo) >= (last.0, last.1) {
                if id == last.0 && lo <= last.2 {
                    let added = hi.saturating_sub(last.2);
                    last.2 += added;
                    self.words += u64::from(added);
                } else {
                    self.entries.push((id, lo, hi));
                    self.words += u64::from(hi - lo);
                }
                return;
            }
        }
        // The merged range replaces the ranges of `id` it overlaps or
        // touches; what it adds is its length minus theirs.
        let start = self.entries.partition_point(|&(o, _, h)| (o, h) < (id, lo));
        let (mut end, mut new_lo, mut new_hi, mut absorbed) = (start, lo, hi, 0u64);
        while let Some(&(o, l, h)) = self.entries.get(end) {
            if o != id || l > new_hi {
                break;
            }
            absorbed += u64::from(h - l);
            new_lo = new_lo.min(l);
            new_hi = new_hi.max(h);
            end += 1;
        }
        self.entries.splice(start..end, [(id, new_lo, new_hi)]);
        self.words += u64::from(new_hi - new_lo) - absorbed;
    }

    /// Records an access to a single word.
    pub fn insert_word(&mut self, id: ObjId, word: u32) {
        self.insert(id, word, word + 1);
    }

    /// Whether this set shares any (allocation, word) with `other`.
    ///
    /// This is the conflict test at the heart of validation: `FULL` compares
    /// reads∪writes against writes, `WAW` writes against writes, `RAW` reads
    /// against writes (paper §4.2).
    pub fn overlaps(&self, other: &AccessSet) -> bool {
        self.first_overlap(other).is_some()
    }

    /// The lowest `(allocation, word)` shared with `other`, in ascending
    /// [`ObjId`] then word order; `None` if the sets are disjoint.
    ///
    /// One merge walk over the two lists, which meets the shared words in
    /// ascending order and so stops at the lowest. When one list is much
    /// shorter, its ranges instead each binary-search the longer one.
    pub fn first_overlap(&self, other: &AccessSet) -> Option<(ObjId, u32)> {
        let (small, big) = if self.entries.len() <= other.entries.len() {
            (&self.entries, &other.entries)
        } else {
            (&other.entries, &self.entries)
        };
        let log_big = (usize::BITS - big.len().leading_zeros()) as usize;
        if small.len() * log_big < big.len() {
            let mut at = 0;
            for &(id, lo, hi) in small {
                // The first range of `big` not wholly below `lo` of `id`;
                // later ranges of `small` start higher still.
                at += big[at..].partition_point(|&(o, _, h)| (o, h) <= (id, lo));
                match big.get(at) {
                    Some(&(o, l, _)) if o == id && l < hi => return Some((id, lo.max(l))),
                    Some(_) => {}
                    None => return None,
                }
            }
            return None;
        }
        let (mut i, mut j) = (0, 0);
        while let (Some(&(a, a_lo, a_hi)), Some(&(b, b_lo, b_hi))) = (small.get(i), big.get(j)) {
            if (a, a_hi) <= (b, b_lo) {
                i += 1;
            } else if (b, b_hi) <= (a, a_lo) {
                j += 1;
            } else {
                return Some((a, a_lo.max(b_lo)));
            }
        }
        None
    }

    /// Whether any of words `lo..hi` of `id` is present.
    pub fn contains_range(&self, id: ObjId, lo: u32, hi: u32) -> bool {
        let at = self
            .entries
            .partition_point(|&(o, _, h)| (o, h) <= (id, lo));
        let first = self.entries.get(at);
        lo < hi && first.is_some_and(|&(o, l, _)| o == id && l < hi)
    }

    /// The ranges recorded for `id`, in ascending order (empty if none).
    pub fn ranges(&self, id: ObjId) -> &[(ObjId, u32, u32)] {
        let start = self.entries.partition_point(|&(o, ..)| o < id);
        let len = self.entries[start..].partition_point(|&(o, ..)| o == id);
        &self.entries[start..start + len]
    }

    /// Merges `other` into `self`.
    pub fn union_with(&mut self, other: &AccessSet) {
        self.entries.extend_from_slice(&other.entries);
        self.normalize();
    }

    /// Folds `log` into the set and empties it, keeping its capacity. The
    /// result is the set that inserting the log's entries one by one would
    /// have built.
    pub(crate) fn absorb(&mut self, log: &mut AccessLog) {
        if !log.entries.is_empty() {
            self.entries.append(&mut log.entries);
            self.normalize();
        }
    }

    /// Sorts and coalesces `entries` and recounts `words`. The sort is
    /// stable, so a list that is a few ascending runs (a sorted set plus a
    /// log of sweeps) is merged as runs.
    fn normalize(&mut self) {
        self.entries.sort();
        self.entries.dedup_by(|next, kept| {
            let merge = next.0 == kept.0 && next.1 <= kept.2;
            if merge {
                kept.2 = kept.2.max(next.2);
            }
            merge
        });
        self.words = self.entries.iter().map(|&(_, l, h)| u64::from(h - l)).sum();
    }

    /// Total words covered across all allocations.
    pub fn words(&self) -> u64 {
        self.words
    }

    /// Total number of maximal ranges across all allocations (each maps to
    /// one instrumentation record).
    pub fn range_count(&self) -> usize {
        self.entries.len()
    }

    /// Whether no access has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Ranges the list holds room for without growing.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Removes all recorded accesses, retaining capacity (the recycling
    /// [`crate::TxEffects::reset`] relies on).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.words = 0;
    }

    /// The Bloom-style fingerprint of this set (empty set ⇒ empty
    /// fingerprint), built from its ranges on each call: one hash per
    /// 64-word block a range touches. Nothing in the runtime calls it; the
    /// wall-clock benchmark's `sets.fingerprint_ns` probe times this build.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut fp = Fingerprint::new();
        for &(id, lo, hi) in &self.entries {
            fp.insert_range(id, lo, hi);
        }
        fp
    }

    /// The ranges as `(allocation, lo, hi)`, in ascending order.
    pub fn iter_sorted(&self) -> impl Iterator<Item = (ObjId, u32, u32)> + '_ {
        self.entries.iter().copied()
    }

    /// Word-block disjointness scan against `other`: walks the allocations
    /// both sets hold in ascending order, each as two streams of `(64-word
    /// block, u64 occupancy mask)` pairs — one lane comparison per common
    /// block instead of one per word — and returns `(overlap,
    /// words_compared)`. The verdict is exact (masks are exact occupancy, so
    /// it always equals [`AccessSet::overlaps`]); `words_compared` charges
    /// each common block the smaller side's popcount, the work a
    /// word-granular probe of that block would not have been able to skip.
    /// Stops at the first colliding block.
    pub fn block_scan(&self, other: &AccessSet) -> (bool, u64) {
        let mut words = 0u64;
        for mine in self.entries.chunk_by(|a, b| a.0 == b.0) {
            let theirs = other.ranges(mine[0].0);
            let (mut a, mut b) = (BlockMasks::new(mine), BlockMasks::new(theirs));
            let (mut x, mut y) = (a.next(), b.next());
            while let (Some((ab, am)), Some((bb, bm))) = (x, y) {
                match ab.cmp(&bb) {
                    std::cmp::Ordering::Less => x = a.next(),
                    std::cmp::Ordering::Greater => y = b.next(),
                    std::cmp::Ordering::Equal => {
                        words += u64::from(am.count_ones().min(bm.count_ones()));
                        if am & bm != 0 {
                            return (true, words);
                        }
                        x = a.next();
                        y = b.next();
                    }
                }
            }
        }
        (false, words)
    }
}

/// Streams one allocation's ranges as `(block, occupancy mask)` pairs in
/// ascending block order, skipping blocks the set does not touch.
struct BlockMasks<'a> {
    ranges: &'a [(ObjId, u32, u32)],
    /// First range not yet fully consumed.
    idx: usize,
    /// Next block to emit (valid while `idx < ranges.len()`).
    block: u32,
}

impl<'a> BlockMasks<'a> {
    fn new(ranges: &'a [(ObjId, u32, u32)]) -> Self {
        let block = ranges.first().map_or(0, |r| r.1 >> FINGERPRINT_BLOCK_SHIFT);
        BlockMasks {
            ranges,
            idx: 0,
            block,
        }
    }
}

impl Iterator for BlockMasks<'_> {
    type Item = (u32, u64);

    fn next(&mut self) -> Option<(u32, u64)> {
        if self.idx >= self.ranges.len() {
            return None;
        }
        let block = self.block;
        let base = u64::from(block) << FINGERPRINT_BLOCK_SHIFT;
        let mut mask = 0u64;
        let mut j = self.idx;
        while j < self.ranges.len() && u64::from(self.ranges[j].1) < base + 64 {
            let (lo, hi) = (u64::from(self.ranges[j].1), u64::from(self.ranges[j].2));
            let s = lo.max(base) - base;
            let e = hi.min(base + 64) - base;
            debug_assert!(s < e, "ranges are non-empty and sorted");
            mask |= if e - s == 64 {
                u64::MAX
            } else {
                ((1u64 << (e - s)) - 1) << s
            };
            if hi > base + 64 {
                break; // range continues into the next block
            }
            j += 1;
        }
        self.idx = j;
        if j < self.ranges.len() {
            self.block = (block + 1).max(self.ranges[j].1 >> FINGERPRINT_BLOCK_SHIFT);
        }
        Some((block, mask))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u32) -> ObjId {
        ObjId::from_index(n)
    }

    // The `rangeset_*` tests check the ranges of one allocation.

    #[test]
    fn rangeset_coalesces_adjacent_and_overlapping() {
        let mut r = AccessSet::new();
        r.insert(id(1), 0, 2);
        r.insert(id(1), 2, 4); // adjacent
        assert_eq!(r.range_count(), 1);
        assert_eq!(r.words(), 4);
        r.insert(id(1), 10, 12);
        r.insert(id(1), 1, 11); // bridges both
        assert_eq!(r.range_count(), 1);
        assert_eq!(r.words(), 12);
    }

    #[test]
    fn rangeset_out_of_order_inserts() {
        let mut r = AccessSet::new();
        r.insert(id(1), 10, 20);
        r.insert(id(1), 0, 5);
        r.insert(id(1), 30, 40);
        assert_eq!(r.range_count(), 3);
        let contains = |w: u32| r.contains_range(id(1), w, w + 1);
        assert!(contains(0));
        assert!(contains(19));
        assert!(!contains(20));
        assert!(!contains(25));
        assert!(contains(39));
    }

    #[test]
    fn rangeset_empty_insert_is_noop() {
        let mut r = AccessSet::new();
        r.insert(id(1), 5, 5);
        assert!(r.is_empty());
        assert!(!r.contains_range(id(1), 0, 100));
    }

    #[test]
    fn rangeset_overlap_tests() {
        let mut a = AccessSet::new();
        a.insert(id(1), 0, 10);
        a.insert(id(1), 20, 30);
        let mut b = AccessSet::new();
        b.insert(id(1), 10, 20);
        assert!(!a.overlaps(&b));
        b.insert(id(1), 29, 35);
        assert!(a.overlaps(&b));
        assert!(a.contains_range(id(1), 5, 6));
        assert!(!a.contains_range(id(1), 10, 20));
    }

    #[test]
    fn accessset_word_accounting() {
        let mut s = AccessSet::new();
        s.insert(id(1), 0, 4);
        s.insert(id(1), 2, 6); // 2 new words
        s.insert_word(id(2), 9);
        assert_eq!(s.words(), 7);
        assert_eq!(s.range_count(), 2);
    }

    #[test]
    fn accessset_overlap_requires_same_object_and_range() {
        let mut a = AccessSet::new();
        a.insert(id(1), 0, 4);
        let mut b = AccessSet::new();
        b.insert(id(2), 0, 4);
        assert!(!a.overlaps(&b));
        b.insert(id(1), 4, 8);
        assert!(!a.overlaps(&b));
        b.insert(id(1), 3, 4);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
    }

    #[test]
    fn accessset_union_and_clear() {
        let mut a = AccessSet::new();
        a.insert(id(1), 0, 2);
        let mut b = AccessSet::new();
        b.insert(id(1), 1, 3);
        b.insert(id(3), 0, 1);
        a.union_with(&b);
        assert_eq!(a.words(), 4);
        assert_eq!(
            a.iter_sorted().collect::<Vec<_>>(),
            [(id(1), 0, 3), (id(3), 0, 1)]
        );
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.words(), 0);
    }

    /// Minimal SplitMix64 for deterministic case generation.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, bound: u32) -> u32 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % u64::from(bound)) as u32
        }
    }

    /// What a set must equal: its words as a plain ordered set.
    type Naive = std::collections::BTreeSet<(ObjId, u32)>;

    /// Number of maximal runs of consecutive words per allocation.
    fn naive_range_count(naive: &Naive) -> usize {
        let mut prev = None;
        naive
            .iter()
            .filter(|&&(obj, w)| prev.replace((obj, w)) != Some((obj, w.wrapping_sub(1))))
            .count()
    }

    /// The words of a run of ranges.
    fn words_of(ranges: impl IntoIterator<Item = (ObjId, u32, u32)>) -> Naive {
        ranges
            .into_iter()
            .flat_map(|(obj, lo, hi)| (lo..hi).map(move |w| (obj, w)))
            .collect()
    }

    fn assert_matches_naive(set: &AccessSet, naive: &Naive, ctx: &str) {
        assert_eq!(&words_of(set.iter_sorted()), naive, "{ctx}: words");
        let listed: Vec<_> = set.iter_sorted().collect();
        assert!(
            listed
                .windows(2)
                .all(|w| (w[0].0, w[0].2) < (w[1].0, w[1].1)),
            "{ctx}: ascending, disjoint and non-adjacent: {listed:?}"
        );
        let summed: u64 = listed.iter().map(|&(_, lo, hi)| u64::from(hi - lo)).sum();
        assert_eq!(
            set.words(),
            summed,
            "{ctx}: words() against Σ range lengths"
        );
        assert_eq!(
            set.words(),
            naive.len() as u64,
            "{ctx}: words() against the model"
        );
        assert_eq!(
            set.range_count(),
            naive_range_count(naive),
            "{ctx}: range_count"
        );
    }

    /// Every query of `a` against `b` — and `ranges` and `contains_range`
    /// of `a` alone — against the two sets' models. Returns whether they
    /// overlap.
    fn assert_queries_match_naive(
        (a, na): (&AccessSet, &Naive),
        (b, nb): (&AccessSet, &Naive),
        rng: &mut Rng,
        ctx: &str,
    ) -> bool {
        let first = na.intersection(nb).next().copied();
        assert_eq!(a.first_overlap(b), first, "{ctx}: first_overlap");
        assert_eq!(b.first_overlap(a), first, "{ctx}: first_overlap, swapped");
        assert_eq!(a.overlaps(b), first.is_some(), "{ctx}: overlaps");
        assert_eq!(b.overlaps(a), first.is_some(), "{ctx}: overlaps, swapped");
        for (x, y) in [(a, b), (b, a)] {
            let (hit, words) = x.block_scan(y);
            assert_eq!(hit, first.is_some(), "{ctx}: block_scan verdict");
            assert!(
                words <= x.words().min(y.words()),
                "{ctx}: block accounting never exceeds the smaller side"
            );
        }
        for obj in (0..4).map(id) {
            let run = a.ranges(obj);
            assert!(run.iter().all(|r| r.0 == obj), "{ctx}: ranges({obj})");
            let model: Naive = na.iter().filter(|w| w.0 == obj).copied().collect();
            assert_eq!(words_of(run.iter().copied()), model, "{ctx}: ranges({obj})");
        }
        for _ in 0..16 {
            let (obj, lo) = (id(rng.below(4)), rng.below(300));
            let hi = lo + rng.below(8); // sometimes empty
            let model = (lo..hi).any(|w| na.contains(&(obj, w)));
            assert_eq!(
                a.contains_range(obj, lo, hi),
                model,
                "{ctx}: contains_range({obj}, {lo}, {hi})"
            );
        }
        first.is_some()
    }

    #[test]
    fn word_counts_and_ranges_match_a_naive_model() {
        let mut rng = Rng(0x5e75);
        let mut previous = (AccessSet::new(), Naive::new());
        let mut verdicts = [0u32; 2];
        for case in 0..300 {
            let objects = 1 + rng.below(3);
            // Small universes make duplicates, adjacency and bridges common;
            // the large one spreads ranges over several 64-word blocks.
            let universe = [24, 200, 3000][case % 3];
            let mut ops: Vec<(ObjId, u32, u32)> = Vec::new();
            match case % 5 {
                // Ascending and descending single-stride sweeps with gaps.
                0 | 1 => {
                    let stride = 1 + rng.below(3);
                    let mut at: Vec<u32> = (0..universe / stride).map(|i| i * stride).collect();
                    if case % 5 == 1 {
                        at.reverse();
                    }
                    for lo in at {
                        ops.push((id(rng.below(objects)), lo, lo + 1 + rng.below(2)));
                    }
                }
                // Islands first, then one range bridging at least three of them.
                2 => {
                    let obj = id(rng.below(objects));
                    for i in 0..6 {
                        ops.push((obj, i * 4, i * 4 + 1 + rng.below(2)));
                    }
                    let from = rng.below(3);
                    ops.push((obj, from * 4 + rng.below(2), (from + 3) * 4 - rng.below(2)));
                }
                // Anything, including duplicates and empty ranges.
                _ => {}
            }
            for _ in 0..rng.below(40) {
                let lo = rng.below(universe);
                let len = if rng.below(4) == 0 {
                    rng.below(70)
                } else {
                    rng.below(4)
                };
                ops.push((id(rng.below(objects)), lo, lo + len));
            }

            let mut naive = Naive::new();
            let (mut eager, mut logged, mut log) =
                (AccessSet::new(), AccessSet::new(), AccessLog::default());
            let (mut halves, mut union) = ([AccessSet::new(), AccessSet::new()], AccessSet::new());
            let mut half_models = [Naive::new(), Naive::new()];
            let mut bound = 0;
            for (i, &(obj, lo, hi)) in ops.iter().enumerate() {
                naive.extend((lo..hi).map(|w| (obj, w)));
                eager.insert(obj, lo, hi);
                assert_eq!(
                    eager.words(),
                    naive.len() as u64,
                    "case {case} op {i}: running count"
                );
                bound += log.push(obj, lo, hi);
                // Fold part-way through some cases: absorbing into a set that
                // already holds ranges is the merge, not the append.
                if case % 2 == 0 && i == ops.len() / 2 {
                    logged.absorb(&mut log);
                }
                halves[i % 2].insert(obj, lo, hi);
                half_models[i % 2].extend((lo..hi).map(|w| (obj, w)));
            }
            logged.absorb(&mut log);
            assert!(log.is_empty(), "case {case}: absorb drains the log");
            assert!(
                bound >= logged.words(),
                "case {case}: the log's count is an upper bound"
            );
            union.union_with(&halves[0]);
            union.union_with(&halves[1]);
            union.union_with(&halves[0]);
            assert_matches_naive(&eager, &naive, &format!("case {case} eager"));
            assert_matches_naive(&logged, &naive, &format!("case {case} logged"));
            assert_matches_naive(&union, &naive, &format!("case {case} union"));
            assert_eq!(logged, eager, "case {case}: one canonical list");

            // The queries, on two pairs: the halves (each built by inserts
            // in the ops' order), and the folded set against the previous
            // case's.
            let pairs = [
                ((&halves[0], &half_models[0]), (&halves[1], &half_models[1])),
                ((&logged, &naive), (&previous.0, &previous.1)),
            ];
            for (k, (a, b)) in pairs.into_iter().enumerate() {
                let ctx = format!("case {case} pair {k}");
                verdicts[usize::from(assert_queries_match_naive(a, b, &mut rng, &ctx))] += 1;
            }
            previous = (logged, naive);
        }
        // Both verdicts must be common for the comparison to mean anything.
        assert!(verdicts.iter().all(|&n| n > 100), "verdicts {verdicts:?}");
    }

    #[test]
    fn insert_reports_the_words_each_branch_adds() {
        let mut r = AccessSet::new();
        let mut added = |lo, hi| {
            let before = r.words();
            r.insert(id(1), lo, hi);
            r.words() - before
        };
        assert_eq!(added(10, 20), 10, "first range");
        assert_eq!(added(15, 25), 5, "tail extension counts only the new part");
        assert_eq!(added(12, 18), 0, "inside the tail: nothing new");
        assert_eq!(added(25, 26), 1, "adjacent to the tail");
        assert_eq!(added(40, 50), 10, "push");
        assert_eq!(added(60, 70), 10);
        assert_eq!(added(0, 5), 5, "splice in front, absorbing nothing");
        assert_eq!(added(5, 10), 5, "splice bridging two ranges exactly");
        assert_eq!(added(20, 65), 24, "splice absorbing three ranges");
        assert_eq!(added(3, 3), 0, "empty");
        assert_eq!(r.iter_sorted().collect::<Vec<_>>(), [(id(1), 0, 70)]);
        assert_eq!(r.words(), 70);
    }

    #[test]
    fn rangeset_first_overlap_finds_lowest_shared_word() {
        let mut a = AccessSet::new();
        a.insert(id(1), 0, 10);
        a.insert(id(1), 20, 30);
        let mut b = AccessSet::new();
        b.insert(id(1), 10, 20);
        assert_eq!(a.first_overlap(&b), None);
        b.insert(id(1), 25, 35);
        assert_eq!(a.first_overlap(&b), Some((id(1), 25)));
        let mut c = AccessSet::new();
        c.insert(id(1), 5, 6);
        c.insert(id(1), 22, 23);
        assert_eq!(a.first_overlap(&c), Some((id(1), 5)));
        assert_eq!(c.first_overlap(&a), Some((id(1), 5)));
    }

    #[test]
    fn accessset_first_overlap_is_deterministic_ascending() {
        let mut a = AccessSet::new();
        a.insert(id(7), 0, 4);
        a.insert(id(2), 8, 12);
        let mut b = AccessSet::new();
        b.insert(id(7), 2, 3);
        b.insert(id(2), 10, 11);
        // Both objects overlap; the lowest ObjId (and its lowest shared
        // word) must win whatever the order of insertion.
        assert_eq!(a.first_overlap(&b), Some((id(2), 10)));
        assert_eq!(b.first_overlap(&a), Some((id(2), 10)));
        let empty = AccessSet::new();
        assert_eq!(a.first_overlap(&empty), None);
    }

    #[test]
    fn rangeset_clear_retains_capacity() {
        let mut r = AccessSet::new();
        r.insert(id(1), 0, 2);
        r.insert(id(1), 10, 12);
        let cap = r.entries.capacity();
        assert!(cap >= 2);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.entries.capacity(), cap, "clear must not shrink");
        r.insert(id(1), 5, 7);
        assert_eq!(r.words(), 2);
    }

    #[test]
    fn fingerprint_reject_implies_no_overlap() {
        // Exhaustive-ish sweep of small disjoint pairs: whenever the
        // fingerprints reject, the exact answer must be "no overlap" —
        // and whenever the sets do overlap, the fingerprints must hit.
        for n in 0..64u32 {
            let mut a = AccessSet::new();
            let mut b = AccessSet::new();
            a.insert(id(n), n, n + 3);
            b.insert(id(n + 1), n, n + 3); // different allocation
            if !a.fingerprint().may_intersect(b.fingerprint()) {
                assert!(!a.overlaps(&b));
            }
            let mut c = AccessSet::new();
            c.insert(id(n), n + 1, n + 2); // genuine overlap with `a`
            assert!(a.overlaps(&c));
            assert!(
                a.fingerprint().may_intersect(c.fingerprint()),
                "a real overlap must never be fingerprint-rejected (n={n})"
            );
        }
    }

    #[test]
    fn fingerprint_survives_clone_and_union() {
        let mut a = AccessSet::new();
        a.insert(id(9), 100, golden());
        let b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut u = AccessSet::new();
        u.union_with(&a);
        assert!(
            u.fingerprint().may_intersect(a.fingerprint()),
            "union must carry the donor's blocks"
        );
    }

    fn golden() -> u32 {
        // A multi-block range, exercising the per-block fingerprint loop.
        100 + 3 * 64 + 7
    }

    #[test]
    fn empty_fingerprints_never_intersect() {
        let a = AccessSet::new();
        let mut b = AccessSet::new();
        assert!(!a.fingerprint().may_intersect(b.fingerprint()));
        b.insert(id(1), 0, 1);
        assert!(
            !a.fingerprint().may_intersect(b.fingerprint()),
            "empty set intersects nothing"
        );
    }

    /// A random access set: a handful of word ranges over a few objects.
    /// The geometry (few objects, 1024-word extents, 64-word fingerprint
    /// blocks) makes both rejects and genuine overlaps common.
    fn random_set(rng: &mut Rng) -> AccessSet {
        let mut set = AccessSet::new();
        for _ in 0..1 + rng.below(6) {
            let obj = id(rng.below(8));
            let lo = rng.below(1024);
            let hi = lo + 1 + rng.below(96);
            set.insert(obj, lo, hi);
        }
        set
    }

    /// Soundness over 2 000 seeded pairs: a fingerprint reject proves the
    /// exact merge-scan finds no overlap, and every real overlap is a
    /// fingerprint hit (the filter is one-sided, false positives only).
    #[test]
    fn fingerprint_reject_implies_exact_disjointness() {
        let mut rng = Rng(0x0005_eeda_11e5);
        let (mut rejects, mut overlaps) = (0u32, 0u32);
        for case in 0..2000 {
            let a = random_set(&mut rng);
            let b = random_set(&mut rng);
            let may = a.fingerprint().may_intersect(b.fingerprint());
            if !may {
                rejects += 1;
            }
            if a.overlaps(&b) {
                overlaps += 1;
                assert!(may, "case {case}: overlapping pair escaped the fingerprint");
            }
        }
        // The generator must exercise both sides of the property.
        assert!(rejects > 100, "only {rejects} rejects — geometry too dense");
        assert!(
            overlaps > 100,
            "only {overlaps} overlaps — geometry too sparse"
        );
    }

    #[test]
    fn accessset_iter_sorted_is_ascending() {
        let mut a = AccessSet::new();
        for n in [5u32, 1, 9, 3] {
            a.insert_word(id(n), 0);
        }
        let order: Vec<u32> = a.iter_sorted().map(|(i, ..)| i.index()).collect();
        assert_eq!(order, vec![1, 3, 5, 9]);
    }

    #[test]
    fn block_scan_verdicts_match_exact_overlap() {
        type Ranges = &'static [(u32, u32, u32)];
        let cases: &[(Ranges, Ranges)] = &[
            (&[(1, 0, 10)], &[(1, 10, 20)]),               // touching, disjoint
            (&[(1, 0, 10)], &[(1, 9, 12)]),                // overlap in block 0
            (&[(1, 0, 64)], &[(1, 64, 128)]),              // block-aligned, disjoint
            (&[(1, 0, 200)], &[(1, 120, 130)]),            // long range spans blocks
            (&[(1, 5, 6), (1, 700, 710)], &[(1, 6, 700)]), // interleaved, disjoint
            (&[(1, 5, 6), (1, 700, 710)], &[(1, 6, 701)]), // grazes the second range
            (&[], &[(1, 0, 4)]),                           // empty side
            (&[(1, 63, 65)], &[(1, 64, 66)]),              // straddles a block seam
            (&[(1, 63, 64)], &[(1, 64, 66)]),              // disjoint across the seam
            (&[(1, 0, 8), (2, 0, 8)], &[(2, 8, 9), (3, 0, 8)]), // shared words, other objects
            (&[(1, 0, 8), (2, 0, 8)], &[(0, 0, 8), (2, 7, 9)]), // hit in the second object
        ];
        for (i, (aw, bw)) in cases.iter().enumerate() {
            let mut a = AccessSet::new();
            let mut b = AccessSet::new();
            for &(o, l, h) in *aw {
                a.insert(id(o), l, h);
            }
            for &(o, l, h) in *bw {
                b.insert(id(o), l, h);
            }
            let (hit, words) = a.block_scan(&b);
            assert_eq!(hit, a.overlaps(&b), "case {i}: verdicts must agree");
            assert_eq!(hit, b.block_scan(&a).0, "case {i}: symmetric verdict");
            assert!(
                words <= a.words().min(b.words()),
                "case {i}: block accounting never exceeds the smaller side"
            );
        }
    }
}
