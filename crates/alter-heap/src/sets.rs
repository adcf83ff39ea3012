//! Read and write sets.
//!
//! The runtime library in the paper stores instrumented addresses "in a
//! (local) hash set as well as a (global) array. The hash set allows quick
//! elimination of duplicates, while the global array allows other processes
//! to check for conflicts" (§4.1). We keep the same structure: a
//! deterministic hash map from allocation to a set of word ranges, which
//! doubles as the structure other transactions probe during validation.

use crate::fx::{FxHashMap, FxHasher};
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

/// A sorted, coalesced set of half-open word ranges within one allocation.
///
/// ```
/// use alter_heap::RangeSet;
/// let mut r = RangeSet::new();
/// r.insert(0, 4);
/// r.insert(4, 8); // coalesces with the previous range
/// assert_eq!(r.range_count(), 1);
/// assert!(r.overlaps_range(6, 7));
/// assert!(!r.contains(8));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RangeSet {
    /// Sorted by `lo`, pairwise disjoint and non-adjacent.
    ranges: Vec<(u32, u32)>,
    /// Σ `hi - lo` over `ranges`, kept by every mutation so that
    /// [`RangeSet::words`] never walks the list.
    words: u64,
}

impl RangeSet {
    /// Creates an empty range set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `lo..hi`, merging with overlapping or adjacent ranges, and
    /// returns how many words that newly covered. Inserting an empty range
    /// is a no-op.
    pub fn insert(&mut self, lo: u32, hi: u32) -> u64 {
        if lo >= hi {
            return 0;
        }
        let added = self.insert_nonempty(lo, hi);
        self.words += added;
        added
    }

    /// [`RangeSet::insert`] below the bookkeeping: places the range and
    /// returns the words it added. Each branch knows its own delta, so
    /// nothing here is proportional to the number of ranges held except the
    /// `splice` of an out-of-order insert.
    fn insert_nonempty(&mut self, lo: u32, hi: u32) -> u64 {
        // Fast path: append or extend at the tail (the common access pattern
        // is monotonically increasing indices within a chunk).
        match self.ranges.last_mut() {
            Some(last) if lo >= last.0 => {
                if lo <= last.1 {
                    let added = hi.saturating_sub(last.1);
                    last.1 += added;
                    return u64::from(added);
                }
                self.ranges.push((lo, hi));
                return u64::from(hi - lo);
            }
            None => {
                self.ranges.push((lo, hi));
                return u64::from(hi - lo);
            }
            Some(_) => {}
        }
        // Slow path: general insert with coalescing. The merged range
        // replaces the ranges it absorbs; what it adds is its length minus
        // theirs.
        let start = self.ranges.partition_point(|&(_, h)| h < lo);
        let mut end = start;
        let mut new_lo = lo;
        let mut new_hi = hi;
        let mut absorbed = 0u64;
        while end < self.ranges.len() && self.ranges[end].0 <= new_hi {
            let (l, h) = self.ranges[end];
            absorbed += u64::from(h - l);
            new_lo = new_lo.min(l);
            new_hi = new_hi.max(h);
            end += 1;
        }
        self.ranges.splice(start..end, [(new_lo, new_hi)]);
        u64::from(new_hi - new_lo) - absorbed
    }

    /// Inserts `sorted` — ranges in ascending `lo` order, overlapping or
    /// not — in one pass over both lists, and returns how many words that
    /// newly covered.
    fn extend_sorted(&mut self, sorted: impl IntoIterator<Item = (u32, u32)>) -> u64 {
        let before = self.words;
        let mut new = sorted.into_iter().peekable();
        let Some(&(first_lo, _)) = new.peek() else {
            return 0;
        };
        if self.ranges.last().is_none_or(|last| last.0 <= first_lo) {
            // Everything lands at or after the tail: the common case (a
            // fresh set at `finish`, ascending commits), kept free of the
            // merge's set-up.
            for (lo, hi) in new {
                self.insert(lo, hi);
            }
            return self.words - before;
        }
        // Ranges that start at or before the first new one stay where they
        // are. The rest come off and go back on merged with the new ones in
        // ascending order, which makes every insert a tail insert.
        let keep = self.ranges.partition_point(|&(lo, _)| lo <= first_lo);
        let old = self.ranges.split_off(keep);
        self.words -= old.iter().map(|&(l, h)| u64::from(h - l)).sum::<u64>();
        let mut old = old.into_iter().peekable();
        while let Some((lo, hi)) = match (old.peek(), new.peek()) {
            (Some(a), Some(b)) if a.0 <= b.0 => old.next(),
            (Some(_), None) => old.next(),
            (_, Some(_)) => new.next(),
            (None, None) => None,
        } {
            self.insert(lo, hi);
        }
        self.words - before
    }

    /// Whether any word of `lo..hi` is present.
    pub fn overlaps_range(&self, lo: u32, hi: u32) -> bool {
        if lo >= hi {
            return false;
        }
        let i = self.ranges.partition_point(|&(_, h)| h <= lo);
        i < self.ranges.len() && self.ranges[i].0 < hi
    }

    /// Whether the two sets share any word.
    pub fn overlaps(&self, other: &RangeSet) -> bool {
        let (a, b) = (&self.ranges, &other.ranges);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if a[i].1 <= b[j].0 {
                i += 1;
            } else if b[j].1 <= a[i].0 {
                j += 1;
            } else {
                return true;
            }
        }
        false
    }

    /// The lowest word shared by the two sets, if any.
    pub fn first_overlap(&self, other: &RangeSet) -> Option<u32> {
        let (a, b) = (&self.ranges, &other.ranges);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if a[i].1 <= b[j].0 {
                i += 1;
            } else if b[j].1 <= a[i].0 {
                j += 1;
            } else {
                return Some(a[i].0.max(b[j].0));
            }
        }
        None
    }

    /// Whether a specific word is present.
    pub fn contains(&self, word: u32) -> bool {
        self.overlaps_range(word, word + 1)
    }

    /// Total number of words covered. O(1): a maintained count.
    pub fn words(&self) -> u64 {
        self.words
    }

    /// Number of maximal ranges.
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Removes all ranges, retaining the backing vector's capacity so a
    /// recycled set (see [`AccessSet::clear`] and [`crate::TxEffects::reset`])
    /// inserts without reallocating.
    pub fn clear(&mut self) {
        self.ranges.clear();
        self.words = 0;
    }

    /// Iterates over the maximal ranges in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.ranges.iter().copied()
    }

    /// Word-block disjointness scan against `other`: walks both sets as
    /// streams of `(64-word block, u64 occupancy mask)` pairs — one lane
    /// comparison per common block instead of one per word — and returns
    /// `(overlap, words_compared)`. The verdict is exact (masks are exact
    /// occupancy, so it always equals [`RangeSet::overlaps`]);
    /// `words_compared` charges each common block the smaller side's
    /// popcount, the work a word-granular probe of that block would not
    /// have been able to skip. Stops at the first overlapping block.
    pub fn block_scan(&self, other: &RangeSet) -> (bool, u64) {
        let mut a = BlockMasks::new(&self.ranges);
        let mut b = BlockMasks::new(&other.ranges);
        let (mut x, mut y) = (a.next(), b.next());
        let mut words = 0u64;
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
        (false, words)
    }
}

/// Streams a sorted range list as `(block, occupancy mask)` pairs in
/// ascending block order, skipping blocks the set does not touch.
struct BlockMasks<'a> {
    ranges: &'a [(u32, u32)],
    /// First range not yet fully consumed.
    idx: usize,
    /// Next block to emit (valid while `idx < ranges.len()`).
    block: u32,
}

impl<'a> BlockMasks<'a> {
    fn new(ranges: &'a [(u32, u32)]) -> Self {
        let block = ranges.first().map_or(0, |r| r.0 >> FINGERPRINT_BLOCK_SHIFT);
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
        while j < self.ranges.len() && u64::from(self.ranges[j].0) < base + 64 {
            let (lo, hi) = (u64::from(self.ranges[j].0), u64::from(self.ranges[j].1));
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
            self.block = (block + 1).max(self.ranges[j].0 >> FINGERPRINT_BLOCK_SHIFT);
        }
        Some((block, mask))
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

/// A read or write set: for each touched allocation, the set of touched
/// word ranges.
///
/// ```
/// use alter_heap::{AccessSet, ObjId};
/// let (a, b) = (ObjId::from_index(1), ObjId::from_index(2));
/// let mut reads = AccessSet::new();
/// reads.insert(a, 0, 16);
/// let mut writes = AccessSet::new();
/// writes.insert(b, 0, 16); // different allocation: no conflict
/// assert!(!reads.overlaps(&writes));
/// writes.insert(a, 15, 17); // one shared word: conflict
/// assert!(reads.overlaps(&writes));
/// ```
///
/// Iteration order over allocations is only exposed in sorted form
/// ([`AccessSet::iter_sorted`]) so that every consumer of the set is
/// deterministic — determinism is a headline guarantee of the runtime
/// (paper §4.3).
#[derive(Debug, Default)]
pub struct AccessSet {
    map: FxHashMap<ObjId, RangeSet>,
    words: u64,
    /// Cleared [`RangeSet`]s recycled by [`AccessSet::clear`]; their backing
    /// vectors keep their capacity and are reused by later inserts.
    spare: Vec<RangeSet>,
}

impl Clone for AccessSet {
    fn clone(&self) -> Self {
        AccessSet {
            map: self.map.clone(),
            words: self.words,
            // Spare capacity is a recycling detail of the original, not part
            // of the set's value.
            spare: Vec::new(),
        }
    }
}

/// The range set of `id` in `map`, started from a recycled one if `id` is
/// new to it. (A function of the two fields, so that callers can update the
/// set's word count beside it.)
fn ranges_mut<'m>(
    map: &'m mut FxHashMap<ObjId, RangeSet>,
    spare: &mut Vec<RangeSet>,
    id: ObjId,
) -> &'m mut RangeSet {
    map.entry(id)
        .or_insert_with(|| spare.pop().unwrap_or_default())
}

impl AccessSet {
    /// Creates an empty access set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an access to words `lo..hi` of `id`.
    pub fn insert(&mut self, id: ObjId, lo: u32, hi: u32) {
        if lo >= hi {
            return;
        }
        self.words += ranges_mut(&mut self.map, &mut self.spare, id).insert(lo, hi);
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
        // Probe from the smaller side.
        let (small, big) = if self.map.len() <= other.map.len() {
            (self, other)
        } else {
            (other, self)
        };
        for (id, ranges) in &small.map {
            if let Some(other_ranges) = big.map.get(id) {
                if ranges.overlaps(other_ranges) {
                    return true;
                }
            }
        }
        false
    }

    /// The first `(allocation, word)` shared with `other`, searched in
    /// deterministic order: ascending [`ObjId`], then lowest shared word.
    ///
    /// This is the slow sibling of [`AccessSet::overlaps`] used only on the
    /// conflict path, where validation has already failed and the trace
    /// wants to *name* the dependence that broke (which word, and below,
    /// which committed writer owns it).
    pub fn first_overlap(&self, other: &AccessSet) -> Option<(ObjId, u32)> {
        let mut best: Option<(ObjId, u32)> = None;
        for (id, ranges) in &self.map {
            if best.is_some_and(|(b, _)| b <= *id) {
                continue;
            }
            if let Some(other_ranges) = other.map.get(id) {
                if let Some(word) = ranges.first_overlap(other_ranges) {
                    best = Some((*id, word));
                }
            }
        }
        best
    }

    /// Whether words `lo..hi` of `id` are present.
    pub fn contains_range(&self, id: ObjId, lo: u32, hi: u32) -> bool {
        self.map.get(&id).is_some_and(|r| r.overlaps_range(lo, hi))
    }

    /// The range set recorded for `id`, if any.
    pub fn ranges(&self, id: ObjId) -> Option<&RangeSet> {
        self.map.get(&id)
    }

    /// Merges `other` into `self`: one lookup and one linear merge per
    /// allocation of `other`.
    pub fn union_with(&mut self, other: &AccessSet) {
        for (id, ranges) in &other.map {
            let set = ranges_mut(&mut self.map, &mut self.spare, *id);
            self.words += set.extend_sorted(ranges.iter());
        }
    }

    /// Folds `log` into the set and empties it, keeping its capacity: one
    /// sort of the log, then per allocation one lookup and one linear merge.
    /// The result is the set and word count that inserting the log's
    /// entries one by one would have built.
    pub(crate) fn absorb(&mut self, log: &mut AccessLog) {
        // Stable sort: a log is mostly a few ascending sweeps, which it
        // merges as runs.
        log.entries.sort();
        for group in log.entries.chunk_by(|a, b| a.0 == b.0) {
            let set = ranges_mut(&mut self.map, &mut self.spare, group[0].0);
            self.words += set.extend_sorted(group.iter().map(|&(_, lo, hi)| (lo, hi)));
        }
        log.entries.clear();
    }

    /// Total words covered across all allocations.
    pub fn words(&self) -> u64 {
        self.words
    }

    /// Number of distinct allocations touched.
    pub fn objects(&self) -> usize {
        self.map.len()
    }

    /// Total number of maximal ranges across all allocations (each maps to
    /// one instrumentation record).
    pub fn range_count(&self) -> usize {
        self.map.values().map(RangeSet::range_count).sum()
    }

    /// Whether no access has been recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Allocations the map holds room for without growing.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.map.capacity()
    }

    /// Removes all recorded accesses, retaining capacity: the allocation
    /// map keeps its table, and each per-allocation [`RangeSet`] is drained
    /// into a spare list for reuse by later inserts — the `clear()`-style
    /// recycling [`crate::TxEffects::reset`] relies on.
    pub fn clear(&mut self) {
        for (_, mut ranges) in self.map.drain() {
            ranges.clear();
            self.spare.push(ranges);
        }
        self.words = 0;
    }

    /// The Bloom-style fingerprint of this set (empty set ⇒ empty
    /// fingerprint), built from its ranges on each call: one hash per
    /// 64-word block a range touches. Nothing in the runtime calls it; the
    /// wall-clock benchmark's `sets.fingerprint_ns` probe times this build.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut fp = Fingerprint::new();
        for (id, ranges) in &self.map {
            for (lo, hi) in ranges.iter() {
                fp.insert_range(*id, lo, hi);
            }
        }
        fp
    }

    /// Iterates over `(allocation, ranges)` in ascending `ObjId` order.
    pub fn iter_sorted(&self) -> Vec<(ObjId, &RangeSet)> {
        let mut v: Vec<_> = self.map.iter().map(|(id, r)| (*id, r)).collect();
        v.sort_by_key(|(id, _)| *id);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u32) -> ObjId {
        ObjId::from_index(n)
    }

    #[test]
    fn rangeset_coalesces_adjacent_and_overlapping() {
        let mut r = RangeSet::new();
        r.insert(0, 2);
        r.insert(2, 4); // adjacent
        assert_eq!(r.range_count(), 1);
        assert_eq!(r.words(), 4);
        r.insert(10, 12);
        r.insert(1, 11); // bridges both
        assert_eq!(r.range_count(), 1);
        assert_eq!(r.words(), 12);
    }

    #[test]
    fn rangeset_out_of_order_inserts() {
        let mut r = RangeSet::new();
        r.insert(10, 20);
        r.insert(0, 5);
        r.insert(30, 40);
        assert_eq!(r.range_count(), 3);
        assert!(r.contains(0));
        assert!(r.contains(19));
        assert!(!r.contains(20));
        assert!(!r.contains(25));
        assert!(r.contains(39));
    }

    #[test]
    fn rangeset_empty_insert_is_noop() {
        let mut r = RangeSet::new();
        r.insert(5, 5);
        assert!(r.is_empty());
        assert!(!r.overlaps_range(0, 100));
    }

    #[test]
    fn rangeset_overlap_tests() {
        let mut a = RangeSet::new();
        a.insert(0, 10);
        a.insert(20, 30);
        let mut b = RangeSet::new();
        b.insert(10, 20);
        assert!(!a.overlaps(&b));
        b.insert(29, 35);
        assert!(a.overlaps(&b));
        assert!(a.overlaps_range(5, 6));
        assert!(!a.overlaps_range(10, 20));
    }

    #[test]
    fn accessset_word_accounting() {
        let mut s = AccessSet::new();
        s.insert(id(1), 0, 4);
        s.insert(id(1), 2, 6); // 2 new words
        s.insert_word(id(2), 9);
        assert_eq!(s.words(), 7);
        assert_eq!(s.objects(), 2);
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
        assert_eq!(a.objects(), 2);
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

    fn assert_matches_naive(set: &AccessSet, naive: &Naive, ctx: &str) {
        let listed: Naive = set
            .iter_sorted()
            .into_iter()
            .flat_map(|(obj, r)| {
                r.iter()
                    .flat_map(move |(lo, hi)| (lo..hi).map(move |w| (obj, w)))
            })
            .collect();
        assert_eq!(&listed, naive, "{ctx}: words");
        let summed: u64 = set
            .iter_sorted()
            .iter()
            .map(|(_, r)| r.iter().map(|(lo, hi)| u64::from(hi - lo)).sum::<u64>())
            .sum();
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
        for (_, r) in set.iter_sorted() {
            let own: u64 = r.iter().map(|(lo, hi)| u64::from(hi - lo)).sum();
            assert_eq!(r.words(), own, "{ctx}: RangeSet::words()");
        }
        assert_eq!(
            set.range_count(),
            naive_range_count(naive),
            "{ctx}: range_count"
        );
    }

    #[test]
    fn word_counts_and_ranges_match_a_naive_model() {
        let mut rng = Rng(0x5e75);
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
        }
    }

    #[test]
    fn insert_reports_the_words_each_branch_adds() {
        let mut r = RangeSet::new();
        assert_eq!(r.insert(10, 20), 10, "first range");
        assert_eq!(
            r.insert(15, 25),
            5,
            "tail extension counts only the new part"
        );
        assert_eq!(r.insert(12, 18), 0, "inside the tail: nothing new");
        assert_eq!(r.insert(25, 26), 1, "adjacent to the tail");
        assert_eq!(r.insert(40, 50), 10, "push");
        assert_eq!(r.insert(60, 70), 10);
        assert_eq!(r.insert(0, 5), 5, "splice in front, absorbing nothing");
        assert_eq!(r.insert(5, 10), 5, "splice bridging two ranges exactly");
        assert_eq!(r.insert(20, 65), 24, "splice absorbing three ranges");
        assert_eq!(r.insert(3, 3), 0, "empty");
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![(0, 70)]);
        assert_eq!(r.words(), 70);
    }

    #[test]
    fn rangeset_first_overlap_finds_lowest_shared_word() {
        let mut a = RangeSet::new();
        a.insert(0, 10);
        a.insert(20, 30);
        let mut b = RangeSet::new();
        b.insert(10, 20);
        assert_eq!(a.first_overlap(&b), None);
        b.insert(25, 35);
        assert_eq!(a.first_overlap(&b), Some(25));
        let mut c = RangeSet::new();
        c.insert(5, 6);
        c.insert(22, 23);
        assert_eq!(a.first_overlap(&c), Some(5));
        assert_eq!(c.first_overlap(&a), Some(5));
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
        // word) must win regardless of hash-map iteration order.
        assert_eq!(a.first_overlap(&b), Some((id(2), 10)));
        assert_eq!(b.first_overlap(&a), Some((id(2), 10)));
        let empty = AccessSet::new();
        assert_eq!(a.first_overlap(&empty), None);
    }

    #[test]
    fn rangeset_clear_retains_capacity() {
        let mut r = RangeSet::new();
        r.insert(0, 2);
        r.insert(10, 12);
        let cap = r.ranges.capacity();
        assert!(cap >= 2);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.ranges.capacity(), cap, "clear must not shrink");
        r.insert(5, 7);
        assert_eq!(r.words(), 2);
    }

    #[test]
    fn accessset_clear_recycles_rangesets() {
        let mut s = AccessSet::new();
        s.insert(id(1), 0, 4);
        s.insert(id(2), 8, 16);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.words(), 0);
        assert_eq!(s.spare.len(), 2, "cleared range sets are kept for reuse");
        s.insert(id(3), 0, 1);
        assert_eq!(s.spare.len(), 1, "a reused range set left the spare list");
        assert_eq!(s.words(), 1);
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
        let order: Vec<u32> = a.iter_sorted().iter().map(|(i, _)| i.index()).collect();
        assert_eq!(order, vec![1, 3, 5, 9]);
    }

    #[test]
    fn block_scan_verdicts_match_exact_overlap() {
        type Ranges = &'static [(u32, u32)];
        let cases: &[(Ranges, Ranges)] = &[
            (&[(0, 10)], &[(10, 20)]),            // touching, disjoint
            (&[(0, 10)], &[(9, 12)]),             // overlap in block 0
            (&[(0, 64)], &[(64, 128)]),           // block-aligned, disjoint
            (&[(0, 200)], &[(120, 130)]),         // long range spans blocks
            (&[(5, 6), (700, 710)], &[(6, 700)]), // interleaved, disjoint
            (&[(5, 6), (700, 710)], &[(6, 701)]), // grazes the second range
            (&[], &[(0, 4)]),                     // empty side
            (&[(63, 65)], &[(64, 66)]),           // straddles a block seam
            (&[(63, 64)], &[(64, 66)]),           // disjoint across the seam
        ];
        for (i, (aw, bw)) in cases.iter().enumerate() {
            let mut a = RangeSet::new();
            let mut b = RangeSet::new();
            for &(l, h) in *aw {
                a.insert(l, h);
            }
            for &(l, h) in *bw {
                b.insert(l, h);
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
