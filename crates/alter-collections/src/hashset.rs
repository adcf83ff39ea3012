//! `AlterHashSet` — a bucketized hash set in the transactional heap.
//!
//! The Genome benchmark's first step deduplicates segments by inserting
//! them into a shared hash set (§7, Table 2). Every insert *reads* a bucket
//! and then *writes* it, so — as the paper observes for Genome and SSCA2 —
//! "all variables that are read in the loop are also written to. Hence it
//! is sufficient to check for WAW conflicts alone", making StaleReads and
//! OutOfOrder equally correct while StaleReads skips read instrumentation.
//!
//! Buckets are separate allocations, so two inserts conflict only when they
//! hash to the same bucket; overflow chains are allocated transactionally
//! through the ALTER-allocator.

use alter_heap::{Heap, ObjData, ObjId, ObjRef};
use alter_runtime::TxCtx;

const NIL: i64 = -1;
// Bucket layout: [0] = count, [1] = overflow bucket id, [2..] = keys.
const COUNT: usize = 0;
const OVERFLOW: usize = 1;
const KEYS: usize = 2;

/// Deterministic 64-bit mix (splitmix64 finalizer).
fn mix(key: i64) -> u64 {
    let mut z = (key as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A hash set of `i64` keys stored in the transactional heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlterHashSet {
    directory: ObjId,
    buckets: usize,
    bucket_cap: usize,
}

impl AlterHashSet {
    /// Creates a set with `buckets` buckets of `bucket_cap` keys each
    /// (rounded up to at least 1; overflow chains extend capacity
    /// dynamically).
    pub fn new(heap: &mut Heap, buckets: usize, bucket_cap: usize) -> Self {
        let buckets = buckets.max(1);
        let bucket_cap = bucket_cap.max(1);
        // Every bucket starts as a copy of one empty bucket.
        let mut empty = vec![0i64; KEYS + bucket_cap];
        empty[OVERFLOW] = NIL;
        let ids: Vec<i64> = heap
            .alloc_copies(ObjRef::I64(&empty), buckets)
            .map(ObjId::to_i64)
            .collect();
        let directory = heap.alloc(ObjData::I64(ids));
        AlterHashSet {
            directory,
            buckets,
            bucket_cap,
        }
    }

    /// Number of top-level buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets
    }

    /// The directory object mapping bucket index to bucket [`ObjId`]
    /// (immutable after construction; used by static loop specs to
    /// enumerate the bucket allocations).
    pub fn directory(&self) -> ObjId {
        self.directory
    }

    fn bucket_of(&self, key: i64) -> usize {
        (mix(key) % self.buckets as u64) as usize
    }

    /// Inserts `key` inside a transaction; returns `true` if it was new.
    pub fn insert(&self, ctx: &mut TxCtx<'_>, key: i64) -> bool {
        // The directory is immutable after construction: read it without
        // instrumentation cost concerns (it is still tracked under RAW).
        let mut bucket = ObjId::from_i64(ctx.tx.read_i64(self.directory, self.bucket_of(key)));
        loop {
            let cap = ctx.tx.len(bucket) - KEYS;
            let (found, count, overflow) = ctx.tx.with_i64s(bucket, 0, KEYS + cap, |words| {
                let count = words[COUNT] as usize;
                let found = words[KEYS..KEYS + count].contains(&key);
                (found, count, words[OVERFLOW])
            });
            if found {
                return false;
            }
            if count < cap {
                ctx.tx.write_i64(bucket, KEYS + count, key);
                ctx.tx.write_i64(bucket, COUNT, count as i64 + 1);
                return true;
            }
            if overflow == NIL {
                let mut words = vec![0i64; KEYS + cap];
                words[COUNT] = 1;
                words[OVERFLOW] = NIL;
                words[KEYS] = key;
                let fresh = ctx.tx.alloc(ObjData::I64(words));
                ctx.tx.write_i64(bucket, OVERFLOW, fresh.to_i64());
                return true;
            }
            bucket = ObjId::from_i64(overflow);
        }
    }

    /// Whether `key` is present, inside a transaction.
    pub fn contains(&self, ctx: &mut TxCtx<'_>, key: i64) -> bool {
        let mut bucket = ObjId::from_i64(ctx.tx.read_i64(self.directory, self.bucket_of(key)));
        loop {
            let cap = ctx.tx.len(bucket) - KEYS;
            let (found, overflow) = ctx.tx.with_i64s(bucket, 0, KEYS + cap, |words| {
                let count = words[COUNT] as usize;
                (words[KEYS..KEYS + count].contains(&key), words[OVERFLOW])
            });
            if found {
                return true;
            }
            if overflow == NIL {
                return false;
            }
            bucket = ObjId::from_i64(overflow);
        }
    }

    /// Total keys stored (sequential code).
    pub fn seq_len(&self, heap: &Heap) -> usize {
        let mut total = 0;
        for &head in heap.get(self.directory).i64s() {
            let mut bucket = ObjId::from_i64(head);
            loop {
                let words = heap.get(bucket).i64s();
                total += words[COUNT] as usize;
                if words[OVERFLOW] == NIL {
                    break;
                }
                bucket = ObjId::from_i64(words[OVERFLOW]);
            }
        }
        total
    }

    /// All keys in deterministic (bucket, chain, slot) order (sequential
    /// code).
    pub fn seq_keys(&self, heap: &Heap) -> Vec<i64> {
        let mut out = Vec::new();
        for &head in heap.get(self.directory).i64s() {
            let mut bucket = ObjId::from_i64(head);
            loop {
                let words = heap.get(bucket).i64s();
                let count = words[COUNT] as usize;
                out.extend_from_slice(&words[KEYS..KEYS + count]);
                if words[OVERFLOW] == NIL {
                    break;
                }
                bucket = ObjId::from_i64(words[OVERFLOW]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alter_runtime::{ConflictPolicy, Driver, ExecParams, LoopBuilder};

    fn run_inserts(
        keys: &[i64],
        buckets: usize,
        cap: usize,
        conflict: ConflictPolicy,
    ) -> (Heap, AlterHashSet, alter_runtime::RunStats) {
        let mut heap = Heap::new();
        let set = AlterHashSet::new(&mut heap, buckets, cap);
        let keys = keys.to_vec();
        let mut params = ExecParams::new(4, 2);
        params.conflict = conflict;
        let stats = LoopBuilder::new(&params)
            .range(0, keys.len() as u64)
            .run(&mut heap, Driver::sequential(), |ctx, i| {
                set.insert(ctx, keys[i as usize]);
            })
            .unwrap();
        (heap, set, stats)
    }

    #[test]
    fn deduplicates_under_waw() {
        let keys: Vec<i64> = (0..50).map(|i| i % 17).collect();
        let (heap, set, _) = run_inserts(&keys, 64, 4, ConflictPolicy::Waw);
        assert_eq!(set.seq_len(&heap), 17);
        let mut got = set.seq_keys(&heap);
        got.sort_unstable();
        assert_eq!(got, (0..17).collect::<Vec<i64>>());
    }

    #[test]
    fn same_result_under_raw_and_waw() {
        // Genome property: every read is followed by a write of the same
        // object, so WAW and RAW agree.
        let keys: Vec<i64> = (0..200).map(|i| (i * 5) % 63).collect();
        let (h1, s1, _) = run_inserts(&keys, 16, 4, ConflictPolicy::Waw);
        let (h2, s2, _) = run_inserts(&keys, 16, 4, ConflictPolicy::Raw);
        let mut k1 = s1.seq_keys(&h1);
        let mut k2 = s2.seq_keys(&h2);
        k1.sort_unstable();
        k2.sort_unstable();
        assert_eq!(k1, k2);
        assert_eq!(s1.seq_len(&h1), 63);
    }

    #[test]
    fn overflow_chains_grow_transactionally() {
        // One bucket, capacity 2: inserting 10 distinct keys must chain.
        let keys: Vec<i64> = (0..10).collect();
        let (heap, set, stats) = run_inserts(&keys, 1, 2, ConflictPolicy::Waw);
        assert_eq!(set.seq_len(&heap), 10);
        assert!(stats.retries() > 0, "single bucket serializes inserts");
        for k in &keys {
            assert!(set.seq_keys(&heap).contains(k));
        }
    }

    #[test]
    fn contains_inside_transaction() {
        let mut heap = Heap::new();
        let set = AlterHashSet::new(&mut heap, 8, 4);
        let params = ExecParams::new(1, 1);
        LoopBuilder::new(&params)
            .range(0, 1)
            .run(&mut heap, Driver::sequential(), |ctx, _| {
                assert!(!set.contains(ctx, 5));
                assert!(set.insert(ctx, 5));
                assert!(set.contains(ctx, 5));
                assert!(!set.insert(ctx, 5));
            })
            .unwrap();
        assert_eq!(set.seq_len(&heap), 1);
    }

    #[test]
    fn bucket_count_clamped() {
        let mut heap = Heap::new();
        let set = AlterHashSet::new(&mut heap, 0, 0);
        assert_eq!(set.bucket_count(), 1);
    }
}
