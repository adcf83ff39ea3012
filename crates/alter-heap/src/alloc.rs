//! Deterministic multi-space allocation for concurrent transactions.
//!
//! The paper's ALTER-allocator "ensures safety by guaranteeing that no two
//! concurrent processes are allocated the same virtual address" and is
//! "optimized to minimally use inter-process semaphores" (§4.1). We go one
//! step further and use *no* coordination at all: before a lock-step round
//! begins, each worker `w` of `n` is handed an [`IdReservation`] that draws
//! ids from the arithmetic progression of blocks
//!
//! ```text
//! block j of worker w  =  [base + (j·n + w)·B,  base + (j·n + w)·B + B)
//! ```
//!
//! where `base` is the heap's high-water mark at round start and `B` is the
//! block size. Blocks of different workers are disjoint by construction and
//! the assignment is a pure function of `(base, w, n, B)`, so allocation is
//! both race-free and deterministic — a requirement for ALTER's determinism
//! guarantee (§4.3). Ids of aborted transactions are simply abandoned,
//! exactly as aborted processes abandon their copy-on-write pages.

use crate::object::ObjId;

/// The panic message of a reservation that would reach past `u32::MAX`.
const EXHAUSTED: &str = "object id space exhausted";

/// Default number of ids per reservation block.
pub const DEFAULT_BLOCK_SIZE: u32 = 256;

/// A per-worker, per-round source of fresh object ids.
///
/// ```
/// use alter_heap::IdReservation;
/// // Two of three workers allocating from the same base never collide.
/// let mut a = IdReservation::new(100, 0, 3, 8);
/// let mut b = IdReservation::new(100, 1, 3, 8);
/// let ids_a: Vec<_> = (0..20).map(|_| a.next_id()).collect();
/// assert!((0..20).map(|_| b.next_id()).all(|id| !ids_a.contains(&id)));
/// ```
#[derive(Debug, Clone)]
pub struct IdReservation {
    base: u32,
    worker: u32,
    workers: u32,
    block_size: u32,
    /// Next block index to take.
    next_block: u32,
    /// Current position within the active block; `cur == end` means no
    /// active block.
    cur: u32,
    end: u32,
    allocated: u32,
}

impl IdReservation {
    /// Creates a reservation for `worker` (of `workers`) starting at the
    /// heap high-water mark `base`.
    ///
    /// # Panics
    ///
    /// Panics if `worker >= workers`, `workers == 0`, or `block_size == 0`.
    pub fn new(base: u32, worker: usize, workers: usize, block_size: u32) -> Self {
        assert!(workers > 0, "need at least one worker");
        assert!(worker < workers, "worker index out of range");
        assert!(block_size > 0, "block size must be positive");
        IdReservation {
            base,
            worker: worker as u32,
            workers: workers as u32,
            block_size,
            next_block: 0,
            cur: 0,
            end: 0,
            allocated: 0,
        }
    }

    /// Hands out the next fresh id.
    ///
    /// # Panics
    ///
    /// Panics with "object id space exhausted" when the next block would
    /// reach past `u32::MAX`, in every build.
    pub fn next_id(&mut self) -> ObjId {
        if self.cur == self.end {
            let block = self.next_block;
            self.next_block = block.checked_add(1).expect(EXHAUSTED);
            (self.cur, self.end) = self.block(block);
        }
        let id = ObjId::from_index(self.cur);
        self.cur += 1;
        self.allocated += 1;
        id
    }

    /// The ids `start..end` of this worker's block `block`.
    fn block(&self, block: u32) -> (u32, u32) {
        let start = block
            .checked_mul(self.workers)
            .and_then(|b| b.checked_add(self.worker))
            .and_then(|b| b.checked_mul(self.block_size))
            .and_then(|offset| self.base.checked_add(offset));
        let start = start.expect(EXHAUSTED);
        (start, start.checked_add(self.block_size).expect(EXHAUSTED))
    }

    /// One past the largest id this reservation may have handed out so far:
    /// the end of its last block.
    pub fn high_water(&self) -> u32 {
        match self.next_block {
            0 => self.base,
            taken => self.block(taken - 1).1,
        }
    }

    /// Number of ids handed out.
    pub fn allocated(&self) -> u32 {
        self.allocated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn reservations_of_distinct_workers_are_disjoint() {
        let workers = 4;
        let mut seen = HashSet::new();
        for w in 0..workers {
            let mut r = IdReservation::new(100, w, workers, 8);
            for _ in 0..50 {
                assert!(seen.insert(r.next_id()), "duplicate id from worker {w}");
            }
        }
        assert_eq!(seen.len(), 200);
        assert!(seen.iter().all(|id| id.index() >= 100));
    }

    #[test]
    fn reservation_is_deterministic() {
        let run = || {
            let mut r = IdReservation::new(10, 1, 3, 4);
            (0..10).map(|_| r.next_id().index()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
        // Worker 1 of 3, base 10, B=4: blocks at 10+4*1=14.. and 10+4*4=26..
        assert_eq!(run()[..5], [14, 15, 16, 17, 26]);
    }

    #[test]
    fn high_water_covers_all_handed_out_ids() {
        let mut r = IdReservation::new(0, 2, 3, 4);
        assert_eq!(r.high_water(), 0);
        let mut max = 0;
        for _ in 0..9 {
            max = max.max(r.next_id().index());
        }
        assert!(r.high_water() > max);
        assert_eq!(r.allocated(), 9);
    }

    #[test]
    fn single_worker_allocates_contiguously() {
        let mut r = IdReservation::new(5, 0, 1, 4);
        let ids: Vec<u32> = (0..6).map(|_| r.next_id().index()).collect();
        assert_eq!(ids, vec![5, 6, 7, 8, 9, 10]);
    }

    #[test]
    #[should_panic(expected = "object id space exhausted")]
    fn a_block_past_the_id_space_panics_instead_of_wrapping() {
        // The block would cover `u32::MAX - 3 .. u32::MAX + 253`: unchecked,
        // a release build hands out `u32::MAX - 3 ..= u32::MAX` and then
        // wraps to ids 0, 1, …, which may be live.
        let mut r = IdReservation::new(u32::MAX - 3, 0, 1, 256);
        for _ in 0..6 {
            r.next_id();
        }
    }

    #[test]
    fn reservations_over_one_base_never_overlap() {
        let mut state = 0x5eed_a110c_u64;
        let mut below = |bound: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        for case in 0..300 {
            let base = below(1 << 20) as u32;
            let workers = 1 + below(8) as usize;
            let block = 1 + below(40) as u32;
            let mut owner = std::collections::HashMap::new();
            for w in 0..workers {
                let mut r = IdReservation::new(base, w, workers, block);
                for _ in 0..below(3 * u64::from(block) + 2) {
                    let id = r.next_id();
                    assert!(id.index() >= base, "case {case}: {id} below the base");
                    assert!(
                        id.index() < r.high_water(),
                        "case {case}: {id} past the high water"
                    );
                    let earlier = owner.insert(id, w);
                    assert_eq!(
                        earlier, None,
                        "case {case}: {id} of workers {earlier:?} and {w}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "worker index out of range")]
    fn worker_index_validated() {
        IdReservation::new(0, 3, 3, 4);
    }
}
