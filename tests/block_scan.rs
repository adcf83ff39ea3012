//! Seeded property test of `AccessSet::block_scan`, the word-block overlap
//! scan the dependence checker's graph and scan-word accounting are built
//! on: over fifty fixed-seed cases (SplitMix64; the workspace builds
//! offline, without `proptest`) its verdict equals the exact merge scan's
//! and it never compares more words than the smaller set holds.
//!
//! A failure names the case index for replay.

use alter::heap::{AccessSet, ObjId};

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

    /// Uniform in `[0, bound)`.
    fn below(&mut self, bound: u32) -> u32 {
        (self.next_u64() % u64::from(bound)) as u32
    }
}

#[test]
fn block_scans_agree_with_exact_overlap() {
    let mut rng = Rng(0xb10c_5ca9);
    for case in 0..50 {
        let obj = ObjId::from_index(1);
        let mut a = AccessSet::new();
        let mut b = AccessSet::new();
        for _ in 0..(1 + rng.below(12)) {
            let lo = rng.below(192);
            a.insert(obj, lo, lo + 1 + rng.below(48));
            let lo = rng.below(192);
            b.insert(obj, lo, lo + 1 + rng.below(48));
        }
        let (hit, words) = a.block_scan(&b);
        assert_eq!(
            hit,
            a.overlaps(&b),
            "case {case}: word-block verdict must equal the exact merge scan"
        );
        assert!(
            words <= a.words().min(b.words()),
            "case {case}: a block scan never compares more words than the \
             smaller set holds"
        );
    }
}
