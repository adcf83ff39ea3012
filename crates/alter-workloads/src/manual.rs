//! Manual-parallelization baselines (paper §7.3, Figures 8 and 9).
//!
//! The paper hand-parallelizes two benchmarks to calibrate ALTER's
//! overhead:
//!
//! * **Gauss-Seidel** — a multi-threaded version that "mimics the runtime
//!   behavior of StaleReads by maintaining multiple copies of XVector that
//!   are synchronized in exactly the same way as a chunked execution under
//!   ALTER". We model it by replaying the identical chunked execution with
//!   the instrumentation, copy-on-write and commit costs stripped (the
//!   synchronization structure — barriers, bandwidth — remains). The paper
//!   finds ALTER *comparable* to this baseline.
//! * **K-means** — "threads and fine-grained locking": no snapshots or
//!   commits at all, just a lock acquisition per shared update. The paper
//!   finds ALTER 20–47% slower, "due to the overhead of the ALTER runtime
//!   system as it explores parallelism via optimistic, coarse-grained
//!   execution rather than pessimistic fine-grained locking".

use crate::gauss_seidel::GaussSeidel;
use crate::kmeans::KMeans;
use crate::Benchmark;
use alter_runtime::RunError;
use alter_sim::{CostModel, SimClock};

/// Cost model of a hand-written threaded version that keeps ALTER's
/// synchronization structure but drops its instrumentation: no tracked
/// sets, no copy-on-write, no commit-time merging; a light barrier per
/// round (plain `pthread`-style) and the same memory system.
pub fn hand_synced_model(base: &CostModel) -> CostModel {
    CostModel {
        per_instr_op: 0.0,
        per_cow_word: 0.0,
        per_commit_word: 0.02, // copies into the shared vector remain
        per_validate_word: 0.0,
        barrier: base.barrier / 4.0,
        per_snapshot_slot: 0.0,
        ..base.clone()
    }
}

/// Cost model of a fine-grained-locking version: per-update lock traffic
/// instead of instrumentation, and no lock-step structure beyond one join
/// per outer iteration.
pub fn fine_grained_lock_model(base: &CostModel) -> CostModel {
    CostModel {
        per_instr_op: 0.6, // one atomic acquire/release per shared update
        per_cow_word: 0.0,
        per_commit_word: 0.0,
        per_validate_word: 0.0,
        barrier: base.barrier / 4.0,
        per_snapshot_slot: 0.0,
        ..base.clone()
    }
}

/// Runs the manual Gauss-Seidel baseline at `workers` threads.
///
/// # Errors
///
/// Propagates runtime aborts (none occur for valid configurations).
pub fn manual_gauss_seidel(gs: &GaussSeidel, workers: usize) -> Result<SimClock, RunError> {
    let model = hand_synced_model(&gs.cost_model());
    gs.run_with_model(&gs.best_probe(workers), &model)
        .map(|run| run.clock)
}

/// Runs the manual fine-grained-locking K-means baseline at `workers`
/// threads.
///
/// # Errors
///
/// Propagates runtime aborts (none occur for valid configurations).
pub fn manual_kmeans(km: &KMeans, workers: usize) -> Result<SimClock, RunError> {
    let model = fine_grained_lock_model(&km.cost_model());
    km.run_with_model(&km.best_probe(workers), &model)
        .map(|run| run.clock)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;
    use alter_infer::InferTarget;

    #[test]
    fn manual_kmeans_beats_alter_by_tens_of_percent() {
        let km = KMeans::new(Scale::Inference);
        let workers = 4;
        let alter = km.run_probe(&km.best_probe(workers)).unwrap().clock;
        let manual = manual_kmeans(&km, workers).unwrap();
        let ratio = alter.par_units / manual.par_units;
        // The paper measures 20-47%; our software-COW isolation is cheaper
        // than Win32 process machinery, so the gap lands lower but must
        // stay clearly visible.
        assert!(
            ratio > 1.03 && ratio < 2.0,
            "ALTER must be measurably slower than fine-grained locking; ratio {ratio:.2}"
        );
    }

    #[test]
    fn manual_gauss_seidel_is_comparable_to_alter() {
        let gs = GaussSeidel::sparse(Scale::Inference);
        let workers = 4;
        let alter = gs.run_probe(&gs.best_probe(workers)).unwrap().clock;
        let manual = manual_gauss_seidel(&gs, workers).unwrap();
        let ratio = alter.par_units / manual.par_units;
        assert!(
            ratio > 0.9 && ratio < 1.6,
            "ALTER performs comparably to the hand-synced version; ratio {ratio:.2}"
        );
    }
}
