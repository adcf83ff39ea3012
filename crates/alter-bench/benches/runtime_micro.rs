//! Microbenchmarks of the runtime primitives: snapshot establishment,
//! instrumented access, conflict validation and full loop execution. These
//! are the per-round costs the virtual-time model charges; measuring them
//! grounds the cost-model coefficients.
//!
//! Plain `Instant`-based timing (the workspace builds offline, without
//! `criterion`): each benchmark reports the best-of-runs per-iteration
//! time. Alongside wall-clock numbers — which vary by machine — the DOALL
//! benchmark checks the runtime's *deterministic cost-units counter*: it
//! must be bit-identical with no recorder and with a `NopRecorder`
//! attached, making the recorder's zero-overhead contract checkable
//! without timing noise.

use alter_heap::{
    AccessSet, Heap, IdReservation, ObjData, ObjId, Snapshot, TrackMode, Tx, TxEffects, TxStats,
};
use alter_runtime::{run_loop, ConflictPolicy, Driver, ExecParams, RedVars};
use alter_trace::NopRecorder;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Times `f` over several timed runs of `iters` calls each and reports the
/// best per-call nanoseconds (best-of-N rejects scheduler noise).
fn bench<R>(name: &str, iters: u32, mut f: impl FnMut() -> R) {
    // Warm up caches and allocator.
    for _ in 0..iters.div_ceil(4).max(1) {
        black_box(f());
    }
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let per_call = start.elapsed().as_secs_f64() * 1e9 / f64::from(iters);
        best = best.min(per_call);
    }
    report(name, best);
}

fn report(name: &str, ns: f64) {
    println!("{name:<32} {ns:>12.1} ns/iter");
}

fn scalar_heap(slots: usize) -> (Heap, Vec<ObjId>) {
    let mut heap = Heap::new();
    let ids = (0..slots)
        .map(|_| heap.alloc(ObjData::scalar_i64(1)))
        .collect();
    (heap, ids)
}

/// The effects of one transaction over `heap` that ran `body`.
fn effects_of(heap: &Heap, body: impl FnOnce(&mut Tx<'_>)) -> TxEffects {
    let snap = heap.snapshot();
    let ids = IdReservation::new(heap.high_water(), 0, 1, 64);
    let mut tx = Tx::new(&snap, TrackMode::WritesOnly, ids, u64::MAX);
    body(&mut tx);
    tx.finish()
}

/// A round snapshot is one `Arc` clone of the page table's root. What it
/// no longer pays lands on the first commit made while a view is held: that
/// commit path-copies the root (one pointer per 64-slot page) and one page
/// with its buffers; the view is released inside the timed call too. The
/// commits cycle through 64 one-word transactions spread over the heap.
fn bench_snapshot() {
    let (heap, _) = scalar_heap(10_000);
    bench("snapshot_10k_slots", 1000, || heap.snapshot());
    for (slots, name) in [
        (10_000, "commit_under_held_snapshot_10k"),
        (131_072, "commit_under_held_snapshot_131k"),
    ] {
        let (mut heap, ids) = scalar_heap(slots);
        let commits: Vec<TxEffects> = (1..=64)
            .map(|k| effects_of(&heap, |tx| tx.write_i64(ids[k * 7919 % slots], 0, 2)))
            .collect();
        let mut at = 0;
        bench(name, 200, || {
            let held = heap.snapshot();
            at = (at + 1) % commits.len();
            heap.commit(&commits[at]);
            held
        });
    }
}

/// Floyd's commit: one transaction's single-word improvements to a
/// 16 384-word distance matrix — every seventh word, 2 341 one-word ranges
/// — copied from its private copy into the page, with no view held.
fn bench_scattered_commit() {
    /// `Heap::digest` after the commit, as computed when a commit went
    /// through owned per-range operations: the path must not change what
    /// lands.
    const COMMITTED_DIGEST: u64 = 0x799b_ce60_29a5_6e3a;
    let mut heap = Heap::new();
    let m = heap.alloc(ObjData::F64((0..16_384).map(f64::from).collect()));
    let fx = effects_of(&heap, |tx| {
        for w in (0..16_384).step_by(7) {
            tx.write_f64(m, w, -(w as f64));
        }
    });
    assert_eq!(fx.writes.range_count(), 2_341);
    heap.commit(&fx);
    assert_eq!(heap.digest(), COMMITTED_DIGEST, "the committed words moved");
    bench("commit_scattered_2341w_16k", 2000, || heap.commit(&fx));
}

/// Allocating 131 072 ten-word objects into an empty heap (Genome's bucket
/// count), walking them the way `AlterHashSet::seq_keys` walks its buckets,
/// then dropping the heap, each timed apart. A page keeps its objects'
/// words in one buffer per kind, so the drop frees per page, not per
/// object; the build still makes and frees one `ObjData` per object.
fn bench_heap_build_drop() {
    /// `Heap::digest` of the built heap, as computed before pages kept
    /// their words in shared buffers: the layout must not change contents.
    const BUILT_DIGEST: u64 = 0xa04e_0182_bc9a_2325;
    let (mut build, mut walk, mut teardown) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        let start = Instant::now();
        let mut heap = Heap::new();
        for _ in 0..131_072 {
            heap.alloc(ObjData::zeros_i64(10));
        }
        let built = Instant::now();
        let mut keys = Vec::new();
        for i in 0..131_072 {
            let words = heap.get(ObjId::from_index(i)).i64s();
            let count = words[0] as usize;
            keys.extend_from_slice(&words[2..2 + count]);
            black_box(words[1]);
        }
        black_box(keys);
        let walked = Instant::now();
        assert_eq!(
            heap.digest(),
            BUILT_DIGEST,
            "the built heap's contents moved"
        );
        let dropping = Instant::now();
        drop(black_box(heap));
        build = build.min((built - start).as_secs_f64() * 1e9);
        walk = walk.min((walked - built).as_secs_f64() * 1e9);
        teardown = teardown.min(dropping.elapsed().as_secs_f64() * 1e9);
    }
    report("heap_build_131k_10w", build);
    report("heap_walk_131k_10w", walk);
    report("heap_drop_131k_10w", teardown);
}

fn bench_instrumented_access() {
    let mut heap = Heap::new();
    let xs = heap.alloc(ObjData::zeros_f64(4096));
    let snap = heap.snapshot();
    bench("tracked_element_reads_4k", 200, || {
        let ids = IdReservation::new(heap.high_water(), 0, 1, 64);
        let mut tx = Tx::new(&snap, TrackMode::ReadsAndWrites, ids, u64::MAX);
        let mut acc = 0.0;
        for i in 0..4096 {
            acc += tx.read_f64(xs, i);
        }
        acc
    });
    bench("untracked_element_reads_4k", 200, || {
        let ids = IdReservation::new(heap.high_water(), 0, 1, 64);
        let mut tx = Tx::new(&snap, TrackMode::WritesOnly, ids, u64::MAX);
        let mut acc = 0.0;
        for i in 0..4096 {
            acc += tx.read_f64(xs, i);
        }
        acc
    });
    bench("range_read_4k", 500, || {
        let ids = IdReservation::new(heap.high_water(), 0, 1, 64);
        let mut tx = Tx::new(&snap, TrackMode::ReadsAndWrites, ids, u64::MAX);
        tx.with_f64s(xs, 0, 4096, |s| s.iter().sum::<f64>())
    });
}

/// One transaction relaxing all 128 rows of a 128×128 distance matrix that
/// is already at its fixpoint through pivot row 0, as one of Floyd's later
/// passes does, and finding nothing to write. Without `SCAN` every cell is
/// read with `get` beside a writer's `set` that never fires; with it, each
/// row is scanned through `words()` and no writer is ever opened.
fn guarded_row_pass<const SCAN: bool>(snap: &Snapshot, heap: &Heap, m: ObjId) -> TxStats {
    const N: usize = 128;
    let ids = IdReservation::new(heap.high_water(), 0, 1, 64);
    let mut tx = Tx::new(snap, TrackMode::WritesOnly, ids, u64::MAX);
    let row_k = tx.with_f64s(m, 0, N, |r| r.to_vec());
    for i in 0..N {
        tx.row_f64s(m, i * N, (i + 1) * N, |row| {
            let pik = row.get(0);
            if !SCAN {
                for (j, pkj) in row_k.iter().enumerate() {
                    if pik + pkj < row.get(j) {
                        row.writer().set(j, pik + pkj);
                    }
                }
            } else if row
                .words()
                .iter()
                .zip(&row_k)
                .fold(false, |acc, (d, pkj)| acc | (pik + pkj < *d))
            {
                let mut row = row.writer();
                for (j, pkj) in row_k.iter().enumerate() {
                    if pik + pkj < row.get(j) {
                        row.set(j, pik + pkj);
                    }
                }
            }
        });
    }
    tx.finish().stats
}

/// The read-only pass of a guarded row, through `get` and through
/// `words()`. Zero on the diagonal and one elsewhere is a fixpoint, so
/// neither writes, and both must leave the same counters.
fn bench_guarded_row_scan() {
    let mut heap = Heap::new();
    let m = heap.alloc(ObjData::F64(
        (0..128 * 128)
            .map(|c| if c / 128 == c % 128 { 0.0 } else { 1.0 })
            .collect(),
    ));
    let snap = heap.snapshot();
    let by_get = guarded_row_pass::<false>(&snap, &heap, m);
    assert_eq!(
        by_get,
        guarded_row_pass::<true>(&snap, &heap, m),
        "scanning through words() changed the counters"
    );
    assert_eq!(by_get.write_ops, 0, "the matrix is not at its fixpoint");
    bench("guarded_row_scan_get_16k", 200, || {
        guarded_row_pass::<false>(&snap, &heap, m)
    });
    bench("guarded_row_scan_by_words_16k", 200, || {
        guarded_row_pass::<true>(&snap, &heap, m)
    });
}

fn bench_conflict_validation() {
    let mut a = AccessSet::new();
    let mut b_set = AccessSet::new();
    for i in 0..1000u32 {
        a.insert(alter_heap::ObjId::from_index(i), 0, 8);
        b_set.insert(alter_heap::ObjId::from_index(i + 1000), 0, 8);
    }
    bench("disjoint_setcmp_1k_objects", 2000, || a.overlaps(&b_set));
}

/// `AccessSet::insert` into a set that already holds `resident` ranges of
/// one allocation. The insert itself is the cheapest there is — the tail
/// range again — so the row reads what an insert pays for the ranges it
/// does not touch; the two rows must read the same.
fn bench_sets_insert_resident() {
    let obj = alter_heap::ObjId::from_index(1);
    for resident in [1u32, 4096] {
        let mut set = AccessSet::new();
        for i in 0..resident {
            set.insert(obj, 2 * i, 2 * i + 1);
        }
        let tail = 2 * (resident - 1);
        bench(&format!("sets_insert_resident_{resident}"), 100_000, || {
            set.insert(black_box(obj), tail, tail + 1);
            set.words()
        });
    }
}

/// One DOALL run over 4k iterations; returns `(heap digest, cost units)`.
fn doall_run(params: &ExecParams) -> (u64, u64) {
    let mut heap = Heap::new();
    let xs = heap.alloc(ObjData::zeros_f64(4096));
    let mut reds = RedVars::new();
    let stats = run_loop(
        &mut heap,
        &mut reds,
        &mut alter_runtime::RangeSpace::new(0, 4096),
        params,
        Driver::sequential(),
        |ctx, i| ctx.tx.write_f64(xs, i as usize, 1.0),
    )
    .unwrap();
    (heap.digest(), stats.cost_units())
}

fn bench_doall_loop() {
    let mut plain = ExecParams::new(4, 64);
    plain.conflict = ConflictPolicy::None;
    let nop = plain.clone().with_recorder(Arc::new(NopRecorder));

    // The zero-overhead contract, checked deterministically: a NopRecorder
    // must not change what the engine does, only (at most) how long it
    // takes — so the cost-units counter and the heap digest are identical.
    let (digest_plain, cost_plain) = doall_run(&plain);
    let (digest_nop, cost_nop) = doall_run(&nop);
    assert_eq!(
        cost_plain, cost_nop,
        "NopRecorder changed the deterministic cost-units counter"
    );
    assert_eq!(digest_plain, digest_nop, "NopRecorder changed the heap");
    println!("doall_4k cost units: {cost_plain} (identical with NopRecorder)");

    bench("doall_loop_4k_iters", 50, || doall_run(&plain));
    bench("doall_loop_4k_iters_nop_rec", 50, || doall_run(&nop));
}

fn main() {
    // A plain `cargo test` does not build bench targets; `cargo test
    // --benches` (or `--all-targets`) runs them with `--test`, and then
    // there is nothing to time, so exit quickly. The assertions above run
    // under `cargo bench`, which `scripts/ci.sh` runs once.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    bench_snapshot();
    bench_heap_build_drop();
    bench_instrumented_access();
    bench_guarded_row_scan();
    bench_scattered_commit();
    bench_conflict_validation();
    bench_sets_insert_resident();
    bench_doall_loop();
}
