//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. read-tracking elision under WAW — the mechanism behind StaleReads'
//!    advantage (force read tracking back on via the FULL policy and watch
//!    the gap close);
//! 2. range-granular vs whole-object conflict detection (false sharing);
//! 3. commit-order policy (InOrder squashing vs OutOfOrder retry);
//! 4. chunk-factor U-curve on a synthetic loop.
//!
//! Run with `cargo bench --bench ablations`.

use alter_heap::{Heap, ObjData};
use alter_infer::{InferTarget, Model, Probe};
use alter_runtime::{
    CommitOrder, ConflictPolicy, Driver, ExecParams, LoopBuilder, RunStats, TxCtx,
};
use alter_sim::{CostModel, SimClock, SimObserver};
use alter_workloads::genome::Genome;
use alter_workloads::Scale;

fn params(
    conflict: ConflictPolicy,
    order: CommitOrder,
    workers: usize,
    chunk: usize,
) -> ExecParams {
    let mut p = ExecParams::new(workers, chunk);
    p.conflict = conflict;
    p.order = order;
    p
}

/// Runs `body` over `0..iters` with the sequential driver while a
/// [`SimObserver`] charges virtual time under the default cost model.
fn simulate(
    heap: &mut Heap,
    iters: u64,
    p: &ExecParams,
    body: impl Fn(&mut TxCtx<'_>, u64) + Send + Sync,
) -> (RunStats, SimClock) {
    let model = CostModel::default();
    let mut obs = SimObserver::new(&model, p.workers);
    let stats = LoopBuilder::new(p)
        .range(0, iters)
        .observer(&mut obs)
        .run(heap, Driver::sequential(), body)
        .unwrap();
    (stats, obs.into_clock())
}

/// Ablation 1: the read-instrumentation elision. Genome under WAW
/// (StaleReads), RAW (OutOfOrder) and FULL (WAW semantics with read
/// tracking forced back on).
fn ablate_read_tracking() {
    println!("== Ablation 1: read-tracking elision (Genome, 4 workers, cf 16) ==");
    let g = Genome::new(Scale::Inference);
    for (label, model) in [
        ("WAW  (reads elided)   ", Model::StaleReads),
        ("RAW  (reads tracked)  ", Model::OutOfOrder),
    ] {
        let run = g.run_probe(&Probe::new(model, 4, 16)).unwrap();
        let (stats, clock) = (run.stats, run.clock);
        println!(
            "  {label} par={:>9.0}  tracked words/txn={:>5.0}  retry={:.1}%",
            clock.par_units,
            stats.avg_rw_words(),
            stats.retry_rate() * 100.0
        );
    }
    println!("  (forcing read tracking erases StaleReads' advantage)\n");
}

/// Ablation 2: conflict granularity. Iterations write disjoint halves of
/// shared objects: with word-range sets nothing conflicts; emulating
/// whole-object tracking (writing the full object) serializes them.
fn ablate_granularity() {
    println!("== Ablation 2: range vs whole-object conflict granularity ==");
    for (label, whole_object) in [("word ranges ", false), ("whole object", true)] {
        let mut heap = Heap::new();
        let objs: Vec<_> = (0..32).map(|_| heap.alloc(ObjData::zeros_f64(8))).collect();
        let p = params(ConflictPolicy::Waw, CommitOrder::OutOfOrder, 4, 1);
        let (stats, _) = simulate(&mut heap, 64, &p, |ctx, i| {
            let obj = objs[(i / 2) as usize];
            if whole_object {
                ctx.tx
                    .update_f64s(obj, 0, 8, |s| s[(i % 2) as usize * 4] += 1.0);
            } else {
                let half = (i % 2) as usize * 4;
                ctx.tx.update_f64s(obj, half, half + 4, |s| s[0] += 1.0);
            }
        });
        println!(
            "  {label}: retry rate {:>5.1}%  ({} attempts for 64 iterations)",
            stats.retry_rate() * 100.0,
            stats.attempts
        );
    }
    println!("  (coarse tracking manufactures false conflicts)\n");
}

/// Ablation 3: commit-order policy on a real workload. Genome under
/// `RAW + OutOfOrder` vs `RAW + InOrder` (TLS): the only difference is
/// that an in-order conflict squashes every later in-flight transaction.
fn ablate_commit_order() {
    println!("== Ablation 3: commit-order policy (Genome, RAW conflicts, 8 workers) ==");
    let g = Genome::new(Scale::Inference);
    for (label, model) in [
        ("OutOfOrder", Model::OutOfOrder),
        ("InOrder   ", Model::Tls),
    ] {
        let run = g.run_probe(&Probe::new(model, 8, 16)).unwrap();
        let (stats, clock) = (run.stats, run.clock);
        println!(
            "  {label}: retry rate {:>5.1}%  simulated time {:>8.0}",
            stats.retry_rate() * 100.0,
            clock.par_units
        );
    }
    println!("  (squashing amplifies each conflict into a pipeline flush)\n");
}

/// Ablation 4: the chunk-factor U-curve on a uniform synthetic loop.
fn ablate_chunking() {
    println!("== Ablation 4: chunk factor U-curve (4 workers, uniform loop) ==");
    print!("  cf:   ");
    for cf in [1usize, 2, 4, 8, 16, 32, 64] {
        print!("{cf:>9}");
    }
    println!();
    print!("  time: ");
    for cf in [1usize, 2, 4, 8, 16, 32, 64] {
        let mut heap = Heap::new();
        let arr = heap.alloc(ObjData::zeros_f64(512));
        let hot = heap.alloc(ObjData::zeros_i64(8));
        let p = params(ConflictPolicy::Waw, CommitOrder::OutOfOrder, 4, cf);
        let (_, clock) = simulate(&mut heap, 512, &p, |ctx, i| {
            ctx.tx.work(40);
            ctx.tx.write_f64(arr, i as usize, 1.0);
            if i % 16 == 0 {
                let c = (i / 16 % 8) as usize;
                let v = ctx.tx.read_i64(hot, c);
                ctx.tx.write_i64(hot, c, v + 1);
            }
        });
        print!("{:>9.0}", clock.par_units);
    }
    println!("\n  (left edge pays a barrier per iteration; right edge loses parallelism and concentrates conflicts)\n");
}

fn main() {
    ablate_read_tracking();
    ablate_granularity();
    ablate_commit_order();
    ablate_chunking();
}
