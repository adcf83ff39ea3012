//! Cross-crate integration tests on the `alter` facade: full loop
//! executions under every policy combination, driver equivalence,
//! collections inside transactions, and end-to-end inference.

use alter::collections::{AlterList, AlterVec};
use alter::heap::{Heap, ObjData, ObjId};
use alter::infer::{infer, InferConfig, Model, Probe};
use alter::runtime::{
    run_loop, CommitOrder, ConflictPolicy, Driver, ExecParams, LoopBuilder, RangeSpace, RedOp,
    RedVal, RedVars,
};
use alter::sim::{CostModel, SimObserver};
use alter::workloads::gauss_seidel::GaussSeidel;
use alter::workloads::{all_benchmarks, Scale};

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

/// A shared-counter loop must be exact under every conflict-checking
/// policy, because retries re-execute on fresh state.
#[test]
fn counter_is_exact_under_all_checking_policies() {
    for conflict in [
        ConflictPolicy::Full,
        ConflictPolicy::Waw,
        ConflictPolicy::Raw,
    ] {
        for order in [CommitOrder::InOrder, CommitOrder::OutOfOrder] {
            for driver in [Driver::sequential(), Driver::threaded()] {
                let mut heap = Heap::new();
                let c = heap.alloc(ObjData::scalar_i64(0));
                let mut reds = RedVars::new();
                let p = params(conflict, order, 4, 2);
                run_loop(
                    &mut heap,
                    &mut reds,
                    &mut RangeSpace::new(0, 40),
                    &p,
                    driver,
                    |ctx, _| {
                        let v = ctx.tx.read_i64(c, 0);
                        ctx.tx.write_i64(c, 0, v + 1);
                    },
                )
                .unwrap();
                assert_eq!(
                    heap.get(c).i64s()[0],
                    40,
                    "{conflict:?}/{order:?} threaded={}",
                    driver.is_threaded()
                );
            }
        }
    }
}

/// DOALL (`NONE`) on a loop with disjoint writes is exact and conflict-free.
#[test]
fn doall_disjoint_writes_are_exact() {
    let mut heap = Heap::new();
    let v: AlterVec<i64> = AlterVec::new(&mut heap, 64);
    let mut reds = RedVars::new();
    let p = params(ConflictPolicy::None, CommitOrder::OutOfOrder, 4, 8);
    let stats = run_loop(
        &mut heap,
        &mut reds,
        &mut RangeSpace::new(0, 64),
        &p,
        Driver::threaded(),
        |ctx, i| v.set(ctx, i as usize, (i * i) as i64),
    )
    .unwrap();
    assert_eq!(stats.retries(), 0);
    assert_eq!(v.seq_get(&heap, 9), 81);
}

/// The determinism guarantee across the whole stack: a mixed loop over a
/// list and a vector produces the identical heap digest, sweep after
/// sweep, under both drivers and on repeated runs.
#[test]
fn full_stack_determinism() {
    let run = |driver: Driver| {
        let mut heap = Heap::new();
        let list: AlterList<i64> = AlterList::from_iter(&mut heap, 0..32);
        let shared = heap.alloc(ObjData::zeros_i64(4));
        let mut reds = RedVars::new();
        let delta = reds.declare("delta", RedVal::I64(0));
        let mut p = params(ConflictPolicy::Waw, CommitOrder::OutOfOrder, 3, 4);
        p.reductions = vec![(delta, RedOp::Add)];
        for _sweep in 0..3 {
            let nodes = list.node_ids(&heap);
            run_loop(
                &mut heap,
                &mut reds,
                &mut alter::runtime::SeqSpace::new(nodes),
                &p,
                driver,
                |ctx, raw| {
                    let node = ObjId::from_index(raw as u32);
                    let v = list.value(ctx, node);
                    list.set_value(ctx, node, v + 1);
                    if v % 5 == 0 {
                        let s = ctx.tx.read_i64(shared, (v % 4) as usize);
                        ctx.tx.write_i64(shared, (v % 4) as usize, s + v);
                    }
                    ctx.red_add(delta, 1i64);
                },
            )
            .unwrap();
        }
        (heap.digest(), reds.get(delta).as_i64())
    };
    let (d1, r1) = run(Driver::sequential());
    let (d2, r2) = run(Driver::threaded());
    let (d3, r3) = run(Driver::threaded());
    assert_eq!(d1, d2);
    assert_eq!(d2, d3, "threaded runs must repeat exactly");
    assert_eq!(r1, r2);
    assert_eq!(r2, r3);
    assert_eq!(r1, 96, "delta counts every node visit in every sweep");
}

/// The simulated executor and the threaded executor commit identical state
/// (the simulator is a trustworthy stand-in for real parallel hardware).
#[test]
fn simulated_and_threaded_executions_agree() {
    let build = || {
        let mut heap = Heap::new();
        let xs = heap.alloc(ObjData::zeros_f64(48));
        (heap, xs)
    };
    let body = |xs: ObjId| {
        move |ctx: &mut alter::runtime::TxCtx<'_>, i: u64| {
            let i = i as usize;
            let prev = if i > 0 {
                ctx.tx.read_f64(xs, i - 1)
            } else {
                1.0
            };
            ctx.tx.write_f64(xs, i, prev * 0.5 + i as f64);
        }
    };
    let p = params(ConflictPolicy::Waw, CommitOrder::OutOfOrder, 4, 4);

    let (mut h1, xs1) = build();
    let mut reds1 = RedVars::new();
    run_loop(
        &mut h1,
        &mut reds1,
        &mut RangeSpace::new(0, 48),
        &p,
        Driver::threaded(),
        body(xs1),
    )
    .unwrap();

    let (mut h2, xs2) = build();
    let model = CostModel::default();
    let mut obs = SimObserver::new(&model, p.workers);
    LoopBuilder::new(&p)
        .range(0, 48)
        .observer(&mut obs)
        .run(&mut h2, Driver::sequential(), body(xs2))
        .unwrap();
    assert_eq!(h1.digest(), h2.digest());
    assert!(obs.into_clock().par_units > 0.0);
}

/// End-to-end inference on the Figure 1 program finds exactly the paper's
/// answer: only `[StaleReads]`.
#[test]
fn inference_on_figure1_suggests_stale_reads() {
    let gs = GaussSeidel::dense(Scale::Inference);
    let report = infer(&gs, &InferConfig::default());
    assert!(report.stale_reads.is_success());
    assert!(!report.out_of_order.is_success());
    assert!(!report.tls.is_success());
    assert_eq!(report.valid_annotations, vec!["[StaleReads]".to_owned()]);
}

/// Every registered benchmark's best configuration runs to completion and
/// validates against its own sequential reference — the repository-level
/// smoke test of the whole evaluation.
#[test]
fn every_benchmark_best_config_validates() {
    for b in all_benchmarks(Scale::Inference) {
        let name = b.name().to_owned();
        if name == "Labyrinth" {
            continue; // the one loop ALTER cannot parallelize (Table 3)
        }
        let reference = b.run_sequential();
        let probe = b.best_probe(4);
        let run = b
            .run_probe(&probe)
            .unwrap_or_else(|e| panic!("{name} aborted: {e}"));
        assert!(
            b.validate(&reference, &run.output),
            "{name} failed validation under {}",
            probe.describe()
        );
    }
}

/// The Table 3 headline: the four stale-tolerant benchmarks fail under
/// both speculation and out-of-order commit but succeed under snapshot
/// isolation.
#[test]
fn stale_only_benchmarks_match_the_headline() {
    for b in all_benchmarks(Scale::Inference) {
        let name = b.name().to_owned();
        if !["GSdense", "GSsparse", "Floyd"].contains(&name.as_str()) {
            continue;
        }
        let reference = b.run_sequential();
        for model in [Model::Tls, Model::OutOfOrder] {
            let probe = Probe::new(model, 4, 16);
            let failed = match alter::runtime::quiet::quiet_panics(|| b.run_probe(&probe)) {
                Err(_) => true,
                Ok(run) => run.stats.retry_rate() > 0.5 || !b.validate(&reference, &run.output),
            };
            assert!(failed, "{name} must fail under {model}");
        }
        let stale = b.run_probe(&Probe::new(Model::StaleReads, 4, 16)).unwrap();
        assert!(
            b.validate(&reference, &stale.output),
            "{name} under StaleReads"
        );
    }
}
