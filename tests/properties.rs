//! Property-style tests of the runtime's core guarantees: sequential
//! equivalence of TLS, exactness of conflict-checked read-modify-writes,
//! reduction-merge algebra, allocator disjointness, set semantics, and
//! determinism across drivers — all over randomly generated loop programs.
//!
//! Cases are generated from a fixed-seed SplitMix64 stream (the workspace
//! builds offline, without `proptest`), so every run exercises exactly the
//! same programs; a failure names the case index for replay.

use alter::heap::{AccessSet, Heap, IdReservation, ObjData};
use alter::runtime::{
    run_loop, CommitOrder, ConflictPolicy, Driver, ExecParams, RangeSpace, RedOp, RedVal, RedVars,
    TxCtx,
};

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
    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }
}

/// One statement of a synthetic loop body.
#[derive(Clone, Debug)]
enum Op {
    /// `arr[dst] = arr[src] + k`
    Copy { dst: usize, src: usize, k: i64 },
    /// `arr[dst] += k`
    Bump { dst: usize, k: i64 },
}

const CELLS: usize = 12;

fn random_op(rng: &mut Rng) -> Op {
    if rng.below(2) == 0 {
        Op::Copy {
            dst: rng.below(CELLS),
            src: rng.below(CELLS),
            k: rng.range_i64(-5, 5),
        }
    } else {
        Op::Bump {
            dst: rng.below(CELLS),
            k: rng.range_i64(-5, 5),
        }
    }
}

/// A program: for each iteration, a short list of statements.
fn random_program(rng: &mut Rng) -> Vec<Vec<Op>> {
    let iters = 1 + rng.below(23);
    (0..iters)
        .map(|_| {
            let stmts = 1 + rng.below(3);
            (0..stmts).map(|_| random_op(rng)).collect()
        })
        .collect()
}

fn random_bump_program(rng: &mut Rng) -> Vec<Vec<Op>> {
    let iters = 1 + rng.below(23);
    (0..iters)
        .map(|_| {
            let stmts = 1 + rng.below(3);
            (0..stmts)
                .map(|_| Op::Bump {
                    dst: rng.below(CELLS),
                    k: rng.range_i64(-5, 5),
                })
                .collect()
        })
        .collect()
}

fn interpret_sequential(prog: &[Vec<Op>]) -> Vec<i64> {
    let mut arr = vec![0i64; CELLS];
    for iter in prog {
        for op in iter {
            match *op {
                Op::Copy { dst, src, k } => arr[dst] = arr[src] + k,
                Op::Bump { dst, k } => arr[dst] += k,
            }
        }
    }
    arr
}

fn run_under(
    prog: &[Vec<Op>],
    conflict: ConflictPolicy,
    order: CommitOrder,
    workers: usize,
    chunk: usize,
    driver: Driver,
) -> Vec<i64> {
    let mut heap = Heap::new();
    let arr = heap.alloc(ObjData::zeros_i64(CELLS));
    let mut reds = RedVars::new();
    let mut p = ExecParams::new(workers, chunk);
    p.conflict = conflict;
    p.order = order;
    run_loop(
        &mut heap,
        &mut reds,
        &mut RangeSpace::new(0, prog.len() as u64),
        &p,
        driver,
        |ctx: &mut TxCtx<'_>, i| {
            for op in &prog[i as usize] {
                match *op {
                    Op::Copy { dst, src, k } => {
                        let v = ctx.tx.read_i64(arr, src);
                        ctx.tx.write_i64(arr, dst, v + k);
                    }
                    Op::Bump { dst, k } => {
                        let v = ctx.tx.read_i64(arr, dst);
                        ctx.tx.write_i64(arr, dst, v + k);
                    }
                }
            }
        },
    )
    .unwrap();
    heap.get(arr).i64s().to_vec()
}

/// Theorem 4.3: `RAW + InOrder` (TLS) is equivalent to sequential
/// semantics for *arbitrary* loop bodies.
#[test]
fn tls_equals_sequential() {
    let mut rng = Rng(0x7175_0001);
    for case in 0..64 {
        let prog = random_program(&mut rng);
        let workers = 1 + rng.below(4);
        let chunk = 1 + rng.below(3);
        let seq = interpret_sequential(&prog);
        let tls = run_under(
            &prog,
            ConflictPolicy::Raw,
            CommitOrder::InOrder,
            workers,
            chunk,
            Driver::sequential(),
        );
        assert_eq!(seq, tls, "case {case} workers={workers} chunk={chunk}");
    }
}

/// Bump-only programs are commutative, so every conflict-checked model
/// must produce the sequential result.
#[test]
fn commutative_programs_are_exact_under_every_model() {
    let mut rng = Rng(0x7175_0002);
    for case in 0..64 {
        let prog = random_bump_program(&mut rng);
        let workers = 1 + rng.below(4);
        let chunk = 1 + rng.below(3);
        let seq = interpret_sequential(&prog);
        for conflict in [
            ConflictPolicy::Full,
            ConflictPolicy::Waw,
            ConflictPolicy::Raw,
        ] {
            let got = run_under(
                &prog,
                conflict,
                CommitOrder::OutOfOrder,
                workers,
                chunk,
                Driver::sequential(),
            );
            assert_eq!(seq, got, "case {case} conflict {conflict:?}");
        }
    }
}

/// Determinism: the threaded and sequential drivers agree on arbitrary
/// programs under snapshot isolation (where results are allowed to differ
/// from sequential semantics, they still may not differ between drivers or
/// runs).
#[test]
fn drivers_agree_on_arbitrary_programs() {
    let mut rng = Rng(0x7175_0003);
    for case in 0..32 {
        let prog = random_program(&mut rng);
        let workers = 1 + rng.below(4);
        let chunk = 1 + rng.below(3);
        let a = run_under(
            &prog,
            ConflictPolicy::Waw,
            CommitOrder::OutOfOrder,
            workers,
            chunk,
            Driver::sequential(),
        );
        let b = run_under(
            &prog,
            ConflictPolicy::Waw,
            CommitOrder::OutOfOrder,
            workers,
            chunk,
            Driver::threaded(),
        );
        let c = run_under(
            &prog,
            ConflictPolicy::Waw,
            CommitOrder::OutOfOrder,
            workers,
            chunk,
            Driver::threaded(),
        );
        assert_eq!(a, b, "case {case}");
        assert_eq!(b, c, "case {case}");
    }
}

/// Reduction merges equal the serial fold for + and are order-robust for
/// idempotent operators, across random per-iteration updates.
#[test]
fn reductions_match_serial_fold() {
    let mut rng = Rng(0x7175_0004);
    for case in 0..64 {
        let n = 1 + rng.below(39);
        let updates: Vec<i64> = (0..n).map(|_| rng.range_i64(-100, 100)).collect();
        let workers = 1 + rng.below(4);
        let chunk = 1 + rng.below(4);
        let mut heap = Heap::new();
        let _pad = heap.alloc(ObjData::scalar_i64(0));
        let mut reds = RedVars::new();
        let sum = reds.declare("sum", RedVal::I64(0));
        let maxv = reds.declare("max", RedVal::I64(i64::MIN));
        let mut p = ExecParams::new(workers, chunk);
        p.reductions = vec![(sum, RedOp::Add), (maxv, RedOp::Max)];
        let updates2 = updates.clone();
        run_loop(
            &mut heap,
            &mut reds,
            &mut RangeSpace::new(0, updates.len() as u64),
            &p,
            Driver::sequential(),
            move |ctx, i| {
                ctx.red_add(sum, updates2[i as usize]);
                ctx.red_apply(maxv, RedOp::Max, updates2[i as usize]);
            },
        )
        .unwrap();
        assert_eq!(
            reds.get(sum).as_i64(),
            updates.iter().sum::<i64>(),
            "case {case}"
        );
        assert_eq!(
            reds.get(maxv).as_i64(),
            *updates.iter().max().unwrap(),
            "case {case}"
        );
    }
}

/// The deterministic allocator never hands two workers the same id, for
/// any geometry.
#[test]
fn reservations_are_pairwise_disjoint() {
    let mut rng = Rng(0x7175_0005);
    for case in 0..64 {
        let base = rng.below(10_000) as u32;
        let workers = 1 + rng.below(8);
        let block = 1 + rng.below(63) as u32;
        let mut seen = std::collections::HashSet::new();
        for w in 0..workers {
            let n = rng.below(200);
            let mut r = IdReservation::new(base, w, workers, block);
            for _ in 0..n {
                assert!(seen.insert(r.next_id()), "case {case}: duplicate id");
            }
        }
    }
}

/// `AccessSet::overlaps` and `AccessSet::first_overlap` agree with the
/// naive word-set model.
#[test]
fn access_set_overlap_matches_model() {
    let mut rng = Rng(0x7175_0006);
    for case in 0..96 {
        let build = |rng: &mut Rng| {
            let mut set = AccessSet::new();
            let mut model = std::collections::BTreeSet::new();
            for _ in 0..rng.below(20) {
                let obj = rng.below(6) as u32;
                let lo = rng.below(40) as u32;
                let len = 1 + rng.below(7) as u32;
                set.insert(alter::heap::ObjId::from_index(obj), lo, lo + len);
                for w in lo..lo + len {
                    model.insert((obj, w));
                }
            }
            (set, model)
        };
        let (sa, ma) = build(&mut rng);
        let (sb, mb) = build(&mut rng);
        let model_first = ma.intersection(&mb).next().copied();
        assert_eq!(sa.overlaps(&sb), model_first.is_some(), "case {case}");
        assert_eq!(sb.overlaps(&sa), model_first.is_some(), "case {case}");
        assert_eq!(sa.words(), ma.len() as u64, "case {case}");
        // first_overlap must name exactly the model's smallest shared
        // (object, word) — BTreeSet iteration order matches the engine's
        // deterministic (ascending object, ascending word) search.
        let got = sa.first_overlap(&sb).map(|(obj, word)| (obj.index(), word));
        assert_eq!(got, model_first, "case {case}");
    }
}

/// Snapshot isolation's defining property, checked exhaustively on a small
/// program: the final value of every cell equals the value written by the
/// last *committing* writer, and lost updates never occur for cells with
/// conflict checking.
#[test]
fn no_lost_updates_under_waw() {
    for chunk in 1..4usize {
        for workers in 1..5usize {
            let prog: Vec<Vec<Op>> = (0..16)
                .map(|i| {
                    vec![Op::Bump {
                        dst: (i % 5) as usize,
                        k: 1,
                    }]
                })
                .collect();
            let got = run_under(
                &prog,
                ConflictPolicy::Waw,
                CommitOrder::OutOfOrder,
                workers,
                chunk,
                Driver::sequential(),
            );
            let seq = interpret_sequential(&prog);
            assert_eq!(got, seq, "workers={workers} chunk={chunk}");
        }
    }
}
