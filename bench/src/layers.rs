//! The traced run: per-layer probes timed from outside, around public
//! calls into each crate, plus the traced repetition of the workload with
//! `Probe.wall_profile` attached.
//!
//! Probe inputs come from `--seed`. Each probe times only the call it is
//! named after; building its inputs stays outside the timed region.

use crate::env::handoff_us;
use crate::gate::{columns, Gate};
use crate::harness::{Counts, Harness, Ready};
use crate::stats::{paired_ratios, Better};
use crate::{Args, Metric};
use alter_analyze::{interpret, lint, LintTarget};
use alter_collections::AlterHashSet;
use alter_heap::{AccessSet, CommitOps, Heap, IdReservation, ObjData, ObjId, TrackMode, Tx};
use alter_infer::{infer, InferConfig, InferReport, Probe};
use alter_runtime::{
    Annotation, Driver, ExecParams, LoopBuilder, RedLocals, RedOp, RedVal, RedVars,
};
use alter_sim::{CostModel, SimObserver};
use alter_trace::{NopRecorder, Phase, RingRecorder, WallProfile, DEFAULT_RING_CAPACITY};
use alter_workloads::common::{rng, uniform_f64s, uniform_usizes, SplitMix64};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Slots of the big heap (Genome's paper-scale bucket count).
const BIG_HEAP_SLOTS: usize = 131_072;
/// Slots dirtied before each incremental snapshot.
const DIRTY_SLOTS: usize = 16;
/// Slots of the heap under the empty-body loop.
const LOOP_HEAP_SLOTS: usize = 16_384;
/// Iterations of the empty-body loop and of the hash-set insert loop.
const LOOP_ITERS: usize = 4096;
/// Words of the object element reads and writes sweep.
const SWEEP_WORDS: usize = 4096;
/// Objects per batch in the commit and first-write probes.
const BATCH_OBJECTS: usize = 64;
/// Least and most traced sample groups.
const TRACED_GROUPS: (usize, usize) = (5, 11);
/// Fewest quiet traced groups a median is reported from.
const MIN_QUIET_TRACED: usize = 3;
/// What the layer probes take; the traced groups stop re-taking samples
/// this long before `--seconds` are over.
const LAYER_PROBES_RESERVE: Duration = Duration::from_secs(3);

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e9
}

/// Collects the traced run's metrics, one span per probe.
struct Layers<'h> {
    h: &'h mut Harness,
    out: Vec<Metric>,
}

impl Layers<'_> {
    /// Takes `n` samples of `sample` inside a span named after the metric.
    fn probe(&mut self, name: &str, unit: &'static str, n: usize, mut sample: impl FnMut() -> f64) {
        let open = self.h.spans.enter(&format!("layer:{name}"));
        let samples: Vec<f64> = (0..n).map(|_| sample()).collect();
        self.h.spans.exit(open);
        self.sampled(name, unit, &samples);
    }

    fn sampled(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        self.out
            .push(Metric::sampled(name, unit, samples, Better::Lower));
    }

    fn exact(&mut self, name: &str, unit: &'static str, value: f64) {
        self.out.push(Metric::exact(name, unit, value));
    }
}

fn scalar_heap(slots: usize, r: &mut SplitMix64) -> Heap {
    let mut heap = Heap::new();
    for _ in 0..slots {
        heap.alloc(ObjData::scalar_i64(r.next_u64() as i64));
    }
    heap
}

fn heap_probes(l: &mut Layers<'_>, r: &mut SplitMix64) {
    let mut heap = scalar_heap(BIG_HEAP_SLOTS, r);
    drop(heap.snapshot_incremental());
    l.probe("heap.snapshot_incr_us", "us", 200, || {
        let writes = uniform_usizes(r, DIRTY_SLOTS, BIG_HEAP_SLOTS)
            .into_iter()
            .map(|i| {
                let src = Arc::new(ObjData::scalar_i64(i as i64));
                (ObjId::from_index(i as u32), 0, 1, src)
            })
            .collect();
        heap.apply_commit(CommitOps {
            writes,
            ..CommitOps::default()
        });
        let t = Instant::now();
        let snap = heap.snapshot_incremental();
        let ns = ns_since(t);
        drop(snap);
        ns / 1e3
    });
    l.probe("heap.snapshot_full_ns_per_slot", "ns", 30, || {
        let t = Instant::now();
        let snap = heap.snapshot();
        let ns = ns_since(t);
        drop(snap);
        ns / BIG_HEAP_SLOTS as f64
    });

    // Commits of all but the last word of an object, with the round's
    // snapshot still alive as in the engine: the copy-on-write path.
    for (words, name) in [
        (8usize, "heap.apply_commit_ns_per_word_8"),
        (512, "heap.apply_commit_ns_per_word_512"),
    ] {
        let mut heap = Heap::new();
        let ids: Vec<ObjId> = (0..BATCH_OBJECTS)
            .map(|_| heap.alloc(ObjData::zeros_f64(words)))
            .collect();
        l.probe(name, "ns", 50, || {
            let snap = heap.snapshot_incremental();
            let writes = ids
                .iter()
                .map(|id| {
                    let src = Arc::new(ObjData::F64(uniform_f64s(r, words, 0.0, 1.0)));
                    (*id, 0, words as u32 - 1, src)
                })
                .collect();
            let ops = CommitOps {
                writes,
                ..CommitOps::default()
            };
            let t = Instant::now();
            heap.apply_commit(ops);
            let ns = ns_since(t);
            drop(snap);
            ns / (BATCH_OBJECTS * (words - 1)) as f64
        });
    }
}

fn tx_probes(l: &mut Layers<'_>, r: &mut SplitMix64) {
    let mut heap = Heap::new();
    let xs = heap.alloc(ObjData::F64(uniform_f64s(r, SWEEP_WORDS, 0.0, 1.0)));
    let rows: Vec<ObjId> = (0..BATCH_OBJECTS)
        .map(|_| heap.alloc(ObjData::F64(uniform_f64s(r, 512, 0.0, 1.0))))
        .collect();
    let snap = heap.snapshot();
    let high_water = heap.high_water();
    let new_tx = |mode| {
        let ids = IdReservation::new(high_water, 0, 1, alter_heap::DEFAULT_BLOCK_SIZE);
        Tx::new(&snap, mode, ids, u64::MAX)
    };

    l.probe("tx.lifecycle_ns", "ns", 50, || {
        let t = Instant::now();
        for _ in 0..1000 {
            black_box(new_tx(TrackMode::WritesOnly).finish());
        }
        ns_since(t) / 1000.0
    });
    for (mode, name) in [
        (TrackMode::ReadsAndWrites, "tx.read_tracked_ns"),
        (TrackMode::WritesOnly, "tx.read_untracked_ns"),
    ] {
        l.probe(name, "ns", 50, || {
            let mut tx = new_tx(mode);
            let t = Instant::now();
            let mut acc = 0.0;
            for i in 0..SWEEP_WORDS {
                acc += tx.read_f64(xs, i);
            }
            black_box(acc);
            ns_since(t) / SWEEP_WORDS as f64
        });
    }
    l.probe("tx.range_read_ns_per_word", "ns", 50, || {
        let mut tx = new_tx(TrackMode::ReadsAndWrites);
        let t = Instant::now();
        black_box(tx.with_f64s(xs, 0, SWEEP_WORDS, |s| s.iter().sum::<f64>()));
        ns_since(t) / SWEEP_WORDS as f64
    });
    l.probe("tx.write_first_ns_per_word", "ns", 50, || {
        let mut tx = new_tx(TrackMode::WritesOnly);
        let t = Instant::now();
        for row in &rows {
            tx.write_f64(*row, 0, 1.0);
        }
        let ns = ns_since(t);
        black_box(tx.finish());
        ns / (BATCH_OBJECTS * 512) as f64
    });
    l.probe("tx.write_repeat_ns", "ns", 50, || {
        let mut tx = new_tx(TrackMode::WritesOnly);
        tx.write_f64(xs, 0, 0.0);
        let t = Instant::now();
        for i in 0..SWEEP_WORDS {
            tx.write_f64(xs, i, i as f64);
        }
        let ns = ns_since(t);
        black_box(tx.finish());
        ns / SWEEP_WORDS as f64
    });
    l.probe("tx.alloc_ns", "ns", 50, || {
        let mut tx = new_tx(TrackMode::WritesOnly);
        let t = Instant::now();
        for _ in 0..1000 {
            black_box(tx.alloc(ObjData::zeros_i64(4)));
        }
        let ns = ns_since(t);
        black_box(tx.finish());
        ns / 1000.0
    });
}

fn sets_probes(l: &mut Layers<'_>, r: &mut SplitMix64) {
    let base = r.gen_range(0..1usize << 20) as u32;
    let id = |i: u32| ObjId::from_index(base + i);
    l.probe("sets.insert_ns", "ns", 50, || {
        let mut set = AccessSet::new();
        let t = Instant::now();
        for o in 0..BATCH_OBJECTS as u32 {
            for w in 0..16 {
                set.insert_word(id(o), w);
            }
        }
        let ns = ns_since(t);
        black_box(set);
        ns / (BATCH_OBJECTS * 16) as f64
    });

    let (mut a, mut b) = (AccessSet::new(), AccessSet::new());
    for i in 0..1000 {
        a.insert(id(i), 0, 8);
        b.insert(id(i + 1000), 0, 8);
    }
    l.probe("sets.overlap_disjoint_ns_per_obj", "ns", 50, || {
        let t = Instant::now();
        for _ in 0..20 {
            assert!(!black_box(&a).overlaps(black_box(&b)));
        }
        ns_since(t) / (20.0 * 1000.0)
    });
    let mut hit = b.clone();
    hit.insert(id(r.gen_range(0..1000usize) as u32), 4, 6);
    l.probe("sets.overlap_hit_ns", "ns", 50, || {
        let t = Instant::now();
        for _ in 0..20 {
            assert!(black_box(&a).overlaps(black_box(&hit)));
        }
        ns_since(t) / 20.0
    });
    l.probe("sets.fingerprint_ns", "ns", 50, || {
        let t = Instant::now();
        for _ in 0..1000 {
            black_box(black_box(&a).fingerprint());
        }
        ns_since(t) / 1000.0
    });
}

/// One empty-body `[StaleReads]` loop at chunk factor 1; returns µs per
/// round.
fn empty_loop_us_per_round(heap: &mut Heap, workers: usize, observer: Option<&CostModel>) -> f64 {
    let ann: Annotation = "[StaleReads]".parse().expect("static annotation");
    let params = ExecParams::from_annotation(&ann, workers, 1);
    let driver = if workers > 1 {
        Driver::threaded()
    } else {
        Driver::sequential()
    };
    let mut obs = observer.map(|m| SimObserver::new(m, workers));
    let mut builder = LoopBuilder::new(&params).range(0, LOOP_ITERS as u64);
    if let Some(o) = obs.as_mut() {
        builder = builder.observer(o);
    }
    let t = Instant::now();
    let stats = builder
        .run(heap, driver, |_, _| {})
        .expect("an empty body cannot fail");
    ns_since(t) / 1e3 / stats.rounds as f64
}

fn runtime_probes(l: &mut Layers<'_>, gate: &mut Gate<'_>, r: &mut SplitMix64) {
    l.probe("pool.handoff_us", "us", 9, || handoff_us(gate.pool()));

    let mut heap = scalar_heap(LOOP_HEAP_SLOTS, r);
    l.probe("engine.round_fixed_us_inst1", "us", 9, || {
        empty_loop_us_per_round(&mut heap, 1, None)
    });
    l.probe("engine.round_fixed_us_par2", "us", 9, || {
        empty_loop_us_per_round(&mut heap, 2, None)
    });
    let model = CostModel::default();
    let open = l.h.spans.enter("layer:sim.observer_overhead_x");
    let (with, without): (Vec<f64>, Vec<f64>) = (0..9)
        .map(|_| {
            (
                empty_loop_us_per_round(&mut heap, 1, Some(&model)),
                empty_loop_us_per_round(&mut heap, 1, None),
            )
        })
        .unzip();
    l.h.spans.exit(open);
    l.sampled(
        "sim.observer_overhead_x",
        "x",
        &paired_ratios(&with, &without),
    );

    // One K-means-shaped round: two workers, sixteen `delta += x` each.
    let mut reds = RedVars::new();
    let delta = reds.declare("delta", RedVal::F64(0.0));
    let policy = [(delta, RedOp::Add)];
    let x = r.next_f64();
    l.probe("reduction.merge_round_us", "us", 50, || {
        let t = Instant::now();
        for _ in 0..1000 {
            for _worker in 0..2 {
                let mut locals = RedLocals::for_policy(&policy, &reds);
                for _ in 0..16 {
                    locals.apply_source(delta, RedOp::Add, RedVal::F64(x));
                }
                for d in locals.into_deltas() {
                    reds.merge(&d);
                }
            }
        }
        black_box(reds.get(delta));
        ns_since(t) / 1e3 / 1000.0
    });
}

fn collections_probes(l: &mut Layers<'_>, r: &mut SplitMix64) {
    let keys: Vec<i64> = (0..LOOP_ITERS).map(|_| r.next_u64() as i64 >> 1).collect();
    let ann: Annotation = "[StaleReads]".parse().expect("static annotation");
    let params = ExecParams::from_annotation(&ann, 1, LOOP_ITERS);
    l.probe("collections.hashset_insert_ns", "ns", 9, || {
        let mut heap = Heap::new();
        let set = AlterHashSet::new(&mut heap, LOOP_HEAP_SLOTS, 8);
        let t = Instant::now();
        LoopBuilder::new(&params)
            .range(0, LOOP_ITERS as u64)
            .run(&mut heap, Driver::sequential(), |ctx, i| {
                set.insert(ctx, keys[i as usize]);
            })
            .expect("inserts cannot fail");
        ns_since(t) / LOOP_ITERS as f64
    });
}

/// `Dep TLS OutOrd Stale Reduction`, the workload's Table 3 row.
fn verdict_row(report: &InferReport) -> String {
    format!(
        "{} {} {} {} {}",
        if report.dep.any() { "Yes" } else { "No" },
        report.tls.short(),
        report.out_of_order.short(),
        report.stale_reads.short(),
        report.reduction_cell()
    )
}

fn search_probes(l: &mut Layers<'_>, ready: &Ready) {
    let w = &ready.w;
    let (report, secs) = l.h.spans.time("layer:infer.search_ms", || {
        infer(w.small.as_ref(), &InferConfig::default())
    });
    let row = verdict_row(&report);
    l.h.check(
        row == w.expected_infer,
        &format!("infer returned `{row}`, expected `{}`", w.expected_infer),
    );
    l.exact("infer.search_ms", "ms", secs * 1e3);
    l.exact("infer.probes_run", "count", report.probes_run as f64);
    let pruned = report.pruned_candidates.len() + report.static_pruned.len();
    l.exact("infer.probes_pruned", "count", pruned as f64);

    let mut summary = None;
    l.probe("analyze.summary_ms", "ms", 3, || {
        let t = Instant::now();
        summary = Some(w.small.probe_summary());
        ns_since(t) / 1e6
    });
    let summary = summary.expect("three samples were taken");
    let target: Annotation = format!("[{}]", w.small_probe(1).describe())
        .parse()
        .expect("describe() prints annotation syntax");
    let target = LintTarget::Annotated(target);
    l.probe("analyze.check_ms", "ms", 3, || {
        let t = Instant::now();
        black_box(lint(&summary, &target));
        black_box(w.small.loop_spec().map(|spec| interpret(&spec)));
        ns_since(t) / 1e6
    });
}

/// What one traced sample measured: its time, and what its recorder or
/// wall profile held afterwards (zero for the configurations without one).
#[derive(Clone, Copy, Default)]
struct TracedRun {
    ms: f64,
    events: f64,
    phase_secs: [f64; alter_trace::PHASE_COUNT],
}

/// Index-aligned samples of the traced configurations.
struct Traced {
    cal: Vec<f64>,
    seq: Vec<f64>,
    inst1: Vec<f64>,
    par2: Vec<f64>,
    thr1: Vec<f64>,
    nop: Vec<f64>,
    ring: Vec<f64>,
    profiled: Vec<TracedRun>,
    events: f64,
}

/// Samples the traced configurations in turn until `n` of each were quiet.
fn traced_groups(h: &mut Harness, ready: &Ready, gate: &mut Gate<'_>, n: usize) -> Traced {
    let (w, reference) = (&ready.w, &ready.reference);
    let counts = Some(&ready.par2_counts);
    let timed = |h: &mut Harness, label: &str, probe: &Probe, expect: Option<&Counts>| {
        let (ms, _) = h.probe_ms(w, label, probe, reference, expect)?;
        Some(TracedRun {
            ms,
            ..TracedRun::default()
        })
    };
    let (inst1, par2, thr1) = (w.probe(1, false), w.probe(2, true), w.probe(1, true));
    let mut nop = w.probe(1, false);
    nop.recorder = Some(Arc::new(NopRecorder));

    let taken = gate.collect(
        h,
        n,
        &mut [
            &mut |h| {
                let ms = h.seq_ms(w, reference);
                Some(TracedRun {
                    ms,
                    ..TracedRun::default()
                })
            },
            &mut |h| timed(h, "inst1", &inst1, None),
            &mut |h| timed(h, "par2", &par2, counts),
            &mut |h| timed(h, "thr1", &thr1, None),
            &mut |h| timed(h, "inst1+nop", &nop, None),
            // A fresh recorder and profile per sample: a later run must
            // not add to what an earlier one left in them.
            &mut |h| {
                let ring = Arc::new(RingRecorder::new(DEFAULT_RING_CAPACITY));
                let mut probe = w.probe(1, false);
                probe.recorder = Some(ring.clone());
                let run = timed(h, "inst1+ring", &probe, None)?;
                Some(TracedRun {
                    events: ring.len() as f64 + ring.dropped() as f64,
                    ..run
                })
            },
            &mut |h| {
                let wall = Arc::new(WallProfile::new());
                let mut probe = w.probe(2, true);
                probe.wall_profile = Some(wall.clone());
                let run = timed(h, "par2+wall_profile", &probe, counts)?;
                Some(TracedRun {
                    phase_secs: wall.seconds(),
                    ..run
                })
            },
        ],
    );
    let columns = columns(taken, n.min(MIN_QUIET_TRACED));
    let ms = |c: usize| columns[c].iter().map(|s| s.value.ms).collect();
    Traced {
        cal: columns[0].iter().map(|s| s.before.cal_ms).collect(),
        seq: ms(0),
        inst1: ms(1),
        par2: ms(2),
        thr1: ms(3),
        nop: ms(4),
        ring: ms(5),
        profiled: columns[6].iter().map(|s| s.value).collect(),
        events: columns[5].last().map_or(0.0, |s| s.value.events),
    }
}

/// The traced run: sample groups with every recorder variant, then the
/// layer probes, then the search/analysis probes. Returns every per-layer
/// metric named in `BENCHMARK.json`.
pub fn traced_run(
    h: &mut Harness,
    ready: &Ready,
    gate: &mut Gate<'_>,
    planned: usize,
    args: &Args,
    nproc: usize,
    run_ends: Instant,
) -> Vec<Metric> {
    // An odd count, so the median traced run is one actual run.
    let n = (planned / 4).clamp(TRACED_GROUPS.0, TRACED_GROUPS.1) | 1;
    let left = run_ends.saturating_duration_since(Instant::now());
    gate.begin(run_ends - LAYER_PROBES_RESERVE.min(left / 2));
    let t = traced_groups(h, ready, gate, n);
    let quiet_share = gate.quiet_share();
    let mut l = Layers { h, out: Vec::new() };
    l.h.spans.set_run(0);
    let mut r = rng(args.seed ^ 0x001a_7e75);

    heap_probes(&mut l, &mut r);
    tx_probes(&mut l, &mut r);
    sets_probes(&mut l, &mut r);
    runtime_probes(&mut l, gate, &mut r);
    collections_probes(&mut l, &mut r);
    search_probes(&mut l, ready);

    let c = &ready.par2_counts;
    l.exact("engine.rounds", "count", c.rounds as f64);
    l.exact("engine.attempts", "count", c.attempts as f64);
    let retries = (c.attempts - c.committed) as f64;
    l.exact(
        "engine.retry_share",
        "share",
        retries / c.attempts.max(1) as f64,
    );
    l.exact(
        "engine.tracked_words_per_tx",
        "words",
        c.tracked_words as f64 / c.attempts.max(1) as f64,
    );
    l.exact("engine.validate_words", "count", c.validate_words as f64);
    l.exact(
        "engine.exact_scan_words",
        "count",
        c.exact_scan_words as f64,
    );
    l.exact(
        "engine.snapshot_slots_copied",
        "count",
        c.snapshot_slots_copied as f64,
    );
    l.exact("engine.cost_units", "count", c.cost_units as f64);

    if t.profiled.is_empty() {
        eprintln!("bench: no traced group completed");
        return l.out;
    }
    // The phases of the median traced run, so they sum to its time exactly.
    let mut by_time = t.profiled.clone();
    by_time.sort_by(|a, b| a.ms.total_cmp(&b.ms));
    let TracedRun {
        ms: run_ms,
        phase_secs,
        ..
    } = by_time[by_time.len() / 2];
    let phase_ms = |p: Phase| phase_secs[p.index()] * 1e3;
    let in_phases: f64 = phase_secs.iter().sum::<f64>() * 1e3;
    l.exact("engine.traced_par2_ms", "ms", run_ms);
    l.exact("engine.phase_snapshot_ms", "ms", phase_ms(Phase::Snapshot));
    l.exact("engine.phase_execute_ms", "ms", phase_ms(Phase::Execute));
    l.exact("engine.phase_validate_ms", "ms", phase_ms(Phase::Validate));
    l.exact("engine.phase_commit_ms", "ms", phase_ms(Phase::Commit));
    l.exact("engine.phase_residual_ms", "ms", run_ms - in_phases);
    let traced_ms: Vec<f64> = t.profiled.iter().map(|p| p.ms).collect();
    l.sampled(
        "engine.trace_overhead_x",
        "x",
        &paired_ratios(&traced_ms, &t.par2),
    );

    l.sampled(
        "pool.thr1_over_inst1_x",
        "x",
        &paired_ratios(&t.thr1, &t.inst1),
    );
    l.sampled(
        "trace.nop_overhead_x",
        "x",
        &paired_ratios(&t.nop, &t.inst1),
    );
    l.sampled(
        "trace.ring_overhead_x",
        "x",
        &paired_ratios(&t.ring, &t.inst1),
    );
    l.exact("trace.events_per_run", "count", t.events);

    l.sampled("workloads.seq_ms", "ms", &t.seq);
    l.sampled("workloads.inst1_ms", "ms", &t.inst1);
    l.sampled("workloads.par2_ms", "ms", &t.par2);
    let kiters: Vec<f64> = t.par2.iter().map(|ms| c.iterations as f64 / ms).collect();
    l.out.push(Metric::sampled(
        "workloads.par2_kiters_per_s",
        "kiter/s",
        &kiters,
        Better::Higher,
    ));
    l.probe("workloads.input_gen_ms", "ms", 9, || {
        let t = Instant::now();
        (ready.w.input_gen)();
        ns_since(t) / 1e6
    });
    l.sampled("env.cal_ms", "ms", &t.cal);
    l.exact("env.quiet_share", "share", quiet_share);
    l.exact("env.nproc", "count", nproc as f64);
    l.out
}
