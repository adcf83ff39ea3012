//! Driver invisibility sweep: the threaded driver is a pure throughput
//! optimization, so every workload must produce a byte-identical event
//! transcript — and therefore the same trace hash, the same program output
//! (the heap digest each workload extracts), and the same semantic
//! `RunStats` — under {sequential, threaded} at 1, 2, and 8 workers.
//!
//! Driver bookkeeping (`pool_round_handoffs` — everything
//! `RunStats::modulo_drive_mode` masks) is the *only* thing allowed to
//! differ between the drivers; everything else in `RunStats`, the ticket
//! counters included, is part of the observable semantics and is compared
//! exactly. Direct final-heap equality across drivers is asserted at the
//! engine level (`alter-runtime`'s
//! `coordinator_and_lane_both_execute_tickets_and_leave_no_trace_of_it`);
//! here each workload's output is the heap projection being compared.

use alter::heap::{Heap, ObjData};
use alter::infer::ProgramOutput;
use alter::runtime::{run_loop, Driver, ExecParams, RangeSpace, RedVars, RunStats, TxCtx};
use alter::trace::{to_jsonl, trace_hash, Recorder, RingRecorder};
use alter::workloads::{all_benchmarks, Benchmark, Scale};
use std::sync::Arc;

/// One traced run of `bench` under its best annotation.
fn traced(
    bench: &dyn Benchmark,
    workers: usize,
    threaded: bool,
) -> (String, u64, ProgramOutput, RunStats) {
    let rec = Arc::new(RingRecorder::default());
    let mut probe = bench.best_probe(workers);
    probe.threaded = threaded;
    probe.recorder = Some(rec.clone() as Arc<dyn Recorder>);
    let run = bench.run_probe(&probe).expect("probe must complete");
    let events = rec.events();
    assert_eq!(rec.dropped(), 0, "ring must hold the whole trace");
    (
        to_jsonl(&events),
        trace_hash(&events),
        run.output,
        run.stats,
    )
}

#[test]
fn round_modes_are_invisible_across_the_suite() {
    for bench in all_benchmarks(Scale::Inference) {
        for workers in [1usize, 2, 8] {
            // The sequential run is the baseline the threaded one must match.
            let (jsonl0, hash0, out0, stats0) = traced(bench.as_ref(), workers, false);
            assert_eq!(
                stats0.pool_round_handoffs,
                0,
                "{}/{workers}w: sequential driver must not touch the pool",
                bench.name()
            );
            let tag = format!("{}/{workers}w threaded", bench.name());
            let (jsonl, hash, out, stats) = traced(bench.as_ref(), workers, true);
            assert_eq!(jsonl0, jsonl, "{tag}: transcripts must be byte-identical");
            assert_eq!(hash0, hash, "{tag}: trace hashes must agree");
            assert_eq!(out0, out, "{tag}: program outputs must agree");
            assert_eq!(
                stats0.modulo_drive_mode(),
                stats.modulo_drive_mode(),
                "{tag}: semantic RunStats must agree"
            );
            assert_eq!(
                stats.tickets_issued + stats.tickets_requeued,
                stats.attempts,
                "{tag}: every attempt is an issued or re-queued ticket"
            );
            if workers > 1 {
                assert!(
                    stats.pool_round_handoffs > 0,
                    "{tag}: the pool must actually run rounds"
                );
            }
        }
    }
}

/// Where a commit's words land is a driver matter too, and just as
/// invisible. Both drivers drop the round's snapshot before they commit, so
/// a payload nobody else holds is merged into where it lies for the whole
/// run; a snapshot the caller keeps across the run forces the first commit
/// onto a copy and goes on reading the old words.
#[test]
fn barrier_drivers_commit_in_place_unless_a_snapshot_is_held() {
    const WORDS: usize = 1024;
    for (driver, workers) in [
        (Driver::sequential(), 1),
        (Driver::sequential(), 2),
        (Driver::threaded(), 2),
    ] {
        for hold in [false, true] {
            let tag = format!("{driver:?}/{workers}w hold={hold}");
            let mut heap = Heap::new();
            let xs = heap.alloc(ObjData::zeros_i64(WORDS));
            let held = hold.then(|| heap.snapshot());
            let before = heap.get(xs).i64s().as_ptr();
            run_loop(
                &mut heap,
                &mut RedVars::new(),
                &mut RangeSpace::new(0, WORDS as u64),
                &ExecParams::new(workers, 4),
                driver,
                |ctx: &mut TxCtx<'_>, i| ctx.tx.write_i64(xs, i as usize, i as i64 + 1),
            )
            .expect("loop must complete");
            let want: Vec<i64> = (1..=WORDS as i64).collect();
            assert_eq!(heap.get(xs).i64s(), &want[..], "{tag}");
            assert_eq!(
                heap.get(xs).i64s().as_ptr() == before,
                !hold,
                "{tag}: in place exactly when nothing shares the payload"
            );
            if let Some(snap) = held {
                assert_eq!(snap.get(xs).unwrap().i64s(), &[0; WORDS], "{tag}");
            }
        }
    }
}
