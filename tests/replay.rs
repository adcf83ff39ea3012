//! Integration tests for the record/replay subsystem: JSONL codec
//! round-trip properties over randomized event sequences, journal
//! validation (truncation / reordering / field corruption), record→replay
//! identity across all twelve workloads, the divergence bisector's
//! precision on a deliberately mutated journal, replay's division of labour
//! with the sanitizer and the checker, and a byte-wise mutation sweep the
//! journal reader must survive without panicking.

use alter::analyze::{check_journal, sanitize, DEFAULT_SCHEDULE_BUDGET};
use alter::heap::{Heap, ObjData};
use alter::runtime::replay::{diverge_bisect, ReplayOutcome};
use alter::runtime::{
    run_loop, CommitOrder, ConflictPolicy, Driver, ExecParams, RangeSpace, RedVars,
};
use alter::trace::{
    from_jsonl, to_jsonl, trace_hash, ConflictKind, Event, Journal, JournalHeader, Recorder,
    RingRecorder,
};
use alter::workloads::{all_benchmarks, common::SplitMix64, find_benchmark, Benchmark, Scale};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// JSONL codec round-trip property
// ---------------------------------------------------------------------------

/// Draws one random event; `pick` selects the variant, so driving it with
/// `i % VARIANTS` guarantees every variant is exercised.
fn random_event(pick: usize, rng: &mut SplitMix64) -> Event {
    let ops = ["+", "*", "max", "min", "and", "or"];
    // Strings with escapes, quotes, and non-ASCII to stress the codec.
    let strings = [
        "",
        "plain",
        "with \"quotes\"",
        "back\\slash",
        "näïve\n☃",
        "0:0-4,7:1-3",
    ];
    let s = |rng: &mut SplitMix64| strings[rng.next_u64() as usize % strings.len()].to_owned();
    let obj = alter::heap::ObjId::from_index(rng.next_u64() as u32 % 1000);
    match pick {
        0 => Event::RoundStart {
            round: rng.next_u64() % 1000,
            tasks: rng.next_u64() as u32 % 64,
            snapshot_slots: rng.next_u64() % 10_000,
        },
        1 => Event::TaskStart {
            seq: rng.next_u64() % 10_000,
            worker: rng.next_u64() as u32 % 8,
            iters: rng.next_u64() as u32 % 100,
        },
        2 => Event::TaskSets {
            seq: rng.next_u64() % 10_000,
            reads: s(rng),
            writes: s(rng),
        },
        3 => Event::ValidateOk {
            seq: rng.next_u64() % 10_000,
            validate_words: rng.next_u64() % 1_000_000,
        },
        4 => Event::ValidateConflict {
            seq: rng.next_u64() % 10_000,
            kind: if rng.next_u64().is_multiple_of(2) {
                ConflictKind::Raw
            } else {
                ConflictKind::Waw
            },
            obj,
            word: rng.next_u64() as u32 % 4096,
            winner_seq: rng.next_u64() % 10_000,
        },
        5 => Event::Commit {
            seq: rng.next_u64() % 10_000,
            read_words: rng.next_u64() % 1_000_000,
            write_words: rng.next_u64() % 1_000_000,
            allocs: rng.next_u64() as u32 % 100,
            frees: rng.next_u64() as u32 % 100,
        },
        6 => Event::Squash {
            seq: rng.next_u64() % 10_000,
            by_seq: rng.next_u64() % 10_000,
        },
        7 => Event::ReductionMerge {
            seq: rng.next_u64() % 10_000,
            var: rng.next_u64() as u32 % 16,
            op: ops[rng.next_u64() as usize % ops.len()],
        },
        8 => Event::Oom {
            words: rng.next_u64() % u64::MAX,
            budget: rng.next_u64(),
        },
        9 => Event::Crash { message: s(rng) },
        10 => Event::WorkBudgetExceeded {
            spent: rng.next_u64(),
            budget: rng.next_u64(),
        },
        11 => Event::ProbeStart { annotation: s(rng) },
        12 => Event::ProbeOutcome {
            annotation: s(rng),
            outcome: s(rng),
        },
        _ => Event::RunEnd {
            rounds: rng.next_u64() % 1000,
            attempts: rng.next_u64() % 100_000,
            committed: rng.next_u64() % 100_000,
        },
    }
}

const VARIANTS: usize = 14;

#[test]
fn jsonl_round_trips_random_event_sequences() {
    for seed in 0..16u64 {
        let mut rng = SplitMix64::seed_from_u64(0xA17E_5000 + seed);
        let len = 64 + (rng.next_u64() as usize % 64);
        let events: Vec<Event> = (0..len)
            // `i % VARIANTS` guarantees every variant (incl. RunEnd)
            // appears in every sequence; the rng varies the payloads.
            .map(|i| random_event(i % VARIANTS, &mut rng))
            .collect();
        let text = to_jsonl(&events);
        let back = from_jsonl(&text).expect("canonical JSONL must parse back");
        assert_eq!(back, events, "seed {seed}: codec round trip lost data");
        // The canonical form is a fixed point: re-encoding is byte-identical.
        assert_eq!(to_jsonl(&back), text);
    }
}

// ---------------------------------------------------------------------------
// Recording helpers
// ---------------------------------------------------------------------------

/// Records `bench` under its best annotation, with task sets when `sets`;
/// panics if the ring drops events (journals must be complete).
fn record(bench: &dyn Benchmark, workers: usize, sets: bool) -> Vec<Event> {
    let mut probe = bench.best_probe(workers);
    probe.record_sets = sets;
    let rec = Arc::new(RingRecorder::default());
    probe.recorder = Some(rec.clone() as Arc<dyn Recorder>);
    bench.run_probe(&probe).expect("probe must complete");
    assert_eq!(rec.dropped(), 0, "{}: ring dropped events", bench.name());
    rec.events()
}

fn journal_for(bench: &dyn Benchmark, events: Vec<Event>) -> Journal {
    let header = JournalHeader {
        workload: bench.name().to_owned(),
        annotation: "best".to_owned(),
        workers: 2,
        record_sets: false,
        trace_hash: 0, // recomputed by Journal::new
    };
    Journal::new(header, events).expect("recorded stream is a valid journal")
}

// ---------------------------------------------------------------------------
// Journal header back-compat: the retired profile, pipeline and heap-layout
// fields
// ---------------------------------------------------------------------------

/// Journals written while there was a pipelined driver carry a `pipeline`
/// depth, those written while the heap had a layout to choose a
/// `"shards":` count, and those written while phase costs could be traced
/// a `"profile":` flag; none selects anything any more. All must keep parsing — whatever they say — to the
/// journal written today, and must re-serialize *canonically*, with all
/// gone, so one normalization pass brings any legacy journal onto the
/// current fixed-point form.
#[test]
fn legacy_headers_parse_with_defaults_and_reserialize_canonically() {
    for seed in 0..64u64 {
        let mut rng = SplitMix64::seed_from_u64(0x0A17_E900 + seed);
        let pipeline = (rng.next_u64() % 8) as u32;
        let layout = 1u32 << (rng.next_u64() % 5);
        let header = JournalHeader {
            workload: "genome".to_owned(),
            annotation: "best".to_owned(),
            workers: 1 + (rng.next_u64() % 8) as u32,
            record_sets: rng.next_u64().is_multiple_of(2),
            trace_hash: 0, // recomputed by Journal::new
        };
        let profile = rng.next_u64() % 2;
        let events = vec![
            Event::RoundStart {
                round: 0,
                tasks: 1,
                snapshot_slots: rng.next_u64() % 16,
            },
            Event::ValidateOk {
                seq: 0,
                validate_words: rng.next_u64() % 1000,
            },
            Event::Commit {
                seq: 0,
                read_words: 0,
                write_words: rng.next_u64() % 1000,
                allocs: 0,
                frees: 0,
            },
            Event::RunEnd {
                rounds: 1,
                attempts: 1,
                committed: 1,
            },
        ];
        let journal = Journal::new(header, events).expect("valid journal");
        let text = journal.to_jsonl();
        let head = text.lines().next().expect("header line");
        // The canonical header names no retired field...
        assert!(!head.contains("\"profile\":"), "{head}");
        assert!(!head.contains("pipeline"), "{head}");
        assert!(!head.contains("\"shards\":"), "{head}");
        // ...and non-default values survive a round trip.
        let back = Journal::from_jsonl(&text).expect("canonical journal reloads");
        assert_eq!(back.header(), journal.header(), "seed {seed}");

        // A header still carrying any retired field, or all three, loads
        // to the very same journal...
        for retired in [
            format!(",\"shards\":{layout}"),
            format!(",\"pipeline\":{pipeline}"),
            format!(",\"profile\":{profile}"),
            format!(",\"pipeline\":{pipeline},\"shards\":{layout}"),
            format!(",\"profile\":{profile},\"pipeline\":{pipeline},\"shards\":{layout}"),
        ] {
            let legacy = text.replacen(",\"hash\":", &format!("{retired},\"hash\":"), 1);
            assert_ne!(legacy, text, "seed {seed}: field must have been added");
            let parsed = Journal::from_jsonl(&legacy).expect("legacy journal must parse");
            assert_eq!(parsed, journal, "seed {seed}: {retired}");
            // ...and re-serializing normalizes: the retired fields go, and
            // the result is a fixed point of parse → serialize.
            assert_eq!(parsed.to_jsonl(), text, "seed {seed}: {retired}");
        }
    }
}

// ---------------------------------------------------------------------------
// Journal validation: truncation, reordering, corruption
// ---------------------------------------------------------------------------

#[test]
fn journal_rejects_truncated_reordered_and_corrupted_files() {
    let bench = find_benchmark("genome").expect("genome is registered");
    let journal = journal_for(bench.as_ref(), record(bench.as_ref(), 2, false));
    let text = journal.to_jsonl();
    assert!(Journal::from_jsonl(&text).is_ok());

    // Truncation: cut the terminal event.
    let lines: Vec<&str> = text.lines().collect();
    let cut = lines[..lines.len() - 1].join("\n");
    let err = Journal::from_jsonl(&cut).expect_err("truncated journal must be rejected");
    assert!(err.msg.contains("truncated"), "{err}");

    // Reordering: swap two round_start lines (payloads differ by round
    // number, so the strict 0,1,2,… check fires).
    let starts: Vec<usize> = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.contains("\"ev\":\"round_start\""))
        .map(|(i, _)| i)
        .collect();
    assert!(starts.len() >= 2, "genome runs more than one round");
    let mut swapped = lines.clone();
    swapped.swap(starts[0], starts[1]);
    let err =
        Journal::from_jsonl(&swapped.join("\n")).expect_err("reordered journal must be rejected");
    assert!(err.msg.contains("out-of-order round"), "{err}");

    // Field corruption that still parses: bump a numeric payload. The
    // header hash no longer matches the events.
    let target = lines
        .iter()
        .find(|l| l.contains("\"ev\":\"commit\""))
        .expect("genome commits at least once");
    let corrupted = text.replace(
        target,
        &target.replace("\"read_words\":", "\"read_words\":9"),
    );
    assert_ne!(corrupted, text);
    let err = Journal::from_jsonl(&corrupted).expect_err("corrupted journal must be rejected");
    assert!(err.msg.contains("hash mismatch"), "{err}");
}

// ---------------------------------------------------------------------------
// Record → replay identity over every workload
// ---------------------------------------------------------------------------

#[test]
fn record_replay_identity_all_workloads() {
    for bench in all_benchmarks(Scale::Inference) {
        let journal = journal_for(bench.as_ref(), record(bench.as_ref(), 2, false));
        // Serialize and reload — replay consumes journals from disk. The
        // file is given the header of a PR 8–13 recording made under the
        // pipelined driver with `"shards":16`: the one driver over the one
        // slot table replays it to the byte-identical stream all the same.
        let on_disk =
            journal
                .to_jsonl()
                .replacen(",\"hash\":", ",\"pipeline\":4,\"shards\":16,\"hash\":", 1);
        let reloaded = Journal::from_jsonl(&on_disk).expect("journal reloads");
        assert_eq!(reloaded, journal, "{}", bench.name());
        let fresh = record(bench.as_ref(), 2, false);
        match diverge_bisect(reloaded.events(), &fresh) {
            ReplayOutcome::Identical { events, hash } => {
                assert_eq!(events, reloaded.events().len());
                assert_eq!(hash, reloaded.header().trace_hash);
            }
            ReplayOutcome::Diverged(d) => {
                panic!("{} replay diverged:\n{}", bench.name(), d.render())
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Replay compares streams; verdicts are the sanitizer's and the checker's
// ---------------------------------------------------------------------------

/// The committed `overlap-commit` fixture commits two StaleReads tickets
/// whose write sets overlap. It is a structurally sound journal, and replay
/// certifies any stream the fresh run reproduces — here, the journal's own
/// — without re-deriving a verdict; the sanitizer and the checker are what
/// reject it.
#[test]
fn replay_certifies_a_stream_whose_verdicts_only_the_sanitizer_and_checker_reject() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/overlap-commit.journal"
    );
    let text = std::fs::read_to_string(path).expect("fixture committed");
    let journal = Journal::from_jsonl(&text).expect("the fixture is a sound journal");
    let events = journal.events();
    assert!(matches!(
        diverge_bisect(events, events),
        ReplayOutcome::Identical { .. }
    ));
    // The fixture's StaleReads run: `Waw` validation, out-of-order commit.
    let stale = ExecParams::new(4, 16);
    assert!(!sanitize(events, &stale).is_empty());
    let report = check_journal(&journal, &stale, DEFAULT_SCHEDULE_BUDGET).expect("extracts");
    assert!(!report.sound());
}

// ---------------------------------------------------------------------------
// Divergence fixture: the bisector pinpoints a deliberate mutation
// ---------------------------------------------------------------------------

#[test]
fn deliberate_divergence_is_bisected_to_the_exact_event() {
    let bench = find_benchmark("genome").expect("genome is registered");
    let fresh = record(bench.as_ref(), 2, true);
    let mut mutated = fresh.clone();

    // Mutate one mid-run commit event. Journals self-hash on construction
    // (`Journal::new` recomputes the header hash), so the tampered journal
    // is structurally valid — only replay can catch it.
    let target = mutated
        .iter()
        .enumerate()
        .filter(|(_, ev)| matches!(ev, Event::Commit { .. }))
        .map(|(i, _)| i)
        .nth(5)
        .expect("genome commits more than five tasks");
    let (expect_round, expect_seq) = {
        let round = mutated[..target]
            .iter()
            .rev()
            .find_map(|ev| match ev {
                Event::RoundStart { round, .. } => Some(*round),
                _ => None,
            })
            .expect("commit happens inside a round");
        let seq = match &mutated[target] {
            Event::Commit { seq, .. } => *seq,
            _ => unreachable!(),
        };
        (round, seq)
    };
    if let Event::Commit { read_words, .. } = &mut mutated[target] {
        *read_words += 1;
    }
    let journal = journal_for(bench.as_ref(), mutated);
    let reloaded = Journal::from_jsonl(&journal.to_jsonl()).expect("tampered journal self-hashes");

    match diverge_bisect(reloaded.events(), &fresh) {
        ReplayOutcome::Diverged(d) => {
            assert_eq!(d.index, target, "bisector must land on the mutated event");
            assert_eq!(d.round, expect_round);
            assert_eq!(d.seq, Some(expect_seq));
            assert_eq!(d.expected, Some(reloaded.events()[target].clone()));
            assert_eq!(d.actual, Some(fresh[target].clone()));
            assert_eq!(d.prefix_hash, trace_hash(&reloaded.events()[..target]));
            assert_eq!(d.expected_hash, reloaded.header().trace_hash);
            assert_eq!(d.actual_hash, trace_hash(&fresh));
            let text = d.render();
            assert!(text.contains(&format!("round {expect_round}")), "{text}");
        }
        ReplayOutcome::Identical { .. } => panic!("mutation must be detected"),
    }
}

// ---------------------------------------------------------------------------
// Byte-wise journal mutation: the reader errs, it never panics
// ---------------------------------------------------------------------------

/// A small recorded journal with access sets: a 2-worker `FULL` loop over 4
/// iterations in which every third iteration also bumps a shared counter,
/// so the stream carries `task_sets`, conflicts and retries.
fn toy_journal_with_sets() -> Journal {
    let mut heap = Heap::new();
    let xs = heap.alloc(ObjData::zeros_i64(8));
    let shared = heap.alloc(ObjData::scalar_i64(0));
    let rec = Arc::new(RingRecorder::default());
    let mut p = ExecParams::new(2, 1);
    p.conflict = ConflictPolicy::Full;
    p.order = CommitOrder::OutOfOrder;
    p.record_sets = true;
    let p = p.with_recorder(rec.clone() as Arc<dyn Recorder>);
    run_loop(
        &mut heap,
        &mut RedVars::new(),
        &mut RangeSpace::new(0, 4),
        &p,
        Driver::sequential(),
        |ctx, i| {
            let s = ctx.tx.read_i64(shared, 0);
            ctx.tx.write_i64(xs, i as usize, s + 1);
            if i % 3 == 0 {
                ctx.tx.write_i64(shared, 0, s + 1);
            }
        },
    )
    .expect("toy loop completes");
    let header = JournalHeader {
        workload: "toy".to_owned(),
        annotation: "[FULL + OutOfOrder]".to_owned(),
        workers: 2,
        record_sets: true,
        trace_hash: 0, // recomputed by Journal::new
    };
    Journal::new(header, rec.events()).expect("recorded stream is a valid journal")
}

/// Every single-byte deletion of the journal, and every byte replaced by
/// each of `0 9 " } , \n`, must load as `Ok` or `Err` — never panic.
#[test]
fn journal_reader_never_panics_on_byte_mutations() {
    let text = toy_journal_with_sets().to_jsonl();
    assert!(text.contains("\"ev\":\"task_sets\""), "{text}");
    assert!(text.contains("\"ev\":\"validate_conflict\""), "{text}");
    assert!(text.is_ascii(), "every mutation below stays valid UTF-8");
    let bytes = text.as_bytes();
    let load = |mutated: Vec<u8>, what: &str| {
        let mutated = String::from_utf8(mutated).expect("ASCII stays UTF-8");
        let outcome = std::panic::catch_unwind(|| Journal::from_jsonl(&mutated).is_ok());
        assert!(outcome.is_ok(), "{what}: the reader panicked on\n{mutated}");
    };
    let mut variants = 0;
    for at in 0..bytes.len() {
        let mut deleted = bytes.to_vec();
        deleted.remove(at);
        load(deleted, &format!("byte {at} deleted"));
        variants += 1;
        for &b in b"09\"},\n" {
            if bytes[at] != b {
                let mut replaced = bytes.to_vec();
                replaced[at] = b;
                load(replaced, &format!("byte {at} replaced by {:?}", b as char));
                variants += 1;
            }
        }
    }
    assert!(variants > 5 * bytes.len(), "{variants} variants");
}
