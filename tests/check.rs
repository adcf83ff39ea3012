//! Integration tests for the `alter-cli check` schedule-space model checker:
//! a seeded two-sided property test of the per-schedule oracle (disjoint
//! permutations sanitize clean, conflicting reorderings are flagged, and
//! the record-level oracle agrees with sanitizing every rendered
//! permutation), the negative-fixture corpus of hand-corrupted journals
//! with byte-for-byte expected counterexamples, and the end-to-end
//! acceptance path — a deliberately-unsound DOALL run whose counterexample
//! journals replay through `alter-cli diff`.

use alter::analyze::{
    check_events, check_journal, sanitize, schedule_is_clean, DEFAULT_SCHEDULE_BUDGET,
};
use alter::heap::ObjId;
use alter::infer::{Model, Probe};
use alter::runtime::replay::{diverge_bisect, ReplayOutcome};
use alter::runtime::{CommitOrder, ConflictPolicy, ExecParams};
use alter::trace::{ConflictKind, Event, Journal, JournalHeader, Recorder, RingRecorder};
use alter::workloads::{common::SplitMix64, find_benchmark};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The parameters of a run validated under `conflict` and `order`.
fn params(conflict: ConflictPolicy, order: CommitOrder) -> ExecParams {
    let mut p = ExecParams::new(4, 16);
    p.conflict = conflict;
    p.order = order;
    p
}

// ---------------------------------------------------------------------------
// Seeded property test: the oracle from both sides
// ---------------------------------------------------------------------------

/// One synthetic task: its (disjoint by construction) write range on
/// object 1 and whether the recorded verdict is a conflict.
#[derive(Clone)]
struct SynthTask {
    writes: String,
    /// `Some((winner, obj, word))` when the recorded verdict is a WAW
    /// conflict against task `winner`.
    conflict: Option<(usize, u32, u32)>,
}

/// Renders a round of synthetic tasks as a recorded event stream under
/// the given commit permutation, relabelling sequence numbers to schedule
/// positions exactly as the checker synthesizes candidate schedules.
fn render_round(tasks: &[SynthTask], perm: &[usize]) -> Vec<Event> {
    let n = tasks.len();
    let mut pos = vec![0usize; n];
    for (p, &t) in perm.iter().enumerate() {
        pos[t] = p;
    }
    let mut evs = vec![Event::RoundStart {
        round: 0,
        tasks: n as u32,
        snapshot_slots: 0,
    }];
    let mut commits = 0u64;
    for (p, &t) in perm.iter().enumerate() {
        evs.push(Event::TaskSets {
            seq: p as u64,
            reads: String::new(),
            writes: tasks[t].writes.clone(),
        });
        match tasks[t].conflict {
            Some((winner, obj, word)) => evs.push(Event::ValidateConflict {
                seq: p as u64,
                kind: ConflictKind::Waw,
                obj: ObjId::from_index(obj),
                word,
                winner_seq: pos[winner] as u64,
            }),
            None => {
                evs.push(Event::ValidateOk {
                    seq: p as u64,
                    // Every synthetic task writes (and tracks) four words.
                    validate_words: 4 * commits,
                });
                evs.push(Event::Commit {
                    seq: p as u64,
                    read_words: 0,
                    write_words: 4,
                    allocs: 0,
                    frees: 0,
                });
                commits += 1;
            }
        }
    }
    evs.push(Event::RunEnd {
        rounds: 1,
        attempts: n as u64,
        committed: commits,
    });
    evs
}

/// Fisher–Yates shuffle driven by the test's seeded generator.
fn shuffle(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

#[test]
fn oracle_is_two_sided_over_seeded_rounds() {
    let stale = params(ConflictPolicy::Waw, CommitOrder::OutOfOrder);
    for seed in 0..50u64 {
        let mut rng = SplitMix64::seed_from_u64(0x0D10_C0DE + seed);
        let n = 3 + (rng.next_u64() % 4) as usize; // 3..=6 tasks

        // Soundness side: pairwise-disjoint committed writers. Every
        // permutation of the commit order must sanitize clean, and the
        // checker must collapse the n! schedules to one representative.
        let disjoint: Vec<SynthTask> = (0..n)
            .map(|k| SynthTask {
                writes: format!("1:{}-{}", 8 * k, 8 * k + 4),
                conflict: None,
            })
            .collect();
        let identity: Vec<usize> = (0..n).collect();
        let report = check_events(
            &render_round(&disjoint, &identity),
            &stale,
            DEFAULT_SCHEDULE_BUDGET,
        )
        .expect("synthetic round extracts");
        assert!(report.sound(), "seed {seed}: {:?}", report.unsound);
        assert_eq!(
            report.explored, 1,
            "seed {seed}: disjoint round is one trace"
        );
        assert_eq!(
            report.naive_schedules,
            (1..=n as u64).product::<u64>(),
            "seed {seed}"
        );
        // The record-level oracle re-sequences the recorded round; the
        // reference renders the permuted stream and sanitizes it.
        let recorded = render_round(&disjoint, &identity);
        for _ in 0..3 {
            let perm = shuffle(n, &mut rng);
            let permuted = render_round(&disjoint, &perm);
            assert_eq!(
                sanitize(&permuted, &stale),
                vec![],
                "seed {seed}: disjoint permutation {perm:?} must sanitize clean"
            );
            assert_eq!(
                schedule_is_clean(&recorded, &stale, &perm),
                Ok(true),
                "seed {seed}: {perm:?}"
            );
        }

        // Completeness side: make one later task overlap an earlier one,
        // with the honest recorded conflict. Any permutation that commits
        // the loser before its winner must be flagged.
        let mut tasks = disjoint.clone();
        let winner = (rng.next_u64() % (n as u64 - 1)) as usize;
        let loser = winner + 1 + (rng.next_u64() % (n as u64 - 1 - winner as u64)) as usize;
        let word = (8 * winner + 2) as u32;
        tasks[loser] = SynthTask {
            writes: format!("1:{}-{}", word, word + 4),
            conflict: Some((winner, 1, word)),
        };

        // The recorded (identity) journal is valid, and the checker finds
        // exactly one extra representative — the flipped conflict edge —
        // and flags it.
        let report = check_events(
            &render_round(&tasks, &identity),
            &stale,
            DEFAULT_SCHEDULE_BUDGET,
        )
        .expect("round extracts");
        assert!(report.sound(), "seed {seed}: {:?}", report.unsound);
        assert_eq!(
            report.explored, 2,
            "seed {seed}: one conflict edge, two traces"
        );
        assert_eq!(
            report.flagged, 1,
            "seed {seed}: the reordering must be flagged"
        );

        // And a hand-built permutation that reorders the conflicting pair
        // is rejected by the sanitizer: the loser's claimed winner has not
        // committed yet at its new position.
        let mut perm = shuffle(n, &mut rng);
        let (pw, pl) = (
            perm.iter().position(|&t| t == winner).unwrap(),
            perm.iter().position(|&t| t == loser).unwrap(),
        );
        if pw < pl {
            perm.swap(pw, pl);
        }
        let reordered = render_round(&tasks, &perm);
        assert!(
            !sanitize(&reordered, &stale).is_empty(),
            "seed {seed}: conflicting reorder {perm:?} must be flagged"
        );
        // Every rendered permutation of the conflicting round, the
        // reordering above and a random one with either orientation: the
        // record-level oracle's verdict is the rendered stream's.
        let recorded = render_round(&tasks, &identity);
        for perm in [perm, shuffle(n, &mut rng), identity] {
            assert_eq!(
                schedule_is_clean(&recorded, &stale, &perm),
                Ok(sanitize(&render_round(&tasks, &perm), &stale).is_empty()),
                "seed {seed}: {perm:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Negative-fixture corpus: hand-corrupted journals, exact counterexamples
// ---------------------------------------------------------------------------

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Whether `ALTER_UPDATE_FIXTURES=1` asks for the fixtures to be rewritten.
fn updating_fixtures() -> bool {
    std::env::var("ALTER_UPDATE_FIXTURES").is_ok_and(|v| v == "1")
}

/// Golden-file assertion: compares `content` byte-for-byte against the
/// committed fixture; set `ALTER_UPDATE_FIXTURES=1` to regenerate.
fn assert_golden(path: &Path, content: &str) {
    if updating_fixtures() {
        std::fs::write(path, content).expect("write fixture");
    }
    let committed = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with ALTER_UPDATE_FIXTURES=1",
            path.display()
        )
    });
    assert_eq!(
        committed,
        content,
        "fixture {} is out of date; regenerate with ALTER_UPDATE_FIXTURES=1",
        path.display()
    );
}

fn fixture_journal(name: &str, annotation: &str, events: Vec<Event>) -> String {
    let header = JournalHeader {
        workload: name.to_owned(),
        annotation: annotation.to_owned(),
        workers: 4,
        record_sets: true,
        trace_hash: 0, // recomputed by Journal::new
    };
    Journal::new(header, events)
        .expect("fixture is structurally valid")
        .to_jsonl()
}

fn sets(seq: u64, reads: &str, writes: &str) -> Event {
    Event::TaskSets {
        seq,
        reads: reads.to_owned(),
        writes: writes.to_owned(),
    }
}

fn ok_commit(seq: u64, write_words: u64) -> [Event; 2] {
    [
        Event::ValidateOk {
            seq,
            validate_words: 0,
        },
        Event::Commit {
            seq,
            read_words: 0,
            write_words,
            allocs: 0,
            frees: 0,
        },
    ]
}

/// Runs one corrupted-journal fixture end to end: the journal and the
/// rendered counterexample are both golden-checked, and the divergence
/// must land on the expected event pair. The committed journals were
/// written when headers still carried the retired fields and stay as they
/// are — loading them is the reader's back-compat test — so the journal is
/// compared in today's canonical form rather than byte for byte.
fn run_fixture(
    journal_file: &str,
    text: String,
    config: ExecParams,
    expect: impl FnOnce(&alter::runtime::replay::Divergence),
) {
    if updating_fixtures() {
        std::fs::write(fixture_path(journal_file), &text).expect("write fixture");
    }
    let committed = std::fs::read_to_string(fixture_path(journal_file)).expect("fixture committed");
    let journal = Journal::from_jsonl(&committed).expect("fixture parses as a journal");
    assert_eq!(
        journal.to_jsonl(),
        text,
        "fixture {journal_file} is out of date; regenerate with ALTER_UPDATE_FIXTURES=1"
    );
    let report =
        check_journal(&journal, &config, DEFAULT_SCHEDULE_BUDGET).expect("fixture extracts");
    assert_eq!(report.unsound_rounds, 1, "fixture must be rejected");
    let u = &report.unsound[0];
    expect(&u.divergence);
    let expected_file = format!("{}.expected", journal_file.trim_end_matches(".journal"));
    assert_golden(&fixture_path(&expected_file), &u.divergence.render());
}

/// Overlapping committed write sets under the StaleReads annotation: task
/// 1 claims `validate_ok` but its write set overlaps task 0's.
#[test]
fn fixture_overlapping_commits_is_rejected() {
    let mut evs = vec![Event::RoundStart {
        round: 0,
        tasks: 2,
        snapshot_slots: 0,
    }];
    evs.push(sets(0, "", "1:0-4"));
    evs.extend(ok_commit(0, 4));
    evs.push(sets(1, "", "1:2-6"));
    evs.extend(ok_commit(1, 4));
    evs.push(Event::RunEnd {
        rounds: 1,
        attempts: 2,
        committed: 2,
    });
    run_fixture(
        "overlap-commit.journal",
        fixture_journal("Genome", "stalereads", evs),
        params(ConflictPolicy::Waw, CommitOrder::OutOfOrder),
        |d| {
            assert_eq!(d.seq, Some(1));
            assert!(
                matches!(
                    d.expected,
                    Some(Event::ValidateConflict {
                        kind: ConflictKind::Waw,
                        ..
                    })
                ),
                "{d:?}"
            );
            assert!(matches!(d.actual, Some(Event::ValidateOk { .. })), "{d:?}");
        },
    );
}

/// Squash-discipline violation under TLS (in-order commit): task 2 is
/// squashed, but the journal attributes it to task 0 — the round's first
/// failure was task 1.
#[test]
fn fixture_squash_violation_is_rejected() {
    let mut evs = vec![Event::RoundStart {
        round: 0,
        tasks: 3,
        snapshot_slots: 0,
    }];
    evs.push(sets(0, "", "1:0-4"));
    evs.extend(ok_commit(0, 4));
    evs.push(sets(1, "1:2-6", ""));
    evs.push(Event::ValidateConflict {
        seq: 1,
        kind: ConflictKind::Raw,
        obj: ObjId::from_index(1),
        word: 2,
        winner_seq: 0,
    });
    evs.push(Event::Squash { seq: 2, by_seq: 0 });
    evs.push(Event::RunEnd {
        rounds: 1,
        attempts: 3,
        committed: 1,
    });
    run_fixture(
        "squash-violation.journal",
        fixture_journal("Genome", "tls", evs),
        params(ConflictPolicy::Raw, CommitOrder::InOrder),
        |d| {
            assert_eq!(d.seq, Some(2));
            assert_eq!(
                d.expected,
                Some(Event::Squash { seq: 2, by_seq: 1 }),
                "squash must be attributed to the first failure"
            );
            assert_eq!(d.actual, Some(Event::Squash { seq: 2, by_seq: 0 }));
        },
    );
}

/// Stale read under the snapshot-isolation (OutOfOrder/RAW) annotation:
/// task 1 reads words task 0 committed this round but still claims
/// `validate_ok` — its read was stale and RAW checking must catch it.
#[test]
fn fixture_stale_read_is_rejected() {
    let mut evs = vec![Event::RoundStart {
        round: 0,
        tasks: 2,
        snapshot_slots: 0,
    }];
    evs.push(sets(0, "", "1:0-4"));
    evs.extend(ok_commit(0, 4));
    evs.push(sets(1, "1:0-2", "2:0-4"));
    evs.extend(ok_commit(1, 4));
    evs.push(Event::RunEnd {
        rounds: 1,
        attempts: 2,
        committed: 2,
    });
    run_fixture(
        "stale-read.journal",
        fixture_journal("Genome", "outoforder", evs),
        params(ConflictPolicy::Raw, CommitOrder::OutOfOrder),
        |d| {
            assert_eq!(d.seq, Some(1));
            assert!(
                matches!(
                    d.expected,
                    Some(Event::ValidateConflict {
                        kind: ConflictKind::Raw,
                        ..
                    })
                ),
                "{d:?}"
            );
            assert!(matches!(d.actual, Some(Event::ValidateOk { .. })), "{d:?}");
        },
    );
}

// ---------------------------------------------------------------------------
// The commutativity relation sees read sets
// ---------------------------------------------------------------------------

/// Under `(RAW, OutOfOrder)` two tasks of a round depend when either one's
/// reads meet the other's writes, not only when their writes meet. GSdense
/// and Floyd read what other tasks of their round write, so a relation
/// that ignored read sets would commute those pairs and explore fewer
/// schedules (14 for GSdense, 541 for Floyd).
#[test]
fn outoforder_commutativity_orders_reads_against_writes() {
    for (name, counts) in [("gsdense", (21, 21, 7)), ("floyd", (1_342, 1_067, 801))] {
        let bench = find_benchmark(name).expect("registered");
        let mut probe = Probe::new(Model::OutOfOrder, 4, bench.chunk_factor());
        probe.record_sets = true;
        let rec = Arc::new(RingRecorder::default());
        probe.recorder = Some(rec.clone() as Arc<dyn Recorder>);
        bench.run_probe(&probe).expect("the run completes");
        assert_eq!(rec.dropped(), 0);
        let r = check_events(
            &rec.events(),
            &params(ConflictPolicy::Raw, CommitOrder::OutOfOrder),
            DEFAULT_SCHEDULE_BUDGET,
        )
        .expect("recorded stream extracts");
        assert_eq!((r.naive_schedules, r.explored, r.flagged), counts, "{name}");
        assert!(r.sound(), "{name}");
    }
}

// ---------------------------------------------------------------------------
// Acceptance: a deliberately-unsound DOALL run replays through diff
// ---------------------------------------------------------------------------

#[test]
fn doall_counterexample_replays_through_the_diff_bisector() {
    let bench = find_benchmark("k-means").expect("k-means is registered");
    let mut probe = Probe::new(Model::Doall, 4, bench.chunk_factor());
    probe.record_sets = true;
    let rec = Arc::new(RingRecorder::default());
    probe.recorder = Some(rec.clone() as Arc<dyn Recorder>);
    bench
        .run_probe(&probe)
        .expect("k-means completes under DOALL (wrong answer, no abort)");
    assert_eq!(rec.dropped(), 0);

    let report = check_events(
        &rec.events(),
        &params(ConflictPolicy::None, CommitOrder::OutOfOrder),
        DEFAULT_SCHEDULE_BUDGET,
    )
    .expect("recorded stream extracts");
    assert!(
        !report.sound(),
        "k-means under DOALL must be schedule-unsound (every task writes the centroids)"
    );
    let u = &report.unsound[0];

    // Package both synthesized streams as standalone journals, round-trip
    // them through the JSONL codec, and bisect — exactly what
    // `alter-cli check --cex` + `alter-cli diff` do.
    let journal = |events: &[Event]| {
        let header = JournalHeader {
            workload: "K-means".to_owned(),
            annotation: "doall".to_owned(),
            workers: 4,
            record_sets: true,
            trace_hash: 0,
        };
        let j = Journal::new(header, events.to_vec()).expect("counterexample stream journals");
        Journal::from_jsonl(&j.to_jsonl()).expect("counterexample journal reloads")
    };
    let expected = journal(&u.expected);
    let actual = journal(&u.actual);
    match diverge_bisect(expected.events(), actual.events()) {
        ReplayOutcome::Diverged(d) => {
            assert_eq!(
                *d, *u.divergence,
                "diff must reproduce the stored counterexample"
            );
            let text = d.render();
            assert!(text.contains("replay divergence"), "{text}");
        }
        ReplayOutcome::Identical { .. } => {
            panic!("counterexample streams must diverge under the bisector")
        }
    }
}
