//! The trace isolation sanitizer behind `alter-cli lint`, and the one
//! reader of the round grammar it shares with the schedule-space model
//! checker ([`crate::check`]).
//!
//! `read_rounds` walks a recorded structured trace once — with the
//! opt-in `ExecParams::record_sets` payloads — and turns it into rounds of
//! `TaskRecord`s: each task's sets parsed once, its claimed verdict and
//! `commit` payload, and the event index of each. What breaks the grammar
//! is a structural [`Violation`]:
//!
//! * **Round structure** — rounds are consecutive within a run (a new run
//!   segment starts at round 0); a `task_sets` is followed by its own
//!   task's verdict, and a `commit` follows its task's `validate_ok`.
//! * **Deterministic commit order** — verdicts ascend in task order within
//!   a round.
//! * **Run accounting** — `run_end` counters equal the read
//!   attempt/commit/round counts.
//!
//! [`sanitize`] adds `audit_round` over every round in recorded order.
//! Its verdicts come from [`derive`], the one oracle the checker also runs
//! under every candidate commit order:
//!
//! * **Verdicts consistent with the recorded sets** — every
//!   `validate_ok`/`validate_conflict` is what `derive` gives the task's
//!   recorded read/write sets against the round's committed writers,
//!   including the exact `(kind, obj, word, winner)` attribution and the
//!   `validate_ok.validate_words` charge.
//! * **Committed write sets disjoint** — under write-checking policies
//!   (StaleReads/FULL) the round's committed write sets must be pairwise
//!   disjoint; `commit` word counts must match the recorded sets.
//! * **Squash discipline** — squashes only under in-order commit, only
//!   after an earlier failure in the same round, attributed to the round's
//!   first failing task.
//!
//! A trace that ends mid-run (crash, OOM, work-budget abort, or a
//! truncated ring buffer) is tolerated: the sanitizer checks what is
//! there and does not require a trailing `run_end`.

use crate::check::{checked_sets, derive};
use alter_heap::AccessSet;
use alter_runtime::{CommitOrder, ExecParams};
use alter_trace::{parse_set, ConflictKind, Event};

/// One isolation-invariant violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Index of the offending event in the stream (0-based).
    pub event: usize,
    /// What was violated.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "event {}: {}", self.event, self.message)
    }
}

/// A claimed verdict: as the trace records it, or re-sequenced by the
/// checker under a candidate commit order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Claim {
    /// `validate_ok`, with the `commit` payload that followed it, if any.
    Ok {
        validate_words: u64,
        commit: Option<CommitWords>,
    },
    /// `validate_conflict` against task `winner`.
    Conflict {
        kind: ConflictKind,
        obj: u32,
        word: u32,
        winner: u64,
    },
    /// `squash` by task `by`.
    Squash { by: u64 },
}

/// A `commit` event's payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct CommitWords {
    pub read_words: u64,
    pub write_words: u64,
    pub allocs: u32,
    pub frees: u32,
}

/// One task's recorded verdict.
pub(crate) struct TaskRecord {
    pub seq: u64,
    /// Stream indices of the verdict and of its `commit` (the verdict's
    /// own index while none followed).
    pub events: [usize; 2],
    /// Whether the task's `task_sets` preceded its verdict; `reads` and
    /// `writes` are empty when not.
    pub has_sets: bool,
    pub reads: AccessSet,
    pub writes: AccessSet,
    pub claim: Claim,
}

/// One round: its `round_start` snapshot charge and its tasks in verdict
/// order.
pub(crate) struct Round {
    pub snapshot_slots: u64,
    pub tasks: Vec<TaskRecord>,
}

/// Parses a canonical set rendering — the crate's one reading of a
/// `task_sets` payload.
fn parse(s: &str) -> Result<AccessSet, String> {
    let mut set = AccessSet::new();
    for (obj, lo, hi) in parse_set(s)? {
        set.insert(obj, lo, hi);
    }
    Ok(set)
}

/// Reads a stream's round grammar once: its rounds of task records, in
/// stream order across run segments, and every structural defect at its
/// event index. A verdict before any `round_start` opens a round of its
/// own.
pub(crate) fn read_rounds(events: &[Event]) -> (Vec<Round>, Vec<Violation>) {
    let mut rounds: Vec<Round> = Vec::new();
    let mut defects: Vec<Violation> = Vec::new();
    let mut fail = |event: usize, message: String| defects.push(Violation { event, message });
    // Per run segment: whether one is open, the next round number and the
    // counts its `run_end` must match.
    let mut in_run = false;
    let mut next_round = 0u64;
    let (mut run_rounds, mut run_attempts, mut run_commits) = (0u64, 0u64, 0u64);
    // Per round: the last verdict's task, and the parsed sets awaiting
    // their verdict.
    let mut last_verdict: Option<u64> = None;
    let mut pending: Option<(u64, AccessSet, AccessSet)> = None;
    let mut saw_sets = false;

    for (idx, ev) in events.iter().enumerate() {
        let (seq, claim) = match ev {
            Event::ValidateOk {
                seq,
                validate_words,
            } => (
                *seq,
                Claim::Ok {
                    validate_words: *validate_words,
                    commit: None,
                },
            ),
            Event::ValidateConflict {
                seq,
                kind,
                obj,
                word,
                winner_seq,
            } => (
                *seq,
                Claim::Conflict {
                    kind: *kind,
                    obj: obj.index(),
                    word: *word,
                    winner: *winner_seq,
                },
            ),
            Event::Squash { seq, by_seq } => (*seq, Claim::Squash { by: *by_seq }),
            Event::RoundStart {
                round,
                snapshot_slots,
                ..
            } => {
                if pending.take().is_some() {
                    fail(idx, "task_sets without a following verdict".into());
                }
                if *round == 0 {
                    // New run segment (convergence loops run the engine
                    // repeatedly inside one probe).
                    in_run = true;
                    next_round = 0;
                    (run_rounds, run_attempts, run_commits) = (0, 0, 0);
                } else if !in_run || *round != next_round {
                    fail(
                        idx,
                        format!("round {round} out of order (expected {next_round})"),
                    );
                    next_round = *round;
                }
                next_round += 1;
                run_rounds += 1;
                last_verdict = None;
                rounds.push(Round {
                    snapshot_slots: *snapshot_slots,
                    tasks: Vec::new(),
                });
                continue;
            }
            Event::TaskSets { seq, reads, writes } => {
                saw_sets = true;
                if pending.is_some() {
                    fail(idx, "task_sets without a following verdict".into());
                }
                let mut parse_or_fail = |s: &str, what: &str| {
                    parse(s)
                        .map_err(|e| fail(idx, format!("unparseable {what} set: {e}")))
                        .ok()
                };
                pending = match (parse_or_fail(reads, "read"), parse_or_fail(writes, "write")) {
                    (Some(r), Some(w)) => Some((*seq, r, w)),
                    _ => None,
                };
                continue;
            }
            Event::Commit {
                seq,
                read_words,
                write_words,
                allocs,
                frees,
            } => {
                run_commits += 1;
                // The round's last validated-ok task must be this one, and
                // not yet committed.
                let open = rounds
                    .last_mut()
                    .and_then(|r| {
                        r.tasks
                            .iter_mut()
                            .rev()
                            .find(|t| matches!(t.claim, Claim::Ok { .. }))
                    })
                    .filter(|t| t.seq == *seq);
                match open {
                    Some(TaskRecord {
                        events,
                        claim:
                            Claim::Ok {
                                commit: c @ None, ..
                            },
                        ..
                    }) => {
                        *c = Some(CommitWords {
                            read_words: *read_words,
                            write_words: *write_words,
                            allocs: *allocs,
                            frees: *frees,
                        });
                        events[1] = idx;
                    }
                    _ => fail(
                        idx,
                        format!("commit for task {seq} without a preceding validate_ok"),
                    ),
                }
                continue;
            }
            Event::Oom { .. } | Event::Crash { .. } | Event::WorkBudgetExceeded { .. } => {
                // Abnormal termination: the run ends here; drop any
                // half-recorded task.
                pending = None;
                in_run = false;
                continue;
            }
            Event::RunEnd {
                rounds: claimed_rounds,
                attempts,
                committed,
            } => {
                if pending.take().is_some() {
                    fail(idx, "task_sets without a following verdict".into());
                }
                if in_run {
                    for (what, claimed, counted) in [
                        ("rounds", *claimed_rounds, run_rounds),
                        ("attempts", *attempts, run_attempts),
                        ("commits", *committed, run_commits),
                    ] {
                        if claimed != counted {
                            fail(
                                idx,
                                format!(
                                    "run_end claims {claimed} {what}, replay counted {counted}"
                                ),
                            );
                        }
                    }
                }
                in_run = false;
                continue;
            }
            // Task starts and reduction merges carry no isolation
            // evidence, and probe brackets are outside rounds.
            Event::TaskStart { .. }
            | Event::ReductionMerge { .. }
            | Event::ProbeStart { .. }
            | Event::ProbeOutcome { .. } => continue,
        };

        run_attempts += 1;
        if let Some(prev) = last_verdict.filter(|&prev| seq <= prev) {
            fail(
                idx,
                format!(
                    "verdict for task {seq} after task {prev}: validation order must ascend within a round"
                ),
            );
        }
        last_verdict = Some(seq);
        let sets = match pending.take() {
            Some((pseq, reads, writes)) if pseq == seq => Some((reads, writes)),
            Some((pseq, ..)) => {
                fail(
                    idx,
                    format!("verdict for task {seq} but recorded sets are for task {pseq}"),
                );
                None
            }
            None => {
                // The engine may squash a task whose sets were never
                // tracked.
                if saw_sets && !matches!(claim, Claim::Squash { .. }) {
                    fail(idx, format!("no recorded sets for task {seq}"));
                }
                None
            }
        };
        let has_sets = sets.is_some();
        let (reads, writes) = sets.unwrap_or_default();
        let task = TaskRecord {
            seq,
            events: [idx; 2],
            has_sets,
            reads,
            writes,
            claim,
        };
        match rounds.last_mut() {
            Some(round) => round.tasks.push(task),
            None => rounds.push(Round {
                snapshot_slots: 0,
                tasks: vec![task],
            }),
        }
    }
    (rounds, defects)
}

/// Audits one round's claims in commit order — `(seq, record, claim)`,
/// the claim as recorded or as the checker re-sequenced it — against what
/// [`derive`] gives each record's sets, reporting every violation at the
/// record's event index, under the conflict policy and commit order of
/// the run's `params`.
pub(crate) fn audit_round<'a>(
    params: &ExecParams,
    claims: impl IntoIterator<Item = (u64, &'a TaskRecord, &'a Claim)>,
    fail: &mut dyn FnMut(usize, String),
) {
    let in_order = params.order == CommitOrder::InOrder;
    let (_, write_checked) = checked_sets(params.conflict);
    let mut committed: Vec<(u64, &AccessSet)> = Vec::new();
    let mut first_failure: Option<u64> = None;
    for (seq, t, claim) in claims {
        let [verdict, commit_event] = t.events;
        let derived = t
            .has_sets
            .then(|| derive(params.conflict, &t.reads, &t.writes, &committed));
        match *claim {
            Claim::Ok {
                validate_words,
                commit,
            } => {
                if let Some(d) = &derived {
                    if validate_words != d.charge {
                        fail(
                            verdict,
                            format!(
                                "task {seq} validate_ok claims {validate_words} validate words but its recorded sets charge {}",
                                d.charge
                            ),
                        );
                    }
                    if let Some((kind, obj, word, winner)) = d.conflict {
                        fail(
                            verdict,
                            format!(
                                "task {seq} validated ok but its sets conflict ({kind}) with committed task {winner} at obj {obj} word {word}"
                            ),
                        );
                    }
                }
                if first_failure.is_some() && in_order {
                    fail(
                        verdict,
                        format!(
                            "task {seq} validated after an in-order failure: it must have been squashed"
                        ),
                    );
                }
                if let Some(c) = commit {
                    // Read words are only recorded under read-tracking
                    // policies; recorded reads are empty otherwise and
                    // both sides agree on 0.
                    let w = t.writes.words();
                    if t.has_sets && c.write_words != w {
                        fail(
                            commit_event,
                            format!(
                                "task {seq} commit claims {} write words but its recorded set has {w}",
                                c.write_words
                            ),
                        );
                    }
                    // Disjointness under write-checking policies: the new
                    // writer must not overlap any earlier one.
                    if write_checked {
                        for &(earlier, ew) in &committed {
                            if let Some((obj, word)) = t.writes.first_overlap(ew) {
                                fail(
                                    commit_event,
                                    format!(
                                        "committed write sets overlap: tasks {earlier} and {seq} both wrote obj {} word {word}",
                                        obj.index()
                                    ),
                                );
                            }
                        }
                    }
                }
                committed.push((seq, &t.writes));
            }
            Claim::Conflict {
                kind,
                obj,
                word,
                winner,
            } => {
                first_failure.get_or_insert(seq);
                match derived.map(|d| d.conflict) {
                    Some(None) => fail(
                        verdict,
                        format!(
                            "task {seq} reported a conflict but its sets are disjoint from every committed writer"
                        ),
                    ),
                    Some(Some((k, o, wd, win))) if (k, o, wd, win) != (kind, obj, word, winner) => {
                        fail(
                            verdict,
                            format!(
                                "task {seq} conflict attribution mismatch: trace says {} obj {obj} word {word} winner {winner}, sets say {} obj {o} word {wd} winner {win}",
                                kind.as_str(),
                                k.as_str()
                            ),
                        )
                    }
                    _ => {}
                }
            }
            Claim::Squash { by } => {
                if !in_order {
                    fail(
                        verdict,
                        format!("task {seq} squashed under out-of-order commit"),
                    );
                }
                match first_failure {
                    None => fail(
                        verdict,
                        format!("task {seq} squashed with no earlier failure in the round"),
                    ),
                    Some(f) if by != f => fail(
                        verdict,
                        format!(
                            "task {seq} squashed by {by}, but the round's first failure was {f}"
                        ),
                    ),
                    Some(_) => {}
                }
            }
        }
    }
}

/// Audits a trace against the isolation invariants, under the conflict
/// policy and commit order of the `params` it was recorded with. Returns
/// every violation found (empty = clean) in stream order. See the module
/// docs for the checks.
pub fn sanitize(events: &[Event], params: &ExecParams) -> Vec<Violation> {
    let (rounds, mut violations) = read_rounds(events);
    let mut fail = |event: usize, message: String| violations.push(Violation { event, message });
    for round in &rounds {
        audit_round(
            params,
            round.tasks.iter().map(|t| (t.seq, t, &t.claim)),
            &mut fail,
        );
    }
    // A stable sort: where a structural defect and an audit finding name
    // one event, the defect comes first.
    violations.sort_by_key(|v| v.event);
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use alter_heap::ObjId;

    /// StaleReads: `Waw` validation, out-of-order commit.
    fn stale() -> ExecParams {
        ExecParams::new(4, 16)
    }

    fn ok_trace() -> Vec<Event> {
        vec![
            Event::RoundStart {
                round: 0,
                tasks: 2,
                snapshot_slots: 4,
            },
            Event::TaskSets {
                seq: 0,
                reads: String::new(),
                writes: "1:0-4".into(),
            },
            Event::ValidateOk {
                seq: 0,
                validate_words: 0,
            },
            Event::Commit {
                seq: 0,
                read_words: 0,
                write_words: 4,
                allocs: 0,
                frees: 0,
            },
            Event::TaskSets {
                seq: 1,
                reads: String::new(),
                writes: "1:4-8".into(),
            },
            Event::ValidateOk {
                seq: 1,
                validate_words: 4,
            },
            Event::Commit {
                seq: 1,
                read_words: 0,
                write_words: 4,
                allocs: 0,
                frees: 0,
            },
            Event::RunEnd {
                rounds: 1,
                attempts: 2,
                committed: 2,
            },
        ]
    }

    #[test]
    fn clean_trace_passes() {
        assert_eq!(sanitize(&ok_trace(), &stale()), vec![]);
    }

    #[test]
    fn overlapping_committed_write_sets_are_rejected() {
        let mut evs = ok_trace();
        // Second task now writes words 2..6, overlapping the first.
        evs[4] = Event::TaskSets {
            seq: 1,
            reads: String::new(),
            writes: "1:2-6".into(),
        };
        let violations = sanitize(&evs, &stale());
        assert!(
            violations
                .iter()
                .any(|v| v.message.contains("validated ok but its sets conflict")),
            "{violations:?}"
        );
        assert!(
            violations
                .iter()
                .any(|v| v.message.contains("committed write sets overlap")),
            "{violations:?}"
        );
    }

    #[test]
    fn reordered_commits_are_rejected() {
        let mut evs = ok_trace();
        // Swap the two (task_sets, validate_ok, commit) triples: task 1
        // now validates before task 0 — commit order broken.
        evs.swap(1, 4);
        evs.swap(2, 5);
        evs.swap(3, 6);
        let violations = sanitize(&evs, &stale());
        assert!(
            violations
                .iter()
                .any(|v| v.message.contains("validation order must ascend")),
            "{violations:?}"
        );
    }

    #[test]
    fn fabricated_conflict_is_rejected() {
        let mut evs = ok_trace();
        // Replace task 1's verdict with a conflict its sets don't show.
        evs[5] = Event::ValidateConflict {
            seq: 1,
            kind: ConflictKind::Waw,
            obj: ObjId::from_index(1),
            word: 0,
            winner_seq: 0,
        };
        evs.remove(6); // its commit
        let violations = sanitize(&evs, &stale());
        assert!(
            violations.iter().any(|v| v
                .message
                .contains("sets are disjoint from every committed writer")),
            "{violations:?}"
        );
        // And the run_end counters no longer match either.
        assert!(
            violations
                .iter()
                .any(|v| v.message.contains("run_end claims")),
            "{violations:?}"
        );
    }

    #[test]
    fn wrong_commit_word_count_is_rejected() {
        let mut evs = ok_trace();
        evs[6] = Event::Commit {
            seq: 1,
            read_words: 0,
            write_words: 7,
            allocs: 0,
            frees: 0,
        };
        let violations = sanitize(&evs, &stale());
        assert!(
            violations
                .iter()
                .any(|v| v.message.contains("claims 7 write words")),
            "{violations:?}"
        );
    }

    #[test]
    fn wrong_validate_words_are_rejected() {
        let mut evs = ok_trace();
        evs[5] = Event::ValidateOk {
            seq: 1,
            validate_words: 3,
        };
        let violations = sanitize(&evs, &stale());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0]
            .message
            .contains("claims 3 validate words but its recorded sets charge 4"));
    }

    #[test]
    fn squash_requires_in_order_and_a_failure() {
        let evs = vec![
            Event::RoundStart {
                round: 0,
                tasks: 1,
                snapshot_slots: 0,
            },
            Event::Squash { seq: 0, by_seq: 0 },
        ];
        let violations = sanitize(&evs, &stale());
        assert!(
            violations
                .iter()
                .any(|v| v.message.contains("squashed under out-of-order commit")),
            "{violations:?}"
        );
        assert!(
            violations
                .iter()
                .any(|v| v.message.contains("no earlier failure")),
            "{violations:?}"
        );
    }

    #[test]
    fn rounds_must_be_consecutive() {
        let evs = vec![
            Event::RoundStart {
                round: 0,
                tasks: 1,
                snapshot_slots: 0,
            },
            Event::RoundStart {
                round: 2,
                tasks: 1,
                snapshot_slots: 0,
            },
        ];
        let violations = sanitize(&evs, &stale());
        assert!(
            violations
                .iter()
                .any(|v| v.message.contains("out of order")),
            "{violations:?}"
        );
    }

    #[test]
    fn truncated_run_without_run_end_is_tolerated() {
        let mut evs = ok_trace();
        evs.pop();
        evs.push(Event::Crash {
            message: "boom".into(),
        });
        assert_eq!(sanitize(&evs, &stale()), vec![]);
    }

    // The reader, one structural defect per stream, each reported once at
    // its event.

    fn start(round: u64) -> Event {
        Event::RoundStart {
            round,
            tasks: 1,
            snapshot_slots: 0,
        }
    }

    fn sets(seq: u64) -> Event {
        Event::TaskSets {
            seq,
            reads: String::new(),
            writes: format!("1:{}-{}", 4 * seq, 4 * seq + 4),
        }
    }

    fn ok(seq: u64) -> Event {
        Event::ValidateOk {
            seq,
            validate_words: 0,
        }
    }

    fn defects(evs: &[Event]) -> Vec<(usize, String)> {
        let (_, defects) = read_rounds(evs);
        defects.into_iter().map(|v| (v.event, v.message)).collect()
    }

    fn defect(event: usize, message: &str) -> Vec<(usize, String)> {
        vec![(event, message.to_owned())]
    }

    #[test]
    fn reader_reports_a_round_out_of_order() {
        assert_eq!(
            defects(&[start(0), start(2)]),
            defect(1, "round 2 out of order (expected 1)")
        );
    }

    #[test]
    fn reader_reports_task_sets_without_a_verdict() {
        assert_eq!(
            defects(&[start(0), sets(0), sets(1), ok(1)]),
            defect(2, "task_sets without a following verdict")
        );
    }

    #[test]
    fn reader_reports_a_verdict_for_another_tasks_sets() {
        assert_eq!(
            defects(&[start(0), sets(0), ok(1)]),
            defect(2, "verdict for task 1 but recorded sets are for task 0")
        );
    }

    #[test]
    fn reader_reports_a_descending_verdict() {
        assert_eq!(
            defects(&[start(0), ok(1), ok(0)]),
            defect(
                2,
                "verdict for task 0 after task 1: validation order must ascend within a round"
            )
        );
    }

    #[test]
    fn reader_reports_a_commit_without_validate_ok() {
        let commit = Event::Commit {
            seq: 1,
            read_words: 0,
            write_words: 4,
            allocs: 0,
            frees: 0,
        };
        assert_eq!(
            defects(&[start(0), sets(0), ok(0), commit]),
            defect(3, "commit for task 1 without a preceding validate_ok")
        );
    }

    #[test]
    fn reader_reports_run_end_counters_off() {
        let run_end = Event::RunEnd {
            rounds: 1,
            attempts: 2,
            committed: 0,
        };
        assert_eq!(
            defects(&[start(0), ok(0), run_end]),
            defect(2, "run_end claims 2 attempts, replay counted 1")
        );
    }

    #[test]
    fn reader_reports_a_verdict_without_sets_once_sets_are_recorded() {
        assert_eq!(
            defects(&[start(0), sets(0), ok(0), ok(1)]),
            defect(3, "no recorded sets for task 1")
        );
        // Before any task_sets the trace simply carries none.
        assert_eq!(defects(&[start(0), ok(0), ok(1)]), vec![]);
    }

    #[test]
    fn reader_parses_each_tasks_sets_once() {
        let (rounds, defects) = read_rounds(&ok_trace());
        assert!(defects.is_empty());
        let [round] = &rounds[..] else {
            panic!("one round")
        };
        let tasks: Vec<_> = round
            .tasks
            .iter()
            .map(|t| (t.seq, t.events, t.has_sets, t.writes.words(), t.claim))
            .collect();
        let claim = |validate_words| Claim::Ok {
            validate_words,
            commit: Some(CommitWords {
                read_words: 0,
                write_words: 4,
                allocs: 0,
                frees: 0,
            }),
        };
        assert_eq!(
            tasks,
            [
                (0, [2, 3], true, 4, claim(0)),
                (1, [5, 6], true, 4, claim(4))
            ]
        );
    }
}
