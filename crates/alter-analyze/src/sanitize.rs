//! The trace isolation sanitizer behind `alter-cli lint`.
//!
//! Replays a recorded structured trace — with the opt-in
//! `ExecParams::record_sets` payloads — and re-checks the engine's
//! isolation invariants from first principles:
//!
//! * **Round structure** — rounds are consecutive within a run (a new run
//!   segment starts at round 0), and every verdict belongs to a round.
//! * **Deterministic commit order** — verdicts and commits are processed
//!   in ascending task order within a round.
//! * **Verdicts consistent with the recorded sets** — every
//!   `validate_ok`/`validate_conflict` is recomputed from the task's
//!   recorded read/write sets against the round's committed write sets,
//!   including the exact `(kind, obj, word, winner)` attribution the
//!   engine reported (reads checked before writes under FULL, first
//!   overlapping word in ascending object/word order, first committed
//!   writer wins).
//! * **Validation charge consistent with the recorded sets** — every
//!   `validate_ok.validate_words` equals the per-earlier-writer formula
//!   (Σ over the round's committed writers of min(the writer's write
//!   words, the task's tracked words)), whatever scans the engine ran.
//! * **Committed write sets disjoint** — under write-checking policies
//!   (StaleReads/FULL) the round's committed write sets must be pairwise
//!   disjoint; `commit` word counts must match the recorded sets.
//! * **Squash discipline** — squashes only under in-order commit, only
//!   after an earlier failure in the same round, attributed to the round's
//!   first failing task.
//! * **Run accounting** — `run_end` counters equal the replayed
//!   attempt/commit/round counts.
//!
//! A trace that ends mid-run (crash, OOM, work-budget abort, or a
//! truncated ring buffer) is tolerated: the sanitizer checks what is
//! there and does not require a trailing `run_end`.

use alter_heap::AccessSet;
use alter_runtime::{CommitOrder, ConflictPolicy};
use alter_trace::{parse_set, ConflictKind, Event};

/// The recording conditions of the trace under audit.
#[derive(Clone, Copy, Debug)]
pub struct SanitizeConfig {
    /// Conflict policy the run was validated under.
    pub conflict: ConflictPolicy,
    /// Commit order discipline of the run.
    pub order: CommitOrder,
}

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

/// One committed transaction of the current round.
struct Committed {
    seq: u64,
    writes: AccessSet,
}

/// Recomputes the engine's conflict verdict for a task against the
/// round's committed writers, in commit order: the first writer with an
/// overlap wins, reads are checked before writes under FULL, and the
/// conflicting word is the first in ascending (object, word) order.
///
/// Shared with the schedule-space model checker (`check`), which
/// replays it under candidate commit orders — hence the borrowed
/// `(seq, write set)` pairs rather than this module's `Committed`.
pub(crate) fn recompute_conflict<'a>(
    policy: ConflictPolicy,
    reads: &AccessSet,
    writes: &AccessSet,
    committed: impl IntoIterator<Item = (u64, &'a AccessSet)>,
) -> Option<(ConflictKind, u32, u32, u64)> {
    for (seq, cw) in committed {
        let raw_hit = match policy {
            ConflictPolicy::Full | ConflictPolicy::Raw => reads.first_overlap(cw),
            _ => None,
        };
        if let Some((obj, word)) = raw_hit {
            return Some((ConflictKind::Raw, obj.index(), word, seq));
        }
        let waw_hit = match policy {
            ConflictPolicy::Full | ConflictPolicy::Waw => writes.first_overlap(cw),
            _ => None,
        };
        if let Some((obj, word)) = waw_hit {
            return Some((ConflictKind::Waw, obj.index(), word, seq));
        }
    }
    None
}

/// The validation charge the engine reports for a task that validated ok:
/// each writer committed ahead of it in the round costs the smaller of
/// that writer's write words and the task's own tracked words — what a
/// scan of every earlier writer would compare, whatever scans ran.
pub(crate) fn validate_charge<'a>(
    reads: &AccessSet,
    writes: &AccessSet,
    committed: impl IntoIterator<Item = &'a AccessSet>,
) -> u64 {
    let tracked = reads.words() + writes.words();
    committed
        .into_iter()
        .map(|cw| cw.words().min(tracked))
        .sum()
}

/// Audits a trace against the isolation invariants. Returns every
/// violation found (empty = clean). See the module docs for the checks.
pub fn sanitize(events: &[Event], cfg: &SanitizeConfig) -> Vec<Violation> {
    let mut v: Vec<Violation> = Vec::new();
    let mut fail = |idx: usize, msg: String| {
        v.push(Violation {
            event: idx,
            message: msg,
        })
    };

    // Per-run state.
    let mut in_run = false;
    let mut next_round: u64 = 0;
    let mut run_attempts: u64 = 0;
    let mut run_commits: u64 = 0;
    let mut run_rounds: u64 = 0;
    // Per-round state.
    let mut committed: Vec<Committed> = Vec::new();
    let mut last_verdict_seq: Option<u64> = None;
    let mut first_failure: Option<u64> = None;
    // The sets of the task about to receive its verdict.
    let mut pending: Option<(u64, AccessSet, AccessSet)> = None;
    let mut saw_sets = false;

    for (idx, ev) in events.iter().enumerate() {
        // Any verdict event consumes the pending sets; other events must
        // not interleave between task_sets and its verdict.
        match ev {
            Event::RoundStart { round, .. } => {
                if pending.is_some() {
                    fail(idx, "task_sets without a following verdict".into());
                    pending = None;
                }
                if *round == 0 {
                    // New run segment (convergence loops run the engine
                    // repeatedly inside one probe).
                    in_run = true;
                    next_round = 0;
                    run_attempts = 0;
                    run_commits = 0;
                    run_rounds = 0;
                } else if !in_run || *round != next_round {
                    fail(
                        idx,
                        format!("round {round} out of order (expected {next_round})"),
                    );
                    next_round = *round;
                }
                next_round += 1;
                run_rounds += 1;
                committed.clear();
                last_verdict_seq = None;
                first_failure = None;
            }
            Event::TaskStart { .. } => {}
            Event::TaskSets { seq, reads, writes } => {
                saw_sets = true;
                if pending.is_some() {
                    fail(idx, "task_sets without a following verdict".into());
                }
                let mut parse = |s: &str, what: &str| match parse_set(s) {
                    Ok(ranges) => {
                        let mut set = AccessSet::new();
                        for (obj, lo, hi) in ranges {
                            set.insert(obj, lo, hi);
                        }
                        Some(set)
                    }
                    Err(e) => {
                        fail(idx, format!("unparseable {what} set: {e}"));
                        None
                    }
                };
                match (parse(reads, "read"), parse(writes, "write")) {
                    (Some(r), Some(w)) => pending = Some((*seq, r, w)),
                    _ => pending = None,
                }
            }
            Event::ValidateOk { seq, .. }
            | Event::ValidateConflict { seq, .. }
            | Event::Squash { seq, .. } => {
                run_attempts += 1;
                if let Some(prev) = last_verdict_seq {
                    if *seq <= prev {
                        fail(
                            idx,
                            format!(
                                "verdict for task {seq} after task {prev}: validation order must ascend within a round"
                            ),
                        );
                    }
                }
                last_verdict_seq = Some(*seq);

                let sets = match pending.take() {
                    Some((pseq, r, w)) => {
                        if pseq != *seq {
                            fail(
                                idx,
                                format!(
                                    "verdict for task {seq} but recorded sets are for task {pseq}"
                                ),
                            );
                            None
                        } else {
                            Some((r, w))
                        }
                    }
                    None => {
                        if saw_sets && !matches!(ev, Event::Squash { .. }) {
                            fail(idx, format!("no recorded sets for task {seq}"));
                        }
                        None
                    }
                };

                match ev {
                    Event::ValidateOk { validate_words, .. } => {
                        if let Some((r, w)) = &sets {
                            let charge = validate_charge(r, w, committed.iter().map(|c| &c.writes));
                            if *validate_words != charge {
                                fail(
                                    idx,
                                    format!(
                                        "task {seq} validate_ok claims {validate_words} validate words but its recorded sets charge {charge}"
                                    ),
                                );
                            }
                            if let Some((kind, obj, word, winner)) = recompute_conflict(
                                cfg.conflict,
                                r,
                                w,
                                committed.iter().map(|c| (c.seq, &c.writes)),
                            ) {
                                fail(
                                    idx,
                                    format!(
                                        "task {seq} validated ok but its sets conflict ({kind}) with committed task {winner} at obj {obj} word {word}"
                                    ),
                                );
                            }
                        }
                        if first_failure.is_some() && cfg.order == CommitOrder::InOrder {
                            fail(
                                idx,
                                format!(
                                    "task {seq} validated after an in-order failure: it must have been squashed"
                                ),
                            );
                        }
                        // Remember the write set; the Commit event that
                        // must follow carries the word counts.
                        if let Some((_, w)) = sets {
                            committed.push(Committed {
                                seq: *seq,
                                writes: w,
                            });
                        } else {
                            committed.push(Committed {
                                seq: *seq,
                                writes: AccessSet::new(),
                            });
                        }
                    }
                    Event::ValidateConflict {
                        kind,
                        obj,
                        word,
                        winner_seq,
                        ..
                    } => {
                        first_failure.get_or_insert(*seq);
                        if let Some((r, w)) = &sets {
                            match recompute_conflict(
                                cfg.conflict,
                                r,
                                w,
                                committed.iter().map(|c| (c.seq, &c.writes)),
                            ) {
                                None => fail(
                                    idx,
                                    format!(
                                        "task {seq} reported a conflict but its sets are disjoint from every committed writer"
                                    ),
                                ),
                                Some((k, o, wd, win)) => {
                                    if (k, o, wd, win) != (*kind, obj.index(), *word, *winner_seq) {
                                        fail(
                                            idx,
                                            format!(
                                                "task {seq} conflict attribution mismatch: trace says {} obj {} word {} winner {}, sets say {} obj {} word {} winner {}",
                                                kind.as_str(), obj.index(), word, winner_seq,
                                                k.as_str(), o, wd, win
                                            ),
                                        );
                                    }
                                }
                            }
                        }
                    }
                    Event::Squash { by_seq, .. } => {
                        if cfg.order != CommitOrder::InOrder {
                            fail(
                                idx,
                                format!("task {seq} squashed under out-of-order commit"),
                            );
                        }
                        match first_failure {
                            None => fail(
                                idx,
                                format!("task {seq} squashed with no earlier failure in the round"),
                            ),
                            Some(f) => {
                                if *by_seq != f {
                                    fail(
                                        idx,
                                        format!(
                                            "task {seq} squashed by {by_seq}, but the round's first failure was {f}"
                                        ),
                                    );
                                }
                            }
                        }
                    }
                    _ => unreachable!(),
                }
            }
            Event::Commit {
                seq,
                read_words,
                write_words,
                ..
            } => {
                run_commits += 1;
                match committed.last() {
                    Some(c) if c.seq == *seq => {
                        if saw_sets {
                            let w = c.writes.words();
                            if w != *write_words {
                                fail(
                                    idx,
                                    format!(
                                        "task {seq} commit claims {write_words} write words but its recorded set has {w}"
                                    ),
                                );
                            }
                            // Read words are only recorded under
                            // read-tracking policies; recorded reads are
                            // empty otherwise and both sides agree on 0.
                            let _ = read_words;
                        }
                        // Disjointness under write-checking policies: the
                        // new writer must not overlap any earlier one.
                        if matches!(cfg.conflict, ConflictPolicy::Full | ConflictPolicy::Waw) {
                            for earlier in &committed[..committed.len() - 1] {
                                if let Some((obj, word)) = c.writes.first_overlap(&earlier.writes) {
                                    fail(
                                        idx,
                                        format!(
                                            "committed write sets overlap: tasks {} and {} both wrote obj {} word {}",
                                            earlier.seq,
                                            seq,
                                            obj.index(),
                                            word
                                        ),
                                    );
                                }
                            }
                        }
                    }
                    _ => fail(
                        idx,
                        format!("commit for task {seq} without a preceding validate_ok"),
                    ),
                }
            }
            Event::ReductionMerge { .. } => {}
            Event::Oom { .. } | Event::Crash { .. } | Event::WorkBudgetExceeded { .. } => {
                // Abnormal termination: the run ends here; drop any
                // half-recorded task.
                pending = None;
                in_run = false;
            }
            // Phase-profile entries land after a round's verdicts and carry
            // no isolation evidence; probe brackets are outside rounds.
            // Ticket lifecycle events mirror the task events the sanitizer
            // already checks (issue ↔ task_start, validate ↔ commit,
            // requeue ↔ conflict/squash) and carry no access sets.
            Event::PhaseProfile { .. }
            | Event::TicketIssued { .. }
            | Event::TicketValidated { .. }
            | Event::TicketRequeued { .. }
            | Event::ProbeStart { .. }
            | Event::ProbeOutcome { .. } => {}
            Event::RunEnd {
                rounds,
                attempts,
                committed: run_committed,
            } => {
                if pending.is_some() {
                    fail(idx, "task_sets without a following verdict".into());
                    pending = None;
                }
                if in_run {
                    if *rounds != run_rounds {
                        fail(
                            idx,
                            format!("run_end claims {rounds} rounds, replay counted {run_rounds}"),
                        );
                    }
                    if *attempts != run_attempts {
                        fail(
                            idx,
                            format!(
                                "run_end claims {attempts} attempts, replay counted {run_attempts}"
                            ),
                        );
                    }
                    if *run_committed != run_commits {
                        fail(
                            idx,
                            format!(
                                "run_end claims {run_committed} commits, replay counted {run_commits}"
                            ),
                        );
                    }
                }
                in_run = false;
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use alter_heap::ObjId;

    fn cfg_stale() -> SanitizeConfig {
        SanitizeConfig {
            conflict: ConflictPolicy::Waw,
            order: CommitOrder::OutOfOrder,
        }
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
        assert_eq!(sanitize(&ok_trace(), &cfg_stale()), vec![]);
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
        let violations = sanitize(&evs, &cfg_stale());
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
        let violations = sanitize(&evs, &cfg_stale());
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
        let violations = sanitize(&evs, &cfg_stale());
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
        let violations = sanitize(&evs, &cfg_stale());
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
        let violations = sanitize(&evs, &cfg_stale());
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
        let violations = sanitize(&evs, &cfg_stale());
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
        let violations = sanitize(&evs, &cfg_stale());
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
        assert_eq!(sanitize(&evs, &cfg_stale()), vec![]);
    }
}
