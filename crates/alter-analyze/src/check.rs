//! DPOR schedule-space model checker over recorded trace journals —
//! the engine behind `alter-cli check`.
//!
//! A recorded journal proves an annotation sound on exactly *one*
//! schedule: the deterministic commit order the engine happened to
//! produce. But ALTER's correctness claim quantifies over every commit
//! order the ticket sequencer could legally have chosen (worker
//! interleavings quotient onto commit orders: validation consumes task
//! results in commit order, so two interleavings that commit identically
//! are the same schedule). This module closes that gap: for each round
//! of a journal recorded with `ExecParams::record_sets`, it enumerates
//! alternative commit orders, prunes equivalent ones with dynamic
//! partial-order reduction, and runs the [`sanitize`] verdict
//! re-derivation as the per-schedule oracle.
//!
//! **Commutativity criterion.** Two tasks of a round commute iff their
//! recorded access sets are disjoint under the run's conflict policy:
//! overlapping write sets never commute (the final heap words depend on
//! commit order), and under read-checking policies (FULL/OutOfOrder) a
//! read overlapping the other task's writes breaks commutativity too.
//! Overlap tests run the word-block scanner
//! ([`alter_heap::RangeSet::block_scan`]) behind a fingerprint
//! pre-filter, so building the relation costs a deterministic
//! `scan_words` currency.
//!
//! **DPOR.** Schedules are equivalent (one Mazurkiewicz trace) iff they
//! agree on the relative order of every non-commuting pair, so a
//! schedule's equivalence class is the orientation signature of the
//! conflict edges. The enumerator schedules conflict-free tasks
//! canonically (they cannot change any signature bit) and branches only
//! on tasks that still carry a conflict edge, deduplicating by
//! signature: a round whose tasks are pairwise disjoint — the common
//! case for a sound annotation — collapses from `n!` naive schedules to
//! exactly one representative.
//!
//! **Oracle and counterexamples.** For each representative the checker
//! re-sequences the recorded verdicts under the candidate order
//! (sequence numbers relabelled to schedule positions) and sanitizes
//! the synthesized stream; it also re-derives the verdicts from the
//! recorded sets alone. A clean journal passes the identity schedule
//! exactly and gets its genuinely conflicting reorderings *flagged* —
//! evidence the oracle is two-sided. An unsound journal (or an
//! annotation whose committed writers overlap, which order-insensitive
//! policies never check at run time) produces a structured
//! [`Divergence`] by bisecting the re-derived stream against the
//! recorded claims — the same counterexample format `alter-cli diff`
//! bisects and renders, so every verdict here is replayable evidence.

use crate::sanitize::{recompute_conflict, sanitize, validate_charge, SanitizeConfig, Violation};
use alter_heap::{AccessSet, ObjId};
use alter_runtime::replay::{diverge_bisect, Divergence, ReplayOutcome};
use alter_runtime::{CommitOrder, ConflictPolicy};
use alter_trace::{parse_set, render_set, trace_hash, ConflictKind, Event, Journal, TraceHasher};
use std::collections::{HashMap, HashSet};

/// Default per-round budget of DPOR representatives to run through the
/// oracle. Rounds are at most `workers` tasks wide, so the budget only
/// bites on densely conflicting rounds — which is exactly where the
/// signature space explodes and sampling the first representatives is
/// the honest trade.
pub const DEFAULT_SCHEDULE_BUDGET: u64 = 256;

/// Rounds wider than this are not exhaustively explored (the identity
/// schedule is still checked): the branching walk is factorial in round
/// width and engine rounds are never wider than the worker count.
const MAX_EXPLORE_TASKS: usize = 16;

/// At most this many per-round counterexamples are kept with their full
/// event streams; further unsound rounds are only counted.
const MAX_COUNTEREXAMPLES: usize = 8;

/// The recording conditions and exploration budget of a check run.
#[derive(Clone, Copy, Debug)]
pub struct CheckConfig {
    /// Conflict policy the journal's run was validated under.
    pub conflict: ConflictPolicy,
    /// Commit order discipline of the run. Under
    /// [`CommitOrder::InOrder`] the commit order is predefined, so the
    /// recorded schedule is the *only* legal one and the checker audits
    /// just it.
    pub order: CommitOrder,
    /// Per-round budget of DPOR representatives (minimum 1: the
    /// identity schedule is always checked).
    pub max_schedules_per_round: u64,
}

impl CheckConfig {
    /// A config with the default exploration budget.
    pub fn new(conflict: ConflictPolicy, order: CommitOrder) -> CheckConfig {
        CheckConfig {
            conflict,
            order,
            max_schedules_per_round: DEFAULT_SCHEDULE_BUDGET,
        }
    }
}

/// One round the checker proved unsound, with the bisected
/// counterexample: `expected` is the stream the recorded access sets
/// imply, `actual` re-sequences the journal's recorded claims. Both are
/// structurally valid single-round streams (round renumbered to 0), so
/// they can be packaged as journals and fed to `alter-cli diff`.
#[derive(Clone, Debug)]
pub struct UnsoundRound {
    /// Global round ordinal in the journal (across run segments).
    pub round: u64,
    /// The first divergent event, bisected exactly as replay mismatches
    /// are.
    pub divergence: Box<Divergence>,
    /// The re-derived (sets-implied) event stream.
    pub expected: Vec<Event>,
    /// The recorded-claims event stream.
    pub actual: Vec<Event>,
}

/// Aggregate result of model-checking a journal's schedule space.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Rounds audited.
    pub rounds: u64,
    /// Tasks across all audited rounds.
    pub tasks: u64,
    /// Naive schedule count: `Σ n!` over rounds of `n` tasks under
    /// out-of-order commit (1 per round under in-order), saturating.
    pub naive_schedules: u64,
    /// DPOR representatives actually run through the oracle.
    pub explored: u64,
    /// Reordered representatives the oracle correctly rejected — the
    /// completeness side of the check (a reordering of two conflicting
    /// tasks must not pass).
    pub flagged: u64,
    /// Rounds whose representative count was truncated by the budget.
    pub budget_hits: u64,
    /// Words compared by the block scans that built the commutativity
    /// relation (deterministic work currency).
    pub scan_words: u64,
    /// Total rounds proved unsound (counterexamples beyond
    /// the retention cap are counted here but not stored).
    pub unsound_rounds: u64,
    /// Retained counterexamples, in round order.
    pub unsound: Vec<UnsoundRound>,
}

impl CheckReport {
    /// Whether every round survived every explored schedule.
    pub fn sound(&self) -> bool {
        self.unsound_rounds == 0
    }

    /// Schedules the DPOR pruning avoided running: naive minus
    /// explored, saturating.
    pub fn pruned(&self) -> u64 {
        self.naive_schedules.saturating_sub(self.explored)
    }
}

/// A recorded verdict, exactly as the journal claims it.
#[derive(Clone, Debug)]
enum RecordedVerdict {
    Ok {
        validate_words: u64,
        /// `(read_words, write_words, allocs, frees)` of the recorded
        /// `commit` event; `None` when the stream truncated before it.
        commit: Option<(u64, u64, u32, u32)>,
    },
    Conflict {
        kind: ConflictKind,
        obj: u32,
        word: u32,
        winner_seq: u64,
    },
    Squash {
        by_seq: u64,
    },
}

/// One task of a round: its recorded sets and claimed verdict.
struct Task {
    seq: u64,
    reads: AccessSet,
    writes: AccessSet,
    verdict: RecordedVerdict,
}

/// One extracted round.
struct RoundTasks {
    snapshot_slots: u64,
    tasks: Vec<Task>,
}

/// A verdict re-derived from the recorded sets under a candidate
/// schedule. `winner`/`by` are task *indices* (into the round's task
/// vector), mapped to schedule positions at synthesis time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DerivedVerdict {
    Ok {
        /// The per-earlier-writer validation charge under the schedule.
        validate_words: u64,
    },
    Conflict {
        kind: ConflictKind,
        obj: u32,
        word: u32,
        winner: usize,
    },
    Squash {
        by: usize,
    },
}

/// A fully resolved per-position verdict, ready to render as events.
enum SynthVerdict {
    Ok {
        validate_words: u64,
        commit: (u64, u64, u32, u32),
    },
    Conflict {
        kind: ConflictKind,
        obj: u32,
        word: u32,
        winner_seq: u64,
    },
    Squash {
        by_seq: u64,
    },
}

/// Parses a canonical set rendering back into an [`AccessSet`].
fn parse_access_set(s: &str, what: &str, seq: u64) -> Result<AccessSet, String> {
    let ranges = parse_set(s).map_err(|e| format!("task {seq}: unparseable {what} set ({e})"))?;
    let mut set = AccessSet::new();
    for (obj, lo, hi) in ranges {
        set.insert(obj, lo, hi);
    }
    Ok(set)
}

/// Walks the event stream and groups it into rounds of tasks. Requires
/// `task_sets` payloads before every verdict (squashes excepted — the
/// engine may squash a task whose sets were never tracked); truncated
/// trailing tasks are dropped, matching the sanitizer's tolerance.
fn extract_rounds(events: &[Event]) -> Result<Vec<RoundTasks>, String> {
    let mut rounds: Vec<RoundTasks> = Vec::new();
    let mut current: Option<RoundTasks> = None;
    let mut pending: Option<(u64, AccessSet, AccessSet)> = None;
    for ev in events {
        match ev {
            Event::RoundStart { snapshot_slots, .. } => {
                pending = None;
                if let Some(r) = current.take() {
                    rounds.push(r);
                }
                current = Some(RoundTasks {
                    snapshot_slots: *snapshot_slots,
                    tasks: Vec::new(),
                });
            }
            Event::TaskSets { seq, reads, writes } => {
                pending = Some((
                    *seq,
                    parse_access_set(reads, "read", *seq)?,
                    parse_access_set(writes, "write", *seq)?,
                ));
            }
            Event::ValidateOk {
                seq,
                validate_words,
            } => {
                let (pseq, reads, writes) = pending.take().ok_or(format!(
                    "no recorded task_sets for task {seq}: record the journal with --sets"
                ))?;
                if pseq != *seq {
                    return Err(format!(
                        "verdict for task {seq} but recorded sets are for task {pseq}"
                    ));
                }
                let round = current.as_mut().ok_or("verdict before any round_start")?;
                round.tasks.push(Task {
                    seq: *seq,
                    reads,
                    writes,
                    verdict: RecordedVerdict::Ok {
                        validate_words: *validate_words,
                        commit: None,
                    },
                });
            }
            Event::ValidateConflict {
                seq,
                kind,
                obj,
                word,
                winner_seq,
            } => {
                let (pseq, reads, writes) = pending.take().ok_or(format!(
                    "no recorded task_sets for task {seq}: record the journal with --sets"
                ))?;
                if pseq != *seq {
                    return Err(format!(
                        "verdict for task {seq} but recorded sets are for task {pseq}"
                    ));
                }
                let round = current.as_mut().ok_or("verdict before any round_start")?;
                round.tasks.push(Task {
                    seq: *seq,
                    reads,
                    writes,
                    verdict: RecordedVerdict::Conflict {
                        kind: *kind,
                        obj: obj.index(),
                        word: *word,
                        winner_seq: *winner_seq,
                    },
                });
            }
            Event::Squash { seq, by_seq } => {
                let (reads, writes) = match pending.take() {
                    Some((pseq, r, w)) if pseq == *seq => (r, w),
                    _ => (AccessSet::new(), AccessSet::new()),
                };
                let round = current.as_mut().ok_or("verdict before any round_start")?;
                round.tasks.push(Task {
                    seq: *seq,
                    reads,
                    writes,
                    verdict: RecordedVerdict::Squash { by_seq: *by_seq },
                });
            }
            Event::Commit {
                seq,
                read_words,
                write_words,
                allocs,
                frees,
            } => {
                let task = current
                    .as_mut()
                    .and_then(|r| r.tasks.last_mut())
                    .filter(|t| t.seq == *seq);
                match task {
                    Some(t) => match &mut t.verdict {
                        RecordedVerdict::Ok { commit, .. } if commit.is_none() => {
                            *commit = Some((*read_words, *write_words, *allocs, *frees));
                        }
                        _ => {
                            return Err(format!(
                                "commit for task {seq} without a preceding validate_ok"
                            ))
                        }
                    },
                    None => {
                        return Err(format!(
                            "commit for task {seq} without a preceding validate_ok"
                        ))
                    }
                }
            }
            Event::RunEnd { .. }
            | Event::Oom { .. }
            | Event::Crash { .. }
            | Event::WorkBudgetExceeded { .. } => {
                pending = None;
                if let Some(r) = current.take() {
                    rounds.push(r);
                }
            }
            _ => {}
        }
    }
    if let Some(r) = current.take() {
        rounds.push(r);
    }
    Ok(rounds)
}

/// Exact overlap test via the word-block scanner, behind the same
/// fingerprint pre-filter the runtime's validator uses. Returns the
/// verdict and the words the block scans compared.
fn overlap_block_scan(a: &AccessSet, b: &AccessSet) -> (bool, u64) {
    if a.is_empty() || b.is_empty() || !a.fingerprint().may_intersect(b.fingerprint()) {
        return (false, 0);
    }
    let mut words = 0u64;
    for (id, ranges) in a.iter_sorted() {
        if let Some(other) = b.ranges(id) {
            let (hit, w) = ranges.block_scan(other);
            words += w;
            if hit {
                return (true, words);
            }
        }
    }
    (false, words)
}

/// The round's dependence (non-commutativity) relation.
struct DepGraph {
    n: usize,
    /// Symmetric `n×n` adjacency: tasks that do not commute.
    dep: Vec<bool>,
    /// Symmetric `n×n` write-write overlap (order-sensitive final
    /// state even under policies that never check writes).
    ww: Vec<bool>,
    /// Dependence edges `(i, j)` with `i < j`, in ascending order — the
    /// signature bit layout.
    edges: Vec<(usize, usize)>,
    /// Words the block scans compared building the relation.
    scan_words: u64,
}

/// Builds the dependence relation from the recorded sets: write-write
/// overlap always breaks commutativity; read-vs-write overlap breaks it
/// under read-checking policies.
fn dep_graph(tasks: &[Task], policy: ConflictPolicy) -> DepGraph {
    let n = tasks.len();
    let reads_checked = matches!(policy, ConflictPolicy::Full | ConflictPolicy::Raw);
    let mut g = DepGraph {
        n,
        dep: vec![false; n * n],
        ww: vec![false; n * n],
        edges: Vec::new(),
        scan_words: 0,
    };
    for j in 0..n {
        for i in 0..j {
            let (w_hit, w) = overlap_block_scan(&tasks[i].writes, &tasks[j].writes);
            g.scan_words += w;
            g.ww[i * n + j] = w_hit;
            g.ww[j * n + i] = w_hit;
            let mut d = w_hit;
            if !d && reads_checked {
                let (rw, w1) = overlap_block_scan(&tasks[i].reads, &tasks[j].writes);
                let (wr, w2) = overlap_block_scan(&tasks[j].reads, &tasks[i].writes);
                g.scan_words += w1 + w2;
                d = rw || wr;
            }
            if d {
                g.dep[i * n + j] = true;
                g.dep[j * n + i] = true;
                g.edges.push((i, j));
            }
        }
    }
    g
}

/// Orientation signature of a schedule: one bit per dependence edge,
/// true iff the edge's lower-indexed task commits first. Two schedules
/// with equal signatures are one Mazurkiewicz trace.
fn signature(g: &DepGraph, order: &[usize]) -> Vec<bool> {
    let mut pos = vec![0usize; g.n];
    for (p, &t) in order.iter().enumerate() {
        pos[t] = p;
    }
    g.edges.iter().map(|&(i, j)| pos[i] < pos[j]).collect()
}

/// `n!`, saturating at `u64::MAX`.
fn factorial_sat(n: usize) -> u64 {
    (1..=n as u64).fold(1u64, u64::saturating_mul)
}

/// Recursive representative enumeration: drain tasks with no dependence
/// edge into the canonical (ascending) order — their placement cannot
/// flip a signature bit — then branch on every task that still carries
/// an edge, deduplicating completed schedules by signature.
#[allow(clippy::too_many_arguments)]
fn explore(
    g: &DepGraph,
    mut remaining: Vec<usize>,
    mut order: Vec<usize>,
    seen: &mut HashSet<Vec<bool>>,
    schedules: &mut Vec<Vec<usize>>,
    budget: u64,
    walks: &mut u64,
    hit: &mut bool,
) {
    if *hit {
        return;
    }
    loop {
        let free: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&t| !remaining.iter().any(|&u| u != t && g.dep[t * g.n + u]))
            .collect();
        if free.is_empty() {
            break;
        }
        order.extend_from_slice(&free);
        remaining.retain(|t| !free.contains(t));
    }
    if remaining.is_empty() {
        *walks += 1;
        if seen.insert(signature(g, &order)) {
            if schedules.len() as u64 >= budget {
                *hit = true;
                return;
            }
            schedules.push(order);
        } else if *walks > budget.saturating_mul(64) {
            // Duplicate-heavy walk on a dense round: stop rather than
            // chase an exhausted signature space.
            *hit = true;
        }
        return;
    }
    for i in 0..remaining.len() {
        let mut r2 = remaining.clone();
        let t = r2.remove(i);
        let mut o2 = order.clone();
        o2.push(t);
        explore(g, r2, o2, seen, schedules, budget, walks, hit);
        if *hit {
            return;
        }
    }
}

/// Enumerates DPOR representatives. The literal identity schedule is
/// always first (it claims the identity signature, so the walk's
/// equivalent variants deduplicate onto it).
fn representatives(g: &DepGraph, budget: u64) -> (Vec<Vec<usize>>, bool) {
    let identity: Vec<usize> = (0..g.n).collect();
    let mut seen = HashSet::new();
    seen.insert(signature(g, &identity));
    let mut schedules = vec![identity];
    if g.edges.is_empty() || g.n > MAX_EXPLORE_TASKS {
        return (schedules, g.n > MAX_EXPLORE_TASKS && !g.edges.is_empty());
    }
    let mut hit = false;
    let mut walks = 0u64;
    explore(
        g,
        (0..g.n).collect(),
        Vec::new(),
        &mut seen,
        &mut schedules,
        budget,
        &mut walks,
        &mut hit,
    );
    (schedules, hit)
}

/// Re-derives every verdict from the recorded sets alone, validating in
/// schedule order: first committed writer wins, in-order commit
/// squashes everything after the round's first failure.
fn derive(
    tasks: &[Task],
    sched: &[usize],
    policy: ConflictPolicy,
    order: CommitOrder,
) -> Vec<DerivedVerdict> {
    let mut out = Vec::with_capacity(sched.len());
    let mut committed: Vec<usize> = Vec::new();
    let mut first_fail: Option<usize> = None;
    for &t in sched {
        if let (CommitOrder::InOrder, Some(f)) = (order, first_fail) {
            out.push(DerivedVerdict::Squash { by: f });
            continue;
        }
        let hit = recompute_conflict(
            policy,
            &tasks[t].reads,
            &tasks[t].writes,
            committed.iter().map(|&c| (c as u64, &tasks[c].writes)),
        );
        match hit {
            None => {
                out.push(DerivedVerdict::Ok {
                    validate_words: validate_charge(
                        &tasks[t].reads,
                        &tasks[t].writes,
                        committed.iter().map(|&c| &tasks[c].writes),
                    ),
                });
                committed.push(t);
            }
            Some((kind, obj, word, winner)) => {
                out.push(DerivedVerdict::Conflict {
                    kind,
                    obj,
                    word,
                    winner: winner as usize,
                });
                first_fail.get_or_insert(t);
            }
        }
    }
    out
}

/// Renders per-position verdicts as a structurally valid single-round
/// stream: `round_start`, then `task_sets` + verdict (+ `commit`) per
/// position with sequence numbers relabelled to schedule positions,
/// closed by a consistent `run_end`. The round is renumbered to 0 so
/// the stream packages as a standalone journal.
fn synth_events(
    tasks: &[Task],
    sched: &[usize],
    verdicts: &[SynthVerdict],
    snapshot_slots: u64,
) -> Vec<Event> {
    let n = sched.len();
    let mut evs = Vec::with_capacity(3 * n + 2);
    evs.push(Event::RoundStart {
        round: 0,
        tasks: n as u32,
        snapshot_slots,
    });
    let mut commits = 0u64;
    for (p, (&t, v)) in sched.iter().zip(verdicts).enumerate() {
        evs.push(Event::TaskSets {
            seq: p as u64,
            reads: render_set(&tasks[t].reads),
            writes: render_set(&tasks[t].writes),
        });
        match v {
            SynthVerdict::Ok {
                validate_words,
                commit: (read_words, write_words, allocs, frees),
            } => {
                evs.push(Event::ValidateOk {
                    seq: p as u64,
                    validate_words: *validate_words,
                });
                evs.push(Event::Commit {
                    seq: p as u64,
                    read_words: *read_words,
                    write_words: *write_words,
                    allocs: *allocs,
                    frees: *frees,
                });
                commits += 1;
            }
            SynthVerdict::Conflict {
                kind,
                obj,
                word,
                winner_seq,
            } => evs.push(Event::ValidateConflict {
                seq: p as u64,
                kind: *kind,
                obj: ObjId::from_index(*obj),
                word: *word,
                winner_seq: *winner_seq,
            }),
            SynthVerdict::Squash { by_seq } => evs.push(Event::Squash {
                seq: p as u64,
                by_seq: *by_seq,
            }),
        }
    }
    evs.push(Event::RunEnd {
        rounds: 1,
        attempts: n as u64,
        committed: commits,
    });
    evs
}

/// Resolves the *recorded* claims under a candidate schedule. Conflict
/// attribution and the validation charge are schedule-relative
/// reporting, not semantics: when both the record and the re-derivation
/// agree on a reordered task's verdict, the synthesized stream carries
/// the schedule's own attribution or charge (the recorded winner, or the
/// writers committed ahead of the task, may legitimately differ once
/// commit order moves). On the identity schedule the recorded figures
/// are kept verbatim (positions permitting), so the oracle there is
/// exactly as strict as the sanitizer.
fn recorded_verdicts(
    tasks: &[Task],
    sched: &[usize],
    derived: &[DerivedVerdict],
    identity: bool,
) -> Vec<SynthVerdict> {
    let mut pos = vec![0usize; tasks.len()];
    for (p, &t) in sched.iter().enumerate() {
        pos[t] = p;
    }
    let seq_to_pos: HashMap<u64, u64> = tasks
        .iter()
        .enumerate()
        .map(|(i, t)| (t.seq, pos[i] as u64))
        .collect();
    let remap = |seq: u64| seq_to_pos.get(&seq).copied().unwrap_or(seq);
    sched
        .iter()
        .zip(derived)
        .map(|(&t, d)| match &tasks[t].verdict {
            RecordedVerdict::Ok {
                validate_words,
                commit,
            } => SynthVerdict::Ok {
                validate_words: match d {
                    DerivedVerdict::Ok {
                        validate_words: charge,
                    } if !identity => *charge,
                    _ => *validate_words,
                },
                commit: commit.unwrap_or((tasks[t].reads.words(), tasks[t].writes.words(), 0, 0)),
            },
            RecordedVerdict::Conflict {
                kind,
                obj,
                word,
                winner_seq,
            } => {
                if let (
                    false,
                    DerivedVerdict::Conflict {
                        kind: dk,
                        obj: dobj,
                        word: dword,
                        winner,
                    },
                ) = (identity, d)
                {
                    SynthVerdict::Conflict {
                        kind: *dk,
                        obj: *dobj,
                        word: *dword,
                        winner_seq: pos[*winner] as u64,
                    }
                } else {
                    SynthVerdict::Conflict {
                        kind: *kind,
                        obj: *obj,
                        word: *word,
                        winner_seq: remap(*winner_seq),
                    }
                }
            }
            RecordedVerdict::Squash { by_seq } => SynthVerdict::Squash {
                by_seq: remap(*by_seq),
            },
        })
        .collect()
}

/// Resolves the *re-derived* verdicts under a candidate schedule. Commit
/// payloads come from the recorded sets (word counts a commit must
/// match); allocation counters carry over from the record where one
/// exists, since sets cannot derive them.
fn derived_verdicts(
    tasks: &[Task],
    sched: &[usize],
    derived: &[DerivedVerdict],
) -> Vec<SynthVerdict> {
    let mut pos = vec![0usize; tasks.len()];
    for (p, &t) in sched.iter().enumerate() {
        pos[t] = p;
    }
    sched
        .iter()
        .zip(derived)
        .map(|(&t, d)| match d {
            DerivedVerdict::Ok { validate_words } => {
                let (allocs, frees) = match &tasks[t].verdict {
                    RecordedVerdict::Ok { commit, .. } => {
                        let (_, _, a, f) = commit.unwrap_or((0, 0, 0, 0));
                        (a, f)
                    }
                    _ => (0, 0),
                };
                SynthVerdict::Ok {
                    validate_words: *validate_words,
                    commit: (
                        tasks[t].reads.words(),
                        tasks[t].writes.words(),
                        allocs,
                        frees,
                    ),
                }
            }
            DerivedVerdict::Conflict {
                kind,
                obj,
                word,
                winner,
            } => SynthVerdict::Conflict {
                kind: *kind,
                obj: *obj,
                word: *word,
                winner_seq: pos[*winner] as u64,
            },
            DerivedVerdict::Squash { by } => SynthVerdict::Squash {
                by_seq: pos[*by] as u64,
            },
        })
        .collect()
}

/// First pair of schedule-committed tasks whose write sets overlap, in
/// schedule order. Under write-checking policies this cannot happen (the
/// re-derivation would have conflicted the later writer); under
/// RAW-only or unchecked policies it is the order-sensitivity witness.
fn first_ww_committed(
    g: &DepGraph,
    sched: &[usize],
    derived: &[DerivedVerdict],
) -> Option<(usize, usize)> {
    let committed: Vec<usize> = sched
        .iter()
        .zip(derived)
        .filter(|(_, d)| matches!(d, DerivedVerdict::Ok { .. }))
        .map(|(&t, _)| t)
        .collect();
    for j in 1..committed.len() {
        for &earlier in &committed[..j] {
            if g.ww[earlier * g.n + committed[j]] {
                return Some((earlier, committed[j]));
            }
        }
    }
    None
}

/// Escalates a policy to its write-checking counterpart — the reference
/// isolation an order-sensitivity counterexample is rendered against.
fn escalate(policy: ConflictPolicy) -> ConflictPolicy {
    match policy {
        ConflictPolicy::None => ConflictPolicy::Waw,
        ConflictPolicy::Raw => ConflictPolicy::Full,
        p => p,
    }
}

/// Bisects the two synthesized streams into a [`Divergence`]. The
/// streams differ whenever the oracle rejected the schedule; the
/// fallback (identical streams despite violations, possible only for
/// identical overlapping write sets) still reports the first violating
/// event as structured evidence.
fn make_divergence(
    expected: Vec<Event>,
    actual: Vec<Event>,
    violations: &[Violation],
) -> (Box<Divergence>, Vec<Event>, Vec<Event>) {
    match diverge_bisect(&expected, &actual) {
        ReplayOutcome::Diverged(d) => (d, expected, actual),
        ReplayOutcome::Identical { .. } => {
            let index = violations.first().map_or(0, |v| v.event);
            let mut h = TraceHasher::new();
            for ev in actual.iter().take(index) {
                h.update_event(ev);
            }
            let d = Divergence {
                round: 0,
                seq: None,
                index,
                expected: None,
                actual: actual.get(index).cloned(),
                prefix_hash: h.finish(),
                expected_hash: trace_hash(&expected),
                actual_hash: trace_hash(&actual),
                set_delta: None,
            };
            (Box::new(d), expected, actual)
        }
    }
}

/// Per-round outcome of the schedule-space walk.
#[derive(Default)]
struct RoundOutcome {
    naive: u64,
    explored: u64,
    flagged: u64,
    budget_hit: bool,
    scan_words: u64,
    unsound: Option<(Box<Divergence>, Vec<Event>, Vec<Event>)>,
}

/// Model-checks one round: enumerate representatives, sanitize the
/// recorded claims under each, and re-derive against the sets for the
/// counterexample on rejection.
fn check_round(round: &RoundTasks, cfg: &CheckConfig) -> RoundOutcome {
    let tasks = &round.tasks;
    let n = tasks.len();
    let mut out = RoundOutcome::default();
    if n == 0 {
        out.naive = 1;
        out.explored = 1;
        return out;
    }
    let g = dep_graph(tasks, cfg.conflict);
    out.scan_words = g.scan_words;
    let (schedules, budget_hit) = match cfg.order {
        // Predefined commit order: the recorded schedule is the only
        // legal one (Saad et al.'s framing) — audit exactly it.
        CommitOrder::InOrder => (vec![(0..n).collect::<Vec<usize>>()], false),
        CommitOrder::OutOfOrder => representatives(&g, cfg.max_schedules_per_round.max(1)),
    };
    out.budget_hit = budget_hit;
    out.naive = match cfg.order {
        CommitOrder::InOrder => 1,
        CommitOrder::OutOfOrder => factorial_sat(n),
    };
    out.explored = schedules.len() as u64;
    let scfg = SanitizeConfig {
        conflict: cfg.conflict,
        order: cfg.order,
    };
    let write_checked = matches!(cfg.conflict, ConflictPolicy::Full | ConflictPolicy::Waw);
    for (si, sched) in schedules.iter().enumerate() {
        let identity = si == 0;
        let derived = derive(tasks, sched, cfg.conflict, cfg.order);
        let actual = synth_events(
            tasks,
            sched,
            &recorded_verdicts(tasks, sched, &derived, identity),
            round.snapshot_slots,
        );
        let violations = sanitize(&actual, &scfg);
        if identity && !violations.is_empty() {
            // The journal's own claims fail re-derivation: bisect the
            // sets-implied stream against the recorded one.
            let expected = synth_events(
                tasks,
                sched,
                &derived_verdicts(tasks, sched, &derived),
                round.snapshot_slots,
            );
            out.unsound = Some(make_divergence(expected, actual, &violations));
            break;
        }
        if !write_checked && first_ww_committed(&g, sched, &derived).is_some() {
            // Two committed writers overlap: the final heap state
            // depends on commit order. Render the counterexample
            // against the write-checking reference policy.
            let esc = derive(tasks, sched, escalate(cfg.conflict), cfg.order);
            let expected = synth_events(
                tasks,
                sched,
                &derived_verdicts(tasks, sched, &esc),
                round.snapshot_slots,
            );
            out.unsound = Some(make_divergence(expected, actual, &violations));
            break;
        }
        if !identity && !violations.is_empty() {
            out.flagged += 1;
        }
    }
    out
}

/// Model-checks a recorded event stream (with `task_sets` payloads)
/// against every DPOR-representative commit order per round.
pub fn check_events(events: &[Event], cfg: &CheckConfig) -> Result<CheckReport, String> {
    let rounds = extract_rounds(events)?;
    let mut report = CheckReport::default();
    for (ordinal, round) in rounds.iter().enumerate() {
        let out = check_round(round, cfg);
        report.rounds += 1;
        report.tasks += round.tasks.len() as u64;
        report.naive_schedules = report.naive_schedules.saturating_add(out.naive);
        report.explored += out.explored;
        report.flagged += out.flagged;
        report.budget_hits += u64::from(out.budget_hit);
        report.scan_words += out.scan_words;
        if let Some((divergence, expected, actual)) = out.unsound {
            report.unsound_rounds += 1;
            if report.unsound.len() < MAX_COUNTEREXAMPLES {
                report.unsound.push(UnsoundRound {
                    round: ordinal as u64,
                    divergence,
                    expected,
                    actual,
                });
            }
        }
    }
    Ok(report)
}

/// Model-checks a loaded journal. The journal must have been recorded
/// with `--sets` (the header's `record_sets` flag) — the access sets
/// *are* the model.
pub fn check_journal(journal: &Journal, cfg: &CheckConfig) -> Result<CheckReport, String> {
    if !journal.header().record_sets {
        return Err(
            "journal was recorded without task_sets payloads: re-record with --sets".into(),
        );
    }
    check_events(journal.events(), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_waw() -> CheckConfig {
        CheckConfig::new(ConflictPolicy::Waw, CommitOrder::OutOfOrder)
    }

    fn sets_event(seq: u64, reads: &str, writes: &str) -> Event {
        Event::TaskSets {
            seq,
            reads: reads.into(),
            writes: writes.into(),
        }
    }

    fn ok_pair(seq: u64, validate_words: u64, write_words: u64) -> [Event; 2] {
        [
            Event::ValidateOk {
                seq,
                validate_words,
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

    /// Three pairwise-disjoint committed writers.
    fn disjoint_round() -> Vec<Event> {
        let mut evs = vec![Event::RoundStart {
            round: 0,
            tasks: 3,
            snapshot_slots: 4,
        }];
        for s in 0..3u64 {
            evs.push(sets_event(s, "", &format!("1:{}-{}", s * 8, s * 8 + 4)));
            evs.extend(ok_pair(s, 4 * s, 4));
        }
        evs.push(Event::RunEnd {
            rounds: 1,
            attempts: 3,
            committed: 3,
        });
        evs
    }

    #[test]
    fn disjoint_round_collapses_to_one_representative() {
        let report = check_events(&disjoint_round(), &cfg_waw()).unwrap();
        assert!(report.sound(), "{:?}", report.unsound);
        assert_eq!(report.naive_schedules, 6);
        assert_eq!(report.explored, 1);
        assert_eq!(report.pruned(), 5);
        assert_eq!(report.flagged, 0);
    }

    /// Task 1 overlaps task 0 and correctly conflicted; the flipped
    /// orientation is a distinct representative the oracle must flag.
    fn conflicting_round() -> Vec<Event> {
        let mut evs = vec![Event::RoundStart {
            round: 0,
            tasks: 2,
            snapshot_slots: 4,
        }];
        evs.push(sets_event(0, "", "1:0-4"));
        evs.extend(ok_pair(0, 0, 4));
        evs.push(sets_event(1, "", "1:2-6"));
        evs.push(Event::ValidateConflict {
            seq: 1,
            kind: ConflictKind::Waw,
            obj: ObjId::from_index(1),
            word: 2,
            winner_seq: 0,
        });
        evs.push(Event::RunEnd {
            rounds: 1,
            attempts: 2,
            committed: 1,
        });
        evs
    }

    #[test]
    fn conflicting_pair_yields_two_representatives_and_a_flag() {
        let report = check_events(&conflicting_round(), &cfg_waw()).unwrap();
        assert!(report.sound(), "{:?}", report.unsound);
        assert_eq!(report.explored, 2);
        assert_eq!(report.flagged, 1);
    }

    #[test]
    fn overlapping_committed_writers_are_unsound() {
        let mut evs = disjoint_round();
        // Task 2 now writes over task 0's words but still claims ok.
        evs[7] = sets_event(2, "", "1:2-6");
        let report = check_events(&evs, &cfg_waw()).unwrap();
        assert_eq!(report.unsound_rounds, 1);
        let cex = &report.unsound[0];
        assert_eq!(cex.round, 0);
        assert_eq!(cex.divergence.seq, Some(2));
        assert!(matches!(
            cex.divergence.expected,
            Some(Event::ValidateConflict { .. })
        ));
        assert!(matches!(
            cex.divergence.actual,
            Some(Event::ValidateOk { .. })
        ));
    }

    #[test]
    fn unchecked_overlapping_writers_are_order_sensitive() {
        // Same overlapping claims, but under DOALL's unchecked policy the
        // sanitizer alone is blind — the write-write witness must fire.
        let mut evs = disjoint_round();
        evs[7] = sets_event(2, "", "1:2-6");
        let cfg = CheckConfig::new(ConflictPolicy::None, CommitOrder::OutOfOrder);
        let report = check_events(&evs, &cfg).unwrap();
        assert_eq!(report.unsound_rounds, 1);
        let cex = &report.unsound[0];
        // The reference (write-checking) stream conflicts the later
        // writer where the recorded stream commits it.
        assert!(matches!(
            cex.divergence.expected,
            Some(Event::ValidateConflict { .. })
        ));
    }

    #[test]
    fn in_order_rounds_audit_only_the_recorded_schedule() {
        let cfg = CheckConfig::new(ConflictPolicy::Raw, CommitOrder::InOrder);
        let mut evs = vec![Event::RoundStart {
            round: 0,
            tasks: 2,
            snapshot_slots: 4,
        }];
        evs.push(sets_event(0, "1:0-2", "1:0-4"));
        evs.extend(ok_pair(0, 0, 4));
        evs.push(sets_event(1, "1:2-6", ""));
        evs.push(Event::ValidateConflict {
            seq: 1,
            kind: ConflictKind::Raw,
            obj: ObjId::from_index(1),
            word: 2,
            winner_seq: 0,
        });
        evs.push(Event::RunEnd {
            rounds: 1,
            attempts: 2,
            committed: 1,
        });
        let report = check_events(&evs, &cfg).unwrap();
        assert!(report.sound(), "{:?}", report.unsound);
        assert_eq!(report.naive_schedules, 1);
        assert_eq!(report.explored, 1);
    }

    #[test]
    fn journals_without_sets_are_rejected() {
        let evs = vec![
            Event::RoundStart {
                round: 0,
                tasks: 1,
                snapshot_slots: 0,
            },
            Event::ValidateOk {
                seq: 0,
                validate_words: 0,
            },
            Event::RunEnd {
                rounds: 1,
                attempts: 1,
                committed: 0,
            },
        ];
        let err = check_events(&evs, &cfg_waw()).unwrap_err();
        assert!(err.contains("--sets"), "{err}");
    }
}
