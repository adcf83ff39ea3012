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
//! partial-order reduction, and audits each against [`derive`], the
//! verdict oracle the [`sanitize`] audit runs on the recorded order.
//!
//! **Commutativity criterion.** Two tasks of a round commute iff their
//! recorded access sets are disjoint under the run's conflict policy:
//! overlapping write sets never commute (the final heap words depend on
//! commit order), and under read-checking policies (FULL/OutOfOrder) a
//! read overlapping the other task's writes breaks commutativity too.
//! Overlap is decided by [`AccessSet::overlaps`], the test the validator
//! runs, so the relation is the isolation level's own conflict relation.
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
//! **Oracle and counterexamples.** The journal is read once, by the
//! sanitizer's round reader, so each task's sets are parsed once. For
//! each representative the checker re-sequences the recorded claims under
//! the candidate order (sequence numbers relabelled to schedule
//! positions) and audits them record by record against [`derive`],
//! exactly as the sanitizer audits the recorded order; no event stream is
//! rendered or re-read. A clean journal passes the identity schedule
//! exactly and gets its genuinely conflicting reorderings *flagged* —
//! evidence the oracle is two-sided. An unsound journal (or an annotation
//! whose committed writers overlap, which order-insensitive policies never
//! check at run time) is rendered only then, as two single-round streams
//! — the verdicts the sets imply and the recorded claims — and reported as
//! the [`Divergence`] between them: the counterexample format
//! `alter-cli diff` finds and renders, so every verdict here is replayable
//! evidence.

use crate::sanitize::{audit_round, read_rounds, sanitize, Claim, CommitWords, Round, TaskRecord};
use alter_heap::{AccessSet, ObjId};
use alter_runtime::replay::{diverge_bisect, Divergence, ReplayOutcome};
use alter_runtime::{CommitOrder, ConflictPolicy, ExecParams};
use alter_trace::{render_set, ConflictKind, Event, Journal};
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

/// One round the checker proved unsound, with its counterexample:
/// `expected` is the stream the recorded access sets imply, `actual`
/// re-sequences the journal's recorded claims. Both are structurally
/// valid single-round streams (round renumbered to 0), so they can be
/// packaged as journals and fed to `alter-cli diff`.
#[derive(Clone, Debug)]
pub struct UnsoundRound {
    /// Global round ordinal in the journal (across run segments).
    pub round: u64,
    /// The first divergent event, found exactly as replay mismatches
    /// are.
    pub divergence: Box<Divergence>,
    /// The re-derived (sets-implied) event stream.
    pub expected: Vec<Event>,
    /// The recorded-claims event stream.
    pub actual: Vec<Event>,
}

/// Aggregate result of model-checking a journal's schedule space. Every
/// count is a function of the recorded sets alone: the representatives
/// behind `explored` and `flagged` are those of the relation that
/// [`AccessSet::overlaps`] decides, and building it is not counted.
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

/// What [`derive`] gives one task's recorded sets.
pub(crate) struct Derived {
    /// The first conflict, `(kind, obj, word, winner)`, if any.
    pub conflict: Option<(ConflictKind, u32, u32, u64)>,
    /// The `validate_ok.validate_words` charge.
    pub charge: u64,
}

/// Which sets `policy` validates, `(reads, writes)` (SEMANTICS.md §2.1):
/// `Full` both, `Raw` the reads, `Waw` the writes, `None` neither. The
/// engine's `first_conflict` answers the same question, and this copy is
/// kept apart from it on purpose: a checker must not share a failure mode
/// with the code it checks (ROADMAP aim 3), so a wrong row in the engine's
/// policy match shows here as a verdict the sets do not imply.
pub(crate) fn checked_sets(policy: ConflictPolicy) -> (bool, bool) {
    match policy {
        ConflictPolicy::Full => (true, true),
        ConflictPolicy::Raw => (true, false),
        ConflictPolicy::Waw => (false, true),
        ConflictPolicy::None => (false, false),
    }
}

/// The one verdict oracle: what a task's recorded sets earn against the
/// round's writers committed ahead of it, `(seq, write set)` in commit
/// order. The first writer with an overlap wins, reads are checked before
/// writes under FULL, and the conflicting word is the first in ascending
/// (object, word) order. The charge is what a scan of every earlier
/// writer would compare — each costs the smaller of its write words and
/// the task's tracked words — whatever scans the engine ran. The
/// sanitizer audits the recorded verdicts with it, the checker re-derives
/// every candidate order with it, and `predict` validates each simulated
/// chunk with it.
pub(crate) fn derive(
    policy: ConflictPolicy,
    reads: &AccessSet,
    writes: &AccessSet,
    committed: &[(u64, &AccessSet)],
) -> Derived {
    let (reads_checked, writes_checked) = checked_sets(policy);
    let conflict = committed.iter().find_map(|&(seq, cw)| {
        let raw = reads_checked.then(|| reads.first_overlap(cw)).flatten();
        let (kind, (obj, word)) = match raw {
            Some(at) => (ConflictKind::Raw, at),
            None => (
                ConflictKind::Waw,
                writes_checked.then(|| writes.first_overlap(cw)).flatten()?,
            ),
        };
        Some((kind, obj.index(), word, seq))
    });
    let tracked = reads.words() + writes.words();
    Derived {
        conflict,
        charge: committed
            .iter()
            .map(|(_, cw)| cw.words().min(tracked))
            .sum(),
    }
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
}

/// Builds the dependence relation from the recorded sets: write-write
/// overlap always breaks commutativity; read-vs-write overlap breaks it
/// under read-checking policies.
fn dep_graph(tasks: &[TaskRecord], policy: ConflictPolicy) -> DepGraph {
    let n = tasks.len();
    let (reads_checked, _) = checked_sets(policy);
    let mut g = DepGraph {
        n,
        dep: vec![false; n * n],
        ww: vec![false; n * n],
        edges: Vec::new(),
    };
    for j in 0..n {
        for i in 0..j {
            let ww = tasks[i].writes.overlaps(&tasks[j].writes);
            g.ww[i * n + j] = ww;
            g.ww[j * n + i] = ww;
            let rw = |a: usize, b: usize| tasks[a].reads.overlaps(&tasks[b].writes);
            if ww || (reads_checked && (rw(i, j) || rw(j, i))) {
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
    let pos = positions(order);
    g.edges.iter().map(|&(i, j)| pos[i] < pos[j]).collect()
}

/// `pos[t]`: the position of task `t` in `sched`.
fn positions(sched: &[usize]) -> Vec<usize> {
    let mut pos = vec![0; sched.len()];
    for (p, &t) in sched.iter().enumerate() {
        pos[t] = p;
    }
    pos
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

/// Re-derives every verdict of a candidate schedule from the recorded
/// sets alone, validating in schedule order: first committed writer wins,
/// in-order commit squashes everything after the round's first failure.
/// Winners and squashers are task *indices*; [`place`] maps them to
/// schedule positions.
fn derive_order(
    tasks: &[TaskRecord],
    sched: &[usize],
    policy: ConflictPolicy,
    order: CommitOrder,
) -> Vec<Claim> {
    let mut out = Vec::with_capacity(sched.len());
    let mut committed: Vec<(u64, &AccessSet)> = Vec::new();
    let mut first_fail: Option<usize> = None;
    for &t in sched {
        if let (CommitOrder::InOrder, Some(f)) = (order, first_fail) {
            out.push(Claim::Squash { by: f as u64 });
            continue;
        }
        let d = derive(policy, &tasks[t].reads, &tasks[t].writes, &committed);
        out.push(match d.conflict {
            None => {
                committed.push((t as u64, &tasks[t].writes));
                Claim::Ok {
                    validate_words: d.charge,
                    commit: None,
                }
            }
            Some((kind, obj, word, winner)) => {
                first_fail.get_or_insert(t);
                Claim::Conflict {
                    kind,
                    obj,
                    word,
                    winner,
                }
            }
        });
    }
    out
}

/// Re-sequences the *recorded* claims under a candidate schedule. Conflict
/// attribution and the validation charge are schedule-relative
/// reporting, not semantics: when both the record and the re-derivation
/// agree on a reordered task's verdict, the claim carries the schedule's
/// own attribution or charge (the recorded winner, or the writers
/// committed ahead of the task, may legitimately differ once commit order
/// moves). On the identity schedule the recorded figures are kept
/// verbatim (positions permitting), so the oracle there is exactly as
/// strict as the sanitizer.
fn resequence(
    tasks: &[TaskRecord],
    sched: &[usize],
    derived: &[Claim],
    identity: bool,
) -> Vec<Claim> {
    let pos = positions(sched);
    let seq_to_pos: HashMap<u64, u64> = tasks
        .iter()
        .zip(&pos)
        .map(|(t, &p)| (t.seq, p as u64))
        .collect();
    let remap = |seq: u64| seq_to_pos.get(&seq).copied().unwrap_or(seq);
    sched
        .iter()
        .zip(derived)
        .map(|(&t, d)| match (tasks[t].claim, *d) {
            (
                Claim::Ok {
                    validate_words,
                    commit,
                },
                d,
            ) => Claim::Ok {
                validate_words: match d {
                    Claim::Ok {
                        validate_words: charge,
                        ..
                    } if !identity => charge,
                    _ => validate_words,
                },
                commit: Some(commit.unwrap_or(CommitWords {
                    read_words: tasks[t].reads.words(),
                    write_words: tasks[t].writes.words(),
                    allocs: 0,
                    frees: 0,
                })),
            },
            (
                Claim::Conflict { .. },
                Claim::Conflict {
                    kind,
                    obj,
                    word,
                    winner,
                },
            ) if !identity => Claim::Conflict {
                kind,
                obj,
                word,
                winner: pos[winner as usize] as u64,
            },
            (
                Claim::Conflict {
                    kind,
                    obj,
                    word,
                    winner,
                },
                _,
            ) => Claim::Conflict {
                kind,
                obj,
                word,
                winner: remap(winner),
            },
            (Claim::Squash { by }, _) => Claim::Squash { by: remap(by) },
        })
        .collect()
}

/// Places *re-derived* verdicts at their schedule positions. Commit
/// payloads come from the recorded sets (word counts a commit must
/// match); allocation counters carry over from the record where one
/// exists, since sets cannot derive them.
fn place(tasks: &[TaskRecord], sched: &[usize], derived: &[Claim]) -> Vec<Claim> {
    let pos = positions(sched);
    sched
        .iter()
        .zip(derived)
        .map(|(&t, d)| match *d {
            Claim::Ok { validate_words, .. } => {
                let (allocs, frees) = match tasks[t].claim {
                    Claim::Ok {
                        commit: Some(c), ..
                    } => (c.allocs, c.frees),
                    _ => (0, 0),
                };
                Claim::Ok {
                    validate_words,
                    commit: Some(CommitWords {
                        read_words: tasks[t].reads.words(),
                        write_words: tasks[t].writes.words(),
                        allocs,
                        frees,
                    }),
                }
            }
            Claim::Conflict {
                kind,
                obj,
                word,
                winner,
            } => Claim::Conflict {
                kind,
                obj,
                word,
                winner: pos[winner as usize] as u64,
            },
            Claim::Squash { by } => Claim::Squash {
                by: pos[by as usize] as u64,
            },
        })
        .collect()
}

/// The record-level oracle on one schedule: its re-derived verdicts, the
/// recorded claims re-sequenced under it, and whether those claims
/// survive [`audit_round`] — what sanitizing their rendered stream would
/// find, without rendering it.
fn audit_schedule(
    tasks: &[TaskRecord],
    sched: &[usize],
    identity: bool,
    params: &ExecParams,
) -> (Vec<Claim>, Vec<Claim>, bool) {
    let derived = derive_order(tasks, sched, params.conflict, params.order);
    let claims = resequence(tasks, sched, &derived, identity);
    let mut clean = true;
    audit_round(
        params,
        sched
            .iter()
            .zip(&claims)
            .enumerate()
            .map(|(p, (&t, c))| (p as u64, &tasks[t], c)),
        &mut |_: usize, _: String| clean = false,
    );
    (derived, claims, clean)
}

/// Renders per-position claims as a structurally valid single-round
/// stream: `round_start`, then `task_sets` + verdict (+ `commit`) per
/// position with sequence numbers relabelled to schedule positions,
/// closed by a consistent `run_end`. The round is renumbered to 0 so the
/// stream packages as a standalone journal.
fn synth_events(round: &Round, sched: &[usize], claims: &[Claim]) -> Vec<Event> {
    let n = sched.len();
    let mut evs = Vec::with_capacity(3 * n + 2);
    evs.push(Event::RoundStart {
        round: 0,
        tasks: n as u32,
        snapshot_slots: round.snapshot_slots,
    });
    let mut commits = 0u64;
    for (p, (&t, claim)) in sched.iter().zip(claims).enumerate() {
        let seq = p as u64;
        evs.push(Event::TaskSets {
            seq,
            reads: render_set(&round.tasks[t].reads),
            writes: render_set(&round.tasks[t].writes),
        });
        match *claim {
            Claim::Ok {
                validate_words,
                commit,
            } => {
                evs.push(Event::ValidateOk {
                    seq,
                    validate_words,
                });
                if let Some(c) = commit {
                    evs.push(Event::Commit {
                        seq,
                        read_words: c.read_words,
                        write_words: c.write_words,
                        allocs: c.allocs,
                        frees: c.frees,
                    });
                    commits += 1;
                }
            }
            Claim::Conflict {
                kind,
                obj,
                word,
                winner,
            } => evs.push(Event::ValidateConflict {
                seq,
                kind,
                obj: ObjId::from_index(obj),
                word,
                winner_seq: winner,
            }),
            Claim::Squash { by } => evs.push(Event::Squash { seq, by_seq: by }),
        }
    }
    evs.push(Event::RunEnd {
        rounds: 1,
        attempts: n as u64,
        committed: commits,
    });
    evs
}

/// Whether two writers the schedule commits overlap. Under write-checking
/// policies this cannot happen (the re-derivation would have conflicted
/// the later writer); under RAW-only or unchecked policies it is the
/// order-sensitivity witness.
fn ww_committed(g: &DepGraph, sched: &[usize], derived: &[Claim]) -> bool {
    let committed: Vec<usize> = sched
        .iter()
        .zip(derived)
        .filter(|(_, d)| matches!(d, Claim::Ok { .. }))
        .map(|(&t, _)| t)
        .collect();
    (1..committed.len()).any(|j| {
        committed[..j]
            .iter()
            .any(|&earlier| g.ww[earlier * g.n + committed[j]])
    })
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

/// A rejected schedule rendered as evidence: the divergence, then the
/// expected and actual streams.
type Counterexample = (Box<Divergence>, Vec<Event>, Vec<Event>);

/// Renders a rejected schedule as its two streams — the `reference`
/// verdicts placed at their positions, and the re-sequenced `claims` —
/// and finds the [`Divergence`] between them. Streams identical despite
/// the rejection (possible only for identical overlapping write sets)
/// diverge at the sanitizer's first violation instead.
fn counterexample(
    round: &Round,
    sched: &[usize],
    reference: &[Claim],
    claims: &[Claim],
    params: &ExecParams,
) -> Counterexample {
    let expected = synth_events(round, sched, &place(&round.tasks, sched, reference));
    let actual = synth_events(round, sched, claims);
    let divergence = match diverge_bisect(&expected, &actual) {
        ReplayOutcome::Diverged(d) => d,
        ReplayOutcome::Identical { .. } => {
            let index = sanitize(&actual, params).first().map_or(0, |v| v.event);
            Box::new(Divergence::at(&expected, &actual, index))
        }
    };
    (divergence, expected, actual)
}

/// Per-round outcome of the schedule-space walk.
#[derive(Default)]
struct RoundOutcome {
    naive: u64,
    explored: u64,
    flagged: u64,
    budget_hit: bool,
    unsound: Option<Counterexample>,
}

/// Model-checks one round: enumerate at most `max_schedules`
/// representatives (minimum 1: the identity schedule is always checked)
/// and audit the recorded claims re-sequenced under each; render a
/// counterexample when the identity schedule fails or committed writers
/// overlap.
fn check_round(round: &Round, params: &ExecParams, max_schedules: u64) -> RoundOutcome {
    let tasks = &round.tasks;
    let n = tasks.len();
    let mut out = RoundOutcome::default();
    if n == 0 {
        out.naive = 1;
        out.explored = 1;
        return out;
    }
    let g = dep_graph(tasks, params.conflict);
    let (schedules, budget_hit) = match params.order {
        // Predefined commit order: the recorded schedule is the only
        // legal one (Saad et al.'s framing) — audit exactly it.
        CommitOrder::InOrder => (vec![(0..n).collect::<Vec<usize>>()], false),
        CommitOrder::OutOfOrder => representatives(&g, max_schedules.max(1)),
    };
    out.budget_hit = budget_hit;
    out.naive = match params.order {
        CommitOrder::InOrder => 1,
        CommitOrder::OutOfOrder => factorial_sat(n),
    };
    out.explored = schedules.len() as u64;
    let (_, write_checked) = checked_sets(params.conflict);
    for (si, sched) in schedules.iter().enumerate() {
        let identity = si == 0;
        let (derived, claims, clean) = audit_schedule(tasks, sched, identity, params);
        let reference = if identity && !clean {
            // The journal's own claims fail re-derivation: the reference
            // is what the sets imply.
            Some(derived)
        } else if !write_checked && ww_committed(&g, sched, &derived) {
            // Two committed writers overlap: the final heap state depends
            // on commit order. Render the counterexample against the
            // write-checking reference policy.
            Some(derive_order(
                tasks,
                sched,
                escalate(params.conflict),
                params.order,
            ))
        } else {
            None
        };
        if let Some(reference) = reference {
            out.unsound = Some(counterexample(round, sched, &reference, &claims, params));
            break;
        }
        if !identity && !clean {
            out.flagged += 1;
        }
    }
    out
}

/// Reads a stream's rounds for checking: a structurally malformed stream,
/// or a verdict without the sets that are the model, is an error.
fn read_model(events: &[Event]) -> Result<Vec<Round>, String> {
    let (rounds, defects) = read_rounds(events);
    if let Some(v) = defects.first() {
        return Err(format!("malformed trace: {v}"));
    }
    let unmodelled = rounds
        .iter()
        .flat_map(|r| &r.tasks)
        .find(|t| !t.has_sets && !matches!(t.claim, Claim::Squash { .. }));
    match unmodelled {
        Some(t) => Err(format!(
            "no recorded task_sets for task {}: record the journal with --sets",
            t.seq
        )),
        None => Ok(rounds),
    }
}

/// Model-checks a recorded event stream (with `task_sets` payloads)
/// against every DPOR-representative commit order per round, under the
/// conflict policy and commit order of the `params` it was recorded with.
/// Under [`CommitOrder::InOrder`] the commit order is predefined, so the
/// recorded schedule is the *only* legal one and the checker audits just
/// it; otherwise at most `max_schedules` representatives per round are
/// audited (minimum 1: the identity schedule is always checked).
pub fn check_events(
    events: &[Event],
    params: &ExecParams,
    max_schedules: u64,
) -> Result<CheckReport, String> {
    let rounds = read_model(events)?;
    let mut report = CheckReport::default();
    for (ordinal, round) in rounds.iter().enumerate() {
        let out = check_round(round, params, max_schedules);
        report.rounds += 1;
        report.tasks += round.tasks.len() as u64;
        report.naive_schedules = report.naive_schedules.saturating_add(out.naive);
        report.explored += out.explored;
        report.flagged += out.flagged;
        report.budget_hits += u64::from(out.budget_hit);
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

/// The oracle [`check_events`] runs on each representative, for any one
/// schedule of a single-round stream: whether the recorded claims,
/// re-sequenced with the tasks committed in `order` (indices into the
/// recorded order), survive re-derivation from their sets under the
/// conflict policy and commit order of `params`.
pub fn schedule_is_clean(
    events: &[Event],
    params: &ExecParams,
    order: &[usize],
) -> Result<bool, String> {
    let rounds = read_model(events)?;
    let [round] = &rounds[..] else {
        return Err(format!("expected one round, read {}", rounds.len()));
    };
    let mut sorted = order.to_vec();
    sorted.sort_unstable();
    if !sorted.into_iter().eq(0..round.tasks.len()) {
        return Err(format!(
            "{order:?} does not order the round's {} tasks",
            round.tasks.len()
        ));
    }
    let identity = order.iter().copied().eq(0..order.len());
    let (_, _, clean) = audit_schedule(&round.tasks, order, identity, params);
    Ok(clean)
}

/// Model-checks a loaded journal. The journal must have been recorded
/// with `--sets` (the header's `record_sets` flag) — the access sets
/// *are* the model. `params` and `max_schedules` as in [`check_events`].
pub fn check_journal(
    journal: &Journal,
    params: &ExecParams,
    max_schedules: u64,
) -> Result<CheckReport, String> {
    if !journal.header().record_sets {
        return Err(
            "journal was recorded without task_sets payloads: re-record with --sets".into(),
        );
    }
    check_events(journal.events(), params, max_schedules)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// StaleReads: `Waw` validation, out-of-order commit.
    fn stale() -> ExecParams {
        ExecParams::new(4, 16)
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
        let report = check_events(&disjoint_round(), &stale(), DEFAULT_SCHEDULE_BUDGET).unwrap();
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
        let report = check_events(&conflicting_round(), &stale(), DEFAULT_SCHEDULE_BUDGET).unwrap();
        assert!(report.sound(), "{:?}", report.unsound);
        assert_eq!(report.explored, 2);
        assert_eq!(report.flagged, 1);
    }

    #[test]
    fn overlapping_committed_writers_are_unsound() {
        let mut evs = disjoint_round();
        // Task 2 now writes over task 0's words but still claims ok.
        evs[7] = sets_event(2, "", "1:2-6");
        let report = check_events(&evs, &stale(), DEFAULT_SCHEDULE_BUDGET).unwrap();
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
        let doall = ExecParams::doall(4, 16);
        let report = check_events(&evs, &doall, DEFAULT_SCHEDULE_BUDGET).unwrap();
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
        let tls = ExecParams::tls(4, 16);
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
        let report = check_events(&evs, &tls, DEFAULT_SCHEDULE_BUDGET).unwrap();
        assert!(report.sound(), "{:?}", report.unsound);
        assert_eq!(report.naive_schedules, 1);
        assert_eq!(report.explored, 1);
    }

    /// [`dep_graph`] against a naive relation: random rounds of 2–6 tasks,
    /// each with up to three read and three write ranges over three
    /// allocations of 256 words, under every policy. A pair is write-write
    /// dependent iff the two write sets, as plain `BTreeSet<(ObjId, u32)>`
    /// word sets, intersect, and dependent iff that holds or, under
    /// FULL/RAW, either side's reads meet the other's writes.
    #[test]
    fn dep_graph_agrees_with_a_naive_pairwise_intersection() {
        use std::collections::BTreeSet;
        type Words = BTreeSet<(ObjId, u32)>;
        /// SplitMix64.
        struct Rng(u64);
        impl Rng {
            fn below(&mut self, bound: u32) -> u32 {
                self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                ((z ^ (z >> 31)) % u64::from(bound)) as u32
            }

            /// Up to three ranges, half of them short, as a set and its words.
            fn set(&mut self) -> (AccessSet, Words) {
                let (mut set, mut words) = (AccessSet::new(), Words::new());
                for _ in 0..self.below(4) {
                    let obj = ObjId::from_index(self.below(3));
                    let lo = self.below(256);
                    let len = 1 + if self.below(2) == 0 {
                        self.below(64)
                    } else {
                        self.below(4)
                    };
                    let hi = (lo + len).min(256);
                    set.insert(obj, lo, hi);
                    words.extend((lo..hi).map(|w| (obj, w)));
                }
                (set, words)
            }
        }
        let mut rng = Rng(0xde9_6a7f);
        let (mut edges_seen, mut read_edges, mut free_pairs) = (0, 0, 0);
        for case in 0..300 {
            let n = 2 + rng.below(5) as usize;
            let drawn: Vec<_> = (0..n).map(|_| (rng.set(), rng.set())).collect();
            let tasks: Vec<TaskRecord> = drawn
                .iter()
                .enumerate()
                .map(|(seq, ((reads, _), (writes, _)))| TaskRecord {
                    seq: seq as u64,
                    events: [0, 0],
                    has_sets: true,
                    reads: reads.clone(),
                    writes: writes.clone(),
                    claim: Claim::Squash { by: 0 },
                })
                .collect();
            let meets = |a: &Words, b: &Words| a.intersection(b).next().is_some();
            for policy in [
                ConflictPolicy::Full,
                ConflictPolicy::Raw,
                ConflictPolicy::Waw,
                ConflictPolicy::None,
            ] {
                let reads_checked = matches!(policy, ConflictPolicy::Full | ConflictPolicy::Raw);
                let (mut dep, mut ww, mut edges) = (vec![false; n * n], vec![false; n * n], vec![]);
                for j in 0..n {
                    for i in 0..j {
                        let ((_, ri), (_, wi)) = &drawn[i];
                        let ((_, rj), (_, wj)) = &drawn[j];
                        let w = meets(wi, wj);
                        let d = w || (reads_checked && (meets(ri, wj) || meets(rj, wi)));
                        (ww[i * n + j], ww[j * n + i]) = (w, w);
                        (dep[i * n + j], dep[j * n + i]) = (d, d);
                        if d {
                            edges.push((i, j));
                            read_edges += usize::from(!w);
                        } else {
                            free_pairs += 1;
                        }
                    }
                }
                let g = dep_graph(&tasks, policy);
                let ctx = format!("case {case} {policy:?}");
                assert_eq!(g.n, n, "{ctx}");
                assert_eq!(g.ww, ww, "{ctx}: ww");
                assert_eq!(g.dep, dep, "{ctx}: dep");
                assert_eq!(g.edges, edges, "{ctx}: edges");
                edges_seen += edges.len();
            }
        }
        // Each kind of pair must be common for the comparison to mean
        // anything, edges that only a read makes among them.
        assert!(edges_seen > 500, "only {edges_seen} edges");
        assert!(read_edges > 200, "only {read_edges} read-write edges");
        assert!(free_pairs > 500, "only {free_pairs} commuting pairs");
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
        let err = check_events(&evs, &stale(), DEFAULT_SCHEDULE_BUDGET).unwrap_err();
        assert!(err.contains("--sets"), "{err}");
    }

    #[test]
    fn malformed_streams_and_orders_are_rejected() {
        // Task 1's (task_sets, validate_ok, commit) ahead of task 0's.
        let mut evs = disjoint_round();
        evs.swap(1, 4);
        evs.swap(2, 5);
        evs.swap(3, 6);
        let err = check_events(&evs, &stale(), DEFAULT_SCHEDULE_BUDGET).unwrap_err();
        assert!(err.contains("validation order must ascend"), "{err}");
        let err = schedule_is_clean(&disjoint_round(), &stale(), &[0, 0, 1]).unwrap_err();
        assert!(err.contains("does not order"), "{err}");
        assert_eq!(
            schedule_is_clean(&disjoint_round(), &stale(), &[2, 0, 1]),
            Ok(true)
        );
        assert_eq!(
            schedule_is_clean(&conflicting_round(), &stale(), &[1, 0]),
            Ok(false)
        );
    }
}
