//! Schedule-prediction verdicts.
//!
//! [`predict`] answers one question: under a given (conflict policy,
//! commit order) and probe geometry, is the loop *provably* going to fail
//! its probe? It simulates the runtime's exact lock-step round algorithm
//! (retries drain first, validation in ascending task order against the
//! round's committed writers, in-order squash cascade) over the
//! replay-derived per-chunk access sets, validating each chunk with
//! `check::derive`, the crate's one verdict oracle, and converts the
//! predicted retry rate and tracked-words footprint into conservative
//! must-fail verdicts. Which dependences each annotation may break is
//! [`lint`](mod@crate::lint)'s table (SEMANTICS.md §6).
//!
//! The contract is one-sided (see the crate docs): a [`Verdict::Unknown`]
//! probe must still be run; a must-fail verdict skips it. Thresholds carry
//! a safety margin precisely because the simulation is an approximation —
//! a retried task re-executes against a newer snapshot and may touch
//! different words than the sequential replay saw.

use crate::check::derive;
use alter_heap::{AccessSet, ObjId};
use alter_runtime::{CommitOrder, ConflictPolicy, ExecParams, LoopSummary};
use std::collections::{BTreeSet, VecDeque};

/// The paper's high-conflict threshold: a probe is `h.c.` when "more than
/// 50% of the attempted commits fail" (§5).
pub const HIGH_CONFLICT_THRESHOLD: f64 = 0.5;

/// Extra margin on top of [`HIGH_CONFLICT_THRESHOLD`] before the analyzer
/// dares a must-fail verdict (the simulation is an approximation).
const PRUNE_MARGIN: f64 = 0.1;

/// A chunk must track more than `OOM_FACTOR × budget_words` in the replay
/// before the analyzer predicts an out-of-memory abort.
const OOM_FACTOR: f64 = 2.0;

/// A conservative prediction for one probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No proof of failure — run the probe.
    Unknown,
    /// A single transaction's tracked sets exceed the budget by the safety
    /// factor: the probe will abort out-of-memory (paper §7.1, the
    /// AggloClust read sets).
    OutOfMemory {
        /// Replay-derived tracked words of the worst chunk.
        words: u64,
        /// The probe's budget.
        budget: u64,
    },
    /// The simulated schedule retries so much that the probe is certain to
    /// classify as high-conflicts (or trip its work-budget timeout first).
    HighConflicts {
        /// Predicted retry rate, in permille (deterministic integer form).
        rate_permille: u32,
    },
}

impl Verdict {
    /// Whether this verdict prunes the probe.
    pub fn must_fail(&self) -> bool {
        !matches!(self, Verdict::Unknown)
    }

    /// Short stable class name (`unknown`, `o.o.m.`, `h.c.`), matching the
    /// inference engine's outcome vocabulary.
    pub fn class(&self) -> &'static str {
        match self {
            Verdict::Unknown => "unknown",
            Verdict::OutOfMemory { .. } => "o.o.m.",
            Verdict::HighConflicts { .. } => "h.c.",
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Unknown => write!(f, "unknown"),
            Verdict::OutOfMemory { words, budget } => {
                write!(f, "o.o.m. ({words} words > {budget} budget)")
            }
            Verdict::HighConflicts { rate_permille } => {
                write!(f, "h.c. (predicted retry rate {rate_permille}‰)")
            }
        }
    }
}

/// One simulated transaction: the union of its chunk's per-iteration sets.
struct ChunkSets {
    reads: AccessSet,
    writes: AccessSet,
}

/// Regroups the summary's per-iteration sets into per-chunk sets at the
/// probe geometry, dropping accesses to `elide`d objects (the allocations
/// a reduction annotation privatises).
fn chunk_sets(summary: &LoopSummary, chunk: usize, elide: &[ObjId]) -> Vec<ChunkSets> {
    let mut out = Vec::new();
    for iters in summary.iters.chunks(chunk.max(1)) {
        let mut cs = ChunkSets {
            reads: AccessSet::new(),
            writes: AccessSet::new(),
        };
        for it in iters {
            for &(obj, lo, hi) in &it.reads {
                if !elide.contains(&obj) {
                    cs.reads.insert(obj, lo, hi);
                }
            }
            for &(obj, lo, hi) in &it.writes {
                if !elide.contains(&obj) {
                    cs.writes.insert(obj, lo, hi);
                }
            }
        }
        out.push(cs);
    }
    out
}

/// The words written by *every* iteration of the loop (accumulator-style
/// locations). A sequentially observed write may be conditional — Floyd
/// writes a cell only when a path improves, so a re-execution against a
/// different snapshot writes different cells — but a word written by all
/// iterations alike is written regardless of what the iteration read.
/// Write-driven conflict predictions are restricted to these words.
fn universal_write_words(summary: &LoopSummary, elide: &[ObjId]) -> BTreeSet<(ObjId, u32)> {
    let mut universal: Option<BTreeSet<(ObjId, u32)>> = None;
    for it in &summary.iters {
        let mut cur = BTreeSet::new();
        for &(obj, lo, hi) in &it.writes {
            if !elide.contains(&obj) {
                for w in lo..hi {
                    cur.insert((obj, w));
                }
            }
        }
        universal = Some(match universal {
            None => cur,
            Some(prev) => prev.intersection(&cur).cloned().collect(),
        });
        if universal.as_ref().is_some_and(|u| u.is_empty()) {
            break;
        }
    }
    universal.unwrap_or_default()
}

/// Predicts whether a probe run under `params` — its conflict policy,
/// commit order, worker count, chunk factor and tracked-words budget —
/// must fail, by simulating the lock-step round schedule over the
/// replay-derived chunk sets.
///
/// `elide` lists heap objects privatised by the candidate's reduction
/// annotation: their accesses vanish from the simulated sets, exactly as
/// the reduction machinery removes them from the real transaction sets.
/// Eliding can only *reduce* simulated conflicts, so an over-approximate
/// elision errs toward [`Verdict::Unknown`] — the safe direction.
///
/// An empty summary (no replay evidence) always yields
/// [`Verdict::Unknown`].
pub fn predict(summary: &LoopSummary, params: &ExecParams, elide: &[ObjId]) -> Verdict {
    if summary.is_empty() {
        return Verdict::Unknown;
    }
    let (policy, budget) = (params.conflict, params.budget_words);
    let chunks = chunk_sets(summary, params.chunk, elide);

    // Out-of-memory first: a single over-budget transaction aborts the
    // probe before conflicts matter. Tracked words follow the policy's
    // track mode — StaleReads does not instrument reads.
    let mut worst: u64 = 0;
    for c in &chunks {
        let tracked = if policy.track_mode().tracks_reads() {
            c.reads.words() + c.writes.words()
        } else {
            c.writes.words()
        };
        worst = worst.max(tracked);
    }
    if (worst as f64) > OOM_FACTOR * budget as f64 {
        return Verdict::OutOfMemory {
            words: worst,
            budget,
        };
    }
    if worst > budget {
        // Too close to call: the real run probably aborts out-of-memory
        // before any conflict verdict, so a high-conflict prediction here
        // could misreport the failure *kind*. Run the probe.
        return Verdict::Unknown;
    }

    if policy == ConflictPolicy::None {
        return Verdict::Unknown;
    }

    // Conflict predictions are driven by the committed tasks' *write*
    // sets, and sequentially observed writes may be conditional (written
    // only because of what the sequential iteration read). Read sets are
    // structural by comparison — an iteration reads its inputs no matter
    // what it finds in them. So under a read-tracking policy the full
    // replay sets are trusted, while a write-only policy (StaleReads)
    // only simulates conflicts on words every iteration writes.
    let chunks: Vec<ChunkSets> = if policy.track_mode().tracks_reads() {
        chunks
    } else {
        let universal = universal_write_words(summary, elide);
        if universal.is_empty() {
            return Verdict::Unknown;
        }
        chunks
            .into_iter()
            .map(|cs| {
                let mut writes = AccessSet::new();
                for &(obj, w) in &universal {
                    if cs.writes.contains_range(obj, w, w + 1) {
                        writes.insert(obj, w, w + 1);
                    }
                }
                ChunkSets {
                    reads: cs.reads,
                    writes,
                }
            })
            .collect()
    };

    // Schedule simulation: the engine's round algorithm verbatim — drain
    // pending retries first (they hold the lowest sequence numbers), fill
    // with fresh chunks up to the worker count, validate in ascending task
    // order against this round's committed writers with `derive`, the
    // verdict oracle the sanitizer and the checker audit with, and under
    // in-order commit squash everything after the first failure.
    let workers = params.workers.max(1);
    let mut pending: VecDeque<usize> = VecDeque::new();
    let mut next_fresh = 0usize;
    let mut attempts: u64 = 0;
    let mut commits: u64 = 0;
    while !pending.is_empty() || next_fresh < chunks.len() {
        let mut round: Vec<usize> = Vec::with_capacity(workers);
        while round.len() < workers {
            match pending.pop_front() {
                Some(s) => round.push(s),
                None => break,
            }
        }
        while round.len() < workers && next_fresh < chunks.len() {
            round.push(next_fresh);
            next_fresh += 1;
        }
        let mut committed: Vec<(u64, &AccessSet)> = Vec::with_capacity(workers);
        let mut squash = false;
        for &seq in &round {
            attempts += 1;
            let ChunkSets { reads, writes } = &chunks[seq];
            if squash || derive(policy, reads, writes, &committed).conflict.is_some() {
                if params.order == CommitOrder::InOrder {
                    squash = true;
                }
                pending.push_back(seq);
            } else {
                commits += 1;
                committed.push((seq as u64, writes));
            }
        }
    }

    let rate = if attempts == 0 {
        0.0
    } else {
        (attempts - commits) as f64 / attempts as f64
    };
    if rate >= HIGH_CONFLICT_THRESHOLD + PRUNE_MARGIN {
        Verdict::HighConflicts {
            rate_permille: (rate * 1000.0).round() as u32,
        }
    } else {
        Verdict::Unknown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alter_heap::{Heap, ObjData};
    use alter_runtime::{summarize_dependences, RangeSpace};

    /// A probe's params at the inference geometry (4 workers, chunk 16).
    fn params(conflict: ConflictPolicy, order: CommitOrder) -> ExecParams {
        let mut p = ExecParams::new(4, 16);
        p.conflict = conflict;
        p.order = order;
        p
    }

    fn shared_counter_summary(n: u64) -> (LoopSummary, ObjId) {
        let mut heap = Heap::new();
        let acc = heap.alloc(ObjData::scalar_i64(0));
        let s = summarize_dependences(&mut heap, &mut RangeSpace::new(0, n), |ctx, _| {
            let v = ctx.tx.read_i64(acc, 0);
            ctx.tx.write_i64(acc, 0, v + 1);
        });
        (s, acc)
    }

    #[test]
    fn doall_shaped_loop_is_unknown_everywhere() {
        let mut heap = Heap::new();
        let xs = heap.alloc(ObjData::zeros_f64(64));
        let s = summarize_dependences(&mut heap, &mut RangeSpace::new(0, 64), |ctx, i| {
            ctx.tx.write_f64(xs, i as usize, 1.0);
        });
        for (policy, order) in [
            (ConflictPolicy::Raw, CommitOrder::InOrder),
            (ConflictPolicy::Raw, CommitOrder::OutOfOrder),
            (ConflictPolicy::Waw, CommitOrder::OutOfOrder),
            (ConflictPolicy::None, CommitOrder::OutOfOrder),
        ] {
            assert_eq!(predict(&s, &params(policy, order), &[]), Verdict::Unknown);
        }
    }

    #[test]
    fn shared_counter_is_predicted_high_conflict() {
        let (s, _) = shared_counter_summary(512);
        // Every chunk reads and writes word 0: only one task of each round
        // commits under any conflicting policy.
        for (policy, order) in [
            (ConflictPolicy::Raw, CommitOrder::InOrder),
            (ConflictPolicy::Raw, CommitOrder::OutOfOrder),
            (ConflictPolicy::Waw, CommitOrder::OutOfOrder),
        ] {
            let v = predict(&s, &params(policy, order), &[]);
            assert!(v.must_fail(), "{policy:?}/{order:?} gave {v:?}");
            match v {
                Verdict::HighConflicts { rate_permille } => {
                    assert!(rate_permille >= 600, "{rate_permille}")
                }
                other => panic!("expected h.c., got {other:?}"),
            }
        }
        // DOALL never conflicts (it will mismatch instead — not provable
        // statically, so it stays unknown).
        assert_eq!(
            predict(
                &s,
                &params(ConflictPolicy::None, CommitOrder::OutOfOrder),
                &[]
            ),
            Verdict::Unknown
        );
    }

    #[test]
    fn eliding_the_accumulator_clears_the_prediction() {
        let (s, acc) = shared_counter_summary(512);
        assert_eq!(
            predict(
                &s,
                &params(ConflictPolicy::Waw, CommitOrder::OutOfOrder),
                &[acc]
            ),
            Verdict::Unknown
        );
    }

    #[test]
    fn huge_read_sets_predict_oom() {
        let mut heap = Heap::new();
        let table = heap.alloc(ObjData::zeros_f64(4096));
        let out = heap.alloc(ObjData::zeros_f64(64));
        let s = summarize_dependences(&mut heap, &mut RangeSpace::new(0, 64), |ctx, i| {
            let v = ctx
                .tx
                .with_f64s(table, 0, 4096, |xs| xs.iter().sum::<f64>());
            ctx.tx.write_f64(out, i as usize, v);
        });
        let budget = |mut p: ExecParams| {
            p.budget_words = 128;
            p
        };
        // Read-tracking policies trip the budget...
        match predict(
            &s,
            &budget(params(ConflictPolicy::Raw, CommitOrder::InOrder)),
            &[],
        ) {
            Verdict::OutOfMemory { words, budget } => {
                assert!(words > 2 * budget);
            }
            other => panic!("expected o.o.m., got {other:?}"),
        }
        // ...while write-only tracking stays within it.
        assert_eq!(
            predict(
                &s,
                &budget(params(ConflictPolicy::Waw, CommitOrder::OutOfOrder)),
                &[]
            ),
            Verdict::Unknown
        );
    }

    #[test]
    fn in_order_squash_raises_the_rate() {
        // x[i] = x[i-1] + 1 with chunk 1: under RAW validation neighbours
        // conflict whenever they share a round.
        let mut heap = Heap::new();
        let xs = heap.alloc(ObjData::zeros_f64(256));
        let s = summarize_dependences(&mut heap, &mut RangeSpace::new(1, 256), |ctx, i| {
            let prev = ctx.tx.read_f64(xs, i as usize - 1);
            ctx.tx.write_f64(xs, i as usize, prev + 1.0);
        });
        let chunk1 = |mut p: ExecParams| {
            p.chunk = 1;
            p
        };
        let tls = predict(
            &s,
            &chunk1(params(ConflictPolicy::Raw, CommitOrder::InOrder)),
            &[],
        );
        assert!(tls.must_fail(), "chained reads serialize TLS: {tls:?}");
        // StaleReads ignores the RAW edge entirely: writes are disjoint.
        assert_eq!(
            predict(
                &s,
                &chunk1(params(ConflictPolicy::Waw, CommitOrder::OutOfOrder)),
                &[]
            ),
            Verdict::Unknown
        );
    }

    #[test]
    fn empty_summary_is_never_pruned() {
        assert_eq!(
            predict(
                &LoopSummary::default(),
                &params(ConflictPolicy::Raw, CommitOrder::InOrder),
                &[]
            ),
            Verdict::Unknown
        );
    }
}
