//! Loop-carried dependence detection and per-location loop summaries.
//!
//! The paper's evaluation "adds a check in join() to see if the loop has
//! any loop-carried dependences" (§7.1, the *Dep* column of Table 3). This
//! module implements that check and generalises it: the loop is replayed
//! one iteration per transaction with full tracking, and each iteration's
//! sets are compared word-by-word against every earlier iteration's
//! accesses. The result is a [`LoopSummary`] — per-iteration access sets,
//! a per-location dependence graph ([`DepEdge`]: RAW/WAW/WAR edges with
//! iteration distances), and per-location access statistics
//! ([`LocationStats`]) including which reduction operators flowed through
//! each location. The boolean [`DepReport`] is a projection of the summary
//! ([`LoopSummary::report`]); both the Table-3 check and the
//! `alter-analyze` classifier share the single replay path in
//! [`summarize_dependences`].

use crate::annotation::RedOp;
use crate::body::TxCtx;
use crate::reduction::RedLocals;
use crate::space::IterSpace;
use alter_heap::{Heap, IdReservation, ObjId, TrackMode, Tx};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;

/// Which kinds of loop-carried dependences a loop exhibits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DepReport {
    /// A later iteration read a location an earlier one wrote.
    pub raw: bool,
    /// Two iterations wrote the same location.
    pub waw: bool,
    /// A later iteration wrote a location an earlier one read.
    pub war: bool,
}

impl DepReport {
    /// Whether any loop-carried dependence exists (Table 3's Dep column).
    pub fn any(&self) -> bool {
        self.raw || self.waw || self.war
    }
}

/// The kind of a loop-carried dependence edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DepKind {
    /// Read-after-write: a flow dependence an `OutOfOrder` run must respect.
    Raw,
    /// Write-after-write: a lost update `StaleReads` must respect.
    Waw,
    /// Write-after-read: an anti dependence (broken by snapshotting alone).
    War,
}

impl DepKind {
    /// Short stable name used in rendering and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            DepKind::Raw => "RAW",
            DepKind::Waw => "WAW",
            DepKind::War => "WAR",
        }
    }
}

impl std::fmt::Display for DepKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One aggregated dependence edge: all (earlier, later) iteration pairs of
/// one kind that collide on one allocation.
///
/// Distances are measured in replay ordinals (the position of the
/// iteration in the loop's sequential order), not in iteration *values* —
/// the two coincide for the common `RangeSpace` case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DepEdge {
    /// Dependence kind.
    pub kind: DepKind,
    /// Allocation the colliding word lives in.
    pub obj: ObjId,
    /// Example conflicting word (the first word found at the minimum
    /// distance; deterministic).
    pub word: u32,
    /// Distinct (source, destination) iteration pairs on this edge.
    pub pairs: u64,
    /// Distinct destination iterations involved.
    pub dsts: u64,
    /// Minimum iteration distance observed.
    pub min_dist: u64,
    /// Maximum iteration distance observed.
    pub max_dist: u64,
}

/// Per-allocation access statistics over the whole loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocationStats {
    /// The allocation.
    pub obj: ObjId,
    /// Iterations that read the allocation.
    pub read_iters: u64,
    /// Iterations that wrote the allocation.
    pub write_iters: u64,
    /// Iterations that both read and wrote it (read-modify-write shape).
    pub rmw_iters: u64,
    /// Distinct words touched over the loop.
    pub words: u64,
    /// Highest word index touched.
    pub max_word: u32,
    /// Distinct reduction operators applied through this allocation (via
    /// [`crate::BoundScalar::apply`] in the unannotated configuration).
    pub ops: Vec<RedOp>,
    /// Iterations that touched the allocation *without* applying any
    /// reduction operator to it — a non-reductive access.
    pub plain_iters: u64,
}

/// One iteration's tracked accesses (word ranges are half-open `[lo, hi)`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IterAccess {
    /// The iteration value handed to the loop body.
    pub index: u64,
    /// Read ranges, ascending by (object, lo).
    pub reads: Vec<(ObjId, u32, u32)>,
    /// Write ranges, ascending by (object, lo).
    pub writes: Vec<(ObjId, u32, u32)>,
    /// Total tracked read words.
    pub read_words: u64,
    /// Total tracked write words.
    pub write_words: u64,
    /// Reduction operators applied this iteration, deduplicated, ascending
    /// by (object, operator).
    pub ops: Vec<(ObjId, RedOp)>,
}

/// The full dependence summary of one loop: the IR consumed by the
/// `alter-analyze` classifier and linter.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LoopSummary {
    /// Iterations replayed.
    pub iterations: u64,
    /// Per-iteration access sets, in sequential order.
    pub iters: Vec<IterAccess>,
    /// Aggregated dependence edges, ascending by (object, kind).
    pub edges: Vec<DepEdge>,
    /// Per-allocation statistics, ascending by object.
    pub locations: Vec<LocationStats>,
    /// Human names for allocations backing named scalars (reduction
    /// candidates), attached by the workload after summarisation.
    pub labels: Vec<(ObjId, String)>,
}

impl LoopSummary {
    /// Projects the summary down to the boolean Table-3 report.
    pub fn report(&self) -> DepReport {
        let mut r = DepReport::default();
        for e in &self.edges {
            match e.kind {
                DepKind::Raw => r.raw = true,
                DepKind::Waw => r.waw = true,
                DepKind::War => r.war = true,
            }
        }
        r
    }

    /// Whether the summary carries no replay evidence (e.g. the default
    /// for legacy targets that only implement the boolean check).
    pub fn is_empty(&self) -> bool {
        self.iterations == 0
    }

    /// Attaches a human name to the allocation backing a named scalar.
    pub fn label(&mut self, name: impl Into<String>, obj: ObjId) {
        let name = name.into();
        self.labels.retain(|(o, n)| *o != obj && *n != name);
        self.labels.push((obj, name));
        self.labels.sort();
    }

    /// The label attached to `obj`, if any.
    pub fn label_of(&self, obj: ObjId) -> Option<&str> {
        self.labels
            .iter()
            .find(|(o, _)| *o == obj)
            .map(|(_, n)| n.as_str())
    }

    /// The allocation labelled `name`, if any.
    pub fn labeled(&self, name: &str) -> Option<ObjId> {
        self.labels.iter().find(|(_, n)| n == name).map(|(o, _)| *o)
    }

    /// Statistics for one allocation, if it was touched.
    pub fn location(&self, obj: ObjId) -> Option<&LocationStats> {
        self.locations.iter().find(|l| l.obj == obj)
    }

    /// All dependence edges on one allocation.
    pub fn edges_on(&self, obj: ObjId) -> impl Iterator<Item = &DepEdge> {
        self.edges.iter().filter(move |e| e.obj == obj)
    }

    /// Human-readable rendering (the `alter-cli deps <workload>` output).
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "iterations: {}", self.iterations);
        for l in &self.locations {
            let name = self
                .label_of(l.obj)
                .map(|n| format!(" [{n}]"))
                .unwrap_or_default();
            let ops = if l.ops.is_empty() {
                String::new()
            } else {
                let names: Vec<&str> = l.ops.iter().map(|o| o.as_str()).collect();
                format!(", ops {{{}}} plain {}", names.join(","), l.plain_iters)
            };
            let _ = writeln!(
                s,
                "  obj {}{}: reads {} iters, writes {} iters, rmw {}, {} words{}",
                l.obj.index(),
                name,
                l.read_iters,
                l.write_iters,
                l.rmw_iters,
                l.words,
                ops
            );
        }
        for e in &self.edges {
            let name = self
                .label_of(e.obj)
                .map(|n| format!(" [{n}]"))
                .unwrap_or_default();
            let _ = writeln!(
                s,
                "  {} obj {}{} word {}: {} pairs over {} iters, dist {}..{}",
                e.kind,
                e.obj.index(),
                name,
                e.word,
                e.pairs,
                e.dsts,
                e.min_dist,
                e.max_dist
            );
        }
        let r = self.report();
        let mut kinds = Vec::new();
        if r.raw {
            kinds.push("RAW");
        }
        if r.waw {
            kinds.push("WAW");
        }
        if r.war {
            kinds.push("WAR");
        }
        let _ = writeln!(
            s,
            "  Dep: {}",
            if kinds.is_empty() {
                "no".to_owned()
            } else {
                format!("yes ({})", kinds.join(" "))
            }
        );
        s
    }
}

/// Per-object word trackers: the ordinal of the last iteration that read /
/// wrote each word, or -1 for "never".
struct WordTracker {
    last_read: Vec<i64>,
    last_write: Vec<i64>,
}

impl WordTracker {
    fn grow(&mut self, hi: u32) {
        if self.last_read.len() < hi as usize {
            self.last_read.resize(hi as usize, -1);
            self.last_write.resize(hi as usize, -1);
        }
    }
}

/// Accumulates edge statistics for one (object, kind) key.
#[derive(Default)]
struct EdgeAcc {
    word: u32,
    pairs: u64,
    dsts: u64,
    min_dist: u64,
    max_dist: u64,
}

/// Per-iteration hits for one (object, kind) key, folded into [`EdgeAcc`]
/// at the end of the iteration (so `pairs` counts distinct pairs).
struct LocalHit {
    srcs: BTreeSet<u64>,
    min_dist: u64,
    min_word: u32,
}

#[derive(Default)]
struct LocAcc {
    read_iters: u64,
    write_iters: u64,
    rmw_iters: u64,
    op_mask: u8,
    op_iters: u64,
    touch_iters: u64,
}

/// Replays the loop sequentially (one iteration per transaction, full
/// tracking) and returns the complete [`LoopSummary`]. The heap is mutated
/// exactly as a sequential execution of the loop would mutate it.
/// [`LoopSummary::report`] projects it onto Table 3's boolean Dep check.
///
/// ```
/// use alter_heap::{Heap, ObjData};
/// use alter_runtime::{summarize_dependences, RangeSpace};
/// let mut heap = Heap::new();
/// let xs = heap.alloc(ObjData::zeros_f64(8));
/// let summary = summarize_dependences(&mut heap, &mut RangeSpace::new(1, 8), |ctx, i| {
///     let prev = ctx.tx.read_f64(xs, i as usize - 1);
///     ctx.tx.write_f64(xs, i as usize, prev + 1.0);
/// });
/// assert!(summary.report().raw && summary.report().any());
/// ```
///
/// Reduction variables do not participate: run the replay with the loop's
/// reducible scalars bound to heap objects (the unannotated
/// configuration), which is precisely when their dependences should be
/// visible. Accesses routed through [`crate::BoundScalar::apply`] are
/// additionally logged as reduction-operator applications, which is what
/// lets the analyzer decide whether *all* accesses to a candidate flow
/// through one commutative operator.
pub fn summarize_dependences<F>(heap: &mut Heap, space: &mut dyn IterSpace, body: F) -> LoopSummary
where
    F: Fn(&mut TxCtx<'_>, u64) + Sync,
{
    let mut trackers: HashMap<ObjId, WordTracker> = HashMap::new();
    let mut edges: BTreeMap<(ObjId, DepKind), EdgeAcc> = BTreeMap::new();
    let mut locs: BTreeMap<ObjId, LocAcc> = BTreeMap::new();
    let mut iters_out: Vec<IterAccess> = Vec::new();
    let mut ordinal: u64 = 0;

    loop {
        let iters = space.next_chunk(1);
        if iters.is_empty() {
            break;
        }
        let snap = heap.snapshot();
        let ids = IdReservation::new(heap.high_water(), 0, 1, alter_heap::DEFAULT_BLOCK_SIZE);
        let tx = Tx::new(&snap, TrackMode::ReadsAndWrites, ids, u64::MAX);
        let mut ctx = TxCtx::new(tx, RedLocals::default());
        ctx.op_log = Some(Vec::new());
        for &i in &iters {
            body(&mut ctx, i);
        }
        let op_log = ctx.op_log.take().unwrap_or_default();
        let (tx, _) = ctx.into_parts();
        let mut effects = tx.finish();
        // The commit below writes in place only once nothing shares the
        // heap's page table.
        drop(snap);

        let mut access = IterAccess {
            index: iters[0],
            read_words: effects.reads.words(),
            write_words: effects.writes.words(),
            ..IterAccess::default()
        };
        for (obj, rs) in effects.reads.iter_sorted() {
            for (lo, hi) in rs.iter() {
                access.reads.push((obj, lo, hi));
            }
        }
        for (obj, rs) in effects.writes.iter_sorted() {
            for (lo, hi) in rs.iter() {
                access.writes.push((obj, lo, hi));
            }
        }
        let mut ops: Vec<(ObjId, RedOp)> = op_log;
        ops.sort();
        ops.dedup();
        access.ops = ops;

        // Edge detection: compare this iteration's words against the last
        // reader/writer ordinals, which at this point all predate it.
        let mut local: BTreeMap<(ObjId, DepKind), LocalHit> = BTreeMap::new();
        let mut hit = |key: (ObjId, DepKind), src: u64, word: u32| {
            let dist = ordinal - src;
            let h = local.entry(key).or_insert(LocalHit {
                srcs: BTreeSet::new(),
                min_dist: dist,
                min_word: word,
            });
            h.srcs.insert(src);
            if dist < h.min_dist {
                h.min_dist = dist;
                h.min_word = word;
            }
        };
        for &(obj, lo, hi) in &access.reads {
            let tr = trackers.entry(obj).or_insert(WordTracker {
                last_read: Vec::new(),
                last_write: Vec::new(),
            });
            tr.grow(hi);
            for w in lo..hi {
                let lw = tr.last_write[w as usize];
                if lw >= 0 {
                    hit((obj, DepKind::Raw), lw as u64, w);
                }
            }
        }
        for &(obj, lo, hi) in &access.writes {
            let tr = trackers.entry(obj).or_insert(WordTracker {
                last_read: Vec::new(),
                last_write: Vec::new(),
            });
            tr.grow(hi);
            for w in lo..hi {
                let lw = tr.last_write[w as usize];
                if lw >= 0 {
                    hit((obj, DepKind::Waw), lw as u64, w);
                }
                let lr = tr.last_read[w as usize];
                if lr >= 0 {
                    hit((obj, DepKind::War), lr as u64, w);
                }
            }
        }
        // Update trackers only after both passes, so same-iteration
        // read-then-write pairs never count as loop-carried.
        for &(obj, lo, hi) in &access.reads {
            let tr = trackers.get_mut(&obj).expect("tracker grown above");
            for w in lo..hi {
                tr.last_read[w as usize] = ordinal as i64;
            }
        }
        for &(obj, lo, hi) in &access.writes {
            let tr = trackers.get_mut(&obj).expect("tracker grown above");
            for w in lo..hi {
                tr.last_write[w as usize] = ordinal as i64;
            }
        }
        for (key, h) in local {
            let acc = edges.entry(key).or_insert(EdgeAcc {
                word: h.min_word,
                min_dist: h.min_dist,
                max_dist: h.min_dist,
                ..EdgeAcc::default()
            });
            acc.pairs += h.srcs.len() as u64;
            acc.dsts += 1;
            if h.min_dist < acc.min_dist {
                acc.min_dist = h.min_dist;
                acc.word = h.min_word;
            }
            if let Some(&max_src) = h.srcs.iter().next() {
                acc.max_dist = acc.max_dist.max(ordinal - max_src);
            }
        }

        // Location statistics.
        let mut touched: BTreeMap<ObjId, (bool, bool)> = BTreeMap::new();
        for &(obj, _, _) in &access.reads {
            touched.entry(obj).or_insert((false, false)).0 = true;
        }
        for &(obj, _, _) in &access.writes {
            touched.entry(obj).or_insert((false, false)).1 = true;
        }
        for (obj, (r, w)) in &touched {
            let l = locs.entry(*obj).or_default();
            l.touch_iters += 1;
            if *r {
                l.read_iters += 1;
            }
            if *w {
                l.write_iters += 1;
            }
            if *r && *w {
                l.rmw_iters += 1;
            }
        }
        let mut op_objs: BTreeSet<ObjId> = BTreeSet::new();
        for &(obj, op) in &access.ops {
            let l = locs.entry(obj).or_default();
            l.op_mask |= 1 << op as u8;
            if op_objs.insert(obj) {
                l.op_iters += 1;
            }
        }

        iters_out.push(access);
        ordinal += 1;
        heap.apply_commit(effects.commit_ops(TrackMode::ReadsAndWrites));
    }

    let locations = locs
        .into_iter()
        .map(|(obj, l)| {
            let (words, max_word) = trackers
                .get(&obj)
                .map(|tr| {
                    let mut words = 0u64;
                    let mut max_word = 0u32;
                    for (w, (&lr, &lw)) in tr.last_read.iter().zip(&tr.last_write).enumerate() {
                        if lr >= 0 || lw >= 0 {
                            words += 1;
                            max_word = w as u32;
                        }
                    }
                    (words, max_word)
                })
                .unwrap_or((0, 0));
            let ops = RedOp::ALL
                .iter()
                .copied()
                .filter(|op| l.op_mask & (1 << *op as u8) != 0)
                .collect();
            LocationStats {
                obj,
                read_iters: l.read_iters,
                write_iters: l.write_iters,
                rmw_iters: l.rmw_iters,
                words,
                max_word,
                ops,
                plain_iters: l.touch_iters - l.op_iters,
            }
        })
        .collect();
    let edges = edges
        .into_iter()
        .map(|((obj, kind), a)| DepEdge {
            kind,
            obj,
            word: a.word,
            pairs: a.pairs,
            dsts: a.dsts,
            min_dist: a.min_dist,
            max_dist: a.max_dist,
        })
        .collect();

    LoopSummary {
        iterations: ordinal,
        iters: iters_out,
        edges,
        locations,
        labels: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduction::{RedVal, RedVars};
    use crate::space::RangeSpace;
    use crate::var::BoundScalar;
    use alter_heap::ObjData;

    #[test]
    fn doall_loop_has_no_deps() {
        let mut heap = Heap::new();
        let xs = heap.alloc(ObjData::zeros_f64(8));
        let report = summarize_dependences(&mut heap, &mut RangeSpace::new(0, 8), |ctx, i| {
            ctx.tx.write_f64(xs, i as usize, 1.0);
        })
        .report();
        assert!(!report.any());
    }

    #[test]
    fn recurrence_has_raw_dep() {
        let mut heap = Heap::new();
        let xs = heap.alloc(ObjData::zeros_f64(8));
        let report = summarize_dependences(&mut heap, &mut RangeSpace::new(1, 8), |ctx, i| {
            let prev = ctx.tx.read_f64(xs, i as usize - 1);
            ctx.tx.write_f64(xs, i as usize, prev + 1.0);
        })
        .report();
        assert!(report.raw);
        assert!(!report.waw);
        // Execution effect matches sequential semantics.
        assert_eq!(heap.get(xs).f64s()[7], 7.0);
    }

    #[test]
    fn shared_accumulator_has_all_deps() {
        let mut heap = Heap::new();
        let acc = heap.alloc(ObjData::scalar_i64(0));
        let report = summarize_dependences(&mut heap, &mut RangeSpace::new(0, 4), |ctx, _| {
            let v = ctx.tx.read_i64(acc, 0);
            ctx.tx.write_i64(acc, 0, v + 1);
        })
        .report();
        assert!(report.raw && report.waw && report.war);
        assert_eq!(heap.get(acc).i64s()[0], 4);
    }

    #[test]
    fn read_only_sharing_is_not_a_dep() {
        let mut heap = Heap::new();
        let table = heap.alloc(ObjData::zeros_f64(4));
        let out = heap.alloc(ObjData::zeros_f64(8));
        let report = summarize_dependences(&mut heap, &mut RangeSpace::new(0, 8), |ctx, i| {
            let v = ctx.tx.read_f64(table, (i % 4) as usize);
            ctx.tx.write_f64(out, i as usize, v);
        })
        .report();
        assert!(!report.any());
    }

    #[test]
    fn recurrence_edge_has_distance_one() {
        let mut heap = Heap::new();
        let xs = heap.alloc(ObjData::zeros_f64(8));
        let summary = summarize_dependences(&mut heap, &mut RangeSpace::new(1, 8), |ctx, i| {
            let prev = ctx.tx.read_f64(xs, i as usize - 1);
            ctx.tx.write_f64(xs, i as usize, prev + 1.0);
        });
        assert_eq!(summary.iterations, 7);
        assert_eq!(summary.iters.len(), 7);
        let raw: Vec<&DepEdge> = summary
            .edges
            .iter()
            .filter(|e| e.kind == DepKind::Raw)
            .collect();
        assert_eq!(raw.len(), 1);
        assert_eq!(raw[0].obj, xs);
        assert_eq!(raw[0].min_dist, 1);
        assert_eq!(raw[0].max_dist, 1);
        assert_eq!(raw[0].pairs, 6, "iterations 2..=7 each read the previous");
        assert!(summary.edges.iter().all(|e| e.kind != DepKind::Waw));
        // WAR edges also have distance 1 (iteration i writes what i-1 read?
        // no: i writes word i, which nobody read — so no WAR either).
        assert!(summary.edges.iter().all(|e| e.kind != DepKind::War));
    }

    #[test]
    fn shared_accumulator_edges_cover_all_pairs_at_distance_one() {
        let mut heap = Heap::new();
        let acc = heap.alloc(ObjData::scalar_i64(0));
        let summary = summarize_dependences(&mut heap, &mut RangeSpace::new(0, 4), |ctx, _| {
            let v = ctx.tx.read_i64(acc, 0);
            ctx.tx.write_i64(acc, 0, v + 1);
        });
        // Word trackers keep only the *latest* reader/writer, so each
        // destination contributes exactly one pair per kind.
        for kind in [DepKind::Raw, DepKind::Waw, DepKind::War] {
            let e = summary
                .edges
                .iter()
                .find(|e| e.kind == kind)
                .unwrap_or_else(|| panic!("missing {kind} edge"));
            assert_eq!(e.obj, acc);
            assert_eq!(e.word, 0);
            assert_eq!((e.min_dist, e.max_dist), (1, 1));
            assert_eq!(e.dsts, 3);
        }
        let l = summary.location(acc).expect("acc stats");
        assert_eq!(l.rmw_iters, 4);
        assert_eq!(l.words, 1);
        assert_eq!(l.plain_iters, 4, "raw reads/writes, no reduction ops");
    }

    #[test]
    fn bound_scalar_ops_are_logged() {
        let mut heap = Heap::new();
        let mut reds = RedVars::new();
        let sum = BoundScalar::declare(&mut heap, &mut reds, "sum", RedVal::I64(0));
        let mut summary = summarize_dependences(&mut heap, &mut RangeSpace::new(0, 8), {
            move |ctx, i| {
                sum.add(ctx, i as i64);
            }
        });
        summary.label("sum", sum.object());
        assert_eq!(summary.labeled("sum"), Some(sum.object()));
        assert_eq!(summary.label_of(sum.object()), Some("sum"));
        let l = summary.location(sum.object()).expect("sum stats");
        assert_eq!(l.ops, vec![RedOp::Add]);
        assert_eq!(l.plain_iters, 0, "every access flows through +");
        assert_eq!(l.rmw_iters, 8);
        assert_eq!(l.max_word, 0);
        // And the projection still sees the serializing dependence.
        assert!(summary.report().raw && summary.report().waw && summary.report().war);
        assert!(summary.render().contains("[sum]"));
    }

    #[test]
    fn mixed_plain_access_is_distinguished_from_reductive() {
        let mut heap = Heap::new();
        let mut reds = RedVars::new();
        let sum = BoundScalar::declare(&mut heap, &mut reds, "sum", RedVal::I64(0));
        let summary = summarize_dependences(&mut heap, &mut RangeSpace::new(0, 8), {
            move |ctx, i| {
                if i % 2 == 0 {
                    sum.add(ctx, 1i64);
                } else {
                    // Non-reductive read of the accumulator.
                    let _ = ctx.tx.read_i64(sum.object(), 0);
                }
            }
        });
        let l = summary.location(sum.object()).expect("sum stats");
        assert_eq!(l.ops, vec![RedOp::Add]);
        assert_eq!(l.plain_iters, 4, "odd iterations bypass the operator");
    }
}
