//! AggloClust — agglomerative clustering over an `ALTERList` (the
//! branch-and-bound dwarf, adapted from Lonestar as in the paper, which
//! also simplifies the original).
//!
//! Active clusters live in an `AlterList`; each pass iterates over the
//! captured node sequence, and an iteration merges its cluster with its
//! nearest neighbour when the two are *mutual* nearest neighbours (the
//! classic reciprocal-NN agglomeration rule, which makes the result robust
//! to iteration order). Finding the nearest neighbour scans every live
//! cluster — a large, element-granular read set. That is exactly what
//! kills the read-tracking models: "the machine runs out of memory (due to
//! very large read sets)" under TLS and OutOfOrder (§7.1, reported as
//! *crash* in Table 3), while StaleReads tracks only the small merge write
//! sets and succeeds.

use crate::common::{rng, uniform_f64s, Benchmark, Scale};
use alter_analyze::absint::{AccessKind, LoopSpec, Member, Words};
use alter_collections::AlterList;
use alter_heap::{Heap, ObjData, ObjId};
use alter_infer::{InferTarget, Model, Probe, ProbeRun, ProgramOutput};
use alter_runtime::{
    summarize_dependences, LoopSummary, RedOp, RedVars, RunError, RunStats, SeqSpace, TxCtx,
};
use alter_sim::{SimClock, SimObserver};

// Cluster object layout: [0] = x·size, [1] = y·size, [2] = size,
// [3] = accumulated merge cost of this cluster's subtree (all f64).
const SX: usize = 0;
const SY: usize = 1;
const SZ: usize = 2;
const SCOST: usize = 3;

/// The agglomerative-clustering benchmark.
#[derive(Clone, Debug)]
pub struct AggloClust {
    name: &'static str,
    points: usize,
    /// Stop when this many clusters remain.
    target: usize,
    max_passes: usize,
    seed: u64,
}

impl AggloClust {
    /// The benchmark at the given scale (the paper clusters 100k/1M
    /// points).
    pub fn new(scale: Scale) -> Self {
        let points = match scale {
            Scale::Inference => 384,
            Scale::Paper => 1536,
        };
        AggloClust {
            name: "AggloClust",
            points,
            target: points / 8,
            max_passes: 64,
            seed: 0x1234,
        }
    }

    /// Deterministic 2D points.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let mut r = rng(self.seed);
        let xs = uniform_f64s(&mut r, self.points, 0.0, 100.0);
        let ys = uniform_f64s(&mut r, self.points, 0.0, 100.0);
        xs.into_iter().zip(ys).collect()
    }

    fn dist2(a: (f64, f64, f64), b: (f64, f64, f64)) -> f64 {
        let ax = a.0 / a.2;
        let ay = a.1 / a.2;
        let bx = b.0 / b.2;
        let by = b.1 / b.2;
        (ax - bx) * (ax - bx) + (ay - by) * (ay - by)
    }

    /// Sequential reference: reciprocal-nearest-neighbour agglomeration
    /// until `target` clusters remain. Returns total within-merge cost and
    /// final cluster count.
    pub fn run_sequential_raw(&self) -> (f64, usize) {
        let mut clusters: Vec<(f64, f64, f64)> = self
            .points()
            .into_iter()
            .map(|(x, y)| (x, y, 1.0))
            .collect();
        let mut merge_cost = 0.0;
        let mut passes = 0;
        while clusters.len() > self.target && passes < self.max_passes {
            let nearest: Vec<usize> = (0..clusters.len())
                .map(|i| {
                    let mut best = usize::MAX;
                    let mut best_d = f64::INFINITY;
                    for j in 0..clusters.len() {
                        if j != i {
                            let d = Self::dist2(clusters[i], clusters[j]);
                            if d < best_d {
                                best_d = d;
                                best = j;
                            }
                        }
                    }
                    best
                })
                .collect();
            let mut dead = vec![false; clusters.len()];
            for i in 0..clusters.len() {
                let j = nearest[i];
                // Reciprocal pair, merged once (lower index wins).
                if j != usize::MAX && nearest[j] == i && i < j && !dead[i] && !dead[j] {
                    merge_cost += Self::dist2(clusters[i], clusters[j]).sqrt();
                    clusters[i] = (
                        clusters[i].0 + clusters[j].0,
                        clusters[i].1 + clusters[j].1,
                        clusters[i].2 + clusters[j].2,
                    );
                    dead[j] = true;
                }
            }
            let mut k = 0;
            clusters.retain(|_| {
                let keep = !dead[k];
                k += 1;
                keep
            });
            passes += 1;
        }
        (merge_cost, clusters.len())
    }

    /// The loop's start state: one singleton cluster object per point,
    /// linked into a list in order. Returns the list and the cluster
    /// objects.
    fn start(&self) -> (Heap, RedVars, AlterList<ObjId>, Vec<ObjId>) {
        let mut heap = Heap::new();
        let list = AlterList::new(&mut heap);
        let mut clusters = Vec::new();
        for (x, y) in self.points() {
            let obj = heap.alloc(ObjData::F64(vec![x, y, 1.0, 0.0]));
            list.push_back(&mut heap, obj);
            clusters.push(obj);
        }
        (heap, RedVars::new(), list, clusters)
    }

    fn read_cluster(ctx: &mut TxCtx<'_>, obj: ObjId) -> (f64, f64, f64) {
        // Element-granular reads: this is the pointer-chasing scan whose
        // tracked read set blows up under RAW policies.
        (
            ctx.tx.read_f64(obj, SX),
            ctx.tx.read_f64(obj, SY),
            ctx.tx.read_f64(obj, SZ),
        )
    }

    /// Runs the full program under `probe`; returns (merge cost, final
    /// cluster count, stats, clock).
    ///
    /// # Errors
    ///
    /// Propagates runtime aborts — including the out-of-memory abort on
    /// oversized tracked read sets.
    #[allow(clippy::type_complexity)]
    pub fn run(&self, probe: &Probe) -> Result<(f64, usize, RunStats, SimClock), RunError> {
        let (mut heap, mut reds, list, _) = self.start();
        let params = probe.exec_params(&reds);
        let model = self.cost_model();
        let mut obs = SimObserver::new(&model, params.workers);
        let mut stats = RunStats::default();

        let mut passes = 0;
        while list.len(&heap) > self.target && passes < self.max_passes {
            let nodes = list.node_ids(&heap);
            let body = |ctx: &mut TxCtx<'_>, raw: u64| {
                let node = ObjId::from_index(raw as u32);
                if !ctx.tx.is_live(node) {
                    return; // concurrently merged away
                }
                let me_obj = list.value(ctx, node);
                let me = Self::read_cluster(ctx, me_obj);
                // Scan the captured node sequence for my nearest live
                // neighbour.
                let mut best: Option<(ObjId, ObjId, (f64, f64, f64))> = None;
                let mut best_d = f64::INFINITY;
                for &other_raw in &nodes {
                    let other = ObjId::from_index(other_raw as u32);
                    if other == node || !ctx.tx.is_live(other) {
                        continue;
                    }
                    let obj = list.value(ctx, other);
                    let c = Self::read_cluster(ctx, obj);
                    let d = Self::dist2(me, c);
                    ctx.tx.work(6);
                    if d < best_d {
                        best_d = d;
                        best = Some((other, obj, c));
                    }
                }
                let Some((other_node, other_obj, other)) = best else {
                    return;
                };
                // Mutual-nearest check: is my cluster the nearest of my
                // nearest? (Scan again from its perspective.)
                let mut their_best = f64::INFINITY;
                let mut their_best_node = node;
                for &cand_raw in &nodes {
                    let cand = ObjId::from_index(cand_raw as u32);
                    if cand == other_node || !ctx.tx.is_live(cand) {
                        continue;
                    }
                    let obj = list.value(ctx, cand);
                    let c = Self::read_cluster(ctx, obj);
                    ctx.tx.work(6);
                    let d = Self::dist2(other, c);
                    if d < their_best {
                        their_best = d;
                        their_best_node = cand;
                    }
                }
                // Lower node index performs the merge to avoid double work.
                if their_best_node == node && node.index() < other_node.index() {
                    let cost = Self::dist2(me, other).sqrt();
                    // Fold the absorbed cluster's subtree cost into the
                    // survivor — a private write, so merges of disjoint
                    // pairs never contend on a shared accumulator.
                    let other_cost = ctx.tx.read_f64(other_obj, SCOST);
                    ctx.tx.update_f64s(me_obj, 0, 4, |c| {
                        c[SX] += other.0;
                        c[SY] += other.1;
                        c[SZ] += other.2;
                        c[SCOST] += other_cost + cost;
                    });
                    list.remove(ctx, other_node);
                    ctx.tx.free(other_obj);
                }
            };
            let pass_stats = alter_runtime::run_loop_observed(
                &mut heap,
                &mut reds,
                &mut SeqSpace::new(nodes.clone()),
                &params,
                probe.driver(),
                body,
                &mut obs,
            )?;
            stats.absorb(&pass_stats);
            passes += 1;
            if pass_stats.iterations == 0 {
                break;
            }
        }
        let merge_cost: f64 = list
            .node_ids(&heap)
            .iter()
            .map(|&raw| {
                let node = ObjId::from_index(raw as u32);
                let obj = ObjId::from_i64(heap.get(node).i64s()[0]);
                heap.get(obj).f64s()[SCOST]
            })
            .sum();
        let remaining = list.len(&heap);
        Ok((merge_cost, remaining, stats, obs.into_clock()))
    }
}

impl InferTarget for AggloClust {
    fn name(&self) -> &str {
        self.name
    }

    fn run_sequential(&self) -> ProgramOutput {
        let (cost, remaining) = self.run_sequential_raw();
        ProgramOutput {
            floats: vec![cost],
            ints: vec![remaining as i64],
        }
    }

    fn run_probe(&self, probe: &Probe) -> Result<ProbeRun, RunError> {
        let (cost, remaining, stats, clock) = self.run(probe)?;
        Ok(ProbeRun {
            output: ProgramOutput {
                floats: vec![cost],
                ints: vec![remaining as i64],
            },
            stats,
            clock,
        })
    }

    fn probe_summary(&self) -> LoopSummary {
        // One pass at chunk 1 exhibits the structural dependences: the
        // merge-cost cell and the cluster scans. The replay runs at the
        // full point count so the summarised read-set footprint matches
        // what a real probe would have to track against its memory budget.
        let (mut heap, _, list, _) = self.start();
        let nodes = list.node_ids(&heap);
        let nodes2 = nodes.clone();
        let body = move |ctx: &mut TxCtx<'_>, raw: u64| {
            let node = ObjId::from_index(raw as u32);
            if !ctx.tx.is_live(node) {
                return;
            }
            let obj = list.value(ctx, node);
            let me = Self::read_cluster(ctx, obj);
            let mut best_d = f64::INFINITY;
            for &other_raw in &nodes2 {
                let other = ObjId::from_index(other_raw as u32);
                if other != node && ctx.tx.is_live(other) {
                    let o = list.value(ctx, other);
                    let c = Self::read_cluster(ctx, o);
                    best_d = best_d.min(Self::dist2(me, c));
                }
            }
            ctx.tx.write_f64(obj, SZ, me.2); // touch own cluster
        };
        summarize_dependences(&mut heap, &mut SeqSpace::new(nodes), body)
    }

    fn loop_spec(&self) -> Option<LoopSpec> {
        let (heap, _, list, clusters) = self.start();
        let nodes: Vec<ObjId> = list
            .node_ids(&heap)
            .into_iter()
            .map(|raw| ObjId::from_index(raw as u32))
            .collect();
        let mut spec = LoopSpec::new(nodes.len() as u64, heap.high_water());
        // The nearest-neighbour scan reads every node's value word and
        // every cluster's coordinates each iteration — the unconditional
        // whole-region read set whose tracked footprint provably exceeds
        // the budget under RAW policies (§7.1's out-of-memory crash) —
        // while only the iteration's own cluster is written.
        let node_r = spec.region("nodes", nodes, 3);
        spec.access(
            node_r,
            Member::All,
            Words::Range { lo: 0, hi: 1 },
            AccessKind::Read,
        );
        let clus_r = spec.region("clusters", clusters, 4);
        spec.access(
            clus_r,
            Member::All,
            Words::Range { lo: 0, hi: 3 },
            AccessKind::Read,
        );
        spec.access(
            clus_r,
            Member::Each,
            Words::Range { lo: 2, hi: 3 },
            AccessKind::Write,
        );
        Some(spec)
    }

    fn validate(&self, reference: &ProgramOutput, candidate: &ProgramOutput) -> bool {
        // Merge order may differ, so passes end at slightly different
        // cluster counts; reciprocal-NN agglomeration keeps the dendrogram
        // cost stable. Accept a couple of clusters of slack and a 10% cost
        // band.
        let (rc, cc) = (reference.ints[0], candidate.ints[0]);
        if (rc - cc).abs() > 2 {
            return false;
        }
        let (r, c) = (reference.floats[0], candidate.floats[0]);
        (r - c).abs() <= 0.10 * r.abs().max(1.0)
    }

    fn tracked_budget_words(&self) -> Option<u64> {
        // The paper's machine exhausts memory tracking AggloClust's read
        // sets; our model caps per-transaction tracking below one full
        // cluster scan (~3 words per cluster, twice per iteration), so
        // RAW-tracking models abort the same way while the write-only
        // StaleReads sets stay tiny.
        Some((self.points as u64) * 3)
    }
}

impl Benchmark for AggloClust {
    fn loop_weight(&self) -> f64 {
        0.89 // Table 2
    }

    fn chunk_factor(&self) -> usize {
        16 // Table 4: AggloClust cf = 64 at 1M points; scaled down
    }

    fn best_config(&self) -> (Model, Option<(String, RedOp)>) {
        (Model::StaleReads, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alter_infer::{infer, InferConfig, Outcome};

    fn tiny() -> AggloClust {
        AggloClust {
            name: "AggloClust",
            points: 96,
            target: 12,
            max_passes: 64,
            seed: 9,
        }
    }

    #[test]
    fn sequential_reaches_target_cluster_count() {
        let a = tiny();
        let (cost, remaining) = a.run_sequential_raw();
        assert!(remaining <= 12 + 4, "remaining {remaining}");
        assert!(cost > 0.0);
    }

    #[test]
    fn stale_reads_succeeds_and_matches() {
        let a = tiny();
        let seq = a.run_sequential();
        let run = a.run_probe(&Probe::new(Model::StaleReads, 4, 4)).unwrap();
        assert!(
            a.validate(&seq, &run.output),
            "seq {:?} vs stale {:?}",
            seq,
            run.output
        );
    }

    #[test]
    fn raw_models_crash_on_read_set_blowup() {
        let a = tiny();
        let mut probe = Probe::new(Model::OutOfOrder, 4, 4);
        probe.budget_words = a.tracked_budget_words().unwrap();
        let err = alter_runtime::quiet::quiet_panics(|| a.run_probe(&probe)).unwrap_err();
        assert!(matches!(err, RunError::OutOfMemory { .. }), "{err}");
    }

    #[test]
    fn inference_matches_table3_row() {
        let a = tiny();
        let report = infer(
            &a,
            &InferConfig {
                workers: 4,
                chunk: 4,
                ..Default::default()
            },
        );
        assert!(report.dep.any());
        assert_eq!(report.tls, Outcome::OutOfMemory, "tls: {}", report.tls);
        assert_eq!(
            report.out_of_order,
            Outcome::OutOfMemory,
            "ooo: {}",
            report.out_of_order
        );
        assert!(
            report.stale_reads.is_success(),
            "stale: {}",
            report.stale_reads
        );
        assert_eq!(report.tls.short(), "crash");
    }
}
