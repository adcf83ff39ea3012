//! K-means — the STAMP clustering benchmark of Figure 2.
//!
//! ```c
//! while (delta > threshold) {
//!   delta = 0.0;
//!   [StaleReads + Reduction(delta, +)]       // or OutOfOrder + Reduction
//!   for (i = 0; i < npoints; i++) {
//!     index = findNearestPoint(feature[i], clusters);
//!     if (membership[i] != index) delta += 1.0;
//!     membership[i] = index;
//!     new_centers_len[index]++;
//!     new_centers[index] += feature[i];
//!   }
//! }
//! ```
//!
//! `feature` lives in shared memory like the original benchmark: one
//! read-only heap object per point, read transactionally each iteration
//! (it is never written, so it can never conflict — but it *does* make the
//! heap big, which is exactly the shape that rewards incremental
//! snapshots: only the membership array, the accumulators, and `delta`
//! are dirtied each round). `membership[i]` is a disjoint per-iteration
//! write; each cluster's accumulator is one heap
//! allocation, so two iterations conflict exactly when concurrent chunks
//! update the same cluster — which is why "the larger the number of
//! clusters to be formed, the fewer the conflicts" (§7.2, Figure 8).
//! `delta` is the reduction variable: without the annotation it is a shared
//! read-modify-write scalar that serializes everything (`h.c.` in Table 3);
//! with `Reduction(delta, +)` only the cluster-accumulator conflicts
//! remain.

use crate::common::{rng, uniform_f64s, Benchmark, Scale};
use alter_analyze::absint::{AccessKind, LoopSpec, Member, Words};
use alter_heap::{Heap, ObjData, ObjId};
use alter_infer::{InferTarget, Model, Probe, ProbeRun, ProgramOutput};
use alter_runtime::{
    summarize_dependences, BoundScalar, LoopSummary, RangeSpace, RedOp, RedVal, RedVars, RunError,
    TxCtx,
};
use alter_sim::CostModel;

/// Features per point.
const NFEATURES: usize = 8;

/// What `KMeans::start` returns: the initial centres (the first
/// `nclusters` points), the heap, the registry, the feature objects, the
/// membership array, the accumulators and `delta`.
type Start = (
    Vec<Vec<f64>>,
    Heap,
    RedVars,
    Vec<ObjId>,
    ObjId,
    Vec<ObjId>,
    BoundScalar,
);

/// The K-means clustering benchmark.
#[derive(Clone, Debug)]
pub struct KMeans {
    name: &'static str,
    npoints: usize,
    nclusters: usize,
    nfeatures: usize,
    /// Jitter radius around the planted centers; larger values overlap the
    /// clusters, so memberships keep shifting for more rounds and boundary
    /// points land in "foreign" clusters (raising accumulator conflicts).
    jitter: f64,
    /// Stop when fewer than `threshold × npoints` memberships change.
    threshold: f64,
    max_rounds: usize,
    seed: u64,
}

impl KMeans {
    /// The benchmark at a given scale and cluster count (the paper sweeps
    /// 512 vs 1024 clusters at 16k/64k points; we keep the same ratio of
    /// points to clusters).
    pub fn with_clusters(scale: Scale, nclusters: usize) -> Self {
        KMeans {
            name: "K-means",
            npoints: match scale {
                Scale::Inference => nclusters * 16,
                Scale::Paper => nclusters * 64,
            },
            nclusters,
            nfeatures: NFEATURES,
            jitter: 3.0,
            threshold: 0.02,
            max_rounds: 30,
            seed: 0x6b6d,
        }
    }

    /// Default configuration for the scale (32 clusters at inference
    /// scale, matching the paper's 16k-points/512-clusters ratio).
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Inference => Self::with_clusters(scale, 64),
            Scale::Paper => Self::with_clusters(scale, 128),
        }
    }

    /// Points clustered around `nclusters` true centers (deterministic).
    pub fn features(&self) -> Vec<Vec<f64>> {
        let mut r = rng(self.seed);
        let centers: Vec<Vec<f64>> = (0..self.nclusters)
            .map(|_| uniform_f64s(&mut r, self.nfeatures, -10.0, 10.0))
            .collect();
        (0..self.npoints)
            .map(|i| {
                let c = &centers[i % self.nclusters];
                // Jitter makes clusters overlap, so memberships keep
                // shifting for several rounds — the regime where the delta
                // convergence test actually matters.
                c.iter()
                    .zip(uniform_f64s(
                        &mut r,
                        self.nfeatures,
                        -self.jitter,
                        self.jitter,
                    ))
                    .map(|(center, jitter)| center + jitter)
                    .collect()
            })
            .collect()
    }

    fn nearest(features: &[f64], centers: &[Vec<f64>]) -> usize {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (c, center) in centers.iter().enumerate() {
            let d: f64 = features
                .iter()
                .zip(center)
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        best
    }

    /// Plain sequential K-means; returns final memberships and rounds run.
    pub fn run_sequential_raw(&self) -> (Vec<usize>, usize) {
        let features = self.features();
        let mut centers: Vec<Vec<f64>> = features[..self.nclusters].to_vec();
        let mut membership = vec![usize::MAX; self.npoints];
        let mut rounds = 0;
        loop {
            let mut sums = vec![vec![0.0; self.nfeatures]; self.nclusters];
            let mut counts = vec![0usize; self.nclusters];
            let mut delta = 0.0;
            for i in 0..self.npoints {
                let c = Self::nearest(&features[i], &centers);
                if membership[i] != c {
                    delta += 1.0;
                }
                membership[i] = c;
                counts[c] += 1;
                for f in 0..self.nfeatures {
                    sums[c][f] += features[i][f];
                }
            }
            for c in 0..self.nclusters {
                if counts[c] > 0 {
                    for f in 0..self.nfeatures {
                        centers[c][f] = sums[c][f] / counts[c] as f64;
                    }
                }
            }
            rounds += 1;
            if delta / self.npoints as f64 <= self.threshold || rounds >= self.max_rounds {
                break;
            }
        }
        (membership, rounds)
    }

    /// State of the ALTER-parallel version: heap objects per cluster
    /// accumulator (features + count), the membership array, and `delta`.
    fn body<'a>(
        &self,
        feats: &'a [ObjId],
        centers: Vec<Vec<f64>>,
        membership: ObjId,
        accs: &'a [ObjId],
        delta: BoundScalar,
    ) -> impl Fn(&mut TxCtx<'_>, u64) + Sync + 'a {
        let nf = self.nfeatures;
        move |ctx, iter| {
            let i = iter as usize;
            // feature[i]: one range read of the point's heap object, copied
            // to the stack to outlive the read.
            let mut fv = [0.0; NFEATURES];
            let fv = &mut fv[..nf];
            ctx.tx.with_f64s(feats[i], 0, nf, |s| fv.copy_from_slice(s));
            let c = Self::nearest(fv, &centers);
            ctx.tx.work((centers.len() * nf) as u64);
            if ctx.tx.read_i64(membership, i) != c as i64 {
                delta.add(ctx, 1.0);
            }
            ctx.tx.write_i64(membership, i, c as i64);
            // new_centers_len[c]++ and new_centers[c] += feature[i], as one
            // read-modify-write of the cluster's accumulator object.
            ctx.tx.update_f64s(accs[c], 0, nf + 1, |acc| {
                acc[nf] += 1.0;
                for f in 0..nf {
                    acc[f] += fv[f];
                }
            });
        }
    }

    /// The loop's start state, with one read-only heap object per point
    /// and one accumulator object per cluster.
    fn start(&self) -> Start {
        let features = self.features();
        let centers = features[..self.nclusters].to_vec();
        let mut heap = Heap::new();
        let mut reds = RedVars::new();
        // Feature objects first: the cold read-only bulk of the heap stays
        // on its own snapshot pages, away from the hot state below.
        let feats = features
            .into_iter()
            .map(|f| heap.alloc(ObjData::F64(f)))
            .collect();
        let membership = heap.alloc(ObjData::I64(vec![-1; self.npoints]));
        let accs = (0..self.nclusters)
            .map(|_| heap.alloc(ObjData::zeros_f64(self.nfeatures + 1)))
            .collect();
        let delta = BoundScalar::declare(&mut heap, &mut reds, "delta", RedVal::F64(0.0));
        (centers, heap, reds, feats, membership, accs, delta)
    }

    /// Runs the full program under `probe`, charging virtual time under
    /// `model`: [`InferTarget::run_probe`] passes the benchmark's own cost
    /// model, and the fine-grained-locking baseline of Figure 8 reuses the
    /// same execution with the ALTER overheads replaced by per-update lock
    /// costs.
    ///
    /// # Errors
    ///
    /// Propagates runtime aborts from any round.
    pub fn run_with_model(&self, probe: &Probe, model: &CostModel) -> Result<ProbeRun, RunError> {
        let (mut centers, mut heap, mut reds, feats, membership, accs, delta) = self.start();
        probe.session(&mut reds, model, |mut session, reds| {
            let mut rounds = 0;
            loop {
                delta.seq_set(&mut heap, reds, RedVal::F64(0.0));
                for acc in &accs {
                    heap.get_mut(*acc).f64s_mut().fill(0.0);
                }
                let body = self.body(&feats, centers.clone(), membership, &accs, delta);
                let space = &mut RangeSpace::new(0, self.npoints as u64);
                session.run_loop(&mut heap, reds, space, body)?;
                rounds += 1;

                // Sequential epilogue: recompute centers from accumulators.
                for (c, acc) in accs.iter().enumerate() {
                    let data = heap.get(*acc).f64s();
                    let count = data[self.nfeatures];
                    if count > 0.0 {
                        for f in 0..self.nfeatures {
                            centers[c][f] = data[f] / count;
                        }
                    }
                }
                let d = delta
                    .seq_get_sync(&mut heap, reds, session.params())
                    .as_f64();
                if d / self.npoints as f64 <= self.threshold || rounds >= self.max_rounds {
                    break;
                }
            }
            let mut ints = vec![rounds as i64];
            ints.extend(self.cluster_sizes(heap.get(membership).i64s()));
            let epilogue = rounds as f64 * (self.nclusters * self.nfeatures) as f64 * 3.0;
            Ok(session.finish(ProgramOutput::from_ints(ints), epilogue))
        })
    }

    fn cluster_sizes(&self, membership: &[i64]) -> Vec<i64> {
        let mut sizes = vec![0i64; self.nclusters];
        for &m in membership {
            if m >= 0 {
                sizes[m as usize] += 1;
            }
        }
        sizes
    }
}

impl InferTarget for KMeans {
    fn name(&self) -> &str {
        self.name
    }

    fn run_sequential(&self) -> ProgramOutput {
        let (membership, rounds) = self.run_sequential_raw();
        let as_i64: Vec<i64> = membership.iter().map(|&m| m as i64).collect();
        let mut ints = vec![rounds as i64];
        ints.extend(self.cluster_sizes(&as_i64));
        ProgramOutput::from_ints(ints)
    }

    fn run_probe(&self, probe: &Probe) -> Result<ProbeRun, RunError> {
        self.run_with_model(probe, &self.cost_model())
    }

    fn probe_summary(&self) -> LoopSummary {
        let (centers, mut heap, _, feats, membership, accs, delta) = self.start();
        let body = self.body(&feats, centers, membership, &accs, delta);
        let mut s = summarize_dependences(
            &mut heap,
            &mut RangeSpace::new(0, self.npoints as u64),
            body,
        );
        s.label("delta", delta.object());
        s
    }

    fn loop_spec(&self) -> Option<LoopSpec> {
        let nf = self.nfeatures as u32;
        let (_, heap, _, feats, membership, accs, delta) = self.start();
        let mut spec = LoopSpec::new(self.npoints as u64, heap.high_water());
        // Iteration i reads its own feature object and read-writes its own
        // membership slot (both injective); the data-dependent cluster
        // accumulator update and the `delta += 1.0` reduction are the
        // conflict-carrying accesses.
        let feats_r = spec.region("features", feats, nf);
        spec.access(
            feats_r,
            Member::Each,
            Words::Range { lo: 0, hi: nf },
            AccessKind::Read,
        );
        let mem_r = spec.region("membership", vec![membership], self.npoints as u32);
        let own_slot = Words::Affine {
            scale: 1,
            offset: 0,
            width: 1,
        };
        spec.access(mem_r, Member::At(0), own_slot, AccessKind::Read);
        spec.access(mem_r, Member::At(0), own_slot, AccessKind::Write);
        let delta_r = spec.labeled_region("delta", delta.object(), "delta");
        spec.access_if(
            delta_r,
            Member::At(0),
            Words::Range { lo: 0, hi: 1 },
            AccessKind::Reduce(RedOp::Add),
        );
        let accs_r = spec.region("accumulators", accs, nf + 1);
        spec.access(
            accs_r,
            Member::Some,
            Words::Range { lo: 0, hi: nf + 1 },
            AccessKind::Update,
        );
        Some(spec)
    }

    fn reduction_candidates(&self) -> Vec<String> {
        vec!["delta".into()]
    }

    fn validate(&self, reference: &ProgramOutput, candidate: &ProgramOutput) -> bool {
        // First int is the round count: a run that exhausted max_rounds
        // never converged (e.g. a NaN-poisoned delta merge) and is invalid
        // regardless of the final memberships.
        if candidate.ints.first().copied().unwrap_or(0) >= self.max_rounds as i64 {
            return false;
        }
        if reference.ints.len() != candidate.ints.len() {
            return false;
        }
        // Cluster sizes must agree closely; commit order may shuffle a few
        // boundary points between near-equidistant clusters.
        let sizes_r = &reference.ints[1..];
        let sizes_c = &candidate.ints[1..];
        let total: i64 = sizes_r.iter().sum();
        let diff: i64 = sizes_r
            .iter()
            .zip(sizes_c)
            .map(|(a, b)| (a - b).abs())
            .sum();
        diff * 100 <= total * 2 // ≤2% of points moved
    }
}

impl Benchmark for KMeans {
    fn loop_weight(&self) -> f64 {
        0.89 // Table 2
    }

    fn chunk_factor(&self) -> usize {
        4 // Table 4: K-means cf = 4
    }

    fn best_config(&self) -> (Model, Option<(String, RedOp)>) {
        (Model::StaleReads, Some(("delta".into(), RedOp::Add)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alter_infer::{infer, InferConfig};

    fn tiny() -> KMeans {
        KMeans {
            name: "K-means",
            npoints: 512,
            nclusters: 32,
            nfeatures: 4,
            jitter: 4.0,
            threshold: 0.02,
            max_rounds: 20,
            seed: 4,
        }
    }

    #[test]
    fn sequential_clusters_the_planted_data() {
        let km = tiny();
        let (membership, rounds) = km.run_sequential_raw();
        assert!(rounds >= 1);
        // Planted clusters are well separated: every cluster gets points.
        let as_i64: Vec<i64> = membership.iter().map(|&m| m as i64).collect();
        let sizes = km.cluster_sizes(&as_i64);
        assert!(
            sizes.iter().filter(|&&s| s > 0).count() >= 28,
            "most clusters populated"
        );
        assert_eq!(sizes.iter().sum::<i64>(), 512);
    }

    #[test]
    fn stale_reads_with_add_reduction_matches() {
        let km = tiny();
        let seq = km.run_sequential();
        let mut probe = Probe::new(Model::StaleReads, 4, 4);
        probe.reduction = Some(("delta".into(), RedOp::Add));
        let run = km.run_probe(&probe).unwrap();
        assert!(km.validate(&seq, &run.output));
        assert!(
            run.stats.retry_rate() < 0.5,
            "cluster conflicts must be modest: {:.2}",
            run.stats.retry_rate()
        );
    }

    #[test]
    fn unannotated_delta_serializes() {
        let km = tiny();
        let probe = Probe::new(Model::StaleReads, 4, 4);
        let run = km.run_probe(&probe).unwrap();
        assert!(
            run.stats.retry_rate() > 0.5,
            "shared delta must conflict: {:.2}",
            run.stats.retry_rate()
        );
    }

    #[test]
    fn inference_requires_the_reduction() {
        let km = tiny();
        let report = infer(
            &km,
            &InferConfig {
                workers: 4,
                chunk: 4,
                ..Default::default()
            },
        );
        assert!(report.dep.any());
        assert!(
            !report.stale_reads.is_success(),
            "stale alone: {}",
            report.stale_reads
        );
        assert!(!report.out_of_order.is_success());
        let ok = report.successful_reductions();
        assert!(
            ok.iter()
                .any(|r| r.op == RedOp::Add && r.model == Model::StaleReads),
            "StaleReads + Reduction(delta, +) must be valid"
        );
    }

    #[test]
    fn more_clusters_fewer_conflicts() {
        // The Figure 8 effect: conflicts drop as clusters grow.
        let few = KMeans {
            nclusters: 4,
            npoints: 512,
            ..tiny()
        };
        let many = KMeans {
            nclusters: 32,
            npoints: 512,
            ..tiny()
        };
        let mut probe = Probe::new(Model::StaleReads, 4, 4);
        probe.reduction = Some(("delta".into(), RedOp::Add));
        let r_few = few.run_probe(&probe).unwrap();
        let r_many = many.run_probe(&probe).unwrap();
        assert!(
            r_many.stats.retry_rate() < r_few.stats.retry_rate(),
            "{:.3} !< {:.3}",
            r_many.stats.retry_rate(),
            r_few.stats.retry_rate()
        );
    }
}
