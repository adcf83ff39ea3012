//! Floyd — all-pairs shortest paths by repeated relaxation (the
//! dynamic-programming dwarf).
//!
//! "Though the loop has a tight dependence chain, it turns out that even if
//! some true dependences are violated, all possible paths between each pair
//! of vertices are still evaluated" (Table 2, citing Tarjan's algebraic
//! path problems).
//!
//! We parallelize the `k` loop ("we report results for the nesting level
//! that leads to the most parallelism", §7) and — making the
//! algebraic-path framing explicit — wrap it in a fixpoint loop: relaxation
//! passes repeat until no distance improves. Sequentially one pass suffices
//! (classic Floyd-Warshall); under `StaleReads` a pass may miss chained
//! improvements whose intermediate `k`s shared a snapshot, and the next
//! pass picks them up. Writes happen only on improvement, so write sets are
//! sparse and snapshot isolation commits almost everything; the read set of
//! an iteration is the whole matrix, so `RAW`-checking models (TLS,
//! OutOfOrder) conflict with essentially every concurrent improvement and
//! serialize.

use crate::common::{rng, Benchmark, Scale};
use alter_analyze::absint::{AccessKind, LoopSpec, Member, Words};
use alter_heap::{Heap, ObjData, ObjId};
use alter_infer::{InferTarget, Model, Probe, ProbeRun, ProgramOutput};
use alter_runtime::{
    summarize_dependences, LoopSummary, RangeSpace, RedOp, RedVars, RunError, RunStats, TxCtx,
};
use alter_sim::{CostModel, SimClock, SimObserver};

const INF: f64 = 1e30;

/// The Floyd-Warshall benchmark.
#[derive(Clone, Debug)]
pub struct Floyd {
    name: &'static str,
    n: usize,
    /// Probability of a direct edge.
    density: f64,
    max_passes: usize,
    seed: u64,
}

impl Floyd {
    /// The benchmark at the given scale (the paper uses 1000/2000 nodes).
    pub fn new(scale: Scale) -> Self {
        Floyd {
            name: "Floyd",
            n: match scale {
                Scale::Inference => 80,
                Scale::Paper => 128,
            },
            density: 0.12,
            max_passes: 8,
            seed: 0xf107,
        }
    }

    /// Deterministic weighted digraph as a dense distance matrix.
    pub fn edges(&self) -> Vec<f64> {
        let mut r = rng(self.seed);
        let n = self.n;
        let mut m = vec![INF; n * n];
        for i in 0..n {
            m[i * n + i] = 0.0;
            for j in 0..n {
                if i != j && r.gen_range(0.0..1.0) < self.density {
                    m[i * n + j] = r.gen_range(1.0..10.0);
                }
            }
        }
        m
    }

    /// Classic sequential Floyd-Warshall (single pass).
    pub fn run_sequential_raw(&self) -> Vec<f64> {
        let n = self.n;
        let mut m = self.edges();
        for k in 0..n {
            for i in 0..n {
                let pik = m[i * n + k];
                if pik >= INF {
                    continue;
                }
                for j in 0..n {
                    let cand = pik + m[k * n + j];
                    if cand < m[i * n + j] {
                        m[i * n + j] = cand;
                    }
                }
            }
        }
        m
    }

    /// The loop's start state: the distance matrix as one heap object.
    fn start(&self) -> (Heap, RedVars, ObjId) {
        let mut heap = Heap::new();
        let path = heap.alloc(ObjData::F64(self.edges()));
        (heap, RedVars::new(), path)
    }

    /// One relaxation step for iteration `k`: reads the whole matrix,
    /// writes only improved cells.
    fn body(&self, path: ObjId) -> impl Fn(&mut TxCtx<'_>, u64) + Sync {
        let n = self.n;
        move |ctx, iter| {
            let k = iter as usize;
            let row_k: Vec<f64> = ctx.tx.with_f64s(path, k * n, (k + 1) * n, |r| r.to_vec());
            for i in 0..n {
                let relaxed = ctx.tx.row_f64s(path, i * n, (i + 1) * n, |row_i| {
                    let pik = row_i.get(k);
                    if pik >= INF {
                        return false;
                    }
                    for (j, pkj) in row_k.iter().enumerate() {
                        let cand = pik + pkj;
                        if cand < row_i.get(j) {
                            row_i.set(j, cand);
                        }
                    }
                    true
                });
                if relaxed {
                    ctx.tx.work(2 * n as u64);
                }
            }
        }
    }

    /// Runs the relax-to-fixpoint program under `probe`.
    ///
    /// # Errors
    ///
    /// Propagates runtime aborts from any pass.
    #[allow(clippy::type_complexity)]
    pub fn run(&self, probe: &Probe) -> Result<(Vec<f64>, usize, RunStats, SimClock), RunError> {
        let n = self.n;
        let (mut heap, mut reds, path) = self.start();
        let params = probe.exec_params(&reds);
        let model = self.cost_model();
        let mut obs = SimObserver::new(&model, params.workers);
        let mut stats = RunStats::default();
        let mut passes = 0;
        loop {
            let before: Vec<f64> = heap.get(path).f64s().to_vec();
            let body = self.body(path);
            let pass_stats = alter_runtime::run_loop_observed(
                &mut heap,
                &mut reds,
                &mut RangeSpace::new(0, n as u64),
                &params,
                probe.driver(),
                body,
                &mut obs,
            )?;
            stats.absorb(&pass_stats);
            passes += 1;
            let changed = heap.get(path).f64s() != &before[..];
            if !changed || passes >= self.max_passes {
                break;
            }
        }
        let mut clock = obs.into_clock();
        clock.add_sequential(passes as f64 * (n * n) as f64); // fixpoint check
        let m = heap.get(path).f64s().to_vec();
        Ok((m, passes, stats, clock))
    }
}

impl InferTarget for Floyd {
    fn name(&self) -> &str {
        self.name
    }

    fn run_sequential(&self) -> ProgramOutput {
        ProgramOutput::from_floats(self.run_sequential_raw())
    }

    fn run_probe(&self, probe: &Probe) -> Result<ProbeRun, RunError> {
        let (m, _passes, stats, clock) = self.run(probe)?;
        Ok(ProbeRun {
            output: ProgramOutput::from_floats(m),
            stats,
            clock,
        })
    }

    fn probe_summary(&self) -> LoopSummary {
        let (mut heap, _, path) = self.start();
        let body = self.body(path);
        summarize_dependences(&mut heap, &mut RangeSpace::new(0, self.n as u64), body)
    }

    fn loop_spec(&self) -> Option<LoopSpec> {
        let n = self.n as u64;
        let nn = (self.n * self.n) as u32;
        let (heap, _, path) = self.start();
        let mut spec = LoopSpec::new(n, heap.high_water());
        let path_r = spec.region("path", vec![path], nn);
        // Iteration k reads row k (the affine pivot window) and scans every
        // row; improvement writes land on data-dependent cells anywhere in
        // the matrix.
        spec.access(
            path_r,
            Member::At(0),
            Words::Affine {
                scale: n,
                offset: 0,
                width: self.n as u32,
            },
            AccessKind::Read,
        );
        spec.access(
            path_r,
            Member::At(0),
            Words::Range { lo: 0, hi: nn },
            AccessKind::Read,
        );
        spec.access_if(
            path_r,
            Member::At(0),
            Words::Unknown { bound: nn },
            AccessKind::Write,
        );
        Some(spec)
    }

    fn validate(&self, reference: &ProgramOutput, candidate: &ProgramOutput) -> bool {
        // Shortest-path distances must match exactly (they are sums of the
        // same edge weights; the fixpoint is unique).
        reference.approx_eq(candidate, 1e-9)
    }
}

impl Benchmark for Floyd {
    fn loop_weight(&self) -> f64 {
        1.0 // Table 2
    }

    fn chunk_factor(&self) -> usize {
        4
    }

    fn best_config(&self) -> (Model, Option<(String, RedOp)>) {
        (Model::StaleReads, None)
    }

    fn cost_model(&self) -> CostModel {
        CostModel::memory_bound(3.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alter_infer::{infer, InferConfig, Outcome};

    fn tiny() -> Floyd {
        Floyd {
            name: "Floyd",
            n: 24,
            density: 0.2,
            max_passes: 8,
            seed: 5,
        }
    }

    #[test]
    fn sequential_matches_dijkstra_sanity() {
        // Triangle inequality: m[i][j] <= m[i][k] + m[k][j] at fixpoint.
        let fl = tiny();
        let m = fl.run_sequential_raw();
        let n = fl.n;
        for i in 0..n {
            for k in 0..n {
                for j in 0..n {
                    assert!(
                        m[i * n + j] <= m[i * n + k] + m[k * n + j] + 1e-9,
                        "triangle inequality violated"
                    );
                }
            }
        }
    }

    #[test]
    fn stale_reads_reaches_the_same_fixpoint() {
        let fl = tiny();
        let seq = fl.run_sequential();
        let probe = Probe::new(Model::StaleReads, 4, 2);
        let (m, passes, stats, _) = fl.run(&probe).unwrap();
        assert!(
            fl.validate(&seq, &ProgramOutput::from_floats(m)),
            "fixpoint must be the true shortest paths"
        );
        assert!(passes <= 4, "stale relaxation converges quickly: {passes}");
        assert!(
            stats.retry_rate() < 0.5,
            "improvement writes are sparse: {:.2}",
            stats.retry_rate()
        );
    }

    #[test]
    fn raw_models_serialize() {
        let fl = tiny();
        let report = infer(
            &fl,
            &InferConfig {
                workers: 4,
                chunk: 2,
                ..Default::default()
            },
        );
        assert!(report.dep.raw, "relaxation reads earlier writes");
        assert!(
            report.stale_reads.is_success(),
            "stale: {}",
            report.stale_reads
        );
        assert!(
            matches!(report.tls, Outcome::HighConflicts | Outcome::Timeout),
            "tls: {}",
            report.tls
        );
        assert!(
            matches!(
                report.out_of_order,
                Outcome::HighConflicts | Outcome::Timeout
            ),
            "ooo: {}",
            report.out_of_order
        );
    }
}
