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
//! passes repeat until no distance improves. In exact arithmetic one
//! sequential pass suffices (classic Floyd-Warshall), and that single pass
//! is the reference output. In floating point it does not reach the
//! fixpoint: a distance is a sum of edge weights, and a later pass that
//! splits the same path at a different `k` may round it an ulp or two
//! lower. At one worker, where a pass is the classic pass, passes 2 and 3
//! make 1 898 and 103 such improvements on the paper-scale matrix and pass
//! 4 changes nothing, so the loop runs four passes. Under `StaleReads` a
//! pass may also miss chained improvements whose intermediate `k`s shared
//! a snapshot, and the next pass picks them up.
//!
//! Writes happen only on improvement, so write sets are sparse and snapshot
//! isolation commits almost everything; the read set of an iteration is the
//! whole matrix, so `RAW`-checking models (TLS, OutOfOrder) conflict with
//! essentially every concurrent improvement and serialize.

use crate::common::{rng, Benchmark, Scale};
use alter_analyze::absint::{AccessKind, LoopSpec, Member, Words};
use alter_heap::{Heap, ObjData, ObjId};
use alter_infer::{InferTarget, Model, Probe, ProbeRun, ProgramOutput};
use alter_runtime::{
    summarize_dependences, LoopSummary, RangeSpace, RedOp, RedVars, RunError, TxCtx,
};
use alter_sim::CostModel;

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
                    // Scan the row as one slice before opening the write
                    // path: after the first pass most rows improve nowhere.
                    // `|`, not `||`, leaves the scan no early exit, so the
                    // compiler can vectorize it. A `set` changes only its
                    // own cell, so the scan finds an improvement exactly
                    // when the loop below makes one, and a writer (which
                    // makes the private copy) opens only for such a row.
                    let improves = row_i
                        .words()
                        .iter()
                        .zip(&row_k)
                        .fold(false, |acc, (d, pkj)| acc | (pik + pkj < *d));
                    if improves {
                        let mut row = row_i.writer();
                        for (j, pkj) in row_k.iter().enumerate() {
                            let cand = pik + pkj;
                            if cand < row.get(j) {
                                row.set(j, cand);
                            }
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

    /// Relaxes to a fixpoint under `probe`, running each pass's iterations
    /// with `body(path)`.
    fn relax<B>(&self, probe: &Probe, body: impl Fn(ObjId) -> B) -> Result<ProbeRun, RunError>
    where
        B: Fn(&mut TxCtx<'_>, u64) + Send + Sync,
    {
        let n = self.n;
        let (mut heap, mut reds, path) = self.start();
        let model = self.cost_model();
        probe.session(&mut reds, &model, |mut session, reds| {
            let mut passes = 0;
            loop {
                let before: Vec<f64> = heap.get(path).f64s().to_vec();
                let space = &mut RangeSpace::new(0, n as u64);
                session.run_loop(&mut heap, reds, space, body(path))?;
                passes += 1;
                let changed = heap.get(path).f64s() != &before[..];
                if !changed || passes >= self.max_passes {
                    break;
                }
            }
            let m = heap.get(path).f64s().to_vec();
            // The fixpoint check is sequential program text.
            Ok(session.finish(
                ProgramOutput::from_floats(m),
                passes as f64 * (n * n) as f64,
            ))
        })
    }
}

impl InferTarget for Floyd {
    fn name(&self) -> &str {
        self.name
    }

    fn run_sequential(&self) -> ProgramOutput {
        ProgramOutput::from_floats(self.run_sequential_raw())
    }

    /// Relaxes to a fixpoint under `probe`. Every pass commits exactly
    /// `n` iterations, so the pass count is `stats.iterations / n`.
    fn run_probe(&self, probe: &Probe) -> Result<ProbeRun, RunError> {
        self.relax(probe, |path| self.body(path))
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
        // Shortest-path distances are sums of the same edge weights, but
        // not always summed in the same order: the fixpoint loop's later
        // passes round some of them an ulp or two below the single-pass
        // reference, so they match to a relative 1e-9, not exactly.
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

    /// The relaxation through the plain accessors, which share no code with
    /// guarded rows: one range read per row gets its cells, then one
    /// `write_f64` per improved cell sets it, compared against the row as
    /// read. A `write_f64` changes only its own cell, which the loop does
    /// not read again, so the row as read is the row as it stands. The row
    /// body must be indistinguishable from it.
    fn reference_body(fl: &Floyd, path: ObjId) -> impl Fn(&mut TxCtx<'_>, u64) + Sync {
        let n = fl.n;
        move |ctx, iter| {
            let k = iter as usize;
            let row_k: Vec<f64> = ctx.tx.with_f64s(path, k * n, (k + 1) * n, |r| r.to_vec());
            for i in 0..n {
                let row_i: Vec<f64> = ctx.tx.with_f64s(path, i * n, (i + 1) * n, |r| r.to_vec());
                let pik = row_i[k];
                if pik >= INF {
                    continue;
                }
                for (j, pkj) in row_k.iter().enumerate() {
                    let cand = pik + pkj;
                    if cand < row_i[j] {
                        ctx.tx.write_f64(path, i * n + j, cand);
                    }
                }
                ctx.tx.work(2 * n as u64);
            }
        }
    }

    /// Relaxing through a guarded row — scan, then a writer for a row that
    /// improves — changes no output bit, no counter and no event against
    /// the plain accessors, under every Table 3 model, at one and two
    /// workers, with either driver.
    #[test]
    fn scanning_body_matches_the_get_set_reference() {
        use alter_trace::{trace_hash, RingRecorder};
        use std::sync::Arc;
        let fl = tiny();
        for model in Model::TABLE3 {
            for workers in [1, 2] {
                for threaded in [false, true] {
                    let run = |reference: bool| {
                        let rec = Arc::new(RingRecorder::new(1 << 20));
                        let mut probe = Probe::new(model, workers, 2);
                        probe.threaded = threaded;
                        probe.recorder = Some(rec.clone());
                        let run = if reference {
                            fl.relax(&probe, |path| reference_body(&fl, path))
                        } else {
                            fl.run_probe(&probe)
                        }
                        .unwrap();
                        assert_eq!(rec.dropped(), 0);
                        let bits: Vec<u64> =
                            run.output.floats.iter().map(|d| d.to_bits()).collect();
                        (
                            bits,
                            run.stats.modulo_drive_mode(),
                            trace_hash(&rec.events()),
                        )
                    };
                    let (got, want) = (run(false), run(true));
                    let ctx = format!("{model} workers={workers} threaded={threaded}");
                    assert!(got.0 == want.0, "{ctx}: output floats differ");
                    assert_eq!(got.1, want.1, "{ctx}: run stats");
                    assert_eq!(got.2, want.2, "{ctx}: trace hash");
                }
            }
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
        let run = fl.run_probe(&probe).unwrap();
        assert!(
            fl.validate(&seq, &run.output),
            "fixpoint must be the true shortest paths"
        );
        let passes = run.stats.iterations / fl.n as u64;
        assert!(passes <= 4, "stale relaxation converges quickly: {passes}");
        assert!(
            run.stats.retry_rate() < 0.5,
            "improvement writes are sparse: {:.2}",
            run.stats.retry_rate()
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
