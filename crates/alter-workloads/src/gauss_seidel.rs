//! GSdense / GSsparse — the Gauss-Seidel iterative solver of Figure 1.
//!
//! ```c
//! while (CheckConvergence(A, X, B, n) == 0) {
//!   [StaleReads]
//!   for (i = 0; i < n; i++) {
//!     sum  = scalarProduct(A[i], X);        // reads ALL of X
//!     sum -= A[i][i] * X[i];
//!     X[i] = (B[i] - sum) / A[i][i];        // writes X[i]
//!   }
//! }
//! ```
//!
//! The inner loop has a tight RAW dependence chain (every write of `X[i]` is
//! read by every later iteration), so speculation and out-of-order commit
//! serialize completely. Under `StaleReads` the writes are disjoint — no
//! WAW conflicts at all — and the algorithm tolerates the stale reads: with
//! a strictly diagonally dominant matrix both the sequential sweep and the
//! chunked-stale sweep are convergent fixed-point iterations with the same
//! fixed point, costing at most a couple of extra sweeps (the paper
//! measures 16→17 dense, 20→21 sparse).
//!
//! `A` and `b` are loop-invariant inputs and live outside the transactional
//! heap (the paper's dominating-instrumentation optimization makes their
//! reads free); the solution vector `X` is one heap allocation.

use crate::common::{rng, uniform_f64s, Benchmark, Scale};
use alter_analyze::absint::{AccessKind, LoopSpec, Member, Words};
use alter_heap::{Heap, ObjData, ObjId};
use alter_infer::{InferTarget, Model, Probe, ProbeRun, ProgramOutput};
use alter_runtime::{
    summarize_dependences, LoopSummary, RangeSpace, RedOp, RedVars, RunError, TxCtx,
};
use alter_sim::CostModel;

/// Sparse/dense system `Ax = b` with a strictly diagonally dominant `A`.
#[derive(Clone, Debug)]
pub struct System {
    /// Off-diagonal entries per row: `(column, value)`.
    pub rows: Vec<Vec<(usize, f64)>>,
    /// Diagonal entries.
    pub diag: Vec<f64>,
    /// Right-hand side.
    pub b: Vec<f64>,
}

impl System {
    /// Number of unknowns.
    pub fn n(&self) -> usize {
        self.diag.len()
    }

    /// Max-norm residual `‖b − Ax‖∞` — the paper's `CheckConvergence`.
    pub fn residual(&self, x: &[f64]) -> f64 {
        let mut worst = 0.0f64;
        for i in 0..self.n() {
            let mut ax = self.diag[i] * x[i];
            for &(j, v) in &self.rows[i] {
                ax += v * x[j];
            }
            worst = worst.max((self.b[i] - ax).abs());
        }
        worst
    }
}

/// The Gauss-Seidel benchmark (dense or sparse variant).
#[derive(Clone, Debug)]
pub struct GaussSeidel {
    name: &'static str,
    n: usize,
    /// Off-diagonal nonzeros per row; `None` = dense.
    nnz: Option<usize>,
    eps: f64,
    max_sweeps: usize,
    seed: u64,
}

impl GaussSeidel {
    /// The GSdense benchmark at the given scale.
    pub fn dense(scale: Scale) -> Self {
        GaussSeidel {
            name: "GSdense",
            n: match scale {
                Scale::Inference => 64,
                Scale::Paper => 320,
            },
            nnz: None,
            eps: 1e-9,
            max_sweeps: 400,
            seed: 0x65de,
        }
    }

    /// The GSsparse benchmark at the given scale.
    pub fn sparse(scale: Scale) -> Self {
        GaussSeidel {
            name: "GSsparse",
            n: match scale {
                Scale::Inference => 512,
                Scale::Paper => 2048,
            },
            nnz: Some(8),
            eps: 1e-9,
            max_sweeps: 400,
            seed: 0x65e5,
        }
    }

    /// Generates the system deterministically from the benchmark seed.
    pub fn build(&self) -> System {
        let mut r = rng(self.seed);
        let mut rows = Vec::with_capacity(self.n);
        let mut diag = Vec::with_capacity(self.n);
        for i in 0..self.n {
            let mut row: Vec<(usize, f64)> = match self.nnz {
                None => (0..self.n)
                    .filter(|&j| j != i)
                    .map(|j| (j, r.gen_range(-1.0..1.0)))
                    .collect(),
                Some(k) => {
                    let mut cols = Vec::new();
                    while cols.len() < k.min(self.n - 1) {
                        let j = r.gen_range(0..self.n);
                        if j != i && !cols.contains(&j) {
                            cols.push(j);
                        }
                    }
                    cols.into_iter()
                        .map(|j| (j, r.gen_range(-1.0..1.0)))
                        .collect()
                }
            };
            row.sort_by_key(|&(j, _)| j);
            // Strict diagonal dominance: |a_ii| = 2 Σ|a_ij| guarantees both
            // the sequential and the stale-reads sweep converge.
            let off: f64 = row.iter().map(|&(_, v)| v.abs()).sum();
            diag.push(2.0 * off.max(1.0));
            rows.push(row);
        }
        let b = uniform_f64s(&mut r, self.n, -1.0, 1.0);
        System { rows, diag, b }
    }

    /// Plain sequential Gauss-Seidel; returns the solution and sweep count.
    /// Convergence is detected by the max change of a sweep dropping below
    /// `eps` — an O(n) check, like the paper's per-sweep CheckConvergence.
    pub fn solve_sequential(&self) -> (Vec<f64>, usize) {
        let sys = self.build();
        let mut x = vec![0.0; sys.n()];
        let mut sweeps = 0;
        loop {
            let mut change = 0.0f64;
            for i in 0..sys.n() {
                let mut sum = 0.0;
                for &(j, v) in &sys.rows[i] {
                    sum += v * x[j];
                }
                let new = (sys.b[i] - sum) / sys.diag[i];
                change = change.max((new - x[i]).abs());
                x[i] = new;
            }
            sweeps += 1;
            if change <= self.eps || sweeps >= self.max_sweeps {
                break;
            }
        }
        (x, sweeps)
    }

    /// The loop's start state: the system, and a zero solution vector as
    /// one heap object.
    fn start(&self) -> (System, Heap, RedVars, ObjId) {
        let sys = self.build();
        let mut heap = Heap::new();
        let xvec = heap.alloc(ObjData::zeros_f64(sys.n()));
        (sys, heap, RedVars::new(), xvec)
    }

    fn body<'a>(&self, sys: &'a System, xvec: ObjId) -> impl Fn(&mut TxCtx<'_>, u64) + Sync + 'a {
        let dense = self.nnz.is_none();
        let n = sys.n();
        move |ctx, iter| {
            let i = iter as usize;
            let sum = if dense {
                // scalarProduct reads all of XVector: one range read.
                ctx.tx.with_f64s(xvec, 0, n, |x| {
                    sys.rows[i].iter().map(|&(j, v)| v * x[j]).sum::<f64>()
                })
            } else {
                // Sparse rows read only their nonzero columns.
                let mut sum = 0.0;
                for &(j, v) in &sys.rows[i] {
                    sum += v * ctx.tx.read_f64(xvec, j);
                }
                sum
            };
            ctx.tx.work(2 * sys.rows[i].len() as u64);
            // The matrix row streams from memory even though it is
            // loop-invariant (uninstrumented): it dominates the kernel's
            // bandwidth demand.
            ctx.tx.traffic(sys.rows[i].len() as u64);
            ctx.tx.write_f64(xvec, i, (sys.b[i] - sum) / sys.diag[i]);
        }
    }

    /// Runs the full program (outer convergence loop + inner ALTER loop)
    /// under `probe`, charging virtual time under `model`:
    /// [`InferTarget::run_probe`] passes the benchmark's own cost model, and
    /// the manual-parallelization baseline of Figure 9 reuses the same
    /// execution with the instrumentation and commit costs stripped. The
    /// output's one int is the sweep count.
    ///
    /// # Errors
    ///
    /// Propagates runtime aborts from any sweep.
    pub fn run_with_model(&self, probe: &Probe, model: &CostModel) -> Result<ProbeRun, RunError> {
        let (sys, mut heap, mut reds, xvec) = self.start();
        probe.session(&mut reds, model, |mut session, reds| {
            let mut sweeps = 0;
            loop {
                let before: Vec<f64> = heap.get(xvec).f64s().to_vec();
                let space = &mut RangeSpace::new(0, sys.n() as u64);
                session.run_loop(&mut heap, reds, space, self.body(&sys, xvec))?;
                sweeps += 1;
                let change = heap
                    .get(xvec)
                    .f64s()
                    .iter()
                    .zip(&before)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max);
                if change <= self.eps || sweeps >= self.max_sweeps {
                    break;
                }
            }
            let output = ProgramOutput {
                floats: heap.get(xvec).f64s().to_vec(),
                ints: vec![sweeps as i64],
            };
            // The per-sweep O(n) convergence check is sequential program text.
            Ok(session.finish(output, sweeps as f64 * sys.n() as f64 * 3.0))
        })
    }
}

impl InferTarget for GaussSeidel {
    fn name(&self) -> &str {
        self.name
    }

    fn run_sequential(&self) -> ProgramOutput {
        let (x, sweeps) = self.solve_sequential();
        ProgramOutput {
            floats: x,
            ints: vec![sweeps as i64],
        }
    }

    fn run_probe(&self, probe: &Probe) -> Result<ProbeRun, RunError> {
        self.run_with_model(probe, &self.cost_model())
    }

    fn probe_summary(&self) -> LoopSummary {
        let (sys, mut heap, _, xvec) = self.start();
        let body = self.body(&sys, xvec);
        summarize_dependences(&mut heap, &mut RangeSpace::new(0, sys.n() as u64), body)
    }

    fn loop_spec(&self) -> Option<LoopSpec> {
        let n = self.n as u32;
        let (_, heap, _, xvec) = self.start();
        let mut spec = LoopSpec::new(self.n as u64, heap.high_water());
        let x_r = spec.region("x", vec![xvec], n);
        // Dense rows scan the whole solution vector; sparse rows read only
        // their (data-dependent) nonzero columns. Either way iteration i
        // blind-writes its own slot X[i] — the Figure 1 RAW chain with
        // provably disjoint writes.
        match self.nnz {
            None => spec.access(
                x_r,
                Member::At(0),
                Words::Range { lo: 0, hi: n },
                AccessKind::Read,
            ),
            Some(_) => spec.access(
                x_r,
                Member::At(0),
                Words::Unknown { bound: n },
                AccessKind::Read,
            ),
        }
        spec.access(
            x_r,
            Member::At(0),
            Words::Affine {
                scale: 1,
                offset: 0,
                width: 1,
            },
            AccessKind::Write,
        );
        Some(spec)
    }

    fn validate(&self, reference: &ProgramOutput, candidate: &ProgramOutput) -> bool {
        // Both executions must converge to the solution of Ax = b; the
        // sweep counts (ints) may legitimately differ.
        if candidate.ints.first().copied().unwrap_or(0) >= self.max_sweeps as i64 {
            return false; // never converged
        }
        let r = ProgramOutput::from_floats(reference.floats.clone());
        let c = ProgramOutput::from_floats(candidate.floats.clone());
        r.approx_eq(&c, 1e-4)
    }
}

impl Benchmark for GaussSeidel {
    fn loop_weight(&self) -> f64 {
        1.0 // Table 2: 100%
    }

    fn chunk_factor(&self) -> usize {
        32 // Table 4: GSdense 32, GSsparse 32
    }

    fn best_config(&self) -> (Model, Option<(String, RedOp)>) {
        (Model::StaleReads, None)
    }

    fn cost_model(&self) -> CostModel {
        // "both GSdense and GSsparse are memory bound and hence do not
        // scale well beyond 4 cores" (§7.2). With roughly two flops per
        // streamed word, a shared budget of 1.2 words per time unit caps
        // the kernel around 2.5x.
        CostModel::memory_bound(1.2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alter_infer::{infer, InferConfig, Outcome};

    fn tiny() -> GaussSeidel {
        GaussSeidel {
            name: "GSdense",
            n: 24,
            nnz: None,
            eps: 1e-9,
            max_sweeps: 300,
            seed: 1,
        }
    }

    fn tiny_sparse() -> GaussSeidel {
        GaussSeidel {
            name: "GSsparse",
            n: 64,
            nnz: Some(4),
            eps: 1e-9,
            max_sweeps: 300,
            seed: 2,
        }
    }

    #[test]
    fn sequential_solver_actually_solves_the_system() {
        for gs in [tiny(), tiny_sparse()] {
            let sys = gs.build();
            let (x, sweeps) = gs.solve_sequential();
            assert!(sys.residual(&x) <= gs.eps, "{}", gs.name);
            assert!(sweeps > 1 && sweeps < gs.max_sweeps);
        }
    }

    #[test]
    fn stale_reads_converges_to_the_same_solution() {
        for gs in [tiny(), tiny_sparse()] {
            let seq = gs.run_sequential();
            let probe = Probe::new(Model::StaleReads, 4, 4);
            let run = gs.run_probe(&probe).unwrap();
            assert!(gs.validate(&seq, &run.output), "{}", gs.name);
            assert_eq!(run.stats.retries(), 0, "no WAW conflicts for {}", gs.name);
            // Broken RAW dependences may cost a few extra sweeps.
            let seq_sweeps = seq.ints[0];
            let par_sweeps = run.output.ints[0];
            assert!(
                par_sweeps >= seq_sweeps && par_sweeps <= seq_sweeps + 8,
                "{}: {seq_sweeps} -> {par_sweeps}",
                gs.name
            );
        }
    }

    #[test]
    fn inference_finds_only_stale_reads() {
        let gs = tiny();
        let report = infer(
            &gs,
            &InferConfig {
                workers: 4,
                chunk: 4,
                ..Default::default()
            },
        );
        assert!(report.dep.raw, "tight RAW chain");
        assert!(!report.dep.waw, "writes are disjoint");
        assert!(
            report.stale_reads.is_success(),
            "stale: {}",
            report.stale_reads
        );
        assert!(!report.tls.is_success(), "tls must fail: {}", report.tls);
        assert!(
            !report.out_of_order.is_success(),
            "ooo must fail: {}",
            report.out_of_order
        );
        assert!(matches!(
            report.tls,
            Outcome::HighConflicts | Outcome::Timeout
        ));
    }

    #[test]
    fn speedup_is_positive_and_saturates_with_bandwidth() {
        let gs = tiny_sparse();
        let s2 = gs.run_probe(&gs.best_probe(2)).unwrap().clock.speedup();
        let s4 = gs.run_probe(&gs.best_probe(4)).unwrap().clock.speedup();
        assert!(s2 > 1.0, "2 workers must speed up: {s2:.2}");
        assert!(s4 > s2 * 0.9, "4 workers no worse: {s2:.2} -> {s4:.2}");
    }
}
