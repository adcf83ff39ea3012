//! SG3D — the 27-point 3D stencil of the structured-grids dwarf.
//!
//! "A triply-nested inner loop iterates over points in 3D space, updating
//! their value and tracking the maximum change (error) that occurs at any
//! point. An outer loop tests for convergence … While the stencil
//! computations can tolerate stale reads, the update of the error value
//! must not violate any dependences, or the execution could terminate
//! incorrectly." (Table 2)
//!
//! The error variable therefore needs a reduction: `StaleReads` alone
//! leaves a shared read-modify-write scalar that conflicts on every
//! transaction (`h.c.`), while `[StaleReads + Reduction(err, max)]` runs
//! conflict-free. Annotating `+` instead of `max` also validates — the
//! summed error overestimates the true maximum, so the program converges
//! correctly but needs more sweeps (the paper measures 1670→2752 inner
//! iterations; Figure 11 shows the slowdown).

use crate::common::{rng, uniform_f64s, Benchmark, Scale};
use alter_analyze::absint::{AccessKind, LoopSpec, Member, Words};
use alter_heap::{Heap, ObjData, ObjId};
use alter_infer::{InferTarget, Model, Probe, ProbeRun, ProgramOutput};
use alter_runtime::{
    summarize_dependences, BoundScalar, LoopSummary, RangeSpace, RedOp, RedVal, RedVars, RunError,
    RunStats, TxCtx,
};
use alter_sim::{CostModel, SimClock, SimObserver};

/// The SG3D stencil benchmark.
#[derive(Clone, Debug)]
pub struct Sg3d {
    name: &'static str,
    /// Grid edge length (cells per dimension, including boundary).
    n: usize,
    threshold: f64,
    max_sweeps: usize,
    seed: u64,
}

impl Sg3d {
    /// The benchmark at the given scale (the paper uses 64³/128³ grids;
    /// ours are scaled to the simulated substrate).
    pub fn new(scale: Scale) -> Self {
        Sg3d {
            name: "SG3D",
            n: match scale {
                Scale::Inference => 10,
                Scale::Paper => 16,
            },
            threshold: 1e-7,
            // A realistic iteration cap: a few multiples of the expected
            // sweep count. Degenerate reduction annotations (e.g. ×, whose
            // merged error only reaches the threshold at the exact
            // floating-point fixpoint) run into the cap and are rejected
            // by the validator.
            max_sweeps: 150,
            seed: 0x5637,
        }
    }

    fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        (z * self.n + y) * self.n + x
    }

    /// Interior cell indices, deterministically shuffled. Stencil sweeps
    /// are order-free; the shuffled order spreads each chunk across the
    /// grid, which both balances work and makes the per-transaction error
    /// maxima representative of the global error (the regime in which the
    /// + reduction's overestimate visibly delays convergence, Figure 11).
    fn interior(&self) -> Vec<usize> {
        let mut v = Vec::new();
        for z in 1..self.n - 1 {
            for y in 1..self.n - 1 {
                for x in 1..self.n - 1 {
                    v.push(self.idx(x, y, z));
                }
            }
        }
        // Fisher-Yates with a fixed seed.
        let mut r = rng(self.seed ^ 0x5851);
        for i in (1..v.len()).rev() {
            let j = r.gen_range(0..=i);
            v.swap(i, j);
        }
        v
    }

    /// Source term (fixed, deterministic).
    fn source(&self) -> Vec<f64> {
        uniform_f64s(&mut rng(self.seed), self.n * self.n * self.n, -1.0, 1.0)
    }

    fn relax(cell: f64, avg: f64, f: f64) -> f64 {
        // Damped 27-point diffusion toward the source term: a contraction
        // (factor 0.75 per sweep), so both the sequential (Gauss-Seidel-
        // ordered) and the stale (Jacobi-flavoured) sweeps converge to the
        // same fixed point. The moderate rate means a pessimistic error
        // estimate (the + reduction) costs visibly many extra sweeps.
        let _ = cell;
        0.75 * avg + 0.25 * f
    }

    /// Sequential reference; returns the grid and sweep count.
    pub fn run_sequential_raw(&self) -> (Vec<f64>, usize) {
        let f = self.source();
        let mut grid = vec![0.0; self.n * self.n * self.n];
        let cells = self.interior();
        let mut sweeps = 0;
        loop {
            let mut err = 0.0f64;
            for &c in &cells {
                let (x, y, z) = self.coords(c);
                let mut sum = 0.0;
                for dz in -1i64..=1 {
                    for dy in -1i64..=1 {
                        for dx in -1i64..=1 {
                            let i = self.idx(
                                (x as i64 + dx) as usize,
                                (y as i64 + dy) as usize,
                                (z as i64 + dz) as usize,
                            );
                            sum += grid[i];
                        }
                    }
                }
                let new = Self::relax(grid[c], sum / 27.0, f[c]);
                err = err.max((new - grid[c]).abs());
                grid[c] = new;
            }
            sweeps += 1;
            if err < self.threshold || sweeps >= self.max_sweeps {
                break;
            }
        }
        (grid, sweeps)
    }

    fn coords(&self, c: usize) -> (usize, usize, usize) {
        (c % self.n, (c / self.n) % self.n, c / (self.n * self.n))
    }

    /// The loop's start state: the source term and the sweep order, a
    /// zero grid as one heap object, and the error scalar.
    fn start(&self) -> (Vec<f64>, Vec<usize>, Heap, RedVars, ObjId, BoundScalar) {
        let (f, cells) = (self.source(), self.interior());
        let mut heap = Heap::new();
        let mut reds = RedVars::new();
        let grid = heap.alloc(ObjData::zeros_f64(self.n * self.n * self.n));
        let err = BoundScalar::declare(&mut heap, &mut reds, "err", RedVal::F64(0.0));
        (f, cells, heap, reds, grid, err)
    }

    fn body<'a>(
        &self,
        f: &'a [f64],
        cells: &'a [usize],
        grid: ObjId,
        err: BoundScalar,
    ) -> impl Fn(&mut TxCtx<'_>, u64) + Sync + 'a {
        let n = self.n;
        move |ctx, iter| {
            let c = cells[iter as usize];
            let x = c % n;
            let y = (c / n) % n;
            let z = c / (n * n);
            // Nine 3-wide range reads: one row of three per (dy, dz) pair —
            // the induction-variable-range instrumentation at work.
            let mut sum = 0.0;
            for dz in -1i64..=1 {
                for dy in -1i64..=1 {
                    let base =
                        ((z as i64 + dz) as usize * n + (y as i64 + dy) as usize) * n + (x - 1);
                    sum += ctx
                        .tx
                        .with_f64s(grid, base, base + 3, |row| row[0] + row[1] + row[2]);
                }
            }
            let old = ctx.tx.read_f64(grid, c);
            let new = Self::relax(old, sum / 27.0, f[c]);
            ctx.tx.work(60);
            err.max(ctx, (new - old).abs());
            ctx.tx.write_f64(grid, c, new);
        }
    }

    /// Runs the full program under `probe`.
    ///
    /// # Errors
    ///
    /// Propagates runtime aborts from any sweep.
    #[allow(clippy::type_complexity)]
    pub fn run(&self, probe: &Probe) -> Result<(Vec<f64>, usize, RunStats, SimClock), RunError> {
        let (f, cells, mut heap, mut reds, grid, err) = self.start();
        let params = probe.exec_params(&reds);
        let was_reduced = !params.reductions.is_empty();
        let model = self.cost_model();
        let mut obs = SimObserver::new(&model, params.workers);
        let mut stats = RunStats::default();
        let mut sweeps = 0;
        loop {
            err.seq_set(&mut heap, &mut reds, RedVal::F64(0.0));
            let body = self.body(&f, &cells, grid, err);
            let sweep_stats = alter_runtime::run_loop_observed(
                &mut heap,
                &mut reds,
                &mut RangeSpace::new(0, cells.len() as u64),
                &params,
                probe.driver(),
                body,
                &mut obs,
            )?;
            stats.absorb(&sweep_stats);
            sweeps += 1;
            let e = err.seq_get_sync(&mut heap, &mut reds, was_reduced).as_f64();
            if e < self.threshold || sweeps >= self.max_sweeps {
                break;
            }
        }
        let mut clock = obs.into_clock();
        clock.add_sequential(sweeps as f64 * 10.0);
        let grid = heap.get(grid).f64s().to_vec();
        Ok((grid, sweeps, stats, clock))
    }
}

impl InferTarget for Sg3d {
    fn name(&self) -> &str {
        self.name
    }

    fn run_sequential(&self) -> ProgramOutput {
        let (grid, sweeps) = self.run_sequential_raw();
        ProgramOutput {
            floats: grid,
            ints: vec![sweeps as i64],
        }
    }

    fn run_probe(&self, probe: &Probe) -> Result<ProbeRun, RunError> {
        let (grid, sweeps, stats, clock) = self.run(probe)?;
        Ok(ProbeRun {
            output: ProgramOutput {
                floats: grid,
                ints: vec![sweeps as i64],
            },
            stats,
            clock,
        })
    }

    fn probe_summary(&self) -> LoopSummary {
        let (f, cells, mut heap, _, grid, err) = self.start();
        let body = self.body(&f, &cells, grid, err);
        let mut s =
            summarize_dependences(&mut heap, &mut RangeSpace::new(0, cells.len() as u64), body);
        s.label("err", err.object());
        s
    }

    fn loop_spec(&self) -> Option<LoopSpec> {
        let words = (self.n * self.n * self.n) as u32;
        let (_, cells, heap, _, grid, err) = self.start();
        let mut spec = LoopSpec::new(cells.len() as u64, heap.high_water());
        // The shuffled sweep order makes the stencil's 27-point neighbour
        // window and own-cell write data-dependent per ordinal; the error
        // maximum is the one shared scalar, updated every iteration.
        let grid_r = spec.region("grid", vec![grid], words);
        spec.access(
            grid_r,
            Member::At(0),
            Words::Unknown { bound: words },
            AccessKind::Read,
        );
        spec.access(
            grid_r,
            Member::At(0),
            Words::Unknown { bound: words },
            AccessKind::Write,
        );
        let err_r = spec.labeled_region("err", err.object(), "err");
        spec.access(
            err_r,
            Member::At(0),
            Words::Range { lo: 0, hi: 1 },
            AccessKind::Reduce(RedOp::Max),
        );
        Some(spec)
    }

    fn reduction_candidates(&self) -> Vec<String> {
        vec!["err".into()]
    }

    fn validate(&self, reference: &ProgramOutput, candidate: &ProgramOutput) -> bool {
        if candidate.ints.first().copied().unwrap_or(0) >= self.max_sweeps as i64 {
            return false;
        }
        let r = ProgramOutput::from_floats(reference.floats.clone());
        let c = ProgramOutput::from_floats(candidate.floats.clone());
        r.approx_eq(&c, 1e-4)
    }
}

impl Benchmark for Sg3d {
    fn loop_weight(&self) -> f64 {
        0.96 // Table 2
    }

    fn chunk_factor(&self) -> usize {
        4 // Table 4: SG3D cf = 4
    }

    fn best_config(&self) -> (Model, Option<(String, RedOp)>) {
        (Model::StaleReads, Some(("err".into(), RedOp::Max)))
    }

    fn cost_model(&self) -> CostModel {
        CostModel::memory_bound(3.0) // stencils stream memory
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alter_infer::{infer, InferConfig};

    fn tiny() -> Sg3d {
        Sg3d {
            name: "SG3D",
            n: 6,
            threshold: 1e-7,
            max_sweeps: 150,
            seed: 4,
        }
    }

    #[test]
    fn sequential_stencil_converges() {
        let sg = tiny();
        let (grid, sweeps) = sg.run_sequential_raw();
        assert!(sweeps > 2 && sweeps < sg.max_sweeps);
        assert!(grid.iter().all(|v| v.is_finite()));
        // Boundary cells stay zero.
        assert_eq!(grid[sg.idx(0, 3, 3)], 0.0);
    }

    #[test]
    fn stale_with_max_reduction_matches_and_is_conflict_free() {
        let sg = tiny();
        let seq = sg.run_sequential();
        let mut probe = Probe::new(Model::StaleReads, 4, 4);
        probe.reduction = Some(("err".into(), RedOp::Max));
        let run = sg.run_probe(&probe).unwrap();
        assert!(sg.validate(&seq, &run.output));
        assert_eq!(run.stats.retries(), 0, "disjoint writes: no WAW conflicts");
    }

    #[test]
    fn plus_reduction_validates_but_converges_slower() {
        let sg = tiny();
        let seq = sg.run_sequential();
        let mut max_probe = Probe::new(Model::StaleReads, 4, 4);
        max_probe.reduction = Some(("err".into(), RedOp::Max));
        let mut add_probe = Probe::new(Model::StaleReads, 4, 4);
        add_probe.reduction = Some(("err".into(), RedOp::Add));
        let with_max = sg.run_probe(&max_probe).unwrap();
        let with_add = sg.run_probe(&add_probe).unwrap();
        assert!(
            sg.validate(&seq, &with_add.output),
            "+ still converges correctly"
        );
        assert!(
            with_add.output.ints[0] > with_max.output.ints[0],
            "+ overestimates the error and needs more sweeps: {} !> {}",
            with_add.output.ints[0],
            with_max.output.ints[0]
        );
    }

    #[test]
    fn stale_alone_has_high_conflicts() {
        let sg = tiny();
        let probe = Probe::new(Model::StaleReads, 4, 4);
        let run = sg.run_probe(&probe).unwrap();
        assert!(
            run.stats.retry_rate() > 0.5,
            "unannotated err serializes: {:.2}",
            run.stats.retry_rate()
        );
    }

    #[test]
    fn inference_finds_stale_plus_reduction() {
        let sg = tiny();
        let report = infer(
            &sg,
            &InferConfig {
                workers: 4,
                chunk: 4,
                ..Default::default()
            },
        );
        assert!(report.dep.any());
        assert!(!report.stale_reads.is_success());
        assert!(!report.out_of_order.is_success());
        assert!(!report.tls.is_success());
        let ok = report.successful_reductions();
        assert!(
            ok.iter()
                .any(|r| r.op == RedOp::Max && r.model == Model::StaleReads),
            "StaleReads + Reduction(err, max) must be valid"
        );
        // The paper's Table 3 lists max/+ for SG3D.
        assert!(report.reduction_cell().contains("max"));
    }
}
