//! FFT — the two-dimensional iterative FFT solver of the spectral-methods
//! dwarf (from the Parallel Dwarfs project).
//!
//! The row loop has no loop-carried dependences: each iteration performs an
//! in-place radix-2 FFT of its own row. Nonetheless the paper measures a
//! *slowdown* under ALTER: "FFT uses a complex data type, which results in
//! many copy constructors that are instrumented by ALTER" (§7.2). We mirror
//! that faithfully — every butterfly reads and writes its complex operands
//! element-by-element through the instrumented heap, so instrumentation and
//! copy-on-write overhead dwarf the arithmetic (Figure 13 shows speedup
//! < 1).

use crate::common::{rng, uniform_f64s, Benchmark, Scale};
use alter_analyze::absint::{AccessKind, LoopSpec, Member, Words};
use alter_heap::{Heap, ObjData, ObjId};
use alter_infer::{InferTarget, Model, Probe, ProbeRun, ProgramOutput};
use alter_runtime::{
    summarize_dependences, LoopSummary, RangeSpace, RedOp, RedVars, RunError, TxCtx,
};
use alter_sim::CostModel;

/// The 2D FFT benchmark.
#[derive(Clone, Debug)]
pub struct Fft {
    name: &'static str,
    /// Rows (each a size-`cols` complex signal; both powers of two).
    rows: usize,
    cols: usize,
    seed: u64,
}

impl Fft {
    /// The benchmark at the given scale (the paper transforms 1024/2048-
    /// point inputs).
    pub fn new(scale: Scale) -> Self {
        let (rows, cols) = match scale {
            Scale::Inference => (32, 32),
            Scale::Paper => (64, 64),
        };
        Fft {
            name: "FFT",
            rows,
            cols,
            seed: 0xff7,
        }
    }

    /// Deterministic complex input, interleaved (re, im) per row.
    pub fn input(&self) -> Vec<Vec<f64>> {
        let mut r = rng(self.seed);
        (0..self.rows)
            .map(|_| uniform_f64s(&mut r, 2 * self.cols, -1.0, 1.0))
            .collect()
    }

    /// In-place radix-2 FFT over an interleaved complex buffer.
    fn fft_inplace(buf: &mut [f64]) {
        let n = buf.len() / 2;
        // Bit-reversal permutation.
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                buf.swap(2 * i, 2 * j);
                buf.swap(2 * i + 1, 2 * j + 1);
            }
        }
        let mut len = 2;
        while len <= n {
            let ang = -2.0 * std::f64::consts::PI / len as f64;
            let (wr, wi) = (ang.cos(), ang.sin());
            let mut i = 0;
            while i < n {
                let (mut cr, mut ci) = (1.0, 0.0);
                for k in 0..len / 2 {
                    let a = i + k;
                    let b = i + k + len / 2;
                    let (ar, ai) = (buf[2 * a], buf[2 * a + 1]);
                    let (br, bi) = (buf[2 * b], buf[2 * b + 1]);
                    let (tr, ti) = (br * cr - bi * ci, br * ci + bi * cr);
                    buf[2 * a] = ar + tr;
                    buf[2 * a + 1] = ai + ti;
                    buf[2 * b] = ar - tr;
                    buf[2 * b + 1] = ai - ti;
                    let (ncr, nci) = (cr * wr - ci * wi, cr * wi + ci * wr);
                    cr = ncr;
                    ci = nci;
                }
                i += len;
            }
            len <<= 1;
        }
    }

    /// Sequential reference: FFT of every row.
    pub fn run_sequential_raw(&self) -> Vec<f64> {
        let mut rows = self.input();
        for row in &mut rows {
            Self::fft_inplace(row);
        }
        rows.into_iter().flatten().collect()
    }

    /// The loop's start state: one heap object per input row.
    fn start(&self) -> (Heap, RedVars, Vec<ObjId>) {
        let mut heap = Heap::new();
        let row_objs = self
            .input()
            .into_iter()
            .map(|row| heap.alloc(ObjData::F64(row)))
            .collect();
        (heap, RedVars::new(), row_objs)
    }

    fn body<'a>(&self, row_objs: &'a [ObjId]) -> impl Fn(&mut TxCtx<'_>, u64) + Sync + 'a {
        let cols = self.cols;
        move |ctx, iter| {
            let obj = row_objs[iter as usize];
            let n = cols;
            // Element-granular butterflies: each complex load/store goes
            // through the instrumented heap, like the paper's instrumented
            // copy constructors.
            let mut j = 0usize;
            for i in 1..n {
                let mut bit = n >> 1;
                while j & bit != 0 {
                    j ^= bit;
                    bit >>= 1;
                }
                j |= bit;
                if i < j {
                    for off in 0..2 {
                        let a = ctx.tx.read_f64(obj, 2 * i + off);
                        let b = ctx.tx.read_f64(obj, 2 * j + off);
                        ctx.tx.write_f64(obj, 2 * i + off, b);
                        ctx.tx.write_f64(obj, 2 * j + off, a);
                    }
                }
            }
            let mut len = 2;
            while len <= n {
                let ang = -2.0 * std::f64::consts::PI / len as f64;
                let (wr, wi) = (ang.cos(), ang.sin());
                let mut i = 0;
                while i < n {
                    let (mut cr, mut ci) = (1.0, 0.0);
                    for k in 0..len / 2 {
                        let a = i + k;
                        let b = i + k + len / 2;
                        let (ar, ai) =
                            (ctx.tx.read_f64(obj, 2 * a), ctx.tx.read_f64(obj, 2 * a + 1));
                        let (br, bi) =
                            (ctx.tx.read_f64(obj, 2 * b), ctx.tx.read_f64(obj, 2 * b + 1));
                        let (tr, ti) = (br * cr - bi * ci, br * ci + bi * cr);
                        ctx.tx.write_f64(obj, 2 * a, ar + tr);
                        ctx.tx.write_f64(obj, 2 * a + 1, ai + ti);
                        ctx.tx.write_f64(obj, 2 * b, ar - tr);
                        ctx.tx.write_f64(obj, 2 * b + 1, ai - ti);
                        ctx.tx.work(4);
                        let (ncr, nci) = (cr * wr - ci * wi, cr * wi + ci * wr);
                        cr = ncr;
                        ci = nci;
                    }
                    i += len;
                }
                len <<= 1;
            }
        }
    }
}

impl InferTarget for Fft {
    fn name(&self) -> &str {
        self.name
    }

    fn run_sequential(&self) -> ProgramOutput {
        ProgramOutput::from_floats(self.run_sequential_raw())
    }

    fn run_probe(&self, probe: &Probe) -> Result<ProbeRun, RunError> {
        let (mut heap, mut reds, row_objs) = self.start();
        let model = self.cost_model();
        probe.session(&mut reds, &model, |mut session, reds| {
            let space = &mut RangeSpace::new(0, self.rows as u64);
            session.run_loop(&mut heap, reds, space, self.body(&row_objs))?;
            let out: Vec<f64> = row_objs
                .iter()
                .flat_map(|o| heap.get(*o).f64s().to_vec())
                .collect();
            Ok(session.finish(ProgramOutput::from_floats(out), 0.0))
        })
    }

    fn probe_summary(&self) -> LoopSummary {
        let (mut heap, _, row_objs) = self.start();
        let body = self.body(&row_objs);
        summarize_dependences(&mut heap, &mut RangeSpace::new(0, self.rows as u64), body)
    }

    fn loop_spec(&self) -> Option<LoopSpec> {
        let (heap, _, rows) = self.start();
        let width = (2 * self.cols) as u32;
        let mut spec = LoopSpec::new(self.rows as u64, heap.high_water());
        // Each iteration FFTs its own interleaved row in place — the whole
        // row is read and rewritten, but rows are ordinal-injective, so no
        // iteration touches another's (Table 3: Dep = No).
        let r = spec.region("rows", rows, width);
        spec.access(
            r,
            Member::Each,
            Words::Range { lo: 0, hi: width },
            AccessKind::Update,
        );
        Some(spec)
    }

    fn validate(&self, reference: &ProgramOutput, candidate: &ProgramOutput) -> bool {
        reference.approx_eq(candidate, 1e-9)
    }
}

impl Benchmark for Fft {
    fn loop_weight(&self) -> f64 {
        1.0 // Table 2 (both loops combined)
    }

    fn chunk_factor(&self) -> usize {
        2
    }

    fn best_config(&self) -> (Model, Option<(String, RedOp)>) {
        (Model::StaleReads, None)
    }

    fn cost_model(&self) -> CostModel {
        // Every complex assignment goes through an instrumented copy
        // constructor — a call plus instrumentation rather than a plain
        // store — which is the overhead the paper blames for FFT's
        // slowdown ("this effect could be avoided by a more precise alias
        // analysis or via conversion of complex types to primitive types",
        // §7.2).
        CostModel {
            per_instr_op: 20.0,
            ..CostModel::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alter_infer::{infer, InferConfig};

    fn tiny() -> Fft {
        Fft {
            name: "FFT",
            rows: 8,
            cols: 16,
            seed: 11,
        }
    }

    #[test]
    fn fft_of_constant_signal_concentrates_in_dc() {
        let mut buf = vec![0.0; 32]; // 16 complex points
        for i in 0..16 {
            buf[2 * i] = 1.0;
        }
        Fft::fft_inplace(&mut buf);
        assert!((buf[0] - 16.0).abs() < 1e-9, "DC bin = N");
        assert!(buf[2..].iter().all(|v| v.abs() < 1e-9), "other bins zero");
    }

    #[test]
    fn parallel_rows_match_sequential_exactly() {
        let f = tiny();
        let seq = f.run_sequential();
        let run = f.run_probe(&Probe::new(Model::StaleReads, 4, 2)).unwrap();
        assert!(f.validate(&seq, &run.output));
        assert_eq!(run.stats.retries(), 0);
    }

    #[test]
    fn no_dependences_and_all_models_succeed() {
        let f = tiny();
        let report = infer(
            &f,
            &InferConfig {
                workers: 4,
                chunk: 2,
                ..Default::default()
            },
        );
        assert!(!report.dep.any());
        assert!(report.tls.is_success());
        assert!(report.out_of_order.is_success());
        assert!(report.stale_reads.is_success());
    }

    #[test]
    fn instrumentation_overhead_causes_slowdown() {
        // The Figure 13 effect: ALTER makes FFT slower than sequential.
        let f = tiny();
        let clock = f
            .run_probe(&Probe::new(Model::StaleReads, 4, 2))
            .unwrap()
            .clock;
        assert!(
            clock.speedup() < 1.0,
            "element-wise instrumentation must dominate: {:.2}",
            clock.speedup()
        );
    }
}
