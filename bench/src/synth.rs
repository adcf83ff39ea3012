//! `synth-fat` — the benchmark-owned control workload.
//!
//! Each iteration reads 64 words of a shared, never-written table through
//! one range read, does ≈ 85 µs of multiply-add work on them and writes 8
//! words of an object no other iteration touches. The body is so fat that
//! the engine's fixed costs vanish next to it, so the workload bypasses
//! every engine optimisation: the prediction for any engine change is "no
//! change" here, and a 2-worker scaling well below 2 says the box does not
//! have two hardware threads free right now.
//!
//! The work is one dependent chain, bound by floating-point latency and not
//! by issue width, on purpose: the two vCPUs of a small VM are often sibling
//! hyperthreads of one core, where two issue-bound threads gain nothing over
//! one but two latency-bound threads both run at full speed. The control has
//! to tell "two threads are running" from "one is", not measure the core.
//!
//! The plain-Rust twin runs the same [`kernel`] over a `Vec`, so outputs are
//! compared bit for bit.

use alter_heap::{Heap, ObjData, ObjId};
use alter_infer::{InferTarget, Model, Probe, ProbeRun, ProgramOutput};
use alter_runtime::{
    summarize_dependences, LoopBuilder, LoopSummary, RangeSpace, RedOp, RedVars, RunError, TxCtx,
};
use alter_sim::SimClock;
use alter_workloads::common::{rng, uniform_f64s, uniform_usizes};
use alter_workloads::Benchmark;

/// Words in the shared table.
const TABLE_WORDS: usize = 4096;
/// Words each iteration reads.
const READ_WORDS: usize = 64;
/// Words each iteration writes.
const OUT_WORDS: usize = 8;
/// Passes over the 64 words per output word; sets the ≈ 85 µs body.
const PASSES: usize = 66;

/// The per-iteration computation, shared by the plain twin and the
/// transactional body: one multiply-add chain swept over the words `PASSES`
/// times per output word, each output being the chain's value so far.
#[inline(never)]
pub fn kernel(words: &[f64], i: u64) -> [f64; OUT_WORDS] {
    let mut out = [0.0f64; OUT_WORDS];
    let mut acc = i as f64 * 1e-3;
    for slot in &mut out {
        for _ in 0..PASSES {
            for w in words {
                acc = acc * 0.999_999 + *w;
            }
        }
        *slot = acc;
    }
    out
}

/// The seeded control workload.
#[derive(Clone, Debug)]
pub struct SynthFat {
    table: Vec<f64>,
    offsets: Vec<usize>,
}

impl SynthFat {
    /// Generates the inputs for `iters` iterations from `seed`. This is the
    /// only place the seed is used: the program below sees inputs only.
    pub fn new(seed: u64, iters: usize) -> Self {
        let mut r = rng(seed ^ 0x5f47_fa75);
        SynthFat {
            table: uniform_f64s(&mut r, TABLE_WORDS, -1.0, 1.0),
            offsets: uniform_usizes(&mut r, iters, TABLE_WORDS - READ_WORDS),
        }
    }

    /// The generated inputs as bytes.
    #[cfg(test)]
    fn input_bytes(&self) -> Vec<u8> {
        let words = self.table.iter().map(|w| w.to_bits());
        let offs = self.offsets.iter().map(|o| *o as u64);
        words.chain(offs).flat_map(u64::to_le_bytes).collect()
    }

    /// The plain-Rust twin: no heap, no transactions.
    pub fn run_plain(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.offsets.len() * OUT_WORDS];
        for (i, (off, dst)) in self
            .offsets
            .iter()
            .zip(out.chunks_exact_mut(OUT_WORDS))
            .enumerate()
        {
            dst.copy_from_slice(&kernel(&self.table[*off..*off + READ_WORDS], i as u64));
        }
        out
    }

    /// The committed start state: the table plus one output object per
    /// iteration.
    fn build_heap(&self) -> (Heap, ObjId, Vec<ObjId>) {
        let mut heap = Heap::new();
        let table = heap.alloc(ObjData::F64(self.table.clone()));
        let outs = (0..self.offsets.len())
            .map(|_| heap.alloc(ObjData::zeros_f64(OUT_WORDS)))
            .collect();
        (heap, table, outs)
    }

    fn body<'a>(
        &'a self,
        table: ObjId,
        outs: &'a [ObjId],
    ) -> impl Fn(&mut TxCtx<'_>, u64) + Sync + 'a {
        move |ctx, i| {
            let off = self.offsets[i as usize];
            let r = ctx
                .tx
                .with_f64s(table, off, off + READ_WORDS, |w| kernel(w, i));
            ctx.tx.work((PASSES * READ_WORDS * OUT_WORDS) as u64);
            ctx.tx.write_f64s(outs[i as usize], 0, &r);
        }
    }
}

impl InferTarget for SynthFat {
    fn name(&self) -> &str {
        "synth-fat"
    }

    fn run_sequential(&self) -> ProgramOutput {
        ProgramOutput::from_floats(self.run_plain())
    }

    fn run_probe(&self, probe: &Probe) -> Result<ProbeRun, RunError> {
        let (mut heap, table, outs) = self.build_heap();
        let params = probe.exec_params(&RedVars::new());
        let stats = LoopBuilder::new(&params)
            .range(0, self.offsets.len() as u64)
            .run(&mut heap, probe.driver(), self.body(table, &outs))?;
        let floats = outs
            .iter()
            .flat_map(|o| heap.get(*o).f64s().iter().copied())
            .collect();
        Ok(ProbeRun {
            output: ProgramOutput::from_floats(floats),
            stats,
            clock: SimClock::default(),
        })
    }

    fn probe_summary(&self) -> LoopSummary {
        let (mut heap, table, outs) = self.build_heap();
        summarize_dependences(
            &mut heap,
            &mut RangeSpace::new(0, self.offsets.len() as u64),
            self.body(table, &outs),
        )
    }

    /// Bitwise: the twin runs the very same arithmetic.
    fn validate(&self, reference: &ProgramOutput, candidate: &ProgramOutput) -> bool {
        reference.ints == candidate.ints
            && reference.floats.len() == candidate.floats.len()
            && reference
                .floats
                .iter()
                .zip(&candidate.floats)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl Benchmark for SynthFat {
    fn chunk_factor(&self) -> usize {
        16
    }

    fn best_config(&self) -> (Model, Option<(String, RedOp)>) {
        (Model::StaleReads, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_input() {
        let a = SynthFat::new(11, 64);
        let b = SynthFat::new(11, 64);
        let c = SynthFat::new(12, 64);
        assert_eq!(a.input_bytes(), b.input_bytes());
        assert_ne!(a.input_bytes(), c.input_bytes());
        assert_eq!(a.run_plain(), b.run_plain());
        assert_ne!(a.run_plain(), c.run_plain());
    }

    #[test]
    fn one_and_two_worker_outputs_equal_the_plain_twin_bitwise() {
        let w = SynthFat::new(3, 96);
        let reference = w.run_sequential();
        assert_eq!(reference.floats.len(), 96 * OUT_WORDS);
        assert!(reference.floats.iter().all(|v| v.is_finite()));
        for (workers, threaded) in [(1, false), (2, false), (2, true)] {
            let mut probe = w.best_probe(workers);
            probe.threaded = threaded;
            let run = w.run_probe(&probe).expect("no operation fails");
            assert!(
                w.validate(&reference, &run.output),
                "{workers} workers, threaded={threaded}"
            );
            assert_eq!(run.stats.iterations, 96);
            assert_eq!(run.stats.retries(), 0, "outputs are private");
        }
    }

    #[test]
    fn validate_is_bitwise() {
        let w = SynthFat::new(1, 4);
        let a = ProgramOutput::from_floats(vec![0.0, 1.0]);
        let b = ProgramOutput::from_floats(vec![-0.0, 1.0]);
        assert!(w.validate(&a, &a.clone()));
        assert!(!w.validate(&a, &b), "0.0 and -0.0 differ in bits");
    }
}
