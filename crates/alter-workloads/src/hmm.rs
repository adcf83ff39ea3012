//! HMM — the hidden-Markov-model solver of the graphical-models dwarf
//! (from the Parallel Dwarfs project): the forward algorithm.
//!
//! For each observation step the loop over states computes
//! `alpha'[s] = B[s][obs] · Σ_s' alpha[s'] · A[s'][s]` — reads of the
//! previous step's (loop-invariant) alpha vector and a disjoint write per
//! state. No loop-carried dependences (Table 3: Dep = No); speedup is
//! near-linear (Figure 13).

use crate::common::{rng, uniform_f64s, Benchmark, Scale};
use alter_analyze::absint::{AccessKind, LoopSpec, Member, Words};
use alter_heap::{Heap, ObjData, ObjId};
use alter_infer::{InferTarget, Model, Probe, ProbeRun, ProgramOutput};
use alter_runtime::{
    summarize_dependences, LoopSummary, RangeSpace, RedOp, RedVars, RunError, TxCtx,
};

/// What `Hmm::model` returns: the transition matrix A, the emission
/// matrix B, and the observation sequence.
type Chain = (Vec<Vec<f64>>, Vec<Vec<f64>>, Vec<usize>);

/// What `Hmm::start` returns: A, B, the observations, the heap, the
/// registry, and the alpha vectors of the current and next step.
type Start = (
    Vec<Vec<f64>>,
    Vec<Vec<f64>>,
    Vec<usize>,
    Heap,
    RedVars,
    ObjId,
    ObjId,
);

/// The HMM forward-algorithm benchmark.
#[derive(Clone, Debug)]
pub struct Hmm {
    name: &'static str,
    states: usize,
    symbols: usize,
    steps: usize,
    seed: u64,
}

impl Hmm {
    /// The benchmark at the given scale (the paper solves 512/1024-state
    /// models).
    pub fn new(scale: Scale) -> Self {
        Hmm {
            name: "HMM",
            states: match scale {
                Scale::Inference => 64,
                Scale::Paper => 192,
            },
            symbols: 16,
            steps: 24,
            seed: 0x4888,
        }
    }

    /// Deterministic model: transition matrix A (row-stochastic), emission
    /// matrix B, and an observation sequence.
    pub fn model(&self) -> Chain {
        let mut r = rng(self.seed);
        let normalize = |mut v: Vec<f64>| {
            let s: f64 = v.iter().sum();
            for x in &mut v {
                *x /= s;
            }
            v
        };
        let a: Vec<Vec<f64>> = (0..self.states)
            .map(|_| normalize(uniform_f64s(&mut r, self.states, 0.1, 1.0)))
            .collect();
        let b: Vec<Vec<f64>> = (0..self.states)
            .map(|_| normalize(uniform_f64s(&mut r, self.symbols, 0.1, 1.0)))
            .collect();
        let obs: Vec<usize> = (0..self.steps)
            .map(|_| r.gen_range(0..self.symbols))
            .collect();
        (a, b, obs)
    }

    /// Sequential forward pass; returns the final (rescaled) alpha vector.
    pub fn run_sequential_raw(&self) -> Vec<f64> {
        let (a, b, obs) = self.model();
        let n = self.states;
        let mut alpha = vec![1.0 / n as f64; n];
        for &o in &obs {
            let mut next = vec![0.0; n];
            for (s, slot) in next.iter_mut().enumerate() {
                let mut acc = 0.0;
                for sp in 0..n {
                    acc += alpha[sp] * a[sp][s];
                }
                *slot = acc * b[s][o];
            }
            let norm: f64 = next.iter().sum();
            for x in &mut next {
                *x /= norm;
            }
            alpha = next;
        }
        alpha
    }

    /// The loop's start state, with a uniform alpha vector.
    fn start(&self) -> Start {
        let (a, b, obs) = self.model();
        let n = self.states;
        let mut heap = Heap::new();
        let cur = heap.alloc(ObjData::F64(vec![1.0 / n as f64; n]));
        let next = heap.alloc(ObjData::zeros_f64(n));
        (a, b, obs, heap, RedVars::new(), cur, next)
    }

    fn body<'a>(
        &self,
        a: &'a [Vec<f64>],
        b: &'a [Vec<f64>],
        o: usize,
        cur: ObjId,
        next: ObjId,
    ) -> impl Fn(&mut TxCtx<'_>, u64) + Sync + 'a {
        let n = self.states;
        move |ctx, iter| {
            let s = iter as usize;
            let acc = ctx.tx.with_f64s(cur, 0, n, |alpha| {
                alpha
                    .iter()
                    .zip(a.iter())
                    .map(|(al, row)| al * row[s])
                    .sum::<f64>()
            });
            ctx.tx.work(2 * n as u64);
            ctx.tx.write_f64(next, s, acc * b[s][o]);
        }
    }
}

impl InferTarget for Hmm {
    fn name(&self) -> &str {
        self.name
    }

    fn run_sequential(&self) -> ProgramOutput {
        ProgramOutput::from_floats(self.run_sequential_raw())
    }

    fn run_probe(&self, probe: &Probe) -> Result<ProbeRun, RunError> {
        let n = self.states;
        let (a, b, obs, mut heap, mut reds, mut cur, mut next) = self.start();
        let model = self.cost_model();
        probe.session(&mut reds, &model, |mut session, reds| {
            for &o in &obs {
                let space = &mut RangeSpace::new(0, n as u64);
                session.run_loop(&mut heap, reds, space, self.body(&a, &b, o, cur, next))?;
                // Sequential rescale between steps.
                let norm: f64 = heap.get(next).f64s().iter().sum();
                for x in heap.get_mut(next).f64s_mut() {
                    *x /= norm;
                }
                std::mem::swap(&mut cur, &mut next);
            }
            let alpha = heap.get(cur).f64s().to_vec();
            let rescales = obs.len() as f64 * n as f64 * 2.0;
            Ok(session.finish(ProgramOutput::from_floats(alpha), rescales))
        })
    }

    fn probe_summary(&self) -> LoopSummary {
        let (a, b, obs, mut heap, _, cur, next) = self.start();
        let body = self.body(&a, &b, obs[0], cur, next);
        summarize_dependences(&mut heap, &mut RangeSpace::new(0, self.states as u64), body)
    }

    fn loop_spec(&self) -> Option<LoopSpec> {
        let n = self.states;
        let (_, _, _, heap, _, cur, next) = self.start();
        let words = n as u32;
        let mut spec = LoopSpec::new(n as u64, heap.high_water());
        // Iteration s reads the whole previous alpha vector (loop-invariant
        // within a step) and blind-writes its own slot next[s] — injective
        // affine writes, no carried dependences (Table 3: Dep = No).
        let cur_r = spec.region("alpha", vec![cur], words);
        spec.access(
            cur_r,
            Member::At(0),
            Words::Range { lo: 0, hi: words },
            AccessKind::Read,
        );
        let next_r = spec.region("alpha-next", vec![next], words);
        spec.access(
            next_r,
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
        reference.approx_eq(candidate, 1e-9)
    }
}

impl Benchmark for Hmm {
    fn loop_weight(&self) -> f64 {
        1.0 // Table 2
    }

    fn chunk_factor(&self) -> usize {
        8
    }

    fn best_config(&self) -> (Model, Option<(String, RedOp)>) {
        (Model::StaleReads, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alter_infer::{infer, InferConfig};

    fn tiny() -> Hmm {
        Hmm {
            name: "HMM",
            states: 24,
            symbols: 8,
            steps: 6,
            seed: 12,
        }
    }

    #[test]
    fn sequential_alpha_is_a_distribution() {
        let h = tiny();
        let alpha = h.run_sequential_raw();
        let sum: f64 = alpha.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(alpha.iter().all(|p| *p >= 0.0));
    }

    #[test]
    fn parallel_forward_pass_is_exact() {
        let h = tiny();
        let seq = h.run_sequential();
        for model in [Model::Tls, Model::OutOfOrder, Model::StaleReads] {
            let run = h.run_probe(&Probe::new(model, 4, 4)).unwrap();
            assert!(h.validate(&seq, &run.output), "{model}");
            assert_eq!(run.stats.retries(), 0, "{model}");
        }
    }

    #[test]
    fn inference_reports_no_deps_and_all_success() {
        let h = tiny();
        let report = infer(
            &h,
            &InferConfig {
                workers: 4,
                chunk: 4,
                ..Default::default()
            },
        );
        assert!(!report.dep.any());
        assert!(report.tls.is_success());
        assert!(report.out_of_order.is_success());
        assert!(report.stale_reads.is_success());
    }

    #[test]
    fn speedup_is_positive() {
        let h = tiny();
        let clock = h.run_probe(&h.best_probe(4)).unwrap().clock;
        assert!(clock.speedup() > 1.2, "{:.2}", clock.speedup());
    }
}
