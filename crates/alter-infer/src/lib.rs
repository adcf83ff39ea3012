//! # alter-infer — test-driven annotation inference for ALTER
//!
//! Implements the inference methodology of §5 of the paper: given a program
//! with one target loop (an [`InferTarget`]), enumerate every way to add a
//! single annotation — `TLS`, `[OutOfOrder]`, `[StaleReads]`, and (when the
//! policy-only forms fail) each combined with `Reduction(var, op)` over the
//! loop's candidate scalars and the six operators — run each candidate
//! once (determinism makes one run per test sufficient, §4.3), and classify
//! the outcome as `success`, `crash`, `timeout`, `h.c.` (high conflicts) or
//! `mismatch`.
//!
//! [`infer`] produces one row of the paper's Table 3; [`tune_chunk`] runs
//! the iterative-doubling chunk-factor search behind Figure 5.

#![warn(missing_docs)]

mod auto;
mod chunk;
mod engine;
mod outcome;
mod target;

pub use auto::{auto_parallelize, AutoDecision, ChosenConfig};
pub use chunk::{tune_chunk, ChunkTuning};
pub use engine::{classify, infer, InferConfig, InferReport, PrunedCandidate, ReductionResult};
pub use outcome::Outcome;
pub use target::{InferTarget, Model, Probe, ProbeRun, ProgramOutput};

#[cfg(test)]
mod tests {
    use super::*;
    use alter_heap::{Heap, ObjData};
    use alter_runtime::{
        summarize_dependences, BoundScalar, DepReport, LoopSummary, RangeSpace, RedVal, RedVars,
        RunError, TxCtx,
    };
    use alter_sim::{simulate_loop, CostModel};

    /// Shared probe harness: build fresh state, run the loop, read output.
    fn run_program<S, B, O>(
        probe: &Probe,
        setup: impl Fn(&mut Heap, &mut RedVars) -> S,
        body: impl Fn(&S) -> B,
        range: (u64, u64),
        output: O,
    ) -> Result<ProbeRun, RunError>
    where
        B: Fn(&mut TxCtx<'_>, u64) + Sync,
        O: Fn(&Heap, &RedVars, &S) -> ProgramOutput,
    {
        let mut heap = Heap::new();
        let mut reds = RedVars::new();
        let state = setup(&mut heap, &mut reds);
        let params = probe.exec_params(&reds);
        let model = CostModel::default();
        let (stats, clock) = simulate_loop(
            &mut heap,
            &mut reds,
            &mut RangeSpace::new(range.0, range.1),
            &params,
            &model,
            body(&state),
        )?;
        Ok(ProbeRun {
            output: output(&heap, &reds, &state),
            stats,
            clock,
        })
    }

    /// A loop with no dependences: out[i] = 3i.
    struct DoallToy;

    impl InferTarget for DoallToy {
        fn name(&self) -> &str {
            "doall-toy"
        }
        fn run_sequential(&self) -> ProgramOutput {
            ProgramOutput::from_ints((0..64).map(|i| 3 * i).collect())
        }
        fn run_probe(&self, probe: &Probe) -> Result<ProbeRun, RunError> {
            run_program(
                probe,
                |heap, _| heap.alloc(ObjData::zeros_i64(64)),
                |&out| {
                    move |ctx: &mut TxCtx<'_>, i: u64| {
                        ctx.tx.work(20);
                        ctx.tx.write_i64(out, i as usize, 3 * i as i64);
                    }
                },
                (0, 64),
                |heap, _, &out| ProgramOutput::from_ints(heap.get(out).i64s().to_vec()),
            )
        }
        fn probe_summary(&self) -> LoopSummary {
            let mut heap = Heap::new();
            let out = heap.alloc(ObjData::zeros_i64(64));
            summarize_dependences(&mut heap, &mut RangeSpace::new(0, 64), |ctx, i| {
                ctx.tx.write_i64(out, i as usize, 3 * i as i64);
            })
        }
    }

    /// An order-sensitive recurrence x[i] = x[i-1] + 1 with an exact
    /// validator: TLS preserves it, StaleReads commits a wrong answer.
    struct ChainToy;

    fn chain_body(xs: alter_heap::ObjId) -> impl Fn(&mut TxCtx<'_>, u64) + Sync {
        move |ctx, i| {
            let prev = ctx.tx.read_i64(xs, i as usize - 1);
            ctx.tx.write_i64(xs, i as usize, prev + 1);
        }
    }

    impl InferTarget for ChainToy {
        fn name(&self) -> &str {
            "chain-toy"
        }
        fn run_sequential(&self) -> ProgramOutput {
            ProgramOutput::from_ints((0..256).collect())
        }
        fn run_probe(&self, probe: &Probe) -> Result<ProbeRun, RunError> {
            run_program(
                probe,
                |heap, _| heap.alloc(ObjData::zeros_i64(256)),
                |&xs| chain_body(xs),
                (1, 256),
                |heap, _, &xs| ProgramOutput::from_ints(heap.get(xs).i64s().to_vec()),
            )
        }
        fn probe_summary(&self) -> LoopSummary {
            let mut heap = Heap::new();
            let xs = heap.alloc(ObjData::zeros_i64(256));
            summarize_dependences(&mut heap, &mut RangeSpace::new(1, 256), chain_body(xs))
        }
        fn validate(&self, reference: &ProgramOutput, candidate: &ProgramOutput) -> bool {
            reference.ints == candidate.ints
        }
    }

    /// A global accumulator: sum += i over 0..512. Fails policy-only,
    /// succeeds with Reduction(sum, +).
    struct SumToy;

    impl InferTarget for SumToy {
        fn name(&self) -> &str {
            "sum-toy"
        }
        fn run_sequential(&self) -> ProgramOutput {
            ProgramOutput::from_ints(vec![(0..512).sum()])
        }
        fn run_probe(&self, probe: &Probe) -> Result<ProbeRun, RunError> {
            let mut heap = Heap::new();
            let mut reds = RedVars::new();
            let sum = BoundScalar::declare(&mut heap, &mut reds, "sum", RedVal::I64(0));
            let params = probe.exec_params(&reds);
            let model = CostModel::default();
            let was_reduced = !params.reductions.is_empty();
            let (stats, clock) = simulate_loop(
                &mut heap,
                &mut reds,
                &mut RangeSpace::new(0, 512),
                &params,
                &model,
                |ctx, i| {
                    ctx.tx.work(5);
                    sum.add(ctx, i as i64);
                },
            )?;
            let v = sum.seq_get_sync(&mut heap, &mut reds, was_reduced);
            Ok(ProbeRun {
                output: ProgramOutput::from_ints(vec![v.as_i64()]),
                stats,
                clock,
            })
        }
        fn probe_summary(&self) -> LoopSummary {
            let mut heap = Heap::new();
            let mut reds = RedVars::new();
            let sum = BoundScalar::declare(&mut heap, &mut reds, "sum", RedVal::I64(0));
            let mut s =
                summarize_dependences(&mut heap, &mut RangeSpace::new(0, 512), move |ctx, i| {
                    sum.add(ctx, i as i64);
                });
            s.label("sum", sum.object());
            s
        }
        fn reduction_candidates(&self) -> Vec<String> {
            vec!["sum".into()]
        }
    }

    /// A loop that panics partway through.
    struct CrashToy;

    impl InferTarget for CrashToy {
        fn name(&self) -> &str {
            "crash-toy"
        }
        fn run_sequential(&self) -> ProgramOutput {
            ProgramOutput::default()
        }
        fn run_probe(&self, probe: &Probe) -> Result<ProbeRun, RunError> {
            run_program(
                probe,
                |heap, _| heap.alloc(ObjData::zeros_i64(8)),
                |&out| {
                    move |ctx: &mut TxCtx<'_>, i: u64| {
                        if i == 5 {
                            panic!("toy crash at iteration {i}");
                        }
                        ctx.tx.write_i64(out, i as usize, 0);
                    }
                },
                (0, 8),
                |_, _, _| ProgramOutput::default(),
            )
        }
    }

    #[test]
    fn doall_toy_succeeds_everywhere() {
        let report = infer(&DoallToy, &InferConfig::default());
        assert!(!report.dep.any());
        assert!(report.tls.is_success(), "tls: {}", report.tls);
        assert!(
            report.out_of_order.is_success(),
            "ooo: {}",
            report.out_of_order
        );
        assert!(
            report.stale_reads.is_success(),
            "stale: {}",
            report.stale_reads
        );
        assert!(report.reductions.is_empty(), "no reduction search needed");
        assert_eq!(report.valid_annotations.len(), 3);
        assert_eq!(report.reduction_cell(), "N/A");
    }

    #[test]
    fn chain_toy_mismatches_under_stale_reads() {
        let report = infer(&ChainToy, &InferConfig::default());
        assert!(report.dep.raw, "the chain has a RAW dep");
        // StaleReads commits without conflicts but breaks the chain.
        assert_eq!(report.stale_reads, Outcome::OutputMismatch);
        // TLS either succeeds (sequential semantics) or is flagged high-
        // conflict / timeout — it must never mismatch.
        assert_ne!(report.tls, Outcome::OutputMismatch);
    }

    #[test]
    fn sum_toy_needs_the_add_reduction() {
        let report = infer(&SumToy, &InferConfig::default());
        assert!(report.dep.any(), "shared accumulator is a dep");
        assert!(!report.out_of_order.is_success());
        assert!(!report.stale_reads.is_success());
        let ok = report.successful_reductions();
        assert!(!ok.is_empty(), "Reduction(sum, +) must be found");
        assert!(ok.iter().all(|r| r.op == alter_runtime::RedOp::Add));
        assert_eq!(report.reduction_cell(), "+");
        assert!(report
            .valid_annotations
            .iter()
            .any(|a| a.contains("Reduction(sum, +)")));
        // Wrong operators must be rejected.
        assert!(report
            .reductions
            .iter()
            .filter(|r| r.op == alter_runtime::RedOp::Max)
            .all(|r| !r.outcome.is_success()));
    }

    #[test]
    fn crash_toy_is_reported_as_crash() {
        let report = infer(&CrashToy, &InferConfig::default());
        assert_eq!(report.tls.short(), "crash");
        assert_eq!(report.out_of_order.short(), "crash");
        assert_eq!(report.stale_reads.short(), "crash");
        assert!(report.valid_annotations.is_empty());
    }

    #[test]
    fn serial_and_concurrent_probes_yield_identical_reports() {
        // SumToy exercises the full pipeline: three model probes plus the
        // bounded reduction search (2 models × 6 operators). An enabled
        // recorder makes the probes run one after another.
        let serial = infer(
            &SumToy,
            &InferConfig {
                recorder: Some(std::sync::Arc::new(alter_trace::RingRecorder::default())),
                ..Default::default()
            },
        );
        let concurrent = infer(&SumToy, &InferConfig::default());
        assert_eq!(serial, concurrent);
        assert!(!concurrent.reductions.is_empty(), "search actually ran");
    }

    #[test]
    fn pruning_skips_provably_failing_probes_without_changing_the_answer() {
        let pruned = infer(&SumToy, &InferConfig::default());
        let exhaustive = infer(
            &SumToy,
            &InferConfig {
                prune: false,
                ..Default::default()
            },
        );
        // The shared accumulator serialises every policy-only probe: the
        // analyzer proves all three model probes fail.
        assert!(
            !pruned.pruned_candidates.is_empty(),
            "expected pruning on the accumulator: {pruned:?}"
        );
        assert!(pruned.probes_run < exhaustive.probes_run);
        assert!(exhaustive.pruned_candidates.is_empty());
        // Identity: the same annotations are reported valid either way.
        assert_eq!(pruned.valid_annotations, exhaustive.valid_annotations);
        assert_eq!(pruned.reduction_cell(), exhaustive.reduction_cell());
        assert_eq!(pruned.dep, exhaustive.dep);
        // Soundness: nothing the analyzer pruned succeeds exhaustively.
        for pc in &pruned.pruned_candidates {
            let observed = if pc.annotation == "TLS" {
                Some(&exhaustive.tls)
            } else if pc.annotation == "OutOfOrder" {
                Some(&exhaustive.out_of_order)
            } else if pc.annotation == "StaleReads" {
                Some(&exhaustive.stale_reads)
            } else {
                None
            };
            if let Some(o) = observed {
                assert!(!o.is_success(), "{} was pruned but succeeds", pc.annotation);
            }
        }
    }

    #[test]
    fn targets_without_a_summary_are_never_pruned() {
        let report = infer(&CrashToy, &InferConfig::default());
        assert!(report.pruned_candidates.is_empty());
        assert_eq!(report.probes_run, 3, "all three model probes ran");
    }

    /// [`ChainToy`]'s program without its dependence summary.
    struct UnsummarizedChain;

    impl InferTarget for UnsummarizedChain {
        fn name(&self) -> &str {
            "unsummarized-chain"
        }
        fn run_sequential(&self) -> ProgramOutput {
            ChainToy.run_sequential()
        }
        fn run_probe(&self, probe: &Probe) -> Result<ProbeRun, RunError> {
            ChainToy.run_probe(probe)
        }
    }

    #[test]
    fn the_dep_column_is_the_summary_so_no_summary_reports_no_dependences() {
        // The chain carries a RAW dependence, which ChainToy's summary
        // shows, but the Dep column is only ever the summary's projection:
        // no summary, no dependences, and nothing for the analyzer to prune.
        let report = infer(&UnsummarizedChain, &InferConfig::default());
        assert_eq!(report.dep, DepReport::default());
        assert!(report.pruned_candidates.is_empty() && report.static_pruned.is_empty());
        assert_eq!(report.stale_reads, Outcome::OutputMismatch, "still probed");
    }

    #[test]
    fn chunk_tuning_prefers_larger_chunks_for_cheap_bodies() {
        let tuning = tune_chunk(&DoallToy, Model::StaleReads, None, 4);
        assert!(tuning.curve.len() >= 2);
        assert!(tuning.best > 1, "cf=1 pays one barrier per iteration");
        // Curve is deterministic and covers doubling values.
        assert_eq!(tuning.curve[0].0, 1);
        assert_eq!(tuning.curve[1].0, 2);
    }
}
