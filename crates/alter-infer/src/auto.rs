//! Automatic parallelization (paper §6, Table 1, third column).
//!
//! "In the final scenario … ALTER is applied as an autonomous
//! parallelization engine": infer the annotations, validate them against
//! the test suite, pick the most permissive valid one, tune the chunk
//! factor, and hand back a ready-to-run configuration — no human in the
//! loop. The paper stresses this is unsound-by-design ("testing as the
//! sole correctness criterion"); [`AutoDecision`] therefore carries the
//! full evidence so a human can audit it later, the assisted-parallelization
//! workflow.

use crate::chunk::tune_chunk;
use crate::engine::{infer, InferConfig, InferReport};
use crate::target::{InferTarget, Model, Probe};
use alter_runtime::RedOp;

/// The outcome of autonomous parallelization.
#[derive(Clone, Debug)]
pub struct AutoDecision {
    /// The full inference evidence (one Table 3 row).
    pub report: InferReport,
    /// The chosen configuration, if any annotation validated.
    pub chosen: Option<ChosenConfig>,
}

/// A validated, tuned loop configuration.
#[derive(Clone, Debug)]
pub struct ChosenConfig {
    /// Execution model.
    pub model: Model,
    /// Reduction, when the policy alone did not validate.
    pub reduction: Option<(String, RedOp)>,
    /// Chunk factor found by iterative doubling.
    pub chunk: usize,
    /// The annotation in concrete syntax, for the human audit trail.
    pub annotation: String,
}

impl ChosenConfig {
    /// Builds the probe that runs the loop under this configuration.
    pub fn probe(&self, workers: usize) -> Probe {
        let mut p = Probe::new(self.model, workers, self.chunk);
        p.reduction = self.reduction.clone();
        p
    }
}

/// Runs the full §6 pipeline on a target: inference, model selection,
/// chunk tuning.
///
/// Model preference order is StaleReads, then OutOfOrder, then TLS — the
/// most permissive valid annotation wins, because permissiveness is what
/// buys performance (StaleReads needs no read instrumentation; TLS adds
/// squashing). Reductions are taken from the search only when the bare
/// policy failed, and `+`/idempotent operators are preferred over `×`
/// (whose merge is the least robust, §4.2).
pub fn auto_parallelize(target: &(dyn InferTarget + Sync), cfg: &InferConfig) -> AutoDecision {
    let report = infer(target, cfg);

    let mut pick: Option<(Model, Option<(String, RedOp)>)> = None;
    if report.stale_reads.is_success() {
        pick = Some((Model::StaleReads, None));
    } else if report.out_of_order.is_success() {
        pick = Some((Model::OutOfOrder, None));
    } else {
        // Reduction search results, in preference order.
        const OP_PREFERENCE: [RedOp; 6] = [
            RedOp::Add,
            RedOp::Max,
            RedOp::Min,
            RedOp::And,
            RedOp::Or,
            RedOp::Mul,
        ];
        'outer: for model in [Model::StaleReads, Model::OutOfOrder] {
            for op in OP_PREFERENCE {
                if let Some(r) = report
                    .reductions
                    .iter()
                    .find(|r| r.model == model && r.op == op && r.outcome.is_success())
                {
                    pick = Some((model, Some((r.var.clone(), r.op))));
                    break 'outer;
                }
            }
        }
        if pick.is_none() && report.tls.is_success() {
            pick = Some((Model::Tls, None));
        }
    }

    let chosen = pick.map(|(model, reduction)| {
        let tuning = tune_chunk(target, model, reduction.clone(), cfg.workers);
        let annotation = match (&model, &reduction) {
            (Model::Tls, _) => "TLS (sequential semantics)".to_owned(),
            (m, None) => format!("[{m}]"),
            (m, Some((var, op))) => format!("[{m} + Reduction({var}, {op})]"),
        };
        ChosenConfig {
            model,
            reduction,
            chunk: tuning.best,
            annotation,
        }
    });

    AutoDecision { report, chosen }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::{ProbeRun, ProgramOutput};
    use alter_heap::{Heap, ObjData};
    use alter_runtime::{
        summarize_dependences, BoundScalar, LoopSummary, RangeSpace, RedVal, RedVars, RunError,
    };
    use alter_sim::CostModel;

    /// A loop that needs `Reduction(total, +)`: the auto pipeline must pick
    /// StaleReads with that reduction and a chunk factor > 1.
    struct NeedsReduction;

    impl InferTarget for NeedsReduction {
        fn name(&self) -> &str {
            "needs-reduction"
        }
        fn run_sequential(&self) -> ProgramOutput {
            ProgramOutput::from_ints(vec![(0..256).sum()])
        }
        fn run_probe(&self, probe: &Probe) -> Result<ProbeRun, RunError> {
            let mut heap = Heap::new();
            let mut reds = RedVars::new();
            let total = BoundScalar::declare(&mut heap, &mut reds, "total", RedVal::I64(0));
            let model = CostModel::default();
            probe.session(&mut reds, &model, |mut session, reds| {
                let space = &mut RangeSpace::new(0, 256);
                session.run_loop(&mut heap, reds, space, |ctx, i| {
                    ctx.tx.work(10);
                    total.add(ctx, i as i64);
                })?;
                let v = total.seq_get_sync(&mut heap, reds, session.params());
                Ok(session.finish(ProgramOutput::from_ints(vec![v.as_i64()]), 0.0))
            })
        }
        fn probe_summary(&self) -> LoopSummary {
            let mut heap = Heap::new();
            let mut reds = RedVars::new();
            let total = BoundScalar::declare(&mut heap, &mut reds, "total", RedVal::I64(0));
            let mut s =
                summarize_dependences(&mut heap, &mut RangeSpace::new(0, 256), move |ctx, i| {
                    total.add(ctx, i as i64);
                });
            s.label("total", total.object());
            s
        }
        fn reduction_candidates(&self) -> Vec<String> {
            vec!["total".into()]
        }
    }

    /// A loop nothing can parallelize (order-sensitive, exact validator,
    /// permanent conflicts).
    struct Hopeless;

    impl InferTarget for Hopeless {
        fn name(&self) -> &str {
            "hopeless"
        }
        fn run_sequential(&self) -> ProgramOutput {
            // x_{i+1} = 3 x_i + 1 starting from 1, i.e. order-critical.
            let mut x = 1i64;
            for _ in 0..64 {
                x = x.wrapping_mul(3).wrapping_add(1);
            }
            ProgramOutput::from_ints(vec![x])
        }
        fn run_probe(&self, probe: &Probe) -> Result<ProbeRun, RunError> {
            let mut heap = Heap::new();
            let mut reds = RedVars::new();
            let cell = heap.alloc(ObjData::scalar_i64(1));
            let model = CostModel::default();
            probe.session(&mut reds, &model, |mut session, reds| {
                let space = &mut RangeSpace::new(0, 64);
                session.run_loop(&mut heap, reds, space, |ctx, _| {
                    let v = ctx.tx.read_i64(cell, 0);
                    ctx.tx.write_i64(cell, 0, v.wrapping_mul(3).wrapping_add(1));
                })?;
                let output = ProgramOutput::from_ints(vec![heap.get(cell).i64s()[0]]);
                Ok(session.finish(output, 0.0))
            })
        }
        fn probe_summary(&self) -> LoopSummary {
            let mut heap = Heap::new();
            let cell = heap.alloc(ObjData::scalar_i64(1));
            summarize_dependences(&mut heap, &mut RangeSpace::new(0, 64), |ctx, _| {
                let v = ctx.tx.read_i64(cell, 0);
                ctx.tx.write_i64(cell, 0, v.wrapping_mul(3).wrapping_add(1));
            })
        }
    }

    #[test]
    fn auto_picks_stale_reads_with_the_add_reduction() {
        let decision = auto_parallelize(&NeedsReduction, &InferConfig::default());
        let chosen = decision.chosen.expect("a configuration must validate");
        assert_eq!(chosen.model, Model::StaleReads);
        assert_eq!(
            chosen.reduction,
            Some(("total".to_owned(), RedOp::Add)),
            "+ preferred over any other validating operator"
        );
        assert!(chosen.chunk >= 1);
        assert!(chosen.annotation.contains("Reduction(total, +)"));
        let probe = chosen.probe(4);
        assert_eq!(probe.chunk, chosen.chunk);
    }

    #[test]
    fn auto_declines_hopeless_loops() {
        let decision = auto_parallelize(&Hopeless, &InferConfig::default());
        assert!(
            decision.chosen.is_none(),
            "nothing validates: {:?}",
            decision.report.valid_annotations
        );
        assert!(decision.report.dep.any());
    }
}
