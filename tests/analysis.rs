//! Cross-validation of the static analyzer (`alter-analyze`) against the
//! observed behaviour of all 12 workloads:
//!
//! * pruning identity — inference with the analyzer enabled selects the
//!   identical annotations as the paper's exhaustive search, in strictly
//!   fewer probes wherever anything was pruned, and a must-fail verdict
//!   never contradicts an observed probe pass;
//! * determinism — summaries, predictor verdicts, and the linter's
//!   diagnostics are identical across runs;
//! * sanitizer — every workload's canonical best-configuration trace
//!   passes the isolation sanitizer, and deliberately corrupted traces
//!   (reordered verdicts, overlapping committed write-sets) are rejected.

use alter::analyze::{lint, predict, sanitize, Severity};
use alter::infer::{infer, InferConfig, InferReport, Model, Outcome};
use alter::runtime::ExecParams;
use alter::trace::{Event, Recorder, RingRecorder};
use alter::workloads::{all_benchmarks, Benchmark, Scale};
use std::collections::HashMap;
use std::sync::Arc;

/// Observed outcomes of the exhaustive (no-pruning) report, keyed by the
/// probe-description strings `PrunedCandidate.annotation` uses.
fn observed_outcomes(report: &InferReport) -> HashMap<String, Outcome> {
    let mut map = HashMap::new();
    map.insert("TLS".to_owned(), report.tls.clone());
    map.insert("OutOfOrder".to_owned(), report.out_of_order.clone());
    map.insert("StaleReads".to_owned(), report.stale_reads.clone());
    for r in &report.reductions {
        map.insert(
            format!("{} + Reduction({}, {})", r.model, r.var, r.op),
            r.outcome.clone(),
        );
    }
    map
}

/// The acceptance criterion of the analyzer: on every workload, pruning
/// changes the cost of inference but never its answer, and nothing the
/// analyzer prunes is observed to succeed when actually run.
#[test]
fn pruning_preserves_the_inferred_annotations_on_all_workloads() {
    let pruned_cfg = InferConfig::default();
    assert!(pruned_cfg.prune, "pruning is the default");
    let exhaustive_cfg = InferConfig {
        prune: false,
        ..InferConfig::default()
    };
    let mut workloads_with_pruning = 0usize;
    for b in all_benchmarks(Scale::Inference) {
        let name = b.name().to_owned();
        let pruned = infer(b.as_ref(), &pruned_cfg);
        let exhaustive = infer(b.as_ref(), &exhaustive_cfg);

        // Identity: the same annotations are reported valid either way.
        assert_eq!(
            pruned.valid_annotations, exhaustive.valid_annotations,
            "{name}: pruning changed the inferred annotations"
        );
        assert_eq!(
            pruned.reduction_cell(),
            exhaustive.reduction_cell(),
            "{name}"
        );
        assert_eq!(pruned.dep, exhaustive.dep, "{name}");
        assert!(exhaustive.pruned_candidates.is_empty(), "{name}");
        assert!(exhaustive.static_pruned.is_empty(), "{name}");

        // Cost: strictly fewer probes exactly when something was pruned —
        // by the static tier, the dynamic predictor, or both.
        if pruned.pruned_candidates.is_empty() && pruned.static_pruned.is_empty() {
            assert_eq!(pruned.probes_run, exhaustive.probes_run, "{name}");
        } else {
            assert!(
                pruned.probes_run < exhaustive.probes_run,
                "{name}: {} dynamic + {} static pruned candidates but {} vs {} probes",
                pruned.pruned_candidates.len(),
                pruned.static_pruned.len(),
                pruned.probes_run,
                exhaustive.probes_run
            );
            workloads_with_pruning += 1;
        }

        // Soundness: a must-fail verdict never contradicts an observed
        // pass — every dynamically pruned candidate fails when actually
        // run.
        let observed = observed_outcomes(&exhaustive);
        for pc in &pruned.pruned_candidates {
            let o = observed.get(&pc.annotation).unwrap_or_else(|| {
                panic!(
                    "{name}: pruned candidate {} not in the exhaustive report",
                    pc.annotation
                )
            });
            assert!(
                !o.is_success(),
                "{name}: {} was pruned ({}) but succeeds when run",
                pc.annotation,
                pc.reason
            );
        }
        // The static tier's verdicts are two-sided: a ProvedSafe skip must
        // correspond to an observed success, a ProvedUnsound skip to an
        // observed failure.
        for pc in &pruned.static_pruned {
            let o = observed.get(&pc.annotation).unwrap_or_else(|| {
                panic!(
                    "{name}: statically pruned candidate {} not in the exhaustive report",
                    pc.annotation
                )
            });
            assert_eq!(
                o.is_success(),
                pc.outcome.is_success(),
                "{name}: {} statically recorded as {} ({}) but observed {}",
                pc.annotation,
                pc.outcome,
                pc.reason,
                o
            );
        }
    }
    // Dynamic tier: K-means, Labyrinth, GSdense, GSsparse, Floyd, SG3D;
    // static tier adds BarnesHut, FFT, HMM (proved safe) and AggloClust
    // (proved o.o.m.). Only Genome and SSCA2 run everything.
    assert!(
        workloads_with_pruning >= 10,
        "the two tiers pruned on only {workloads_with_pruning} of 12 workloads"
    );
}

/// Summaries, verdicts, and the linter's diagnostics are pure functions of
/// the workload: identical across independent runs.
#[test]
fn analyzer_diagnostics_are_deterministic_on_all_workloads() {
    let icfg = InferConfig::default();
    for b in all_benchmarks(Scale::Inference) {
        let name = b.name().to_owned();
        let s1 = b.probe_summary();
        let s2 = b.probe_summary();
        assert_eq!(s1, s2, "{name}: summary replay is not deterministic");

        for model in Model::TABLE3 {
            let p = icfg.params(b.as_ref(), model);
            assert_eq!(
                predict(&s1, &p, &[]),
                predict(&s2, &p, &[]),
                "{name}/{model}: verdict is not deterministic"
            );
        }

        let (model, reduction) = b.best_config();
        let target = model.lint_target(reduction.as_ref());
        let diags = lint(&s1, &target);
        assert_eq!(
            diags,
            lint(&s2, &target),
            "{name}: linter diagnostics are not deterministic"
        );

        // The paper's chosen annotation is sound on its own workload: the
        // linter must not flag an error for it (warnings — e.g. pervasive
        // WAW retries the paper resolves by testing — are fine).
        assert!(
            diags.iter().all(|d| d.severity != Severity::Error),
            "{name}: best config {target} flagged unsound: {:?}",
            diags
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .collect::<Vec<_>>()
        );
    }
}

/// Records the workload's best-configuration run with full `task_sets`
/// payloads — the canonical trace `alter-cli lint` audits.
fn canonical_trace(bench: &dyn Benchmark) -> (Vec<Event>, ExecParams) {
    let rec = Arc::new(RingRecorder::new(1 << 20));
    let mut probe = bench.best_probe(4);
    probe.record_sets = true;
    probe.recorder = Some(rec.clone() as Arc<dyn Recorder>);
    bench
        .run_probe(&probe)
        .unwrap_or_else(|e| panic!("{} best config aborted: {e}", bench.name()));
    assert_eq!(rec.dropped(), 0, "{}: ring too small", bench.name());
    (
        rec.events(),
        probe.model.exec_params(probe.workers, probe.chunk),
    )
}

/// Every workload's canonical trace satisfies the isolation invariants.
#[test]
fn sanitizer_passes_every_workload_canonical_trace() {
    for b in all_benchmarks(Scale::Inference) {
        let (events, cfg) = canonical_trace(b.as_ref());
        assert!(!events.is_empty(), "{}: empty trace", b.name());
        let violations = sanitize(&events, &cfg);
        assert!(
            violations.is_empty(),
            "{}: {} isolation violation(s), first: {}",
            b.name(),
            violations.len(),
            violations[0]
        );
    }
}

/// Event indices of the verdicts (`validate_ok`) inside each round of a
/// trace, used to build seeded corruptions below.
fn rounds_of_validate_oks(events: &[Event]) -> Vec<Vec<usize>> {
    let mut rounds: Vec<Vec<usize>> = Vec::new();
    for (idx, ev) in events.iter().enumerate() {
        match ev {
            Event::RoundStart { .. } => rounds.push(Vec::new()),
            Event::ValidateOk { .. } => {
                if let Some(r) = rounds.last_mut() {
                    r.push(idx);
                }
            }
            _ => {}
        }
    }
    rounds
}

/// A deliberately corrupted real trace — the verdicts of two tasks in one
/// round swapped, breaking the deterministic ascending commit order — must
/// be rejected.
#[test]
fn reordered_commit_order_is_rejected() {
    // Genome under [StaleReads] at 4 workers: plenty of multi-commit
    // rounds.
    let b = &all_benchmarks(Scale::Inference)[0];
    let (mut events, cfg) = canonical_trace(b.as_ref());
    let round = rounds_of_validate_oks(&events)
        .into_iter()
        .find(|r| r.len() >= 2)
        .expect("a round with two commits");
    events.swap(round[0], round[1]);
    let violations = sanitize(&events, &cfg);
    assert!(
        violations
            .iter()
            .any(|v| v.message.contains("validation order must ascend")),
        "swapped verdicts not caught: {violations:?}"
    );
}

/// A corrupted trace where one committed task's recorded write set is
/// overwritten with another committed task's — overlapping write sets
/// under StaleReads — must be rejected.
#[test]
fn overlapping_committed_write_sets_are_rejected() {
    let b = &all_benchmarks(Scale::Inference)[0];
    let (mut events, cfg) = canonical_trace(b.as_ref());
    // Find a round with two validate_oks and copy the first committer's
    // write set over the second's.
    let round = rounds_of_validate_oks(&events)
        .into_iter()
        .find(|r| r.len() >= 2)
        .expect("a round with two commits");
    let first_writes = events[..round[0]]
        .iter()
        .rev()
        .find_map(|ev| match ev {
            Event::TaskSets { writes, .. } if !writes.is_empty() => Some(writes.clone()),
            _ => None,
        })
        .expect("recorded sets for the first committer");
    let second_sets = events[..round[1]]
        .iter()
        .rposition(|ev| matches!(ev, Event::TaskSets { .. }))
        .expect("recorded sets for the second committer");
    match &mut events[second_sets] {
        Event::TaskSets { writes, .. } => *writes = first_writes,
        _ => unreachable!(),
    }
    let violations = sanitize(&events, &cfg);
    assert!(
        violations.iter().any(|v| {
            v.message.contains("committed write sets overlap")
                || v.message.contains("validated ok but its sets conflict")
        }),
        "overlapping write sets not caught: {violations:?}"
    );
}

/// A corrupted trace where one `validate_ok` claims one validate word more
/// than the per-earlier-writer formula charges its recorded sets must be
/// rejected, and for that reason alone.
#[test]
fn wrong_validate_words_are_rejected() {
    let b = &all_benchmarks(Scale::Inference)[0];
    let (mut events, cfg) = canonical_trace(b.as_ref());
    // The second committer of a round is charged for the first.
    let round = rounds_of_validate_oks(&events)
        .into_iter()
        .find(|r| r.len() >= 2)
        .expect("a round with two commits");
    match &mut events[round[1]] {
        Event::ValidateOk { validate_words, .. } => {
            assert!(*validate_words > 0, "charged for the first committer");
            *validate_words += 1;
        }
        _ => unreachable!(),
    }
    let violations = sanitize(&events, &cfg);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].event, round[1]);
    assert!(
        violations[0].message.contains("validate words"),
        "{violations:?}"
    );
}
