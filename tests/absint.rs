//! The static analyzer's tier-1 gates:
//!
//! * soundness — every workload declares a `LoopSpec` and the
//!   cross-validation pass proves `static ⊇ dynamic` against the replayed
//!   `LoopSummary` (an under-declared spec fails here);
//! * probe economics — the static tier skips probes the dynamic-only
//!   engine must run (≥ 10 suite-wide) without changing a single inferred
//!   annotation;
//! * verdict pinning — the workloads the paper proves dependence-free
//!   (BarnesHut, FFT, HMM) are `ProvedSafe` under every Table-3 model,
//!   and AggloClust's read-set blowup is `ProvedUnsound` under the
//!   RAW-tracking models;
//! * abstract domain — seeded property tests (50 cases each) that
//!   `join` and `add` are sound and monotone against concrete u64 sets.

use alter::analyze::{cross_validate, interpret, static_verdict, StaticVerdict, StrideInterval};
use alter::infer::{infer, InferConfig, Model};
use alter::workloads::{all_benchmarks, Scale};

#[test]
fn every_workload_declares_a_spec_that_covers_its_replay() {
    for b in all_benchmarks(Scale::Inference) {
        let name = b.name().to_owned();
        let spec = b
            .loop_spec()
            .unwrap_or_else(|| panic!("{name}: no LoopSpec declared"));
        let summary = interpret(&spec);
        let dynamic = b.probe_summary();
        let violations = cross_validate(&spec, &summary, &dynamic);
        assert!(
            violations.is_empty(),
            "{name}: static ⊉ dynamic:\n  {}",
            violations.join("\n  ")
        );
    }
}

#[test]
fn static_verdicts_match_the_table3_structure() {
    let icfg = InferConfig::default();
    let proved_safe = ["BarnesHut", "FFT", "HMM"];
    for b in all_benchmarks(Scale::Inference) {
        let name = b.name().to_owned();
        let spec = b.loop_spec().unwrap();
        let summary = interpret(&spec);
        for model in Model::TABLE3 {
            let v = static_verdict(&summary, &icfg.params(b.as_ref(), model));
            if proved_safe.contains(&name.as_str()) {
                assert_eq!(
                    v,
                    StaticVerdict::ProvedSafe,
                    "{name}/{model}: dependence-free workload not proved safe"
                );
            } else if name == "AggloClust" && model != Model::StaleReads {
                assert!(
                    matches!(v, StaticVerdict::ProvedUnsound(_)),
                    "{name}/{model}: read-set blowup not proved unsound, got {v}"
                );
            } else {
                assert_eq!(
                    v,
                    StaticVerdict::Unknown,
                    "{name}/{model}: expected abstention"
                );
            }
        }
    }
}

/// The tentpole's probe-economics criterion: static pruning skips ≥ 10
/// probes across the suite relative to PR 5's dynamic-only pruning, and
/// the inferred annotations are byte-identical per workload.
#[test]
fn static_tier_skips_ten_probes_without_changing_any_answer() {
    let combined = InferConfig::default();
    assert!(combined.static_prune, "static pruning is the default");
    let dynamic_only = InferConfig {
        static_prune: false,
        ..InferConfig::default()
    };
    let mut skipped = 0u64;
    for b in all_benchmarks(Scale::Inference) {
        let name = b.name().to_owned();
        let with_static = infer(b.as_ref(), &combined);
        let without = infer(b.as_ref(), &dynamic_only);
        assert_eq!(
            with_static.valid_annotations, without.valid_annotations,
            "{name}: static pruning changed the inferred annotations"
        );
        assert_eq!(
            with_static.reduction_cell(),
            without.reduction_cell(),
            "{name}"
        );
        assert!(without.static_pruned.is_empty(), "{name}");
        assert_eq!(
            without.probes_run - with_static.probes_run,
            with_static.static_pruned.len() as u64,
            "{name}: every statically pruned candidate saves exactly one probe"
        );
        skipped += with_static.static_pruned.len() as u64;
    }
    assert!(
        skipped >= 10,
        "static tier skipped only {skipped} probes suite-wide (need ≥ 10)"
    );
}

// ---------------------------------------------------------------------------
// Seeded property tests of the abstract domain.
// ---------------------------------------------------------------------------

/// Minimal SplitMix64 for deterministic case generation (as in
/// `properties.rs`; the workspace builds offline, without `proptest`).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// A random small stride interval whose concretization is enumerable.
fn random_interval(rng: &mut Rng) -> StrideInterval {
    let lo = rng.below(50);
    match rng.below(3) {
        0 => StrideInterval::constant(lo),
        1 => StrideInterval::range(lo, lo + rng.below(12)),
        _ => StrideInterval::affine(1 + rng.below(5), lo, 1 + rng.below(7)),
    }
}

/// The concrete set γ(si), enumerated.
fn gamma(si: &StrideInterval) -> Vec<u64> {
    let step = si.stride.max(1);
    (0..si.count()).map(|k| si.lo + k * step).collect()
}

fn contains_all(big: &StrideInterval, elems: impl IntoIterator<Item = u64>) -> bool {
    elems.into_iter().all(|v| big.contains(v))
}

const CASES: usize = 50;

#[test]
fn join_is_sound_and_monotone_on_concrete_sets() {
    let mut rng = Rng(0xab51);
    for case in 0..CASES {
        let a = random_interval(&mut rng);
        let b = random_interval(&mut rng);
        let c = random_interval(&mut rng);
        let j = a.join(&b);
        // Soundness: γ(a) ∪ γ(b) ⊆ γ(a ⊔ b).
        assert!(
            contains_all(&j, gamma(&a)) && contains_all(&j, gamma(&b)),
            "case {case}: join {j:?} misses elements of {a:?} / {b:?}"
        );
        assert!(j.covers(&a) && j.covers(&b), "case {case}: join not an ub");
        // Monotonicity: a ⊑ a ⊔ c implies (a ⊔ b) ⊑ ((a ⊔ c) ⊔ b).
        let bigger = a.join(&c);
        assert!(
            bigger.join(&b).covers(&a.join(&b)),
            "case {case}: join not monotone: {a:?} ⊑ {bigger:?} but joins diverge"
        );
    }
}

#[test]
fn add_is_sound_and_monotone_on_concrete_sets() {
    let mut rng = Rng(0xadd5);
    for case in 0..CASES {
        let a = random_interval(&mut rng);
        let b = random_interval(&mut rng);
        let c = random_interval(&mut rng);
        let s = a.add(&b);
        // Soundness: element-wise sums land in the abstract sum.
        for x in gamma(&a) {
            for y in gamma(&b) {
                assert!(
                    s.contains(x + y),
                    "case {case}: {x} + {y} ∉ {s:?} = {a:?} + {b:?}"
                );
            }
        }
        // Monotonicity in the first argument.
        let bigger = a.join(&c);
        assert!(
            bigger.add(&b).covers(&s),
            "case {case}: add not monotone: {a:?} ⊑ {bigger:?}"
        );
    }
}
