//! The six benchmark workloads.
//!
//! The five paper workloads come from `alter_workloads::all_benchmarks` at
//! paper scale with their `best_probe` annotation; their inputs are fixed
//! by private seeds inside `alter-workloads`. `synth-fat` is benchmark-owned
//! and seeded. The planned group counts are fixed per workload, not derived
//! from a clock, so on a quiet machine two commits take identical samples at
//! the same `--seconds`; they are sized to need about half of that time.

use crate::synth::SynthFat;
use alter_infer::{Model, Probe};
use alter_workloads::common::{rng, uniform_f64s};
use alter_workloads::{all_benchmarks, Benchmark, Scale};

/// Iterations of `synth-fat` at benchmark scale.
const SYNTH_ITERS: usize = 2048;
/// Iterations of `synth-fat` for the inference-scale probes.
const SYNTH_ITERS_SMALL: usize = 128;

/// One workload: the program, how to run it, and how much of it to run.
pub struct Workload {
    /// The program at benchmark scale.
    pub program: Box<dyn Benchmark>,
    /// The program at inference scale (for `infer.*` / `analyze.*`).
    pub small: Box<dyn Benchmark>,
    /// Replaces `best_probe`'s model (`genome-ooo`).
    model: Option<Model>,
    /// Sample groups measured per 10 s of `--seconds`.
    pub groups_per_10s: usize,
    /// `run_sequential` calls per group (their median is the group's `seq`).
    pub seq_reps: usize,
    /// Table-3-style verdict row `infer` must return at inference scale.
    pub expected_infer: &'static str,
    /// Regenerates the program's input (for `workloads.input_gen_ms`).
    pub input_gen: Box<dyn Fn() + Sync>,
}

impl Workload {
    /// The probe the workload runs with `workers` workers: the paper's best
    /// annotation at the tuned chunk factor, every engine knob at its
    /// default.
    pub fn probe(&self, workers: usize, threaded: bool) -> Probe {
        let mut p = self.program.best_probe(workers);
        if let Some(model) = self.model {
            p.model = model;
        }
        p.threaded = threaded;
        p
    }

    /// Like [`Workload::probe`], for the inference-scale program.
    pub fn small_probe(&self, workers: usize) -> Probe {
        let mut p = self.small.best_probe(workers);
        if let Some(model) = self.model {
            p.model = model;
        }
        p
    }
}

/// `(name, why)` of every workload, in `BENCHMARK.json` order.
pub const CATALOG: [(&str, &str); 6] = [
    (
        "genome",
        "1024 tiny hash-set transactions over a 131k-slot heap: snapshot, Tx lifecycle and collections dominate; writes-only tracking",
    ),
    (
        "genome-ooo",
        "same loop and input under OutOfOrder: read tracking and RAW validation on; moves apart from genome when the read path changes",
    ),
    (
        "kmeans",
        "6144 transactions in 3075 rounds at 2 workers: per-round fixed cost, pool handoff and reduction merge dominate",
    ),
    (
        "floyd",
        "128 fat row transactions, ~21% retries at 2 workers, 512-word COW writes: validate, commit and wasted re-execution dominate",
    ),
    (
        "barneshut",
        "read-mostly and execute-dominated, closest to break-even: engine-overhead work should move it little, parallel execution most",
    ),
    (
        "synth-fat",
        "seeded control: ~85 us of private work per iteration bypasses every engine optimisation; prediction is no change",
    ),
];

fn paper(name: &str, scale: Scale) -> Box<dyn Benchmark> {
    all_benchmarks(scale)
        .into_iter()
        .find(|b| b.name() == name)
        .unwrap_or_else(|| panic!("alter-workloads has no benchmark named {name}"))
}

/// Builds workload `name` (a [`CATALOG`] name) with `seed`, or `None` for an
/// unknown name. Only `synth-fat` consumes the seed.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let from_paper = |bench: &'static str,
                      model: Option<Model>,
                      groups_per_10s: usize,
                      seq_reps: usize,
                      expected_infer: &'static str,
                      input_gen: Box<dyn Fn() + Sync>| Workload {
        program: paper(bench, Scale::Paper),
        small: paper(bench, Scale::Inference),
        model,
        groups_per_10s,
        seq_reps,
        expected_infer,
        input_gen,
    };
    let genome_gen = || -> Box<dyn Fn() + Sync> {
        let g = alter_workloads::genome::Genome::new(Scale::Paper);
        Box::new(move || drop(std::hint::black_box(g.stream())))
    };
    let w = match name {
        "genome" => from_paper(
            "Genome",
            None,
            26,
            8,
            "Yes success success success N/A",
            genome_gen(),
        ),
        "genome-ooo" => from_paper(
            "Genome",
            Some(Model::OutOfOrder),
            26,
            8,
            "Yes success success success N/A",
            genome_gen(),
        ),
        "kmeans" => {
            let k = alter_workloads::kmeans::KMeans::new(Scale::Paper);
            from_paper(
                "K-means",
                None,
                18,
                1,
                "Yes h.c. h.c. h.c. +/*/max",
                Box::new(move || drop(std::hint::black_box(k.features()))),
            )
        }
        "floyd" => {
            let f = alter_workloads::floyd::Floyd::new(Scale::Paper);
            from_paper(
                "Floyd",
                None,
                16,
                4,
                "Yes h.c. h.c. success N/A",
                Box::new(move || drop(std::hint::black_box(f.edges()))),
            )
        }
        // BarnesHut's generator is private; this times the same draws it
        // makes (three `uniform_f64s` of one value per body, 1024 bodies).
        "barneshut" => from_paper(
            "BarnesHut",
            None,
            95,
            2,
            "No success success success N/A",
            Box::new(|| {
                let mut r = rng(0xb125);
                for (lo, hi) in [(0.0, 1.0), (0.0, 1.0), (0.5, 1.5)] {
                    std::hint::black_box(uniform_f64s(&mut r, 1024, lo, hi));
                }
            }),
        ),
        "synth-fat" => Workload {
            program: Box::new(SynthFat::new(seed, SYNTH_ITERS)),
            small: Box::new(SynthFat::new(seed, SYNTH_ITERS_SMALL)),
            model: None,
            groups_per_10s: 10,
            seq_reps: 1,
            expected_infer: "No success success success N/A",
            input_gen: Box::new(move || {
                drop(std::hint::black_box(SynthFat::new(seed, SYNTH_ITERS)))
            }),
        },
        _ => return None,
    };
    Some(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_catalog_name_builds_and_nothing_else_does() {
        for (name, why) in CATALOG {
            let w = build(name, 1).unwrap_or_else(|| panic!("{name} must build"));
            assert!(w.groups_per_10s >= 10 && w.seq_reps >= 1, "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert!(build("labyrinth", 1).is_none());
    }

    #[test]
    fn genome_ooo_is_genome_under_the_other_model() {
        let (g, o) = (build("genome", 1).unwrap(), build("genome-ooo", 1).unwrap());
        assert_eq!(g.probe(2, true).model, Model::StaleReads);
        assert_eq!(o.probe(2, true).model, Model::OutOfOrder);
        assert_eq!(g.probe(2, true).chunk, o.probe(2, true).chunk);
        assert!(o.probe(2, true).threaded && !o.probe(1, false).threaded);
    }
}
