//! # alter-workloads — the twelve evaluation loops
//!
//! Rust re-implementations of the benchmarks in Table 2 of the paper (eight
//! Berkeley dwarfs + four STAMP applications), each with a deterministic
//! input generator, a plain-Rust sequential reference, an ALTER-parallel
//! version written against the transactional heap, and a program-specific
//! output validator. Every workload implements
//! [`alter_infer::InferTarget`] (for Table 3) and [`Benchmark`] (for the
//! speedup figures).
//!
//! Each workload builds its loop's start state — input, heap, reduction
//! registry and the handles into the heap — in one private `start`
//! function, which `run`, `probe_summary` and `loop_spec` all call. The
//! dependence replay and the static `LoopSpec` therefore describe the same
//! loop instance, down to the `ObjId`s, by construction.
#![warn(missing_docs)]

pub mod agglo;
pub mod barnes_hut;
pub mod common;
pub mod fft;
pub mod floyd;
pub mod gauss_seidel;
pub mod genome;
pub mod hmm;
pub mod kmeans;
pub mod labyrinth;
pub mod manual;
pub mod sg3d;
pub mod ssca2;

pub use common::{Benchmark, Scale};

/// All twelve evaluation benchmarks in Table 2/3 row order.
pub fn all_benchmarks(scale: Scale) -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(genome::Genome::new(scale)),
        Box::new(ssca2::Ssca2::new(scale)),
        Box::new(kmeans::KMeans::new(scale)),
        Box::new(labyrinth::Labyrinth::new(scale)),
        Box::new(agglo::AggloClust::new(scale)),
        Box::new(gauss_seidel::GaussSeidel::dense(scale)),
        Box::new(gauss_seidel::GaussSeidel::sparse(scale)),
        Box::new(floyd::Floyd::new(scale)),
        Box::new(sg3d::Sg3d::new(scale)),
        Box::new(barnes_hut::BarnesHut::new(scale)),
        Box::new(fft::Fft::new(scale)),
        Box::new(hmm::Hmm::new(scale)),
    ]
}

/// Case-insensitive benchmark lookup, ignoring `-`/`_`, so `k-means`,
/// `kmeans` and `K-means` all resolve. The CLIs and the replay driver share
/// this so a journal's recorded workload name round-trips through lookup.
pub fn find_benchmark(name: &str) -> Option<Box<dyn Benchmark>> {
    let norm = |s: &str| {
        s.chars()
            .filter(|c| *c != '-' && *c != '_')
            .flat_map(char::to_lowercase)
            .collect::<String>()
    };
    let want = norm(name);
    all_benchmarks(Scale::Inference)
        .into_iter()
        .find(|b| norm(b.name()) == want)
}
