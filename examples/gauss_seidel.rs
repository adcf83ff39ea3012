//! The paper's Figure 1: Gauss-Seidel under `[StaleReads]`.
//!
//! ```text
//! cargo run --release --example gauss_seidel
//! ```
//!
//! Solves `Ax = b` with the iterative method whose inner loop has a tight
//! true-dependence chain, then reports what the paper reports: the solution
//! converges despite the broken dependences, at most a sweep or two late,
//! with zero conflicts, and with a simulated multicore speedup that
//! saturates once the kernel hits the memory-bandwidth ceiling.

use alter::infer::{InferTarget, Model};
use alter::workloads::gauss_seidel::GaussSeidel;
use alter::workloads::{Benchmark, Scale};

fn main() {
    for gs in [
        GaussSeidel::dense(Scale::Inference),
        GaussSeidel::sparse(Scale::Inference),
    ] {
        let (x_seq, seq_sweeps) = gs.solve_sequential();

        println!("== {} ==", gs.name());
        println!("sequential: {seq_sweeps} sweeps");
        for workers in [1, 2, 4, 8] {
            let probe = gs.best_probe(workers);
            assert_eq!(probe.model, Model::StaleReads);
            let run = gs.run_probe(&probe).expect("StaleReads runs");
            let (sweeps, stats, clock) = (run.output.ints[0], run.stats, run.clock);
            let max_diff = x_seq
                .iter()
                .zip(&run.output.floats)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            println!(
                "  {workers} workers: {sweeps} sweeps, {} retries, max |x_seq - x_par| = {max_diff:.2e}, simulated speedup {:.2}x",
                stats.retries(),
                clock.speedup(),
            );
        }
        println!();
    }
}
