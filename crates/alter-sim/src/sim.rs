//! The deterministic virtual-time multicore executor.

use crate::cost::CostModel;
use alter_runtime::{RoundObserver, RoundReport, TaskReport};

/// Accumulated virtual-time accounting for one or more loop executions
/// (convergence algorithms run the inner loop many times; keep one
/// `SimClock` across all sweeps).
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    /// Virtual time of the simulated parallel execution.
    pub par_units: f64,
    /// Virtual time the same committed work costs sequentially (no
    /// instrumentation, no isolation, no retries, no barriers).
    pub seq_units: f64,
    /// Rounds observed.
    pub rounds: u64,
    /// Breakdown: execution time (max over workers, summed over rounds).
    pub exec_units: f64,
    /// Breakdown: serialized commit and validation time.
    pub commit_units: f64,
    /// Breakdown: barriers and snapshot establishment.
    pub overhead_units: f64,
    /// Breakdown: extra time added by the bandwidth ceiling.
    pub bandwidth_stall_units: f64,
}

impl SimClock {
    /// Simulated speedup over the sequential baseline.
    pub fn speedup(&self) -> f64 {
        if self.par_units == 0.0 {
            1.0
        } else {
            self.seq_units / self.par_units
        }
    }

    /// Adds sequential-only work (program phases outside the parallel
    /// loop) to both clocks — they dilute speedup identically, which is
    /// how loop weight (< 100%) enters Amdahl accounting.
    pub fn add_sequential(&mut self, units: f64) {
        self.par_units += units;
        self.seq_units += units;
    }
}

fn exec_cost(m: &CostModel, t: &TaskReport) -> f64 {
    // Copy-on-write cost at page granularity: each dirtied range touches at
    // most one extra page beyond the words written, and never more than the
    // materialized overlay.
    let cow_words = t
        .overlay_words
        .min(t.write_ranges * m.page_words + t.write_words)
        + t.alloc_words;
    t.stats.work as f64 * m.per_work
        + (t.stats.read_words + t.stats.write_words + t.stats.traffic_words) as f64
            * m.per_word_touch
        + (t.instr_read_ops + t.stats.write_ops) as f64 * m.per_instr_op
        + cow_words as f64 * m.per_cow_word
}

fn seq_cost(m: &CostModel, t: &TaskReport) -> f64 {
    t.stats.work as f64 * m.per_work
        + (t.stats.read_words + t.stats.write_words + t.stats.traffic_words) as f64
            * m.per_word_touch
}

/// A [`RoundObserver`] that advances a [`SimClock`] according to a
/// [`CostModel`].
#[derive(Debug)]
pub struct SimObserver<'m> {
    model: &'m CostModel,
    clock: SimClock,
    /// One execution time per simulated core, zeroed every round and kept
    /// between rounds.
    worker_time: Vec<f64>,
}

impl<'m> SimObserver<'m> {
    /// Creates an observer simulating `workers` cores under `model`.
    pub fn new(model: &'m CostModel, workers: usize) -> Self {
        SimObserver {
            model,
            clock: SimClock::default(),
            worker_time: vec![0.0; workers.max(1)],
        }
    }

    /// Consumes the observer, yielding the accumulated clock.
    pub fn into_clock(self) -> SimClock {
        self.clock
    }
}

impl RoundObserver for SimObserver<'_> {
    fn on_round(&mut self, r: &RoundReport<'_>) {
        let m = self.model;
        // Workers execute their transactions concurrently: the round's
        // execution phase lasts as long as its slowest worker.
        let worker_time = &mut self.worker_time;
        worker_time.fill(0.0);
        let workers = worker_time.len();
        let mut round_words = 0u64;
        for t in r.tasks {
            worker_time[t.worker % workers] += exec_cost(m, t);
            round_words += t.stats.read_words + t.stats.write_words + t.stats.traffic_words;
            // Only committed work advances the sequential baseline:
            // retried and squashed executions are parallel-only overhead.
            if t.committed {
                self.clock.seq_units += seq_cost(m, t);
            }
        }
        let exec = worker_time.iter().cloned().fold(0.0, f64::max);

        // Commits and validations serialize in deterministic order.
        let commit: f64 = r
            .tasks
            .iter()
            .map(|t| {
                let validate = t.validate_words as f64 * m.per_validate_word;
                if t.committed {
                    validate
                        + t.write_words as f64 * m.per_commit_word
                        + t.alloc_words as f64 * m.per_commit_word
                } else {
                    validate
                }
            })
            .sum();

        let overhead = m.barrier + r.snapshot_slots as f64 * m.per_snapshot_slot;

        let mut round_time = exec + commit + overhead;
        if let Some(bw) = m.bandwidth_words_per_unit {
            let floor = round_words as f64 / bw;
            if floor > round_time {
                self.clock.bandwidth_stall_units += floor - round_time;
                round_time = floor;
            }
        }
        self.clock.par_units += round_time;
        self.clock.exec_units += exec;
        self.clock.commit_units += commit;
        self.clock.overhead_units += overhead;
        self.clock.rounds += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alter_heap::{Heap, ObjData};
    use alter_runtime::{ConflictPolicy, Driver, ExecParams, LoopBuilder, RunStats, TxCtx};

    /// Runs `body` over `0..iters` with the sequential driver while a
    /// [`SimObserver`] charges virtual time under `model`.
    fn simulate(
        heap: &mut Heap,
        iters: u64,
        params: &ExecParams,
        model: &CostModel,
        body: impl Fn(&mut TxCtx<'_>, u64) + Send + Sync,
    ) -> (RunStats, SimClock) {
        let mut obs = SimObserver::new(model, params.workers);
        let stats = LoopBuilder::new(params)
            .range(0, iters)
            .observer(&mut obs)
            .run(heap, Driver::sequential(), body)
            .unwrap();
        (stats, obs.into_clock())
    }

    fn run_doall(workers: usize, iters: u64, work_per_iter: u64) -> SimClock {
        let mut heap = Heap::new();
        let xs = heap.alloc(ObjData::zeros_f64(iters as usize));
        let mut params = ExecParams::new(workers, 8);
        params.conflict = ConflictPolicy::None;
        let model = CostModel::default();
        let (_, clock) = simulate(&mut heap, iters, &params, &model, |ctx, i| {
            ctx.tx.work(work_per_iter);
            ctx.tx.write_f64(xs, i as usize, 1.0);
        });
        clock
    }

    #[test]
    fn compute_bound_doall_speedup_grows_with_workers() {
        let s1 = run_doall(1, 512, 2000).speedup();
        let s2 = run_doall(2, 512, 2000).speedup();
        let s4 = run_doall(4, 512, 2000).speedup();
        assert!(s2 > s1 * 1.5, "2 workers ≈ 2x: {s1:.2} -> {s2:.2}");
        assert!(s4 > s2 * 1.5, "4 workers ≈ 4x: {s2:.2} -> {s4:.2}");
        assert!(s4 < 4.0 + 1e-9, "cannot exceed linear");
    }

    #[test]
    fn single_worker_has_overhead_not_speedup() {
        let s1 = run_doall(1, 512, 2000).speedup();
        assert!(
            s1 < 1.0,
            "instrumentation+barriers make 1 worker slower: {s1:.3}"
        );
        assert!(s1 > 0.5, "but not pathologically so: {s1:.3}");
    }

    #[test]
    fn bandwidth_ceiling_caps_memory_bound_speedup() {
        let run = |workers: usize| {
            let n = 16384usize;
            let mut heap = Heap::new();
            let xs = heap.alloc(ObjData::zeros_f64(n));
            let ys = heap.alloc(ObjData::zeros_f64(n));
            let chunk = 256usize;
            let params = ExecParams::new(workers, 1);
            let model = CostModel::memory_bound(2.5);
            let (_, clock) = simulate(&mut heap, (n / chunk) as u64, &params, &model, |ctx, c| {
                // Streaming kernel: one range read + one range write per
                // chunk of 256 elements.
                let lo = c as usize * chunk;
                let vals: Vec<f64> = ctx
                    .tx
                    .with_f64s(xs, lo, lo + chunk, |s| s.iter().map(|v| v * 2.0).collect());
                ctx.tx.write_f64s(ys, lo, &vals);
            });
            clock
        };
        let s8 = run(8);
        assert!(
            s8.speedup() < 2.6,
            "bandwidth-capped at ~2.5x: got {:.2}",
            s8.speedup()
        );
        assert!(s8.bandwidth_stall_units > 0.0, "the cap must have engaged");
    }

    #[test]
    fn retries_cost_parallel_time_but_not_sequential_time() {
        // All iterations hammer one counter: massive retries.
        let mut heap = Heap::new();
        let c = heap.alloc(ObjData::scalar_i64(0));
        let params = ExecParams::new(4, 1);
        let model = CostModel::default();
        let (stats, clock) = simulate(&mut heap, 32, &params, &model, |ctx, _| {
            ctx.tx.work(100);
            let v = ctx.tx.read_i64(c, 0);
            ctx.tx.write_i64(c, 0, v + 1);
        });
        assert!(stats.retries() > 0);
        assert!(
            clock.speedup() < 1.0,
            "serialized loop must slow down: {:.2}",
            clock.speedup()
        );
        // Sequential clock counts each iteration exactly once.
        assert_eq!(heap.get(c).i64s()[0], 32);
    }

    #[test]
    fn add_sequential_dilutes_speedup() {
        let mut clock = run_doall(4, 512, 2000);
        let before = clock.speedup();
        clock.add_sequential(clock.seq_units * 2.0);
        let after = clock.speedup();
        assert!(after < before);
        assert!(after > 1.0);
    }

    /// Declared traffic on loop-invariant inputs is charged to both clocks
    /// and counts against the bandwidth ceiling.
    #[test]
    fn traffic_feeds_cost_and_bandwidth() {
        let run = |traffic: u64, bw: Option<f64>| {
            let mut heap = Heap::new();
            let xs = heap.alloc(ObjData::zeros_f64(256));
            let mut params = ExecParams::new(4, 8);
            params.conflict = ConflictPolicy::None;
            let model = CostModel {
                bandwidth_words_per_unit: bw,
                ..CostModel::default()
            };
            let (_, clock) = simulate(&mut heap, 256, &params, &model, |ctx, i| {
                ctx.tx.traffic(traffic);
                ctx.tx.write_f64(xs, i as usize, 1.0);
            });
            clock
        };
        let quiet = run(0, None);
        let loud = run(64, None);
        assert!(
            loud.seq_units > quiet.seq_units,
            "traffic costs sequential time too"
        );
        assert!(loud.par_units > quiet.par_units);
        // A tight ceiling must bind on the traffic-heavy run.
        let capped = run(64, Some(1.5));
        assert!(capped.bandwidth_stall_units > 0.0, "ceiling must engage");
        assert!(capped.speedup() < loud.speedup());
    }

    #[test]
    fn simulation_is_deterministic() {
        let a = run_doall(4, 256, 500);
        let b = run_doall(4, 256, 500);
        assert_eq!(a.par_units.to_bits(), b.par_units.to_bits());
        assert_eq!(a.seq_units.to_bits(), b.seq_units.to_bits());
    }
}
