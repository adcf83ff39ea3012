//! Labyrinth — STAMP's maze router, the one benchmark ALTER cannot
//! parallelize (Table 3: high conflicts under every model).
//!
//! Each iteration routes one (source, destination) request through a shared
//! grid with a breadth-first search and claims every cell along the found
//! path. The BFS reads a large portion of the grid and the claimed paths
//! overlap heavily, so concurrent iterations conflict almost always — under
//! WAW *and* RAW policies — and the loop effectively serializes. The grid
//! is an `ALTERVector` as in the paper (Table 2).

use crate::common::{rng, Benchmark, Scale};
use alter_analyze::absint::{AccessKind, LoopSpec, Member, Words};
use alter_collections::AlterVec;
use alter_heap::Heap;
use alter_infer::{InferTarget, Model, Probe, ProbeRun, ProgramOutput};
use alter_runtime::{
    summarize_dependences, LoopSummary, RangeSpace, RedOp, RedVars, RunError, RunStats, TxCtx,
};
use alter_sim::{SimClock, SimObserver};
use std::collections::VecDeque;

const FREE: i64 = 0;

/// The Labyrinth routing benchmark.
#[derive(Clone, Debug)]
pub struct Labyrinth {
    name: &'static str,
    width: usize,
    height: usize,
    /// Routing layers (the paper's grids are 128²×3 and 256²×5).
    depth: usize,
    paths: usize,
    seed: u64,
}

impl Labyrinth {
    /// The benchmark at the given scale (the paper routes 128–256 paths on
    /// 128²×3 to 256²×5 grids).
    pub fn new(scale: Scale) -> Self {
        // Enough requests that even at the inference chunk factor (16)
        // several transactions run concurrently, each routing through the
        // contended grid centre.
        let (side, paths) = match scale {
            Scale::Inference => (20, 128),
            Scale::Paper => (32, 256),
        };
        Labyrinth {
            name: "Labyrinth",
            width: side,
            height: side,
            depth: 3,
            paths,
            seed: 0x1ab1,
        }
    }

    /// Deterministic routing requests: each connects two opposite borders,
    /// so every route crosses the middle of the grid and routes contend
    /// heavily — the congestion regime the paper's Labyrinth runs in.
    pub fn requests(&self) -> Vec<(usize, usize)> {
        let mut r = rng(self.seed);
        let (w, h) = (self.width, self.height);
        (0..self.paths)
            .map(|i| {
                if i % 2 == 0 {
                    // Left border to right border.
                    let s = r.gen_range(0..h) * w;
                    let d = r.gen_range(0..h) * w + (w - 1);
                    (s, d)
                } else {
                    // Top border to bottom border.
                    let s = r.gen_range(0..w);
                    let d = (h - 1) * w + r.gen_range(0..w);
                    (s, d)
                }
            })
            .collect()
    }

    /// BFS from `src` to `dst` over `occupied`; returns the path cells
    /// (excluding endpoints' freedom requirements — endpoints may be
    /// shared) or `None` if unreachable.
    fn bfs(&self, occupied: &[i64], src: usize, dst: usize) -> Option<Vec<usize>> {
        let (w, h, d) = (self.width, self.height, self.depth);
        let mut prev = vec![usize::MAX; w * h * d];
        let mut queue = VecDeque::new();
        prev[src] = src;
        queue.push_back(src);
        while let Some(c) = queue.pop_front() {
            if c == dst {
                let mut path = Vec::new();
                let mut cur = dst;
                while cur != src {
                    path.push(cur);
                    cur = prev[cur];
                }
                path.push(src);
                path.reverse();
                return Some(path);
            }
            let (x, y, z) = (c % w, (c / w) % h, c / (w * h));
            let mut push = |n: usize| {
                if prev[n] == usize::MAX && (occupied[n] == FREE || n == dst) {
                    prev[n] = c;
                    queue.push_back(n);
                }
            };
            if x > 0 {
                push(c - 1);
            }
            if x + 1 < w {
                push(c + 1);
            }
            if y > 0 {
                push(c - w);
            }
            if y + 1 < h {
                push(c + w);
            }
            if z > 0 {
                push(c - w * h);
            }
            if z + 1 < d {
                push(c + w * h);
            }
        }
        None
    }

    /// Sequential router; returns the final grid and routed-path count.
    pub fn run_sequential_raw(&self) -> (Vec<i64>, usize) {
        let mut grid = vec![FREE; self.width * self.height * self.depth];
        let mut routed = 0;
        for (id, (s, d)) in self.requests().into_iter().enumerate() {
            if let Some(path) = self.bfs(&grid, s, d) {
                for c in path {
                    grid[c] = id as i64 + 1;
                }
                routed += 1;
            }
        }
        (grid, routed)
    }

    /// The loop's start state: the requests, and a free grid.
    fn start(&self) -> (Vec<(usize, usize)>, Heap, RedVars, AlterVec<i64>) {
        let requests = self.requests();
        let mut heap = Heap::new();
        let grid = AlterVec::new(&mut heap, self.width * self.height * self.depth);
        (requests, heap, RedVars::new(), grid)
    }

    fn body<'a>(
        &'a self,
        requests: &'a [(usize, usize)],
        grid: AlterVec<i64>,
    ) -> impl Fn(&mut TxCtx<'_>, u64) + Sync + 'a {
        move |ctx, i| {
            let (s, d) = requests[i as usize];
            // The BFS reads the whole grid state.
            let occupied = grid.to_vec(ctx);
            ctx.tx.work((occupied.len() * 4) as u64);
            if let Some(path) = self.bfs(&occupied, s, d) {
                for c in path {
                    grid.set(ctx, c, i as i64 + 1);
                }
            }
        }
    }

    /// Runs the router under `probe`.
    ///
    /// # Errors
    ///
    /// Propagates runtime aborts.
    #[allow(clippy::type_complexity)]
    pub fn run(&self, probe: &Probe) -> Result<(Vec<i64>, usize, RunStats, SimClock), RunError> {
        let (requests, mut heap, mut reds, grid) = self.start();
        let params = probe.exec_params(&reds);
        let model = self.cost_model();
        let mut obs = SimObserver::new(&model, params.workers);
        let body = self.body(&requests, grid);
        let stats = alter_runtime::run_loop_observed(
            &mut heap,
            &mut reds,
            &mut RangeSpace::new(0, requests.len() as u64),
            &params,
            probe.driver(),
            body,
            &mut obs,
        )?;
        let cells = grid.seq_to_vec(&heap);
        let routed = {
            let mut ids: Vec<i64> = cells.iter().copied().filter(|&v| v != FREE).collect();
            ids.sort_unstable();
            ids.dedup();
            ids.len()
        };
        Ok((cells, routed, stats, obs.into_clock()))
    }
}

impl InferTarget for Labyrinth {
    fn name(&self) -> &str {
        self.name
    }

    fn run_sequential(&self) -> ProgramOutput {
        let (grid, routed) = self.run_sequential_raw();
        let mut ints = vec![routed as i64];
        ints.extend(grid);
        ProgramOutput::from_ints(ints)
    }

    fn run_probe(&self, probe: &Probe) -> Result<ProbeRun, RunError> {
        let (grid, routed, stats, clock) = self.run(probe)?;
        let mut ints = vec![routed as i64];
        ints.extend(grid);
        Ok(ProbeRun {
            output: ProgramOutput::from_ints(ints),
            stats,
            clock,
        })
    }

    fn probe_summary(&self) -> LoopSummary {
        let (requests, mut heap, _, grid) = self.start();
        let body = self.body(&requests, grid);
        summarize_dependences(
            &mut heap,
            &mut RangeSpace::new(0, requests.len() as u64),
            body,
        )
    }

    fn loop_spec(&self) -> Option<LoopSpec> {
        let len = (self.width * self.height * self.depth) as u32;
        let (_, heap, _, grid) = self.start();
        let mut spec = LoopSpec::new(self.paths as u64, heap.high_water());
        // Every route BFSes over a snapshot of the whole grid, then claims
        // the (data-dependent) cells of the path it found — the
        // all-overlapping shape no model can break.
        let grid_r = spec.region("grid", vec![grid.object()], len);
        spec.access(
            grid_r,
            Member::At(0),
            Words::Range { lo: 0, hi: len },
            AccessKind::Read,
        );
        spec.access_if(
            grid_r,
            Member::At(0),
            Words::Unknown { bound: len },
            AccessKind::Write,
        );
        Some(spec)
    }

    fn validate(&self, reference: &ProgramOutput, candidate: &ProgramOutput) -> bool {
        // The assertion the paper relies on: the same number of requests
        // must route, and no two paths may claim conflicting cells (grid
        // occupancy digests must agree).
        reference.ints == candidate.ints
    }
}

impl Benchmark for Labyrinth {
    fn loop_weight(&self) -> f64 {
        0.99 // Table 2
    }

    fn chunk_factor(&self) -> usize {
        1
    }

    fn best_config(&self) -> (Model, Option<(String, RedOp)>) {
        // No annotation validates; figures show the (failing) StaleReads run.
        (Model::StaleReads, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alter_infer::{infer, InferConfig, Outcome};

    fn tiny() -> Labyrinth {
        Labyrinth {
            name: "Labyrinth",
            width: 12,
            height: 12,
            depth: 3,
            paths: 16,
            seed: 8,
        }
    }

    #[test]
    fn sequential_routes_most_requests() {
        let l = tiny();
        let (grid, routed) = l.run_sequential_raw();
        assert!(routed >= 12, "routed only {routed}");
        assert!(grid.iter().any(|&c| c != FREE));
    }

    #[test]
    fn every_model_fails() {
        let l = tiny();
        let report = infer(
            &l,
            &InferConfig {
                workers: 4,
                chunk: 1,
                ..Default::default()
            },
        );
        assert!(report.dep.any());
        for (name, outcome) in [
            ("tls", &report.tls),
            ("ooo", &report.out_of_order),
            ("stale", &report.stale_reads),
        ] {
            assert!(!outcome.is_success(), "{name} unexpectedly succeeded");
            assert!(
                matches!(
                    outcome,
                    Outcome::HighConflicts | Outcome::Timeout | Outcome::OutputMismatch
                ),
                "{name}: {outcome}"
            );
        }
        assert!(report.valid_annotations.is_empty());
    }

    #[test]
    fn stale_reads_has_high_conflicts() {
        let l = tiny();
        let (_, _, stats, _) = l.run(&Probe::new(Model::StaleReads, 4, 1)).unwrap();
        assert!(
            stats.retry_rate() >= 0.4,
            "overlapping paths must conflict heavily: {:.2}",
            stats.retry_rate()
        );
    }
}
