//! SSCA2 — kernel 1 of the HPCS Scalable Synthetic Compact Applications
//! graph benchmark (via STAMP): constructing the adjacency structure from a
//! generated edge list.
//!
//! Each iteration appends one edge's head to its tail's adjacency object —
//! a read-modify-write of that vertex's allocation. Two iterations conflict
//! exactly when concurrent chunks touch the same vertex. As with Genome,
//! every location read is also written, so StaleReads and OutOfOrder are
//! equally correct and StaleReads wins by skipping read instrumentation
//! (Figure 7). The random input generation step is not timed, matching the
//! paper's footnote.

use crate::common::{rng, Benchmark, Scale};
use alter_analyze::absint::{AccessKind, LoopSpec, Member, Words};
use alter_heap::{Heap, ObjData, ObjId};
use alter_infer::{InferTarget, Model, Probe, ProbeRun, ProgramOutput};
use alter_runtime::{
    summarize_dependences, LoopSummary, RangeSpace, RedOp, RedVars, RunError, TxCtx,
};

// Adjacency object layout: [0] = degree, [1..] = neighbour slots.
const DEG: usize = 0;
const SLOTS: usize = 1;

/// The SSCA2 kernel-1 benchmark.
#[derive(Clone, Debug)]
pub struct Ssca2 {
    name: &'static str,
    vertices: usize,
    edges: usize,
    /// Neighbour capacity per vertex object.
    cap: usize,
    seed: u64,
}

impl Ssca2 {
    /// The benchmark at the given scale (the paper uses problem scales
    /// 18–20, i.e. 2^18–2^20 vertices).
    pub fn new(scale: Scale) -> Self {
        let vertices = match scale {
            Scale::Inference => 4_096,
            Scale::Paper => 16_384,
        };
        Ssca2 {
            name: "SSCA2",
            vertices,
            edges: vertices * 2,
            cap: 24,
            seed: 0x55ca,
        }
    }

    /// Deterministic edge list (uniform endpoints, self-loops excluded).
    pub fn edge_list(&self) -> Vec<(usize, usize)> {
        let mut r = rng(self.seed);
        (0..self.edges)
            .map(|_| loop {
                let u = r.gen_range(0..self.vertices);
                let v = r.gen_range(0..self.vertices);
                if u != v {
                    break (u, v);
                }
            })
            .collect()
    }

    /// Sequential adjacency construction; returns per-vertex sorted
    /// neighbour lists (truncated at capacity like the parallel version).
    pub fn run_sequential_raw(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.vertices];
        for (u, v) in self.edge_list() {
            if adj[u].len() < self.cap {
                adj[u].push(v);
            }
        }
        for l in &mut adj {
            l.sort_unstable();
        }
        adj
    }

    fn digest(adj: &[Vec<usize>]) -> Vec<i64> {
        // Degree plus neighbour checksum per vertex: order-insensitive.
        adj.iter()
            .map(|l| (l.len() as i64) << 32 | (l.iter().sum::<usize>() as i64 & 0xffff_ffff))
            .collect()
    }

    /// The loop's start state: the edge list, and one empty adjacency
    /// object per vertex.
    fn start(&self) -> (Vec<(usize, usize)>, Heap, RedVars, Vec<ObjId>) {
        let edges = self.edge_list();
        let mut heap = Heap::new();
        let adj = (0..self.vertices)
            .map(|_| heap.alloc(ObjData::zeros_i64(SLOTS + self.cap)))
            .collect();
        (edges, heap, RedVars::new(), adj)
    }

    fn body<'a>(
        &self,
        edges: &'a [(usize, usize)],
        adj: &'a [ObjId],
    ) -> impl Fn(&mut TxCtx<'_>, u64) + Sync + 'a {
        let cap = self.cap;
        move |ctx, i| {
            let (u, v) = edges[i as usize];
            ctx.tx.work(32); // endpoint decoding and index arithmetic
            let deg = ctx.tx.read_i64(adj[u], DEG) as usize;
            if deg < cap {
                ctx.tx.write_i64(adj[u], SLOTS + deg, v as i64);
                ctx.tx.write_i64(adj[u], DEG, deg as i64 + 1);
            }
        }
    }
}

impl InferTarget for Ssca2 {
    fn name(&self) -> &str {
        self.name
    }

    fn run_sequential(&self) -> ProgramOutput {
        ProgramOutput::from_ints(Self::digest(&self.run_sequential_raw()))
    }

    fn run_probe(&self, probe: &Probe) -> Result<ProbeRun, RunError> {
        let (edges, mut heap, mut reds, adj) = self.start();
        let model = self.cost_model();
        probe.session(&mut reds, &model, |mut session, reds| {
            let space = &mut RangeSpace::new(0, edges.len() as u64);
            session.run_loop(&mut heap, reds, space, self.body(&edges, &adj))?;
            // Read back adjacency (sorted per vertex — commit order may differ).
            let result: Vec<Vec<usize>> = adj
                .iter()
                .map(|id| {
                    let words = heap.get(*id).i64s();
                    let deg = words[DEG] as usize;
                    let mut l: Vec<usize> = words[SLOTS..SLOTS + deg]
                        .iter()
                        .map(|&v| v as usize)
                        .collect();
                    l.sort_unstable();
                    l
                })
                .collect();
            Ok(session.finish(ProgramOutput::from_ints(Self::digest(&result)), 0.0))
        })
    }

    fn probe_summary(&self) -> LoopSummary {
        let (edges, mut heap, _, adj) = self.start();
        let body = self.body(&edges, &adj);
        summarize_dependences(&mut heap, &mut RangeSpace::new(0, edges.len() as u64), body)
    }

    fn loop_spec(&self) -> Option<LoopSpec> {
        let words = (SLOTS + self.cap) as u32;
        let (_, heap, _, adj) = self.start();
        let mut spec = LoopSpec::new(self.edges as u64, heap.high_water());
        // Each edge read-modify-writes its tail vertex's adjacency object:
        // a degree read, then (below capacity) a slot and degree write —
        // the vertex is data-dependent on the edge list.
        let adj_r = spec.region("adjacency", adj, words);
        spec.access(
            adj_r,
            Member::Some,
            Words::Range { lo: 0, hi: 1 },
            AccessKind::Read,
        );
        spec.access_if(
            adj_r,
            Member::Some,
            Words::Unknown { bound: words },
            AccessKind::Write,
        );
        Some(spec)
    }
}

impl Benchmark for Ssca2 {
    fn loop_weight(&self) -> f64 {
        0.76 // Table 2
    }

    fn chunk_factor(&self) -> usize {
        16 // the paper tunes 64 at scale 20; scaled to our input
    }

    fn best_config(&self) -> (Model, Option<(String, RedOp)>) {
        (Model::StaleReads, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alter_infer::{infer, InferConfig};

    fn tiny() -> Ssca2 {
        Ssca2 {
            name: "SSCA2",
            vertices: 512,
            edges: 1024,
            cap: 24,
            seed: 7,
        }
    }

    #[test]
    fn sequential_builds_every_edge() {
        let s = tiny();
        let adj = s.run_sequential_raw();
        let total: usize = adj.iter().map(Vec::len).sum();
        assert_eq!(total, 1024, "capacity never saturates at this scale");
    }

    #[test]
    fn stale_and_ooo_build_identical_graphs() {
        let s = tiny();
        let seq = s.run_sequential();
        for model in [Model::OutOfOrder, Model::StaleReads] {
            let run = s.run_probe(&Probe::new(model, 4, 8)).unwrap();
            assert_eq!(run.output.ints, seq.ints, "{model}");
            assert!(
                run.stats.retry_rate() < 0.5,
                "{model}: {:.2}",
                run.stats.retry_rate()
            );
        }
    }

    #[test]
    fn inference_reports_dep_and_successes() {
        let s = tiny();
        let report = infer(
            &s,
            &InferConfig {
                workers: 4,
                chunk: 8,
                ..Default::default()
            },
        );
        assert!(report.dep.any(), "vertex RMW is loop-carried");
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
    }

    #[test]
    fn stale_reads_is_fastest_in_simulated_time() {
        let s = tiny();
        let clock = |model| s.run_probe(&Probe::new(model, 4, 8)).unwrap().clock;
        let (stale, ooo, tls) = (
            clock(Model::StaleReads),
            clock(Model::OutOfOrder),
            clock(Model::Tls),
        );
        assert!(stale.par_units < ooo.par_units, "stale < ooo");
        assert!(
            ooo.par_units <= tls.par_units * 1.05,
            "ooo <= tls (within noise)"
        );
    }
}
