//! BarnesHut — the N-body dwarf (Olden's implementation), parallelizing
//! the force-computation loop over an `ALTERList` of bodies.
//!
//! Each timestep rebuilds the quadtree sequentially (it is loop-invariant
//! input to the force loop, like the paper's tree), then the parallel loop
//! walks the list of bodies: each iteration reads the shared tree, computes
//! the approximate force on its body, and writes that body's own state —
//! disjoint writes, no loop-carried dependences (Table 3: Dep = No), so
//! every model succeeds and the speedup is near-linear (Figure 13).

use crate::common::{rng, uniform_f64s, Benchmark, Scale};
use alter_analyze::absint::{AccessKind, LoopSpec, Member, Words};
use alter_collections::AlterList;
use alter_heap::{Heap, ObjData, ObjId};
use alter_infer::{InferTarget, Model, Probe, ProbeRun, ProgramOutput};
use alter_runtime::{
    summarize_dependences, LoopSummary, RedOp, RedVars, RunError, SeqSpace, TxCtx,
};

// Body object layout: [0]=x [1]=y [2]=vx [3]=vy [4]=mass.
const BX: usize = 0;
const BY: usize = 1;
const VX: usize = 2;
const VY: usize = 3;
const BM: usize = 4;

/// Bodies in the one-timestep dependence replay and its `LoopSpec`: the
/// force loop's access shape does not depend on the body count.
const REPLAY_BODIES: usize = 64;

/// A quadtree node: either an aggregate (centre of mass) or a leaf body.
#[derive(Clone, Debug)]
struct QuadNode {
    x: f64,
    y: f64,
    mass: f64,
    size: f64,
    children: Vec<QuadNode>,
}

impl QuadNode {
    fn build(bodies: &[(f64, f64, f64)], x0: f64, y0: f64, size: f64, depth: usize) -> QuadNode {
        let mass: f64 = bodies.iter().map(|b| b.2).sum();
        let (cx, cy) = if mass > 0.0 {
            (
                bodies.iter().map(|b| b.0 * b.2).sum::<f64>() / mass,
                bodies.iter().map(|b| b.1 * b.2).sum::<f64>() / mass,
            )
        } else {
            (x0 + size / 2.0, y0 + size / 2.0)
        };
        let mut node = QuadNode {
            x: cx,
            y: cy,
            mass,
            size,
            children: Vec::new(),
        };
        if bodies.len() > 1 && depth < 16 {
            let half = size / 2.0;
            for qy in 0..2 {
                for qx in 0..2 {
                    let (qx0, qy0) = (x0 + qx as f64 * half, y0 + qy as f64 * half);
                    let sub: Vec<(f64, f64, f64)> = bodies
                        .iter()
                        .copied()
                        .filter(|b| {
                            b.0 >= qx0 && b.0 < qx0 + half && b.1 >= qy0 && b.1 < qy0 + half
                        })
                        .collect();
                    if !sub.is_empty() {
                        node.children
                            .push(QuadNode::build(&sub, qx0, qy0, half, depth + 1));
                    }
                }
            }
        }
        node
    }

    /// Barnes-Hut force with opening angle θ = 0.5; returns (fx, fy, nodes
    /// visited).
    fn force(&self, x: f64, y: f64, theta: f64) -> (f64, f64, u64) {
        let dx = self.x - x;
        let dy = self.y - y;
        let d2 = dx * dx + dy * dy + 1e-6;
        if self.children.is_empty() || self.size * self.size < theta * theta * d2 {
            let d = d2.sqrt();
            let f = self.mass / (d2 * d);
            (f * dx, f * dy, 1)
        } else {
            let mut acc = (0.0, 0.0, 1u64);
            for c in &self.children {
                let (fx, fy, n) = c.force(x, y, theta);
                acc.0 += fx;
                acc.1 += fy;
                acc.2 += n;
            }
            acc
        }
    }
}

/// The Barnes-Hut N-body benchmark.
#[derive(Clone, Debug)]
pub struct BarnesHut {
    name: &'static str,
    bodies: usize,
    steps: usize,
    dt: f64,
    seed: u64,
}

impl BarnesHut {
    /// The benchmark at the given scale (the paper simulates 4096/8192
    /// particles).
    pub fn new(scale: Scale) -> Self {
        BarnesHut {
            name: "BarnesHut",
            bodies: match scale {
                Scale::Inference => 256,
                Scale::Paper => 1024,
            },
            steps: 4,
            dt: 1e-3,
            seed: 0xb125,
        }
    }

    fn initial_bodies(&self) -> Vec<[f64; 5]> {
        let mut r = rng(self.seed);
        let xs = uniform_f64s(&mut r, self.bodies, 0.0, 1.0);
        let ys = uniform_f64s(&mut r, self.bodies, 0.0, 1.0);
        let ms = uniform_f64s(&mut r, self.bodies, 0.5, 1.5);
        (0..self.bodies)
            .map(|i| [xs[i], ys[i], 0.0, 0.0, ms[i]])
            .collect()
    }

    /// The loop's start state: the first `n` bodies, one heap object each,
    /// linked into a list in order. Returns the list and the body objects.
    fn start(&self, n: usize) -> (Heap, RedVars, AlterList<ObjId>, Vec<ObjId>) {
        let mut heap = Heap::new();
        let list = AlterList::new(&mut heap);
        let mut bodies = Vec::new();
        for b in self.initial_bodies().into_iter().take(n) {
            let obj = heap.alloc(ObjData::F64(b.to_vec()));
            list.push_back(&mut heap, obj);
            bodies.push(obj);
        }
        (heap, RedVars::new(), list, bodies)
    }

    /// The quadtree over the bodies' committed positions and masses.
    fn tree(heap: &Heap, list: AlterList<ObjId>) -> QuadNode {
        let snapshot: Vec<(f64, f64, f64)> = list
            .seq_values(heap)
            .iter()
            .map(|o| {
                let b = heap.get(*o).f64s();
                (b[BX], b[BY], b[BM])
            })
            .collect();
        QuadNode::build(&snapshot, -2.0, -2.0, 5.0, 0)
    }

    /// The force loop's body for one timestep over `tree`, which it owns:
    /// every step builds its own.
    fn body(&self, list: AlterList<ObjId>, tree: QuadNode) -> impl Fn(&mut TxCtx<'_>, u64) + Sync {
        let dt = self.dt;
        move |ctx, raw| {
            let node = ObjId::from_index(raw as u32);
            let obj = list.value(ctx, node);
            let (x, y) = (ctx.tx.read_f64(obj, BX), ctx.tx.read_f64(obj, BY));
            let (fx, fy, visited) = tree.force(x, y, 0.5);
            ctx.tx.work(visited * 8);
            ctx.tx.update_f64s(obj, 0, 4, |b| {
                b[VX] += fx * dt;
                b[VY] += fy * dt;
                b[BX] += b[VX] * dt;
                b[BY] += b[VY] * dt;
            });
        }
    }

    /// Sequential reference: returns final positions.
    pub fn run_sequential_raw(&self) -> Vec<f64> {
        let mut bodies = self.initial_bodies();
        for _ in 0..self.steps {
            let snapshot: Vec<(f64, f64, f64)> =
                bodies.iter().map(|b| (b[BX], b[BY], b[BM])).collect();
            let tree = QuadNode::build(&snapshot, -2.0, -2.0, 5.0, 0);
            for b in &mut bodies {
                let (fx, fy, _) = tree.force(b[BX], b[BY], 0.5);
                b[VX] += fx * self.dt;
                b[VY] += fy * self.dt;
                b[BX] += b[VX] * self.dt;
                b[BY] += b[VY] * self.dt;
            }
        }
        bodies.iter().flat_map(|b| [b[BX], b[BY]]).collect()
    }
}

impl InferTarget for BarnesHut {
    fn name(&self) -> &str {
        self.name
    }

    fn run_sequential(&self) -> ProgramOutput {
        ProgramOutput::from_floats(self.run_sequential_raw())
    }

    fn run_probe(&self, probe: &Probe) -> Result<ProbeRun, RunError> {
        let (mut heap, mut reds, list, _) = self.start(self.bodies);
        let model = self.cost_model();
        probe.session(&mut reds, &model, |mut session, reds| {
            for _ in 0..self.steps {
                // Sequential tree build from the committed state (the paper
                // parallelizes only the force loop).
                let tree = Self::tree(&heap, list);
                let space = &mut SeqSpace::new(list.node_ids(&heap));
                session.run_loop(&mut heap, reds, space, self.body(list, tree))?;
            }
            let positions: Vec<f64> = list
                .seq_values(&heap)
                .iter()
                .flat_map(|o| {
                    let b = heap.get(*o).f64s();
                    [b[BX], b[BY]]
                })
                .collect();
            // Tree builds are the sequential 0.4% of runtime (loop weight 99.6%).
            let tree_builds = self.steps as f64 * self.bodies as f64 * 4.0;
            Ok(session.finish(ProgramOutput::from_floats(positions), tree_builds))
        })
    }

    fn probe_summary(&self) -> LoopSummary {
        let (mut heap, _, list, _) = self.start(REPLAY_BODIES);
        let tree = Self::tree(&heap, list);
        let nodes = list.node_ids(&heap);
        summarize_dependences(&mut heap, &mut SeqSpace::new(nodes), self.body(list, tree))
    }

    fn loop_spec(&self) -> Option<LoopSpec> {
        let (heap, _, list, bodies) = self.start(REPLAY_BODIES);
        let nodes: Vec<ObjId> = list
            .node_ids(&heap)
            .into_iter()
            .map(|raw| ObjId::from_index(raw as u32))
            .collect();
        let mut spec = LoopSpec::new(nodes.len() as u64, heap.high_water());
        // Iteration i reads its own list node's value word and updates its
        // own body's [x, y, vx, vy] — both ordinal-injective, no carried
        // dependences (Table 3: Dep = No).
        let node_r = spec.region("nodes", nodes, 3);
        spec.access(
            node_r,
            Member::Each,
            Words::Range { lo: 0, hi: 1 },
            AccessKind::Read,
        );
        let body_r = spec.region("bodies", bodies, 5);
        spec.access(
            body_r,
            Member::Each,
            Words::Range { lo: 0, hi: 4 },
            AccessKind::Update,
        );
        Some(spec)
    }

    fn validate(&self, reference: &ProgramOutput, candidate: &ProgramOutput) -> bool {
        reference.approx_eq(candidate, 1e-9)
    }
}

impl Benchmark for BarnesHut {
    fn loop_weight(&self) -> f64 {
        0.996 // Table 2
    }

    fn chunk_factor(&self) -> usize {
        16
    }

    fn best_config(&self) -> (Model, Option<(String, RedOp)>) {
        (Model::StaleReads, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alter_infer::{infer, InferConfig};

    fn tiny() -> BarnesHut {
        BarnesHut {
            name: "BarnesHut",
            bodies: 64,
            steps: 2,
            dt: 1e-3,
            seed: 10,
        }
    }

    #[test]
    fn sequential_is_finite_and_moves_bodies() {
        let bh = tiny();
        let pos = bh.run_sequential_raw();
        assert_eq!(pos.len(), 128);
        assert!(pos.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn no_loop_carried_dependences() {
        let bh = tiny();
        assert!(!bh.probe_summary().report().any());
    }

    #[test]
    fn parallel_force_loop_is_exact() {
        let bh = tiny();
        let seq = bh.run_sequential();
        for model in [Model::Tls, Model::OutOfOrder, Model::StaleReads] {
            let run = bh.run_probe(&Probe::new(model, 4, 8)).unwrap();
            assert!(bh.validate(&seq, &run.output), "{model}");
            assert_eq!(run.stats.retries(), 0, "{model}");
        }
    }

    #[test]
    fn inference_reports_all_success() {
        let bh = tiny();
        let report = infer(
            &bh,
            &InferConfig {
                workers: 4,
                chunk: 8,
                ..Default::default()
            },
        );
        assert!(!report.dep.any());
        assert!(report.tls.is_success());
        assert!(report.out_of_order.is_success());
        assert!(report.stale_reads.is_success());
    }
}
