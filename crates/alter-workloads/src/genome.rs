//! Genome — the first step of STAMP's genome sequencer: "remove duplicate
//! sequences" by inserting every segment into a shared hash set.
//!
//! Every insert reads a bucket and then writes it, so "all variables that
//! are read in the loop are also written to. Hence it is sufficient to
//! check for WAW conflicts alone and no read instrumentation is required"
//! (§7.1) — StaleReads and OutOfOrder produce identical executions, but
//! StaleReads runs faster because it skips read tracking (Figure 6). TLS
//! also succeeds (Genome is the paper's one speculation-friendly
//! dependence-carrying loop), at slightly lower speed than OutOfOrder.

use crate::common::{rng, Benchmark, Scale};
use alter_analyze::absint::{AccessKind, LoopSpec, Member, Words};
use alter_collections::AlterHashSet;
use alter_heap::{Heap, ObjId};
use alter_infer::{InferTarget, Model, Probe, ProbeRun, ProgramOutput};
use alter_runtime::{
    summarize_dependences, LoopSummary, RangeSpace, RedOp, RedVars, RunError, TxCtx,
};

/// The Genome segment-deduplication benchmark.
#[derive(Clone, Debug)]
pub struct Genome {
    name: &'static str,
    segments: usize,
    distinct: usize,
    buckets: usize,
    bucket_cap: usize,
    seed: u64,
}

impl Genome {
    /// The benchmark at the given scale (the paper deduplicates 4M/16M
    /// segments).
    pub fn new(scale: Scale) -> Self {
        // Buckets vastly outnumber per-chunk inserts, as in any sized
        // hash table: bucket collisions between concurrent chunks — i.e.
        // conflicts — stay rare (the paper measures a 0.2% retry rate).
        let (segments, buckets) = match scale {
            Scale::Inference => (2_048, 16_384),
            Scale::Paper => (16_384, 131_072),
        };
        Genome {
            name: "Genome",
            segments,
            distinct: segments / 2,
            buckets,
            bucket_cap: 8,
            seed: 0x6e0e,
        }
    }

    /// Deterministic segment stream with duplicates (each distinct segment
    /// appears about twice — the genome's overlapping reads).
    pub fn stream(&self) -> Vec<i64> {
        let mut r = rng(self.seed);
        (0..self.segments)
            .map(|_| r.gen_range(0..self.distinct as i64) * 0x9e37 + 17)
            .collect()
    }

    /// Sequential dedup via `std` collections.
    pub fn run_sequential_raw(&self) -> Vec<i64> {
        let mut set: Vec<i64> = self.stream().to_vec();
        set.sort_unstable();
        set.dedup();
        set
    }

    /// The loop's start state: the segment stream and an empty set.
    fn start(&self) -> (Vec<i64>, Heap, RedVars, AlterHashSet) {
        let stream = self.stream();
        let mut heap = Heap::new();
        let set = AlterHashSet::new(&mut heap, self.buckets, self.bucket_cap);
        (stream, heap, RedVars::new(), set)
    }

    fn body<'a>(
        &self,
        stream: &'a [i64],
        set: AlterHashSet,
    ) -> impl Fn(&mut TxCtx<'_>, u64) + Sync + 'a {
        move |ctx, i| {
            ctx.tx.work(48); // hash and compare a 16-mer segment
            set.insert(ctx, stream[i as usize]);
        }
    }
}

impl InferTarget for Genome {
    fn name(&self) -> &str {
        self.name
    }

    fn run_sequential(&self) -> ProgramOutput {
        ProgramOutput::from_ints(self.run_sequential_raw())
    }

    fn run_probe(&self, probe: &Probe) -> Result<ProbeRun, RunError> {
        let (stream, mut heap, mut reds, set) = self.start();
        let model = self.cost_model();
        probe.session(&mut reds, &model, |mut session, reds| {
            let space = &mut RangeSpace::new(0, stream.len() as u64);
            session.run_loop(&mut heap, reds, space, self.body(&stream, set))?;
            let mut keys = set.seq_keys(&heap);
            keys.sort_unstable();
            Ok(session.finish(ProgramOutput::from_ints(keys), 0.0))
        })
    }

    fn probe_summary(&self) -> LoopSummary {
        let (stream, mut heap, _, set) = self.start();
        let body = self.body(&stream, set);
        summarize_dependences(
            &mut heap,
            &mut RangeSpace::new(0, stream.len() as u64),
            body,
        )
    }

    fn loop_spec(&self) -> Option<LoopSpec> {
        let (_, heap, _, set) = self.start();
        let buckets: Vec<ObjId> = heap
            .get(set.directory())
            .i64s()
            .iter()
            .map(|&raw| ObjId::from_i64(raw))
            .collect();
        let bucket_words = (2 + self.bucket_cap.max(1)) as u32;
        let mut spec = LoopSpec::new(self.segments as u64, heap.high_water());
        // Each insert hashes to one data-dependent bucket: a directory
        // read, a whole-bucket read, and a conditional write of the
        // count/key/overflow words. Overflow chains are allocated mid-loop.
        let dir_r = spec.region(
            "directory",
            vec![set.directory()],
            set.bucket_count() as u32,
        );
        spec.access(
            dir_r,
            Member::At(0),
            Words::Unknown {
                bound: set.bucket_count() as u32,
            },
            AccessKind::Read,
        );
        let buck_r = spec.region("buckets", buckets, bucket_words);
        spec.access(
            buck_r,
            Member::Some,
            Words::Range {
                lo: 0,
                hi: bucket_words,
            },
            AccessKind::Read,
        );
        spec.access_if(
            buck_r,
            Member::Some,
            Words::Range {
                lo: 0,
                hi: bucket_words,
            },
            AccessKind::Write,
        );
        spec.allocates();
        Some(spec)
    }
}

impl Benchmark for Genome {
    fn loop_weight(&self) -> f64 {
        0.89 // Table 2
    }

    fn chunk_factor(&self) -> usize {
        16 // the paper tunes 4096 on 16M segments; scaled to our input
    }

    fn best_config(&self) -> (Model, Option<(String, RedOp)>) {
        (Model::StaleReads, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alter_infer::{infer, InferConfig};

    fn tiny() -> Genome {
        Genome {
            name: "Genome",
            segments: 512,
            distinct: 256,
            buckets: 128,
            bucket_cap: 6,
            seed: 6,
        }
    }

    #[test]
    fn sequential_dedup_counts() {
        let g = tiny();
        let keys = g.run_sequential_raw();
        assert!(keys.len() > 100 && keys.len() <= 256);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn all_three_models_succeed() {
        let g = tiny();
        let report = infer(
            &g,
            &InferConfig {
                workers: 4,
                chunk: 8,
                ..Default::default()
            },
        );
        assert!(report.dep.any(), "bucket RMW is a loop-carried dep");
        assert!(report.tls.is_success(), "tls: {}", report.tls);
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
    fn stale_reads_beats_out_of_order_in_simulated_time() {
        // Figure 6's mechanism: WAW needs no read instrumentation.
        let g = tiny();
        let stale = g
            .run_probe(&Probe::new(Model::StaleReads, 4, 8))
            .unwrap()
            .clock;
        let ooo = g
            .run_probe(&Probe::new(Model::OutOfOrder, 4, 8))
            .unwrap()
            .clock;
        assert!(
            stale.par_units < ooo.par_units,
            "stale {:.0} !< ooo {:.0}",
            stale.par_units,
            ooo.par_units
        );
    }

    #[test]
    fn parallel_dedup_is_exact() {
        let g = tiny();
        let seq = g.run_sequential_raw();
        for model in [Model::Tls, Model::OutOfOrder, Model::StaleReads] {
            let run = g.run_probe(&Probe::new(model, 4, 8)).unwrap();
            assert_eq!(run.output.ints, seq, "{model}");
        }
    }
}
