//! The closed-loop measurement core: checked calls into the system under
//! test, the set-up pass, and the interleaved sample groups the end-to-end
//! ratios are taken from.
//!
//! One coordinator thread makes every call and blocks while the engine's two
//! workers run, so at most two threads are ever runnable. Each output is
//! validated outside the timed region against the sequential reference.

use crate::gate::{self, Gate};
use crate::place::Placement;
use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::{self, Workload};
use alter_infer::{Probe, ProgramOutput};
use alter_runtime::RunStats;
use std::time::Instant;

/// Fewest quiet groups the metrics are taken from alone.
const MIN_QUIET_GROUPS: usize = 3;
/// Below this share of quiet groups the run is void.
pub const MIN_QUIET_SHARE: f64 = 0.8;

/// The `engine.*` counts of one run; they must repeat exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counts {
    /// Lock-step rounds.
    pub rounds: u64,
    /// Transactions executed, retries included.
    pub attempts: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Loop iterations committed.
    pub iterations: u64,
    /// Tracked read+write words summed over attempts.
    pub tracked_words: u64,
    /// Words charged to validation by the cost model.
    pub validate_words: u64,
    /// Words compared by exact validation scans.
    pub exact_scan_words: u64,
    /// Slot entries copied while establishing snapshots.
    pub snapshot_slots_copied: u64,
    /// Declared work plus instrumented words moved.
    pub cost_units: u64,
}

impl From<&RunStats> for Counts {
    fn from(s: &RunStats) -> Self {
        Counts {
            rounds: s.rounds,
            attempts: s.attempts,
            committed: s.committed,
            iterations: s.iterations,
            tracked_words: s.tracked_words,
            validate_words: s.validate_words,
            exact_scan_words: s.exact_scan_words,
            snapshot_slots_copied: s.snapshot_slots_copied,
            cost_units: s.cost_units(),
        }
    }
}

/// Runs attempted and runs that failed (a `RunError`, a failed `validate`,
/// or `par2` counts that differ from the first `par2` run's).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Runs whose output was checked.
    pub attempted: u64,
    /// Runs that failed a check.
    pub failed: u64,
}

/// What a set-up pass leaves behind for the measured groups.
pub struct Ready {
    /// The workload, constructed.
    pub w: Workload,
    /// Output of the plain sequential program.
    pub reference: ProgramOutput,
    /// `engine.*` counts of the warm-up `par2` run.
    pub par2_counts: Counts,
}

/// The checked-call layer shared by the untraced and the traced run.
pub struct Harness {
    /// Spans around every call (stored only in the traced run).
    pub spans: Spans,
    /// Attempt / failure counts.
    pub tally: Tally,
    /// Where the workers of threaded runs are put.
    pub place: Placement,
}

impl Harness {
    /// A harness that stores spans when `traced` and spreads the workers of
    /// threaded runs with `place`.
    pub fn new(traced: bool, place: Placement) -> Self {
        Harness {
            spans: Spans::new(traced),
            tally: Tally::default(),
            place,
        }
    }

    /// Tallies one checked run or verdict; a failure is also logged.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.tally.attempted += 1;
        if !ok {
            self.tally.failed += 1;
            eprintln!("bench: FAILED check: {what}");
        }
    }

    /// Times `run_sequential` and checks it reproduces `reference` exactly.
    /// Returns milliseconds.
    pub fn seq_ms(&mut self, w: &Workload, reference: &ProgramOutput) -> f64 {
        let (out, secs) = self
            .spans
            .time("run_sequential", || w.program.run_sequential());
        let (ok, _) = self.spans.time("validate", || out == *reference);
        self.check(ok, "run_sequential does not repeat its own output");
        secs * 1e3
    }

    /// Times `run_probe(probe)`, validates its output against `reference`
    /// and, when `expect` is given, checks that the run's counts equal it.
    /// Returns milliseconds and the run's statistics, or `None` if the run
    /// returned an error.
    pub fn probe_ms(
        &mut self,
        w: &Workload,
        label: &str,
        probe: &Probe,
        reference: &ProgramOutput,
        expect: Option<&Counts>,
    ) -> Option<(f64, RunStats)> {
        let name = format!("run_probe:{label}");
        // With one worker the threaded driver runs inline and spawns nothing.
        let threads = if probe.threaded && probe.workers > 1 {
            probe.workers
        } else {
            0
        };
        let spans = &mut self.spans;
        let (result, secs) = self
            .place
            .spread(threads, || spans.time(&name, || w.program.run_probe(probe)));
        match result {
            Ok(run) => {
                let (valid, _) = self
                    .spans
                    .time("validate", || w.program.validate(reference, &run.output));
                let repeats = expect.is_none_or(|c| *c == Counts::from(&run.stats));
                let what = if valid {
                    "counts differ from the warm-up run's"
                } else {
                    "output fails validate"
                };
                self.check(valid && repeats, &format!("{label} {what}"));
                Some((secs * 1e3, run.stats))
            }
            Err(e) => {
                self.check(false, &format!("{label} returned {e}"));
                None
            }
        }
    }

    /// One full set-up: construct the workload, compute the reference
    /// output, and run one validated warm-up of every configuration.
    /// Returns the products and the seconds it took, or `None` for an
    /// unknown workload name.
    pub fn setup(&mut self, name: &str, seed: u64) -> Option<(Ready, f64)> {
        let open = self.spans.enter("setup");
        let (w, _) = self
            .spans
            .time("construct", || workloads::build(name, seed));
        let Some(w) = w else {
            self.spans.exit(open);
            return None;
        };
        let (reference, _) = self
            .spans
            .time("run_sequential", || w.program.run_sequential());
        self.probe_ms(&w, "inst1", &w.probe(1, false), &reference, None);
        let par2 = self.probe_ms(&w, "par2", &w.probe(2, true), &reference, None);
        let secs = self.spans.exit(open);
        let par2_counts =
            par2.map_or_else(|| Counts::from(&RunStats::default()), |(_, s)| (&s).into());
        Some((
            Ready {
                w,
                reference,
                par2_counts,
            },
            secs,
        ))
    }
}

/// The samples the end-to-end ratios are taken from, one entry per group.
#[derive(Clone, Debug, Default)]
pub struct Groups {
    /// Calibration kernel just before the `seq` sample, ms.
    pub cal: Vec<f64>,
    /// Median of `k` back-to-back `run_sequential` calls, ms.
    pub seq: Vec<f64>,
    /// `best_probe(1)`, sequential driver, ms.
    pub inst1: Vec<f64>,
    /// `best_probe(2)`, threaded, ms.
    pub par2: Vec<f64>,
    /// Handoff probe just before the `par2` sample, µs.
    pub handoff: Vec<f64>,
}

/// Takes samples of `seq×k`, `inst1` and `par2` in turn, each between two
/// readings of the environment probes, until `planned` of each were quiet
/// or `until` has come. The i-th quiet sample of each makes the i-th
/// group; with fewer than [`MIN_QUIET_GROUPS`] of them the disturbed samples
/// are used as well (and [`Gate::quiet_share`] says so).
pub fn measure(
    h: &mut Harness,
    ready: &Ready,
    gate: &mut Gate<'_>,
    planned: usize,
    until: Instant,
) -> Groups {
    let (w, reference) = (&ready.w, &ready.reference);
    let (inst1, par2) = (w.probe(1, false), w.probe(2, true));
    let timed = |h: &mut Harness, label: &str, probe: &Probe, expect: Option<&Counts>| {
        h.probe_ms(w, label, probe, reference, expect)
            .map(|(ms, _)| ms)
    };
    gate.begin(until);
    let taken = gate.collect(
        h,
        planned,
        &mut [
            &mut |h| {
                let reps: Vec<f64> = (0..w.seq_reps).map(|_| h.seq_ms(w, reference)).collect();
                Some(median(&reps))
            },
            &mut |h| timed(h, "inst1", &inst1, None),
            &mut |h| timed(h, "par2", &par2, Some(&ready.par2_counts)),
        ],
    );
    let columns = gate::columns(taken, MIN_QUIET_GROUPS.min(planned));
    let ms = |c: usize| columns[c].iter().map(|s| s.value).collect();
    Groups {
        cal: columns[0].iter().map(|s| s.before.cal_ms).collect(),
        seq: ms(0),
        inst1: ms(1),
        par2: ms(2),
        handoff: columns[2].iter().map(|s| s.before.handoff_us).collect(),
    }
}
