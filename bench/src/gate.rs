//! The quiet gate: every timed sample is taken between two readings of the
//! environment probes, and re-taken when either reading is disturbed.
//!
//! The VM this was developed on shares its cores with other tenants, and it
//! is in one of two states for seconds to minutes at a time. In the
//! contended one the calibration kernel reads 2.3–2.6 ms where it otherwise
//! reads 1.7–1.95 ms, and the code under test slows down by a factor that
//! depends on what it does: K-means' plain loop by 1.8×, the same loop
//! under the 1-worker engine by 1.35×, under 2 workers by 1.2×. A ratio of
//! two such times is therefore 25 % off in the contended state however
//! closely its two samples are paired, and a run's median lands on either
//! side depending on which state had the majority. So the gate does not
//! average over the states: it waits for the uncontended one, takes a
//! sample, and keeps it only if the state still holds afterwards.

use crate::env::{Cal, EchoPool, Reading, Reference};
use crate::harness::Harness;
use crate::spans::Spans;
use std::time::Instant;

/// Samples every config gets even when the machine was never quiet.
const MIN_SAMPLES: usize = 3;
/// Readings the reference is taken from on a machine without a recorded
/// one: half a second's worth, to outlast a short disturbance.
const SELF_CALIBRATION_READINGS: usize = 200;

/// One sample and the conditions it was taken in.
pub struct Sample<T> {
    /// What the sampled call returned.
    pub value: T,
    /// The reading taken just before it.
    pub before: Reading,
    /// Whether the readings before and after were both quiet.
    pub quiet: bool,
}

/// The environment probes and the retry policy built on them.
pub struct Gate<'p> {
    pool: &'p mut EchoPool,
    cal: &'p Cal,
    /// Quiet-state values of this machine.
    pub reference: Reference,
    /// A quiet reading that no sample has followed yet.
    carried: Option<Reading>,
    /// After this instant nothing is re-taken.
    deadline: Instant,
    /// Samples taken, re-taken ones included.
    pub taken: usize,
    /// Samples taken between two quiet readings.
    pub quiet: usize,
    /// Readings taken, and how many had the handoff, the near kernel and
    /// the far kernel outside its band.
    pub readings: (usize, [usize; 3]),
}

impl<'p> Gate<'p> {
    /// The gate with `known` as the quiet reference. On an unknown machine
    /// the best of a burst of readings taken now stands in for it, which can only
    /// tell this run's own fast samples from its slow ones.
    pub fn new(pool: &'p mut EchoPool, cal: &'p Cal, known: Option<Reference>) -> Self {
        let mut gate = Gate {
            pool,
            cal,
            reference: known.unwrap_or(Reference {
                handoff_us: f64::MAX,
                cal_ms: f64::MAX,
            }),
            carried: None,
            deadline: Instant::now(),
            taken: 0,
            quiet: 0,
            readings: (0, [0; 3]),
        };
        if known.is_none() {
            for _ in 0..SELF_CALIBRATION_READINGS {
                let r = gate.read(&mut Spans::new(false));
                gate.reference.handoff_us = gate.reference.handoff_us.min(r.handoff_us);
                gate.reference.cal_ms = gate.reference.cal_ms.min(r.cal_ms.max(r.cal_far_ms));
            }
        }
        gate
    }

    /// The echo pool, for the layer probe that reports its round trip.
    pub fn pool(&mut self) -> &mut EchoPool {
        self.pool
    }

    /// Starts a phase that may re-take samples until `deadline`, and zeroes
    /// the sample counts.
    pub fn begin(&mut self, deadline: Instant) {
        self.deadline = deadline;
        self.taken = 0;
        self.quiet = 0;
    }

    /// Whether the current phase's budget is spent.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.deadline
    }

    /// `quiet / taken` of the current phase.
    pub fn quiet_share(&self) -> f64 {
        self.quiet as f64 / self.taken.max(1) as f64
    }

    fn read(&mut self, spans: &mut Spans) -> Reading {
        let (reading, _) = spans.time("env_probe", || Reading::take(self.cal, self.pool));
        self.readings.0 += 1;
        for (count, out) in self
            .readings
            .1
            .iter_mut()
            .zip(reading.disturbed(&self.reference))
        {
            *count += usize::from(out);
        }
        reading
    }

    /// Polls until a reading is quiet or `until` has come, and returns the
    /// last reading.
    pub fn await_quiet(&mut self, spans: &mut Spans, until: Instant) -> Reading {
        if let Some(reading) = self.carried.take() {
            return reading;
        }
        loop {
            let reading = self.read(spans);
            if reading.is_quiet(&self.reference) || Instant::now() >= until {
                return reading;
            }
        }
    }

    /// Calls `sample` between two readings, the first of them awaited
    /// until it is quiet or the phase's budget is spent. Returns `None` if
    /// `sample` does.
    pub fn sample<T>(
        &mut self,
        h: &mut Harness,
        sample: impl FnOnce(&mut Harness) -> Option<T>,
    ) -> Option<Sample<T>> {
        let before = self.await_quiet(&mut h.spans, self.deadline);
        let value = sample(h)?;
        let after = self.read(&mut h.spans);
        let quiet = before.is_quiet(&self.reference) && after.is_quiet(&self.reference);
        if after.is_quiet(&self.reference) {
            self.carried = Some(after);
        }
        self.taken += 1;
        self.quiet += usize::from(quiet);
        Some(Sample {
            value,
            before,
            quiet,
        })
    }

    /// Samples `configs` in turn, always the one that is furthest behind,
    /// until each has `planned` quiet samples or the phase's budget is
    /// spent; after that, until each has [`MIN_SAMPLES`] of any kind.
    /// Returns each config's samples in the order taken, disturbed ones
    /// included.
    pub fn collect<T>(
        &mut self,
        h: &mut Harness,
        planned: usize,
        configs: &mut [Config<'_, T>],
    ) -> Vec<Vec<Sample<T>>> {
        let mut taken: Vec<Vec<Sample<T>>> = configs.iter().map(|_| Vec::new()).collect();
        for ordinal in 1.. {
            // While there is time, the config with the fewest quiet samples
            // is next; after that, the one with the fewest of any kind.
            let expired = self.expired();
            let progress = |samples: &Vec<Sample<T>>| {
                let quiet = if expired { 0 } else { quiet_count(samples) };
                (quiet, samples.len())
            };
            let (next, behind) = taken
                .iter()
                .enumerate()
                .min_by_key(|(_, samples)| progress(samples))
                .expect("at least one config");
            let done = match progress(behind) {
                (_, any) if expired => any >= MIN_SAMPLES.min(planned),
                (quiet, _) => quiet >= planned,
            };
            if done {
                break;
            }
            h.spans.set_run(ordinal);
            match self.sample(h, &mut *configs[next]) {
                Some(sample) => taken[next].push(sample),
                // The failed run was tallied; stop rather than repeat it.
                None => break,
            }
        }
        taken
    }
}

/// One way of running the workload: a call that returns what it measured,
/// or `None` if the run failed.
pub type Config<'a, T> = &'a mut dyn FnMut(&mut Harness) -> Option<T>;

fn quiet_count<T>(samples: &[Sample<T>]) -> usize {
    samples.iter().filter(|s| s.quiet).count()
}

/// Cuts `taken` (one list per config) to index-aligned columns: the first
/// `n` quiet samples of each config, `n` being the fewest any config has —
/// or, when that is below `min_quiet`, the first samples of each whatever
/// their readings said, so that a run on a machine that is never quiet
/// still reports.
pub fn columns<T>(taken: Vec<Vec<Sample<T>>>, min_quiet: usize) -> Vec<Vec<Sample<T>>> {
    let quiet = taken.iter().map(|c| quiet_count(c)).min().unwrap_or(0);
    let only_quiet = quiet >= min_quiet;
    let mut columns: Vec<Vec<Sample<T>>> = taken
        .into_iter()
        .map(|c| c.into_iter().filter(|s| s.quiet || !only_quiet).collect())
        .collect();
    let n = columns.iter().map(Vec::len).min().unwrap_or(0);
    for column in &mut columns {
        column.truncate(n);
    }
    columns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(value: u32, quiet: bool) -> Sample<u32> {
        let before = Reading {
            handoff_us: 0.0,
            cal_ms: 0.0,
            cal_far_ms: 0.0,
        };
        Sample {
            value,
            before,
            quiet,
        }
    }

    fn values(columns: &[Vec<Sample<u32>>]) -> Vec<Vec<u32>> {
        let of = |c: &Vec<Sample<u32>>| c.iter().map(|s| s.value).collect();
        columns.iter().map(of).collect()
    }

    #[test]
    fn collect_balances_the_configs_and_ends_at_the_plan_or_the_deadline() {
        use crate::env::Job;
        let cal = Cal::new(1);
        let serve = |_worker: usize, job: Job| cal.serve(job);
        std::thread::scope(|scope| {
            let mut pool = EchoPool::new(scope, 2, &serve);
            let mut h = Harness::new(false, crate::place::Placement::inactive());
            let (mut a, mut b) = (0, 0);
            let mut configs: [Config<'_, u32>; 2] = [
                &mut |_| {
                    a += 1;
                    Some(a)
                },
                &mut |_| {
                    b += 10;
                    Some(b)
                },
            ];

            // Against an unreachable reference every reading is quiet.
            let lax = Reference {
                handoff_us: f64::MAX,
                cal_ms: f64::MAX,
            };
            let mut gate = Gate::new(&mut pool, &cal, Some(lax));
            gate.begin(Instant::now() + std::time::Duration::from_secs(60));
            let taken = gate.collect(&mut h, 4, &mut configs);
            assert_eq!(values(&taken), [vec![1, 2, 3, 4], vec![10, 20, 30, 40]]);
            assert_eq!((gate.taken, gate.quiet), (8, 8));

            // Against a zero reference none is, and with the budget spent
            // each config still gets its three samples.
            gate.reference = Reference {
                handoff_us: 0.0,
                cal_ms: 0.0,
            };
            gate.carried = None;
            gate.begin(Instant::now());
            let taken = gate.collect(&mut h, 4, &mut configs);
            assert_eq!(values(&taken), [vec![5, 6, 7], vec![50, 60, 70]]);
            assert_eq!((gate.taken, gate.quiet), (6, 0));
            assert_eq!(values(&columns(taken, 3)), [[5, 6, 7], [50, 60, 70]]);
        });
    }

    #[test]
    fn columns_keep_the_quiet_samples_cut_to_the_shortest() {
        let a = vec![sample(1, true), sample(2, false), sample(3, true)];
        let b = vec![sample(4, true), sample(5, true), sample(6, true)];
        assert_eq!(values(&columns(vec![a, b], 2)), [[1, 3], [4, 5]]);
    }

    #[test]
    fn columns_fall_back_to_every_sample_when_too_few_are_quiet() {
        let a = vec![sample(1, true), sample(2, false), sample(3, false)];
        let b = vec![sample(4, true), sample(5, true)];
        assert_eq!(values(&columns(vec![a, b], 2)), [[1, 2], [4, 5]]);
        assert!(values(&columns::<u32>(vec![vec![], vec![]], 1))
            .iter()
            .all(Vec::is_empty));
    }
}
