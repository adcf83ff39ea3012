//! The machine under the benchmark: fingerprint, the calibration kernel,
//! the cross-thread handoff probe, and what the two read when the machine
//! is quiet. `gate` builds the retry policy on them.

use alter_runtime::WorkerPool;
use alter_workloads::common::rng;
use std::hint::black_box;
use std::time::Instant;

/// Words in the calibration array: 256 KiB of `f64`.
const CAL_WORDS: usize = 32 * 1024;
/// Passes of the calibration kernel; sets its ≈ 2 ms run time.
const CAL_PASSES: usize = 320;
/// Independent multiply-add chains in the calibration kernel.
const CAL_LANES: usize = 16;
/// Pool round trips per handoff probe (the median is reported).
const HANDOFF_ROUNDS: usize = 15;
/// The calibration kernel may read this many times its reference and still
/// count as quiet. On the development VM the uncontended readings spread
/// 1.70–1.95 ms around the 1.83 ms reference and the contended ones
/// 2.25–2.6 ms; the band ends in the gap between.
const CAL_BAND: f64 = 1.09;
/// The handoff probe may read this many times its reference and still count
/// as quiet. With the workers pinned apart it reads 39–41 µs on a quiet
/// host and 44–56 µs on a contended one, and K-means at 2 workers pays it
/// 6 150 times a run.
const HANDOFF_BAND: f64 = 1.12;

/// Who ran the benchmark.
#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu: String,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
}

impl Fingerprint {
    /// Reads the fingerprint of this machine; unknown parts read `unknown`.
    pub fn read() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu,
            kernel,
        }
    }
}

/// Quiet-mode probe values of one machine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reference {
    /// Median pool round trip, µs.
    pub handoff_us: f64,
    /// Calibration kernel, ms.
    pub cal_ms: f64,
}

/// Quiet-mode references recorded per machine: `(cpu model, nproc, values)`.
/// `BENCHMARK.json` may hold only the contract's keys, so they live here.
const KNOWN_MACHINES: &[(&str, usize, Reference)] = &[(
    "Intel(R) Xeon(R) Processor @ 2.10GHz",
    2,
    Reference {
        handoff_us: 40.0,
        cal_ms: 1.83,
    },
)];

/// The recorded reference for `fp`, if this machine is a known one.
pub fn known_reference(fp: &Fingerprint) -> Option<Reference> {
    KNOWN_MACHINES
        .iter()
        .find(|(cpu, nproc, _)| *cpu == fp.cpu && *nproc == fp.nproc)
        .map(|(_, _, r)| *r)
}

/// The benchmark-owned fixed kernel: a SplitMix64-filled 256 KiB array
/// swept by sixteen independent multiply-add chains. It never calls into the
/// system under test, so `seq / cal` exposes a change that slows the
/// sequential baseline.
///
/// The chains are independent on purpose. What disturbs this VM most is
/// contention for the core's execution ports (a busy sibling hyperthread):
/// it slows throughput-bound code such as the workloads' sequential loops by
/// 1.3–1.8× and leaves a single dependent chain untouched. A kernel that is
/// throughput-bound too slows down with them, so it tells the two states of
/// the machine apart.
#[derive(Debug)]
pub struct Cal {
    buf: Vec<f64>,
}

impl Cal {
    /// Fills the array from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut r = rng(seed ^ 0x00ca_1ca1);
        Cal {
            buf: (0..CAL_WORDS).map(|_| r.next_f64()).collect(),
        }
    }

    /// One timed run of the kernel on the calling thread, in milliseconds.
    pub fn run_ms(&self) -> f64 {
        let t = Instant::now();
        let mut acc = [0.5f64; CAL_LANES];
        for _ in 0..CAL_PASSES {
            for chunk in black_box(&self.buf).chunks_exact(CAL_LANES) {
                for (a, w) in acc.iter_mut().zip(chunk) {
                    *a = *a * 0.999_9 + *w;
                }
            }
        }
        black_box(acc);
        t.elapsed().as_secs_f64() * 1e3
    }

    /// What a probe worker does with `job`.
    pub fn serve(&self, job: Job) -> f64 {
        match job {
            Job::Echo(x) => x + 1.0,
            Job::Cal => self.run_ms(),
        }
    }
}

/// What the environment probes ask of their two workers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Job {
    /// Return the number plus one: the handoff probe.
    Echo(f64),
    /// Run the calibration kernel and return its milliseconds.
    Cal,
}

/// The environment probes' pool: two workers, the second of them on the
/// second CPU when the threads are placed.
pub type EchoPool = WorkerPool<Job, f64>;

/// Median round trip of `WorkerPool::run_round` with two trivial jobs, µs.
pub fn handoff_us(pool: &mut EchoPool) -> f64 {
    let mut trips = [0.0f64; HANDOFF_ROUNDS];
    for (i, slot) in trips.iter_mut().enumerate() {
        let x = i as f64;
        let t = Instant::now();
        let out = pool.run_round(vec![Job::Echo(x), Job::Echo(x + 1.0)]);
        *slot = t.elapsed().as_secs_f64() * 1e6;
        assert_eq!(out, [x + 1.0, x + 2.0], "echo pool broke");
    }
    crate::stats::median(&trips)
}

/// One reading of the environment probes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reading {
    /// Median pool round trip, µs.
    pub handoff_us: f64,
    /// Calibration kernel on the coordinator's CPU, ms.
    pub cal_ms: f64,
    /// Calibration kernel on the second worker's CPU at the same time, ms.
    pub cal_far_ms: f64,
}

impl Reading {
    /// Takes one reading: the kernel on both CPUs at once, then the handoff.
    pub fn take(cal: &Cal, pool: &mut EchoPool) -> Self {
        let mut far = pool.stream_round(vec![Job::Echo(0.0), Job::Cal]);
        let cal_ms = cal.run_ms();
        far.next_ticket();
        let cal_far_ms = far.next_ticket().expect("two jobs were dispatched");
        drop(far);
        Reading {
            handoff_us: handoff_us(pool),
            cal_ms,
            cal_far_ms,
        }
    }

    /// Which probes are outside their band of `reference`: the handoff,
    /// the kernel on the coordinator's CPU, the kernel on the other.
    pub fn disturbed(&self, reference: &Reference) -> [bool; 3] {
        [
            self.handoff_us > HANDOFF_BAND * reference.handoff_us,
            self.cal_ms > CAL_BAND * reference.cal_ms,
            self.cal_far_ms > CAL_BAND * reference.cal_ms,
        ]
    }

    /// Whether every probe is within its band of `reference`.
    pub fn is_quiet(&self, reference: &Reference) -> bool {
        self.disturbed(reference) == [false; 3]
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_probe_has_its_own_quiet_band() {
        let reference = Reference {
            handoff_us: 50.0,
            cal_ms: 2.0,
        };
        let quiet = |handoff_us, cal_ms, cal_far_ms| {
            let reading = Reading {
                handoff_us,
                cal_ms,
                cal_far_ms,
            };
            reading.is_quiet(&reference)
        };
        assert!(quiet(50.0, 2.0, 2.0));
        assert!(quiet(56.0, 2.18, 2.18));
        assert!(!quiet(56.1, 2.0, 2.0), "slow wake path");
        assert!(
            !quiet(50.0, 2.19, 2.0),
            "contended core under the coordinator"
        );
        assert!(
            !quiet(50.0, 2.0, 2.19),
            "contended core under the second worker"
        );
    }

    #[test]
    fn cal_kernel_is_deterministic_in_value_and_takes_time() {
        let (a, b) = (Cal::new(5), Cal::new(5));
        assert!(a.run_ms() > 0.0);
        assert_eq!(a.buf, b.buf);
        assert_ne!(Cal::new(6).buf, Cal::new(5).buf);
        assert_eq!(a.serve(Job::Echo(1.0)), 2.0);
        assert!(a.serve(Job::Cal) > 0.0);
    }

    #[test]
    fn handoff_probe_round_trips_through_both_workers() {
        let cal = Cal::new(1);
        let serve = |_worker: usize, job: Job| cal.serve(job);
        std::thread::scope(|scope| {
            let mut pool = EchoPool::new(scope, 2, &serve);
            assert!(handoff_us(&mut pool) > 0.0);
            assert_eq!(pool.round_handoffs(), HANDOFF_ROUNDS as u64);
            let reading = Reading::take(&cal, &mut pool);
            assert!(reading.cal_ms > 0.0 && reading.cal_far_ms > 0.0);
        });
    }

    #[test]
    fn fingerprint_and_rss_read_something() {
        let fp = Fingerprint::read();
        assert!(fp.nproc >= 1);
        assert!(!fp.cpu.is_empty() && !fp.kernel.is_empty());
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
