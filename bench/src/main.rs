//! `alter-wallbench` — the wall-clock benchmark of the ALTER runtime.
//!
//! One process measures one workload:
//!
//! ```text
//! alter-wallbench --workload W --seed N --seconds S --trace 0|1 [--out DIR] [--strict-env]
//! ```
//!
//! `--trace 0` is the untraced run: set-up, then interleaved sample groups,
//! from which the end-to-end ratios come. `--trace 1` is the traced run: the
//! same calls with spans recorded and `Probe.wall_profile` attached, plus
//! the per-layer probes; its spans go to `DIR/trace-W.jsonl`. Every metric
//! is printed as one JSON line, and the last line is the result object
//! `{"correct", "attempted", "failed", "metrics"}`.

#![warn(missing_docs)]

mod env;
mod gate;
mod harness;
mod json;
mod layers;
mod place;
mod spans;
mod stats;
mod synth;
mod workloads;

use env::{Cal, EchoPool, Fingerprint};
use gate::Gate;
use harness::{Harness, MIN_QUIET_SHARE};
use place::Placement;
use stats::{first_quartile, median, paired_ratios, summarize, Better, Summary};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-up passes per run; `setup_s` is their first quartile.
const SETUP_PASSES: usize = 5;
/// Set-up passes of a run shorter than 5 s (a smoke run).
const SETUP_PASSES_SHORT: usize = 2;
/// Set-up passes are re-taken for this share of `--seconds` at most.
const SETUP_RETAKE_SHARE: f64 = 0.2;
/// Longest wait for a quiet machine before a strict run, seconds.
const STRICT_WAIT_S: f64 = 30.0;
/// `synth-fat` scaling below this means its two workers shared one CPU.
const MIN_CONTROL_SCALING: f64 = 1.4;
/// Exit code of a run whose outputs were wrong.
const EXIT_INCORRECT: u8 = 1;
/// Exit code of a bad command line or an unusable machine.
const EXIT_USAGE: u8 = 2;
/// Exit code of a void run under `--strict-env`.
const EXIT_VOID: u8 = 3;

/// One reported metric.
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Median, count, spread and tail.
    pub summary: Summary,
}

impl Metric {
    /// A metric summarised from timing `samples`.
    pub fn sampled(name: &str, unit: &'static str, samples: &[f64], better: Better) -> Self {
        Metric {
            name: name.to_owned(),
            unit,
            summary: summarize(samples, better),
        }
    }

    /// The same metric reporting `value` in place of the samples' median.
    pub fn with_value(mut self, value: f64) -> Self {
        self.summary.value = value;
        self
    }

    /// A single exact value (a count, or a once-per-process reading).
    pub fn exact(name: &str, unit: &'static str, value: f64) -> Self {
        Metric::sampled(name, unit, &[value], Better::Lower)
    }

    fn line(&self, workload: &str) -> String {
        let s = &self.summary;
        let p_hi = s.p_hi.map_or("null".to_owned(), |(p, v)| {
            format!(
                "{{\"p\":{},\"value\":{}}}",
                json::number(p),
                json::number(v)
            )
        });
        format!(
            "{{\"workload\":{},\"metric\":{},\"value\":{},\"unit\":{},\"n\":{},\"iqr\":{},\"p_hi\":{p_hi}}}",
            json::string(workload),
            json::string(&self.name),
            json::number(s.value),
            json::string(self.unit),
            s.n,
            json::number(s.iqr),
        )
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: PathBuf,
    strict_env: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        traced: false,
        out: PathBuf::from("bench/out"),
        strict_env: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--strict-env" => args.strict_env = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !workloads::CATALOG.iter().any(|(n, _)| *n == args.workload) {
        let names: Vec<&str> = workloads::CATALOG.iter().map(|(n, _)| *n).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    if !(args.seconds >= 1.0 && args.seconds <= 60.0) {
        return Err("--seconds must be between 1 and 60".to_owned());
    }
    Ok(args)
}

/// The untraced run's end-to-end metrics.
///
/// A time is reported as the first quartile of its quiet samples, not their
/// median, and a ratio as the ratio of two such: what disturbs a sample that
/// both readings around it called quiet can only have slowed it, so the
/// clean value sits at the low end. `n`, `iqr` and `p_hi` describe the
/// samples themselves; for a ratio, the index-paired ratios.
fn end_to_end(setup_secs: &[f64], g: &harness::Groups) -> Vec<Metric> {
    let ratio = |name: &str, num: &[f64], den: &[f64], better| {
        Metric::sampled(name, "x", &paired_ratios(num, den), better)
            .with_value(first_quartile(num) / first_quartile(den))
    };
    vec![
        Metric::sampled("setup_s", "s", setup_secs, Better::Lower)
            .with_value(first_quartile(setup_secs)),
        ratio("tax_x", &g.inst1, &g.seq, Better::Lower),
        ratio("scaling_par2", &g.inst1, &g.par2, Better::Higher),
        ratio("speedup_par2", &g.seq, &g.par2, Better::Higher),
        ratio("seq_cal_x", &g.seq, &g.cal, Better::Lower),
        Metric::exact("peak_rss_mb", "MiB", env::peak_rss_mb().unwrap_or(f64::NAN)),
    ]
}

fn run(
    args: &Args,
    fp: &Fingerprint,
    cal: &Cal,
    pool: &mut EchoPool,
    place: Placement,
) -> ExitCode {
    let mut h = Harness::new(args.traced, place);
    let known = env::known_reference(fp);
    let mut gate = Gate::new(pool, cal, known);
    println!(
        "{{\"fingerprint\":{{\"nproc\":{},\"cpu\":{},\"kernel\":{},\"ref_handoff_us\":{},\"ref_cal_ms\":{},\"ref_self_calibrated\":{}}}}}",
        fp.nproc,
        json::string(&fp.cpu),
        json::string(&fp.kernel),
        json::number(gate.reference.handoff_us),
        json::number(gate.reference.cal_ms),
        known.is_none(),
    );

    // In strict mode wait up to 30 s for the machine to be quiet (less in a
    // smoke run); otherwise only as long as each sample is willing to.
    if args.strict_env {
        let cap = Duration::from_secs_f64((3.0 * args.seconds).min(STRICT_WAIT_S));
        let reading = gate.await_quiet(&mut h.spans, Instant::now() + cap);
        if !reading.is_quiet(&gate.reference) {
            eprintln!("bench: environment still disturbed after {cap:?}; measuring anyway");
        }
    }

    // `--seconds` covers set-up and measuring together, from here on.
    let run_ends = Instant::now() + Duration::from_secs_f64(args.seconds);

    // Set-up, several times over; the last pass's products are measured.
    // Passes taken while the machine was disturbed are taken again, for a
    // share of `--seconds` at most, and left out of `setup_s` if at least
    // half of the passes wanted were quiet.
    let passes = match (args.traced, args.seconds >= 5.0) {
        (true, _) => 1,
        (false, true) => SETUP_PASSES,
        (false, false) => SETUP_PASSES_SHORT,
    };
    gate.begin(Instant::now() + Duration::from_secs_f64(args.seconds * SETUP_RETAKE_SHARE));
    let mut setup_secs: Vec<(f64, bool)> = Vec::with_capacity(passes);
    let ready = loop {
        h.spans.set_run(setup_secs.len() as u64);
        let pass = gate
            .sample(&mut h, |h| h.setup(&args.workload, args.seed))
            .expect("workload name was checked");
        let (ready, secs) = pass.value;
        setup_secs.push((secs, pass.quiet));
        if gate.quiet >= passes || (gate.taken >= passes && gate.expired()) {
            break ready;
        }
    };
    let only_quiet = 2 * gate.quiet >= passes;
    let setup_secs: Vec<f64> = setup_secs
        .iter()
        .filter(|(_, quiet)| *quiet || !only_quiet)
        .map(|(secs, _)| *secs)
        .collect();

    let scale = args.seconds / 10.0;
    let planned = ((ready.w.groups_per_10s as f64 * scale).round() as usize).max(3);
    let mut control_ok = true;
    let metrics = if args.traced {
        layers::traced_run(&mut h, &ready, &mut gate, planned, args, fp.nproc, run_ends)
    } else {
        let groups = harness::measure(&mut h, &ready, &mut gate, planned, run_ends);
        if groups.seq.is_empty() {
            eprintln!("bench: no sample group completed");
            return ExitCode::from(EXIT_INCORRECT);
        }
        let scaling = first_quartile(&groups.inst1) / first_quartile(&groups.par2);
        if args.workload == "synth-fat" && scaling < MIN_CONTROL_SCALING {
            control_ok = false;
            eprintln!(
                "bench: control scaling {scaling:.2} < {MIN_CONTROL_SCALING}: the two workers shared one CPU"
            );
        }
        eprintln!(
            "bench: {} groups from {} samples; seq {:.3} ms, inst1 {:.3} ms, par2 {:.3} ms, cal {:.3} ms, handoff {:.1} us",
            groups.seq.len(),
            gate.taken,
            median(&groups.seq),
            median(&groups.inst1),
            median(&groups.par2),
            median(&groups.cal),
            median(&groups.handoff),
        );
        end_to_end(&setup_secs, &groups)
    };
    let quiet_share = gate.quiet_share();

    for m in &metrics {
        println!("{}", m.line(&args.workload));
    }
    // Not in `BENCHMARK.json`, whose metrics may never read 0; the result
    // object carries it as `failed` over `attempted`.
    let fail_share = h.tally.failed as f64 / h.tally.attempted.max(1) as f64;
    println!(
        "{}",
        Metric::exact("fail_share", "share", fail_share).line(&args.workload)
    );
    let correct = h.tally.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::string(&m.name),
                json::number(m.summary.value),
                json::string(m.unit)
            )
        })
        .collect();
    let (readings, [handoff, near, far]) = gate.readings;
    eprintln!(
        "bench: quiet share {quiet_share:.2}; of {readings} readings the handoff disturbed {handoff}, cal on the coordinator's CPU {near}, on the other {far}"
    );
    if h.place.misplaced() > 0 {
        eprintln!(
            "bench: {} threaded runs were not placed",
            h.place.misplaced()
        );
    }
    let void = quiet_share < MIN_QUIET_SHARE || !control_ok;
    if void {
        eprintln!(
            "bench: VOID — quiet share {quiet_share:.2} (need {MIN_QUIET_SHARE}), control scaling ok: {control_ok}"
        );
    }
    if args.traced {
        if let Err(e) = write_spans(&h, args) {
            eprintln!("bench: cannot write spans: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        h.tally.attempted,
        h.tally.failed,
        body.join(",")
    );
    if !correct {
        ExitCode::from(EXIT_INCORRECT)
    } else if void && args.strict_env {
        ExitCode::from(EXIT_VOID)
    } else {
        ExitCode::SUCCESS
    }
}

fn write_spans(h: &Harness, args: &Args) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out)?;
    let path = args.out.join(format!("trace-{}.jsonl", args.workload));
    let file = std::fs::File::create(&path)?;
    h.spans.write_jsonl(std::io::BufWriter::new(file))?;
    eprintln!(
        "bench: {} spans -> {}",
        h.spans.spans().len(),
        path.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let fp = Fingerprint::read();
    if fp.nproc < 2 {
        eprintln!(
            "bench: {} core available; 2-worker metrics need 2, refusing",
            fp.nproc
        );
        return ExitCode::from(EXIT_USAGE);
    }
    // The probe workers sleep in `recv` except inside an environment probe,
    // and the coordinator blocks while the engine's two workers run, so at
    // most two threads are runnable at any time.
    let cal = Cal::new(args.seed);
    let serve = |_worker: usize, job: env::Job| cal.serve(job);
    std::thread::scope(|scope| {
        let place = Placement::start(scope);
        if !place.is_active() {
            eprintln!("bench: cannot pin threads; the scheduler places the workers");
        }
        let mut pool = place.spread(2, || EchoPool::new(scope, 2, &serve));
        run(&args, &fp, &cal, &mut pool, place)
    })
}
