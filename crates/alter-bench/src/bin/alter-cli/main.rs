//! `alter-cli` — one command line over the twelve Table 2 workloads: the
//! flight recorder, the dependence summary, the isolation sanitizer, the
//! abstract interpreter, the DPOR model checker, record/replay, the
//! paper's tables and figures, and the committed verdict record CI
//! drift-checks.
//!
//! ```text
//! cargo run --release -p alter-bench --bin alter-cli -- <command> [args] [flags]
//! ```
//!
//! Every subcommand shares one parser ([`parse`]: each command accepts
//! only its own flags), one workload selector ([`select`]), one
//! annotation grammar ([`probe_for`]) and one recording helper
//! ([`record_run`]).

mod baselines;
mod json;
mod replay;
mod trace;
mod verify;

use alter_infer::{Model, Probe, ProbeRun};
use alter_runtime::RunError;
use alter_trace::{Event, Recorder, RingRecorder};
use alter_workloads::{all_benchmarks, find_benchmark, Benchmark, Scale};
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
usage: alter-cli <command> [args] [flags]

commands:
  list
      the twelve Table 2 workloads with their best annotation and cf
  trace <workload> [annotation]
      run one workload with the flight recorder attached and print the
      timeline, the metrics and the 64-bit trace hash
        --workers N  worker count                       (default 4)
        --chunk N    chunk factor                       (default: tuned cf)
        --jsonl      dump the raw JSONL event stream instead of the timeline
        --twice      run the probe twice and verify byte-identical traces
        --threaded   drive rounds on the worker pool's threads instead of
                     the sequential simulation (identical traces)
  deps [workload]
      the workload's dependence summary (per-location edges with
      iteration distances), its Table 3 Dep cell and the static
      analyzer's coverage of each edge; with no workload, the Dep column
      for all twelve
  lint [workload]
      record the best-configuration trace with task_sets payloads and
      replay it through the isolation sanitizer (exit 1 on a violation)
        --workers N  worker count for the recorded probe (default 4)
  absint [workload]
      interpret the declared LoopSpec and prove static ⊇ dynamic against
      the replay (exit 1 on a violation)
  check <workload|all> [annotation]
  check --journal FILE
      model-check every DPOR-representative commit order per round of a
      fresh task-set recording, or of a journal recorded with
      `record --sets` (exit 1 when any schedule is unsound)
        --workers N        worker count (default 4; not with --journal)
        --max-schedules N  per-round representative budget (default 256)
        --cex PREFIX       on unsoundness, write the first counterexample
                           as PREFIX-expected.journal / PREFIX-actual.journal
                           for `diff`
  record <workload> [annotation]
      write a replayable trace journal (header line + JSONL events)
        --out FILE   journal file (default <workload>.journal)
        --workers N  worker count (default 4)
        --sets       record per-task access sets (task_sets events)
  replay <journal>
      re-execute the journal under its recorded configuration and verify
      the fresh stream is byte-identical; on mismatch, print the first
      divergent round/event as a structured diff (exit 1)
  diff <journal-a> <journal-b>
      compare two journals event by event (exit 1 when they fork)
  profile <workload|all> [annotation]
      run and print the phase ledger (cost units per round phase) as a
      hotspot table
        --workers N  worker count (default 4)
        --folded     print folded-stack lines (flamegraph input) instead
  tables
      Tables 3 and 4, the chunk-factor search and the convergence facts
  figures
      Figures 5-13 at paper scale
        --quick      inference-scale inputs
  baselines
      record every workload's verdict and write VERDICTS.json into the
      current directory; exit 1 with the gate's message when any gate
      fails

  workload:   a Table 2 workload, case-insensitive (see `list`)
  annotation: tls | outoforder | stalereads | doall | best  (default best)";

/// Worker count when `--workers` is absent.
const DEFAULT_WORKERS: usize = 4;

/// Ring capacity of every recording — the sanitizer's: canonical traces
/// with `task_sets` payloads are far larger than flight-recorder ones.
/// The ring grows as events arrive, so nothing is preallocated.
const RING_CAPACITY: usize = 1 << 20;

/// Every flag any subcommand takes, with what its value must be (`None`
/// for a switch).
const FLAGS: [(&str, Option<&str>); 12] = [
    ("--workers", Some(INTEGER)),
    ("--chunk", Some(INTEGER)),
    ("--max-schedules", Some(INTEGER)),
    ("--out", Some("a file path")),
    ("--journal", Some("a file path")),
    ("--cex", Some("a path prefix")),
    ("--jsonl", None),
    ("--twice", None),
    ("--threaded", None),
    ("--sets", None),
    ("--folded", None),
    ("--quick", None),
];

const INTEGER: &str = "a positive integer";

/// A subcommand: how it is written (its first word is its name), how
/// many positional arguments it takes and the only flags it accepts.
#[derive(Debug)]
struct Command {
    synopsis: &'static str,
    args: (usize, usize),
    flags: &'static [&'static str],
}

impl Command {
    fn name(&self) -> &'static str {
        self.synopsis
            .split(' ')
            .next()
            .expect("split yields a word")
    }
}

const COMMANDS: [Command; 13] = [
    Command {
        synopsis: "list",
        args: (0, 0),
        flags: &[],
    },
    Command {
        synopsis: "trace <workload> [annotation]",
        args: (1, 2),
        flags: &["--workers", "--chunk", "--jsonl", "--twice", "--threaded"],
    },
    Command {
        synopsis: "deps [workload]",
        args: (0, 1),
        flags: &[],
    },
    Command {
        synopsis: "lint [workload]",
        args: (0, 1),
        flags: &["--workers"],
    },
    Command {
        synopsis: "absint [workload]",
        args: (0, 1),
        flags: &[],
    },
    Command {
        synopsis: "check <workload|all> [annotation] | check --journal FILE",
        args: (0, 2),
        flags: &["--workers", "--max-schedules", "--cex", "--journal"],
    },
    Command {
        synopsis: "record <workload> [annotation]",
        args: (1, 2),
        flags: &["--out", "--workers", "--sets"],
    },
    Command {
        synopsis: "replay <journal>",
        args: (1, 1),
        flags: &[],
    },
    Command {
        synopsis: "diff <journal-a> <journal-b>",
        args: (2, 2),
        flags: &[],
    },
    Command {
        synopsis: "profile <workload|all> [annotation]",
        args: (1, 2),
        flags: &["--workers", "--folded"],
    },
    Command {
        synopsis: "tables",
        args: (0, 0),
        flags: &[],
    },
    Command {
        synopsis: "figures",
        args: (0, 0),
        flags: &["--quick"],
    },
    Command {
        synopsis: "baselines",
        args: (0, 0),
        flags: &[],
    },
];

/// A parsed command line: the subcommand, its positional arguments and
/// the flags given (switches carry an empty value).
#[derive(Debug)]
struct Args {
    cmd: &'static Command,
    pos: Vec<String>,
    flags: Vec<(&'static str, String)>,
}

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.value(flag).is_some()
    }

    /// The flag's value; the last one wins when it is repeated. Asking
    /// for a flag the command does not declare is a bug (a typo would
    /// otherwise read as "not given").
    fn value(&self, flag: &str) -> Option<&str> {
        debug_assert!(
            self.cmd.flags.contains(&flag),
            "`{}` does not declare {flag}",
            self.cmd.name()
        );
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// A numeric flag's value (validated by [`parse`]), at least 1.
    fn number(&self, flag: &str) -> Option<usize> {
        self.value(flag)
            .map(|v| v.parse::<usize>().expect("validated by parse").max(1))
    }

    fn workers(&self) -> usize {
        self.number("--workers").unwrap_or(DEFAULT_WORKERS)
    }

    /// The annotation token (the second positional), lowercased as
    /// journal headers store it; `best` when absent.
    fn annotation(&self) -> String {
        self.pos
            .get(1)
            .map_or_else(|| "best".to_owned(), |a| a.to_ascii_lowercase())
    }
}

/// Parses `argv` (without the program name) against [`COMMANDS`]: an
/// unknown flag, a flag the subcommand does not take, a missing or
/// non-numeric value and a wrong positional count are all errors.
fn parse(argv: &[String]) -> Result<Args, String> {
    let (name, rest) = argv.split_first().ok_or("no command given")?;
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name() == name)
        .ok_or_else(|| format!("unknown command `{name}` (see --help)"))?;
    let mut args = Args {
        cmd,
        pos: Vec::new(),
        flags: Vec::new(),
    };
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            args.pos.push(a.clone());
            continue;
        }
        let &(flag, value) = FLAGS
            .iter()
            .find(|(f, _)| f == a)
            .ok_or_else(|| format!("unknown flag {a}"))?;
        if !cmd.flags.contains(&flag) {
            return Err(format!("`{name}` does not take {a}"));
        }
        let value = match value {
            None => String::new(),
            Some(what) => {
                let v = it
                    .next()
                    .filter(|v| what != INTEGER || v.parse::<usize>().is_ok())
                    .ok_or_else(|| format!("{a} needs {what}"))?;
                v.clone()
            }
        };
        args.flags.push((flag, value));
    }
    let (min, max) = cmd.args;
    if args.pos.len() < min || args.pos.len() > max {
        return Err(format!("usage: alter-cli {}", cmd.synopsis));
    }
    Ok(args)
}

/// The workloads a selector names: one workload, or all twelve in Table 2
/// order for `all` or no name at all.
fn select(name: Option<&String>) -> Result<Vec<Box<dyn Benchmark>>, String> {
    match name {
        Some(n) if !n.eq_ignore_ascii_case("all") => Ok(vec![find(n)?]),
        _ => Ok(all_benchmarks(Scale::Inference)),
    }
}

fn find(name: &str) -> Result<Box<dyn Benchmark>, String> {
    find_benchmark(name).ok_or_else(|| format!("unknown workload `{name}` (try `alter-cli list`)"))
}

/// The probe an annotation token names for `bench` at `workers`: `best`
/// is the paper's chosen configuration, reduction included; any other
/// token is a bare model at the workload's tuned chunk factor. Journal
/// headers store the token verbatim, so this is also how a recorded
/// configuration is reconstructed.
fn probe_for(bench: &dyn Benchmark, annotation: &str, workers: usize) -> Result<Probe, String> {
    if annotation.eq_ignore_ascii_case("best") {
        return Ok(bench.best_probe(workers));
    }
    let model = Model::parse_token(annotation).ok_or_else(|| {
        format!("unknown annotation `{annotation}` (tls | outoforder | stalereads | doall | best)")
    })?;
    Ok(Probe::new(model, workers, bench.chunk_factor()))
}

/// A recorded run: the whole event stream and the run's outcome (an
/// aborted run still leaves its trace, ending in the abort event).
type Recorded = (Vec<Event>, Result<ProbeRun, RunError>);

/// Runs `probe` against `bench` with a fresh ring recorder attached.
fn record_run(bench: &dyn Benchmark, probe: &Probe) -> Result<Recorded, String> {
    record_capped(bench, probe, RING_CAPACITY)
}

/// [`record_run`] with an explicit ring capacity. A ring that dropped
/// events holds only the run's tail — its hash, journal or audit would
/// describe a run that never happened — so that is an error.
fn record_capped(bench: &dyn Benchmark, probe: &Probe, cap: usize) -> Result<Recorded, String> {
    let rec = Arc::new(RingRecorder::new(cap));
    let mut probe = probe.clone();
    probe.recorder = Some(rec.clone() as Arc<dyn Recorder>);
    let run = bench.run_probe(&probe);
    match rec.dropped() {
        0 => Ok((rec.events(), run)),
        n => Err(format!(
            "{}: ring capacity of {cap} events exceeded, {n} oldest event(s) dropped; \
             the trace would be the run's tail",
            bench.name()
        )),
    }
}

/// Runs a parsed command; `Ok(false)` is a verdict that fails the run
/// (unsound, diverged, violated), `Err` a command that could not run.
/// Commands that deliver a verdict return it; the rest succeed once they
/// have printed or written their output.
fn run(a: &Args) -> Result<bool, String> {
    match a.cmd.name() {
        "list" => trace::list(),
        "trace" => return trace::trace(a),
        "deps" => trace::deps(a.pos.first())?,
        "lint" => return verify::lint(a),
        "absint" => return verify::absint(a),
        "check" => return verify::check(a),
        "record" => replay::record(a)?,
        "replay" => return replay::replay(&a.pos[0]),
        "diff" => return replay::diff(&a.pos[0], &a.pos[1]),
        "profile" => replay::profile(a)?,
        "tables" => {
            println!("{}", alter_bench::table3());
            println!("{}", alter_bench::table4());
            println!("{}", alter_bench::chunk_tuning());
            println!("{}", alter_bench::convergence_facts(Scale::Inference));
        }
        "figures" => {
            let scale = if a.has("--quick") {
                Scale::Inference
            } else {
                Scale::Paper
            };
            println!("{}", alter_bench::figure5());
            println!("{}", alter_bench::figures(scale));
        }
        "baselines" => baselines::write_all()?,
        other => unreachable!("`{other}` is in COMMANDS but not dispatched"),
    }
    Ok(true)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match parse(&argv).and_then(|a| run(&a)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parser_accepts_only_each_commands_own_flags() {
        for (line, expected) in [
            ("list", Ok(())),
            ("trace k-means best --jsonl", Ok(())),
            (
                "trace sg3d --workers 1 --chunk 1 --twice --threaded",
                Ok(()),
            ),
            ("deps", Ok(())),
            ("lint genome --workers 2", Ok(())),
            ("check all best --max-schedules 1024 --cex target/x", Ok(())),
            ("check --journal g.journal --max-schedules 9", Ok(())),
            ("record genome --sets --out g.journal", Ok(())),
            ("diff a.journal b.journal", Ok(())),
            ("profile all --folded --workers 2", Ok(())),
            ("figures --quick", Ok(())),
            ("baselines", Ok(())),
            // Unknown flags, including the deleted `--json` / `--analysis`
            // / `--tickets`.
            ("trace genome --bogus", Err("unknown flag --bogus")),
            ("trace genome --tickets", Err("unknown flag --tickets")),
            ("record genome --json x.json", Err("unknown flag --json")),
            ("lint --analysis A.json", Err("unknown flag --analysis")),
            // A flag another subcommand takes.
            (
                "record genome --folded",
                Err("`record` does not take --folded"),
            ),
            (
                "replay g.journal --workers 9",
                Err("`replay` does not take --workers"),
            ),
            (
                "absint --workers 2",
                Err("`absint` does not take --workers"),
            ),
            ("tables --quick", Err("`tables` does not take --quick")),
            // Missing or malformed values.
            (
                "trace genome --workers",
                Err("--workers needs a positive integer"),
            ),
            (
                "trace genome --chunk x",
                Err("--chunk needs a positive integer"),
            ),
            ("check --journal", Err("--journal needs a file path")),
            ("check all --cex", Err("--cex needs a path prefix")),
            ("record genome --out", Err("--out needs a file path")),
            // Positional counts.
            (
                "trace",
                Err("usage: alter-cli trace <workload> [annotation]"),
            ),
            ("replay a b", Err("usage: alter-cli replay <journal>")),
            (
                "diff a",
                Err("usage: alter-cli diff <journal-a> <journal-b>"),
            ),
            ("list genome", Err("usage: alter-cli list")),
            (
                "frobnicate",
                Err("unknown command `frobnicate` (see --help)"),
            ),
        ] {
            let got = parse(&argv(line)).map(|_| ());
            assert_eq!(got, expected.map_err(str::to_owned), "{line}");
        }
    }

    #[test]
    fn parsed_values_reach_their_accessors() {
        let a = parse(&argv(
            "trace Genome StaleReads --workers 0 --chunk 8 --twice",
        ))
        .unwrap();
        assert_eq!(a.cmd.name(), "trace");
        assert_eq!(a.pos, ["Genome", "StaleReads"]);
        assert_eq!(a.annotation(), "stalereads");
        assert_eq!(a.workers(), 1, "0 workers clamps to 1");
        assert_eq!(a.number("--chunk"), Some(8));
        assert!(a.has("--twice") && !a.has("--jsonl"));

        let a = parse(&argv("record genome --out a --out b")).unwrap();
        assert_eq!(a.annotation(), "best");
        assert_eq!(a.workers(), DEFAULT_WORKERS);
        assert_eq!(a.value("--out"), Some("b"), "the last value wins");
    }

    #[test]
    fn check_journal_rejects_what_the_header_fixes() {
        for line in [
            "check --journal g.journal --workers 9",
            "check genome --journal g.journal",
        ] {
            let err = verify::check(&parse(&argv(line)).unwrap()).unwrap_err();
            assert!(err.contains("--journal"), "{line}: {err}");
        }
    }

    #[test]
    fn a_dropped_event_fails_the_recording() {
        let bench = find("genome").unwrap();
        let probe = bench.best_probe(2);
        let err = record_capped(bench.as_ref(), &probe, 8).unwrap_err();
        assert!(err.contains("oldest event(s) dropped"), "{err}");
        let (events, run) = record_run(bench.as_ref(), &probe).unwrap();
        assert!(run.is_ok());
        assert!(events.len() > 8);
    }
}
