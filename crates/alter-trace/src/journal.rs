//! Trace journals: a recorded run packaged for replay.
//!
//! A journal is the canonical JSONL event stream of **one** engine run
//! prefixed with a single header line carrying everything needed to
//! re-execute it — workload name, annotation, worker count, the recording
//! flags, and the trace hash of the recorded stream. The header is the
//! same hand-rolled canonical JSON as the event lines, so a journal file
//! is still plain JSONL and still fully offline.
//!
//! [`Journal::from_jsonl`] is a *validating* reader: it rejects journals
//! whose header is missing or malformed, whose round numbering is not the
//! engine's strict `0, 1, 2, …` sequence within each engine-run segment
//! (which catches reordered lines), whose last event is not terminal
//! (which catches truncation), and whose
//! recorded trace hash does not match the events actually read (which
//! catches field-level corruption that still parses). A journal that
//! loads is therefore structurally sound; whether the *run* it describes
//! is still reproducible is the replay driver's job
//! (`alter_runtime::replay`).

use crate::event::Event;
use crate::hash::trace_hash;
use crate::jsonl::{escape_into, event_json, parse_object, Fields, ParseTraceError};
use std::fmt::Write as _;

/// Magic tag identifying a journal header line.
pub const JOURNAL_MAGIC: &str = "alter-replay";
/// Journal format version this reader understands.
pub const JOURNAL_VERSION: u64 = 1;

/// The run configuration recorded at the head of a journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalHeader {
    /// Canonical workload name (as `alter-bench` normalizes it).
    pub workload: String,
    /// Annotation the run was recorded under (display form).
    pub annotation: String,
    /// Worker count of the recorded run.
    pub workers: u32,
    /// Whether `TaskSets` events were recorded.
    pub record_sets: bool,
    /// Trace hash of the recorded event stream (FNV-1a over the canonical
    /// JSONL bytes, header excluded).
    pub trace_hash: u64,
}

impl JournalHeader {
    /// Renders the header as its canonical single-line JSON form.
    pub fn json_line(&self) -> String {
        let mut s = String::with_capacity(128);
        let _ = write!(
            s,
            "{{\"journal\":\"{JOURNAL_MAGIC}\",\"version\":{JOURNAL_VERSION}"
        );
        s.push_str(",\"workload\":\"");
        escape_into(&mut s, &self.workload);
        s.push_str("\",\"annotation\":\"");
        escape_into(&mut s, &self.annotation);
        let _ = write!(
            s,
            "\",\"workers\":{},\"record_sets\":{},\"hash\":{}}}",
            self.workers, self.record_sets as u8, self.trace_hash
        );
        s
    }

    fn parse(line: &str) -> Result<JournalHeader, String> {
        let f = Fields {
            fields: parse_object(line)?,
        };
        let magic = f
            .string("journal")
            .map_err(|_| "missing journal header line".to_owned())?;
        if magic != JOURNAL_MAGIC {
            return Err(format!("bad journal magic `{magic}`"));
        }
        let version = f.int("version")?;
        if version != JOURNAL_VERSION {
            return Err(format!(
                "unsupported journal version {version} (expected {JOURNAL_VERSION})"
            ));
        }
        let flag = |key: &str| -> Result<bool, String> {
            match f.int(key)? {
                0 => Ok(false),
                1 => Ok(true),
                n => Err(format!("field `{key}` must be 0 or 1, got {n}")),
            }
        };
        Ok(JournalHeader {
            workload: f.string("workload")?,
            annotation: f.string("annotation")?,
            workers: f.int32("workers")?,
            record_sets: flag("record_sets")?,
            // Journals recorded while there was a driver or a heap layout
            // to choose carry a `"pipeline":` depth and a `"shards":` count,
            // and those recorded while phase costs could be traced carry a
            // `"profile":` flag; all three are accepted and ignored — the
            // event stream never depended on the first two, and a journal
            // that holds the retired events fails to load on them.
            trace_hash: f.int("hash")?,
        })
    }
}

/// A validated recorded run: header, event stream, and its round count.
#[derive(Clone, Debug, PartialEq)]
pub struct Journal {
    header: JournalHeader,
    events: Vec<Event>,
    /// `RoundStart` events in the stream, across segments.
    rounds: usize,
}

impl Journal {
    /// Packages a freshly recorded run. The header's `trace_hash` is
    /// recomputed from `events` so the journal is always self-consistent;
    /// structural validation still applies (single run, strict round
    /// numbering, terminal final event).
    pub fn new(mut header: JournalHeader, events: Vec<Event>) -> Result<Journal, String> {
        header.trace_hash = trace_hash(&events);
        let rounds = count_rounds(&events).map_err(|(_, msg)| msg)?;
        Ok(Journal {
            header,
            events,
            rounds,
        })
    }

    /// Serializes the journal: header line, then the canonical JSONL event
    /// stream.
    pub fn to_jsonl(&self) -> String {
        let mut out = self.header.json_line();
        out.push('\n');
        for ev in &self.events {
            out.push_str(&event_json(ev));
            out.push('\n');
        }
        out
    }

    /// Parses and validates a journal file — the inverse of
    /// [`Journal::to_jsonl`]. Rejects missing/bad headers, reordered
    /// rounds, truncated streams, and event payloads that do not hash to
    /// the header's recorded trace hash.
    pub fn from_jsonl(text: &str) -> Result<Journal, ParseTraceError> {
        let mut lines = text.lines().enumerate();
        let header = loop {
            match lines.next() {
                None => {
                    return Err(ParseTraceError {
                        line: 1,
                        msg: "empty journal (missing header line)".into(),
                    })
                }
                Some((_, "")) => continue,
                Some((idx, line)) => {
                    break JournalHeader::parse(line)
                        .map_err(|msg| ParseTraceError { line: idx + 1, msg })?
                }
            }
        };
        let mut events = Vec::new();
        let mut event_lines = Vec::new();
        for (idx, line) in lines {
            if line.is_empty() {
                continue;
            }
            let at = |msg: String| ParseTraceError { line: idx + 1, msg };
            let f = Fields {
                fields: parse_object(line).map_err(at)?,
            };
            events.push(crate::jsonl::parse_event_fields(&f).map_err(at)?);
            event_lines.push(idx + 1);
        }
        let rounds = count_rounds(&events).map_err(|(pos, msg)| ParseTraceError {
            line: pos.map_or_else(
                || event_lines.last().copied().unwrap_or(1),
                |i| event_lines[i],
            ),
            msg,
        })?;
        let actual = trace_hash(&events);
        if actual != header.trace_hash {
            return Err(ParseTraceError {
                line: 1,
                msg: format!(
                    "journal hash mismatch: header says {:016x}, events hash to {actual:016x} (corrupted payload?)",
                    header.trace_hash
                ),
            });
        }
        Ok(Journal {
            header,
            events,
            rounds,
        })
    }

    /// The recorded run configuration.
    pub fn header(&self) -> &JournalHeader {
        &self.header
    }

    /// The recorded event stream.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Consumes the journal, yielding header and events.
    pub fn into_parts(self) -> (JournalHeader, Vec<Event>) {
        (self.header, self.events)
    }

    /// Number of rounds in the recorded run.
    pub fn round_count(&self) -> usize {
        self.rounds
    }
}

/// Counts the rounds, enforcing the recorded-probe shape. A probe run
/// is one or more engine-run *segments* (workloads like k-means drive the
/// target loop once per outer iteration), each numbering its rounds
/// strictly `0, 1, 2, …` and each closed by a terminal event (`run_end`,
/// `oom`, `crash`, or `work_budget_exceeded`). Anything else means lines
/// were reordered or spliced; a stream whose final event is not terminal
/// was truncated. Probe brackets are rejected — journals record a single
/// probe run, not an inference search. Errors carry the offending event
/// index (`None` = end of stream).
fn count_rounds(events: &[Event]) -> Result<usize, (Option<usize>, String)> {
    let mut rounds = 0;
    let mut expected = 0u64; // next round number within the current segment
    for (i, ev) in events.iter().enumerate() {
        match ev {
            Event::RoundStart { round, .. } => {
                if *round != expected {
                    return Err((
                        Some(i),
                        format!(
                            "out-of-order round {round} (expected {expected}); journal reordered or spliced"
                        ),
                    ));
                }
                expected += 1;
                rounds += 1;
            }
            Event::RunEnd { .. }
            | Event::Oom { .. }
            | Event::Crash { .. }
            | Event::WorkBudgetExceeded { .. } => expected = 0,
            Event::ProbeStart { .. } | Event::ProbeOutcome { .. } => {
                return Err((
                    Some(i),
                    "probe events in journal: journals record a single run, not an inference search"
                        .into(),
                ));
            }
            _ => {}
        }
    }
    match events.last() {
        None => return Err((None, "journal has no events".into())),
        Some(
            Event::RunEnd { .. }
            | Event::Oom { .. }
            | Event::Crash { .. }
            | Event::WorkBudgetExceeded { .. },
        ) => {}
        Some(other) => {
            return Err((
                Some(events.len() - 1),
                format!(
                    "journal truncated: last event `{}` is not terminal",
                    other.kind_str()
                ),
            ));
        }
    }
    Ok(rounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> JournalHeader {
        JournalHeader {
            workload: "genome".into(),
            annotation: "[StaleReads]".into(),
            workers: 4,
            record_sets: true,
            trace_hash: 0,
        }
    }

    fn run_events() -> Vec<Event> {
        vec![
            Event::RoundStart {
                round: 0,
                tasks: 1,
                snapshot_slots: 2,
            },
            Event::TaskStart {
                seq: 0,
                worker: 0,
                iters: 4,
            },
            Event::Commit {
                seq: 0,
                read_words: 3,
                write_words: 1,
                allocs: 0,
                frees: 0,
            },
            Event::RoundStart {
                round: 1,
                tasks: 1,
                snapshot_slots: 2,
            },
            Event::TaskStart {
                seq: 1,
                worker: 0,
                iters: 4,
            },
            Event::Commit {
                seq: 1,
                read_words: 3,
                write_words: 1,
                allocs: 0,
                frees: 0,
            },
            Event::RunEnd {
                rounds: 2,
                attempts: 2,
                committed: 2,
            },
        ]
    }

    #[test]
    fn journal_round_trips_and_indexes_rounds() {
        let j = Journal::new(header(), run_events()).expect("valid journal");
        let text = j.to_jsonl();
        assert!(text.starts_with("{\"journal\":\"alter-replay\",\"version\":1,"));
        let back = Journal::from_jsonl(&text).expect("parses back");
        assert_eq!(back, j);
        assert_eq!(back.round_count(), 2);
        assert_eq!(back.header().trace_hash, trace_hash(back.events()));
    }

    #[test]
    fn rejects_missing_or_bad_header() {
        assert!(Journal::from_jsonl("").is_err());
        let no_header = crate::jsonl::to_jsonl(&run_events());
        assert!(Journal::from_jsonl(&no_header).is_err());
        let j = Journal::new(header(), run_events()).unwrap();
        let bad_version = j.to_jsonl().replace("\"version\":1", "\"version\":2");
        let err = Journal::from_jsonl(&bad_version).unwrap_err();
        assert!(err.msg.contains("version"), "{err}");
    }

    #[test]
    fn rejects_truncated_journal() {
        let j = Journal::new(header(), run_events()).unwrap();
        let text = j.to_jsonl();
        let cut = text.lines().collect::<Vec<_>>()[..text.lines().count() - 1].join("\n");
        let err = Journal::from_jsonl(&cut).unwrap_err();
        assert!(err.msg.contains("truncated"), "{err}");
    }

    #[test]
    fn accepts_multi_segment_runs() {
        // Workloads like k-means drive the loop once per outer iteration:
        // round numbering restarts at 0 after each terminal event.
        let mut evs = run_events();
        evs.extend(run_events());
        let j = Journal::new(header(), evs).expect("segmented run is valid");
        assert_eq!(j.round_count(), 4);
        let back = Journal::from_jsonl(&j.to_jsonl()).expect("parses back");
        assert_eq!(back.round_count(), 4);
    }

    #[test]
    fn rejects_reordered_rounds() {
        let mut evs = run_events();
        evs.swap(0, 4); // swap the two RoundStarts
        let err = Journal::new(header(), evs).unwrap_err();
        assert!(err.contains("out-of-order round"), "{err}");
    }

    #[test]
    fn rejects_field_corruption_via_hash() {
        let j = Journal::new(header(), run_events()).unwrap();
        // Corrupt one payload field in a way that still parses cleanly.
        let text = j.to_jsonl().replace("\"read_words\":3", "\"read_words\":4");
        let err = Journal::from_jsonl(&text).unwrap_err();
        assert!(err.msg.contains("hash mismatch"), "{err}");
    }

    #[test]
    fn rejects_probe_events_and_empty_streams() {
        let mut evs = run_events();
        evs.insert(
            0,
            Event::ProbeStart {
                annotation: "x".into(),
            },
        );
        assert!(Journal::new(header(), evs).is_err());
        assert!(Journal::new(header(), Vec::new()).is_err());
    }

    #[test]
    fn header_flags_round_trip() {
        let mut h = header();
        h.record_sets = false;
        let j = Journal::new(h, run_events()).unwrap();
        let back = Journal::from_jsonl(&j.to_jsonl()).unwrap();
        assert!(!back.header().record_sets);
        assert_eq!(back.header().workload, "genome");
        assert_eq!(back.header().workers, 4);
    }

    #[test]
    fn retired_header_fields_are_accepted_and_ignored() {
        // Journals written while the header carried a phase-profile flag,
        // a pipeline depth and a heap-layout count (in that order, before
        // the hash) must still load — whatever the fields say — to the
        // journal written today.
        let j = Journal::new(header(), run_events()).unwrap();
        let today = j.to_jsonl();
        for key in ["\"profile\":", "\"pipeline\":", "\"shards\":"] {
            assert!(!today.contains(key), "{key}");
        }
        for retired in [
            "",
            "\"profile\":0,",
            "\"profile\":1,",
            "\"shards\":1,",
            "\"shards\":16,",
            "\"pipeline\":4,\"shards\":16,",
            "\"profile\":0,\"pipeline\":0,\"shards\":1,",
        ] {
            let old = today.replace("\"hash\":", &format!("{retired}\"hash\":"));
            let back = Journal::from_jsonl(&old).expect("old header parses");
            assert_eq!(back, j, "`{retired}`");
            assert_eq!(back.to_jsonl(), today, "`{retired}`");
        }
    }

    #[test]
    fn rejects_retired_phase_cost_lines() {
        // Phase costs live in `RunStats`, not in the event stream: a
        // journal recorded while they could be traced, per-round cost
        // lines and all, no longer loads, and the error names the line.
        let text = Journal::new(header(), run_events()).unwrap().to_jsonl();
        let mut lines: Vec<&str> = text.lines().collect();
        let retired = "{\"ev\":\"phase_profile\",\"round\":0,\"phase\":\"execute\",\"cost\":9}";
        lines.insert(4, retired);
        let err = Journal::from_jsonl(&lines.join("\n")).unwrap_err();
        assert_eq!(err.line, 5, "{err}");
        assert!(err.msg.contains("unknown event kind"), "{err}");
    }
}
