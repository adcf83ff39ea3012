//! Replay comparison and divergence — the trace-level referee.
//!
//! A recorded journal promises that re-executing its workload under its
//! recorded configuration reproduces the event stream byte for byte
//! (traces are pure functions of program + annotation). This module is
//! the checker for that promise: given the *expected* stream (from the
//! journal) and the *actual* stream (from a fresh run), [`diverge_bisect`]
//! either certifies identity or pinpoints the first divergent event.
//!
//! The search is one linear pass to the first unequal event (or the end
//! of the shorter stream); trace hashes are computed only for the result.
//! That is a structured [`Divergence`]: expected vs. actual event, the
//! divergent round and task, the access-set delta when both sides carry
//! recorded sets, and the trace hash of the shared prefix where the
//! streams fork.
//!
//! The workload re-execution itself lives with the workload registry
//! (`alter-bench`'s `alter-cli replay`): this crate deliberately knows
//! nothing about workloads, only about event streams.

use alter_trace::{event_json, parse_set, trace_hash, Event};
use std::fmt::Write as _;

/// The outcome of replaying a journal against a fresh run.
#[derive(Clone, Debug, PartialEq)]
pub enum ReplayOutcome {
    /// The fresh run reproduced the recorded stream exactly.
    Identical {
        /// Events in the (shared) stream.
        events: usize,
        /// The (shared) trace hash.
        hash: u64,
    },
    /// The streams fork; here is where and how.
    Diverged(Box<Divergence>),
}

/// Entries present in one recorded access set but not the other
/// (canonical `obj:lo-hi` strings).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SetDelta {
    /// Entries the journal recorded that the fresh run did not.
    pub missing: Vec<String>,
    /// Entries the fresh run produced that the journal lacks.
    pub extra: Vec<String>,
}

impl SetDelta {
    /// Diffs two canonical set renderings. Unparseable sets (impossible
    /// for engine-produced traces) diff as whole-string entries so the
    /// evidence is still visible.
    pub fn between(expected: &str, actual: &str) -> SetDelta {
        let entries = |s: &str| -> Vec<String> {
            match parse_set(s) {
                Ok(triples) => triples
                    .iter()
                    .map(|(obj, lo, hi)| format!("{}:{lo}-{hi}", obj.index()))
                    .collect(),
                Err(_) => vec![s.to_owned()],
            }
        };
        let exp = entries(expected);
        let act = entries(actual);
        SetDelta {
            missing: exp.iter().filter(|e| !act.contains(e)).cloned().collect(),
            extra: act.iter().filter(|e| !exp.contains(e)).cloned().collect(),
        }
    }

    /// Whether the two sets were identical.
    pub fn is_empty(&self) -> bool {
        self.missing.is_empty() && self.extra.is_empty()
    }
}

/// The first point where an actual event stream forks from the expected
/// one.
#[derive(Clone, Debug, PartialEq)]
pub struct Divergence {
    /// Round containing the divergent event (the last `RoundStart` at or
    /// before it; 0 if the streams fork before any round starts).
    pub round: u64,
    /// Task sequence number carried by the divergent event, if either
    /// side's event names one.
    pub seq: Option<u64>,
    /// Index of the first divergent event (shared by both streams — all
    /// earlier events are identical).
    pub index: usize,
    /// The journal's event at that index (`None`: the fresh run produced
    /// extra events past the journal's end).
    pub expected: Option<Event>,
    /// The fresh run's event at that index (`None`: the fresh run ended
    /// early).
    pub actual: Option<Event>,
    /// Trace hash of the shared prefix `events[..index]` — where the
    /// streams fork.
    pub prefix_hash: u64,
    /// Full trace hash of the expected stream.
    pub expected_hash: u64,
    /// Full trace hash of the actual stream.
    pub actual_hash: u64,
    /// Access-set delta, when both sides diverge on a `TaskSets` event
    /// for the same task.
    pub set_delta: Option<SetDelta>,
}

impl Divergence {
    /// The divergence at `index`, the first event where `actual` forks
    /// from `expected` (or either stream ends). Its round is the last
    /// `RoundStart` before the fork — the one the fork is on, if none is
    /// — and 0 before any round starts.
    pub fn at(expected: &[Event], actual: &[Event], index: usize) -> Divergence {
        let prefix = &expected[..index.min(expected.len())];
        let expected_ev = expected.get(index).cloned();
        let actual_ev = actual.get(index).cloned();
        // The shared prefix is identical in both streams, so the expected
        // side alone determines the enclosing round.
        let round = prefix
            .iter()
            .rev()
            .find_map(|ev| match ev {
                Event::RoundStart { round, .. } => Some(*round),
                _ => None,
            })
            .or(match (&expected_ev, &actual_ev) {
                (Some(Event::RoundStart { round, .. }), _)
                | (_, Some(Event::RoundStart { round, .. })) => Some(*round),
                _ => None,
            })
            .unwrap_or(0);
        let seq = expected_ev
            .as_ref()
            .and_then(event_seq)
            .or_else(|| actual_ev.as_ref().and_then(event_seq));
        let set_delta = match (&expected_ev, &actual_ev) {
            (
                Some(Event::TaskSets {
                    seq: es,
                    reads: er,
                    writes: ew,
                }),
                Some(Event::TaskSets {
                    seq: as_,
                    reads: ar,
                    writes: aw,
                }),
            ) if es == as_ => {
                let reads = SetDelta::between(er, ar);
                let writes = SetDelta::between(ew, aw);
                let tagged = |tag: &str, entries: &[String]| -> Vec<String> {
                    entries.iter().map(|e| format!("{tag}:{e}")).collect()
                };
                Some(SetDelta {
                    missing: [tagged("r", &reads.missing), tagged("w", &writes.missing)].concat(),
                    extra: [tagged("r", &reads.extra), tagged("w", &writes.extra)].concat(),
                })
            }
            _ => None,
        };
        Divergence {
            round,
            seq,
            index,
            expected: expected_ev,
            actual: actual_ev,
            prefix_hash: trace_hash(prefix),
            expected_hash: trace_hash(expected),
            actual_hash: trace_hash(actual),
            set_delta,
        }
    }

    /// Renders the structured diff the CLIs and CI print on mismatch.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "replay divergence: round {}, task {}, event index {}",
            self.round,
            self.seq
                .map_or_else(|| "<none>".to_owned(), |s| s.to_string()),
            self.index
        );
        let show = |ev: &Option<Event>| {
            ev.as_ref()
                .map_or_else(|| "<end of stream>".to_owned(), event_json)
        };
        let _ = writeln!(out, "  expected: {}", show(&self.expected));
        let _ = writeln!(out, "  actual:   {}", show(&self.actual));
        let _ = writeln!(
            out,
            "  trace-hash prefix at fork: {:016x}",
            self.prefix_hash
        );
        let _ = writeln!(
            out,
            "  full hashes: expected {:016x}, actual {:016x}",
            self.expected_hash, self.actual_hash
        );
        if let Some(delta) = &self.set_delta {
            let _ = writeln!(
                out,
                "  access-set delta: missing=[{}] extra=[{}]",
                delta.missing.join(","),
                delta.extra.join(",")
            );
        }
        out
    }

    /// One-line form for listings (model-checker summaries, progress
    /// output): the fork coordinates plus the two forked events.
    pub fn render_oneline(&self) -> String {
        let show = |ev: &Option<Event>| {
            ev.as_ref()
                .map_or_else(|| "<end of stream>".to_owned(), event_json)
        };
        format!(
            "round {}, task {}, event {}: expected {} / actual {}",
            self.round,
            self.seq
                .map_or_else(|| "<none>".to_owned(), |s| s.to_string()),
            self.index,
            show(&self.expected),
            show(&self.actual)
        )
    }
}

/// Task sequence number carried by an event, if any.
fn event_seq(ev: &Event) -> Option<u64> {
    match ev {
        Event::TaskStart { seq, .. }
        | Event::TaskSets { seq, .. }
        | Event::ValidateOk { seq, .. }
        | Event::ValidateConflict { seq, .. }
        | Event::Commit { seq, .. }
        | Event::Squash { seq, .. }
        | Event::ReductionMerge { seq, .. } => Some(*seq),
        _ => None,
    }
}

/// Compares an actual event stream against the journal's expected one:
/// certifies identity or finds the first divergent event.
pub fn diverge_bisect(expected: &[Event], actual: &[Event]) -> ReplayOutcome {
    let index = expected
        .iter()
        .zip(actual)
        .take_while(|(e, a)| e == a)
        .count();
    if index == expected.len() && index == actual.len() {
        return ReplayOutcome::Identical {
            events: index,
            hash: trace_hash(expected),
        };
    }
    ReplayOutcome::Diverged(Box::new(Divergence::at(expected, actual, index)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use alter_trace::TraceHasher;

    fn round(r: u64, seqs: &[u64]) -> Vec<Event> {
        let mut evs = vec![Event::RoundStart {
            round: r,
            tasks: seqs.len() as u32,
            snapshot_slots: 3,
        }];
        for (w, &s) in seqs.iter().enumerate() {
            evs.push(Event::TaskStart {
                seq: s,
                worker: w as u32,
                iters: 4,
            });
        }
        for &s in seqs {
            evs.push(Event::ValidateOk {
                seq: s,
                validate_words: 2,
            });
            evs.push(Event::Commit {
                seq: s,
                read_words: 1,
                write_words: 1,
                allocs: 0,
                frees: 0,
            });
        }
        evs
    }

    fn run(rounds: u64) -> Vec<Event> {
        let mut evs = Vec::new();
        let mut seq = 0;
        for r in 0..rounds {
            evs.extend(round(r, &[seq, seq + 1]));
            seq += 2;
        }
        evs.push(Event::RunEnd {
            rounds,
            attempts: seq,
            committed: seq,
        });
        evs
    }

    #[test]
    fn identical_streams_certify() {
        let evs = run(5);
        match diverge_bisect(&evs, &evs.clone()) {
            ReplayOutcome::Identical { events, hash } => {
                assert_eq!(events, evs.len());
                assert_eq!(hash, trace_hash(&evs));
            }
            other => panic!("expected identity, got {other:?}"),
        }
    }

    #[test]
    fn bisects_to_exact_event_and_round() {
        let expected = run(8);
        let mut actual = expected.clone();
        // Corrupt one mid-stream event: round 5's second ValidateOk.
        let target = expected
            .iter()
            .enumerate()
            .filter(|(_, ev)| matches!(ev, Event::ValidateOk { seq, .. } if *seq == 11))
            .map(|(i, _)| i)
            .next()
            .unwrap();
        actual[target] = Event::ValidateOk {
            seq: 11,
            validate_words: 999,
        };
        match diverge_bisect(&expected, &actual) {
            ReplayOutcome::Diverged(d) => {
                assert_eq!(d.index, target);
                assert_eq!(d.round, 5);
                assert_eq!(d.seq, Some(11));
                assert_eq!(d.expected, Some(expected[target].clone()));
                assert_eq!(d.actual, Some(actual[target].clone()));
                assert_eq!(d.prefix_hash, {
                    let mut h = TraceHasher::new();
                    for ev in &expected[..target] {
                        h.update_event(ev);
                    }
                    h.finish()
                });
                assert_ne!(d.expected_hash, d.actual_hash);
                let text = d.render();
                assert!(text.contains("round 5"), "{text}");
                assert!(text.contains("validate_words\":999"), "{text}");
                let line = d.render_oneline();
                assert!(!line.contains('\n'), "{line}");
                assert!(line.contains("round 5, task 11"), "{line}");
                assert!(line.contains("validate_words\":999"), "{line}");
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn detects_truncated_and_extended_actuals() {
        let expected = run(3);
        let mut truncated = expected.clone();
        truncated.truncate(expected.len() - 2);
        match diverge_bisect(&expected, &truncated) {
            ReplayOutcome::Diverged(d) => {
                assert_eq!(d.index, truncated.len());
                assert!(d.actual.is_none());
                assert!(d.expected.is_some());
            }
            other => panic!("{other:?}"),
        }
        let mut extended = expected.clone();
        extended.push(Event::RunEnd {
            rounds: 9,
            attempts: 9,
            committed: 9,
        });
        match diverge_bisect(&expected, &extended) {
            ReplayOutcome::Diverged(d) => {
                assert_eq!(d.index, expected.len());
                assert!(d.expected.is_none());
                assert!(d.actual.is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn task_sets_divergence_carries_access_set_delta() {
        let mut expected = run(2);
        let mut actual = expected.clone();
        let sets_at = 1; // right after round 0's RoundStart
        expected.insert(
            sets_at,
            Event::TaskSets {
                seq: 0,
                reads: "2:0-4,7:1-3".into(),
                writes: "2:0-4".into(),
            },
        );
        actual.insert(
            sets_at,
            Event::TaskSets {
                seq: 0,
                reads: "2:0-4".into(),
                writes: "2:0-4,9:0-1".into(),
            },
        );
        match diverge_bisect(&expected, &actual) {
            ReplayOutcome::Diverged(d) => {
                assert_eq!(d.index, sets_at);
                let delta = d.set_delta.expect("task-sets divergence carries delta");
                assert_eq!(delta.missing, vec!["r:7:1-3".to_owned()]);
                assert_eq!(delta.extra, vec!["w:9:0-1".to_owned()]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn divergence_before_any_round_is_round_zero() {
        let expected = run(1);
        let mut actual = expected.clone();
        actual[0] = Event::RoundStart {
            round: 0,
            tasks: 7,
            snapshot_slots: 3,
        };
        match diverge_bisect(&expected, &actual) {
            ReplayOutcome::Diverged(d) => {
                assert_eq!(d.index, 0);
                assert_eq!(d.round, 0);
            }
            other => panic!("{other:?}"),
        }
    }
}
