//! JSONL export and import: one canonical JSON object per event, one
//! event per line.
//!
//! The encoding is hand-rolled (no external deps) and *canonical*: field
//! order is fixed per event type and every payload is an integer or a
//! string, so byte-identical traces ⇔ identical event streams. The trace
//! hash is computed over exactly these bytes (see [`crate::hash`]).
//! [`from_jsonl`] inverts [`to_jsonl`], which is what lets the
//! `alter-cli lint` sanitizer replay a recorded trace offline.

use crate::event::{ConflictKind, Event};
use alter_heap::{AccessSet, ObjId};
use std::fmt::Write as _;

/// Renders an access set in canonical form: `obj:lo-hi` entries (half-open
/// word ranges) joined with `,`, ascending by object then range. The empty
/// set renders as the empty string. [`parse_set`] inverts this.
pub fn render_set(set: &AccessSet) -> String {
    let mut s = String::new();
    for (obj, lo, hi) in set.iter_sorted() {
        if !s.is_empty() {
            s.push(',');
        }
        let _ = write!(s, "{}:{lo}-{hi}", obj.index());
    }
    s
}

/// Parses the canonical `obj:lo-hi,…` form back into `(obj, lo, hi)`
/// triples (see [`render_set`]).
pub fn parse_set(s: &str) -> Result<Vec<(ObjId, u32, u32)>, String> {
    let mut out = Vec::new();
    if s.is_empty() {
        return Ok(out);
    }
    for part in s.split(',') {
        let (obj, range) = part
            .split_once(':')
            .ok_or_else(|| format!("bad set entry `{part}`: missing `:`"))?;
        let (lo, hi) = range
            .split_once('-')
            .ok_or_else(|| format!("bad set entry `{part}`: missing `-`"))?;
        let obj: u32 = obj.parse().map_err(|_| format!("bad object in `{part}`"))?;
        let lo: u32 = lo.parse().map_err(|_| format!("bad lo in `{part}`"))?;
        let hi: u32 = hi.parse().map_err(|_| format!("bad hi in `{part}`"))?;
        if lo >= hi {
            return Err(format!("empty range in `{part}`"));
        }
        out.push((ObjId::from_index(obj), lo, hi));
    }
    Ok(out)
}

/// Escapes `s` as JSON string contents (without the surrounding quotes).
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Renders one event as a single-line canonical JSON object.
pub fn event_json(ev: &Event) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(s, "{{\"ev\":\"{}\"", ev.kind_str());
    match ev {
        Event::RoundStart {
            round,
            tasks,
            snapshot_slots,
        } => {
            let _ = write!(
                s,
                ",\"round\":{round},\"tasks\":{tasks},\"snapshot_slots\":{snapshot_slots}"
            );
        }
        Event::TaskStart { seq, worker, iters } => {
            let _ = write!(s, ",\"seq\":{seq},\"worker\":{worker},\"iters\":{iters}");
        }
        Event::TaskSets { seq, reads, writes } => {
            let _ = write!(s, ",\"seq\":{seq},\"reads\":\"");
            escape_into(&mut s, reads);
            s.push_str("\",\"writes\":\"");
            escape_into(&mut s, writes);
            s.push('"');
        }
        Event::ValidateOk {
            seq,
            validate_words,
        } => {
            let _ = write!(s, ",\"seq\":{seq},\"validate_words\":{validate_words}");
        }
        Event::ValidateConflict {
            seq,
            kind,
            obj,
            word,
            winner_seq,
        } => {
            let _ = write!(
                s,
                ",\"seq\":{seq},\"kind\":\"{}\",\"obj\":{},\"word\":{word},\"winner_seq\":{winner_seq}",
                kind.as_str(),
                obj.index()
            );
        }
        Event::Commit {
            seq,
            read_words,
            write_words,
            allocs,
            frees,
        } => {
            let _ = write!(
                s,
                ",\"seq\":{seq},\"read_words\":{read_words},\"write_words\":{write_words},\"allocs\":{allocs},\"frees\":{frees}"
            );
        }
        Event::Squash { seq, by_seq } => {
            let _ = write!(s, ",\"seq\":{seq},\"by_seq\":{by_seq}");
        }
        Event::ReductionMerge { seq, var, op } => {
            s.push_str(",\"seq\":");
            let _ = write!(s, "{seq},\"var\":{var},\"op\":\"");
            escape_into(&mut s, op);
            s.push('"');
        }
        Event::Oom { words, budget } => {
            let _ = write!(s, ",\"words\":{words},\"budget\":{budget}");
        }
        Event::Crash { message } => {
            s.push_str(",\"message\":\"");
            escape_into(&mut s, message);
            s.push('"');
        }
        Event::WorkBudgetExceeded { spent, budget } => {
            let _ = write!(s, ",\"spent\":{spent},\"budget\":{budget}");
        }
        Event::ProbeStart { annotation } => {
            s.push_str(",\"annotation\":\"");
            escape_into(&mut s, annotation);
            s.push('"');
        }
        Event::ProbeOutcome {
            annotation,
            outcome,
        } => {
            s.push_str(",\"annotation\":\"");
            escape_into(&mut s, annotation);
            s.push_str("\",\"outcome\":\"");
            escape_into(&mut s, outcome);
            s.push('"');
        }
        Event::RunEnd {
            rounds,
            attempts,
            committed,
        } => {
            let _ = write!(
                s,
                ",\"rounds\":{rounds},\"attempts\":{attempts},\"committed\":{committed}"
            );
        }
    }
    s.push('}');
    s
}

/// Renders an event stream as JSONL (one event per line, trailing newline
/// after each line).
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for ev in events {
        out.push_str(&event_json(ev));
        out.push('\n');
    }
    out
}

/// A [`from_jsonl`] failure: the offending 1-based line and a message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseTraceError {}

/// One parsed JSON scalar: canonical traces only contain unsigned integers
/// and strings.
pub(crate) enum Val {
    Int(u64),
    Str(String),
}

/// Parses one canonical single-line JSON object into (key, value) pairs.
pub(crate) fn parse_object(line: &str) -> Result<Vec<(String, Val)>, String> {
    let mut chars = line.chars().peekable();
    let mut fields = Vec::new();
    if chars.next() != Some('{') {
        return Err("expected `{`".into());
    }
    loop {
        match chars.peek() {
            Some('}') => {
                chars.next();
                break;
            }
            Some('"') => {}
            _ => return Err("expected `\"` or `}`".into()),
        }
        let key = parse_string(&mut chars)?;
        if chars.next() != Some(':') {
            return Err(format!("expected `:` after key `{key}`"));
        }
        let val = match chars.peek() {
            Some('"') => Val::Str(parse_string(&mut chars)?),
            Some(c) if c.is_ascii_digit() => {
                let mut n: u64 = 0;
                while let Some(c) = chars.peek() {
                    match c.to_digit(10) {
                        Some(d) => {
                            n = n
                                .checked_mul(10)
                                .and_then(|n| n.checked_add(d as u64))
                                .ok_or_else(|| format!("integer overflow in `{key}`"))?;
                            chars.next();
                        }
                        None => break,
                    }
                }
                Val::Int(n)
            }
            _ => return Err(format!("unsupported value for `{key}`")),
        };
        fields.push((key, val));
        match chars.next() {
            Some(',') => {}
            Some('}') => break,
            _ => return Err("expected `,` or `}`".into()),
        }
    }
    if chars.next().is_some() {
        return Err("trailing characters after `}`".into());
    }
    Ok(fields)
}

/// Parses a JSON string literal (cursor on the opening quote), undoing
/// [`escape_into`].
fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected `\"`".into());
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            None => return Err("unterminated string".into()),
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let d = chars
                            .next()
                            .and_then(|c| c.to_digit(16))
                            .ok_or("bad \\u escape")?;
                        code = code * 16 + d;
                    }
                    out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                }
                _ => return Err("unknown escape".into()),
            },
            Some(c) => out.push(c),
        }
    }
}

pub(crate) struct Fields {
    pub(crate) fields: Vec<(String, Val)>,
}

impl Fields {
    pub(crate) fn int(&self, key: &str) -> Result<u64, String> {
        match self.fields.iter().find(|(k, _)| k == key) {
            Some((_, Val::Int(n))) => Ok(*n),
            Some(_) => Err(format!("field `{key}` is not an integer")),
            None => Err(format!("missing field `{key}`")),
        }
    }
    pub(crate) fn int32(&self, key: &str) -> Result<u32, String> {
        u32::try_from(self.int(key)?).map_err(|_| format!("field `{key}` exceeds u32"))
    }
    pub(crate) fn string(&self, key: &str) -> Result<String, String> {
        match self.fields.iter().find(|(k, _)| k == key) {
            Some((_, Val::Str(s))) => Ok(s.clone()),
            Some(_) => Err(format!("field `{key}` is not a string")),
            None => Err(format!("missing field `{key}`")),
        }
    }
}

/// Parses a canonical JSONL trace back into events — the inverse of
/// [`to_jsonl`]. Unknown event kinds and malformed lines are errors (the
/// sanitizer must not silently skip evidence); blank lines are ignored.
pub fn from_jsonl(text: &str) -> Result<Vec<Event>, ParseTraceError> {
    let mut events = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let at = |msg: String| ParseTraceError { line: idx + 1, msg };
        let f = Fields {
            fields: parse_object(line).map_err(at)?,
        };
        let ev = parse_event_fields(&f).map_err(at)?;
        events.push(ev);
    }
    Ok(events)
}

pub(crate) fn parse_event_fields(f: &Fields) -> Result<Event, String> {
    let kind = f.string("ev")?;
    Ok(match kind.as_str() {
        "round_start" => Event::RoundStart {
            round: f.int("round")?,
            tasks: f.int32("tasks")?,
            snapshot_slots: f.int("snapshot_slots")?,
        },
        "task_start" => Event::TaskStart {
            seq: f.int("seq")?,
            worker: f.int32("worker")?,
            iters: f.int32("iters")?,
        },
        "task_sets" => Event::TaskSets {
            seq: f.int("seq")?,
            reads: f.string("reads")?,
            writes: f.string("writes")?,
        },
        "validate_ok" => Event::ValidateOk {
            seq: f.int("seq")?,
            validate_words: f.int("validate_words")?,
        },
        "validate_conflict" => Event::ValidateConflict {
            seq: f.int("seq")?,
            kind: match f.string("kind")?.as_str() {
                "RAW" => ConflictKind::Raw,
                "WAW" => ConflictKind::Waw,
                other => return Err(format!("unknown conflict kind `{other}`")),
            },
            obj: ObjId::from_index(f.int32("obj")?),
            word: f.int32("word")?,
            winner_seq: f.int("winner_seq")?,
        },
        "commit" => Event::Commit {
            seq: f.int("seq")?,
            read_words: f.int("read_words")?,
            write_words: f.int("write_words")?,
            allocs: f.int32("allocs")?,
            frees: f.int32("frees")?,
        },
        "squash" => Event::Squash {
            seq: f.int("seq")?,
            by_seq: f.int("by_seq")?,
        },
        "reduction_merge" => Event::ReductionMerge {
            seq: f.int("seq")?,
            var: f.int32("var")?,
            op: match f.string("op")?.as_str() {
                "+" => "+",
                "*" => "*",
                "max" => "max",
                "min" => "min",
                "and" => "and",
                "or" => "or",
                other => return Err(format!("unknown reduction op `{other}`")),
            },
        },
        "oom" => Event::Oom {
            words: f.int("words")?,
            budget: f.int("budget")?,
        },
        "crash" => Event::Crash {
            message: f.string("message")?,
        },
        "work_budget_exceeded" => Event::WorkBudgetExceeded {
            spent: f.int("spent")?,
            budget: f.int("budget")?,
        },
        "probe_start" => Event::ProbeStart {
            annotation: f.string("annotation")?,
        },
        "probe_outcome" => Event::ProbeOutcome {
            annotation: f.string("annotation")?,
            outcome: f.string("outcome")?,
        },
        "run_end" => Event::RunEnd {
            rounds: f.int("rounds")?,
            attempts: f.int("attempts")?,
            committed: f.int("committed")?,
        },
        other => return Err(format!("unknown event kind `{other}`")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ConflictKind;
    use alter_heap::ObjId;

    #[test]
    fn conflict_event_round_trips_all_fields() {
        let ev = Event::ValidateConflict {
            seq: 7,
            kind: ConflictKind::Waw,
            obj: ObjId::from_index(42),
            word: 3,
            winner_seq: 5,
        };
        assert_eq!(
            event_json(&ev),
            "{\"ev\":\"validate_conflict\",\"seq\":7,\"kind\":\"WAW\",\"obj\":42,\"word\":3,\"winner_seq\":5}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let ev = Event::Crash {
            message: "line1\n\"quoted\"\\x\u{1}".to_owned(),
        };
        let json = event_json(&ev);
        assert!(
            json.contains("line1\\n\\\"quoted\\\"\\\\x\\u0001"),
            "{json}"
        );
    }

    #[test]
    fn from_jsonl_round_trips_every_variant() {
        let evs = vec![
            Event::RoundStart {
                round: 0,
                tasks: 2,
                snapshot_slots: 5,
            },
            Event::TaskStart {
                seq: 0,
                worker: 1,
                iters: 16,
            },
            Event::TaskSets {
                seq: 0,
                reads: "3:0-4,7:1-2".into(),
                writes: String::new(),
            },
            Event::ValidateOk {
                seq: 0,
                validate_words: 9,
            },
            Event::ValidateConflict {
                seq: 1,
                kind: ConflictKind::Raw,
                obj: ObjId::from_index(3),
                word: 2,
                winner_seq: 0,
            },
            Event::Commit {
                seq: 0,
                read_words: 4,
                write_words: 2,
                allocs: 1,
                frees: 0,
            },
            Event::Squash { seq: 2, by_seq: 1 },
            Event::ReductionMerge {
                seq: 0,
                var: 0,
                op: "max",
            },
            Event::Oom {
                words: 10,
                budget: 5,
            },
            Event::Crash {
                message: "boom\n\"quoted\"".into(),
            },
            Event::WorkBudgetExceeded {
                spent: 11,
                budget: 10,
            },
            Event::ProbeStart {
                annotation: "[StaleReads]".into(),
            },
            Event::ProbeOutcome {
                annotation: "[StaleReads]".into(),
                outcome: "success".into(),
            },
            Event::RunEnd {
                rounds: 1,
                attempts: 3,
                committed: 2,
            },
        ];
        let parsed = from_jsonl(&to_jsonl(&evs)).expect("canonical trace parses");
        assert_eq!(parsed, evs);
    }

    #[test]
    fn from_jsonl_rejects_garbage() {
        assert!(from_jsonl("not json\n").is_err());
        assert!(from_jsonl("{\"ev\":\"no_such_event\"}\n").is_err());
        let err = from_jsonl("{\"ev\":\"run_end\",\"rounds\":1}\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.msg.contains("attempts"), "{err}");
    }

    #[test]
    fn set_rendering_round_trips() {
        let mut set = AccessSet::new();
        set.insert(ObjId::from_index(7), 1, 3);
        set.insert(ObjId::from_index(2), 0, 16);
        let s = render_set(&set);
        assert_eq!(s, "2:0-16,7:1-3");
        assert_eq!(
            parse_set(&s).unwrap(),
            vec![(ObjId::from_index(2), 0, 16), (ObjId::from_index(7), 1, 3)]
        );
        assert_eq!(render_set(&AccessSet::new()), "");
        assert_eq!(parse_set("").unwrap(), vec![]);
        assert!(parse_set("7:3-3").is_err(), "empty range rejected");
        assert!(parse_set("7;3-4").is_err());
    }

    #[test]
    fn jsonl_is_one_line_per_event() {
        let evs = vec![
            Event::RoundStart {
                round: 0,
                tasks: 2,
                snapshot_slots: 5,
            },
            Event::RunEnd {
                rounds: 1,
                attempts: 2,
                committed: 2,
            },
        ];
        let jsonl = to_jsonl(&evs);
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.ends_with('\n'));
        for line in jsonl.lines() {
            assert!(line.starts_with("{\"ev\":\""));
            assert!(line.ends_with('}'));
        }
    }
}
