//! In-memory spans around the calls the harness makes into each layer.
//!
//! The harness is single-threaded between engine calls, so a stack of open
//! spans gives every span its parent. Spans are held in memory and written
//! as JSON Lines once, when the run ends. A disabled recorder (the untraced
//! run) still times, but stores nothing.

use std::io::{self, Write};
use std::time::Instant;

/// One closed (or still open) interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What was called (`setup`, `run_probe:par2`, `layer:tx.lifecycle_ns`, …).
    pub name: String,
    /// Microseconds since the recorder was created.
    pub start_us: f64,
    /// Microseconds since the recorder was created; `start_us` while open.
    pub end_us: f64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Identifier shared by all spans of one sample group / set-up pass.
    pub run: u64,
}

/// Handle returned by [`Spans::enter`]; pass it back to [`Spans::exit`].
#[derive(Clone, Copy, Debug)]
pub struct Open {
    idx: Option<usize>,
    started: Instant,
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    t0: Instant,
    run: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder that stores spans when `enabled` and only times otherwise.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            t0: Instant::now(),
            run: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Sets the run identifier stamped on spans opened from now on.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &str) -> Open {
        let started = Instant::now();
        let idx = self.enabled.then(|| {
            let at = started.duration_since(self.t0).as_secs_f64() * 1e6;
            self.spans.push(Span {
                name: name.to_owned(),
                start_us: at,
                end_us: at,
                parent: self.stack.last().copied(),
                run: self.run,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { idx, started }
    }

    /// Closes `open` and returns its duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `open` is not the innermost open span: spans must nest.
    pub fn exit(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(idx) = open.idx {
            assert_eq!(self.stack.pop(), Some(idx), "spans must nest");
            self.spans[idx].end_us = now.duration_since(self.t0).as_secs_f64() * 1e6;
        }
        now.duration_since(open.started).as_secs_f64()
    }

    /// Runs `f` inside a span and returns its result with the seconds taken.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.enter(name);
        let r = f();
        (r, self.exit(open))
    }

    /// The spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span: `id`, `name`, `start_us`, `end_us`,
    /// `parent` (an id or `null`) and `run`.
    ///
    /// # Errors
    ///
    /// Propagates the writer's error.
    pub fn write_jsonl(&self, mut w: impl Write) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"run\":{}}}",
                crate::json::string(&s.name),
                s.start_us,
                s.end_us,
                s.run
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_the_run_id() {
        let mut sp = Spans::new(true);
        sp.set_run(7);
        let outer = sp.enter("setup");
        let ((), inner_secs) = sp.time("run_sequential", || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        sp.set_run(8);
        let sib = sp.enter("validate");
        sp.exit(sib);
        let outer_secs = sp.exit(outer);
        assert!(outer_secs >= inner_secs);

        let s = sp.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].name.as_str(), s[0].parent, s[0].run),
            ("setup", None, 7)
        );
        assert_eq!((s[1].parent, s[1].run), (Some(0), 7));
        assert_eq!((s[2].parent, s[2].run), (Some(0), 8));
        assert!(s[0].start_us <= s[1].start_us && s[1].end_us <= s[2].start_us);
        assert!(s[2].end_us <= s[0].end_us);
    }

    #[test]
    fn writer_emits_one_parseable_object_per_span() {
        let mut sp = Spans::new(true);
        let a = sp.enter("layer:\"quoted\"");
        let b = sp.enter("child");
        sp.exit(b);
        sp.exit(a);
        let mut buf = Vec::new();
        sp.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"id\":0,\"name\":\"layer:\\\"quoted\\\"\",\"start_us\":"));
        assert!(lines[0].ends_with(",\"parent\":null,\"run\":0}"));
        assert!(lines[1].contains("\"parent\":0"));
    }

    #[test]
    fn disabled_recorder_times_but_stores_nothing() {
        let mut sp = Spans::new(false);
        let (v, secs) = sp.time("x", || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert!(sp.spans().is_empty());
        let mut buf = Vec::new();
        sp.write_jsonl(&mut buf).unwrap();
        assert!(buf.is_empty());
    }

    #[test]
    #[should_panic(expected = "spans must nest")]
    fn closing_out_of_order_is_a_bug() {
        let mut sp = Spans::new(true);
        let a = sp.enter("a");
        let _b = sp.enter("b");
        sp.exit(a);
    }
}
