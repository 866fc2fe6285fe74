//! JSON Lines serialization of the event journal.
//!
//! One event per line, each line one self-describing JSON object — the
//! interchange format between the instrumented flow and external tooling
//! (plotters, regression dashboards, the `BENCH_*.json` trajectory).

use std::io::{self, Write};

use crate::event::Event;
use crate::json::{JsonError, ToJson};

/// Streams events as JSON Lines into any [`Write`].
///
/// # Example
///
/// ```
/// use fixref_obs::{Event, JournalWriter, Phase};
///
/// let mut buf = Vec::new();
/// let mut w = JournalWriter::new(&mut buf);
/// w.write_event(&Event::PhaseConverged { phase: Phase::Msb, iterations: 2 }).unwrap();
/// let text = String::from_utf8(buf).unwrap();
/// assert!(text.ends_with("\n"));
/// assert_eq!(fixref_obs::parse_journal(&text).unwrap().len(), 1);
/// ```
#[derive(Debug)]
pub struct JournalWriter<W: Write> {
    sink: W,
    written: u64,
}

impl<W: Write> JournalWriter<W> {
    /// Wraps a sink.
    pub fn new(sink: W) -> Self {
        JournalWriter { sink, written: 0 }
    }

    /// Writes one event as one line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn write_event(&mut self, event: &Event) -> io::Result<()> {
        self.sink.write_all(event.to_json().as_bytes())?;
        self.sink.write_all(b"\n")?;
        self.written += 1;
        Ok(())
    }

    /// Writes a whole slice of events.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn write_all_events(&mut self, events: &[Event]) -> io::Result<()> {
        for e in events {
            self.write_event(e)?;
        }
        Ok(())
    }

    /// Number of events written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Unwraps the sink.
    pub fn into_inner(self) -> W {
        self.sink
    }
}

/// Renders a slice of events as one JSON Lines string.
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        e.write_json(&mut out);
        out.push('\n');
    }
    out
}

/// Parses a JSON Lines journal back into events. Blank lines are
/// skipped; any malformed line aborts with its error.
///
/// # Errors
///
/// Returns the first line's [`JsonError`], annotated with the 1-based
/// line number in the message.
pub fn parse_journal(text: &str) -> Result<Vec<Event>, JsonError> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let e = Event::from_json(line).map_err(|err| JsonError {
            message: format!("line {}: {}", i + 1, err.message),
            ..err
        })?;
        events.push(e);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;

    fn journal() -> Vec<Event> {
        vec![
            Event::IterationStarted {
                phase: Phase::Msb,
                iteration: 1,
            },
            Event::IntervalExploded {
                signal: "w".into(),
                iteration: 1,
            },
            Event::AutoRange {
                signal: "b".into(),
                lo: -0.355,
                hi: 0.189,
                iteration: 1,
            },
            Event::PhaseConverged {
                phase: Phase::Msb,
                iterations: 2,
            },
        ]
    }

    #[test]
    fn writer_counts_and_matches_to_jsonl() {
        let events = journal();
        let mut w = JournalWriter::new(Vec::new());
        w.write_all_events(&events).unwrap();
        assert_eq!(w.written(), events.len() as u64);
        let text = String::from_utf8(w.into_inner()).unwrap();
        assert_eq!(text, to_jsonl(&events));
        assert_eq!(text.lines().count(), events.len());
    }

    #[test]
    fn blank_lines_are_tolerated_malformed_lines_are_not() {
        let text = format!(
            "\n{}\n\n{}\n",
            journal()[0].to_json(),
            journal()[3].to_json()
        );
        assert_eq!(parse_journal(&text).unwrap().len(), 2);
        let bad = format!("{}\nnot json\n", journal()[0].to_json());
        let err = parse_journal(&bad).unwrap_err();
        assert!(err.message.contains("line 2"), "{err}");
    }
}
