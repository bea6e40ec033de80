//! Spans of a traced run: name, start, end, parent and request id, kept in
//! memory and written out once, at the end.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a span in its [`Trace`].
pub type SpanId = usize;

/// One timed interval at a layer boundary.
pub struct Span {
    /// The layer (or layer boundary) the interval covers.
    pub name: &'static str,
    /// Start, relative to the trace origin.
    pub start: Duration,
    /// End, relative to the trace origin.
    pub end: Duration,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The request the span belongs to.
    pub request: u64,
}

/// An append-only span store.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose times count from `origin`.
    pub fn new(origin: Instant) -> Trace {
        Trace { origin, spans: Vec::new() }
    }

    /// Opens a span now; [`Trace::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = self.origin.elapsed();
        self.spans.push(Span { name, start: now, end: now, parent, request });
        self.spans.len() - 1
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: SpanId) {
        let now = self.origin.elapsed();
        if let Some(span) = self.spans.get_mut(id) {
            span.end = now;
        }
    }

    /// Records a span measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start, end) = (start - self.origin, end - self.origin);
        self.spans.push(Span { name, start, end, parent, request });
        self.spans.len() - 1
    }

    /// Every span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Drops every span recorded after the first `len`.
    pub fn truncate(&mut self, len: usize) {
        self.spans.truncate(len);
    }

    /// Duration of span `id`.
    pub fn duration(&self, id: SpanId) -> Duration {
        self.spans.get(id).map_or(Duration::ZERO, |s| s.end.saturating_sub(s.start))
    }

    /// Each span's self time: its duration minus the time its children
    /// cover (children of one span never overlap).
    pub fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = (0..self.spans.len()).map(|id| self.duration(id)).collect();
        for (id, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(self.duration(id));
            }
        }
        own
    }

    /// Writes one JSON object per span, in recording order.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                span.name,
                span.start.as_nanos(),
                span.end.as_nanos(),
                span.request
            );
        }
        fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let origin = Instant::now();
        let at = |ms: u64| origin + Duration::from_millis(ms);
        let mut trace = Trace::new(origin);
        let root = trace.record("root", None, 1, at(0), at(10));
        trace.record("a", Some(root), 1, at(1), at(4));
        trace.record("b", Some(root), 1, at(5), at(7));
        let own = trace.self_times();
        assert_eq!(
            own,
            vec![Duration::from_millis(5), Duration::from_millis(3), Duration::from_millis(2)]
        );
    }
}
