//! In-memory spans recorded around calls into the analysis layers.
//!
//! The benchmark measures the program from outside: each span wraps
//! one call to a public function of one layer. Spans are kept in
//! memory while the run lasts and written out as JSONL at the end, so
//! recording one costs two clock reads and a push.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One closed span.
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    job: Option<usize>,
}

/// A span recorder; when disabled every call is a no-op.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans entered from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span; its parent is the innermost span still open.
    pub fn enter(&mut self, name: &'static str, job: Option<usize>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let idx = self.spans.len();
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Closes a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, id: SpanId) {
        if let Some(idx) = id.0 {
            self.spans[idx].end = self.origin.elapsed();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
        }
    }

    /// Number of spans currently open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes every span opened above `depth`, after a caught panic
    /// left them open.
    pub fn unwind_to(&mut self, depth: usize) {
        let now = self.origin.elapsed();
        while self.open.len() > depth {
            let idx = self.open.pop().expect("non-empty");
            self.spans[idx].end = now;
        }
    }

    /// Self time per span name: each span's duration minus the part of
    /// it that its child spans cover, summed over spans of one name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(Duration::ZERO) += (s.end - s.start).saturating_sub(c);
        }
        out
    }

    /// The spans as JSON lines, times in microseconds from the start
    /// of the run.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"job\":{}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                opt(s.parent),
                opt(s.job)
            );
        }
        out
    }
}
