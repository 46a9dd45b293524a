//! Harness spans: one around every call into a layer, kept in memory and
//! written out as JSON lines when the run ends.
//!
//! The tracer also takes every request's latency, traced or not, so both
//! kinds of run time requests through the same code; with tracing off the
//! only difference is that no span is stored.  Spans lie on the wall
//! clock, where spans of different threads can be compared; a request's
//! latency is taken on a CPU clock (see [`crate::clock`]).

use std::io::Write;
use std::time::{Duration, Instant};

use crate::clock::Clock;
use crate::stats;

/// Index of a span in the tracer; `NONE` when tracing is off.
type SpanId = u32;
const NONE: SpanId = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Class index of the request (or, in set-up, of the document).
    pub class: u32,
    /// Shared by all spans of one request; 0 for set-up spans.
    pub request: u64,
    pub parent: SpanId,
    /// Nanoseconds since the tracer was made.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end - self.start) as f64 / 1e3
    }
}

/// An open request: what `child` and `finish` need to file spans under it.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    pub class: u32,
    id: u64,
    span: SpanId,
    /// Reading of the tracer's latency clock.
    start: u64,
}

pub struct Tracer {
    /// Spans are stored only while this is set; the suite flips it per
    /// pass to compare traced against untraced passes in one process.
    pub on: bool,
    /// The clock request latencies are taken on.
    clock: Clock,
    origin: Instant,
    requests: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(clock: Clock) -> Self {
        Tracer {
            on: false,
            clock,
            origin: Instant::now(),
            requests: 0,
            spans: Vec::new(),
        }
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    fn push(
        &mut self,
        name: &'static str,
        class: u32,
        request: u64,
        parent: SpanId,
        (start, end): (Instant, Instant),
    ) -> SpanId {
        self.spans.push(Span {
            name,
            class,
            request,
            parent,
            start: self.nanos(start),
            end: self.nanos(end),
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Starts the clock of one request of `class`.
    pub fn request(&mut self, class: u32) -> Request {
        self.requests += 1;
        let span = if self.on {
            let start = Instant::now();
            self.push("request", class, self.requests, NONE, (start, start))
        } else {
            NONE
        };
        // The latency clock is read last here and first in `finish`.
        Request {
            class,
            id: self.requests,
            span,
            start: self.clock.now(),
        }
    }

    /// Stops the request's clock and returns its latency.
    pub fn finish(&mut self, request: Request) -> Duration {
        let end = self.clock.now();
        if request.span != NONE {
            self.spans[request.span as usize].end = self.nanos(Instant::now());
        }
        Duration::from_nanos(self.clock.between(request.start, end))
    }

    /// Runs `f` as the layer call `name` of `request`.
    pub fn child<T>(&mut self, request: &Request, name: &'static str, f: impl FnOnce() -> T) -> T {
        // No clock reads inside an untraced request.
        if request.span == NONE {
            return f();
        }
        let start = Instant::now();
        let value = f();
        self.child_at(request, name, start, Instant::now());
        value
    }

    /// Files a layer call of `request` that the caller timed itself — on a
    /// pool worker, say — between two instants of the shared monotonic
    /// clock.
    pub fn child_at(
        &mut self,
        request: &Request,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if request.span != NONE {
            self.push(name, request.class, request.id, request.span, (start, end));
        }
    }

    /// Runs `f` as a set-up span (no request) about document `class`.
    pub fn setup<T>(&mut self, name: &'static str, class: u32, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let value = f();
        self.record(name, class, start, Instant::now());
        value
    }

    /// Files a set-up span the caller timed itself.
    pub fn record(&mut self, name: &'static str, class: u32, start: Instant, end: Instant) {
        if self.on {
            self.push(name, class, 0, NONE, (start, end));
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in µs of the spans called `name` (of `class`, if given).
    pub fn micros(&self, name: &str, class: Option<u32>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && class.is_none_or(|c| s.class == c))
            .map(Span::micros)
            .collect()
    }

    /// Median over requests of the share of the request's time that no
    /// child span covers.
    pub fn self_share(&self) -> f64 {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if span.parent != NONE {
                children[span.parent as usize].push((span.start, span.end));
            }
        }
        let shares: Vec<f64> = self
            .spans
            .iter()
            .zip(&children)
            .filter(|(s, _)| s.name == "request" && s.end > s.start)
            .map(|(s, kids)| {
                stats::self_time((s.start, s.end), kids) as f64 / (s.end - s.start) as f64
            })
            .collect();
        stats::median(&shares)
    }

    /// One JSON object per span: name, start and end in ns, parent span
    /// index (-1 for none), request id, and the class name — or, for a
    /// set-up span (request 0), `doc<i>` after the document it is about.
    pub fn write_jsonl(
        &self,
        path: &std::path::Path,
        class_names: &[String],
    ) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                -1
            } else {
                i64::from(s.parent)
            };
            let class = match class_names.get(s.class as usize) {
                Some(name) if s.request != 0 => name.clone(),
                _ => format!("doc{}", s.class),
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"class\":\"{class}\"}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_requests_store_nothing_but_still_time() {
        let mut tracer = Tracer::new(Clock::Thread);
        let request = tracer.request(3);
        let value = tracer.child(&request, "dom.parse", || {
            (0..100_000u64).map(std::hint::black_box).sum::<u64>()
        });
        let latency = tracer.finish(request);
        assert_eq!(value, 4_999_950_000);
        assert!(latency > Duration::ZERO);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn traced_children_nest_under_their_request() {
        let mut tracer = Tracer::new(Clock::Thread);
        tracer.on = true;
        tracer.setup("dom.parse", 1, || ());
        let request = tracer.request(2);
        tracer.child(&request, "core.exec.linear", || std::hint::black_box(1 + 1));
        tracer.child(&request, "dom.serialize", || ());
        tracer.finish(request);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(
            (spans[0].name, spans[0].request, spans[0].parent),
            ("dom.parse", 0, NONE)
        );
        assert_eq!((spans[1].name, spans[1].class), ("request", 2));
        for child in &spans[2..] {
            assert_eq!((child.parent, child.request, child.class), (1, 1, 2));
            assert!(spans[1].start <= child.start && child.end <= spans[1].end);
        }
        assert_eq!(tracer.micros("dom.serialize", Some(2)).len(), 1);
        assert!(tracer.micros("dom.serialize", Some(0)).is_empty());
        let share = tracer.self_share();
        assert!((0.0..=1.0).contains(&share));
    }
}
