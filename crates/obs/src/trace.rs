//! Per-query tracing: sampled spans for compile → lower → per-opcode
//! execution.
//!
//! The design constraint is that five different evaluation strategies —
//! memoized, eager, linear bitset, parallel, singleton-success — must emit
//! *the same span sequence* for the same plan, and the disabled path must
//! cost a single branch.  Both fall out of the same trick: strategies do
//! not emit spans at all.  They accumulate into an [`OpTrace`] — one
//! atomic cell per plan opcode — and the engine converts the cells into
//! one [`TraceSpan`] per opcode *in plan order* after the run.  Identical
//! span sequences across strategies hold by construction, and when no
//! trace is attached the hook is `Option::None`, checked once per
//! recording site.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Accumulation cells for one opcode of a plan.
#[derive(Debug, Default)]
struct OpCell {
    /// Times the opcode was entered.
    calls: AtomicU64,
    /// Total nanoseconds spent in the opcode (including callees).
    nanos: AtomicU64,
    /// Total candidate/context nodes flowing *into* the opcode.
    input: AtomicU64,
    /// Total result nodes flowing *out of* the opcode.
    output: AtomicU64,
}

/// One atomic accumulation cell per opcode of a plan.  `Sync`, so the
/// parallel strategy's workers record into the same trace concurrently.
#[derive(Debug)]
pub struct OpTrace {
    cells: Box<[OpCell]>,
}

impl OpTrace {
    /// A trace with one cell for each of the plan's `ops` opcodes.
    pub fn new(ops: usize) -> Self {
        OpTrace {
            cells: (0..ops).map(|_| OpCell::default()).collect(),
        }
    }

    /// Number of opcode cells.
    pub fn ops(&self) -> usize {
        self.cells.len()
    }

    /// Records one visit of opcode `op`: `input` candidate nodes in,
    /// `output` result nodes out, `nanos` spent.  Out-of-range ops are
    /// ignored rather than panicking — a trace sized for a different plan
    /// must not take down an evaluation.
    #[inline]
    pub fn record(&self, op: u32, input: u64, output: u64, nanos: u64) {
        if let Some(cell) = self.cells.get(op as usize) {
            cell.calls.fetch_add(1, Ordering::Relaxed);
            cell.nanos.fetch_add(nanos, Ordering::Relaxed);
            cell.input.fetch_add(input, Ordering::Relaxed);
            cell.output.fetch_add(output, Ordering::Relaxed);
        }
    }

    /// The accumulated `(calls, input, output, nanos)` of opcode `op`.
    pub fn cell(&self, op: u32) -> (u64, u64, u64, u64) {
        match self.cells.get(op as usize) {
            Some(c) => (
                c.calls.load(Ordering::Relaxed),
                c.input.load(Ordering::Relaxed),
                c.output.load(Ordering::Relaxed),
                c.nanos.load(Ordering::Relaxed),
            ),
            None => (0, 0, 0, 0),
        }
    }
}

/// What a [`TraceSpan`] covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// Parsing + analysis of the query source.
    Compile,
    /// Lowering the AST to the flat plan IR.
    Lower,
    /// One plan opcode's accumulated execution.
    Op,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Compile => "compile",
            SpanKind::Lower => "lower",
            SpanKind::Op => "op",
        }
    }
}

/// One span of a [`QueryTrace`].
#[derive(Clone, Debug)]
pub struct TraceSpan {
    pub kind: SpanKind,
    /// Human-readable label: the phase name for compile/lower spans, the
    /// rendered opcode for op spans.
    pub label: String,
    /// Plan opcode index for [`SpanKind::Op`] spans.
    pub op: Option<u32>,
    /// The query-language fragment the opcode (or query) belongs to.
    pub fragment: &'static str,
    /// Times the opcode was entered (1 for compile/lower spans).
    pub calls: u64,
    /// Candidate/context nodes flowing in, summed over calls.
    pub candidates_in: u64,
    /// Result nodes flowing out, summed over calls.
    pub candidates_out: u64,
    /// The route the plan chose for the opcode before any document was
    /// seen — per step `set`, `siblings`, `folded` or `per-context` for a
    /// path, `sat` / `in place` / `pick` for a predicate answered wholesale,
    /// `-` otherwise — to read beside the measured candidate flow.
    pub route: Cow<'static, str>,
    /// Nanoseconds spent, summed over calls.
    pub nanos: u64,
}

impl TraceSpan {
    /// A compile- or lower-phase span.
    pub fn phase(
        kind: SpanKind,
        label: impl Into<String>,
        fragment: &'static str,
        nanos: u64,
    ) -> Self {
        TraceSpan {
            kind,
            label: label.into(),
            op: None,
            fragment,
            calls: 1,
            candidates_in: 0,
            candidates_out: 0,
            route: Cow::Borrowed("-"),
            nanos,
        }
    }
}

/// A sampled trace of one query execution: compile and lower spans, then
/// one span per plan opcode in plan order.
#[derive(Clone, Debug)]
pub struct QueryTrace {
    /// The query source text.
    pub query: String,
    /// The strategy that executed it (e.g. `"ContextValueTable"`).
    pub strategy: String,
    /// Spans in order: compile, lower, then one per opcode.
    pub spans: Vec<TraceSpan>,
    /// End-to-end execution nanoseconds (excluding compile/lower).
    pub total_nanos: u64,
}

impl QueryTrace {
    /// Only the per-opcode spans, in plan order.
    pub fn op_spans(&self) -> impl Iterator<Item = &TraceSpan> {
        self.spans.iter().filter(|s| s.kind == SpanKind::Op)
    }

    /// Renders the flamegraph-shaped per-opcode profile table: one row per
    /// span with calls, candidate flow, planned route, time, and share of
    /// total.
    pub fn profile_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "query: {}", self.query);
        let _ = writeln!(
            out,
            "strategy: {}  total: {:.1?}",
            self.strategy,
            Duration::from_nanos(self.total_nanos)
        );
        let _ = writeln!(
            out,
            "{:<4} {:<8} {:<34} {:<18} {:>7} {:>7} {:>7} {:<20} {:>11} {:>6}",
            "op", "kind", "label", "fragment", "calls", "in", "out", "route", "time", "share"
        );
        let total = self.total_nanos.max(1);
        for span in &self.spans {
            let share = if span.kind == SpanKind::Op {
                format!("{:.1}%", span.nanos as f64 / total as f64 * 100.0)
            } else {
                "-".to_string()
            };
            let op = span.op.map(|o| o.to_string()).unwrap_or_else(|| "-".into());
            let mut label = span.label.clone();
            if label.len() > 34 {
                label.truncate(31);
                label.push_str("...");
            }
            let _ = writeln!(
                out,
                "{:<4} {:<8} {:<34} {:<18} {:>7} {:>7} {:>7} {:<20} {:>11} {:>6}",
                op,
                span.kind.name(),
                label,
                span.fragment,
                span.calls,
                span.candidates_in,
                span.candidates_out,
                span.route,
                format!("{:.1?}", Duration::from_nanos(span.nanos)),
                share,
            );
        }
        out
    }

    /// The trace as a JSON object (query, strategy, spans array).
    pub fn to_json(&self) -> String {
        use crate::export::json_escape;
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"query\": \"{}\", \"strategy\": \"{}\", \"total_nanos\": {}, \"spans\": [",
            json_escape(&self.query),
            json_escape(&self.strategy),
            self.total_nanos
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"kind\": \"{}\", \"label\": \"{}\", \"op\": {}, \"fragment\": \"{}\", \
                 \"calls\": {}, \"in\": {}, \"out\": {}, \"route\": \"{}\", \"nanos\": {}}}",
                s.kind.name(),
                json_escape(&s.label),
                s.op.map(|o| o.to_string()).unwrap_or_else(|| "null".into()),
                json_escape(s.fragment),
                s.calls,
                s.candidates_in,
                s.candidates_out,
                json_escape(&s.route),
                s.nanos,
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_trace_accumulates_per_cell() {
        let t = OpTrace::new(3);
        t.record(0, 10, 5, 100);
        t.record(0, 10, 5, 100);
        t.record(2, 1, 1, 7);
        assert_eq!(t.cell(0), (2, 20, 10, 200));
        assert_eq!(t.cell(1), (0, 0, 0, 0));
        assert_eq!(t.cell(2), (1, 1, 1, 7));
        // Out-of-range records are dropped, not panics.
        t.record(99, 1, 1, 1);
        assert_eq!(t.cell(99), (0, 0, 0, 0));
    }

    #[test]
    fn op_trace_is_shareable_across_threads() {
        let t = OpTrace::new(1);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        t.record(0, 1, 1, 1);
                    }
                });
            }
        });
        assert_eq!(t.cell(0), (4000, 4000, 4000, 4000));
    }

    fn demo_trace() -> QueryTrace {
        QueryTrace {
            query: "//a/b".into(),
            strategy: "ContextValueTable".into(),
            spans: vec![
                TraceSpan::phase(SpanKind::Compile, "parse+analyze", "Core XPath", 1000),
                TraceSpan::phase(SpanKind::Lower, "lower to PlanIr", "Core XPath", 500),
                TraceSpan {
                    kind: SpanKind::Op,
                    label: "path //a/b".into(),
                    op: Some(0),
                    fragment: "Core XPath",
                    calls: 1,
                    candidates_in: 1,
                    candidates_out: 3,
                    route: "set,set".into(),
                    nanos: 4000,
                },
            ],
            total_nanos: 4000,
        }
    }

    #[test]
    fn profile_table_lists_every_span() {
        let table = demo_trace().profile_table();
        assert!(table.contains("query: //a/b"), "table:\n{table}");
        assert!(table.contains("compile"), "table:\n{table}");
        assert!(table.contains("lower"), "table:\n{table}");
        assert!(table.contains("path //a/b"), "table:\n{table}");
        assert!(table.contains("set,set"), "table:\n{table}");
        assert!(table.contains("100.0%"), "table:\n{table}");
    }

    #[test]
    fn trace_json_is_structured() {
        let json = demo_trace().to_json();
        assert!(json.contains("\"query\": \"//a/b\""), "json: {json}");
        assert!(json.contains("\"kind\": \"op\""), "json: {json}");
        assert!(json.contains("\"op\": 0"), "json: {json}");
        assert!(json.contains("\"out\": 3"), "json: {json}");
    }
}
