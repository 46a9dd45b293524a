//! The column route of the table machine ([`PredRoute::Column`]).
//!
//! A column predicate is evaluated once for a whole slice of candidates,
//! bottom-up, one *column* per opcode: the opcode's value at every candidate,
//! in candidate order (the bottom-up algorithm of Gottlob, Koch and Pichler,
//! "Efficient Algorithms for Processing XPath Queries", VLDB 2002).  A leaf
//! path is one flat vector holding every candidate's image, strings borrow
//! from the document wherever it holds them as one string, and strings the
//! functions make are appended to one buffer per column — so the number of
//! allocations depends on the predicate, not on the number of candidates,
//! and nothing is entered in the context-value table.  The predicate is
//! position-free, so the candidates' order and grouping are left as they
//! are.

use super::{is_in_document_order, IrEvaluator};
use crate::context::Context;
use crate::error::EvalError;
use crate::functions::{
    normalize_space, number_function, string_length, string_part, string_test, substring, sum,
    translate,
};
use crate::ir::{OpId, OpKind, PredRoute};
use crate::value::{
    boolean_to_str, compare_nodes_scalar, compare_scalars, flip, parse_xpath_number, push_number,
    Scalar,
};
use std::borrow::Cow;
use xpeval_dom::{AxisSource, Document, NodeId};

/// One value per candidate of a column predicate.
pub(super) enum Column<'d> {
    Booleans(Vec<bool>),
    Numbers(Vec<f64>),
    Strings(Strings<'d>),
    /// The node set a leaf path selects from each candidate.
    Nodes(Segments),
}

impl<'d> Column<'d> {
    /// `boolean()` of every value (XPath 1.0 §4.3).
    pub(super) fn booleans(self) -> Vec<bool> {
        match self {
            Column::Booleans(b) => b,
            Column::Numbers(n) => n.iter().map(|&n| Scalar::Number(n).to_boolean()).collect(),
            Column::Strings(s) => (0..s.len())
                .map(|i| Scalar::Str(s.get(i)).to_boolean())
                .collect(),
            Column::Nodes(nodes) => nodes.iter().map(|set| !set.is_empty()).collect(),
        }
    }

    /// `number()` of every value (XPath 1.0 §4.4); a node set reads its
    /// first node.
    fn numbers(self, doc: &Document) -> Vec<f64> {
        match self {
            Column::Booleans(b) => b.iter().map(|&b| Scalar::Boolean(b).to_number()).collect(),
            Column::Numbers(n) => n,
            Column::Strings(s) => (0..s.len()).map(|i| parse_xpath_number(s.get(i))).collect(),
            Column::Nodes(nodes) => nodes
                .iter()
                .map(|set| match set.first() {
                    Some(&n) => parse_xpath_number(&doc.string_value_cow(n)),
                    None => f64::NAN,
                })
                .collect(),
        }
    }

    /// `string()` of every value (XPath 1.0 §4.2); a node set reads its
    /// first node.
    fn strings(self, doc: &'d Document) -> Strings<'d> {
        let mut out = Strings::default();
        match self {
            Column::Strings(s) => return s,
            Column::Booleans(b) => b.iter().for_each(|&b| out.push_borrowed(boolean_to_str(b))),
            Column::Numbers(n) => n.iter().for_each(|&n| out.push_with(|s| push_number(n, s))),
            Column::Nodes(nodes) => {
                for set in nodes.iter() {
                    match set.first() {
                        Some(&n) => out.push_node(doc, n),
                        None => out.push_borrowed(""),
                    }
                }
            }
        }
        out
    }

    /// The node sets of a path's column.
    fn nodes(self) -> Segments {
        match self {
            Column::Nodes(nodes) => nodes,
            _ => unreachable!("lowering passes only paths where node sets are expected"),
        }
    }

    /// The value at candidate `i` of a column that is not a path's.
    fn scalar(&self, i: usize) -> Scalar<'_> {
        match self {
            Column::Booleans(b) => Scalar::Boolean(b[i]),
            Column::Numbers(n) => Scalar::Number(n[i]),
            Column::Strings(s) => Scalar::Str(s.get(i)),
            Column::Nodes(_) => unreachable!("lowering admits at most one node-set operand"),
        }
    }
}

/// A node set per candidate, all in one vector: candidate `i`'s nodes, in
/// document order and without duplicates, end at `ends[i]`.
#[derive(Default)]
pub(super) struct Segments {
    nodes: Vec<NodeId>,
    ends: Vec<usize>,
}

impl Segments {
    /// Each candidate as its own one-node set: a path's start, and the node
    /// the zero-argument functions read.
    fn singletons(candidates: &[NodeId]) -> Self {
        Segments {
            nodes: candidates.to_vec(),
            ends: (1..=candidates.len()).collect(),
        }
    }

    fn iter(&self) -> impl Iterator<Item = &[NodeId]> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let set = &self.nodes[start..end];
            start = end;
            set
        })
    }

    /// Keeps the nodes for which `keep` holds, each set's nodes in place.
    fn try_retain(
        &mut self,
        mut keep: impl FnMut(NodeId) -> Result<bool, EvalError>,
    ) -> Result<(), EvalError> {
        let (mut read, mut write) = (0, 0);
        for end in &mut self.ends {
            while read < *end {
                let node = self.nodes[read];
                if keep(node)? {
                    self.nodes[write] = node;
                    write += 1;
                }
                read += 1;
            }
            *end = write;
        }
        self.nodes.truncate(write);
        Ok(())
    }
}

/// A string per candidate: borrowed from the document (or a constant), or a
/// range of the column's own buffer.
#[derive(Default)]
pub(super) struct Strings<'d> {
    spans: Vec<Span<'d>>,
    buf: String,
}

#[derive(Clone, Copy)]
enum Span<'d> {
    Borrowed(&'d str),
    Buffered(usize, usize),
}

impl<'d> Strings<'d> {
    /// `n` copies of one string.
    fn repeat(s: &str, n: usize) -> Self {
        Strings {
            spans: vec![Span::Buffered(0, s.len()); n],
            buf: s.to_string(),
        }
    }

    fn len(&self) -> usize {
        self.spans.len()
    }

    fn get(&self, i: usize) -> &str {
        match self.spans[i] {
            Span::Borrowed(s) => s,
            Span::Buffered(from, to) => &self.buf[from..to],
        }
    }

    fn push_borrowed(&mut self, s: &'d str) {
        self.spans.push(Span::Borrowed(s));
    }

    /// Appends the string `write` appends to the buffer.
    fn push_with(&mut self, write: impl FnOnce(&mut String)) {
        let from = self.buf.len();
        write(&mut self.buf);
        self.spans.push(Span::Buffered(from, self.buf.len()));
    }

    /// Appends a node's string value, borrowed where the document holds it
    /// as one string.
    fn push_node(&mut self, doc: &'d Document, node: NodeId) {
        match doc.string_value_cow(node) {
            Cow::Borrowed(s) => self.push_borrowed(s),
            Cow::Owned(s) => self.push_with(|buf| buf.push_str(&s)),
        }
    }

    /// Replaces each string by the part of itself that `part` picks.
    fn narrow(&mut self, mut part: impl for<'s> FnMut(usize, &'s str) -> &'s str) {
        for i in 0..self.spans.len() {
            let whole = self.get(i);
            let picked = part(i, whole);
            if picked.is_empty() {
                // Possibly not a slice of `whole` (`""` is a constant).
                self.spans[i] = Span::Borrowed("");
                continue;
            }
            let from = picked.as_ptr() as usize - whole.as_ptr() as usize;
            let to = from + picked.len();
            self.spans[i] = match self.spans[i] {
                Span::Borrowed(s) => Span::Borrowed(&s[from..to]),
                Span::Buffered(start, _) => Span::Buffered(start + from, start + to),
            };
        }
    }

    /// A new column of the strings `write` appends, one per candidate.
    fn build(n: usize, mut write: impl FnMut(usize, &mut String)) -> Self {
        let mut out = Strings {
            spans: Vec::with_capacity(n),
            buf: String::new(),
        };
        for i in 0..n {
            out.push_with(|buf| write(i, buf));
        }
        out
    }
}

impl<'d, 'q, S: AxisSource + ?Sized> IrEvaluator<'d, 'q, S> {
    /// The column of opcode `id`, a [`PredRoute::Column`] predicate or one of
    /// its subexpressions, over `candidates`.
    pub(super) fn column(
        &mut self,
        id: OpId,
        candidates: &[NodeId],
    ) -> Result<Column<'d>, EvalError> {
        let ir = self.ir;
        let n = candidates.len();
        Ok(match &ir.op(id).kind {
            OpKind::Number(x) => Column::Numbers(vec![*x; n]),
            OpKind::Literal(s) => Column::Strings(Strings::repeat(s, n)),
            OpKind::Path { steps, .. } => Column::Nodes(self.leaf_path(*steps, candidates)?),
            OpKind::And(a, b) => {
                let left = self.column(*a, candidates)?.booleans();
                let right = self.column(*b, candidates)?.booleans();
                Column::Booleans(left.iter().zip(&right).map(|(&l, &r)| l && r).collect())
            }
            OpKind::Or(a, b) => {
                let left = self.column(*a, candidates)?.booleans();
                let right = self.column(*b, candidates)?.booleans();
                Column::Booleans(left.iter().zip(&right).map(|(&l, &r)| l || r).collect())
            }
            OpKind::Not(e) => {
                let mut values = self.column(*e, candidates)?.booleans();
                values.iter_mut().for_each(|b| *b = !*b);
                Column::Booleans(values)
            }
            OpKind::Neg(e) => {
                let mut values = self.column(*e, candidates)?.numbers(self.doc);
                values.iter_mut().for_each(|x| *x = -*x);
                Column::Numbers(values)
            }
            OpKind::Arithmetic { op, left, right } => {
                let l = self.column(*left, candidates)?.numbers(self.doc);
                let r = self.column(*right, candidates)?.numbers(self.doc);
                Column::Numbers(l.iter().zip(&r).map(|(&l, &r)| op.apply(l, r)).collect())
            }
            OpKind::Relational { op, left, right } => {
                let doc = self.doc;
                let l = self.column(*left, candidates)?;
                let r = self.column(*right, candidates)?;
                // Existential over a node-set operand, written on the left.
                let compared: Vec<bool> = match (l, r) {
                    (Column::Nodes(sets), other) => sets
                        .iter()
                        .enumerate()
                        .map(|(i, set)| compare_nodes_scalar(doc, set, *op, other.scalar(i)))
                        .collect(),
                    (other, Column::Nodes(sets)) => sets
                        .iter()
                        .enumerate()
                        .map(|(i, set)| compare_nodes_scalar(doc, set, flip(*op), other.scalar(i)))
                        .collect(),
                    (l, r) => (0..n)
                        .map(|i| compare_scalars(l.scalar(i), *op, r.scalar(i)))
                        .collect(),
                };
                Column::Booleans(compared)
            }
            OpKind::Call { name, args } => {
                self.call_column(name, ir.call_args(*args), candidates)?
            }
            _ => unreachable!("lowering routes only the column grammar here"),
        })
    }

    /// A built-in function of the column grammar, applied to its argument
    /// columns; a missing argument is the candidate itself.
    fn call_column(
        &mut self,
        name: &str,
        args: &[OpId],
        candidates: &[NodeId],
    ) -> Result<Column<'d>, EvalError> {
        let doc = self.doc;
        let n = candidates.len();
        let mut columns = Vec::with_capacity(args.len().max(1));
        for &arg in args {
            columns.push(self.column(arg, candidates)?);
        }
        if columns.is_empty() {
            columns.push(Column::Nodes(Segments::singletons(candidates)));
        }
        let mut columns = columns.into_iter();
        let mut next = || columns.next().expect("arity checked at lowering");
        Ok(match name {
            "count" => Column::Numbers(next().nodes().iter().map(|set| set.len() as f64).collect()),
            "sum" => Column::Numbers(next().nodes().iter().map(|set| sum(doc, set)).collect()),
            "true" | "false" => Column::Booleans(vec![name == "true"; n]),
            "boolean" => Column::Booleans(next().booleans()),
            "number" => Column::Numbers(next().numbers(doc)),
            "string" => Column::Strings(next().strings(doc)),
            "string-length" => {
                let s = next().strings(doc);
                Column::Numbers((0..n).map(|i| string_length(s.get(i))).collect())
            }
            "normalize-space" => {
                let s = next().strings(doc);
                Column::Strings(Strings::build(n, |i, out| normalize_space(s.get(i), out)))
            }
            "translate" => {
                let (s, from, to) = (
                    next().strings(doc),
                    next().strings(doc),
                    next().strings(doc),
                );
                Column::Strings(Strings::build(n, |i, out| {
                    translate(s.get(i), from.get(i), to.get(i), out)
                }))
            }
            "concat" => {
                let parts: Vec<Strings<'d>> = columns.map(|c| c.strings(doc)).collect();
                Column::Strings(Strings::build(n, |i, out| {
                    parts.iter().for_each(|part| out.push_str(part.get(i)))
                }))
            }
            "contains" | "starts-with" => {
                let test = string_test(name);
                let (s, t) = (next().strings(doc), next().strings(doc));
                Column::Booleans((0..n).map(|i| test(s.get(i), t.get(i))).collect())
            }
            "substring-before" | "substring-after" => {
                let part = string_part(name);
                let (mut s, sep) = (next().strings(doc), next().strings(doc));
                s.narrow(|i, hay| part(hay, sep.get(i)));
                Column::Strings(s)
            }
            "substring" => {
                let (mut s, start) = (next().strings(doc), next().numbers(doc));
                let len = columns.next().map(|c| c.numbers(doc));
                s.narrow(|i, whole| substring(whole, start[i], len.as_ref().map(|l| l[i])));
                Column::Strings(s)
            }
            "floor" | "ceiling" | "round" => {
                let f = number_function(name);
                Column::Numbers(next().numbers(doc).into_iter().map(f).collect())
            }
            _ => unreachable!("lowering routes only the column grammar here"),
        })
    }

    /// Every candidate's image under a leaf path, in one vector.  Each step
    /// appends the image of a candidate's nodes after the image of the
    /// previous candidate's; a candidate's image is sorted only when a step
    /// from several of its nodes left it out of document order or with
    /// repeats.  Step predicates keep their `Sat` and `InPlace` routes.
    fn leaf_path(
        &mut self,
        range: (u32, u32),
        candidates: &[NodeId],
    ) -> Result<Segments, EvalError> {
        let (ir, doc) = (self.ir, self.doc);
        let mut current = Segments::singletons(candidates);
        let mut next = Segments::default();
        for step in ir.path_steps(range) {
            next.nodes.clear();
            next.ends.clear();
            for set in current.iter() {
                let start = next.nodes.len();
                for &node in set {
                    self.src
                        .axis_step_into(node, step.axis, &step.test, &mut next.nodes);
                }
                let image = &mut next.nodes[start..];
                if set.len() > 1 && !is_in_document_order(doc, image) {
                    let distinct = doc.sort_distinct(image);
                    next.nodes.truncate(start + distinct);
                }
                next.ends.push(next.nodes.len());
            }
            self.stats.step_context_evaluations += current.nodes.len() as u64;
            for (&pred, route) in ir.step_preds(step).iter().zip(ir.step_pred_routes(step)) {
                self.retain_holding(&mut next, pred, route)?;
            }
            std::mem::swap(&mut current, &mut next);
        }
        Ok(current)
    }

    /// Keeps the nodes of `sets` at which a step predicate of a leaf path
    /// holds, the way [`IrEvaluator::filter`] answers it.
    fn retain_holding(
        &mut self,
        sets: &mut Segments,
        pred: OpId,
        route: &PredRoute,
    ) -> Result<(), EvalError> {
        let at_nodes = match route {
            PredRoute::Sat => self.sat_pays(pred, sets.nodes.len()),
            PredRoute::InPlace(_) => true,
            _ => false,
        };
        if at_nodes {
            let check = self.node_check(pred, route)?;
            sets.try_retain(|node| Ok(check.holds(node)))
        } else {
            // A `sat` set not yet worth its sweeps: asked node by node.
            sets.try_retain(|node| Ok(self.eval(pred, Context::new(node, 1, 1))?.to_boolean()))
        }
    }
}
