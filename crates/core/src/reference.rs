//! The reference evaluator: the one AST-level interpreter left.
//!
//! Section 1 of the paper observes that, at the time of writing, "all
//! publicly available XPath engines [...] take time exponential in the sizes
//! of the XPath expressions in the input", because they implement the
//! functional semantics of the W3C documents directly: every location step
//! is applied to every node of the intermediate *node list* independently,
//! without sharing work between duplicate contexts and without collapsing
//! the list into a set between steps.
//!
//! [`ReferenceEvaluator`] reproduces exactly this strategy on the parsed
//! [`Expr`], with no lowering, no plan and no index-specific shortcut of its
//! own.  That makes it two things at once: the stand-in for the systems
//! measured in the paper's predecessor [GKP, VLDB'02] — on query families
//! such as `//a/b/parent::a/b/parent::a/…` its intermediate lists (and
//! therefore its running time) grow as `k^m` where `k` is the fan-out of the
//! document and `m` the number of repetitions — and the differential oracle
//! the [`crate::PlanIr`] machines of [`crate::exec`] are tested against.
//!
//! Nothing on a request path calls this module: [`crate::CompiledQuery`] and
//! [`crate::Engine`] run every strategy (including
//! [`crate::EvalStrategy::Naive`]) over the lowered plan.  Its callers are
//! tests, benches and the `fig_motivation_exponential` experiment, which
//! needs [`ReferenceEvaluator::with_list_limit`] to bound the exponential
//! runs.

use crate::context::Context;
use crate::error::EvalError;
use crate::functions::call_function;
use crate::stats::EvalStats;
use crate::steps::apply_step;
use crate::value::Value;
use xpeval_dom::{AxisSource, Document, NodeId};
use xpeval_syntax::{Expr, LocationPath};

/// Direct implementation of the XPath 1.0 functional semantics with
/// per-occurrence re-evaluation (the strategy of the engines the paper's
/// introduction criticizes).
pub struct ReferenceEvaluator<'d, S: AxisSource + ?Sized = Document> {
    src: &'d S,
    doc: &'d Document,
    stats: EvalStats,
    /// Safety valve for tests and benchmarks: evaluation aborts with an
    /// error once an intermediate list exceeds this length.
    pub list_limit: usize,
}

impl<'d, S: AxisSource + ?Sized> ReferenceEvaluator<'d, S> {
    /// Creates a reference evaluator for the given document.
    pub fn new(src: &'d S) -> Self {
        ReferenceEvaluator {
            src,
            doc: src.document(),
            stats: EvalStats::default(),
            list_limit: usize::MAX,
        }
    }

    /// Creates a reference evaluator that aborts once an intermediate node list
    /// grows beyond `limit` entries (used by the benchmark harness so that
    /// the exponential runs finish in bounded time).
    pub fn with_list_limit(src: &'d S, limit: usize) -> Self {
        ReferenceEvaluator {
            src,
            doc: src.document(),
            stats: EvalStats::default(),
            list_limit: limit,
        }
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// Evaluates a query in the canonical root context.
    pub fn evaluate(&mut self, query: &Expr) -> Result<Value, EvalError> {
        self.evaluate_with_context(query, Context::root(self.doc))
    }

    /// Evaluates a query in an explicit context.
    pub fn evaluate_with_context(
        &mut self,
        query: &Expr,
        ctx: Context,
    ) -> Result<Value, EvalError> {
        self.eval(query, ctx)
    }

    fn eval(&mut self, expr: &Expr, ctx: Context) -> Result<Value, EvalError> {
        self.stats.evaluations += 1;
        match expr {
            Expr::Number(n) => Ok(Value::Number(*n)),
            Expr::Literal(s) => Ok(Value::Str(s.clone())),
            Expr::Path(path) => {
                let list = self.eval_path_list(path, ctx)?;
                // The final result is presented as a proper node set, as
                // every engine eventually does; the damage of list semantics
                // is in the intermediate steps.
                Ok(Value::node_set(self.doc, list))
            }
            Expr::Union(a, b) => {
                let mut left = self.eval(a, ctx)?.into_nodes()?;
                let right = self.eval(b, ctx)?.into_nodes()?;
                left.extend(right);
                Ok(Value::node_set(self.doc, left))
            }
            Expr::Intersect(a, b) => {
                let left = self.eval(a, ctx)?.into_nodes()?;
                let right = self.eval(b, ctx)?.into_nodes()?;
                Ok(Value::NodeSet(crate::sets::set_intersect(
                    self.doc, left, right,
                )))
            }
            Expr::Except(a, b) => {
                let left = self.eval(a, ctx)?.into_nodes()?;
                let right = self.eval(b, ctx)?.into_nodes()?;
                Ok(Value::NodeSet(crate::sets::set_except(
                    self.doc, left, right,
                )))
            }
            Expr::NodeCompare { op, left, right } => {
                let l = self.eval(left, ctx)?.into_nodes()?;
                let r = self.eval(right, ctx)?.into_nodes()?;
                Ok(Value::Boolean(crate::sets::node_compare(
                    *op, self.doc, &l, &r,
                )))
            }
            Expr::Variable(name) => Err(EvalError::UnboundVariable { name: name.clone() }),
            Expr::Or(a, b) => {
                let l = self.eval(a, ctx)?.to_boolean();
                let r = self.eval(b, ctx)?.to_boolean();
                Ok(Value::Boolean(l || r))
            }
            Expr::And(a, b) => {
                let l = self.eval(a, ctx)?.to_boolean();
                let r = self.eval(b, ctx)?.to_boolean();
                Ok(Value::Boolean(l && r))
            }
            Expr::Not(e) => Ok(Value::Boolean(!self.eval(e, ctx)?.to_boolean())),
            Expr::Relational { op, left, right } => {
                let l = self.eval(left, ctx)?;
                let r = self.eval(right, ctx)?;
                Ok(Value::Boolean(l.compare(*op, &r, self.doc)))
            }
            Expr::Arithmetic { op, left, right } => {
                let l = self.eval(left, ctx)?.to_number(self.doc);
                let r = self.eval(right, ctx)?.to_number(self.doc);
                Ok(Value::Number(op.apply(l, r)))
            }
            Expr::Neg(e) => {
                let n = self.eval(e, ctx)?.to_number(self.doc);
                Ok(Value::Number(-n))
            }
            Expr::FunctionCall { name, args } => {
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(self.eval(a, ctx)?);
                }
                call_function(name, values, &ctx, self.doc)
            }
        }
    }

    /// Evaluates a location path with *list* semantics: the intermediate
    /// result is a list of nodes with duplicates preserved, and every step
    /// is applied to every occurrence independently.
    fn eval_path_list(
        &mut self,
        path: &LocationPath,
        ctx: Context,
    ) -> Result<Vec<NodeId>, EvalError> {
        let mut current: Vec<NodeId> = if path.absolute {
            vec![self.doc.root()]
        } else {
            vec![ctx.node]
        };
        for step in &path.steps {
            let mut next: Vec<NodeId> = Vec::new();
            for &node in &current {
                self.stats.step_context_evaluations += 1;
                let src = self.src;
                let mut selected = {
                    let mut eval_pred =
                        |e: &Expr, c: Context| -> Result<Value, EvalError> { self.eval(e, c) };
                    apply_step(src, node, step, &mut eval_pred)?
                };
                next.append(&mut selected);
            }
            self.stats.max_intermediate_list = self.stats.max_intermediate_list.max(next.len());
            if next.len() > self.list_limit {
                return Err(EvalError::unsupported(format!(
                    "naive evaluation aborted: intermediate node list exceeded {} entries",
                    self.list_limit
                )));
            }
            current = next;
        }
        Ok(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompiledQuery, EvalStrategy, QueryOutput};
    use xpeval_dom::parse_xml;
    use xpeval_syntax::parse_query;

    /// The context-value-table machine on the same parsed query.
    fn cvt(doc: &Document, query: &Expr) -> QueryOutput {
        CompiledQuery::from_expr(query.clone())
            .with_strategy(EvalStrategy::ContextValueTable)
            .run(doc)
            .unwrap()
    }

    fn eval(xml: &str, query: &str) -> Value {
        let doc = parse_xml(xml).unwrap();
        let q = parse_query(query).unwrap();
        ReferenceEvaluator::new(&doc).evaluate(&q).unwrap()
    }

    const BOOKS: &str = r#"<lib><book year="2001"><title>A</title></book><book year="2003"><title>B</title><cite/></book><paper year="2003"><title>C</title></paper></lib>"#;

    #[test]
    fn agrees_with_the_table_machine_on_standard_queries() {
        let doc = parse_xml(BOOKS).unwrap();
        for q in [
            "/lib/book/title",
            "//title",
            "//book[@year = 2003]/title",
            "//book[position() = 2]",
            "//book[not(child::cite)]",
            "count(//book)",
            "//book/title | //paper/title",
            "string(//book[1]/title)",
            "//book[child::cite or child::title][last()]",
            "//title intersect //book/title",
            "//title except //book/title",
            "//book << //paper",
            "//cite is //book/cite",
        ] {
            let query = parse_query(q).unwrap();
            let naive = ReferenceEvaluator::new(&doc).evaluate(&query).unwrap();
            assert_eq!(naive, cvt(&doc, &query).value, "disagreement on {q}");
        }
    }

    #[test]
    fn final_results_are_proper_node_sets() {
        // Even though intermediate lists carry duplicates, the final value
        // must be duplicate-free and in document order.
        let v = eval("<a><b/><b/><b/></a>", "//a/b/parent::a/b");
        assert_eq!(v.expect_nodes().len(), 3);
    }

    #[test]
    fn intermediate_lists_grow_exponentially() {
        // The query family from the paper's introduction: with k = 3 b-children,
        // every /b/parent::a repetition multiplies the intermediate list by k.
        let k = 3usize;
        let mut xml = String::from("<a>");
        for _ in 0..k {
            xml.push_str("<b/>");
        }
        xml.push_str("</a>");
        let doc = parse_xml(&xml).unwrap();

        let mut lists = Vec::new();
        for reps in 1..=5 {
            let mut q = String::from("//a");
            for _ in 0..reps {
                q.push_str("/b/parent::a");
            }
            let query = parse_query(&q).unwrap();
            let mut ev = ReferenceEvaluator::new(&doc);
            ev.evaluate(&query).unwrap();
            lists.push(ev.stats().max_intermediate_list);
        }
        // max list after r repetitions is k^r (for r = 1 the descendant-or-self
        // expansion of `//` is still the longest list: root + a + k children).
        assert_eq!(lists, vec![5, 9, 27, 81, 243]);
        // ... which is exactly the exponential behaviour the table machine avoids.
        let query =
            parse_query("//a/b/parent::a/b/parent::a/b/parent::a/b/parent::a/b/parent::a").unwrap();
        assert!(cvt(&doc, &query).stats.step_context_evaluations < 100);
    }

    #[test]
    fn list_limit_aborts_runaway_evaluation() {
        let doc = parse_xml("<a><b/><b/><b/></a>").unwrap();
        let query =
            parse_query("//a/b/parent::a/b/parent::a/b/parent::a/b/parent::a/b/parent::a/b")
                .unwrap();
        let mut ev = ReferenceEvaluator::with_list_limit(&doc, 100);
        let err = ev.evaluate(&query).unwrap_err();
        assert!(matches!(err, EvalError::Unsupported { .. }));
    }

    #[test]
    fn work_counters_track_re_evaluation() {
        let doc = parse_xml("<a><b/><b/><b/></a>").unwrap();
        let query = parse_query("//a/b/parent::a/b/parent::a/b").unwrap();
        let mut naive = ReferenceEvaluator::new(&doc);
        naive.evaluate(&query).unwrap();
        let table = cvt(&doc, &query).stats;
        assert!(
            naive.stats().step_context_evaluations > table.step_context_evaluations,
            "naive {} vs cvt {}",
            naive.stats().step_context_evaluations,
            table.step_context_evaluations
        );
    }

    #[test]
    fn scalar_queries_behave_normally() {
        assert_eq!(eval(BOOKS, "2 + 2"), Value::Number(4.0));
        assert_eq!(eval(BOOKS, "count(//title)"), Value::Number(3.0));
        assert_eq!(eval(BOOKS, "not(//nosuch)"), Value::Boolean(true));
    }
}
