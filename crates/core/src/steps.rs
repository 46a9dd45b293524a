//! Location-step semantics on the AST, and what a plan can read off its
//! final step.
//!
//! [`apply_step`] implements the XPath 1.0 semantics of a single step
//! `axis::test[p1]...[pk]` relative to one context node: candidates are
//! produced by the axis in document order, proximity positions are assigned
//! (reverse axes count backwards), and each predicate filters the candidate
//! list in turn, re-deriving positions after every filter exactly as the
//! recommendation prescribes.  Its one caller is the AST-level
//! [`crate::reference`] evaluator; the plan machines of [`crate::exec`] run
//! the same loop over lowered steps and share [`predicate_holds`] and the
//! `positional_pick` recognition (applied once, at lowering).
//!
//! Candidates come from an [`AxisSource`], so a [`xpeval_dom::Document`]
//! walks the tree while a [`xpeval_dom::PreparedDocument`] answers name
//! tests on the child/descendant/following/preceding axes from its indexes.
//!
//! [`final_step_tag_names`] names the tags a node-set result is bounded
//! by — what a catalog artifact resolves against its document's tag index.

use crate::context::Context;
use crate::error::EvalError;
use crate::value::Value;
use xpeval_dom::{Axis, AxisSource, NodeId, PositionalPick};
use xpeval_syntax::{Expr, RelOp, Step};

/// Applies one location step from a single context node.
///
/// `eval_pred` is the callback used to evaluate predicate expressions (the
/// reference evaluator passes plain recursion).  Returns the selected nodes
/// in document order.
pub fn apply_step<S, F>(
    src: &S,
    from: NodeId,
    step: &Step,
    eval_pred: &mut F,
) -> Result<Vec<NodeId>, EvalError>
where
    S: AxisSource + ?Sized,
    F: FnMut(&Expr, Context) -> Result<Value, EvalError>,
{
    let mut candidates: Vec<NodeId>;
    let mut remaining: &[Expr] = &step.predicates;
    // Indexed fast path: a child step whose first predicate is positional
    // selects at most one node, and an index can often find it without
    // enumerating the axis or evaluating the predicate per candidate.
    if let Some((pick, rest)) = leading_positional_pick(step) {
        match src.positional_child_step(from, &step.node_test, pick) {
            Some(picked) => {
                candidates = picked;
                remaining = rest;
            }
            None => candidates = src.axis_step(from, step.axis, &step.node_test),
        }
    } else {
        // Candidates in document order.
        candidates = src.axis_step(from, step.axis, &step.node_test);
    }
    for pred in remaining {
        candidates = filter_by_predicate(&candidates, step.axis.is_reverse(), pred, eval_pred)?;
    }
    Ok(candidates)
}

/// Recognizes a step of the form `child::t[positional]...`: returns the
/// positional pick of the first predicate and the remaining predicates.
///
/// Only the child axis qualifies (it is a forward axis, so proximity
/// positions count in document order exactly like the candidate lists the
/// indexes store).  The recognized spellings are the ones whose XPath §2.4
/// truth value depends on nothing but the proximity position: a positive
/// integer literal `[k]`, `[last()]`, `[position() = k]` and
/// `[position() = last()]` (either operand order).
fn leading_positional_pick(step: &Step) -> Option<(PositionalPick, &[Expr])> {
    if step.axis != Axis::Child {
        return None;
    }
    let first = step.predicates.first()?;
    positional_pick(first).map(|pick| (pick, &step.predicates[1..]))
}

/// The [`PositionalPick`] a predicate expression reduces to, if any.
pub(crate) fn positional_pick(pred: &Expr) -> Option<PositionalPick> {
    match pred {
        Expr::Number(k) => literal_pick(*k),
        Expr::FunctionCall { name, args } if name == "last" && args.is_empty() => {
            Some(PositionalPick::Last)
        }
        Expr::Relational {
            op: RelOp::Eq,
            left,
            right,
        } => match (&**left, &**right) {
            (l, r) if is_position_call(l) => equality_pick(r),
            (l, r) if is_position_call(r) => equality_pick(l),
            _ => None,
        },
        _ => None,
    }
}

/// `position() = e`: the pick for the right-hand side `e`.
fn equality_pick(e: &Expr) -> Option<PositionalPick> {
    match e {
        Expr::Number(k) => literal_pick(*k),
        Expr::FunctionCall { name, args } if name == "last" && args.is_empty() => {
            Some(PositionalPick::Last)
        }
        _ => None,
    }
}

/// A numeric literal as a positional pick.  Non-positive and non-integer
/// literals never equal a proximity position, which `Nth(0)` encodes (every
/// index answers it with the empty selection).
fn literal_pick(k: f64) -> Option<PositionalPick> {
    if k >= 1.0 && k.fract() == 0.0 && k <= usize::MAX as f64 {
        Some(PositionalPick::Nth(k as usize))
    } else {
        Some(PositionalPick::Nth(0))
    }
}

fn is_position_call(e: &Expr) -> bool {
    matches!(e, Expr::FunctionCall { name, args } if name == "position" && args.is_empty())
}

/// The tag names a node-set query's result is bounded by, without a
/// document: the name tests of a path's final step (one per union arm),
/// under exactly the conditions that make the tag lists a sound result
/// bound — the final step's principal node kind is element and its node
/// test is a name.  `None` when the query's result is not name-bounded.
///
/// This is the document-independent half of the bound: resolve the returned
/// names against a concrete document's tag index once (e.g. to
/// [`xpeval_dom::TagId`]s in a catalog plan artifact) and the per-document
/// half becomes id-indexed lookups.
pub fn final_step_tag_names(expr: &Expr) -> Option<Vec<&str>> {
    fn collect<'e>(expr: &'e Expr, out: &mut Vec<&'e str>) -> Option<()> {
        match expr {
            Expr::Path(path) => {
                let last = path.steps.last()?;
                if last.axis.principal_is_attribute() {
                    return None;
                }
                match &last.node_test {
                    xpeval_dom::NodeTest::Name(name)
                    | xpeval_dom::NodeTest::Resolved { name, .. } => {
                        out.push(name);
                        Some(())
                    }
                    _ => None,
                }
            }
            Expr::Union(a, b) => {
                collect(a, out)?;
                collect(b, out)
            }
            _ => None,
        }
    }
    let mut out = Vec::new();
    collect(expr, &mut out)?;
    Some(out)
}

/// Filters a candidate list by one predicate, assigning proximity positions.
pub fn filter_by_predicate<F>(
    candidates: &[NodeId],
    reverse_axis: bool,
    pred: &Expr,
    eval_pred: &mut F,
) -> Result<Vec<NodeId>, EvalError>
where
    F: FnMut(&Expr, Context) -> Result<Value, EvalError>,
{
    let size = candidates.len();
    let mut kept = Vec::with_capacity(size);
    for (idx, &node) in candidates.iter().enumerate() {
        // Proximity position: 1-based, counted from the far end for reverse
        // axes (XPath 1.0 §2.4).
        let position = if reverse_axis { size - idx } else { idx + 1 };
        let ctx = Context::new(node, position, size);
        let value = eval_pred(pred, ctx)?;
        if predicate_holds(&value, position) {
            kept.push(node);
        }
    }
    Ok(kept)
}

/// The predicate truth rule of XPath 1.0 §2.4: a number predicate holds when
/// it equals the proximity position; every other value is converted to a
/// boolean.
pub fn predicate_holds(value: &Value, position: usize) -> bool {
    match value {
        Value::Number(n) => *n == position as f64,
        other => other.to_boolean(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpeval_dom::{parse_xml, Axis, Document, NodeTest};
    use xpeval_syntax::parse_query;

    fn doc() -> Document {
        parse_xml("<r><a>1</a><a>2</a><a>3</a><b/></r>").unwrap()
    }

    /// A predicate evaluator good enough for these unit tests: numbers,
    /// position() and last() only.
    fn tiny_eval(expr: &Expr, ctx: Context) -> Result<Value, EvalError> {
        Ok(match expr {
            Expr::Number(n) => Value::Number(*n),
            Expr::FunctionCall { name, .. } if name == "position" => {
                Value::Number(ctx.position as f64)
            }
            Expr::FunctionCall { name, .. } if name == "last" => Value::Number(ctx.size as f64),
            Expr::Relational { op, left, right } => {
                let l = tiny_eval(left, ctx)?;
                let r = tiny_eval(right, ctx)?;
                Value::Boolean(op.apply(l.to_number(&doc()), r.to_number(&doc())))
            }
            _ => Value::Boolean(true),
        })
    }

    #[test]
    fn numeric_predicate_selects_by_position() {
        let d = doc();
        let r = d.first_child(d.root()).unwrap();
        let step = match parse_query("child::a[2]").unwrap() {
            Expr::Path(p) => p.steps[0].clone(),
            _ => unreachable!(),
        };
        let out = apply_step(&d, r, &step, &mut tiny_eval).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(d.string_value(out[0]), "2");
    }

    #[test]
    fn position_counts_backwards_on_reverse_axes() {
        let d = doc();
        let r = d.first_child(d.root()).unwrap();
        let b = d.last_child(r).unwrap();
        // preceding-sibling::a[1] from <b/> is the *nearest* preceding <a>,
        // i.e. the one with string value "3".
        let step = Step::with_predicate(
            Axis::PrecedingSibling,
            NodeTest::name("a"),
            Expr::Number(1.0),
        );
        let out = apply_step(&d, b, &step, &mut tiny_eval).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(d.string_value(out[0]), "3");
        // ... and the result is still reported in document order.
        let step = Step::new(Axis::PrecedingSibling, NodeTest::name("a"));
        let out = apply_step(&d, b, &step, &mut tiny_eval).unwrap();
        let values: Vec<String> = out.iter().map(|&n| d.string_value(n)).collect();
        assert_eq!(values, vec!["1", "2", "3"]);
    }

    #[test]
    fn predicate_sequences_rederive_positions() {
        let d = doc();
        let r = d.first_child(d.root()).unwrap();
        // child::a[position() >= 2][1] — first filter keeps {2,3}, second
        // keeps the first of the remaining list, i.e. "2".
        let q = parse_query("child::a[position() >= 2][1]").unwrap();
        let step = match q {
            Expr::Path(p) => p.steps[0].clone(),
            _ => unreachable!(),
        };
        let out = apply_step(&d, r, &step, &mut tiny_eval).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(d.string_value(out[0]), "2");
    }

    #[test]
    fn last_refers_to_candidate_count() {
        let d = doc();
        let r = d.first_child(d.root()).unwrap();
        let q = parse_query("child::a[position() = last()]").unwrap();
        let step = match q {
            Expr::Path(p) => p.steps[0].clone(),
            _ => unreachable!(),
        };
        let out = apply_step(&d, r, &step, &mut tiny_eval).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(d.string_value(out[0]), "3");
    }

    #[test]
    fn positional_pick_recognition() {
        use xpeval_dom::PositionalPick::*;
        let cases = [
            ("child::a[2]", Some(Nth(2))),
            ("child::a[last()]", Some(Last)),
            ("child::a[position() = 3]", Some(Nth(3))),
            ("child::a[3 = position()]", Some(Nth(3))),
            ("child::a[position() = last()]", Some(Last)),
            ("child::a[0.5]", Some(Nth(0))),
            ("child::a[position() >= 2]", None),
            ("child::a[last() = 3]", None),
            ("descendant::a[2]", None),
            ("preceding-sibling::a[1]", None),
        ];
        for (src, expected) in cases {
            let step = match parse_query(src).unwrap() {
                Expr::Path(p) => p.steps[0].clone(),
                _ => unreachable!(),
            };
            assert_eq!(
                leading_positional_pick(&step).map(|(p, _)| p),
                expected,
                "{src}"
            );
        }
    }

    #[test]
    fn positional_fast_path_agrees_with_filtering() {
        let d = doc();
        let prepared = xpeval_dom::PreparedDocument::new(d.clone());
        let r = d.first_child(d.root()).unwrap();
        for q in [
            "child::a[1]",
            "child::a[2]",
            "child::a[3]",
            "child::a[4]",
            "child::a[last()]",
            "child::a[position() = last()]",
            "child::*[2]",
            "child::node()[last()]",
            "child::a[0.5]",
            "child::a[last()][1]",
        ] {
            let step = match parse_query(q).unwrap() {
                Expr::Path(p) => p.steps[0].clone(),
                _ => unreachable!(),
            };
            let plain = apply_step(&d, r, &step, &mut tiny_eval).unwrap();
            let fast = apply_step(&prepared, r, &step, &mut tiny_eval).unwrap();
            assert_eq!(plain, fast, "{q}");
        }
    }

    #[test]
    fn positional_fast_path_skips_predicate_evaluation() {
        let d = doc();
        let prepared = xpeval_dom::PreparedDocument::new(d.clone());
        let r = d.first_child(d.root()).unwrap();
        let step = match parse_query("child::a[2]").unwrap() {
            Expr::Path(p) => p.steps[0].clone(),
            _ => unreachable!(),
        };
        let mut calls = 0usize;
        let mut counting = |e: &Expr, ctx: Context| {
            calls += 1;
            tiny_eval(e, ctx)
        };
        let out = apply_step(&prepared, r, &step, &mut counting).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(d.string_value(out[0]), "2");
        assert_eq!(calls, 0, "index answered without predicate evaluation");
    }

    #[test]
    fn predicate_truth_rule() {
        assert!(predicate_holds(&Value::Number(3.0), 3));
        assert!(!predicate_holds(&Value::Number(3.0), 2));
        assert!(predicate_holds(&Value::Boolean(true), 99));
        assert!(!predicate_holds(&Value::empty(), 1));
        assert!(predicate_holds(&Value::Str("x".into()), 1));
    }

    #[test]
    fn specialized_plans_evaluate_like_the_original() {
        let d = parse_xml("<r><a><b/></a><a/><c><b/></c></r>").unwrap();
        let prepared = xpeval_dom::PreparedDocument::new(d);
        for q in [
            "/r/a/b",
            "descendant::b",
            "//a[child::b]",
            "count(//b)",
            "//a | //c",
            "//nosuch",
        ] {
            let compiled = crate::CompiledQuery::compile(q).unwrap();
            let specialized = compiled.specialize_for_source(&prepared);
            assert_eq!(
                compiled.run_prepared(&prepared).unwrap().value,
                specialized.run_prepared(&prepared).unwrap().value,
                "{q}"
            );
        }
    }
}
