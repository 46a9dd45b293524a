//! The flat plan IR every compiled query lowers into.
//!
//! Lowering does once, at compile time, what an AST interpreter would redo
//! per evaluation — chase `Box`-linked expression nodes, recognize
//! positional predicates, validate the fragment, hash name-test strings:
//!
//! * the expression tree is flattened into an arena of [`OpIr`] opcodes
//!   addressed by dense [`OpId`]s (children before parents, the root last),
//!   with location steps, predicate lists and function arguments stored in
//!   side arenas — evaluation walks indices, not pointers;
//! * every name test on an element-principal axis is resolved to a
//!   **workspace-global** [`xpeval_dom::TagId`] ([`xpeval_dom::intern`]), so
//!   the lowered test is valid against *every* document: an indexed source
//!   translates the global id to its local tag table (absent → empty set), an
//!   unindexed source falls back to the string the test still carries.  This
//!   is what makes one lowered plan shareable across equal documents;
//! * per-step metadata is precomputed: the route the table machine takes
//!   through the step ([`StepRoute`]: per context node, set-at-a-time, in
//!   sibling groups, or folded into the next step) and through each of its
//!   predicates ([`PredRoute`]: per candidate, a `sat` set, in place, by
//!   column, or a positional pick [`xpeval_dom::PositionalPick`]), and the
//!   `//`-expansion
//!   fusion (`descendant-or-self::node()/child::t[p]` → `descendant::t[p]`,
//!   applied only when no predicate reads a proximity position, where it is
//!   list- and set-semantics preserving);
//! * per-opcode static analysis survives lowering: the [`Fragment`] that
//!   admitted each subexpression, its static `ExprType`, and the
//!   position-sensitivity bit the context-value tables key on;
//! * the per-strategy admission checks are precomputed verdicts:
//!   [`PlanIr::linear_check`] (Core XPath, Definition 2.5) and
//!   [`PlanIr::ss_check`] (pWF/pXPath, Definition 6.1) are stored
//!   `Result`s, so dispatch fails fast without re-classifying.
//!
//! The executors live in [`crate::exec`].

use crate::error::EvalError;
use crate::functions::is_supported;
use crate::registry::{FragmentImpact, FunctionRegistry};
use crate::value::Value;
use std::borrow::Cow;
use std::sync::Arc;
use xpeval_dom::{Axis, NodeTest, PositionalPick};
use xpeval_syntax::ast::ExprType;
use xpeval_syntax::fragment::is_core_condition;
use xpeval_syntax::{
    classify, ArithOp, Expr, Fragment, FragmentReport, LocationPath, NodeCompOp, RelOp, Step,
};

/// Index of an [`OpIr`] in the plan's opcode arena.
pub type OpId = u32;

/// How the table machine ([`crate::exec`], memoized mode) computes the
/// candidates of a lowered step — decided once, at lowering, from what the
/// step's predicates can observe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepRoute {
    /// One axis enumeration per context node, candidates filtered with their
    /// proximity positions (XPath 1.0 §2.4): a predicate reads
    /// `position()`/`last()` or may evaluate to a number, on a transitive or
    /// sibling axis, where one candidate can sit at different positions in
    /// the lists of different context nodes.
    PerContext,
    /// One candidate set for the whole context set, deduplicated *before*
    /// any predicate runs; every predicate is then one filter pass over the
    /// distinct candidates.  Sound because no predicate of the step can
    /// observe a proximity position.
    Set,
    /// A predicate reads proximity positions, on an axis where a candidate
    /// has the same position wherever it occurs: on `child`/`attribute` it
    /// is in the list of its parent or owner element only, on `self` and
    /// `parent` every list holds one node, at position 1 of 1.  The
    /// candidates are computed once for the whole context set, as on
    /// [`StepRoute::Set`], and each predicate is one filter pass that
    /// positions a candidate within its group of siblings.
    Siblings,
    /// A predicate-free `descendant-or-self::node()` whose nodes only serve
    /// as context nodes of the [`StepRoute::Siblings`] child step after it:
    /// that step takes the *descendants* of this step's context nodes as its
    /// candidates, grouped by parent — every descendant's parent is on the
    /// frontier — so the frontier itself is never built.
    Folded,
}

impl StepRoute {
    /// `"per-context"` / `"set"` / `"siblings"` / `"folded"` — the spelling
    /// of [`PlanIr::explain`] and the profile table's route column.
    pub fn name(self) -> &'static str {
        match self {
            StepRoute::PerContext => "per-context",
            StepRoute::Set => "set",
            StepRoute::Siblings => "siblings",
            StepRoute::Folded => "folded",
        }
    }
}

/// How the table machine answers one predicate of a step.
#[derive(Clone, Debug, PartialEq)]
pub enum PredRoute {
    /// One evaluation of the predicate opcode per candidate.
    PerCandidate,
    /// `[k]`, `[last()]` and their `position() =` spellings: the k-th or
    /// last candidate of each context node's list, read off the proximity
    /// positions without evaluating an opcode (the source's index may answer
    /// a leading pick of a child step from one context node).
    Pick(PositionalPick),
    /// A position-free Core XPath condition, or a Core XPath path compared
    /// with a constant (`bid/@increase > 6`): the set of nodes at which it
    /// holds is computed once per evaluation, bottom-up through inverse axes
    /// (`IrLinear::sat`), and candidates are filtered by membership.  The
    /// handful of candidates of a lookup is still asked one by one: the set
    /// costs a sweep of the document.
    Sat,
    /// A unary test on the candidate's own attribute or text strings,
    /// compared in place — no node-set value, no string copy, no table entry.
    InPlace(StringTest),
    /// A position-free predicate over the candidate's own strings and
    /// relative paths that the other routes do not answer: `count(bid) > 2`,
    /// `sum(b/@x) != 1`, `contains(name, 'x')`, `string-length(.) > 3`,
    /// `[@x]`.  It is evaluated once for the whole candidate slice, one
    /// column of values per subexpression, bottom-up (after Gottlob, Koch
    /// and Pichler's VLDB'02 algorithm): a path is one flat vector of every
    /// candidate's image, strings are borrowed from the document where it
    /// holds them.  No table entry, and a number of allocations that does
    /// not grow with the number of candidates.  The grammar is
    /// `column_predicate`'s, in this module.
    Column,
}

/// A predicate that only reads strings the candidate carries itself:
/// `@a = 'c'`, `@a > n`, `starts-with(@a, 'c')`, `text() = 'c'`.
#[derive(Clone, Debug, PartialEq)]
pub struct StringTest {
    /// The strings compared.
    pub source: StringSource,
    /// What they are compared with.
    pub check: StringCheck,
}

/// The node set a [`StringTest`] reads its strings from.
#[derive(Clone, Debug, PartialEq)]
pub enum StringSource {
    /// `attribute::name` — the values of the candidate's attributes so named.
    Attribute(String),
    /// `child::text()` — the candidate's text children.
    Text,
}

/// The comparison of a [`StringTest`].
#[derive(Clone, Debug, PartialEq)]
pub enum StringCheck {
    /// `source op constant`, existential over the source's nodes like every
    /// node-set comparison (XPath 1.0 §3.4); written with the node set on
    /// the left, so a `constant op source` spelling is stored mirrored.  The
    /// constant is a number or a string.
    Compare(RelOp, Value),
    /// `starts-with(source, 'prefix')` on the string of the source's first
    /// node (the empty string when there is none).
    StartsWith(String),
}

impl std::fmt::Display for StringTest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let source = match &self.source {
            StringSource::Attribute(name) => format!("@{name}"),
            StringSource::Text => "text()".to_string(),
        };
        match &self.check {
            StringCheck::Compare(op, Value::Str(s)) => write!(f, "{source} {} '{s}'", op.symbol()),
            StringCheck::Compare(op, Value::Number(n)) => write!(f, "{source} {} {n}", op.symbol()),
            StringCheck::Compare(op, other) => write!(f, "{source} {} {other:?}", op.symbol()),
            StringCheck::StartsWith(prefix) => write!(f, "starts-with({source}, '{prefix}')"),
        }
    }
}

/// One lowered location step `axis::test[preds...]`.
#[derive(Clone, Debug, PartialEq)]
pub struct StepIr {
    /// The axis (after `//`-fusion this can be an axis the surface syntax
    /// never wrote, e.g. `descendant` for a fused `//t`).
    pub axis: Axis,
    /// The node test.  Name tests on element-principal axes are lowered to
    /// [`NodeTest::Resolved`] with the **global** interned id; the name is
    /// kept alongside so unindexed sources still match by string.
    pub test: NodeTest,
    /// `(start, len)` range of predicate [`OpId`]s in [`PlanIr::preds`]
    /// (and of their routes, stored alongside).
    preds: (u32, u32),
    /// How the table machine computes this step's candidates.
    pub route: StepRoute,
    /// True when this step is the fusion of a pred-less
    /// `descendant-or-self::node()` with the child step that followed it.
    pub fused: bool,
}

/// A lowered opcode: the operator [`OpKind`] plus the static analysis that
/// survives lowering.
#[derive(Clone, Debug, PartialEq)]
pub struct OpIr {
    /// The operator.
    pub kind: OpKind,
    /// Least fragment of Figure 1 that admits this subexpression — the
    /// classification does not stop at the query root.
    pub fragment: Fragment,
    /// Static XPath 1.0 type.
    pub ty: ExprType,
    /// Does the value, for a fixed context node, depend on the context
    /// position/size?  Decides the context-value-table key width
    /// ([`crate::context::ContextKey`]).
    pub sensitive: bool,
}

/// The flat operator set, mirroring [`Expr`] with arena indices in place of
/// boxed children.
#[derive(Clone, Debug, PartialEq)]
pub enum OpKind {
    /// Numeric literal.
    Number(f64),
    /// String literal.
    Literal(String),
    /// A location path; `steps` is a `(start, len)` range in
    /// [`PlanIr::steps`].
    Path { absolute: bool, steps: (u32, u32) },
    /// `π1 | π2`.
    Union(OpId, OpId),
    /// `π1 intersect π2` (XPath 2.0 node-set intersection).
    Intersect(OpId, OpId),
    /// `π1 except π2` (XPath 2.0 node-set difference).
    Except(OpId, OpId),
    /// Node comparison `e1 is e2` / `e1 << e2` / `e1 >> e2`, decided on the
    /// first node in document order of each operand.
    NodeCompare {
        /// The comparison operator.
        op: NodeCompOp,
        /// Left node-set operand.
        left: OpId,
        /// Right node-set operand.
        right: OpId,
    },
    /// External variable reference `$name`, resolved at execution time from
    /// the per-evaluation [`crate::bindings::Bindings`].
    Variable(String),
    /// `e1 or e2`.
    Or(OpId, OpId),
    /// `e1 and e2`.
    And(OpId, OpId),
    /// `not(e)`.
    Not(OpId),
    /// `e1 relop e2`.
    Relational { op: RelOp, left: OpId, right: OpId },
    /// `e1 arithop e2`.
    Arithmetic {
        op: ArithOp,
        left: OpId,
        right: OpId,
    },
    /// Unary minus.
    Neg(OpId),
    /// Core-library call; `args` is a `(start, len)` range in
    /// `PlanIr::args`.
    Call { name: String, args: (u32, u32) },
}

impl OpKind {
    /// Syntactically node-set typed (a path or a set operator over paths) —
    /// what routes an operand between the node-set rows and the scalar rows
    /// of Table 1 in the Singleton-Success machine.
    pub fn is_nodeset(&self) -> bool {
        matches!(
            self,
            OpKind::Path { .. }
                | OpKind::Union(_, _)
                | OpKind::Intersect(_, _)
                | OpKind::Except(_, _)
        )
    }
}

/// A compiled query lowered to flat form: opcode arena, step arena,
/// predicate and argument index lists, and the precomputed per-strategy
/// admission verdicts.  Document-independent and immutable — the
/// [`crate::CompiledQuery`] shares one behind an [`Arc`], and a catalog can
/// share that `Arc` across every document with equal content.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanIr {
    ops: Vec<OpIr>,
    steps: Vec<StepIr>,
    preds: Vec<OpId>,
    /// The route of each predicate, index for index with `preds`.
    pred_routes: Vec<PredRoute>,
    args: Vec<OpId>,
    root: OpId,
    linear_check: Result<(), EvalError>,
    ss_check: Result<(), EvalError>,
    fused_steps: u32,
}

impl PlanIr {
    /// Lowers a normalized expression.  `report` must be the classification
    /// of exactly this expression (the caller already has it; re-deriving it
    /// here would double the classifier work).
    pub fn lower(expr: &Expr, report: &FragmentReport) -> Arc<PlanIr> {
        PlanIr::lower_with_registry(expr, report, FunctionRegistry::empty())
    }

    /// Like [`PlanIr::lower`], but admitting calls to functions registered
    /// in `registry`: the Singleton-Success admission check accepts
    /// [`FragmentImpact::CoreSafe`](crate::registry::FragmentImpact)
    /// registrations, and `Call` opcodes carry the registered return type so
    /// result routing matches what the handler will produce.  The caller is
    /// responsible for passing a `report` already degraded for
    /// `General`-impact registrations (see
    /// [`crate::compile::CompiledQuery::compile_with_registry`]).
    pub fn lower_with_registry(
        expr: &Expr,
        report: &FragmentReport,
        registry: &FunctionRegistry,
    ) -> Arc<PlanIr> {
        let mut lowering = Lowering::new(registry);
        let root = lowering.lower_expr(expr);
        let linear_check = if report.fragment > Fragment::CoreXPath {
            // Verbatim the linear evaluator's rejection, decided once here.
            Err(EvalError::fragment(
                Fragment::CoreXPath,
                format!("a {} construct", report.fragment),
            ))
        } else {
            Ok(())
        };
        let ss_check = validate_singleton_success(expr, registry);
        Arc::new(PlanIr {
            ops: lowering.ops,
            steps: lowering.steps,
            preds: lowering.preds,
            pred_routes: lowering.pred_routes,
            args: lowering.args,
            root,
            linear_check,
            ss_check,
            fused_steps: lowering.fused_steps,
        })
    }

    /// The root opcode id (always the last op in the arena).
    pub fn root(&self) -> OpId {
        self.root
    }

    /// The opcode behind an id.
    #[inline]
    pub fn op(&self, id: OpId) -> &OpIr {
        &self.ops[id as usize]
    }

    /// All opcodes, children before parents.
    pub fn ops(&self) -> &[OpIr] {
        &self.ops
    }

    /// All lowered steps (of every path and nested predicate path).
    pub fn steps(&self) -> &[StepIr] {
        &self.steps
    }

    /// The steps of a `Path` opcode's `(start, len)` range.
    #[inline]
    pub fn path_steps(&self, range: (u32, u32)) -> &[StepIr] {
        &self.steps[range.0 as usize..(range.0 + range.1) as usize]
    }

    /// The predicate opcode ids of a step.
    #[inline]
    pub fn step_preds(&self, step: &StepIr) -> &[OpId] {
        &self.preds[step.preds.0 as usize..(step.preds.0 + step.preds.1) as usize]
    }

    /// The route of each predicate of a step, index for index with
    /// [`PlanIr::step_preds`].
    #[inline]
    pub fn step_pred_routes(&self, step: &StepIr) -> &[PredRoute] {
        &self.pred_routes[step.preds.0 as usize..(step.preds.0 + step.preds.1) as usize]
    }

    /// The argument opcode ids of a `Call` opcode's range.
    #[inline]
    pub fn call_args(&self, range: (u32, u32)) -> &[OpId] {
        &self.args[range.0 as usize..(range.0 + range.1) as usize]
    }

    /// Precomputed Core XPath admission (Definition 2.5): `Ok` when the
    /// linear set-at-a-time machine may run this plan.
    pub fn linear_check(&self) -> Result<(), EvalError> {
        self.linear_check.clone()
    }

    /// Precomputed pWF/pXPath admission (Definition 6.1 plus bounded
    /// negation): `Ok` when the Singleton-Success machines may run this
    /// plan.
    pub fn ss_check(&self) -> Result<(), EvalError> {
        self.ss_check.clone()
    }

    /// Number of `//`-expansion step pairs fused at lowering.
    pub fn fused_steps(&self) -> u32 {
        self.fused_steps
    }

    /// The element tag names the result is bounded by: the final step's
    /// name test, one per union arm, under exactly the soundness conditions
    /// of [`crate::steps::final_step_tag_names`] — element-principal final
    /// axis, name test.  `None` when the result is not name-bounded.
    ///
    /// Tests are returned as lowered, so callers get the pre-interned
    /// global id next to the name.
    pub fn final_step_tests(&self) -> Option<Vec<&NodeTest>> {
        fn collect<'p>(ir: &'p PlanIr, id: OpId, out: &mut Vec<&'p NodeTest>) -> Option<()> {
            match &ir.op(id).kind {
                OpKind::Path { steps, .. } => {
                    let last = ir.path_steps(*steps).last()?;
                    if last.axis.principal_is_attribute() {
                        return None;
                    }
                    match &last.test {
                        NodeTest::Name(_) | NodeTest::Resolved { .. } => {
                            out.push(&last.test);
                            Some(())
                        }
                        _ => None,
                    }
                }
                OpKind::Union(a, b) => {
                    collect(ir, *a, out)?;
                    collect(ir, *b, out)
                }
                // `intersect`/`except` results are subsets of the left
                // operand, so the left arm's bound is sound for the whole.
                OpKind::Intersect(a, _) | OpKind::Except(a, _) => collect(ir, *a, out),
                _ => None,
            }
        }
        let mut out = Vec::new();
        collect(self, self.root, &mut out)?;
        Some(out)
    }

    /// One line per location step the table machine would walk, with the
    /// route lowering chose for it and for each of its predicates:
    ///
    /// ```text
    ///   descendant::item  set, filter @id = 'item3' in place
    ///   child::person  siblings, pick last()
    /// ```
    ///
    /// Steps are listed in evaluation order from the root opcode; the paths
    /// inside a predicate evaluated per candidate follow their step,
    /// indented.  Predicates answered wholesale (`by sat`, `in place`,
    /// `pick`, `by column`) are not descended into — the table machine
    /// walks their steps its own way, not as steps of the plan.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_op(self.root, 1, &mut out);
        out
    }

    fn explain_op(&self, id: OpId, depth: usize, out: &mut String) {
        use std::fmt::Write;
        match &self.op(id).kind {
            OpKind::Path { steps, .. } => {
                for step in self.path_steps(*steps) {
                    let _ = write!(
                        out,
                        "{:depth$}{}::{}  {}",
                        "",
                        step.axis,
                        step.test,
                        step.route.name(),
                        depth = depth * 2
                    );
                    let preds = self
                        .step_preds(step)
                        .iter()
                        .zip(self.step_pred_routes(step));
                    for (&pred, route) in preds.clone() {
                        let _ = match route {
                            PredRoute::Pick(PositionalPick::Last) => write!(out, ", pick last()"),
                            PredRoute::Pick(PositionalPick::Nth(k)) => write!(out, ", pick {k}"),
                            PredRoute::InPlace(test) => write!(out, ", filter {test} in place"),
                            PredRoute::Sat => {
                                write!(out, ", filter {} by sat", self.display_op(pred))
                            }
                            PredRoute::Column => {
                                write!(out, ", filter {} by column", self.display_op(pred))
                            }
                            PredRoute::PerCandidate => {
                                write!(out, ", filter {} per candidate", self.display_op(pred))
                            }
                        };
                    }
                    out.push('\n');
                    for (&pred, route) in preds {
                        if *route == PredRoute::PerCandidate {
                            self.explain_op(pred, depth + 1, out);
                        }
                    }
                }
            }
            OpKind::Union(a, b)
            | OpKind::Intersect(a, b)
            | OpKind::Except(a, b)
            | OpKind::Or(a, b)
            | OpKind::And(a, b)
            | OpKind::NodeCompare {
                left: a, right: b, ..
            }
            | OpKind::Relational {
                left: a, right: b, ..
            }
            | OpKind::Arithmetic {
                left: a, right: b, ..
            } => {
                self.explain_op(*a, depth, out);
                self.explain_op(*b, depth, out);
            }
            OpKind::Not(e) | OpKind::Neg(e) => self.explain_op(*e, depth, out),
            OpKind::Call { args, .. } => {
                for &arg in self.call_args(*args) {
                    self.explain_op(arg, depth, out);
                }
            }
            OpKind::Number(_) | OpKind::Literal(_) | OpKind::Variable(_) => {}
        }
    }

    /// The route column of the profile table, one label per opcode in plan
    /// order: the step routes of a path (`folded,siblings,set`), `sat` / `in
    /// place` / `pick` / `column` for a predicate answered wholesale, `-`
    /// otherwise.
    pub fn route_labels(&self) -> Vec<Cow<'static, str>> {
        let mut labels: Vec<Cow<'static, str>> = self
            .ops
            .iter()
            .map(|op| match &op.kind {
                OpKind::Path { steps, .. } => match self.path_steps(*steps) {
                    [] => Cow::Borrowed("-"),
                    [one] => Cow::Borrowed(one.route.name()),
                    steps => {
                        let routes: Vec<&str> = steps.iter().map(|s| s.route.name()).collect();
                        Cow::Owned(routes.join(","))
                    }
                },
                _ => Cow::Borrowed("-"),
            })
            .collect();
        for (&pred, route) in self.preds.iter().zip(&self.pred_routes) {
            labels[pred as usize] = Cow::Borrowed(match route {
                PredRoute::Sat => "sat",
                PredRoute::InPlace(_) => "in place",
                PredRoute::Pick(_) => "pick",
                PredRoute::Column => "column",
                PredRoute::PerCandidate => continue,
            });
        }
        labels
    }

    /// Renders one opcode back to XPath-ish surface syntax (used in
    /// diagnostics; lowering is not otherwise reversible).
    pub fn display_op(&self, id: OpId) -> String {
        let mut out = String::new();
        self.render(id, &mut out);
        out
    }

    fn render(&self, id: OpId, out: &mut String) {
        use std::fmt::Write;
        match &self.op(id).kind {
            OpKind::Number(n) => {
                let _ = write!(out, "{n}");
            }
            OpKind::Literal(s) => {
                let _ = write!(out, "'{s}'");
            }
            OpKind::Path { absolute, steps } => {
                if *absolute {
                    out.push('/');
                }
                let steps = self.path_steps(*steps);
                for (i, step) in steps.iter().enumerate() {
                    if i > 0 {
                        out.push('/');
                    }
                    let _ = write!(out, "{}::{}", step.axis, step.test);
                    for &pred in self.step_preds(step) {
                        out.push('[');
                        self.render(pred, out);
                        out.push(']');
                    }
                }
            }
            OpKind::Union(a, b) => self.render_binary(*a, " | ", *b, out),
            OpKind::Intersect(a, b) => self.render_binary(*a, " intersect ", *b, out),
            OpKind::Except(a, b) => self.render_binary(*a, " except ", *b, out),
            OpKind::NodeCompare { op, left, right } => {
                let sep = format!(" {} ", op.symbol());
                self.render_binary(*left, &sep, *right, out);
            }
            OpKind::Variable(name) => {
                let _ = write!(out, "${name}");
            }
            OpKind::Or(a, b) => self.render_binary(*a, " or ", *b, out),
            OpKind::And(a, b) => self.render_binary(*a, " and ", *b, out),
            OpKind::Not(e) => {
                out.push_str("not(");
                self.render(*e, out);
                out.push(')');
            }
            OpKind::Relational { op, left, right } => {
                let sep = format!(" {} ", op.symbol());
                self.render_binary(*left, &sep, *right, out);
            }
            OpKind::Arithmetic { op, left, right } => {
                let sep = format!(" {} ", op.symbol());
                self.render_binary(*left, &sep, *right, out);
            }
            OpKind::Neg(e) => {
                out.push('-');
                self.render(*e, out);
            }
            OpKind::Call { name, args } => {
                out.push_str(name);
                out.push('(');
                for (i, &arg) in self.call_args(*args).iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    self.render(arg, out);
                }
                out.push(')');
            }
        }
    }

    fn render_binary(&self, a: OpId, sep: &str, b: OpId, out: &mut String) {
        out.push('(');
        self.render(a, out);
        out.push_str(sep);
        self.render(b, out);
        out.push(')');
    }
}

struct Lowering<'r> {
    registry: &'r FunctionRegistry,
    ops: Vec<OpIr>,
    steps: Vec<StepIr>,
    preds: Vec<OpId>,
    pred_routes: Vec<PredRoute>,
    args: Vec<OpId>,
    fused_steps: u32,
}

impl<'r> Lowering<'r> {
    fn new(registry: &'r FunctionRegistry) -> Self {
        Lowering {
            registry,
            ops: Vec::new(),
            steps: Vec::new(),
            preds: Vec::new(),
            pred_routes: Vec::new(),
            args: Vec::new(),
            fused_steps: 0,
        }
    }

    fn push_op(&mut self, expr: &Expr, kind: OpKind) -> OpId {
        let id = OpId::try_from(self.ops.len()).expect("plan IR op arena overflowed u32");
        // The AST's static typing does not know registered functions; the
        // registry's declared return type wins for them so that result
        // routing matches what the handler produces.
        let ty = match expr {
            Expr::FunctionCall { name, .. } if !is_supported(name) => self
                .registry
                .lookup(name)
                .map(|f| f.signature.return_type())
                .unwrap_or_else(|| expr.expr_type()),
            _ => expr.expr_type(),
        };
        self.ops.push(OpIr {
            kind,
            fragment: classify(expr).fragment,
            ty,
            sensitive: sensitivity(expr),
        });
        id
    }

    fn lower_expr(&mut self, expr: &Expr) -> OpId {
        let kind = match expr {
            Expr::Number(n) => OpKind::Number(*n),
            Expr::Literal(s) => OpKind::Literal(s.clone()),
            Expr::Path(path) => {
                let steps = self.lower_path(path);
                OpKind::Path {
                    absolute: path.absolute,
                    steps,
                }
            }
            Expr::Union(a, b) => OpKind::Union(self.lower_expr(a), self.lower_expr(b)),
            Expr::Intersect(a, b) => OpKind::Intersect(self.lower_expr(a), self.lower_expr(b)),
            Expr::Except(a, b) => OpKind::Except(self.lower_expr(a), self.lower_expr(b)),
            Expr::NodeCompare { op, left, right } => OpKind::NodeCompare {
                op: *op,
                left: self.lower_expr(left),
                right: self.lower_expr(right),
            },
            Expr::Variable(name) => OpKind::Variable(name.clone()),
            Expr::Or(a, b) => OpKind::Or(self.lower_expr(a), self.lower_expr(b)),
            Expr::And(a, b) => OpKind::And(self.lower_expr(a), self.lower_expr(b)),
            Expr::Not(e) => OpKind::Not(self.lower_expr(e)),
            Expr::Relational { op, left, right } => OpKind::Relational {
                op: *op,
                left: self.lower_expr(left),
                right: self.lower_expr(right),
            },
            Expr::Arithmetic { op, left, right } => OpKind::Arithmetic {
                op: *op,
                left: self.lower_expr(left),
                right: self.lower_expr(right),
            },
            Expr::Neg(e) => OpKind::Neg(self.lower_expr(e)),
            Expr::FunctionCall { name, args } => {
                // Arguments are lowered before the range is claimed so that
                // nested calls interleave without splitting this call's
                // argument block.
                let ids: Vec<OpId> = args.iter().map(|a| self.lower_expr(a)).collect();
                let start = u32::try_from(self.args.len()).expect("arg arena overflowed u32");
                let len = u32::try_from(ids.len()).expect("arg list overflowed u32");
                self.args.extend(ids);
                OpKind::Call {
                    name: name.clone(),
                    args: (start, len),
                }
            }
        };
        self.push_op(expr, kind)
    }

    fn lower_path(&mut self, path: &LocationPath) -> (u32, u32) {
        // Build the step block locally first: predicate lowering recurses
        // into nested paths, which push their own steps — appending the
        // block in one go afterwards keeps this path's steps contiguous.
        let mut built: Vec<StepIr> = Vec::with_capacity(path.steps.len());
        let mut fused_steps = 0u32;
        let mut i = 0;
        while i < path.steps.len() {
            let step = &path.steps[i];
            // `//t[p]` expands to `descendant-or-self::node()/child::t[p]`.
            let slash_slash = path
                .steps
                .get(i + 1)
                .filter(|next| expands_slash_slash(step) && next.axis == Axis::Child);
            if let Some(next) = slash_slash {
                if next.predicates.iter().all(position_free) {
                    // When `p` cannot observe a proximity position this is
                    // exactly `descendant::t[p]` under both set and list
                    // semantics (every descendant has a unique parent on the
                    // descendant-or-self frontier).
                    built.push(self.lower_step(next, Some(Axis::Descendant)));
                    fused_steps += 1;
                    i += 2;
                    continue;
                }
            }
            let mut lowered = self.lower_step(step, None);
            if slash_slash.is_some() {
                // `p` reads positions, so the child step takes the sibling
                // route, and by the same argument its groups are the
                // descendants of this step's context nodes, by parent.
                lowered.route = StepRoute::Folded;
            }
            built.push(lowered);
            i += 1;
        }
        self.fused_steps += fused_steps;
        let start = u32::try_from(self.steps.len()).expect("step arena overflowed u32");
        let len = u32::try_from(built.len()).expect("step list overflowed u32");
        self.steps.extend(built);
        (start, len)
    }

    fn lower_step(&mut self, step: &Step, fused_axis: Option<Axis>) -> StepIr {
        let axis = fused_axis.unwrap_or(step.axis);
        // Resolve name tests to the global symbol table.  Element-principal
        // axes only: the tag interner covers element names, and attribute
        // tests keep matching by string.
        let test = match &step.node_test {
            NodeTest::Name(name) | NodeTest::Resolved { name, .. }
                if !axis.principal_is_attribute() =>
            {
                NodeTest::Resolved {
                    name: name.clone(),
                    id: Some(xpeval_dom::intern::intern(name)),
                }
            }
            other => other.clone(),
        };
        let pred_ids: Vec<OpId> = step.predicates.iter().map(|p| self.lower_expr(p)).collect();
        let routes: Vec<PredRoute> = step.predicates.iter().map(pred_route).collect();
        let start = u32::try_from(self.preds.len()).expect("pred arena overflowed u32");
        let len = u32::try_from(pred_ids.len()).expect("pred list overflowed u32");
        self.preds.extend(pred_ids);
        self.pred_routes.extend(routes);
        let route = if step.predicates.iter().all(position_free) {
            StepRoute::Set
        } else if matches!(
            axis,
            Axis::Child | Axis::Attribute | Axis::SelfAxis | Axis::Parent
        ) {
            StepRoute::Siblings
        } else {
            StepRoute::PerContext
        };
        StepIr {
            axis,
            test,
            preds: (start, len),
            route,
            fused: fused_axis.is_some(),
        }
    }
}

/// The cheapest sound way to answer one predicate, whichever route its step
/// takes.  `sat` gets exactly the condition grammar of Definition 2.5 — not
/// every subexpression whose standalone fragment is Core XPath:
/// `intersect`/`except` are Core in node-set position only, and as a
/// condition (at the top or under a union) they need a per-context join
/// `sat` cannot express — plus one of its paths compared with a constant.
fn pred_route(pred: &Expr) -> PredRoute {
    if let Some(pick) = crate::steps::positional_pick(pred) {
        PredRoute::Pick(pick)
    } else if !position_free(pred) {
        PredRoute::PerCandidate
    } else if let Some(test) = string_test(pred) {
        PredRoute::InPlace(test)
    } else if is_core_condition(pred) || compares_core_path(pred) {
        PredRoute::Sat
    } else if column_predicate(pred) {
        PredRoute::Column
    } else {
        PredRoute::PerCandidate
    }
}

/// The grammar of [`PredRoute::Column`], for a position-free predicate:
///
/// * leaves: number and string literals; a relative path whose steps are all
///   position-free ([`StepRoute::Set`]) and whose own predicates, if any,
///   are answered [`PredRoute::Sat`] or [`PredRoute::InPlace`] (`.` is such
///   a path); `string()`, `string-length()`, `normalize-space()` and
///   `number()`, which read the candidate itself;
/// * over such a path: `count`, `sum`, and any use as a boolean, a string
///   or a number (the first node in document order);
/// * the built-ins `contains`, `starts-with`, `string-length`,
///   `normalize-space`, `translate`, `substring`, `substring-before`,
///   `substring-after`, `concat`, `boolean`, `string`, `number`, `true`,
///   `false`, `floor`, `ceiling` and `round`, at their arities;
/// * `and`, `or`, `not`, arithmetic, unary minus, and the comparisons with
///   at most one node-set operand (XPath 1.0 §3.4: existential over its
///   nodes, or `boolean(π)` against a boolean).
///
/// Everything else is per candidate: what reads `position()`/`last()`, a
/// variable, a registered function, an absolute path, a node-set join, a
/// set operator, a pick inside a path.
fn column_predicate(expr: &Expr) -> bool {
    match expr {
        Expr::Number(_) | Expr::Literal(_) => true,
        Expr::Path(path) => column_path(path),
        Expr::And(a, b)
        | Expr::Or(a, b)
        | Expr::Arithmetic {
            left: a, right: b, ..
        } => column_predicate(a) && column_predicate(b),
        Expr::Not(e) | Expr::Neg(e) => column_predicate(e),
        Expr::Relational { left, right, .. } => {
            column_predicate(left)
                && column_predicate(right)
                && !(left.as_path().is_some() && right.as_path().is_some())
        }
        Expr::FunctionCall { name, args } => {
            let path = |e: &Expr| e.as_path().is_some_and(column_path);
            match (name.as_str(), args.as_slice()) {
                ("count" | "sum", [arg]) => path(arg),
                (
                    "true" | "false" | "string" | "number" | "string-length" | "normalize-space",
                    [],
                ) => true,
                (
                    "boolean" | "string" | "number" | "string-length" | "normalize-space" | "floor"
                    | "ceiling" | "round",
                    [_],
                )
                | (
                    "contains" | "starts-with" | "substring-before" | "substring-after"
                    | "substring",
                    [_, _],
                )
                | ("substring" | "translate", [_, _, _])
                | ("concat", [_, _, ..]) => args.iter().all(column_predicate),
                _ => false,
            }
        }
        Expr::Variable(_)
        | Expr::Union(_, _)
        | Expr::Intersect(_, _)
        | Expr::Except(_, _)
        | Expr::NodeCompare { .. } => false,
    }
}

/// A leaf path of [`column_predicate`]: relative, every step taken for the
/// whole context set at once, every step predicate answered wholesale.
fn column_path(path: &LocationPath) -> bool {
    !path.absolute
        && path.steps.iter().all(|step| {
            // Both routes are taken by position-free predicates only, so
            // the step is `Set`.
            step.predicates
                .iter()
                .all(|pred| matches!(pred_route(pred), PredRoute::Sat | PredRoute::InPlace(_)))
        })
}

/// `π op c` or `c op π`: a path with Core XPath conditions (on any axis,
/// `attribute` included) compared with a number or string constant.  The
/// comparison is existential over the path's nodes (XPath 1.0 §3.4), so
/// `sat` pulls the nodes whose string passes back through the path like any
/// other Core condition.
fn compares_core_path(pred: &Expr) -> bool {
    let Expr::Relational { left, right, .. } = pred else {
        return false;
    };
    let constant = |e: &Expr| matches!(e, Expr::Number(_) | Expr::Literal(_));
    let path = |e: &Expr| match e {
        Expr::Path(path) => path
            .steps
            .iter()
            .all(|step| step.predicates.iter().all(is_core_condition)),
        _ => false,
    };
    (path(left) && constant(right)) || (constant(left) && path(right))
}

/// Can this predicate observe its candidate's proximity position?  It cannot
/// when it neither reads `position()`/`last()` nor may evaluate to a number
/// (a number predicate *is* a position test, §2.4).  A variable's or a
/// registered function's value is only known at run time, so either at the
/// top of a predicate counts as a number.
fn position_free(pred: &Expr) -> bool {
    let maybe_number = match pred {
        Expr::Variable(_) => true,
        Expr::FunctionCall { name, .. } if !is_supported(name) => true,
        other => other.expr_type() == ExprType::Number,
    };
    !maybe_number && !sensitivity(pred)
}

/// Is this the predicate-free `descendant-or-self::node()` that `//`
/// abbreviates?
fn expands_slash_slash(step: &Step) -> bool {
    step.axis == Axis::DescendantOrSelf
        && matches!(step.node_test, NodeTest::AnyNode)
        && step.predicates.is_empty()
}

/// Recognizes the unary string tests of [`PredRoute::InPlace`].
fn string_test(pred: &Expr) -> Option<StringTest> {
    fn source(e: &Expr) -> Option<StringSource> {
        let path = e.as_path().filter(|p| !p.absolute)?;
        let [step] = path.steps.as_slice() else {
            return None;
        };
        if !step.predicates.is_empty() {
            return None;
        }
        match (step.axis, &step.node_test) {
            (Axis::Attribute, NodeTest::Name(name)) => Some(StringSource::Attribute(name.clone())),
            (Axis::Child, NodeTest::Text) => Some(StringSource::Text),
            _ => None,
        }
    }
    fn constant(e: &Expr) -> Option<Value> {
        match e {
            Expr::Number(n) => Some(Value::Number(*n)),
            Expr::Literal(s) => Some(Value::Str(s.clone())),
            _ => None,
        }
    }
    let (source, check) = match pred {
        Expr::Relational { op, left, right } => {
            if let (Some(source), Some(c)) = (source(left), constant(right)) {
                (source, StringCheck::Compare(*op, c))
            } else {
                let (c, source) = (constant(left)?, source(right)?);
                (source, StringCheck::Compare(crate::value::flip(*op), c))
            }
        }
        Expr::FunctionCall { name, args } if name == "starts-with" => match args.as_slice() {
            [arg, Expr::Literal(prefix)] => (source(arg)?, StringCheck::StartsWith(prefix.clone())),
            _ => return None,
        },
        _ => return None,
    };
    Some(StringTest { source, check })
}

/// Position-sensitivity of a subexpression: does its value, for a fixed
/// context node, depend on the context position or size?  Location paths are
/// insensitive (their predicates receive fresh positions); scalar
/// expressions are sensitive iff they mention `position()`/`last()` outside
/// of any nested path.  This is what keeps the context-value tables small:
/// an insensitive opcode is keyed by node alone (the optimization behind the
/// improved bounds of the ICDE'03 follow-up paper).
fn sensitivity(expr: &Expr) -> bool {
    match expr {
        Expr::FunctionCall { name, args } => {
            name == "position" || name == "last" || args.iter().any(sensitivity)
        }
        Expr::Path(_) | Expr::Union(_, _) | Expr::Intersect(_, _) | Expr::Except(_, _) => false,
        // Node comparisons compare nodes of their operand *paths*, which
        // receive fresh positions — the value cannot depend on the outer
        // context position.
        Expr::NodeCompare { .. } => false,
        Expr::Variable(_) => false,
        Expr::Or(a, b)
        | Expr::And(a, b)
        | Expr::Relational {
            left: a, right: b, ..
        }
        | Expr::Arithmetic {
            left: a, right: b, ..
        } => sensitivity(a) || sensitivity(b),
        Expr::Not(e) | Expr::Neg(e) => sensitivity(e),
        Expr::Number(_) | Expr::Literal(_) => false,
    }
}

/// Functions the paper's Definition 6.1 removes from pXPath; queries using
/// them are rejected by the Singleton-Success machines.
const FORBIDDEN_FUNCTIONS: &[&str] = &[
    "count",
    "sum",
    "string",
    "number",
    "local-name",
    "namespace-uri",
    "name",
    "string-length",
    "normalize-space",
];

/// Registry-aware static type of a relational operand: a registered
/// function's declared return type is authoritative; the AST guess covers
/// everything else (including unknown names, which a later visit rejects
/// with the more precise [`EvalError::UnknownFunction`]).
fn operand_type(e: &Expr, registry: &FunctionRegistry) -> ExprType {
    if let Expr::FunctionCall { name, .. } = e {
        if !is_supported(name) {
            if let Some(f) = registry.lookup(name) {
                return f.signature.return_type();
            }
        }
    }
    e.expr_type()
}

/// Validates that a query lies in the fragment the NAuxPDA of Lemma 5.4 /
/// Theorem 6.2 handles — the [`PlanIr::ss_check`] verdict: single predicates
/// (no iterated predicate sequences), no forbidden functions, no relational
/// comparison with a boolean operand.  Negation is allowed (Theorems
/// 5.9/6.3: bounded negation stays in LOGCFL).  Calls to registered
/// functions declaring [`FragmentImpact::CoreSafe`] are admitted alongside
/// the built-ins; `General`-impact registrations are rejected (the whole
/// query has already been degraded to full XPath, which these machines do
/// not cover).
fn validate_singleton_success(query: &Expr, registry: &FunctionRegistry) -> Result<(), EvalError> {
    let mut error: Option<EvalError> = None;
    query.visit(&mut |e| {
        if error.is_some() {
            return;
        }
        match e {
            Expr::Path(p) => {
                for step in &p.steps {
                    if step.predicates.len() >= 2 {
                        error = Some(EvalError::fragment(
                            Fragment::PXPath,
                            "iterated predicates [e1][e2] (Definition 6.1(1))",
                        ));
                    }
                }
            }
            Expr::Relational { left, right, .. } => {
                let boolean_operand = matches!(operand_type(left, registry), ExprType::Boolean)
                    || matches!(operand_type(right, registry), ExprType::Boolean);
                if boolean_operand {
                    error = Some(EvalError::fragment(
                        Fragment::PXPath,
                        "a relational comparison with a boolean operand (Definition 6.1(3))",
                    ));
                }
            }
            Expr::FunctionCall { name, .. } => {
                if FORBIDDEN_FUNCTIONS.contains(&name.as_str()) {
                    error = Some(EvalError::fragment(
                        Fragment::PXPath,
                        format!("the {name}() function (Definition 6.1(2))"),
                    ));
                } else if !is_supported(name) {
                    match registry.lookup(name).map(|f| f.signature.fragment_impact()) {
                        Some(FragmentImpact::CoreSafe) => {}
                        Some(FragmentImpact::General) => {
                            error = Some(EvalError::fragment(
                                Fragment::PXPath,
                                format!(
                                    "the registered function {name}() (declared general impact)"
                                ),
                            ));
                        }
                        None => {
                            error = Some(EvalError::UnknownFunction { name: name.clone() });
                        }
                    }
                }
            }
            _ => {}
        }
    });
    match error {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpeval_syntax::parse_query;

    fn lower(src: &str) -> Arc<PlanIr> {
        let expr = parse_query(src).unwrap();
        let report = classify(&expr);
        PlanIr::lower(&expr, &report)
    }

    #[test]
    fn ops_are_flat_and_root_is_last() {
        let ir = lower("//a[child::b]/title | count(//c) = 1");
        assert_eq!(ir.root() as usize, ir.ops().len() - 1);
        // Every child reference points strictly backwards.
        for (i, op) in ir.ops().iter().enumerate() {
            let check = |c: OpId| assert!((c as usize) < i, "op {i} references forward id {c}");
            match &op.kind {
                OpKind::Union(a, b)
                | OpKind::Intersect(a, b)
                | OpKind::Except(a, b)
                | OpKind::Or(a, b)
                | OpKind::And(a, b)
                | OpKind::Relational {
                    left: a, right: b, ..
                }
                | OpKind::NodeCompare {
                    left: a, right: b, ..
                }
                | OpKind::Arithmetic {
                    left: a, right: b, ..
                } => {
                    check(*a);
                    check(*b);
                }
                OpKind::Not(e) | OpKind::Neg(e) => check(*e),
                OpKind::Call { args, .. } => ir.call_args(*args).iter().copied().for_each(check),
                _ => {}
            }
        }
    }

    #[test]
    fn name_tests_are_interned_globally() {
        let ir = lower("/lib/book[child::cite]/title");
        let mut seen = Vec::new();
        for step in ir.steps() {
            match &step.test {
                NodeTest::Resolved { name, id } => {
                    let id = id.expect("lowered tests carry a global id");
                    assert_eq!(xpeval_dom::intern::tag_name(id), name.as_str());
                    seen.push(name.clone());
                }
                other => panic!("unlowered test {other:?}"),
            }
        }
        seen.sort();
        assert_eq!(seen, ["book", "cite", "lib", "title"]);
        // The same name lowers to the same id in a different plan.
        let again = lower("//title");
        let (a, b) = match (&again.steps()[0].test, ir.steps().last().map(|s| &s.test)) {
            (NodeTest::Resolved { id: a, .. }, Some(NodeTest::Resolved { id: b, .. })) => (*a, *b),
            other => panic!("{other:?}"),
        };
        assert_eq!(a, b);
    }

    #[test]
    fn attribute_steps_keep_string_tests() {
        let ir = lower("//book[attribute::year = 2003]");
        let attr = ir
            .steps()
            .iter()
            .find(|s| s.axis == Axis::Attribute)
            .unwrap();
        assert_eq!(attr.test, NodeTest::Name("year".into()));
    }

    #[test]
    fn descendant_expansion_is_fused() {
        // /descendant-or-self::node()/child::a → descendant::a, same for b.
        let ir = lower("//a//b");
        assert_eq!(ir.fused_steps(), 2);
        let path = match &ir.op(ir.root()).kind {
            OpKind::Path { steps, .. } => ir.path_steps(*steps),
            other => panic!("{other:?}"),
        };
        assert_eq!(path.len(), 2);
        assert!(path.iter().all(|s| s.axis == Axis::Descendant && s.fused));
        // A trailing plain child step stays a child step.
        let ir = lower("//a/b");
        assert_eq!(ir.fused_steps(), 1);
        let path = match &ir.op(ir.root()).kind {
            OpKind::Path { steps, .. } => ir.path_steps(*steps),
            other => panic!("{other:?}"),
        };
        assert_eq!(path.len(), 2);
        assert!(path[0].axis == Axis::Descendant && path[0].fused);
        assert!(path[1].axis == Axis::Child && !path[1].fused);
        // A position-free predicate on the child step rides along...
        let ir = lower("//a[child::b]");
        assert_eq!(ir.fused_steps(), 1);
        let path = match &ir.op(ir.root()).kind {
            OpKind::Path { steps, .. } => ir.path_steps(*steps),
            other => panic!("{other:?}"),
        };
        assert_eq!(path.len(), 1);
        assert_eq!(path[0].axis, Axis::Descendant);
        assert_eq!(ir.step_preds(&path[0]).len(), 1);
        // ...one that reads a proximity position blocks the fusion: `//a[1]`
        // is the first `a` child of each node, not the first descendant.
        for src in ["//a[1]", "//a[child::b][last()]", "//a[$k]"] {
            let ir = lower(src);
            assert_eq!(ir.fused_steps(), 0, "{src}");
            let path = match &ir.op(ir.root()).kind {
                OpKind::Path { steps, .. } => ir.path_steps(*steps),
                other => panic!("{other:?}"),
            };
            assert_eq!(path[0].axis, Axis::DescendantOrSelf, "{src}");
        }
    }

    #[test]
    fn positional_picks_are_precomputed() {
        use PositionalPick::*;
        let picks = |src: &str| -> Vec<Option<PositionalPick>> {
            let ir = lower(src);
            let last = ir.steps().last().unwrap();
            ir.step_pred_routes(last)
                .iter()
                .map(|route| match route {
                    PredRoute::Pick(pick) => Some(*pick),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(picks("/r/a[2]"), [Some(Nth(2))]);
        assert_eq!(picks("/r/a[last()]"), [Some(Last)]);
        assert_eq!(picks("/r/a[position() = 3]"), [Some(Nth(3))]);
        assert_eq!(picks("/r/a[3 = position()]"), [Some(Nth(3))]);
        assert_eq!(picks("/r/a[position() >= 2]"), [None]);
        assert_eq!(picks("/r/a[0.5]"), [Some(Nth(0))]);
        // At any predicate index and on any axis.
        assert_eq!(
            picks("/r/a[b][last()][1]"),
            [None, Some(Last), Some(Nth(1))]
        );
        assert_eq!(picks("/r/a/ancestor::*[2]"), [Some(Nth(2))]);
        // `//a[1]`: the DoS step is not fused (predicate on child), and the
        // child step's pick is recognized.
        assert_eq!(picks("//a[1]"), [Some(Nth(1))]);
    }

    #[test]
    fn fragments_and_sensitivity_survive_lowering() {
        let ir = lower("//a[position() = last()]");
        // The root path sits in PWF; the positional predicate's relational
        // op is position-sensitive while the path itself is not.
        assert_eq!(ir.op(ir.root()).fragment, Fragment::PWF);
        assert!(!ir.op(ir.root()).sensitive);
        let rel = ir
            .ops()
            .iter()
            .find(|o| matches!(o.kind, OpKind::Relational { .. }))
            .unwrap();
        assert!(rel.sensitive);
        // A pure Core XPath subexpression is tagged as such even inside a
        // larger query.
        let ir = lower("//a[child::b and position() = 1]");
        let inner_path_frags: Vec<Fragment> = ir
            .ops()
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Path { .. }))
            .map(|o| o.fragment)
            .collect();
        assert!(inner_path_frags.contains(&Fragment::PF));
    }

    #[test]
    fn admission_verdicts_are_precomputed() {
        assert!(lower("//a[not(child::b)]").linear_check().is_ok());
        let err = lower("//a[position() = 1]").linear_check().unwrap_err();
        assert!(matches!(err, EvalError::UnsupportedFragment { .. }));
        assert!(lower("//a[position() = 1]").ss_check().is_ok());
        let err = lower("count(//a)").ss_check().unwrap_err();
        assert!(matches!(err, EvalError::UnsupportedFragment { .. }));
    }

    #[test]
    fn routes_are_decided_at_lowering() {
        use StepRoute::*;
        let routes = |src: &str| -> Vec<StepRoute> {
            let ir = lower(src);
            match &ir.op(ir.root()).kind {
                OpKind::Path { steps, .. } => ir.path_steps(*steps).iter().map(|s| s.route),
                other => panic!("{other:?}"),
            }
            .collect()
        };
        assert_eq!(
            routes("/r/a[1]/self::a/descendant::*"),
            [Set, Siblings, Set, Set]
        );
        assert_eq!(routes("/r/a[child::b][@x = 'v']"), [Set, Set]);
        assert_eq!(routes("/r/a[position() < last()]"), [Set, Siblings]);
        assert_eq!(routes("/r/a[child::b][2]"), [Set, Siblings]);
        assert_eq!(
            routes("/r/@*[2]/parent::*[1]/self::*[1]"),
            [Set, Siblings, Siblings, Siblings]
        );
        // Transitive and sibling axes list one candidate at different
        // positions for different context nodes.
        assert_eq!(routes("ancestor::*[1]"), [PerContext]);
        assert_eq!(
            routes("/r/a/following-sibling::*[1]"),
            [Set, Set, PerContext]
        );
        // A value only known at run time may be a number, i.e. a position test.
        assert_eq!(routes("/r/a[$k]"), [Set, Siblings]);
        assert_eq!(routes("/r/a[count(b)]"), [Set, Siblings]);
        assert_eq!(routes("/r/a[count(b) > 1]"), [Set, Set]);
        // `//` before a positional child step is folded into it; before a
        // position-free one it is fused, and before any other step it stays.
        assert_eq!(routes("//a[1]"), [Folded, Siblings]);
        assert_eq!(routes("/r//a[b][last()]/c"), [Set, Folded, Siblings, Set]);
        assert_eq!(routes("//a[b]"), [Set]);
        assert_eq!(routes("//@x[1]"), [Set, Siblings]);
        assert_eq!(routes("//ancestor::a[1]"), [Set, PerContext]);

        let pred_routes = |src: &str| -> Vec<PredRoute> {
            let ir = lower(src);
            let last = ir.steps().last().unwrap();
            ir.step_pred_routes(last).to_vec()
        };
        assert_eq!(pred_routes("/r/a[b and not(c)]"), [PredRoute::Sat]);
        assert_eq!(
            pred_routes("/r/a[b][2]"),
            [PredRoute::Sat, PredRoute::Pick(PositionalPick::Nth(2))]
        );
        assert_eq!(
            pred_routes("/r/a[position() = last() - 1]"),
            [PredRoute::PerCandidate]
        );
        assert_eq!(
            pred_routes("/r/a[b intersect c]"),
            [PredRoute::PerCandidate]
        );
        // Functions of the candidate's strings and relative paths go by
        // column.
        assert_eq!(pred_routes("/r/a[count(b) > 1]"), [PredRoute::Column]);
        // A path compared with a constant is a condition `sat` answers...
        assert_eq!(pred_routes("/r/a[b/@x = 'v']"), [PredRoute::Sat]);
        assert_eq!(pred_routes("/r/a[2 < b[c]]"), [PredRoute::Sat]);
        // ...a path compared with anything else, or one that reads
        // positions, is not.
        assert_eq!(pred_routes("/r/a[b/@x = @y]"), [PredRoute::PerCandidate]);
        assert_eq!(pred_routes("/r/a[b/@x = true()]"), [PredRoute::Column]);
        assert_eq!(pred_routes("/r/a[b[1] = 'v']"), [PredRoute::PerCandidate]);
        assert_eq!(
            pred_routes("/r/a[(b | c) = 'v']"),
            [PredRoute::PerCandidate]
        );
        let in_place = |src: &str| match pred_routes(src).as_slice() {
            [PredRoute::InPlace(test)] => test.to_string(),
            other => panic!("{src}: {other:?}"),
        };
        assert_eq!(in_place("/r/a[@x = 'v']"), "@x = 'v'");
        assert_eq!(in_place("/r/a[3 < @x]"), "@x > 3");
        assert_eq!(in_place("/r/a[text() != 'v']"), "text() != 'v'");
        assert_eq!(
            in_place("/r/a[starts-with(@x, 'v')]"),
            "starts-with(@x, 'v')"
        );
    }

    #[test]
    fn explain_lists_steps_with_their_routes() {
        assert_eq!(
            lower("//item[@id = 'item3']").explain(),
            "  descendant::item  set, filter @id = 'item3' in place\n"
        );
        assert_eq!(
            lower("/site/people/person[last()]/name").explain(),
            "  child::site  set\n  child::people  set\n  child::person  siblings, pick last()\n  child::name  set\n"
        );
        assert_eq!(
            lower("//item[bid][position() = 1]/name").explain(),
            "  descendant-or-self::node()  folded\n  child::item  siblings, filter child::bid \
             by sat, pick 1\n  child::name  set\n"
        );
        assert_eq!(
            lower("count(//item[bid/@increase > 6][bid])").explain(),
            "  descendant::item  set, filter (child::bid/attribute::increase > 6) by sat, \
             filter child::bid by sat\n"
        );
        assert_eq!(
            lower("//item[bid[1]/@increase > 6]").explain(),
            "  descendant::item  set, filter (child::bid[1]/attribute::increase > 6) per \
             candidate\n    child::bid  siblings, pick 1\n    attribute::increase  set\n"
        );
        let ir = lower("//item[bid][1]/name");
        assert_eq!(ir.route_labels()[ir.root() as usize], "folded,siblings,set");
        assert_eq!(lower("/r/a[1]").route_labels(), ["pick", "set,siblings"]);
        assert_eq!(
            lower("//item[bid][@id = 'item3']").route_labels(),
            ["sat", "set", "-", "in place", "set"]
        );
    }

    #[test]
    fn column_predicates_are_explained_and_labelled() {
        assert_eq!(
            lower("//item[count(bid) > 2]/name").explain(),
            "  descendant::item  set, filter (count(child::bid) > 2) by column\n  child::name  set\n"
        );
        assert_eq!(
            lower("//a[contains(b, 'x')]").route_labels(),
            ["set", "-", "column", "set"]
        );
    }

    #[test]
    fn final_step_tests_mirror_the_ast_bound() {
        let ir = lower("//a/b | //c");
        let tests = ir.final_step_tests().unwrap();
        let names: Vec<&str> = tests
            .iter()
            .map(|t| match t {
                NodeTest::Resolved { name, .. } => name.as_str(),
                _ => panic!(),
            })
            .collect();
        assert_eq!(names, ["b", "c"]);
        assert!(lower("//a/@x").final_step_tests().is_none());
        assert!(lower("//a/text()").final_step_tests().is_none());
        assert!(lower("count(//a)").final_step_tests().is_none());
    }

    #[test]
    fn set_operators_and_variables_lower_and_render() {
        let ir = lower("//a intersect //b");
        assert!(matches!(ir.op(ir.root()).kind, OpKind::Intersect(_, _)));
        assert!(ir.op(ir.root()).kind.is_nodeset());
        assert!(ir.display_op(ir.root()).contains(" intersect "));
        // Intersection of two core location paths keeps the linear bound.
        assert!(ir.linear_check().is_ok());
        assert!(lower("//a except //b").linear_check().is_ok());

        let ir = lower("//a except //b");
        assert!(matches!(ir.op(ir.root()).kind, OpKind::Except(_, _)));
        assert!(ir.display_op(ir.root()).contains(" except "));

        let ir = lower("//a << //b");
        assert!(
            matches!(&ir.op(ir.root()).kind, OpKind::NodeCompare { op, .. } if *op == NodeCompOp::Precedes)
        );
        assert!(!ir.op(ir.root()).kind.is_nodeset());
        assert!(ir.display_op(ir.root()).contains(" << "));

        let ir = lower("//row[@limit = $max]");
        assert!(ir
            .ops()
            .iter()
            .any(|o| matches!(&o.kind, OpKind::Variable(name) if name == "max")));
        assert!(ir.display_op(ir.root()).contains("$max"));
        // Variables push the query beyond Core XPath: no linear bound.
        assert!(ir.linear_check().is_err());
    }

    #[test]
    fn set_operator_results_are_bounded_by_the_left_arm() {
        let tests = |src: &str| -> Vec<String> {
            lower(src)
                .final_step_tests()
                .unwrap()
                .iter()
                .map(|t| match t {
                    NodeTest::Resolved { name, .. } => name.clone(),
                    other => panic!("{other:?}"),
                })
                .collect()
        };
        assert_eq!(tests("//a intersect //b"), ["a"]);
        assert_eq!(tests("//a except //b"), ["a"]);
        assert_eq!(tests("(//a | //b) except //c"), ["a", "b"]);
        assert!(lower("//a is //b").final_step_tests().is_none());
    }

    #[test]
    fn registered_return_types_override_the_ast_guess() {
        use crate::registry::{FragmentImpact, FunctionSignature};
        let mut registry = FunctionRegistry::new();
        registry.register(
            FunctionSignature::new("double", 1, Some(1))
                .returns_number()
                .impact(FragmentImpact::CoreSafe),
            |args, _, doc| Ok(crate::value::Value::Number(args[0].to_number(doc) * 2.0)),
        );
        let expr = parse_query("//a[double(@x) = 4]").unwrap();
        let report = classify(&expr);
        let ir = PlanIr::lower_with_registry(&expr, &report, &registry);
        let call_ty = ir
            .ops()
            .iter()
            .find(|o| matches!(&o.kind, OpKind::Call { name, .. } if name == "double"))
            .map(|o| o.ty)
            .unwrap();
        assert_eq!(call_ty, ExprType::Number);
        // With the registration, the SS machines admit the call...
        assert!(ir.ss_check().is_ok());
        // ...without it, they reject it as unknown.
        assert!(matches!(
            PlanIr::lower(&expr, &report).ss_check(),
            Err(EvalError::UnknownFunction { .. })
        ));
    }

    #[test]
    fn general_impact_registrations_are_not_admitted_to_singleton_success() {
        use crate::registry::FunctionSignature;
        // Known, but declared without a complexity claim: outside pXPath.
        let mut registry = FunctionRegistry::new();
        registry.register(FunctionSignature::new("double", 1, Some(1)), |_, _, _| {
            Ok(crate::value::Value::Str(String::new()))
        });
        let expr = parse_query("//a[double(@x) = 4]").unwrap();
        let ir = PlanIr::lower_with_registry(&expr, &classify(&expr), &registry);
        assert!(matches!(
            ir.ss_check(),
            Err(EvalError::UnsupportedFragment { .. })
        ));
    }

    #[test]
    fn display_round_trips_recognizably() {
        let ir = lower("//a[child::b and not(@x = 'v')]/c");
        let shown = ir.display_op(ir.root());
        for needle in ["descendant::a", "child::b", "not(", "'v'", "::c"] {
            assert!(shown.contains(needle), "{shown} missing {needle}");
        }
    }
}
