//! The interpreters of the flat plan IR — the only code that runs a query.
//!
//! One machine per result of the paper, each reading [`crate::ir::PlanIr`]:
//!
//! | IR machine | algorithm | strategy | selected |
//! |---|---|---|---|
//! | `IrEvaluator` (memoized) | context-value-table dynamic program (Proposition 2.7, Theorem 7.2); position-free steps set-at-a-time, positional one-hop steps (`//t[k]` included) set-at-a-time in sibling groups, Core XPath predicates and paths compared with a constant through `IrLinear::sat`, the other position-free predicates over the candidates' strings and relative paths by column, once for all candidates | `ContextValueTable` | auto, every fragment above Core XPath |
//! | `IrEvaluator` (eager) | per-occurrence re-evaluation with list semantics (Section 1) | `Naive` | pin only |
//! | `IrLinear` | set-at-a-time O(&#124;D&#124;·&#124;Q&#124;) Core XPath (Proposition 2.7) | `CoreXPathLinear` | auto, Core XPath and below |
//! | `IrSingletonSuccess` | the Lemma 5.4 / Table 1 NAuxPDA, simulated deterministically — the decision procedure behind `CompiledQuery::decide` | `SingletonSuccess` | pin only |
//! | `parallel_ir` | the Theorem 5.5 loop over per-worker checkers (Remark 5.6) | `Parallel` | pin only |
//!
//! What the machines do *not* redo at run time is the point: fragment
//! admission and Definition 6.1 validation are precomputed verdicts
//! ([`PlanIr::linear_check`] / [`PlanIr::ss_check`]), the route through
//! every step and predicate ([`StepRoute`], [`PredRoute`], positional picks
//! included) is pre-decided per step, and name tests arrive
//! pre-resolved to global [`xpeval_dom::TagId`]s, so the hot loops run
//! without a single string hash or AST pointer chase.
//!
//! `execute_ir` is the single strategy dispatch funnel: every
//! [`crate::CompiledQuery`] run path and every [`crate::Engine`] entry point
//! (a bare `&Expr` is compiled first) ends here.  The AST is consulted by
//! exactly one evaluator, [`crate::reference`], which no request path calls.

use crate::bindings::Bindings;
use crate::context::{Context, ContextKey, KeyMap};
use crate::engine::EvalStrategy;
use crate::error::EvalError;
use crate::functions::call_function;
use crate::ir::{
    OpId, OpKind, PlanIr, PredRoute, StepIr, StepRoute, StringCheck, StringSource, StringTest,
};
use crate::registry::FunctionRegistry;
use crate::sets::{self, NodeBitSet};
use crate::stats::EvalStats;
use crate::steps::predicate_holds;
use crate::value::{compare_string_atom, Value};
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::ops::Range;
use std::time::Instant;
use xpeval_dom::{Axis, AxisSource, Document, NodeId, NodeKind, NodeTest, PositionalPick};
use xpeval_obs::OpTrace;
use xpeval_syntax::ast::ExprType;
use xpeval_syntax::RelOp;

mod column;

/// Per-evaluation environment threaded through the IR machines: the
/// registered functions visible to `Call` opcodes whose name is not a
/// built-in, the external variable bindings visible to `Variable`
/// opcodes, and the telemetry hook.  Deliberately `Copy` — the parallel
/// strategy hands the same environment to every worker (handlers are
/// `Send + Sync` by the [`crate::registry::FunctionHandler`] bound, and
/// [`OpTrace`] is atomic, so workers record into one trace concurrently).
#[derive(Clone, Copy)]
pub(crate) struct EvalEnv<'e> {
    pub registry: &'e FunctionRegistry,
    pub bindings: &'e Bindings,
    /// Per-opcode trace accumulation cells when this evaluation is
    /// sampled; `None` when telemetry is off or the query was not
    /// sampled.  Every recording site guards on this `Option` — the
    /// disabled path costs exactly one predictable branch, no allocation
    /// and no lock.
    pub trace: Option<&'e OpTrace>,
}

#[cfg(test)]
impl EvalEnv<'static> {
    /// The empty environment: built-ins only, no variable bindings, no
    /// telemetry.  Production entry points build their environment from the
    /// plan's registry ([`crate::compile`]); tests use this shorthand.
    pub fn base() -> Self {
        EvalEnv {
            registry: FunctionRegistry::empty(),
            bindings: Bindings::empty(),
            trace: None,
        }
    }
}

/// The candidate width a traced op span reports for a computed value:
/// node-set cardinality for node sets, 1 for scalars, 0 for errors.
fn value_width(out: &Result<Value, EvalError>) -> u64 {
    match out {
        Ok(Value::NodeSet(nodes)) => nodes.len() as u64,
        Ok(_) => 1,
        Err(_) => 0,
    }
}

impl<'e> EvalEnv<'e> {
    /// Dispatches a function call: built-ins first (they cannot be
    /// shadowed), then the registry.  Registered handlers are guarded by
    /// their signature's arity check even at run time, so a handler never
    /// observes an argument count its signature rejects.
    fn call(
        &self,
        name: &str,
        args: Vec<Value>,
        ctx: &Context,
        doc: &Document,
    ) -> Result<Value, EvalError> {
        if crate::functions::is_supported(name) {
            return call_function(name, args, ctx, doc);
        }
        match self.registry.lookup(name) {
            Some(f) => {
                if !f.signature.accepts_arity(args.len()) {
                    return Err(EvalError::WrongArity {
                        name: name.to_string(),
                        expected: f.signature.arity_description(),
                        got: args.len(),
                    });
                }
                (f.handler)(&args, ctx, doc)
            }
            None => Err(EvalError::UnknownFunction {
                name: name.to_string(),
            }),
        }
    }

    /// Resolves a `$name` reference against the bindings.
    fn variable(&self, name: &str) -> Result<Value, EvalError> {
        self.bindings
            .get(name)
            .cloned()
            .ok_or_else(|| EvalError::UnboundVariable {
                name: name.to_string(),
            })
    }
}

/// Dispatches one evaluation of a lowered plan to a strategy.
pub(crate) fn execute_ir<S: AxisSource + ?Sized>(
    strategy: EvalStrategy,
    src: &S,
    ir: &PlanIr,
    ctx: Context,
    env: EvalEnv<'_>,
) -> Result<(Value, EvalStats), EvalError> {
    match strategy {
        EvalStrategy::ContextValueTable => {
            let mut ev = IrEvaluator::memoized(src, ir, env);
            let value = ev.eval(ir.root(), ctx)?;
            Ok((value, ev.stats()))
        }
        EvalStrategy::Naive => {
            let mut ev = IrEvaluator::eager(src, ir, env);
            let value = ev.eval(ir.root(), ctx)?;
            Ok((value, ev.stats()))
        }
        EvalStrategy::CoreXPathLinear => {
            // A scalar root inside Core XPath (`not(//a)`) passes the
            // fragment check and is rejected by the machine itself: it
            // computes node sets only.
            let ev = IrLinear::new(src, ir, env.trace)?;
            let nodes = ev.evaluate_from(ir.root(), &[ctx.node])?;
            Ok((Value::NodeSet(nodes), ev.stats()))
        }
        EvalStrategy::Parallel { threads } => parallel_ir(src, ir, threads.max(1), ctx, env),
        EvalStrategy::SingletonSuccess => {
            let checker = IrSingletonSuccess::new(src, ir, env)?;
            let value = checker.evaluate(ctx)?;
            Ok((value, checker.stats()))
        }
    }
}

/// The recursive tree-walk executor, in two modes sharing one step loop:
///
/// * **memoized** — the context-value-table dynamic program: every
///   `(opcode, context-key)` value is computed once (constants have no
///   table), paths use set semantics, `and`/`or` short-circuit.  A step is
///   walked by the route lowering chose for it: [`StepRoute::Set`] computes
///   one deduplicated candidate set for the whole context set — O(|D|)
///   however many contexts there are — and runs each predicate as one
///   filter pass over it; [`StepRoute::Siblings`] does the same for a
///   positional step on a one-hop axis, each candidate positioned among
///   its siblings (after a [`StepRoute::Folded`] `//`, the candidates are
///   the descendants of the contexts, so the `//` frontier is never built);
///   [`StepRoute::PerContext`] enumerates a transitive or sibling axis once
///   per context node.  Whatever the route, a predicate is answered by its
///   [`PredRoute`]: per candidate, by membership in a `sat` set computed
///   once (when the candidates are enough of the document to pay for it),
///   in place on the candidate's own strings, as a pick read off the
///   positions, or by column — one evaluation for all candidates, a column
///   of values per subexpression, no table entry (`column.rs`).
/// * **eager** — the naive baseline: every occurrence re-evaluates, paths
///   use list semantics with the max-intermediate-list watermark, `and`/`or`
///   evaluate both sides, and every step and predicate goes per context
///   node and per candidate whatever its route.
pub(crate) struct IrEvaluator<'d, 'q, S: AxisSource + ?Sized = Document> {
    src: &'d S,
    doc: &'d Document,
    ir: &'q PlanIr,
    env: EvalEnv<'q>,
    memoized: bool,
    memo: KeyMap<(OpId, ContextKey), Value>,
    stats: EvalStats,
    /// The set-at-a-time half of the table machine, built on first use:
    /// axis images of whole context sets and the `sat` sets of Core XPath
    /// predicates.
    sets: Option<IrLinear<'d, 'q, S>>,
    /// `sat` sets already computed: they hold at a node or not, whatever
    /// the context, so each is computed once per evaluator.
    sat_sets: KeyMap<OpId, NodeBitSet>,
    /// Candidates a [`PredRoute::Sat`] predicate was asked about one by one
    /// while its set was not yet worth computing.
    sat_asked: KeyMap<OpId, usize>,
}

/// A `sat` set costs up to one sweep of the document per step of its
/// predicate, so it is computed only once the candidates it has to answer
/// for add up to 1/`SAT_SWEEP_SHARE` of the document; the handful of
/// candidates of a lookup (`/site/people/person[1]/profile[interest]`) is
/// asked one by one.
const SAT_SWEEP_SHARE: usize = 1024;

impl<'d, 'q, S: AxisSource + ?Sized> IrEvaluator<'d, 'q, S> {
    /// Context-value-table mode (the `ContextValueTable` strategy).
    pub fn memoized(src: &'d S, ir: &'q PlanIr, env: EvalEnv<'q>) -> Self {
        Self::new(src, ir, env, true)
    }

    /// Naive re-evaluation mode (the `Naive` strategy).
    pub fn eager(src: &'d S, ir: &'q PlanIr, env: EvalEnv<'q>) -> Self {
        Self::new(src, ir, env, false)
    }

    fn new(src: &'d S, ir: &'q PlanIr, env: EvalEnv<'q>, memoized: bool) -> Self {
        IrEvaluator {
            src,
            doc: src.document(),
            ir,
            env,
            memoized,
            memo: KeyMap::default(),
            stats: EvalStats::default(),
            sets: None,
            sat_sets: KeyMap::default(),
            sat_asked: KeyMap::default(),
        }
    }

    /// Work counters accumulated so far (cumulative across calls when one
    /// evaluator is shared over a batch).  Set-at-a-time work counts the
    /// way the linear machine counts it: one evaluation per `sat` opcode,
    /// one step application per axis image.
    pub fn stats(&self) -> EvalStats {
        let sets = self
            .sets
            .as_ref()
            .map_or(EvalStats::default(), |s| s.stats());
        EvalStats {
            evaluations: self.stats.evaluations + sets.evaluations,
            step_context_evaluations: self.stats.step_context_evaluations
                + sets.step_context_evaluations,
            work: self.stats.work + sets.work,
            table_entries: self.memo.len(),
            ..self.stats
        }
    }

    /// Evaluates one opcode in a context.
    pub fn eval(&mut self, id: OpId, ctx: Context) -> Result<Value, EvalError> {
        let Some(trace) = self.env.trace else {
            return self.eval_inner(id, ctx);
        };
        let start = Instant::now();
        let out = self.eval_inner(id, ctx);
        trace.record(id, 1, value_width(&out), start.elapsed().as_nanos() as u64);
        out
    }

    fn eval_inner(&mut self, id: OpId, ctx: Context) -> Result<Value, EvalError> {
        let op = self.ir.op(id);
        if self.memoized
            && matches!(
                op.kind,
                OpKind::Number(_) | OpKind::Literal(_) | OpKind::Variable(_)
            )
        {
            // The value of a constant is the opcode itself: no table.
            return self.eval_op(id, ctx);
        }
        if self.memoized {
            let key = (id, ContextKey::for_context(ctx, op.sensitive));
            if let Some(v) = self.memo.get(&key) {
                self.stats.cache_hits += 1;
                return Ok(v.clone());
            }
            self.stats.evaluations += 1;
            let value = self.eval_op(id, ctx)?;
            self.memo.insert(key, value.clone());
            Ok(value)
        } else {
            self.stats.evaluations += 1;
            self.eval_op(id, ctx)
        }
    }

    fn eval_op(&mut self, id: OpId, ctx: Context) -> Result<Value, EvalError> {
        let ir = self.ir;
        match &ir.op(id).kind {
            OpKind::Number(n) => Ok(Value::Number(*n)),
            OpKind::Literal(s) => Ok(Value::Str(s.clone())),
            OpKind::Path { absolute, steps } => self.eval_path(*absolute, *steps, ctx),
            OpKind::Union(a, b) => {
                let mut left = self.eval(*a, ctx)?.into_nodes()?;
                let right = self.eval(*b, ctx)?.into_nodes()?;
                left.extend(right);
                Ok(Value::node_set(self.doc, left))
            }
            OpKind::Intersect(a, b) => {
                let left = self.eval(*a, ctx)?.into_nodes()?;
                let right = self.eval(*b, ctx)?.into_nodes()?;
                Ok(Value::NodeSet(sets::set_intersect(self.doc, left, right)))
            }
            OpKind::Except(a, b) => {
                let left = self.eval(*a, ctx)?.into_nodes()?;
                let right = self.eval(*b, ctx)?.into_nodes()?;
                Ok(Value::NodeSet(sets::set_except(self.doc, left, right)))
            }
            OpKind::NodeCompare { op, left, right } => {
                let l = self.eval(*left, ctx)?.into_nodes()?;
                let r = self.eval(*right, ctx)?.into_nodes()?;
                Ok(Value::Boolean(sets::node_compare(*op, self.doc, &l, &r)))
            }
            OpKind::Variable(name) => self.env.variable(name),
            OpKind::Or(a, b) => {
                if self.memoized {
                    if self.eval(*a, ctx)?.to_boolean() {
                        return Ok(Value::Boolean(true));
                    }
                    Ok(Value::Boolean(self.eval(*b, ctx)?.to_boolean()))
                } else {
                    let l = self.eval(*a, ctx)?.to_boolean();
                    let r = self.eval(*b, ctx)?.to_boolean();
                    Ok(Value::Boolean(l || r))
                }
            }
            OpKind::And(a, b) => {
                if self.memoized {
                    if !self.eval(*a, ctx)?.to_boolean() {
                        return Ok(Value::Boolean(false));
                    }
                    Ok(Value::Boolean(self.eval(*b, ctx)?.to_boolean()))
                } else {
                    let l = self.eval(*a, ctx)?.to_boolean();
                    let r = self.eval(*b, ctx)?.to_boolean();
                    Ok(Value::Boolean(l && r))
                }
            }
            OpKind::Not(e) => Ok(Value::Boolean(!self.eval(*e, ctx)?.to_boolean())),
            OpKind::Relational { op, left, right } => {
                let l = self.eval(*left, ctx)?;
                let r = self.eval(*right, ctx)?;
                Ok(Value::Boolean(l.compare(*op, &r, self.doc)))
            }
            OpKind::Arithmetic { op, left, right } => {
                let l = self.eval(*left, ctx)?.to_number(self.doc);
                let r = self.eval(*right, ctx)?.to_number(self.doc);
                Ok(Value::Number(op.apply(l, r)))
            }
            OpKind::Neg(e) => {
                let n = self.eval(*e, ctx)?.to_number(self.doc);
                Ok(Value::Number(-n))
            }
            OpKind::Call { name, args } => {
                let arg_ids = ir.call_args(*args);
                let mut values = Vec::with_capacity(arg_ids.len());
                for &a in arg_ids {
                    values.push(self.eval(a, ctx)?);
                }
                self.env.call(name, values, &ctx, self.doc)
            }
        }
    }

    fn eval_path(
        &mut self,
        absolute: bool,
        range: (u32, u32),
        ctx: Context,
    ) -> Result<Value, EvalError> {
        let ir = self.ir;
        let mut current: Vec<NodeId> = if absolute {
            vec![self.doc.root()]
        } else {
            vec![ctx.node]
        };
        if !self.memoized {
            // List semantics: duplicates preserved, watermark recorded.
            for step in ir.path_steps(range) {
                current = self.apply_step_per_context(&current, step)?;
                self.stats.max_intermediate_list =
                    self.stats.max_intermediate_list.max(current.len());
            }
            return Ok(Value::node_set(self.doc, current));
        }
        // Set semantics: document order, no duplicates, each step by its
        // route.  A folded step leaves its context nodes to the next one.
        let mut folded = false;
        for step in ir.path_steps(range) {
            current = match step.route {
                StepRoute::Folded => {
                    folded = true;
                    continue;
                }
                StepRoute::Set | StepRoute::Siblings => {
                    self.apply_step_to_set(&current, step, std::mem::take(&mut folded))?
                }
                StepRoute::PerContext => {
                    let mut next = self.apply_step_per_context(&current, step)?;
                    self.doc.sort_document_order(&mut next);
                    next
                }
            };
        }
        Ok(Value::NodeSet(current))
    }

    /// One location step walked from each context node in turn, the
    /// selections concatenated.
    fn apply_step_per_context(
        &mut self,
        contexts: &[NodeId],
        step: &StepIr,
    ) -> Result<Vec<NodeId>, EvalError> {
        let mut next = Vec::new();
        for &node in contexts {
            self.stats.step_context_evaluations += 1;
            next.append(&mut self.apply_step(node, step)?);
        }
        Ok(next)
    }

    /// One location step from one context node: candidates from the axis
    /// in document order, each predicate filtering in turn with proximity
    /// positions re-derived (XPath 1.0 §2.4).  A leading pick on the child
    /// axis is asked of the source's index first.
    fn apply_step(&mut self, from: NodeId, step: &StepIr) -> Result<Vec<NodeId>, EvalError> {
        let ir = self.ir;
        let routes = ir.step_pred_routes(step);
        let picked = match routes.first() {
            Some(PredRoute::Pick(pick)) if step.axis == Axis::Child => {
                self.src.positional_child_step(from, &step.test, *pick)
            }
            _ => None,
        };
        // An index that answered the pick answered the first predicate.
        let answered = usize::from(picked.is_some());
        let mut candidates =
            picked.unwrap_or_else(|| self.src.axis_step(from, step.axis, &step.test));
        let proximity = Proximity::List {
            reverse: step.axis.is_reverse(),
        };
        for (&pred, route) in ir.step_preds(step).iter().zip(routes).skip(answered) {
            candidates = self.filter(candidates, proximity, pred, route)?;
        }
        Ok(candidates)
    }

    /// A [`StepRoute::Set`] or [`StepRoute::Siblings`] step from a whole
    /// context set (document order, no duplicates): the distinct candidates
    /// are computed once — after a `folded` `descendant-or-self::node()`, as
    /// the descendants of `contexts` — then each predicate is one filter
    /// pass over them.  One context node keeps the walk of
    /// [`Self::apply_step`]: the source's indexed enumeration and positional
    /// picks, so a lookup is not taxed by a sweep of the document.
    fn apply_step_to_set(
        &mut self,
        contexts: &[NodeId],
        step: &StepIr,
        folded: bool,
    ) -> Result<Vec<NodeId>, EvalError> {
        match contexts {
            [] => return Ok(Vec::new()),
            [one] if !folded => {
                self.stats.step_context_evaluations += 1;
                return self.apply_step(*one, step);
            }
            _ => {}
        }
        let axis = if folded { Axis::Descendant } else { step.axis };
        let mut candidates = self.candidates(contexts, axis, &step.test);
        // A position-free step sees every candidate alone, and so does one on
        // `self`/`parent`, where each list is one node.  On `child` and
        // `attribute` a sibling step's list is a run of siblings: the stable
        // sort by parent makes the runs (the candidates are in document
        // order, so this is one pass unless contexts nest, `//a//a/b[1]`).
        let doc = self.doc;
        let proximity = if step.route == StepRoute::Siblings
            && matches!(step.axis, Axis::Child | Axis::Attribute)
        {
            candidates.sort_by_key(|&n| doc.parent(n).map(|p| doc.pre(p)));
            Proximity::Groups
        } else {
            Proximity::Alone
        };
        let ir = self.ir;
        for (&pred, route) in ir.step_preds(step).iter().zip(ir.step_pred_routes(step)) {
            candidates = self.filter(candidates, proximity, pred, route)?;
        }
        if proximity == Proximity::Groups {
            doc.sort_document_order(&mut candidates);
        }
        Ok(candidates)
    }

    /// The distinct nodes `axis::test` selects from a non-empty context set,
    /// in document order.
    fn candidates(&mut self, contexts: &[NodeId], axis: Axis, test: &NodeTest) -> Vec<NodeId> {
        match contexts {
            // One context node — after a fold, like the root of
            // `//person[1]` — keeps the source's indexed enumeration.
            [one] => {
                self.stats.step_context_evaluations += 1;
                self.src.axis_step(*one, axis, test)
            }
            // The one-hop axes enumerate what they select and little else:
            // about what an image costs from every `item` of a document, and
            // a tenth of it from a few contexts (`/site/regions/*/item[2]/bid`).
            // All images go into one vector.  From contexts in document
            // order, `attribute` and `self` images come out in order, and so
            // do `child` images unless contexts nest; `parent` repeats.
            many if matches!(
                axis,
                Axis::SelfAxis | Axis::Child | Axis::Parent | Axis::Attribute
            ) =>
            {
                self.stats.step_context_evaluations += many.len() as u64;
                let mut selected = Vec::new();
                for &node in many {
                    self.src.axis_step_into(node, axis, test, &mut selected);
                }
                let ordered = match axis {
                    Axis::Attribute | Axis::SelfAxis => true,
                    Axis::Child => is_in_document_order(self.doc, &selected),
                    _ => false,
                };
                if !ordered {
                    self.doc.sort_document_order(&mut selected);
                }
                selected
            }
            // The transitive axes overlap between contexts — per-node
            // enumeration is O(|contexts|·|D|) — so take one O(|D|) image.
            many => {
                let sets = self.sets();
                sets.nodes_in_order(&sets.step_image(axis, test, &sets.bits_of(many)))
            }
        }
    }

    /// Filters candidates by one predicate.  `proximity` says which
    /// per-context lists the candidates form, and so which proximity
    /// positions the predicate sees.
    fn filter(
        &mut self,
        mut candidates: Vec<NodeId>,
        proximity: Proximity,
        pred: OpId,
        route: &PredRoute,
    ) -> Result<Vec<NodeId>, EvalError> {
        let doc = self.doc;
        match route {
            PredRoute::Sat if self.memoized && self.sat_pays(pred, candidates.len()) => {
                let check = self.node_check(pred, route)?;
                candidates.retain(|&node| check.holds(node));
            }
            PredRoute::InPlace(_) if self.memoized => {
                self.wholesale(pred, &mut candidates, |this, candidates| {
                    let check = this.node_check(pred, route)?;
                    candidates.retain(|&node| check.holds(node));
                    Ok(())
                })?;
            }
            PredRoute::Column if self.memoized => {
                self.wholesale(pred, &mut candidates, |this, candidates| {
                    let mut holds = this.column(pred, candidates)?.booleans().into_iter();
                    candidates.retain(|_| holds.next() == Some(true));
                    Ok(())
                })?;
            }
            PredRoute::Pick(pick) if self.memoized => {
                self.wholesale(pred, &mut candidates, |_, candidates| {
                    let picked = proximity
                        .lists(doc, candidates)
                        .filter_map(|(list, reverse)| {
                            let from_start = match *pick {
                                PositionalPick::Nth(k) if (1..=list.len()).contains(&k) => k - 1,
                                PositionalPick::Nth(_) => return None,
                                PositionalPick::Last => list.len() - 1,
                            };
                            let idx = if reverse {
                                list.end - 1 - from_start
                            } else {
                                list.start + from_start
                            };
                            Some(candidates[idx])
                        })
                        .collect();
                    *candidates = picked;
                    Ok(())
                })?;
            }
            // Eager mode re-evaluates per occurrence by definition.
            _ => {
                let mut kept = Vec::with_capacity(candidates.len());
                for (list, reverse) in proximity.lists(doc, &candidates) {
                    let size = list.len();
                    for (idx, &node) in candidates[list].iter().enumerate() {
                        let position = if reverse { size - idx } else { idx + 1 };
                        let value = self.eval(pred, Context::new(node, position, size))?;
                        if predicate_holds(&value, position) {
                            kept.push(node);
                        }
                    }
                }
                candidates = kept;
            }
        }
        Ok(candidates)
    }

    /// Runs `answer`, a predicate answered for all candidates at once
    /// without a table entry, as one evaluation of that opcode.
    fn wholesale(
        &mut self,
        pred: OpId,
        candidates: &mut Vec<NodeId>,
        answer: impl FnOnce(&mut Self, &mut Vec<NodeId>) -> Result<(), EvalError>,
    ) -> Result<(), EvalError> {
        let start = self.env.trace.map(|_| Instant::now());
        let before = candidates.len() as u64;
        self.stats.evaluations += 1;
        answer(self, candidates)?;
        if let (Some(trace), Some(start)) = (self.env.trace, start) {
            let nanos = start.elapsed().as_nanos() as u64;
            trace.record(pred, before, candidates.len() as u64, nanos);
        }
        Ok(())
    }

    fn sets(&mut self) -> &IrLinear<'d, 'q, S> {
        let (src, ir, trace) = (self.src, self.ir, self.env.trace);
        self.sets
            .get_or_insert_with(|| IrLinear::unchecked(src, ir, trace))
    }

    /// Is the `sat` set of `pred` there already, or worth its sweeps now
    /// that `candidates` more nodes ask for it?
    fn sat_pays(&mut self, pred: OpId, candidates: usize) -> bool {
        if self.sat_sets.contains_key(&pred) {
            return true;
        }
        let asked = self.sat_asked.entry(pred).or_insert(0);
        *asked += candidates;
        *asked * SAT_SWEEP_SHARE >= self.doc.len()
    }

    /// The test that answers a [`PredRoute::Sat`] predicate (once its set
    /// pays) or a [`PredRoute::InPlace`] one node by node, without a table
    /// entry.
    fn node_check<'a>(
        &'a mut self,
        pred: OpId,
        route: &'a PredRoute,
    ) -> Result<NodeCheck<'a>, EvalError> {
        Ok(match route {
            PredRoute::Sat => NodeCheck::Sat(self.sat_set(pred)?),
            PredRoute::InPlace(test) => NodeCheck::InPlace(self.doc, test),
            _ => unreachable!("only `sat` and in-place predicates hold node by node"),
        })
    }

    /// The set of nodes at which a [`PredRoute::Sat`] predicate holds.
    fn sat_set(&mut self, pred: OpId) -> Result<&NodeBitSet, EvalError> {
        if !self.sat_sets.contains_key(&pred) {
            let holds = self.sets().sat(pred)?;
            self.sat_sets.insert(pred, holds);
        }
        Ok(&self.sat_sets[&pred])
    }
}

/// The per-context lists (XPath 1.0 §2.4) a filter's candidates form.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Proximity {
    /// One context node's axis enumeration, in document order; a reverse
    /// axis counts positions from the end.
    List { reverse: bool },
    /// Runs of siblings, each one context node's forward list.
    Groups,
    /// Each candidate alone, at `(node, 1, 1)`: the deduplicated candidates
    /// of a position-free step, or of a step on `self`/`parent`.
    Alone,
}

impl Proximity {
    /// The lists of `candidates`, as index ranges with their direction.
    fn lists<'a>(
        self,
        doc: &'a Document,
        candidates: &'a [NodeId],
    ) -> impl Iterator<Item = (Range<usize>, bool)> + 'a {
        let mut start = 0;
        std::iter::from_fn(move || {
            let rest = &candidates[start..];
            let first = *rest.first()?;
            let (len, reverse) = match self {
                Proximity::List { reverse } => (rest.len(), reverse),
                Proximity::Groups => {
                    let parent = doc.parent(first);
                    let len = rest.iter().position(|&n| doc.parent(n) != parent);
                    (len.unwrap_or(rest.len()), false)
                }
                Proximity::Alone => (1, false),
            };
            start += len;
            Some((start - len..start, reverse))
        })
    }
}

/// Are `nodes` strictly in document order (so also without repeats)?
fn is_in_document_order(doc: &Document, nodes: &[NodeId]) -> bool {
    nodes.windows(2).all(|w| doc.pre(w[0]) < doc.pre(w[1]))
}

/// A position-free predicate decided at one node without a table entry.
enum NodeCheck<'a> {
    /// Membership in the predicate's `sat` set.
    Sat(&'a NodeBitSet),
    /// The in-place string test.
    InPlace(&'a Document, &'a StringTest),
}

impl NodeCheck<'_> {
    fn holds(&self, node: NodeId) -> bool {
        match self {
            NodeCheck::Sat(holds) => holds.contains(node),
            NodeCheck::InPlace(doc, test) => holds_in_place(doc, test, node),
        }
    }
}

/// Decides a [`PredRoute::InPlace`] predicate at one candidate, on the
/// `&str`s the document already holds.
fn holds_in_place(doc: &Document, test: &StringTest, node: NodeId) -> bool {
    let mut attributes = doc.attributes(node).iter().copied();
    let mut child = doc.first_child(node);
    // The source's strings, lazily and in document order.
    let mut strings = std::iter::from_fn(|| match &test.source {
        StringSource::Attribute(name) => attributes.find_map(|a| match doc.kind(a) {
            NodeKind::Attribute { name: n, value } if **n == **name => Some(&**value),
            _ => None,
        }),
        StringSource::Text => loop {
            let c = child?;
            child = doc.next_sibling(c);
            if let NodeKind::Text { text } = doc.kind(c) {
                break Some(&**text);
            }
        },
    });
    match &test.check {
        StringCheck::Compare(op, atom) => {
            strings.any(|s| compare_string_atom(s, *op, atom.scalar()))
        }
        StringCheck::StartsWith(prefix) => strings.next().unwrap_or("").starts_with(prefix),
    }
}

/// Set-at-a-time executor for Core XPath (Proposition 2.7, after Gottlob &
/// Koch's VLDB'02 algorithm): node sets are bitsets over the document,
/// every location step is one image under the axis relation (at most
/// O(|D|) per step, and O(|S| log |S| + |L|) for a name test on a source
/// with tag lists and subtree intervals, [`sets::step_image`]), and
/// conditions are evaluated bottom-up as the set of nodes at which they
/// hold — negation is bitset complement.
/// Relative paths inside conditions run *backwards* through inverse axes
/// (`sat`), which is what avoids quadratic behaviour for predicates.
pub(crate) struct IrLinear<'d, 'q, S: AxisSource + ?Sized = Document> {
    src: &'d S,
    doc: &'d Document,
    /// Document-order listing of all nodes; borrowed from the prepared
    /// index when the source has one.
    order: Cow<'d, [NodeId]>,
    ir: &'q PlanIr,
    n: usize,
    trace: Option<&'q OpTrace>,
    /// Condition/node-set opcodes evaluated (set-at-a-time, so one per
    /// opcode per evaluation).
    evaluations: Cell<u64>,
    /// Location-step applications (one axis image per step, forward or
    /// inverse, each handling all contexts at once).
    steps_applied: Cell<u64>,
    /// Nodes and list entries the set functions scanned.
    work: Cell<u64>,
}

impl<'d, 'q, S: AxisSource + ?Sized> IrLinear<'d, 'q, S> {
    /// Fails with the plan's precomputed [`PlanIr::linear_check`] verdict
    /// when the query is not in Core XPath (Definition 2.5).
    pub fn new(src: &'d S, ir: &'q PlanIr, trace: Option<&'q OpTrace>) -> Result<Self, EvalError> {
        ir.linear_check()?;
        Ok(Self::unchecked(src, ir, trace))
    }

    /// The machine without the whole-plan admission check, for the table
    /// machine: it only hands over what lowering routed here — single steps
    /// and [`PredRoute::Sat`] predicates: Core XPath conditions, and paths
    /// compared with a constant.
    fn unchecked(src: &'d S, ir: &'q PlanIr, trace: Option<&'q OpTrace>) -> Self {
        let doc = src.document();
        IrLinear {
            src,
            doc,
            order: src.document_order(),
            ir,
            n: doc.len(),
            trace,
            evaluations: Cell::new(0),
            steps_applied: Cell::new(0),
            work: Cell::new(0),
        }
    }

    pub fn stats(&self) -> EvalStats {
        EvalStats {
            evaluations: self.evaluations.get(),
            step_context_evaluations: self.steps_applied.get(),
            work: self.work.get(),
            ..EvalStats::default()
        }
    }

    /// Evaluates a node-set opcode from a set of context nodes, returning
    /// the selected nodes in document order.
    pub fn evaluate_from(
        &self,
        root: OpId,
        context_nodes: &[NodeId],
    ) -> Result<Vec<NodeId>, EvalError> {
        Ok(self.nodes_in_order(&self.evaluate_bits(root, context_nodes)?))
    }

    /// The members of a node set, in document order.
    fn nodes_in_order(&self, set: &NodeBitSet) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = set.iter_nodes().collect();
        self.doc.sort_document_order(&mut nodes);
        nodes
    }

    fn bits_of(&self, nodes: &[NodeId]) -> NodeBitSet {
        let mut set = NodeBitSet::empty(self.n);
        for &node in nodes {
            set.insert(node);
        }
        set
    }

    /// [`IrLinear::evaluate_from`] returning the raw result **bitset**
    /// instead of a materialized vector — what [`crate::NodeStream`]
    /// streams from.
    pub fn evaluate_bits(
        &self,
        root: OpId,
        context_nodes: &[NodeId],
    ) -> Result<NodeBitSet, EvalError> {
        self.eval_nodeset(root, &self.bits_of(context_nodes))
    }

    fn eval_nodeset(&self, id: OpId, from: &NodeBitSet) -> Result<NodeBitSet, EvalError> {
        let Some(trace) = self.trace else {
            return self.eval_nodeset_inner(id, from);
        };
        let start = Instant::now();
        let out = self.eval_nodeset_inner(id, from);
        let width = out.as_ref().map_or(0, |s| s.count() as u64);
        trace.record(
            id,
            from.count() as u64,
            width,
            start.elapsed().as_nanos() as u64,
        );
        out
    }

    fn eval_nodeset_inner(&self, id: OpId, from: &NodeBitSet) -> Result<NodeBitSet, EvalError> {
        self.evaluations.set(self.evaluations.get() + 1);
        match &self.ir.op(id).kind {
            OpKind::Path { absolute, steps } => self.eval_path(*absolute, *steps, from),
            OpKind::Union(a, b) => {
                let mut left = self.eval_nodeset(*a, from)?;
                let right = self.eval_nodeset(*b, from)?;
                left.union_with(&right);
                Ok(left)
            }
            OpKind::Intersect(a, b) => {
                let mut left = self.eval_nodeset(*a, from)?;
                let right = self.eval_nodeset(*b, from)?;
                left.intersect_with(&right);
                Ok(left)
            }
            OpKind::Except(a, b) => {
                // A \ B as A ∩ complement(B): the set operators stay native
                // bitset operations, like everything else in this machine.
                let mut left = self.eval_nodeset(*a, from)?;
                let mut right = self.eval_nodeset(*b, from)?;
                right.complement();
                left.intersect_with(&right);
                Ok(left)
            }
            _ => Err(EvalError::fragment(
                xpeval_syntax::Fragment::CoreXPath,
                format!(
                    "non-path expression {} in node-set position",
                    self.ir.display_op(id)
                ),
            )),
        }
    }

    fn eval_path(
        &self,
        absolute: bool,
        range: (u32, u32),
        from: &NodeBitSet,
    ) -> Result<NodeBitSet, EvalError> {
        let mut current = if absolute {
            NodeBitSet::singleton(self.n, self.doc.root())
        } else {
            from.clone()
        };
        for step in self.ir.path_steps(range) {
            current = self.apply_step_forward(step, &current)?;
        }
        Ok(current)
    }

    fn apply_step_forward(
        &self,
        step: &StepIr,
        from: &NodeBitSet,
    ) -> Result<NodeBitSet, EvalError> {
        let mut image = self.step_image(step.axis, &step.test, from);
        for &pred in self.ir.step_preds(step) {
            image.intersect_with(&self.sat(pred)?);
        }
        Ok(image)
    }

    /// `axis::test` from a whole node set: one image under the axis
    /// relation, cut down to the node test.
    fn step_image(&self, axis: Axis, test: &NodeTest, from: &NodeBitSet) -> NodeBitSet {
        self.steps_applied.set(self.steps_applied.get() + 1);
        sets::step_image(self.src, &self.order, axis, test, from, &self.work)
    }

    fn sat(&self, id: OpId) -> Result<NodeBitSet, EvalError> {
        let Some(trace) = self.trace else {
            return self.sat_inner(id);
        };
        let start = Instant::now();
        let out = self.sat_inner(id);
        let width = out.as_ref().map_or(0, |s| s.count() as u64);
        // A `sat` set is context-free (computed over the whole document),
        // so the span's candidates-in is 0 by convention.
        trace.record(id, 0, width, start.elapsed().as_nanos() as u64);
        out
    }

    fn sat_inner(&self, id: OpId) -> Result<NodeBitSet, EvalError> {
        self.evaluations.set(self.evaluations.get() + 1);
        match &self.ir.op(id).kind {
            OpKind::And(a, b) => {
                let mut l = self.sat(*a)?;
                l.intersect_with(&self.sat(*b)?);
                Ok(l)
            }
            OpKind::Or(a, b) | OpKind::Union(a, b) => {
                let mut l = self.sat(*a)?;
                l.union_with(&self.sat(*b)?);
                Ok(l)
            }
            OpKind::Not(e) => {
                let mut s = self.sat(*e)?;
                s.complement();
                Ok(s)
            }
            OpKind::Path { absolute, steps } => self.sat_path(*absolute, *steps, None),
            OpKind::Relational { op, left, right } => {
                let ir = self.ir;
                let constant = |id: OpId| match &ir.op(id).kind {
                    OpKind::Number(n) => Some(Value::Number(*n)),
                    OpKind::Literal(s) => Some(Value::Str(s.clone())),
                    _ => None,
                };
                // Written with the path on the left.
                let (path, op, atom) = match (constant(*left), constant(*right)) {
                    (None, Some(atom)) => (*left, *op, atom),
                    (Some(atom), None) => (*right, crate::value::flip(*op), atom),
                    _ => return Err(self.not_a_condition(id)),
                };
                match &ir.op(path).kind {
                    OpKind::Path { absolute, steps } => {
                        self.sat_path(*absolute, *steps, Some((op, &atom)))
                    }
                    _ => Err(self.not_a_condition(id)),
                }
            }
            _ => Err(self.not_a_condition(id)),
        }
    }

    fn not_a_condition(&self, id: OpId) -> EvalError {
        EvalError::fragment(
            xpeval_syntax::Fragment::CoreXPath,
            format!("condition {}", self.ir.display_op(id)),
        )
    }

    /// `sat(π)` for a location path condition: the set of context nodes from
    /// which the path selects at least one node — with `compare`, one whose
    /// string value passes the comparison (XPath 1.0 §3.4: a node set
    /// compared with a constant is existential over its nodes).  Computed
    /// right-to-left through inverse axes, one pre-image per step.
    fn sat_path(
        &self,
        absolute: bool,
        range: (u32, u32),
        mut compare: Option<(RelOp, &Value)>,
    ) -> Result<NodeBitSet, EvalError> {
        // Nodes from which steps[i..] select something.  The empty suffix is
        // satisfied everywhere; walk backwards from there.
        let mut suffix_ok = NodeBitSet::full(self.n);
        for step in self.ir.path_steps(range).iter().rev() {
            self.steps_applied.set(self.steps_applied.get() + 1);
            // Nodes that match this step's test and predicates and already
            // satisfy the remaining suffix — the last step's, whose string
            // passes the comparison...
            let mut target = sets::test_set(self.src, &step.test, step.axis, &self.work);
            for &pred in self.ir.step_preds(step) {
                target.intersect_with(&self.sat(pred)?);
            }
            target.intersect_with(&suffix_ok);
            if let Some((op, atom)) = compare.take() {
                target = self.compared(&target, op, atom);
            }
            // ...and the nodes from which the axis reaches such a target.
            suffix_ok = sets::axis_preimage(self.src, &self.order, step.axis, &target, &self.work);
        }
        if let Some((op, atom)) = compare {
            // `/ op c`, the one path without steps: the root's own string.
            let root = NodeBitSet::singleton(self.n, self.doc.root());
            suffix_ok = self.compared(&root, op, atom);
        }
        if absolute {
            // An absolute path does not depend on the context node: it holds
            // at every node or at none.
            if suffix_ok.contains(self.doc.root()) {
                Ok(NodeBitSet::full(self.n))
            } else {
                Ok(NodeBitSet::empty(self.n))
            }
        } else {
            Ok(suffix_ok)
        }
    }

    /// The members of `set` whose string value compares true with `atom`.
    fn compared(&self, set: &NodeBitSet, op: RelOp, atom: &Value) -> NodeBitSet {
        let mut out = NodeBitSet::empty(self.n);
        let mut scanned = 0u64;
        for node in set.iter_nodes() {
            scanned += 1;
            if compare_string_atom(&self.doc.string_value_cow(node), op, atom.scalar()) {
                out.insert(node);
            }
        }
        self.work.set(self.work.get() + scanned);
        out
    }
}

/// The candidate result value of a Singleton-Success instance
/// (Definition 5.3: a single node for node-set queries, `true` for boolean
/// queries, or a number/string).
#[derive(Clone, Debug, PartialEq)]
pub enum SuccessTarget {
    /// Is this node a member of the query's node-set result?
    Node(NodeId),
    /// Does the boolean query evaluate to true?
    True,
    /// Does the number query evaluate to this number?
    Number(f64),
    /// Does the string query evaluate to this string?
    Str(String),
}

/// Deterministic simulation of the Lemma 5.4 NAuxPDA.
///
/// The paper proves pWF (and pXPath) evaluation is in LOGCFL by exhibiting
/// an NAuxPDA that decides **Singleton-Success** (Definition 5.3): given a
/// document, a query, a context triple and a candidate value `v`, does the
/// query evaluate to `v` (for node-set queries: to a set containing the
/// node `v`)?  The machine traverses the query, *guesses* a context and
/// result at every node and verifies the guesses against the local
/// consistency conditions of Table 1 — **without ever materializing a node
/// set**.  Here the guesses become exhaustive search with memoization, and
/// every row of Table 1 is one arm of the checker: `selects`/`can_reach`
/// for the location-path rows, `eval_boolean`/`eval_scalar` for the
/// operator rows.  The bounded-negation extension of Theorems 5.9/6.3 is
/// included: `not(π)` is decided by a loop over the document verifying that
/// no node is selected.
///
/// Admission (Definition 6.1) is the plan's precomputed
/// [`PlanIr::ss_check`] verdict.  The reach memo keys on the *arena index*
/// of a step, which is globally unique per lowered path.
pub(crate) struct IrSingletonSuccess<'d, 'q, S: AxisSource + ?Sized = Document> {
    src: &'d S,
    doc: &'d Document,
    ir: &'q PlanIr,
    env: EvalEnv<'q>,
    reach_memo: RefCell<HashMap<(u32, NodeId, NodeId), bool>>,
    bool_memo: RefCell<HashMap<(OpId, NodeId, usize, usize), bool>>,
    decisions: Cell<u64>,
    memo_hits: Cell<u64>,
    steps_applied: Cell<u64>,
}

impl<'d, 'q, S: AxisSource + ?Sized> IrSingletonSuccess<'d, 'q, S> {
    pub fn new(src: &'d S, ir: &'q PlanIr, env: EvalEnv<'q>) -> Result<Self, EvalError> {
        ir.ss_check()?;
        Ok(IrSingletonSuccess {
            src,
            doc: src.document(),
            ir,
            env,
            reach_memo: RefCell::new(HashMap::new()),
            bool_memo: RefCell::new(HashMap::new()),
            decisions: Cell::new(0),
            memo_hits: Cell::new(0),
            steps_applied: Cell::new(0),
        })
    }

    pub fn stats(&self) -> EvalStats {
        EvalStats {
            evaluations: self.decisions.get(),
            cache_hits: self.memo_hits.get(),
            step_context_evaluations: self.steps_applied.get(),
            ..EvalStats::default()
        }
    }

    /// Decides the Singleton-Success instance `(D, Q, ctx, target)` for the
    /// plan root.
    pub fn decide(&self, ctx: Context, target: &SuccessTarget) -> Result<bool, EvalError> {
        let root = self.ir.root();
        match target {
            SuccessTarget::Node(v) => self.selects(root, ctx, *v),
            SuccessTarget::True => self.eval_boolean(root, ctx),
            SuccessTarget::Number(n) => {
                let got = self.eval_scalar(root, ctx)?.to_number(self.doc);
                Ok(got == *n || (got.is_nan() && n.is_nan()))
            }
            SuccessTarget::Str(s) => {
                let got = self.eval_scalar(root, ctx)?.to_xpath_string(self.doc);
                Ok(&got == s)
            }
        }
    }

    /// Evaluates the plan root in `ctx`, routed by its static type.
    pub fn evaluate(&self, ctx: Context) -> Result<Value, EvalError> {
        let root = self.ir.root();
        Ok(match self.ir.op(root).ty {
            ExprType::NodeSet => Value::NodeSet(self.node_set(ctx)?),
            ExprType::Boolean => Value::Boolean(self.eval_boolean(root, ctx)?),
            _ => self.eval_scalar(root, ctx)?,
        })
    }

    /// Recovers the node-set result by deciding membership once per
    /// candidate (Theorem 5.5), pruned by the plan's final-step tests when
    /// the source has a tag index.
    pub fn node_set(&self, ctx: Context) -> Result<Vec<NodeId>, EvalError> {
        let root = self.ir.root();
        let mut out = Vec::new();
        match ir_result_candidates(self.ir, self.src) {
            Some(candidates) => {
                for v in candidates {
                    if self.selects(root, ctx, v)? {
                        out.push(v);
                    }
                }
            }
            None => {
                for v in self.doc.all_nodes() {
                    if self.selects(root, ctx, v)? {
                        out.push(v);
                    }
                }
            }
        }
        self.doc.sort_document_order(&mut out);
        Ok(out)
    }

    /// Membership test "node `target` is selected by opcode `id` from
    /// context `ctx`" — the `χ::t`, `/π`, `π1/π2` and `π1|π2` rows of
    /// Table 1, plus the derived set-operator rows.
    pub fn selects(&self, id: OpId, ctx: Context, target: NodeId) -> Result<bool, EvalError> {
        let Some(trace) = self.env.trace else {
            return self.selects_inner(id, ctx, target);
        };
        let start = Instant::now();
        let out = self.selects_inner(id, ctx, target);
        // One membership decision: one candidate in, 0 or 1 selected out —
        // summed over candidates the root op's out-count is the result size.
        let selected = matches!(out, Ok(true)) as u64;
        trace.record(id, 1, selected, start.elapsed().as_nanos() as u64);
        out
    }

    fn selects_inner(&self, id: OpId, ctx: Context, target: NodeId) -> Result<bool, EvalError> {
        match &self.ir.op(id).kind {
            OpKind::Path { absolute, steps } => {
                let start = if *absolute { self.doc.root() } else { ctx.node };
                self.can_reach(*steps, 0, start, target)
            }
            OpKind::Union(a, b) => {
                Ok(self.selects(*a, ctx, target)? || self.selects(*b, ctx, target)?)
            }
            // The set operators stay membership tests: `target` is in the
            // intersection (difference) exactly when both (only the left)
            // membership checks succeed.
            OpKind::Intersect(a, b) => {
                Ok(self.selects(*a, ctx, target)? && self.selects(*b, ctx, target)?)
            }
            OpKind::Except(a, b) => {
                Ok(self.selects(*a, ctx, target)? && !self.selects(*b, ctx, target)?)
            }
            _ => Err(EvalError::type_error(format!(
                "expression {} is not node-set typed",
                self.ir.display_op(id)
            ))),
        }
    }

    /// Row "π1/π2" of Table 1, iterated: can `target` be reached from `from`
    /// through steps `k..`?  The intermediate node (the paper's guessed
    /// `n2 = r1`) is searched exhaustively with memoization.  Per row
    /// "χ::t[e]" the candidate set of a step is only *iterated*, never
    /// stored, mirroring the log-space argument.
    fn can_reach(
        &self,
        range: (u32, u32),
        k: u32,
        from: NodeId,
        target: NodeId,
    ) -> Result<bool, EvalError> {
        if k == range.1 {
            return Ok(from == target);
        }
        let abs_ix = range.0 + k;
        let key = (abs_ix, from, target);
        if let Some(&b) = self.reach_memo.borrow().get(&key) {
            self.memo_hits.set(self.memo_hits.get() + 1);
            return Ok(b);
        }
        self.decisions.set(self.decisions.get() + 1);
        self.steps_applied.set(self.steps_applied.get() + 1);
        let step = &self.ir.steps()[abs_ix as usize];
        let preds = self.ir.step_preds(step);
        let candidates = self.src.axis_step(from, step.axis, &step.test);
        let size = candidates.len();
        let mut result = false;
        for (idx, &cand) in candidates.iter().enumerate() {
            let position = if step.axis.is_reverse() {
                size - idx
            } else {
                idx + 1
            };
            let mut ok = true;
            for &pred in preds {
                if !self.predicate_holds_at(pred, Context::new(cand, position, size))? {
                    ok = false;
                    break;
                }
            }
            if ok && self.can_reach(range, k + 1, cand, target)? {
                result = true;
                break;
            }
        }
        self.reach_memo.borrow_mut().insert(key, result);
        Ok(result)
    }

    fn predicate_holds_at(&self, pred: OpId, ctx: Context) -> Result<bool, EvalError> {
        if self.ir.op(pred).kind.is_nodeset() {
            return self.exists(pred, ctx);
        }
        let v = self.eval_scalar(pred, ctx)?;
        Ok(predicate_holds(&v, ctx.position))
    }

    /// Existential semantics of a location path in condition position
    /// (footnote 3 of the paper): at least one node must match.
    fn exists(&self, id: OpId, ctx: Context) -> Result<bool, EvalError> {
        for v in self.doc.all_nodes() {
            if self.selects(id, ctx, v)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// First selected node in document order, found by iteration rather
    /// than materialization (a node-set operand coerced to a string).
    fn first_selected(&self, id: OpId, ctx: Context) -> Result<Option<NodeId>, EvalError> {
        let mut best: Option<NodeId> = None;
        for v in self.doc.all_nodes() {
            if self.selects(id, ctx, v)? {
                best = match best {
                    Some(b) if self.doc.pre(b) <= self.doc.pre(v) => Some(b),
                    _ => Some(v),
                };
            }
        }
        Ok(best)
    }

    /// The `boolean(π)`, `e1 and e2`, `e1 or e2` and `e1 RelOp e2` rows,
    /// plus the bounded-negation extension of Theorem 5.9.
    pub fn eval_boolean(&self, id: OpId, ctx: Context) -> Result<bool, EvalError> {
        let Some(trace) = self.env.trace else {
            return self.eval_boolean_inner(id, ctx);
        };
        let start = Instant::now();
        let out = self.eval_boolean_inner(id, ctx);
        let truthy = matches!(out, Ok(true)) as u64;
        trace.record(id, 1, truthy, start.elapsed().as_nanos() as u64);
        out
    }

    fn eval_boolean_inner(&self, id: OpId, ctx: Context) -> Result<bool, EvalError> {
        let key = (id, ctx.node, ctx.position, ctx.size);
        if let Some(&b) = self.bool_memo.borrow().get(&key) {
            self.memo_hits.set(self.memo_hits.get() + 1);
            return Ok(b);
        }
        self.decisions.set(self.decisions.get() + 1);
        let out = match &self.ir.op(id).kind {
            OpKind::And(a, b) => self.eval_boolean(*a, ctx)? && self.eval_boolean(*b, ctx)?,
            OpKind::Or(a, b) => self.eval_boolean(*a, ctx)? || self.eval_boolean(*b, ctx)?,
            OpKind::Not(e) => !self.eval_boolean(*e, ctx)?,
            OpKind::Path { .. }
            | OpKind::Union(_, _)
            | OpKind::Intersect(_, _)
            | OpKind::Except(_, _) => self.exists(id, ctx)?,
            OpKind::Relational { op, left, right } => self.relational(*op, *left, *right, ctx)?,
            OpKind::NodeCompare { op, left, right } => {
                self.node_compare(*op, *left, *right, ctx)?
            }
            _ => self.eval_scalar(id, ctx)?.to_boolean(),
        };
        self.bool_memo.borrow_mut().insert(key, out);
        Ok(out)
    }

    /// `e1 RelOp e2` with existential semantics over node-set operands (the
    /// general `F[[Op]]` principle of Theorem 6.2).
    fn relational(
        &self,
        op: xpeval_syntax::RelOp,
        left: OpId,
        right: OpId,
        ctx: Context,
    ) -> Result<bool, EvalError> {
        let lvals = self.atomic_values(left, ctx)?;
        let rvals = self.atomic_values(right, ctx)?;
        for l in &lvals {
            for r in &rvals {
                if l.compare(op, r, self.doc) {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    /// Node comparison without materializing either operand: the engine's
    /// `is`/`<<`/`>>` semantics compare the *first* node (in document
    /// order) of each side, which [`Self::first_selected`] recovers one
    /// membership test at a time.  An empty side makes the comparison
    /// false.
    fn node_compare(
        &self,
        op: xpeval_syntax::NodeCompOp,
        left: OpId,
        right: OpId,
        ctx: Context,
    ) -> Result<bool, EvalError> {
        let (Some(l), Some(r)) = (
            self.first_selected(left, ctx)?,
            self.first_selected(right, ctx)?,
        ) else {
            return Ok(false);
        };
        Ok(op.apply(self.doc.pre(l), self.doc.pre(r)))
    }

    /// The atomic values an operand of a comparison contributes: a scalar
    /// itself, a node-set operand the string value of every selected node.
    fn atomic_values(&self, id: OpId, ctx: Context) -> Result<Vec<Value>, EvalError> {
        if self.ir.op(id).kind.is_nodeset() {
            let mut out = Vec::new();
            for v in self.doc.all_nodes() {
                if self.selects(id, ctx, v)? {
                    out.push(Value::Str(self.doc.string_value(v)));
                }
            }
            Ok(out)
        } else {
            Ok(vec![self.eval_scalar(id, ctx)?])
        }
    }

    /// Scalar (number / string / boolean) evaluation — the leaf rows
    /// `position()`, `last()`, constants, and the `ArithOp` row of Table 1.
    pub fn eval_scalar(&self, id: OpId, ctx: Context) -> Result<Value, EvalError> {
        match &self.ir.op(id).kind {
            OpKind::Number(n) => Ok(Value::Number(*n)),
            OpKind::Literal(s) => Ok(Value::Str(s.clone())),
            OpKind::Arithmetic { op, left, right } => {
                let l = self.scalar_number(*left, ctx)?;
                let r = self.scalar_number(*right, ctx)?;
                Ok(Value::Number(op.apply(l, r)))
            }
            OpKind::Neg(e) => Ok(Value::Number(-self.scalar_number(*e, ctx)?)),
            OpKind::And(_, _)
            | OpKind::Or(_, _)
            | OpKind::Not(_)
            | OpKind::Relational { .. }
            | OpKind::NodeCompare { .. } => Ok(Value::Boolean(self.eval_boolean(id, ctx)?)),
            OpKind::Path { .. }
            | OpKind::Union(_, _)
            | OpKind::Intersect(_, _)
            | OpKind::Except(_, _) => Err(EvalError::type_error(
                "node-set expression in scalar position (use selects/exists)",
            )),
            OpKind::Variable(name) => self.env.variable(name),
            OpKind::Call { name, args } => {
                let arg_ids = self.ir.call_args(*args);
                if name == "boolean"
                    && arg_ids.len() == 1
                    && self.ir.op(arg_ids[0]).kind.is_nodeset()
                {
                    return Ok(Value::Boolean(self.exists(arg_ids[0], ctx)?));
                }
                let mut values = Vec::with_capacity(arg_ids.len());
                for &a in arg_ids {
                    if self.ir.op(a).kind.is_nodeset() {
                        let s = match self.first_selected(a, ctx)? {
                            Some(n) => self.doc.string_value(n),
                            None => String::new(),
                        };
                        values.push(Value::Str(s));
                    } else {
                        values.push(self.eval_scalar(a, ctx)?);
                    }
                }
                self.env.call(name, values, &ctx, self.doc)
            }
        }
    }

    fn scalar_number(&self, id: OpId, ctx: Context) -> Result<f64, EvalError> {
        if self.ir.op(id).kind.is_nodeset() {
            let s = match self.first_selected(id, ctx)? {
                Some(n) => self.doc.string_value(n),
                None => String::new(),
            };
            return Ok(crate::value::parse_xpath_number(&s));
        }
        Ok(self.eval_scalar(id, ctx)?.to_number(self.doc))
    }
}

/// Every node the plan could possibly select, in document order: the
/// candidate universe bounded by the plan's final-step tests
/// ([`PlanIr::final_step_tests`]), preferring the pre-interned global tag
/// id over the string lookup when the source answers it.  `None` when the
/// result is not name-bounded or the source has no tag index.
fn ir_result_candidates<S: AxisSource + ?Sized>(ir: &PlanIr, src: &S) -> Option<Vec<NodeId>> {
    let tests = ir.final_step_tests()?;
    let mut out = Vec::new();
    for test in tests {
        let elements = match test {
            NodeTest::Resolved { name, id: Some(id) } => src
                .elements_by_tag(*id)
                .or_else(|| src.elements_named(name))?,
            NodeTest::Resolved { name, id: None } => src.elements_named(name)?,
            NodeTest::Name(name) => src.elements_named(name)?,
            _ => return None,
        };
        out.extend_from_slice(elements);
    }
    src.document().sort_document_order(&mut out);
    Some(out)
}

/// Data-parallel evaluation of the LOGCFL fragments (Remark 5.6: LOGCFL ⊆
/// NC²).  The Theorem 5.5 membership proof already exhibits the
/// decomposition — one independent Singleton-Success decision per candidate
/// node — so the candidates are chunked over worker threads, each with its
/// own [`IrSingletonSuccess`] checker.  Constructing a worker is nearly
/// free: the Definition 6.1 validation is the plan's precomputed verdict.
/// Scalar queries are a single decision and run on the calling thread.
pub(crate) fn parallel_ir<S: AxisSource + ?Sized>(
    src: &S,
    ir: &PlanIr,
    threads: usize,
    ctx: Context,
    env: EvalEnv<'_>,
) -> Result<(Value, EvalStats), EvalError> {
    let checker = IrSingletonSuccess::new(src, ir, env)?;
    if ir.op(ir.root()).ty != ExprType::NodeSet {
        let value = checker.evaluate(ctx)?;
        return Ok((value, checker.stats()));
    }
    drop(checker);
    let (nodes, stats) = parallel_node_set(src, ir, threads, ctx, env)?;
    Ok((Value::NodeSet(nodes), stats))
}

fn parallel_node_set<S: AxisSource + ?Sized>(
    src: &S,
    ir: &PlanIr,
    threads: usize,
    ctx: Context,
    env: EvalEnv<'_>,
) -> Result<(Vec<NodeId>, EvalStats), EvalError> {
    let doc = src.document();
    let candidates: Vec<NodeId> =
        ir_result_candidates(ir, src).unwrap_or_else(|| doc.all_nodes().collect());
    if threads <= 1 || candidates.len() < 2 {
        let checker = IrSingletonSuccess::new(src, ir, env)?;
        let nodes = checker.node_set(ctx)?;
        return Ok((nodes, checker.stats()));
    }

    let chunk_size = candidates.len().div_ceil(threads);
    let root = ir.root();
    let results: Result<Vec<(Vec<NodeId>, EvalStats)>, EvalError> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for chunk in candidates.chunks(chunk_size) {
            handles.push(
                scope.spawn(move || -> Result<(Vec<NodeId>, EvalStats), EvalError> {
                    // Each worker owns independent memo tables, mirroring the
                    // independent NAuxPDA runs of the membership proof.  The
                    // environment is shared: handlers are Send + Sync.
                    let checker = IrSingletonSuccess::new(src, ir, env)?;
                    let mut selected = Vec::new();
                    for &v in chunk {
                        if checker.selects(root, ctx, v)? {
                            selected.push(v);
                        }
                    }
                    Ok((selected, checker.stats()))
                }),
            );
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });

    let mut out: Vec<NodeId> = Vec::new();
    let mut stats = EvalStats::default();
    for (selected, worker_stats) in results? {
        out.extend(selected);
        stats += worker_stats;
    }
    doc.sort_document_order(&mut out);
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::PlanIr;
    use crate::reference::ReferenceEvaluator;
    use std::sync::Arc;
    use xpeval_dom::{parse_xml, PreparedDocument};
    use xpeval_syntax::{classify, parse_query, Expr};

    const BOOKS: &str = r#"<lib><book year="2001"><title>A</title></book><book year="2003"><title>B</title><cite/></book><paper year="2003"><title>C</title></paper></lib>"#;
    const TREE: &str =
        "<r><a><b><c/></b><b/><d/></a><a><b><c/></b><d/><b><c/></b></a><e><a><b/></a></e></r>";

    const STRATEGIES: [EvalStrategy; 5] = [
        EvalStrategy::ContextValueTable,
        EvalStrategy::Naive,
        EvalStrategy::CoreXPathLinear,
        EvalStrategy::Parallel { threads: 3 },
        EvalStrategy::SingletonSuccess,
    ];

    const QUERIES: [&str; 27] = [
        "/lib/book/title",
        "//title",
        "//a/b",
        "//book[@year = 2003]/title",
        "//book[position() = 2]",
        "//book[1]/title",
        "//book[last()]",
        "//book[position() + 1 = last()]",
        "//book[not(child::cite)]",
        "//b[parent::a and not(descendant::c)]",
        "//a[child::b or child::d]/child::b",
        "//title | //cite",
        "/descendant::a/child::b[descendant::c and not(following-sibling::d)]",
        "//c/preceding::b",
        "//b/following::d",
        "count(//book)",
        "string(//book[1]/title)",
        "boolean(//cite)",
        "not(//nosuch)",
        "1 + 2 * 3",
        "concat('x', string(count(//title)))",
        "//book[title = 'B']",
        "//title intersect //book/title",
        "(//title | //cite) except //paper/title",
        "//b except //a/b",
        "//book << //paper",
        "//cite is //book/cite",
    ];

    fn lower(src: &str) -> (Expr, Arc<PlanIr>) {
        let expr = parse_query(src).unwrap();
        let report = classify(&expr);
        let ir = PlanIr::lower(&expr, &report);
        (expr, ir)
    }

    fn run<S: AxisSource + ?Sized>(
        strategy: EvalStrategy,
        src: &S,
        ir: &PlanIr,
    ) -> Result<Value, EvalError> {
        let ctx = Context::root(src.document());
        execute_ir(strategy, src, ir, ctx, EvalEnv::base()).map(|(value, _)| value)
    }

    /// The differential test of the plan machines: every strategy, on a
    /// plain and on a prepared document, either computes exactly the value
    /// the AST-level reference evaluator computes or rejects the query — and
    /// it rejects precisely when the plan's precomputed admission verdict
    /// says so, identically on both sources.
    #[test]
    fn every_strategy_agrees_with_the_reference_on_both_sources() {
        for xml in [BOOKS, TREE] {
            let doc = parse_xml(xml).unwrap();
            let prepared = PreparedDocument::new(doc.clone());
            for q in QUERIES {
                let (expr, ir) = lower(q);
                let expected = ReferenceEvaluator::new(&doc).evaluate(&expr).unwrap();
                for strategy in STRATEGIES {
                    let admitted = match strategy {
                        EvalStrategy::ContextValueTable | EvalStrategy::Naive => true,
                        EvalStrategy::CoreXPathLinear => {
                            ir.linear_check().is_ok() && ir.op(ir.root()).kind.is_nodeset()
                        }
                        EvalStrategy::Parallel { .. } | EvalStrategy::SingletonSuccess => {
                            ir.ss_check().is_ok()
                        }
                    };
                    let plain = run(strategy, &doc, &ir);
                    let fast = run(strategy, &prepared, &ir);
                    if admitted {
                        assert_eq!(plain.as_ref(), Ok(&expected), "{q} via {strategy:?}");
                        assert_eq!(
                            fast.as_ref(),
                            Ok(&expected),
                            "{q} prepared via {strategy:?}"
                        );
                    } else {
                        let err = plain.expect_err(q);
                        assert!(
                            matches!(err, EvalError::UnsupportedFragment { .. }),
                            "{q} via {strategy:?}: {err:?}"
                        );
                        assert_eq!(fast, Err(err), "{q} prepared via {strategy:?}");
                    }
                }
            }
        }
    }

    /// The rejection texts, word for word: they are rendered from the plan
    /// alone (precomputed verdicts and [`PlanIr::display_op`]).
    #[test]
    fn rejections_are_rendered_from_the_plan() {
        let doc = parse_xml(BOOKS).unwrap();
        let message = |strategy, q: &str| run(strategy, &doc, &lower(q).1).unwrap_err().to_string();
        assert_eq!(
            message(EvalStrategy::CoreXPathLinear, "//book[position() = 2]"),
            "this evaluator supports only the Core XPath fragment; query uses a pWF construct"
        );
        // A scalar root inside Core XPath passes the fragment check; the
        // linear machine itself refuses it.
        assert_eq!(
            message(EvalStrategy::CoreXPathLinear, "not(//nosuch)"),
            "this evaluator supports only the Core XPath fragment; query uses non-path \
             expression not(/descendant::nosuch) in node-set position"
        );
        assert_eq!(
            message(EvalStrategy::CoreXPathLinear, "//book[child::cite = 'x']"),
            "this evaluator supports only the Core XPath fragment; query uses a pXPath construct"
        );
        for strategy in [
            EvalStrategy::SingletonSuccess,
            EvalStrategy::Parallel { threads: 2 },
        ] {
            assert_eq!(
                message(strategy, "count(//book)"),
                "this evaluator supports only the pXPath fragment; query uses the count() \
                 function (Definition 6.1(2))"
            );
            assert_eq!(
                message(strategy, "//book[child::cite][position() = 1]"),
                "this evaluator supports only the pXPath fragment; query uses iterated \
                 predicates [e1][e2] (Definition 6.1(1))"
            );
            assert_eq!(
                message(strategy, "//book[(child::cite and child::title) = true()]"),
                "this evaluator supports only the pXPath fragment; query uses a relational \
                 comparison with a boolean operand (Definition 6.1(3))"
            );
            assert_eq!(
                message(strategy, "frobnicate(1)"),
                "unknown function 'frobnicate()'"
            );
        }
    }

    #[test]
    fn memoized_mode_shares_context_value_tables() {
        let xml = "<r><a><b/></a><a><b/></a><a><b/></a></r>";
        let doc = parse_xml(xml).unwrap();
        // A per-context step (the predicate reads `position()`): the three
        // `b` contexts share their ancestors, and `count(child::b)` is
        // keyed by node alone, so it is computed once per ancestor.
        let (_, ir) = lower("//b/ancestor::*[position() <= count(child::b)]");
        let mut ev = IrEvaluator::memoized(&doc, &ir, EvalEnv::base());
        ev.eval(ir.root(), Context::root(&doc)).unwrap();
        let stats = ev.stats();
        assert!(stats.cache_hits > 0, "expected cache hits, got {stats:?}");
        assert!(stats.table_entries > 0);
    }

    #[test]
    fn eager_mode_reports_list_growth() {
        let doc = parse_xml("<a><b/><b/><b/></a>").unwrap();
        let (_, ir) = lower("//a/b/parent::a/b/parent::a/b");
        let mut ev = IrEvaluator::eager(&doc, &ir, EvalEnv::base());
        ev.eval(ir.root(), Context::root(&doc)).unwrap();
        let eager = ev.stats();
        assert!(eager.max_intermediate_list >= 27, "{eager:?}");
        let mut memo = IrEvaluator::memoized(&doc, &ir, EvalEnv::base());
        memo.eval(ir.root(), Context::root(&doc)).unwrap();
        assert!(
            memo.stats().step_context_evaluations < eager.step_context_evaluations,
            "memoized {} vs eager {}",
            memo.stats().step_context_evaluations,
            eager.step_context_evaluations
        );
    }

    #[test]
    fn fused_plans_evaluate_identically() {
        // `//a//b` fuses to descendant::a/descendant::b; all strategies must
        // agree with the reference on the unfused AST, on list- and
        // set-semantics alike.
        let doc = parse_xml(TREE).unwrap();
        let (expr, ir) = lower("//a//b");
        assert_eq!(ir.fused_steps(), 2);
        let expected = ReferenceEvaluator::new(&doc).evaluate(&expr).unwrap();
        for strategy in STRATEGIES {
            assert_eq!(
                run(strategy, &doc, &ir),
                Ok(expected.clone()),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn positional_picks_hit_the_prepared_index() {
        let doc = parse_xml(BOOKS).unwrap();
        let prepared = PreparedDocument::new(doc.clone());
        let (_, ir) = lower("/lib/book[2]/title");
        let mut ev = IrEvaluator::memoized(&prepared, &ir, EvalEnv::base());
        let v = ev.eval(ir.root(), Context::root(&doc)).unwrap();
        let nodes = v.expect_nodes();
        assert_eq!(nodes.len(), 1);
        assert_eq!(doc.string_value(nodes[0]), "B");
    }

    #[test]
    fn bindings_and_registered_functions_flow_through_the_ir() {
        use crate::registry::{FragmentImpact, FunctionSignature};
        let doc = parse_xml(BOOKS).unwrap();
        let ctx = Context::root(&doc);
        let mut registry = FunctionRegistry::new();
        registry.register(
            FunctionSignature::new("double", 1, Some(1))
                .returns_number()
                .impact(FragmentImpact::CoreSafe),
            |args, _, doc| Ok(Value::Number(args[0].to_number(doc) * 2.0)),
        );
        let bindings = Bindings::new().with_number("year", 2003.0);
        let env = EvalEnv {
            registry: &registry,
            bindings: &bindings,
            trace: None,
        };

        // Variables resolve from the bindings on the tree-walk machines...
        let expr = parse_query("//book[@year = $year]/title").unwrap();
        let report = classify(&expr);
        let ir = PlanIr::lower_with_registry(&expr, &report, &registry);
        for strategy in [EvalStrategy::ContextValueTable, EvalStrategy::Naive] {
            let (v, _) = execute_ir(strategy, &doc, &ir, ctx, env).unwrap();
            let nodes = v.expect_nodes();
            assert_eq!(nodes.len(), 1, "{strategy:?}");
            assert_eq!(doc.string_value(nodes[0]), "B", "{strategy:?}");
        }
        // ...and are an error under the empty environment.
        let err = run(EvalStrategy::ContextValueTable, &doc, &ir).unwrap_err();
        assert!(matches!(err, EvalError::UnboundVariable { .. }), "{err:?}");

        // A core-safe registered function runs on every admitted machine,
        // including the Singleton-Success workers of the parallel strategy.
        let expr = parse_query("//book[double(@year) = 4006]/title").unwrap();
        let report = classify(&expr);
        let ir = PlanIr::lower_with_registry(&expr, &report, &registry);
        for strategy in [
            EvalStrategy::ContextValueTable,
            EvalStrategy::Naive,
            EvalStrategy::SingletonSuccess,
            EvalStrategy::Parallel { threads: 2 },
        ] {
            let (v, _) = execute_ir(strategy, &doc, &ir, ctx, env).unwrap();
            let nodes = v.expect_nodes();
            assert_eq!(nodes.len(), 1, "{strategy:?}");
            assert_eq!(doc.string_value(nodes[0]), "B", "{strategy:?}");
        }
        // Without the registration the same plan reports the call unknown.
        let err = run(EvalStrategy::ContextValueTable, &doc, &ir).unwrap_err();
        assert!(matches!(err, EvalError::UnknownFunction { .. }), "{err:?}");
    }
}
