//! The compile-once half of the query pipeline.
//!
//! The paper splits XPath evaluation cost in two: a *per-query* static
//! analysis (parse, classify into the Figure 1 fragment lattice, pick the
//! algorithm its complexity result recommends) and a *per-document*
//! evaluation.  [`CompiledQuery`] materializes that split: it owns the
//! parsed and normalized AST, its [`FragmentReport`] and a pre-selected
//! [`EvalStrategy`] plan, and is **document-independent** — compile a query
//! once and [`run`](CompiledQuery::run) it against any number of documents
//! and contexts.
//!
//! All five evaluation strategies run the lowered [`PlanIr`] through one
//! funnel, [`crate::exec`]; see [`CompiledQuery::run_with_context`].  Batch
//! evaluation over many contexts ([`CompiledQuery::run_many`]) shares the
//! context-value tables across the whole batch, which is exactly the
//! amortization Proposition 2.7's polynomial bound comes from.
//!
//! The document side mirrors the split: [`CompiledQuery::run_prepared`]
//! evaluates against a [`PreparedDocument`] (axis indexes built once per
//! document) under the same plan — the machine is chosen from the query's
//! fragment alone, never from the document — and
//! [`CompiledQuery::run_streaming`] yields node-set results through a
//! [`NodeStream`] instead of materializing them.

use crate::bindings::Bindings;
use crate::context::Context;
use crate::engine::EvalStrategy;
use crate::error::EvalError;
use crate::exec::{execute_ir, EvalEnv, IrEvaluator, IrLinear, IrSingletonSuccess, SuccessTarget};
use crate::ir::PlanIr;
use crate::registry::{FragmentImpact, FunctionRegistry};
use crate::stats::EvalStats;
use crate::stream::NodeStream;
use crate::value::Value;
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;
use xpeval_dom::{AxisSource, Document, NodeId, PreparedDocument};
use xpeval_obs::{Counter, Histogram, OpTrace, QueryTrace, SpanKind, Telemetry, TraceSpan};
use xpeval_syntax::ast::ExprType;
use xpeval_syntax::normalize::expand_iterated_predicates;
use xpeval_syntax::{classify, Expr, Fragment, FragmentReport};

/// Options controlling compilation; the builder's
/// [`crate::EngineBuilder`] produces these from its configuration.
#[derive(Clone, Debug)]
pub struct CompileOptions {
    /// Fixed strategy, or `None` to let the classifier pick the one the
    /// paper recommends for the query's fragment.
    pub strategy: Option<EvalStrategy>,
    /// Apply the semantics-preserving Remark 5.2 normalization (merge
    /// iterated predicates) before classification.
    pub normalize: bool,
    /// The registered functions visible to the compiled query (empty by
    /// default).  Shared by `Arc` so every plan compiled by one
    /// [`crate::Engine`] points at the same registry.
    pub registry: Arc<FunctionRegistry>,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            strategy: None,
            normalize: true,
            registry: FunctionRegistry::empty_shared(),
        }
    }
}

/// The machine's available parallelism, for callers sizing a worker pool
/// (`xpeval-serve`) or an explicit [`EvalStrategy::Parallel`] pin.  The
/// `available_parallelism` syscall is made once and cached.
pub fn default_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The machine a classified query runs on when nothing is pinned: the
/// linear set-at-a-time algorithm for the Core XPath fragments
/// (Proposition 2.7) and the context-value-table machine, evaluating
/// position-free steps set-at-a-time, for everything above them.  The
/// LOGCFL membership of pWF/pXPath (Theorems 5.5/6.2) is a statement about
/// *parallel* complexity; its per-candidate Singleton-Success procedure
/// (Lemma 5.4) stays reachable as an explicit pin and behind
/// [`CompiledQuery::decide`], never as a sequential plan.
pub fn recommended_strategy(report: &FragmentReport) -> EvalStrategy {
    if report.fragment <= Fragment::CoreXPath {
        EvalStrategy::CoreXPathLinear
    } else {
        EvalStrategy::ContextValueTable
    }
}

/// The result of one evaluation: the XPath value, the unified work counters
/// of the strategy that ran, and the fragment the query was classified into.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryOutput {
    /// The XPath 1.0 value the query evaluated to.
    pub value: Value,
    /// Work counters of the evaluation (all-zero for strategies that do not
    /// count work; see [`EvalStats`]).
    pub stats: EvalStats,
    /// Least fragment of Figure 1 containing the compiled query.
    pub fragment: Fragment,
}

impl QueryOutput {
    /// Consumes the output, returning just the value.
    pub fn into_value(self) -> Value {
        self.value
    }
}

/// A query compiled once — parsed, normalized, classified, planned — and
/// evaluatable many times, against any document.
///
/// A plan is also **binding-independent**: a query referencing external
/// variables (`$name`) compiles to one plan, and each evaluation supplies
/// its own [`Bindings`] through the `*_bound` entry points — so one
/// compilation (and one plan-cache entry, one catalog artifact) serves any
/// number of parameterizations.
#[derive(Clone, Debug)]
pub struct CompiledQuery {
    source: String,
    expr: Expr,
    report: FragmentReport,
    plan: EvalStrategy,
    /// The flat instruction form every run path executes ([`crate::exec`]);
    /// lowered once at compile time and shared by reference across clones,
    /// specializations and catalog artifacts.
    ir: Arc<PlanIr>,
    /// The registered functions this plan may call, shared with the engine
    /// (or options) that compiled it.
    registry: Arc<FunctionRegistry>,
    /// The external variables the query references, sorted by name; the
    /// bound entry points check these against the supplied [`Bindings`]
    /// *before* any document work.
    variables: Vec<String>,
    /// Nanoseconds spent parsing, normalizing and classifying the query
    /// (everything in `build` except the lowering), stamped at compile
    /// time and reported as the `compile` span of sampled traces.
    compile_nanos: u64,
    /// Nanoseconds spent lowering the AST to [`PlanIr`] — the `lower`
    /// span of sampled traces.
    lower_nanos: u64,
    /// The telemetry handle sampled traces and latency metrics flow into;
    /// `None` (the default) keeps every run path telemetry-free.
    telemetry: Option<DispatchMeter>,
}

/// A telemetry handle plus the dispatch instruments resolved from its
/// registry once, at attach time — so the metered dispatch path touches
/// only atomics: no registry lock, no name lookup, no allocation.
#[derive(Clone, Debug)]
struct DispatchMeter {
    handle: Arc<Telemetry>,
    query_total: Arc<Counter>,
    query_errors_total: Arc<Counter>,
    query_latency_ns: Arc<Histogram>,
}

impl DispatchMeter {
    fn new(handle: Arc<Telemetry>) -> Self {
        let registry = handle.registry();
        DispatchMeter {
            query_total: registry.counter("query_total"),
            query_errors_total: registry.counter("query_errors_total"),
            query_latency_ns: registry.histogram("query_latency_ns"),
            handle,
        }
    }
}

impl PartialEq for CompiledQuery {
    fn eq(&self, other: &Self) -> bool {
        // Handlers are opaque, so registries compare by identity; every
        // plan compiled through one engine (or with default options) shares
        // one Arc, which is exactly the sameness that matters here.
        self.source == other.source
            && self.expr == other.expr
            && self.report == other.report
            && self.plan == other.plan
            && self.ir == other.ir
            && self.variables == other.variables
            && Arc::ptr_eq(&self.registry, &other.registry)
    }
}

impl CompiledQuery {
    /// Compiles a query string with default options: automatic strategy
    /// selection.
    pub fn compile(source: &str) -> Result<Self, EvalError> {
        Self::compile_with(source, &CompileOptions::default())
    }

    /// Compiles a query string with explicit options.
    ///
    /// Every function call in the query is validated here, at compile
    /// time: an unknown name (neither built-in nor registered in
    /// `options.registry`) is an [`EvalError::UnknownFunction`], and an
    /// argument count outside the signature's range is an
    /// [`EvalError::WrongArity`] — no document is touched either way.
    pub fn compile_with(source: &str, options: &CompileOptions) -> Result<Self, EvalError> {
        let expr = xpeval_syntax::parse_query(source)?;
        let compiled = Self::build(source.to_string(), expr, options);
        validate_calls(&compiled.expr, &compiled.registry)?;
        Ok(compiled)
    }

    /// Compiles a query string against a function registry, with the other
    /// options at their defaults.  Equivalent to [`CompiledQuery::compile_with`]
    /// with `options.registry = registry`.
    pub fn compile_with_registry(
        source: &str,
        registry: Arc<FunctionRegistry>,
    ) -> Result<Self, EvalError> {
        Self::compile_with(
            source,
            &CompileOptions {
                registry,
                ..CompileOptions::default()
            },
        )
    }

    /// Compiles an already-parsed expression with default options.
    ///
    /// Unlike the string entry points this is infallible — programmatically
    /// built expressions skip call validation (their calls are typically
    /// generated against the built-in library); a bad call is still caught
    /// at evaluation time.
    pub fn from_expr(expr: Expr) -> Self {
        Self::from_expr_with(expr, &CompileOptions::default())
    }

    /// Compiles an already-parsed expression with explicit options.
    pub fn from_expr_with(expr: Expr, options: &CompileOptions) -> Self {
        let source = expr.to_string();
        Self::build(source, expr, options)
    }

    fn build(source: String, expr: Expr, options: &CompileOptions) -> Self {
        let started = Instant::now();
        // Remark 5.2: merging iterated predicates is semantics-preserving
        // (the rewrite skips any step where it would not be) and can only
        // move the query *down* the fragment lattice, enabling a cheaper
        // plan — so classify after normalizing.
        let expr = if options.normalize {
            expand_iterated_predicates(&expr)
        } else {
            expr
        };
        let registry = options.registry.clone();
        let mut report = classify(&expr);
        // A registered function with no complexity claim defeats the
        // syntactic classifier: degrade the whole query to full XPath so
        // the plan never claims a bound the opaque handler cannot honour.
        // (CoreSafe registrations keep the classifier's verdict.)
        if report.fragment < Fragment::XPath && uses_general_registration(&expr, &registry) {
            report.fragment = Fragment::XPath;
        }
        let lower_started = Instant::now();
        let ir = PlanIr::lower_with_registry(&expr, &report, &registry);
        let lower_nanos = lower_started.elapsed().as_nanos() as u64;
        let variables = referenced_variables(&expr);
        let plan = options
            .strategy
            .unwrap_or_else(|| recommended_strategy(&report));
        let compile_nanos = (started.elapsed().as_nanos() as u64).saturating_sub(lower_nanos);
        CompiledQuery {
            source,
            expr,
            report,
            plan,
            ir,
            registry,
            variables,
            compile_nanos,
            lower_nanos,
            telemetry: None,
        }
    }

    /// The query string this plan was compiled from (the canonical printed
    /// form when compiled from an AST).
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The normalized AST.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// The full classification report (Figure 1).
    pub fn report(&self) -> &FragmentReport {
        &self.report
    }

    /// The flat instruction form of the plan — the program every run path
    /// executes.  Shared by reference across clones and specializations.
    pub fn ir(&self) -> &PlanIr {
        &self.ir
    }

    /// The shared handle to the lowered plan, for callers that cache plan
    /// artifacts (e.g. a document catalog) and want to witness sharing.
    pub fn plan_ir(&self) -> &Arc<PlanIr> {
        &self.ir
    }

    /// Least fragment of Figure 1 containing the query.
    pub fn fragment(&self) -> Fragment {
        self.report.fragment
    }

    /// The external variables (`$name`) the query references, sorted by
    /// name.  Empty for variable-free queries; every name listed here must
    /// be bound when evaluating through the `*_bound` entry points.
    pub fn variables(&self) -> &[String] {
        &self.variables
    }

    /// The function registry the plan was compiled against.
    pub fn registry(&self) -> &Arc<FunctionRegistry> {
        &self.registry
    }

    /// The environment of a binding-less evaluation: the plan's registry
    /// plus empty bindings (a `$name` reference then errors at the point of
    /// use).
    fn base_env(&self) -> EvalEnv<'_> {
        EvalEnv {
            registry: &self.registry,
            bindings: Bindings::empty(),
            trace: None,
        }
    }

    fn bound_env<'e>(&'e self, bindings: &'e Bindings) -> EvalEnv<'e> {
        EvalEnv {
            registry: &self.registry,
            bindings,
            trace: None,
        }
    }

    /// Errors eagerly — before any document work — when `bindings` is
    /// missing a variable the query references; otherwise the bindings
    /// with their node sets in `doc`'s document order.
    fn check_bindings<'b>(
        &self,
        bindings: &'b Bindings,
        doc: &Document,
    ) -> Result<Cow<'b, Bindings>, EvalError> {
        match self.variables.iter().find(|n| bindings.get(n).is_none()) {
            Some(missing) => Err(EvalError::UnboundVariable {
                name: missing.clone(),
            }),
            None => Ok(bindings.in_document_order(doc, &self.variables)),
        }
    }

    /// The single strategy-dispatch funnel of every run path: exactly
    /// `exec::execute_ir` when no telemetry is attached (one branch of
    /// overhead), and the metered path otherwise.
    fn dispatch<S: AxisSource + ?Sized>(
        &self,
        strategy: EvalStrategy,
        src: &S,
        ctx: Context,
        env: EvalEnv<'_>,
    ) -> Result<(Value, EvalStats), EvalError> {
        match &self.telemetry {
            None => execute_ir(strategy, src, &self.ir, ctx, env),
            Some(meter) => self.dispatch_observed(meter, strategy, src, ctx, env),
        }
    }

    /// The metered dispatch.  Every run bumps the query counters; runs
    /// picked by the handle's sampler are additionally timed into the
    /// `query_latency_ns` histogram and thread an [`OpTrace`] through the
    /// evaluation, retaining the resulting [`QueryTrace`].  Unsampled runs
    /// never read a clock or allocate.
    fn dispatch_observed<S: AxisSource + ?Sized>(
        &self,
        meter: &DispatchMeter,
        strategy: EvalStrategy,
        src: &S,
        ctx: Context,
        env: EvalEnv<'_>,
    ) -> Result<(Value, EvalStats), EvalError> {
        meter.query_total.inc();
        if !meter.handle.should_sample() {
            // Unsampled runs pay counters only — no clock reads, no
            // allocation; this is what keeps sampling-off telemetry within
            // the 2% bar `bench_telemetry` prices.
            let result = execute_ir(strategy, src, &self.ir, ctx, env);
            if result.is_err() {
                meter.query_errors_total.inc();
            }
            return result;
        }
        let trace = OpTrace::new(self.ir.ops().len());
        let env = EvalEnv {
            trace: Some(&trace),
            ..env
        };
        let start = Instant::now();
        let result = execute_ir(strategy, src, &self.ir, ctx, env);
        let elapsed = start.elapsed();
        if result.is_err() {
            meter.query_errors_total.inc();
        }
        meter.query_latency_ns.record_duration(elapsed);
        meter
            .handle
            .push_trace(self.build_trace(strategy, &trace, elapsed.as_nanos() as u64));
        result
    }

    /// Converts accumulated per-opcode cells into the span list of a
    /// [`QueryTrace`]: the compile and lower phases first, then one span
    /// per plan opcode *in plan order* — which is what makes the emitted
    /// span sequence identical across all five strategies by construction.
    fn build_trace(&self, strategy: EvalStrategy, trace: &OpTrace, total_nanos: u64) -> QueryTrace {
        let ops = self.ir.ops().len();
        let mut spans = Vec::with_capacity(ops + 2);
        let fragment = self.report.fragment.name();
        spans.push(TraceSpan::phase(
            SpanKind::Compile,
            "parse + classify",
            fragment,
            self.compile_nanos,
        ));
        spans.push(TraceSpan::phase(
            SpanKind::Lower,
            "lower to PlanIr",
            fragment,
            self.lower_nanos,
        ));
        let routes = self.ir.route_labels();
        for (id, route) in (0..ops as u32).zip(routes) {
            let (calls, candidates_in, candidates_out, nanos) = trace.cell(id);
            spans.push(TraceSpan {
                kind: SpanKind::Op,
                label: self.ir.display_op(id),
                op: Some(id),
                fragment: self.ir.op(id).fragment.name(),
                calls,
                candidates_in,
                candidates_out,
                route,
                nanos,
            });
        }
        QueryTrace {
            query: self.source.clone(),
            strategy: format!("{strategy:?}"),
            spans,
            total_nanos,
        }
    }

    /// Nanoseconds spent parsing, normalizing and classifying the query at
    /// compile time (excludes lowering; see
    /// [`CompiledQuery::lower_nanos`]).
    pub fn compile_nanos(&self) -> u64 {
        self.compile_nanos
    }

    /// Nanoseconds spent lowering the AST to the flat plan IR at compile
    /// time.
    pub fn lower_nanos(&self) -> u64 {
        self.lower_nanos
    }

    /// Attaches a telemetry handle: every later run through this plan
    /// counts into the handle's registry (`query_total`,
    /// `query_errors_total`), and runs picked by the handle's sampler are
    /// additionally timed into the `query_latency_ns` histogram and record
    /// a full [`QueryTrace`] — compile and lower spans plus one span per
    /// plan opcode.  The dispatch instruments are resolved from the registry
    /// here, once, so the metered run path touches only atomics — and with
    /// no handle attached (the default) the run paths stay allocation- and
    /// lock-free entirely.  An engine built with
    /// [`crate::EngineBuilder::telemetry`] attaches its handle to every
    /// plan it compiles.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(DispatchMeter::new(telemetry));
        self
    }

    /// The attached telemetry handle, if any.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref().map(|meter| &meter.handle)
    }

    /// The evaluation strategy this plan will dispatch to.
    pub fn strategy(&self) -> EvalStrategy {
        self.plan
    }

    /// The plan in words: `fragment → machine`, then one line per location
    /// step with the route lowering chose for it and for its predicates
    /// ([`PlanIr::explain`]) — what the table machine will do, before any
    /// document is seen.
    ///
    /// ```
    /// use xpeval_core::CompiledQuery;
    ///
    /// let q = CompiledQuery::compile("//person[starts-with(@id, 'p1')]/name").unwrap();
    /// assert_eq!(
    ///     q.explain(),
    ///     "pXPath → ContextValueTable\n  \
    ///      descendant::person  set, filter starts-with(@id, 'p1') in place\n  \
    ///      child::name  set\n"
    /// );
    /// ```
    pub fn explain(&self) -> String {
        format!(
            "{} → {:?}\n{}",
            self.report.fragment,
            self.plan,
            self.ir.explain()
        )
    }

    /// The same compiled query with a different strategy; classification is
    /// not redone.
    pub fn with_strategy(mut self, strategy: EvalStrategy) -> Self {
        self.plan = strategy;
        self
    }

    /// The strategy that will run against a concrete document source —
    /// the plan's own choice ([`CompiledQuery::strategy`]): the machine is
    /// picked from the query's fragment, whatever the document's size,
    /// indexes or capabilities.  Every `*_prepared` entry point dispatches
    /// through this.
    pub fn strategy_for_source<S: AxisSource + ?Sized>(&self, _src: &S) -> EvalStrategy {
        self.plan
    }

    /// A copy of this plan with its strategy choice pinned as an explicit
    /// one — the plan half of a catalog's (query × document) artifact.
    /// (Name tests need no per-document pinning either: the shared
    /// [`PlanIr`] already carries workspace-global [`xpeval_dom::TagId`]s.)
    pub fn specialize_for_source<S: AxisSource + ?Sized>(&self, src: &S) -> CompiledQuery {
        self.clone().with_strategy(self.strategy_for_source(src))
    }

    /// Evaluates against a document from the canonical root context.
    pub fn run(&self, doc: &Document) -> Result<QueryOutput, EvalError> {
        self.run_with_context(doc, Context::root(doc))
    }

    /// Evaluates against a prepared document from the canonical root
    /// context: axis enumeration and name tests are answered from the
    /// prepare-once indexes.
    pub fn run_prepared(&self, doc: &PreparedDocument) -> Result<QueryOutput, EvalError> {
        self.run_prepared_with_context(doc, Context::root(doc.document()))
    }

    /// Evaluates against a prepared document from an explicit context.
    pub fn run_prepared_with_context(
        &self,
        doc: &PreparedDocument,
        ctx: Context,
    ) -> Result<QueryOutput, EvalError> {
        let strategy = self.strategy_for_source(doc);
        let (value, stats) = self.dispatch(strategy, doc, ctx, self.base_env())?;
        Ok(QueryOutput {
            value,
            stats,
            fragment: self.report.fragment,
        })
    }

    /// Evaluates against a document from an explicit context triple.
    pub fn run_with_context(&self, doc: &Document, ctx: Context) -> Result<QueryOutput, EvalError> {
        let (value, stats) = self.dispatch(self.plan, doc, ctx, self.base_env())?;
        Ok(QueryOutput {
            value,
            stats,
            fragment: self.report.fragment,
        })
    }

    /// Evaluates with external variable bindings, from the canonical root
    /// context.  The plan itself is binding-independent — compile once,
    /// then call this any number of times with different [`Bindings`];
    /// every referenced variable must be bound or the call errors with
    /// [`EvalError::UnboundVariable`] before touching the document.
    pub fn run_bound(&self, doc: &Document, bindings: &Bindings) -> Result<QueryOutput, EvalError> {
        self.run_with_context_bound(doc, Context::root(doc), bindings)
    }

    /// [`CompiledQuery::run_bound`] from an explicit context triple.
    pub fn run_with_context_bound(
        &self,
        doc: &Document,
        ctx: Context,
        bindings: &Bindings,
    ) -> Result<QueryOutput, EvalError> {
        let bindings = self.check_bindings(bindings, doc)?;
        let (value, stats) = self.dispatch(self.plan, doc, ctx, self.bound_env(&bindings))?;
        Ok(QueryOutput {
            value,
            stats,
            fragment: self.report.fragment,
        })
    }

    /// [`CompiledQuery::run_bound`] over a prepared document.
    pub fn run_prepared_bound(
        &self,
        doc: &PreparedDocument,
        bindings: &Bindings,
    ) -> Result<QueryOutput, EvalError> {
        self.run_prepared_with_context_bound(doc, Context::root(doc.document()), bindings)
    }

    /// [`CompiledQuery::run_prepared_bound`] from an explicit context.
    pub fn run_prepared_with_context_bound(
        &self,
        doc: &PreparedDocument,
        ctx: Context,
        bindings: &Bindings,
    ) -> Result<QueryOutput, EvalError> {
        let bindings = self.check_bindings(bindings, doc.document())?;
        let strategy = self.strategy_for_source(doc);
        let (value, stats) = self.dispatch(strategy, doc, ctx, self.bound_env(&bindings))?;
        Ok(QueryOutput {
            value,
            stats,
            fragment: self.report.fragment,
        })
    }

    /// Evaluates a node-set query from the root context, yielding matches
    /// through a [`NodeStream`] instead of materializing a result vector —
    /// see the [`crate::stream`] module docs for which plans stream lazily.
    ///
    /// Returns a [`EvalError::TypeError`] for queries that do not evaluate
    /// to a node set.
    pub fn run_streaming<'s>(&'s self, doc: &'s Document) -> Result<NodeStream<'s>, EvalError> {
        self.stream_on(doc, self.plan)
    }

    /// [`CompiledQuery::run_streaming`] over a prepared document: the
    /// stream borrows the precomputed document-order table.
    pub fn run_streaming_prepared<'s>(
        &'s self,
        doc: &'s PreparedDocument,
    ) -> Result<NodeStream<'s>, EvalError> {
        self.stream_on(doc, self.strategy_for_source(doc))
    }

    fn stream_on<'s, S: AxisSource>(
        &'s self,
        src: &'s S,
        strategy: EvalStrategy,
    ) -> Result<NodeStream<'s>, EvalError> {
        let ctx = Context::root(src.document());
        match strategy {
            EvalStrategy::CoreXPathLinear => {
                // Set-at-a-time evaluation ends in a bitset; stream its
                // members without collecting them.
                let ev = IrLinear::new(src, &self.ir, None)?;
                let bits = ev.evaluate_bits(self.ir.root(), &[ctx.node])?;
                Ok(NodeStream::from_bits(bits, src.document_order()))
            }
            EvalStrategy::SingletonSuccess | EvalStrategy::Parallel { .. } => {
                // Theorem 5.5 as an iterator: one Singleton-Success
                // decision per candidate, made when the stream reaches it.
                // (The parallel plan streams through the same sequential
                // loop — a stream is consumed in order anyway.)  The
                // checker carries the plan's registry, so queries over
                // registered functions stream like everything else.
                if self.ir.op(self.ir.root()).ty != ExprType::NodeSet {
                    return Err(EvalError::type_error(format!(
                        "streaming requires a node-set query, got {}",
                        self.source
                    )));
                }
                let checker = IrSingletonSuccess::new(src, &self.ir, self.base_env())?;
                let root = self.ir.root();
                Ok(NodeStream::from_decide(
                    src.document_order(),
                    Box::new(move |node: NodeId| checker.selects(root, ctx, node)),
                ))
            }
            EvalStrategy::ContextValueTable | EvalStrategy::Naive => {
                // No incremental formulation; materialize, then stream.
                let (value, _) = self.dispatch(strategy, src, ctx, self.base_env())?;
                Ok(NodeStream::from_vec(value.into_nodes()?))
            }
        }
    }

    /// Visitor form of [`CompiledQuery::run_streaming`]: calls `visit` for
    /// every match in document order until it returns `false`.  Returns the
    /// number of matches visited.
    pub fn run_visit<F>(&self, doc: &Document, visit: F) -> Result<usize, EvalError>
    where
        F: FnMut(NodeId) -> bool,
    {
        Self::drive(self.run_streaming(doc)?, visit)
    }

    /// Visitor form of [`CompiledQuery::run_streaming_prepared`].
    pub fn run_visit_prepared<F>(
        &self,
        doc: &PreparedDocument,
        visit: F,
    ) -> Result<usize, EvalError>
    where
        F: FnMut(NodeId) -> bool,
    {
        Self::drive(self.run_streaming_prepared(doc)?, visit)
    }

    fn drive<F>(stream: NodeStream<'_>, mut visit: F) -> Result<usize, EvalError>
    where
        F: FnMut(NodeId) -> bool,
    {
        let mut visited = 0;
        for node in stream {
            visited += 1;
            if !visit(node?) {
                break;
            }
        }
        Ok(visited)
    }

    /// Batch evaluation: runs the query once per context, in order.
    ///
    /// For the [`EvalStrategy::ContextValueTable`] plan a single evaluator
    /// (and hence a single set of context-value tables) is shared across the
    /// whole batch, so repeated subexpression/context pairs are computed
    /// only once — per-context stats are cumulative in that case.
    pub fn run_many(
        &self,
        doc: &Document,
        contexts: &[Context],
    ) -> Result<Vec<QueryOutput>, EvalError> {
        self.run_many_on(doc, self.plan, contexts, self.base_env())
    }

    /// [`CompiledQuery::run_many`] over a prepared document.
    pub fn run_many_prepared(
        &self,
        doc: &PreparedDocument,
        contexts: &[Context],
    ) -> Result<Vec<QueryOutput>, EvalError> {
        self.run_many_on(
            doc,
            self.strategy_for_source(doc),
            contexts,
            self.base_env(),
        )
    }

    /// [`CompiledQuery::run_many`] with external variable bindings (one
    /// binding set for the whole batch; recompile nothing to change it).
    pub fn run_many_bound(
        &self,
        doc: &Document,
        contexts: &[Context],
        bindings: &Bindings,
    ) -> Result<Vec<QueryOutput>, EvalError> {
        let bindings = self.check_bindings(bindings, doc)?;
        self.run_many_on(doc, self.plan, contexts, self.bound_env(&bindings))
    }

    fn run_many_on<S: AxisSource>(
        &self,
        src: &S,
        strategy: EvalStrategy,
        contexts: &[Context],
        env: EvalEnv<'_>,
    ) -> Result<Vec<QueryOutput>, EvalError> {
        match strategy {
            EvalStrategy::ContextValueTable => {
                let mut ev = IrEvaluator::memoized(src, &self.ir, env);
                let mut out = Vec::with_capacity(contexts.len());
                for &ctx in contexts {
                    let value = ev.eval(self.ir.root(), ctx)?;
                    out.push(QueryOutput {
                        value,
                        stats: ev.stats(),
                        fragment: self.report.fragment,
                    });
                }
                Ok(out)
            }
            _ => contexts
                .iter()
                .map(|&ctx| {
                    let (value, stats) = self.dispatch(strategy, src, ctx, env)?;
                    Ok(QueryOutput {
                        value,
                        stats,
                        fragment: self.report.fragment,
                    })
                })
                .collect(),
        }
    }

    /// Decides one **Singleton-Success** instance (Definition 5.3) without
    /// materializing the result: does the query, evaluated in `ctx`, select
    /// the node / produce the value `target` names?  Runs the Lemma 5.4
    /// machine whatever strategy the plan is pinned to, so the query must
    /// pass its admission check (pWF/pXPath, Definition 6.1).
    pub fn decide<S: AxisSource + ?Sized>(
        &self,
        src: &S,
        ctx: Context,
        target: &SuccessTarget,
    ) -> Result<bool, EvalError> {
        IrSingletonSuccess::new(src, &self.ir, self.base_env())?.decide(ctx, target)
    }

    /// Convenience: evaluates from the root context and returns just the
    /// value.
    pub fn value(&self, doc: &Document) -> Result<Value, EvalError> {
        self.run(doc).map(|o| o.value)
    }
}

impl std::fmt::Display for CompiledQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{}; {:?}]",
            self.source, self.report.fragment, self.plan
        )
    }
}

/// Calls `f` on every subexpression of `expr`, including predicate
/// expressions inside location steps.
fn walk_expr<'e>(expr: &'e Expr, f: &mut impl FnMut(&'e Expr)) {
    f(expr);
    match expr {
        Expr::Path(path) => {
            for step in &path.steps {
                for pred in &step.predicates {
                    walk_expr(pred, f);
                }
            }
        }
        Expr::Union(a, b)
        | Expr::Intersect(a, b)
        | Expr::Except(a, b)
        | Expr::Or(a, b)
        | Expr::And(a, b)
        | Expr::Relational {
            left: a, right: b, ..
        }
        | Expr::NodeCompare {
            left: a, right: b, ..
        }
        | Expr::Arithmetic {
            left: a, right: b, ..
        } => {
            walk_expr(a, f);
            walk_expr(b, f);
        }
        Expr::Not(e) | Expr::Neg(e) => walk_expr(e, f),
        Expr::FunctionCall { args, .. } => {
            for arg in args {
                walk_expr(arg, f);
            }
        }
        Expr::Number(_) | Expr::Literal(_) | Expr::Variable(_) => {}
    }
}

/// Compile-time validation of every function call in the query: the name
/// must be a built-in or a registration, and the argument count must be in
/// the signature's accepted range.
fn validate_calls(expr: &Expr, registry: &FunctionRegistry) -> Result<(), EvalError> {
    let mut first_err: Option<EvalError> = None;
    walk_expr(expr, &mut |e| {
        if first_err.is_some() {
            return;
        }
        let Expr::FunctionCall { name, args } = e else {
            return;
        };
        if let Some((min, max)) = crate::functions::builtin_signature(name) {
            if args.len() < min || max.is_some_and(|max| args.len() > max) {
                let expected = match max {
                    Some(max) if max == min => max.to_string(),
                    Some(max) => format!("{min} to {max}"),
                    None => format!("{min} or more"),
                };
                first_err = Some(EvalError::WrongArity {
                    name: name.clone(),
                    expected,
                    got: args.len(),
                });
            }
        } else if let Some(f) = registry.lookup(name) {
            if !f.signature.accepts_arity(args.len()) {
                first_err = Some(EvalError::WrongArity {
                    name: name.clone(),
                    expected: f.signature.arity_description(),
                    got: args.len(),
                });
            }
        } else {
            first_err = Some(EvalError::UnknownFunction { name: name.clone() });
        }
    });
    first_err.map_or(Ok(()), Err)
}

/// Whether the query calls any registered function that declared the
/// conservative [`FragmentImpact::General`] contract (those degrade the
/// classification to full XPath in [`CompiledQuery`]'s `build`).
fn uses_general_registration(expr: &Expr, registry: &FunctionRegistry) -> bool {
    let mut found = false;
    walk_expr(expr, &mut |e| {
        if let Expr::FunctionCall { name, .. } = e {
            if let Some(f) = registry.lookup(name) {
                found |= f.signature.fragment_impact() == FragmentImpact::General;
            }
        }
    });
    found
}

/// The external variables referenced anywhere in the query, sorted and
/// deduplicated.
fn referenced_variables(expr: &Expr) -> Vec<String> {
    let mut names = Vec::new();
    walk_expr(expr, &mut |e| {
        if let Expr::Variable(name) = e {
            names.push(name.clone());
        }
    });
    names.sort();
    names.dedup();
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpeval_dom::parse_xml;

    const BOOKS: &str = r#"<lib><book year="2001"><title>A</title></book><book year="2003"><title>B</title><cite/></book></lib>"#;

    #[test]
    fn compile_is_document_independent() {
        let q = CompiledQuery::compile("/lib/book/title").unwrap();
        assert_eq!(q.fragment(), Fragment::PF);
        assert_eq!(q.strategy(), EvalStrategy::CoreXPathLinear);
        let d1 = parse_xml(BOOKS).unwrap();
        let d2 = parse_xml("<lib><book><title>Z</title></book></lib>").unwrap();
        assert_eq!(q.run(&d1).unwrap().value.expect_nodes().len(), 2);
        assert_eq!(q.run(&d2).unwrap().value.expect_nodes().len(), 1);
    }

    #[test]
    fn plans_follow_the_papers_recommendation() {
        let cases = [
            ("/a/b/c", EvalStrategy::CoreXPathLinear),
            ("//a[not(child::b)]", EvalStrategy::CoreXPathLinear),
            // pWF and pXPath: the table machine — Singleton-Success is the
            // Lemma 5.4 decision procedure, reachable by pin only.
            ("//a[position() = last()]", EvalStrategy::ContextValueTable),
            ("//a[@id = 'x']", EvalStrategy::ContextValueTable),
            ("count(//a) > 2", EvalStrategy::ContextValueTable),
        ];
        for (src, plan) in cases {
            let q = CompiledQuery::compile(src).unwrap();
            assert_eq!(q.strategy(), plan, "{src}");
        }
    }

    #[test]
    fn normalization_can_lower_the_fragment() {
        // Iterated predicates are forbidden in pXPath (Definition 6.1,
        // restriction 1), so the raw query sits in full XPath; the
        // Remark 5.2 merge turns them into a single conjunction, which
        // drops the query into pXPath — admitting it to the Lemma 5.4
        // decision procedure — without changing the answer.
        let src = "//book[@year = '2003'][child::cite]";
        let raw = CompiledQuery::compile_with(
            src,
            &CompileOptions {
                normalize: false,
                ..CompileOptions::default()
            },
        )
        .unwrap();
        assert_eq!(raw.fragment(), Fragment::XPath);
        assert!(raw.ir().ss_check().is_err());
        let merged = CompiledQuery::compile(src).unwrap();
        assert_eq!(merged.fragment(), Fragment::PXPath);
        assert!(merged.ir().ss_check().is_ok());
        // Both run on the table machine and agree with the pinned
        // Singleton-Success run of the merged form.
        assert_eq!(raw.strategy(), EvalStrategy::ContextValueTable);
        assert_eq!(merged.strategy(), EvalStrategy::ContextValueTable);
        let doc = parse_xml(BOOKS).unwrap();
        let expected = raw.run(&doc).unwrap().value;
        assert_eq!(expected.expect_nodes().len(), 1);
        assert_eq!(merged.run(&doc).unwrap().value, expected);
        let decided = merged.with_strategy(EvalStrategy::SingletonSuccess);
        assert_eq!(decided.run(&doc).unwrap().value, expected);
    }

    #[test]
    fn with_strategy_overrides_the_plan() {
        let doc = parse_xml(BOOKS).unwrap();
        let q = CompiledQuery::compile("/lib/book[child::cite]/title").unwrap();
        let reference = q.run(&doc).unwrap().value;
        for strategy in [
            EvalStrategy::ContextValueTable,
            EvalStrategy::Naive,
            EvalStrategy::Parallel { threads: 2 },
            EvalStrategy::SingletonSuccess,
        ] {
            let got = q.clone().with_strategy(strategy).run(&doc).unwrap().value;
            assert_eq!(got, reference, "{strategy:?}");
        }
    }

    #[test]
    fn compile_reports_parse_errors() {
        let err = CompiledQuery::compile("///not valid").unwrap_err();
        assert!(matches!(err, EvalError::Parse { .. }), "{err:?}");
    }

    #[test]
    fn run_many_shares_the_context_value_tables() {
        let doc = parse_xml(BOOKS).unwrap();
        let q = CompiledQuery::compile("count(child::book)").unwrap();
        assert_eq!(q.strategy(), EvalStrategy::ContextValueTable);
        let lib = doc.first_child(doc.root()).unwrap();
        let ctxs = vec![Context::new(lib, 1, 1); 3];
        let outs = q.run_many(&doc, &ctxs).unwrap();
        assert_eq!(outs.len(), 3);
        for o in &outs {
            assert_eq!(o.value, Value::Number(2.0));
        }
        // The second and third runs hit the shared memo instead of
        // recomputing: cumulative evaluations stay flat.
        assert_eq!(outs[1].stats.evaluations, outs[0].stats.evaluations);
        assert!(outs[2].stats.cache_hits > outs[0].stats.cache_hits);
    }

    #[test]
    fn stats_flow_through_query_output() {
        let doc = parse_xml(BOOKS).unwrap();
        let q = CompiledQuery::compile("//book")
            .unwrap()
            .with_strategy(EvalStrategy::ContextValueTable);
        let out = q.run(&doc).unwrap();
        assert!(out.stats.evaluations > 0);
        assert!(out.stats.table_entries > 0);
        let naive = q.with_strategy(EvalStrategy::Naive).run(&doc).unwrap();
        assert!(naive.stats.evaluations > 0);
        assert!(naive.stats.max_intermediate_list > 0);
    }

    #[test]
    fn every_strategy_reports_nonzero_work() {
        // The linear, parallel and Singleton-Success evaluators historically
        // returned all-zero stats; every strategy now counts its work.
        let doc = parse_xml(BOOKS).unwrap();
        let q = CompiledQuery::compile("//book[child::cite]/title").unwrap();
        for strategy in [
            EvalStrategy::ContextValueTable,
            EvalStrategy::Naive,
            EvalStrategy::CoreXPathLinear,
            EvalStrategy::Parallel { threads: 2 },
            EvalStrategy::SingletonSuccess,
        ] {
            let out = q.clone().with_strategy(strategy).run(&doc).unwrap();
            assert!(out.stats.evaluations > 0, "{strategy:?}: {:?}", out.stats);
            assert!(
                out.stats.step_context_evaluations > 0,
                "{strategy:?}: {:?}",
                out.stats
            );
        }
    }

    #[test]
    fn prepared_evaluation_agrees_with_unprepared() {
        let doc = parse_xml(BOOKS).unwrap();
        let prepared = xpeval_dom::PreparedDocument::new(doc.clone());
        for (src, strategy) in [
            ("/lib/book/title", None),
            ("//book[@year = 2003]", None),
            ("count(//book)", None),
            ("//book[not(child::cite)]", Some(EvalStrategy::Naive)),
            (
                "//book[position() = last()]",
                Some(EvalStrategy::SingletonSuccess),
            ),
        ] {
            let mut q = CompiledQuery::compile(src).unwrap();
            if let Some(s) = strategy {
                q = q.with_strategy(s);
            }
            let plain = q.run(&doc).unwrap().value;
            let fast = q.run_prepared(&prepared).unwrap().value;
            assert_eq!(plain, fast, "{src}");
        }
    }

    #[test]
    fn auto_plans_do_not_depend_on_the_document() {
        use xpeval_dom::{CapabilityMask, DocumentBuilder, SourceCapabilities};
        // A large document where tag "rare" occurs a handful of times and
        // tag "common" everywhere, and a three-node one.
        let mut b = DocumentBuilder::new();
        b.open_element("root");
        for i in 0..1024 {
            if i % 500 == 0 {
                b.leaf_element("rare");
            } else {
                b.leaf_element("common");
            }
        }
        b.close_element();
        let large = b.finish().prepare();
        let small = parse_xml("<root><rare/><common/></root>")
            .unwrap()
            .prepare();
        // The same large document behind a backend that withholds every
        // index, the document-order table included.
        let masked = CapabilityMask::new(large.clone(), SourceCapabilities::NONE);

        for src in [
            "//rare[position() = last()]",
            "//common[position() = last()]",
        ] {
            let q = CompiledQuery::compile(src).unwrap();
            assert_eq!(q.strategy(), EvalStrategy::ContextValueTable, "{src}");
            assert_eq!(q.strategy_for_source(&large), q.strategy(), "{src}");
            assert_eq!(q.strategy_for_source(&small), q.strategy(), "{src}");
            assert_eq!(q.strategy_for_source(&masked), q.strategy(), "{src}");
            assert_eq!(
                q.strategy_for_source(large.document()),
                q.strategy(),
                "{src}"
            );
            // An explicit pin is the plan's choice on every source too.
            let pinned = q.clone().with_strategy(EvalStrategy::SingletonSuccess);
            assert_eq!(
                pinned.strategy_for_source(&masked),
                EvalStrategy::SingletonSuccess
            );
            // And the machines agree, indexed or not.
            for doc in [&large, &small] {
                let auto = q.run_prepared(doc).unwrap().value;
                assert_eq!(auto.expect_nodes().len(), 1, "{src}");
                assert_eq!(auto, q.run(doc.document()).unwrap().value, "{src}");
                assert_eq!(auto, pinned.run_prepared(doc).unwrap().value, "{src}");
            }
        }
    }

    #[test]
    fn specialize_pins_the_plans_choice() {
        let prepared = parse_xml(BOOKS).unwrap().prepare();
        let q = CompiledQuery::compile("//book[position() = last()]").unwrap();
        let specialized = q.specialize_for_source(&prepared);
        assert_eq!(specialized.strategy(), q.strategy());
        assert_eq!(
            specialized.strategy_for_source(&prepared),
            EvalStrategy::ContextValueTable
        );
        // An explicit pin survives specialization.
        let pinned = q.clone().with_strategy(EvalStrategy::SingletonSuccess);
        assert_eq!(
            pinned.specialize_for_source(&prepared).strategy(),
            EvalStrategy::SingletonSuccess
        );
        // Same answer, either way.
        assert_eq!(
            specialized.run_prepared(&prepared).unwrap().value,
            q.run_prepared(&prepared).unwrap().value
        );
    }

    #[test]
    fn run_streaming_yields_run_in_document_order() {
        let doc = parse_xml(BOOKS).unwrap();
        let prepared = xpeval_dom::PreparedDocument::new(doc.clone());
        for strategy in [
            EvalStrategy::ContextValueTable,
            EvalStrategy::Naive,
            EvalStrategy::CoreXPathLinear,
            EvalStrategy::SingletonSuccess,
            EvalStrategy::Parallel { threads: 2 },
        ] {
            let q = CompiledQuery::compile("//book/title | //cite")
                .unwrap()
                .with_strategy(strategy);
            let expected = q.run(&doc).unwrap().value.into_nodes().unwrap();
            let streamed = q.run_streaming(&doc).unwrap().collect_nodes().unwrap();
            assert_eq!(streamed, expected, "{strategy:?}");
            let streamed = q
                .run_streaming_prepared(&prepared)
                .unwrap()
                .collect_nodes()
                .unwrap();
            assert_eq!(streamed, expected, "{strategy:?} (prepared)");
        }
    }

    #[test]
    fn streaming_scalar_queries_is_a_type_error() {
        let doc = parse_xml(BOOKS).unwrap();
        for strategy in [
            EvalStrategy::ContextValueTable,
            EvalStrategy::SingletonSuccess,
        ] {
            let q = CompiledQuery::compile("1 + 2")
                .unwrap()
                .with_strategy(strategy);
            assert!(matches!(
                q.run_streaming(&doc).unwrap_err(),
                EvalError::TypeError { .. }
            ));
        }
    }

    #[test]
    fn compile_validates_function_calls() {
        // Unknown names and mis-arity calls fail at compile time, before
        // any document exists — including calls inside predicates.
        let err = CompiledQuery::compile("frobnicate(//a)").unwrap_err();
        assert!(matches!(err, EvalError::UnknownFunction { .. }), "{err:?}");
        for bad in [
            "count(//a, //b)",
            "substring('abc')",
            "//a[concat('x')]",
            "position(1)",
        ] {
            let err = CompiledQuery::compile(bad).unwrap_err();
            assert!(
                matches!(err, EvalError::WrongArity { .. }),
                "{bad}: {err:?}"
            );
        }
        // The same spellings pass with a correct argument count.
        for good in ["count(//a)", "substring('abc', 2)", "//a[concat('x', 'y')]"] {
            CompiledQuery::compile(good).unwrap();
        }
    }

    #[test]
    fn registered_functions_compile_and_run() {
        use crate::registry::{FragmentImpact, FunctionSignature};
        let mut registry = FunctionRegistry::new();
        registry.register(
            FunctionSignature::new("double", 1, Some(1))
                .returns_number()
                .impact(FragmentImpact::CoreSafe),
            |args, _, doc| Ok(Value::Number(args[0].to_number(doc) * 2.0)),
        );
        registry.register(
            // Default contract: General impact, string return.
            FunctionSignature::new("shout", 1, Some(1)),
            |args, _, doc| Ok(Value::Str(args[0].to_xpath_string(doc).to_uppercase())),
        );
        let registry = Arc::new(registry);
        let doc = parse_xml(BOOKS).unwrap();

        // A core-safe registration keeps the classifier's verdict — the
        // query stays in pXPath, so the Lemma 5.4 procedure admits it.
        let q = CompiledQuery::compile_with_registry(
            "//book[double(@year) = 4006]/title",
            registry.clone(),
        )
        .unwrap();
        assert_eq!(q.fragment(), Fragment::PXPath);
        assert_eq!(q.strategy(), EvalStrategy::ContextValueTable);
        assert!(q.ir().ss_check().is_ok());
        let out = q.run(&doc).unwrap();
        let nodes = out.value.expect_nodes();
        assert_eq!(nodes.len(), 1);
        assert_eq!(doc.string_value(nodes[0]), "B");

        // A general registration degrades the query to full XPath, which
        // the Lemma 5.4 procedure rejects.
        let q = CompiledQuery::compile_with_registry(
            "//book[shout(title) = 'B']/title",
            registry.clone(),
        )
        .unwrap();
        assert_eq!(q.fragment(), Fragment::XPath);
        assert_eq!(q.strategy(), EvalStrategy::ContextValueTable);
        assert!(q.ir().ss_check().is_err());
        let out = q.run(&doc).unwrap();
        let nodes = out.value.expect_nodes();
        assert_eq!(nodes.len(), 1);
        assert_eq!(doc.string_value(nodes[0]), "B");

        // Registered signatures are enforced at compile time like built-ins.
        let err = CompiledQuery::compile_with_registry("double(1, 2)", registry).unwrap_err();
        assert!(matches!(err, EvalError::WrongArity { .. }), "{err:?}");
        // Without the registration the name is simply unknown.
        let err = CompiledQuery::compile("double(1)").unwrap_err();
        assert!(matches!(err, EvalError::UnknownFunction { .. }), "{err:?}");
    }

    #[test]
    fn bound_runs_reuse_one_compilation() {
        let doc = parse_xml(BOOKS).unwrap();
        let prepared = xpeval_dom::PreparedDocument::new(doc.clone());
        let q = CompiledQuery::compile("//book[@year = $year]/title").unwrap();
        assert_eq!(q.variables(), ["year".to_string()]);
        let title = |bindings: &Bindings| {
            let out = q.run_bound(&doc, bindings).unwrap();
            out.value
                .expect_nodes()
                .iter()
                .map(|&n| doc.string_value(n))
                .collect::<Vec<String>>()
        };
        // One compilation, many parameterizations.
        assert_eq!(title(&Bindings::new().with_number("year", 2001.0)), ["A"]);
        assert_eq!(title(&Bindings::new().with_number("year", 2003.0)), ["B"]);
        assert_eq!(
            title(&Bindings::new().with_number("year", 1999.0)),
            Vec::<String>::new()
        );
        // The prepared path takes the same bindings.
        let b = Bindings::new().with_number("year", 2003.0);
        assert_eq!(
            q.run_prepared_bound(&prepared, &b).unwrap().value,
            q.run_bound(&doc, &b).unwrap().value
        );
        // A missing binding errors eagerly, before any document work...
        let err = q.run_bound(&doc, &Bindings::new()).unwrap_err();
        assert!(matches!(err, EvalError::UnboundVariable { .. }), "{err:?}");
        // ...and the binding-less entry points report the same error lazily.
        let err = q.run(&doc).unwrap_err();
        assert!(matches!(err, EvalError::UnboundVariable { .. }), "{err:?}");
        // Batch evaluation shares one binding set across contexts.
        let ctxs = [Context::root(&doc), Context::root(&doc)];
        let outs = q.run_many_bound(&doc, &ctxs, &b).unwrap();
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0].value, outs[1].value);
    }

    #[test]
    fn visitor_stops_early() {
        let doc = parse_xml(BOOKS).unwrap();
        let prepared = xpeval_dom::PreparedDocument::new(doc.clone());
        let q = CompiledQuery::compile("//title").unwrap();
        let mut seen = Vec::new();
        let visited = q
            .run_visit(&doc, |n| {
                seen.push(n);
                seen.len() < 2
            })
            .unwrap();
        assert_eq!(visited, 2);
        assert_eq!(seen.len(), 2);
        let all = q.run_visit_prepared(&prepared, |_| true).unwrap();
        assert_eq!(all, 2);
    }
}
