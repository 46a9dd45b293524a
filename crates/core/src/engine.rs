//! The evaluate-many half of the query pipeline: a configured engine with a
//! plan cache.
//!
//! [`Engine`] is the serving façade over the compile-once pipeline of
//! [`crate::compile`].  It is configured through [`EngineBuilder`] (strategy
//! override, plan-cache capacity), compiles query strings
//! into [`CompiledQuery`] plans through a bounded LRU
//! [`PlanCache`](crate::cache::PlanCache), and
//! offers batch entry points ([`Engine::evaluate_many`],
//! [`Engine::evaluate_batch`]) next to the classic one-shot calls.
//!
//! The one-shot calls are thin wrappers: `evaluate_str` is exactly
//! `compile()` + [`CompiledQuery::run`], and `evaluate` is
//! `compile_expr()` + `run` (the same minus the parse and the cache).  All
//! five evaluation strategies are reachable through the compiled form; the
//! engine adds only configuration and caching on top.

use crate::bindings::Bindings;
use crate::cache::{CacheStats, ShardedPlanCache};
use crate::compile::{recommended_strategy, CompileOptions, CompiledQuery, QueryOutput};
use crate::context::Context;
use crate::error::EvalError;
use crate::registry::{FunctionRegistry, FunctionSignature};
use crate::value::Value;
use std::sync::Arc;
use xpeval_dom::{Document, PreparedDocument};
use xpeval_obs::Telemetry;
use xpeval_syntax::{classify, Expr, FragmentReport};

/// The evaluation strategies implemented by this crate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EvalStrategy {
    /// The context-value-table dynamic program (Proposition 2.7): polynomial
    /// combined complexity for all of XPath 1.0.  This is the default.
    #[default]
    ContextValueTable,
    /// Direct re-evaluation semantics (the exponential baseline of the
    /// paper's introduction).
    Naive,
    /// The O(|D|·|Q|) set-at-a-time algorithm; only accepts Core XPath.
    CoreXPathLinear,
    /// Data-parallel Singleton-Success evaluation for pWF/pXPath
    /// (Theorems 5.5/6.2, Remark 5.6) with the given number of threads.
    /// Never selected automatically: pin it to run the decision procedure.
    Parallel { threads: usize },
    /// Sequential Singleton-Success evaluation (Lemma 5.4 / Theorem 5.5).
    /// Never selected automatically: pin it to run the decision procedure.
    SingletonSuccess,
}

/// Configures and builds an [`Engine`].
///
/// ```
/// use xpeval_core::{Engine, EvalStrategy};
///
/// let engine = Engine::builder()
///     .strategy(EvalStrategy::ContextValueTable)
///     .plan_cache_capacity(256)
///     .build();
/// # let _ = engine;
/// ```
#[derive(Clone, Debug)]
pub struct EngineBuilder {
    strategy: Option<EvalStrategy>,
    cache_capacity: usize,
    registry: FunctionRegistry,
    telemetry: Option<Arc<Telemetry>>,
}

impl EngineBuilder {
    /// Default configuration: automatic per-query strategy selection, a
    /// 128-plan cache, no registered functions.
    pub fn new() -> Self {
        EngineBuilder {
            strategy: None,
            cache_capacity: 128,
            registry: FunctionRegistry::new(),
            telemetry: None,
        }
    }

    /// Attaches a telemetry handle to the engine being built: every plan
    /// the engine compiles records query counts and latency histograms
    /// into the handle's registry, and the handle's sampler picks runs to
    /// trace per opcode (see [`CompiledQuery::with_telemetry`]).  Without
    /// a handle (the default) the evaluation hot paths stay entirely
    /// telemetry-free.
    pub fn telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Fixes the evaluation strategy for every query, overriding the
    /// per-fragment recommendation.
    pub fn strategy(mut self, strategy: EvalStrategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Restores automatic strategy selection (the default): each query gets
    /// the algorithm the paper recommends for its fragment.
    pub fn auto_strategy(mut self) -> Self {
        self.strategy = None;
        self
    }

    /// Plan-cache capacity in entries; 0 disables the cache.  Capacities of
    /// 16 and above are sharded by key hash
    /// ([`crate::cache::PLAN_CACHE_SHARDS`] ways) so concurrent compiles do
    /// not serialize on one mutex.  Eviction is then per shard: the
    /// capacity bound holds globally, but a shard receiving an uneven share
    /// of hot keys can evict while other shards have room — size the cache
    /// with headroom (or below 16 for exact global LRU) if the working set
    /// sits exactly at capacity.
    pub fn plan_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Registers a user-defined function with the engine being built.  Every
    /// query compiled through the engine sees the registration: its
    /// signature is validated at compile time and its declared
    /// [`FragmentImpact`](crate::registry::FragmentImpact) participates in
    /// strategy selection.
    ///
    /// # Panics
    ///
    /// Panics if the name shadows a built-in function (see
    /// [`FunctionRegistry::register`]).
    ///
    /// ```
    /// use xpeval_core::{Engine, FragmentImpact, FunctionSignature, Value};
    ///
    /// let engine = Engine::builder()
    ///     .register_function(
    ///         FunctionSignature::new("double", 1, Some(1))
    ///             .returns_number()
    ///             .impact(FragmentImpact::CoreSafe),
    ///         |args, _ctx, doc| Ok(Value::Number(args[0].to_number(doc) * 2.0)),
    ///     )
    ///     .build();
    /// let doc = xpeval_dom::parse_xml("<a n='21'/>").unwrap();
    /// assert_eq!(
    ///     engine.evaluate_str(&doc, "double(/a/@n)").unwrap(),
    ///     Value::Number(42.0)
    /// );
    /// ```
    pub fn register_function<F>(mut self, signature: FunctionSignature, handler: F) -> Self
    where
        F: Fn(&[Value], &Context, &Document) -> Result<Value, EvalError> + Send + Sync + 'static,
    {
        self.registry.register(signature, handler);
        self
    }

    /// Builds the engine.
    pub fn build(self) -> Engine {
        let registry = if self.registry.is_empty() {
            FunctionRegistry::empty_shared()
        } else {
            Arc::new(self.registry)
        };
        Engine {
            inner: Arc::new(EngineInner {
                strategy: self.strategy,
                cache: ShardedPlanCache::new(self.cache_capacity),
                registry,
                telemetry: self.telemetry,
            }),
        }
    }
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder::new()
    }
}

/// Facade dispatching queries to an evaluation strategy through the
/// compile-once pipeline.
///
/// `Engine` is a cheap-to-clone *handle*: the plan cache lives behind an
/// [`Arc`], so clones share it.  A worker pool can
/// hand every worker its own `Engine` clone and a query compiled through
/// any of them is a cache hit for all — this is the surface the async
/// serving layer (`xpeval-serve`) builds on.  All entry points take
/// `&self`; the engine is `Send + Sync`.
#[derive(Clone, Debug)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

#[derive(Debug)]
struct EngineInner {
    /// `None` = pick the recommended strategy per query.
    strategy: Option<EvalStrategy>,
    cache: ShardedPlanCache,
    /// User-registered functions, shared by every plan this engine compiles.
    registry: Arc<FunctionRegistry>,
    /// Telemetry handle attached to every plan this engine compiles;
    /// `None` keeps the run paths telemetry-free.
    telemetry: Option<Arc<Telemetry>>,
}

impl Default for Engine {
    /// An engine fixed to the default strategy
    /// ([`EvalStrategy::ContextValueTable`]).
    fn default() -> Self {
        Engine::new(EvalStrategy::default())
    }
}

impl Engine {
    /// Creates an engine with a fixed strategy and default caches.
    pub fn new(strategy: EvalStrategy) -> Self {
        EngineBuilder::new().strategy(strategy).build()
    }

    /// Starts configuring an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// The strategy this engine forces, or the default when it selects per
    /// query.
    pub fn strategy(&self) -> EvalStrategy {
        self.inner.strategy.unwrap_or_default()
    }

    /// Classifies the query according to Figure 1 of the paper.
    pub fn classify(&self, query: &Expr) -> FragmentReport {
        classify(query)
    }

    /// An engine fixed to the machine the automatic selection picks for
    /// `query` ([`recommended_strategy`]): linear set-at-a-time evaluation
    /// for Core XPath, the context-value-table machine otherwise.
    pub fn recommended_for(query: &Expr) -> Engine {
        Engine::new(recommended_strategy(&classify(query)))
    }

    /// The function registry this engine compiles queries against.
    pub fn registry(&self) -> &Arc<FunctionRegistry> {
        &self.inner.registry
    }

    fn compile_options(&self, normalize: bool) -> CompileOptions {
        CompileOptions {
            strategy: self.inner.strategy,
            normalize,
            registry: Arc::clone(&self.inner.registry),
        }
    }

    /// Compiles a query string under this engine's configuration, through
    /// the plan cache: a repeated source string is answered without
    /// re-parsing or re-classifying, and threads that miss the same string
    /// together share one compilation
    /// ([`ShardedPlanCache::get_or_compile`]).
    pub fn compile(&self, source: &str) -> Result<Arc<CompiledQuery>, EvalError> {
        self.inner.cache.get_or_compile(source, || {
            let compiled = CompiledQuery::compile_with(source, &self.compile_options(true))?;
            Ok(Arc::new(self.attach_telemetry(compiled)))
        })
    }

    /// Compiles an already-parsed expression under this engine's
    /// configuration (not cached: there is no string key).  The AST is taken
    /// as-is, without normalization, so the evaluation behaves exactly like
    /// the classic `evaluate(&doc, &expr)` always did.
    pub fn compile_expr(&self, expr: &Expr) -> CompiledQuery {
        self.attach_telemetry(CompiledQuery::from_expr_with(
            expr.clone(),
            &self.compile_options(false),
        ))
    }

    /// The telemetry handle attached at build time, if any.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.inner.telemetry.as_ref()
    }

    fn attach_telemetry(&self, plan: CompiledQuery) -> CompiledQuery {
        match &self.inner.telemetry {
            Some(telemetry) => plan.with_telemetry(Arc::clone(telemetry)),
            None => plan,
        }
    }

    /// Evaluates a query against a document from the canonical root context.
    pub fn evaluate(&self, doc: &Document, query: &Expr) -> Result<Value, EvalError> {
        self.evaluate_with_context(doc, query, Context::root(doc))
    }

    /// Evaluates a query from an explicit context triple.
    ///
    /// Exactly [`Engine::compile_expr`] + [`CompiledQuery::run_with_context`]:
    /// the expression is lowered on every call (there is no string key to
    /// cache under), so callers evaluating one `&Expr` repeatedly should
    /// compile it once and keep the plan.
    pub fn evaluate_with_context(
        &self,
        doc: &Document,
        query: &Expr,
        ctx: Context,
    ) -> Result<Value, EvalError> {
        Ok(self.compile_expr(query).run_with_context(doc, ctx)?.value)
    }

    /// Parses (through the plan cache) and evaluates a query string,
    /// returning just the value.
    pub fn evaluate_str(&self, doc: &Document, query: &str) -> Result<Value, EvalError> {
        Ok(self.compile(query)?.run(doc)?.value)
    }

    /// Parses (through the plan cache) and evaluates a query string,
    /// returning the full [`QueryOutput`] — value, work counters and
    /// fragment.
    pub fn query_str(&self, doc: &Document, query: &str) -> Result<QueryOutput, EvalError> {
        self.compile(query)?.run(doc)
    }

    /// Batch entry point: evaluates one compiled query over many contexts
    /// (see [`CompiledQuery::run_many`] for the table-sharing guarantee).
    ///
    /// The plan carries its own strategy: engine configuration applies at
    /// *compile* time, so compile the query
    /// through [`Engine::compile`] to run batches under this engine's
    /// settings.
    pub fn evaluate_many(
        &self,
        doc: &Document,
        query: &CompiledQuery,
        contexts: &[Context],
    ) -> Result<Vec<QueryOutput>, EvalError> {
        query.run_many(doc, contexts)
    }

    /// Batch entry point: evaluates many compiled queries against one
    /// document from the root context.  Results are per-query so one
    /// failing query does not poison the batch.  As with
    /// [`Engine::evaluate_many`], each plan carries its own strategy;
    /// engine configuration applies when the queries are compiled.
    pub fn evaluate_batch(
        &self,
        doc: &Document,
        queries: &[&CompiledQuery],
    ) -> Vec<Result<QueryOutput, EvalError>> {
        queries.iter().map(|q| q.run(doc)).collect()
    }

    /// Evaluates a query against a prepared document from the canonical
    /// root context ([`Engine::compile_expr`] +
    /// [`CompiledQuery::run_prepared`]).
    pub fn evaluate_prepared(
        &self,
        doc: &PreparedDocument,
        query: &Expr,
    ) -> Result<Value, EvalError> {
        Ok(self.compile_expr(query).run_prepared(doc)?.value)
    }

    /// Parses (through the plan cache) and evaluates a query string against
    /// a prepared document, returning just the value.
    pub fn evaluate_str_prepared(
        &self,
        doc: &PreparedDocument,
        query: &str,
    ) -> Result<Value, EvalError> {
        Ok(self.compile(query)?.run_prepared(doc)?.value)
    }

    /// Parses (through the plan cache) and evaluates a query string against
    /// a prepared document, returning the full [`QueryOutput`].
    pub fn query_str_prepared(
        &self,
        doc: &PreparedDocument,
        query: &str,
    ) -> Result<QueryOutput, EvalError> {
        self.compile(query)?.run_prepared(doc)
    }

    /// Batch entry point over a prepared document: evaluates one compiled
    /// query over many contexts (see [`CompiledQuery::run_many_prepared`]).
    pub fn evaluate_many_prepared(
        &self,
        doc: &PreparedDocument,
        query: &CompiledQuery,
        contexts: &[Context],
    ) -> Result<Vec<QueryOutput>, EvalError> {
        query.run_many_prepared(doc, contexts)
    }

    /// Batch entry point over a prepared document: evaluates many compiled
    /// queries against it from the root context, sharing the prepared
    /// indexes across the whole batch.
    pub fn evaluate_batch_prepared(
        &self,
        doc: &PreparedDocument,
        queries: &[&CompiledQuery],
    ) -> Vec<Result<QueryOutput, EvalError>> {
        queries.iter().map(|q| q.run_prepared(doc)).collect()
    }

    /// Parses (through the plan cache) and evaluates a query string with
    /// external variable bindings for its `$name` references.  The plan
    /// cache key is the source string alone: sixty-four different binding
    /// sets against one query are one compile and sixty-three cache hits.
    pub fn evaluate_str_bound(
        &self,
        doc: &Document,
        query: &str,
        bindings: &Bindings,
    ) -> Result<Value, EvalError> {
        Ok(self.compile(query)?.run_bound(doc, bindings)?.value)
    }

    /// [`Engine::query_str`] with external variable bindings.
    pub fn query_str_bound(
        &self,
        doc: &Document,
        query: &str,
        bindings: &Bindings,
    ) -> Result<QueryOutput, EvalError> {
        self.compile(query)?.run_bound(doc, bindings)
    }

    /// [`Engine::evaluate_str_prepared`] with external variable bindings.
    pub fn evaluate_str_prepared_bound(
        &self,
        doc: &PreparedDocument,
        query: &str,
        bindings: &Bindings,
    ) -> Result<Value, EvalError> {
        Ok(self
            .compile(query)?
            .run_prepared_bound(doc, bindings)?
            .value)
    }

    /// [`Engine::query_str_prepared`] with external variable bindings.
    pub fn query_str_prepared_bound(
        &self,
        doc: &PreparedDocument,
        query: &str,
        bindings: &Bindings,
    ) -> Result<QueryOutput, EvalError> {
        self.compile(query)?.run_prepared_bound(doc, bindings)
    }

    /// [`Engine::evaluate_batch_prepared`] with one binding set shared by
    /// the whole batch.  Queries without variables ignore the bindings, so
    /// mixed batches are fine.
    pub fn evaluate_batch_prepared_bound(
        &self,
        doc: &PreparedDocument,
        queries: &[&CompiledQuery],
        bindings: &Bindings,
    ) -> Vec<Result<QueryOutput, EvalError>> {
        queries
            .iter()
            .map(|q| q.run_prepared_bound(doc, bindings))
            .collect()
    }

    /// Counters of the plan cache, aggregate and per shard.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.stats()
    }

    /// Drops every cached plan (counters are kept).
    pub fn clear_plan_cache(&self) {
        self.inner.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpeval_dom::parse_xml;
    use xpeval_syntax::{parse_query, Fragment};

    const BOOKS: &str = r#"<lib><book year="2001"><title>A</title></book><book year="2003"><title>B</title><cite/></book></lib>"#;

    #[test]
    fn default_strategy_is_the_dp_algorithm() {
        assert_eq!(
            Engine::default().strategy(),
            EvalStrategy::ContextValueTable
        );
    }

    #[test]
    fn all_strategies_agree_on_a_core_query() {
        let doc = parse_xml(BOOKS).unwrap();
        let q = parse_query("/lib/book[child::cite]/title").unwrap();
        let reference = Engine::new(EvalStrategy::ContextValueTable)
            .evaluate(&doc, &q)
            .unwrap();
        for strategy in [
            EvalStrategy::Naive,
            EvalStrategy::CoreXPathLinear,
            EvalStrategy::Parallel { threads: 2 },
            EvalStrategy::SingletonSuccess,
        ] {
            let got = Engine::new(strategy).evaluate(&doc, &q).unwrap();
            assert_eq!(got, reference, "{strategy:?}");
        }
    }

    #[test]
    fn recommendation_follows_the_paper() {
        for (query, expected) in [
            ("/a/b/c", EvalStrategy::CoreXPathLinear),
            ("//a[not(child::b)]", EvalStrategy::CoreXPathLinear),
            ("//a[position() = last()]", EvalStrategy::ContextValueTable),
            ("//a[@id = 3]", EvalStrategy::ContextValueTable),
            ("count(//a) > 2", EvalStrategy::ContextValueTable),
        ] {
            let q = parse_query(query).unwrap();
            assert_eq!(Engine::recommended_for(&q).strategy(), expected, "{query}");
        }
    }

    #[test]
    fn classify_is_exposed() {
        let q = parse_query("//a[not(child::b)]").unwrap();
        let report = Engine::default().classify(&q);
        assert_eq!(report.fragment, Fragment::CoreXPath);
    }

    #[test]
    fn evaluate_str_convenience() {
        let doc = parse_xml(BOOKS).unwrap();
        let v = Engine::default()
            .evaluate_str(&doc, "count(//book)")
            .unwrap();
        assert_eq!(v, Value::Number(2.0));
        assert!(Engine::default()
            .evaluate_str(&doc, "not valid xpath ///")
            .is_err());
    }

    #[test]
    fn parse_failures_are_parse_errors() {
        let doc = parse_xml(BOOKS).unwrap();
        let err = Engine::default().evaluate_str(&doc, "//book[").unwrap_err();
        assert!(matches!(err, EvalError::Parse { .. }), "{err:?}");
    }

    #[test]
    fn fragment_errors_propagate() {
        let doc = parse_xml(BOOKS).unwrap();
        let q = parse_query("//book[position() = 1]").unwrap();
        let res = Engine::new(EvalStrategy::CoreXPathLinear).evaluate(&doc, &q);
        assert!(matches!(res, Err(EvalError::UnsupportedFragment { .. })));
    }

    #[test]
    fn repeated_strings_hit_the_plan_cache() {
        let doc = parse_xml(BOOKS).unwrap();
        let engine = Engine::builder().build();
        for _ in 0..3 {
            engine.evaluate_str(&doc, "count(//book)").unwrap();
        }
        let s = engine.cache_stats();
        assert_eq!(s.misses, 1, "{s:?}");
        assert_eq!(s.hits, 2, "{s:?}");
        assert_eq!(s.len, 1, "{s:?}");
    }

    #[test]
    fn builder_configuration_is_respected() {
        let engine = Engine::builder()
            .strategy(EvalStrategy::Naive)
            .plan_cache_capacity(1)
            .build();
        assert_eq!(engine.strategy(), EvalStrategy::Naive);
        let plan = engine.compile("//a").unwrap();
        assert_eq!(plan.strategy(), EvalStrategy::Naive);
        // Capacity 1: the second distinct query evicts the first.
        engine.compile("//b").unwrap();
        let s = engine.cache_stats();
        assert_eq!(s.capacity, 1);
        assert_eq!(s.len, 1);
        assert_eq!(s.evictions, 1);
    }

    #[test]
    fn auto_strategy_engine_picks_per_query_plans() {
        let engine = Engine::builder().build();
        assert_eq!(
            engine.compile("/a/b").unwrap().strategy(),
            EvalStrategy::CoreXPathLinear
        );
        assert_eq!(
            engine.compile("//a[position() = 1]").unwrap().strategy(),
            EvalStrategy::ContextValueTable
        );
        assert_eq!(
            engine.compile("count(//a) > 1").unwrap().strategy(),
            EvalStrategy::ContextValueTable
        );
    }

    #[test]
    fn prepared_entry_points_agree_with_plain_ones() {
        let doc = Arc::new(parse_xml(BOOKS).unwrap());
        let engine = Engine::builder().build();
        let prepared = PreparedDocument::new(Arc::clone(&doc));
        for q in [
            "/lib/book/title",
            "//book[@year = 2003]/title",
            "count(//book)",
            "//book[position() = last()]",
        ] {
            let plain = engine.evaluate_str(&doc, q).unwrap();
            assert_eq!(engine.evaluate_str_prepared(&prepared, q).unwrap(), plain);
            let expr = parse_query(q).unwrap();
            assert_eq!(engine.evaluate_prepared(&prepared, &expr).unwrap(), plain);
            let out = engine.query_str_prepared(&prepared, q).unwrap();
            assert_eq!(out.value, plain);
        }

        let plans: Vec<_> = ["//book", "count(//title)"]
            .iter()
            .map(|q| engine.compile(q).unwrap())
            .collect();
        let refs: Vec<&CompiledQuery> = plans.iter().map(|p| p.as_ref()).collect();
        let batch = engine.evaluate_batch_prepared(&prepared, &refs);
        assert_eq!(batch[0].as_ref().unwrap().value.expect_nodes().len(), 2);
        assert_eq!(batch[1].as_ref().unwrap().value, Value::Number(2.0));

        let contexts: Vec<Context> = doc.all_elements().map(|n| Context::new(n, 1, 1)).collect();
        let q = engine.compile("count(child::*)").unwrap();
        let plain = engine.evaluate_many(&doc, &q, &contexts).unwrap();
        let fast = engine
            .evaluate_many_prepared(&prepared, &q, &contexts)
            .unwrap();
        for (a, b) in plain.iter().zip(&fast) {
            assert_eq!(a.value, b.value);
        }
    }

    #[test]
    fn default_plan_cache_is_sharded_with_observable_shards() {
        let engine = Engine::builder().build(); // capacity 128 → 8 shards
        for i in 0..20 {
            engine.compile(&format!("//a[child::t{i}]")).unwrap();
        }
        let s = engine.cache_stats();
        assert_eq!(s.capacity, 128);
        assert_eq!(s.per_shard.len(), crate::cache::PLAN_CACHE_SHARDS);
        assert_eq!(s.per_shard.iter().map(|p| p.len).sum::<usize>(), 20);
        assert!(s.per_shard.iter().filter(|p| p.len > 0).count() > 1);
    }

    #[test]
    fn clones_share_the_plan_cache() {
        let doc = parse_xml(BOOKS).unwrap();
        let engine = Engine::builder().build();
        let clone = engine.clone();

        // A plan compiled through the clone is a cache hit on the original.
        clone.evaluate_str(&doc, "count(//book)").unwrap();
        engine.evaluate_str(&doc, "count(//book)").unwrap();
        let s = engine.cache_stats();
        assert_eq!((s.misses, s.hits), (1, 1), "{s:?}");
    }

    #[test]
    fn evaluation_keeps_no_document_alive() {
        // The engine owns plans and nothing else: once the caller drops a
        // document it evaluated, the document is freed, while the plans
        // stay cached for the next document.
        let engine = Engine::builder().build();
        let doc = Arc::new(parse_xml(BOOKS).unwrap());
        let prepared = Arc::new(PreparedDocument::new(Arc::clone(&doc)));
        engine.evaluate_str(&doc, "count(//book)").unwrap();
        engine
            .evaluate_str_prepared(&prepared, "//book/title")
            .unwrap();
        let plan = engine.compile("//title").unwrap();
        plan.run_prepared(&prepared).unwrap();
        let (doc_weak, prepared_weak) = (Arc::downgrade(&doc), Arc::downgrade(&prepared));
        drop((doc, prepared));
        assert!(prepared_weak.upgrade().is_none(), "prepared document freed");
        assert!(doc_weak.upgrade().is_none(), "document freed");
        assert_eq!(engine.cache_stats().len, 3);

        let other = parse_xml("<lib><book/></lib>").unwrap();
        let out = engine.evaluate_str(&other, "count(//book)").unwrap();
        assert_eq!(out, Value::Number(1.0));
        let s = engine.cache_stats();
        assert_eq!((s.misses, s.hits), (3, 1), "{s:?}");
    }

    #[test]
    fn cache_stats_display_is_a_single_summary_line() {
        let engine = Engine::builder().build();
        engine.compile("//a").unwrap();
        engine.compile("//a").unwrap();
        let line = engine.cache_stats().to_string();
        assert!(line.contains("hits 1/2 (50.0%)"), "{line}");
        assert!(line.contains("shards 8"), "{line}");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn registered_functions_flow_through_the_engine() {
        use crate::registry::FragmentImpact;
        let doc = parse_xml(BOOKS).unwrap();
        let engine = Engine::builder()
            .register_function(
                FunctionSignature::new("double", 1, Some(1))
                    .returns_number()
                    .impact(FragmentImpact::CoreSafe),
                |args, _, doc| Ok(Value::Number(args[0].to_number(doc) * 2.0)),
            )
            .build();
        assert_eq!(engine.registry().len(), 1);
        let v = engine
            .evaluate_str(&doc, "//book[double(@year) = 4006]/title")
            .unwrap();
        assert_eq!(doc.string_value(v.expect_nodes()[0]), "B");
        // A core-safe registration keeps the query in pXPath: the table
        // machine runs it, and the pinned decision procedure admits it.
        let plan = engine
            .compile("//book[double(@year) = 4006]/title")
            .unwrap();
        assert_eq!(plan.fragment(), Fragment::PXPath);
        assert_eq!(plan.strategy(), EvalStrategy::ContextValueTable);
        let decided = CompiledQuery::clone(&plan).with_strategy(EvalStrategy::SingletonSuccess);
        assert_eq!(decided.run(&doc).unwrap().value, v);
        // Compile-time arity validation applies to registered names too.
        let err = engine.compile("double(1, 2)").unwrap_err();
        assert!(matches!(err, EvalError::WrongArity { .. }), "{err:?}");
        // An engine without the registration rejects the name at compile.
        let err = Engine::builder().build().compile("double(1)").unwrap_err();
        assert!(matches!(err, EvalError::UnknownFunction { .. }), "{err:?}");
    }

    #[test]
    fn one_plan_serves_many_bindings_without_cache_misses() {
        let doc = Arc::new(parse_xml(BOOKS).unwrap());
        let engine = Engine::builder().build();
        let prepared = PreparedDocument::new(Arc::clone(&doc));
        let query = "//book[@year = $year]/title";
        let mut non_empty = 0;
        for year in 0..64 {
            let b = Bindings::new().with_number("year", 1990.0 + year as f64);
            let out = engine.query_str_bound(&doc, query, &b).unwrap();
            assert_eq!(
                engine
                    .evaluate_str_prepared_bound(&prepared, query, &b)
                    .unwrap(),
                out.value
            );
            if !out.value.clone().expect_nodes().is_empty() {
                non_empty += 1;
            }
        }
        assert_eq!(non_empty, 2, "years 2001 and 2003 match");
        // Binding values never enter the plan-cache key: one miss compiles
        // the query, every later parameterization is a hit.
        let s = engine.cache_stats();
        assert_eq!(s.misses, 1, "{s:?}");
        assert_eq!(s.hits, 127, "{s:?}");
        assert_eq!(s.len, 1, "{s:?}");

        // Unbound evaluation of the same cached plan errors eagerly.
        let err = engine.evaluate_str(&doc, query).unwrap_err();
        assert!(matches!(err, EvalError::UnboundVariable { .. }), "{err:?}");
    }

    #[test]
    fn bound_batches_share_one_binding_set() {
        let engine = Engine::builder().build();
        let prepared = PreparedDocument::new(parse_xml(BOOKS).unwrap());
        let with_var = engine.compile("count(//book[@year = $year])").unwrap();
        let without = engine.compile("count(//book)").unwrap();
        let b = Bindings::new().with_number("year", 2003.0);
        let results = engine.evaluate_batch_prepared_bound(&prepared, &[&with_var, &without], &b);
        assert_eq!(results[0].as_ref().unwrap().value, Value::Number(1.0));
        assert_eq!(results[1].as_ref().unwrap().value, Value::Number(2.0));
        // A missing binding fails only the query that needs it.
        let results = engine.evaluate_batch_prepared_bound(
            &prepared,
            &[&with_var, &without],
            &Bindings::new(),
        );
        assert!(matches!(results[0], Err(EvalError::UnboundVariable { .. })));
        assert!(results[1].is_ok());
    }

    #[test]
    fn batch_entry_points() {
        let doc = parse_xml(BOOKS).unwrap();
        let engine = Engine::builder().build();
        let q1 = engine.compile("count(//book)").unwrap();
        let q2 = engine.compile("//book[child::cite]/title").unwrap();
        let bad = CompiledQuery::compile("//book[position() = 1]")
            .unwrap()
            .with_strategy(EvalStrategy::CoreXPathLinear);
        let results = engine.evaluate_batch(&doc, &[&q1, &q2, &bad]);
        assert_eq!(results[0].as_ref().unwrap().value, Value::Number(2.0));
        assert_eq!(results[1].as_ref().unwrap().value.expect_nodes().len(), 1);
        assert!(
            results[2].is_err(),
            "unsupported fragment must not poison the batch"
        );

        let contexts: Vec<Context> = doc.all_elements().map(|n| Context::new(n, 1, 1)).collect();
        let q = engine.compile("count(child::*)").unwrap();
        let outs = engine.evaluate_many(&doc, &q, &contexts).unwrap();
        assert_eq!(outs.len(), contexts.len());
    }
}
