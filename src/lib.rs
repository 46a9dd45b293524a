//! # xpeval — The Complexity of XPath Query Evaluation, reproduced in Rust
//!
//! This facade crate re-exports the public API of the workspace crates that
//! together reproduce *"The Complexity of XPath Query Evaluation"*
//! (Gottlob, Koch, Pichler; PODS 2003):
//!
//! * [`dom`] — the XML document tree substrate (arena tree, axes, document
//!   order, parsing, serialization),
//! * [`syntax`] — the XPath 1.0 lexer/parser/AST and the fragment classifier
//!   of Figure 1 (PF, positive Core XPath, Core XPath, WF, pWF, pXPath),
//! * [`engine`] — the compile-once query pipeline and the evaluation
//!   engines: the context-value-table dynamic-programming evaluator, the
//!   naive exponential baseline, the linear-time Core XPath evaluator, and
//!   — as explicit pins — the Singleton-Success decision procedure of
//!   Lemma 5.4 with its data-parallel LOGCFL-fragment loop,
//! * [`obs`] — the telemetry layer: a dependency-free metrics registry
//!   (counters, gauges, log2-bucketed latency histograms with
//!   p50/p90/p99), sampled per-opcode query traces, the
//!   [`MetricSource`](obs::MetricSource) protocol unifying the
//!   workspace's `*Stats` structs, and
//!   Prometheus/JSON exporters (see `docs/observability.md`),
//! * [`circuits`] — monotone and SAC¹ boolean circuits with the layered
//!   serialization of Figure 3,
//! * [`reductions`] — the reductions of Theorems 3.2, 4.2, 4.3 and 5.7,
//! * [`catalog`] — the named multi-document store: stable
//!   [`DocId`](catalog::DocId)s, generation counters, LRU eviction, and
//!   the (query × document) plan-artifact cache behind
//!   [`Catalog`](catalog::Catalog) fan-out evaluation,
//! * [`serve`] — the async serving layer: a worker-pool executor with a
//!   bounded submission queue ([`AsyncEngine`](serve::AsyncEngine)),
//!   per-submission deadlines, and catalog-named submission,
//! * [`workloads`] — synthetic document/query/graph generators used by the
//!   benchmark harness and the examples.
//!
//! ## Quickstart: compile once, evaluate many
//!
//! The paper splits evaluation cost into per-query analysis (parse,
//! classify into the Figure 1 fragment lattice, pick the algorithm whose
//! complexity bound fits) and per-document evaluation.  The API mirrors
//! that: [`CompiledQuery`](engine::CompiledQuery) is the per-query half,
//! document-independent and
//! reusable; running it is the per-document half.
//!
//! ```
//! use xpeval::prelude::*;
//!
//! // Per-query work, done once — no document in sight.
//! let query = CompiledQuery::compile("/descendant-or-self::book[child::title]").unwrap();
//! assert_eq!(query.fragment(), Fragment::PositiveCoreXPath);   // Figure 1
//! assert_eq!(query.strategy(), EvalStrategy::CoreXPathLinear); // Prop. 2.7 plan
//!
//! // Per-document work, repeated at will.
//! let doc = parse_xml("<lib><book year='2003'><title>XPath</title></book></lib>").unwrap();
//! let out = query.run(&doc).unwrap();
//! assert_eq!(out.value.expect_nodes().len(), 1);
//! ```
//!
//! ## Prepare once, evaluate many
//!
//! The document side mirrors the query side: a
//! [`PreparedDocument`](dom::PreparedDocument) is
//! built once per document and carries axis indexes — tag-name lists,
//! per-parent tag buckets, preorder subtree intervals (and their
//! following/preceding complements), sibling-position tables — that every
//! evaluation strategy consumes through the [`dom::AxisSource`] trait.
//! Name tests on the child, descendant, following and preceding axes and
//! positional child predicates (`[k]`, `[last()]`) are answered from the
//! indexes; the strategy itself is chosen from the query's fragment alone
//! ([`engine::CompiledQuery::explain`] prints it, step routes included).
//! Pair a compiled query with a prepared document and both halves of the
//! pipeline are paid exactly once:
//!
//! ```
//! use xpeval::prelude::*;
//!
//! let query = CompiledQuery::compile("/descendant::book[child::title]").unwrap();
//! let doc = parse_xml("<lib><book><title>A</title></book><book/></lib>").unwrap();
//! let prepared = PreparedDocument::new(doc);   // per-document work, done once
//! for _ in 0..10 {
//!     let out = query.run_prepared(&prepared).unwrap(); // indexed fast path
//!     assert_eq!(out.value.expect_nodes().len(), 1);
//! }
//! ```
//!
//! Large results can stream instead of materializing a result vector: a
//! pinned Singleton-Success plan decides each candidate's membership *as
//! the stream reaches it* (consuming a prefix does a prefix of the decisions),
//! and the linear plan — which is inherently set-at-a-time — walks its
//! result bitset lazily after the one O(|D|·|Q|) evaluation:
//!
//! ```
//! use xpeval::prelude::*;
//!
//! let query = CompiledQuery::compile("//item").unwrap();
//! let doc = parse_xml("<r><item/><item/><item/></r>").unwrap();
//! let first = query.run_streaming(&doc).unwrap().next().unwrap().unwrap();
//! assert!(doc.kind(first).is_element());
//! ```
//!
//! A serving [`Engine`](engine::Engine) adds a bounded (sharded) LRU plan
//! cache keyed by the query string, so repeated `evaluate_str` calls skip
//! the per-query half.  The per-document half is the caller's to keep:
//! prepare once and hold the [`PreparedDocument`](dom::PreparedDocument)
//! (a [`Catalog`](catalog::Catalog) keeps one per named document):
//!
//! ```
//! use xpeval::prelude::*;
//!
//! let engine = Engine::builder().plan_cache_capacity(256).build();
//! let prepared = PreparedDocument::new(parse_xml("<lib><book/><book/></lib>").unwrap());
//! for _ in 0..10 {
//!     assert_eq!(
//!         engine.evaluate_str_prepared(&prepared, "count(//book)").unwrap(),
//!         Value::Number(2.0),
//!     );
//! }
//! let stats = engine.cache_stats();
//! assert_eq!(stats.misses, 1); // compiled once
//! assert_eq!(stats.hits, 9);   // served from the plan cache
//! ```
//!
//! Batch entry points evaluate one plan over many contexts
//! ([`engine::CompiledQuery::run_many`], sharing the DP evaluator's
//! context-value tables across the batch) or many plans against one
//! document ([`engine::Engine::evaluate_batch`] /
//! [`engine::Engine::evaluate_batch_prepared`]).
//!
//! ## Extending the query language
//!
//! Three extension axes grow the language without giving up the
//! complexity classification (the full map lives in `docs/fragments.md`
//! in the repository — the fragment-complexity reference):
//!
//! **External variables.**  `$name` references are free in XPath; values
//! arrive per evaluation through [`Bindings`](engine::Bindings).  Bindings
//! are an evaluation-time input, deliberately excluded from plan-cache and
//! artifact keys: one compiled plan serves any number of
//! parameterizations, and re-binding never recompiles.
//!
//! ```
//! use xpeval::prelude::*;
//!
//! let doc = parse_xml(
//!     "<lib><book year='2001'><title>A</title></book>\
//!      <book year='2003'><title>B</title></book></lib>",
//! ).unwrap();
//! let query = CompiledQuery::compile("//book[@year = $year]/title").unwrap();
//! assert_eq!(query.variables(), ["year".to_string()]);
//!
//! // One compilation, many parameterizations.
//! for (year, expect) in [(2001.0, "A"), (2003.0, "B")] {
//!     let bindings = Bindings::new().with_number("year", year);
//!     let out = query.run_bound(&doc, &bindings).unwrap();
//!     let nodes = out.value.expect_nodes();
//!     assert_eq!(doc.string_value(nodes[0]), expect);
//! }
//!
//! // A missing binding is an eager, named error — not a silent empty set.
//! let err = query.run_bound(&doc, &Bindings::new()).unwrap_err();
//! assert!(matches!(err, EvalError::UnboundVariable { .. }));
//! ```
//!
//! **Registered functions.**  A [`FunctionRegistry`](engine::FunctionRegistry)
//! adds user functions with compile-time signature/arity validation, each
//! declaring a [`FragmentImpact`](engine::FragmentImpact): `CoreSafe`
//! keeps the query's fragment (and with it a linear-bound strategy);
//! `General` — the default — conservatively degrades the plan to full
//! XPath, which routes it to the polynomial context-value-table
//! evaluator.  The plan never *claims* a complexity bound an opaque
//! handler could break:
//!
//! ```
//! use xpeval::prelude::*;
//!
//! let engine = Engine::builder()
//!     .register_function(
//!         FunctionSignature::new("double", 1, Some(1))
//!             .returns_number()
//!             .impact(FragmentImpact::CoreSafe),
//!         |args, _ctx, doc| Ok(Value::Number(args[0].to_number(doc) * 2.0)),
//!     )
//!     .build();
//! let doc = parse_xml("<lib><book year='2003'><title>B</title></book></lib>").unwrap();
//! let out = engine.evaluate_str(&doc, "//book[double(@year) = 4006]/title").unwrap();
//! assert_eq!(out.expect_nodes().len(), 1);
//!
//! // Mis-arity is rejected at compile time, like a built-in.
//! assert!(matches!(
//!     engine.compile("double(1, 2)").unwrap_err(),
//!     EvalError::WrongArity { .. },
//! ));
//! ```
//!
//! **Node-set operators.**  `union` (`|`), `intersect` and `except`
//! combine node sets in document order, and the node comparisons `is`,
//! `<<`, `>>` compare identity and document order — all lowered to
//! [`PlanIr`](engine::PlanIr) opcodes executed by every strategy, with the
//! linear evaluator running `intersect`/`except` natively on its bitsets:
//!
//! ```
//! use xpeval::prelude::*;
//!
//! let doc = parse_xml("<r><a><b/></a><b/><c/></r>").unwrap();
//! let q = CompiledQuery::compile("//b except //a/b").unwrap();
//! let out = q.run(&doc).unwrap();
//! assert_eq!(out.value.expect_nodes().len(), 1); // the top-level <b/>
//! let q = CompiledQuery::compile("//a << //c").unwrap();
//! assert_eq!(q.run(&doc).unwrap().value, Value::Boolean(true));
//! ```
//!
//! ## Serving many clients: the async layer
//!
//! All of the above occupies its caller; under concurrent load, wrap the
//! engine in an [`AsyncEngine`](serve::AsyncEngine) — a fixed worker pool
//! (every worker holds a clone of the engine handle, sharing its caches)
//! fed by a **bounded** submission queue.  Submissions return a
//! [`QueryFuture`](serve::QueryFuture) immediately; a full queue pushes
//! back (`submit` blocks, `try_submit` fails fast with
//! [`TrySubmitError::Full`](serve::TrySubmitError)); shutdown drains every
//! accepted job.  No runtime is required — futures are `.await`able from
//! any executor, waitable from any thread:
//!
//! ```
//! use std::sync::Arc;
//! use xpeval::prelude::*;
//!
//! let engine = Engine::builder().plan_cache_capacity(256).build();
//! let pool = AsyncEngine::builder().engine(engine).workers(2).queue_capacity(64).build();
//! let doc = Arc::new(PreparedDocument::new(
//!     parse_xml("<lib><book/><book/></lib>").unwrap(),
//! ));
//!
//! let futures: Vec<_> = (0..8)
//!     .map(|_| pool.submit(&doc, "count(//book)").unwrap())
//!     .collect();
//! for f in futures {
//!     assert_eq!(f.wait().unwrap().unwrap().value, Value::Number(2.0));
//! }
//!
//! let stats = pool.shutdown(); // ServeStats: queue depth, latency, per worker
//! assert_eq!(stats.completed, 8);
//! assert_eq!(stats.panicked, 0);
//! ```
//!
//! Backpressure, shutdown and queue behaviour are observable through
//! [`ServeStats`](serve::ServeStats), the serving-side sibling of
//! [`CacheStats`](engine::CacheStats).
//! [`submit_async`](serve::AsyncEngine::submit_async) awaits queue space
//! instead of blocking — the entry point meant for async runtimes.
//!
//! ## Many documents: the catalog
//!
//! Serving *many* documents needs names, not `Arc`s: a
//! [`Catalog`](catalog::Catalog) stores prepared documents under
//! human-readable names with stable [`DocId`](catalog::DocId)s, bounded
//! capacity (LRU), and a generation counter bumped by every replacement.
//! On top of the per-query plan cache and its own per-document prepared
//! indexes it adds the third amortization axis: a **(query × document) artifact
//! cache** holding document-specialized plans — strategy choice pinned,
//! final-step name tests pre-resolved to the document's interned
//! [`TagId`](dom::TagId)s, candidate bounds precomputed — so repeated
//! evaluation of the same pair skips tag resolution, and a verified zero
//! candidate bound skips evaluation itself:
//!
//! ```
//! use xpeval::prelude::*;
//!
//! let catalog = Catalog::builder().capacity(64).build();
//! catalog.insert_xml("orders", "<orders><order/><order/></orders>").unwrap();
//! catalog.insert_xml("archive", "<orders><order/></orders>").unwrap();
//!
//! // Prepare once, name many: repeats hit the (query × document) cache.
//! for _ in 0..10 {
//!     let out = catalog.evaluate_on("orders", "count(//order)").unwrap();
//!     assert_eq!(out.value, Value::Number(2.0));
//! }
//!
//! // Fan one query out over a glob of documents.
//! let totals = catalog.evaluate_matching("*", "count(//order)");
//! assert_eq!(totals.len(), 2);
//!
//! // Replacement bumps the generation and invalidates exactly the
//! // replaced document's artifacts.
//! catalog.insert_xml("orders", "<orders/>").unwrap();
//! assert_eq!(catalog.generation("orders"), Some(2));
//! assert_eq!(
//!     catalog.evaluate_on("orders", "count(//order)").unwrap().value,
//!     Value::Number(0.0),
//! );
//! println!("{}", catalog.stats()); // one-line CatalogStats summary
//! ```
//!
//! ### Flat plan IR and content-hash sharing
//!
//! Behind every compiled query sits a flat, arena-allocated instruction
//! IR ([`PlanIr`](engine::PlanIr)): operators in one contiguous
//! [`OpIr`](engine::OpIr) arena (each tagged with the Figure 1 fragment
//! that admitted it, so the complexity classification survives lowering)
//! and location-path steps in a [`StepIr`](engine::StepIr) table carrying
//! per-step metadata — axis, name test pre-resolved to the
//! **workspace-global** interned [`TagId`](dom::TagId), the table
//! machine's route through the step (set-at-a-time, in sibling groups,
//! folded into the next step, or per context node) and through each
//! predicate (positional picks among them), `//`-fusion flag.  All five
//! evaluation strategies execute this IR instead of re-walking the AST,
//! which turns an artifact-cache hit into a dispatch.
//!
//! Because tag ids are global (one lock-sharded symbol table for the whole
//! process, [`dom::intern`]), specialized plans compare across documents —
//! so artifacts are keyed by **document content hash**
//! ([`ArtifactScope`](catalog::ArtifactScope)): two identical documents
//! inserted under different names share one artifact, and its cached
//! evaluation carries over.  Mutation divergence ends the sharing for
//! exactly the diverging document.
//!
//! ```
//! use xpeval::prelude::*;
//!
//! let query = CompiledQuery::compile("//book/title").unwrap();
//! let ir: &PlanIr = query.ir();     // the lowered program
//! assert_eq!(ir.fused_steps(), 1);  // pred-less `//book` → descendant::book
//!
//! let catalog = Catalog::new();
//! let xml = "<lib><book><title/></book></lib>";
//! catalog.insert_xml("a", xml).unwrap();
//! catalog.insert_xml("b", xml).unwrap();  // same content, same hash
//! catalog.evaluate_on("a", "//book/title").unwrap();
//! catalog.evaluate_on("b", "//book/title").unwrap(); // shares a's artifact
//! let s = catalog.stats();
//! assert_eq!((s.artifact_misses, s.artifact_cross_doc_hits), (1, 1));
//! ```
//!
//! The serving pool accepts names too —
//! [`AsyncEngine::submit_named`](serve::AsyncEngine::submit_named) targets
//! a catalog document by name (resolved when the job runs, so it always
//! sees the current generation), and
//! [`AsyncEngine::submit_with_deadline`](serve::AsyncEngine::submit_with_deadline)
//! bounds how long any submission may queue: a job whose deadline passes
//! while it waits is dropped unrun and resolves
//! [`JobExpired`](serve::JobExpired).
//!
//! ## Live documents: edit in place, invalidate by subtree
//!
//! Documents are edited far more often than replaced.  A
//! [`LiveDocument`](live::LiveDocument) edits a prepared document **in
//! place** — `insert_subtree`, `remove_subtree`, `replace_subtree`,
//! `set_attribute`, `set_text` — maintaining every axis index
//! *incrementally* (gap-based ordering keys absorb edits without
//! renumbering; tag lists, child buckets and position tables are patched
//! for exactly the dirty subtree) instead of paying a full O(|D|)
//! re-preparation.  Snapshots are copy-on-write, so concurrent readers
//! never see a half-patched index.  Through
//! [`Catalog::mutate_named`](catalog::Catalog::mutate_named) an edit bumps
//! the entry's **revision** (the fine-grained sibling of the
//! whole-replacement *generation*) and re-targets the document's plan
//! artifacts: only those whose candidates intersect the edit's dirty
//! preorder interval are dropped, the rest keep their specialized plan
//! across the edit.
//!
//! ```
//! use xpeval::prelude::*;
//!
//! let catalog = Catalog::new();
//! catalog.insert_xml("inv", "<inv><item/><item/><audit/></inv>").unwrap();
//! catalog.evaluate_on("inv", "//item").unwrap();   // caches an artifact
//! catalog.evaluate_on("inv", "//audit").unwrap();  // ...and another
//!
//! let fragment = parse_xml("<item new=\"1\"/>").unwrap();
//! let out = catalog
//!     .mutate_named("inv", |live| {
//!         let inv = live.first_child(live.root()).unwrap();
//!         live.insert_subtree(inv, 2, &fragment).unwrap();
//!     })
//!     .unwrap();
//! assert_eq!(out.revision, 1);                       // revision, not generation
//! assert_eq!(catalog.generation("inv"), Some(1));
//! assert_eq!(out.artifacts_killed, 1);               // //item intersects the edit
//! assert_eq!(out.artifacts_preserved, 1);            // //audit survives it
//! assert_eq!(
//!     catalog.evaluate_on("inv", "count(//item)").unwrap().value,
//!     Value::Number(3.0),
//! );
//! ```
//!
//! The pool submits edits the same way as queries:
//! [`AsyncEngine::submit_mutation_named`](serve::AsyncEngine::submit_mutation_named)
//! runs the closure on a worker, serialized with queries on the same
//! catalog while independent tenants proceed in parallel.
//!
//! ## Backends: eager, lazy, snapshot, tree providers
//!
//! Everything above assumes the eager path: parse the whole document,
//! build every index, then query.  The [`backends`] crate makes the
//! *storage* layer pluggable below [`AxisSource`](dom::AxisSource),
//! trading ingest cost against first-query latency:
//!
//! | backend | ingest cost | first query | re-open | best for |
//! |---|---|---|---|---|
//! | **eager** (default) | parse + index all | fast | parse + index again | documents queried many times |
//! | **lazy** ([`LazyDocument`](backends::LazyDocument)) | tokenize only | parses only touched subtrees | tokenize only | large documents, targeted queries |
//! | **snapshot** ([`PreparedSnapshot`](backends::PreparedSnapshot)) | one-time export | fast | O(validate) on checksummed bytes | prepared-once, served-everywhere |
//! | **tree** ([`TreeProvider`](dom::TreeProvider), e.g. [`JsonProvider`](backends::JsonProvider)) | provider-defined | fast | provider-defined | non-XML sources |
//!
//! A [`LazyDocument`](backends::LazyDocument) tokenizes XML into a
//! structural spine plus subtree *extents* and materializes only the
//! extents a query's tag footprint can touch —
//! [`EvalStats::nodes_materialized`](engine::EvalStats) witnesses how
//! little a targeted query parsed.  A
//! [`PreparedSnapshot`](backends::PreparedSnapshot) is a versioned,
//! checksummed binary image of a fully prepared document (arena, keys and
//! index tables); re-opening validates bytes instead of re-parsing and
//! re-indexing, and the non-default `mmap` feature maps the file rather
//! than reading it.  Corrupt or version-skewed images are rejected, never
//! misread.  All three enter the catalog
//! ([`Catalog::insert_lazy`](catalog::Catalog::insert_lazy) /
//! [`insert_snapshot`](catalog::Catalog::insert_snapshot) /
//! [`insert_tree`](catalog::Catalog::insert_tree)) where plan artifacts
//! are additionally keyed by [`BackendKind`](backends::BackendKind) and a
//! [`node_budget`](catalog::CatalogBuilder::node_budget) demotes lazy
//! entries back to their spine before evicting anyone; the pool serves
//! snapshots directly through
//! [`AsyncEngine::submit_snapshot`](serve::AsyncEngine::submit_snapshot).
//!
//! ```
//! use std::sync::Arc;
//! use xpeval::prelude::*;
//!
//! // Lazy: a query for //b materializes b's extent, not c's.
//! let xml = format!(
//!     "<r><a>{}</a><b>{}</b><c>{}</c></r>",
//!     "<x/>".repeat(400), "<y/>".repeat(400), "<z/>".repeat(400),
//! );
//! let lazy = LazyDocument::new(&xml).unwrap();
//! let doc = lazy.materialize_for(
//!     CompiledQuery::compile("count(//y)").unwrap().expr(),
//! ).unwrap();
//! assert!(doc.node_count() < lazy.total_nodes() / 2);
//!
//! // Snapshot: export a prepared document, re-open in O(validate).
//! let prepared = Arc::new(PreparedDocument::new(parse_xml("<r><s/></r>").unwrap()));
//! let bytes = PreparedSnapshot::to_bytes(&prepared);
//! let snapshot = PreparedSnapshot::from_bytes(bytes).unwrap();
//! assert_eq!(snapshot.node_count(), prepared.node_count());
//!
//! // Tree provider: JSON enters the same pipeline.
//! let json = JsonProvider::new(r#"{"order": {"id": 7}}"#);
//! let catalog = Catalog::new();
//! catalog.insert_tree("orders", &json).unwrap();
//! assert_eq!(
//!     catalog.evaluate_on("orders", "count(//id)").unwrap().value,
//!     Value::Number(1.0),
//! );
//! ```

// The fragment-complexity reference manual is executable documentation:
// compiling its code blocks as doctests keeps `docs/fragments.md` honest
// against the real API (`cargo test --doc` runs them).
#[cfg(doctest)]
#[doc = include_str!("../docs/fragments.md")]
struct FragmentsManual;

pub use xpeval_backends as backends;
pub use xpeval_catalog as catalog;
pub use xpeval_circuits as circuits;
pub use xpeval_core as engine;
pub use xpeval_dom as dom;
pub use xpeval_live as live;
pub use xpeval_obs as obs;
pub use xpeval_reductions as reductions;
pub use xpeval_serve as serve;
pub use xpeval_syntax as syntax;
pub use xpeval_workloads as workloads;

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use xpeval_backends::{
        BackendKind, JsonProvider, LazyDocument, PreparedSnapshot, SnapshotError,
    };
    pub use xpeval_catalog::{
        ArtifactScope, Catalog, CatalogBuilder, CatalogError, CatalogStats, DocId, DocInfo, FanOut,
        MutationOutcome, PlanArtifact,
    };
    pub use xpeval_core::{
        Bindings, CacheStats, CompileOptions, CompiledQuery, Context, Engine, EngineBuilder,
        EvalError, EvalStats, EvalStrategy, FragmentImpact, FunctionHandler, FunctionRegistry,
        FunctionSignature, NodeStream, OpIr, OpKind, PlanIr, QueryOutput, ShardStats, StepIr,
        StreamMode, SuccessTarget, Value,
    };
    pub use xpeval_dom::{
        parse_xml, Axis, AxisSource, Document, DocumentBuilder, EditOutcome, MutationError, NodeId,
        NodeTest, PositionalPick, PreparedDocument, TagId, TreeBuildError, TreeBuilder,
        TreeProvider, XmlProvider,
    };
    pub use xpeval_live::{LiveDocument, PendingEdits};
    pub use xpeval_obs::{
        parse_prometheus, render_json, render_prometheus, Field, FieldValue, Histogram,
        HistogramSnapshot, MetricSource, MetricsRegistry, QueryTrace, Telemetry, TraceSpan,
    };
    pub use xpeval_serve::{
        block_on, AsyncEngine, AsyncEngineBuilder, CatalogMutationResult, CatalogQueryResult,
        DeadlineResult, JobExpired, JobLost, QueryFuture, ServeStats, TrySubmitError, WorkerStats,
    };
    pub use xpeval_syntax::{parse_query, Expr, Fragment, FragmentReport};
}
