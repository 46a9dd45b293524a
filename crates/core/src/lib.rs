//! # xpeval-core — XPath evaluation engines
//!
//! This crate implements the evaluation algorithms studied in
//! *"The Complexity of XPath Query Evaluation"* (Gottlob, Koch, Pichler;
//! PODS 2003).  A query is parsed, lowered once to the flat [`PlanIr`]
//! ([`ir`]) and run by one of the plan interpreters in [`exec`] — one per
//! result of the paper, selected by [`EvalStrategy`]:
//!
//! | [`EvalStrategy`] | Algorithm | Paper reference |
//! |---|---|---|
//! | `ContextValueTable` | Context-value-table dynamic programming (polynomial combined complexity) | Proposition 2.7, Theorem 7.2 |
//! | `Naive` | Direct per-context re-evaluation (exponential in the query, as in contemporary engines) | Section 1 |
//! | `CoreXPathLinear` | Set-at-a-time O(&#124;D&#124;·&#124;Q&#124;) evaluation of Core XPath | Proposition 2.7 |
//! | `SingletonSuccess` | The Singleton-Success NAuxPDA decision procedure | Definition 5.3, Lemma 5.4, Table 1 |
//! | `Parallel` | Data-parallel evaluation of pWF/pXPath via Singleton-Success | Theorems 5.5/6.2, Remark 5.6 |
//!
//! | Module | Role |
//! |---|---|
//! | [`ir`] | The flat plan: opcode/step arenas, global tag ids, precomputed admission verdicts |
//! | [`exec`] | The plan interpreters and the single strategy dispatch funnel |
//! | [`sets`] | [`NodeBitSet`], axis images and set operators the interpreters share |
//! | [`mod@reference`] | The one AST-level evaluator: the Section 1 exponential baseline, kept as the differential oracle for tests and benches — no request path calls it |
//!
//! Shared infrastructure: the XPath value domain ([`value`]), contexts and
//! context-value-table keys ([`context`]), the core function library
//! ([`functions`]) and the step semantics ([`steps`]).
//!
//! ## The compile-once pipeline
//!
//! The public entry points mirror the paper's cost split into per-query
//! analysis and per-document evaluation:
//!
//! * [`compile`] — [`CompiledQuery`] owns the parsed + normalized AST, its
//!   [`xpeval_syntax::FragmentReport`] and a pre-selected [`EvalStrategy`]
//!   plan; it is document-independent and evaluated via
//!   [`CompiledQuery::run`] / [`CompiledQuery::run_many`], returning a
//!   [`QueryOutput`] with the unified [`EvalStats`].
//! * [`cache`] — a bounded LRU [`PlanCache`] keyed by query string, sharded
//!   under concurrency ([`ShardedPlanCache`]), plus the [`DocumentCache`]
//!   memoizing per-document index preparation; all with observable
//!   [`CacheStats`].
//! * [`engine`] — [`Engine`], built by [`EngineBuilder`], drives the plan
//!   and document caches and offers one-shot, batch and `*_prepared`
//!   evaluation over compiled queries.
//!
//! ## The prepare-once document side
//!
//! [`xpeval_dom::PreparedDocument`] is the document-side mirror of
//! [`CompiledQuery`]: built once per document, it carries tag-name indexes,
//! preorder subtree intervals and position tables.  Every machine
//! consumes documents through the [`xpeval_dom::AxisSource`] trait, so both
//! plain and prepared documents work everywhere; [`stream`] adds
//! [`NodeStream`], the lazy node-set result iterator behind
//! [`CompiledQuery::run_streaming`].

pub mod bindings;
pub mod cache;
pub mod compile;
pub mod context;
pub mod engine;
pub mod error;
pub mod exec;
pub mod functions;
pub mod ir;
pub mod reference;
pub mod registry;
pub mod sets;
pub mod stats;
pub mod steps;
pub mod stream;
pub mod value;

pub use bindings::Bindings;
pub use cache::{CacheStats, DocKey, DocumentCache, PlanCache, ShardStats, ShardedPlanCache};
pub use compile::{
    default_threads, recommended_strategy, CompileOptions, CompiledQuery, QueryOutput,
};
pub use context::{Context, ContextKey};
pub use engine::{Engine, EngineBuilder, EvalStrategy};
pub use error::EvalError;
pub use exec::SuccessTarget;
pub use ir::{
    OpId, OpIr, OpKind, PlanIr, PredRoute, StepIr, StepRoute, StringCheck, StringSource, StringTest,
};
pub use registry::{FragmentImpact, FunctionHandler, FunctionRegistry, FunctionSignature};
pub use sets::NodeBitSet;
pub use stats::EvalStats;
pub use stream::{NodeStream, StreamMode};
pub use value::Value;
