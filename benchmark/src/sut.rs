//! The adapter: every call into the system under test lives in this file,
//! so a rename in the library's request API needs a one-file follow-up
//! here and nothing else in the benchmark changes.
//!
//! The functions are thin on purpose — each is one layer boundary, and
//! the workloads wrap a span around each call.

use std::sync::Arc;
use std::time::Instant;

use xpeval::backends::{LazyDocument, PreparedSnapshot};
use xpeval::catalog::Catalog;
use xpeval::dom::serialize::serialize_subtree;
use xpeval::dom::{parse_xml, Document, PreparedDocument};
use xpeval::engine::{CompiledQuery, Engine, EvalStrategy, QueryOutput, Value};
use xpeval::obs::HistogramSnapshot;
use xpeval::serve::{AsyncEngine, CatalogMutationResult, CatalogQueryResult, QueryFuture};
use xpeval::syntax::parse_query;

pub type Prepared = Arc<PreparedDocument>;
pub type Store = Catalog;
pub type Pool = AsyncEngine;
pub type Cached = Engine;

/// The evaluation machine a plan runs on; names the `core.exec.<machine>`
/// span and the per-layer metric family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Machine {
    Linear,
    Cvt,
    Ss,
    Parallel,
    Naive,
}

impl Machine {
    pub const ALL: [Machine; 5] = [
        Machine::Linear,
        Machine::Cvt,
        Machine::Ss,
        Machine::Parallel,
        Machine::Naive,
    ];

    pub fn span_name(self) -> &'static str {
        match self {
            Machine::Linear => "core.exec.linear",
            Machine::Cvt => "core.exec.cvt",
            Machine::Ss => "core.exec.ss",
            Machine::Parallel => "core.exec.parallel",
            Machine::Naive => "core.exec.naive",
        }
    }

    fn of(strategy: EvalStrategy) -> Machine {
        match strategy {
            EvalStrategy::CoreXPathLinear => Machine::Linear,
            EvalStrategy::ContextValueTable => Machine::Cvt,
            EvalStrategy::SingletonSuccess => Machine::Ss,
            EvalStrategy::Parallel { .. } => Machine::Parallel,
            EvalStrategy::Naive => Machine::Naive,
        }
    }

    fn strategy(self) -> EvalStrategy {
        match self {
            Machine::Linear => EvalStrategy::CoreXPathLinear,
            Machine::Cvt => EvalStrategy::ContextValueTable,
            Machine::Ss => EvalStrategy::SingletonSuccess,
            Machine::Parallel => EvalStrategy::Parallel { threads: nproc() },
            Machine::Naive => EvalStrategy::Naive,
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ---- dom ---------------------------------------------------------------

pub fn parse(xml: &str) -> Result<Document, String> {
    parse_xml(xml).map_err(|e| e.to_string())
}

pub fn prepare(doc: Document) -> Prepared {
    Arc::new(PreparedDocument::new(doc))
}

pub fn node_count(doc: &Prepared) -> usize {
    doc.node_count()
}

/// A request's answer as the client receives it: node sets as the
/// serialized subtrees of their nodes, one per line; scalars as text.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    pub text: String,
    /// Node count of a node-set answer.
    pub nodes: Option<usize>,
}

pub fn serialize_answer(value: &Value, doc: &Prepared) -> Answer {
    match value {
        Value::NodeSet(nodes) => {
            let mut text = String::new();
            for &n in nodes {
                text.push_str(&serialize_subtree(doc.document(), n));
                text.push('\n');
            }
            Answer {
                text,
                nodes: Some(nodes.len()),
            }
        }
        Value::Number(x) => Answer {
            text: x.to_string(),
            nodes: None,
        },
        Value::Str(s) => Answer {
            text: s.clone(),
            nodes: None,
        },
        Value::Boolean(b) => Answer {
            text: b.to_string(),
            nodes: None,
        },
    }
}

// ---- syntax / core -----------------------------------------------------

/// Parse only, for the `syntax.parse` span; `compile` parses again itself.
pub fn parse_query_text(query: &str) -> Result<(), String> {
    parse_query(query).map(drop).map_err(|e| e.to_string())
}

pub fn compile(query: &str) -> Result<CompiledQuery, String> {
    CompiledQuery::compile(query).map_err(|e| e.to_string())
}

/// Microseconds the plan's own clock spent lowering to `PlanIr`.
pub fn lower_us(plan: &CompiledQuery) -> f64 {
    plan.lower_nanos() as f64 / 1e3
}

pub fn pinned(plan: &CompiledQuery, machine: Machine) -> CompiledQuery {
    plan.clone().with_strategy(machine.strategy())
}

/// The machine the plan will pick for itself on this document.
pub fn machine_for(plan: &CompiledQuery, doc: &Prepared) -> Machine {
    Machine::of(plan.strategy_for_source(doc.as_ref()))
}

pub fn run(plan: &CompiledQuery, doc: &Prepared) -> Result<QueryOutput, String> {
    plan.run_prepared(doc).map_err(|e| e.to_string())
}

pub fn cached_engine() -> Cached {
    Engine::builder().build()
}

/// The warm request path: plan-cache lookup, then run.
pub fn evaluate_cached(engine: &Cached, doc: &Prepared, query: &str) -> Result<Value, String> {
    engine
        .evaluate_str_prepared(doc, query)
        .map_err(|e| e.to_string())
}

/// `(hits, misses)` of the engine's plan cache.
pub fn plan_cache_counts(engine: &Cached) -> (u64, u64) {
    let stats = engine.cache_stats();
    (stats.hits, stats.misses)
}

// ---- backends ----------------------------------------------------------

pub fn lazy_tokenize(xml: &str) -> Result<LazyDocument, String> {
    LazyDocument::new(xml).map_err(|e| e.to_string())
}

pub fn lazy_materialize(lazy: &LazyDocument, plan: &CompiledQuery) -> Result<Prepared, String> {
    lazy.materialize_for(plan.expr()).map_err(|e| e.to_string())
}

pub fn lazy_total_nodes(lazy: &LazyDocument) -> usize {
    lazy.total_nodes()
}

pub fn snapshot_image(doc: &Prepared) -> Vec<u8> {
    PreparedSnapshot::to_bytes(doc)
}

pub fn snapshot_open(image: Vec<u8>) -> Result<PreparedSnapshot, String> {
    PreparedSnapshot::from_bytes(image).map_err(|e| e.to_string())
}

pub fn snapshot_decode(snapshot: &PreparedSnapshot) -> Result<Prepared, String> {
    snapshot.document().map_err(|e| e.to_string())
}

// ---- catalog -----------------------------------------------------------

/// A default-configured catalog (256 documents, 1024 artifacts).
pub fn store() -> Store {
    Catalog::builder().build()
}

pub fn store_insert_xml(store: &Store, name: &str, xml: &str) -> Result<(), String> {
    store
        .insert_xml(name, xml)
        .map(drop)
        .map_err(|e| e.to_string())
}

pub fn store_insert_lazy(store: &Store, name: &str, xml: &str) -> Result<(), String> {
    store
        .insert_lazy(name, xml)
        .map(drop)
        .map_err(|e| e.to_string())
}

pub fn store_insert_snapshot(store: &Store, name: &str, image: Vec<u8>) -> Result<(), String> {
    let snapshot = Arc::new(snapshot_open(image)?);
    store
        .insert_snapshot(name, &snapshot)
        .map(drop)
        .map_err(|e| e.to_string())
}

pub fn store_evaluate(store: &Store, name: &str, query: &str) -> Result<QueryOutput, String> {
    store.evaluate_on(name, query).map_err(|e| e.to_string())
}

/// The document currently stored under `name`, to serialize an answer
/// against.
pub fn store_document(store: &Store, name: &str) -> Option<Prepared> {
    store.get(name)
}

/// The serialized form of an answer the catalog gave for `name`.
pub fn store_answer(store: &Store, name: &str, out: &QueryOutput) -> Result<Answer, String> {
    let doc = store_document(store, name).ok_or("the document is gone")?;
    Ok(serialize_answer(&out.value, &doc))
}

/// The `CatalogStats` counters the per-layer metrics read.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreCounts {
    pub artifact_hits: u64,
    pub artifact_misses: u64,
    pub resolve_hits: u64,
    pub resolve_misses: u64,
}

pub fn store_counts(store: &Store) -> StoreCounts {
    let stats = store.stats();
    StoreCounts {
        artifact_hits: stats.artifact_hits,
        artifact_misses: stats.artifact_misses,
        resolve_hits: stats.resolve_hits,
        resolve_misses: stats.resolve_misses,
    }
}

// ---- serve + live ------------------------------------------------------

/// A pool on the catalog's own engine, so named reads share its plan
/// cache.
pub fn pool(store: &Store, workers: usize) -> Pool {
    AsyncEngine::builder()
        .engine(store.engine().clone())
        .workers(workers)
        .build()
}

pub type ReadTicket = QueryFuture<CatalogQueryResult>;

pub fn submit_read(
    pool: &Pool,
    store: &Store,
    name: &str,
    query: &str,
) -> Result<ReadTicket, String> {
    pool.submit_named(store, name, query)
        .map_err(|e| format!("{e:?}"))
}

pub fn wait_read(ticket: ReadTicket) -> Result<QueryOutput, String> {
    match ticket.wait() {
        Ok(result) => result.map_err(|e| e.to_string()),
        Err(lost) => Err(lost.to_string()),
    }
}

/// One in-place edit of an auction document.  Items are addressed by
/// their position in document order, bids by their position in the item.
#[derive(Clone, Debug, PartialEq)]
pub enum Edit {
    InsertBid {
        item: usize,
        increase: f64,
    },
    RemoveBid {
        item: usize,
        bid: usize,
    },
    SetIncrease {
        item: usize,
        bid: usize,
        increase: f64,
    },
}

/// What the edit closure reports back from the worker.
#[derive(Clone, Copy, Debug)]
pub struct EditReport {
    /// When the `LiveDocument` call alone started and ended, on the
    /// worker's reading of the shared monotonic clock.
    pub start: Instant,
    pub end: Instant,
    pub renumbered: bool,
}

pub type WriteTicket = QueryFuture<CatalogMutationResult<Result<EditReport, String>>>;

pub fn submit_write(
    pool: &Pool,
    store: &Store,
    name: &str,
    edit: Edit,
) -> Result<WriteTicket, String> {
    // The fragment is parsed before submitting; the closure only edits.
    let fragment = match &edit {
        Edit::InsertBid { increase, .. } => Some(parse(&crate::gen::bid_xml(*increase))?),
        _ => None,
    };
    pool.submit_mutation_named(store, name, move |live| {
        let nth_bid = |live: &xpeval::live::LiveDocument, item: usize, bid: usize| {
            let item = *live
                .elements_named("item")
                .get(item)
                .ok_or("no such item")?;
            live.children_named(item, "bid")
                .get(bid)
                .copied()
                .ok_or("no such bid")
        };
        let start;
        let outcome = match edit {
            Edit::InsertBid { item, .. } => {
                let item = *live
                    .elements_named("item")
                    .get(item)
                    .ok_or("no such item")?;
                let at = live.child_count(item);
                let fragment = fragment.as_ref().ok_or("no fragment")?;
                start = Instant::now();
                live.insert_subtree(item, at, fragment)
            }
            Edit::RemoveBid { item, bid } => {
                let bid = nth_bid(live, item, bid)?;
                start = Instant::now();
                live.remove_subtree(bid)
            }
            Edit::SetIncrease {
                item,
                bid,
                increase,
            } => {
                let bid = nth_bid(live, item, bid)?;
                start = Instant::now();
                live.set_attribute(bid, "increase", &increase.to_string())
            }
        };
        let end = Instant::now();
        let outcome = outcome.map_err(|e| e.to_string())?;
        Ok(EditReport {
            start,
            end,
            renumbered: outcome.renumbered,
        })
    })
    .map_err(|e| format!("{e:?}"))
}

/// The write's report and how many plan artifacts it killed.
pub fn wait_write(ticket: WriteTicket) -> Result<(EditReport, u64), String> {
    match ticket.wait() {
        Ok(Ok(outcome)) => Ok((outcome.value?, outcome.artifacts_killed)),
        Ok(Err(e)) => Err(e.to_string()),
        Err(lost) => Err(lost.to_string()),
    }
}

/// The `ServeStats` figures the per-layer metrics read.
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolCounts {
    pub queue_wait_p50_us: f64,
    pub exec_p50_us: f64,
    pub rejected: u64,
}

/// The median of a log2-bucketed histogram of nanoseconds, in µs.  The
/// library's own `p50()` reports the bucket's upper bound, which reads the
/// same on every run; this places the median inside its bucket by rank.
fn histogram_p50_us(snapshot: &HistogramSnapshot) -> f64 {
    let rank = snapshot.count.div_ceil(2);
    let mut seen = 0;
    for (i, &n) in snapshot.buckets.iter().enumerate() {
        if n > 0 && seen + n >= rank {
            // Bucket `i` holds the values of bit length `i`.
            let low = if i == 0 {
                0.0
            } else {
                (1u64 << (i - 1)) as f64
            };
            let nanos = low + low.max(1.0) * (rank - seen) as f64 / n as f64;
            return nanos.min(snapshot.max as f64) / 1e3;
        }
        seen += n;
    }
    0.0
}

/// Drains the pool, joins its workers and returns its final counters.
pub fn pool_shutdown(pool: Pool) -> PoolCounts {
    let stats = pool.shutdown();
    PoolCounts {
        queue_wait_p50_us: histogram_p50_us(&stats.queue_wait),
        exec_p50_us: histogram_p50_us(&stats.execution),
        rejected: stats.rejected_full + stats.rejected_shutdown + stats.expired + stats.panicked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_median_is_placed_inside_its_bucket() {
        let mut snapshot = HistogramSnapshot::default();
        // Values of bit length 11 are 1024..=2047.
        snapshot.buckets[10] = 10;
        snapshot.buckets[11] = 30;
        snapshot.count = 40;
        snapshot.max = 2000;
        // Rank 20 is the tenth of the thirty values in 1024..2048.
        let p50 = histogram_p50_us(&snapshot);
        assert!(
            (p50 - (1024.0 + 1024.0 * 10.0 / 30.0) / 1e3).abs() < 1e-9,
            "{p50}"
        );
        assert_eq!(histogram_p50_us(&HistogramSnapshot::default()), 0.0);
    }
}
