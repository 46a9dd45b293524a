//! The flat plan IR, measured where it pays: dispatching a lowered plan.
//!
//! Two views of the same repeated (query, small document) workload as
//! `bench_catalog`:
//!
//! * `ir_dispatch` — `CompiledQuery::run_prepared`: the lowered
//!   [`PlanIr`](xpeval_core::PlanIr) executed directly (resolved global
//!   `TagId`s, precomputed positional picks, fused `//` steps).
//! * `artifact_hit_dispatch` — the headline: a warm catalog where every
//!   evaluation finds its content-hash keyed artifact and dispatches —
//!   no compile, no strategy selection.
//!
//! A third case, `tenant_shared_hit`, spreads the same round over eight
//! *identical* tenant documents: content-hash artifact keying means all
//! eight share the artifacts the first tenant built
//! (`CatalogStats::artifact_cross_doc_hits` witnesses it below).
//!
//! In CI the medians feed `bench_gate`.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;
use xpeval_catalog::Catalog;
use xpeval_core::{Bindings, CompiledQuery, Engine, EvalStrategy, Value};
use xpeval_dom::PreparedDocument;
use xpeval_workloads::auction_site_document;

/// The `bench_catalog` serving mix: multi-step Core XPath location paths
/// with boolean predicates, all linear-strategy, on a small tree.
const QUERIES: [&str; 4] = [
    "/site/people/person[child::watches and not(child::nosuch)]/name",
    "/descendant-or-self::item[child::bid and not(child::reserve)]/child::name",
    "//europe/item[descendant::bid or child::name]/name",
    "/site/regions/europe/item[not(child::nosuch)]/bid",
];

const TENANTS: usize = 8;

/// Overlapping union arms: `//name` already contains every `//item/name`,
/// so the merge must dedup — from the prepared order keys, not a sort.
const UNION_QUERY: &str = "//name | //item/name | //person/name";

/// One compilation, many parameterizations: the binding is resolved at IR
/// execution time, so the plan-cache key stays the query string alone.
const BOUND_QUERY: &str = "count(//bid[@increase = $inc])";
const BINDING_SETS: usize = 64;

fn value_weight(v: &Value) -> usize {
    match v {
        Value::NodeSet(ns) => ns.len(),
        _ => 1,
    }
}

fn ir_dispatch_round(compiled: &[CompiledQuery], prepared: &PreparedDocument) -> usize {
    compiled
        .iter()
        .map(|q| value_weight(&q.run_prepared(prepared).unwrap().value))
        .sum()
}

fn catalog_round(catalog: &Catalog, name: &str) -> usize {
    QUERIES
        .iter()
        .map(|q| value_weight(&catalog.evaluate_on(name, q).unwrap().value))
        .sum()
}

fn tenant_round(catalog: &Catalog) -> usize {
    (0..TENANTS)
        .map(|i| {
            value_weight(
                &catalog
                    .evaluate_on(&format!("tenant-{i}"), QUERIES[0])
                    .unwrap()
                    .value,
            )
        })
        .sum()
}

fn union_dedup_round(q: &CompiledQuery, prepared: &PreparedDocument) -> usize {
    value_weight(&q.run_prepared(prepared).unwrap().value)
}

fn bound_reuse_round(engine: &Engine, prepared: &PreparedDocument, bindings: &[Bindings]) -> usize {
    bindings
        .iter()
        .map(|b| {
            value_weight(
                &engine
                    .evaluate_str_prepared_bound(prepared, BOUND_QUERY, b)
                    .unwrap(),
            )
        })
        .sum()
}

fn bench_plan_ir(c: &mut Criterion) {
    let doc = auction_site_document(&mut StdRng::seed_from_u64(42), 4);
    let prepared = Arc::new(PreparedDocument::new(doc.clone()));
    let compiled: Vec<CompiledQuery> = QUERIES
        .iter()
        .map(|q| CompiledQuery::compile(q).unwrap())
        .collect();
    for q in &compiled {
        // The mix is uniformly linear-strategy.
        assert_eq!(q.strategy(), EvalStrategy::CoreXPathLinear);
    }

    // Warm catalog: artifacts built once in this priming round.
    let warm = Catalog::builder().build();
    warm.insert_document("auction", doc.clone());
    catalog_round(&warm, "auction");

    // Eight identical tenants; only the first builds artifacts.
    let tenants = Catalog::builder().build();
    for i in 0..TENANTS {
        tenants.insert_document(&format!("tenant-{i}"), doc.clone());
    }
    tenant_round(&tenants);

    // Union with overlapping arms: the result must be deduped in document
    // order without a sort pass.
    let union_q = CompiledQuery::compile(UNION_QUERY).unwrap();
    let union_out = union_q.run_prepared(&prepared).unwrap();
    let union_nodes = union_out.value.expect_nodes();
    let arm_sum: usize = ["//name", "//item/name", "//person/name"]
        .iter()
        .map(|q| {
            let out = CompiledQuery::compile(q)
                .unwrap()
                .run_prepared(&prepared)
                .unwrap();
            out.value.expect_nodes().len()
        })
        .sum();
    assert!(
        union_nodes.len() < arm_sum,
        "the arms must overlap ({} vs {arm_sum}) or dedup is not measured",
        union_nodes.len()
    );
    assert!(
        union_nodes.windows(2).all(|w| w[0] < w[1]),
        "union results must be deduped in document order"
    );

    // One compiled plan under many distinct binding sets: compile once,
    // parameterize per evaluation.
    let bound_engine = Engine::builder().build();
    let bindings: Vec<Bindings> = (0..BINDING_SETS)
        .map(|i| Bindings::new().with_number("inc", (3 * (i % 16 + 1)) as f64))
        .collect();
    bound_reuse_round(&bound_engine, &prepared, &bindings); // prime: the one miss

    let mut group = c.benchmark_group("plan_ir");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.bench_function("ir_dispatch", |b| {
        b.iter(|| ir_dispatch_round(&compiled, &prepared))
    });
    group.bench_function("artifact_hit_dispatch", |b| {
        b.iter(|| catalog_round(&warm, "auction"))
    });
    group.bench_function("tenant_shared_hit", |b| b.iter(|| tenant_round(&tenants)));
    group.bench_function("union_dedup", |b| {
        b.iter(|| union_dedup_round(&union_q, &prepared))
    });
    group.bench_function("bound_variable_reuse", |b| {
        b.iter(|| bound_reuse_round(&bound_engine, &prepared, &bindings))
    });
    group.finish();

    // The acceptance bar for bindings: every evaluation after the priming
    // compile was a plan-cache hit — the cache key is binding-independent.
    let stats = bound_engine.cache_stats();
    assert_eq!(
        stats.misses, 1,
        "one compile serves all binding sets: {stats}"
    );
    assert_eq!(stats.len, 1, "{stats}");
    assert!(
        stats.hits >= (BINDING_SETS - 1) as u64,
        "binding sets after the first must hit: {stats}"
    );

    // The tenants really shared: one build served all eight names.
    let stats = tenants.stats();
    assert_eq!(stats.artifact_misses, 1, "{stats}");
    assert!(
        stats.artifact_cross_doc_hits >= (TENANTS - 1) as u64,
        "content-hash sharing must serve the other tenants: {stats}"
    );
}

criterion_group!(benches, bench_plan_ir);
criterion_main!(benches);
