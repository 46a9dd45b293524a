//! Integration tests for the compile-once pipeline: every workload query is
//! compiled exactly once and driven through all five evaluation strategies
//! via `CompiledQuery::run`, and the engine's plan cache is observably hit
//! on repeated query strings.

use rand::rngs::StdRng;
use rand::SeedableRng;
use xpeval::prelude::*;
use xpeval::workloads::{
    auction_site_document, core_xpath_query_corpus, pwf_query_corpus, random_tree_document,
};

const ALL_STRATEGIES: [EvalStrategy; 5] = [
    EvalStrategy::ContextValueTable,
    EvalStrategy::Naive,
    EvalStrategy::CoreXPathLinear,
    EvalStrategy::Parallel { threads: 2 },
    EvalStrategy::SingletonSuccess,
];

/// Runs one compiled query under every strategy and checks that every
/// strategy that accepts the query's fragment agrees with the DP reference.
fn assert_strategies_agree(doc: &Document, name: &str, compiled: &CompiledQuery) {
    let reference = compiled
        .clone()
        .with_strategy(EvalStrategy::ContextValueTable)
        .run(doc)
        .unwrap_or_else(|e| panic!("{name}: DP reference failed: {e}"))
        .value;
    let mut agreeing = 0;
    for strategy in ALL_STRATEGIES {
        match compiled.clone().with_strategy(strategy).run(doc) {
            Ok(out) => {
                assert_eq!(out.value, reference, "{name} under {strategy:?}");
                assert_eq!(out.fragment, compiled.fragment(), "{name} fragment");
                agreeing += 1;
            }
            Err(EvalError::UnsupportedFragment { .. }) => {
                // The linear and Singleton-Success evaluators legitimately
                // reject queries outside their fragment.
            }
            Err(e) => panic!("{name} under {strategy:?}: unexpected error {e}"),
        }
    }
    assert!(
        agreeing >= 3,
        "{name}: only {agreeing} strategies accepted the query"
    );
}

#[test]
fn all_five_strategies_agree_on_the_core_corpus() {
    let mut rng = StdRng::seed_from_u64(77);
    let doc = random_tree_document(&mut rng, 40, &["a", "b", "c", "d", "root"]);
    for (name, query) in core_xpath_query_corpus() {
        // Compile once, from the canonical printed form, document-unseen.
        let compiled =
            CompiledQuery::compile(&query.to_string()).unwrap_or_else(|e| panic!("{name}: {e}"));
        // Core corpus queries must be accepted by the *linear* evaluator in
        // particular: the auto-selected plan already is CoreXPathLinear.
        assert_eq!(compiled.strategy(), EvalStrategy::CoreXPathLinear, "{name}");
        assert_strategies_agree(&doc, name, &compiled);
    }
}

#[test]
fn strategies_agree_on_the_pwf_corpus() {
    let mut rng = StdRng::seed_from_u64(78);
    let doc = auction_site_document(&mut rng, 12);
    for (name, query) in pwf_query_corpus() {
        let compiled =
            CompiledQuery::compile(&query.to_string()).unwrap_or_else(|e| panic!("{name}: {e}"));
        // pWF/pXPath queries run on the table machine; the per-candidate
        // Singleton-Success procedure is among the pins compared below.
        assert_eq!(
            compiled.strategy(),
            EvalStrategy::ContextValueTable,
            "{name}"
        );
        assert_strategies_agree(&doc, name, &compiled);
    }
}

#[test]
fn one_compilation_serves_many_documents() {
    let compiled = CompiledQuery::compile("//a[child::b]").unwrap();
    let mut rng = StdRng::seed_from_u64(79);
    for nodes in [5, 20, 80] {
        let doc = random_tree_document(&mut rng, nodes, &["a", "b"]);
        let out = compiled.run(&doc).unwrap();
        let reference = Engine::new(EvalStrategy::ContextValueTable)
            .evaluate_str(&doc, "//a[child::b]")
            .unwrap();
        assert_eq!(out.value, reference, "{nodes} nodes");
    }
}

#[test]
fn repeated_evaluate_str_is_a_cache_hit() {
    let mut rng = StdRng::seed_from_u64(80);
    let doc = random_tree_document(&mut rng, 30, &["a", "b"]);
    let engine = Engine::builder().plan_cache_capacity(8).build();

    let first = engine.evaluate_str(&doc, "count(//a)").unwrap();
    let after_first = engine.cache_stats();
    assert_eq!(after_first.misses, 1);
    assert_eq!(after_first.hits, 0);
    assert_eq!(after_first.len, 1);

    // Second evaluation of the same string: answered from the plan cache —
    // no re-parse, no re-classification.
    let second = engine.evaluate_str(&doc, "count(//a)").unwrap();
    let after_second = engine.cache_stats();
    assert_eq!(second, first);
    assert_eq!(after_second.misses, 1, "second call must not recompile");
    assert_eq!(after_second.hits, 1);

    // A different string is a fresh miss.
    engine.evaluate_str(&doc, "count(//b)").unwrap();
    let after_third = engine.cache_stats();
    assert_eq!(after_third.misses, 2);
    assert_eq!(after_third.len, 2);
}

#[test]
fn plan_cache_respects_its_capacity() {
    let mut rng = StdRng::seed_from_u64(81);
    let doc = random_tree_document(&mut rng, 10, &["a", "b", "c"]);
    let engine = Engine::builder().plan_cache_capacity(2).build();
    for q in ["//a", "//b", "//c"] {
        engine.evaluate_str(&doc, q).unwrap();
    }
    let stats = engine.cache_stats();
    assert_eq!(stats.capacity, 2);
    assert_eq!(stats.len, 2);
    assert_eq!(stats.evictions, 1);
}

#[test]
fn evaluate_many_over_every_element_context() {
    let mut rng = StdRng::seed_from_u64(82);
    let doc = random_tree_document(&mut rng, 40, &["a", "b"]);
    let engine = Engine::builder().build();
    let compiled = engine.compile("count(child::*)").unwrap();
    let contexts: Vec<Context> = doc.all_elements().map(|n| Context::new(n, 1, 1)).collect();
    let outs = engine.evaluate_many(&doc, &compiled, &contexts).unwrap();
    assert_eq!(outs.len(), contexts.len());
    // Spot-check against per-context one-shot evaluation.
    for (ctx, out) in contexts.iter().zip(&outs) {
        let one = compiled.run_with_context(&doc, *ctx).unwrap();
        assert_eq!(one.value, out.value);
    }
}

#[test]
fn evaluate_batch_runs_heterogeneous_plans() {
    let mut rng = StdRng::seed_from_u64(83);
    let doc = auction_site_document(&mut rng, 10);
    let engine = Engine::builder().build();
    let plans: Vec<_> = [
        "//item/name",
        "//item[position() = last()]",
        "count(//item)",
    ]
    .iter()
    .map(|q| engine.compile(q).unwrap())
    .collect();
    let refs: Vec<&CompiledQuery> = plans.iter().map(|p| p.as_ref()).collect();
    let results = engine.evaluate_batch(&doc, &refs);
    assert_eq!(results.len(), 3);
    for (plan, result) in plans.iter().zip(&results) {
        let out = result
            .as_ref()
            .unwrap_or_else(|e| panic!("{}: {e}", plan.source()));
        assert_eq!(out.fragment, plan.fragment());
    }
    assert_eq!(results[2].as_ref().unwrap().value, Value::Number(10.0));
}

#[test]
fn compile_errors_carry_parse_positions() {
    let err = CompiledQuery::compile("//item[").unwrap_err();
    let EvalError::Parse { message, .. } = &err else {
        panic!("expected EvalError::Parse, got {err:?}");
    };
    assert!(!message.is_empty());

    let engine = Engine::builder().build();
    let err = engine.compile("//item[@a = ]").unwrap_err();
    assert!(matches!(err, EvalError::Parse { .. }), "{err:?}");
    // Failed compilations are not cached.
    assert_eq!(engine.cache_stats().len, 0);
}
