//! Comparing the evaluation strategies on the paper's pathological query
//! family: the naive (re-evaluation) strategy of pre-2002 engines against
//! the context-value-table dynamic program, the linear-time Core XPath
//! evaluator and the parallel LOGCFL evaluator — all driven through one
//! compiled query per family member.
//!
//! ```bash
//! cargo run --release --example engine_comparison
//! ```

use std::time::Instant;
use xpeval::prelude::*;
use xpeval::workloads::{auction_site_document, blowup_document, blowup_query};

fn main() {
    // Part 1: exponential vs polynomial combined complexity, read off the
    // unified EvalStats of the two strategies.
    println!("== //a/b/parent::a/b/... on a document with 3 b-children ==\n");
    let doc = blowup_document(3);
    println!("reps | naive step-contexts | naive max list | cvt step-contexts | cvt table entries");
    println!("-----+---------------------+----------------+-------------------+------------------");
    for reps in 1..=8 {
        let compiled = CompiledQuery::from_expr(blowup_query(reps));
        let naive = compiled
            .clone()
            .with_strategy(EvalStrategy::Naive)
            .run(&doc)
            .unwrap();
        let cvt = compiled
            .with_strategy(EvalStrategy::ContextValueTable)
            .run(&doc)
            .unwrap();
        println!(
            "{reps:4} | {:19} | {:14} | {:17} | {:17}",
            naive.stats.step_context_evaluations,
            naive.stats.max_intermediate_list,
            cvt.stats.step_context_evaluations,
            cvt.stats.table_entries
        );
    }
    println!(
        "\nThe naive columns triple per repetition (3^m); the CVT columns grow by a constant."
    );

    // Part 2: all strategies agree, with different costs, on a pXPath query.
    println!("\n== strategy comparison on a pXPath query over an auction document ==\n");
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(2003);
    let doc = auction_site_document(&mut rng, 200);
    let compiled = CompiledQuery::compile("//item[bid/@increase > 6]/name").unwrap();
    let report = compiled.report();
    println!(
        "query: {}   (fragment: {}, {})\n",
        compiled.source(),
        report.fragment,
        report.complexity
    );

    let reference = compiled
        .clone()
        .with_strategy(EvalStrategy::ContextValueTable)
        .run(&doc)
        .unwrap()
        .value;
    let expected = reference.expect_nodes().len();

    for (name, strategy) in [
        ("context-value table (DP)", EvalStrategy::ContextValueTable),
        ("naive re-evaluation", EvalStrategy::Naive),
        (
            "singleton-success (sequential)",
            EvalStrategy::SingletonSuccess,
        ),
        ("parallel x2", EvalStrategy::Parallel { threads: 2 }),
        ("parallel x4", EvalStrategy::Parallel { threads: 4 }),
    ] {
        let plan = compiled.clone().with_strategy(strategy);
        let start = Instant::now();
        let out = plan.run(&doc).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(out.value.expect_nodes().len(), expected);
        println!(
            "{name:32} -> {expected} nodes in {:>10.3} us",
            elapsed.as_secs_f64() * 1e6
        );
    }

    // Part 3: the plan the compiler picks per fragment.
    println!("\n== automatic plan selection ==\n");
    for src in [
        "/a/b/c",
        "//a[not(child::b)]",
        "//a[position() = last()]",
        "count(//a) > 2",
    ] {
        let compiled = CompiledQuery::compile(src).unwrap();
        println!("{src:35} -> {:?}", compiled.strategy());
    }

    // Part 4: the auto-selected plan (parallel, for this pXPath query),
    // served repeatedly through an engine.  The cache reports itself as
    // one Display summary line — no field-by-field printing.
    let engine = Engine::builder().plan_cache_capacity(64).build();
    let auto = engine.compile("//item[bid/@increase > 6]/name").unwrap();
    assert!(matches!(auto.strategy(), EvalStrategy::Parallel { .. }));
    for _ in 0..3 {
        let direct = engine
            .evaluate_str(&doc, "//item[bid/@increase > 6]/name")
            .unwrap();
        assert_eq!(direct.expect_nodes().len(), expected);
    }
    println!(
        "\nplan cache after one compile + 3 serves: {}",
        engine.cache_stats()
    );
}
