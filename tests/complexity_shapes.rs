//! Deterministic "shape" checks of the complexity claims, using the plan
//! machines' work counters instead of wall-clock time so they are stable
//! under CI load.
//!
//! * combined complexity: naive work grows geometrically on the blow-up
//!   family, context-value-table work grows linearly (paper Section 1 /
//!   Proposition 2.7) — experiment E2;
//! * data complexity: for a fixed query, the DP evaluator's table size grows
//!   linearly in |D| (Theorem 7.2) — experiment E10;
//! * query complexity: for a fixed document, the DP evaluator's work grows
//!   linearly in |Q| for PF chains (Theorem 7.3) — experiment E11;
//! * the plan the engine picks itself scales near-linearly in |D| on the
//!   benchmark's pWF/pXPath and full-XPath queries, and wrapping a query in
//!   `count(…)` — which changes its fragment — does not change its cost.

use rand::rngs::StdRng;
use rand::SeedableRng;
use xpeval::engine::reference::ReferenceEvaluator;
use xpeval::prelude::*;
use xpeval::workloads::{
    auction_site_document, blowup_document, blowup_query, oscillating_query, random_tree_document,
};

/// The work counters of one run of `query` on the machine behind `strategy`.
fn work(doc: &Document, query: &Expr, strategy: EvalStrategy) -> EvalStats {
    CompiledQuery::from_expr(query.clone())
        .with_strategy(strategy)
        .run(doc)
        .unwrap()
        .stats
}

#[test]
fn naive_work_is_geometric_and_dp_work_is_linear() {
    let fan_out = 3usize;
    let doc = blowup_document(fan_out);
    let mut naive_lists = Vec::new();
    let mut dp_work = Vec::new();
    for reps in 1..=6 {
        let query = blowup_query(reps);
        naive_lists.push(work(&doc, &query, EvalStrategy::Naive).max_intermediate_list);
        dp_work.push(work(&doc, &query, EvalStrategy::ContextValueTable).step_context_evaluations);
    }
    // Naive: the intermediate list multiplies by the fan-out each repetition
    // (from repetition 2 onwards, once the k^m term dominates).
    for w in naive_lists.windows(2).skip(1) {
        assert_eq!(w[1], w[0] * fan_out, "naive lists: {naive_lists:?}");
    }
    // DP: constant extra work per repetition.
    let deltas: Vec<u64> = dp_work.windows(2).map(|w| w[1] - w[0]).collect();
    for d in &deltas {
        assert_eq!(*d, deltas[0], "dp work increments: {deltas:?}");
    }
    assert!(deltas[0] as usize <= 2 * fan_out + 2);
}

#[test]
fn data_complexity_tables_grow_linearly_in_document_size() {
    // Per-candidate predicates: the pick inside `child::b[1]` keeps the
    // second off the column route, so both tabulate every candidate `a`.
    // The first is answered by column: its table holds no entry per
    // candidate, and its step work is what grows with the document.
    let cases = [
        ("//a[count(descendant::c) > count(child::b)]", false),
        ("//a[count(descendant::c) > count(child::b[1])]", true),
    ];
    for (src, per_candidate) in cases {
        let query = xpeval::syntax::parse_query(src).unwrap();
        let mut growth = Vec::new();
        let sizes = [200usize, 400, 800];
        for &nodes in &sizes {
            let doc = random_tree_document(&mut StdRng::seed_from_u64(10), nodes, &["a", "b", "c"]);
            let stats = work(&doc, &query, EvalStrategy::ContextValueTable);
            growth.push(if per_candidate {
                stats.table_entries as u64
            } else {
                assert!(stats.table_entries <= 2, "{src}: {stats:?}");
                stats.step_context_evaluations
            });
        }
        // Doubling the document should roughly double the table (or the
        // work); allow generous slack (factor in [1.3, 3]).
        for w in growth.windows(2) {
            let ratio = w[1] as f64 / w[0] as f64;
            assert!(ratio > 1.3 && ratio < 3.0, "{src}: growth {growth:?}");
        }
    }
}

#[test]
fn query_complexity_work_grows_linearly_in_query_size() {
    let doc = random_tree_document(&mut StdRng::seed_from_u64(11), 300, &["a", "b", "c"]);
    let mut steps = Vec::new();
    let lens = [8usize, 16, 32, 64];
    for &len in &lens {
        let query = oscillating_query(len);
        let stats = work(&doc, &query, EvalStrategy::ContextValueTable);
        steps.push(stats.step_context_evaluations as f64);
    }
    // Doubling |Q| should scale the work by roughly 2 (within [1.2, 3.5]).
    for w in steps.windows(2) {
        let ratio = w[1] / w[0];
        assert!(ratio > 1.2 && ratio < 3.5, "work growth {steps:?}");
    }
}

#[test]
fn memoization_beats_naive_on_every_blowup_instance() {
    let doc = blowup_document(4);
    for reps in 3..=7 {
        let query = blowup_query(reps);
        let naive = work(&doc, &query, EvalStrategy::Naive);
        let dp = work(&doc, &query, EvalStrategy::ContextValueTable);
        assert!(
            dp.step_context_evaluations < naive.step_context_evaluations,
            "reps={reps}"
        );
    }
}

/// The five query texts of the benchmark's `warm_pwf` workload.
const PWF_QUERIES: [&str; 5] = [
    "//item[bid/@increase > 6]/name",
    "//item[@id = 'item3']",
    "//person[starts-with(@id, 'person1')]",
    "/site/people/person[last()]/name",
    "//item[position() = last()]/name",
];

/// The `warm_xpath` queries whose cost per context node used to grow with
/// the document.
const XPATH_QUERIES: [&str; 3] = [
    "count(/descendant::seller/following::bid)",
    "count(//item[count(bid) > 2])",
    "//item[bid][1]/name | //person[1]/name",
];

/// The counters of one run under the plan the compiler picks itself.
fn auto_work(doc: &Document, query: &str) -> EvalStats {
    CompiledQuery::compile(query)
        .unwrap()
        .run(doc)
        .unwrap()
        .stats
}

fn counter_sum(stats: EvalStats) -> f64 {
    (stats.evaluations + stats.step_context_evaluations) as f64
}

#[test]
fn auto_plans_scale_near_linearly_in_document_size() {
    let (n, growth) = (30, 4);
    let small = auction_site_document(&mut StdRng::seed_from_u64(21), n);
    let large = auction_site_document(&mut StdRng::seed_from_u64(21), growth * n);
    // Exponent 1.2 in the document size, the benchmark's bar for the plan
    // the engine picks itself.
    let bound = (growth as f64).powf(1.2);
    for query in PWF_QUERIES.iter().chain(&XPATH_QUERIES) {
        let (before, after) = (auto_work(&small, query), auto_work(&large, query));
        let work = counter_sum(after) / counter_sum(before);
        assert!(work <= bound, "{query}: work grew {work:.2}x");
        let tables = after.table_entries.max(1) as f64 / before.table_entries.max(1) as f64;
        assert!(tables <= bound, "{query}: tables grew {tables:.2}x");
    }
}

#[test]
fn wrapping_a_query_in_count_does_not_change_its_cost() {
    // `count(…)` lifts a pWF/pXPath query into full XPath; the plan, and
    // with it the work, must not depend on that.
    let doc = auction_site_document(&mut StdRng::seed_from_u64(22), 120);
    for query in PWF_QUERIES {
        let bare = counter_sum(auto_work(&doc, query));
        let wrapped = counter_sum(auto_work(&doc, &format!("count({query})")));
        let ratio = wrapped / bare;
        assert!(
            ratio > 0.5 && ratio < 2.0,
            "{query}: {bare} bare vs {wrapped} wrapped"
        );
    }
}

/// The benchmark's `//t[k]` queries: a positional child step after `//`.
const POSITIONAL_QUERIES: [&str; 3] = [
    "//person[1]/name",
    "//item[bid][1]/name | //person[1]/name",
    "//item[position() = last()]/name",
];

#[test]
fn positional_steps_do_not_walk_the_descendant_frontier() {
    // `//t[k]` takes the descendants of the `//` context, grouped by parent:
    // a handful of step applications whatever the document's size, where a
    // walk over the `descendant-or-self::node()` frontier makes one per
    // document node.
    let n = 150;
    for items in [n, 4 * n] {
        let doc = auction_site_document(&mut StdRng::seed_from_u64(24), items);
        for query in POSITIONAL_QUERIES {
            let plan = CompiledQuery::compile(query).unwrap();
            let auto = plan.run(&doc).unwrap();
            let steps = auto.stats.step_context_evaluations;
            assert!(steps <= 16, "{query} at {items} items: {steps} steps");
            let expected = ReferenceEvaluator::new(&doc).evaluate(plan.expr()).unwrap();
            assert!(!expected.clone().expect_nodes().is_empty(), "{query}");
            assert_eq!(auto.value, expected, "{query} auto");
            for strategy in [EvalStrategy::ContextValueTable, EvalStrategy::Naive] {
                let pinned = plan.clone().with_strategy(strategy);
                assert_eq!(
                    pinned.run(&doc).unwrap().value,
                    expected,
                    "{query} via {strategy:?}"
                );
            }
        }
    }
}

#[test]
fn auto_plan_pinned_machines_and_reference_agree_on_the_pwf_queries() {
    let doc = auction_site_document(&mut StdRng::seed_from_u64(23), 30);
    for query in PWF_QUERIES {
        let plan = CompiledQuery::compile(query).unwrap();
        let expected = ReferenceEvaluator::new(&doc).evaluate(plan.expr()).unwrap();
        assert!(!expected.clone().expect_nodes().is_empty(), "{query}");
        assert_eq!(plan.run(&doc).unwrap().value, expected, "{query} auto");
        for strategy in [
            EvalStrategy::ContextValueTable,
            EvalStrategy::SingletonSuccess,
        ] {
            let pinned = plan.clone().with_strategy(strategy);
            assert_eq!(
                pinned.run(&doc).unwrap().value,
                expected,
                "{query} via {strategy:?}"
            );
        }
    }
}

/// Predicates over the candidates' own strings and relative paths, and an
/// aggregate over a path: by the column route, and by one pass over a path.
const COLUMN_QUERIES: [&str; 4] = [
    "//item[count(bid) > 2]",
    "//item[contains(name, 'number 7')]/@id",
    "//item[string-length(description) > 10]",
    "sum(//bid/@increase)",
];

#[test]
fn column_predicates_make_no_table_entry_per_candidate() {
    // Evaluated per candidate, each of the first three made 1 + 3·items
    // entries; by column the table holds the paths only.
    let n = 20;
    for items in [n, 16 * n] {
        let doc = auction_site_document(&mut StdRng::seed_from_u64(25), items);
        for query in COLUMN_QUERIES {
            let plan = CompiledQuery::compile(query).unwrap();
            let out = plan.run(&doc).unwrap();
            let entries = out.stats.table_entries;
            assert!(entries <= 4, "{query} at {items} items: {entries} entries");
            let expected = ReferenceEvaluator::new(&doc).evaluate(plan.expr()).unwrap();
            assert_eq!(out.value, expected, "{query} at {items} items");
        }
    }
}
