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
//!   linearly in |Q| for PF chains (Theorem 7.3) — experiment E11.

use rand::rngs::StdRng;
use rand::SeedableRng;
use xpeval::prelude::*;
use xpeval::workloads::{blowup_document, blowup_query, oscillating_query, random_tree_document};

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
    let query = xpeval::syntax::parse_query("//a[descendant::c and not(child::b)]").unwrap();
    let mut entries = Vec::new();
    let sizes = [200usize, 400, 800];
    for &nodes in &sizes {
        let doc = random_tree_document(&mut StdRng::seed_from_u64(10), nodes, &["a", "b", "c"]);
        entries.push(work(&doc, &query, EvalStrategy::ContextValueTable).table_entries);
    }
    // Doubling the document should roughly double the number of table
    // entries; allow generous slack (factor in [1.3, 3]).
    for w in entries.windows(2) {
        let ratio = w[1] as f64 / w[0] as f64;
        assert!(ratio > 1.3 && ratio < 3.0, "table growth {entries:?}");
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
