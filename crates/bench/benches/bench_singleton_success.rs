//! E6 — Lemma 5.4 / Table 1: the Singleton-Success decision procedure.
//!
//! Measures a single Singleton-Success decision (is one node in the
//! result?), the recovery of the full node set through the compiled
//! `SingletonSuccess` plan (Theorem 5.5), and the DP plan as the
//! materializing baseline, on the pWF query corpus.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;
use xpeval_core::{CompiledQuery, Context, EvalStrategy, SuccessTarget};
use xpeval_workloads::{auction_site_document, pwf_query_corpus};

fn bench_singleton_success(c: &mut Criterion) {
    let doc = auction_site_document(&mut StdRng::seed_from_u64(8), 60);
    let ctx = Context::root(&doc);
    let some_node = doc.all_elements().nth(doc.element_count() / 2).unwrap();

    let mut group = c.benchmark_group("singleton_success_table1");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    for (name, query) in pwf_query_corpus() {
        // Everything runs through the compiled form (compile once, outside
        // the timed loop).
        let compiled = CompiledQuery::from_expr(query.clone());
        // The raw decision procedure: one Singleton-Success instance, on a
        // fresh checker (cold memo tables) per decision.
        let target = SuccessTarget::Node(some_node);
        group.bench_with_input(
            BenchmarkId::new("decide_single_node", name),
            &query,
            |b, _| b.iter(|| compiled.decide(&doc, ctx, &target).unwrap()),
        );
        // Full node-set recovery and the DP baseline.
        let success = compiled
            .clone()
            .with_strategy(EvalStrategy::SingletonSuccess);
        group.bench_with_input(
            BenchmarkId::new("node_set_via_loop", name),
            &query,
            |b, _| b.iter(|| success.run(&doc).unwrap()),
        );
        let dp = compiled.with_strategy(EvalStrategy::ContextValueTable);
        group.bench_with_input(
            BenchmarkId::new("context_value_table", name),
            &query,
            |b, _| b.iter(|| dp.run(&doc).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_singleton_success);
criterion_main!(benches);
