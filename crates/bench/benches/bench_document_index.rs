//! Prepared-document indexes vs plain tree walks.
//!
//! The prepare-once/evaluate-many claim of the document side: against the
//! largest workload document, descendant-heavy queries evaluated through a
//! `PreparedDocument` (tag-name index + preorder subtree intervals +
//! precomputed document order) must beat the same compiled plans walking a
//! bare `Document` — ≥ 2× on the descendant-axis group.
//!
//! Three groups plus a headline summary:
//!
//! * `document_index/prepare_once` — the one-time index construction cost,
//!   for context.
//! * `document_index/descendant_{unprepared,prepared}` — a mix of
//!   descendant-heavy compiled queries, per evaluation.
//! * `document_index/engine_str_{unprepared,prepared}` — the engine path
//!   (plan cache warm) serving the same mix by string.
//!
//! After the criterion groups, a plain timing loop prints the measured
//! speedup so the ratio is visible in one line.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xpeval_core::{CompiledQuery, Engine};
use xpeval_dom::{Document, PreparedDocument};
use xpeval_workloads::auction_site_document;

/// Descendant-heavy queries over the auction document; all five compile to
/// node-set plans that exercise the descendant axes.
const QUERIES: [&str; 5] = [
    "/descendant::bid",
    "/descendant::item[child::bid]",
    "/site/regions/europe/descendant::item/name",
    "/descendant::seller",
    "/descendant::item[not(child::bid)]/name",
];

fn compiled_queries() -> Vec<CompiledQuery> {
    QUERIES
        .iter()
        .map(|q| CompiledQuery::compile(q).unwrap())
        .collect()
}

fn run_all_unprepared(queries: &[CompiledQuery], doc: &Document) -> usize {
    queries
        .iter()
        .map(|q| q.run(doc).unwrap().value.expect_nodes().len())
        .sum()
}

fn run_all_prepared(queries: &[CompiledQuery], doc: &PreparedDocument) -> usize {
    queries
        .iter()
        .map(|q| q.run_prepared(doc).unwrap().value.expect_nodes().len())
        .sum()
}

fn bench_document_index(c: &mut Criterion) {
    // The largest workload document used by the benches: ~600 items with
    // bids/sellers/descriptions, several thousand nodes.
    let doc = Arc::new(auction_site_document(&mut StdRng::seed_from_u64(42), 600));
    let prepared = PreparedDocument::new(Arc::clone(&doc));
    let queries = compiled_queries();

    // Sanity: identical answers on both paths.
    assert_eq!(
        run_all_unprepared(&queries, &doc),
        run_all_prepared(&queries, &prepared),
    );

    let mut group = c.benchmark_group("document_index");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));

    group.bench_function("prepare_once", |b| {
        b.iter(|| PreparedDocument::new(Arc::clone(&doc)))
    });
    group.bench_function("descendant_unprepared", |b| {
        b.iter(|| run_all_unprepared(&queries, &doc))
    });
    group.bench_function("descendant_prepared", |b| {
        b.iter(|| run_all_prepared(&queries, &prepared))
    });

    let engine = Engine::builder().build();
    for q in QUERIES {
        engine.evaluate_str(&doc, q).unwrap(); // warm the plan cache
    }
    group.bench_function("engine_str_unprepared", |b| {
        b.iter(|| {
            QUERIES
                .map(|q| engine.evaluate_str(&doc, q).unwrap().expect_nodes().len())
                .iter()
                .sum::<usize>()
        })
    });
    group.bench_function("engine_str_prepared", |b| {
        b.iter(|| {
            QUERIES
                .map(|q| {
                    engine
                        .evaluate_str_prepared(&prepared, q)
                        .unwrap()
                        .expect_nodes()
                        .len()
                })
                .iter()
                .sum::<usize>()
        })
    });
    group.finish();

    // Headline ratio, measured directly so it appears as one line.
    // Skipped in `--test` smoke mode: CI only proves the routines run.
    if std::env::args().skip(1).any(|a| a == "--test") {
        return;
    }
    let rounds = 30;
    let start = Instant::now();
    for _ in 0..rounds {
        criterion::black_box(run_all_unprepared(&queries, &doc));
    }
    let unprepared = start.elapsed();
    let start = Instant::now();
    for _ in 0..rounds {
        criterion::black_box(run_all_prepared(&queries, &prepared));
    }
    let prepared_time = start.elapsed();
    println!(
        "document_index: descendant-heavy mix on {} nodes — unprepared {:?}, prepared {:?}, speedup {:.2}x",
        doc.len(),
        unprepared / rounds,
        prepared_time / rounds,
        unprepared.as_secs_f64() / prepared_time.as_secs_f64(),
    );
}

criterion_group!(benches, bench_document_index);
criterion_main!(benches);
