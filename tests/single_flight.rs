//! Single-flight compilation: threads that miss a cache on the same key at
//! the same moment share one compilation.  A `Barrier` releases every
//! thread onto one new query text at once, so the race the caches must
//! absorb happens on every run, not now and then.

use std::sync::Barrier;
use xpeval::prelude::*;

const THREADS: usize = 8;

/// Runs `work` on `THREADS` threads released together.
fn released_together(work: impl Fn() + Sync) {
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                barrier.wait();
                work();
            });
        }
    });
}

#[test]
fn engine_compiles_a_new_query_once() {
    let engine = Engine::builder().build();
    let doc = parse_xml("<lib><book year='2001'/><book year='2003'/></lib>").unwrap();
    let query = "count(//book[@year = 2001])";
    released_together(|| {
        let plan = engine.compile(query).unwrap();
        assert_eq!(plan.run(&doc).unwrap().value, Value::Number(1.0));
    });
    let cache = engine.cache_stats();
    assert_eq!(cache.misses, 1, "{cache:?}");
    assert_eq!(cache.hits, THREADS as u64 - 1, "{cache:?}");
}

#[test]
fn engine_hands_a_compile_error_to_every_waiter_and_keeps_none() {
    let engine = Engine::builder().build();
    let query = "//book[";
    released_together(|| {
        let err = engine.compile(query).unwrap_err();
        assert!(matches!(err, EvalError::Parse { .. }), "{err:?}");
    });
    let first = engine.cache_stats();
    assert_eq!(first.misses + first.hits, THREADS as u64, "{first:?}");
    assert_eq!(first.len, 0, "an error is not cached: {first:?}");
    // The next call compiles again: the error was not stored.
    assert!(engine.compile(query).is_err());
    assert_eq!(engine.cache_stats().misses, first.misses + 1);
}

#[test]
fn catalog_builds_a_new_artifact_once() {
    let catalog = Catalog::new();
    catalog
        .insert_xml("lib", "<lib><book year='2001'/><book year='2003'/></lib>")
        .unwrap();
    let query = "count(//book[@year = 2003])";
    released_together(|| {
        let out = catalog.evaluate_on("lib", query).unwrap();
        assert_eq!(out.value, Value::Number(1.0));
    });
    let stats = catalog.stats();
    assert_eq!(stats.artifact_misses, 1, "{stats}");
    assert_eq!(stats.artifact_hits, THREADS as u64 - 1, "{stats}");
    // Only the thread that built the artifact compiled the query.
    let plans = catalog.engine().cache_stats();
    assert_eq!((plans.misses, plans.hits), (1, 0), "{plans:?}");
}
