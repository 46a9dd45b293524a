//! Integration tests for the document catalog: the 8-thread
//! insert/replace/evict/evaluate stress test (generation bumps must
//! invalidate stale artifacts, accounting must balance), and the headline
//! property that catalog fan-out results are exactly the per-document
//! `evaluate_prepared` results, across all five strategies.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use xpeval::prelude::*;
use xpeval::workloads::{core_xpath_query_corpus, pwf_query_corpus, random_tree_document};

const ALL_STRATEGIES: [EvalStrategy; 5] = [
    EvalStrategy::ContextValueTable,
    EvalStrategy::Naive,
    EvalStrategy::CoreXPathLinear,
    EvalStrategy::Parallel { threads: 2 },
    EvalStrategy::SingletonSuccess,
];

/// A document whose `count(//x)` is exactly `n` — the marker the stress
/// test uses to tie an observed result back to some inserted generation.
fn marked_xml(n: u64) -> String {
    let mut xml = String::from("<r>");
    for _ in 0..n {
        xml.push_str("<x/>");
    }
    xml.push_str("</r>");
    xml
}

#[test]
fn concurrent_insert_replace_evict_evaluate_stress() {
    const THREADS: usize = 8;
    const ITERS: usize = 150;
    const NAMES: usize = 12;
    const CAPACITY: usize = 8; // < NAMES, so eviction is exercised

    let catalog = Catalog::builder()
        .capacity(CAPACITY)
        .artifact_capacity(64)
        .build();
    // Every count ever inserted under a name, logged *before* the insert:
    // any count an evaluation observes must already be in the log.
    let log: Mutex<HashMap<String, HashSet<u64>>> = Mutex::new(HashMap::new());
    let next_marker = AtomicU64::new(1);

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let catalog = catalog.clone();
            let log = &log;
            let next_marker = &next_marker;
            scope.spawn(move || {
                for i in 0..ITERS {
                    let name = format!("doc-{}", (t * 7 + i) % NAMES);
                    match i % 5 {
                        // Insert or replace with a fresh marker.
                        0 | 1 => {
                            let marker = next_marker.fetch_add(1, Ordering::Relaxed);
                            log.lock()
                                .unwrap()
                                .entry(name.clone())
                                .or_default()
                                .insert(marker);
                            catalog.insert_xml(&name, &marked_xml(marker)).unwrap();
                        }
                        // Evaluate by name; the observed count must have
                        // been inserted under this name at some point.
                        2 | 3 => match catalog.evaluate_on(&name, "count(//x)") {
                            Ok(out) => {
                                let Value::Number(n) = out.value else {
                                    panic!("count() must be a number")
                                };
                                assert!(
                                    log.lock().unwrap()[&name].contains(&(n as u64)),
                                    "{name} returned count {n} that was never inserted"
                                );
                            }
                            Err(CatalogError::UnknownDocument { .. }) => {}
                            Err(e) => panic!("unexpected error: {e}"),
                        },
                        // Fan out / remove, occasionally.
                        _ => {
                            if i % 20 == 4 {
                                catalog.remove(&name);
                            } else {
                                for f in catalog.evaluate_matching("doc-*", "count(//x)") {
                                    let out = f.result.expect("fan-out over live entries");
                                    let Value::Number(n) = out.value else {
                                        panic!("count() must be a number")
                                    };
                                    assert!(
                                        log.lock().unwrap()[&f.name].contains(&(n as u64)),
                                        "{} returned count {n} never inserted",
                                        f.name
                                    );
                                }
                            }
                        }
                    }
                }
            });
        }
    });

    // Accounting balances after the storm.
    let stats = catalog.stats();
    assert!(stats.documents <= CAPACITY, "{stats}");
    assert_eq!(
        stats.documents as u64,
        stats.inserts - stats.removals - stats.evictions,
        "{stats}"
    );
    assert_eq!(
        stats.evaluations,
        stats.artifact_hits + stats.artifact_misses,
        "every evaluation is exactly one artifact lookup: {stats}"
    );
    assert!(stats.replacements > 0, "{stats}");
    assert!(stats.evictions > 0, "{stats}");
    assert!(stats.artifact_invalidations > 0, "{stats}");
    assert!(stats.artifact_len <= 64, "{stats}");

    // And the store is still fully functional.
    catalog.insert_xml("after", &marked_xml(3)).unwrap();
    assert_eq!(
        catalog.evaluate_on("after", "count(//x)").unwrap().value,
        Value::Number(3.0)
    );
}

#[test]
fn generation_bump_invalidates_stale_artifacts_deterministically() {
    let catalog = Catalog::new();
    catalog.insert_xml("d", &marked_xml(2)).unwrap();
    catalog.insert_xml("other", &marked_xml(7)).unwrap();

    // Build and then hit the artifact for (count(//x), d, gen 1).
    for _ in 0..3 {
        assert_eq!(
            catalog.evaluate_on("d", "count(//x)").unwrap().value,
            Value::Number(2.0)
        );
    }
    let before = catalog.stats();
    assert_eq!(before.artifact_hits, 2, "{before}");

    // Replace: the very next evaluation must see the new generation —
    // a stale artifact would keep answering 2.
    catalog.insert_xml("d", &marked_xml(5)).unwrap();
    assert_eq!(catalog.generation("d"), Some(2));
    assert_eq!(
        catalog.evaluate_on("d", "count(//x)").unwrap().value,
        Value::Number(5.0)
    );
    let after = catalog.stats();
    assert!(
        after.artifact_invalidations > before.artifact_invalidations,
        "{after}"
    );

    // The untouched document's artifact survived: its next evaluation is
    // a hit, not a rebuild.
    catalog.evaluate_on("other", "count(//x)").unwrap();
    let misses_before = catalog.stats().artifact_misses;
    catalog.evaluate_on("other", "count(//x)").unwrap();
    assert_eq!(catalog.stats().artifact_misses, misses_before);
}

/// Catalog fan-out must agree with direct per-document evaluation, for
/// every strategy (including per-strategy errors: a query outside a
/// fixed strategy's fragment fails identically on both paths).
fn assert_fanout_matches_prepared(documents: &[(String, Document)], queries: &[String]) {
    for strategy in ALL_STRATEGIES {
        let engine = Engine::builder().strategy(strategy).build();
        let catalog = Catalog::builder().engine(engine.clone()).build();
        let mut prepared: Vec<(String, PreparedDocument)> = Vec::new();
        for (name, doc) in documents {
            catalog.insert_document(name, doc.clone());
            prepared.push((name.clone(), PreparedDocument::new(doc.clone())));
        }
        prepared.sort_by(|a, b| a.0.cmp(&b.0));

        for source in queries {
            let reference: Vec<Result<Value, EvalError>> = prepared
                .iter()
                .map(|(_, p)| {
                    engine
                        .compile(source)
                        .and_then(|plan| plan.run_prepared(p))
                        .map(|out| out.value)
                })
                .collect();
            let fanned = catalog.evaluate_on_all(source);
            assert_eq!(fanned.len(), reference.len());
            for (f, r) in fanned.iter().zip(&reference) {
                match (&f.result, r) {
                    (Ok(out), Ok(value)) => {
                        assert_eq!(&out.value, value, "{source} on {} ({strategy:?})", f.name)
                    }
                    (Err(a), Err(b)) => {
                        assert_eq!(a, b, "{source} on {} ({strategy:?})", f.name)
                    }
                    (got, want) => panic!(
                        "{source} on {} ({strategy:?}): catalog {got:?} vs prepared {want:?}",
                        f.name
                    ),
                }
            }
        }
    }
}

#[test]
fn fanout_equals_prepared_on_the_corpora() {
    let mut rng = StdRng::seed_from_u64(2003);
    let documents: Vec<(String, Document)> = (0..4)
        .map(|i| {
            (
                format!("doc-{i}"),
                random_tree_document(&mut rng, 40 + 10 * i, &["a", "b", "c", "d"]),
            )
        })
        .collect();
    // The corpus pairs are (label, expr); the canonical printed form of
    // the expr is the query source the catalog compiles.
    let queries: Vec<String> = core_xpath_query_corpus()
        .into_iter()
        .chain(pwf_query_corpus())
        .map(|(_label, e)| e.to_string())
        .collect();
    assert_fanout_matches_prepared(&documents, &queries);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Random document populations × representative queries × all five
    /// strategies: fan-out ≡ per-document evaluate_prepared.
    #[test]
    fn fanout_equals_prepared_on_random_trees(seed in 0u64..10_000, docs in 2usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let documents: Vec<(String, Document)> = (0..docs)
            .map(|i| {
                (
                    format!("doc-{i}"),
                    random_tree_document(&mut rng, 10 + 15 * i, &["a", "b", "c"]),
                )
            })
            .collect();
        let queries: Vec<String> = [
            "//a",
            "/r/a/b",
            "//a[child::b]/c",
            "//b[not(child::a)]",
            "count(//c)",
            "//a | //missing",
            "//missing",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert_fanout_matches_prepared(&documents, &queries);
    }
}

#[test]
fn artifact_fast_path_agrees_on_absent_tags() {
    // The zero-candidate-bound shortcut must be invisible: same value,
    // same type, as the full evaluation.
    let catalog = Catalog::new();
    catalog.insert_xml("d", "<r><a/><a/></r>").unwrap();
    for query in ["//zzz", "//zzz | //a", "/r/zzz", "//a/zzz"] {
        let through_catalog = catalog.evaluate_on("d", query).unwrap().value;
        let direct = CompiledQuery::compile(query)
            .unwrap()
            .run_prepared(&catalog.get("d").unwrap())
            .unwrap()
            .value;
        assert_eq!(through_catalog, direct, "{query}");
    }
}

#[test]
fn concurrent_mutate_query_replace_storm() {
    // 8 threads: 4 mutators each owning a live document, 2 readers
    // hammering every name, 2 churners replacing (and re-querying) a
    // shared document.  Edits publish whole snapshots under the store
    // lock, so a reader must never see a torn document, and the count it
    // observes on a live document must be non-decreasing (only its owner
    // edits it, one <x/> per edit).
    const MUTATORS: usize = 4;
    const EDITS: usize = 100;

    let catalog = Catalog::builder()
        .capacity(32) // > all names: no eviction of live documents
        .artifact_capacity(128)
        .build();
    for t in 0..MUTATORS {
        catalog.insert_xml(&format!("live-{t}"), "<r></r>").unwrap();
    }
    catalog.insert_xml("churn", &marked_xml(0)).unwrap();
    let churn_log: Mutex<HashSet<u64>> = Mutex::new([0].into_iter().collect());
    let next_marker = AtomicU64::new(1);

    std::thread::scope(|scope| {
        for t in 0..MUTATORS {
            let catalog = catalog.clone();
            scope.spawn(move || {
                let name = format!("live-{t}");
                let frag = parse_xml("<x/>").unwrap();
                for i in 0..EDITS {
                    let outcome = catalog
                        .mutate_named(&name, |live| {
                            let r = live.elements_named("r")[0];
                            live.insert_subtree(r, 0, &frag)
                        })
                        .unwrap();
                    outcome.value.unwrap();
                    // Only this thread edits the document, so revisions
                    // march in lockstep with its own edit count.
                    assert_eq!(outcome.revision, i as u64 + 1, "{name}");
                }
            });
        }
        for _ in 0..2 {
            let catalog = catalog.clone();
            scope.spawn(move || {
                let mut last = [0f64; MUTATORS];
                for i in 0..400 {
                    let t = i % MUTATORS;
                    let out = catalog
                        .evaluate_on(&format!("live-{t}"), "count(//x)")
                        .unwrap();
                    let Value::Number(n) = out.value else {
                        panic!("count() must be a number")
                    };
                    assert!(
                        n >= last[t],
                        "live-{t} went backwards: {n} after {}",
                        last[t]
                    );
                    last[t] = n;
                }
            });
        }
        for _ in 0..2 {
            let catalog = catalog.clone();
            let churn_log = &churn_log;
            let next_marker = &next_marker;
            scope.spawn(move || {
                for _ in 0..EDITS {
                    let marker = next_marker.fetch_add(1, Ordering::Relaxed);
                    churn_log.lock().unwrap().insert(marker);
                    catalog.insert_xml("churn", &marked_xml(marker)).unwrap();
                    let out = catalog.evaluate_on("churn", "count(//x)").unwrap();
                    let Value::Number(n) = out.value else {
                        panic!("count() must be a number")
                    };
                    assert!(
                        churn_log.lock().unwrap().contains(&(n as u64)),
                        "churn returned count {n} that was never inserted"
                    );
                }
            });
        }
    });

    // Every mutator's edits landed exactly once.
    for t in 0..MUTATORS {
        let name = format!("live-{t}");
        assert_eq!(
            catalog.evaluate_on(&name, "count(//x)").unwrap().value,
            Value::Number(EDITS as f64)
        );
        assert_eq!(catalog.revision(&name), Some(EDITS as u64));
        assert_eq!(
            catalog.generation(&name),
            Some(1),
            "edits are not replacements"
        );
    }
    let stats = catalog.stats();
    assert_eq!(stats.mutations, (MUTATORS * EDITS) as u64, "{stats}");
    assert!(stats.replacements >= 2 * EDITS as u64, "{stats}");
    assert_eq!(
        stats.evaluations,
        stats.artifact_hits + stats.artifact_misses,
        "{stats}"
    );
}

/// Bound evaluation through the catalog: one query string, many `$name`
/// parameterizations — every re-binding is an artifact hit, never a
/// recompile, because artifact keys stay binding-independent.
#[test]
fn bound_evaluation_reuses_binding_independent_artifacts() {
    let catalog = Catalog::new();
    catalog
        .insert_xml("inv", "<inv><item n='1'/><item n='2'/><item n='3'/></inv>")
        .unwrap();
    let query = "count(//item[@n = $n])";
    for n in 1..=3 {
        let b = Bindings::new().with_number("n", n as f64);
        let out = catalog.evaluate_on_bound("inv", query, &b).unwrap();
        assert_eq!(out.value, Value::Number(1.0), "n = {n}");
    }
    let s = catalog.stats();
    assert_eq!(s.artifact_misses, 1, "{s}");
    assert_eq!(s.artifact_hits, 2, "{s}");

    // The unbound entry point reports the missing binding by name.
    let err = catalog.evaluate_on("inv", query).unwrap_err();
    assert!(
        matches!(&err, CatalogError::Eval(EvalError::UnboundVariable { name }) if name == "n"),
        "{err:?}"
    );

    // Fan-out shares one binding set across every matching document.
    catalog
        .insert_xml("inv2", "<inv><item n='2'/></inv>")
        .unwrap();
    let b = Bindings::new().with_number("n", 2.0);
    let outs = catalog.evaluate_matching_bound("inv*", query, &b);
    assert_eq!(outs.len(), 2);
    for fan in &outs {
        assert_eq!(
            fan.result.as_ref().unwrap().value,
            Value::Number(1.0),
            "{}",
            fan.name
        );
    }
}
