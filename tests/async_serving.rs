//! Integration tests for the async serving layer: bounded-queue
//! backpressure, blocking-submit wakeup, graceful shutdown, panic
//! isolation — and the headline property that async results are exactly
//! the synchronous `evaluate_batch` results, across all five strategies
//! and the workload corpora.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;
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

/// A pool whose single worker is held at a gate, so queue contents are
/// fully deterministic: nothing drains until the gate opens.
fn gated_pool(queue_capacity: usize) -> (AsyncEngine, mpsc::Sender<()>, QueryFuture<()>) {
    let pool = AsyncEngine::builder()
        .workers(1)
        .queue_capacity(queue_capacity)
        .build();
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let blocker = pool
        .submit_task(move |_| {
            gate_rx.recv().ok();
        })
        .expect("an empty pool accepts the blocker");
    // Let the worker actually pick the blocker up before the caller counts
    // queue slots.
    while pool.stats().queue_depth > 0 {
        std::thread::yield_now();
    }
    (pool, gate_tx, blocker)
}

#[test]
fn bounded_queue_rejects_when_full() {
    let (pool, gate, blocker) = gated_pool(2);

    // Fill the two queue slots behind the busy worker.
    let accepted: Vec<_> = (0..2)
        .map(|i| pool.try_submit_task(move |_| i).unwrap())
        .collect();
    // The third is backpressure, observably.
    assert_eq!(
        pool.try_submit_task(|_| 99usize).unwrap_err(),
        TrySubmitError::Full
    );
    let stats = pool.stats();
    assert_eq!(stats.queue_depth, 2);
    assert_eq!(stats.queue_high_watermark, 2);
    assert_eq!(stats.rejected_full, 1);

    gate.send(()).unwrap();
    for (i, fut) in accepted.into_iter().enumerate() {
        assert_eq!(fut.wait(), Ok(i));
    }
    assert_eq!(blocker.wait(), Ok(()));

    let stats = pool.shutdown();
    assert_eq!(stats.submitted, 3); // blocker + 2 accepted
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.rejected_full, 1);
    assert_eq!(stats.panicked, 0);
}

#[test]
fn blocking_submit_wakes_when_the_queue_drains() {
    let (pool, gate, _blocker) = gated_pool(1);
    let _filler = pool.try_submit_task(|_| ()).unwrap();

    let submitted = Arc::new(AtomicBool::new(false));
    let pool = Arc::new(pool);
    let handle = {
        let pool = Arc::clone(&pool);
        let submitted = Arc::clone(&submitted);
        std::thread::spawn(move || {
            let fut = pool.submit_task(|_| 42u64).unwrap();
            submitted.store(true, Ordering::SeqCst);
            fut.wait()
        })
    };

    // The submitter must be parked on the full queue, not failing.
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        !submitted.load(Ordering::SeqCst),
        "submit must block while the queue is full"
    );

    // Opening the gate drains the queue; the blocked submit completes.
    gate.send(()).unwrap();
    assert_eq!(handle.join().unwrap(), Ok(42));
    assert!(submitted.load(Ordering::SeqCst));
}

#[test]
fn shutdown_completes_accepted_work_and_rejects_late_submissions() {
    let mut rng = StdRng::seed_from_u64(7);
    let prepared = Arc::new(PreparedDocument::new(auction_site_document(&mut rng, 30)));
    let engine = Engine::builder().build();
    let pool = AsyncEngine::builder()
        .engine(engine)
        .workers(2)
        .queue_capacity(64)
        .build();

    let futures: Vec<_> = (0..24)
        .map(|_| pool.submit(&prepared, "count(//item)").unwrap())
        .collect();

    pool.begin_shutdown();
    assert!(pool.is_shutting_down());

    // Late submissions — blocking and non-blocking — are rejected.
    assert_eq!(
        pool.submit(&prepared, "count(//item)").unwrap_err(),
        TrySubmitError::ShutDown
    );
    assert_eq!(
        pool.try_submit(&prepared, "count(//item)").unwrap_err(),
        TrySubmitError::ShutDown
    );

    // Every accepted query still completes with a real result.
    for fut in futures {
        let output = fut.wait().expect("accepted work survives shutdown");
        assert_eq!(output.unwrap().value, Value::Number(30.0));
    }

    let stats = pool.shutdown();
    assert_eq!(stats.submitted, 24);
    assert_eq!(stats.completed, 24);
    assert_eq!(stats.rejected_shutdown, 2);
    assert_eq!(stats.queue_depth, 0, "shutdown drains the queue");
}

#[test]
fn a_panicking_job_is_contained_and_counted() {
    let pool = AsyncEngine::builder().workers(1).queue_capacity(8).build();
    let boom = pool
        .submit_task(|_| -> usize { panic!("job panic") })
        .unwrap();
    assert_eq!(boom.wait(), Err(JobLost));

    // The worker survived: the pool still serves.
    let after = pool.submit_task(|_| 5usize).unwrap();
    assert_eq!(after.wait(), Ok(5));

    let stats = pool.shutdown();
    assert_eq!(stats.panicked, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.per_worker[0].panicked, 1);
}

#[test]
fn queue_latency_counters_cover_every_dequeued_job() {
    let (pool, gate, _blocker) = gated_pool(8);
    let futures: Vec<_> = (0..5)
        .map(|i| pool.submit_task(move |_| i).unwrap())
        .collect();
    std::thread::sleep(Duration::from_millis(20));
    gate.send(()).unwrap();
    for fut in futures {
        fut.wait().unwrap();
    }
    let stats = pool.shutdown();
    // blocker + 5 jobs were dequeued, each with a measured wait — and each
    // lifecycle histogram saw every one of them.
    assert_eq!(stats.queue_wait.count, 6);
    assert_eq!(stats.execution.count, 6);
    assert_eq!(stats.end_to_end.count, 6);
    assert!(stats.queue_wait.max >= 20_000_000, "{stats:?}");
    assert!(stats.mean_queue_wait() <= stats.max_queue_wait());
    // A job's end-to-end time includes its queue wait, so the tails are
    // ordered: max(e2e) >= max(wait), and the p99 bound follows the max.
    assert!(stats.end_to_end.max >= stats.queue_wait.max, "{stats:?}");
    assert!(stats.end_to_end.p99() <= stats.end_to_end.max);
    assert_eq!(stats.queue_high_watermark, 5);
}

#[test]
fn deadline_jobs_still_queued_past_their_deadline_expire_unrun() {
    let (pool, gate, blocker) = gated_pool(8);
    let doc = Arc::new(PreparedDocument::new(parse_xml("<r><a/><a/></r>").unwrap()));

    // Behind the busy worker: two submissions whose deadline passes while
    // they wait, and one with plenty of headroom.
    let soon = std::time::Instant::now() + Duration::from_millis(5);
    let doomed_blocking = pool.submit_with_deadline(&doc, "count(//a)", soon).unwrap();
    let doomed_fast = pool
        .try_submit_with_deadline(&doc, "count(//a)", soon)
        .unwrap();
    let alive = pool
        .submit_with_deadline(
            &doc,
            "count(//a)",
            std::time::Instant::now() + Duration::from_secs(300),
        )
        .unwrap();
    // Let the short deadline pass while everything is still queued, then
    // release the worker.
    std::thread::sleep(Duration::from_millis(20));
    gate.send(()).unwrap();
    blocker.wait().unwrap();

    // The expired jobs resolve JobExpired without ever running...
    assert_eq!(doomed_blocking.wait().unwrap(), Err(JobExpired));
    assert_eq!(doomed_fast.wait().unwrap(), Err(JobExpired));
    // ...the live one runs normally.
    let out = alive
        .wait()
        .unwrap()
        .expect("not expired")
        .expect("evaluates");
    assert_eq!(out.value, Value::Number(2.0));

    let stats = pool.shutdown();
    assert_eq!(stats.expired, 2, "{stats}");
    // Expired jobs were accepted (submitted) but never completed by a
    // worker; completed = blocker + the live query.
    assert_eq!(stats.submitted, 4, "{stats}");
    assert_eq!(stats.completed, 2, "{stats}");
    assert!(stats.to_string().contains("expired 2"), "{stats}");
}

#[test]
fn a_deadline_met_in_time_changes_nothing() {
    let doc = Arc::new(PreparedDocument::new(parse_xml("<r><a/></r>").unwrap()));
    let pool = AsyncEngine::builder().workers(2).queue_capacity(8).build();
    let deadline = std::time::Instant::now() + Duration::from_secs(300);
    let futures: Vec<_> = (0..6)
        .map(|_| {
            pool.submit_with_deadline(&doc, "count(//a)", deadline)
                .unwrap()
        })
        .collect();
    for fut in futures {
        let out = fut.wait().unwrap().expect("met the deadline").unwrap();
        assert_eq!(out.value, Value::Number(1.0));
    }
    let stats = pool.shutdown();
    assert_eq!(stats.expired, 0);
    assert_eq!(stats.completed, 6);
}

#[test]
fn named_submissions_resolve_through_the_catalog_at_run_time() {
    let catalog = Catalog::new();
    catalog
        .insert_xml("books", "<lib><book/><book/></lib>")
        .unwrap();
    // Share the catalog's engine so plans compiled either way hit one
    // plan cache.
    let pool = AsyncEngine::builder()
        .engine(catalog.engine().clone())
        .workers(2)
        .build();

    let out = pool
        .submit_named(&catalog, "books", "count(//book)")
        .unwrap()
        .wait()
        .unwrap()
        .expect("known name evaluates");
    assert_eq!(out.value, Value::Number(2.0));

    // An unknown name is a per-job result, not a submission failure.
    let missing = pool
        .try_submit_named(&catalog, "nope", "count(//book)")
        .unwrap()
        .wait()
        .unwrap();
    assert!(matches!(missing, Err(CatalogError::UnknownDocument { .. })));
    pool.shutdown();
}

#[test]
fn templated_tenants_share_one_artifact_across_the_pool() {
    // The content-hash keyed artifact cache makes templated-tenant
    // fan-out cheap: identical per-tenant documents share one
    // (query × content) artifact, so only the first evaluation builds.
    let catalog = Catalog::new();
    let template = "<tenant><user role='admin'/><user role='guest'/></tenant>";
    for i in 0..8 {
        catalog
            .insert_xml(&format!("tenant-{i}"), template)
            .unwrap();
    }
    // Warm the artifact once, synchronously, so the pooled fan-out below
    // is deterministic (no two workers racing to build the first one).
    catalog.evaluate_on("tenant-0", "//user").unwrap();

    let pool = AsyncEngine::builder()
        .engine(catalog.engine().clone())
        .workers(4)
        .build();
    let futures: Vec<_> = (1..8)
        .map(|i| {
            pool.submit_named(&catalog, &format!("tenant-{i}"), "//user")
                .unwrap()
        })
        .collect();
    for f in futures {
        let out = f.wait().unwrap().expect("tenant evaluates");
        assert_eq!(out.value.expect_nodes().len(), 2);
    }
    pool.shutdown();

    let s = catalog.stats();
    assert_eq!(s.artifact_misses, 1, "{s}");
    assert_eq!(s.artifact_hits, 7, "{s}");
    assert_eq!(s.artifact_cross_doc_hits, 7, "{s}");
    assert_eq!(s.artifact_len, 1, "{s}");
}

#[test]
fn mutation_submissions_edit_through_the_pool() {
    let catalog = Catalog::new();
    catalog.insert_xml("d", "<r><a/></r>").unwrap();
    let pool = AsyncEngine::builder()
        .engine(catalog.engine().clone())
        .workers(2)
        .build();

    let frag = parse_xml("<a/>").unwrap();
    let outcome = pool
        .submit_mutation_named(&catalog, "d", move |live| {
            let r = live.elements_named("r")[0];
            live.insert_subtree(r, 0, &frag).map(|o| o.inserted.len())
        })
        .unwrap()
        .wait()
        .unwrap()
        .expect("known name mutates");
    assert_eq!(outcome.value.unwrap(), 1);
    assert_eq!(outcome.revision, 1);
    assert_eq!(outcome.generation, 1, "an edit is not a replacement");
    assert_eq!(
        pool.submit_named(&catalog, "d", "count(//a)")
            .unwrap()
            .wait()
            .unwrap()
            .unwrap()
            .value,
        Value::Number(2.0)
    );

    // An unknown name is a per-job result, not a submission failure.
    let missing = pool
        .try_submit_mutation_named(&catalog, "nope", |_| ())
        .unwrap()
        .wait()
        .unwrap();
    assert!(matches!(missing, Err(CatalogError::UnknownDocument { .. })));
    pool.shutdown();
}

#[test]
fn named_submissions_see_a_replacement_made_while_queued() {
    let (pool, gate, blocker) = gated_pool(8);
    let catalog = Catalog::new();
    catalog.insert_xml("d", "<r><a/></r>").unwrap();

    // Queued behind the busy worker, then the document is replaced: the
    // job resolves the *current* generation when it finally runs.
    let queued = pool.submit_named(&catalog, "d", "count(//a)").unwrap();
    catalog.insert_xml("d", "<r><a/><a/><a/></r>").unwrap();
    gate.send(()).unwrap();
    blocker.wait().unwrap();
    let out = queued.wait().unwrap().unwrap();
    assert_eq!(out.value, Value::Number(3.0));
    assert_eq!(catalog.generation("d"), Some(2));
    pool.shutdown();
}

#[test]
fn named_deadline_submissions_compose() {
    let (pool, gate, blocker) = gated_pool(8);
    let catalog = Catalog::new();
    catalog.insert_xml("d", "<r><a/></r>").unwrap();
    let soon = std::time::Instant::now() + Duration::from_millis(5);
    let doomed = pool
        .submit_named_with_deadline(&catalog, "d", "count(//a)", soon)
        .unwrap();
    let doomed_fast = pool
        .try_submit_named_with_deadline(&catalog, "d", "count(//a)", soon)
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    gate.send(()).unwrap();
    blocker.wait().unwrap();
    assert_eq!(doomed.wait().unwrap(), Err(JobExpired));
    assert_eq!(doomed_fast.wait().unwrap(), Err(JobExpired));
    // Catalog untouched: the expired jobs never evaluated.
    assert_eq!(catalog.stats().evaluations, 0);
    let stats = pool.shutdown();
    assert_eq!(stats.expired, 2);
}

#[test]
fn one_prepared_document_serves_every_submission_and_is_not_retained() {
    // Callers prepare once and share the handle across submissions; the
    // pool keeps neither the document nor a copy of it once the work is
    // done.
    let mut rng = StdRng::seed_from_u64(9);
    let doc = Arc::new(random_tree_document(&mut rng, 50, &["a", "b"]));
    let prepared = Arc::new(PreparedDocument::new(Arc::clone(&doc)));
    let pool = AsyncEngine::builder().workers(2).build();

    let futures: Vec<_> = (0..6)
        .map(|_| pool.submit(&prepared, "count(//a)").unwrap())
        .collect();
    let reference = pool.engine().evaluate_str(&doc, "count(//a)").unwrap();
    for fut in futures {
        assert_eq!(fut.wait().unwrap().unwrap().value, reference);
    }
    let stats = pool.shutdown();
    assert_eq!(stats.completed, 6, "{stats:?}");
    assert_eq!(Arc::strong_count(&prepared), 1, "the pool holds no handle");
    let weak = Arc::downgrade(&prepared);
    drop(prepared);
    assert!(weak.upgrade().is_none());
}

#[test]
fn snapshot_submissions_answer_like_the_source_and_release_the_image() {
    // Every snapshot submission answers exactly as the document the
    // snapshot was taken from; the pool drops its handles to the byte
    // image once the work is done.
    let mut rng = StdRng::seed_from_u64(10);
    let prepared = auction_site_document(&mut rng, 20).prepare();
    let snapshot =
        Arc::new(PreparedSnapshot::from_bytes(PreparedSnapshot::to_bytes(&prepared)).unwrap());
    let pool = AsyncEngine::builder().workers(2).build();

    let queries = ["count(//item)", "//item/name", "count(//bid)"];
    let futures: Vec<_> = queries
        .iter()
        .flat_map(|q| (0..2).map(|_| pool.submit_snapshot(&snapshot, q).unwrap()))
        .collect();
    let results: Vec<Value> = futures
        .into_iter()
        .map(|f| f.wait().unwrap().unwrap().value)
        .collect();
    for (i, q) in queries.iter().enumerate() {
        let reference = pool.engine().evaluate_str_prepared(&prepared, q).unwrap();
        assert_eq!(results[2 * i], reference, "{q}");
        assert_eq!(results[2 * i + 1], reference, "{q}");
    }
    pool.shutdown();
    assert_eq!(Arc::strong_count(&snapshot), 1, "the pool holds no handle");
    let image = Arc::downgrade(&snapshot);
    drop(snapshot);
    assert!(image.upgrade().is_none());
}

#[test]
fn futures_are_awaitable_through_the_own_executor() {
    let mut rng = StdRng::seed_from_u64(8);
    let prepared = Arc::new(PreparedDocument::new(random_tree_document(
        &mut rng,
        60,
        &["a", "b", "c"],
    )));
    let pool = AsyncEngine::builder().workers(2).build();

    let value = block_on(async {
        let a = pool.submit(&prepared, "count(//a)").unwrap();
        let b = pool.submit(&prepared, "count(//b)").unwrap();
        let (a, b) = (a.await.unwrap().unwrap(), b.await.unwrap().unwrap());
        (a.value, b.value)
    });
    let sync_a = pool
        .engine()
        .evaluate_str_prepared(&prepared, "count(//a)")
        .unwrap();
    let sync_b = pool
        .engine()
        .evaluate_str_prepared(&prepared, "count(//b)")
        .unwrap();
    assert_eq!(value, (sync_a, sync_b));
}

/// The headline equivalence: for every strategy and both workload corpora,
/// submitting through the pool returns exactly what the synchronous
/// `evaluate_batch_prepared` returns — same values, same errors.
#[test]
fn async_results_equal_synchronous_evaluate_batch_across_strategies() {
    let mut rng = StdRng::seed_from_u64(2003);
    let corpora: Vec<(String, Arc<Document>)> = vec![
        (
            "auction".to_string(),
            Arc::new(auction_site_document(&mut rng, 25)),
        ),
        (
            "random-tree".to_string(),
            Arc::new(random_tree_document(&mut rng, 80, &["a", "b", "c", "d"])),
        ),
    ];
    let queries: Vec<String> = core_xpath_query_corpus()
        .into_iter()
        .chain(pwf_query_corpus())
        .map(|(_, expr)| expr.to_string())
        .collect();
    let query_refs: Vec<&str> = queries.iter().map(|q| q.as_str()).collect();

    for strategy in ALL_STRATEGIES {
        let engine = Engine::builder().strategy(strategy).build();
        let pool = AsyncEngine::builder()
            .engine(engine.clone())
            .workers(3)
            .queue_capacity(16)
            .build();
        for (corpus, doc) in &corpora {
            let prepared = Arc::new(PreparedDocument::new(Arc::clone(doc)));

            // Synchronous reference, through the batch entry point.  Every
            // corpus query must compile — a silent filter here would
            // misalign the per-query zips below.
            let plans: Vec<_> = queries
                .iter()
                .map(|q| engine.compile(q).unwrap_or_else(|e| panic!("{q}: {e}")))
                .collect();
            let plan_refs: Vec<&CompiledQuery> = plans.iter().map(|p| p.as_ref()).collect();
            let sync = engine.evaluate_batch_prepared(&prepared, &plan_refs);
            assert_eq!(sync.len(), queries.len());

            // Async, one submission per query AND one batched submission.
            let futures: Vec<_> = queries
                .iter()
                .map(|q| pool.submit(&prepared, q).unwrap())
                .collect();
            let batched = pool.submit_batch(&prepared, &query_refs).unwrap();

            for ((query, fut), reference) in queries.iter().zip(futures).zip(&sync) {
                let got = fut.wait().unwrap();
                match (got, reference) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.value, b.value, "{corpus}/{strategy:?}/{query}")
                    }
                    (Err(_), Err(_)) => {}
                    (got, reference) => {
                        panic!("{corpus}/{strategy:?}/{query}: async {got:?} vs sync {reference:?}")
                    }
                }
            }
            for (got, reference) in batched.wait().unwrap().iter().zip(&sync) {
                match (got, reference) {
                    (Ok(a), Ok(b)) => assert_eq!(a.value, b.value, "{corpus}/{strategy:?}"),
                    (Err(_), Err(_)) => {}
                    (got, reference) => {
                        panic!("{corpus}/{strategy:?}: batch {got:?} vs sync {reference:?}")
                    }
                }
            }
        }
        let stats = pool.shutdown();
        assert_eq!(stats.panicked, 0, "{strategy:?}");
        assert_eq!(stats.submitted, stats.completed, "{strategy:?}");
    }
}

/// Clients hammering `try_submit` under real contention: accepted work all
/// completes, rejections are all explicit `Full`, and the counters add up.
#[test]
fn concurrent_try_submit_storm_accounts_for_every_request() {
    let mut rng = StdRng::seed_from_u64(11);
    let prepared = Arc::new(PreparedDocument::new(auction_site_document(&mut rng, 20)));
    let pool = AsyncEngine::builder().workers(2).queue_capacity(4).build();

    let (accepted, rejected): (u64, u64) = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..4 {
            let pool = &pool;
            let prepared = Arc::clone(&prepared);
            handles.push(scope.spawn(move || {
                let mut ok = 0u64;
                let mut full = 0u64;
                for _ in 0..50 {
                    match pool.try_submit(&prepared, "count(//bid)") {
                        Ok(fut) => {
                            fut.wait().unwrap().unwrap();
                            ok += 1;
                        }
                        Err(TrySubmitError::Full) => full += 1,
                        Err(e) => panic!("unexpected rejection: {e}"),
                    }
                }
                (ok, full)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0, 0), |(a, r), (ok, full)| (a + ok, r + full))
    });

    assert_eq!(accepted + rejected, 200);
    // Final counters, read after shutdown joined the workers (a client's
    // `wait` can return a beat before the worker bumps `completed`).
    let stats = pool.shutdown();
    assert_eq!(stats.submitted, accepted);
    assert_eq!(stats.rejected_full, rejected);
    assert_eq!(stats.completed, accepted);
    assert!(stats.queue_high_watermark <= 4);
}

/// Async submission: awaits a full queue instead of failing, still subject
/// to shutdown.
#[test]
fn submit_async_round_trip() {
    let mut rng = StdRng::seed_from_u64(12);
    let prepared = Arc::new(PreparedDocument::new(auction_site_document(&mut rng, 15)));
    let pool = AsyncEngine::builder().workers(2).queue_capacity(8).build();

    let value = block_on(async {
        let accepted = pool.submit_async(&prepared, "count(//item)").await.unwrap();
        accepted.await.unwrap().unwrap().value
    });
    assert_eq!(value, Value::Number(15.0));
}

/// Bound submission: many in-flight parameterizations of one query share a
/// single compilation through the pool's plan cache.
#[test]
fn bound_submissions_share_one_compilation() {
    let pool = AsyncEngine::builder().workers(2).queue_capacity(32).build();
    let doc = Arc::new(PreparedDocument::new(
        parse_xml("<lib><book year='2001'/><book year='2003'/></lib>").unwrap(),
    ));
    let query = "count(//book[@year = $year])";
    let futures: Vec<_> = (0..16)
        .map(|i| {
            let b = Bindings::new().with_number("year", 2001.0 + (i % 2) as f64 * 2.0);
            pool.submit_bound(&doc, query, &b).unwrap()
        })
        .collect();
    for f in futures {
        assert_eq!(f.wait().unwrap().unwrap().value, Value::Number(1.0));
    }
    let cache = pool.engine().cache_stats();
    assert_eq!(cache.misses, 1, "{cache:?}");
    assert_eq!(cache.hits, 15, "{cache:?}");

    // A missing binding resolves to the eager unbound-variable error.
    let f = pool.submit_bound(&doc, query, &Bindings::new()).unwrap();
    let err = f.wait().unwrap().unwrap_err();
    assert!(matches!(err, EvalError::UnboundVariable { .. }), "{err:?}");
    pool.shutdown();
}
