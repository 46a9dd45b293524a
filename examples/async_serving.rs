//! Serving the engine to many concurrent clients through the async layer:
//! a worker-pool executor with a bounded submission queue, backpressure,
//! and observable `ServeStats`.
//!
//! ```bash
//! cargo run --release --example async_serving
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;
use xpeval::prelude::*;
use xpeval::workloads::auction_site_document;

/// A small serving mix over the auction document.
const QUERIES: [&str; 6] = [
    "//item[bid/@increase > 6]/name",
    "/site/people/person[child::watches]/name",
    "count(//bid)",
    "/site/regions/europe/item/name",
    "/site/people/person[last()]",
    "count(//item[child::bid])",
];

/// Result "weight": node count for node sets, 1 for scalars.
fn weight(v: &Value) -> usize {
    match v {
        Value::NodeSet(ns) => ns.len(),
        _ => 1,
    }
}

fn main() {
    let mut rng = StdRng::seed_from_u64(2003);
    let doc = Arc::new(auction_site_document(&mut rng, 150));

    // One engine, shared: the pool's workers clone the handle, so every
    // plan compiled by any worker lands in the same sharded cache.
    let engine = Engine::builder()
        .strategy(EvalStrategy::ContextValueTable)
        .plan_cache_capacity(256)
        .build();
    let prepared = Arc::new(PreparedDocument::new(Arc::clone(&doc)));
    let pool = AsyncEngine::builder()
        .engine(engine.clone())
        .workers(4)
        .queue_capacity(32)
        .build();

    // Part 1: a synchronous reference loop, for comparison.
    let rounds = 24usize;
    let start = Instant::now();
    let mut sync_nodes = 0usize;
    for _ in 0..rounds {
        for q in QUERIES {
            let out = engine.query_str_prepared(&prepared, q).unwrap();
            sync_nodes += weight(&out.value);
        }
    }
    let sync_elapsed = start.elapsed();

    // Part 2: the same workload fanned out from 8 client threads through
    // the bounded queue.  Clients use the blocking `submit`, so a full
    // queue simply slows submission down instead of dropping work.
    let clients = 8usize;
    let start = Instant::now();
    let async_nodes: usize = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..clients {
            let pool = &pool;
            let prepared = &prepared;
            handles.push(scope.spawn(move || {
                let mut nodes = 0usize;
                for r in 0..rounds / clients {
                    // Batches and single submissions mix freely.
                    if (c + r) % 2 == 0 {
                        let fut = pool.submit_batch(prepared, &QUERIES).unwrap();
                        for res in fut.wait().unwrap() {
                            nodes += weight(&res.unwrap().value);
                        }
                    } else {
                        let futures: Vec<_> = QUERIES
                            .iter()
                            .map(|q| pool.submit(prepared, q).unwrap())
                            .collect();
                        for fut in futures {
                            nodes += weight(&fut.wait().unwrap().unwrap().value);
                        }
                    }
                }
                nodes
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let async_elapsed = start.elapsed();

    // Same answers on both paths (the async side ran fewer rounds only if
    // clients didn't divide rounds evenly).
    let per_round = sync_nodes / rounds;
    assert_eq!(async_nodes / (rounds / clients * clients), per_round);

    println!("== async serving vs the synchronous loop ==\n");
    println!(
        "workload: {} queries x {rounds} rounds over {} nodes",
        QUERIES.len(),
        doc.len()
    );
    println!("sync loop : {sync_elapsed:>10.2?}");
    println!("{clients} clients : {async_elapsed:>10.2?} (4 workers, queue 32)");

    // Part 3: backpressure is observable, not implicit: a try_submit
    // burst larger than the queue gets explicit `Full` rejections.
    let burst: Vec<_> = (0..64)
        .map(|_| pool.try_submit(&prepared, "count(//person)"))
        .collect();
    let rejected = burst.iter().filter(|r| r.is_err()).count();
    for accepted in burst.into_iter().flatten() {
        accepted.wait().unwrap().unwrap();
    }
    println!("\nburst of 64 try_submit against a 32-slot queue: {rejected} rejected with TrySubmitError::Full");

    // Part 4: every layer reports one summary line (the shared Display
    // surface of CacheStats / ServeStats).
    println!("\n== observability ==\n");
    println!("plan cache : {}", engine.cache_stats());
    let stats = pool.shutdown(); // graceful: drains accepted work first
    println!("serve pool : {stats}");
    for (i, w) in stats.per_worker.iter().enumerate() {
        println!("  worker {i} : {w}");
    }
    assert_eq!(stats.panicked, 0);
    assert_eq!(stats.submitted, stats.completed);
}
