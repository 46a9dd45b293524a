//! Throughput of the async serving layer vs the synchronous loop.
//!
//! One fixed workload — `TOTAL` query evaluations from a six-query mix
//! over the ~9.6k-node auction document — is pushed through (a) a plain
//! synchronous `for` loop on one thread and (b) the `AsyncEngine` worker
//! pool fed by 1, 4 and 16 concurrent client threads using the blocking
//! `submit` (so a full queue throttles the clients instead of dropping
//! work).  The strategy is pinned to the context-value-table evaluator and
//! every path shares one engine handle, so the measured difference is
//! exactly the serving layer: queueing overhead at 1 client, parallel
//! drain at 4/16.
//!
//! The serving engine carries an `xpeval_obs::Telemetry` handle, so the
//! pool's workers stream queue-wait / execution / end-to-end latency
//! histograms into its metrics registry as they drain.  After the
//! criterion groups the bench exports the observability artifacts through
//! **both** exporters — `target/serve-stats.json` (each pool's final
//! `ServeStats` via `MetricSource::to_json`, with p50/p99 per lifecycle
//! stage) and `target/serve-stats.prom` (the registry as a Prometheus
//! scrape, validated against the crate's own exposition-format parser) —
//! and CI uploads them next to `BENCH_results.json`.  The old
//! `SERVE_STATS_JSON` env side channel is gone.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xpeval_core::{Engine, EvalStrategy};
use xpeval_dom::PreparedDocument;
use xpeval_obs::{parse_prometheus, render_prometheus, MetricSource, Telemetry};
use xpeval_serve::{AsyncEngine, ServeStats};
use xpeval_workloads::auction_site_document;

/// The serving mix: node-set and scalar results, child/descendant-heavy.
const QUERIES: [&str; 6] = [
    "//item[bid/@increase > 6]/name",
    "/site/people/person[child::watches]/name",
    "count(//bid)",
    "/site/regions/europe/item/name",
    "/site/people/person[last()]",
    "count(//item[child::bid])",
];

/// Query evaluations per measured iteration (divisible by every client
/// count).
const TOTAL: usize = 64;

/// Client-thread counts driving the pool.
const CLIENTS: [usize; 3] = [1, 4, 16];

fn serving_engine(telemetry: &Arc<Telemetry>) -> Engine {
    // Pinned strategy: every path runs the identical algorithm, so the
    // comparison isolates the serving layer, not plan selection.  The
    // telemetry handle is attached with sampling off: the registry
    // accumulates query counts and the serve lifecycle histograms, but no
    // per-opcode traces are recorded on the measured paths.
    Engine::builder()
        .strategy(EvalStrategy::ContextValueTable)
        .plan_cache_capacity(256)
        .telemetry(Arc::clone(telemetry))
        .build()
}

fn run_sync(engine: &Engine, prepared: &Arc<PreparedDocument>, total: usize) -> usize {
    let mut checksum = 0usize;
    for i in 0..total {
        let out = engine
            .query_str_prepared(prepared, QUERIES[i % QUERIES.len()])
            .unwrap();
        checksum += match out.value {
            xpeval_core::Value::NodeSet(ns) => ns.len(),
            _ => 1,
        };
    }
    checksum
}

fn run_async(pool: &AsyncEngine, prepared: &Arc<PreparedDocument>, clients: usize) -> usize {
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..clients {
            let prepared = Arc::clone(prepared);
            handles.push(scope.spawn(move || {
                let per_client = TOTAL / clients;
                let futures: Vec<_> = (0..per_client)
                    .map(|i| {
                        pool.submit(&prepared, QUERIES[(c * per_client + i) % QUERIES.len()])
                            .unwrap()
                    })
                    .collect();
                futures
                    .into_iter()
                    .map(|f| match f.wait().unwrap().unwrap().value {
                        xpeval_core::Value::NodeSet(ns) => ns.len(),
                        _ => 1,
                    })
                    .sum::<usize>()
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

fn new_pool(engine: &Engine) -> AsyncEngine {
    AsyncEngine::builder()
        .engine(engine.clone())
        // One worker per core: the pool's job is to keep the hardware
        // busy, however much of it there is.
        .workers(std::thread::available_parallelism().map_or(1, |n| n.get()))
        .queue_capacity(32)
        .build()
}

/// The workspace `target/` directory — benches run with the package as
/// cwd, so the path is anchored at the manifest instead.
fn target_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target")
}

/// Writes each pool's final `ServeStats` as one JSON object keyed by
/// client count; `MetricSource::to_json` renders the per-pool objects,
/// lifecycle histograms (count/sum/mean/p50/p90/p99/max) included.
fn write_serve_stats(path: &Path, rows: &[(usize, ServeStats)]) {
    let mut out = String::from("{\n");
    for (i, (clients, s)) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "  \"async_serving/clients_{clients}\": {}",
            s.to_json()
        ));
    }
    out.push_str("\n}\n");
    match std::fs::write(path, out) {
        Err(e) => eprintln!("bench_async_serving: cannot write {}: {e}", path.display()),
        Ok(()) => println!(
            "bench_async_serving: wrote ServeStats to {}",
            path.display()
        ),
    }
}

/// Renders the telemetry registry as a Prometheus scrape, proves it
/// against the crate's own exposition-format parser, and writes it next
/// to the JSON export.
fn write_prometheus(path: &Path, telemetry: &Telemetry) {
    let scrape = render_prometheus(telemetry.registry());
    if let Err(e) = parse_prometheus(&scrape) {
        panic!("bench_async_serving: invalid Prometheus exposition: {e}");
    }
    match std::fs::write(path, &scrape) {
        Err(e) => eprintln!("bench_async_serving: cannot write {}: {e}", path.display()),
        Ok(()) => println!(
            "bench_async_serving: wrote Prometheus scrape to {}",
            path.display()
        ),
    }
}

fn bench_async_serving(c: &mut Criterion) {
    let doc = auction_site_document(&mut StdRng::seed_from_u64(42), 600);
    let prepared = Arc::new(PreparedDocument::new(doc));
    let telemetry = Arc::new(Telemetry::new());
    let engine = serving_engine(&telemetry);

    // Sanity: the pool computes exactly what the loop computes.
    let reference = run_sync(&engine, &prepared, TOTAL);
    {
        let pool = new_pool(&engine);
        for clients in CLIENTS {
            assert_eq!(
                run_async(&pool, &prepared, clients),
                reference,
                "async serving diverged at {clients} clients"
            );
        }
    }

    let mut group = c.benchmark_group("async_serving");
    // Thread spawn/join per iteration makes these benches noisier than
    // the pure-computation ones; more samples over a longer window keep
    // the median stable enough for the 25% regression gate.
    group.sample_size(15);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    group.bench_function("sync_loop", |b| {
        b.iter(|| run_sync(&engine, &prepared, TOTAL))
    });

    let mut stats_rows: Vec<(usize, ServeStats)> = Vec::new();
    for clients in CLIENTS {
        let pool = new_pool(&engine);
        group.bench_function(format!("clients_{clients}"), |b| {
            b.iter(|| run_async(&pool, &prepared, clients))
        });
        stats_rows.push((clients, pool.shutdown()));
    }
    group.finish();

    // Export through both exporters: the per-pool JSON snapshots and the
    // accumulated registry as a Prometheus scrape.  A 16-client run thus
    // always leaves queue-wait and end-to-end histograms (p50/p99) on
    // disk for CI to upload.
    let dir = target_dir();
    write_serve_stats(&dir.join("serve-stats.json"), &stats_rows);
    write_prometheus(&dir.join("serve-stats.prom"), &telemetry);
    if let Some((clients, s)) = stats_rows.last() {
        println!(
            "async_serving/clients_{clients}: queue_wait p50={:?} p99={:?}, end_to_end p50={:?} p99={:?}",
            Duration::from_nanos(s.queue_wait.p50()),
            Duration::from_nanos(s.queue_wait.p99()),
            Duration::from_nanos(s.end_to_end.p50()),
            Duration::from_nanos(s.end_to_end.p99()),
        );
    }

    // Headline ratios; skipped in `--test` smoke mode (CI only proves the
    // routines run).
    if std::env::args().skip(1).any(|a| a == "--test") {
        return;
    }
    let rounds = 5u32;
    let time = |f: &mut dyn FnMut() -> usize| {
        let start = Instant::now();
        for _ in 0..rounds {
            criterion::black_box(f());
        }
        start.elapsed() / rounds
    };
    let sync = time(&mut || run_sync(&engine, &prepared, TOTAL));
    println!(
        "async_serving/sync_loop: {TOTAL} queries in {sync:?} ({:.0} q/s)",
        TOTAL as f64 / sync.as_secs_f64()
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for clients in CLIENTS {
        let pool = new_pool(&engine);
        let t = time(&mut || run_async(&pool, &prepared, clients));
        let speedup = sync.as_secs_f64() / t.as_secs_f64();
        println!(
            "async_serving/clients_{clients}: {TOTAL} queries in {t:?} ({:.0} q/s, {speedup:.2}x vs sync)",
            TOTAL as f64 / t.as_secs_f64()
        );
        // The acceptance bar: ≥2x the synchronous loop at 16 concurrent
        // clients — on hardware that has the cores to show it (the pool
        // cannot out-run the loop on a single-core host).  Hard-asserted
        // only on request (SERVE_BENCH_STRICT=1): in CI the medians above
        // feed bench_gate, whose baseline comparison is the gate — a
        // one-shot ratio on a noisy shared runner is not.
        if clients == 16 && cores >= 4 && std::env::var_os("SERVE_BENCH_STRICT").is_some() {
            assert!(
                speedup >= 2.0,
                "expected >= 2x over the sync loop at 16 clients on {cores} cores, got {speedup:.2}x"
            );
        }
    }
}

criterion_group!(benches, bench_async_serving);
criterion_main!(benches);
