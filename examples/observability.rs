//! The unified telemetry layer end to end: a sampled per-opcode query
//! trace rendered as a profile table, the workspace `*Stats` structs
//! published into one metrics registry, serve-side request lifecycle
//! histograms, and the Prometheus text exposition that ties it together.
//!
//! ```bash
//! cargo run --release --example observability
//! ```
//!
//! The Prometheus dump at the end is self-validated with the crate's own
//! exposition-format parser, so CI can scrape this example's output.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use xpeval::prelude::*;
use xpeval::workloads::auction_site_document;

/// A small query mix over the auction document, spanning the fragments.
const QUERIES: [&str; 4] = [
    "//item[bid/@increase > 6]/name",
    "/site/people/person[child::watches]/name",
    "count(//item[child::bid])",
    "/site/regions/europe/item/name",
];

fn main() {
    let mut rng = StdRng::seed_from_u64(2003);
    let doc = auction_site_document(&mut rng, 150);

    // One telemetry handle for the whole stack.  `with_sampling(1)` traces
    // and times every execution; production deployments would sample
    // sparsely (the query counters and the serve-side histograms stay on
    // regardless).
    let telemetry = Arc::new(Telemetry::with_sampling(1));
    let engine = Engine::builder()
        .strategy(EvalStrategy::ContextValueTable)
        .telemetry(Arc::clone(&telemetry))
        .build();
    let prepared = Arc::new(PreparedDocument::new(doc));

    // Part 1: per-opcode query traces.  Every dispatch through the engine
    // records compile/lower/op spans; the last sampled trace shows where a
    // query's time and candidate flow went, opcode by opcode.
    println!("== per-opcode profile of one sampled execution ==\n");
    for query in QUERIES {
        engine.evaluate_str_prepared(&prepared, query).unwrap();
    }
    let trace = telemetry
        .last_trace()
        .expect("sampling is 1, so every run traces");
    println!("{}", trace.profile_table());

    // The same query under a different strategy emits the same opcode span
    // sequence — traces are keyed to the plan, not the strategy — so
    // per-opcode profiles are comparable across strategies.
    let plan = engine.compile(QUERIES[0]).unwrap();
    telemetry.take_traces();
    for strategy in [
        EvalStrategy::ContextValueTable,
        EvalStrategy::Naive,
        EvalStrategy::SingletonSuccess,
        EvalStrategy::Parallel { threads: 2 },
    ] {
        (*plan)
            .clone()
            .with_strategy(strategy)
            .run_prepared(&prepared)
            .unwrap();
    }
    let traces = telemetry.take_traces();
    for t in &traces {
        println!(
            "strategy {:>24}: {:2} op spans, {:3} result nodes, {:>9} ns",
            t.strategy,
            t.op_spans().count(),
            t.op_spans().last().map_or(0, |s| s.candidates_out),
            t.total_nanos
        );
    }
    // Identical opcode span sequence across all four strategies.
    let first: Vec<&str> = traces[0].op_spans().map(|s| s.label.as_str()).collect();
    for t in &traces[1..] {
        let labels: Vec<&str> = t.op_spans().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, first);
    }
    println!();

    // Part 2: serve-side lifecycle metrics.  Workers attached to an engine
    // with telemetry stream queue-wait / execution / end-to-end histograms
    // and a queue-depth gauge straight into the shared registry.
    let pool = AsyncEngine::builder()
        .engine(engine.clone())
        .workers(2)
        .queue_capacity(32)
        .build();
    let futures: Vec<_> = (0..8)
        .flat_map(|_| QUERIES.iter().map(|q| pool.submit(&prepared, q).unwrap()))
        .collect();
    for fut in futures {
        fut.wait().unwrap().unwrap();
    }
    let stats = pool.stats();
    println!("== serve lifecycle ==\n");
    println!("{stats}");
    println!(
        "queue wait p50/p99: {}ns / {}ns   end-to-end p50/p99: {}ns / {}ns\n",
        stats.queue_wait.p50(),
        stats.queue_wait.p99(),
        stats.end_to_end.p50(),
        stats.end_to_end.p99()
    );

    // Part 3: one registry for the whole workspace.  Engine dispatch and
    // the serve workers already fed it; `MetricSource::publish` folds any
    // of the `*Stats` structs in under their source-name prefix.
    engine.cache_stats().publish(telemetry.registry());
    stats.publish(telemetry.registry());

    let prom = telemetry.render_prometheus();
    // Self-check: the dump must round-trip through the exposition parser.
    let parsed = parse_prometheus(&prom).expect("exporter emits valid exposition format");
    assert!(parsed.value("query_total").is_some());
    assert!(parsed.value("serve_end_to_end_count").is_some());
    assert!(parsed.value("plan_cache_hits").is_some());

    println!(
        "== prometheus exposition ({} samples) ==\n",
        parsed.samples.len()
    );
    println!("{prom}");
    println!("(validated: parse_prometheus round-trips the dump)");

    // CI scrape hook: write the exposition to a file for `prom_check`.
    if let Ok(path) = std::env::var("OBSERVABILITY_PROM_OUT") {
        std::fs::write(&path, &prom).expect("write prometheus dump");
        println!("wrote {path}");
    }
}
