//! The telemetry layer's cross-cutting invariants.
//!
//! Two families of guarantees are locked in here:
//!
//! * **Trace agreement** — all five evaluation strategies emit the *same*
//!   opcode span sequence for the same plan (spans are keyed to the plan's
//!   [`PlanIr`], not to strategy internals), and the candidate counts the
//!   spans carry are consistent with the query's actual result.
//! * **Zero-cost when disabled** — a plan with no telemetry attached, and
//!   a plan whose attached handle has sampling off, allocate exactly as
//!   much as each other on the run path.  The metered dispatch resolves
//!   its registry instruments once at attach time, so the steady state is
//!   atomics only; this test pins that with a counting global allocator.

mod counting_alloc;

use counting_alloc::allocations_now;
use std::sync::Arc;
use xpeval::prelude::*;
use xpeval::workloads::{core_xpath_query_corpus, random_tree_document};

const ALL_STRATEGIES: [EvalStrategy; 5] = [
    EvalStrategy::ContextValueTable,
    EvalStrategy::Naive,
    EvalStrategy::CoreXPathLinear,
    EvalStrategy::Parallel { threads: 2 },
    EvalStrategy::SingletonSuccess,
];

/// The per-strategy comparison key: each op span's (label, opcode index,
/// fragment), plus the query's result size.
type SpanSignature = (Vec<(String, Option<u32>, &'static str)>, usize);

fn strategy_trace(
    telemetry: &Telemetry,
    plan: &CompiledQuery,
    strategy: EvalStrategy,
    doc: &Document,
) -> (QueryTrace, usize) {
    let out = plan
        .clone()
        .with_strategy(strategy)
        .run(doc)
        .expect("corpus query evaluates");
    let nodes = match out.value {
        Value::NodeSet(ref ns) => ns.len(),
        _ => 0,
    };
    (
        telemetry.last_trace().expect("sampling 1 traces every run"),
        nodes,
    )
}

/// All five strategies emit identical opcode span sequences for every
/// query in the Core XPath corpus: same labels, same opcode indices, same
/// fragments, in the same (plan) order.  Where the strategies also agree
/// on the answer — which the agreement suite guarantees — the final op
/// span's candidate outflow equals the result size for *each* strategy.
#[test]
fn strategies_emit_identical_op_span_sequences() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let doc = random_tree_document(&mut rng, 400, &["a", "b", "c"]);
    let telemetry = Arc::new(Telemetry::with_sampling(1));

    for (name, query) in core_xpath_query_corpus() {
        let plan = CompiledQuery::from_expr(query).with_telemetry(Arc::clone(&telemetry));
        let mut reference: Option<SpanSignature> = None;
        for strategy in ALL_STRATEGIES {
            let (trace, nodes) = strategy_trace(&telemetry, &plan, strategy, &doc);
            assert_eq!(trace.strategy, format!("{strategy:?}"), "{name}");
            let spans: Vec<_> = trace
                .op_spans()
                .map(|s| (s.label.clone(), s.op, s.fragment))
                .collect();
            assert!(
                !spans.is_empty(),
                "{name} via {strategy:?} emitted no op spans"
            );
            let produced = trace
                .op_spans()
                .last()
                .map(|s| s.candidates_out as usize)
                .unwrap();
            assert_eq!(
                produced, nodes,
                "{name} via {strategy:?}: final span outflow vs result size"
            );
            match &reference {
                None => reference = Some((spans, nodes)),
                Some((expected_spans, expected_nodes)) => {
                    assert_eq!(&spans, expected_spans, "{name} via {strategy:?}");
                    assert_eq!(nodes, *expected_nodes, "{name} via {strategy:?}");
                }
            }
        }
    }
}

/// Sampled traces carry the full pipeline: a compile span, a lower span,
/// then one op span per [`PlanIr`] opcode — in that order — and every op
/// span records at least one call.
#[test]
fn sampled_traces_cover_compile_lower_and_every_opcode() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let doc = random_tree_document(&mut rng, 200, &["a", "b", "c"]);
    let telemetry = Arc::new(Telemetry::with_sampling(1));
    let plan = CompiledQuery::compile("//a[child::b]/c")
        .unwrap()
        .with_telemetry(Arc::clone(&telemetry));
    plan.run(&doc).unwrap();

    let trace = telemetry.last_trace().unwrap();
    assert_eq!(trace.query, "//a[child::b]/c");
    assert_eq!(trace.spans[0].label, "parse + classify");
    assert_eq!(trace.spans[1].label, "lower to PlanIr");
    let ops: Vec<_> = trace.op_spans().collect();
    assert_eq!(ops.len(), trace.spans.len() - 2);
    for (index, span) in ops.iter().enumerate() {
        assert_eq!(span.op, Some(index as u32), "op spans in plan order");
        assert!(span.calls >= 1, "opcode {index} was never entered");
    }
    // The profile table renders one row per span.
    let table = trace.profile_table();
    assert_eq!(
        table.lines().count(),
        trace.spans.len() + 3,
        "header + separator + one row per span:\n{table}"
    );
}

/// A handle with sampling off still counts queries into the registry but
/// keeps no traces and never reads the clock — the latency histogram only
/// fills on sampled runs.
#[test]
fn sampling_off_records_counters_but_keeps_no_traces() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let doc = random_tree_document(&mut rng, 200, &["a", "b", "c"]);
    let telemetry = Arc::new(Telemetry::new());
    let plan = CompiledQuery::compile("//a/b")
        .unwrap()
        .with_telemetry(Arc::clone(&telemetry));
    for _ in 0..5 {
        plan.run(&doc).unwrap();
    }
    assert_eq!(telemetry.trace_count(), 0);
    assert_eq!(telemetry.registry().counter("query_total").get(), 5);
    let latency = telemetry
        .registry()
        .histogram("query_latency_ns")
        .snapshot();
    assert_eq!(latency.count, 0, "latency is timed only on sampled runs");

    // Turning the sampler on makes the same plan start timing.
    telemetry.set_sample_every(1);
    plan.run(&doc).unwrap();
    assert_eq!(telemetry.trace_count(), 1);
    let latency = telemetry
        .registry()
        .histogram("query_latency_ns")
        .snapshot();
    assert_eq!(latency.count, 1);
}

/// The hot-path cost claim, pinned by the allocator: with telemetry
/// attached but sampling off, `run_prepared` performs *exactly* as many
/// allocations as it does with no telemetry at all.  (The dispatch
/// instruments are resolved at attach time; per-run metering on the
/// unsampled path is two atomic operations — no clock reads at all.)
#[test]
fn disabled_telemetry_allocates_nothing_on_the_run_path() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let prepared = random_tree_document(&mut rng, 300, &["a", "b", "c"]).prepare();

    let plain = CompiledQuery::compile("//a[child::b]/c")
        .unwrap()
        .with_strategy(EvalStrategy::ContextValueTable);
    let telemetry = Arc::new(Telemetry::new());
    let metered = plain.clone().with_telemetry(Arc::clone(&telemetry));

    let count_runs = |plan: &CompiledQuery| {
        // Warm-up settles one-time lazy state on either path.
        for _ in 0..3 {
            plan.run_prepared(&prepared).unwrap();
        }
        let before = allocations_now();
        for _ in 0..8 {
            plan.run_prepared(&prepared).unwrap();
        }
        allocations_now() - before
    };

    let bare = count_runs(&plain);
    let disabled = count_runs(&metered);
    assert_eq!(
        bare, disabled,
        "sampling-off telemetry must not allocate: {bare} allocations bare vs {disabled} metered"
    );
    assert_eq!(telemetry.trace_count(), 0);

    // Sanity: the instrumentation *did* run — the counter saw all 11 runs.
    assert_eq!(telemetry.registry().counter("query_total").get(), 11);
}
