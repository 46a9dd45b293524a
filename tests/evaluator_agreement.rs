//! Cross-machine agreement: every evaluation strategy implements the same
//! XPath semantics on the fragments it supports.
//!
//! This is the central integration invariant of the reproduction — the
//! complexity results only make sense if the linear Core XPath machine, the
//! context-value-table machine, the naive baseline, the Singleton-Success
//! checker and the parallel loop all agree, with each other and with the
//! AST-level reference evaluator.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use xpeval::engine::reference::ReferenceEvaluator;
use xpeval::prelude::*;
use xpeval::workloads::{
    auction_site_document, core_xpath_query_corpus, pwf_query_corpus, random_core_query,
    random_pf_query, random_tree_document, wide_document,
};

const CVT: EvalStrategy = EvalStrategy::ContextValueTable;
const NAIVE: EvalStrategy = EvalStrategy::Naive;
const LINEAR: EvalStrategy = EvalStrategy::CoreXPathLinear;
const SS: EvalStrategy = EvalStrategy::SingletonSuccess;

const ALL_STRATEGIES: [EvalStrategy; 5] = [
    CVT,
    NAIVE,
    LINEAR,
    EvalStrategy::Parallel { threads: 2 },
    SS,
];

fn plan(query: &Expr, strategy: EvalStrategy) -> CompiledQuery {
    CompiledQuery::from_expr(query.clone()).with_strategy(strategy)
}

/// The node set `query` selects from the root, on one machine.
fn select(doc: &Document, query: &Expr, strategy: EvalStrategy) -> Vec<NodeId> {
    let out = plan(query, strategy).run(doc).unwrap();
    out.value.into_nodes().unwrap()
}

/// [`select`] through the prepared indexes.
fn select_prepared(doc: &PreparedDocument, query: &Expr, strategy: EvalStrategy) -> Vec<NodeId> {
    let out = plan(query, strategy).run_prepared(doc).unwrap();
    out.value.into_nodes().unwrap()
}

/// The differential check: for every strategy, on a plain and on a prepared
/// document, the lowered plan either computes exactly what the AST-level
/// reference evaluator computes, or the machine rejects the query — and it
/// rejects precisely when the plan's precomputed admission verdict says so,
/// identically on both sources.
fn assert_machines_match_reference(doc: &Document, prepared: &PreparedDocument, query: &Expr) {
    let expected = ReferenceEvaluator::new(doc).evaluate(query).unwrap();
    for strategy in ALL_STRATEGIES {
        let compiled = plan(query, strategy);
        let ir = compiled.ir();
        let admitted = match strategy {
            EvalStrategy::ContextValueTable | EvalStrategy::Naive => true,
            EvalStrategy::CoreXPathLinear => {
                ir.linear_check().is_ok() && ir.op(ir.root()).kind.is_nodeset()
            }
            EvalStrategy::Parallel { .. } | EvalStrategy::SingletonSuccess => ir.ss_check().is_ok(),
        };
        let plain = compiled.run(doc).map(|out| out.value);
        let fast = compiled.run_prepared(prepared).map(|out| out.value);
        let source = compiled.source();
        if admitted {
            assert_eq!(plain.as_ref(), Ok(&expected), "{source} via {strategy:?}");
            assert_eq!(
                fast.as_ref(),
                Ok(&expected),
                "{source} prepared via {strategy:?}"
            );
        } else {
            assert!(
                matches!(plain, Err(EvalError::UnsupportedFragment { .. })),
                "{source} via {strategy:?}: {plain:?}"
            );
            assert_eq!(fast, plain, "{source} prepared via {strategy:?}");
        }
    }
}

/// All five strategies × both query corpora against the reference, on the
/// auction workload and a random tree, through direct and prepared sources.
#[test]
fn machines_match_the_reference_on_both_corpora() {
    let docs = [
        auction_site_document(&mut StdRng::seed_from_u64(7), 20),
        random_tree_document(
            &mut StdRng::seed_from_u64(8),
            200,
            &["site", "item", "bid", "name", "a", "b"],
        ),
    ];
    let corpus: Vec<_> = core_xpath_query_corpus()
        .into_iter()
        .chain(pwf_query_corpus())
        .collect();
    for doc in &docs {
        let prepared = PreparedDocument::new(doc.clone());
        for (_, query) in &corpus {
            assert_machines_match_reference(doc, &prepared, query);
        }
    }
}

#[test]
fn corpus_agreement_on_core_xpath_queries() {
    let docs = vec![
        wide_document(40, 4),
        random_tree_document(
            &mut StdRng::seed_from_u64(1),
            300,
            &["a", "b", "c", "d", "root"],
        ),
    ];
    for doc in &docs {
        for (name, query) in core_xpath_query_corpus() {
            let dp = select(doc, &query, CVT);
            assert_eq!(dp, select(doc, &query, NAIVE), "naive disagrees on {name}");
            assert_eq!(
                dp,
                select(doc, &query, LINEAR),
                "linear machine disagrees on {name}"
            );
        }
    }
}

#[test]
fn corpus_agreement_on_pwf_queries() {
    let doc = auction_site_document(&mut StdRng::seed_from_u64(2), 40);
    for (name, query) in pwf_query_corpus() {
        let dp = select(&doc, &query, CVT);
        assert_eq!(
            dp,
            select(&doc, &query, SS),
            "singleton-success disagrees on {name}"
        );
        let par = select(&doc, &query, EvalStrategy::Parallel { threads: 3 });
        assert_eq!(dp, par, "parallel loop disagrees on {name}");
    }
}

#[test]
fn engine_facade_strategies_agree() {
    let doc = auction_site_document(&mut StdRng::seed_from_u64(3), 25);
    let query = parse_query("//item[child::bid]/name").unwrap();
    let reference = Engine::new(EvalStrategy::ContextValueTable)
        .evaluate(&doc, &query)
        .unwrap();
    for strategy in [
        EvalStrategy::Naive,
        EvalStrategy::CoreXPathLinear,
        EvalStrategy::SingletonSuccess,
        EvalStrategy::Parallel { threads: 4 },
    ] {
        let got = Engine::new(strategy).evaluate(&doc, &query).unwrap();
        assert_eq!(got, reference, "{strategy:?}");
    }
}

/// Node-set operators (`union`/`intersect`/`except`) and node comparisons
/// (`is`/`<<`/`>>`) through every strategy: whoever accepts the query must
/// agree with the context-value-table reference, and node-set results come
/// back deduplicated in document order.
#[test]
fn set_operators_and_node_comparisons_agree() {
    let doc = auction_site_document(&mut StdRng::seed_from_u64(11), 30);
    let prepared = PreparedDocument::new(doc.clone());
    for src in [
        "//name intersect //item/name",
        "//name except //item/name",
        "(//name | //bid) except //item/name",
        "//item[child::bid] intersect //item",
        "(//bid | //bid) | //bid",
        "//item << //item/name",
        "//name >> //item",
        "//item/name is //item/name",
        "//nosuch is //item",
    ] {
        let reference = CompiledQuery::compile(src)
            .unwrap()
            .with_strategy(EvalStrategy::ContextValueTable)
            .run(&doc)
            .unwrap()
            .value;
        if let Value::NodeSet(nodes) = &reference {
            assert!(
                nodes.windows(2).all(|w| w[0] < w[1]),
                "{src}: result not deduplicated in document order: {nodes:?}"
            );
        }
        let mut accepted = 1;
        for strategy in ALL_STRATEGIES {
            if strategy == EvalStrategy::ContextValueTable {
                continue;
            }
            let compiled = CompiledQuery::compile(src).unwrap().with_strategy(strategy);
            match (compiled.run(&doc), compiled.run_prepared(&prepared)) {
                (Ok(plain), Ok(fast)) => {
                    accepted += 1;
                    assert_eq!(plain.value, reference, "{src} via {strategy:?}");
                    assert_eq!(fast.value, reference, "{src} prepared via {strategy:?}");
                }
                (Err(_), Err(_)) => {} // a strategy may reject the fragment, consistently
                (plain, fast) => panic!(
                    "{src} via {strategy:?}: direct and prepared disagree on acceptance: {plain:?} vs {fast:?}"
                ),
            }
        }
        assert!(accepted >= 2, "{src}: only the reference strategy accepted");
    }
}

/// Registered functions through every strategy that admits them: a
/// core-safe registration must evaluate identically under the DP
/// reference, the naive baseline, Singleton-Success and the parallel
/// evaluator.
#[test]
fn registered_functions_agree_across_strategies() {
    use std::sync::Arc;

    let mut registry = FunctionRegistry::new();
    registry.register(
        FunctionSignature::new("double", 1, Some(1))
            .returns_number()
            .impact(FragmentImpact::CoreSafe),
        |args, _, doc| Ok(Value::Number(args[0].to_number(doc) * 2.0)),
    );
    let registry = Arc::new(registry);
    let doc = auction_site_document(&mut StdRng::seed_from_u64(12), 25);
    let prepared = PreparedDocument::new(doc.clone());
    for src in ["//bid[double(@increase) = 6]", "double(count(//bid))"] {
        let compiled = CompiledQuery::compile_with_registry(src, registry.clone()).unwrap();
        let reference = compiled
            .clone()
            .with_strategy(EvalStrategy::ContextValueTable)
            .run(&doc)
            .unwrap()
            .value;
        for strategy in [
            EvalStrategy::Naive,
            EvalStrategy::SingletonSuccess,
            EvalStrategy::Parallel { threads: 2 },
        ] {
            let q = compiled.clone().with_strategy(strategy);
            match (q.run(&doc), q.run_prepared(&prepared)) {
                (Ok(plain), Ok(fast)) => {
                    assert_eq!(plain.value, reference, "{src} via {strategy:?}");
                    assert_eq!(fast.value, reference, "{src} prepared via {strategy:?}");
                }
                (Err(_), Err(_)) => {}
                (plain, fast) => {
                    panic!("{src} via {strategy:?}: acceptance divergence: {plain:?} vs {fast:?}")
                }
            }
        }
    }
}

/// Bound variables through every strategy: one compilation, one binding
/// set, identical answers — and the eager unbound-variable error on every
/// bound entry point when a referenced name is missing.
#[test]
fn bound_variables_agree_across_strategies() {
    let doc = auction_site_document(&mut StdRng::seed_from_u64(13), 25);
    let prepared = PreparedDocument::new(doc.clone());
    let compiled = CompiledQuery::compile("//bid[@increase = $inc]").unwrap();
    assert_eq!(compiled.variables(), ["inc".to_string()]);
    let bindings = Bindings::new().with_number("inc", 3.0);
    let reference = compiled
        .clone()
        .with_strategy(EvalStrategy::ContextValueTable)
        .run_bound(&doc, &bindings)
        .unwrap()
        .value;
    for strategy in ALL_STRATEGIES {
        let q = compiled.clone().with_strategy(strategy);
        match (
            q.run_bound(&doc, &bindings),
            q.run_prepared_bound(&prepared, &bindings),
        ) {
            (Ok(plain), Ok(fast)) => {
                assert_eq!(plain.value, reference, "bound via {strategy:?}");
                assert_eq!(fast.value, reference, "bound prepared via {strategy:?}");
            }
            (Err(_), Err(_)) => {}
            (plain, fast) => {
                panic!("bound via {strategy:?}: acceptance divergence: {plain:?} vs {fast:?}")
            }
        }
        // A missing binding is an eager, named error under every strategy.
        let err = q.run_bound(&doc, &Bindings::new()).unwrap_err();
        assert!(
            matches!(&err, EvalError::UnboundVariable { name } if name == "inc"),
            "{strategy:?}: {err:?}"
        );
    }
}

/// The compile-time gate: unknown functions and arity mismatches never
/// reach a document.
#[test]
fn compile_time_call_validation() {
    assert!(matches!(
        CompiledQuery::compile("frobnicate(//a)").unwrap_err(),
        EvalError::UnknownFunction { .. }
    ));
    for bad in ["count(//a, //b)", "substring('x')", "//a[count()]"] {
        assert!(
            matches!(
                CompiledQuery::compile(bad).unwrap_err(),
                EvalError::WrongArity { .. }
            ),
            "{bad}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random PF queries over random documents: the naive, table and linear
    /// machines agree.
    #[test]
    fn random_pf_queries_agree(seed in 0u64..5000, len in 1usize..7, nodes in 5usize..120) {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = random_tree_document(&mut rng, nodes, &["a", "b", "c"]);
        let query = random_pf_query(&mut rng, len, &["a", "b", "c"]);
        let dp = select(&doc, &query, CVT);
        prop_assert_eq!(&dp, &select(&doc, &query, NAIVE));
        prop_assert_eq!(&dp, &select(&doc, &query, LINEAR));
    }

    /// Random Core XPath queries (with negation): the table and linear
    /// machines agree.
    #[test]
    fn random_core_queries_agree(seed in 0u64..5000, depth in 0usize..4, nodes in 5usize..120) {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = random_tree_document(&mut rng, nodes, &["a", "b", "c", "d"]);
        let query = random_core_query(&mut rng, depth, &["a", "b", "c", "d"]);
        prop_assert_eq!(&select(&doc, &query, CVT), &select(&doc, &query, LINEAR));
    }

    /// Random pWF queries: the Singleton-Success checker and the parallel
    /// loop agree with the table machine.
    #[test]
    fn random_pwf_queries_agree(seed in 0u64..5000, nodes in 5usize..80) {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = random_tree_document(&mut rng, nodes, &["a", "b"]);
        let query = xpeval::workloads::random_pwf_query(&mut rng, &["a", "b"]);
        let dp = select(&doc, &query, CVT);
        prop_assert_eq!(&dp, &select(&doc, &query, SS));
        prop_assert_eq!(&dp, &select(&doc, &query, EvalStrategy::Parallel { threads: 2 }));
    }

    /// Predicates answered by column, and `child` steps from many contexts,
    /// on random trees where same-tag elements nest: the table machine
    /// agrees with the reference on the plain and on the prepared document.
    #[test]
    fn column_predicates_agree_on_random_trees(seed in 0u64..5000, nodes in 5usize..150) {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = random_tree_document(&mut rng, nodes, &["a", "b", "c"]);
        let prepared = PreparedDocument::new(doc.clone());
        for src in [
            "//a[count(b) > 1]",
            "//a[count(.//b) = 2]",
            "//a[count(b/c) > 0 and not(c)]",
            "//a[count(b/..) = 1]",
            "//b[count(ancestor::a) > 1]",
            "//a[count(descendant::b/ancestor::c) >= count(c)]",
            "//*[count(a) = count(b) or string(.) != '']",
            "count(//a[sum(b) != sum(b)])",
            "//a//b/c",
            "//a/b/c[count(*) = 0]",
        ] {
            let query = parse_query(src).unwrap();
            let expected = ReferenceEvaluator::new(&doc).evaluate(&query).unwrap();
            let table = plan(&query, CVT);
            prop_assert_eq!(&table.run(&doc).unwrap().value, &expected, "{}", src);
            prop_assert_eq!(
                &table.run_prepared(&prepared).unwrap().value, &expected,
                "{} (prepared)", src
            );
        }
    }

    /// The naive machine, the AST-level reference and the table machine agree
    /// on everything the naive ones can finish (they only differ in cost,
    /// never in the result).
    #[test]
    fn naive_agrees_when_it_terminates(seed in 0u64..5000, depth in 0usize..3, nodes in 5usize..60) {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = random_tree_document(&mut rng, nodes, &["a", "b", "c"]);
        let query = random_core_query(&mut rng, depth, &["a", "b", "c"]);
        let dp = select(&doc, &query, CVT);
        prop_assert_eq!(&dp, &select(&doc, &query, NAIVE));
        let reference = ReferenceEvaluator::new(&doc).evaluate(&query).unwrap();
        prop_assert_eq!(Value::NodeSet(dp), reference);
    }

    /// Prepared-vs-unprepared agreement for the newly indexed axes
    /// (`child::tag`, `following`, `preceding`) across the machines that
    /// support them: each machine, fed the same query, must compute the
    /// same node set from a `PreparedDocument` (indexed fast paths) as from
    /// the bare `Document` (tree walks).
    #[test]
    fn prepared_axes_agree_across_evaluators(seed in 0u64..5000, nodes in 5usize..80) {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = random_tree_document(&mut rng, nodes, &["a", "b", "c"]);
        let prepared = PreparedDocument::new(doc.clone());
        for src in [
            "/descendant::a/child::b",
            "//c/preceding::b",
            "//b/following::a",
            "//a/following::*",
            "//b/preceding::node()",
            "//a[following::b]/child::c",
            "//c[not(preceding::a)]",
        ] {
            let query = parse_query(src).unwrap();
            let reference = select(&doc, &query, CVT);
            prop_assert_eq!(
                &select_prepared(&prepared, &query, CVT), &reference,
                "dp prepared vs unprepared on {}", src
            );
            let linear_plain = select(&doc, &query, LINEAR);
            let linear_fast = select_prepared(&prepared, &query, LINEAR);
            prop_assert_eq!(&linear_plain, &reference, "linear vs dp on {}", src);
            prop_assert_eq!(&linear_fast, &reference, "linear prepared on {}", src);
            let naive = select_prepared(&prepared, &query, NAIVE);
            prop_assert_eq!(&naive, &reference, "naive prepared on {}", src);
            // The AST-level reference reads the same indexes through
            // `AxisSource`.
            let ast = ReferenceEvaluator::new(&prepared).evaluate(&query).unwrap();
            prop_assert_eq!(ast, Value::NodeSet(reference), "reference prepared on {}", src);
        }
    }

    /// Positional child predicates through the full pWF pipeline: the
    /// Singleton-Success checker and the parallel loop agree with the table
    /// machine on prepared documents (candidate pruning + indexed steps
    /// must not change any answer).
    #[test]
    fn prepared_positional_and_pruning_agree(seed in 0u64..5000, nodes in 5usize..60, k in 1usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = random_tree_document(&mut rng, nodes, &["a", "b"]);
        let prepared = PreparedDocument::new(doc.clone());
        for src in [
            format!("//a/child::b[{k}]"),
            format!("//a[position() = {k}]"),
            "//b[position() = last()]".to_string(),
            "//a/child::node()[last()]".to_string(),
        ] {
            let query = parse_query(&src).unwrap();
            let reference = select(&doc, &query, CVT);
            prop_assert_eq!(
                &select_prepared(&prepared, &query, CVT), &reference, "dp prepared on {}", src
            );
            let ss = select_prepared(&prepared, &query, SS);
            prop_assert_eq!(&ss, &reference, "singleton-success prepared on {}", src);
            let par = select_prepared(&prepared, &query, EvalStrategy::Parallel { threads: 2 });
            prop_assert_eq!(&par, &reference, "parallel prepared on {}", src);
        }
    }

    /// Random Core XPath and pWF queries through every strategy: the plan
    /// machines agree with the reference (or reject as their admission
    /// verdict says) on direct and prepared sources alike.
    #[test]
    fn machines_match_the_reference_on_random_queries(
        seed in 0u64..5000, depth in 0usize..4, nodes in 5usize..100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tags = ["a", "b", "c"];
        let doc = random_tree_document(&mut rng, nodes, &tags);
        let prepared = PreparedDocument::new(doc.clone());
        let queries = [
            random_core_query(&mut rng, depth, &tags),
            xpeval::workloads::random_pwf_query(&mut rng, &tags),
        ];
        for query in &queries {
            assert_machines_match_reference(&doc, &prepared, query);
        }
    }

    /// The workspace-global intern table hands out *stable* [`TagId`]s: the
    /// same name interned from racing threads resolves to one id, and two
    /// documents built over the same tag pool agree on the id of every tag
    /// they share — the property that lets specialized plans and artifacts
    /// transfer between documents.
    #[test]
    fn tag_ids_are_stable_across_threads_and_documents(
        seed in 0u64..5000, nodes in 5usize..80,
    ) {
        use xpeval::dom::intern;

        // Names fresh to this seed: the winning thread interns, the rest
        // must observe the identical id (and the reverse mapping).
        let names: Vec<String> = (0..8).map(|i| format!("p{seed}-t{i}")).collect();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let mut order = names.clone();
                order.rotate_left(t * 2);
                std::thread::spawn(move || {
                    order
                        .into_iter()
                        .map(|n| { let id = intern::intern(&n); (n, id) })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut agreed = std::collections::HashMap::new();
        for handle in handles {
            for (name, id) in handle.join().unwrap() {
                let first = *agreed.entry(name.clone()).or_insert(id);
                prop_assert_eq!(first, id, "thread disagreement on {}", name);
                prop_assert_eq!(intern::tag_name(id), name.as_str());
                prop_assert_eq!(intern::lookup(&name), Some(id));
            }
        }

        // Two independent documents over one tag pool: every shared tag
        // resolves to the same workspace-global id in both.
        let mut rng = StdRng::seed_from_u64(seed);
        let tags = ["a", "b", "c"];
        let one = PreparedDocument::new(random_tree_document(&mut rng, nodes, &tags));
        let two = PreparedDocument::new(random_tree_document(&mut rng, nodes, &tags));
        for tag in tags {
            if let (Some(in_one), Some(in_two)) = (one.tag_id(tag), two.tag_id(tag)) {
                prop_assert_eq!(in_one, in_two, "documents disagree on {}", tag);
                prop_assert_eq!(intern::lookup(tag), Some(in_one));
                prop_assert_eq!(one.tag_name(in_one), two.tag_name(in_two));
            }
        }
    }
}

/// The per-strategy work-counter protocol of [`EvalStats`]: every strategy
/// fills the counters that are meaningful for it and leaves the rest at
/// zero, exactly as the table in `xpeval-core/src/stats.rs` documents.
/// This is what makes the paper's complexity separations *observable*
/// through `QueryOutput::stats` without wall-clock timing — so the plan
/// machines must never silently stop filling one of these.
#[test]
fn work_counters_follow_the_per_strategy_protocol() {
    let mut rng = StdRng::seed_from_u64(7);
    let doc = random_tree_document(&mut rng, 400, &["a", "b", "c"]);
    let plan = CompiledQuery::compile("//a[child::b]/c").unwrap();
    let stats_for = |strategy| {
        plan.clone()
            .with_strategy(strategy)
            .run(&doc)
            .unwrap()
            .stats
    };

    // Context-value table: computed entries and the final table size.
    let cvt = stats_for(EvalStrategy::ContextValueTable);
    assert!(cvt.evaluations > 0, "{cvt:?}");
    assert!(cvt.step_context_evaluations > 0, "{cvt:?}");
    assert!(cvt.table_entries > 0, "{cvt:?}");
    assert_eq!(cvt.max_intermediate_list, 0, "{cvt:?}");

    // Naive re-evaluation: the exploding intermediate list is its witness;
    // it owns no table.
    let naive = stats_for(EvalStrategy::Naive);
    assert!(naive.evaluations > 0, "{naive:?}");
    assert!(naive.step_context_evaluations > 0, "{naive:?}");
    assert!(naive.max_intermediate_list > 0, "{naive:?}");
    assert_eq!(naive.table_entries, 0, "{naive:?}");
    assert_eq!(naive.cache_hits, 0, "{naive:?}");

    // Linear Core XPath: set-at-a-time, so counters are per *step*, not
    // per (step, node) — small numbers, but never zero.
    let linear = stats_for(EvalStrategy::CoreXPathLinear);
    assert!(linear.evaluations > 0, "{linear:?}");
    assert!(linear.step_context_evaluations > 0, "{linear:?}");
    assert_eq!(linear.cache_hits, 0, "{linear:?}");
    assert_eq!(linear.table_entries, 0, "{linear:?}");
    assert_eq!(linear.max_intermediate_list, 0, "{linear:?}");

    // Singleton-Success and its parallel fan-out: decision counts plus
    // memo-table hits (the LOGCFL checker memoizes heavily).
    for strategy in [
        EvalStrategy::SingletonSuccess,
        EvalStrategy::Parallel { threads: 2 },
    ] {
        let ss = stats_for(strategy);
        assert!(ss.evaluations > 0, "{strategy:?}: {ss:?}");
        assert!(ss.step_context_evaluations > 0, "{strategy:?}: {ss:?}");
        assert!(ss.cache_hits > 0, "{strategy:?}: {ss:?}");
        assert_eq!(ss.table_entries, 0, "{strategy:?}: {ss:?}");
        assert_eq!(ss.max_intermediate_list, 0, "{strategy:?}: {ss:?}");
    }

    // Eager storage: no strategy reports lazy residency (that gauge is
    // owned by the catalog's lazy backend, not the executor).
    for strategy in ALL_STRATEGIES {
        assert_eq!(stats_for(strategy).nodes_materialized, 0, "{strategy:?}");
    }

    // The DP memo table pays off on overlapping contexts: an ancestor
    // step walked per context (its predicate reads `position()`) revisits
    // (subexpression, context) pairs, so CVT reports hits where naive
    // reports re-evaluations and list growth instead.
    let doc = parse_xml("<r><a><b/></a><a><b/></a><a><b/></a></r>").unwrap();
    let plan = CompiledQuery::compile("//b/ancestor::*[position() <= count(child::b)]").unwrap();
    let cvt = plan
        .clone()
        .with_strategy(EvalStrategy::ContextValueTable)
        .run(&doc)
        .unwrap()
        .stats;
    assert!(cvt.cache_hits > 0, "{cvt:?}");
    let naive = plan
        .with_strategy(EvalStrategy::Naive)
        .run(&doc)
        .unwrap()
        .stats;
    assert!(
        naive.evaluations > cvt.evaluations,
        "naive {naive:?} vs cvt {cvt:?}"
    );
}
