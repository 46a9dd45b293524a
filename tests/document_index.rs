//! The prepared-document index: interval-numbering invariants on random
//! trees, agreement of the indexed fast paths with the plain tree walks,
//! and the engine's prepared entry points.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use xpeval::engine::reference::ReferenceEvaluator;
use xpeval::prelude::*;
use xpeval::workloads::{auction_site_document, random_tree_document};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// Preorder interval invariants on random trees: each node's interval
    /// starts at its own preorder number, intervals nest exactly like the
    /// tree (disjoint or contained, never partially overlapping), and a
    /// child's interval lies strictly inside its parent's.
    #[test]
    fn interval_numbering_invariants(seed in 0u64..10_000, nodes in 2usize..80) {
        let doc = random_tree_document(
            &mut StdRng::seed_from_u64(seed),
            nodes,
            &["a", "b", "c"],
        );
        let p = PreparedDocument::new(doc);
        let all: Vec<NodeId> = p.document().all_nodes().collect();
        // Ordering keys are gapped (see KEY_STRIDE), not dense ranks: the
        // root's interval end bounds every other interval, the node count
        // does not.
        let (_, root_hi) = p.pre_interval(p.document().root());
        for &n in &all {
            let (lo, hi) = p.pre_interval(n);
            prop_assert_eq!(lo, p.document().pre(n));
            prop_assert!(lo < hi);
            prop_assert!(hi <= root_hi);
            if let Some(parent) = p.document().parent(n) {
                let (plo, phi) = p.pre_interval(parent);
                prop_assert!(plo < lo && hi <= phi, "child interval escapes parent");
            }
        }
        // Pre/post nesting: intervals of any two nodes are disjoint or
        // one contains the other, and containment matches ancestorship.
        for &a in &all {
            let (alo, ahi) = p.pre_interval(a);
            for &b in &all {
                if a == b {
                    continue;
                }
                let (blo, bhi) = p.pre_interval(b);
                let disjoint = ahi <= blo || bhi <= alo;
                let a_contains_b = alo < blo && bhi <= ahi;
                let b_contains_a = blo < alo && ahi <= bhi;
                prop_assert!(
                    disjoint || a_contains_b || b_contains_a,
                    "partial overlap between {:?} and {:?}", a, b
                );
                prop_assert_eq!(
                    a_contains_b,
                    p.document().is_ancestor_of(a, b),
                    "containment must equal ancestorship for {:?}/{:?}", a, b
                );
            }
        }
    }

    /// The indexed axis fast paths agree with the plain tree walks on
    /// random trees, for every node, every node test and every axis the
    /// index accelerates (descendant, child buckets, following/preceding
    /// interval complements).
    #[test]
    fn indexed_axis_steps_agree(seed in 0u64..10_000, nodes in 2usize..60) {
        let doc = random_tree_document(
            &mut StdRng::seed_from_u64(seed),
            nodes,
            &["a", "b", "c"],
        );
        let p = PreparedDocument::new(doc.clone());
        let tests = [
            NodeTest::name("a"),
            NodeTest::name("b"),
            NodeTest::name("c"),
            NodeTest::name("zzz"),
            NodeTest::Star,
            NodeTest::AnyNode,
            NodeTest::Text,
        ];
        for n in doc.all_nodes() {
            for test in &tests {
                for axis in [
                    Axis::Descendant,
                    Axis::DescendantOrSelf,
                    Axis::Child,
                    Axis::Following,
                    Axis::Preceding,
                ] {
                    prop_assert_eq!(
                        AxisSource::axis_step(&p, n, axis, test),
                        doc.axis_step(n, axis, test),
                        "{:?} {} {}", n, axis, test
                    );
                }
            }
        }
        // Name index vs full scan.
        for tag in ["a", "b", "c", "zzz"] {
            let scanned: Vec<NodeId> = doc
                .all_elements()
                .filter(|&n| doc.name(n) == Some(tag))
                .collect();
            prop_assert_eq!(p.elements_named(tag), scanned.as_slice());
        }
    }

    /// Positional child predicates (`[k]`, `[last()]` and the `position()`
    /// spellings) agree between the prepared fast path and the plain
    /// filtering semantics, on random trees and through full queries.
    #[test]
    fn positional_predicates_agree(
        seed in 0u64..10_000,
        nodes in 2usize..60,
        k in 1usize..5,
        tag_ix in 0usize..4,
    ) {
        let doc = random_tree_document(
            &mut StdRng::seed_from_u64(seed),
            nodes,
            &["a", "b", "c"],
        );
        let p = PreparedDocument::new(doc.clone());
        let test = ["a", "b", "*", "node()"][tag_ix];
        for pred in [
            format!("{k}"),
            "last()".to_string(),
            format!("position() = {k}"),
            "position() = last()".to_string(),
        ] {
            let src = format!("/descendant-or-self::node()/child::{test}[{pred}]");
            for strategy in [EvalStrategy::ContextValueTable, EvalStrategy::Naive] {
                let q = CompiledQuery::compile(&src).unwrap().with_strategy(strategy);
                let plain = q.run(&doc).unwrap().value;
                let fast = q.run_prepared(&p).unwrap().value;
                prop_assert_eq!(plain, fast, "{} with {:?}", src, strategy);
            }
        }
    }
}

#[test]
fn prepared_evaluation_agrees_across_strategies_on_a_real_workload() {
    let mut rng = StdRng::seed_from_u64(92);
    let doc = auction_site_document(&mut rng, 15);
    let prepared = PreparedDocument::new(doc.clone());
    for query in [
        "/descendant::item",
        "//item[child::bid]/name",
        "//seller",
        "/site/regions/europe/descendant::bid",
        "count(//person)",
        "//item[not(child::bid)]",
    ] {
        let q = CompiledQuery::compile(query).unwrap();
        let plain = q.run(&doc).unwrap().value;
        let fast = q.run_prepared(&prepared).unwrap().value;
        assert_eq!(plain, fast, "{query}");
    }
}

#[test]
fn engine_serves_prepared_documents_through_its_cache() {
    let mut rng = StdRng::seed_from_u64(93);
    let doc = Arc::new(auction_site_document(&mut rng, 8));
    let engine = Engine::builder().build();

    let p1 = engine.prepare_keyed(93, &doc);
    let p2 = engine.prepare_keyed(93, &doc);
    assert!(Arc::ptr_eq(&p1, &p2), "preparation must be memoized");
    let stats = engine.document_cache_stats();
    assert_eq!((stats.misses, stats.hits), (1, 1));

    for query in ["//item", "count(//bid)", "//item[position() = 1]/name"] {
        let plain = engine.evaluate_str(&doc, query).unwrap();
        let fast = engine.evaluate_str_prepared(&p1, query).unwrap();
        assert_eq!(plain, fast, "{query}");
    }
}

#[test]
fn the_auto_plan_is_independent_of_document_size() {
    let q = CompiledQuery::compile("//item[position() = last()]").unwrap();
    assert_eq!(q.strategy(), EvalStrategy::ContextValueTable);
    let decided = q.clone().with_strategy(EvalStrategy::SingletonSuccess);
    for items in [4, 120] {
        let mut rng = StdRng::seed_from_u64(94);
        let doc = auction_site_document(&mut rng, items);
        let prepared = PreparedDocument::new(doc.clone());
        assert_eq!(q.strategy_for_source(&prepared), q.strategy(), "{items}");
        assert_eq!(q.strategy_for_source(&doc), q.strategy(), "{items}");
        // Same answer as the pinned Singleton-Success procedure, indexed
        // or not.
        let expected = decided.run(&doc).unwrap().value;
        assert_eq!(q.run_prepared(&prepared).unwrap().value, expected);
        assert_eq!(q.run(&doc).unwrap().value, expected);
    }
}

#[test]
fn attribute_name_tests_are_not_looked_up_among_element_tags() {
    // An attribute named like an element: attribute-axis tests match
    // attribute names, which the prepared tag table does not hold.
    let doc = parse_xml(r#"<r><a id="1"><id>2</id></a></r>"#).unwrap();
    let prepared = PreparedDocument::new(doc.clone());
    for (query, expected_len) in [
        ("//a/@id", Some(1)),
        ("//a/id", Some(1)),
        ("//@id", Some(1)),
        ("count(//a[@id])", None),
    ] {
        let q = CompiledQuery::compile(query).unwrap();
        let expected = ReferenceEvaluator::new(&doc).evaluate(q.expr()).unwrap();
        if let Some(len) = expected_len {
            assert_eq!(expected.expect_nodes().len(), len, "{query}");
        } else {
            assert_eq!(expected, Value::Number(1.0), "{query}");
        }
        assert_eq!(q.run(&doc).unwrap().value, expected, "{query}");
        assert_eq!(
            q.run_prepared(&prepared).unwrap().value,
            expected,
            "{query} (prepared)"
        );
    }
    // The step itself, with the name test in either form.
    let a = doc
        .all_elements()
        .find(|&n| doc.name(n) == Some("a"))
        .unwrap();
    let tests = [
        NodeTest::name("id"),
        NodeTest::Resolved {
            name: "id".into(),
            id: prepared.tag_id("id"),
        },
    ];
    for test in &tests {
        let plain = AxisSource::axis_step(&doc, a, Axis::Attribute, test);
        assert_eq!(plain.len(), 1, "{test:?}");
        assert_eq!(
            AxisSource::axis_step(&prepared, a, Axis::Attribute, test),
            plain
        );
        assert!(AxisSource::step_exists(&prepared, a, Axis::Attribute, test));
    }
}
