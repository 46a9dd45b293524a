//! Property tests for the syntax layer: printing and re-parsing is the
//! identity, classification respects the Figure 1 inclusions, and the
//! normalization passes preserve semantics.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use xpeval::prelude::*;
use xpeval::syntax::normalize::{expand_iterated_predicates, push_negation_inward};
use xpeval::syntax::{classify, Fragment};
use xpeval::workloads::{
    random_core_query, random_pf_query, random_pwf_query, random_tree_document,
};

/// The value of `query` exactly as given (the compile-time Remark 5.2 merge
/// is off: the normalizations under test here must not be applied twice),
/// on the context-value-table machine.
fn evaluate_as_written(doc: &Document, query: &Expr) -> Value {
    let options = CompileOptions {
        strategy: Some(EvalStrategy::ContextValueTable),
        normalize: false,
        ..CompileOptions::default()
    };
    CompiledQuery::from_expr_with(query.clone(), &options)
        .run(doc)
        .unwrap()
        .value
}

/// A generator of random query ASTs via the workload generators (three
/// different families to cover PF, Core XPath and pWF shapes).
fn random_query(seed: u64, family: u8) -> Expr {
    let mut rng = StdRng::seed_from_u64(seed);
    match family % 3 {
        0 => random_pf_query(&mut rng, 5, &["a", "b", "c"]),
        1 => random_core_query(&mut rng, 3, &["a", "b", "c", "d"]),
        _ => random_pwf_query(&mut rng, &["a", "b"]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// to_string ∘ parse_query is the identity on generated queries.
    #[test]
    fn display_parse_roundtrip(seed in 0u64..50_000, family in 0u8..3) {
        let query = random_query(seed, family);
        let printed = query.to_string();
        let reparsed = parse_query(&printed).unwrap();
        prop_assert_eq!(query, reparsed, "printed: {}", printed);
    }

    /// The least fragment is indeed a member, and memberships are upward
    /// closed along the chain the classifier reports.
    #[test]
    fn classification_is_consistent(seed in 0u64..50_000, family in 0u8..3) {
        let query = random_query(seed, family);
        let report = classify(&query);
        prop_assert!(report.memberships.contains(&report.fragment));
        prop_assert!(report.memberships.contains(&Fragment::XPath));
        // The least fragment is the minimum of the membership list.
        prop_assert_eq!(report.fragment, *report.memberships.iter().min().unwrap());
        // PF queries are members of every fragment.
        if report.fragment == Fragment::PF {
            prop_assert_eq!(report.memberships.len(), Fragment::ALL.len());
        }
    }

    /// Merging iterated predicates (Remark 5.2) preserves evaluation results
    /// whenever position()/last() are absent — checked semantically.
    #[test]
    fn iterated_predicate_merge_preserves_semantics(seed in 0u64..20_000, nodes in 5usize..60) {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = random_tree_document(&mut rng, nodes, &["a", "b", "c"]);
        let query = random_core_query(&mut rng, 2, &["a", "b", "c"]);
        let merged = expand_iterated_predicates(&query);
        let before = evaluate_as_written(&doc, &query);
        let after = evaluate_as_written(&doc, &merged);
        prop_assert_eq!(before, after);
    }

    /// Pushing negation inward (Theorem 5.9's normalization) preserves
    /// evaluation results.
    #[test]
    fn negation_pushing_preserves_semantics(seed in 0u64..20_000, nodes in 5usize..60) {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = random_tree_document(&mut rng, nodes, &["a", "b", "c", "d"]);
        let query = random_core_query(&mut rng, 3, &["a", "b", "c", "d"]);
        let pushed = push_negation_inward(&query);
        let before = evaluate_as_written(&doc, &query);
        let after = evaluate_as_written(&doc, &pushed);
        prop_assert_eq!(before, after);
    }

    /// XML serialization round-trips through the parser.
    #[test]
    fn xml_roundtrip(seed in 0u64..50_000, nodes in 1usize..80) {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = random_tree_document(&mut rng, nodes, &["a", "b", "c", "longer-tag"]);
        let text = xpeval::dom::serialize(&doc);
        let reparsed = parse_xml(&text).unwrap();
        prop_assert_eq!(xpeval::dom::serialize(&reparsed), text);
        prop_assert_eq!(reparsed.element_count(), doc.element_count());
    }
}

#[test]
fn paper_queries_parse_and_classify_as_stated() {
    // The concrete queries the paper uses as running examples.
    let cases = [
        ("/descendant::a/child::b", Fragment::PF),
        (
            "/descendant::a/child::b[descendant::c and not(following-sibling::d)]",
            Fragment::CoreXPath,
        ),
        ("child::a[position() + 1 = last()]", Fragment::PWF),
        (
            "child::*[child::a and child::b and child::c]",
            Fragment::PositiveCoreXPath,
        ),
    ];
    for (src, expected) in cases {
        let q = parse_query(src).unwrap();
        assert_eq!(classify(&q).fragment, expected, "{src}");
        // And they survive a display/parse round trip.
        assert_eq!(parse_query(&q.to_string()).unwrap(), q);
    }
}
