//! End-to-end scenarios exercising the public facade exactly as the README
//! and the examples present it.

use xpeval::prelude::*;

const CATALOG: &str = r#"<catalog>
  <product sku="X-1" category="tools"><name>Hammer</name><price>12</price><review rating="5"/><review rating="3"/></product>
  <product sku="X-2" category="tools"><name>Screwdriver</name><price>7</price><review rating="4"/></product>
  <product sku="Y-9" category="garden"><name>Rake</name><price>23</price><discontinued/></product>
  <product sku="Y-3" category="garden"><name>Shears</name><price>31</price><review rating="2"/><review rating="5"/><review rating="4"/></product>
</catalog>"#;

#[test]
fn catalog_queries_through_the_facade() {
    let doc = parse_xml(CATALOG).unwrap();
    let engine = Engine::new(EvalStrategy::ContextValueTable);

    // Node-set query.
    let names = engine
        .evaluate_str(&doc, "//product[@category = 'tools']/name")
        .unwrap();
    let names: Vec<String> = names
        .expect_nodes()
        .iter()
        .map(|&n| doc.string_value(n))
        .collect();
    assert_eq!(names, vec!["Hammer", "Screwdriver"]);

    // Scalar queries.
    assert_eq!(
        engine.evaluate_str(&doc, "count(//product)").unwrap(),
        Value::Number(4.0)
    );
    assert_eq!(
        engine
            .evaluate_str(&doc, "string(//product[not(review)]/name)")
            .unwrap(),
        Value::Str("Rake".into())
    );
    assert_eq!(
        engine
            .evaluate_str(&doc, "count(//product[review/@rating > 4])")
            .unwrap(),
        Value::Number(2.0)
    );

    // Positional pWF query.
    let last_garden = engine
        .evaluate_str(
            &doc,
            "//product[@category = 'garden'][position() = last()]/name",
        )
        .unwrap();
    assert_eq!(doc.string_value(last_garden.expect_nodes()[0]), "Shears");
}

#[test]
fn classification_guides_engine_choice() {
    let doc = parse_xml(CATALOG).unwrap();
    let cases = [
        ("/catalog/product/name", Fragment::PF, 4usize),
        (
            "//product[review and not(discontinued)]",
            Fragment::CoreXPath,
            3,
        ),
        ("//product[position() = last()]", Fragment::PWF, 1),
        ("//product[starts-with(@sku, 'X-')]", Fragment::PXPath, 2),
    ];
    for (src, expected_fragment, expected_count) in cases {
        let query = parse_query(src).unwrap();
        let report = xpeval::syntax::classify(&query);
        assert_eq!(report.fragment, expected_fragment, "{src}");

        // The recommended engine must produce the same answer as the DP
        // reference engine.
        let reference = Engine::new(EvalStrategy::ContextValueTable)
            .evaluate(&doc, &query)
            .unwrap();
        let recommended = Engine::recommended_for(&query)
            .evaluate(&doc, &query)
            .unwrap();
        assert_eq!(reference, recommended, "{src}");
        assert_eq!(reference.expect_nodes().len(), expected_count, "{src}");
    }
}

#[test]
fn full_xpath_queries_fall_back_to_the_dp_engine() {
    let doc = parse_xml(CATALOG).unwrap();
    let query = parse_query("//product[count(review) = 3]/name").unwrap();
    let report = xpeval::syntax::classify(&query);
    assert_eq!(report.fragment, Fragment::XPath);
    let engine = Engine::recommended_for(&query);
    assert_eq!(engine.strategy(), EvalStrategy::ContextValueTable);
    let v = engine.evaluate(&doc, &query).unwrap();
    assert_eq!(doc.string_value(v.expect_nodes()[0]), "Shears");
}

#[test]
fn singleton_success_answers_membership_without_materializing() {
    let doc = parse_xml(CATALOG).unwrap();
    let query = CompiledQuery::compile("//product[review/@rating > 4]/name").unwrap();
    let ctx = Context::root(&doc);

    let hammer_name = doc
        .all_elements()
        .find(|&n| doc.name(n) == Some("name") && doc.string_value(n) == "Hammer")
        .unwrap();
    let rake_name = doc
        .all_elements()
        .find(|&n| doc.name(n) == Some("name") && doc.string_value(n) == "Rake")
        .unwrap();
    assert!(query
        .decide(&doc, ctx, &SuccessTarget::Node(hammer_name))
        .unwrap());
    assert!(!query
        .decide(&doc, ctx, &SuccessTarget::Node(rake_name))
        .unwrap());
}

#[test]
fn error_paths_are_reported_not_panicked() {
    let doc = parse_xml(CATALOG).unwrap();
    let engine = Engine::default();
    assert!(engine.evaluate_str(&doc, "//product[").is_err());
    assert!(engine.evaluate_str(&doc, "unknown-function(1)").is_err());
    // Hostile nesting is a positioned parse error too — it used to overflow
    // the stack, which aborts the process instead of returning.
    let err = engine.evaluate_str(&doc, &"(".repeat(30_000)).unwrap_err();
    assert!(matches!(err, EvalError::Parse { .. }), "{err:?}");
    assert!(parse_xml("<a><b></a>").is_err());
    let core_only = Engine::new(EvalStrategy::CoreXPathLinear);
    assert!(core_only.evaluate_str(&doc, "//product[1]").is_err());
}
