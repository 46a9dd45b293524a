//! Semantics of the plan machines, checked through [`CompiledQuery`].
//!
//! Every test states the expected answer outright (from the XPath 1.0
//! recommendation or the paper) and runs the query — lowered as written, no
//! normalization — on each [`EvalStrategy`]: a machine either admits the
//! query and produces that answer, or rejects it as outside its fragment.

use xpeval_core::reference::ReferenceEvaluator;
use xpeval_core::{
    CompileOptions, CompiledQuery, Context, EvalError, EvalStrategy, SuccessTarget, Value,
};
use xpeval_dom::{parse_xml, Document, DocumentBuilder, NodeId, PreparedDocument};
use xpeval_syntax::parse_query;

const BOOKS: &str = r#"<lib><book year="2001"><title>A</title></book><book year="2003"><title>B</title><cite/></book><paper year="2003"><title>C</title></paper></lib>"#;
const TREE: &str =
    "<r><a><b><c/></b><b/><d/></a><a><b><c/></b><d/><b><c/></b></a><e><a><b/></a></e></r>";

const CVT: EvalStrategy = EvalStrategy::ContextValueTable;
const LINEAR: EvalStrategy = EvalStrategy::CoreXPathLinear;
const SS: EvalStrategy = EvalStrategy::SingletonSuccess;
const ALL: [EvalStrategy; 5] = [
    CVT,
    EvalStrategy::Naive,
    LINEAR,
    SS,
    EvalStrategy::Parallel { threads: 3 },
];

fn plan(query: &str, strategy: EvalStrategy) -> CompiledQuery {
    let options = CompileOptions {
        strategy: Some(strategy),
        normalize: false,
        ..CompileOptions::default()
    };
    CompiledQuery::from_expr_with(parse_query(query).unwrap(), &options)
}

/// The query's value on the context-value-table machine (which admits all
/// of XPath), after checking that every other machine computes the same
/// value or rejects the query's fragment.
fn eval_on(doc: &Document, query: &str) -> Value {
    let expected = plan(query, CVT).run(doc).unwrap().value;
    for strategy in ALL {
        match plan(query, strategy).run(doc) {
            Ok(out) => assert_eq!(out.value, expected, "{query} via {strategy:?}"),
            Err(EvalError::UnsupportedFragment { .. }) => {}
            Err(other) => panic!("{query} via {strategy:?}: {other:?}"),
        }
    }
    expected
}

fn eval(xml: &str, query: &str) -> Value {
    eval_on(&parse_xml(xml).unwrap(), query)
}

fn names(xml: &str, query: &str) -> Vec<String> {
    let doc = parse_xml(xml).unwrap();
    let value = eval_on(&doc, query);
    let nodes = value.expect_nodes();
    nodes
        .iter()
        .map(|&n| doc.name(n).unwrap_or("#").to_string())
        .collect()
}

fn strings(xml: &str, query: &str) -> Vec<String> {
    let doc = parse_xml(xml).unwrap();
    let value = eval_on(&doc, query);
    let nodes = value.expect_nodes();
    nodes.iter().map(|&n| doc.string_value(n)).collect()
}

/// The query must be admitted by `strategy` (and agree with everyone else).
fn admitted(xml: &str, query: &str, strategy: EvalStrategy) -> Value {
    let doc = parse_xml(xml).unwrap();
    let expected = eval_on(&doc, query);
    let got = plan(query, strategy).run(&doc);
    assert_eq!(got.map(|o| o.value), Ok(expected.clone()), "{query}");
    expected
}

fn nth_named(doc: &Document, name: &str, n: usize) -> NodeId {
    doc.all_elements()
        .filter(|&e| doc.name(e) == Some(name))
        .nth(n)
        .unwrap()
}

// -- XPath 1.0 semantics, every machine ---------------------------------------

#[test]
fn simple_child_paths() {
    assert_eq!(names(BOOKS, "/child::lib/child::book"), ["book", "book"]);
    assert_eq!(names(BOOKS, "/lib/book/title"), ["title", "title"]);
    assert_eq!(names(BOOKS, "//title"), ["title", "title", "title"]);
}

#[test]
fn paper_example_query_semantics() {
    // /descendant::a/child::b[descendant::c and not(following-sibling::d)]
    let xml = "<r><a><b><c/></b><b/><d/></a><a><b><c/></b><d/><b><c/></b></a></r>";
    // First a: its first b has a c but also a following d sibling; its
    // second b has no c.  Second a: only the last b has a c and no
    // following d.
    let q = "/descendant::a/child::b[descendant::c and not(following-sibling::d)]";
    assert_eq!(strings(xml, q).len(), 1);
    assert_eq!(
        names(xml, "/descendant::a/child::b[descendant::c]").len(),
        3
    );
}

#[test]
fn predicates_with_attributes_and_values() {
    assert_eq!(names(BOOKS, "//book[@year = 2003]"), ["book"]);
    assert_eq!(strings(BOOKS, "//book[@year = 2003]/title"), ["B"]);
    assert_eq!(names(BOOKS, "//*[@year = 2003]"), ["book", "paper"]);
    assert_eq!(names(BOOKS, "//book[child::cite]"), ["book"]);
}

#[test]
fn position_and_last() {
    assert_eq!(strings(BOOKS, "//book[position() = 2]/title"), ["B"]);
    assert_eq!(strings(BOOKS, "//book[last()]/title"), ["B"]);
    assert_eq!(strings(BOOKS, "//book[1]/title"), ["A"]);
    // Section 2.2 example: position() + 1 = last() selects w_k with k+1 = m.
    let xml = "<r><a>1</a><a>2</a><a>3</a></r>";
    assert_eq!(strings(xml, "/r/a[position() + 1 = last()]"), ["2"]);
    // Iterated predicates re-derive positions after every filter.
    assert_eq!(strings(xml, "/r/a[position() >= 2][1]"), ["2"]);
}

#[test]
fn booleans_and_unions() {
    assert_eq!(
        names(BOOKS, "//book[child::cite or child::title]"),
        ["book", "book"]
    );
    assert_eq!(
        names(BOOKS, "//book[child::cite and child::title]"),
        ["book"]
    );
    assert_eq!(names(BOOKS, "//book[not(child::cite)]"), ["book"]);
    let mut all = names(BOOKS, "//book/title | //paper/title | //cite");
    all.sort();
    assert_eq!(all, ["cite", "title", "title", "title"]);
}

#[test]
fn scalar_results() {
    assert_eq!(eval(BOOKS, "count(//book)"), Value::Number(2.0));
    assert_eq!(eval(BOOKS, "count(//book | //paper)"), Value::Number(3.0));
    assert_eq!(eval(BOOKS, "1 + 2 * 3"), Value::Number(7.0));
    assert_eq!(
        eval(BOOKS, "string(//book[1]/title)"),
        Value::Str("A".into())
    );
    assert_eq!(eval(BOOKS, "boolean(//nosuch)"), Value::Boolean(false));
    assert_eq!(eval(BOOKS, "not(//nosuch)"), Value::Boolean(true));
    assert_eq!(
        eval(BOOKS, "concat('x', string(count(//title)))"),
        Value::Str("x3".into())
    );
    assert_eq!(eval(BOOKS, "sum(//book/@year)"), Value::Number(4004.0));
}

#[test]
fn axes_in_document_order() {
    let xml = "<r><x><a/><b/></x><y><c/></y></r>";
    assert_eq!(names(xml, "//c/ancestor::*"), ["r", "y"]);
    assert_eq!(names(xml, "//a/following::*"), ["b", "y", "c"]);
    assert_eq!(names(xml, "//c/preceding::*"), ["x", "a", "b"]);
    assert_eq!(names(xml, "//b/preceding-sibling::*"), ["a"]);
    assert_eq!(names(xml, "//a/ancestor-or-self::*"), ["r", "x", "a"]);
}

#[test]
fn root_query_and_self_axis() {
    assert_eq!(eval(BOOKS, "/").expect_nodes().len(), 1);
    assert_eq!(names(BOOKS, "//title/self::title").len(), 3);
    assert_eq!(names(BOOKS, "//title/."), ["title", "title", "title"]);
    assert_eq!(names(BOOKS, "//title/../..").len(), 1);
}

#[test]
fn text_nodes() {
    assert_eq!(strings(BOOKS, "//title/text()"), ["A", "B", "C"]);
}

#[test]
fn set_operators_follow_document_order() {
    assert_eq!(strings(BOOKS, "//title intersect //book/title"), ["A", "B"]);
    assert_eq!(strings(BOOKS, "//title except //book/title"), ["C"]);
    assert_eq!(
        strings(BOOKS, "(//title | //cite) except //paper/title"),
        ["A", "B", ""]
    );
    assert_eq!(
        eval(BOOKS, "//book intersect //paper"),
        Value::NodeSet(vec![])
    );
    assert_eq!(
        eval(BOOKS, "//title except //title"),
        Value::NodeSet(vec![])
    );
    assert_eq!(names(BOOKS, "//title intersect //title").len(), 3);
}

#[test]
fn set_operators_merge_large_operands() {
    // 2,501 nodes: 500 × (two b, one c, one d).  Overlapping and disjoint
    // operands, against the reference, on the machines that materialize
    // node sets (Singleton-Success decides membership node by node).
    let xml = format!("<r>{}</r>", "<a><b/><c/><b/><d/></a>".repeat(500));
    let doc = parse_xml(&xml).unwrap();
    for (query, count) in [
        ("(//b | //c) intersect (//c | //d)", 500),
        ("(//b | //c) except (//c | //d)", 1000),
        ("//a/b[1] intersect //c/preceding-sibling::b", 500),
        ("//b intersect //c", 0),
        ("//b except //c", 1000),
        ("//a/*[last()] except //d", 0),
    ] {
        let expected = ReferenceEvaluator::new(&doc)
            .evaluate(&parse_query(query).unwrap())
            .unwrap();
        assert_eq!(expected.clone().expect_nodes().len(), count, "{query}");
        for strategy in [CVT, EvalStrategy::Naive, LINEAR] {
            match plan(query, strategy).run(&doc) {
                Ok(out) => assert_eq!(out.value, expected, "{query} via {strategy:?}"),
                Err(EvalError::UnsupportedFragment { .. }) => assert_eq!(strategy, LINEAR),
                Err(other) => panic!("{query} via {strategy:?}: {other:?}"),
            }
        }
    }
}

#[test]
fn node_comparisons_use_first_nodes_in_document_order() {
    for (q, expected) in [
        ("//book is //book", true),
        ("//book is //paper", false),
        ("//book << //paper", true),
        ("//paper >> //cite", true),
        ("//paper << //book", false),
        // Empty operands never compare true, on either side.
        ("//nosuch is //book", false),
        ("//book << //nosuch", false),
    ] {
        assert_eq!(eval(BOOKS, q), Value::Boolean(expected), "{q}");
    }
}

#[test]
fn relative_queries_use_the_context_node() {
    let doc = parse_xml(BOOKS).unwrap();
    let book2 = nth_named(&doc, "book", 1);
    for strategy in ALL {
        let out = plan("child::title", strategy)
            .run_with_context(&doc, Context::new(book2, 1, 1))
            .unwrap();
        let nodes = out.value.expect_nodes();
        assert_eq!(nodes.len(), 1, "{strategy:?}");
        assert_eq!(doc.string_value(nodes[0]), "B", "{strategy:?}");
    }
}

// `from_expr` skips compile-time call validation; the machines catch what
// it would have.

#[test]
fn unknown_function_is_an_error() {
    let doc = parse_xml("<a/>").unwrap();
    for strategy in [CVT, EvalStrategy::Naive, SS] {
        assert!(matches!(
            plan("frobnicate(1)", strategy).run(&doc),
            Err(EvalError::UnknownFunction { .. })
        ));
    }
}

#[test]
fn variables_are_unbound_without_bindings() {
    let doc = parse_xml("<a/>").unwrap();
    for strategy in [CVT, EvalStrategy::Naive, SS] {
        let err = plan("$threshold", strategy).run(&doc).unwrap_err();
        assert!(
            matches!(&err, EvalError::UnboundVariable { name } if name == "threshold"),
            "{strategy:?}: {err:?}"
        );
    }
}

#[test]
fn union_of_scalar_is_type_error() {
    let doc = parse_xml("<a/>").unwrap();
    assert!(matches!(
        plan("1 | //a", CVT).run(&doc),
        Err(EvalError::TypeError { .. })
    ));
}

// -- context-value tables (Proposition 2.7) -----------------------------------

#[test]
fn table_keys_collapse_for_position_insensitive_subexpressions() {
    // The predicate `child::b` is position-insensitive: even though it is
    // evaluated in many different (node, pos, size) triples it is stored
    // per node only.  The position-sensitive variant stores full triples —
    // more entries, still polynomial.
    let doc = parse_xml("<r><a><b/></a><a><b/></a><a><b/></a><a/></r>").unwrap();
    let entries = |q| plan(q, CVT).run(&doc).unwrap().stats.table_entries;
    assert!(entries("//a[child::b and position() <= last()]") >= entries("//a[child::b]"));
}

#[test]
fn table_machine_is_polynomial_on_the_exponential_query_family() {
    // //a/b/parent::a/b/parent::a/... — the family on which naive engines
    // blow up (Section 1).  With set semantics each step touches at most
    // |D| context nodes, so the work grows by a constant per repetition.
    let k = 5u64;
    let doc = parse_xml("<a><b/><b/><b/><b/><b/></a>").unwrap();
    let work: Vec<u64> = (1..=6)
        .map(|reps| {
            let q = format!("//a{}", "/b/parent::a".repeat(reps));
            plan(&q, CVT)
                .run(&doc)
                .unwrap()
                .stats
                .step_context_evaluations
        })
        .collect();
    for w in work.windows(2) {
        assert!(w[1] - w[0] <= 2 * k + 4, "work not linear: {work:?}");
    }
}

// -- the table machine's routes, against the AST reference --------------------

const ROUTES: &str = r#"<r x="1"><a x="1" y="abc"><b x="2">t<c/></b><b/>u<a x="10"><b y="2"/><b x="1">t</b></a></a><a><b x="3"><a x="7"><b/></a></b><d/></a>v<e x="abc"><a y="1"><b x="2"/><b>t</b><b x="nan"/></a></e></r>"#;

/// Runs each query on the table machine, on the plain and on the prepared
/// document, and compares with the AST-level reference evaluator.  `route`
/// must occur in the plan's `explain()` text, so a case keeps testing the
/// route it was written for.
fn table_machine_agrees_with_reference(cases: &[(&str, &str)]) {
    let doc = parse_xml(ROUTES).unwrap();
    let prepared = PreparedDocument::new(doc.clone());
    for &(query, route) in cases {
        let expr = parse_query(query).unwrap();
        let expected = ReferenceEvaluator::new(&doc).evaluate(&expr).unwrap();
        let table = plan(query, CVT);
        let explained = table.explain();
        assert!(
            explained.contains(route),
            "{query}: no {route:?} in\n{explained}"
        );
        assert_eq!(table.run(&doc).unwrap().value, expected, "{query}");
        assert_eq!(
            table.run_prepared(&prepared).unwrap().value,
            expected,
            "{query} (prepared)"
        );
    }
}

#[test]
fn steps_that_read_positions_stay_per_context() {
    // On the transitive and sibling axes one candidate sits at different
    // positions in the lists of different context nodes.
    table_machine_agrees_with_reference(&[
        // Reverse axes count proximity positions backwards, per context.
        ("//b/ancestor::*[1]", "ancestor::*  per-context, pick 1"),
        ("//c/ancestor-or-self::node()[2]", "per-context, pick 2"),
        (
            "//b/preceding-sibling::b[last()]",
            "preceding-sibling::b  per-context, pick last()",
        ),
        ("//b/preceding::*[2]", "preceding::*  per-context"),
        ("//b/ancestor::*[position() = last() - 1]", "per candidate"),
        // Forward ones count from the context node.
        (
            "//d/following::b[position() = 1]",
            "following::b  per-context, pick 1",
        ),
        ("//a/descendant::b[2]", "descendant::b  per-context"),
        ("//a/descendant::b[c][last()]", "by sat, pick last()"),
        (
            "//b/following-sibling::node()[position() < last()]",
            "per-context",
        ),
        // `//` before a non-child step is walked as written.
        ("//ancestor::a[1]", "descendant-or-self::node()  set"),
    ]);
}

#[test]
fn one_hop_steps_that_read_positions_go_by_sibling_groups() {
    // On child and attribute each candidate is in its parent's list only,
    // on self and parent every list is one node: the candidates are taken
    // for the whole context set and positioned within their group.
    table_machine_agrees_with_reference(&[
        // Child picks; from one context node the prepared index answers.
        ("//a/b[2]", "child::b  siblings, pick 2"),
        ("//a/b[last()]/@x", "siblings, pick last()"),
        ("/r/a[2]/b[1]", "siblings, pick 1"),
        ("//a/b[position() < last()]", "siblings"),
        // Nested same-tag contexts: the groups interleave in document order.
        ("//a//a/b[1]", "siblings, pick 1"),
        ("//e//b[2]", "descendant-or-self::node()  folded"),
        // `//t[k]`: the descendants of the contexts, grouped by parent.
        ("//node()[last()]", "folded"),
        ("//text()[1]", "folded"),
        ("//*[1]", "folded"),
        ("//b[last()]/c", "child::b  siblings, pick last()"),
        // Attribute groups, by owner element.
        ("//a/@*[2]", "attribute::*  siblings, pick 2"),
        ("//a/@*[last()]", "siblings, pick last()"),
        ("//@*[1]", "siblings, pick 1"),
        // Every list one node long.
        ("//b/parent::*[1]", "parent::*  siblings, pick 1"),
        ("//b/parent::*[2]", "parent::*  siblings, pick 2"),
        ("//@x/parent::*[1]", "siblings"),
        ("//b/self::b[1]", "self::b  siblings"),
        ("//b/self::b[last()][position() = 1]", "siblings"),
        // Iterated predicates re-derive positions within each group.
        ("//a[b][2]", "by sat, pick 2"),
        ("//a/b[@x > 1][last()]", "in place, pick last()"),
        ("//a/b[1][@x]", "pick 1, filter attribute::x by column"),
        ("//a/b[not(c)][1]", "by sat, pick 1"),
        ("//a/b[2][1]", "pick 2, pick 1"),
        // Position tests that are not picks: per candidate, at the group
        // position.  A number predicate is a position test whatever it is
        // made of.
        ("//a/b[position() = last() - 1]", "per candidate"),
        ("//a/*[position() mod 2 = 1]", "per candidate"),
        ("//a/b[count(../b) - 1]", "per candidate"),
        ("//a/b[count(c) + 1]", "per candidate"),
        ("//a/@*[position() = last()]", "pick last()"),
        // Empty context sets stay empty.
        ("//nosuch/b[1]", "siblings"),
        ("//nosuch//b[1]", "folded"),
        ("/r/nosuch/@*[last()]", "siblings"),
        ("count(//nosuch/parent::*[1])", "siblings"),
    ]);
}

#[test]
fn numbers_hidden_behind_variables_and_functions_are_position_tests() {
    use xpeval_core::{Bindings, FunctionRegistry, FunctionSignature};
    let doc = parse_xml(ROUTES).unwrap();
    let prepared = PreparedDocument::new(doc.clone());
    let mut registry = FunctionRegistry::new();
    // Declared as a string, returns a number: only the run knows.
    registry.register(FunctionSignature::new("second", 0, Some(0)), |_, _, _| {
        Ok(Value::Number(2.0))
    });
    let options = CompileOptions {
        strategy: Some(CVT),
        normalize: false,
        registry: std::sync::Arc::new(registry),
    };
    let bindings = Bindings::new().with_number("k", 2.0);
    for (hidden, spelled_out, route) in [
        ("//a/b[$k]", "//a/b[2]", "siblings"),
        ("//b[$k]", "//b[2]", "folded"),
        ("//a/@*[$k]", "//a/@*[2]", "siblings"),
        (
            "//a/descendant::b[$k]",
            "//a/descendant::b[2]",
            "per-context",
        ),
        ("//b/ancestor::*[$k]", "//b/ancestor::*[2]", "per-context"),
        ("//a/b[second()]", "//a/b[2]", "siblings"),
        ("//b/parent::*[second()]", "//b/parent::*[2]", "siblings"),
        (
            "//b/preceding::b[second()]",
            "//b/preceding::b[2]",
            "per-context",
        ),
    ] {
        let expected = ReferenceEvaluator::new(&doc)
            .evaluate(&parse_query(spelled_out).unwrap())
            .unwrap();
        let table = CompiledQuery::compile_with(hidden, &options).unwrap();
        let explained = table.explain();
        assert!(explained.contains(route), "{hidden}: {explained}");
        assert_eq!(
            table.run_bound(&doc, &bindings).unwrap().value,
            expected,
            "{hidden}"
        );
        assert_eq!(
            table
                .run_prepared_bound(&prepared, &bindings)
                .unwrap()
                .value,
            expected,
            "{hidden} (prepared)"
        );
    }
}

#[test]
fn position_free_steps_take_the_whole_context_set() {
    table_machine_agrees_with_reference(&[
        // Nested contexts: the candidates are deduplicated before the
        // predicate runs.
        ("//a//a/b", "child::b  set"),
        ("//a//a/b[@x = '1']", "in place"),
        ("//a//b[c or text()]", "by sat"),
        ("//a/descendant::b[count(c) > 0]", "by column"),
        ("count(//a/descendant::b[count(c) > 0])", "by column"),
        ("//a/descendant::node()", "descendant::node()  set"),
        ("//a/descendant-or-self::node()[self::b]", "set"),
        // Attribute context nodes see what their owner element sees.
        ("//@x/following::b", "following::b  set"),
        ("//@y/following::*[@x != '']", "in place"),
        ("//@x/preceding::b", "preceding::b  set"),
        ("//@x/preceding::node()", "preceding::node()  set"),
        ("//@x/ancestor::*", "ancestor::*  set"),
        ("//@x/ancestor-or-self::node()", "set"),
        ("//@x/descendant-or-self::node()", "set"),
        ("//@x/following-sibling::node()", "set"),
        ("//@x/parent::*[b]/@y", "by sat"),
        ("//@x/self::node()", "set"),
        ("//@x/self::*", "set"),
        // The other transitive axes, text and element contexts alike.
        ("//b/following::a[b]", "by sat"),
        ("//b/preceding::*[@x > 1]", "in place"),
        ("//text()/following::*", "following::*  set"),
        ("//text()/preceding::node()", "set"),
        ("//b/ancestor::*[@x]", "by column"),
        ("//c/ancestor-or-self::node()", "set"),
        ("//b/following-sibling::node()[text() = 't']", "in place"),
        ("//b/preceding-sibling::node()", "set"),
        ("//a//b/parent::*[@x]/@x", "parent::*  set"),
        ("//*/self::a[b]", "self::a  set"),
        // Empty context sets stay empty, whatever the axis.
        ("//nosuch/following::b[@x]", "set"),
        ("//nosuch//b[c]", "set"),
        ("/r/nosuch/a/b[c]/preceding::*", "set"),
        ("count(//nosuch/ancestor::*[b])", "set"),
    ]);
}

#[test]
fn set_steps_run_from_any_single_context_node() {
    // One context node keeps the source's own enumeration, attribute and
    // text nodes included.
    let doc = parse_xml(ROUTES).unwrap();
    let prepared = PreparedDocument::new(doc.clone());
    let contexts: Vec<NodeId> = doc.all_nodes().collect();
    for query in [
        "following::b[@x]",
        "preceding::*[b]",
        "ancestor::*[@x = '1']",
        "descendant-or-self::node()/b",
        "../b[text()]",
    ] {
        let expr = parse_query(query).unwrap();
        let table = plan(query, CVT);
        for &node in &contexts {
            let ctx = Context::new(node, 1, 1);
            let expected = ReferenceEvaluator::new(&doc)
                .evaluate_with_context(&expr, ctx)
                .unwrap();
            assert_eq!(
                table.run_with_context(&doc, ctx).unwrap().value,
                expected,
                "{query} from {node:?}"
            );
            assert_eq!(
                table
                    .run_prepared_with_context(&prepared, ctx)
                    .unwrap()
                    .value,
                expected,
                "{query} from {node:?} (prepared)"
            );
        }
    }
}

#[test]
fn core_conditions_are_answered_by_satisfaction_sets() {
    table_machine_agrees_with_reference(&[
        ("//a[b]/@x", "filter child::b by sat"),
        ("//a[not(b) or d]", "by sat"),
        ("//a[b/c and not(descendant::d)]/b", "by sat"),
        ("//b[parent::a/parent::a]", "by sat"),
        ("//b[ancestor::a[d]]", "by sat"),
        ("//a[/r/e]", "by sat"),
        ("//a[/r/nosuch]", "by sat"),
        ("//a[b | d]", "by sat"),
        ("//a[following::d or preceding::d]", "by sat"),
        ("count(//a[b[c]])", "by sat"),
        // Attribute candidates: they have a parent, ancestors and their
        // owner's following/preceding nodes, but are nobody's descendants.
        ("//@x[parent::a]", "by sat"),
        ("//@x[../b]", "by sat"),
        ("//@x[ancestor::a]", "by sat"),
        ("//@x[ancestor-or-self::node()/parent::e]", "by sat"),
        ("//@x[following::b]", "by sat"),
        ("//@x[preceding::b and not(following::d)]", "by sat"),
        ("//@*[not(parent::a)]", "by sat"),
        ("//@y/self::node()[parent::a/b]", "by sat"),
        ("//*[descendant-or-self::node()/parent::b]", "by sat"),
        ("//*[child::node()]", "by sat"),
        ("//b[not(node())]", "by sat"),
        // Set operators are Core XPath as a node set, not as a condition —
        // at the top of a predicate or under a union.
        ("//a[b intersect b[c]]", "per candidate"),
        ("//a[b except b[c]]", "per candidate"),
        ("//a[b intersect b[c] | d]", "per candidate"),
        ("//a[(b except b[c]) | d]", "per candidate"),
        ("//a[d or (b[c] | (b intersect b))]", "per candidate"),
        ("//a[b[(c except d) | a]]", "per candidate"),
        ("//a[@x and b]", "by column"),
    ]);
}

#[test]
fn paths_compared_with_constants_are_answered_by_satisfaction_sets() {
    // Existential over the path's nodes (XPath 1.0 §3.4): the nodes whose
    // string passes, pulled back through the path.
    table_machine_agrees_with_reference(&[
        (
            "//a[b/@x = '2']",
            "filter (child::b/attribute::x = '2') by sat",
        ),
        ("//a[b/@x = 2]", "by sat"),
        ("//a[b/@x != 2]", "by sat"),
        ("//a[b/@x > 1]", "by sat"),
        ("//a[b/@x <= 'abc']", "by sat"),
        ("//a[2 < b/@x]", "by sat"),
        ("//a['1' = b/@x]", "by sat"),
        ("//a[b/@x = 'nan']", "by sat"),
        ("//a[b/@nosuch = '']", "by sat"),
        ("//a[b/@nosuch != '']", "by sat"),
        // Element and text strings.
        ("//a[b = 't']", "by sat"),
        ("//a[b != 't']", "by sat"),
        ("//*[node() = 'u']", "by sat"),
        ("//*[b/text() = 't']", "by sat"),
        ("//e[a = 't']", "by sat"),
        // Any axis, nested Core conditions, attribute candidates.
        ("//a[descendant::b/@x >= 3]", "by sat"),
        ("//b[ancestor::a/@x = 1]", "by sat"),
        ("//b[../@y = 'abc']", "by sat"),
        ("//a[b[c]/@x = 2]", "by sat"),
        ("//a[following::b/@x = 'nan']", "by sat"),
        ("//@x[. = '1']", "by sat"),
        ("//@x[../@y = 'abc']", "by sat"),
        ("//@*[parent::b/parent::a/@x > 5]", "by sat"),
        ("count(//a[b/@x > 1])", "by sat"),
        // Absolute paths hold at every node or at none.
        ("//b[/r/@x = 1]", "by sat"),
        ("//b[/r/@x = 2]", "by sat"),
        ("//b[/ != '']", "by sat"),
        // Not a path against a constant.
        ("//a[b/@x = @y]", "per candidate"),
        ("//a[count(b) = 2]", "by column"),
        ("//a[b[1]/@x = 2]", "per candidate"),
    ]);
}

#[test]
fn core_conditions_hold_at_attribute_and_text_context_nodes() {
    // `sat` on both machines that use it, from every single context node.
    let doc = parse_xml(ROUTES).unwrap();
    let prepared = PreparedDocument::new(doc.clone());
    for query in [
        "self::node()[parent::a]",
        "self::node()[ancestor::a[b]]",
        "self::node()[ancestor-or-self::node()/parent::e]",
        "self::node()[following::b or preceding::d]",
        "self::node()[not(descendant-or-self::node()/parent::a)]",
        "self::node()[node()]",
        "ancestor::*[not(parent::a)]",
    ] {
        let expr = parse_query(query).unwrap();
        for node in doc.all_nodes() {
            let ctx = Context::new(node, 1, 1);
            let expected = ReferenceEvaluator::new(&doc)
                .evaluate_with_context(&expr, ctx)
                .unwrap();
            for strategy in [LINEAR, CVT] {
                let machine = plan(query, strategy);
                assert_eq!(
                    machine.run_with_context(&doc, ctx).unwrap().value,
                    expected,
                    "{query} from {node:?} under {strategy:?}"
                );
                assert_eq!(
                    machine
                        .run_prepared_with_context(&prepared, ctx)
                        .unwrap()
                        .value,
                    expected,
                    "{query} from {node:?} under {strategy:?} (prepared)"
                );
            }
        }
    }
}

#[test]
fn attribute_and_text_tests_compare_in_place() {
    table_machine_agrees_with_reference(&[
        ("//a[@x = '1']", "filter @x = '1' in place"),
        ("//*[@x = 1]", "filter @x = 1 in place"),
        ("//*[@x != 1]", "in place"),
        ("//*[@x != 'abc']", "in place"),
        ("//*[@x > 'abc']", "in place"),
        ("//*[@x <= 'abc']", "in place"),
        ("//*[@x >= 2]", "in place"),
        ("//*[@x < 5]", "in place"),
        ("//*['2' < @x]", "filter @x > '2' in place"),
        ("//*[3 >= @x]", "filter @x <= 3 in place"),
        ("//*[@x = 'nan']", "in place"),
        ("//*[@nosuch = '']", "in place"),
        ("//*[@nosuch != '']", "in place"),
        ("//b[text() = 't']", "filter text() = 't' in place"),
        ("//*[text() != 't']", "in place"),
        ("//*[text() > 0]", "in place"),
        (
            "//a[starts-with(@y, 'ab')]",
            "filter starts-with(@y, 'ab') in place",
        ),
        ("//*[starts-with(@y, '')]", "in place"),
        ("//*[starts-with(text(), 't')]", "in place"),
        ("count(//*[@x = '1' or @y])", "by column"),
        // Not unary tests on the candidate's own strings: a path or a
        // wildcard against a constant goes by `sat`.
        ("//a[b/@x = '2']", "by sat"),
        ("//a[@x = @y]", "per candidate"),
        ("//a[@* = '1']", "by sat"),
    ]);
    // A comparison with a missing attribute is false under every operator,
    // `!=` included; a string that is not a number compares as NaN.
    assert_eq!(
        names(ROUTES, "//*[@x != 'abc']"),
        ["r", "a", "b", "a", "b", "b", "a", "b", "b"]
    );
    assert!(names(ROUTES, "//*[@x > 'abc']").is_empty());
    assert_eq!(names(ROUTES, "//*[@x != 5]").len(), 10);
    assert_eq!(names(ROUTES, "//*[@x < 5]").len(), 6);
}

#[test]
fn column_predicates_agree_with_the_reference() {
    // One evaluation for all candidates, column by column: every function
    // of the grammar over empty, multi-node, attribute and text arguments.
    table_machine_agrees_with_reference(&[
        // Paths counted, summed, tested, and read as strings and numbers.
        (
            "//a[count(b) > 1]",
            "filter (count(child::b) > 1) by column",
        ),
        ("//a[count(b) = 0]", "by column"),
        ("//*[count(@*) = 2]", "by column"),
        ("//a[@x]", "filter attribute::x by column"),
        ("//*[not(@x)]", "by column"),
        ("//a[b/@x = true()]", "by column"),
        ("//a[b/@x = false()]", "by column"),
        ("//a[true() != b/@y]", "by column"),
        ("//a[count(b[c]) = 1]", "by column"),
        ("//a[count(b[@x = '2']) > 0]", "by column"),
        ("//a[sum(b/@x) > 2]", "by column"),
        ("//a[sum(b/@x) != sum(b/@x)]", "by column"),
        ("//a[sum(b/@x) = 0]", "by column"),
        ("//a[sum(nosuch) = 0]", "by column"),
        ("//*[number(@x) >= 2]", "by column"),
        ("//b[number() = number()]", "by column"),
        ("//*[string(@x) = '']", "by column"),
        ("//*[string() = 't']", "by column"),
        ("//a[b > count(@*)]", "by column"),
        ("//a[@x < count(b)]", "by column"),
        // Nested contexts, and steps whose images overlap or repeat.
        ("//a[count(.//b) = 2]", "by column"),
        ("//a[count(.//b/..) = 2]", "by column"),
        ("//a[count(descendant::b/ancestor::a) > 1]", "by column"),
        ("//b[count(ancestor::a) = 2]", "by column"),
        ("//a[count(*/text()) > 1]", "by column"),
        ("//@x[count(../@*) = 2]", "by column"),
        ("//text()[count(following::b) < 3]", "by column"),
        // String functions.
        ("//a[contains(b, 't')]", "by column"),
        ("//*[contains(., 'tu')]", "by column"),
        ("//a[contains(@y, '')]", "by column"),
        ("//a[contains(@nosuch, 'x')]", "by column"),
        ("//a[starts-with(b, 't')]", "by column"),
        ("//a[string-length(@y) = 3]", "by column"),
        ("//*[string-length() > 2]", "by column"),
        ("//a[normalize-space(.) != '']", "by column"),
        ("//*[normalize-space() = 't']", "by column"),
        ("//a[substring-before(@y, 'c') = 'ab']", "by column"),
        ("//a[substring-after(@y, 'a') = 'bc']", "by column"),
        ("//*[substring-after(@x, 'z') = '']", "by column"),
        ("//*[substring(@y, 2) = 'bc']", "by column"),
        ("//*[substring(@y, 1.5, 1) = 'b']", "by column"),
        ("//*[substring(., 0 div 0) = '']", "by column"),
        ("//*[substring(., 2, 1) = 'u']", "by column"),
        ("//a[translate(@y, 'abc', 'ABC') = 'ABC']", "by column"),
        ("//a[translate(@y, 'ab', 'A') = 'Ac']", "by column"),
        ("//a[concat(@x, @y) = '1abc']", "by column"),
        ("//*[concat(@x, '-', count(b)) = '1-2']", "by column"),
        // Numbers, booleans and operators.
        ("//*[floor(@x div 3) = 0]", "by column"),
        ("//*[ceiling(@x div 3) = 1]", "by column"),
        ("//*[round(@x div 4) = 1]", "by column"),
        ("//*[-@x < -1]", "by column"),
        ("//*[@x * 2 = count(@*) + 1]", "by column"),
        ("//*[@x mod 2 = 1 and count(b) > 0]", "by column"),
        ("//*[@x = '1' or @y]", "by column"),
        ("//a[boolean(b/c) or not(d) and string(@y)]", "by column"),
        ("//*[true() and not(false())]", "by column"),
        // Beside picks in a sibling-group step, either side.
        ("//a/b[count(c) = 0][2]", "by column, pick 2"),
        ("//a/b[1][string-length(@x) = 1]", "pick 1, filter"),
        ("//a/b[last()][not(@x)]", "by column"),
        ("count(//a[count(b) > 1])", "by column"),
        // Left per candidate: positions, joins, absolute paths, unions,
        // picks and column predicates inside a path.
        ("//a[count(b) = position()]", "per candidate"),
        ("//a[b/@x = @y]", "per candidate"),
        ("//a[b[2] = 't']", "per candidate"),
        ("//a[count(/r/a) > 1]", "per candidate"),
        ("//a[count(b | d) > 1]", "per candidate"),
        ("//a[count(b[@x]) = 1]", "per candidate"),
        ("//*[name() = 'a']", "per candidate"),
    ]);
}

#[test]
fn variables_and_registered_functions_keep_column_predicates_per_candidate() {
    use xpeval_core::{Bindings, FunctionRegistry, FunctionSignature};
    let doc = parse_xml(ROUTES).unwrap();
    let prepared = PreparedDocument::new(doc.clone());
    let mut registry = FunctionRegistry::new();
    registry.register(FunctionSignature::new("two", 0, Some(0)), |_, _, _| {
        Ok(Value::Number(2.0))
    });
    let options = CompileOptions {
        strategy: Some(CVT),
        normalize: false,
        registry: std::sync::Arc::new(registry),
    };
    let bindings = Bindings::new().with_number("k", 2.0);
    for (query, spelled_out) in [
        ("//a[count(b) = $k]", "//a[count(b) = 2]"),
        ("//a[count(b) = two()]", "//a[count(b) = 2]"),
    ] {
        let expected = ReferenceEvaluator::new(&doc)
            .evaluate(&parse_query(spelled_out).unwrap())
            .unwrap();
        let table = CompiledQuery::compile_with(query, &options).unwrap();
        assert!(table.explain().contains("per candidate"), "{query}");
        assert_eq!(
            table.run_bound(&doc, &bindings).unwrap().value,
            expected,
            "{query}"
        );
        assert_eq!(
            table
                .run_prepared_bound(&prepared, &bindings)
                .unwrap()
                .value,
            expected,
            "{query} (prepared)"
        );
    }
}

#[test]
fn node_set_bindings_are_read_in_document_order() {
    // `string($v)` is the string of the first node in document order
    // (XPath 1.0 §4.2), however the caller listed the nodes.
    use xpeval_core::Bindings;
    let doc = parse_xml("<r><a>1</a><a>2</a></r>").unwrap();
    let prepared = PreparedDocument::new(doc.clone());
    let (first, second) = (nth_named(&doc, "a", 0), nth_named(&doc, "a", 1));
    for listed in [vec![second, first], vec![second, first, second]] {
        let bindings = Bindings::new().with("v", Value::NodeSet(listed));
        for (query, expected) in [
            ("string($v)", Value::Str("1".into())),
            ("number($v)", Value::Number(1.0)),
            ("string-length($v)", Value::Number(1.0)),
            ("$v", Value::NodeSet(vec![first, second])),
            ("count($v)", Value::Number(2.0)),
        ] {
            let mut admitted = 0;
            for strategy in ALL {
                let machine = plan(query, strategy);
                let runs = [
                    machine.run_bound(&doc, &bindings),
                    machine.run_prepared_bound(&prepared, &bindings),
                ];
                for run in runs {
                    match run {
                        Ok(out) => {
                            assert_eq!(out.value, expected, "{query} via {strategy:?}");
                            admitted += 1;
                        }
                        Err(EvalError::UnsupportedFragment { .. }) => {}
                        Err(other) => panic!("{query} via {strategy:?}: {other:?}"),
                    }
                }
            }
            assert!(admitted >= 4, "{query}: admitted {admitted} times");
        }
    }
}

#[test]
fn constants_have_no_table_and_sat_predicates_no_entries() {
    let doc = parse_xml(ROUTES).unwrap();
    let entries = |q| plan(q, CVT).run(&doc).unwrap().stats.table_entries;
    // One entry: the path itself.  The predicate is one `sat` set.
    assert_eq!(entries("//a[b and not(d)]"), 1);
    assert_eq!(entries("//a[@x = '1']"), 1);
    // `1 + 2`: the sum is tabulated, its operands are not.
    assert_eq!(entries("1 + 2"), 1);
    // By column: one evaluation for all the `a`s, and no entry.
    assert_eq!(entries("//a[count(b) > 1]"), 1);
}

#[test]
fn sat_sets_wait_for_enough_candidates() {
    // 3,002 nodes: the two candidates of a lookup are asked directly (a
    // table entry per candidate and predicate opcode), 1,200 candidates get
    // the set (no entry), and so do the 600 picks of a sibling-group step.
    // One-candidate calls of a per-context step add up to the set on the
    // way — the third one tips it.
    let xml = format!("<r>{}</r>", "<a><b/><c/><b/><d/></a>".repeat(600));
    let doc = parse_xml(&xml).unwrap();
    let prepared = PreparedDocument::new(doc.clone());
    for (query, entries) in [
        ("/r/a[2]/b[following-sibling::c]", 1 + 2),
        ("/r/a[2]/b[not(following-sibling::c)]", 1 + 2 * 2),
        ("/r/nosuch/b[following-sibling::c]", 1),
        ("//a/b[following-sibling::c]", 1),
        ("/r/a/b[1][following-sibling::c]", 1),
        ("/r/a/b[2][following-sibling::c]", 1),
        ("/r/a/following-sibling::a[1][following::c]", 1 + 2),
        // A comparison asked directly tabulates its path too.
        ("/r/a[2]/b[following-sibling::c = '']", 1 + 2 * 2),
        ("//a/b[following-sibling::c = '']", 1),
    ] {
        let table = plan(query, CVT);
        assert!(table.explain().contains("by sat"), "{query}");
        let expected = ReferenceEvaluator::new(&doc)
            .evaluate(&parse_query(query).unwrap())
            .unwrap();
        let outcome = table.run(&doc).unwrap();
        assert_eq!(outcome.value, expected, "{query}");
        assert_eq!(outcome.stats.table_entries, entries, "{query}");
        assert_eq!(
            table.run_prepared(&prepared).unwrap().value,
            expected,
            "{query} (prepared)"
        );
    }
}

#[test]
fn linear_machine_keeps_attributes_out_of_descendant_images() {
    // `descendant::node()` never selects attribute nodes, although they
    // have a parent in the tree.
    for q in ["/descendant::node()", "//a/descendant-or-self::node()"] {
        let value = admitted(ROUTES, q, LINEAR);
        let doc = parse_xml(ROUTES).unwrap();
        assert!(value
            .expect_nodes()
            .iter()
            .all(|&n| !doc.kind(n).is_attribute()));
    }
}

// -- the linear Core XPath machine (Proposition 2.7) --------------------------

#[test]
fn linear_machine_admits_core_xpath() {
    for q in [
        "/descendant::a/child::b",
        "/descendant::a/child::b[descendant::c]",
        "/descendant::a/child::b[descendant::c and not(following-sibling::d)]",
        "//a[not(child::d)]",
        "//b[parent::a and not(descendant::c)]",
        "//a/ancestor-or-self::*",
        "//c/preceding::b",
        "//b/following::d",
        "//b/following-sibling::*",
        "//d/preceding-sibling::b",
        "//a[child::b or child::d]/child::b",
        "/r/e/a | //d",
        "//*[not(descendant::c) and not(self::c)]",
        "//a[not(not(child::b))]",
    ] {
        admitted(TREE, q, LINEAR);
    }
}

#[test]
fn linear_machine_on_a_deeper_document() {
    let xml = "<x><y><z><x><y/></x></z></y><z><x/></z></x>";
    for q in [
        "//x[ancestor::z]",
        "//y[not(ancestor::y)]",
        "//z[descendant::y or parent::x]",
        "/x/z/x",
        "//x[following::z]",
        "//z[preceding::y]",
    ] {
        admitted(xml, q, LINEAR);
    }
}

#[test]
fn absolute_paths_in_conditions() {
    admitted(TREE, "//a[/descendant::c]", LINEAR);
    admitted(TREE, "//a[not(/descendant::nosuch)]", LINEAR);
}

#[test]
fn set_operators_run_on_bitsets() {
    for q in [
        "//b intersect //a/b",
        "//b except //a/b",
        "//b[child::c] intersect //a/b",
        "(//b | //d) except //a[child::d]/b",
        "//c except //nosuch",
        "//nosuch intersect //b",
    ] {
        admitted(TREE, q, LINEAR);
    }
}

#[test]
fn satisfaction_sets_match_their_definition() {
    // [[child::b]] is the set of nodes with at least one b child; the
    // document has no attributes, so descendant-or-self::node() from the
    // root ranges over every node.
    let doc = parse_xml(TREE).unwrap();
    let sat = |cond: &str| {
        let q = format!("/descendant-or-self::node()[{cond}]");
        let value = plan(&q, LINEAR).run(&doc).unwrap().value;
        value.into_nodes().unwrap()
    };
    let expected: Vec<NodeId> = doc
        .all_nodes()
        .filter(|&n| doc.count_children_named(n, "b") > 0)
        .collect();
    assert_eq!(sat("child::b"), expected);
    // Negation is the complement.
    assert_eq!(sat("not(child::b)").len(), doc.len() - expected.len());
    // An absolute condition holds at every node or at none.
    assert_eq!(sat("/descendant::c").len(), doc.len());
    assert!(sat("/descendant::nosuch").is_empty());
}

#[test]
fn linear_machine_rejects_non_core_queries() {
    let doc = parse_xml(TREE).unwrap();
    for q in [
        "//a[position() = 2]",
        "count(//a)",
        "//a[@id = 1]",
        "//a[1]",
    ] {
        assert!(
            matches!(
                plan(q, LINEAR).run(&doc),
                Err(EvalError::UnsupportedFragment { .. })
            ),
            "{q} should be rejected"
        );
    }
}

#[test]
fn linear_machine_runs_from_inner_context_nodes() {
    let doc = parse_xml(TREE).unwrap();
    let q = plan("child::b", LINEAR);
    let contexts: Vec<Context> = (0..3)
        .map(|n| Context::new(nth_named(&doc, "a", n), 1, 1))
        .collect();
    let sizes: Vec<usize> = q
        .run_many(&doc, &contexts)
        .unwrap()
        .iter()
        .map(|o| o.value.expect_nodes().len())
        .collect();
    assert_eq!(sizes, [2, 2, 1]);
}

#[test]
fn linear_work_is_per_step_not_per_node() {
    // Chains of growing size under a fixed query: the answer scales with
    // the document, the machine's step count does not (each step is one
    // image over all contexts at once).
    let q = plan("//a[child::b and not(child::c)]", LINEAR);
    let mut steps = Vec::new();
    for n in [10usize, 100, 1000] {
        // Deep chains are built with the (iterative) builder; the recursive
        // XML parser is only meant for modestly nested inputs.
        let mut b = DocumentBuilder::new();
        b.open_element("r");
        for _ in 0..n {
            b.open_element("a");
            b.leaf_element("b");
        }
        b.leaf_element("c");
        let doc = b.finish();
        let out = q.run(&doc).unwrap();
        assert_eq!(out.value.expect_nodes().len(), n - 1);
        steps.push(out.stats.step_context_evaluations);
    }
    assert!(steps.windows(2).all(|w| w[0] == w[1]), "{steps:?}");
}

// -- Singleton-Success (Definition 5.3, Lemma 5.4, Table 1) -------------------

/// `decide` agrees with the materialized answer: for node sets on every
/// document node, for scalars on the value and on a near miss.
fn decide_agrees(xml: &str, query: &str) {
    let doc = parse_xml(xml).unwrap();
    let ctx = Context::root(&doc);
    let q = plan(query, SS);
    let decide = |target| q.decide(&doc, ctx, &target).unwrap();
    match admitted(xml, query, SS) {
        Value::NodeSet(expected) => {
            for v in doc.all_nodes() {
                assert_eq!(
                    decide(SuccessTarget::Node(v)),
                    expected.contains(&v),
                    "membership of {v:?} in {query}"
                );
            }
        }
        Value::Boolean(b) => assert_eq!(decide(SuccessTarget::True), b, "{query}"),
        Value::Number(n) => {
            assert!(decide(SuccessTarget::Number(n)), "{query}");
            assert!(!decide(SuccessTarget::Number(n + 1.0)), "{query}");
        }
        Value::Str(s) => {
            assert!(decide(SuccessTarget::Str(s.clone())), "{query}");
            assert!(!decide(SuccessTarget::Str(format!("{s}x"))), "{query}");
        }
    }
}

#[test]
fn location_path_rows_decide_like_the_materialized_answer() {
    for q in [
        "/lib/book/title",
        "//book[@year = 2003]/title",
        "//book[position() = 2]",
        "//book[position() + 1 = last()]",
        "//book[child::cite]/title",
        "//title | //cite",
        "//book[2]",
        "/lib/*[last()]",
    ] {
        decide_agrees(BOOKS, q);
    }
}

#[test]
fn scalar_rows_decide_like_the_materialized_answer() {
    for q in [
        "1 + 2 * 3",
        "position() = 1",
        "concat('a', 'b')",
        "contains('hello', 'ell')",
        "floor(2.5) + ceiling(0.5)",
        "boolean(//cite)",
        "boolean(//nosuch)",
    ] {
        decide_agrees(BOOKS, q);
    }
}

#[test]
fn nodeset_comparisons_are_existential() {
    decide_agrees(BOOKS, "//book[@year = //paper/@year]");
    decide_agrees(BOOKS, "//book[@year < 2002]");
    decide_agrees(BOOKS, "//book[title = 'B']");
}

#[test]
fn set_operator_and_node_comparison_rows() {
    for q in [
        "//title intersect //book/title",
        "//title except //book/title",
        "(//title | //cite) except //paper/title",
        "//book intersect //paper",
        "//book[child::cite] intersect //book[@year = 2003]",
        "//book is //book",
        "//cite << //paper",
        "//paper >> //cite",
        "//nosuch is //book",
    ] {
        decide_agrees(BOOKS, q);
    }
}

#[test]
fn bounded_negation_extension() {
    // Theorems 5.9 / 6.3: negation is decided by a loop over the document.
    for q in [
        "//book[not(child::cite)]",
        "//book[not(child::cite) and @year = 2003]",
        "//*[not(parent::lib) and not(child::*)]",
        "not(//nosuch)",
        "//book[not(not(child::cite))]",
    ] {
        decide_agrees(BOOKS, q);
    }
}

#[test]
fn decide_respects_the_context_triple() {
    let doc = parse_xml(BOOKS).unwrap();
    let q = plan("position() = 2", SS);
    let at = |position| Context::new(doc.root(), position, 3);
    assert!(!q.decide(&doc, at(1), &SuccessTarget::True).unwrap());
    assert!(q.decide(&doc, at(2), &SuccessTarget::True).unwrap());
}

#[test]
fn singleton_success_rejects_constructs_outside_pxpath() {
    let doc = parse_xml(BOOKS).unwrap();
    for q in [
        "//book[child::cite][position() = 1]", // iterated predicates
        "count(//book)",                       // forbidden function
        "//book[string(title) = 'A']",         // forbidden function
        "//book[(child::cite and child::title) = true()]", // boolean relop operand
        "sum(//book/@year)",
    ] {
        for strategy in [SS, EvalStrategy::Parallel { threads: 2 }] {
            assert!(
                matches!(
                    plan(q, strategy).run(&doc),
                    Err(EvalError::UnsupportedFragment { .. })
                ),
                "{q} should be rejected by {strategy:?}"
            );
        }
        let target = SuccessTarget::Node(doc.root());
        assert!(plan(q, CVT)
            .decide(&doc, Context::root(&doc), &target)
            .is_err());
    }
}

// -- the parallel loop (Theorem 5.5, Remark 5.6) ------------------------------

#[test]
fn parallel_equals_sequential_across_thread_counts() {
    for threads in [1, 2, 4] {
        for q in [
            "/lib/book/title",
            "//book[@year = 2003]/title",
            "//book[position() + 1 = last()]",
            "//book[not(child::cite)]",
            "//title | //cite",
        ] {
            admitted(BOOKS, q, EvalStrategy::Parallel { threads });
        }
    }
}

#[test]
fn zero_threads_means_sequential() {
    admitted(
        BOOKS,
        "//book[position() = last()]",
        EvalStrategy::Parallel { threads: 0 },
    );
}

#[test]
fn parallel_plan_decides_scalar_queries_on_the_calling_thread() {
    for q in ["boolean(//cite)", "concat('x', 'y')", "2 * 3 + 1"] {
        admitted(BOOKS, q, EvalStrategy::Parallel { threads: 4 });
    }
}

#[test]
fn parallel_equals_sequential_on_a_larger_document() {
    let mut xml = String::from("<r>");
    for i in 0..200 {
        xml.push_str(&format!("<item idx=\"{i}\"><sub/>{}</item>", i % 7));
    }
    xml.push_str("</r>");
    let q = "//item[child::sub and position() < 100]";
    let value = admitted(&xml, q, EvalStrategy::Parallel { threads: 4 });
    assert_eq!(value.expect_nodes().len(), 99);
}
