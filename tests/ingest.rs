//! XML ingest: `parse_xml` and `LazyDocument::new` run one scanner with two
//! sinks, so they must accept and reject the same inputs and agree on the
//! node count.  Also pins what the scanner promises on its own: UTF-8 text
//! passes through unchanged, deep nesting costs no call stack, and the
//! allocations per node stay bounded.
//!
//! CI also runs this target on a 256 KiB thread stack
//! (`RUST_MIN_STACK=262144 cargo test --test ingest`), so recursion that
//! creeps back into ingest fails well before the 100k-deep test's depth.

mod counting_alloc;

use counting_alloc::allocations_now;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xpeval::backends::LazyDocument;
use xpeval::dom::{parse_xml, serialize, Document, DocumentBuilder, NodeKind};
use xpeval::workloads::auction_site_document;

/// Parses `xml` with both sinks (the lazy one at a small and at the default
/// extent threshold) and checks that they agree: the same verdict, the same
/// error, and `total_nodes()` equal to the eager node count.
fn assert_sinks_agree(xml: &str) {
    let eager = parse_xml(xml);
    for lazy in [
        LazyDocument::with_threshold(xml, 16),
        LazyDocument::new(xml),
    ] {
        match (&eager, lazy) {
            (Ok(doc), Ok(lazy)) => {
                assert_eq!(lazy.total_nodes(), doc.len(), "node count of {xml:?}");
                let all = lazy.materialize_all().unwrap();
                assert_eq!(all.node_count(), doc.len(), "full wave of {xml:?}");
            }
            (Err(e), Err(l)) => assert_eq!(e, &l, "error on {xml:?}"),
            (e, l) => panic!("split verdict on {xml:?}: eager {e:?}, lazy {:?}", l.err()),
        }
    }
}

#[test]
fn both_sinks_accept_and_reject_the_same_corpus() {
    let corpus = [
        // Well-formed.
        "<a/>",
        "<a></a>",
        "<a x=\"1\" y='2'><b z = \"q'uote\" w='d\"q'/></a>",
        "<?xml version=\"1.0\"?>\n<!-- c --><?pi x?>\r\n<a>\t<b/>\r\n</a>\n<!-- tail -->",
        "<a>&lt;&gt;&amp;&quot;&apos;<b k='&amp;&lt;'/>&bogus; &</a>",
        "<a>x<!-- split -->y<?pi?>z</a>",
        "<a>\u{e9}<b k='\u{4e2d}\u{1d11e}'>\u{20ac}</b></a>",
        "<a>\u{a0}</a>",
        "<a>\u{3000}<b/>\u{a0}\u{a0}</a>",
        "<a> \t\r\n </a>",
        "<a-b.c:d_e f:g='1'/>",
        "<a\n k\t=\n'v'\n></a >",
        // Mismatched and unclosed tags, trailing content.
        "<a><b></a></b>",
        "<a><b>",
        "<a>text",
        "<a",
        "<a k='1'",
        "<a/><b/>",
        "<a/>text",
        "</a>",
        "",
        "   ",
        // Unterminated comment, PI, attribute value and XML declaration.
        "<a><!-- open</a>",
        "<a/><!-- open",
        "<!-- open",
        "<a><?pi</a>",
        "<a/><?pi",
        "<a k='open/>",
        "<a k=\"open'/>",
        "<?xml version='1.0'",
        // Other malformed shapes.
        "<a k=v/>",
        "<a k/>",
        "<a k='1' k2>",
        "<\u{e9}/>",
        "<!DOCTYPE a><a/>",
        "<a></ a>",
    ];
    for xml in corpus {
        assert_sinks_agree(xml);
    }
}

/// A random tree whose texts and attribute values mix markup characters,
/// entities' characters, XML whitespace and multi-byte characters.
fn random_document(rng: &mut StdRng, nodes: usize) -> Document {
    const NAMES: [&str; 4] = ["a", "b", "c-d", "e.f"];
    const PIECES: [&str; 12] = [
        "x",
        " ",
        "\t",
        "\r\n",
        "<",
        ">",
        "&",
        "\"",
        "'",
        "\u{e9}",
        "\u{3000}",
        "\u{1f600}",
    ];
    let piece = |rng: &mut StdRng| {
        let len = rng.gen_range(1..5usize);
        (0..len)
            .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
            .collect::<String>()
    };
    let mut b = DocumentBuilder::new();
    b.open_element("root");
    let mut depth = 1;
    for _ in 0..nodes {
        match rng.gen_range(0..6u32) {
            0 | 1 => {
                b.open_element(NAMES[rng.gen_range(0..NAMES.len())]);
                depth += 1;
                for k in 0..rng.gen_range(0..3usize) {
                    let value = piece(rng);
                    b.attribute(format!("k{k}"), value);
                }
            }
            2 if depth > 1 => {
                b.close_element();
                depth -= 1;
            }
            3 => {
                b.leaf_element(NAMES[rng.gen_range(0..NAMES.len())]);
            }
            _ => {
                let text = piece(rng);
                b.text(text);
            }
        }
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random trees, serialized and parsed back: both sinks agree, and a
    /// second serialize → parse round trip is exact.
    #[test]
    fn serialized_random_trees_parse_alike(seed in 0u64..100_000, nodes in 1usize..120) {
        let doc = random_document(&mut StdRng::seed_from_u64(seed), nodes);
        let xml = serialize(&doc);
        assert_sinks_agree(&xml);
        let once = serialize(&parse_xml(&xml).unwrap());
        prop_assert_eq!(serialize(&parse_xml(&once).unwrap()), once);
    }
}

#[test]
fn multi_byte_characters_survive_text_and_attribute_values() {
    for ch in ["\u{e9}", "\u{20ac}", "\u{4e2d}", "\u{1d11e}", "\u{1f600}"] {
        let xml = format!("<a k='{ch}x{ch}'>{ch} and {ch}</a>");
        let doc = parse_xml(&xml).unwrap();
        let a = doc.first_child(doc.root()).unwrap();
        assert_eq!(
            doc.attribute_value(a, "k"),
            Some(format!("{ch}x{ch}").as_str())
        );
        assert_eq!(doc.string_value(a), format!("{ch} and {ch}"));
    }
}

#[test]
fn serialize_then_parse_round_trips_non_ascii_documents() {
    let mut b = DocumentBuilder::new();
    b.open_element("r");
    b.attribute("title", "caf\u{e9} \u{4e2d}\u{6587} \u{1d11e} <&\"'>");
    b.open_element("p");
    b.text("na\u{ef}ve \u{20ac}5 \u{1f600} & <tags>");
    b.close_element();
    b.leaf_element("q");
    b.close_element();
    let xml = serialize(&b.finish());
    let reparsed = parse_xml(&xml).unwrap();
    assert_eq!(serialize(&reparsed), xml);
}

#[test]
fn non_xml_whitespace_text_is_kept_and_counted_alike() {
    for space in ["\u{a0}", "\u{3000}", "\u{a0}\u{3000} \u{a0}"] {
        let xml = format!("<a>{space}<b>{space}</b>\n</a>");
        let doc = parse_xml(&xml).unwrap();
        let texts = doc
            .all_nodes()
            .filter(|&n| matches!(doc.kind(n), NodeKind::Text { .. }))
            .count();
        assert_eq!(texts, 2, "{xml:?}");
        assert_eq!(doc.string_value(doc.root()), format!("{space}{space}"));
        assert_eq!(
            LazyDocument::new(xml.as_str()).unwrap().total_nodes(),
            doc.len()
        );
    }
}

#[test]
fn a_hundred_thousand_deep_chain_parses_without_recursion() {
    const DEPTH: usize = 100_000;
    let xml = format!("{}{}", "<a>".repeat(DEPTH), "</a>".repeat(DEPTH));
    let doc = parse_xml(&xml).unwrap();
    assert_eq!(doc.len(), DEPTH + 1);
    let lazy = LazyDocument::new(xml).unwrap();
    assert_eq!(lazy.total_nodes(), DEPTH + 1);
}

#[test]
fn ingest_allocations_per_node_are_bounded() {
    let doc = auction_site_document(&mut StdRng::seed_from_u64(1), 600);
    let xml = serialize(&doc);
    let nodes = doc.len() as f64;

    let before = allocations_now();
    let parsed = parse_xml(&xml).unwrap();
    let parse = (allocations_now() - before) as f64;
    assert_eq!(parsed.len(), doc.len());

    let before = allocations_now();
    let lazy = LazyDocument::new(xml.as_str()).unwrap();
    let tokenize = (allocations_now() - before) as f64;
    assert_eq!(lazy.total_nodes(), doc.len());

    assert!(
        parse <= 1.5 * nodes,
        "parse_xml: {parse} allocations for {nodes} nodes"
    );
    assert!(
        tokenize <= nodes,
        "LazyDocument::new: {tokenize} allocations for {nodes} nodes"
    );
}
