//! Quickstart: compile queries once, look at their fragment classification
//! and selected plan, then evaluate them — directly, through a serving
//! engine with a plan cache, and against a prepared (indexed) document
//! with streaming results.
//!
//! ```bash
//! cargo run --example quickstart
//! ```

use std::sync::Arc;
use xpeval::prelude::*;

fn main() {
    // A small library catalogue.
    let doc = parse_xml(
        r#"<library>
             <book year="2002"><title>Efficient Algorithms for Processing XPath Queries</title><venue>VLDB</venue></book>
             <book year="2003"><title>The Complexity of XPath Query Evaluation</title><venue>PODS</venue></book>
             <article year="2003"><title>Typing and Querying XML Documents</title><venue>PODS</venue></article>
           </library>"#,
    )
    .expect("well-formed XML");

    println!("document: {} nodes, height {}\n", doc.len(), doc.height());

    let queries = [
        "/library/book/title",
        "//book[@year = 2003]/title",
        "//book[not(venue = 'PODS')]",
        "//*[venue = 'PODS'][position() = last()]/title",
        "count(//book)",
        "string(//book[@year = 2003]/title)",
    ];

    // Per-query work happens once, before any document is touched: parse,
    // normalize, classify (Figure 1), pick the strategy the paper's
    // complexity results recommend.
    for src in queries {
        let compiled = CompiledQuery::compile(src).expect("query compiles");
        let report = compiled.report();
        println!("query     : {src}");
        println!("fragment  : {} — {}", report.fragment, report.complexity);
        println!("plan      : {:?}", compiled.strategy());
        let out = compiled.run(&doc).expect("evaluation succeeds");
        match out.value {
            Value::NodeSet(nodes) => {
                println!("result    : {} node(s)", nodes.len());
                for n in nodes {
                    println!(
                        "            <{}> {:?}",
                        doc.name(n).unwrap_or("#"),
                        doc.string_value(n)
                    );
                }
            }
            other => println!("result    : {other:?}"),
        }
        println!();
    }

    // A serving engine compiles through a bounded LRU plan cache: repeated
    // query strings skip the per-query work entirely.
    let engine = Engine::builder().plan_cache_capacity(64).build();
    for _ in 0..5 {
        engine.evaluate_str(&doc, "count(//book)").unwrap();
    }
    // One summary line per cache, via the shared CacheStats Display.
    println!(
        "plan cache after 5 identical calls: {}",
        engine.cache_stats()
    );

    // The document side mirrors the query side: prepare once (tag-name
    // index, preorder subtree intervals, position tables), keep the
    // prepared document, evaluate many.
    let doc = Arc::new(doc);
    let prepared = PreparedDocument::new(Arc::clone(&doc));
    let titles = engine
        .evaluate_str_prepared(&prepared, "/descendant::title")
        .unwrap();
    println!(
        "\nprepared document: {} node(s) from the indexed descendant axis",
        titles.expect_nodes().len()
    );

    // Streaming: matches are yielded in document order as they are
    // decided — no result vector is materialized, and early exit is free.
    let compiled = CompiledQuery::compile("//title").unwrap();
    let mut stream = compiled.run_streaming_prepared(&prepared).unwrap();
    if let Some(Ok(first)) = stream.next() {
        println!(
            "first streamed match: {:?} (mode {:?}, {} candidate(s) examined)",
            doc.string_value(first),
            stream.mode(),
            stream.nodes_scanned()
        );
    }
}
