//! The index-aware axes of a prepared document: per-parent tag buckets for
//! `child::tag`, preorder-interval complements for `following`/`preceding`,
//! and positional child predicates answered from the position tables — plus
//! the table machine's set-at-a-time and column routes, which make a
//! pWF/pXPath predicate cost about what the bare path costs.
//!
//! ```bash
//! cargo run --release --example prepared_axes
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use xpeval::prelude::*;
use xpeval::workloads::auction_site_document;

fn time<R>(f: impl FnOnce() -> R) -> (R, std::time::Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let doc = auction_site_document(&mut rng, 600);
    println!("auction document: {} nodes", doc.len());

    let (prepared, built) = time(|| PreparedDocument::new(doc.clone()));
    println!("prepared indexes built in {built:?}\n");

    // One query per newly indexed axis; the strategy is pinned so both
    // sides run the identical algorithm and the difference is the index.
    let queries = [
        ("child buckets", "/site/people/person/name"),
        ("following complement", "/descendant::seller/following::bid"),
        ("preceding complement", "/descendant::bid/preceding::seller"),
        ("positional pick", "/site/people/person[300]/name"),
    ];
    for (what, src) in queries {
        let q = CompiledQuery::compile(src)
            .expect("query compiles")
            .with_strategy(EvalStrategy::ContextValueTable);
        let (plain, t_plain) = time(|| q.run(&doc).unwrap().value);
        let (fast, t_fast) = time(|| q.run_prepared(&prepared).unwrap().value);
        assert_eq!(plain, fast, "{src}");
        println!(
            "{what:<22} {src:<44} {:>5} nodes  unprepared {t_plain:?}, prepared {t_fast:?}",
            fast.expect_nodes().len(),
        );
    }

    // The plan the compiler picks for pWF/pXPath — the five `warm_pwf`
    // queries, two positional `//t[k]` steps of `warm_xpath`, then two
    // predicates answered by column — each beside its predicate-free form,
    // median of 31 prepared runs.
    println!();
    let median = |src: &str| {
        let q = CompiledQuery::compile(src).expect("query compiles");
        let mut runs: Vec<_> = (0..31)
            .map(|_| time(|| q.run_prepared(&prepared).unwrap()).1)
            .collect();
        runs.sort();
        (q, runs[runs.len() / 2])
    };
    for (src, bare) in [
        ("//item[@id = 'item3']", "//item"),
        ("//person[starts-with(@id, 'person1')]", "//person"),
        ("//item[bid/@increase > 6]/name", "//item/name"),
        (
            "/site/people/person[last()]/name",
            "/site/people/person/name",
        ),
        ("//item[position() = last()]/name", "//item/name"),
        ("//person[1]/name", "//person/name"),
        ("//item[bid][1]/name", "//item/name"),
        ("//item[count(bid) > 2]/name", "//item/name"),
        ("//item[contains(name, 'number 7')]/@id", "//item/name"),
    ] {
        let ((q, with_predicate), (_, without)) = (median(src), median(bare));
        println!("{src}: {with_predicate:?}   ({bare}: {without:?})");
        for line in q.explain().lines() {
            println!("  {line}");
        }
    }
}
