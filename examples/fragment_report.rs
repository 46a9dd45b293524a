//! Fragment classification report — Figure 1 as a tool.
//!
//! Feeds a mixed corpus of queries to the classifier and prints which
//! fragment each belongs to, what combined complexity the paper assigns to
//! that fragment, and which evaluation strategy this library recommends.
//! Pass your own queries as command-line arguments to classify them instead.
//!
//! ```bash
//! cargo run --example fragment_report
//! cargo run --example fragment_report -- "//a[not(b)]" "//a[position()=2]"
//! ```

use xpeval::prelude::*;
use xpeval::syntax::normalize::{expand_iterated_predicates, push_negation_inward};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let default_corpus = vec![
        "/catalog/product/name".to_string(),
        "//product[price and not(discontinued)]".to_string(),
        "//product[position() = last()]".to_string(),
        "//product[@category = 'tools']/name".to_string(),
        "//product[count(review) > 3]".to_string(),
        "//review[rating > 4][position() <= 10]".to_string(),
        "//product[starts-with(@sku, 'X-')]".to_string(),
        "//a[not(b[not(c)])]".to_string(),
    ];
    let corpus = if args.is_empty() {
        default_corpus
    } else {
        args
    };

    for src in corpus {
        match parse_query(&src) {
            Err(e) => println!("{src}\n  !! parse error: {e}\n"),
            Ok(query) => {
                let report = xpeval::syntax::classify(&query);
                // Parsing is not the whole admission check: compilation
                // also validates function calls (unknown names, arity)
                // against the engine's library.
                let compiled = match CompiledQuery::compile(&src) {
                    Ok(c) => c,
                    Err(e) => {
                        println!("{src}\n  !! compile error: {e}\n");
                        continue;
                    }
                };
                println!("{src}");
                println!("  least fragment      : {}", report.fragment);
                println!("  combined complexity : {}", report.complexity);
                println!(
                    "  parallelizable      : {}",
                    if report.fragment.is_parallelizable() {
                        "yes (in NC²)"
                    } else {
                        "not known (P-hard fragment)"
                    }
                );
                println!("  compiled plan       : {:?}", compiled.strategy());
                if compiled.fragment() != report.fragment {
                    println!(
                        "  after normalization : {} — the compiler's Remark 5.2 merge lowered the fragment",
                        compiled.fragment()
                    );
                }
                println!(
                    "  features            : {} steps, {} predicates, negation depth {}, position/last: {}",
                    report.features.step_count,
                    report.features.predicate_count,
                    report.features.negation_depth,
                    report.features.uses_position_or_last
                );
                // Show what normalization would do (Remark 5.2 / Theorem 5.9).
                let merged = expand_iterated_predicates(&query);
                if merged != query {
                    let merged_report = xpeval::syntax::classify(&merged);
                    println!(
                        "  after merging iterated predicates (Remark 5.2): {} — {}",
                        merged_report.fragment, merged_report.complexity
                    );
                }
                let pushed = push_negation_inward(&query);
                if pushed != query {
                    println!("  after pushing negation inward (Thm 5.9): {pushed}");
                }
                println!();
            }
        }
    }
}
