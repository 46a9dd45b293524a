//! E6 — Table 1 / Lemma 5.4: the Singleton-Success decision procedure.
//!
//! For each construct of Table 1 (location steps, `/π`, `π1/π2`, `π1|π2`,
//! `χ::t[e]`, `boolean(π)`, `and`, `or`, RelOp, ArithOp, `position()`,
//! `last()`, constants) the binary runs one representative pWF query with
//! the Singleton-Success checker and cross-validates the answer against the
//! context-value-table evaluator for *every* document node, i.e. it checks
//! the local consistency rules end to end.

use rand::rngs::StdRng;
use rand::SeedableRng;
use xpeval_bench::TextTable;
use xpeval_core::{CompiledQuery, Context, EvalStrategy, SuccessTarget, Value};
use xpeval_syntax::parse_query;
use xpeval_workloads::auction_site_document;

fn main() {
    println!("E6 — Table 1: local consistency checks of the Singleton-Success NAuxPDA\n");
    let doc = auction_site_document(&mut StdRng::seed_from_u64(12), 24);
    let ctx = Context::root(&doc);

    // One representative query per Table 1 row (or family of rows).
    let rows: Vec<(&str, &str)> = vec![
        ("χ::t (leaf step)", "//item"),
        ("/π (absolute path)", "/site/people/person"),
        ("π1/π2 (composition)", "//item/name"),
        ("π1 | π2 (union)", "//item/name | //person/name"),
        (
            "χ::t[e] (predicate, position/size)",
            "//item[position() = last()]",
        ),
        ("boolean(π)", "boolean(//bid)"),
        ("e1 and e2", "//item[child::bid and child::seller]"),
        ("e1 or e2", "//item[position() = 1 or position() = last()]"),
        ("e1 RelOp e2 (numbers)", "//item[position() + 1 = last()]"),
        ("e1 ArithOp e2", "//bid[@increase * 2 >= 6]"),
        ("position()", "//person[position() <= 3]"),
        ("last()", "//person[last()]"),
        ("number constant", "//item[2]"),
    ];

    let mut table = TextTable::new(&[
        "Table 1 construct",
        "query",
        "result type",
        "|result|",
        "agreement with CVT evaluator",
    ]);
    let mut all_ok = true;
    for (construct, src) in rows {
        let compiled = CompiledQuery::from_expr(parse_query(src).unwrap());
        let run = |strategy| compiled.clone().with_strategy(strategy).run(&doc);
        let reference = run(EvalStrategy::ContextValueTable).unwrap().value;
        let decide = |target| compiled.decide(&doc, ctx, &target).unwrap();
        let (kind, size, ok) = match &reference {
            Value::NodeSet(expected) => {
                // Per-node agreement of decide() plus the Theorem 5.5 loop.
                let mut ok = run(EvalStrategy::SingletonSuccess).unwrap().value == reference;
                for v in doc.all_nodes() {
                    ok &= decide(SuccessTarget::Node(v)) == expected.contains(&v);
                }
                ("node-set", expected.len(), ok)
            }
            Value::Boolean(b) => ("boolean", 1, decide(SuccessTarget::True) == *b),
            Value::Number(n) => ("number", 1, decide(SuccessTarget::Number(*n))),
            Value::Str(s) => ("string", 1, decide(SuccessTarget::Str(s.clone()))),
        };
        all_ok &= ok;
        table.row(&[
            construct.to_string(),
            src.to_string(),
            kind.to_string(),
            size.to_string(),
            if ok { "ok" } else { "MISMATCH" }.to_string(),
        ]);
    }
    table.print();
    println!("all Table 1 constructs verified: {all_ok}");
}
