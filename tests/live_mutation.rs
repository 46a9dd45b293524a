//! Live-document properties: a mutated `PreparedDocument`'s incremental
//! indexes must be indistinguishable from a full re-parse-and-prepare of
//! the same tree — for every evaluation strategy — and the catalog's
//! subtree-scoped artifact invalidation must kill exactly the artifacts
//! whose candidates the edit touched.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use xpeval::dom::serialize;
use xpeval::prelude::*;
use xpeval::workloads::random_tree_document;

const ALL_STRATEGIES: [EvalStrategy; 5] = [
    EvalStrategy::ContextValueTable,
    EvalStrategy::Naive,
    EvalStrategy::CoreXPathLinear,
    EvalStrategy::Parallel { threads: 2 },
    EvalStrategy::SingletonSuccess,
];

/// Queries that exercise the indexes an edit must maintain: tag lists,
/// child/descendant axes, sibling order, positions, attributes and text.
const QUERIES: &[&str] = &[
    "//a",
    "//b",
    "//a[child::b]",
    "//a/b",
    "//b[not(child::c)]",
    "//a/following-sibling::b",
    "//c/parent::a",
    "//b[position() = 2]",
    "//a[@k]",
    "count(//c)",
    "//a[.//c]",
];

/// One scripted edit; raw indexes are reduced modulo the live counts at
/// application time, so every script stays applicable as the tree changes.
#[derive(Debug, Clone)]
enum Op {
    Insert { el: usize, at: usize, frag: usize },
    Remove { el: usize },
    Replace { el: usize, frag: usize },
    SetAttr { el: usize, name: usize, val: usize },
    SetText { t: usize, val: usize },
}

/// Draws a random edit script covering all five operations.
fn random_script(rng: &mut StdRng, len: usize) -> Vec<Op> {
    use rand::Rng;
    (0..len)
        .map(|_| match rng.gen_range(0..5) {
            0 => Op::Insert {
                el: rng.gen_range(0..64),
                at: rng.gen_range(0..8),
                frag: rng.gen_range(0..4),
            },
            1 => Op::Remove {
                el: rng.gen_range(0..64),
            },
            2 => Op::Replace {
                el: rng.gen_range(0..64),
                frag: rng.gen_range(0..4),
            },
            3 => Op::SetAttr {
                el: rng.gen_range(0..64),
                name: rng.gen_range(0..3),
                val: rng.gen_range(0..3),
            },
            _ => Op::SetText {
                t: rng.gen_range(0..64),
                val: rng.gen_range(0..3),
            },
        })
        .collect()
}

fn fragments() -> Vec<Document> {
    [
        "<a><b/><c/></a>",
        "<b k=\"9\">fresh</b>",
        "<c><a><b/></a></c>",
        "<a/>",
    ]
    .iter()
    .map(|x| parse_xml(x).unwrap())
    .collect()
}

/// Elements that are safe to remove or replace: everything except the
/// document element (removing it would allow a later insert to create a
/// second root, which a serialize → parse round-trip cannot represent).
fn inner_elements(live: &LiveDocument) -> Vec<NodeId> {
    let doc = live.document();
    doc.all_elements()
        .filter(|&e| doc.parent(e) != Some(doc.root()))
        .collect()
}

fn text_nodes(live: &LiveDocument) -> Vec<NodeId> {
    let doc = live.document();
    doc.all_nodes().filter(|&n| doc.kind(n).is_text()).collect()
}

/// Applies one op to the live document, reducing raw indexes to the
/// current tree; ops with no valid target are skipped.
fn apply(live: &mut LiveDocument, op: &Op, frags: &[Document]) {
    match *op {
        Op::Insert { el, at, frag } => {
            let els: Vec<NodeId> = live.document().all_elements().collect();
            if els.is_empty() {
                return;
            }
            let parent = els[el % els.len()];
            let at = at % (live.child_count(parent) + 1);
            live.insert_subtree(parent, at, &frags[frag % frags.len()])
                .expect("in-range insert succeeds");
        }
        Op::Remove { el } => {
            let els = inner_elements(live);
            if els.is_empty() {
                return;
            }
            live.remove_subtree(els[el % els.len()])
                .expect("attached element removal succeeds");
        }
        Op::Replace { el, frag } => {
            let els = inner_elements(live);
            if els.is_empty() {
                return;
            }
            live.replace_subtree(els[el % els.len()], &frags[frag % frags.len()])
                .expect("attached element replacement succeeds");
        }
        Op::SetAttr { el, name, val } => {
            let els: Vec<NodeId> = live.document().all_elements().collect();
            if els.is_empty() {
                return;
            }
            let names = ["k", "k2", "id"];
            live.set_attribute(
                els[el % els.len()],
                names[name % names.len()],
                &format!("v{val}"),
            )
            .expect("set_attribute on an element succeeds");
        }
        Op::SetText { t, val } => {
            let ts = text_nodes(live);
            if ts.is_empty() {
                return;
            }
            live.set_text(ts[t % ts.len()], &format!("text{val}"))
                .expect("set_text on a text node succeeds");
        }
    }
}

/// Canonical form of a query result that is comparable across two
/// different arenas holding the same tree: node sets become ranks in
/// document order, everything else is compared as-is.
#[derive(Debug, PartialEq)]
enum Canon {
    Nodes(Vec<usize>),
    Other(Value),
    Err(String),
}

fn rank_map(p: &PreparedDocument) -> HashMap<NodeId, usize> {
    let doc = p.document();
    let mut all: Vec<NodeId> = doc.all_nodes().collect();
    all.sort_by_key(|&n| doc.pre(n));
    all.into_iter().enumerate().map(|(i, n)| (n, i)).collect()
}

fn canon(result: Result<Value, EvalError>, ranks: &HashMap<NodeId, usize>) -> Canon {
    match result {
        Ok(Value::NodeSet(nodes)) => Canon::Nodes(
            nodes
                .into_iter()
                .map(|n| *ranks.get(&n).expect("result node is attached"))
                .collect(),
        ),
        Ok(v) => Canon::Other(v),
        Err(e) => Canon::Err(e.to_string()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline agreement property: after a random edit script, every
    /// strategy sees the same results on the incrementally-maintained
    /// indexes as on a document rebuilt from scratch (serialize → parse →
    /// prepare) — node sets compared as document-order ranks.
    #[test]
    fn mutated_indexes_agree_with_full_rebuild(
        seed in 0u64..10_000,
        nodes in 3usize..60,
        script_len in 1usize..12,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = random_tree_document(&mut rng, nodes, &["a", "b", "c"]);
        let script = random_script(&mut rng, script_len);
        let frags = fragments();
        let mut live = LiveDocument::new(doc);
        for op in &script {
            apply(&mut live, op, &frags);
        }
        prop_assert_eq!(live.revision(), live.pending().map_or(0, |p| p.edits));

        let mutated = live.snapshot();
        let rebuilt = PreparedDocument::new(
            parse_xml(&serialize(mutated.shared_document())).expect("serialized tree re-parses"),
        );
        let mutated_ranks = rank_map(&mutated);
        let rebuilt_ranks = rank_map(&rebuilt);

        for strategy in ALL_STRATEGIES {
            let engine = Engine::builder().strategy(strategy).build();
            for q in QUERIES {
                let run = |p: &PreparedDocument| {
                    engine
                        .compile(q)
                        .and_then(|plan| plan.run_prepared(p))
                        .map(|out| out.value)
                };
                prop_assert_eq!(
                    canon(run(&mutated), &mutated_ranks),
                    canon(run(&rebuilt), &rebuilt_ranks),
                    "{strategy:?} disagrees on {q} after {script:?}",
                );
            }
        }
    }
}

/// Invalidation precision, end to end: an edit kills exactly the
/// artifacts whose candidate elements intersect the dirty subtree — the
/// survivors keep answering as cache hits, with correct post-edit
/// results.
#[test]
fn scoped_invalidation_spares_disjoint_artifacts() {
    let catalog = Catalog::new();
    catalog
        .insert_xml(
            "d",
            "<r><left><a/><a/></left><right><b/><b/><b/></right></r>",
        )
        .unwrap();
    for q in ["//a", "//b", "//missing"] {
        catalog.evaluate_on("d", q).unwrap();
    }

    let fragment = parse_xml("<a fresh=\"1\"/>").unwrap();
    let outcome = catalog
        .mutate_named("d", |live| {
            let left = live.elements_named("left")[0];
            live.insert_subtree(left, 2, &fragment)
        })
        .unwrap();
    outcome.value.as_ref().unwrap();

    // //a intersects the edit; //b and the verified-empty //missing do not.
    assert_eq!(outcome.artifacts_killed, 1, "{outcome:?}");
    assert_eq!(outcome.artifacts_preserved, 2, "{outcome:?}");

    // Survivors answer without a rebuild, and answer correctly.
    let misses = catalog.stats().artifact_misses;
    let out = catalog.evaluate_on("d", "//b").unwrap();
    assert_eq!(out.value, {
        let p = catalog.get("d").unwrap();
        Value::NodeSet(p.elements_named("b").to_vec())
    });
    catalog.evaluate_on("d", "//missing").unwrap();
    assert_eq!(
        catalog.stats().artifact_misses,
        misses,
        "preserved artifacts must hit"
    );

    // The killed artifact rebuilds once and sees the inserted node.
    let out = catalog.evaluate_on("d", "//a").unwrap();
    match out.value {
        Value::NodeSet(ref nodes) => assert_eq!(nodes.len(), 3),
        ref v => panic!("unexpected value {v:?}"),
    }
    assert_eq!(catalog.stats().artifact_misses, misses + 1);

    let stats = catalog.stats();
    assert_eq!(stats.artifact_scope_killed, 1, "{stats}");
    assert_eq!(stats.artifact_scope_preserved, 2, "{stats}");
}

/// The pending-edit batch a catalog mutation drains must cover every
/// edit of the closure: dirty intervals union, counters add up.
#[test]
fn pending_batches_accumulate_across_a_closure() {
    let catalog = Catalog::new();
    catalog.insert_xml("d", "<r><a/><b/></r>").unwrap();
    let frag = parse_xml("<c/>").unwrap();
    let outcome = catalog
        .mutate_named("d", |live| {
            let a = live.elements_named("a")[0];
            live.insert_subtree(a, 0, &frag).unwrap();
            let b = live.elements_named("b")[0];
            live.remove_subtree(b).unwrap();
        })
        .unwrap();
    let edits = outcome.edits.expect("two edits published");
    assert_eq!(edits.edits, 2);
    assert_eq!(edits.inserted, 1);
    assert_eq!(edits.removed, 1);
    assert_eq!(outcome.revision, 2, "one revision per edit");
    assert!(edits.dirty.0 < edits.dirty.1, "dirty interval is non-empty");
}
