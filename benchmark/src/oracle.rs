//! The answer oracle: what every query must return, worked out from the
//! generator's own facts, plus the frozen byte hashes of node-set answers.
//!
//! Two independent checks apply to each op's serialized answer:
//!
//! * **facts** — counts, sums, strings and the *size* of every node-set
//!   answer follow from [`Facts`] alone, on any seed, and in `serve_mixed`
//!   from the shadow facts updated by each write;
//! * **bytes** — the FNV-64 of a node-set answer's bytes must match the
//!   hash agreed on in set-up by every backend (and the pinned
//!   context-value-table machine on documents it finishes quickly), and
//!   for seed 1 the hash frozen in `expected/seed1.tsv`.

use crate::gen::{Facts, ItemFact};
use crate::sut::{self, Answer, Machine, Prepared};

/// What the facts say a query returns.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// A node set of this many nodes.
    Nodes(usize),
    Number(f64),
    Text(String),
}

pub struct Query {
    /// Short name used in class names and the frozen-answer file.
    pub id: &'static str,
    pub text: &'static str,
    expect: fn(&Facts) -> Expect,
}

impl Query {
    pub fn expect(&self, facts: &Facts) -> Expect {
        (self.expect)(facts)
    }
}

fn items_where(facts: &Facts, keep: impl Fn(&ItemFact) -> bool) -> usize {
    facts.items.iter().filter(|i| keep(i)).count()
}

fn total_bids(facts: &Facts) -> usize {
    facts.items.iter().map(|i| i.bids.len()).sum()
}

/// Regions holding at least one item that satisfies `keep`.
fn regions_where(facts: &Facts, keep: impl Fn(&ItemFact) -> bool) -> usize {
    (0..crate::gen::REGIONS.len())
        .filter(|&r| facts.items.iter().any(|i| i.region == r && keep(i)))
        .count()
}

/// PF, positive Core XPath and Core XPath: the paper's linear fragment.
pub const CORE: [Query; 8] = [
    Query {
        id: "europe_names",
        text: "/site/regions/europe/item/name",
        expect: |f| Expect::Nodes(items_where(f, |i| i.region == 0)),
    },
    Query {
        id: "person_names",
        text: "/site/people/person/name",
        expect: |f| Expect::Nodes(f.persons.len()),
    },
    Query {
        id: "bid_item_names",
        text: "//item[bid]/name",
        expect: |f| Expect::Nodes(items_where(f, |i| !i.bids.is_empty())),
    },
    Query {
        id: "unbid_item_names",
        text: "//item[not(bid) and seller]/name",
        expect: |f| Expect::Nodes(items_where(f, |i| i.bids.is_empty())),
    },
    Query {
        id: "bid_parents",
        text: "//seller/following-sibling::bid/parent::item",
        expect: |f| Expect::Nodes(items_where(f, |i| !i.bids.is_empty())),
    },
    Query {
        id: "bids_after_seller",
        text: "/descendant::seller/following::bid",
        // Every bid follows the first item's seller.
        expect: |f| Expect::Nodes(total_bids(f)),
    },
    Query {
        id: "sellers_before_bid",
        text: "/descendant::bid/preceding::seller",
        // The sellers up to and including the last item that has a bid.
        expect: |f| {
            Expect::Nodes(
                f.items
                    .iter()
                    .rposition(|i| !i.bids.is_empty())
                    .map_or(0, |last| last + 1),
            )
        },
    },
    Query {
        id: "names_union",
        text: "//item[bid]/name | //person/name",
        expect: |f| Expect::Nodes(items_where(f, |i| !i.bids.is_empty()) + f.persons.len()),
    },
];

/// Full XPath 1.0: routed to the context-value-table machine.
pub const XPATH: [Query; 8] = [
    Query {
        id: "count_bids_after_seller",
        text: "count(/descendant::seller/following::bid)",
        expect: |f| Expect::Number(total_bids(f) as f64),
    },
    Query {
        id: "count_busy_items",
        text: "count(//item[count(bid) > 2])",
        expect: |f| Expect::Number(items_where(f, |i| i.bids.len() > 2) as f64),
    },
    Query {
        id: "busy_item_names",
        text: "//item[count(bid) > 2]/name",
        expect: |f| Expect::Nodes(items_where(f, |i| i.bids.len() > 2)),
    },
    Query {
        id: "first_names_union",
        text: "//item[bid][1]/name | //person[1]/name",
        // Per region the first item that has a bid, and the first person.
        expect: |f| {
            Expect::Nodes(
                regions_where(f, |i| !i.bids.is_empty()) + usize::from(!f.persons.is_empty()),
            )
        },
    },
    Query {
        id: "count_sold_by_person5",
        text: "count(//item[seller/@person = 'person5'])",
        expect: |f| Expect::Number(items_where(f, |i| i.seller == 5) as f64),
    },
    Query {
        id: "sum_increase",
        text: "sum(//bid/@increase)",
        expect: |f| Expect::Number(f.items.iter().flat_map(|i| &i.bids).sum()),
    },
    Query {
        id: "count_persons",
        text: "count(//person)",
        expect: |f| Expect::Number(f.persons.len() as f64),
    },
    Query {
        id: "asia_second_name",
        text: "string(/site/regions/asia/item[2]/name)",
        expect: |f| {
            Expect::Text(
                f.items
                    .iter()
                    .filter(|i| i.region == 1)
                    .nth(1)
                    .map_or(String::new(), |i| i.name.clone()),
            )
        },
    },
];

/// pWF / pXPath: the Singleton-Success and parallel machines.
pub const PWF: [Query; 5] = [
    Query {
        id: "raised_item_names",
        text: "//item[bid/@increase > 6]/name",
        expect: |f| Expect::Nodes(items_where(f, |i| i.bids.iter().any(|&b| b > 6.0))),
    },
    Query {
        id: "item3",
        text: "//item[@id = 'item3']",
        expect: |f| Expect::Nodes(items_where(f, |i| i.id == 3)),
    },
    Query {
        id: "person1x",
        text: "//person[starts-with(@id, 'person1')]",
        expect: |f| {
            Expect::Nodes(
                (0..f.persons.len())
                    .filter(|p| p.to_string().starts_with('1'))
                    .count(),
            )
        },
    },
    Query {
        id: "last_person_name",
        text: "/site/people/person[last()]/name",
        expect: |f| Expect::Nodes(usize::from(!f.persons.is_empty())),
    },
    Query {
        id: "last_item_names",
        text: "//item[position() = last()]/name",
        expect: |f| Expect::Nodes(regions_where(f, |_| true)),
    },
];

/// The four queries of `first_answer`, one per answer kind and machine.
pub fn first_answer_queries() -> [&'static Query; 4] {
    [&CORE[2], &XPATH[6], &XPATH[5], &XPATH[7]]
}

pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// True if the serialized answer is what the facts say, and — when a byte
/// hash is known for it — byte for byte what was agreed.
pub fn check(expect: &Expect, hash: Option<u64>, answer: &Answer) -> bool {
    let by_facts = match expect {
        Expect::Nodes(n) => answer.nodes == Some(*n),
        Expect::Number(x) => answer.nodes.is_none() && answer.text == x.to_string(),
        Expect::Text(s) => answer.nodes.is_none() && answer.text == *s,
    };
    by_facts && hash.is_none_or(|h| fnv64(answer.text.as_bytes()) == h)
}

/// Identifies a generated document: `(stream, items)` of
/// [`crate::gen::auction_doc`].
pub type DocKey = (u64, usize);

/// The seed whose node-set answers are frozen in `expected/`.
pub const FROZEN_SEED: u64 = 1;
const FROZEN: &str = include_str!("../expected/seed1.tsv");

/// One line of the frozen-answer file: `stream items query nodes fnv64`.
pub fn frozen_line(doc: DocKey, query: &str, nodes: usize, hash: u64) -> String {
    format!("{}\t{}\t{query}\t{nodes}\t{hash:016x}\n", doc.0, doc.1)
}

/// The frozen `(nodes, hash)` of a node-set answer, if the file has it.
pub fn frozen(doc: DocKey, query: &str) -> Option<(usize, u64)> {
    parse_frozen(FROZEN, doc, query)
}

fn parse_frozen(file: &str, doc: DocKey, query: &str) -> Option<(usize, u64)> {
    file.lines().find_map(|line| {
        let mut cols = line.split('\t');
        let key: DocKey = (cols.next()?.parse().ok()?, cols.next()?.parse().ok()?);
        let q = cols.next()?;
        let nodes = cols.next()?.parse().ok()?;
        let hash = u64::from_str_radix(cols.next()?, 16).ok()?;
        (key == doc && q == query).then_some((nodes, hash))
    })
}

/// What one evaluation of a class looks like: the answer the eager
/// backend gives under the plan the engine picks for itself, with the
/// exact work counters of that run.
pub struct Reference {
    pub answer: Answer,
    pub machine: Machine,
    pub evaluations: u64,
    pub table_entries: u64,
}

/// Documents above this size skip the pinned context-value-table run:
/// it is quadratic on the `following`/`preceding` queries.
const CVT_CHECK_MAX_NODES: usize = 10_000;

/// Runs `query` on the eager document and on every other backend (lazy,
/// snapshot, and the pinned context-value-table machine on small
/// documents), and returns the eager answer if all of them agree on its
/// bytes and the facts agree on its size or value.
pub fn reference(
    doc: DocKey,
    xml: &str,
    facts: &Facts,
    eager: &Prepared,
    query: &Query,
) -> Result<Reference, String> {
    let plan = sut::compile(query.text)?;
    let machine = sut::machine_for(&plan, eager);
    let out = sut::run(&plan, eager)?;
    let answer = sut::serialize_answer(&out.value, eager);
    let what = format!("{} on document {doc:?}", query.id);

    let expect = query.expect(facts);
    if !check(&expect, None, &answer) {
        return Err(format!(
            "{what}: the facts say {expect:?}, the eager backend answers {:?} ({:?} nodes)",
            &answer.text[..answer.text.len().min(60)],
            answer.nodes,
        ));
    }

    let lazy = sut::lazy_materialize(&sut::lazy_tokenize(xml)?, &plan)?;
    let snapshot = sut::snapshot_decode(&sut::snapshot_open(sut::snapshot_image(eager))?)?;
    let mut others = vec![
        ("lazy backend", sut::run(&plan, &lazy)?.value, lazy),
        (
            "snapshot backend",
            sut::run(&plan, &snapshot)?.value,
            snapshot,
        ),
    ];
    if sut::node_count(eager) <= CVT_CHECK_MAX_NODES && machine != Machine::Cvt {
        let value = sut::run(&sut::pinned(&plan, Machine::Cvt), eager)?.value;
        others.push(("context-value-table machine", value, eager.clone()));
    }
    for (who, value, doc) in &others {
        if sut::serialize_answer(value, doc) != answer {
            return Err(format!(
                "{what}: the {who} disagrees with the eager backend"
            ));
        }
    }
    Ok(Reference {
        answer,
        machine,
        evaluations: out.stats.evaluations,
        table_entries: out.stats.table_entries as u64,
    })
}

/// For the frozen seed, a node-set answer must also be the one on file.
pub fn check_frozen(seed: u64, doc: DocKey, query: &Query, answer: &Answer) -> Result<(), String> {
    let (Some(nodes), true) = (answer.nodes, seed == FROZEN_SEED) else {
        return Ok(());
    };
    match frozen(doc, query.id) {
        Some(on_file) if on_file == (nodes, fnv64(answer.text.as_bytes())) => Ok(()),
        Some(_) => Err(format!(
            "{} on document {doc:?}: the answer differs from expected/seed{FROZEN_SEED}.tsv \
             (run --bless only if the change is intended)",
            query.id
        )),
        None => Err(format!(
            "{} on document {doc:?} is not in expected/seed{FROZEN_SEED}.tsv (run --bless)",
            query.id
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::auction_doc;

    fn answer(text: &str, nodes: Option<usize>) -> Answer {
        Answer {
            text: text.to_string(),
            nodes,
        }
    }

    #[test]
    fn a_wrong_answer_is_rejected() {
        let facts = auction_doc(1, 0, 20).facts;
        let count = XPATH[6].expect(&facts);
        assert_eq!(count, Expect::Number(20.0));
        assert!(check(&count, None, &answer("20", None)));
        assert!(!check(&count, None, &answer("21", None)));
        assert!(!check(&count, None, &answer("20", Some(1))));

        let names = CORE[2].expect(&facts);
        assert_eq!(names, Expect::Nodes(16));
        let good = answer("<name>a</name>\n", Some(16));
        let hash = fnv64(good.text.as_bytes());
        assert!(check(&names, Some(hash), &good));
        // Right size, wrong bytes.
        assert!(!check(
            &names,
            Some(hash),
            &answer("<name>b</name>\n", Some(16))
        ));
        // Right bytes, wrong size.
        assert!(!check(
            &names,
            Some(hash),
            &answer("<name>a</name>\n", Some(15))
        ));
    }

    #[test]
    fn every_backend_answers_every_query_as_the_facts_say() {
        for (seed, items) in [(1, 20), (5, 7), (9, 60)] {
            let doc = auction_doc(seed, 0, items);
            let eager = sut::prepare(sut::parse(&doc.xml).unwrap());
            assert_eq!(sut::node_count(&eager), doc.facts.node_count());
            for query in CORE.iter().chain(&XPATH).chain(&PWF) {
                reference((0, items), &doc.xml, &doc.facts, &eager, query)
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            }
        }
    }

    #[test]
    fn a_tampered_document_fails_the_reference_check() {
        let doc = auction_doc(3, 0, 20);
        let mut facts = doc.facts.clone();
        facts.persons.pop();
        let eager = sut::prepare(sut::parse(&doc.xml).unwrap());
        let err = reference((0, 20), &doc.xml, &facts, &eager, &XPATH[6]);
        assert!(err.is_err_and(|e| e.contains("the facts say")));
    }

    #[test]
    fn fnv64_known_values() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn frozen_file_round_trips() {
        let file = frozen_line((3, 595), "bid_item_names", 476, 0xdead_beef)
            + &frozen_line((0, 20), "item3", 1, 7);
        assert_eq!(
            parse_frozen(&file, (3, 595), "bid_item_names"),
            Some((476, 0xdead_beef))
        );
        assert_eq!(parse_frozen(&file, (0, 20), "item3"), Some((1, 7)));
        assert_eq!(parse_frozen(&file, (0, 20), "item4"), None);
        assert_eq!(parse_frozen(&file, (1, 20), "item3"), None);
    }
}
