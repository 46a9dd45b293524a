//! Heap allocations of the table machine's wholesale routes, counted by a
//! global allocator: a predicate answered by column and an aggregate over a
//! path allocate a number of times that depends on the query, not on the
//! number of candidates.  Evaluated one candidate at a time, each of these
//! queries allocated three to seven times per candidate.

mod counting_alloc;

use counting_alloc::allocations_now;
use rand::rngs::StdRng;
use rand::SeedableRng;
use xpeval::prelude::*;
use xpeval::workloads::auction_site_document;

const QUERIES: [&str; 4] = [
    "//item[count(bid) > 2]",
    "//item[contains(name, 'number 7')]/@id",
    "//item[string-length(description) > 10]",
    "sum(//bid/@increase)",
];

/// Allocations of one warm run of each query, under the plan the compiler
/// picks, on a prepared auction document of `items` items.
fn allocations(items: usize) -> [u64; 4] {
    let prepared = auction_site_document(&mut StdRng::seed_from_u64(26), items).prepare();
    QUERIES.map(|query| {
        let plan = CompiledQuery::compile(query).unwrap();
        plan.run_prepared(&prepared).unwrap();
        let before = allocations_now();
        let out = plan.run_prepared(&prepared).unwrap();
        let made = allocations_now() - before;
        drop(out);
        made
    })
}

#[test]
fn column_predicates_and_aggregates_allocate_independently_of_the_candidates() {
    // 64 allows for the doubling of the vectors that hold whole columns.
    let n = 30;
    let (small, large) = (allocations(n), allocations(16 * n));
    for ((query, few), many) in QUERIES.iter().zip(small).zip(large) {
        assert!(
            many <= few + 64,
            "{query}: {few} allocations at {n} items, {many} at {} items",
            16 * n
        );
    }
}
