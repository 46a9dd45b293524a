//! Theorem 4.3 / Figure 5: directed graph reachability reduces to the
//! evaluation of PF queries (location paths without conditions), which
//! together with the easy NL membership proves PF to be NL-complete.
//!
//! The construction follows the shape of the paper's example query
//!
//! ```text
//! /descendant::v_i / ϕ_m        ϕ_k := child::c / descendant::e /
//!                                       parent^{2|V|}::* / child^{|V|}::c /
//!                                       parent::* / ϕ_{k−1}
//! ϕ_0 := self::v_j
//! ```
//!
//! i.e. every edge traversal is encoded purely by depth arithmetic: an `e`
//! marker sits at a depth that, after climbing a fixed number of `parent`
//! steps and descending a fixed number of `child` steps (with a node test at
//! the end), lands exactly on the element representing the edge's target
//! vertex.  The paper only sketches the document encoding (Figure 5(c)), so
//! this module fixes one concrete layout with the same ingredients — a main
//! spine whose depth encodes vertex identity, one private branch per vertex
//! holding its outgoing-edge markers, and constants `A = 2n+2` (climb) and
//! `B = n+2` (descent) — and proves it correct by property tests against
//! BFS.  The deviation from the (underspecified) figure is recorded in
//! DESIGN.md.
//!
//! Layout for a graph with `n` vertices (all depths relative to the
//! conceptual root at depth 0):
//!
//! * spine elements `m` at depths `1 … 2n` forming a chain,
//! * the vertex element `v{u}` as a child of the spine node at depth `u+n`,
//! * its child `p1` (depth `u+n+2`) followed by a private chain of `p`
//!   elements down to depth `3n+2`,
//! * for every edge `(u → t)`: an `e` leaf attached to the private node of
//!   `u` at depth `t+2n+1` (so the marker itself sits at depth `t+2n+2`).
//!
//! Self-loops are added to every vertex (as in the proof) so that "a path of
//! exactly `m = n` edges exists" coincides with plain reachability.

use std::collections::HashSet;
use xpeval_dom::{Axis, Document, DocumentBuilder, NodeId, NodeTest};
use xpeval_syntax::{Expr, LocationPath, Step};

/// A simple directed graph on vertices `1 … n`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DirectedGraph {
    n: usize,
    edges: HashSet<(usize, usize)>,
}

impl DirectedGraph {
    /// Creates a graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        DirectedGraph {
            n,
            edges: HashSet::new(),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds the edge `u → t` (1-based vertices).
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn add_edge(&mut self, u: usize, t: usize) {
        assert!(
            (1..=self.n).contains(&u) && (1..=self.n).contains(&t),
            "edge endpoints must lie in 1..={}",
            self.n
        );
        self.edges.insert((u, t));
    }

    /// True if the edge `u → t` is present.
    pub fn has_edge(&self, u: usize, t: usize) -> bool {
        self.edges.contains(&(u, t))
    }

    /// Edges in unspecified order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.edges.iter().copied()
    }

    /// BFS reachability (used as the reference in tests and benches).
    pub fn reachable(&self, from: usize, to: usize) -> bool {
        if from == to {
            return true;
        }
        let mut seen = vec![false; self.n + 1];
        let mut queue = std::collections::VecDeque::from([from]);
        seen[from] = true;
        while let Some(u) = queue.pop_front() {
            #[allow(clippy::needless_range_loop)]
            for t in 1..=self.n {
                if self.has_edge(u, t) && !seen[t] {
                    if t == to {
                        return true;
                    }
                    seen[t] = true;
                    queue.push_back(t);
                }
            }
        }
        false
    }
}

/// Output of the Theorem 4.3 reduction.
pub struct PfReachabilityReduction {
    /// The chain-shaped document encoding the graph.
    pub document: Document,
    /// The PF query (no predicates anywhere).
    pub query: Expr,
    /// The element `v{target}`; the query result is `{target_node}` or empty.
    pub target_node: NodeId,
    /// Number of edge-traversal blocks in the query (`m` in the paper).
    pub steps: usize,
}

/// Reduces "is `target` reachable from `source` in `graph`?" to PF query
/// evaluation.  Vertices are 1-based.
pub fn reachability_to_pf(
    graph: &DirectedGraph,
    source: usize,
    target: usize,
) -> PfReachabilityReduction {
    let n = graph.num_vertices();
    assert!(n >= 1, "graph must have at least one vertex");
    assert!(
        (1..=n).contains(&source) && (1..=n).contains(&target),
        "vertices are 1..=n"
    );

    // Self-loops make "path of exactly m edges" equivalent to reachability.
    let mut edges: HashSet<(usize, usize)> = graph.edges().collect();
    for u in 1..=n {
        edges.insert((u, u));
    }

    // -- document -----------------------------------------------------------
    let max_private_depth = 3 * n + 2;
    let mut b = DocumentBuilder::new();
    let mut vertex_nodes: Vec<NodeId> = Vec::with_capacity(n);
    // Spine m_1 .. m_{2n}; vertex u hangs off m_{u+n}.
    for d in 1..=(2 * n) {
        b.open_element("m");
        if d > n {
            let u = d - n; // vertex attached at this spine depth
            let v = b.open_element(format!("v{u}"));
            vertex_nodes.push(v);
            // Private branch: p1 at depth u+n+2, then p nodes to depth 3n+2.
            b.open_element("p1");
            let p1_depth = u + n + 2;
            // Attach edge markers for targets t with host depth == p1_depth.
            attach_edges_at(&mut b, &edges, u, p1_depth, n);
            for depth in (p1_depth + 1)..=max_private_depth {
                b.open_element("p");
                attach_edges_at(&mut b, &edges, u, depth, n);
            }
            // close p chain + p1
            for _ in p1_depth..=max_private_depth {
                b.close_element();
            }
            b.close_element(); // v{u}
        }
    }
    // close the spine
    for _ in 1..=(2 * n) {
        b.close_element();
    }
    let document = b.finish();
    let target_node = vertex_nodes[target - 1];

    // -- query --------------------------------------------------------------
    let climb = 2 * n + 2;
    let descend = n + 2;
    let m = n; // number of edge blocks
    let mut steps: Vec<Step> = Vec::new();
    steps.push(Step::new(
        Axis::Descendant,
        NodeTest::name(format!("v{source}")),
    ));
    for _ in 0..m {
        steps.push(Step::new(Axis::Child, NodeTest::name("p1")));
        steps.push(Step::new(Axis::Descendant, NodeTest::name("e")));
        for _ in 0..climb {
            steps.push(Step::new(Axis::Parent, NodeTest::Star));
        }
        for i in 0..descend {
            if i + 1 == descend {
                steps.push(Step::new(Axis::Child, NodeTest::name("p1")));
            } else {
                steps.push(Step::new(Axis::Child, NodeTest::AnyNode));
            }
        }
        steps.push(Step::new(Axis::Parent, NodeTest::Star));
    }
    steps.push(Step::new(
        Axis::SelfAxis,
        NodeTest::name(format!("v{target}")),
    ));
    let query = Expr::Path(LocationPath::absolute(steps));

    PfReachabilityReduction {
        document,
        query,
        target_node,
        steps: m,
    }
}

/// Attaches the `e` markers that belong at private depth `host_depth` of the
/// block of vertex `u`: one for every edge `(u → t)` with `t + 2n + 1 ==
/// host_depth`.
fn attach_edges_at(
    b: &mut DocumentBuilder,
    edges: &HashSet<(usize, usize)>,
    u: usize,
    host_depth: usize,
    n: usize,
) {
    for t in 1..=n {
        if t + 2 * n + 1 == host_depth && edges.contains(&(u, t)) {
            b.leaf_element("e");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use xpeval_core::{CompiledQuery, EvalStrategy};
    use xpeval_syntax::{classify, Fragment};

    fn answer(red: &PfReachabilityReduction) -> bool {
        let result = CompiledQuery::from_expr(red.query.clone())
            .with_strategy(EvalStrategy::CoreXPathLinear)
            .run(&red.document)
            .unwrap()
            .value
            .into_nodes()
            .unwrap();
        assert!(result.len() <= 1, "query must select at most the target");
        if let Some(&node) = result.first() {
            assert_eq!(node, red.target_node);
        }
        !result.is_empty()
    }

    #[test]
    fn figure_5_example_graph() {
        // The 4-vertex graph of Figure 5(a): edges (read off the transposed
        // adjacency matrix in 5(b)): column j has a 1 in row i iff there is
        // an edge j → i; we use a concrete set consistent with the figure's
        // drawing: v1→v2, v2→v3, v3→v1, v3→v4, v4→v2 plus v1→v3.
        let mut g = DirectedGraph::new(4);
        for (u, t) in [(1, 2), (2, 3), (3, 1), (3, 4), (4, 2), (1, 3)] {
            g.add_edge(u, t);
        }
        for source in 1..=4 {
            for target in 1..=4 {
                let red = reachability_to_pf(&g, source, target);
                assert_eq!(
                    answer(&red),
                    g.reachable(source, target),
                    "{source} -> {target}"
                );
            }
        }
    }

    #[test]
    fn query_is_pf_without_conditions() {
        let mut g = DirectedGraph::new(3);
        g.add_edge(1, 2);
        let red = reachability_to_pf(&g, 1, 2);
        assert_eq!(classify(&red.query).fragment, Fragment::PF);
        // Not a single predicate anywhere.
        let mut predicates = 0;
        red.query.visit(&mut |e| {
            if let Expr::Path(p) = e {
                predicates += p.steps.iter().map(|s| s.predicates.len()).sum::<usize>();
            }
        });
        assert_eq!(predicates, 0);
    }

    #[test]
    fn disconnected_and_trivial_cases() {
        let g = DirectedGraph::new(3);
        // No edges: only trivial reachability.
        for s in 1..=3 {
            for t in 1..=3 {
                let red = reachability_to_pf(&g, s, t);
                assert_eq!(answer(&red), s == t, "{s}->{t}");
            }
        }
        // Single vertex graph.
        let g1 = DirectedGraph::new(1);
        let red = reachability_to_pf(&g1, 1, 1);
        assert!(answer(&red));
    }

    #[test]
    fn chain_and_cycle_graphs() {
        // Chain 1 → 2 → 3 → 4 → 5: reachable iff source ≤ target.
        let mut chain = DirectedGraph::new(5);
        for u in 1..5 {
            chain.add_edge(u, u + 1);
        }
        for s in 1..=5 {
            for t in 1..=5 {
                let red = reachability_to_pf(&chain, s, t);
                assert_eq!(answer(&red), s <= t, "{s}->{t}");
            }
        }
        // Directed cycle: everything reaches everything.
        let mut cycle = DirectedGraph::new(4);
        for u in 1..=4 {
            cycle.add_edge(u, u % 4 + 1);
        }
        for s in 1..=4 {
            for t in 1..=4 {
                assert!(answer(&reachability_to_pf(&cycle, s, t)));
            }
        }
    }

    #[test]
    fn random_graphs_agree_with_bfs() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..15 {
            let n = rng.gen_range(2..=6);
            let mut g = DirectedGraph::new(n);
            for u in 1..=n {
                for t in 1..=n {
                    if u != t && rng.gen_bool(0.25) {
                        g.add_edge(u, t);
                    }
                }
            }
            let s = rng.gen_range(1..=n);
            let t = rng.gen_range(1..=n);
            let red = reachability_to_pf(&g, s, t);
            assert_eq!(answer(&red), g.reachable(s, t), "n={n} {s}->{t} {g:?}");
            // The context-value-table machine agrees with the linear one
            // on the generated instance.
            let cvt = CompiledQuery::from_expr(red.query.clone())
                .with_strategy(EvalStrategy::ContextValueTable)
                .run(&red.document)
                .unwrap();
            assert_eq!(!cvt.value.expect_nodes().is_empty(), g.reachable(s, t));
        }
    }

    #[test]
    fn document_and_query_sizes_are_polynomial() {
        let mut g = DirectedGraph::new(10);
        for u in 1..=9 {
            g.add_edge(u, u + 1);
        }
        let red = reachability_to_pf(&g, 1, 10);
        // Document is O(n²), query is O(n²) steps.
        assert!(red.document.len() < 40 * 10 * 10);
        assert!(red.query.size() < 10 * (3 * 10 + 10));
        assert_eq!(red.steps, 10);
        assert!(answer(&red));
    }

    #[test]
    fn graph_helpers() {
        let mut g = DirectedGraph::new(3);
        assert_eq!(g.num_vertices(), 3);
        g.add_edge(1, 2);
        g.add_edge(1, 2);
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(2, 1));
        assert!(g.reachable(1, 1));
        assert!(g.reachable(1, 2));
        assert!(!g.reachable(2, 3));
        assert_eq!(g.edges().count(), 1);
    }

    #[test]
    #[should_panic(expected = "edge endpoints")]
    fn edge_bounds_are_checked() {
        DirectedGraph::new(2).add_edge(1, 5);
    }
}
