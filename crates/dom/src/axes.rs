//! XPath axes and node tests.
//!
//! All eleven axes used by Core XPath (Definition 2.5 of the paper) are
//! implemented, plus the `attribute` axis needed for full XPath queries.
//! Every iterator yields nodes in *document order*; for reverse axes
//! (`ancestor`, `ancestor-or-self`, `preceding`, `preceding-sibling`,
//! `parent`) the evaluators reverse the sequence when computing `position()`
//! — see [`Axis::is_reverse`].

use crate::node::{Document, NodeId, NodeKind};
use crate::prepared::TagId;

/// An XPath axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Axis {
    SelfAxis,
    Child,
    Parent,
    Descendant,
    DescendantOrSelf,
    Ancestor,
    AncestorOrSelf,
    Following,
    FollowingSibling,
    Preceding,
    PrecedingSibling,
    Attribute,
}

impl Axis {
    /// All axes allowed in Core XPath (Definition 2.5), in a stable order.
    pub const CORE: [Axis; 11] = [
        Axis::SelfAxis,
        Axis::Child,
        Axis::Parent,
        Axis::Descendant,
        Axis::DescendantOrSelf,
        Axis::Ancestor,
        Axis::AncestorOrSelf,
        Axis::Following,
        Axis::FollowingSibling,
        Axis::Preceding,
        Axis::PrecedingSibling,
    ];

    /// XPath name of the axis (`descendant-or-self`, ...).
    pub fn name(self) -> &'static str {
        match self {
            Axis::SelfAxis => "self",
            Axis::Child => "child",
            Axis::Parent => "parent",
            Axis::Descendant => "descendant",
            Axis::DescendantOrSelf => "descendant-or-self",
            Axis::Ancestor => "ancestor",
            Axis::AncestorOrSelf => "ancestor-or-self",
            Axis::Following => "following",
            Axis::FollowingSibling => "following-sibling",
            Axis::Preceding => "preceding",
            Axis::PrecedingSibling => "preceding-sibling",
            Axis::Attribute => "attribute",
        }
    }

    /// Parses an axis name.
    pub fn from_name(name: &str) -> Option<Axis> {
        Some(match name {
            "self" => Axis::SelfAxis,
            "child" => Axis::Child,
            "parent" => Axis::Parent,
            "descendant" => Axis::Descendant,
            "descendant-or-self" => Axis::DescendantOrSelf,
            "ancestor" => Axis::Ancestor,
            "ancestor-or-self" => Axis::AncestorOrSelf,
            "following" => Axis::Following,
            "following-sibling" => Axis::FollowingSibling,
            "preceding" => Axis::Preceding,
            "preceding-sibling" => Axis::PrecedingSibling,
            "attribute" => Axis::Attribute,
            _ => return None,
        })
    }

    /// True for the reverse axes of the XPath 1.0 specification: for these,
    /// `position()` counts backwards in document order.
    pub fn is_reverse(self) -> bool {
        matches!(
            self,
            Axis::Ancestor
                | Axis::AncestorOrSelf
                | Axis::Preceding
                | Axis::PrecedingSibling
                | Axis::Parent
        )
    }

    /// The inverse axis (`child` ↔ `parent`, `descendant` ↔ `ancestor`, ...).
    ///
    /// The linear-time Core XPath evaluator uses inverses to turn predicate
    /// filters ("nodes from which a path matches") into forward image
    /// computations, which is what keeps it O(|D|·|Q|).
    pub fn inverse(self) -> Axis {
        match self {
            Axis::SelfAxis => Axis::SelfAxis,
            Axis::Child => Axis::Parent,
            Axis::Parent => Axis::Child,
            Axis::Descendant => Axis::Ancestor,
            Axis::DescendantOrSelf => Axis::AncestorOrSelf,
            Axis::Ancestor => Axis::Descendant,
            Axis::AncestorOrSelf => Axis::DescendantOrSelf,
            Axis::Following => Axis::Preceding,
            Axis::FollowingSibling => Axis::PrecedingSibling,
            Axis::Preceding => Axis::Following,
            Axis::PrecedingSibling => Axis::FollowingSibling,
            Axis::Attribute => Axis::Parent,
        }
    }

    /// The *principal node type* of the axis: elements for every axis except
    /// `attribute` (XPath 1.0 §2.3).  A name or `*` node test only matches
    /// nodes of the principal type.
    pub fn principal_is_attribute(self) -> bool {
        matches!(self, Axis::Attribute)
    }
}

impl std::fmt::Display for Axis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An XPath node test ("ntst" in the paper's grammar).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum NodeTest {
    /// A tag name test, e.g. `child::a`.
    Name(String),
    /// A tag name test pre-resolved against one document's interned tag
    /// table ([`crate::AxisSource::resolve_tag`]).  Plan specialization
    /// rewrites element-principal `Name` tests to this form so that
    /// evaluation against the specializing document never hashes the tag
    /// string; `id == None` records that the tag was absent at
    /// specialization time.  The name is kept so the test still matches
    /// correctly (by string) when the plan is run against an unindexed or
    /// different source.
    Resolved {
        /// The original tag name.
        name: String,
        /// The tag's interned id in the specializing document, or `None`
        /// when no element carried the tag.
        id: Option<TagId>,
    },
    /// The star test `*`: matches every node of the axis' principal type.
    Star,
    /// `node()`: matches every node.
    AnyNode,
    /// `text()`: matches text nodes.
    Text,
}

impl NodeTest {
    /// Convenience constructor for a name test.
    pub fn name(n: impl Into<String>) -> Self {
        NodeTest::Name(n.into())
    }
}

impl std::fmt::Display for NodeTest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeTest::Name(n) => f.write_str(n),
            NodeTest::Resolved { name, .. } => f.write_str(name),
            NodeTest::Star => f.write_str("*"),
            NodeTest::AnyNode => f.write_str("node()"),
            NodeTest::Text => f.write_str("text()"),
        }
    }
}

impl Document {
    /// Does node `n` match node test `test` when reached through an axis
    /// whose principal node type is elements?
    pub fn matches(&self, n: NodeId, test: &NodeTest) -> bool {
        self.matches_on_axis(n, test, Axis::Child)
    }

    /// Node test matching, taking the axis' principal node type into account
    /// (a `*` on the attribute axis matches attribute nodes, not elements).
    pub fn matches_on_axis(&self, n: NodeId, test: &NodeTest, axis: Axis) -> bool {
        let kind = self.kind(n);
        match test {
            NodeTest::AnyNode => true,
            NodeTest::Text => kind.is_text(),
            NodeTest::Star => {
                if axis.principal_is_attribute() {
                    kind.is_attribute()
                } else {
                    kind.is_element()
                }
            }
            // A resolved test matches by string here: the string form is
            // what stays correct when the test is evaluated against a
            // source other than the one it was resolved for.
            NodeTest::Name(name) | NodeTest::Resolved { name, .. } => {
                if axis.principal_is_attribute() {
                    matches!(kind, NodeKind::Attribute { name: n2, .. } if &**n2 == name)
                } else {
                    matches!(kind, NodeKind::Element { name: n2 } if &**n2 == name)
                }
            }
        }
    }

    /// Returns the nodes reachable from `n` via `axis`, in document order,
    /// as a freshly allocated vector.  This is the convenience form of
    /// [`Document::axis_iter`].
    pub fn axis_nodes(&self, n: NodeId, axis: Axis) -> Vec<NodeId> {
        self.axis_iter(n, axis).collect()
    }

    /// Iterator over the nodes reachable from `n` via `axis` in document
    /// order.
    pub fn axis_iter(&self, n: NodeId, axis: Axis) -> AxisIter<'_> {
        AxisIter::new(self, n, axis)
    }

    /// Nodes reachable from `n` via `axis` that match `test`, in document
    /// order.
    pub fn axis_step(&self, n: NodeId, axis: Axis, test: &NodeTest) -> Vec<NodeId> {
        crate::AxisSource::axis_step(self, n, axis, test)
    }

    /// True if `anc` is an ancestor of `desc` (strict).
    pub fn is_ancestor_of(&self, anc: NodeId, desc: NodeId) -> bool {
        // Constant-time via the pre/post ordering keys: anc contains desc
        // iff pre(anc) < pre(desc) and post(desc) < post(anc).  Attribute
        // nodes carry the degenerate interval post == pre, so they can
        // never contain anything; the explicit guard keeps that invariant
        // obvious (and robust) rather than load-bearing.
        anc != desc
            && !self.kind(anc).is_attribute()
            && self.pre(anc) < self.pre(desc)
            && self.post(desc) < self.post(anc)
    }

    /// True if `a` equals `b` or is an ancestor of `b`.
    pub fn is_ancestor_or_self_of(&self, a: NodeId, b: NodeId) -> bool {
        a == b || self.is_ancestor_of(a, b)
    }
}

/// State machine iterator over a single axis.
pub struct AxisIter<'d> {
    doc: &'d Document,
    state: IterState<'d>,
}

enum IterState<'d> {
    Done,
    /// Yield this single node, then stop.
    Single(NodeId),
    /// Walk the ancestor chain upwards from the given node (inclusive).
    /// Collected eagerly because ancestors must be produced in document
    /// order (root first).
    Seq(std::vec::IntoIter<NodeId>),
    /// The owner's attribute list, walked where the document keeps it.
    Attributes(std::slice::Iter<'d, NodeId>),
    /// Children: current candidate.
    Sibling(Option<NodeId>),
    /// Descendant traversal bounded by `stop` (exclusive subtree walk).
    Descend {
        next: Option<NodeId>,
        stop: NodeId,
    },
    /// Following: walk in document order from a start node to the end.
    Following {
        next: Option<NodeId>,
    },
}

impl<'d> AxisIter<'d> {
    fn new(doc: &'d Document, n: NodeId, axis: Axis) -> Self {
        let state = match axis {
            Axis::SelfAxis => IterState::Single(n),
            Axis::Parent => match doc.parent(n) {
                Some(p) => IterState::Single(p),
                None => IterState::Done,
            },
            Axis::Child => IterState::Sibling(doc.first_child(n)),
            Axis::FollowingSibling => IterState::Sibling(doc.next_sibling(n)),
            Axis::Attribute => IterState::Attributes(doc.attributes(n).iter()),
            Axis::Descendant => IterState::Descend {
                next: first_in_subtree_excluding_root(doc, n),
                stop: n,
            },
            Axis::DescendantOrSelf => IterState::Descend {
                next: Some(n),
                stop: n,
            },
            Axis::Ancestor => {
                let mut v = ancestors(doc, n, false);
                v.reverse();
                IterState::Seq(v.into_iter())
            }
            Axis::AncestorOrSelf => {
                let mut v = ancestors(doc, n, true);
                v.reverse();
                IterState::Seq(v.into_iter())
            }
            Axis::PrecedingSibling => {
                let mut v = Vec::new();
                let mut s = doc.prev_sibling(n);
                while let Some(x) = s {
                    v.push(x);
                    s = doc.prev_sibling(x);
                }
                v.reverse();
                IterState::Seq(v.into_iter())
            }
            Axis::Preceding => {
                // Nodes strictly before n in document order that are not
                // ancestors of n (and not attribute nodes).
                let mut v: Vec<NodeId> = Vec::new();
                for m in doc.all_nodes() {
                    if doc.pre(m) < doc.pre(n)
                        && m != doc.root()
                        && !doc.kind(m).is_attribute()
                        && !doc.is_ancestor_or_self_of(m, n)
                    {
                        v.push(m);
                    }
                }
                v.sort_by_key(|&m| doc.pre(m));
                IterState::Seq(v.into_iter())
            }
            Axis::Following => {
                // First node after the subtree of n in document order.
                IterState::Following {
                    next: next_after_subtree(doc, n),
                }
            }
        };
        AxisIter { doc, state }
    }
}

/// First node of the subtree of `n` excluding `n` itself (i.e. its first
/// child), if any.
fn first_in_subtree_excluding_root(doc: &Document, n: NodeId) -> Option<NodeId> {
    doc.first_child(n)
}

/// The node that follows the whole subtree rooted at `n` in document order
/// (skipping attribute nodes).
fn next_after_subtree(doc: &Document, n: NodeId) -> Option<NodeId> {
    let mut cur = n;
    loop {
        if let Some(s) = doc.next_sibling(cur) {
            return Some(s);
        }
        cur = doc.parent(cur)?;
    }
}

/// Next node in document order within the subtree below `stop`, or `None`
/// when the subtree is exhausted.  Attribute nodes are not part of the
/// child/descendant axes and are skipped implicitly because they are not in
/// the sibling chains.
fn next_in_subtree(doc: &Document, cur: NodeId, stop: NodeId) -> Option<NodeId> {
    if let Some(c) = doc.first_child(cur) {
        return Some(c);
    }
    let mut node = cur;
    loop {
        if node == stop {
            return None;
        }
        if let Some(s) = doc.next_sibling(node) {
            return Some(s);
        }
        node = doc.parent(node)?;
    }
}

fn ancestors(doc: &Document, n: NodeId, include_self: bool) -> Vec<NodeId> {
    let mut v = Vec::new();
    if include_self {
        v.push(n);
    }
    let mut cur = doc.parent(n);
    while let Some(p) = cur {
        v.push(p);
        cur = doc.parent(p);
    }
    v
}

impl<'d> Iterator for AxisIter<'d> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        match &mut self.state {
            IterState::Done => None,
            IterState::Single(n) => {
                let n = *n;
                self.state = IterState::Done;
                Some(n)
            }
            IterState::Seq(it) => it.next(),
            IterState::Attributes(it) => it.next().copied(),
            IterState::Sibling(cur) => {
                let n = (*cur)?;
                *cur = self.doc.next_sibling(n);
                Some(n)
            }
            IterState::Descend { next, stop } => {
                let n = (*next)?;
                *next = next_in_subtree(self.doc, n, *stop);
                Some(n)
            }
            IterState::Following { next } => {
                let n = (*next)?;
                // Document-order successor, never leaving the document.
                *next = if let Some(c) = self.doc.first_child(n) {
                    Some(c)
                } else {
                    let mut cur = n;
                    loop {
                        if let Some(s) = self.doc.next_sibling(cur) {
                            break Some(s);
                        }
                        match self.doc.parent(cur) {
                            Some(p) => cur = p,
                            None => break None,
                        }
                    }
                };
                Some(n)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DocumentBuilder;

    /// Builds the tree
    /// ```text
    ///            root
    ///             a
    ///        b         c
    ///      d   e     f
    /// ```
    fn sample() -> (Document, Vec<NodeId>) {
        let mut bld = DocumentBuilder::new();
        let a = bld.open_element("a");
        let b = bld.open_element("b");
        let d = bld.leaf_element("d");
        let e = bld.leaf_element("e");
        bld.close_element();
        let c = bld.open_element("c");
        let f = bld.leaf_element("f");
        bld.close_element();
        bld.close_element();
        let doc = bld.finish();
        (doc, vec![a, b, c, d, e, f])
    }

    fn names(doc: &Document, nodes: &[NodeId]) -> Vec<String> {
        nodes
            .iter()
            .map(|&n| doc.name(n).unwrap_or("#root").to_string())
            .collect()
    }

    #[test]
    fn child_axis() {
        let (doc, ids) = sample();
        let a = ids[0];
        assert_eq!(names(&doc, &doc.axis_nodes(a, Axis::Child)), ["b", "c"]);
        assert_eq!(names(&doc, &doc.axis_nodes(doc.root(), Axis::Child)), ["a"]);
    }

    #[test]
    fn descendant_axes_are_document_ordered() {
        let (doc, ids) = sample();
        let a = ids[0];
        assert_eq!(
            names(&doc, &doc.axis_nodes(a, Axis::Descendant)),
            ["b", "d", "e", "c", "f"]
        );
        assert_eq!(
            names(&doc, &doc.axis_nodes(a, Axis::DescendantOrSelf)),
            ["a", "b", "d", "e", "c", "f"]
        );
        assert_eq!(
            names(&doc, &doc.axis_nodes(doc.root(), Axis::DescendantOrSelf)),
            ["#root", "a", "b", "d", "e", "c", "f"]
        );
    }

    #[test]
    fn ancestor_axes() {
        let (doc, ids) = sample();
        let d = ids[3];
        assert_eq!(
            names(&doc, &doc.axis_nodes(d, Axis::Ancestor)),
            ["#root", "a", "b"]
        );
        assert_eq!(
            names(&doc, &doc.axis_nodes(d, Axis::AncestorOrSelf)),
            ["#root", "a", "b", "d"]
        );
        assert!(doc.axis_nodes(doc.root(), Axis::Ancestor).is_empty());
        assert_eq!(
            doc.axis_nodes(doc.root(), Axis::AncestorOrSelf),
            vec![doc.root()]
        );
    }

    #[test]
    fn parent_and_self() {
        let (doc, ids) = sample();
        let (a, b) = (ids[0], ids[1]);
        assert_eq!(doc.axis_nodes(b, Axis::Parent), vec![a]);
        assert_eq!(doc.axis_nodes(b, Axis::SelfAxis), vec![b]);
        assert!(doc.axis_nodes(doc.root(), Axis::Parent).is_empty());
    }

    #[test]
    fn sibling_axes() {
        let (doc, ids) = sample();
        let (b, c, d, e) = (ids[1], ids[2], ids[3], ids[4]);
        assert_eq!(doc.axis_nodes(b, Axis::FollowingSibling), vec![c]);
        assert_eq!(doc.axis_nodes(c, Axis::PrecedingSibling), vec![b]);
        assert_eq!(doc.axis_nodes(e, Axis::PrecedingSibling), vec![d]);
        assert!(doc.axis_nodes(c, Axis::FollowingSibling).is_empty());
    }

    #[test]
    fn following_and_preceding() {
        let (doc, ids) = sample();
        let (b, c, d, e, f) = (ids[1], ids[2], ids[3], ids[4], ids[5]);
        // following(b) = everything after b's subtree: c, f
        assert_eq!(doc.axis_nodes(b, Axis::Following), vec![c, f]);
        // following(d) = e, c, f
        assert_eq!(doc.axis_nodes(d, Axis::Following), vec![e, c, f]);
        // preceding(c) = b, d, e (a is an ancestor, excluded)
        assert_eq!(doc.axis_nodes(c, Axis::Preceding), vec![b, d, e]);
        // preceding(f) = b, d, e
        assert_eq!(doc.axis_nodes(f, Axis::Preceding), vec![b, d, e]);
        assert!(doc.axis_nodes(f, Axis::Following).is_empty());
    }

    #[test]
    fn following_preceding_partition_document() {
        // For every node n: {n} ∪ ancestors ∪ descendants ∪ following ∪
        // preceding = all non-attribute nodes (XPath 1.0 §2.2).
        let (doc, ids) = sample();
        for &n in &ids {
            let mut all: Vec<NodeId> = vec![n];
            all.extend(doc.axis_nodes(n, Axis::Ancestor));
            all.extend(doc.axis_nodes(n, Axis::Descendant));
            all.extend(doc.axis_nodes(n, Axis::Following));
            all.extend(doc.axis_nodes(n, Axis::Preceding));
            all.sort();
            all.dedup();
            assert_eq!(all.len(), doc.len(), "partition failed for {n:?}");
        }
    }

    #[test]
    fn attribute_axis_and_node_tests() {
        let mut b = DocumentBuilder::new();
        b.open_element("x");
        b.attribute("id", "1");
        b.attribute("class", "c");
        b.text("hi");
        b.close_element();
        let doc = b.finish();
        let x = doc.first_child(doc.root()).unwrap();
        let attrs = doc.axis_nodes(x, Axis::Attribute);
        assert_eq!(attrs.len(), 2);
        assert!(doc.matches_on_axis(attrs[0], &NodeTest::name("id"), Axis::Attribute));
        assert!(doc.matches_on_axis(attrs[0], &NodeTest::Star, Axis::Attribute));
        assert!(!doc.matches_on_axis(attrs[0], &NodeTest::Star, Axis::Child));
        // text() matches the text child on the child axis
        let kids = doc.axis_nodes(x, Axis::Child);
        assert_eq!(kids.len(), 1);
        assert!(doc.matches_on_axis(kids[0], &NodeTest::Text, Axis::Child));
        assert!(doc.matches_on_axis(kids[0], &NodeTest::AnyNode, Axis::Child));
        assert!(!doc.matches_on_axis(kids[0], &NodeTest::Star, Axis::Child));
    }

    #[test]
    fn axis_step_filters_by_name() {
        let (doc, ids) = sample();
        let a = ids[0];
        let res = doc.axis_step(a, Axis::Descendant, &NodeTest::name("d"));
        assert_eq!(res, vec![ids[3]]);
        let res = doc.axis_step(a, Axis::Descendant, &NodeTest::Star);
        assert_eq!(res.len(), 5);
    }

    #[test]
    fn inverse_axis_roundtrip() {
        for axis in Axis::CORE {
            assert_eq!(axis.inverse().inverse(), axis);
        }
        assert_eq!(Axis::Child.inverse(), Axis::Parent);
        assert_eq!(Axis::Descendant.inverse(), Axis::Ancestor);
        assert_eq!(Axis::Following.inverse(), Axis::Preceding);
    }

    #[test]
    fn inverse_axis_semantics() {
        // m ∈ axis(n)  ⟺  n ∈ inverse(axis)(m), for all core axes.
        let (doc, _) = sample();
        let nodes: Vec<NodeId> = doc.all_nodes().collect();
        for axis in Axis::CORE {
            for &n in &nodes {
                for &m in &nodes {
                    let fwd = doc.axis_nodes(n, axis).contains(&m);
                    let bwd = doc.axis_nodes(m, axis.inverse()).contains(&n);
                    assert_eq!(fwd, bwd, "axis {axis} at {n:?},{m:?}");
                }
            }
        }
    }

    #[test]
    fn axis_names_roundtrip() {
        for axis in Axis::CORE.into_iter().chain([Axis::Attribute]) {
            assert_eq!(Axis::from_name(axis.name()), Some(axis));
        }
        assert_eq!(Axis::from_name("bogus"), None);
    }

    #[test]
    fn is_reverse_classification() {
        assert!(Axis::Ancestor.is_reverse());
        assert!(Axis::PrecedingSibling.is_reverse());
        assert!(Axis::Preceding.is_reverse());
        assert!(!Axis::Child.is_reverse());
        assert!(!Axis::Following.is_reverse());
        assert!(!Axis::DescendantOrSelf.is_reverse());
    }

    #[test]
    fn ancestorship_via_pre_post() {
        let (doc, ids) = sample();
        let (a, b, c, d) = (ids[0], ids[1], ids[2], ids[3]);
        assert!(doc.is_ancestor_of(a, d));
        assert!(doc.is_ancestor_of(doc.root(), d));
        assert!(!doc.is_ancestor_of(d, a));
        assert!(!doc.is_ancestor_of(b, c));
        assert!(!doc.is_ancestor_of(a, a));
        assert!(doc.is_ancestor_or_self_of(a, a));
    }

    #[test]
    fn attributes_are_never_ancestors() {
        let mut b = DocumentBuilder::new();
        b.open_element("e");
        b.attribute("k", "v");
        b.leaf_element("c");
        b.close_element();
        let doc = b.finish();
        let e = doc.first_child(doc.root()).unwrap();
        let c = doc.first_child(e).unwrap();
        let attr = doc.attributes(e)[0];
        // The attribute's degenerate [pre, post] interval sits between its
        // owner's entry key and its owner's children; it contains nothing.
        assert!(!doc.is_ancestor_of(attr, c));
        assert!(doc.is_ancestor_of(e, attr));
        assert!(doc.is_ancestor_of(doc.root(), attr));
    }
}
