//! Node-set primitives shared by the plan-IR machines.
//!
//! Plain data and free functions, no evaluator state: [`NodeBitSet`] (a set
//! of document nodes as a bitset over arena indices), the set-at-a-time
//! axis image and node-test set the linear machine is built from
//! (Proposition 2.7: one O(|D|) image per location step, negation as bitset
//! complement), and the sorted-vector set operators and node comparison the
//! tree-walk machines share.  Everything reads the document through an
//! [`AxisSource`], so a [`xpeval_dom::PreparedDocument`] answers name tests
//! from its tag index and subtree ends from its interval table.

use xpeval_dom::{Axis, AxisSource, Document, NodeId, NodeTest};
use xpeval_syntax::NodeCompOp;

/// A set of document nodes represented as a bitset over arena indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeBitSet {
    words: Vec<u64>,
    len: usize,
}

impl NodeBitSet {
    /// Empty set over a universe of `len` nodes.
    pub fn empty(len: usize) -> Self {
        NodeBitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Full set over a universe of `len` nodes.
    pub fn full(len: usize) -> Self {
        let mut s = NodeBitSet {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        s.clear_beyond_universe();
        s
    }

    /// Singleton set.
    pub fn singleton(len: usize, node: NodeId) -> Self {
        let mut s = Self::empty(len);
        s.insert(node);
        s
    }

    #[inline]
    fn insert_index(&mut self, ix: usize) {
        self.words[ix / 64] |= 1 << (ix % 64);
    }

    /// Inserts a node.
    #[inline]
    pub fn insert(&mut self, node: NodeId) {
        self.insert_index(node.index());
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        let ix = node.index();
        ix < self.len && (self.words[ix / 64] >> (ix % 64)) & 1 == 1
    }

    /// Number of nodes in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no node is in the set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &NodeBitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &NodeBitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place complement relative to the universe.
    pub fn complement(&mut self) {
        for w in self.words.iter_mut() {
            *w = !*w;
        }
        self.clear_beyond_universe();
    }

    fn clear_beyond_universe(&mut self) {
        let excess = self.words.len() * 64 - self.len;
        if excess > 0 {
            let last = self.words.len() - 1;
            self.words[last] &= u64::MAX >> excess;
        }
    }

    /// The member nodes in arena-index order.
    pub fn iter_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        // Word by word, lowest set bit first: empty words cost one compare.
        // (No bit beyond the universe is ever set.)
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    NodeId::from_index(w * 64 + bit)
                })
            })
        })
    }
}

/// All nodes matching a node test (taking the axis' principal node type
/// into account).
pub(crate) fn test_set<S: AxisSource + ?Sized>(src: &S, test: &NodeTest, axis: Axis) -> NodeBitSet {
    let doc = src.document();
    let n = doc.len();
    // Indexed fast path: a tag-name test on an element-principal axis
    // is exactly the tag index — no per-node string comparison.  A
    // pre-resolved test skips even the one string hash.
    if !axis.principal_is_attribute() {
        let indexed = match test {
            NodeTest::Name(name) => Some(src.elements_named(name)),
            NodeTest::Resolved { id: Some(id), .. } => Some(src.elements_by_tag(*id)),
            // Resolved-absent still carries the name so evaluation stays
            // correct on sources other than the one it resolved against.
            NodeTest::Resolved { name, id: None } => Some(src.elements_named(name)),
            _ => None,
        };
        if let Some(Some(elements)) = indexed {
            let mut s = NodeBitSet::empty(n);
            for &node in elements {
                s.insert(node);
            }
            return s;
        }
    }
    let mut s = NodeBitSet::empty(n);
    for node in doc.all_nodes() {
        if doc.matches_on_axis(node, test, axis) {
            s.insert(node);
        }
    }
    s
}

/// Image of a node set under an axis relation, computed in O(|D|).  `order`
/// is the source's document-order table ([`AxisSource::document_order`]),
/// fetched once by the caller and reused for every image.
pub(crate) fn axis_image<S: AxisSource + ?Sized>(
    src: &S,
    order: &[NodeId],
    axis: Axis,
    s: &NodeBitSet,
) -> NodeBitSet {
    let doc = src.document();
    let mut out = NodeBitSet::empty(s.len);
    match axis {
        Axis::SelfAxis => out = s.clone(),
        Axis::Child => {
            for node in s.iter_nodes() {
                let mut c = doc.first_child(node);
                while let Some(ch) = c {
                    out.insert(ch);
                    c = doc.next_sibling(ch);
                }
            }
        }
        Axis::Parent => {
            for node in s.iter_nodes() {
                if let Some(p) = doc.parent(node) {
                    out.insert(p);
                }
            }
        }
        Axis::Attribute => {
            for node in s.iter_nodes() {
                for &a in doc.attributes(node) {
                    out.insert(a);
                }
            }
        }
        Axis::Descendant | Axis::DescendantOrSelf => {
            // Preorder sweep: a node is in the image iff its parent is in
            // S or already in the image.  Attribute nodes have a parent but
            // are nobody's descendants.
            for &node in order.iter() {
                if doc.kind(node).is_attribute() {
                    continue;
                }
                if let Some(p) = doc.parent(node) {
                    if s.contains(p) || out.contains(p) {
                        out.insert(node);
                    }
                }
            }
            if axis == Axis::DescendantOrSelf {
                out.union_with(s);
            }
        }
        Axis::Ancestor | Axis::AncestorOrSelf => {
            // Reverse preorder sweep: a node is in the image iff one of
            // its children is in S or in the image.
            for &node in order.iter().rev() {
                if let Some(p) = doc.parent(node) {
                    if s.contains(node) || out.contains(node) {
                        out.insert(p);
                    }
                }
            }
            if axis == Axis::AncestorOrSelf {
                out.union_with(s);
            }
        }
        Axis::FollowingSibling => {
            // Document-order sweep along sibling chains.
            for &node in order.iter() {
                if let Some(prev) = doc.prev_sibling(node) {
                    if s.contains(prev) || out.contains(prev) {
                        out.insert(node);
                    }
                }
            }
        }
        Axis::PrecedingSibling => {
            for &node in order.iter().rev() {
                if let Some(next) = doc.next_sibling(node) {
                    if s.contains(next) || out.contains(next) {
                        out.insert(node);
                    }
                }
            }
        }
        Axis::Following => {
            // v is following of some u ∈ S iff pre(v) >= min over u of
            // the end of u's subtree interval (the pre of the first node
            // after the subtree).  The prepared index answers the
            // interval end in O(1); the fallback walks sibling/parent
            // links.
            let mut min_start = u32::MAX;
            for u in s.iter_nodes() {
                min_start = min_start.min(subtree_end_of(src, owner_element(doc, u)));
            }
            if min_start != u32::MAX {
                // Preorder keys are gapped, so locate the complement
                // range in the document-order table by binary search.
                let lo = order.partition_point(|&m| doc.pre(m) < min_start);
                for &node in &order[lo..] {
                    if !doc.kind(node).is_attribute() {
                        out.insert(node);
                    }
                }
            }
        }
        Axis::Preceding => {
            // v precedes some u ∈ S iff u is following of v, i.e. iff
            // the end of v's subtree interval is <= max over u of pre(u).
            // Only nodes with pre < max_pre can satisfy that, so the
            // sweep is one range scan of the document order.
            let mut max_pre = None;
            for u in s.iter_nodes() {
                let pre = doc.pre(owner_element(doc, u));
                max_pre = Some(max_pre.map_or(pre, |m: u32| m.max(pre)));
            }
            if let Some(max_pre) = max_pre {
                let hi = order.partition_point(|&m| doc.pre(m) < max_pre);
                for &node in &order[..hi] {
                    if doc.kind(node).is_attribute() {
                        continue;
                    }
                    if subtree_end_of(src, node) <= max_pre {
                        out.insert(node);
                    }
                }
            }
        }
    }
    out
}

/// Pre-image of a node set under an axis relation — the nodes from which
/// `axis` reaches a member of `t` — in O(|D|).  It is the image under
/// [`Axis::inverse`] except around attribute nodes, where the axes are not
/// symmetric: an attribute has a parent, ancestors and its owner's
/// `following`/`preceding` nodes, yet is nobody's child, descendant, sibling,
/// `following` or `preceding` node.
pub(crate) fn axis_preimage<S: AxisSource + ?Sized>(
    src: &S,
    order: &[NodeId],
    axis: Axis,
    t: &NodeBitSet,
) -> NodeBitSet {
    if axis == Axis::SelfAxis {
        return t.clone();
    }
    let doc = src.document();
    // What the axis can arrive at: attribute nodes through `attribute`,
    // every other kind through the rest (the self half of the `-or-self`
    // axes is added at the end).
    let mut reached = NodeBitSet::empty(t.len);
    for node in t.iter_nodes() {
        if doc.kind(node).is_attribute() == axis.principal_is_attribute() {
            reached.insert(node);
        }
    }
    let mut out = axis_image(src, order, axis.inverse(), &reached);
    // An attribute node departs along these axes as its owner element does
    // (`parent` and `ancestor` arrive at the owner itself first).
    let owners = match axis {
        Axis::Parent => Some(reached),
        Axis::Ancestor => {
            reached.union_with(&out);
            Some(reached)
        }
        Axis::AncestorOrSelf | Axis::Following | Axis::Preceding => Some(out.clone()),
        _ => None,
    };
    for owner in owners.iter().flat_map(NodeBitSet::iter_nodes) {
        for &a in doc.attributes(owner) {
            out.insert(a);
        }
    }
    if matches!(axis, Axis::DescendantOrSelf | Axis::AncestorOrSelf) {
        out.union_with(t);
    }
    out
}

/// The node whose `following`/`preceding` nodes are `n`'s: an attribute
/// sits between its owner element's start tag and that element's first
/// child, and neither axis contains attributes or ancestors, so it sees
/// exactly what its owner sees ([`Document::axis_iter`] agrees).
fn owner_element(doc: &Document, n: NodeId) -> NodeId {
    match doc.parent(n) {
        Some(owner) if doc.kind(n).is_attribute() => owner,
        _ => n,
    }
}

/// Exclusive end of `n`'s preorder subtree interval in key space: from
/// the prepared index when available, otherwise the preorder key of the
/// first node after the subtree (no node's key falls in the gap between
/// a subtree's exit key and that node, so both bounds separate the same
/// node sets; `u32::MAX` when nothing follows).
fn subtree_end_of<S: AxisSource + ?Sized>(src: &S, n: NodeId) -> u32 {
    if let Some((_, end)) = src.subtree_interval(n) {
        return end;
    }
    let doc = src.document();
    first_following(doc, n).map_or(u32::MAX, |f| doc.pre(f))
}

/// First node following the whole subtree of `n` in document order.
fn first_following(doc: &Document, n: NodeId) -> Option<NodeId> {
    let mut cur = n;
    loop {
        if let Some(s) = doc.next_sibling(cur) {
            return Some(s);
        }
        cur = doc.parent(cur)?;
    }
}

/// Node-set intersection, in document order.
pub(crate) fn set_intersect(doc: &Document, left: Vec<NodeId>, right: Vec<NodeId>) -> Vec<NodeId> {
    merge(doc, left, right, true)
}

/// Node-set difference, in document order.
pub(crate) fn set_except(doc: &Document, left: Vec<NodeId>, right: Vec<NodeId>) -> Vec<NodeId> {
    merge(doc, left, right, false)
}

/// The members of `left` that are (`in_right`) or are not in `right`, by one
/// merge on preorder ranks: O(|left| + |right|).  The operands are node sets
/// in document order already, unless one came from a variable binding or a
/// registered function, which this puts in order first.
fn merge(
    doc: &Document,
    mut left: Vec<NodeId>,
    mut right: Vec<NodeId>,
    in_right: bool,
) -> Vec<NodeId> {
    for side in [&mut left, &mut right] {
        if !side.windows(2).all(|w| doc.pre(w[0]) < doc.pre(w[1])) {
            doc.sort_document_order(side);
        }
    }
    let mut rest = right.iter().map(|&n| doc.pre(n)).peekable();
    left.retain(|&n| {
        let pre = doc.pre(n);
        while rest.next_if(|&r| r < pre).is_some() {}
        (rest.peek() == Some(&pre)) == in_right
    });
    left
}

/// The engine's node-comparison semantics: compare the first node in
/// document order of each (already sorted) operand set by preorder rank; an
/// empty operand never compares true.
pub(crate) fn node_compare(
    op: NodeCompOp,
    doc: &Document,
    left: &[NodeId],
    right: &[NodeId],
) -> bool {
    match (left.first(), right.first()) {
        (Some(&l), Some(&r)) => op.apply(doc.pre(l), doc.pre(r)),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpeval_dom::{parse_xml, PreparedDocument};

    #[test]
    fn images_and_preimages_are_the_axis_relation() {
        // Against `Document::axis_iter`, node by node, on a document with
        // attribute and text nodes: the image of {n} is axis(n), the
        // pre-image of {m} is every n with m in axis(n).
        let xml = r#"<r x="1"><a x="1" y="2"><b x="2">t<c/></b><b/>u</a><a><b><a z="7"/></b><d/></a>v</r>"#;
        let doc = parse_xml(xml).unwrap();
        let prepared = PreparedDocument::new(doc.clone());
        let nodes: Vec<NodeId> = doc.all_nodes().collect();
        fn members(set: &NodeBitSet) -> Vec<NodeId> {
            set.iter_nodes().collect()
        }
        fn check<S: AxisSource + ?Sized>(src: &S, nodes: &[NodeId]) {
            let doc = src.document();
            let order = src.document_order();
            let axes = Axis::CORE.into_iter().chain([Axis::Attribute]);
            for axis in axes {
                for &n in nodes {
                    let one = NodeBitSet::singleton(doc.len(), n);
                    let mut reached = doc.axis_nodes(n, axis);
                    reached.sort_by_key(|m| m.index());
                    assert_eq!(
                        members(&axis_image(src, &order, axis, &one)),
                        reached,
                        "{axis} from {n:?}"
                    );
                    let reaching: Vec<NodeId> = nodes
                        .iter()
                        .copied()
                        .filter(|&m| doc.axis_nodes(m, axis).contains(&n))
                        .collect();
                    assert_eq!(
                        members(&axis_preimage(src, &order, axis, &one)),
                        reaching,
                        "{axis} to {n:?}"
                    );
                }
                // The whole document at once: every node the axis leaves from.
                let departing: Vec<NodeId> = nodes
                    .iter()
                    .copied()
                    .filter(|&m| !doc.axis_nodes(m, axis).is_empty())
                    .collect();
                let all = NodeBitSet::full(doc.len());
                assert_eq!(
                    members(&axis_preimage(src, &order, axis, &all)),
                    departing,
                    "{axis} to anything"
                );
            }
        }
        check(&doc, &nodes);
        check(&prepared, &nodes);
    }

    #[test]
    fn set_operators_merge_in_document_order() {
        let doc = parse_xml("<r><a/><b/><c/><d/><e/></r>").unwrap();
        let [_, r, a, b, c, d, e] = doc.document_order()[..] else {
            unreachable!()
        };
        assert_eq!(set_intersect(&doc, vec![a, b, d], vec![b, c, d, e]), [b, d]);
        assert_eq!(set_except(&doc, vec![a, b, d], vec![b, c, d, e]), [a]);
        assert_eq!(set_intersect(&doc, vec![r, a], vec![b, c]), []);
        assert_eq!(set_except(&doc, vec![r, a], vec![]), [r, a]);
        // A node set from a binding need not be in order, nor duplicate-free.
        assert_eq!(set_intersect(&doc, vec![d, a, b], vec![e, b, d, d]), [b, d]);
        assert_eq!(set_except(&doc, vec![e, a, e, c], vec![c]), [a, e]);
    }

    #[test]
    fn bitset_operations() {
        let mut s = NodeBitSet::empty(130);
        assert!(s.is_empty());
        s.insert(NodeId::from_index(0));
        s.insert(NodeId::from_index(64));
        s.insert(NodeId::from_index(129));
        assert_eq!(s.count(), 3);
        assert!(s.contains(NodeId::from_index(64)));
        assert!(!s.contains(NodeId::from_index(63)));
        let mut t = NodeBitSet::empty(130);
        t.insert(NodeId::from_index(1));
        t.insert(NodeId::from_index(64));
        let mut u = s.clone();
        u.union_with(&t);
        assert_eq!(u.count(), 4);
        let mut i = s.clone();
        i.intersect_with(&t);
        assert_eq!(i.count(), 1);
        let mut c = s.clone();
        c.complement();
        assert_eq!(c.count(), 130 - 3);
        let full = NodeBitSet::full(130);
        assert_eq!(full.count(), 130);
        assert_eq!(
            NodeBitSet::singleton(130, NodeId::from_index(5))
                .iter_nodes()
                .collect::<Vec<_>>(),
            vec![NodeId::from_index(5)]
        );
    }
}
