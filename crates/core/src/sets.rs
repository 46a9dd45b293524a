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
        let mut s = Self::empty(len);
        for i in 0..len {
            s.insert_index(i);
        }
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
        // Clear bits beyond the universe.
        let excess = self.words.len() * 64 - self.len;
        if excess > 0 {
            let last = self.words.len() - 1;
            self.words[last] &= u64::MAX >> excess;
        }
    }

    /// The member nodes in arena-index order.
    pub fn iter_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len)
            .filter(|&i| (self.words[i / 64] >> (i % 64)) & 1 == 1)
            .map(NodeId::from_index)
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
            // S or already in the image.
            for &node in order.iter() {
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
                if doc.kind(u).is_attribute() {
                    continue;
                }
                min_start = min_start.min(subtree_end_of(src, u));
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
                if doc.kind(u).is_attribute() {
                    continue;
                }
                max_pre = Some(max_pre.map_or(doc.pre(u), |m: u32| m.max(doc.pre(u))));
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

/// Node-set intersection preserving the document order of `left` (both
/// inputs are already sorted and duplicate-free, so the result is too).
pub(crate) fn set_intersect(left: Vec<NodeId>, right: &[NodeId]) -> Vec<NodeId> {
    left.into_iter().filter(|n| right.contains(n)).collect()
}

/// Node-set difference preserving the document order of `left`.
pub(crate) fn set_except(left: Vec<NodeId>, right: &[NodeId]) -> Vec<NodeId> {
    left.into_iter().filter(|n| !right.contains(n)).collect()
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
