//! Node-set primitives shared by the plan-IR machines.
//!
//! Plain data and free functions, no evaluator state: [`NodeBitSet`] (a set
//! of document nodes as a bitset over arena indices), the set-at-a-time
//! location step the linear machine is built from (Proposition 2.7: one
//! image per location step, negation as bitset complement), and the
//! sorted-vector set operators and node comparison the tree-walk machines
//! share.
//!
//! A step `axis::test` from a node set S is `step_image`.  On a source
//! with preorder subtree intervals (a [`xpeval_dom::PreparedDocument`], or
//! a live document's snapshot of one) it is a staircase step in the manner
//! of Grust, van Keulen and Teubner's staircase join: `descendant::t`,
//! `child::t`, `following::t` and `preceding::t` read the tag list L of `t`
//! (or the document-order table for a test without one) in ranges cut by
//! the preorder intervals of S, at O(|S| log |S| + |L|) and without
//! visiting a node outside L ∪ S; the sibling and ancestor axes walk from
//! S and stop where another walk already went.  On a source without
//! intervals (a raw [`Document`], or a mask hiding them) every step is the
//! O(|D|) sweep `axis_image` cut down to `test_set`.  Each function
//! charges the nodes and list entries it scans to a `work` counter, once
//! per call.

use std::cell::Cell;

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

/// Adds `n` to a `work` counter: the linear machine's set functions charge
/// what they scan this way, once per call.
fn charge(work: &Cell<u64>, n: usize) {
    work.set(work.get() + n as u64);
}

/// The tag list answering an element name test on an element-principal
/// axis, in document order, when the source indexes tags.
fn tag_list<'s, S: AxisSource + ?Sized>(
    src: &'s S,
    test: &NodeTest,
    axis: Axis,
) -> Option<&'s [NodeId]> {
    if axis.principal_is_attribute() {
        return None;
    }
    match test {
        // Resolved-absent still carries the name so evaluation stays
        // correct on sources other than the one it resolved against.
        NodeTest::Name(name) | NodeTest::Resolved { name, id: None } => src.elements_named(name),
        // A pre-resolved test skips even the one string hash.
        NodeTest::Resolved { id: Some(id), .. } => src.elements_by_tag(*id),
        _ => None,
    }
}

/// All nodes matching a node test (taking the axis' principal node type
/// into account).
// Inlined into its callers: not inlined, the sweep over an attribute name
// test in a `sat` set measured ~6 % slower.
#[inline]
pub(crate) fn test_set<S: AxisSource + ?Sized>(
    src: &S,
    test: &NodeTest,
    axis: Axis,
    work: &Cell<u64>,
) -> NodeBitSet {
    let doc = src.document();
    let mut s = NodeBitSet::empty(doc.len());
    // Indexed fast path: a tag-name test on an element-principal axis is
    // exactly the tag index — no per-node string comparison.
    if let Some(elements) = tag_list(src, test, axis) {
        for &node in elements {
            s.insert(node);
        }
        charge(work, elements.len());
        return s;
    }
    for node in doc.all_nodes() {
        if doc.matches_on_axis(node, test, axis) {
            s.insert(node);
        }
    }
    charge(work, doc.len());
    s
}

/// `axis::test` from the node set `from`: the staircase step when the
/// source has subtree intervals, otherwise [`axis_image`] ∩ [`test_set`].
/// `order` is the source's document-order table
/// ([`AxisSource::document_order`]), fetched once by the caller and reused
/// for every step.
pub(crate) fn step_image<S: AxisSource + ?Sized>(
    src: &S,
    order: &[NodeId],
    axis: Axis,
    test: &NodeTest,
    from: &NodeBitSet,
    work: &Cell<u64>,
) -> NodeBitSet {
    if let Some(image) = staircase(src, order, axis, test, from, work) {
        return image;
    }
    let mut image = axis_image(src, order, axis, from, work);
    image.intersect_with(&test_set(src, test, axis, work));
    image
}

/// The staircase form of [`step_image`], or `None` where it keeps the
/// sweep: on a source without subtree intervals, and on the one-hop axes
/// `self`, `parent` and `attribute`, whose images already cost O(|S|).
///
/// The candidates are the test's tag list L when the source has one, else
/// the document-order table filtered by the test.  Both are sorted by
/// preorder key, and keys are gapped, so ranges are found with
/// `partition_point`.
fn staircase<S: AxisSource + ?Sized>(
    src: &S,
    order: &[NodeId],
    axis: Axis,
    test: &NodeTest,
    from: &NodeBitSet,
    work: &Cell<u64>,
) -> Option<NodeBitSet> {
    if matches!(axis, Axis::SelfAxis | Axis::Parent | Axis::Attribute)
        || !src.capabilities().intervals
    {
        return None;
    }
    let doc = src.document();
    let list = tag_list(src, test, axis);
    let keys = list.unwrap_or(order);
    // No axis read from `keys` contains attributes, and a tag list holds
    // elements of the tested name only.
    let keep = |m: NodeId| {
        list.is_some() || (!doc.kind(m).is_attribute() && doc.matches_on_axis(m, test, axis))
    };
    let below = |bound: u32| move |&m: &NodeId| doc.pre(m) < bound;
    let mut out = NodeBitSet::empty(from.len);
    let mut scanned = 0usize;
    match axis {
        Axis::Descendant | Axis::DescendantOrSelf => {
            let or_self = axis == Axis::DescendantOrSelf;
            // The subtree intervals of S, outermost only: sorted by pre,
            // a later interval starting inside a kept one nests in it.
            let mut spans = Vec::new();
            for s in from.iter_nodes() {
                scanned += 1;
                if !doc.kind(s).is_attribute() {
                    spans.push((doc.pre(s), subtree_end_of(src, s)));
                } else if or_self && doc.matches_on_axis(s, test, axis) {
                    out.insert(s);
                }
            }
            if !spans.windows(2).all(|w| w[0].0 < w[1].0) {
                spans.sort_unstable_by_key(|&(pre, _)| pre);
            }
            let mut rest = keys;
            let mut covered = None;
            for (pre, end) in spans {
                if covered.is_some_and(|c| pre < c) {
                    continue;
                }
                covered = Some(end);
                // `descendant` starts strictly after the context node.
                let before = rest.partition_point(|&m| match or_self {
                    true => doc.pre(m) < pre,
                    false => doc.pre(m) <= pre,
                });
                rest = &rest[before..];
                let inside = rest.partition_point(below(end));
                for &m in &rest[..inside] {
                    if keep(m) {
                        out.insert(m);
                    }
                }
                scanned += inside;
                rest = &rest[inside..];
            }
        }
        Axis::Child => {
            match list {
                // The members of L inside S's span whose parent is in S.
                Some(list) => {
                    let (mut lo, mut hi) = (u32::MAX, 0);
                    for s in from.iter_nodes() {
                        scanned += 1;
                        lo = lo.min(doc.pre(s));
                        hi = hi.max(subtree_end_of(src, s));
                    }
                    let start = list.partition_point(below(lo));
                    let len = list[start..].partition_point(below(hi));
                    for &m in &list[start..start + len] {
                        if doc.parent(m).is_some_and(|p| from.contains(p)) {
                            out.insert(m);
                        }
                    }
                    scanned += len;
                }
                None => {
                    for s in from.iter_nodes() {
                        scanned += 1;
                        let mut c = doc.first_child(s);
                        while let Some(ch) = c {
                            scanned += 1;
                            if doc.matches_on_axis(ch, test, axis) {
                                out.insert(ch);
                            }
                            c = doc.next_sibling(ch);
                        }
                    }
                }
            }
        }
        Axis::Following => {
            // v follows some u ∈ S iff pre(v) >= min over u of the end of
            // u's subtree interval: one suffix of the candidates.
            let mut min_start = None;
            for u in from.iter_nodes() {
                scanned += 1;
                let end = subtree_end_of(src, owner_element(doc, u));
                min_start = Some(min_start.map_or(end, |m: u32| m.min(end)));
            }
            if let Some(start) = min_start {
                let lo = keys.partition_point(below(start));
                for &m in &keys[lo..] {
                    if keep(m) {
                        out.insert(m);
                    }
                }
                scanned += keys.len() - lo;
            }
        }
        Axis::Preceding => {
            // v precedes some u ∈ S iff v's subtree ends at or before
            // max over u of pre(u): a prefix of the candidates, less the
            // ancestors of that u.
            let mut max_pre = None;
            for u in from.iter_nodes() {
                scanned += 1;
                let pre = doc.pre(owner_element(doc, u));
                max_pre = Some(max_pre.map_or(pre, |m: u32| m.max(pre)));
            }
            if let Some(max_pre) = max_pre {
                let hi = keys.partition_point(below(max_pre));
                for &m in &keys[..hi] {
                    if subtree_end_of(src, m) <= max_pre && keep(m) {
                        out.insert(m);
                    }
                }
                scanned += hi;
            }
        }
        Axis::FollowingSibling | Axis::PrecedingSibling => {
            // Each walk stops at the next member of S, whose own walk goes
            // on from there: every sibling is visited at most once.
            let next = |n: NodeId| match axis {
                Axis::FollowingSibling => doc.next_sibling(n),
                _ => doc.prev_sibling(n),
            };
            for s in from.iter_nodes() {
                scanned += 1;
                let mut c = next(s);
                while let Some(sib) = c {
                    scanned += 1;
                    out.insert(sib);
                    if from.contains(sib) {
                        break;
                    }
                    c = next(sib);
                }
            }
            out = filtered(src, out, test, axis, list, work);
        }
        Axis::Ancestor | Axis::AncestorOrSelf => {
            // Each walk up stops at a node already in the image, whose
            // ancestors are all there too.
            for s in from.iter_nodes() {
                scanned += 1;
                if axis == Axis::AncestorOrSelf {
                    out.insert(s);
                }
                let mut c = doc.parent(s);
                while let Some(p) = c {
                    if out.contains(p) {
                        break;
                    }
                    scanned += 1;
                    out.insert(p);
                    c = doc.parent(p);
                }
            }
            out = filtered(src, out, test, axis, list, work);
        }
        Axis::SelfAxis | Axis::Parent | Axis::Attribute => unreachable!("kept on the sweep"),
    }
    charge(work, scanned);
    Some(out)
}

/// The members of a walked image that pass the node test: its intersection
/// with the tag list when there is one, else a check per member.
fn filtered<S: AxisSource + ?Sized>(
    src: &S,
    mut image: NodeBitSet,
    test: &NodeTest,
    axis: Axis,
    list: Option<&[NodeId]>,
    work: &Cell<u64>,
) -> NodeBitSet {
    if list.is_some() {
        image.intersect_with(&test_set(src, test, axis, work));
        return image;
    }
    if matches!(test, NodeTest::AnyNode) {
        return image;
    }
    let doc = src.document();
    let mut out = NodeBitSet::empty(image.len);
    let mut scanned = 0usize;
    for n in image.iter_nodes() {
        scanned += 1;
        if doc.matches_on_axis(n, test, axis) {
            out.insert(n);
        }
    }
    charge(work, scanned);
    out
}

/// Image of a node set under an axis relation, computed in O(|D|) — the
/// sweep [`step_image`] falls back to.  `order` is the source's
/// document-order table.
pub(crate) fn axis_image<S: AxisSource + ?Sized>(
    src: &S,
    order: &[NodeId],
    axis: Axis,
    s: &NodeBitSet,
    work: &Cell<u64>,
) -> NodeBitSet {
    let doc = src.document();
    let mut out = NodeBitSet::empty(s.len);
    let mut scanned = 0usize;
    match axis {
        Axis::SelfAxis => out = s.clone(),
        Axis::Child => {
            for node in s.iter_nodes() {
                scanned += 1;
                let mut c = doc.first_child(node);
                while let Some(ch) = c {
                    scanned += 1;
                    out.insert(ch);
                    c = doc.next_sibling(ch);
                }
            }
        }
        Axis::Parent => {
            for node in s.iter_nodes() {
                scanned += 1;
                if let Some(p) = doc.parent(node) {
                    out.insert(p);
                }
            }
        }
        Axis::Attribute => {
            for node in s.iter_nodes() {
                scanned += 1;
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
            scanned += order.len();
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
            scanned += order.len();
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
            scanned += order.len();
        }
        Axis::PrecedingSibling => {
            for &node in order.iter().rev() {
                if let Some(next) = doc.next_sibling(node) {
                    if s.contains(next) || out.contains(next) {
                        out.insert(node);
                    }
                }
            }
            scanned += order.len();
        }
        Axis::Following => {
            // v is following of some u ∈ S iff pre(v) >= min over u of
            // the end of u's subtree interval (the pre of the first node
            // after the subtree).  The prepared index answers the
            // interval end in O(1); the fallback walks sibling/parent
            // links.
            let mut min_start = u32::MAX;
            for u in s.iter_nodes() {
                scanned += 1;
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
                scanned += order.len() - lo;
            }
        }
        Axis::Preceding => {
            // v precedes some u ∈ S iff u is following of v, i.e. iff
            // the end of v's subtree interval is <= max over u of pre(u).
            // Only nodes with pre < max_pre can satisfy that, so the
            // sweep is one range scan of the document order.
            let mut max_pre = None;
            for u in s.iter_nodes() {
                scanned += 1;
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
                scanned += hi;
            }
        }
    }
    charge(work, scanned);
    out
}

/// Pre-image of a node set under an axis relation — the nodes from which
/// `axis` reaches a member of `t`.  It is the image under [`Axis::inverse`]
/// (a staircase step where the source allows one: the pre-image of
/// `descendant` is a pruned walk up from `t`, that of a sibling axis the
/// reverse sibling walk) except around attribute nodes, where the axes are
/// not symmetric: an attribute has a parent, ancestors and its owner's
/// `following`/`preceding` nodes, yet is nobody's child, descendant,
/// sibling, `following` or `preceding` node.
pub(crate) fn axis_preimage<S: AxisSource + ?Sized>(
    src: &S,
    order: &[NodeId],
    axis: Axis,
    t: &NodeBitSet,
    work: &Cell<u64>,
) -> NodeBitSet {
    if axis == Axis::SelfAxis {
        return t.clone();
    }
    let doc = src.document();
    // What the axis can arrive at: attribute nodes through `attribute`,
    // every other kind through the rest (the self half of the `-or-self`
    // axes is added at the end).
    let mut reached = NodeBitSet::empty(t.len);
    let mut scanned = 0usize;
    for node in t.iter_nodes() {
        scanned += 1;
        if doc.kind(node).is_attribute() == axis.principal_is_attribute() {
            reached.insert(node);
        }
    }
    let inverse = axis.inverse();
    let mut out = staircase(src, order, inverse, &NodeTest::AnyNode, &reached, work)
        .unwrap_or_else(|| axis_image(src, order, inverse, &reached, work));
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
        scanned += 1;
        for &a in doc.attributes(owner) {
            out.insert(a);
        }
    }
    if matches!(axis, Axis::DescendantOrSelf | Axis::AncestorOrSelf) {
        out.union_with(t);
    }
    charge(work, scanned);
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
        fn check<S: AxisSource + ?Sized>(src: &S, nodes: &[NodeId]) {
            let doc = src.document();
            let order = src.document_order();
            let work = Cell::new(0);
            let axes = Axis::CORE.into_iter().chain([Axis::Attribute]);
            for axis in axes {
                for &n in nodes {
                    let one = NodeBitSet::singleton(doc.len(), n);
                    let mut reached = doc.axis_nodes(n, axis);
                    reached.sort_by_key(|m| m.index());
                    assert_eq!(
                        members(&axis_image(src, &order, axis, &one, &work)),
                        reached,
                        "{axis} from {n:?}"
                    );
                    assert_eq!(
                        members(&step_image(
                            src,
                            &order,
                            axis,
                            &NodeTest::AnyNode,
                            &one,
                            &work
                        )),
                        reached,
                        "{axis}::node() from {n:?}"
                    );
                    let reaching: Vec<NodeId> = nodes
                        .iter()
                        .copied()
                        .filter(|&m| doc.axis_nodes(m, axis).contains(&n))
                        .collect();
                    assert_eq!(
                        members(&axis_preimage(src, &order, axis, &one, &work)),
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
                    members(&axis_preimage(src, &order, axis, &all, &work)),
                    departing,
                    "{axis} to anything"
                );
            }
        }
        check(&doc, &nodes);
        check(&prepared, &nodes);
    }

    /// The context sets the differential check steps from: the root, a
    /// nested pair (an element and one of its descendants), every
    /// attribute and text node, a run of siblings, nothing, everything.
    fn context_sets(doc: &Document) -> Vec<(&'static str, Vec<NodeId>)> {
        let all: Vec<NodeId> = doc.document_order();
        let elements: Vec<NodeId> = all
            .iter()
            .copied()
            .filter(|&n| doc.kind(n).is_element())
            .collect();
        let outer = elements
            .iter()
            .copied()
            .find(|&e| doc.axis_nodes(e, Axis::Descendant).len() > 2)
            .expect("an element with descendants");
        let inner = *doc
            .axis_nodes(outer, Axis::Descendant)
            .iter()
            .rev()
            .find(|&&d| doc.kind(d).is_element())
            .expect("an element descendant");
        let widest = elements
            .iter()
            .copied()
            .max_by_key(|&e| doc.axis_nodes(e, Axis::Child).len())
            .unwrap();
        let leaves = all
            .iter()
            .copied()
            .filter(|&n| doc.kind(n).is_attribute() || doc.kind(n).is_text())
            .collect();
        vec![
            ("root", vec![doc.root()]),
            ("nested pair", vec![inner, outer]),
            ("attributes and text", leaves),
            ("siblings", doc.axis_nodes(widest, Axis::Child)),
            ("empty", Vec::new()),
            ("all", all),
        ]
    }

    /// `axis::test` from every context set, three ways: the staircase on
    /// the prepared document, the sweep on the same document behind a mask
    /// that hides its tag lists and intervals, and the reference evaluator
    /// stepping from each context node alone.  The pre-images agree across
    /// the two paths as well.
    fn check_steps_against_the_sweep_and_the_reference(prepared: &PreparedDocument) {
        use crate::context::Context;
        use crate::reference::ReferenceEvaluator;
        use xpeval_dom::{CapabilityMask, SourceCapabilities};
        use xpeval_syntax::parse_query;

        let doc = prepared.document();
        let masked = CapabilityMask::new(
            prepared.clone(),
            SourceCapabilities {
                tag_index: false,
                intervals: false,
                ..SourceCapabilities::FULL
            },
        );
        assert!(!masked.capabilities().intervals && masked.elements_named("b").is_none());
        let order = prepared.order();
        let b = prepared.tag_id("b").expect("the document has `b` elements");
        let tests = [
            ("b", NodeTest::Name("b".into())),
            (
                "b",
                NodeTest::Resolved {
                    name: "b".into(),
                    id: Some(b),
                },
            ),
            (
                "zz",
                NodeTest::Resolved {
                    name: "zz".into(),
                    id: None,
                },
            ),
            ("*", NodeTest::Star),
            ("node()", NodeTest::AnyNode),
            ("text()", NodeTest::Text),
        ];
        let work = Cell::new(0);
        let mut reference = ReferenceEvaluator::new(doc);
        for (label, contexts) in context_sets(doc) {
            let mut from = NodeBitSet::empty(doc.len());
            for &n in &contexts {
                from.insert(n);
            }
            for axis in Axis::CORE.into_iter().chain([Axis::Attribute]) {
                for (spelled, test) in &tests {
                    let step = parse_query(&format!("{axis}::{spelled}")).unwrap();
                    let mut expected = Vec::new();
                    for &n in &contexts {
                        let ctx = Context::new(n, 1, 1);
                        let value = reference.evaluate_with_context(&step, ctx).unwrap();
                        expected.extend(value.into_nodes().unwrap());
                    }
                    expected.sort_by_key(|m| m.index());
                    expected.dedup();
                    let staircase = step_image(prepared, order, axis, test, &from, &work);
                    let swept = step_image(&masked, order, axis, test, &from, &work);
                    assert_eq!(
                        members(&staircase),
                        expected,
                        "{axis}::{spelled} from {label}"
                    );
                    assert_eq!(
                        members(&swept),
                        expected,
                        "{axis}::{spelled} from {label}, swept"
                    );
                }
                assert_eq!(
                    axis_preimage(prepared, order, axis, &from, &work),
                    axis_preimage(&masked, order, axis, &from, &work),
                    "{axis} to {label}"
                );
            }
        }
    }

    fn members(set: &NodeBitSet) -> Vec<NodeId> {
        set.iter_nodes().collect()
    }

    #[test]
    fn staircase_steps_agree_with_the_sweep_and_the_reference() {
        let xml = r#"<r x="1"><a x="1" y="2"><b x="2">t<c/></b><b/>u<a><b/>s</a></a><a><b><a z="7"/></b><d/>w<b>q</b></a>v<b/></r>"#;
        let mut prepared = PreparedDocument::new(parse_xml(xml).unwrap());
        check_steps_against_the_sweep_and_the_reference(&prepared);

        // The same after in-place edits, whose ordering keys are gapped and
        // whose arena order is no longer document order: an inserted
        // subtree, a removal, and an insert into the slots it freed.
        let fragment = parse_xml(r#"<f><b k="1"><c>x</c><b/></b>y<e/></f>"#).unwrap();
        let first_a = prepared.elements_named("a")[0];
        prepared.insert_subtree(first_a, 1, &fragment).unwrap();
        check_steps_against_the_sweep_and_the_reference(&prepared);
        let removed = prepared.elements_named("a")[1];
        prepared.remove_subtree(removed).unwrap();
        check_steps_against_the_sweep_and_the_reference(&prepared);
        let len = prepared.node_count();
        let root_element = prepared.elements_named("r")[0];
        prepared.insert_subtree(root_element, 0, &fragment).unwrap();
        let inserted = fragment.len() - 1;
        assert!(
            prepared.node_count() < len + inserted,
            "the insert reuses freed slots"
        );
        assert!(
            !prepared
                .order()
                .windows(2)
                .all(|w| w[0].index() < w[1].index()),
            "arena order differs from document order"
        );
        check_steps_against_the_sweep_and_the_reference(&prepared);
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
