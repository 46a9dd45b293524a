//! The data-access layer the evaluators are written against.
//!
//! Every evaluation strategy in the workspace consumes documents through the
//! [`AxisSource`] trait rather than through `&Document` directly.  Two
//! implementations exist:
//!
//! * [`Document`] — the compatibility path: every method falls back to the
//!   plain tree walks the document already supports, so all existing
//!   `&Document` call sites keep working unchanged;
//! * [`PreparedDocument`] — the fast path: axis enumeration and name tests
//!   are answered from the prepare-once indexes (tag lists, per-parent tag
//!   buckets, preorder subtree intervals, precomputed document order).
//!
//! The trait is deliberately small — it covers exactly the primitives the
//! evaluators' inner loops use, so a new index only has to override the
//! methods it accelerates.  The indexed [`AxisSource::axis_step`] covers the
//! descendant axes (tag-list range), the child axis (per-parent bucket) and
//! the `following`/`preceding` axes (preorder-interval complements: each
//! axis is at most two range scans over document order).  Positional child
//! predicates short-circuit through [`AxisSource::positional_child_step`].

use crate::axes::{Axis, NodeTest};
use crate::node::{Document, NodeId};
use crate::prepared::{PreparedDocument, TagId};
use std::borrow::Cow;

/// Child steps on nodes with at most this many children walk the sibling
/// chain even when a per-parent tag bucket exists: below it, two binary
/// searches into the whole tag list (each probe chasing parent and preorder
/// lookups) cost more than comparing a handful of child tags directly.
/// Above it — wide nodes, where the child walk is what hurts — the bucket
/// wins.
pub const CHILD_BUCKET_MIN_CHILDREN: usize = 16;

/// Result of resolving an element tag name against an [`AxisSource`]
/// ([`AxisSource::resolve_tag`]).
///
/// Plan specialization uses this to bake interned [`TagId`]s into a query's
/// per-step name tests ([`NodeTest::Resolved`]) so that artifact-hit
/// evaluation never hashes tag strings mid-plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TagResolution {
    /// The source has no tag index; name tests must compare strings.
    NoIndex,
    /// The source is indexed and no element in it carries the tag.
    Absent,
    /// The interned id of the tag in this source's tag table.
    Id(TagId),
}

/// A positional predicate an index can answer directly: `[k]` (equivalently
/// `[position() = k]`) or `[last()]` (equivalently `[position() = last()]`)
/// on a forward axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PositionalPick {
    /// The `k`-th candidate, 1-based.
    Nth(usize),
    /// The last candidate.
    Last,
}

/// What a storage backend can answer without falling back to tree walks.
///
/// Callers consult this instead of downcasting to a concrete source type.
/// Capabilities describe index availability, not correctness — every
/// [`AxisSource`] answers every query correctly through the defaults, and
/// no plan choice depends on them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SourceCapabilities {
    /// Tag-name lists and per-parent buckets exist
    /// ([`AxisSource::elements_named`], [`AxisSource::resolve_tag`]).
    pub tag_index: bool,
    /// A precomputed document-order table exists (borrowing
    /// [`AxisSource::document_order`], required by the parallel evaluator's
    /// partitioning to be cheap).
    pub order_table: bool,
    /// Preorder subtree intervals are precomputed
    /// ([`AxisSource::subtree_interval`]).
    pub intervals: bool,
    /// Positional child tables exist
    /// ([`AxisSource::positional_child_step`]).
    pub positional: bool,
}

impl SourceCapabilities {
    /// No index structures at all.
    pub const NONE: SourceCapabilities = SourceCapabilities {
        tag_index: false,
        order_table: false,
        intervals: false,
        positional: false,
    };

    /// Every index a [`PreparedDocument`] carries.
    pub const FULL: SourceCapabilities = SourceCapabilities {
        tag_index: true,
        order_table: true,
        intervals: true,
        positional: true,
    };

    /// The capability set a plain unprepared [`Document`] reports: no
    /// indexes, but document order is still derivable in one traversal
    /// (which is why unprepared parallel evaluation remains worthwhile).
    pub const UNINDEXED: SourceCapabilities = SourceCapabilities {
        tag_index: false,
        order_table: true,
        intervals: false,
        positional: false,
    };

    /// Bitwise-and of two capability sets.
    pub fn intersect(self, other: SourceCapabilities) -> SourceCapabilities {
        SourceCapabilities {
            tag_index: self.tag_index && other.tag_index,
            order_table: self.order_table && other.order_table,
            intervals: self.intervals && other.intervals,
            positional: self.positional && other.positional,
        }
    }
}

/// Access to a document's nodes and axis relations, with or without
/// prepared indexes.
///
/// `Sync` is a supertrait because the parallel evaluator shares one source
/// across worker threads; both implementations are immutable, so this is
/// free.
pub trait AxisSource: Sync {
    /// The underlying document.
    fn document(&self) -> &Document;

    /// Total number of nodes, `|D|`.
    #[inline]
    fn node_count(&self) -> usize {
        self.document().len()
    }

    /// Appends the nodes reachable from `n` via `axis` that match `test` to
    /// `out`, in document order — one location step without predicates.
    /// Appending lets a caller gather the images of many context nodes into
    /// one vector.
    fn axis_step_into(&self, n: NodeId, axis: Axis, test: &NodeTest, out: &mut Vec<NodeId>);

    /// [`AxisSource::axis_step_into`] into a fresh vector.
    fn axis_step(&self, n: NodeId, axis: Axis, test: &NodeTest) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.axis_step_into(n, axis, test, &mut out);
        out
    }

    /// Whether at least one node is reachable from `n` via `axis` matching
    /// `test` — the existence form of [`AxisSource::axis_step`], used by
    /// predicate decisions that do not need the node list.  The default
    /// walks the axis lazily; indexed sources answer from their tag lists
    /// without allocating.
    fn step_exists(&self, n: NodeId, axis: Axis, test: &NodeTest) -> bool {
        let doc = self.document();
        doc.axis_iter(n, axis)
            .any(|m| doc.matches_on_axis(m, test, axis))
    }

    /// All nodes in document order.  Borrowed from the index when prepared,
    /// computed (allocating) otherwise.
    fn document_order(&self) -> Cow<'_, [NodeId]> {
        Cow::Owned(self.document().document_order())
    }

    /// The elements with tag `name` in document order, when an index is
    /// available; `None` means the caller must scan.
    fn elements_named(&self, _name: &str) -> Option<&[NodeId]> {
        None
    }

    /// Resolves an element tag name against this source's tag table, when
    /// it has one.  The default ([`TagResolution::NoIndex`]) tells plan
    /// specialization that name tests cannot be pre-resolved here.
    fn resolve_tag(&self, _name: &str) -> TagResolution {
        TagResolution::NoIndex
    }

    /// The elements carrying the interned tag `id` in document order, when
    /// this source minted the id; `None` means the caller must fall back to
    /// the string form.
    fn elements_by_tag(&self, _id: TagId) -> Option<&[NodeId]> {
        None
    }

    /// The half-open preorder interval `[pre, end)` covering the subtree of
    /// `n`, when an index has it precomputed; `None` means the caller must
    /// walk (e.g. via sibling/parent links) to find the subtree boundary.
    fn subtree_interval(&self, _n: NodeId) -> Option<(u32, u32)> {
        None
    }

    /// Applies the positional step `child::test[pick]` from `n` directly
    /// from an index, returning the selected nodes (zero or one) in a
    /// ready-to-use candidate list.  `None` means no index can answer it and
    /// the caller must enumerate the axis and filter by position.
    fn positional_child_step(
        &self,
        _n: NodeId,
        _test: &NodeTest,
        _pick: PositionalPick,
    ) -> Option<Vec<NodeId>> {
        None
    }

    /// The index structures this source can serve.
    fn capabilities(&self) -> SourceCapabilities {
        SourceCapabilities::UNINDEXED
    }
}

impl AxisSource for Document {
    #[inline]
    fn document(&self) -> &Document {
        self
    }

    fn axis_step_into(&self, n: NodeId, axis: Axis, test: &NodeTest, out: &mut Vec<NodeId>) {
        let selects = |m: NodeId| self.matches_on_axis(m, test, axis);
        // The one-hop axes read their one link or list directly.
        match axis {
            Axis::SelfAxis => out.extend(Some(n).filter(|&m| selects(m))),
            Axis::Parent => out.extend(self.parent(n).filter(|&m| selects(m))),
            Axis::Attribute => {
                out.extend(self.attributes(n).iter().copied().filter(|&m| selects(m)))
            }
            _ => out.extend(self.axis_iter(n, axis).filter(|&m| selects(m))),
        }
    }
}

impl PreparedDocument {
    /// The tag a name test asks for, resolved against this document's tag
    /// table, on an element-principal axis; `Some(None)` when no element
    /// carries it.  `None` for every other test, and on the attribute axis,
    /// whose name tests match attribute names, which the tag table does not
    /// hold.
    fn element_tag(&self, axis: Axis, test: &NodeTest) -> Option<Option<TagId>> {
        if axis.principal_is_attribute() {
            return None;
        }
        match test {
            NodeTest::Name(name) => Some(self.tag_id(name)),
            NodeTest::Resolved { id, .. } => Some(*id),
            _ => None,
        }
    }
}

impl AxisSource for PreparedDocument {
    #[inline]
    fn document(&self) -> &Document {
        PreparedDocument::document(self)
    }

    fn axis_step_into(&self, n: NodeId, axis: Axis, test: &NodeTest, out: &mut Vec<NodeId>) {
        let doc = self.document();
        // Tag-name tests are the indexed fast paths: descendant axes are a
        // tag-list range, child steps hit the per-parent bucket, and the
        // following/preceding complements are range scans bounded by the
        // preorder subtree interval.  Everything else falls back to the
        // document's walks.  A plain `Name` test pays one hash to reach the
        // tag table; a `Resolved` test (specialized plans) carries its
        // interned id and skips the hash entirely — `id == None` means the
        // tag was absent at specialization time, so the indexed axes below
        // are empty by construction.
        if let Some(id) = self.element_tag(axis, test) {
            match axis {
                Axis::Descendant => {
                    if let Some(id) = id {
                        out.extend_from_slice(self.descendants_by_tag(n, id));
                    }
                    return;
                }
                Axis::DescendantOrSelf => {
                    if doc.matches_on_axis(n, test, axis) {
                        out.push(n);
                    }
                    if let Some(id) = id {
                        out.extend_from_slice(self.descendants_by_tag(n, id));
                    }
                    return;
                }
                // Adaptive: the bucket pays off on wide nodes only; narrow
                // nodes fall through to the sibling walk below.
                Axis::Child if self.child_count(n) > CHILD_BUCKET_MIN_CHILDREN => {
                    if let Some(id) = id {
                        out.extend_from_slice(self.children_by_tag(n, id));
                    }
                    return;
                }
                // The interval complement describes following/preceding only
                // for tree nodes: an attribute's notional subtree sits inside
                // its owner, so attribute context nodes take the walk.
                Axis::Following if !doc.kind(n).is_attribute() => {
                    if let Some(id) = id {
                        out.extend_from_slice(self.following_by_tag(n, id));
                    }
                    return;
                }
                Axis::Preceding if !doc.kind(n).is_attribute() => {
                    if let Some(id) = id {
                        out.extend(self.preceding_by_tag(n, id));
                    }
                    return;
                }
                _ => {}
            }
        }
        match axis {
            Axis::Child => {
                // The child-count table sizes the candidate list exactly, so
                // the hot child-step path never reallocates.
                out.reserve(self.child_count(n));
                let mut c = doc.first_child(n);
                while let Some(ch) = c {
                    if doc.matches_on_axis(ch, test, axis) {
                        out.push(ch);
                    }
                    c = doc.next_sibling(ch);
                }
            }
            // Non-name tests on the complement axes: one range scan over the
            // precomputed document order on each side of the subtree
            // interval, skipping attribute nodes (they are on neither axis)
            // and, for preceding, the ancestors of `n` (exactly the nodes
            // whose interval still covers `n`).
            Axis::Following if !doc.kind(n).is_attribute() => {
                let (_, end) = self.pre_interval(n);
                let order = self.order();
                let lo = order.partition_point(|&m| doc.pre(m) < end);
                out.extend(order[lo..].iter().copied().filter(|&m| {
                    !doc.kind(m).is_attribute() && doc.matches_on_axis(m, test, axis)
                }));
            }
            Axis::Preceding if !doc.kind(n).is_attribute() => {
                let (pre, _) = self.pre_interval(n);
                let order = self.order();
                let hi = order.partition_point(|&m| doc.pre(m) < pre);
                out.extend(order[..hi].iter().copied().filter(|&m| {
                    let (_, m_end) = self.pre_interval(m);
                    m_end <= pre
                        && !doc.kind(m).is_attribute()
                        && doc.matches_on_axis(m, test, axis)
                }));
            }
            _ => doc.axis_step_into(n, axis, test, out),
        }
    }

    fn step_exists(&self, n: NodeId, axis: Axis, test: &NodeTest) -> bool {
        // Mirrors [`AxisSource::axis_step`]'s dispatch exactly (same arms,
        // same `id == None` emptiness) but answers existence by slicing the
        // tag lists — no candidate vector is ever built.  The fall-through
        // cases walk the axis lazily instead of collecting it.
        let doc = self.document();
        if let Some(id) = self.element_tag(axis, test) {
            match axis {
                Axis::Descendant => {
                    return id.is_some_and(|id| !self.descendants_by_tag(n, id).is_empty())
                }
                Axis::DescendantOrSelf => {
                    return doc.matches_on_axis(n, test, axis)
                        || id.is_some_and(|id| !self.descendants_by_tag(n, id).is_empty())
                }
                Axis::Child if self.child_count(n) > CHILD_BUCKET_MIN_CHILDREN => {
                    return id.is_some_and(|id| !self.children_by_tag(n, id).is_empty())
                }
                Axis::Following if !doc.kind(n).is_attribute() => {
                    return id.is_some_and(|id| !self.following_by_tag(n, id).is_empty())
                }
                Axis::Preceding if !doc.kind(n).is_attribute() => {
                    // Prefix scan without materializing the list: any
                    // earlier element of the tag whose subtree ends at or
                    // before n is on the preceding axis.
                    return id.is_some_and(|id| {
                        let list = self.elements_by_tag(id);
                        let pre = doc.pre(n);
                        let hi = list.partition_point(|&m| doc.pre(m) < pre);
                        list[..hi].iter().any(|&m| self.pre_interval(m).1 <= pre)
                    });
                }
                _ => {}
            }
        }
        doc.axis_iter(n, axis)
            .any(|m| doc.matches_on_axis(m, test, axis))
    }

    #[inline]
    fn document_order(&self) -> Cow<'_, [NodeId]> {
        Cow::Borrowed(self.order())
    }

    #[inline]
    fn elements_named(&self, name: &str) -> Option<&[NodeId]> {
        Some(PreparedDocument::elements_named(self, name))
    }

    #[inline]
    fn resolve_tag(&self, name: &str) -> TagResolution {
        match self.tag_id(name) {
            Some(id) => TagResolution::Id(id),
            None => TagResolution::Absent,
        }
    }

    #[inline]
    fn elements_by_tag(&self, id: TagId) -> Option<&[NodeId]> {
        Some(PreparedDocument::elements_by_tag(self, id))
    }

    #[inline]
    fn subtree_interval(&self, n: NodeId) -> Option<(u32, u32)> {
        Some(self.pre_interval(n))
    }

    fn positional_child_step(
        &self,
        n: NodeId,
        test: &NodeTest,
        pick: PositionalPick,
    ) -> Option<Vec<NodeId>> {
        let doc = self.document();
        let picked = match (test, pick) {
            // Name tests go straight to the per-parent bucket: O(log |D|).
            (NodeTest::Name(name), PositionalPick::Nth(k)) => self.nth_child_named(n, name, k),
            (NodeTest::Name(name), PositionalPick::Last) => self.last_child_named(n, name),
            // Pre-resolved tests skip the hash; an absent tag has no
            // matching children by construction.
            (NodeTest::Resolved { id, .. }, PositionalPick::Nth(k)) => {
                id.and_then(|id| self.nth_child_by_tag(n, id, k))
            }
            (NodeTest::Resolved { id, .. }, PositionalPick::Last) => {
                id.and_then(|id| self.last_child_by_tag(n, id))
            }
            // node() candidates are all children: the child-count table
            // rejects out-of-range k in O(1), the walk stops after k links.
            (NodeTest::AnyNode, PositionalPick::Nth(k)) => self.nth_child(n, k),
            (NodeTest::AnyNode, PositionalPick::Last) => doc.last_child(n),
            // Star/text: walk forward to the k-th match (early exit), or
            // backward from the last child to the first match.
            (_, PositionalPick::Nth(k)) => {
                let mut remaining = k;
                let mut c = doc.first_child(n);
                let mut found = None;
                while remaining > 0 {
                    let Some(ch) = c else { break };
                    if doc.matches_on_axis(ch, test, Axis::Child) {
                        remaining -= 1;
                        if remaining == 0 {
                            found = Some(ch);
                        }
                    }
                    c = doc.next_sibling(ch);
                }
                found
            }
            (_, PositionalPick::Last) => {
                let mut c = doc.last_child(n);
                let mut found = None;
                while let Some(ch) = c {
                    if doc.matches_on_axis(ch, test, Axis::Child) {
                        found = Some(ch);
                        break;
                    }
                    c = doc.prev_sibling(ch);
                }
                found
            }
        };
        Some(picked.into_iter().collect())
    }

    #[inline]
    fn capabilities(&self) -> SourceCapabilities {
        SourceCapabilities::FULL
    }
}

/// An [`AxisSource`] adaptor that *removes* capabilities from an inner
/// source.
///
/// Masked capabilities behave exactly like the unprepared-[`Document`]
/// defaults: index probes decline (`None` / [`TagResolution::NoIndex`]) and
/// axis steps fall back to plain tree walks.  This is how backends that
/// persist only a subset of the index tables (and the backend test suite)
/// express "this index does not exist here" without a parallel type
/// hierarchy — and since results must not change, it doubles as a fixture
/// proving plan degradation is purely a performance decision.
#[derive(Debug)]
pub struct CapabilityMask<S> {
    inner: S,
    mask: SourceCapabilities,
}

impl<S: AxisSource> CapabilityMask<S> {
    /// Wraps `inner`, exposing only the capabilities present in both
    /// `inner` and `mask`.
    pub fn new(inner: S, mask: SourceCapabilities) -> Self {
        CapabilityMask { inner, mask }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps the mask.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: AxisSource> AxisSource for CapabilityMask<S> {
    #[inline]
    fn document(&self) -> &Document {
        self.inner.document()
    }

    #[inline]
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn axis_step_into(&self, n: NodeId, axis: Axis, test: &NodeTest, out: &mut Vec<NodeId>) {
        // The inner fast paths lean on the tag index and the subtree
        // intervals; once either is masked away, be honest and walk.
        let caps = self.capabilities();
        if caps.tag_index && caps.intervals && caps.order_table {
            self.inner.axis_step_into(n, axis, test, out)
        } else {
            self.document().axis_step_into(n, axis, test, out)
        }
    }

    fn step_exists(&self, n: NodeId, axis: Axis, test: &NodeTest) -> bool {
        let caps = self.capabilities();
        if caps.tag_index && caps.intervals && caps.order_table {
            self.inner.step_exists(n, axis, test)
        } else {
            let doc = self.document();
            doc.axis_iter(n, axis)
                .any(|m| doc.matches_on_axis(m, test, axis))
        }
    }

    fn document_order(&self) -> Cow<'_, [NodeId]> {
        if self.capabilities().order_table {
            self.inner.document_order()
        } else {
            Cow::Owned(self.document().document_order())
        }
    }

    fn elements_named(&self, name: &str) -> Option<&[NodeId]> {
        if self.capabilities().tag_index {
            self.inner.elements_named(name)
        } else {
            None
        }
    }

    fn resolve_tag(&self, name: &str) -> TagResolution {
        if self.capabilities().tag_index {
            self.inner.resolve_tag(name)
        } else {
            TagResolution::NoIndex
        }
    }

    fn elements_by_tag(&self, id: TagId) -> Option<&[NodeId]> {
        if self.capabilities().tag_index {
            self.inner.elements_by_tag(id)
        } else {
            None
        }
    }

    fn subtree_interval(&self, n: NodeId) -> Option<(u32, u32)> {
        if self.capabilities().intervals {
            self.inner.subtree_interval(n)
        } else {
            None
        }
    }

    fn positional_child_step(
        &self,
        n: NodeId,
        test: &NodeTest,
        pick: PositionalPick,
    ) -> Option<Vec<NodeId>> {
        if self.capabilities().positional {
            self.inner.positional_child_step(n, test, pick)
        } else {
            None
        }
    }

    fn capabilities(&self) -> SourceCapabilities {
        self.inner.capabilities().intersect(self.mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_xml;

    const XML: &str = r#"<r><a k="1"><b/><c/><b><b/></b></a><b/><c><a/></c></r>"#;

    #[test]
    fn prepared_axis_steps_agree_with_the_document() {
        let doc = parse_xml(XML).unwrap();
        let prepared = PreparedDocument::new(doc.clone());
        let tests = [
            NodeTest::name("a"),
            NodeTest::name("b"),
            NodeTest::name("nosuch"),
            NodeTest::Star,
            NodeTest::AnyNode,
            NodeTest::Text,
        ];
        for n in doc.all_nodes() {
            for axis in Axis::CORE.into_iter().chain([Axis::Attribute]) {
                for test in &tests {
                    assert_eq!(
                        AxisSource::axis_step(&prepared, n, axis, test),
                        AxisSource::axis_step(&doc, n, axis, test),
                        "{n:?} {axis} {test}"
                    );
                }
            }
        }
    }

    #[test]
    fn step_exists_agrees_with_axis_step_emptiness() {
        let doc = parse_xml(XML).unwrap();
        let prepared = PreparedDocument::new(doc.clone());
        let masked = CapabilityMask::new(prepared.clone(), SourceCapabilities::NONE);
        let tests = [
            NodeTest::name("a"),
            NodeTest::name("b"),
            NodeTest::name("k"),
            NodeTest::name("nosuch"),
            NodeTest::Resolved {
                name: "b".into(),
                id: prepared.tag_id("b"),
            },
            NodeTest::Resolved {
                name: "b".into(),
                id: None,
            },
            NodeTest::Star,
            NodeTest::AnyNode,
            NodeTest::Text,
        ];
        for n in doc.all_nodes() {
            for axis in Axis::CORE.into_iter().chain([Axis::Attribute]) {
                for test in &tests {
                    // Each source is held to its own axis_step: the
                    // existence form must agree with the list form
                    // source-by-source (a `Resolved { id: None }` test is
                    // empty through an index but matches by string through
                    // a walk, so sources legitimately differ among
                    // themselves).
                    assert_eq!(
                        AxisSource::step_exists(&doc, n, axis, test),
                        !AxisSource::axis_step(&doc, n, axis, test).is_empty(),
                        "doc: {n:?} {axis} {test}"
                    );
                    assert_eq!(
                        AxisSource::step_exists(&prepared, n, axis, test),
                        !AxisSource::axis_step(&prepared, n, axis, test).is_empty(),
                        "prepared: {n:?} {axis} {test}"
                    );
                    assert_eq!(
                        AxisSource::step_exists(&masked, n, axis, test),
                        !AxisSource::axis_step(&masked, n, axis, test).is_empty(),
                        "masked: {n:?} {axis} {test}"
                    );
                }
            }
        }
    }

    #[test]
    fn document_order_agrees() {
        let doc = parse_xml(XML).unwrap();
        let prepared = PreparedDocument::new(doc.clone());
        assert_eq!(
            AxisSource::document_order(&doc).as_ref(),
            AxisSource::document_order(&prepared).as_ref()
        );
        assert!(matches!(
            AxisSource::document_order(&prepared),
            Cow::Borrowed(_)
        ));
    }

    #[test]
    fn elements_named_is_indexed_only_when_prepared() {
        let doc = parse_xml(XML).unwrap();
        let prepared = PreparedDocument::new(doc.clone());
        assert!(AxisSource::elements_named(&doc, "b").is_none());
        assert_eq!(AxisSource::elements_named(&prepared, "b").unwrap().len(), 4);
        assert_eq!(AxisSource::node_count(&prepared), doc.len());
    }

    #[test]
    fn subtree_interval_is_indexed_only_when_prepared() {
        let doc = parse_xml(XML).unwrap();
        let prepared = PreparedDocument::new(doc.clone());
        for n in doc.all_nodes() {
            assert!(AxisSource::subtree_interval(&doc, n).is_none());
            assert_eq!(
                AxisSource::subtree_interval(&prepared, n),
                Some(prepared.pre_interval(n))
            );
        }
    }

    #[test]
    fn positional_child_step_agrees_with_filtering() {
        let doc = parse_xml(XML).unwrap();
        let prepared = PreparedDocument::new(doc.clone());
        let tests = [
            NodeTest::name("b"),
            NodeTest::name("nosuch"),
            NodeTest::Star,
            NodeTest::AnyNode,
            NodeTest::Text,
        ];
        for n in doc.all_nodes() {
            for test in &tests {
                let candidates = doc.axis_step(n, Axis::Child, test);
                for k in 0..=candidates.len() + 1 {
                    let expected: Vec<NodeId> = candidates
                        .get(k.wrapping_sub(1))
                        .copied()
                        .into_iter()
                        .collect();
                    assert_eq!(
                        AxisSource::positional_child_step(
                            &prepared,
                            n,
                            test,
                            PositionalPick::Nth(k)
                        ),
                        Some(expected),
                        "{n:?} {test} [{k}]"
                    );
                }
                let expected: Vec<NodeId> = candidates.last().copied().into_iter().collect();
                assert_eq!(
                    AxisSource::positional_child_step(&prepared, n, test, PositionalPick::Last),
                    Some(expected),
                    "{n:?} {test} [last()]"
                );
                // The plain document declines, signalling the fallback.
                assert!(
                    AxisSource::positional_child_step(&doc, n, test, PositionalPick::Last)
                        .is_none()
                );
            }
        }
    }

    #[test]
    fn capability_sets_reflect_index_availability() {
        let doc = parse_xml(XML).unwrap();
        let prepared = PreparedDocument::new(doc.clone());
        assert_eq!(
            AxisSource::capabilities(&doc),
            SourceCapabilities::UNINDEXED
        );
        assert_eq!(
            AxisSource::capabilities(&prepared),
            SourceCapabilities::FULL
        );
        assert_eq!(
            SourceCapabilities::FULL.intersect(SourceCapabilities::NONE),
            SourceCapabilities::NONE
        );
    }

    #[test]
    fn capability_mask_declines_masked_probes_but_agrees_on_results() {
        let doc = parse_xml(XML).unwrap();
        let prepared = PreparedDocument::new(doc.clone());
        let masked = CapabilityMask::new(prepared.clone(), SourceCapabilities::NONE);
        assert_eq!(masked.capabilities(), SourceCapabilities::NONE);
        assert!(AxisSource::elements_named(&masked, "b").is_none());
        assert_eq!(masked.resolve_tag("b"), TagResolution::NoIndex);
        for n in doc.all_nodes() {
            assert!(AxisSource::subtree_interval(&masked, n).is_none());
            assert!(AxisSource::positional_child_step(
                &masked,
                n,
                &NodeTest::name("b"),
                PositionalPick::Last
            )
            .is_none());
            for axis in Axis::CORE.into_iter().chain([Axis::Attribute]) {
                assert_eq!(
                    AxisSource::axis_step(&masked, n, axis, &NodeTest::name("b")),
                    AxisSource::axis_step(&prepared, n, axis, &NodeTest::name("b")),
                    "{n:?} {axis}"
                );
            }
        }
        assert!(matches!(AxisSource::document_order(&masked), Cow::Owned(_)));
        assert_eq!(
            AxisSource::document_order(&masked).as_ref(),
            AxisSource::document_order(&prepared).as_ref()
        );
    }

    #[test]
    fn capability_mask_partial_masking_keeps_unmasked_indexes() {
        let doc = parse_xml(XML).unwrap();
        let prepared = PreparedDocument::new(doc.clone());
        let mask = SourceCapabilities {
            positional: false,
            ..SourceCapabilities::FULL
        };
        let masked = CapabilityMask::new(prepared.clone(), mask);
        assert_eq!(masked.capabilities(), mask);
        assert!(AxisSource::elements_named(&masked, "b").is_some());
        assert!(matches!(
            AxisSource::document_order(&masked),
            Cow::Borrowed(_)
        ));
        let inner: &PreparedDocument = masked.inner();
        assert_eq!(inner.node_count(), doc.len());
    }
}
