//! Arena-based document tree.
//!
//! Nodes live in a flat `Vec` inside [`Document`]; [`NodeId`] is an index
//! into that vector.  Sibling and parent/child relationships are stored as
//! explicit links so that every axis of the XPath data model can be walked
//! without allocation.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// Spacing between consecutive ordering keys on a fresh build.
///
/// `pre`/`post` are *ordering keys*, not dense ranks: a freshly finalized
/// document assigns keys in multiples of this stride, leaving gaps that
/// in-place edits (the `xpeval-live` crate) use to key freshly inserted
/// nodes without renumbering the rest of the document.  Code must compare
/// keys, never index by them.
pub const KEY_STRIDE: u32 = 8;

/// Identifier of a node within a [`Document`].
///
/// `NodeId`s are only meaningful relative to the document that created them.
/// The root node of every document is id `0`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Numeric index of this node inside the document arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct a `NodeId` from a raw index.
    ///
    /// Intended for code that stores node sets as index-based bitsets (the
    /// linear-time Core XPath evaluator does this); passing an index that is
    /// out of bounds for the document will cause panics on use.
    #[inline]
    pub fn from_index(ix: usize) -> Self {
        NodeId(ix as u32)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The kind of a node in the XPath data model.
///
/// The paper (and Core XPath) only needs element nodes and the conceptual
/// root; text and attribute nodes are included so that the full-XPath string
/// functions and the `attribute` axis have something to operate on.
/// Strings are held as `Arc<str>` so that cloning a [`Document`] — the
/// copy-on-write step behind every in-place mutation — bumps reference
/// counts instead of reallocating every name, text and attribute value in
/// the tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// The conceptual root node of the document (parent of the document
    /// element).  Exactly one per document, always [`Document::root`].
    Root,
    /// An element node with a tag name.
    Element { name: Arc<str> },
    /// A text node.
    Text { text: Arc<str> },
    /// An attribute node.  Attribute nodes have their owner element as
    /// parent but are not children of it (they are reached only through the
    /// `attribute` axis), exactly as in the XPath 1.0 data model.
    Attribute { name: Arc<str>, value: Arc<str> },
}

impl NodeKind {
    /// Returns the element tag name, if this is an element.
    pub fn element_name(&self) -> Option<&str> {
        match self {
            NodeKind::Element { name } => Some(name),
            _ => None,
        }
    }

    /// True if this node is an element.
    pub fn is_element(&self) -> bool {
        matches!(self, NodeKind::Element { .. })
    }

    /// True if this node is a text node.
    pub fn is_text(&self) -> bool {
        matches!(self, NodeKind::Text { .. })
    }

    /// True if this node is an attribute node.
    pub fn is_attribute(&self) -> bool {
        matches!(self, NodeKind::Attribute { .. })
    }

    /// True if this node is the conceptual root.
    pub fn is_root(&self) -> bool {
        matches!(self, NodeKind::Root)
    }
}

/// Per-node record stored in the arena.
#[derive(Clone, Debug)]
pub(crate) struct NodeData {
    pub(crate) kind: NodeKind,
    pub(crate) parent: Option<NodeId>,
    pub(crate) first_child: Option<NodeId>,
    pub(crate) last_child: Option<NodeId>,
    pub(crate) next_sibling: Option<NodeId>,
    pub(crate) prev_sibling: Option<NodeId>,
    /// Attribute nodes owned by this element (`None` for non-elements and
    /// attribute-less elements).  Shared behind an `Arc` so that the
    /// copy-on-write `Document` clone taken before every in-place mutation
    /// bumps one reference count per element instead of reallocating each
    /// per-element vector; only an edit that changes *this* element's
    /// attribute list pays for the copy.
    pub(crate) attributes: Option<Arc<Vec<NodeId>>>,
}

/// A node's ordering keys, stored in a flat side table
/// ([`Document::keys`]) rather than in the arena record: they are read in
/// the hottest loops of document-order comparison and interval scans,
/// where the flat table is one dependent load instead of the chunked
/// arena's two — and being plain `u32`s they clone by `memcpy`, so the
/// copy-on-write `Document` clone stays cheap.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct NodeKeys {
    /// Preorder ordering key (document order), assigned by the builder's
    /// finalization pass.  Gapped — see [`KEY_STRIDE`].
    pub(crate) pre: u32,
    /// Postorder ordering key: every node's subtree spans the key interval
    /// `[pre, post]`, intervals nest like the tree does, and children sort
    /// before parents.  Gapped like `pre`.
    pub(crate) post: u32,
    /// Depth (root = 0).
    pub(crate) depth: u32,
}

impl NodeData {
    /// The element's attribute nodes (empty slice when it has none).
    #[inline]
    pub(crate) fn attrs(&self) -> &[NodeId] {
        self.attributes.as_deref().map_or(&[], Vec::as_slice)
    }

    /// Appends an attribute node, copying the list only if it is shared.
    pub(crate) fn push_attr(&mut self, id: NodeId) {
        Arc::make_mut(self.attributes.get_or_insert_with(Default::default)).push(id);
    }

    /// Replaces the attribute list wholesale.
    pub(crate) fn set_attrs(&mut self, attrs: Vec<NodeId>) {
        self.attributes = if attrs.is_empty() {
            None
        } else {
            Some(Arc::new(attrs))
        };
    }

    pub(crate) fn new(kind: NodeKind) -> Self {
        NodeData {
            kind,
            parent: None,
            first_child: None,
            last_child: None,
            next_sibling: None,
            prev_sibling: None,
            attributes: None,
        }
    }
}

/// An XML document: an arena of nodes rooted at the conceptual root node.
///
/// Documents are built via [`crate::DocumentBuilder`] or [`crate::parse_xml`]
/// and are immutable through this type's API; all evaluators in the workspace
/// share `&Document` references freely, including across threads.  In-place
/// edits happen only through [`crate::PreparedDocument`]'s mutation methods
/// (exposed by the `xpeval-live` crate), which may leave *detached* arena
/// slots behind after a removal: [`Document::len`] counts slots, while
/// [`Document::all_nodes`] yields only attached nodes.  Detached slots are
/// recycled by later inserts on the same document (so a long edit stream
/// keeps the arena bounded by the peak live size); snapshots taken before
/// the removal are copy-on-write and keep seeing the original node.
#[derive(Clone, Debug)]
pub struct Document {
    pub(crate) nodes: Arena,
    /// Ordering keys, parallel to the arena — see [`NodeKeys`] for why
    /// they live outside it.
    keys: Vec<NodeKeys>,
    /// Slots detached by removals, available for reuse by the next graft.
    free: Vec<NodeId>,
}

/// Chunk granularity of the node arena: 512 nodes per chunk.
const CHUNK_BITS: usize = 9;
pub(crate) const CHUNK_SIZE: usize = 1 << CHUNK_BITS;

/// The node store behind [`Document`]: fixed-size *sealed* chunks shared
/// behind `Arc`s, plus one plain, exclusively-owned *tail* chunk that
/// absorbs appends.
///
/// This is the storage layer of copy-on-write mutation.  Cloning a
/// `Document` — the step every in-place edit pays so that concurrent
/// readers keep an immutable pre-edit snapshot — bumps one reference
/// count per sealed chunk (a few dozen for even large documents) and
/// copies only the short tail, instead of deep-copying every node record.
/// A mutable access then un-shares only the chunk it lands in, so an edit
/// copies the local neighborhood it actually touches, in proportion to
/// the edit, not to the document.
///
/// Sealed chunks are `Arc<[NodeData]>` — the records live inline next to
/// the refcount, so a read is two dependent loads (chunk table, then
/// node), not three as with an `Arc<Vec<_>>`.  That matters: every link
/// in an unprepared tree walk is one of these loads.  Each sealed chunk
/// holds exactly [`CHUNK_SIZE`] nodes and the tail holds the rest, which
/// makes slot lookup a shift, a mask and one predictable branch.
#[derive(Clone, Debug, Default)]
pub(crate) struct Arena {
    sealed: Vec<Arc<[NodeData]>>,
    tail: Vec<NodeData>,
}

impl Arena {
    #[inline]
    pub(crate) fn len(&self) -> usize {
        (self.sealed.len() << CHUNK_BITS) + self.tail.len()
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> &NodeData {
        let c = i >> CHUNK_BITS;
        match self.sealed.get(c) {
            Some(chunk) => &chunk[i & (CHUNK_SIZE - 1)],
            None => &self.tail[i & (CHUNK_SIZE - 1)],
        }
    }

    pub(crate) fn get_mut(&mut self, i: usize) -> &mut NodeData {
        let c = i >> CHUNK_BITS;
        match self.sealed.get_mut(c) {
            Some(chunk) => {
                // Copy-on-write by hand: `Arc::make_mut` does not exist
                // for slices, so un-share the chunk once and then hand out
                // the unique borrow.
                if Arc::get_mut(chunk).is_none() {
                    *chunk = chunk.iter().cloned().collect();
                }
                &mut Arc::get_mut(chunk).expect("uniquely owned after un-sharing")
                    [i & (CHUNK_SIZE - 1)]
            }
            None => &mut self.tail[i & (CHUNK_SIZE - 1)],
        }
    }

    pub(crate) fn push(&mut self, data: NodeData) {
        self.tail.push(data);
        if self.tail.len() == CHUNK_SIZE {
            self.sealed.push(self.tail.drain(..).collect());
        }
    }
}

impl Document {
    /// Creates an empty document containing only the conceptual root node.
    pub(crate) fn empty() -> Self {
        let mut nodes = Arena::default();
        nodes.push(NodeData::new(NodeKind::Root));
        Document {
            nodes,
            keys: vec![NodeKeys::default()],
            free: Vec::new(),
        }
    }

    /// Appends one node record (and its zeroed key slot) to the arena —
    /// the builder's append path; edits allocate via [`Document::alloc`].
    pub(crate) fn append(&mut self, data: NodeData) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(data);
        self.keys.push(NodeKeys::default());
        id
    }

    /// Allocates one arena slot, preferring a slot detached by an earlier
    /// removal over growing the arena.
    pub(crate) fn alloc(&mut self, data: NodeData) -> NodeId {
        match self.free.pop() {
            Some(id) => {
                *self.nodes.get_mut(id.index()) = data;
                self.keys[id.index()] = NodeKeys::default();
                id
            }
            None => self.append(data),
        }
    }

    /// Marks detached slots as reusable.  Callers must have unlinked them
    /// from the tree first; the slots' contents are overwritten on reuse.
    pub(crate) fn release(&mut self, ids: &[NodeId]) {
        self.free.extend_from_slice(ids);
    }

    /// The conceptual root node of the document.
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Total number of arena slots (root + elements + text + attributes,
    /// including slots detached by in-place removals).  Bitset-based
    /// evaluators size their sets from this.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the document contains only the conceptual root.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// True if `id` is attached to the tree (the root, or any node with a
    /// parent link).  Nodes detached by an in-place removal stay in the
    /// arena as dead slots — ids never dangle against the snapshot they
    /// came from — until a later insert on the same document recycles them.
    #[inline]
    pub fn is_attached(&self, id: NodeId) -> bool {
        id.0 == 0 || self.data(id).parent.is_some()
    }

    /// Iterator over every attached node id in arena order (which equals
    /// document order for freshly built documents since the builder appends
    /// in preorder; after in-place edits, sort by [`Document::pre`] when
    /// order matters).
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32)
            .map(NodeId)
            .filter(move |&n| self.is_attached(n))
    }

    /// Iterator over every element node id in document order.
    pub fn all_elements(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.all_nodes().filter(move |&n| self.kind(n).is_element())
    }

    #[inline]
    pub(crate) fn data(&self, id: NodeId) -> &NodeData {
        self.nodes.get(id.index())
    }

    #[inline]
    pub(crate) fn data_mut(&mut self, id: NodeId) -> &mut NodeData {
        self.nodes.get_mut(id.index())
    }

    /// The kind of a node.
    #[inline]
    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.data(id).kind
    }

    /// Element name of a node, if it is an element.
    #[inline]
    pub fn name(&self, id: NodeId) -> Option<&str> {
        match self.kind(id) {
            NodeKind::Element { name } => Some(&**name),
            NodeKind::Attribute { name, .. } => Some(&**name),
            _ => None,
        }
    }

    /// Parent of a node (`None` only for the root).
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.data(id).parent
    }

    /// First child (in document order) of a node.
    #[inline]
    pub fn first_child(&self, id: NodeId) -> Option<NodeId> {
        self.data(id).first_child
    }

    /// Last child (in document order) of a node.
    #[inline]
    pub fn last_child(&self, id: NodeId) -> Option<NodeId> {
        self.data(id).last_child
    }

    /// Next sibling in document order.
    #[inline]
    pub fn next_sibling(&self, id: NodeId) -> Option<NodeId> {
        self.data(id).next_sibling
    }

    /// Previous sibling in document order.
    #[inline]
    pub fn prev_sibling(&self, id: NodeId) -> Option<NodeId> {
        self.data(id).prev_sibling
    }

    /// Attribute nodes of an element (empty slice for non-elements).
    #[inline]
    pub fn attributes(&self, id: NodeId) -> &[NodeId] {
        self.data(id).attrs()
    }

    /// Looks up the value of the attribute named `name` on element `id`.
    pub fn attribute_value(&self, id: NodeId, name: &str) -> Option<&str> {
        self.attributes(id)
            .iter()
            .find_map(|&a| match self.kind(a) {
                NodeKind::Attribute { name: n, value } if &**n == name => Some(&**value),
                _ => None,
            })
    }

    /// Depth of the node (the root has depth 0, the document element 1).
    #[inline]
    pub fn depth(&self, id: NodeId) -> u32 {
        self.keys[id.index()].depth
    }

    /// Preorder ordering key of the node: comparing two nodes' keys compares
    /// their document order.  Keys are gapped (see [`KEY_STRIDE`]) — compare
    /// them, never index by them.
    #[inline]
    pub fn pre(&self, id: NodeId) -> u32 {
        self.keys[id.index()].pre
    }

    /// Postorder ordering key of the node: a node's subtree spans the key
    /// interval `[pre, post]`, intervals nest like the tree, and children's
    /// exit keys sort before their parent's.  Attributes have `post == pre`.
    #[inline]
    pub fn post(&self, id: NodeId) -> u32 {
        self.keys[id.index()].post
    }

    /// Mutable access to a node's ordering keys (builder finalization and
    /// in-place edits only).
    #[inline]
    pub(crate) fn keys_mut(&mut self, id: NodeId) -> &mut NodeKeys {
        &mut self.keys[id.index()]
    }

    /// The *string value* of a node per the XPath 1.0 data model:
    /// concatenation of all descendant text for root/element nodes, the text
    /// itself for text nodes and the attribute value for attribute nodes.
    pub fn string_value(&self, id: NodeId) -> String {
        self.string_value_cow(id).into_owned()
    }

    /// [`Document::string_value`], borrowed wherever the document holds it
    /// as one string: attribute and text nodes, and element or root nodes
    /// with no child or a single text child.  Anything else is concatenated
    /// into an owned string.
    pub fn string_value_cow(&self, id: NodeId) -> Cow<'_, str> {
        match self.kind(id) {
            NodeKind::Text { text } => Cow::Borrowed(&**text),
            NodeKind::Attribute { value, .. } => Cow::Borrowed(&**value),
            NodeKind::Root | NodeKind::Element { .. } => {
                let Some(first) = self.first_child(id) else {
                    return Cow::Borrowed("");
                };
                if let (NodeKind::Text { text }, None) =
                    (self.kind(first), self.next_sibling(first))
                {
                    return Cow::Borrowed(&**text);
                }
                let mut out = String::new();
                self.collect_text(id, &mut out);
                Cow::Owned(out)
            }
        }
    }

    fn collect_text(&self, id: NodeId, out: &mut String) {
        let mut child = self.first_child(id);
        while let Some(c) = child {
            match self.kind(c) {
                NodeKind::Text { text } => out.push_str(text),
                _ => self.collect_text(c, out),
            }
            child = self.next_sibling(c);
        }
    }

    /// Number of element children of `id` with tag `name` (used in tests
    /// and by the reductions crate to sanity check constructions).
    pub fn count_children_named(&self, id: NodeId, name: &str) -> usize {
        let mut n = 0;
        let mut child = self.first_child(id);
        while let Some(c) = child {
            if self.name(c) == Some(name) {
                n += 1;
            }
            child = self.next_sibling(c);
        }
        n
    }

    /// The number of element nodes in the document (|D| in the paper's
    /// complexity statements; attribute and text nodes are counted too when
    /// reporting document sizes in EXPERIMENTS.md, but the element count is
    /// the measure the reductions reason about).
    pub fn element_count(&self) -> usize {
        self.all_elements().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DocumentBuilder;

    fn sample() -> Document {
        let mut b = DocumentBuilder::new();
        b.open_element("a");
        b.open_element("b");
        b.text("hello ");
        b.close_element();
        b.open_element("c");
        b.attribute("k", "v");
        b.text("world");
        b.close_element();
        b.close_element();
        b.finish()
    }

    #[test]
    fn root_is_zero_and_rootkind() {
        let doc = sample();
        assert_eq!(doc.root(), NodeId(0));
        assert!(doc.kind(doc.root()).is_root());
        assert!(doc.parent(doc.root()).is_none());
    }

    #[test]
    fn structure_links() {
        let doc = sample();
        let a = doc.first_child(doc.root()).unwrap();
        assert_eq!(doc.name(a), Some("a"));
        let b = doc.first_child(a).unwrap();
        assert_eq!(doc.name(b), Some("b"));
        let c = doc.next_sibling(b).unwrap();
        assert_eq!(doc.name(c), Some("c"));
        assert_eq!(doc.prev_sibling(c), Some(b));
        assert_eq!(doc.last_child(a), Some(c));
        assert_eq!(doc.parent(b), Some(a));
        assert_eq!(doc.parent(c), Some(a));
    }

    #[test]
    fn string_value_concatenates_descendant_text() {
        let doc = sample();
        let a = doc.first_child(doc.root()).unwrap();
        assert_eq!(doc.string_value(a), "hello world");
        assert_eq!(doc.string_value(doc.root()), "hello world");
    }

    #[test]
    fn attribute_lookup() {
        let doc = sample();
        let a = doc.first_child(doc.root()).unwrap();
        let c = doc.last_child(a).unwrap();
        assert_eq!(doc.attribute_value(c, "k"), Some("v"));
        assert_eq!(doc.attribute_value(c, "missing"), None);
        assert_eq!(doc.attributes(c).len(), 1);
        let attr = doc.attributes(c)[0];
        assert!(doc.kind(attr).is_attribute());
        assert_eq!(doc.parent(attr), Some(c));
        // Attribute nodes are not children.
        let mut kids = vec![];
        let mut ch = doc.first_child(c);
        while let Some(k) = ch {
            kids.push(k);
            ch = doc.next_sibling(k);
        }
        assert!(!kids.contains(&attr));
    }

    #[test]
    fn depth_and_counts() {
        let doc = sample();
        let a = doc.first_child(doc.root()).unwrap();
        let b = doc.first_child(a).unwrap();
        assert_eq!(doc.depth(doc.root()), 0);
        assert_eq!(doc.depth(a), 1);
        assert_eq!(doc.depth(b), 2);
        assert_eq!(doc.element_count(), 3);
        assert_eq!(doc.count_children_named(a, "b"), 1);
        assert_eq!(doc.count_children_named(a, "c"), 1);
        assert_eq!(doc.count_children_named(a, "zzz"), 0);
    }

    #[test]
    fn string_value_of_text_and_attribute_nodes() {
        let doc = sample();
        let a = doc.first_child(doc.root()).unwrap();
        let b = doc.first_child(a).unwrap();
        let t = doc.first_child(b).unwrap();
        assert!(doc.kind(t).is_text());
        assert_eq!(doc.string_value(t), "hello ");
        let c = doc.last_child(a).unwrap();
        let attr = doc.attributes(c)[0];
        assert_eq!(doc.string_value(attr), "v");
    }

    #[test]
    fn string_values_are_borrowed_where_the_document_holds_one_string() {
        let doc = sample();
        let a = doc.first_child(doc.root()).unwrap();
        let b = doc.first_child(a).unwrap();
        let c = doc.last_child(a).unwrap();
        let t = doc.first_child(b).unwrap();
        let attr = doc.attributes(c)[0];
        for (node, borrowed) in [(t, true), (attr, true), (b, true), (a, false)] {
            let cow = doc.string_value_cow(node);
            assert_eq!(cow, doc.string_value(node), "{node:?}");
            assert_eq!(matches!(cow, Cow::Borrowed(_)), borrowed, "{node:?}");
        }
        let empty = DocumentBuilder::new().finish();
        assert!(matches!(
            empty.string_value_cow(empty.root()),
            Cow::Borrowed("")
        ));
    }

    #[test]
    fn empty_document() {
        let doc = DocumentBuilder::new().finish();
        assert!(doc.is_empty());
        assert_eq!(doc.len(), 1);
        assert_eq!(doc.element_count(), 0);
        assert_eq!(doc.string_value(doc.root()), "");
    }

    #[test]
    fn node_id_display_and_index_roundtrip() {
        let id = NodeId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(format!("{id}"), "n42");
        assert_eq!(format!("{id:?}"), "n42");
    }
}
