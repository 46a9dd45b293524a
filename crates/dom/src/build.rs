//! Programmatic construction of [`Document`]s.
//!
//! The builder appends nodes in preorder, which means arena order equals
//! document order; [`DocumentBuilder::finish`] then assigns pre/post ordering
//! keys and depths in a single traversal.  Keys are *gapped* (multiples of
//! [`KEY_STRIDE`]) so later in-place edits can key inserted nodes between
//! their neighbours without renumbering the document.

use crate::node::{Document, NodeData, NodeId, NodeKind, KEY_STRIDE};
use std::sync::Arc;

/// Builds a [`Document`] by opening and closing elements like a SAX writer.
///
/// Names, text and values are taken as anything that converts into an
/// `Arc<str>`: a `&str` or `String` is copied into a fresh allocation, an
/// `Arc<str>` is shared as it is (the XML parser passes each distinct name
/// that way, so a document holds one copy of every name).
///
/// ```
/// use xpeval_dom::DocumentBuilder;
/// let mut b = DocumentBuilder::new();
/// b.open_element("a");
/// b.open_element("b");
/// b.close_element();
/// b.close_element();
/// let doc = b.finish();
/// assert_eq!(doc.element_count(), 2);
/// ```
#[derive(Debug)]
pub struct DocumentBuilder {
    doc: Document,
    /// Stack of currently open elements; the bottom entry is the root.
    open: Vec<OpenNode>,
}

/// An open element and the child links it gets when it closes.  Keeping
/// them here, not in the arena, saves two arena writes per child: the
/// parent's record may already sit in a sealed (shared) chunk.
#[derive(Debug)]
struct OpenNode {
    id: NodeId,
    first_child: Option<NodeId>,
    last_child: Option<NodeId>,
}

impl OpenNode {
    fn new(id: NodeId) -> Self {
        OpenNode {
            id,
            first_child: None,
            last_child: None,
        }
    }
}

impl Default for DocumentBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DocumentBuilder {
    /// Creates a builder with only the conceptual root node open.
    pub fn new() -> Self {
        let doc = Document::empty();
        let root = doc.root();
        DocumentBuilder {
            doc,
            open: vec![OpenNode::new(root)],
        }
    }

    fn push_node(&mut self, kind: NodeKind) -> NodeId {
        let parent = self.open.last_mut().expect("builder root is never popped");
        let mut data = NodeData::new(kind);
        data.parent = Some(parent.id);
        data.prev_sibling = parent.last_child;
        let id = self.doc.append(data);
        match parent.last_child {
            Some(prev) => self.doc.data_mut(prev).next_sibling = Some(id),
            None => parent.first_child = Some(id),
        }
        parent.last_child = Some(id);
        id
    }

    /// Pops the innermost open node and writes its child links.
    fn pop_open(&mut self) {
        let node = self.open.pop().expect("callers pop only a non-empty stack");
        if node.first_child.is_some() {
            let data = self.doc.data_mut(node.id);
            data.first_child = node.first_child;
            data.last_child = node.last_child;
        }
    }

    /// Opens a new element as a child of the currently open element.
    /// Returns the id of the new element.
    pub fn open_element(&mut self, name: impl Into<Arc<str>>) -> NodeId {
        let id = self.push_node(NodeKind::Element { name: name.into() });
        self.open.push(OpenNode::new(id));
        id
    }

    /// Closes the most recently opened element.
    ///
    /// # Panics
    /// Panics if no element is currently open.
    pub fn close_element(&mut self) {
        assert!(
            self.open.len() > 1,
            "close_element called with no open element"
        );
        self.pop_open();
    }

    /// Appends an empty element (open followed by close). Returns its id.
    pub fn leaf_element(&mut self, name: impl Into<Arc<str>>) -> NodeId {
        let id = self.open_element(name);
        self.close_element();
        id
    }

    /// Appends a text node to the currently open element.
    pub fn text(&mut self, text: impl Into<Arc<str>>) -> NodeId {
        self.push_node(NodeKind::Text { text: text.into() })
    }

    /// Adds an attribute to the currently open element.
    ///
    /// # Panics
    /// Panics if no element is open (attributes cannot be added to the root).
    pub fn attribute(&mut self, name: impl Into<Arc<str>>, value: impl Into<Arc<str>>) -> NodeId {
        assert!(self.open.len() > 1, "attribute called with no open element");
        let owner = self.open.last().expect("checked above").id;
        let mut data = NodeData::new(NodeKind::Attribute {
            name: name.into(),
            value: value.into(),
        });
        data.parent = Some(owner);
        let id = self.doc.append(data);
        self.doc.data_mut(owner).push_attr(id);
        id
    }

    /// Number of nodes created so far (including the root).
    pub fn len(&self) -> usize {
        self.doc.nodes.len()
    }

    /// True if no node besides the root has been created.
    pub fn is_empty(&self) -> bool {
        self.doc.nodes.len() <= 1
    }

    /// Finishes the document: closes any still-open elements and assigns
    /// ordering keys (pre/post) and depth to every node.
    pub fn finish(mut self) -> Document {
        while !self.open.is_empty() {
            self.pop_open();
        }
        finalize(&mut self.doc);
        self.doc
    }
}

/// Assigns gapped pre/post ordering keys and depths to the whole document.
pub(crate) fn finalize(doc: &mut Document) {
    let root = doc.root();
    assign_subtree_keys(doc, root, 0, KEY_STRIDE, 0);
}

/// Number of ordering-key slots a subtree consumes: two per non-attribute
/// node (entry and exit) plus one per attribute.
pub(crate) fn subtree_key_slots(doc: &Document, top: NodeId) -> u64 {
    let mut slots = 0u64;
    let mut stack = vec![top];
    while let Some(node) = stack.pop() {
        slots += 2 + doc.data(node).attrs().len() as u64;
        let mut c = doc.data(node).first_child;
        while let Some(ch) = c {
            stack.push(ch);
            c = doc.data(ch).next_sibling;
        }
    }
    slots
}

/// Assigns pre/post ordering keys and depths to `top`'s entire subtree with
/// an explicit-stack DFS (documents in the benchmark harness can be deep
/// chains, so recursion is avoided).
///
/// Keys start at `start_key` and advance by `stride` per slot: a
/// non-attribute node takes an entry slot (its `pre`) and an exit slot (its
/// `post`, assigned after its attributes and children so subtrees nest and
/// children sort before parents); an attribute takes a single slot directly
/// after its owner's entry (XPath 1.0: attributes precede children in
/// document order) with `post == pre` — a degenerate interval, since
/// attributes have no subtree.  Returns the first key after the subtree,
/// i.e. `start_key + stride * subtree_key_slots(..)`.
pub(crate) fn assign_subtree_keys(
    doc: &mut Document,
    top: NodeId,
    start_key: u32,
    stride: u32,
    top_depth: u32,
) -> u32 {
    debug_assert!(stride >= 1, "key stride must be positive");
    let mut key = start_key;
    // (node, depth, entering?)
    let mut stack: Vec<(NodeId, u32, bool)> = vec![(top, top_depth, true)];
    while let Some((node, depth, entering)) = stack.pop() {
        if entering {
            {
                let k = doc.keys_mut(node);
                k.pre = key;
                k.depth = depth;
            }
            key += stride;
            for i in 0..doc.data(node).attrs().len() {
                let a = doc.data(node).attrs()[i];
                let k = doc.keys_mut(a);
                k.pre = key;
                k.post = key;
                k.depth = depth + 1;
                key += stride;
            }
            stack.push((node, depth, false));
            // Push children last to first so the first child is processed
            // first.
            let mut c = doc.data(node).last_child;
            while let Some(ch) = c {
                stack.push((ch, depth + 1, true));
                c = doc.data(ch).prev_sibling;
            }
        } else {
            doc.keys_mut(node).post = key;
            key += stride;
        }
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preorder_keys_follow_document_order() {
        let mut b = DocumentBuilder::new();
        b.open_element("a");
        b.open_element("b");
        b.close_element();
        b.open_element("c");
        b.open_element("d");
        b.close_element();
        b.close_element();
        b.close_element();
        let doc = b.finish();
        // Builder arena order is document order; pre keys must be strictly
        // increasing along it and gapped by the build stride.
        let pres: Vec<u32> = doc.all_nodes().map(|n| doc.pre(n)).collect();
        assert!(pres.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(doc.pre(doc.root()), 0);
        assert!(pres.iter().all(|p| p % KEY_STRIDE == 0));
    }

    #[test]
    fn postorder_is_children_before_parents() {
        let mut b = DocumentBuilder::new();
        let a = b.open_element("a");
        let bb = b.open_element("b");
        b.close_element();
        let c = b.open_element("c");
        b.close_element();
        b.close_element();
        let doc = b.finish();
        assert!(doc.post(bb) < doc.post(a));
        assert!(doc.post(c) < doc.post(a));
        assert!(doc.post(bb) < doc.post(c));
        // The root's exit key is the largest key in the document.
        assert!(doc.all_nodes().all(|n| doc.post(n) <= doc.post(doc.root())));
        // Subtree intervals nest: every node lies inside the root's.
        assert!(doc
            .all_nodes()
            .skip(1)
            .all(|n| doc.pre(n) > doc.pre(doc.root()) && doc.post(n) < doc.post(doc.root())));
    }

    #[test]
    fn unclosed_elements_are_closed_by_finish() {
        let mut b = DocumentBuilder::new();
        b.open_element("a");
        b.open_element("b");
        // no close_element calls
        let doc = b.finish();
        assert_eq!(doc.element_count(), 2);
    }

    #[test]
    fn leaf_element_helper() {
        let mut b = DocumentBuilder::new();
        b.open_element("root");
        let x = b.leaf_element("x");
        let y = b.leaf_element("y");
        b.close_element();
        let doc = b.finish();
        assert_eq!(doc.next_sibling(x), Some(y));
        assert_eq!(doc.name(x), Some("x"));
    }

    #[test]
    #[should_panic(expected = "close_element")]
    fn closing_root_panics() {
        let mut b = DocumentBuilder::new();
        b.close_element();
    }

    #[test]
    #[should_panic(expected = "attribute")]
    fn attribute_on_root_panics() {
        let mut b = DocumentBuilder::new();
        b.attribute("k", "v");
    }

    #[test]
    fn attribute_document_order_between_element_and_children() {
        let mut b = DocumentBuilder::new();
        let e = b.open_element("e");
        let a = b.attribute("k", "v");
        let c = b.open_element("c");
        b.close_element();
        b.close_element();
        let doc = b.finish();
        assert!(doc.pre(e) < doc.pre(a));
        assert!(doc.pre(a) < doc.pre(c));
    }

    #[test]
    fn builder_len_tracks_nodes() {
        let mut b = DocumentBuilder::new();
        assert!(b.is_empty());
        b.open_element("a");
        b.text("t");
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
    }
}
