//! Document order utilities.
//!
//! XPath node-set results are sets, but many operations (`position()`,
//! serializing results, the `following`/`preceding` axes) need document
//! order.  Document order is the preorder number assigned by the builder.

use crate::node::{Document, NodeId};
use std::cmp::Ordering;

impl Document {
    /// Compares two nodes by document order.
    #[inline]
    pub fn cmp_document_order(&self, a: NodeId, b: NodeId) -> Ordering {
        self.pre(a).cmp(&self.pre(b))
    }

    /// Sorts a node vector into document order and removes duplicates,
    /// turning an arbitrary node list into a canonical node-set
    /// representation.
    pub fn sort_document_order(&self, nodes: &mut Vec<NodeId>) {
        let distinct = self.sort_distinct(nodes);
        nodes.truncate(distinct);
    }

    /// Sorts the nodes of a slice into document order, each distinct node
    /// once at the front, and returns how many there are; what follows them
    /// is unspecified.
    pub fn sort_distinct(&self, nodes: &mut [NodeId]) -> usize {
        nodes.sort_by_key(|&n| self.pre(n));
        let mut kept = 0;
        for i in 0..nodes.len() {
            if kept == 0 || nodes[i] != nodes[kept - 1] {
                nodes[kept] = nodes[i];
                kept += 1;
            }
        }
        kept
    }

    /// Returns the nodes of `nodes` in document order without modifying the
    /// input.
    pub fn in_document_order(&self, nodes: &[NodeId]) -> Vec<NodeId> {
        let mut v = nodes.to_vec();
        self.sort_document_order(&mut v);
        v
    }

    /// The first node of a set in document order, if the set is non-empty.
    pub fn first_in_document_order(&self, nodes: &[NodeId]) -> Option<NodeId> {
        nodes.iter().copied().min_by_key(|&n| self.pre(n))
    }

    /// All nodes of the document in document order (root first).
    pub fn document_order(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.all_nodes().collect();
        v.sort_by_key(|&n| self.pre(n));
        v
    }

    /// The height of the document tree: length of the longest root-to-leaf
    /// path counted in edges.  The reductions of Theorem 3.2/Corollary 3.3
    /// produce documents of bounded height; tests assert this.
    pub fn height(&self) -> u32 {
        self.all_nodes().map(|n| self.depth(n)).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DocumentBuilder;

    fn sample() -> (Document, Vec<NodeId>) {
        let mut b = DocumentBuilder::new();
        let a = b.open_element("a");
        let x = b.leaf_element("x");
        let y = b.open_element("y");
        let z = b.leaf_element("z");
        b.close_element();
        b.close_element();
        let doc = b.finish();
        (doc, vec![a, x, y, z])
    }

    #[test]
    fn document_order_matches_builder_order() {
        let (doc, ids) = sample();
        let order = doc.document_order();
        assert_eq!(order[0], doc.root());
        assert_eq!(&order[1..], &[ids[0], ids[1], ids[2], ids[3]]);
    }

    #[test]
    fn cmp_and_sort() {
        let (doc, ids) = sample();
        let (a, x, _y, z) = (ids[0], ids[1], ids[2], ids[3]);
        assert_eq!(doc.cmp_document_order(a, z), Ordering::Less);
        assert_eq!(doc.cmp_document_order(z, x), Ordering::Greater);
        assert_eq!(doc.cmp_document_order(a, a), Ordering::Equal);

        let mut v = vec![z, a, z, x];
        doc.sort_document_order(&mut v);
        assert_eq!(v, vec![a, x, z]);
    }

    #[test]
    fn first_in_document_order() {
        let (doc, ids) = sample();
        assert_eq!(doc.first_in_document_order(&[ids[3], ids[1]]), Some(ids[1]));
        assert_eq!(doc.first_in_document_order(&[]), None);
    }

    #[test]
    fn in_document_order_is_pure() {
        let (doc, ids) = sample();
        let input = vec![ids[3], ids[0]];
        let sorted = doc.in_document_order(&input);
        assert_eq!(sorted, vec![ids[0], ids[3]]);
        assert_eq!(input, vec![ids[3], ids[0]]);
    }

    #[test]
    fn height_of_trees() {
        let (doc, _) = sample();
        assert_eq!(doc.height(), 3);
        let empty = DocumentBuilder::new().finish();
        assert_eq!(empty.height(), 0);
        let mut b = DocumentBuilder::new();
        for i in 0..10 {
            b.open_element(format!("e{i}"));
        }
        let deep = b.finish();
        assert_eq!(deep.height(), 10);
    }
}
