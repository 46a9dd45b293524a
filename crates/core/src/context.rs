//! Evaluation contexts.
//!
//! XPath expressions are evaluated relative to a *context*: a triple of a
//! context node, a context position and a context size (XPath 1.0 §1, and
//! Section 2.2 of the paper).  The dynamic-programming evaluator memoizes on
//! [`ContextKey`]s: subexpressions that do not mention `position()`/`last()`
//! only depend on the context node, which is what keeps the number of
//! distinct table entries — and hence the combined complexity — polynomial.
//! The tables hash their keys with `KeyHasher`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use xpeval_dom::{Document, NodeId};

/// A context triple `(node, position, size)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Context {
    /// The context node.
    pub node: NodeId,
    /// The context position (1-based).
    pub position: usize,
    /// The context size.
    pub size: usize,
}

impl Context {
    /// Creates a context triple.
    pub fn new(node: NodeId, position: usize, size: usize) -> Self {
        Context {
            node,
            position,
            size,
        }
    }

    /// The canonical initial context for evaluating a complete query on a
    /// document: the conceptual root with position and size 1.
    pub fn root(doc: &Document) -> Self {
        Context {
            node: doc.root(),
            position: 1,
            size: 1,
        }
    }

    /// Context with the same position/size but a different node.
    pub fn with_node(self, node: NodeId) -> Self {
        Context { node, ..self }
    }
}

/// Memoization key of the context-value tables: either the full triple (for
/// position-sensitive subexpressions) or just the context node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ContextKey {
    /// The subexpression's value depends only on the context node.
    Node(NodeId),
    /// The subexpression's value depends on the full context triple.
    Full(NodeId, usize, usize),
}

impl ContextKey {
    /// Builds the appropriate key for a context given the subexpression's
    /// position-sensitivity.
    pub fn for_context(ctx: Context, position_sensitive: bool) -> Self {
        if position_sensitive {
            ContextKey::Full(ctx.node, ctx.position, ctx.size)
        } else {
            ContextKey::Node(ctx.node)
        }
    }
}

/// The hasher of the evaluators' tables: one multiply per word, where
/// std's default SipHash spends dozens of cycles per key.  A table key is
/// made of opcode ids, node ids, positions and sizes that the parser and
/// the evaluator assign — never bytes taken from the input — so it needs no
/// keyed hash ([`xpeval_dom::intern`] keeps one for tag names).  Node ids
/// can still be regular (one per item of a fixed-size record), so `finish`
/// rotates the well-mixed high half of the product into the low bits the
/// table picks its bucket from.
#[derive(Clone, Copy, Default)]
pub(crate) struct KeyHasher(u64);

impl KeyHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = self
            .0
            .wrapping_add(word)
            .wrapping_mul(0xf135_7aea_2e62_a9c5);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A table keyed by opcode, node and context integers, hashed with
/// [`KeyHasher`].
pub(crate) type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use xpeval_dom::parse_xml;

    #[test]
    fn root_context() {
        let doc = parse_xml("<a/>").unwrap();
        let ctx = Context::root(&doc);
        assert_eq!(ctx.node, doc.root());
        assert_eq!(ctx.position, 1);
        assert_eq!(ctx.size, 1);
    }

    #[test]
    fn with_node_keeps_position() {
        let doc = parse_xml("<a/>").unwrap();
        let a = doc.first_child(doc.root()).unwrap();
        let ctx = Context::new(doc.root(), 3, 7).with_node(a);
        assert_eq!(ctx.node, a);
        assert_eq!(ctx.position, 3);
        assert_eq!(ctx.size, 7);
    }

    #[test]
    fn context_key_collapses_when_insensitive() {
        let doc = parse_xml("<a/>").unwrap();
        let a = doc.first_child(doc.root()).unwrap();
        let c1 = Context::new(a, 1, 10);
        let c2 = Context::new(a, 5, 10);
        assert_eq!(
            ContextKey::for_context(c1, false),
            ContextKey::for_context(c2, false)
        );
        assert_ne!(
            ContextKey::for_context(c1, true),
            ContextKey::for_context(c2, true)
        );
    }

    #[test]
    fn key_hashes_spread_regular_node_ids_over_buckets() {
        use std::hash::BuildHasher;
        // One node every 64 ids, as in a document of equal 64-node records:
        // the low bits a table indexes by must still differ.
        let build = BuildHasherDefault::<KeyHasher>::default();
        let buckets: std::collections::HashSet<u64> = (0..2048usize)
            .map(|i| {
                let key = (7u32, ContextKey::Node(NodeId::from_index(64 * i)));
                build.hash_one(key) & 4095
            })
            .collect();
        assert!(buckets.len() > 1200, "{} buckets", buckets.len());
    }
}
