//! # xpeval-dom — XML document tree substrate
//!
//! This crate implements the XPath 1.0 data model used throughout the
//! reproduction of *"The Complexity of XPath Query Evaluation"*
//! (Gottlob, Koch, Pichler; PODS 2003).
//!
//! A [`Document`] is an arena of nodes addressed by [`NodeId`].  The tree
//! supports:
//!
//! * the XPath node kinds needed by the paper's fragments: the conceptual
//!   root node, element nodes, text nodes and attribute nodes,
//! * all axes of Core XPath (`child`, `parent`, `descendant`,
//!   `descendant-or-self`, `ancestor`, `ancestor-or-self`, `following`,
//!   `following-sibling`, `preceding`, `preceding-sibling`, `self`) plus the
//!   `attribute` axis,
//! * document order (preorder numbering), postorder numbering and constant
//!   time ancestorship tests — the primitives the linear-time Core XPath
//!   evaluator and the context-value-table evaluator rely on,
//! * prepare-once axis indexes ([`PreparedDocument`]: tag-name lists,
//!   per-parent tag buckets, preorder subtree intervals and their
//!   following/preceding complements, sibling-position tables) behind the
//!   [`AxisSource`] trait that all evaluators consume,
//! * a programmatic [`DocumentBuilder`], a small well-formed XML parser
//!   ([`parse_xml`], a sink of the iterative scanner [`parse::scan_xml`]
//!   that the lazy backend shares) and a serializer.
//!
//! ## Example
//!
//! ```
//! use xpeval_dom::{DocumentBuilder, Axis, NodeTest};
//!
//! let mut b = DocumentBuilder::new();
//! b.open_element("library");
//! b.open_element("book");
//! b.attribute("year", "2003");
//! b.text("The Complexity of XPath Query Evaluation");
//! b.close_element();
//! b.close_element();
//! let doc = b.finish();
//!
//! let root = doc.root();
//! let books: Vec<_> = doc
//!     .axis_iter(root, Axis::Descendant)
//!     .filter(|&n| doc.matches(n, &NodeTest::Name("book".into())))
//!     .collect();
//! assert_eq!(books.len(), 1);
//! ```

pub mod axes;
pub mod build;
pub mod intern;
pub mod mutate;
pub mod node;
pub mod order;
pub mod parse;
pub mod prepared;
pub mod provider;
pub mod raw;
pub mod serialize;
pub mod source;

pub use axes::{Axis, NodeTest};
pub use build::DocumentBuilder;
pub use mutate::{EditOutcome, MutationError};
pub use node::{Document, NodeId, NodeKind, KEY_STRIDE};
pub use parse::{parse_xml, XmlParseError};
pub use prepared::{PreparedDocument, TagId};
pub use provider::{TreeBuildError, TreeBuilder, TreeProvider, XmlProvider};
pub use raw::{RawColumns, RawColumnsError, RAW_NONE};
pub use serialize::serialize;
pub use source::{
    AxisSource, CapabilityMask, PositionalPick, SourceCapabilities, TagResolution,
    CHILD_BUCKET_MIN_CHILDREN,
};
