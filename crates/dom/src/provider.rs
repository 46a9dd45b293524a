//! Storage-agnostic tree construction: [`TreeBuilder`] and [`TreeProvider`].
//!
//! The evaluators never see where a tree came from — they consume an
//! [`AxisSource`](crate::AxisSource).  This module pushes that pluggability
//! one level further down, to *construction*: a [`TreeProvider`] is anything
//! that can emit a tree (XML text, JSON, an in-memory model, a UI widget
//! hierarchy) through the SAX-like [`TreeBuilder`] surface.  The XML parser
//! is just one provider among several ([`XmlProvider`]); non-XML backends
//! live in `xpeval-backends`.
//!
//! Two providers that emit the same event sequence produce *identical*
//! documents — same [`NodeId`]s, same ordering keys — which is what makes
//! backend-agreement testing exact rather than merely structural.

use crate::build::DocumentBuilder;
use crate::node::{Document, NodeId};
use crate::parse::{parse_into, XmlParseError};
use crate::prepared::PreparedDocument;
use std::fmt;
use std::sync::Arc;

/// Error produced while a [`TreeProvider`] feeds a [`TreeBuilder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeBuildError {
    /// Human readable description.
    pub message: String,
    /// Byte offset in the provider's input, when it has one.
    pub offset: Option<usize>,
}

impl TreeBuildError {
    /// A build error with no input position.
    pub fn new(message: impl Into<String>) -> Self {
        TreeBuildError {
            message: message.into(),
            offset: None,
        }
    }

    /// A build error anchored at a byte offset in the provider's input.
    pub fn at(offset: usize, message: impl Into<String>) -> Self {
        TreeBuildError {
            message: message.into(),
            offset: Some(offset),
        }
    }
}

impl fmt::Display for TreeBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(off) => write!(f, "tree build error at byte {}: {}", off, self.message),
            None => write!(f, "tree build error: {}", self.message),
        }
    }
}

impl std::error::Error for TreeBuildError {}

impl From<XmlParseError> for TreeBuildError {
    fn from(e: XmlParseError) -> Self {
        TreeBuildError::at(e.offset, e.message)
    }
}

/// The construction surface a [`TreeProvider`] writes through.
///
/// A thin veneer over [`DocumentBuilder`] that keeps providers decoupled
/// from the arena internals: events in, [`Document`] (or
/// [`PreparedDocument`]) out.
///
/// ```
/// use xpeval_dom::TreeBuilder;
/// let mut b = TreeBuilder::new();
/// b.open_element("config");
/// b.attribute("version", "1");
/// b.text("on");
/// b.close_element();
/// let doc = b.finish();
/// assert_eq!(doc.element_count(), 1);
/// ```
#[derive(Debug, Default)]
pub struct TreeBuilder {
    inner: DocumentBuilder,
}

impl TreeBuilder {
    /// Creates a builder with only the conceptual root node open.
    pub fn new() -> Self {
        TreeBuilder {
            inner: DocumentBuilder::new(),
        }
    }

    /// Opens a new element as a child of the currently open element.
    pub fn open_element(&mut self, name: impl Into<Arc<str>>) -> NodeId {
        self.inner.open_element(name)
    }

    /// Closes the most recently opened element.
    ///
    /// # Panics
    /// Panics if no element is currently open.
    pub fn close_element(&mut self) {
        self.inner.close_element()
    }

    /// Appends an empty element (open followed by close). Returns its id.
    pub fn leaf_element(&mut self, name: impl Into<Arc<str>>) -> NodeId {
        self.inner.leaf_element(name)
    }

    /// Appends a text node to the currently open element.
    pub fn text(&mut self, text: impl Into<Arc<str>>) -> NodeId {
        self.inner.text(text)
    }

    /// Adds an attribute to the currently open element.
    ///
    /// # Panics
    /// Panics if no element is open (attributes cannot be added to the root).
    pub fn attribute(&mut self, name: impl Into<Arc<str>>, value: impl Into<Arc<str>>) -> NodeId {
        self.inner.attribute(name, value)
    }

    /// Number of nodes created so far (including the root).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True if no node besides the root has been created.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// The wrapped builder, for in-crate providers (the XML parser) that
    /// predate the [`TreeBuilder`] surface.
    pub(crate) fn document_builder(&mut self) -> &mut DocumentBuilder {
        &mut self.inner
    }

    /// Finishes the tree: closes any still-open elements and assigns
    /// ordering keys to every node.
    pub fn finish(self) -> Document {
        self.inner.finish()
    }

    /// Finishes the tree and builds the prepare-once axis indexes in the
    /// same call.
    pub fn finish_prepared(self) -> PreparedDocument {
        PreparedDocument::new(self.inner.finish())
    }
}

/// A source of trees: anything that can replay itself as builder events.
///
/// Implementations map their native structure onto the XPath data model
/// (root, elements, attributes, text).  The engine side never needs to know
/// the native format — `Catalog::insert_tree` and
/// `TreeProvider::build_prepared` accept any provider.
pub trait TreeProvider {
    /// Emits this provider's tree into `builder`.
    ///
    /// The builder is positioned at the conceptual root; the provider must
    /// leave every element it opened closed (unclosed elements are closed by
    /// `finish`, but relying on that is a bug in the provider).
    fn provide(&self, builder: &mut TreeBuilder) -> Result<(), TreeBuildError>;

    /// Builds a [`Document`] from this provider.
    fn build(&self) -> Result<Document, TreeBuildError> {
        let mut b = TreeBuilder::new();
        self.provide(&mut b)?;
        Ok(b.finish())
    }

    /// Builds and prepares a document from this provider.
    fn build_prepared(&self) -> Result<PreparedDocument, TreeBuildError> {
        let mut b = TreeBuilder::new();
        self.provide(&mut b)?;
        Ok(b.finish_prepared())
    }
}

/// The XML backend expressed as a [`TreeProvider`]: parses a well-formed
/// XML document (the same subset as [`parse_xml`](crate::parse_xml)).
///
/// ```
/// use xpeval_dom::{TreeProvider, XmlProvider};
/// let doc = XmlProvider::new("<a><b/></a>").build().unwrap();
/// assert_eq!(doc.element_count(), 2);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct XmlProvider<'a> {
    input: &'a str,
}

impl<'a> XmlProvider<'a> {
    /// A provider over an XML string.
    pub fn new(input: &'a str) -> Self {
        XmlProvider { input }
    }
}

impl TreeProvider for XmlProvider<'_> {
    fn provide(&self, builder: &mut TreeBuilder) -> Result<(), TreeBuildError> {
        parse_into(self.input, builder.document_builder())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_xml;

    #[test]
    fn xml_provider_builds_identical_documents_to_parse_xml() {
        let xml = r#"<site><item id="1">first</item><item id="2"><bid>5</bid></item></site>"#;
        let direct = parse_xml(xml).unwrap();
        let provided = XmlProvider::new(xml).build().unwrap();
        assert_eq!(direct.len(), provided.len());
        for n in direct.all_nodes() {
            assert_eq!(direct.name(n), provided.name(n));
            assert_eq!(direct.pre(n), provided.pre(n));
            assert_eq!(direct.post(n), provided.post(n));
            assert_eq!(direct.string_value(n), provided.string_value(n));
        }
    }

    #[test]
    fn xml_provider_surfaces_parse_errors_with_offset() {
        let err = XmlProvider::new("<a k=v/>").build().unwrap_err();
        assert!(err.offset.is_some());
        assert!(err.message.contains("quoted"), "{err}");
    }

    #[test]
    fn tree_builder_matches_document_builder() {
        let mut t = TreeBuilder::new();
        assert!(t.is_empty());
        t.open_element("r");
        t.attribute("k", "v");
        let x = t.leaf_element("x");
        t.text("tail");
        t.close_element();
        assert!(!t.is_empty());
        assert_eq!(t.len(), 5);
        let prepared = t.finish_prepared();
        assert_eq!(prepared.elements_named("x"), &[x]);
        let r = prepared.first_child(prepared.root()).unwrap();
        assert_eq!(prepared.attribute_value(r, "k"), Some("v"));
    }

    #[test]
    fn providers_emitting_same_events_yield_identical_node_ids() {
        struct Manual;
        impl TreeProvider for Manual {
            fn provide(&self, b: &mut TreeBuilder) -> Result<(), TreeBuildError> {
                b.open_element("a");
                b.open_element("b");
                b.text("t");
                b.close_element();
                b.close_element();
                Ok(())
            }
        }
        let manual = Manual.build_prepared().unwrap();
        let xml = XmlProvider::new("<a><b>t</b></a>")
            .build_prepared()
            .unwrap();
        assert_eq!(manual.node_count(), xml.node_count());
        assert_eq!(manual.order(), xml.order());
        for n in manual.document().all_nodes() {
            assert_eq!(manual.pre_interval(n), xml.pre_interval(n));
        }
    }
}
