//! The XML scanner behind [`parse_xml`] and the lazy backend's tokenizer.
//!
//! This is intentionally a minimal subset of XML 1.0 sufficient for the
//! examples and workloads of the reproduction: elements, attributes
//! (single- or double-quoted), character data, the five predefined entities,
//! comments, processing instructions (skipped) and an optional XML
//! declaration.  It does not implement DTDs, namespaces or CDATA sections.
//!
//! [`scan_xml`] is the one grammar.  It is iterative: it keeps the stack of
//! open elements itself, so a 100k-deep chain costs heap, not call stack.
//! It finds each `<`, quote and name end with a slice search and hands
//! names, character data and attribute values to an [`XmlSink`] as slices
//! borrowed from the input.  [`parse_xml`] is the sink that builds a
//! [`Document`]; `xpeval_backends::LazyDocument` is the sink that only
//! counts nodes and cuts extents.
//!
//! * **UTF-8.**  The input is a `&str` and every delimiter is ASCII, so
//!   every slice is valid UTF-8 as it stands: multi-byte characters in text
//!   and attribute values arrive unchanged.  Names are ASCII letters,
//!   digits and `_-.:`.
//! * **Whitespace.**  A run of character data made only of XML's `S`
//!   (space, tab, CR, LF) is dropped.  Any other character, U+00A0 and
//!   U+3000 included, keeps the whole run verbatim as one text node.
//!   Comments and processing instructions end a run.
//! * **Entities.**  Sinks get raw slices; [`parse_xml`] replaces the five
//!   predefined entities, copying only a slice that contains `&`.

use crate::build::DocumentBuilder;
use crate::node::Document;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Error produced by [`parse_xml`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlParseError {
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
    /// Human readable description.
    pub message: String,
}

impl fmt::Display for XmlParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XML parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for XmlParseError {}

/// Receives the events of [`scan_xml`], in document order.  Every slice
/// borrows the input.
pub trait XmlSink<'a> {
    /// A start tag `<name` beginning at byte `start`.
    fn open(&mut self, name: &'a str, start: usize);
    /// An attribute of the element opened last, its value raw (entities
    /// not replaced).
    fn attribute(&mut self, name: &'a str, raw_value: &'a str);
    /// A run of character data that is not all whitespace, raw.
    fn text(&mut self, raw: &'a str);
    /// The element opened last ends just before byte `end`.
    fn close(&mut self, end: usize);
}

/// Parses an XML string into a [`Document`].
///
/// ```
/// let doc = xpeval_dom::parse_xml("<a><b x='1'>hi</b><c/></a>").unwrap();
/// assert_eq!(doc.element_count(), 3);
/// ```
pub fn parse_xml(input: &str) -> Result<Document, XmlParseError> {
    let mut builder = DocumentBuilder::new();
    parse_into(input, &mut builder)?;
    Ok(builder.finish())
}

/// Parses an XML document into an existing builder without finishing it.
///
/// This is the building block behind [`parse_xml`] and the XML
/// [`TreeProvider`](crate::provider::TreeProvider): the storage layer owns
/// the builder (and decides when keys are assigned), the parser only feeds
/// events into it.  Each distinct element or attribute name is allocated
/// once per document and shared by every node that carries it.
pub(crate) fn parse_into(input: &str, builder: &mut DocumentBuilder) -> Result<(), XmlParseError> {
    let mut sink = TreeSink {
        builder,
        names: HashMap::new(),
    };
    scan_xml(input, &mut sink)
}

struct TreeSink<'a, 'b> {
    builder: &'b mut DocumentBuilder,
    names: HashMap<&'a str, Arc<str>>,
}

impl<'a> TreeSink<'a, '_> {
    fn name(&mut self, name: &'a str) -> Arc<str> {
        Arc::clone(self.names.entry(name).or_insert_with(|| name.into()))
    }
}

impl<'a> XmlSink<'a> for TreeSink<'a, '_> {
    fn open(&mut self, name: &'a str, _start: usize) {
        let name = self.name(name);
        self.builder.open_element(name);
    }

    fn attribute(&mut self, name: &'a str, raw_value: &'a str) {
        let name = self.name(name);
        self.builder.attribute(name, unescape(raw_value));
    }

    fn text(&mut self, raw: &'a str) {
        self.builder.text(unescape(raw));
    }

    fn close(&mut self, _end: usize) {
        self.builder.close_element();
    }
}

/// Scans a whole document, feeding `sink`: the prolog, one document
/// element and trailing comments, PIs and whitespace.  O(bytes) time; the
/// only memory it takes is the stack of open element names.
pub fn scan_xml<'a, S: XmlSink<'a>>(input: &'a str, sink: &mut S) -> Result<(), XmlParseError> {
    let mut s = Scanner { input, pos: 0 };
    let mut open: Vec<&'a str> = Vec::new();
    s.skip_misc()?;
    s.start_tag(sink, &mut open)?;
    while let Some(&expected) = open.last() {
        let rest = s.rest();
        let Some(lt) = rest.find('<') else {
            s.pos = input.len();
            return Err(s.error("unexpected end of input inside element"));
        };
        let text = &rest[..lt];
        if !text.bytes().all(is_space) {
            sink.text(text);
        }
        s.pos += lt;
        let rest = s.rest();
        if rest.starts_with("</") {
            s.pos += 2;
            let name = s.name()?;
            s.skip_ws();
            s.expect(b'>')?;
            if name != expected {
                return Err(s.error(format!(
                    "mismatched end tag: expected </{expected}>, found </{name}>"
                )));
            }
            open.pop();
            sink.close(s.pos);
        } else if rest.starts_with("<!--") || rest.starts_with("<?") {
            s.skip_comment_or_pi()?;
        } else {
            s.start_tag(sink, &mut open)?;
        }
    }
    s.skip_misc()?;
    if s.pos != input.len() {
        return Err(s.error("trailing content after document element"));
    }
    Ok(())
}

/// Replaces the five predefined XML entities, borrowing `raw` when it
/// contains no `&`.  An `&` that starts none of them is kept as it is.
fn unescape(raw: &str) -> Cow<'_, str> {
    const ENTITIES: [(&str, char); 5] = [
        ("&lt;", '<'),
        ("&gt;", '>'),
        ("&amp;", '&'),
        ("&quot;", '"'),
        ("&apos;", '\''),
    ];
    if !raw.contains('&') {
        return Cow::Borrowed(raw);
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        match ENTITIES.iter().find(|(entity, _)| rest.starts_with(entity)) {
            Some(&(entity, ch)) => {
                out.push(ch);
                rest = &rest[entity.len()..];
            }
            None => {
                out.push('&');
                rest = &rest[1..];
            }
        }
    }
    out.push_str(rest);
    Cow::Owned(out)
}

/// XML's `S` production: space, tab, CR, LF.
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\r')
}

/// Bytes a name may contain: ASCII letters and digits and `_-.:`.
const NAME_BYTES: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        table[b] = c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':');
        b += 1;
    }
    table
};

struct Scanner<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn error(&self, msg: impl Into<String>) -> XmlParseError {
        XmlParseError {
            offset: self.pos,
            message: msg.into(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), XmlParseError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", c as char)))
        }
    }

    fn skip_ws(&mut self) {
        let rest = self.rest().as_bytes();
        self.pos += rest
            .iter()
            .position(|&b| !is_space(b))
            .unwrap_or(rest.len());
    }

    fn name(&mut self) -> Result<&'a str, XmlParseError> {
        let rest = self.rest();
        let len = rest
            .bytes()
            .position(|b| !NAME_BYTES[b as usize])
            .unwrap_or(rest.len());
        if len == 0 {
            return Err(self.error("expected a name"));
        }
        self.pos += len;
        Ok(&rest[..len])
    }

    /// Skips the comment or processing instruction (the XML declaration
    /// included) that starts at the cursor.
    fn skip_comment_or_pi(&mut self) -> Result<(), XmlParseError> {
        let rest = self.rest();
        let (open, close, what) = if rest.starts_with("<!--") {
            (4, "-->", "unterminated comment")
        } else if rest.starts_with("<?xml") {
            (2, "?>", "unterminated XML declaration")
        } else {
            (2, "?>", "unterminated processing instruction")
        };
        match rest[open..].find(close) {
            Some(at) => {
                self.pos += open + at + close.len();
                Ok(())
            }
            None => Err(self.error(what)),
        }
    }

    /// Skips whitespace, comments and processing instructions outside the
    /// document element.
    fn skip_misc(&mut self) -> Result<(), XmlParseError> {
        loop {
            self.skip_ws();
            let rest = self.rest();
            if !(rest.starts_with("<!--") || rest.starts_with("<?")) {
                return Ok(());
            }
            self.skip_comment_or_pi()?;
        }
    }

    /// Scans a start tag and its attributes.  An element that stays open
    /// is pushed on `open`; an empty-element tag is closed at once.
    fn start_tag<S: XmlSink<'a>>(
        &mut self,
        sink: &mut S,
        open: &mut Vec<&'a str>,
    ) -> Result<(), XmlParseError> {
        let start = self.pos;
        self.expect(b'<')?;
        let name = self.name()?;
        sink.open(name, start);
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    open.push(name);
                    return Ok(());
                }
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(b'>')?;
                    sink.close(self.pos);
                    return Ok(());
                }
                Some(_) => {
                    let attr = self.name()?;
                    self.skip_ws();
                    self.expect(b'=')?;
                    self.skip_ws();
                    let quote = match self.peek() {
                        Some(q @ (b'"' | b'\'')) => q as char,
                        Some(_) => return Err(self.error("attribute value must be quoted")),
                        None => return Err(self.error("unexpected end in attribute")),
                    };
                    self.pos += 1;
                    let rest = self.rest();
                    let Some(len) = rest.find(quote) else {
                        return Err(self.error("unterminated attribute value"));
                    };
                    sink.attribute(attr, &rest[..len]);
                    self.pos += len + 1;
                }
                None => return Err(self.error("unexpected end inside start tag")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Axis, NodeTest};

    #[test]
    fn parses_simple_document() {
        let doc = parse_xml("<a><b>text</b><c/></a>").unwrap();
        assert_eq!(doc.element_count(), 3);
        let a = doc.first_child(doc.root()).unwrap();
        assert_eq!(doc.name(a), Some("a"));
        assert_eq!(doc.string_value(a), "text");
    }

    #[test]
    fn parses_attributes_both_quote_styles() {
        let doc = parse_xml(r#"<a x="1" y='two'/>"#).unwrap();
        let a = doc.first_child(doc.root()).unwrap();
        assert_eq!(doc.attribute_value(a, "x"), Some("1"));
        assert_eq!(doc.attribute_value(a, "y"), Some("two"));
    }

    #[test]
    fn parses_declaration_comments_and_pis() {
        let doc = parse_xml(
            "<?xml version=\"1.0\"?><!-- top --><?pi data?><root><!-- in --><a/></root><!-- after -->",
        )
        .unwrap();
        assert_eq!(doc.element_count(), 2);
    }

    #[test]
    fn unescapes_entities() {
        let doc = parse_xml("<a k=\"&lt;x&gt;\">&amp;hi&apos;</a>").unwrap();
        let a = doc.first_child(doc.root()).unwrap();
        assert_eq!(doc.attribute_value(a, "k"), Some("<x>"));
        assert_eq!(doc.string_value(a), "&hi'");
    }

    #[test]
    fn unescape_matches_entities_left_to_right() {
        assert!(matches!(unescape("plain"), Cow::Borrowed("plain")));
        assert_eq!(unescape("&amp;lt; &&quot; &bogus; &"), "&lt; &\" &bogus; &");
    }

    #[test]
    fn whitespace_only_text_is_dropped() {
        let doc = parse_xml("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        let a = doc.first_child(doc.root()).unwrap();
        let kids = doc.axis_step(a, Axis::Child, &NodeTest::AnyNode);
        assert_eq!(kids.len(), 2);
    }

    #[test]
    fn names_are_shared_within_a_document() {
        let doc = parse_xml("<a><b k='1'/><b k='2'/></a>").unwrap();
        let a = doc.first_child(doc.root()).unwrap();
        let bs = doc.axis_step(a, Axis::Child, &NodeTest::AnyNode);
        let name = |n| match doc.kind(n) {
            crate::NodeKind::Element { name } => Arc::clone(name),
            _ => unreachable!(),
        };
        assert!(Arc::ptr_eq(&name(bs[0]), &name(bs[1])));
    }

    #[test]
    fn nested_structure_and_axes() {
        let doc = parse_xml("<a><b><c><d/></c></b></a>").unwrap();
        let a = doc.first_child(doc.root()).unwrap();
        let ds = doc.axis_step(a, Axis::Descendant, &NodeTest::name("d"));
        assert_eq!(ds.len(), 1);
        assert_eq!(doc.depth(ds[0]), 4);
    }

    #[test]
    fn error_on_mismatched_tags() {
        let err = parse_xml("<a><b></a></b>").unwrap_err();
        assert!(err.message.contains("mismatched"), "{err}");
    }

    #[test]
    fn error_on_trailing_garbage() {
        let err = parse_xml("<a/><b/>").unwrap_err();
        assert!(err.message.contains("trailing"), "{err}");
    }

    #[test]
    fn error_on_unterminated_document() {
        assert!(parse_xml("<a><b>").is_err());
        assert!(parse_xml("<a").is_err());
        assert!(parse_xml("").is_err());
        assert!(parse_xml("<a/><!-- open").is_err());
        assert!(parse_xml("<a/><?pi").is_err());
        assert!(parse_xml("<?xml version='1.0'").is_err());
    }

    #[test]
    fn error_on_unquoted_attribute() {
        let err = parse_xml("<a k=v/>").unwrap_err();
        assert!(err.message.contains("quoted"), "{err}");
    }

    #[test]
    fn error_display_contains_offset() {
        let err = parse_xml("<a k=v/>").unwrap_err();
        let shown = err.to_string();
        assert!(shown.contains("byte"));
    }
}
