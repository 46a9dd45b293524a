//! The XPath 1.0 value domain and its coercion rules.
//!
//! Every XPath expression evaluates to one of four types (XPath 1.0 §1):
//! node-set, boolean, number or string.  The conversion and comparison rules
//! implemented here (§3.4, §4) are shared by all evaluators in this crate so
//! that they agree bit-for-bit — the cross-evaluator agreement property tests
//! in `tests/` rely on this.

use crate::error::EvalError;
use xpeval_dom::{Document, NodeId};
use xpeval_syntax::RelOp;

/// An XPath 1.0 value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A set of nodes, kept sorted in document order without duplicates.
    NodeSet(Vec<NodeId>),
    Boolean(bool),
    Number(f64),
    Str(String),
}

impl Value {
    /// The empty node set.
    pub fn empty() -> Value {
        Value::NodeSet(Vec::new())
    }

    /// Builds a node-set value, normalizing to document order and removing
    /// duplicates.
    pub fn node_set(doc: &Document, mut nodes: Vec<NodeId>) -> Value {
        doc.sort_document_order(&mut nodes);
        Value::NodeSet(nodes)
    }

    /// True if the value is a node-set.
    pub fn is_node_set(&self) -> bool {
        matches!(self, Value::NodeSet(_))
    }

    /// Boolean conversion (XPath 1.0 §4.3 `boolean()`).
    pub fn to_boolean(&self) -> bool {
        match self {
            Value::NodeSet(ns) => !ns.is_empty(),
            scalar => scalar.scalar().to_boolean(),
        }
    }

    /// Number conversion (XPath 1.0 §4.4 `number()`).
    pub fn to_number(&self, doc: &Document) -> f64 {
        match self {
            Value::NodeSet(ns) => match ns.first() {
                Some(&n) => parse_xpath_number(&doc.string_value_cow(n)),
                None => f64::NAN,
            },
            scalar => scalar.scalar().to_number(),
        }
    }

    /// String conversion (XPath 1.0 §4.2 `string()`).
    pub fn to_xpath_string(&self, doc: &Document) -> String {
        match self {
            Value::Str(s) => s.clone(),
            Value::Boolean(b) => boolean_to_str(*b).to_string(),
            Value::Number(n) => number_to_string(*n),
            Value::NodeSet(ns) => match ns.first() {
                Some(&n) => doc.string_value_cow(n).into_owned(),
                None => String::new(),
            },
        }
    }

    /// The value as a comparison operand; node sets are compared by the
    /// caller, node by node.
    pub(crate) fn scalar(&self) -> Scalar<'_> {
        match self {
            Value::Boolean(b) => Scalar::Boolean(*b),
            Value::Number(n) => Scalar::Number(*n),
            Value::Str(s) => Scalar::Str(s),
            Value::NodeSet(_) => unreachable!("a node set is not a scalar"),
        }
    }

    /// Returns the node set, or an error if the value has a different type.
    pub fn into_nodes(self) -> Result<Vec<NodeId>, EvalError> {
        match self {
            Value::NodeSet(ns) => Ok(ns),
            other => Err(EvalError::type_error(format!(
                "expected a node set, got {}",
                other.type_name()
            ))),
        }
    }

    /// Returns the node set, panicking otherwise.  Convenience for examples
    /// and tests where the query is statically known to be node-set typed.
    pub fn expect_nodes(&self) -> &[NodeId] {
        match self {
            Value::NodeSet(ns) => ns,
            other => panic!("expected a node set, got {}", other.type_name()),
        }
    }

    /// Name of the value's type as used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::NodeSet(_) => "node-set",
            Value::Boolean(_) => "boolean",
            Value::Number(_) => "number",
            Value::Str(_) => "string",
        }
    }

    /// XPath 1.0 comparison semantics (§3.4), covering the existential
    /// semantics of comparisons that involve node-sets.
    pub fn compare(&self, op: RelOp, other: &Value, doc: &Document) -> bool {
        use Value::*;
        match (self, other) {
            (NodeSet(a), NodeSet(b)) => match op {
                RelOp::Eq | RelOp::Ne => a.iter().any(|&x| {
                    let sx = doc.string_value_cow(x);
                    b.iter()
                        .any(|&y| op.apply_str(&sx, &doc.string_value_cow(y)))
                }),
                _ => a.iter().any(|&x| {
                    let nx = parse_xpath_number(&doc.string_value_cow(x));
                    b.iter()
                        .any(|&y| op.apply(nx, parse_xpath_number(&doc.string_value_cow(y))))
                }),
            },
            (NodeSet(a), rhs) => compare_nodes_scalar(doc, a, op, rhs.scalar()),
            (lhs, NodeSet(b)) => compare_nodes_scalar(doc, b, flip(op), lhs.scalar()),
            (lhs, rhs) => compare_scalars(lhs.scalar(), op, rhs.scalar()),
        }
    }
}

/// A borrowed boolean, number or string: one side of a comparison that is
/// not a node set, or one atom of a column of them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Scalar<'a> {
    Boolean(bool),
    Number(f64),
    Str(&'a str),
}

impl Scalar<'_> {
    /// Number conversion (XPath 1.0 §4.4).
    pub(crate) fn to_number(self) -> f64 {
        match self {
            Scalar::Boolean(b) => f64::from(u8::from(b)),
            Scalar::Number(n) => n,
            Scalar::Str(s) => parse_xpath_number(s),
        }
    }

    /// Boolean conversion (XPath 1.0 §4.3).
    pub(crate) fn to_boolean(self) -> bool {
        match self {
            Scalar::Boolean(b) => b,
            Scalar::Number(n) => n != 0.0 && !n.is_nan(),
            Scalar::Str(s) => !s.is_empty(),
        }
    }
}

/// `lhs op rhs` for two operands neither of which is a node set (XPath 1.0
/// §3.4): `=` and `!=` compare as booleans if either side is one, else as
/// numbers if either side is one, else as strings; the order operators
/// always compare numbers.
pub(crate) fn compare_scalars(lhs: Scalar<'_>, op: RelOp, rhs: Scalar<'_>) -> bool {
    use Scalar::*;
    match (op, lhs, rhs) {
        (RelOp::Eq | RelOp::Ne, Boolean(_), _) | (RelOp::Eq | RelOp::Ne, _, Boolean(_)) => {
            op.apply_bool(lhs.to_boolean(), rhs.to_boolean())
        }
        (RelOp::Eq | RelOp::Ne, Str(a), Str(b)) => op.apply_str(a, b),
        _ => op.apply(lhs.to_number(), rhs.to_number()),
    }
}

/// `nodes op scalar`, the node set on the left (XPath 1.0 §3.4): against a
/// boolean the node set counts as `boolean(nodes)`; against a number or a
/// string the comparison holds if it holds for the string value of some
/// node, read where the document keeps it.
pub(crate) fn compare_nodes_scalar(
    doc: &Document,
    nodes: &[NodeId],
    op: RelOp,
    scalar: Scalar<'_>,
) -> bool {
    match scalar {
        Scalar::Boolean(b) => op.apply_bool(!nodes.is_empty(), b),
        atom => nodes
            .iter()
            .any(|&x| compare_string_atom(&doc.string_value_cow(x), op, atom)),
    }
}

/// `string op atom` for one node's string value against a number or string
/// operand: numbers compare numerically (the string is read as a number,
/// NaN when it is not one), strings by (in)equality or, under an order
/// operator, numerically too (XPath 1.0 §3.4).
pub(crate) fn compare_string_atom(string: &str, op: RelOp, atom: Scalar<'_>) -> bool {
    match atom {
        Scalar::Number(n) => op.apply(parse_xpath_number(string), n),
        Scalar::Str(s) => op.apply_str(string, s),
        Scalar::Boolean(_) => {
            unreachable!("node strings are compared with numbers and strings only")
        }
    }
}

/// Mirrors an operator across the equality/inequality axis: `a op b` with the
/// node-set on the right becomes `b flipped-op a` with the node-set on the
/// left.
pub(crate) fn flip(op: RelOp) -> RelOp {
    match op {
        RelOp::Eq => RelOp::Eq,
        RelOp::Ne => RelOp::Ne,
        RelOp::Lt => RelOp::Gt,
        RelOp::Le => RelOp::Ge,
        RelOp::Gt => RelOp::Lt,
        RelOp::Ge => RelOp::Le,
    }
}

/// Extension methods on [`RelOp`] for the non-numeric comparison modes.
pub trait RelOpExt {
    fn apply_str(self, a: &str, b: &str) -> bool;
    fn apply_bool(self, a: bool, b: bool) -> bool;
}

impl RelOpExt for RelOp {
    fn apply_str(self, a: &str, b: &str) -> bool {
        match self {
            RelOp::Eq => a == b,
            RelOp::Ne => a != b,
            // Relational comparison of strings goes through numbers in
            // XPath 1.0.
            _ => self.apply(parse_xpath_number(a), parse_xpath_number(b)),
        }
    }

    fn apply_bool(self, a: bool, b: bool) -> bool {
        match self {
            RelOp::Eq => a == b,
            RelOp::Ne => a != b,
            _ => self.apply(if a { 1.0 } else { 0.0 }, if b { 1.0 } else { 0.0 }),
        }
    }
}

/// Parses a string as an XPath number: optional whitespace, optional minus
/// sign, digits with optional fraction.  Anything else is NaN (XPath 1.0
/// §4.4).
pub fn parse_xpath_number(s: &str) -> f64 {
    let t = s.trim();
    if t.is_empty() {
        return f64::NAN;
    }
    let body = t.strip_prefix('-').unwrap_or(t);
    let valid = !body.is_empty()
        && body.chars().all(|c| c.is_ascii_digit() || c == '.')
        && body.chars().filter(|&c| c == '.').count() <= 1
        && body != ".";
    if valid {
        t.parse().unwrap_or(f64::NAN)
    } else {
        f64::NAN
    }
}

/// Converts a number to its XPath string form (XPath 1.0 §4.2): integers
/// print without a decimal point, NaN prints as `NaN`, infinities as
/// `Infinity`/`-Infinity`.
pub fn number_to_string(n: f64) -> String {
    let mut out = String::new();
    push_number(n, &mut out);
    out
}

/// Appends [`number_to_string`]'s rendering of `n` to `out`.
pub(crate) fn push_number(n: f64, out: &mut String) {
    use std::fmt::Write;
    if n.is_nan() {
        out.push_str("NaN");
    } else if n.is_infinite() {
        out.push_str(if n > 0.0 { "Infinity" } else { "-Infinity" });
    } else if n == 0.0 {
        out.push('0');
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// The string form of a boolean (XPath 1.0 §4.2).
pub(crate) fn boolean_to_str(b: bool) -> &'static str {
    if b {
        "true"
    } else {
        "false"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpeval_dom::parse_xml;

    fn doc() -> Document {
        parse_xml("<r><a>1</a><a>2</a><b>xyz</b><c>2</c></r>").unwrap()
    }

    fn nodes_named(doc: &Document, name: &str) -> Vec<NodeId> {
        doc.all_elements()
            .filter(|&n| doc.name(n) == Some(name))
            .collect()
    }

    #[test]
    fn boolean_conversion() {
        assert!(!Value::empty().to_boolean());
        assert!(Value::NodeSet(vec![NodeId::from_index(0)]).to_boolean());
        assert!(Value::Number(1.5).to_boolean());
        assert!(!Value::Number(0.0).to_boolean());
        assert!(!Value::Number(f64::NAN).to_boolean());
        assert!(Value::Str("x".into()).to_boolean());
        assert!(!Value::Str("".into()).to_boolean());
        assert!(Value::Boolean(true).to_boolean());
    }

    #[test]
    fn number_conversion() {
        let d = doc();
        assert_eq!(Value::Boolean(true).to_number(&d), 1.0);
        assert_eq!(Value::Boolean(false).to_number(&d), 0.0);
        assert_eq!(Value::Str(" 42 ".into()).to_number(&d), 42.0);
        assert_eq!(Value::Str("-1.5".into()).to_number(&d), -1.5);
        assert!(Value::Str("abc".into()).to_number(&d).is_nan());
        assert!(Value::Str("".into()).to_number(&d).is_nan());
        assert!(Value::Str("1.2.3".into()).to_number(&d).is_nan());
        // First node in document order is <a>1</a>.
        let ns = Value::node_set(&d, nodes_named(&d, "a"));
        assert_eq!(ns.to_number(&d), 1.0);
        assert!(Value::empty().to_number(&d).is_nan());
    }

    #[test]
    fn string_conversion() {
        let d = doc();
        assert_eq!(Value::Boolean(true).to_xpath_string(&d), "true");
        assert_eq!(Value::Number(3.0).to_xpath_string(&d), "3");
        assert_eq!(Value::Number(2.5).to_xpath_string(&d), "2.5");
        assert_eq!(Value::Number(f64::NAN).to_xpath_string(&d), "NaN");
        assert_eq!(Value::Number(f64::INFINITY).to_xpath_string(&d), "Infinity");
        assert_eq!(Value::Number(-0.0).to_xpath_string(&d), "0");
        let ns = Value::node_set(&d, nodes_named(&d, "b"));
        assert_eq!(ns.to_xpath_string(&d), "xyz");
        assert_eq!(Value::empty().to_xpath_string(&d), "");
    }

    #[test]
    fn node_set_normalization() {
        let d = doc();
        let mut ns = nodes_named(&d, "a");
        ns.reverse();
        let mut both = ns.clone();
        both.extend(nodes_named(&d, "a"));
        let v = Value::node_set(&d, both);
        match v {
            Value::NodeSet(sorted) => {
                assert_eq!(sorted.len(), 2);
                assert!(d.pre(sorted[0]) < d.pre(sorted[1]));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn nodeset_number_comparison_is_existential() {
        let d = doc();
        let a = Value::node_set(&d, nodes_named(&d, "a")); // values 1, 2
        assert!(a.compare(RelOp::Eq, &Value::Number(2.0), &d));
        assert!(!a.compare(RelOp::Eq, &Value::Number(3.0), &d));
        assert!(a.compare(RelOp::Gt, &Value::Number(1.5), &d));
        assert!(a.compare(RelOp::Lt, &Value::Number(1.5), &d));
        // Both directions are simultaneously true: existential semantics.
        assert!(a.compare(RelOp::Ne, &Value::Number(1.0), &d));
    }

    #[test]
    fn nodeset_scalar_flipped_comparison() {
        let d = doc();
        let a = Value::node_set(&d, nodes_named(&d, "a")); // 1, 2
                                                           // 1.5 < {1,2} : exists node with 1.5 < value -> true (node 2)
        assert!(Value::Number(1.5).compare(RelOp::Lt, &a, &d));
        // 2.5 < {1,2} : false
        assert!(!Value::Number(2.5).compare(RelOp::Lt, &a, &d));
        // "2" = {..} by string value
        assert!(Value::Str("2".into()).compare(RelOp::Eq, &a, &d));
    }

    #[test]
    fn nodeset_nodeset_comparison() {
        let d = doc();
        let a = Value::node_set(&d, nodes_named(&d, "a")); // "1","2"
        let c = Value::node_set(&d, nodes_named(&d, "c")); // "2"
        let b = Value::node_set(&d, nodes_named(&d, "b")); // "xyz"
        assert!(a.compare(RelOp::Eq, &c, &d));
        assert!(!b.compare(RelOp::Eq, &c, &d));
        assert!(a.compare(RelOp::Ne, &c, &d)); // "1" != "2"
        assert!(a.compare(RelOp::Le, &c, &d));
        assert!(!b.compare(RelOp::Lt, &c, &d)); // NaN comparisons are false
        let empty = Value::empty();
        assert!(!a.compare(RelOp::Eq, &empty, &d));
        assert!(!empty.compare(RelOp::Ne, &a, &d));
    }

    #[test]
    fn nodeset_boolean_comparison() {
        let d = doc();
        let a = Value::node_set(&d, nodes_named(&d, "a"));
        assert!(a.compare(RelOp::Eq, &Value::Boolean(true), &d));
        assert!(Value::empty().compare(RelOp::Eq, &Value::Boolean(false), &d));
        assert!(Value::Boolean(true).compare(RelOp::Eq, &a, &d));
    }

    #[test]
    fn scalar_comparisons() {
        let d = doc();
        assert!(Value::Number(2.0).compare(RelOp::Lt, &Value::Number(3.0), &d));
        assert!(Value::Str("a".into()).compare(RelOp::Eq, &Value::Str("a".into()), &d));
        assert!(Value::Str("a".into()).compare(RelOp::Ne, &Value::Str("b".into()), &d));
        // boolean wins the coercion battle for = / !=
        assert!(Value::Boolean(true).compare(RelOp::Eq, &Value::Str("yes".into()), &d));
        assert!(Value::Number(1.0).compare(RelOp::Eq, &Value::Str("1".into()), &d));
        // relational on strings goes through numbers → NaN → false
        assert!(!Value::Str("a".into()).compare(RelOp::Lt, &Value::Str("b".into()), &d));
        assert!(Value::Str("1".into()).compare(RelOp::Lt, &Value::Str("2".into()), &d));
    }

    #[test]
    fn into_nodes_and_expect_nodes() {
        let d = doc();
        let v = Value::node_set(&d, nodes_named(&d, "a"));
        assert_eq!(v.clone().into_nodes().unwrap().len(), 2);
        assert_eq!(v.expect_nodes().len(), 2);
        assert!(Value::Number(1.0).into_nodes().is_err());
    }

    #[test]
    #[should_panic(expected = "expected a node set")]
    fn expect_nodes_panics_on_scalar() {
        Value::Boolean(true).expect_nodes();
    }

    #[test]
    fn parse_xpath_number_rules() {
        assert_eq!(parse_xpath_number("3"), 3.0);
        assert_eq!(parse_xpath_number("-2.5"), -2.5);
        assert_eq!(parse_xpath_number(" 7 "), 7.0);
        assert!(parse_xpath_number("1e5").is_nan()); // no exponent syntax in XPath 1.0
        assert!(parse_xpath_number("--3").is_nan());
        assert!(parse_xpath_number(".").is_nan());
        assert_eq!(parse_xpath_number(".5"), 0.5);
        assert_eq!(parse_xpath_number("5."), 5.0);
    }

    #[test]
    fn type_names() {
        assert_eq!(Value::empty().type_name(), "node-set");
        assert_eq!(Value::Boolean(true).type_name(), "boolean");
        assert_eq!(Value::Number(0.0).type_name(), "number");
        assert_eq!(Value::Str(String::new()).type_name(), "string");
    }
}
