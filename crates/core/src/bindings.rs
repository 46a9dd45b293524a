//! External variable bindings.
//!
//! XPath variable references (`$name`) are *free* in a query: the language
//! gives them no binding form, so values arrive from outside, per
//! evaluation.  [`Bindings`] is that outside: a small name → [`Value`] map
//! handed to the bound entry points of
//! [`CompiledQuery`](crate::compile::CompiledQuery) and
//! [`Engine`](crate::engine::Engine).
//!
//! Bindings are an **evaluation-time** input, deliberately kept out of the
//! compiled plan: one `CompiledQuery` (and one
//! [`PlanIr`](crate::ir::PlanIr)) serves any number of parameterizations,
//! and plan-cache keys as well as catalog artifact keys remain
//! binding-independent — re-binding never causes a recompile or a cache
//! miss.
//!
//! ```
//! use xpeval_core::Bindings;
//!
//! let bindings = Bindings::new()
//!     .with_string("status", "published")
//!     .with_number("max", 10.0);
//! assert!(bindings.get("status").is_some());
//! assert!(bindings.get("missing").is_none());
//! ```

use crate::value::Value;
use std::borrow::Cow;
use std::fmt;
use xpeval_dom::Document;

/// A set of `$name` → value bindings supplied for one evaluation.
///
/// Backed by a small sorted vector: queries reference a handful of
/// variables, so binary search beats hashing and keeps iteration
/// deterministic.  Binding the same name twice keeps the latest value.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Bindings {
    /// Sorted by name; unique names.
    entries: Vec<(String, Value)>,
}

impl Bindings {
    /// No bindings.
    pub fn new() -> Self {
        Bindings::default()
    }

    /// The process-wide empty binding set, for unbound entry points.
    pub(crate) fn empty() -> &'static Bindings {
        static EMPTY: Bindings = Bindings {
            entries: Vec::new(),
        };
        &EMPTY
    }

    /// Binds `name` to an arbitrary [`Value`], replacing any previous
    /// binding of the same name.  Variables are statically string-typed in
    /// the classifier, but any scalar value is accepted — the usual XPath
    /// coercions apply at the use site.
    pub fn set(&mut self, name: impl Into<String>, value: Value) -> &mut Self {
        let name = name.into();
        match self
            .entries
            .binary_search_by(|(n, _)| n.as_str().cmp(&name))
        {
            Ok(i) => self.entries[i].1 = value,
            Err(i) => self.entries.insert(i, (name, value)),
        }
        self
    }

    /// Builder form of [`Bindings::set`].
    pub fn with(mut self, name: impl Into<String>, value: Value) -> Self {
        self.set(name, value);
        self
    }

    /// Binds a string value.
    pub fn with_string(self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.with(name, Value::Str(value.into()))
    }

    /// Binds a number value.
    pub fn with_number(self, name: impl Into<String>, value: f64) -> Self {
        self.with(name, Value::Number(value))
    }

    /// Binds a boolean value.
    pub fn with_boolean(self, name: impl Into<String>, value: bool) -> Self {
        self.with(name, Value::Boolean(value))
    }

    /// Looks up a binding.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Number of bound names.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no names are bound.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// These bindings with the node sets bound to `used` names in document
    /// order without repeats — the form every node-set value takes, and
    /// what `string($v)` reads the first node of (XPath 1.0 §4.2).
    /// Borrowed when they are in that order already.
    pub(crate) fn in_document_order(&self, doc: &Document, used: &[String]) -> Cow<'_, Bindings> {
        let unordered = |(name, value): &(String, Value)| match value {
            Value::NodeSet(nodes) => {
                used.contains(name) && nodes.windows(2).any(|w| doc.pre(w[0]) >= doc.pre(w[1]))
            }
            _ => false,
        };
        if !self.entries.iter().any(unordered) {
            return Cow::Borrowed(self);
        }
        let mut ordered = self.clone();
        for entry in &mut ordered.entries {
            if unordered(entry) {
                if let Value::NodeSet(nodes) = &mut entry.1 {
                    doc.sort_document_order(nodes);
                }
            }
        }
        Cow::Owned(ordered)
    }
}

impl fmt::Display for Bindings {
    /// Renders as `$a = 1, $b = 'x'` (names in sorted order).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            match value {
                Value::Str(s) => write!(f, "${name} = '{s}'")?,
                other => write!(f, "${name} = {other:?}")?,
            }
        }
        Ok(())
    }
}

impl<N: Into<String>> FromIterator<(N, Value)> for Bindings {
    fn from_iter<T: IntoIterator<Item = (N, Value)>>(iter: T) -> Self {
        let mut b = Bindings::new();
        for (name, value) in iter {
            b.set(name, value);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_and_replace() {
        let mut b = Bindings::new();
        assert!(b.is_empty());
        b.set("x", Value::Number(1.0));
        b.set("a", Value::Str("s".into()));
        b.set("x", Value::Number(2.0));
        assert_eq!(b.len(), 2);
        assert_eq!(b.get("x"), Some(&Value::Number(2.0)));
        assert_eq!(b.get("a"), Some(&Value::Str("s".into())));
        assert!(b.get("y").is_none());
        // Iteration is name-sorted.
        let names: Vec<&str> = b.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a", "x"]);
    }

    #[test]
    fn builder_forms() {
        let b = Bindings::new()
            .with_string("s", "v")
            .with_number("n", 3.0)
            .with_boolean("t", true);
        assert_eq!(b.get("s"), Some(&Value::Str("v".into())));
        assert_eq!(b.get("n"), Some(&Value::Number(3.0)));
        assert_eq!(b.get("t"), Some(&Value::Boolean(true)));
    }

    #[test]
    fn from_iterator_and_display() {
        let b: Bindings = [("b", Value::Number(2.0)), ("a", Value::Str("x".into()))]
            .into_iter()
            .collect();
        assert_eq!(b.to_string(), "$a = 'x', $b = Number(2.0)");
        assert!(Bindings::empty().is_empty());
        assert_eq!(Bindings::new().to_string(), "");
    }
}
