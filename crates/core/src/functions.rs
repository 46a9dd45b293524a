//! The XPath 1.0 core function library (§4 of the recommendation).
//!
//! All evaluators share this implementation: they evaluate the argument
//! expressions with their own strategy and then delegate to
//! [`call_function`].  `not(..)` never reaches this module because the
//! parser represents it as a dedicated AST node.

use crate::context::Context;
use crate::error::EvalError;
use crate::value::{parse_xpath_number, Value};
use xpeval_dom::{Document, NodeId};

/// Names of the functions implemented by [`call_function`].
pub const SUPPORTED_FUNCTIONS: &[&str] = &[
    "position",
    "last",
    "count",
    "sum",
    "true",
    "false",
    "boolean",
    "number",
    "string",
    "concat",
    "contains",
    "starts-with",
    "substring",
    "substring-before",
    "substring-after",
    "string-length",
    "normalize-space",
    "translate",
    "name",
    "local-name",
    "floor",
    "ceiling",
    "round",
];

/// Whether a function name is known to the engine (including `not`, which is
/// handled structurally).
pub fn is_supported(name: &str) -> bool {
    name == "not" || SUPPORTED_FUNCTIONS.contains(&name)
}

/// Compile-time arity signature of a built-in function:
/// `(min_args, max_args)` with `None` meaning unbounded.  Mirrors the
/// runtime checks inside [`call_function`] so the compiler can reject a
/// wrong-arity call before any document is touched.  Returns `None` for
/// names that are not built-ins (the registry then gets a say).
pub fn builtin_signature(name: &str) -> Option<(usize, Option<usize>)> {
    Some(match name {
        "position" | "last" | "true" | "false" => (0, Some(0)),
        "count" | "sum" | "boolean" | "floor" | "ceiling" | "round" | "not" => (1, Some(1)),
        "number" | "string" | "string-length" | "normalize-space" | "name" | "local-name" => {
            (0, Some(1))
        }
        "contains" | "starts-with" | "substring-before" | "substring-after" => (2, Some(2)),
        "substring" => (2, Some(3)),
        "translate" => (3, Some(3)),
        "concat" => (2, None),
        _ => return None,
    })
}

fn arity_error(name: &str, expected: &str, got: usize) -> EvalError {
    EvalError::WrongArity {
        name: name.to_string(),
        expected: expected.to_string(),
        got,
    }
}

/// Evaluates a call to a core-library function over already-evaluated
/// argument values.
pub fn call_function(
    name: &str,
    args: Vec<Value>,
    ctx: &Context,
    doc: &Document,
) -> Result<Value, EvalError> {
    match name {
        "position" => {
            expect_arity(name, &args, 0)?;
            Ok(Value::Number(ctx.position as f64))
        }
        "last" => {
            expect_arity(name, &args, 0)?;
            Ok(Value::Number(ctx.size as f64))
        }
        "true" => {
            expect_arity(name, &args, 0)?;
            Ok(Value::Boolean(true))
        }
        "false" => {
            expect_arity(name, &args, 0)?;
            Ok(Value::Boolean(false))
        }
        "count" => {
            expect_arity(name, &args, 1)?;
            let nodes = args.into_iter().next().unwrap().into_nodes()?;
            Ok(Value::Number(nodes.len() as f64))
        }
        "sum" => {
            expect_arity(name, &args, 1)?;
            let nodes = args.into_iter().next().unwrap().into_nodes()?;
            Ok(Value::Number(sum(doc, &nodes)))
        }
        "boolean" => {
            expect_arity(name, &args, 1)?;
            Ok(Value::Boolean(args[0].to_boolean()))
        }
        "number" => {
            let v = optional_arg(name, args, ctx, doc)?;
            Ok(Value::Number(v.to_number(doc)))
        }
        "string" => {
            let v = optional_arg(name, args, ctx, doc)?;
            Ok(Value::Str(v.to_xpath_string(doc)))
        }
        "concat" => {
            if args.len() < 2 {
                return Err(arity_error(name, "2 or more", args.len()));
            }
            let mut out = String::new();
            for a in &args {
                out.push_str(&a.to_xpath_string(doc));
            }
            Ok(Value::Str(out))
        }
        "contains" | "starts-with" => {
            expect_arity(name, &args, 2)?;
            let test = string_test(name);
            let hay = args[0].to_xpath_string(doc);
            Ok(Value::Boolean(test(&hay, &args[1].to_xpath_string(doc))))
        }
        "substring-before" | "substring-after" => {
            expect_arity(name, &args, 2)?;
            let part = string_part(name);
            let hay = args[0].to_xpath_string(doc);
            Ok(Value::Str(
                part(&hay, &args[1].to_xpath_string(doc)).to_string(),
            ))
        }
        "substring" => {
            if args.len() != 2 && args.len() != 3 {
                return Err(arity_error(name, "2 or 3", args.len()));
            }
            let s = args[0].to_xpath_string(doc);
            let start = args[1].to_number(doc);
            let len = args.get(2).map(|v| v.to_number(doc));
            Ok(Value::Str(substring(&s, start, len).to_string()))
        }
        "string-length" => {
            let v = optional_arg(name, args, ctx, doc)?;
            Ok(Value::Number(string_length(&v.to_xpath_string(doc))))
        }
        "normalize-space" => {
            let v = optional_arg(name, args, ctx, doc)?;
            let mut out = String::new();
            normalize_space(&v.to_xpath_string(doc), &mut out);
            Ok(Value::Str(out))
        }
        "translate" => {
            expect_arity(name, &args, 3)?;
            let [s, from, to] = [0, 1, 2].map(|i| args[i].to_xpath_string(doc));
            let mut out = String::new();
            translate(&s, &from, &to, &mut out);
            Ok(Value::Str(out))
        }
        "name" | "local-name" => {
            if args.len() > 1 {
                return Err(arity_error(name, "0 or 1", args.len()));
            }
            let node = match args.into_iter().next() {
                Some(v) => v.into_nodes()?.first().copied(),
                None => Some(ctx.node),
            };
            let s = node
                .and_then(|n| doc.name(n).map(str::to_string))
                .unwrap_or_default();
            Ok(Value::Str(s))
        }
        "floor" | "ceiling" | "round" => {
            expect_arity(name, &args, 1)?;
            let f = number_function(name);
            Ok(Value::Number(f(args[0].to_number(doc))))
        }
        _ => Err(EvalError::UnknownFunction {
            name: name.to_string(),
        }),
    }
}

// The bodies of the string and number functions, over `&str` and `f64`:
// `call_function` applies them to the values of its arguments, the table
// machine's column route to whole columns of borrowed strings.

/// `sum(nodes)`: the total of the nodes' string values read as numbers.
pub(crate) fn sum(doc: &Document, nodes: &[NodeId]) -> f64 {
    nodes
        .iter()
        .map(|&n| parse_xpath_number(&doc.string_value_cow(n)))
        .sum()
}

/// `contains` and `starts-with`, by name.
pub(crate) fn string_test(name: &str) -> fn(&str, &str) -> bool {
    match name {
        "contains" => |hay, needle| hay.contains(needle),
        "starts-with" => |hay, prefix| hay.starts_with(prefix),
        other => unreachable!("{other} is not a string test"),
    }
}

/// `substring-before` and `substring-after`, by name: the part of the
/// first string before (after) the first occurrence of the second, empty
/// when there is none.
pub(crate) fn string_part(name: &str) -> for<'s> fn(&'s str, &str) -> &'s str {
    match name {
        "substring-before" => |hay, sep| hay.split_once(sep).map_or("", |(before, _)| before),
        "substring-after" => |hay, sep| hay.split_once(sep).map_or("", |(_, after)| after),
        other => unreachable!("{other} is not a string part"),
    }
}

/// `floor`, `ceiling` and `round`, by name.  XPath's `round` rounds half
/// up, towards +infinity.
pub(crate) fn number_function(name: &str) -> fn(f64) -> f64 {
    match name {
        "floor" => f64::floor,
        "ceiling" => f64::ceil,
        "round" => round,
        other => unreachable!("{other} is not a number function"),
    }
}

fn round(n: f64) -> f64 {
    (n + 0.5).floor()
}

/// `string-length(s)`, in characters.
pub(crate) fn string_length(s: &str) -> f64 {
    s.chars().count() as f64
}

/// `normalize-space(s)`, appended to `out`: runs of whitespace become one
/// space, leading and trailing whitespace goes.
pub(crate) fn normalize_space(s: &str, out: &mut String) {
    for (i, word) in s.split_whitespace().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(word);
    }
}

/// `translate(s, from, to)`, appended to `out`: each character of `s`
/// found in `from` is replaced by the character at the same position in
/// `to`, or dropped when `to` is shorter.
pub(crate) fn translate(s: &str, from: &str, to: &str, out: &mut String) {
    for c in s.chars() {
        match from.chars().position(|f| f == c) {
            Some(i) => out.extend(to.chars().nth(i)),
            None => out.push(c),
        }
    }
}

/// `substring(s, start, len)` with XPath's rounding-based index rules
/// (§4.2), which give the famous `substring("12345", 1.5, 2.6) = "234"`
/// behaviour: the characters at 1-based positions `p` with
/// `round(start) <= p < round(start) + round(len)`.
pub(crate) fn substring(s: &str, start: f64, len: Option<f64>) -> &str {
    let start = round(start);
    let end = len.map_or(f64::INFINITY, |l| start + round(l));
    // NaN bounds (`substring(s, 0 div 0)`, `-1 div 0` plus `1 div 0`)
    // select nothing, and so does every comparison with them.
    let mut range: Option<(usize, usize)> = None;
    for (i, (byte, c)) in s.char_indices().enumerate() {
        let position = (i + 1) as f64;
        if position >= start && position < end {
            range.get_or_insert((byte, byte)).1 = byte + c.len_utf8();
        } else if range.is_some() {
            break;
        }
    }
    range.map_or("", |(from, to)| &s[from..to])
}

fn expect_arity(name: &str, args: &[Value], n: usize) -> Result<(), EvalError> {
    if args.len() == n {
        Ok(())
    } else {
        Err(arity_error(name, &n.to_string(), args.len()))
    }
}

/// For functions whose single optional argument defaults to a node set
/// containing only the context node.
fn optional_arg(
    name: &str,
    args: Vec<Value>,
    ctx: &Context,
    _doc: &Document,
) -> Result<Value, EvalError> {
    match args.len() {
        0 => Ok(Value::NodeSet(vec![ctx.node])),
        1 => Ok(args.into_iter().next().unwrap()),
        n => Err(arity_error(name, "0 or 1", n)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpeval_dom::parse_xml;

    fn setup() -> (Document, Context) {
        let doc = parse_xml("<r><a>1</a><a>2</a><b> spaced  text </b></r>").unwrap();
        let ctx = Context::root(&doc);
        (doc, ctx)
    }

    fn call(name: &str, args: Vec<Value>) -> Value {
        let (doc, ctx) = setup();
        call_function(name, args, &ctx, &doc).unwrap()
    }

    #[test]
    fn position_and_last_read_the_context() {
        let (doc, _) = setup();
        let ctx = Context::new(doc.root(), 3, 9);
        assert_eq!(
            call_function("position", vec![], &ctx, &doc).unwrap(),
            Value::Number(3.0)
        );
        assert_eq!(
            call_function("last", vec![], &ctx, &doc).unwrap(),
            Value::Number(9.0)
        );
    }

    #[test]
    fn count_and_sum() {
        let (doc, ctx) = setup();
        let a_nodes: Vec<_> = doc
            .all_elements()
            .filter(|&n| doc.name(n) == Some("a"))
            .collect();
        let v = call_function(
            "count",
            vec![Value::node_set(&doc, a_nodes.clone())],
            &ctx,
            &doc,
        )
        .unwrap();
        assert_eq!(v, Value::Number(2.0));
        let v = call_function("sum", vec![Value::node_set(&doc, a_nodes)], &ctx, &doc).unwrap();
        assert_eq!(v, Value::Number(3.0));
        assert!(call_function("count", vec![Value::Number(1.0)], &ctx, &doc).is_err());
    }

    #[test]
    fn boolean_number_string() {
        assert_eq!(
            call("boolean", vec![Value::Str("x".into())]),
            Value::Boolean(true)
        );
        assert_eq!(
            call("number", vec![Value::Str("42".into())]),
            Value::Number(42.0)
        );
        assert_eq!(
            call("string", vec![Value::Number(7.0)]),
            Value::Str("7".into())
        );
        assert_eq!(call("true", vec![]), Value::Boolean(true));
        assert_eq!(call("false", vec![]), Value::Boolean(false));
    }

    #[test]
    fn string_functions() {
        assert_eq!(
            call(
                "concat",
                vec![
                    Value::Str("a".into()),
                    Value::Str("b".into()),
                    Value::Number(1.0)
                ]
            ),
            Value::Str("ab1".into())
        );
        assert_eq!(
            call(
                "contains",
                vec![Value::Str("hello".into()), Value::Str("ell".into())]
            ),
            Value::Boolean(true)
        );
        assert_eq!(
            call(
                "starts-with",
                vec![Value::Str("hello".into()), Value::Str("he".into())]
            ),
            Value::Boolean(true)
        );
        assert_eq!(
            call(
                "substring-before",
                vec![Value::Str("1999/04/01".into()), Value::Str("/".into())]
            ),
            Value::Str("1999".into())
        );
        assert_eq!(
            call(
                "substring-after",
                vec![Value::Str("1999/04/01".into()), Value::Str("/".into())]
            ),
            Value::Str("04/01".into())
        );
        assert_eq!(
            call("string-length", vec![Value::Str("abcd".into())]),
            Value::Number(4.0)
        );
        assert_eq!(
            call("normalize-space", vec![Value::Str("  a  b \n c ".into())]),
            Value::Str("a b c".into())
        );
        assert_eq!(
            call(
                "translate",
                vec![
                    Value::Str("bar".into()),
                    Value::Str("abc".into()),
                    Value::Str("ABC".into())
                ]
            ),
            Value::Str("BAr".into())
        );
        assert_eq!(
            call(
                "translate",
                vec![
                    Value::Str("--aaa--".into()),
                    Value::Str("abc-".into()),
                    Value::Str("ABC".into())
                ]
            ),
            Value::Str("AAA".into())
        );
    }

    #[test]
    fn substring_rounding_rules() {
        assert_eq!(
            call(
                "substring",
                vec![
                    Value::Str("12345".into()),
                    Value::Number(2.0),
                    Value::Number(3.0)
                ]
            ),
            Value::Str("234".into())
        );
        assert_eq!(
            call(
                "substring",
                vec![
                    Value::Str("12345".into()),
                    Value::Number(1.5),
                    Value::Number(2.6)
                ]
            ),
            Value::Str("234".into())
        );
        assert_eq!(
            call(
                "substring",
                vec![
                    Value::Str("12345".into()),
                    Value::Number(0.0),
                    Value::Number(3.0)
                ]
            ),
            Value::Str("12".into())
        );
        assert_eq!(
            call(
                "substring",
                vec![Value::Str("12345".into()), Value::Number(2.0)]
            ),
            Value::Str("2345".into())
        );
    }

    #[test]
    fn numeric_functions() {
        assert_eq!(call("floor", vec![Value::Number(2.7)]), Value::Number(2.0));
        assert_eq!(
            call("ceiling", vec![Value::Number(2.1)]),
            Value::Number(3.0)
        );
        assert_eq!(call("round", vec![Value::Number(2.5)]), Value::Number(3.0));
        assert_eq!(
            call("round", vec![Value::Number(-2.5)]),
            Value::Number(-2.0)
        );
    }

    #[test]
    fn name_functions() {
        let (doc, ctx) = setup();
        let b: Vec<_> = doc
            .all_elements()
            .filter(|&n| doc.name(n) == Some("b"))
            .collect();
        let v = call_function("name", vec![Value::node_set(&doc, b)], &ctx, &doc).unwrap();
        assert_eq!(v, Value::Str("b".into()));
        // Defaults to the context node (the root, which has no name).
        let v = call_function("name", vec![], &ctx, &doc).unwrap();
        assert_eq!(v, Value::Str(String::new()));
        let v = call_function("local-name", vec![Value::empty()], &ctx, &doc).unwrap();
        assert_eq!(v, Value::Str(String::new()));
    }

    #[test]
    fn defaulting_functions_use_context_node() {
        let (doc, _) = setup();
        let b = doc
            .all_elements()
            .find(|&n| doc.name(n) == Some("b"))
            .unwrap();
        let ctx = Context::new(b, 1, 1);
        let v = call_function("string", vec![], &ctx, &doc).unwrap();
        assert_eq!(v, Value::Str(" spaced  text ".into()));
        let v = call_function("normalize-space", vec![], &ctx, &doc).unwrap();
        assert_eq!(v, Value::Str("spaced text".into()));
        let v = call_function("string-length", vec![], &ctx, &doc).unwrap();
        assert_eq!(v, Value::Number(14.0));
    }

    #[test]
    fn arity_errors() {
        let (doc, ctx) = setup();
        assert!(call_function("position", vec![Value::Number(1.0)], &ctx, &doc).is_err());
        assert!(call_function("concat", vec![Value::Str("a".into())], &ctx, &doc).is_err());
        assert!(call_function("contains", vec![Value::Str("a".into())], &ctx, &doc).is_err());
        assert!(call_function("substring", vec![Value::Str("a".into())], &ctx, &doc).is_err());
        assert!(call_function("nosuchfn", vec![], &ctx, &doc).is_err());
    }

    #[test]
    fn supported_list_is_consistent() {
        let (doc, ctx) = setup();
        assert!(is_supported("not"));
        for &name in SUPPORTED_FUNCTIONS {
            assert!(is_supported(name));
            // Calling with an absurd arity must yield a WrongArity or a
            // sensible value, never UnknownFunction.
            let r = call_function(name, vec![Value::Number(1.0); 7], &ctx, &doc);
            assert!(
                !matches!(r, Err(EvalError::UnknownFunction { .. })),
                "{name} reported unknown"
            );
        }
        assert!(!is_supported("id"));
    }

    #[test]
    fn builtin_signatures_cover_exactly_the_supported_set() {
        assert!(builtin_signature("not").is_some());
        assert!(builtin_signature("id").is_none());
        for &name in SUPPORTED_FUNCTIONS {
            let (min, max) = builtin_signature(name)
                .unwrap_or_else(|| panic!("{name} missing a compile-time signature"));
            if let Some(max) = max {
                assert!(min <= max, "{name}");
            }
            // Calling with `min` arguments must never be a WrongArity error.
            let (doc, ctx) = setup();
            let r = call_function(name, vec![Value::Str("a".into()); min], &ctx, &doc);
            assert!(
                !matches!(r, Err(EvalError::WrongArity { .. })),
                "{name} rejects its own minimum arity"
            );
        }
    }
}
