//! Recursive-descent parser for XPath 1.0 expressions.
//!
//! The grammar follows the operator precedence of the XPath 1.0
//! recommendation (§3.1–3.5):
//!
//! ```text
//! Expr        ::= OrExpr
//! OrExpr      ::= AndExpr ('or' AndExpr)*
//! AndExpr     ::= EqualityExpr ('and' EqualityExpr)*
//! EqualityExpr::= RelationalExpr (('='|'!='|'is') RelationalExpr)*
//! RelationalExpr ::= AdditiveExpr (('<'|'<='|'>'|'>='|'<<'|'>>') AdditiveExpr)*
//! AdditiveExpr::= MultiplicativeExpr (('+'|'-') MultiplicativeExpr)*
//! MultiplicativeExpr ::= UnaryExpr (('*'|'div'|'mod') UnaryExpr)*
//! UnaryExpr   ::= '-' UnaryExpr | UnionExpr
//! UnionExpr   ::= IntersectExceptExpr (('|'|'union') IntersectExceptExpr)*
//! IntersectExceptExpr ::= PathExpr (('intersect'|'except') PathExpr)*
//! PathExpr    ::= LocationPath | PrimaryExpr
//! PrimaryExpr ::= '(' Expr ')' | Literal | Number | VariableReference
//!               | FunctionCall
//! ```
//!
//! The set operators `union`/`intersect`/`except`, the node comparisons
//! `is`/`<<`/`>>` and variable references `$name` follow XPath 2.0 surface
//! syntax: `union` is a synonym for `|`, and `intersect`/`except` bind
//! tighter than union.  Node comparisons require node-set-typed operands
//! and do not chain (`a is b is c` is rejected at parse time because the
//! left operand of the second `is` is boolean-typed).
//!
//! Abbreviated location-path syntax is expanded during parsing exactly as
//! the recommendation prescribes: `//` becomes `/descendant-or-self::node()/`,
//! `.` becomes `self::node()`, `..` becomes `parent::node()` and `@n` becomes
//! `attribute::n`.  Calls `not(e)` are represented as [`Expr::Not`].

use crate::ast::{ArithOp, Expr, ExprType, LocationPath, NodeCompOp, RelOp, Step};
use crate::lexer::{tokenize, LexError, Token};
use std::fmt;
use xpeval_dom::{Axis, NodeTest};

/// Error raised by [`parse_query`].
#[derive(Clone, Debug, PartialEq)]
pub enum ParseError {
    /// Lexical error.
    Lex(LexError),
    /// Syntactic error with a human-readable description and the index of
    /// the offending token.
    Syntax { token_index: usize, message: String },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "{e}"),
            ParseError::Syntax {
                token_index,
                message,
            } => {
                write!(f, "parse error at token {token_index}: {message}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

/// How many parentheses, function calls, predicates and unary minus signs
/// may enclose a subexpression of a query [`parse_query`] accepts.  The
/// parser recurses once per enclosing construct, so without a bound a
/// hostile query — thirty thousand opening parentheses — overflows the stack,
/// which aborts the process instead of unwinding.  Far above any real query.
pub const MAX_QUERY_DEPTH: usize = 256;

/// Parses an XPath 1.0 expression into an [`Expr`].
///
/// ```
/// use xpeval_syntax::parse_query;
/// let q = parse_query("//book[@year = 2003]/title").unwrap();
/// assert!(q.is_path());
/// ```
pub fn parse_query(input: &str) -> Result<Expr, ParseError> {
    let tokens = tokenize(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let expr = p.parse_or_operands()?;
    if p.pos != p.tokens.len() {
        return Err(p.err("unexpected trailing tokens"));
    }
    Ok(expr)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Constructs enclosing the current position, bounded by
    /// [`MAX_QUERY_DEPTH`].
    depth: usize,
}

impl Parser {
    fn err(&self, message: &str) -> ParseError {
        ParseError::Syntax {
            token_index: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, expected: &Token) -> bool {
        if self.peek() == Some(expected) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, expected: &Token) -> Result<(), ParseError> {
        if self.eat(expected) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{expected}'")))
        }
    }

    /// Steps one nesting level down, or fails at the current token when
    /// that would exceed [`MAX_QUERY_DEPTH`].  Every recursive re-entry of
    /// the grammar passes through here; the caller steps back up
    /// (`self.depth -= 1`) once the level is parsed.
    fn descend(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_QUERY_DEPTH {
            return Err(self.err(&format!(
                "expression nested deeper than {MAX_QUERY_DEPTH} levels"
            )));
        }
        self.depth += 1;
        Ok(())
    }

    /// `Expr` one nesting level down: a parenthesized expression, a function
    /// argument, a predicate.
    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        self.descend()?;
        let result = self.parse_or_operands();
        self.depth -= 1;
        result
    }

    fn parse_or_operands(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_and()?;
        while self.eat(&Token::Or) {
            let right = self.parse_and()?;
            left = Expr::or(left, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_equality()?;
        while self.eat(&Token::And) {
            let right = self.parse_equality()?;
            left = Expr::and(left, right);
        }
        Ok(left)
    }

    fn parse_equality(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_relational()?;
        loop {
            match self.peek() {
                Some(Token::Eq) => {
                    self.pos += 1;
                    let right = self.parse_relational()?;
                    left = Expr::relational(RelOp::Eq, left, right);
                }
                Some(Token::Ne) => {
                    self.pos += 1;
                    let right = self.parse_relational()?;
                    left = Expr::relational(RelOp::Ne, left, right);
                }
                Some(Token::Is) => {
                    self.pos += 1;
                    let right = self.parse_relational()?;
                    left = self.node_compare(NodeCompOp::Is, left, right)?;
                }
                _ => break,
            }
        }
        Ok(left)
    }

    fn parse_relational(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_additive()?;
        loop {
            let rel = match self.peek() {
                Some(Token::Lt) => Some(RelOp::Lt),
                Some(Token::Le) => Some(RelOp::Le),
                Some(Token::Gt) => Some(RelOp::Gt),
                Some(Token::Ge) => Some(RelOp::Ge),
                _ => None,
            };
            if let Some(op) = rel {
                self.pos += 1;
                let right = self.parse_additive()?;
                left = Expr::relational(op, left, right);
                continue;
            }
            let node = match self.peek() {
                Some(Token::Precedes) => Some(NodeCompOp::Precedes),
                Some(Token::Follows) => Some(NodeCompOp::Follows),
                _ => None,
            };
            match node {
                Some(op) => {
                    self.pos += 1;
                    let right = self.parse_additive()?;
                    left = self.node_compare(op, left, right)?;
                }
                None => break,
            }
        }
        Ok(left)
    }

    /// Builds a node comparison, rejecting operands that are not node-set
    /// typed.  This also prevents chaining: the result of a comparison is
    /// boolean, so it can never feed another comparison.
    fn node_compare(&self, op: NodeCompOp, left: Expr, right: Expr) -> Result<Expr, ParseError> {
        for side in [&left, &right] {
            if side.expr_type() != ExprType::NodeSet {
                return Err(self.err(&format!(
                    "node comparison '{}' requires node-set operands, found '{side}'",
                    op.symbol()
                )));
            }
        }
        Ok(Expr::node_compare(op, left, right))
    }

    fn parse_additive(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => ArithOp::Add,
                Some(Token::Minus) => ArithOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.parse_multiplicative()?;
            left = Expr::arithmetic(op, left, right);
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Multiply) => ArithOp::Mul,
                Some(Token::Div) => ArithOp::Div,
                Some(Token::Mod) => ArithOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let right = self.parse_unary()?;
            left = Expr::arithmetic(op, left, right);
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&Token::Minus) {
            self.descend()?;
            let inner = self.parse_unary();
            self.depth -= 1;
            Ok(Expr::Neg(Box::new(inner?)))
        } else {
            self.parse_union()
        }
    }

    fn parse_union(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_intersect_except()?;
        while self.eat(&Token::Pipe) {
            let right = self.parse_intersect_except()?;
            left = Expr::Union(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    /// `intersect` and `except` bind tighter than `|`/`union`, matching the
    /// XPath 2.0 operator table.
    fn parse_intersect_except(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_path_expr()?;
        loop {
            let except = match self.peek() {
                Some(Token::Intersect) => false,
                Some(Token::Except) => true,
                _ => break,
            };
            self.pos += 1;
            let right = self.parse_path_expr()?;
            for side in [&left, &right] {
                if side.expr_type() != ExprType::NodeSet {
                    return Err(self.err(&format!(
                        "'{}' requires node-set operands, found '{side}'",
                        if except { "except" } else { "intersect" }
                    )));
                }
            }
            left = if except {
                Expr::except(left, right)
            } else {
                Expr::intersect(left, right)
            };
        }
        Ok(left)
    }

    /// Is the upcoming token sequence the start of a location path (as
    /// opposed to a primary expression)?
    fn at_location_path(&self) -> bool {
        match self.peek() {
            Some(Token::Slash)
            | Some(Token::DoubleSlash)
            | Some(Token::Dot)
            | Some(Token::DotDot)
            | Some(Token::At)
            | Some(Token::Star) => true,
            Some(Token::Name(name)) => {
                // A name starts a location path unless it is a function call
                // (name followed by '(') that is not a node-type test.
                if self.peek2() == Some(&Token::LParen) {
                    is_node_type(name)
                } else {
                    true
                }
            }
            _ => false,
        }
    }

    fn parse_path_expr(&mut self) -> Result<Expr, ParseError> {
        if self.at_location_path() {
            let path = self.parse_location_path()?;
            Ok(Expr::Path(path))
        } else {
            self.parse_primary()
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.bump() {
            Some(Token::Number(n)) => Ok(Expr::Number(n)),
            Some(Token::Literal(s)) => Ok(Expr::Literal(s)),
            Some(Token::Variable(name)) => Ok(Expr::Variable(name)),
            Some(Token::LParen) => {
                let e = self.parse_or()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::Name(name)) => {
                self.expect(&Token::LParen)?;
                let mut args = Vec::new();
                if self.peek() != Some(&Token::RParen) {
                    loop {
                        args.push(self.parse_or()?);
                        if !self.eat(&Token::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&Token::RParen)?;
                if name == "not" {
                    if args.len() != 1 {
                        return Err(self.err("not() takes exactly one argument"));
                    }
                    Ok(Expr::Not(Box::new(args.into_iter().next().unwrap())))
                } else {
                    Ok(Expr::FunctionCall { name, args })
                }
            }
            Some(other) => Err(ParseError::Syntax {
                token_index: self.pos - 1,
                message: format!("unexpected token '{other}'"),
            }),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_location_path(&mut self) -> Result<LocationPath, ParseError> {
        let mut steps: Vec<Step> = Vec::new();
        let absolute = match self.peek() {
            Some(Token::Slash) => {
                self.pos += 1;
                true
            }
            Some(Token::DoubleSlash) => {
                self.pos += 1;
                steps.push(Step::new(Axis::DescendantOrSelf, NodeTest::AnyNode));
                true
            }
            _ => false,
        };

        // `/` on its own selects the root.
        if absolute && !self.at_step_start() {
            if steps.is_empty() {
                return Ok(LocationPath::absolute(steps));
            }
            return Err(self.err("expected a location step after '//'"));
        }

        loop {
            steps.push(self.parse_step()?);
            match self.peek() {
                Some(Token::Slash) => {
                    self.pos += 1;
                }
                Some(Token::DoubleSlash) => {
                    self.pos += 1;
                    steps.push(Step::new(Axis::DescendantOrSelf, NodeTest::AnyNode));
                }
                _ => break,
            }
        }
        Ok(LocationPath { absolute, steps })
    }

    fn at_step_start(&self) -> bool {
        matches!(
            self.peek(),
            Some(Token::Dot)
                | Some(Token::DotDot)
                | Some(Token::At)
                | Some(Token::Star)
                | Some(Token::Name(_))
        )
    }

    fn parse_step(&mut self) -> Result<Step, ParseError> {
        // Abbreviations first.
        if self.eat(&Token::Dot) {
            return Ok(Step::new(Axis::SelfAxis, NodeTest::AnyNode));
        }
        if self.eat(&Token::DotDot) {
            return Ok(Step::new(Axis::Parent, NodeTest::AnyNode));
        }

        let axis = if self.eat(&Token::At) {
            Axis::Attribute
        } else if let (Some(Token::Name(name)), Some(Token::ColonColon)) =
            (self.peek(), self.peek2())
        {
            let axis =
                Axis::from_name(name).ok_or_else(|| self.err(&format!("unknown axis '{name}'")))?;
            self.pos += 2;
            axis
        } else {
            Axis::Child
        };

        let node_test = self.parse_node_test()?;
        let mut predicates = Vec::new();
        while self.eat(&Token::LBracket) {
            let pred = self.parse_or()?;
            self.expect(&Token::RBracket)?;
            predicates.push(pred);
        }
        Ok(Step {
            axis,
            node_test,
            predicates,
        })
    }

    fn parse_node_test(&mut self) -> Result<NodeTest, ParseError> {
        match self.bump() {
            Some(Token::Star) => Ok(NodeTest::Star),
            Some(Token::Name(name)) => {
                if self.peek() == Some(&Token::LParen) && is_node_type(&name) {
                    self.pos += 1;
                    self.expect(&Token::RParen)?;
                    match name.as_str() {
                        "node" => Ok(NodeTest::AnyNode),
                        "text" => Ok(NodeTest::Text),
                        // comment() / processing-instruction() match nothing in
                        // our data model; map them to text() matching nothing is
                        // wrong, so reject explicitly.
                        other => Err(self.err(&format!("unsupported node type test '{other}()'"))),
                    }
                } else {
                    Ok(NodeTest::Name(name))
                }
            }
            Some(other) => Err(ParseError::Syntax {
                token_index: self.pos - 1,
                message: format!("expected a node test, found '{other}'"),
            }),
            None => Err(self.err("expected a node test, found end of input")),
        }
    }
}

fn is_node_type(name: &str) -> bool {
    matches!(name, "node" | "text" | "comment" | "processing-instruction")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Expr {
        parse_query(s).unwrap_or_else(|e| panic!("failed to parse {s:?}: {e}"))
    }

    #[test]
    fn parses_paper_example_query() {
        // The running example from Section 2.2 of the paper.
        let q = parse("/descendant::a/child::b[descendant::c and not(following-sibling::d)]");
        let path = q.as_path().expect("a path");
        assert!(path.absolute);
        assert_eq!(path.steps.len(), 2);
        assert_eq!(path.steps[0].axis, Axis::Descendant);
        assert_eq!(path.steps[0].node_test, NodeTest::name("a"));
        assert_eq!(path.steps[1].predicates.len(), 1);
        match &path.steps[1].predicates[0] {
            Expr::And(l, r) => {
                assert!(l.is_path());
                assert!(matches!(**r, Expr::Not(_)));
            }
            other => panic!("expected And, got {other:?}"),
        }
    }

    #[test]
    fn parses_wf_position_example() {
        // child::a[position() + 1 = last()] from Section 2.2.
        let q = parse("child::a[position() + 1 = last()]");
        let path = q.as_path().unwrap();
        assert!(!path.absolute);
        let pred = &path.steps[0].predicates[0];
        match pred {
            Expr::Relational {
                op: RelOp::Eq,
                left,
                right,
            } => {
                assert!(matches!(
                    **left,
                    Expr::Arithmetic {
                        op: ArithOp::Add,
                        ..
                    }
                ));
                assert!(matches!(**right, Expr::FunctionCall { ref name, .. } if name == "last"));
            }
            other => panic!("expected relational, got {other:?}"),
        }
    }

    #[test]
    fn abbreviated_syntax_expansion() {
        let q = parse("//book/.././@id");
        let path = q.as_path().unwrap();
        assert!(path.absolute);
        let axes: Vec<Axis> = path.steps.iter().map(|s| s.axis).collect();
        assert_eq!(
            axes,
            vec![
                Axis::DescendantOrSelf,
                Axis::Child,
                Axis::Parent,
                Axis::SelfAxis,
                Axis::Attribute
            ]
        );
        assert_eq!(path.steps[0].node_test, NodeTest::AnyNode);
        assert_eq!(path.steps[4].node_test, NodeTest::name("id"));
    }

    #[test]
    fn root_only_path() {
        let q = parse("/");
        let path = q.as_path().unwrap();
        assert!(path.absolute);
        assert!(path.steps.is_empty());
    }

    #[test]
    fn default_axis_is_child() {
        let q = parse("a/b/c");
        let path = q.as_path().unwrap();
        assert!(!path.absolute);
        assert!(path.steps.iter().all(|s| s.axis == Axis::Child));
    }

    #[test]
    fn double_slash_in_the_middle() {
        let q = parse("a//b");
        let path = q.as_path().unwrap();
        assert_eq!(path.steps.len(), 3);
        assert_eq!(path.steps[1].axis, Axis::DescendantOrSelf);
        assert_eq!(path.steps[1].node_test, NodeTest::AnyNode);
    }

    #[test]
    fn union_and_precedence() {
        let q = parse("a | b | c");
        assert!(matches!(q, Expr::Union(_, _)));
        // 'or' binds weaker than 'and'
        let q = parse("a or b and c");
        match q {
            Expr::Or(_, rhs) => assert!(matches!(*rhs, Expr::And(_, _))),
            other => panic!("expected Or at top, got {other:?}"),
        }
        // relational binds tighter than and
        let q = parse("1 = 2 and 3 < 4");
        assert!(matches!(q, Expr::And(_, _)));
    }

    #[test]
    fn arithmetic_precedence_and_unary_minus() {
        let q = parse("1 + 2 * 3");
        match q {
            Expr::Arithmetic {
                op: ArithOp::Add,
                right,
                ..
            } => {
                assert!(matches!(
                    *right,
                    Expr::Arithmetic {
                        op: ArithOp::Mul,
                        ..
                    }
                ));
            }
            other => panic!("{other:?}"),
        }
        let q = parse("-1 + 2");
        assert!(matches!(
            q,
            Expr::Arithmetic {
                op: ArithOp::Add,
                ..
            }
        ));
        let q = parse("- position()");
        assert!(matches!(q, Expr::Neg(_)));
        let q = parse("6 div 2 mod 2");
        assert!(matches!(
            q,
            Expr::Arithmetic {
                op: ArithOp::Mod,
                ..
            }
        ));
    }

    #[test]
    fn not_becomes_dedicated_node() {
        let q = parse("not(child::a)");
        assert!(matches!(q, Expr::Not(_)));
        let q = parse("not(not(child::a))");
        match q {
            Expr::Not(inner) => assert!(matches!(*inner, Expr::Not(_))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn function_calls() {
        let q = parse("count(//a) > 2");
        match q {
            Expr::Relational {
                op: RelOp::Gt,
                left,
                ..
            } => match *left {
                Expr::FunctionCall { ref name, ref args } => {
                    assert_eq!(name, "count");
                    assert_eq!(args.len(), 1);
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
        let q = parse("concat('a', 'b', 'c')");
        match q {
            Expr::FunctionCall { name, args } => {
                assert_eq!(name, "concat");
                assert_eq!(args.len(), 3);
            }
            other => panic!("{other:?}"),
        }
        let q = parse("true()");
        assert!(matches!(q, Expr::FunctionCall { ref name, .. } if name == "true"));
    }

    #[test]
    fn node_type_tests() {
        let q = parse("child::node()");
        assert_eq!(q.as_path().unwrap().steps[0].node_test, NodeTest::AnyNode);
        let q = parse("child::text()");
        assert_eq!(q.as_path().unwrap().steps[0].node_test, NodeTest::Text);
        let q = parse("text()");
        assert_eq!(q.as_path().unwrap().steps[0].node_test, NodeTest::Text);
    }

    #[test]
    fn iterated_predicates_are_preserved() {
        let q = parse("child::a[child::b][position() = 1]");
        let path = q.as_path().unwrap();
        assert_eq!(path.steps[0].predicates.len(), 2);
    }

    #[test]
    fn numeric_predicate_abbreviation_parses_as_number() {
        let q = parse("child::a[3]");
        let path = q.as_path().unwrap();
        assert_eq!(path.steps[0].predicates[0], Expr::Number(3.0));
    }

    #[test]
    fn every_core_axis_parses() {
        for axis in Axis::CORE {
            let src = format!("{}::x", axis.name());
            let q = parse(&src);
            assert_eq!(q.as_path().unwrap().steps[0].axis, axis, "{src}");
        }
    }

    #[test]
    fn parenthesized_expressions() {
        let q = parse("(1 + 2) * 3");
        assert!(matches!(
            q,
            Expr::Arithmetic {
                op: ArithOp::Mul,
                ..
            }
        ));
        let q = parse("(child::a or child::b) and child::c");
        assert!(matches!(q, Expr::And(_, _)));
    }

    #[test]
    fn set_operators_and_precedence() {
        // intersect/except bind tighter than union: `a | b intersect c`
        // parses as `a | (b intersect c)`.
        let q = parse("child::a | child::b intersect child::c");
        match q {
            Expr::Union(_, rhs) => assert!(matches!(*rhs, Expr::Intersect(_, _))),
            other => panic!("expected Union at top, got {other:?}"),
        }
        // `union` is a synonym for `|`.
        let q = parse("child::a union child::b");
        assert!(matches!(q, Expr::Union(_, _)));
        // intersect/except are left-associative at the same level.
        let q = parse("child::a intersect child::b except child::c");
        match q {
            Expr::Except(lhs, _) => assert!(matches!(*lhs, Expr::Intersect(_, _))),
            other => panic!("expected Except at top, got {other:?}"),
        }
    }

    #[test]
    fn node_comparisons() {
        let q = parse("child::a is child::b");
        assert!(matches!(
            q,
            Expr::NodeCompare {
                op: NodeCompOp::Is,
                ..
            }
        ));
        let q = parse("//a << //b");
        assert!(matches!(
            q,
            Expr::NodeCompare {
                op: NodeCompOp::Precedes,
                ..
            }
        ));
        let q = parse("//a >> //b");
        assert!(matches!(
            q,
            Expr::NodeCompare {
                op: NodeCompOp::Follows,
                ..
            }
        ));
        // Comparisons sit below `and` in the precedence chain.
        let q = parse("child::a is child::b and child::c");
        assert!(matches!(q, Expr::And(_, _)));
    }

    #[test]
    fn variable_references() {
        let q = parse("$x");
        assert_eq!(q, Expr::Variable("x".to_string()));
        let q = parse("//row[@limit = $max-rows]");
        let path = q.as_path().unwrap();
        match &path.steps[1].predicates[0] {
            Expr::Relational { right, .. } => {
                assert_eq!(**right, Expr::Variable("max-rows".to_string()));
            }
            other => panic!("expected relational predicate, got {other:?}"),
        }
    }

    #[test]
    fn node_comparison_operand_typing() {
        // Both sides of a node comparison must be node-set typed.
        assert!(parse_query("1 is child::a").is_err());
        assert!(parse_query("child::a is 'x'").is_err());
        // Chaining is impossible: the first comparison yields a boolean.
        assert!(parse_query("child::a is child::b is child::c").is_err());
        // Same rule for intersect/except.
        assert!(parse_query("1 intersect child::a").is_err());
        assert!(parse_query("child::a except $x").is_err());
    }

    #[test]
    fn parse_errors() {
        assert!(parse_query("").is_err());
        assert!(parse_query("/descendant::").is_err());
        assert!(parse_query("child::a[").is_err());
        assert!(parse_query("child::a]").is_err());
        assert!(parse_query("foo(").is_err());
        assert!(parse_query("1 +").is_err());
        assert!(parse_query("not(a, b)").is_err());
        assert!(parse_query("bogus-axis::a").is_err());
        assert!(parse_query("child::comment()").is_err());
        assert!(parse_query("a b").is_err());
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        // Thirty thousand levels used to abort the process.
        for hostile in [
            "(".repeat(30_000),
            "-".repeat(30_000),
            "a[".repeat(30_000),
            "not(".repeat(30_000),
        ] {
            let err = parse_query(&hostile).unwrap_err();
            // Positioned at the token that opened one level too many.
            match err {
                ParseError::Syntax {
                    token_index,
                    message,
                } => {
                    assert!(token_index >= MAX_QUERY_DEPTH, "{token_index}");
                    assert!(token_index <= 2 * MAX_QUERY_DEPTH + 2, "{token_index}");
                    assert!(message.contains("nested deeper than 256"), "{message}");
                }
                other => panic!("{other:?}"),
            }
        }
        // Exactly MAX_QUERY_DEPTH enclosing levels still parse...
        let nest = |open: &str, inner: &str, close: &str, levels: usize| {
            format!("{}{inner}{}", open.repeat(levels), close.repeat(levels))
        };
        let deep = MAX_QUERY_DEPTH;
        assert_eq!(parse(&nest("(", "7", ")", deep)), Expr::Number(7.0));
        assert!(parse_query(&nest("a[", "b", "]", deep)).is_ok());
        assert!(parse_query(&nest("not(", "b", ")", deep)).is_ok());
        assert!(parse_query(&nest("-", "1", "", deep)).is_ok());
        // ...and one more does not.
        assert!(parse_query(&nest("(", "7", ")", deep + 1)).is_err());
        assert!(parse_query(&nest("-", "1", "", deep + 1)).is_err());
    }

    #[test]
    fn error_messages_are_displayable() {
        let e = parse_query("child::a[").unwrap_err();
        assert!(e.to_string().contains("parse error") || e.to_string().contains("lex error"));
    }
}
