//! Fragment classifier — Figure 1 of the paper.
//!
//! The paper organizes XPath into a lattice of fragments, each with a
//! different combined complexity:
//!
//! ```text
//!   PF                    NL-complete
//!   positive Core XPath   LOGCFL-complete
//!   Core XPath            P-complete
//!   pWF                   LOGCFL(-complete)
//!   WF                    P-complete (contains Core XPath)
//!   pXPath                LOGCFL-complete
//!   XPath                 P-complete
//! ```
//!
//! [`classify`] computes the *least* fragment of this lattice containing a
//! given query together with the complexity classification the paper assigns
//! to it, plus the syntactic features ([`QueryFeatures`]) that drove the
//! decision.  The membership tests follow Definitions 2.5, 2.6, 5.1 and 6.1
//! literally.

use crate::ast::{Expr, ExprType};
use xpeval_dom::Axis;

/// The XPath fragments of Figure 1, ordered from most to least restrictive
/// along the chain used for "least fragment" classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Fragment {
    /// Location paths without conditions (Section 4).
    PF,
    /// Core XPath without negation (Theorem 4.1/4.2).
    PositiveCoreXPath,
    /// Definition 2.5.
    CoreXPath,
    /// "positive"/"parallel" Wadler fragment, Definition 5.1.
    PWF,
    /// The Wadler fragment, Definition 2.6.
    WF,
    /// "positive"/"parallel" XPath, Definition 6.1.
    PXPath,
    /// Full XPath 1.0.
    XPath,
}

impl Fragment {
    /// The combined-complexity classification the paper proves (or cites)
    /// for this fragment.
    pub fn complexity(self) -> &'static str {
        match self {
            Fragment::PF => "NL-complete (Theorem 4.3)",
            Fragment::PositiveCoreXPath => "LOGCFL-complete (Theorems 4.1/4.2)",
            Fragment::CoreXPath => "P-complete (Theorem 3.2)",
            Fragment::PWF => "LOGCFL-complete (Theorem 5.5)",
            Fragment::WF => "P-complete (contains Core XPath; in P by Prop. 2.7)",
            Fragment::PXPath => "LOGCFL-complete (Theorem 6.2)",
            Fragment::XPath => "P-complete (Prop. 2.7 + Theorem 3.2)",
        }
    }

    /// Is the fragment one of the highly parallelizable (NC²) ones?
    pub fn is_parallelizable(self) -> bool {
        matches!(
            self,
            Fragment::PF | Fragment::PositiveCoreXPath | Fragment::PWF | Fragment::PXPath
        )
    }

    /// Human readable name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Fragment::PF => "PF",
            Fragment::PositiveCoreXPath => "positive Core XPath",
            Fragment::CoreXPath => "Core XPath",
            Fragment::PWF => "pWF",
            Fragment::WF => "WF",
            Fragment::PXPath => "pXPath",
            Fragment::XPath => "XPath",
        }
    }

    /// All fragments in classification order.
    pub const ALL: [Fragment; 7] = [
        Fragment::PF,
        Fragment::PositiveCoreXPath,
        Fragment::CoreXPath,
        Fragment::PWF,
        Fragment::WF,
        Fragment::PXPath,
        Fragment::XPath,
    ];
}

impl std::fmt::Display for Fragment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Constant bounds used by the pWF/pXPath membership tests
/// (Definition 5.1(3) and Definition 6.1(4) require *some* constant bound;
/// the concrete value is a parameter of the classifier).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassifierLimits {
    /// Maximum nesting depth of arithmetic operators (and of `concat`).
    pub max_arith_depth: usize,
    /// Maximum arity of the `concat` function (Definition 6.1(4)).
    pub max_concat_arity: usize,
}

impl Default for ClassifierLimits {
    fn default() -> Self {
        ClassifierLimits {
            max_arith_depth: 3,
            max_concat_arity: 3,
        }
    }
}

/// Syntactic features of a query relevant to the fragment boundaries.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryFeatures {
    /// Number of `not(..)` occurrences.
    pub negation_count: usize,
    /// Maximum nesting depth of `not(..)`.
    pub negation_depth: usize,
    /// Maximum length of a predicate sequence `[e1]...[ek]` on a single step.
    pub max_predicate_sequence: usize,
    /// Number of location steps.
    pub step_count: usize,
    /// Number of predicates.
    pub predicate_count: usize,
    /// `position()` or `last()` used.
    pub uses_position_or_last: bool,
    /// Relational operators used.
    pub uses_relational: bool,
    /// A relational operator has an operand of boolean type
    /// (forbidden in pXPath, Definition 6.1(3)).
    pub relational_on_boolean: bool,
    /// Arithmetic operators used.
    pub uses_arithmetic: bool,
    /// Maximum nesting depth of arithmetic operators / `concat`.
    pub arith_nesting_depth: usize,
    /// Uses the attribute axis (outside Core XPath's axis list).
    pub uses_attribute_axis: bool,
    /// String literals used.
    pub uses_string_literals: bool,
    /// Function names used (other than `not`, which is tracked separately).
    pub functions: Vec<String>,
    /// External variable names referenced (`$name`), deduplicated in first
    /// occurrence order.
    pub variables: Vec<String>,
    /// `intersect` or `except` used (the XPath 2.0 set operators; plain `|`
    /// union is not counted here because every fragment of Figure 1 already
    /// admits it).
    pub uses_set_operators: bool,
    /// `except` used — tracked separately because set difference carries an
    /// implicit complement and therefore leaves the positive (negation-free)
    /// fragments.
    pub uses_except: bool,
    /// A node comparison (`is`, `<<`, `>>`) used.
    pub uses_node_comparison: bool,
    /// Total AST size |Q|.
    pub size: usize,
}

/// Result of classification.
#[derive(Clone, Debug, PartialEq)]
pub struct FragmentReport {
    /// Least fragment of Figure 1 containing the query.
    pub fragment: Fragment,
    /// The paper's complexity classification for that fragment.
    pub complexity: &'static str,
    /// All fragments that contain the query.
    pub memberships: Vec<Fragment>,
    /// The features that were extracted.
    pub features: QueryFeatures,
}

/// Functions allowed in the Wadler fragment (besides the implicit `not`).
const WF_FUNCTIONS: &[&str] = &["position", "last"];

/// Functions forbidden in pXPath by Definition 6.1(2).
const PXPATH_FORBIDDEN_FUNCTIONS: &[&str] = &[
    "count",
    "sum",
    "string",
    "number",
    "local-name",
    "namespace-uri",
    "name",
    "string-length",
    "normalize-space",
];

/// Extracts the [`QueryFeatures`] of an expression.
pub fn features(expr: &Expr) -> QueryFeatures {
    let mut f = QueryFeatures {
        size: expr.size(),
        ..Default::default()
    };
    collect(expr, 0, &mut f);
    f.negation_depth = crate::normalize::negation_depth(expr);
    f.arith_nesting_depth = arith_depth(expr);
    f
}

fn collect(expr: &Expr, _depth: usize, f: &mut QueryFeatures) {
    match expr {
        Expr::Path(p) => {
            if p.absolute {
                // nothing fragment-relevant
            }
            for step in &p.steps {
                f.step_count += 1;
                if step.axis == Axis::Attribute {
                    f.uses_attribute_axis = true;
                }
                f.max_predicate_sequence = f.max_predicate_sequence.max(step.predicates.len());
                f.predicate_count += step.predicates.len();
                for pred in &step.predicates {
                    collect(pred, 0, f);
                }
            }
        }
        Expr::Union(a, b) | Expr::Or(a, b) | Expr::And(a, b) => {
            collect(a, 0, f);
            collect(b, 0, f);
        }
        Expr::Intersect(a, b) => {
            f.uses_set_operators = true;
            collect(a, 0, f);
            collect(b, 0, f);
        }
        Expr::Except(a, b) => {
            f.uses_set_operators = true;
            f.uses_except = true;
            collect(a, 0, f);
            collect(b, 0, f);
        }
        Expr::NodeCompare { left, right, .. } => {
            f.uses_node_comparison = true;
            collect(left, 0, f);
            collect(right, 0, f);
        }
        Expr::Variable(name) => {
            if !f.variables.contains(name) {
                f.variables.push(name.clone());
            }
        }
        Expr::Not(e) => {
            f.negation_count += 1;
            collect(e, 0, f);
        }
        Expr::Relational { left, right, .. } => {
            f.uses_relational = true;
            if left.expr_type() == ExprType::Boolean || right.expr_type() == ExprType::Boolean {
                f.relational_on_boolean = true;
            }
            collect(left, 0, f);
            collect(right, 0, f);
        }
        Expr::Arithmetic { left, right, .. } => {
            f.uses_arithmetic = true;
            collect(left, 0, f);
            collect(right, 0, f);
        }
        Expr::Neg(e) => {
            f.uses_arithmetic = true;
            collect(e, 0, f);
        }
        Expr::Number(_) => {}
        Expr::Literal(_) => f.uses_string_literals = true,
        Expr::FunctionCall { name, args } => {
            if name == "position" || name == "last" {
                f.uses_position_or_last = true;
            }
            if !f.functions.contains(name) {
                f.functions.push(name.clone());
            }
            for a in args {
                collect(a, 0, f);
            }
        }
    }
}

/// Maximum nesting depth of arithmetic operators and `concat` calls
/// (the quantity bounded by Definition 5.1(3) / 6.1(4)).
fn arith_depth(expr: &Expr) -> usize {
    match expr {
        Expr::Arithmetic { left, right, .. } => 1 + arith_depth(left).max(arith_depth(right)),
        Expr::Neg(e) => 1 + arith_depth(e),
        Expr::FunctionCall { name, args } if name == "concat" => {
            1 + args.iter().map(arith_depth).max().unwrap_or(0)
        }
        Expr::Path(p) => p
            .steps
            .iter()
            .flat_map(|s| s.predicates.iter())
            .map(arith_depth)
            .max()
            .unwrap_or(0),
        Expr::Union(a, b)
        | Expr::Intersect(a, b)
        | Expr::Except(a, b)
        | Expr::Or(a, b)
        | Expr::And(a, b)
        | Expr::Relational {
            left: a, right: b, ..
        }
        | Expr::NodeCompare {
            left: a, right: b, ..
        } => arith_depth(a).max(arith_depth(b)),
        Expr::Not(e) => arith_depth(e),
        Expr::Number(_) | Expr::Literal(_) | Expr::Variable(_) => 0,
        Expr::FunctionCall { args, .. } => args.iter().map(arith_depth).max().unwrap_or(0),
    }
}

// ---------------------------------------------------------------------------
// Grammar membership tests (Definitions 2.5, 2.6, 5.1, 6.1)
// ---------------------------------------------------------------------------

/// Is `expr` a location path of the PF fragment (no conditions at all)?
fn is_pf(expr: &Expr) -> bool {
    match expr {
        Expr::Path(p) => p
            .steps
            .iter()
            .all(|s| s.predicates.is_empty() && s.axis != Axis::Attribute),
        Expr::Union(a, b) => is_pf(a) && is_pf(b),
        _ => false,
    }
}

/// Is `expr` a Core XPath location path ("locpath" of Definition 2.5,
/// extended with the set operators)?
///
/// `in_condition` distinguishes node-set position (the query result, or an
/// operand of a set operator) from condition position (inside a predicate).
/// `intersect`/`except` are admitted only in node-set position: there the
/// linear set-at-a-time algorithm of Theorem 3.1 answers them with one
/// bitset operation per occurrence, preserving the `O(|D|·|Q|)` bound,
/// whereas as a *condition* they would need a per-context-node join that the
/// inverse-axis `sat` pass cannot express.  A condition-position set
/// operator therefore pushes the query up to pWF/WF (decided by the
/// Singleton-Success machinery instead).
fn is_core_locpath(expr: &Expr, allow_negation: bool, in_condition: bool) -> bool {
    match expr {
        Expr::Path(p) => p.steps.iter().all(|s| {
            s.axis != Axis::Attribute
                && s.predicates
                    .iter()
                    .all(|e| is_core_bexpr(e, allow_negation))
        }),
        Expr::Union(a, b) => {
            is_core_locpath(a, allow_negation, in_condition)
                && is_core_locpath(b, allow_negation, in_condition)
        }
        // Intersection is monotone: it stays in the positive fragment.
        Expr::Intersect(a, b) => {
            !in_condition
                && is_core_locpath(a, allow_negation, in_condition)
                && is_core_locpath(b, allow_negation, in_condition)
        }
        // Difference carries an implicit complement: negation must be
        // admitted for it (Core XPath yes, positive Core XPath no).
        Expr::Except(a, b) => {
            !in_condition
                && allow_negation
                && is_core_locpath(a, allow_negation, in_condition)
                && is_core_locpath(b, allow_negation, in_condition)
        }
        _ => false,
    }
}

/// Is `expr` a Core XPath *condition* — a "bexpr" of Definition 2.5, with
/// negation?  Stricter than `classify(expr).fragment <= CoreXPath`, which
/// reads `expr` as a standalone query and so admits `intersect`/`except`
/// (Core XPath in node-set position only) anywhere under a union.
pub fn is_core_condition(expr: &Expr) -> bool {
    is_core_bexpr(expr, true)
}

/// Is `expr` a Core XPath condition ("bexpr" of Definition 2.5)?
fn is_core_bexpr(expr: &Expr, allow_negation: bool) -> bool {
    match expr {
        Expr::And(a, b) | Expr::Or(a, b) => {
            is_core_bexpr(a, allow_negation) && is_core_bexpr(b, allow_negation)
        }
        Expr::Not(e) => allow_negation && is_core_bexpr(e, allow_negation),
        _ => is_core_locpath(expr, allow_negation, true),
    }
}

/// Is `expr` a WF "nexpr" (Definition 2.6)?
fn is_wf_nexpr(expr: &Expr) -> bool {
    match expr {
        Expr::Number(_) => true,
        Expr::FunctionCall { name, args } => {
            WF_FUNCTIONS.contains(&name.as_str()) && args.is_empty()
        }
        Expr::Arithmetic { left, right, .. } => is_wf_nexpr(left) && is_wf_nexpr(right),
        Expr::Neg(e) => is_wf_nexpr(e),
        _ => false,
    }
}

/// Is `expr` a WF "bexpr" (Definition 2.6)?
fn is_wf_bexpr(expr: &Expr, allow_negation: bool, iterated_ok: bool) -> bool {
    match expr {
        Expr::And(a, b) | Expr::Or(a, b) => {
            is_wf_bexpr(a, allow_negation, iterated_ok)
                && is_wf_bexpr(b, allow_negation, iterated_ok)
        }
        Expr::Not(e) => allow_negation && is_wf_bexpr(e, allow_negation, iterated_ok),
        Expr::Relational { left, right, .. } => is_wf_nexpr(left) && is_wf_nexpr(right),
        _ => is_wf_locpath(expr, allow_negation, iterated_ok),
    }
}

/// Is `expr` a WF location path?
fn is_wf_locpath(expr: &Expr, allow_negation: bool, iterated_ok: bool) -> bool {
    match expr {
        Expr::Path(p) => p.steps.iter().all(|s| {
            s.axis != Axis::Attribute
                && (iterated_ok || s.predicates.len() <= 1)
                && s.predicates
                    .iter()
                    .all(|e| is_wf_bexpr(e, allow_negation, iterated_ok))
        }),
        // The Singleton-Success machinery decides `intersect` membership as
        // a conjunction of memberships, so it is admitted wherever unions
        // are; `except` needs the complement of a membership decision, which
        // only the negation-bearing fragments admit.
        Expr::Union(a, b) | Expr::Intersect(a, b) => {
            is_wf_locpath(a, allow_negation, iterated_ok)
                && is_wf_locpath(b, allow_negation, iterated_ok)
        }
        Expr::Except(a, b) => {
            allow_negation
                && is_wf_locpath(a, allow_negation, iterated_ok)
                && is_wf_locpath(b, allow_negation, iterated_ok)
        }
        _ => false,
    }
}

/// Is `expr` a WF expression ("expr" of Definition 2.6: locpath | bexpr | nexpr)?
fn is_wf(expr: &Expr, allow_negation: bool, iterated_ok: bool) -> bool {
    is_wf_locpath(expr, allow_negation, iterated_ok)
        || is_wf_bexpr(expr, allow_negation, iterated_ok)
        || is_wf_nexpr(expr)
}

/// Is `expr` in pWF (Definition 5.1)?
fn is_pwf(expr: &Expr, limits: &ClassifierLimits) -> bool {
    is_wf(expr, false, false) && arith_depth(expr) <= limits.max_arith_depth
}

/// Is `expr` in pXPath (Definition 6.1)?
fn is_pxpath(expr: &Expr, limits: &ClassifierLimits) -> bool {
    let f = features(expr);
    if f.negation_count > 0 {
        return false; // restriction 2 (the not-function)
    }
    if f.max_predicate_sequence >= 2 {
        return false; // restriction 1 (iterated predicates)
    }
    if f.relational_on_boolean {
        return false; // restriction 3
    }
    if f.uses_except {
        return false; // `except` is an implicit negation (restriction 2)
    }
    if f.arith_nesting_depth > limits.max_arith_depth {
        return false; // restriction 4 (bounded arithmetic / concat nesting)
    }
    let mut ok = true;
    expr.visit(&mut |e| {
        if let Expr::FunctionCall { name, args } = e {
            if PXPATH_FORBIDDEN_FUNCTIONS.contains(&name.as_str()) {
                ok = false; // restriction 2 (forbidden functions)
            }
            if name == "concat" && args.len() > limits.max_concat_arity {
                ok = false; // restriction 4 (concat arity)
            }
        }
    });
    ok
}

/// Membership test of a query in a given fragment.
pub fn is_in_fragment(expr: &Expr, fragment: Fragment, limits: &ClassifierLimits) -> bool {
    match fragment {
        Fragment::PF => is_pf(expr),
        Fragment::PositiveCoreXPath => {
            is_core_locpath(expr, false, false) || is_core_bexpr(expr, false)
        }
        Fragment::CoreXPath => is_core_locpath(expr, true, false) || is_core_bexpr(expr, true),
        Fragment::PWF => is_pwf(expr, limits),
        Fragment::WF => is_wf(expr, true, true),
        Fragment::PXPath => is_pxpath(expr, limits),
        Fragment::XPath => true,
    }
}

/// Classifies a query with the default [`ClassifierLimits`].
pub fn classify(expr: &Expr) -> FragmentReport {
    classify_with_limits(expr, &ClassifierLimits::default())
}

/// Classifies a query: least containing fragment, its complexity, all
/// memberships and the extracted features.
pub fn classify_with_limits(expr: &Expr, limits: &ClassifierLimits) -> FragmentReport {
    let feats = features(expr);
    let memberships: Vec<Fragment> = Fragment::ALL
        .into_iter()
        .filter(|&fr| is_in_fragment(expr, fr, limits))
        .collect();
    let fragment = memberships[0];
    FragmentReport {
        fragment,
        complexity: fragment.complexity(),
        memberships,
        features: feats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;

    fn frag(s: &str) -> Fragment {
        classify(&parse_query(s).unwrap()).fragment
    }

    #[test]
    fn pf_queries() {
        assert_eq!(frag("/descendant::a/child::b"), Fragment::PF);
        assert_eq!(frag("child::a/parent::b | descendant::c"), Fragment::PF);
        assert_eq!(frag("/"), Fragment::PF);
        // The reachability queries of Theorem 4.3 are PF.
        assert_eq!(
            frag("/descendant::v1/child::c/descendant::e/parent::*/child::c"),
            Fragment::PF
        );
    }

    #[test]
    fn positive_core_queries() {
        assert_eq!(
            frag("/descendant::a/child::b[descendant::c]"),
            Fragment::PositiveCoreXPath
        );
        assert_eq!(
            frag("child::a[child::b and child::c or descendant::d]"),
            Fragment::PositiveCoreXPath
        );
    }

    #[test]
    fn core_xpath_queries() {
        // The paper's Section 2.2 example (contains negation).
        assert_eq!(
            frag("/descendant::a/child::b[descendant::c and not(following-sibling::d)]"),
            Fragment::CoreXPath
        );
        assert_eq!(frag("child::a[not(child::b)]"), Fragment::CoreXPath);
    }

    #[test]
    fn pwf_queries() {
        // Section 2.2's position/last example is pWF (no negation, single predicate).
        assert_eq!(frag("child::a[position() + 1 = last()]"), Fragment::PWF);
        assert_eq!(frag("child::a[position() = 3]"), Fragment::PWF);
        assert_eq!(
            frag("child::a[child::b and position() < last()]"),
            Fragment::PWF
        );
    }

    #[test]
    fn wf_queries() {
        // Negation plus arithmetic → WF but not Core XPath, not pWF.
        assert_eq!(frag("child::a[not(position() = last())]"), Fragment::WF);
        // Iterated predicates with arithmetic → WF (pWF forbids them).
        assert_eq!(frag("child::a[child::b][position() = 1]"), Fragment::WF);
    }

    #[test]
    fn pxpath_queries() {
        // Attribute axis and string functions are beyond WF but inside pXPath.
        assert_eq!(frag("//book[@year = 2003]/title"), Fragment::PXPath);
        assert_eq!(frag("child::a[contains('abc', 'b')]"), Fragment::PXPath);
        assert_eq!(frag("child::a[concat('x', 'y') = 'xy']"), Fragment::PXPath);
    }

    #[test]
    fn full_xpath_queries() {
        // count() is forbidden in pXPath (Definition 6.1(2)).
        assert_eq!(frag("child::a[count(child::b) = 2]"), Fragment::XPath);
        // Relational operator on a boolean operand (Definition 6.1(3)).
        assert_eq!(
            frag("child::a[(child::b and child::c) = true()]"),
            Fragment::XPath
        );
        // Negation over an attribute-axis query is not WF either.
        assert_eq!(frag("//a[not(@id)]"), Fragment::XPath);
        // sum() / string-length() are forbidden.
        assert_eq!(frag("child::a[sum(child::b) > 3]"), Fragment::XPath);
        assert_eq!(frag("child::a[string-length('x') = 1]"), Fragment::XPath);
    }

    #[test]
    fn deep_arithmetic_leaves_pwf() {
        // Nesting depth above the default limit of 3 pushes the query out of
        // pWF/pXPath (Definition 5.1(3) / 6.1(4)).
        let q = parse_query("child::a[position() + 1 + 1 + 1 + 1 + 1 = last()]").unwrap();
        let report = classify(&q);
        assert_eq!(report.fragment, Fragment::WF);
        let relaxed = classify_with_limits(
            &q,
            &ClassifierLimits {
                max_arith_depth: 10,
                max_concat_arity: 3,
            },
        );
        assert_eq!(relaxed.fragment, Fragment::PWF);
    }

    #[test]
    fn concat_arity_limit() {
        let q = parse_query("child::a[concat('a','b','c','d','e') = 'abcde']").unwrap();
        assert_eq!(classify(&q).fragment, Fragment::XPath);
    }

    #[test]
    fn memberships_follow_figure_1_inclusions() {
        // Every PF query is also a member of every larger fragment on its
        // chain (Figure 1 inclusions).
        let q = parse_query("/descendant::a/child::b").unwrap();
        let report = classify(&q);
        for fr in [
            Fragment::PF,
            Fragment::PositiveCoreXPath,
            Fragment::CoreXPath,
            Fragment::PWF,
            Fragment::WF,
            Fragment::PXPath,
            Fragment::XPath,
        ] {
            assert!(report.memberships.contains(&fr), "missing {fr}");
        }
        // A positive Core XPath query is in pWF (Remark 5.2) and pXPath.
        let q = parse_query("child::a[child::b]").unwrap();
        let ms = classify(&q).memberships;
        assert!(ms.contains(&Fragment::PWF));
        assert!(ms.contains(&Fragment::PXPath));
        assert!(ms.contains(&Fragment::CoreXPath));
        // A Core XPath query with negation is in WF and XPath but not pWF/pXPath.
        let q = parse_query("child::a[not(child::b)]").unwrap();
        let ms = classify(&q).memberships;
        assert!(ms.contains(&Fragment::WF));
        assert!(!ms.contains(&Fragment::PWF));
        assert!(!ms.contains(&Fragment::PXPath));
    }

    #[test]
    fn complexity_strings() {
        assert!(Fragment::PF.complexity().contains("NL"));
        assert!(Fragment::CoreXPath.complexity().contains("P-complete"));
        assert!(Fragment::PWF.complexity().contains("LOGCFL"));
        assert!(Fragment::PXPath.complexity().contains("LOGCFL"));
        assert!(Fragment::PositiveCoreXPath.is_parallelizable());
        assert!(!Fragment::CoreXPath.is_parallelizable());
        assert!(!Fragment::XPath.is_parallelizable());
    }

    #[test]
    fn features_extraction() {
        let q = parse_query(
            "/descendant::a/child::b[descendant::c and not(following-sibling::d)][position() = 1]",
        )
        .unwrap();
        let f = features(&q);
        assert_eq!(f.negation_count, 1);
        assert_eq!(f.max_predicate_sequence, 2);
        assert!(f.uses_position_or_last);
        assert!(f.uses_relational);
        assert!(!f.uses_arithmetic);
        assert!(!f.uses_attribute_axis);
        assert_eq!(f.step_count, 4); // a, b, c, d
        assert!(f.size > 0);
    }

    #[test]
    fn nested_negation_depth() {
        let q = parse_query("child::a[not(child::b[not(child::c)])]").unwrap();
        let f = features(&q);
        assert_eq!(f.negation_count, 2);
        assert_eq!(f.negation_depth, 2);
    }

    #[test]
    fn set_operators_classify_by_position_and_negation() {
        // Node-set-position intersect is monotone: the linear bitset pass
        // answers it, so it stays in the positive core fragment.
        assert_eq!(frag("//a intersect //b"), Fragment::PositiveCoreXPath);
        // `union` is a surface synonym for `|` and changes nothing.
        assert_eq!(frag("//a union //b"), Fragment::PF);
        // except carries an implicit complement: Core XPath at best, and it
        // never enters the positive fragments or pXPath.
        assert_eq!(frag("//a except //b"), Fragment::CoreXPath);
        let ms = classify(&parse_query("//a except //b").unwrap()).memberships;
        assert!(!ms.contains(&Fragment::PWF));
        assert!(!ms.contains(&Fragment::PXPath));
        // Condition-position set operators need a per-context-node join the
        // inverse-axis satisfaction pass cannot express: out of Core, into pWF.
        assert_eq!(frag("//a[child::b intersect child::c]"), Fragment::PWF);
        assert_eq!(frag("//a[child::b except child::c]"), Fragment::WF);
    }

    #[test]
    fn variables_and_node_comparisons_are_pxpath() {
        assert_eq!(frag("//row[@limit = $x]"), Fragment::PXPath);
        assert_eq!(frag("$v"), Fragment::PXPath);
        assert_eq!(frag("//a is /child::b"), Fragment::PXPath);
        assert_eq!(frag("//a << //b"), Fragment::PXPath);
        assert_eq!(frag("//a >> //b"), Fragment::PXPath);
        // Negation over a variable comparison leaves pXPath entirely.
        assert_eq!(frag("//a[not(@id = $x)]"), Fragment::XPath);
        let f = features(&parse_query("//a[@x = $p or @y = $q or @z = $p]").unwrap());
        assert_eq!(f.variables, vec!["p".to_string(), "q".to_string()]);
        assert!(!f.uses_set_operators);
        let f = features(&parse_query("//a except //b").unwrap());
        assert!(f.uses_set_operators);
        assert!(f.uses_except);
        let f = features(&parse_query("//a is //b").unwrap());
        assert!(f.uses_node_comparison);
    }

    #[test]
    fn bare_bexpr_classifies() {
        // Condition expressions (used by the reductions) classify too.
        assert_eq!(frag("child::a and child::b"), Fragment::PositiveCoreXPath);
        assert_eq!(frag("not(child::a)"), Fragment::CoreXPath);
        assert_eq!(frag("position() = last()"), Fragment::PWF);
        assert_eq!(frag("2 + 2"), Fragment::PWF);
    }
}
