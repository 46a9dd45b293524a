//! Lazy XML backend: tokenize up front, materialize on demand.
//!
//! [`LazyDocument`] scans the XML input **once**, with the same scanner as
//! `parse_xml` but a sink that builds no tree — no arena nodes, one string
//! per distinct tag name — and splits it into a *spine* (large
//! elements, kept verbatim in every materialization) and *extents* (small
//! subtrees, each carrying its byte range and the set of element tags it
//! contains).  The first query then materializes only the extents whose tag
//! sets intersect the tags the query can touch
//! ([`required_tags`]); a query for a rare tag on a large document parses a
//! fraction of it.
//!
//! ## Soundness
//!
//! A materialization wave keeps every spine byte and a chosen subset of
//! extents, so the result is a well-formed document in which
//!
//! * every element whose tag is *required* by the query is present with its
//!   **complete subtree** (an extent is a whole subtree; a required tag in
//!   a dropped extent would contradict the choice; required tags occurring
//!   on the spine force full materialization),
//! * all ancestors of every resident node are resident (spine bytes always
//!   are), and relative document order among resident nodes is preserved.
//!
//! [`required_tags`] is conservative: any construct whose result could
//! depend on *unnamed* nodes (a trailing `*`/`node()`/`text()` step, a
//! predicate on a wildcard step, a function outside the analyzed core)
//! returns `None` and the document is materialized in full.  `//x` style
//! queries — a predicate-free `descendant-or-self::node()` pass-through
//! step followed by named steps — stay analyzable.
//!
//! ## Caveats
//!
//! [`NodeId`](xpeval_dom::NodeId)s are **not stable across waves**: growing
//! the resident set re-parses into a fresh arena.  Callers that cache node
//! sets must key them by the returned [`Arc`] identity (the catalog bumps
//! its revision on every wave for exactly this reason).

use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::{Arc, Mutex};
use xpeval_dom::parse::{scan_xml, XmlSink};
use xpeval_dom::{parse_xml, Axis, NodeTest, PreparedDocument, XmlParseError};
use xpeval_obs::{Field, FieldValue, MetricSource};
use xpeval_syntax::{Expr, LocationPath};

/// Residency snapshot of a [`LazyDocument`], from
/// [`LazyDocument::residency_stats`]: how much of the document is
/// actually materialized, node- and extent-wise.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResidencyStats {
    /// Arena nodes of the currently resident wave (1 before any wave).
    pub resident_nodes: usize,
    /// Node count of the fully materialized document.
    pub total_nodes: usize,
    /// Extents chosen into the resident set so far.
    pub chosen_extents: usize,
    /// Extents the tokenizer produced.
    pub extent_count: usize,
}

impl MetricSource for ResidencyStats {
    fn source_name(&self) -> &'static str {
        "lazy_backend"
    }

    fn fields(&self) -> Vec<Field> {
        vec![
            Field::new(
                "nodes",
                FieldValue::Frac {
                    num: self.resident_nodes as u64,
                    den: self.total_nodes as u64,
                },
            ),
            Field::new(
                "extents",
                FieldValue::Frac {
                    num: self.chosen_extents as u64,
                    den: self.extent_count as u64,
                },
            ),
        ]
    }
}

impl std::fmt::Display for ResidencyStats {
    /// One-line summary shared with [`MetricSource::summary_line`]:
    /// `nodes 7/31, extents 1/4`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.summary_line())
    }
}

/// Subtrees up to this many bytes become extents by default; larger
/// elements join the spine.  Sized so that record-shaped leaves (an item,
/// a person, a log entry) are extents while containers stay spine.
pub const DEFAULT_EXTENT_THRESHOLD: usize = 1024;

/// One skippable subtree: its byte range in the input and where its
/// distinct element tags sit in `LazyDocument::extent_tags`.
#[derive(Debug)]
struct Extent {
    range: Range<usize>,
    tags: Range<usize>,
}

/// Document pieces in input order: spine bytes are always emitted, extents
/// only when chosen.
#[derive(Debug)]
enum Piece {
    Verbatim(Range<usize>),
    Extent(usize),
}

#[derive(Debug, Default)]
struct LazyState {
    /// Monotone per-extent choice flags.
    chosen: Vec<bool>,
    /// The prepared document for the current chosen set, if built.
    resident: Option<Arc<PreparedDocument>>,
}

/// An XML document tokenized into extents, materialized query by query.
///
/// ```
/// use xpeval_backends::LazyDocument;
/// use xpeval_syntax::parse_query;
///
/// let lazy = LazyDocument::with_threshold("<r><a>x</a><b>y</b></r>", 8).unwrap();
/// let expr = parse_query("//a").unwrap();
/// let doc = lazy.materialize_for(&expr).unwrap();
/// assert_eq!(doc.elements_named("a").len(), 1);
/// assert!(lazy.resident_nodes() < lazy.total_nodes());
/// ```
#[derive(Debug)]
pub struct LazyDocument {
    input: String,
    pieces: Vec<Piece>,
    extents: Vec<Extent>,
    /// The distinct element tags of every extent, back to back, as ids
    /// local to this document.
    extent_tags: Vec<u32>,
    /// The document's element tags and their local ids.
    tag_ids: HashMap<Box<str>, u32>,
    /// Per local tag id: whether an element with that tag is kept verbatim
    /// on the spine.  A query requiring one of these needs that element's
    /// full subtree, which the spine does not guarantee — so it forces full
    /// materialization.
    on_spine: Vec<bool>,
    /// Exact node count (root + elements + attributes + text runs) of the
    /// fully materialized document, from the structural scan.
    total_nodes: usize,
    /// When the whole document collapsed into a single extent, its index.
    /// That extent must stay chosen in every wave — a wave without the
    /// document element would not be well-formed.
    root_extent: Option<usize>,
    state: Mutex<LazyState>,
}

impl LazyDocument {
    /// Tokenizes `input` with the [default threshold]
    /// (DEFAULT_EXTENT_THRESHOLD).  O(bytes), builds no tree.
    pub fn new(input: impl Into<String>) -> Result<Self, XmlParseError> {
        Self::with_threshold(input, DEFAULT_EXTENT_THRESHOLD)
    }

    /// Tokenizes `input`, turning subtrees of at most `threshold` bytes
    /// into extents.
    pub fn with_threshold(
        input: impl Into<String>,
        threshold: usize,
    ) -> Result<Self, XmlParseError> {
        let input = input.into();
        let mut tok = Tokenizer {
            threshold,
            nodes: 1, // the conceptual root
            tag_ids: HashMap::new(),
            on_spine: Vec::new(),
            trail: Vec::new(),
            open: Vec::new(),
            candidates: Vec::new(),
            root_is_extent: false,
        };
        scan_xml(&input, &mut tok)?;

        // Tag sets only for the candidates that survived absorption.
        let mut last_seen = vec![usize::MAX; tok.on_spine.len()];
        let mut extent_tags = Vec::new();
        let extents: Vec<Extent> = (tok.candidates.into_iter().enumerate())
            .map(|(i, (range, trail))| {
                let from = extent_tags.len();
                for &t in &tok.trail[trail] {
                    if std::mem::replace(&mut last_seen[t as usize], i) != i {
                        extent_tags.push(t);
                    }
                }
                Extent {
                    range,
                    tags: from..extent_tags.len(),
                }
            })
            .collect();
        let root_extent = tok.root_is_extent.then_some(0);

        let mut pieces = Vec::with_capacity(extents.len() * 2 + 1);
        let mut cut = 0usize;
        for (i, e) in extents.iter().enumerate() {
            if e.range.start > cut {
                pieces.push(Piece::Verbatim(cut..e.range.start));
            }
            pieces.push(Piece::Extent(i));
            cut = e.range.end;
        }
        if cut < input.len() {
            pieces.push(Piece::Verbatim(cut..input.len()));
        }
        let mut chosen = vec![false; extents.len()];
        if let Some(i) = root_extent {
            chosen[i] = true;
        }
        let tag_ids = (tok.tag_ids.into_iter())
            .map(|(name, id)| (Box::from(name), id))
            .collect();
        Ok(LazyDocument {
            pieces,
            extents,
            extent_tags,
            tag_ids,
            on_spine: tok.on_spine,
            total_nodes: tok.nodes,
            root_extent,
            input,
            state: Mutex::new(LazyState {
                chosen,
                resident: None,
            }),
        })
    }

    /// Number of extents the tokenizer produced.
    pub fn extent_count(&self) -> usize {
        self.extents.len()
    }

    /// Snapshot of the laziness ratio — resident vs total nodes and chosen
    /// vs total extents — as an `xpeval_obs::MetricSource`, so a lazy
    /// backend reports its residency through the same telemetry protocol
    /// as the caches and the serving pool.
    pub fn residency_stats(&self) -> ResidencyStats {
        let chosen = {
            let state = self.state.lock().unwrap();
            state.chosen.iter().filter(|&&c| c).count()
        };
        ResidencyStats {
            resident_nodes: self.resident_nodes(),
            total_nodes: self.total_nodes,
            chosen_extents: chosen,
            extent_count: self.extents.len(),
        }
    }

    /// Exact node count of the *fully* materialized document — the
    /// denominator of the laziness ratio.
    pub fn total_nodes(&self) -> usize {
        self.total_nodes
    }

    /// Node count of the currently resident document (1 — just the
    /// conceptual root — before any materialization).
    pub fn resident_nodes(&self) -> usize {
        self.state
            .lock()
            .unwrap()
            .resident
            .as_ref()
            .map_or(1, |p| p.node_count())
    }

    /// The currently resident document, if any wave has run.
    pub fn resident(&self) -> Option<Arc<PreparedDocument>> {
        self.state.lock().unwrap().resident.clone()
    }

    /// Materializes (at least) every subtree `expr` can touch and returns
    /// the resident document.  The chosen extent set only grows; if this
    /// wave adds extents, the arena is rebuilt and **previously returned
    /// documents (and their node ids) do not describe the new one**.
    pub fn materialize_for(&self, expr: &Expr) -> Result<Arc<PreparedDocument>, XmlParseError> {
        let wanted = self.wanted_tags(expr);
        let mut state = self.state.lock().unwrap();
        let mut grew = false;
        match wanted {
            None => {
                for c in state.chosen.iter_mut() {
                    grew |= !*c;
                    *c = true;
                }
            }
            Some(wanted) => {
                for (i, e) in self.extents.iter().enumerate() {
                    let tags = &self.extent_tags[e.tags.clone()];
                    if !state.chosen[i] && tags.iter().any(|&t| wanted[t as usize]) {
                        state.chosen[i] = true;
                        grew = true;
                    }
                }
            }
        }
        if grew || state.resident.is_none() {
            state.resident = Some(Arc::new(self.build_wave(&state.chosen)?));
        }
        Ok(state.resident.clone().expect("wave was just built"))
    }

    /// Materializes every extent (the eager-equivalent document).
    pub fn materialize_all(&self) -> Result<Arc<PreparedDocument>, XmlParseError> {
        let mut state = self.state.lock().unwrap();
        let grew = state.chosen.iter().any(|&c| !c);
        for c in state.chosen.iter_mut() {
            *c = true;
        }
        if grew || state.resident.is_none() {
            state.resident = Some(Arc::new(self.build_wave(&state.chosen)?));
        }
        Ok(state.resident.clone().expect("wave was just built"))
    }

    /// Drops all materialized state: the next query starts from an empty
    /// chosen set.  This is the eviction hook — a demoted lazy document
    /// keeps only its input string and extent table.
    pub fn demote(&self) {
        let mut state = self.state.lock().unwrap();
        state.chosen.iter_mut().for_each(|c| *c = false);
        if let Some(i) = self.root_extent {
            state.chosen[i] = true;
        }
        state.resident = None;
    }

    /// Resets the chosen set to the spine-only minimum, builds that wave
    /// and installs it as resident.  The catalog's weighted eviction uses
    /// this to shed a document's materialized extents while keeping it
    /// answerable: the spine wave is a well-formed document (extents are
    /// whole subtrees) and the next query re-grows from it.
    pub fn demote_to_spine(&self) -> Result<Arc<PreparedDocument>, XmlParseError> {
        let mut state = self.state.lock().unwrap();
        state.chosen.iter_mut().for_each(|c| *c = false);
        if let Some(i) = self.root_extent {
            state.chosen[i] = true;
        }
        let doc = Arc::new(self.build_wave(&state.chosen)?);
        state.resident = Some(Arc::clone(&doc));
        Ok(doc)
    }

    /// Per local tag id, whether `expr` requires it; `None` when the
    /// analysis cannot bound the touched set (→ materialize everything).
    fn wanted_tags(&self, expr: &Expr) -> Option<Vec<bool>> {
        let mut wanted = vec![false; self.on_spine.len()];
        for tag in required_tags(expr)? {
            // A tag the document lacks selects no extent.
            let Some(&id) = self.tag_ids.get(tag.as_str()) else {
                continue;
            };
            // A required tag on the spine means some required element's
            // subtree is only partially covered by extents — give up on
            // partiality.
            if self.on_spine[id as usize] {
                return None;
            }
            wanted[id as usize] = true;
        }
        Some(wanted)
    }

    /// Concatenates spine bytes and chosen extents, parses and prepares.
    fn build_wave(&self, chosen: &[bool]) -> Result<PreparedDocument, XmlParseError> {
        let mut text = String::with_capacity(self.input.len());
        for piece in &self.pieces {
            match piece {
                Piece::Verbatim(r) => text.push_str(&self.input[r.clone()]),
                Piece::Extent(i) if chosen[*i] => {
                    text.push_str(&self.input[self.extents[*i].range.clone()])
                }
                Piece::Extent(_) => {}
            }
        }
        Ok(parse_xml(&text)?.prepare())
    }
}

/// The lazy backend's [`XmlSink`]: counts nodes and cuts extents, building
/// no tree.  Every element's tag goes on one flat trail in document order,
/// so the tags of a subtree are a range of the trail.  A subtree of at most
/// `threshold` bytes is an extent candidate and absorbs the candidates
/// recorded inside it.
struct Tokenizer<'a> {
    threshold: usize,
    nodes: usize,
    tag_ids: HashMap<&'a str, u32>,
    on_spine: Vec<bool>,
    /// The local tag id of every element, in document order.
    trail: Vec<u32>,
    /// Open elements: start byte, trail index, candidates recorded before.
    open: Vec<(usize, usize, usize)>,
    /// Extent candidates in document order: byte range and trail range.
    candidates: Vec<(Range<usize>, Range<usize>)>,
    root_is_extent: bool,
}

impl<'a> XmlSink<'a> for Tokenizer<'a> {
    fn open(&mut self, name: &'a str, start: usize) {
        self.nodes += 1;
        let next = self.tag_ids.len() as u32;
        let id = *self.tag_ids.entry(name).or_insert(next);
        if id == next {
            self.on_spine.push(false);
        }
        self.open
            .push((start, self.trail.len(), self.candidates.len()));
        self.trail.push(id);
    }

    fn attribute(&mut self, _name: &'a str, _raw_value: &'a str) {
        self.nodes += 1;
    }

    fn text(&mut self, _raw: &'a str) {
        self.nodes += 1;
    }

    fn close(&mut self, end: usize) {
        let (start, trail_at, before) = self.open.pop().expect("only open elements close");
        if end - start <= self.threshold {
            self.candidates.truncate(before);
            self.candidates
                .push((start..end, trail_at..self.trail.len()));
            // The document element is one final candidate like any other:
            // a tiny document collapses into a single extent.
            self.root_is_extent = self.open.is_empty();
        } else {
            self.on_spine[self.trail[trail_at] as usize] = true;
        }
    }
}

/// The element tags whose nodes (with complete subtrees) are sufficient to
/// answer `expr` exactly, or `None` when the query's result could depend on
/// nodes no name test pins down.
///
/// The analysis walks every location path, tracking whether the current
/// context is *pinned* — every node the next step can start from is
/// guaranteed resident with its complete subtree:
/// * `Name`/`Resolved` element steps contribute their tag and pin the
///   context (required tags are materialized whole).
/// * Attribute-axis steps never bail on their own: attributes ride with
///   their owner element, so **any** attribute test (`@id`, `@*`, even
///   with predicates) is exactly answerable when the owner context is
///   pinned.  An attribute step under an *unpinned* owner (`//@id`, whose
///   owners are arbitrary elements) bails — some owners may live in
///   dropped extents.
/// * Element wildcard steps (`*`, `node()`, `text()`) are allowed only as
///   predicate-free *pass-through* (non-final) steps — exactly the shape
///   `//` desugars to — and unpin the context.  A trailing wildcard, or a
///   predicate on one, bails.  The one exception is a final `self::node()`
///   step (`.`) under a pinned context, whose result is the context node.
/// * Functions outside the analyzed core bail; zero-argument string
///   functions bail unless the context node is pinned by a name test.
pub fn required_tags(expr: &Expr) -> Option<HashSet<String>> {
    let mut out = HashSet::new();
    if collect_expr(expr, false, &mut out) {
        Some(out)
    } else {
        None
    }
}

fn collect_expr(expr: &Expr, ctx_named: bool, out: &mut HashSet<String>) -> bool {
    match expr {
        Expr::Path(path) => collect_path(path, ctx_named, out),
        // Set operators need both operand node sets to compute exactly
        // (`except` discards right-side nodes but must *see* them), so both
        // sides contribute required tags like a union's do.
        Expr::Union(a, b)
        | Expr::Intersect(a, b)
        | Expr::Except(a, b)
        | Expr::Or(a, b)
        | Expr::And(a, b) => collect_expr(a, ctx_named, out) && collect_expr(b, ctx_named, out),
        Expr::Relational { left, right, .. }
        | Expr::Arithmetic { left, right, .. }
        | Expr::NodeCompare { left, right, .. } => {
            collect_expr(left, ctx_named, out) && collect_expr(right, ctx_named, out)
        }
        Expr::Not(e) | Expr::Neg(e) => collect_expr(e, ctx_named, out),
        // An external variable's value is supplied by the caller at
        // evaluation time; it reads no document nodes.
        Expr::Number(_) | Expr::Literal(_) | Expr::Variable(_) => true,
        Expr::FunctionCall { name, args } => {
            let known = matches!(
                name.as_str(),
                "position"
                    | "last"
                    | "true"
                    | "false"
                    | "count"
                    | "boolean"
                    | "number"
                    | "string"
                    | "sum"
                    | "string-length"
                    | "normalize-space"
                    | "floor"
                    | "ceiling"
                    | "round"
                    | "contains"
                    | "starts-with"
                    | "concat"
                    | "name"
            );
            if !known {
                return false;
            }
            // Zero-argument string forms read the *context node's* string
            // value, which is only complete when a name test pinned it.
            let context_string = args.is_empty()
                && matches!(
                    name.as_str(),
                    "string" | "string-length" | "normalize-space" | "name"
                );
            if context_string && !ctx_named {
                return false;
            }
            args.iter().all(|a| collect_expr(a, ctx_named, out))
        }
    }
}

fn collect_path(path: &LocationPath, ctx_named: bool, out: &mut HashSet<String>) -> bool {
    if path.steps.is_empty() {
        // Bare `/`: the root's string value spans the whole document.
        return false;
    }
    let last = path.steps.len() - 1;
    // Whether every node the next step starts from is resident with its
    // complete subtree.  Entering the path this is the caller's context
    // (the node a named step's predicate evaluates under).
    let mut pinned = ctx_named;
    for (i, step) in path.steps.iter().enumerate() {
        let is_final = i == last;
        if step.axis == Axis::Attribute {
            // Attributes ride with their owner element: when the owner
            // context is pinned, every candidate attribute is resident, so
            // any node test and any predicate over them is exact.  Unpinned
            // owners (`//@id`) may live in dropped extents — bail.
            if !pinned {
                return false;
            }
            for pred in &step.predicates {
                if !collect_expr(pred, true, out) {
                    return false;
                }
            }
            // Attribute nodes are leaves and fully resident.
            continue;
        }
        match &step.node_test {
            NodeTest::Name(name) | NodeTest::Resolved { name, .. } => {
                out.insert(name.clone());
                for pred in &step.predicates {
                    if !collect_expr(pred, true, out) {
                        return false;
                    }
                }
                pinned = true;
            }
            NodeTest::Star | NodeTest::AnyNode | NodeTest::Text => {
                // A wildcard along a *downward* axis under a pinned context
                // stays inside subtrees that are resident in full: every
                // candidate — and its own complete subtree, and all of its
                // axis siblings — is materialized, so the step is exact
                // even as a final step or with predicates, and its results
                // are themselves pinned.  (`//a/*`, `//a//node()[2]`.)
                // Upward and lateral axes can leave the resident subtree,
                // so they fall through to the conservative rules below.
                let downward = matches!(
                    step.axis,
                    Axis::SelfAxis | Axis::Child | Axis::Descendant | Axis::DescendantOrSelf
                );
                if pinned && downward {
                    for pred in &step.predicates {
                        if !collect_expr(pred, true, out) {
                            return false;
                        }
                    }
                    continue;
                }
                if !step.predicates.is_empty() {
                    // Positions / conditions over wildcard candidates can
                    // see nodes no tag pins down.
                    return false;
                }
                let self_dot = step.axis == Axis::SelfAxis && step.node_test == NodeTest::AnyNode;
                if is_final {
                    // A wildcard result set — unless it is `.` under a
                    // pinned context, whose result is the context node.
                    if !(self_dot && pinned) {
                        return false;
                    }
                }
                // Predicate-free pass-through (e.g. the
                // `descendant-or-self::node()` that `//` desugars to):
                // contributes nothing, forbids nothing — but its results
                // are arbitrary nodes, so the context is no longer pinned
                // (except `.`, which leaves it unchanged).
                if !self_dot {
                    pinned = false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpeval_syntax::parse_query;

    fn on_spine(lazy: &LazyDocument, tag: &str) -> bool {
        (lazy.tag_ids.get(tag)).is_some_and(|&id| lazy.on_spine[id as usize])
    }

    fn req(q: &str) -> Option<Vec<String>> {
        let expr = parse_query(q).unwrap();
        required_tags(&expr).map(|set| {
            let mut v: Vec<String> = set.into_iter().collect();
            v.sort();
            v
        })
    }

    #[test]
    fn named_paths_collect_their_tags() {
        assert_eq!(
            req("/a/b/c"),
            Some(vec!["a".into(), "b".into(), "c".into()])
        );
        assert_eq!(req("//item"), Some(vec!["item".into()]));
        assert_eq!(
            req("//item[bid > 3]/name"),
            Some(vec!["bid".into(), "item".into(), "name".into()])
        );
        assert_eq!(
            req("//a[not(b)] | //c"),
            Some(vec!["a".into(), "b".into(), "c".into()])
        );
        // Attribute name tests ride with their (named) owners.
        assert_eq!(req("//item/@id"), Some(vec!["item".into()]));
        assert_eq!(req("//item[@id = '7']"), Some(vec!["item".into()]));
    }

    #[test]
    fn attribute_tests_never_bail_under_a_pinned_owner() {
        // `@*` and predicates over attributes are exact once the owner is
        // named: all of an element's attributes ride with its subtree.
        assert_eq!(req("//item/@*"), Some(vec!["item".into()]));
        assert_eq!(req("//item[@*]"), Some(vec!["item".into()]));
        assert_eq!(req("//item/@*[position() = 1]"), Some(vec!["item".into()]));
        assert_eq!(
            req("//item[@* = 'x']/name"),
            Some(vec!["item".into(), "name".into()])
        );
        // An unpinned owner can live in a dropped extent: bail so the wave
        // materializes everything (soundness, not just precision).
        assert_eq!(req("//@id"), None);
        assert_eq!(req("//@*"), None);
        assert_eq!(req("//*/@id"), None);
    }

    #[test]
    fn unpinned_attribute_queries_stay_sound_on_lazy_waves() {
        // `//@k`'s owners include elements inside extents; the analysis
        // must refuse partiality or the wave would drop their attributes.
        let xml = "<r><grp><x k='1'>111111111111111111111111</x></grp><y k='2'>2</y></r>";
        let lazy = LazyDocument::with_threshold(xml, 40).unwrap();
        let expr = parse_query("//@k").unwrap();
        let doc = lazy.materialize_for(&expr).unwrap();
        let attrs = |d: &PreparedDocument| {
            d.all_nodes()
                .filter(|&n| matches!(d.kind(n), xpeval_dom::NodeKind::Attribute { .. }))
                .count()
        };
        let eager = parse_xml(xml).unwrap().prepare();
        assert_eq!(attrs(&doc), attrs(&eager));
        assert_eq!(lazy.resident_nodes(), lazy.total_nodes());
    }

    #[test]
    fn pinned_attribute_queries_materialize_a_strict_subset() {
        let xml = "<r><grp><x k='1'>111111111111111111111111</x></grp>\
                   <grp><x k='3'>333333333333333333333333</x></grp><y k='2'>2</y></r>";
        let lazy = LazyDocument::with_threshold(xml, 40).unwrap();
        let expr = parse_query("//y/@*").unwrap();
        let doc = lazy.materialize_for(&expr).unwrap();
        assert_eq!(doc.elements_named("y").len(), 1);
        assert!(lazy.resident_nodes() < lazy.total_nodes());
    }

    #[test]
    fn wildcards_pass_through_but_never_terminate() {
        // Unpinned wildcards pass through mid-path and bail as final steps.
        assert_eq!(req("/a/*/b"), Some(vec!["a".into(), "b".into()]));
        assert_eq!(req("//a"), Some(vec!["a".into()]));
        assert_eq!(req("//*"), None);
        assert_eq!(req("/"), None);
    }

    #[test]
    fn downward_wildcards_under_a_pinned_context_are_exact() {
        // A named step pins its results — their subtrees are resident in
        // full — so a downward wildcard cannot leave the wave: it is exact
        // even as a final step, with predicates, or as `text()`.
        assert_eq!(req("/a/b/*"), Some(vec!["a".into(), "b".into()]));
        assert_eq!(req("//a/*"), Some(vec!["a".into()]));
        assert_eq!(req("//item/*[2]"), Some(vec!["item".into()]));
        assert_eq!(req("/a/*[2]/b"), Some(vec!["a".into(), "b".into()]));
        assert_eq!(req("//a/text()"), Some(vec!["a".into()]));
        assert_eq!(req("//a//node()"), Some(vec!["a".into()]));
        // Upward and lateral axes can escape the resident subtree, so a
        // wildcard along them still bails even when the context is pinned.
        assert_eq!(req("//a/*/parent::*"), None);
        assert_eq!(req("//a/following-sibling::*"), None);
        assert_eq!(req("//a/b/.."), None);
    }

    #[test]
    fn wildcard_under_named_ancestor_materializes_a_strict_subset() {
        let xml = "<r><g1><a>111111111111111111111111111111</a></g1>\
                   <g2><b>222222222222222222222222222222</b></g2>\
                   <g3><c>333333333333333333333333333333</c></g3></r>";
        let lazy = LazyDocument::with_threshold(xml, 60).unwrap();
        let expr = parse_query("//g2/*").unwrap();
        let doc = lazy.materialize_for(&expr).unwrap();
        assert_eq!(doc.elements_named("b").len(), 1);
        assert!(lazy.resident_nodes() < lazy.total_nodes());
    }

    #[test]
    fn functions_gate_the_analysis() {
        assert_eq!(req("count(//item)"), Some(vec!["item".into()]));
        assert_eq!(req("//a[position() = 2]"), Some(vec!["a".into()]));
        assert_eq!(req("//a[contains(., 'x')]"), Some(vec!["a".into()]));
        assert_eq!(req("//a[string-length() > 2]"), Some(vec!["a".into()]));
        // Context string value with no pinning name test.
        assert_eq!(req("string-length()"), None);
    }

    #[test]
    fn tokenizer_splits_spine_and_extents() {
        let xml = "<root><big><leaf>aaaaaaaaaaaaaaaaaaaaaaaaaaaaaa</leaf>\
                   <leaf>bbbbbbbbbbbbbbbbbbbbbbbbbbbbbb</leaf></big><tiny>c</tiny></root>";
        let lazy = LazyDocument::with_threshold(xml, 48).unwrap();
        // Each <leaf> and <tiny> is an extent; <big> and <root> are spine.
        assert_eq!(lazy.extent_count(), 3);
        assert!(on_spine(&lazy, "root"));
        assert!(on_spine(&lazy, "big"));
        assert!(!on_spine(&lazy, "leaf"));
        // root + 4 elements... root elem, big, 2 leaves, tiny = 5 elements,
        // 3 text nodes, conceptual root.
        assert_eq!(lazy.total_nodes(), 9);
        assert_eq!(lazy.resident_nodes(), 1);
    }

    #[test]
    fn targeted_query_materializes_a_strict_subset() {
        let xml = "<root><big><leaf>aaaaaaaaaaaaaaaaaaaaaaaaaaaaaa</leaf>\
                   <leaf>bbbbbbbbbbbbbbbbbbbbbbbbbbbbbb</leaf></big><tiny>c</tiny></root>";
        let lazy = LazyDocument::with_threshold(xml, 48).unwrap();
        let expr = parse_query("//tiny").unwrap();
        let doc = lazy.materialize_for(&expr).unwrap();
        assert_eq!(doc.elements_named("tiny").len(), 1);
        assert_eq!(doc.elements_named("leaf").len(), 0);
        assert!(lazy.resident_nodes() < lazy.total_nodes());
        // Growing the set rebuilds; the previous Arc still describes the
        // old wave.
        let expr2 = parse_query("//leaf").unwrap();
        let doc2 = lazy.materialize_for(&expr2).unwrap();
        assert_eq!(doc2.elements_named("leaf").len(), 2);
        assert_eq!(doc2.elements_named("tiny").len(), 1);
        assert_eq!(doc.elements_named("leaf").len(), 0);
    }

    #[test]
    fn unanalyzable_queries_materialize_everything() {
        let xml = "<root><a>xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx</a><b>y</b></root>";
        let lazy = LazyDocument::with_threshold(xml, 44).unwrap();
        let expr = parse_query("//*").unwrap();
        let doc = lazy.materialize_for(&expr).unwrap();
        assert_eq!(lazy.resident_nodes(), lazy.total_nodes());
        assert_eq!(doc.node_count(), lazy.total_nodes());
    }

    #[test]
    fn spine_tag_queries_materialize_everything() {
        let xml = "<root><big><leaf>aaaaaaaaaaaaaaaaaaaaaaaaaaaaaa</leaf></big><t>c</t></root>";
        let lazy = LazyDocument::with_threshold(xml, 40).unwrap();
        assert!(on_spine(&lazy, "big"));
        let expr = parse_query("//big").unwrap();
        lazy.materialize_for(&expr).unwrap();
        assert_eq!(lazy.resident_nodes(), lazy.total_nodes());
    }

    #[test]
    fn demote_resets_to_cold() {
        let xml = "<root><a>xxxxxxxxxxxxxxxxxxxx</a><b>y</b></root>";
        let lazy = LazyDocument::with_threshold(xml, 30).unwrap();
        lazy.materialize_all().unwrap();
        assert_eq!(lazy.resident_nodes(), lazy.total_nodes());
        lazy.demote();
        assert_eq!(lazy.resident_nodes(), 1);
        assert!(lazy.resident().is_none());
        // Re-materialization works after demotion.
        let expr = parse_query("//b").unwrap();
        let doc = lazy.materialize_for(&expr).unwrap();
        assert_eq!(doc.elements_named("b").len(), 1);
    }

    #[test]
    fn demote_to_spine_sheds_extents_but_stays_answerable() {
        let xml = "<root><big><leaf>aaaaaaaaaaaaaaaaaaaaaaaaaaaaaa</leaf>\
                   <leaf>bbbbbbbbbbbbbbbbbbbbbbbbbbbbbb</leaf></big><tiny>c</tiny></root>";
        let lazy = LazyDocument::with_threshold(xml, 48).unwrap();
        lazy.materialize_all().unwrap();
        assert_eq!(lazy.resident_nodes(), lazy.total_nodes());
        let spine = lazy.demote_to_spine().unwrap();
        assert!(spine.node_count() < lazy.total_nodes());
        assert_eq!(lazy.resident_nodes(), spine.node_count());
        // Spine keeps the containers, sheds the leaf subtrees.
        assert_eq!(spine.elements_named("big").len(), 1);
        assert_eq!(spine.elements_named("leaf").len(), 0);
        // The next targeted wave re-grows from the spine.
        let expr = parse_query("//tiny").unwrap();
        let doc = lazy.materialize_for(&expr).unwrap();
        assert_eq!(doc.elements_named("tiny").len(), 1);
    }

    #[test]
    fn single_extent_documents_keep_their_root_in_every_wave() {
        // The whole document fits one extent; a wave must still contain the
        // document element, including after demotion and for queries that
        // match no extent tag.
        let lazy = LazyDocument::with_threshold("<r><a>x</a></r>", 1024).unwrap();
        assert_eq!(lazy.extent_count(), 1);
        let expr = parse_query("//zzz").unwrap();
        let doc = lazy.materialize_for(&expr).unwrap();
        assert_eq!(doc.elements_named("zzz").len(), 0);
        assert_eq!(doc.elements_named("a").len(), 1);
        lazy.demote();
        let spine = lazy.demote_to_spine().unwrap();
        assert_eq!(spine.elements_named("r").len(), 1);
    }

    #[test]
    fn lazy_agrees_with_eager_on_targeted_tags() {
        let xml = "<r><grp><x>111111111111111111111111</x><y>2</y></grp>\
                   <grp><x>333333333333333333333333</x></grp></r>";
        let eager = parse_xml(xml).unwrap().prepare();
        let lazy = LazyDocument::with_threshold(xml, 40).unwrap();
        let expr = parse_query("//y").unwrap();
        let doc = lazy.materialize_for(&expr).unwrap();
        // Same y nodes, by name and string value.
        let eager_y: Vec<String> = eager
            .elements_named("y")
            .iter()
            .map(|&n| eager.string_value(n))
            .collect();
        let lazy_y: Vec<String> = doc
            .elements_named("y")
            .iter()
            .map(|&n| doc.string_value(n))
            .collect();
        assert_eq!(eager_y, lazy_y);
    }

    #[test]
    fn tokenizer_rejects_malformed_input() {
        assert!(LazyDocument::new("<a><b></a></b>").is_err());
        assert!(LazyDocument::new("<a/><b/>").is_err());
        assert!(LazyDocument::new("<a k=v/>").is_err());
        assert!(LazyDocument::new("").is_err());
    }
}
