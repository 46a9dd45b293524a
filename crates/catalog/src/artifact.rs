//! Document-specialized plan artifacts: the (query × document) half of the
//! catalog.
//!
//! A [`CompiledQuery`] is document-independent by design; every prepared
//! evaluation therefore re-derives the document-*dependent* parts of the
//! plan on each call — resolve the final step's name tests against the tag
//! index (string hashes) and read off the candidate bound.  For a catalog
//! serving the same (query, document) pairs over and over, that work is
//! pure amortizable overhead.
//!
//! [`PlanArtifact`] materializes it once per (query, document, generation):
//!
//! * the **pinned strategy** — the plan's strategy choice is baked into a
//!   specialized copy of the plan
//!   ([`CompiledQuery::specialize_for_source`]);
//! * the **resolved tag ids** — the query's final-step name tests mapped to
//!   the document's interned [`TagId`]s
//!   ([`xpeval_dom::PreparedDocument::tag_id`]), paying those string hashes
//!   once per generation (they feed the candidate bound below and are
//!   exposed for observability; the evaluators' own per-step name tests
//!   still go through the tag index's hash lookups — threading `TagId`s
//!   through `AxisSource` is future work);
//! * the **candidate bound** — the size of the name-bounded result
//!   universe; a bound of zero short-circuits evaluation to the empty node
//!   set without dispatching an evaluator at all.
//!
//! Artifacts are only valid for the exact document snapshot they were
//! built against (tag ids and counts are per-snapshot); the catalog's
//! internal artifact cache keys them by (query, [`ArtifactScope`],
//! backend kind).  The scope is the novelty: an unmutated eager entry is
//! keyed by its **document content hash**
//! ([`xpeval_dom::PreparedDocument::content_hash`]) rather than its
//! `(DocId, generation)` coordinates, so equal-shaped documents — two
//! names inserted from the same bytes, a replacement that re-installs
//! identical content — resolve to **one shared artifact**, result cache
//! included.  Equal content hashes imply identical node numbering, so
//! even node-set results transfer across holder documents verbatim.
//! Lazy entries and post-mutation revisions fall back to a private
//! `(DocId, generation, revision)` scope; their snapshots are not
//! content-comparable across documents.
//!
//! Shared groups are reference-held: the cache tracks which documents
//! hold each `(content, kind)` scope and drops the group only when the
//! last holder is replaced, removed or evicted.  In-place mutations
//! ([`crate::Catalog::mutate_named`]) diverge the mutated document from
//! the shared content: while other holders remain, the mutating document
//! simply releases its hold (the others keep every artifact); the sole
//! holder instead re-targets the group into its post-edit private scope —
//! `ArtifactCache::retarget` **kills** only the artifacts whose
//! name-bounded candidates intersect the edit's dirty preorder interval
//! (in either snapshot) and **rebases** every other artifact onto the new
//! snapshot — the specialized plan, pinned strategy and verified-empty
//! shortcut all survive the edit.

use crate::stats::CatalogStats;
use crate::DocId;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use xpeval_backends::BackendKind;
use xpeval_core::steps::final_step_tag_names;
use xpeval_core::{
    Bindings, CompiledQuery, EvalError, EvalStats, EvalStrategy, QueryOutput, Value,
};
use xpeval_dom::{PreparedDocument, TagId};

/// The cache-key namespace a [`PlanArtifact`] lives in (see the
/// [module docs](self)).
///
/// * [`ArtifactScope::Shared`] — the document is an unmutated, fully
///   materialized snapshot, keyed by its content hash: every document
///   holding equal content answers from (and contributes to) the same
///   artifact group.
/// * [`ArtifactScope::Private`] — lazy waves and post-mutation revisions,
///   keyed by exact `(DocId, generation, revision)` coordinates as
///   before: their node numbering is not comparable across documents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArtifactScope {
    /// Keyed by [`xpeval_dom::PreparedDocument::content_hash`]; shared by
    /// every unmutated document with equal content.
    Shared {
        /// The structural fingerprint of the snapshot.
        content: u64,
    },
    /// Keyed by exact document coordinates; never shared.
    Private {
        /// The owning document.
        doc: DocId,
        /// Its replacement generation.
        generation: u64,
        /// Its in-place edit (or lazy wave) revision within the
        /// generation.
        revision: u64,
    },
}

impl ArtifactScope {
    /// The scope rule, written once: an entry shares iff it is not
    /// lazy-backed (wave node ids are never content-comparable) and has
    /// not been edited in place (revision 0).  The content hash is
    /// memoized on the prepared document, so repeated calls are O(1).
    pub(crate) fn of(
        doc: DocId,
        generation: u64,
        revision: u64,
        kind: BackendKind,
        prepared: &PreparedDocument,
    ) -> ArtifactScope {
        if kind != BackendKind::Lazy && revision == 0 {
            ArtifactScope::Shared {
                content: prepared.content_hash(),
            }
        } else {
            ArtifactScope::Private {
                doc,
                generation,
                revision,
            }
        }
    }
}

/// A query plan specialized for one document generation: pinned strategy,
/// pre-resolved tag ids, pre-computed candidate bound.  See the
/// [module docs](self).
#[derive(Debug)]
pub struct PlanArtifact {
    /// The specialized plan: a copy of the compiled query with the
    /// source-aware strategy choice pinned as its fixed strategy.
    plan: Arc<CompiledQuery>,
    /// The exact document snapshot every field below is specialized for.
    /// Owned by the artifact so [`PlanArtifact::run`] *cannot* be aimed
    /// at a different document — the pinned strategy, resolved tag ids
    /// and candidate bound would all be silently wrong for one.
    prepared: Arc<PreparedDocument>,
    doc: DocId,
    generation: u64,
    revision: u64,
    /// The storage backend the snapshot came from.  Part of the cache key:
    /// a lazy entry's waves and an eager replacement of the same id must
    /// never answer each other's lookups, even if their version
    /// coordinates collide.
    kind: BackendKind,
    /// The cache-key namespace this artifact lives in, derived once at
    /// build time ([`ArtifactScope::of`]).
    scope: ArtifactScope,
    strategy: EvalStrategy,
    /// The final-step name tests resolved against the document's tag
    /// index: `None` for the id when the tag does not occur in this
    /// generation (contributing zero candidates).  `None` overall when the
    /// query's result is not name-bounded.
    resolved_tags: Option<Vec<(String, Option<TagId>)>>,
    /// Size of the name-bounded candidate universe; `Some(0)` proves the
    /// *value* empty — but not that the configured strategy would accept
    /// the query at all, hence `verified` below.
    candidate_bound: Option<usize>,
    /// Set once a full run of the plan succeeded.  Only then may a zero
    /// candidate bound short-circuit later runs: evaluation is
    /// deterministic per (query, document generation, strategy), so one
    /// successful run proves every repeat returns the same `Ok` — whereas
    /// skipping the *first* run could mask an error the plan would raise
    /// (an unsupported-fragment strategy override, an unknown function in
    /// a predicate) behind a semantically-plausible empty result.
    verified: std::sync::atomic::AtomicBool,
    /// The root-context result, cached after the first successful run.
    /// Sound because the artifact owns an immutable snapshot and a pinned
    /// strategy, so every run is deterministic; errors are never cached
    /// (they must re-surface on every run).  Shared-scope artifacts hand
    /// this result to every holder document — equal content hashes imply
    /// identical node numbering, so node-set values transfer verbatim.
    /// Rebasing onto a post-edit snapshot resets the cache.
    root_result: OnceLock<QueryOutput>,
}

impl PlanArtifact {
    /// Specializes `plan` for one document generation: computes the
    /// strategy choice, resolves the final-step tags, reads off the
    /// candidate bound.  This is the artifact-cache *miss* path; the work
    /// here is exactly what every subsequent hit skips.
    pub fn build(
        plan: &Arc<CompiledQuery>,
        doc: DocId,
        generation: u64,
        revision: u64,
        kind: BackendKind,
        prepared: &Arc<PreparedDocument>,
    ) -> Self {
        let specialized = plan.specialize_for_source(prepared.as_ref());
        let strategy = specialized.strategy();
        let resolved_tags: Option<Vec<(String, Option<TagId>)>> = final_step_tag_names(plan.expr())
            .map(|names| {
                names
                    .into_iter()
                    .map(|name| (name.to_string(), prepared.tag_id(name)))
                    .collect()
            });
        let candidate_bound = Self::bound_of(resolved_tags.as_deref(), prepared);
        PlanArtifact {
            plan: Arc::new(specialized),
            prepared: Arc::clone(prepared),
            doc,
            generation,
            revision,
            kind,
            scope: ArtifactScope::of(doc, generation, revision, kind, prepared),
            strategy,
            resolved_tags,
            candidate_bound,
            verified: std::sync::atomic::AtomicBool::new(false),
            root_result: OnceLock::new(),
        }
    }

    fn bound_of(
        tags: Option<&[(String, Option<TagId>)]>,
        prepared: &PreparedDocument,
    ) -> Option<usize> {
        tags.map(|tags| {
            tags.iter()
                .map(|(_, id)| id.map_or(0, |id| prepared.tag_count_by_id(id)))
                .sum()
        })
    }

    /// Re-targets this artifact at the post-edit snapshot of the *same*
    /// document lineage, preserving everything an in-place edit outside
    /// the candidate set cannot change: the specialized plan `Arc` (tag
    /// ids are interned append-only, so baked-in ids stay valid across
    /// edits), the pinned strategy, and the verified flag (one successful
    /// run proved the plan *accepts* the query — a property of the plan,
    /// not the snapshot).  Tag ids and the candidate bound are re-derived
    /// against the new snapshot; the caller ([`ArtifactCache::retarget`])
    /// only rebases artifacts whose candidates are disjoint from the
    /// edit's dirty interval, so the re-derived bound always matches the
    /// old one.
    ///
    /// `doc`/`generation` are the *mutating* document's coordinates: a
    /// shared-scope artifact may have been built by a different (since
    /// departed) holder of the same content, and the rebased artifact
    /// belongs to the sole holder that edited.  The cached root result
    /// does **not** carry over — the document changed.
    fn rebase(
        &self,
        doc: DocId,
        generation: u64,
        revision: u64,
        prepared: &Arc<PreparedDocument>,
    ) -> PlanArtifact {
        use std::sync::atomic::Ordering;
        let resolved_tags: Option<Vec<(String, Option<TagId>)>> =
            self.resolved_tags.as_ref().map(|tags| {
                tags.iter()
                    .map(|(name, _)| (name.clone(), prepared.tag_id(name)))
                    .collect()
            });
        let candidate_bound = Self::bound_of(resolved_tags.as_deref(), prepared);
        PlanArtifact {
            plan: Arc::clone(&self.plan),
            prepared: Arc::clone(prepared),
            doc,
            generation,
            revision,
            kind: self.kind,
            scope: ArtifactScope::Private {
                doc,
                generation,
                revision,
            },
            strategy: self.strategy,
            resolved_tags,
            candidate_bound,
            verified: std::sync::atomic::AtomicBool::new(self.verified.load(Ordering::Relaxed)),
            root_result: OnceLock::new(),
        }
    }

    /// Does any of this artifact's name-bounded candidates live inside the
    /// half-open dirty preorder-key interval, in the given snapshot?  Tag
    /// element lists are sorted by document order, so each tag costs one
    /// binary search.
    fn candidates_intersect(&self, prepared: &PreparedDocument, dirty: (u32, u32)) -> bool {
        let Some(tags) = self.resolved_tags.as_deref() else {
            // Not name-bounded: no candidate set to scope by.
            return true;
        };
        let doc = prepared.document();
        tags.iter().any(|(name, _)| {
            let elements = prepared.elements_named(name);
            let lo = elements.partition_point(|&el| doc.pre(el) < dirty.0);
            elements.get(lo).is_some_and(|&el| doc.pre(el) < dirty.1)
        })
    }

    /// The document snapshot this artifact is specialized for (and runs
    /// against).
    pub fn prepared(&self) -> &Arc<PreparedDocument> {
        &self.prepared
    }

    /// The document this artifact is specialized for.
    pub fn doc(&self) -> DocId {
        self.doc
    }

    /// The document generation this artifact is valid for.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The in-place edit revision (within the generation) this artifact is
    /// valid for: 0 for a freshly installed document, bumped by every
    /// [`crate::Catalog::mutate_named`] edit.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The storage backend kind of the entry this artifact was built for
    /// (part of the cache key).
    pub fn backend(&self) -> BackendKind {
        self.kind
    }

    /// The cache-key namespace this artifact lives in: content-hash
    /// shared, or document-private.
    pub fn scope(&self) -> ArtifactScope {
        self.scope
    }

    /// Whether a root-context result is cached (observability for tests
    /// and stats; repeats of a cached artifact run no evaluator at all).
    pub fn has_cached_result(&self) -> bool {
        self.root_result.get().is_some()
    }

    /// The pinned strategy choice (what `strategy_for_source` returned at
    /// build time).
    pub fn strategy(&self) -> EvalStrategy {
        self.strategy
    }

    /// The specialized plan itself.
    pub fn plan(&self) -> &Arc<CompiledQuery> {
        &self.plan
    }

    /// The final-step name tests resolved to this document's tag ids
    /// (`None` for tags absent from this generation), or `None` when the
    /// query is not name-bounded.
    pub fn resolved_tags(&self) -> Option<&[(String, Option<TagId>)]> {
        self.resolved_tags.as_deref()
    }

    /// Size of the name-bounded candidate universe for this generation,
    /// when the query has one.
    pub fn candidate_bound(&self) -> Option<usize> {
        self.candidate_bound
    }

    /// Runs the specialized plan against the document snapshot it was
    /// built for (owned by the artifact, so it cannot be aimed at any
    /// other document).
    ///
    /// Once one full run has succeeded, a candidate bound of zero answers
    /// every later run without dispatching an evaluator: the final step
    /// names a tag this generation does not contain, so the result is the
    /// empty node set (the bound conditions guarantee the query is
    /// node-set-typed), and the verified first run proves the plan
    /// *accepts* the query — an unverified shortcut could mask an
    /// unsupported-fragment or unknown-function error behind a plausible
    /// empty result.
    ///
    /// Beyond the shortcut, the first successful run's output is cached
    /// (`root_result`): every later run clones it without
    /// dispatching an evaluator.  Errors are never cached — a failing
    /// plan keeps failing observably on every run.
    pub fn run(&self) -> Result<QueryOutput, EvalError> {
        use std::sync::atomic::Ordering;
        if self.candidate_bound == Some(0) && self.verified.load(Ordering::Relaxed) {
            return Ok(QueryOutput {
                value: Value::NodeSet(Vec::new()),
                stats: EvalStats::default(),
                fragment: self.plan.fragment(),
            });
        }
        if let Some(cached) = self.root_result.get() {
            return Ok(cached.clone());
        }
        let out = self.plan.run_prepared(&self.prepared)?;
        self.verified.store(true, Ordering::Relaxed);
        let _ = self.root_result.set(out.clone());
        Ok(out)
    }

    /// [`PlanArtifact::run`] with external variable bindings for the
    /// query's `$name` references.
    ///
    /// A variable-free plan ignores the bindings and keeps every `run`
    /// shortcut (cached result, verified empty answer).  A plan with
    /// variables always dispatches: its result is parameterized by the
    /// binding values, and the artifact's cached result — like its cache
    /// key — is deliberately binding-independent.
    pub fn run_bound(&self, bindings: &Bindings) -> Result<QueryOutput, EvalError> {
        if self.plan.variables().is_empty() {
            return self.run();
        }
        self.plan.run_prepared_bound(&self.prepared, bindings)
    }
}

#[derive(Debug)]
struct ArtifactEntry {
    artifact: Arc<PlanArtifact>,
    last_used: u64,
}

/// The bounded LRU cache of [`PlanArtifact`]s, keyed by
/// (query, [`ArtifactScope`], backend kind) — the catalog's third cache,
/// next to the engine's plan cache (per query) and document cache (per
/// document).
///
/// The key is split in two levels — an outer `(scope, kind)` map over
/// inner per-query maps — so the hot-path lookup borrows the query
/// `&str` (no allocation; `HashMap<String, _>` answers `&str` probes via
/// `Borrow`), document-level invalidation is an outer-key sweep, and a
/// mutation's revision bump re-targets one whole group at once
/// ([`ArtifactCache::retarget`]).  Shared scopes are reference-held: the
/// `holders` table mirrors which documents currently carry each
/// `(content, kind)` scope (it tracks the doc store, not cache contents,
/// and so survives [`ArtifactCache::clear`]); a shared group is dropped
/// only when its last holder departs ([`ArtifactCache::release_doc`]).
///
/// Same discipline as the other two caches: `get` under the lock, build
/// outside it, `insert` racing benignly (last writer wins; both artifacts
/// are valid).  Invalidation is by document:
/// [`ArtifactCache::release_doc`] drops every private group of a
/// document and releases its shared hold when the catalog replaces,
/// removes or evicts it.
#[derive(Debug)]
pub(crate) struct ArtifactCache {
    capacity: usize,
    inner: Mutex<ArtifactInner>,
}

/// One in-place edit as [`ArtifactCache::retarget`] sees it: which
/// pre-edit scope's group moves into the post-edit private revision, and
/// the dirty preorder interval the kill-or-rebase rule tests against.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Retarget {
    pub(crate) doc: DocId,
    pub(crate) generation: u64,
    /// The mutating entry's pre-edit scope — shared (content hash) for an
    /// unmutated eager entry, private for a re-edit.
    pub(crate) old_scope: ArtifactScope,
    pub(crate) new_revision: u64,
    /// The entry's backend kind (unchanged by an in-place edit; mutations
    /// that *promote* a backing purge instead of re-targeting).
    pub(crate) kind: BackendKind,
    pub(crate) dirty: (u32, u32),
    pub(crate) renumbered: bool,
}

#[derive(Debug, Default)]
struct ArtifactInner {
    /// (scope, backend kind) → query source → artifact.
    groups: HashMap<(ArtifactScope, BackendKind), HashMap<String, ArtifactEntry>>,
    /// Which documents currently hold each shared `(content, kind)`
    /// scope, with hold counts (a replacement registers the incoming
    /// generation *before* releasing the outgoing one, so identical
    /// content replacing itself keeps the group alive throughout).
    /// Mirrors the doc store, not cache contents: survives `clear`.
    holders: HashMap<(u64, BackendKind), HashMap<DocId, u32>>,
    /// Total entries across all groups (the capacity the bound applies
    /// to).
    len: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
    scope_killed: u64,
    scope_preserved: u64,
}

impl ArtifactInner {
    /// Removes the least-recently-used entry across all groups.
    fn evict_lru(&mut self) {
        // Scan by reference; only the winning key is cloned (the borrow
        // must end before the removal below).
        let victim = self
            .groups
            .iter()
            .flat_map(|(&group, queries)| {
                queries
                    .iter()
                    .map(move |(query, entry)| (entry.last_used, group, query))
            })
            .min_by_key(|(last_used, ..)| *last_used)
            .map(|(_, group, query)| (group, query.clone()));
        if let Some((group, query)) = victim {
            if let Some(queries) = self.groups.get_mut(&group) {
                queries.remove(&query);
                if queries.is_empty() {
                    self.groups.remove(&group);
                }
            }
            self.len -= 1;
            self.evictions += 1;
        }
    }

    /// Drops `doc`'s hold on a shared `(content, kind)` scope, returning
    /// whether the scope lost its **last** holder (the caller then drops
    /// the group).  A scope with no holder record at all reads as
    /// released — conservative-drop is always safe (artifacts are
    /// rebuildable derived state).
    fn release_hold(&mut self, content: u64, kind: BackendKind, doc: DocId) -> bool {
        let Some(holders) = self.holders.get_mut(&(content, kind)) else {
            return true;
        };
        if let Some(count) = holders.get_mut(&doc) {
            *count -= 1;
            if *count == 0 {
                holders.remove(&doc);
            }
        }
        if holders.is_empty() {
            self.holders.remove(&(content, kind));
            true
        } else {
            false
        }
    }
}

impl ArtifactCache {
    /// Creates a cache holding at most `capacity` artifacts; 0 disables
    /// caching (every evaluation re-specializes).
    pub(crate) fn new(capacity: usize) -> Self {
        ArtifactCache {
            capacity,
            inner: Mutex::new(ArtifactInner::default()),
        }
    }

    /// Looks up the artifact for (query, scope, kind), refreshing its
    /// recency on a hit.  Allocation-free.
    pub(crate) fn get(
        &self,
        scope: ArtifactScope,
        kind: BackendKind,
        query: &str,
    ) -> Option<Arc<PlanArtifact>> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        match inner
            .groups
            .get_mut(&(scope, kind))
            .and_then(|queries| queries.get_mut(query))
        {
            Some(entry) => {
                entry.last_used = tick;
                let artifact = Arc::clone(&entry.artifact);
                inner.hits += 1;
                Some(artifact)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Stores an artifact under its own (query, scope, kind) key,
    /// evicting the least-recently-used entry when full.
    pub(crate) fn insert(&self, query: &str, artifact: &Arc<PlanArtifact>) {
        if self.capacity == 0 {
            return;
        }
        let group = (artifact.scope(), artifact.backend());
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        let replaces_existing = inner
            .groups
            .get(&group)
            .is_some_and(|queries| queries.contains_key(query));
        if inner.len >= self.capacity && !replaces_existing {
            inner.evict_lru();
        }
        let entry = ArtifactEntry {
            artifact: Arc::clone(artifact),
            last_used: tick,
        };
        if inner
            .groups
            .entry(group)
            .or_default()
            .insert(query.to_string(), entry)
            .is_none()
        {
            inner.len += 1;
        }
    }

    /// Records that `doc` now holds the given scope (no-op for private
    /// scopes).  Called on install; a replacement registers the new
    /// generation's scope *before* releasing the old one, so identical
    /// content replacing itself keeps its shared artifacts alive.
    pub(crate) fn register(&self, scope: ArtifactScope, kind: BackendKind, doc: DocId) {
        if let ArtifactScope::Shared { content } = scope {
            let mut inner = self.inner.lock().unwrap();
            *inner
                .holders
                .entry((content, kind))
                .or_default()
                .entry(doc)
                .or_insert(0) += 1;
        }
    }

    /// Releases everything `doc` contributed under `scope`: its private
    /// groups (all generations and revisions) always die with it; its
    /// hold on a shared scope is released, and the shared group is
    /// dropped only when `doc` was the last holder.  Called when the
    /// catalog replaces, removes or evicts the document.  Returns the
    /// number of artifacts dropped (counted as invalidations).
    pub(crate) fn release_doc(&self, doc: DocId, scope: ArtifactScope, kind: BackendKind) -> usize {
        let mut inner = self.inner.lock().unwrap();
        let mut dropped = 0usize;
        inner.groups.retain(|&(scope, _), queries| match scope {
            ArtifactScope::Private { doc: d, .. } if d == doc => {
                dropped += queries.len();
                false
            }
            _ => true,
        });
        if let ArtifactScope::Shared { content } = scope {
            if inner.release_hold(content, kind, doc) {
                if let Some(queries) = inner.groups.remove(&(scope, kind)) {
                    dropped += queries.len();
                }
            }
        }
        inner.len -= dropped;
        inner.invalidations += dropped as u64;
        dropped
    }

    /// Moves a mutated document's artifacts from the pre-edit scope group
    /// to the post-edit private one: the **subtree-scoped invalidation**
    /// an in-place edit buys over whole-document replacement.  Returns
    /// `(killed, preserved)`.
    ///
    /// When the pre-edit scope is shared and *other documents still hold
    /// it*, the mutating document merely releases its hold and the sweep
    /// is skipped entirely — the edit diverged this document from the
    /// shared content, but the other holders' artifacts are untouched
    /// (returns `(0, 0)`; the mutated document re-specializes privately
    /// on its next evaluation).  Only the sole holder migrates the group.
    ///
    /// Per artifact the rule is: **kill** it (drop it, counted as an
    /// invalidation — the next evaluation re-specializes from scratch)
    /// when the edit could have changed what it caches —
    ///
    /// * the whole document was renumbered (`renumbered`): pre-edit keys
    ///   are incomparable with post-edit ones, so no interval test is
    ///   meaningful;
    /// * the query is not name-bounded (`resolved_tags` is `None`): there
    ///   is no candidate set to scope by;
    /// * any candidate element's preorder key falls inside the dirty
    ///   interval in **either** snapshot — the old one catches removals
    ///   (the removed elements only exist there), the new one catches
    ///   insertions;
    ///
    /// — and otherwise **rebase** it onto the new snapshot
    /// ([`PlanArtifact::rebase`]): specialized plan, pinned strategy and
    /// verified-empty shortcut all survive.  Rebasing is always *sound*
    /// (artifacts re-run their plan against the snapshot they own); the
    /// kill rule exists so the cached candidate bound and the pinned
    /// strategy are re-derived whenever the edit touched the result
    /// universe they were derived from.
    pub(crate) fn retarget(
        &self,
        edit: Retarget,
        new_prepared: &Arc<PreparedDocument>,
    ) -> (u64, u64) {
        let Retarget {
            doc,
            generation,
            old_scope,
            new_revision,
            kind,
            dirty,
            renumbered,
        } = edit;
        let mut inner = self.inner.lock().unwrap();
        if let ArtifactScope::Shared { content } = old_scope {
            if !inner.release_hold(content, kind, doc) {
                // Other holders remain: their artifacts stay; the mutated
                // document simply left the shared scope.
                return (0, 0);
            }
        }
        let Some(old_group) = inner.groups.remove(&(old_scope, kind)) else {
            return (0, 0);
        };
        inner.len -= old_group.len();
        let new_scope = ArtifactScope::Private {
            doc,
            generation,
            revision: new_revision,
        };
        let (mut killed, mut preserved) = (0u64, 0u64);
        for (query, entry) in old_group {
            let artifact = &entry.artifact;
            let kill = renumbered
                || artifact.candidates_intersect(&artifact.prepared, dirty)
                || artifact.candidates_intersect(new_prepared, dirty);
            if kill {
                killed += 1;
                continue;
            }
            preserved += 1;
            let rebased = ArtifactEntry {
                artifact: Arc::new(artifact.rebase(doc, generation, new_revision, new_prepared)),
                last_used: entry.last_used,
            };
            // A racing evaluation may have built a fresh artifact under
            // the new revision already; keep whichever lands last (both
            // are valid for the new snapshot).
            if inner
                .groups
                .entry((new_scope, kind))
                .or_default()
                .insert(query, rebased)
                .is_none()
            {
                inner.len += 1;
            }
        }
        inner.invalidations += killed;
        inner.scope_killed += killed;
        inner.scope_preserved += preserved;
        (killed, preserved)
    }

    /// Drops every artifact (counters are kept; the shared-scope holder
    /// table mirrors the doc store, not cache contents, so it survives —
    /// re-built artifacts land back in their still-held shared groups).
    pub(crate) fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.groups.clear();
        inner.len = 0;
    }

    /// Copies this cache's counters into the artifact fields of a
    /// [`CatalogStats`] snapshot.
    pub(crate) fn fill_stats(&self, stats: &mut CatalogStats) {
        let inner = self.inner.lock().unwrap();
        stats.artifact_len = inner.len;
        stats.artifact_capacity = self.capacity;
        stats.artifact_hits = inner.hits;
        stats.artifact_misses = inner.misses;
        stats.artifact_evictions = inner.evictions;
        stats.artifact_invalidations = inner.invalidations;
        stats.artifact_scope_killed = inner.scope_killed;
        stats.artifact_scope_preserved = inner.scope_preserved;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpeval_dom::parse_xml;

    fn prepared(xml: &str) -> Arc<PreparedDocument> {
        Arc::new(parse_xml(xml).unwrap().prepare())
    }

    fn plan(src: &str) -> Arc<CompiledQuery> {
        Arc::new(CompiledQuery::compile(src).unwrap())
    }

    #[test]
    fn build_resolves_tags_and_pins_the_strategy() {
        let doc = prepared("<r><a/><b/><a/></r>");
        let q = plan("//a");
        let artifact = PlanArtifact::build(&q, DocId::from_raw(1), 1, 0, BackendKind::Eager, &doc);
        assert_eq!(artifact.candidate_bound(), Some(2));
        let tags = artifact.resolved_tags().unwrap();
        assert_eq!(tags.len(), 1);
        assert_eq!(tags[0].0, "a");
        assert_eq!(tags[0].1, doc.tag_id("a"));
        assert_eq!(artifact.strategy(), artifact.plan().strategy());
        // The specialized plan no longer re-tunes per source.
        assert_eq!(
            artifact.plan().strategy_for_source(doc.as_ref()),
            artifact.strategy()
        );
        let out = artifact.run().unwrap();
        assert_eq!(out.value.expect_nodes().len(), 2);
    }

    #[test]
    fn zero_candidate_bound_short_circuits_after_one_verified_run() {
        let doc = prepared("<r><a/></r>");
        let q = plan("//nosuch");
        let artifact = PlanArtifact::build(&q, DocId::from_raw(1), 1, 0, BackendKind::Eager, &doc);
        assert_eq!(artifact.candidate_bound(), Some(0));
        // The first run is a full evaluation (it must surface any error
        // the plan would raise), still empty.
        let first = artifact.run().unwrap();
        assert_eq!(first.value, Value::NodeSet(Vec::new()));
        assert!(first.stats.evaluations > 0, "{:?}", first.stats);
        // Every repeat takes the shortcut: zero work counters witness
        // that no evaluator ran.
        let repeat = artifact.run().unwrap();
        assert_eq!(repeat.value, Value::NodeSet(Vec::new()));
        assert_eq!(repeat.stats, EvalStats::default());
        // Unions of present and absent tags keep the sum bound.
        let union = plan("//a | //nosuch");
        let artifact =
            PlanArtifact::build(&union, DocId::from_raw(1), 1, 0, BackendKind::Eager, &doc);
        assert_eq!(artifact.candidate_bound(), Some(1));
        assert_eq!(artifact.run().unwrap().value.expect_nodes().len(), 1);
    }

    #[test]
    fn the_shortcut_never_masks_a_plan_error() {
        let doc = prepared("<r><a/></r>");
        // Zero-bound query forced onto a strategy that rejects its
        // fragment: every run must keep erroring, shortcut or not.
        let q = Arc::new(
            CompiledQuery::compile("//nosuch[@id = 3]")
                .unwrap()
                .with_strategy(EvalStrategy::CoreXPathLinear),
        );
        let artifact = PlanArtifact::build(&q, DocId::from_raw(1), 1, 0, BackendKind::Eager, &doc);
        assert_eq!(artifact.candidate_bound(), Some(0));
        for _ in 0..3 {
            assert!(matches!(
                artifact.run(),
                Err(EvalError::UnsupportedFragment { .. })
            ));
        }
    }

    #[test]
    fn non_name_bounded_queries_have_no_bound() {
        let doc = prepared("<r><a/></r>");
        for q in ["count(//a)", "//a/@id", "//node()"] {
            let artifact =
                PlanArtifact::build(&plan(q), DocId::from_raw(1), 1, 0, BackendKind::Eager, &doc);
            assert_eq!(artifact.candidate_bound(), None, "{q}");
            assert!(artifact.resolved_tags().is_none(), "{q}");
            // And evaluation still works through the pinned plan.
            assert!(artifact.run().is_ok(), "{q}");
        }
    }

    #[test]
    fn cache_hits_evicts_and_purges() {
        let doc1 = prepared("<r><a/></r>");
        let doc2 = prepared("<r><a/><a/></r>");
        let cache = ArtifactCache::new(2);
        let d1 = DocId::from_raw(1);
        let d2 = DocId::from_raw(2);
        let s1 = ArtifactScope::of(d1, 1, 0, BackendKind::Eager, &doc1);
        let s2 = ArtifactScope::of(d2, 1, 0, BackendKind::Eager, &doc2);
        assert_ne!(s1, s2, "different content, different scope");
        assert!(cache.get(s1, BackendKind::Eager, "//a").is_none());
        let a1 = Arc::new(PlanArtifact::build(
            &plan("//a"),
            d1,
            1,
            0,
            BackendKind::Eager,
            &doc1,
        ));
        assert_eq!(a1.scope(), s1);
        cache.register(s1, BackendKind::Eager, d1);
        cache.insert("//a", &a1);
        assert!(Arc::ptr_eq(
            &cache.get(s1, BackendKind::Eager, "//a").unwrap(),
            &a1
        ));
        // A mutated revision is a different (private) key.
        let rev1 = ArtifactScope::Private {
            doc: d1,
            generation: 1,
            revision: 1,
        };
        assert!(cache.get(rev1, BackendKind::Eager, "//a").is_none());

        let a2 = Arc::new(PlanArtifact::build(
            &plan("//a"),
            d2,
            1,
            0,
            BackendKind::Eager,
            &doc2,
        ));
        cache.register(s2, BackendKind::Eager, d2);
        cache.insert("//a", &a2);
        // Capacity 2: a third entry evicts the LRU one (d1's group was
        // touched most recently via get, so the victim is d2's).
        cache.get(s1, BackendKind::Eager, "//a").unwrap();
        let a3 = Arc::new(PlanArtifact::build(
            &plan("//r"),
            d1,
            1,
            0,
            BackendKind::Eager,
            &doc1,
        ));
        cache.insert("//r", &a3);
        assert!(cache.get(s2, BackendKind::Eager, "//a").is_none());

        // Releasing d1 (sole holder of its content) drops all its
        // artifacts.
        let dropped = cache.release_doc(d1, s1, BackendKind::Eager);
        assert_eq!(dropped, 2);
        let mut stats = CatalogStats::default();
        cache.fill_stats(&mut stats);
        assert_eq!(stats.artifact_len, 0);
        assert_eq!(stats.artifact_invalidations, 2);
        assert_eq!(stats.artifact_evictions, 1);
    }

    #[test]
    fn equal_content_shares_one_group_until_the_last_holder_leaves() {
        let doc1 = prepared("<r><a/></r>");
        let doc2 = prepared("<r><a/></r>");
        assert_eq!(doc1.content_hash(), doc2.content_hash());
        let cache = ArtifactCache::new(8);
        let d1 = DocId::from_raw(1);
        let d2 = DocId::from_raw(2);
        let s1 = ArtifactScope::of(d1, 1, 0, BackendKind::Eager, &doc1);
        let s2 = ArtifactScope::of(d2, 3, 0, BackendKind::Eager, &doc2);
        assert_eq!(s1, s2, "scope is content, not coordinates");
        cache.register(s1, BackendKind::Eager, d1);
        cache.register(s2, BackendKind::Eager, d2);
        let a = Arc::new(PlanArtifact::build(
            &plan("//a"),
            d1,
            1,
            0,
            BackendKind::Eager,
            &doc1,
        ));
        cache.insert("//a", &a);
        // d2 answers from d1's artifact.
        assert!(Arc::ptr_eq(
            &cache.get(s2, BackendKind::Eager, "//a").unwrap(),
            &a
        ));
        // Releasing one holder keeps the group for the other...
        assert_eq!(cache.release_doc(d1, s1, BackendKind::Eager), 0);
        assert!(cache.get(s2, BackendKind::Eager, "//a").is_some());
        // ...and releasing the last holder drops it.
        assert_eq!(cache.release_doc(d2, s2, BackendKind::Eager), 1);
        assert!(cache.get(s2, BackendKind::Eager, "//a").is_none());
    }

    #[test]
    fn lazy_and_mutated_snapshots_stay_private() {
        let doc = prepared("<r><a/></r>");
        let d = DocId::from_raw(1);
        assert!(matches!(
            ArtifactScope::of(d, 1, 0, BackendKind::Lazy, &doc),
            ArtifactScope::Private { .. }
        ));
        assert!(matches!(
            ArtifactScope::of(d, 1, 2, BackendKind::Eager, &doc),
            ArtifactScope::Private { .. }
        ));
        assert!(matches!(
            ArtifactScope::of(d, 1, 0, BackendKind::Snapshot, &doc),
            ArtifactScope::Shared { .. }
        ));
    }

    #[test]
    fn the_first_successful_run_caches_the_root_result() {
        let doc = prepared("<r><a/><a/></r>");
        let artifact = PlanArtifact::build(
            &plan("//a"),
            DocId::from_raw(1),
            1,
            0,
            BackendKind::Eager,
            &doc,
        );
        assert!(!artifact.has_cached_result());
        let first = artifact.run().unwrap();
        assert!(artifact.has_cached_result());
        let repeat = artifact.run().unwrap();
        assert_eq!(first, repeat, "repeats clone the cached output");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let doc = prepared("<r><a/></r>");
        let cache = ArtifactCache::new(0);
        let a = Arc::new(PlanArtifact::build(
            &plan("//a"),
            DocId::from_raw(1),
            1,
            0,
            BackendKind::Eager,
            &doc,
        ));
        cache.insert("//a", &a);
        assert!(cache.get(a.scope(), BackendKind::Eager, "//a").is_none());
    }
}
