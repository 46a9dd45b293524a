//! The named, concurrent document store: [`Catalog`], its builder, ids,
//! errors and the fan-out evaluation surface.
//!
//! A catalog owns ingestion end to end: [`Catalog::insert_xml`] parses and
//! prepares once, hands back a stable [`DocId`], and keeps the
//! [`PreparedDocument`] behind the human-readable name.  Replacing a name
//! bumps the entry's **generation** and purges its (query × document)
//! artifacts; capacity is bounded with LRU eviction; every entry carries
//! its own usage counters ([`DocInfo`]).
//!
//! Evaluation goes through the artifact cache: the first
//! [`Catalog::evaluate_on`] for a (query, document, generation) triple
//! compiles the query through the engine's plan cache and specializes it
//! for the document ([`PlanArtifact`]); every repeat skips the per-call
//! selectivity probing and strategy selection (the artifact's tag
//! resolutions and candidate bound are computed once per generation, and
//! a verified zero bound skips evaluation itself).  [`Catalog::evaluate_on_all`] and
//! [`Catalog::evaluate_matching`] fan one query out over many documents.
//!
//! **Locking.**  The store is a single `RwLock` over two small maps; the
//! artifact cache and every counter are outside it.  Evaluation holds the
//! read lock only long enough to clone out an `Arc` of the entry —
//! documents and artifacts are immutable, so queries never serialize on
//! the store.  Writers (insert/replace/remove) purge artifacts *after*
//! dropping the write lock; a concurrent evaluation racing a replacement
//! may finish against the old generation (and may leave an old-generation
//! artifact in the cache, unreachable by key, until it ages out) — it
//! never sees a mix of generations.

use crate::artifact::{ArtifactCache, ArtifactScope, PlanArtifact, Retarget};
use crate::glob::glob_match;
use crate::stats::{CatalogStats, DocInfo};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use xpeval_backends::{BackendKind, LazyDocument, PreparedSnapshot};
use xpeval_core::{Bindings, Engine, EvalError, QueryOutput};
use xpeval_dom::{parse_xml, Document, PreparedDocument, TreeProvider, XmlParseError};
use xpeval_live::{LiveDocument, PendingEdits};

/// Stable identity of a catalog document.
///
/// Ids are assigned at first insert, never reused, and survive
/// replacement: replacing the document behind a name keeps the `DocId` and
/// bumps the entry's generation instead.  This is the key the artifact
/// cache uses — a stable name, unlike the address of the document's `Arc`,
/// which a re-parse changes and the allocator may recycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(u64);

impl DocId {
    /// The raw id value.  Ids are minted from one process-global counter,
    /// so they are unique across every catalog in the process.
    #[inline]
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Rebuilds a `DocId` from [`DocId::as_u64`] — for tests and external
    /// id plumbing; the catalog only honours ids it minted itself.
    #[inline]
    pub fn from_raw(raw: u64) -> Self {
        DocId(raw)
    }
}

impl std::fmt::Display for DocId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "doc#{}", self.0)
    }
}

/// Why a catalog operation failed.
#[derive(Clone, Debug, PartialEq)]
pub enum CatalogError {
    /// The named document is not in the catalog (never inserted, removed,
    /// or evicted).
    UnknownDocument {
        /// The name that failed to resolve.
        name: String,
    },
    /// The id is not in the catalog (document removed or evicted, or the
    /// id was minted by another catalog).
    UnknownDocId {
        /// The id that failed to resolve.
        id: DocId,
    },
    /// [`Catalog::insert_xml`] was given XML that does not parse.
    Xml(XmlParseError),
    /// A storage backend failed to produce a document: a snapshot failed
    /// validation or decoding ([`Catalog::insert_snapshot`]), or a tree
    /// provider reported a build error ([`Catalog::insert_tree`]).
    Backend {
        /// The backend's own description of the failure.
        message: String,
    },
    /// The query failed to compile or evaluate.
    Eval(EvalError),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::UnknownDocument { name } => {
                write!(f, "no document named '{name}' in the catalog")
            }
            CatalogError::UnknownDocId { id } => {
                write!(f, "no document with id {id} in the catalog")
            }
            CatalogError::Xml(e) => write!(f, "document does not parse: {e}"),
            CatalogError::Backend { message } => {
                write!(f, "storage backend failed: {message}")
            }
            CatalogError::Eval(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CatalogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CatalogError::UnknownDocument { .. }
            | CatalogError::UnknownDocId { .. }
            | CatalogError::Backend { .. } => None,
            CatalogError::Xml(e) => Some(e),
            CatalogError::Eval(e) => Some(e),
        }
    }
}

impl From<EvalError> for CatalogError {
    fn from(e: EvalError) -> Self {
        CatalogError::Eval(e)
    }
}

impl From<XmlParseError> for CatalogError {
    fn from(e: XmlParseError) -> Self {
        CatalogError::Xml(e)
    }
}

/// One document's result in a fan-out evaluation
/// ([`Catalog::evaluate_on_all`], [`Catalog::evaluate_matching`]).
#[derive(Clone, Debug)]
pub struct FanOut {
    /// The document's catalog name.
    pub name: String,
    /// Its stable id.
    pub doc: DocId,
    /// The generation the query ran against.
    pub generation: u64,
    /// The per-document outcome; one failing document does not poison the
    /// fan-out.
    pub result: Result<QueryOutput, EvalError>,
}

/// What a [`Catalog::mutate_named`] / [`Catalog::mutate`] call did: the
/// closure's return value, the document's post-edit version coordinates,
/// the drained edit batch, and how precisely the artifact cache was
/// invalidated.
#[derive(Debug)]
pub struct MutationOutcome<T> {
    /// Whatever the mutation closure returned.
    pub value: T,
    /// The document's stable id.
    pub doc: DocId,
    /// The (unchanged) generation the edits landed in.
    pub generation: u64,
    /// The post-edit revision (unchanged when the closure made no edit).
    pub revision: u64,
    /// The edit batch the closure applied — dirty preorder interval,
    /// counts — or `None` when it edited nothing.
    pub edits: Option<PendingEdits>,
    /// Artifacts dropped because their candidates intersect the dirty
    /// interval (they re-specialize on next evaluation).
    pub artifacts_killed: u64,
    /// Artifacts rebased onto the post-edit snapshot with their
    /// specialized plan, pinned strategy and verified shortcut intact.
    pub artifacts_preserved: u64,
}

/// Usage counters of one named slot, shared by every generation of the
/// entry behind an `Arc`: a replacement clones the handle instead of
/// copying values, so increments made through an old generation's
/// `Arc<CatalogEntry>` (an evaluation racing the replacement) land on the
/// same counters and are never lost.
#[derive(Debug, Default)]
struct SlotCounters {
    evaluations: AtomicU64,
    artifact_hits: AtomicU64,
}

/// How an entry's document is stored behind its `prepared` snapshot.
///
/// `Eager` holds nothing extra (the snapshot *is* the storage — also the
/// promotion target when a mutation diverges an entry from its backend).
/// Snapshot and tree-provider entries are `Eager` too: their decoded
/// document is all an entry needs, so a snapshot's byte image is not kept
/// alive by the catalog.  `Lazy` keeps the tokenized source whose
/// resident wave `prepared` currently is; `spine_nodes` is the node count
/// of the cold spine wave, so budget enforcement knows whether a demotion
/// would free anything.
#[derive(Clone, Debug)]
enum Backing {
    Eager,
    Lazy {
        doc: Arc<LazyDocument>,
        spine_nodes: usize,
    },
}

/// One live entry of the store.  Shared out by `Arc` so evaluation never
/// holds the store lock; the atomics are the entry's own usage counters.
#[derive(Debug)]
struct CatalogEntry {
    name: String,
    id: DocId,
    generation: u64,
    /// In-place edits applied within this generation
    /// ([`Catalog::mutate_named`]); resets to 0 whenever the generation
    /// bumps (whole-document replacement).  Lazy entries also bump it on
    /// every materialization wave — node ids are not stable across waves,
    /// so a wave invalidates artifacts exactly like an edit batch would.
    revision: u64,
    prepared: Arc<PreparedDocument>,
    /// Which storage backend produced `prepared` (part of every artifact
    /// key; see [`DocInfo::backend`]).
    kind: BackendKind,
    backing: Backing,
    /// Global-tick recency stamp for LRU eviction (updated through a
    /// shared read lock — hence atomic).
    last_used: AtomicU64,
    /// Shared across the slot's generations; see [`SlotCounters`].
    counters: Arc<SlotCounters>,
}

impl CatalogEntry {
    /// The artifact-cache namespace this entry answers from: its content
    /// hash while unmutated and fully materialized, its exact coordinates
    /// otherwise ([`ArtifactScope::of`]).  O(1): the hash is primed at
    /// install time and memoized on the prepared document.
    fn scope(&self) -> ArtifactScope {
        ArtifactScope::of(
            self.id,
            self.generation,
            self.revision,
            self.kind,
            &self.prepared,
        )
    }
}

#[derive(Debug, Default)]
struct DocStore {
    by_name: HashMap<String, DocId>,
    entries: HashMap<DocId, Arc<CatalogEntry>>,
}

/// Mints process-unique [`DocId`]s: one global counter shared by every
/// catalog, so ids from catalogs sharing an engine or a serving pool never
/// collide — ever (2⁶⁴ inserts are unreachable).
fn mint_doc_id() -> DocId {
    static NEXT_DOC_ID: AtomicU64 = AtomicU64::new(1);
    DocId(NEXT_DOC_ID.fetch_add(1, Ordering::Relaxed))
}

#[derive(Debug)]
struct CatalogShared {
    engine: Engine,
    capacity: usize,
    node_budget: usize,
    docs: RwLock<DocStore>,
    artifacts: ArtifactCache,
    tick: AtomicU64,
    inserts: AtomicU64,
    replacements: AtomicU64,
    mutations: AtomicU64,
    removals: AtomicU64,
    evictions: AtomicU64,
    demotions: AtomicU64,
    resolve_hits: AtomicU64,
    resolve_misses: AtomicU64,
    evaluations: AtomicU64,
    /// Artifact-cache hits answered by an artifact built for a *different*
    /// document with equal content — the witness that content-hash
    /// keying actually shares work across documents.
    artifact_cross_doc_hits: AtomicU64,
}

/// Configures and builds a [`Catalog`].
#[derive(Debug)]
pub struct CatalogBuilder {
    engine: Option<Engine>,
    capacity: usize,
    node_budget: usize,
    artifact_capacity: usize,
}

impl CatalogBuilder {
    /// Default configuration: room for 256 documents, 1024 plan
    /// artifacts, no node budget, and an [`Engine`] that picks each
    /// query's strategy itself.
    pub fn new() -> Self {
        CatalogBuilder {
            engine: None,
            capacity: 256,
            node_budget: 0,
            artifact_capacity: 1024,
        }
    }

    /// Evaluates through this engine (a clone of the handle; the plan
    /// cache is shared with the caller and with any serving pool built on
    /// the same engine).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Maximum number of documents; inserting beyond it evicts the
    /// least-recently-used entry (and its artifacts).  0 = unbounded.
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Capacity of the (query × document) artifact cache in entries;
    /// 0 disables artifact caching (every evaluation re-specializes).
    pub fn artifact_capacity(mut self, capacity: usize) -> Self {
        self.artifact_capacity = capacity;
        self
    }

    /// Upper bound on the total number of *resident* arena nodes across
    /// all entries; 0 = unbounded (the default).
    ///
    /// [`CatalogBuilder::capacity`] counts entries, so a few huge
    /// documents can blow the memory that bound was meant to cap while
    /// staying far under it.  The node budget weighs every entry by the
    /// node count of its currently materialized snapshot instead.
    /// Enforcement (after every insert and lazy materialization wave)
    /// first **demotes** least-recently-used lazy entries back to their
    /// spine wave — shedding their materialized extents while keeping
    /// them answerable — and only then evicts whole least-recently-used
    /// entries.  The most recently used entry is never evicted, so a
    /// single document larger than the budget still works (over budget,
    /// alone).
    pub fn node_budget(mut self, nodes: usize) -> Self {
        self.node_budget = nodes;
        self
    }

    /// Builds the catalog.
    pub fn build(self) -> Catalog {
        let engine = self.engine.unwrap_or_else(|| Engine::builder().build());
        Catalog {
            shared: Arc::new(CatalogShared {
                engine,
                capacity: self.capacity,
                node_budget: self.node_budget,
                docs: RwLock::new(DocStore::default()),
                artifacts: ArtifactCache::new(self.artifact_capacity),
                tick: AtomicU64::new(0),
                inserts: AtomicU64::new(0),
                replacements: AtomicU64::new(0),
                mutations: AtomicU64::new(0),
                removals: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
                demotions: AtomicU64::new(0),
                resolve_hits: AtomicU64::new(0),
                resolve_misses: AtomicU64::new(0),
                evaluations: AtomicU64::new(0),
                artifact_cross_doc_hits: AtomicU64::new(0),
            }),
        }
    }
}

impl Default for CatalogBuilder {
    fn default() -> Self {
        CatalogBuilder::new()
    }
}

/// A concurrent, named multi-document store with (query × document) plan
/// artifacts and fan-out evaluation.  See the [module docs](self) and the
/// crate docs for the model.
///
/// `Catalog` is a cheap-to-clone *handle* (like [`Engine`]): clones share
/// the store, the artifact cache and the engine, so a serving pool can
/// hand every worker its own handle.
#[derive(Clone, Debug)]
pub struct Catalog {
    shared: Arc<CatalogShared>,
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog::new()
    }
}

impl Catalog {
    /// A catalog with default configuration.
    pub fn new() -> Self {
        CatalogBuilder::new().build()
    }

    /// Starts configuring a catalog.
    pub fn builder() -> CatalogBuilder {
        CatalogBuilder::new()
    }

    /// The engine the catalog evaluates through (shared handle).
    pub fn engine(&self) -> &Engine {
        &self.shared.engine
    }

    fn next_tick(&self) -> u64 {
        self.shared.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Parses, prepares and stores XML under `name`.  Replaces (generation
    /// bump) if the name exists.
    pub fn insert_xml(&self, name: &str, xml: &str) -> Result<DocId, CatalogError> {
        let doc = parse_xml(xml)?;
        Ok(self.insert_document(name, doc))
    }

    /// Prepares and stores a document under `name`.  Replaces (generation
    /// bump) if the name exists.
    pub fn insert_document(&self, name: &str, doc: impl Into<Arc<Document>>) -> DocId {
        self.insert_prepared(name, Arc::new(PreparedDocument::new(doc)))
    }

    /// Stores an already-prepared document under `name`.  Replaces
    /// (generation bump) if the name exists.
    pub fn insert_prepared(&self, name: &str, prepared: Arc<PreparedDocument>) -> DocId {
        self.install(name, prepared, BackendKind::Eager, Backing::Eager)
    }

    /// Tokenizes `xml` into a [`LazyDocument`] and stores it under `name`
    /// holding only its **spine wave**: subtree extents materialize on
    /// demand, query by query ([`Catalog::evaluate_on`] grows the wave to
    /// cover each query before evaluating, bumping the entry's revision —
    /// node ids are not stable across waves).  Replaces (generation bump)
    /// if the name exists.
    pub fn insert_lazy(&self, name: &str, xml: &str) -> Result<DocId, CatalogError> {
        let lazy = Arc::new(LazyDocument::new(xml)?);
        let spine = lazy.demote_to_spine()?;
        let spine_nodes = spine.node_count();
        Ok(self.install(
            name,
            spine,
            BackendKind::Lazy,
            Backing::Lazy {
                doc: lazy,
                spine_nodes,
            },
        ))
    }

    /// Stores the document decoded from a zero-copy
    /// [`PreparedSnapshot`] under `name` (the decode happens at most once
    /// per snapshot and is shared with every other holder).  The entry
    /// keeps only the decoded document: once the caller drops its last
    /// handle to the snapshot, the byte image is freed.  Replaces
    /// (generation bump) if the name exists.
    pub fn insert_snapshot(
        &self,
        name: &str,
        snapshot: &Arc<PreparedSnapshot>,
    ) -> Result<DocId, CatalogError> {
        let prepared = snapshot.document().map_err(|e| CatalogError::Backend {
            message: e.to_string(),
        })?;
        Ok(self.install(name, prepared, BackendKind::Snapshot, Backing::Eager))
    }

    /// Builds a document from a non-XML [`TreeProvider`] (for example the
    /// JSON provider in `xpeval-backends`) and stores it under `name`.
    /// Replaces (generation bump) if the name exists.
    pub fn insert_tree(
        &self,
        name: &str,
        provider: &dyn TreeProvider,
    ) -> Result<DocId, CatalogError> {
        let prepared = provider
            .build_prepared()
            .map_err(|e| CatalogError::Backend {
                message: e.to_string(),
            })?;
        Ok(self.install(name, Arc::new(prepared), BackendKind::Tree, Backing::Eager))
    }

    /// Stores `prepared` under `name`: an existing name keeps its id and
    /// moves to the next generation; a new name gets a freshly minted id
    /// at generation 1, evicting the least-recently-used entry when the
    /// catalog is full.
    fn install(
        &self,
        name: &str,
        prepared: Arc<PreparedDocument>,
        kind: BackendKind,
        backing: Backing,
    ) -> DocId {
        let shared = &self.shared;
        let tick = self.next_tick();
        // Prime the content hash outside every lock: entry scopes (and the
        // shared-artifact keying they drive) read it on hot paths, and the
        // one O(|D|) computation is memoized on the prepared document.
        if !matches!(backing, Backing::Lazy { .. }) {
            prepared.content_hash();
        }
        let mut purge: Vec<Arc<CatalogEntry>> = Vec::new();
        let installed;
        let id;
        {
            let mut docs = shared.docs.write().unwrap();
            if let Some(&existing) = docs.by_name.get(name) {
                // Replacement: same id, next generation; usage counters
                // describe the named slot and carry over.
                let old = docs
                    .entries
                    .get(&existing)
                    .cloned()
                    .expect("name index points at a live entry");
                let entry = Arc::new(CatalogEntry {
                    name: name.to_string(),
                    id: existing,
                    generation: old.generation + 1,
                    revision: 0,
                    prepared,
                    kind,
                    backing,
                    last_used: AtomicU64::new(tick),
                    counters: Arc::clone(&old.counters),
                });
                installed = Arc::clone(&entry);
                docs.entries.insert(existing, entry);
                shared.replacements.fetch_add(1, Ordering::Relaxed);
                purge.push(old);
                id = existing;
            } else {
                if shared.capacity > 0 && docs.entries.len() >= shared.capacity {
                    if let Some(victim) = docs
                        .entries
                        .values()
                        .min_by_key(|e| e.last_used.load(Ordering::Relaxed))
                        .map(|e| e.id)
                    {
                        let gone = docs.entries.remove(&victim).expect("victim is live");
                        docs.by_name.remove(&gone.name);
                        shared.evictions.fetch_add(1, Ordering::Relaxed);
                        purge.push(gone);
                    }
                }
                // Always a new id: a retired (removed or evicted) id is
                // never resurrected, since a reborn id at generation 1
                // could climb back to a generation whose stale artifacts
                // still linger.
                id = mint_doc_id();
                let entry = Arc::new(CatalogEntry {
                    name: name.to_string(),
                    id,
                    generation: 1,
                    revision: 0,
                    prepared,
                    kind,
                    backing,
                    last_used: AtomicU64::new(tick),
                    counters: Arc::new(SlotCounters::default()),
                });
                installed = Arc::clone(&entry);
                docs.by_name.insert(name.to_string(), id);
                docs.entries.insert(id, entry);
                shared.inserts.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Register the installed entry's scope hold *before* releasing the
        // replaced/evicted entries below: a replacement that re-installs
        // identical content keeps its shared artifacts alive through the
        // swap (the hold count never touches zero).
        shared
            .artifacts
            .register(installed.scope(), installed.kind, id);
        // Outside the write lock: the artifact release takes the artifact
        // cache's own mutex, can sweep many entries, and evaluation must
        // not wait on it.  A release deferred past the lock can race an
        // evaluation of the *new* generation and drop its freshly built
        // artifact too — benign: artifacts are rebuildable derived state,
        // so the cost is one re-specialize on the next evaluation, never
        // a wrong result.
        for e in purge {
            shared.artifacts.release_doc(e.id, e.scope(), e.kind);
        }
        self.enforce_node_budget();
        id
    }

    /// Brings the total resident node count back under the configured
    /// [`CatalogBuilder::node_budget`] (no-op when unbounded).  Two-phase:
    /// first demote least-recently-used **lazy** entries back to their
    /// spine wave (the document stays answerable; its materialized extents
    /// — usually the bulk of its nodes — are freed), then evict whole
    /// least-recently-used entries.  The most recently used entry is never
    /// evicted.
    fn enforce_node_budget(&self) {
        let budget = self.shared.node_budget;
        if budget == 0 {
            return;
        }
        enum Action {
            Demote(Arc<CatalogEntry>),
            Evict(DocId),
            Done,
        }
        // Entries already demoted (or that failed to demote) this round;
        // guarantees progress even when demotion frees nothing.
        let mut tried: Vec<DocId> = Vec::new();
        loop {
            let action = {
                let docs = self.shared.docs.read().unwrap();
                let resident: usize = docs.entries.values().map(|e| e.prepared.node_count()).sum();
                if resident <= budget {
                    Action::Done
                } else {
                    let demotable = docs
                        .entries
                        .values()
                        .filter(|e| !tried.contains(&e.id))
                        .filter(|e| match &e.backing {
                            Backing::Lazy { spine_nodes, .. } => {
                                e.prepared.node_count() > *spine_nodes
                            }
                            _ => false,
                        })
                        .min_by_key(|e| e.last_used.load(Ordering::Relaxed))
                        .cloned();
                    match demotable {
                        Some(entry) => Action::Demote(entry),
                        None => {
                            let mru = docs
                                .entries
                                .values()
                                .map(|e| e.last_used.load(Ordering::Relaxed))
                                .max()
                                .unwrap_or(0);
                            docs.entries
                                .values()
                                .filter(|e| e.last_used.load(Ordering::Relaxed) != mru)
                                .min_by_key(|e| e.last_used.load(Ordering::Relaxed))
                                .map(|e| e.id)
                                .map_or(Action::Done, Action::Evict)
                        }
                    }
                }
            };
            match action {
                Action::Done => return,
                Action::Demote(entry) => {
                    tried.push(entry.id);
                    let Backing::Lazy { doc: lazy, .. } = &entry.backing else {
                        unreachable!("demotion candidates are lazy-backed");
                    };
                    // The spine re-parse happens outside every lock.
                    let Ok(spine) = lazy.demote_to_spine() else {
                        continue; // tokenized input no longer parses; skip
                    };
                    let demoted = {
                        let mut docs = self.shared.docs.write().unwrap();
                        let cur = docs.entries.get(&entry.id).cloned();
                        match cur {
                            // Only demote the generation we selected; a
                            // replacement racing us wins.
                            Some(cur)
                                if cur.generation == entry.generation
                                    && matches!(cur.backing, Backing::Lazy { .. }) =>
                            {
                                let next = Arc::new(CatalogEntry {
                                    name: cur.name.clone(),
                                    id: cur.id,
                                    generation: cur.generation,
                                    revision: cur.revision + 1,
                                    prepared: spine,
                                    kind: cur.kind,
                                    backing: cur.backing.clone(),
                                    // Keep the old recency: demotion must
                                    // not promote the victim over entries
                                    // that were genuinely used later.
                                    last_used: AtomicU64::new(
                                        cur.last_used.load(Ordering::Relaxed),
                                    ),
                                    counters: Arc::clone(&cur.counters),
                                });
                                docs.entries.insert(cur.id, next);
                                true
                            }
                            _ => false,
                        }
                    };
                    if demoted {
                        self.shared.demotions.fetch_add(1, Ordering::Relaxed);
                        self.shared
                            .artifacts
                            .release_doc(entry.id, entry.scope(), entry.kind);
                    }
                }
                Action::Evict(id) => {
                    let gone = {
                        let mut docs = self.shared.docs.write().unwrap();
                        docs.entries.remove(&id).map(|e| {
                            docs.by_name.remove(&e.name);
                            e
                        })
                    };
                    match gone {
                        Some(e) => {
                            self.shared.evictions.fetch_add(1, Ordering::Relaxed);
                            self.shared.artifacts.release_doc(e.id, e.scope(), e.kind);
                        }
                        // The store changed under us; stop rather than
                        // spin against concurrent writers.
                        None => return,
                    }
                }
            }
        }
    }

    /// Removes the named document (and purges its artifacts).  Returns
    /// whether it existed.  The id is retired, never reused.
    pub fn remove(&self, name: &str) -> bool {
        let removed = {
            let mut docs = self.shared.docs.write().unwrap();
            docs.by_name
                .remove(name)
                .and_then(|id| docs.entries.remove(&id))
        };
        match removed {
            Some(e) => {
                self.shared.removals.fetch_add(1, Ordering::Relaxed);
                self.shared.artifacts.release_doc(e.id, e.scope(), e.kind);
                true
            }
            None => false,
        }
    }

    /// Edits the named document **in place** through a [`LiveDocument`]
    /// view, with incremental index maintenance and subtree-scoped
    /// artifact invalidation — the fine-grained alternative to
    /// whole-document replacement ([`Catalog::insert_xml`]).
    ///
    /// The closure runs under the store's write lock, so edits on a
    /// catalog serialize with each other and with name resolution (racing
    /// readers hold pre-edit snapshots and never observe a half-patched
    /// index; post-edit readers resolve to the published snapshot).  Keep
    /// closures small — parse fragments *before* calling; the incremental
    /// edits themselves are microsecond-scale.  Each successful edit bumps
    /// the entry's **revision**; the generation is untouched (that is the
    /// replacement counter).  After publishing, the document's plan
    /// artifacts are re-targeted at the new revision: only those whose
    /// name-bounded candidates intersect the batch's dirty preorder
    /// interval are dropped, the rest carry their specialized plan,
    /// pinned strategy and verified-empty shortcut across the edit.
    ///
    /// A closure that makes no successful edit (or only failed ones)
    /// publishes nothing: same revision, no invalidation.  Edit errors are
    /// the closure's to handle (e.g. return the `Result` as `T`).
    pub fn mutate_named<T>(
        &self,
        name: &str,
        edit: impl FnOnce(&mut LiveDocument) -> T,
    ) -> Result<MutationOutcome<T>, CatalogError> {
        self.mutate_resolved(
            |docs| docs.by_name.get(name).copied(),
            CatalogError::UnknownDocument {
                name: name.to_string(),
            },
            edit,
        )
    }

    /// [`Catalog::mutate_named`] addressed by stable id instead of name.
    pub fn mutate<T>(
        &self,
        id: DocId,
        edit: impl FnOnce(&mut LiveDocument) -> T,
    ) -> Result<MutationOutcome<T>, CatalogError> {
        self.mutate_resolved(|_| Some(id), CatalogError::UnknownDocId { id }, edit)
    }

    fn mutate_resolved<T>(
        &self,
        resolve: impl FnOnce(&DocStore) -> Option<DocId>,
        missing: CatalogError,
        edit: impl FnOnce(&mut LiveDocument) -> T,
    ) -> Result<MutationOutcome<T>, CatalogError> {
        let shared = &self.shared;
        let tick = self.next_tick();
        let (mut outcome, pending, new_prepared, promoted);
        {
            let mut docs = shared.docs.write().unwrap();
            let entry = resolve(&docs)
                .and_then(|id| docs.entries.get(&id))
                .cloned()
                .ok_or(missing)?;
            // Lazy and snapshot entries promote to eager on mutation: an
            // edited document diverges from its storage (a lazy input
            // string, a snapshot byte image), and a lazy wave must be
            // complete before editing (node ids across waves are
            // incomparable).
            let (base, kind) = match &entry.backing {
                Backing::Lazy { doc: lazy, .. } => {
                    let full = lazy.materialize_all().map_err(|e| CatalogError::Backend {
                        message: format!("lazy materialization failed: {e}"),
                    })?;
                    (full, BackendKind::Eager)
                }
                Backing::Eager => {
                    let kind = match entry.kind {
                        BackendKind::Snapshot => BackendKind::Eager,
                        kind => kind,
                    };
                    (Arc::clone(&entry.prepared), kind)
                }
            };
            promoted = kind != entry.kind || !Arc::ptr_eq(&base, &entry.prepared);
            let mut live = LiveDocument::resume(base, entry.revision);
            let value = edit(&mut live);
            let Some(batch) = live.take_pending() else {
                return Ok(MutationOutcome {
                    value,
                    doc: entry.id,
                    generation: entry.generation,
                    revision: entry.revision,
                    edits: None,
                    artifacts_killed: 0,
                    artifacts_preserved: 0,
                });
            };
            new_prepared = live.snapshot();
            let next = Arc::new(CatalogEntry {
                name: entry.name.clone(),
                id: entry.id,
                generation: entry.generation,
                revision: live.revision(),
                prepared: Arc::clone(&new_prepared),
                kind,
                backing: Backing::Eager,
                last_used: AtomicU64::new(tick),
                counters: Arc::clone(&entry.counters),
            });
            docs.entries.insert(entry.id, next);
            shared.mutations.fetch_add(1, Ordering::Relaxed);
            outcome = MutationOutcome {
                value,
                doc: entry.id,
                generation: entry.generation,
                revision: live.revision(),
                edits: None,
                artifacts_killed: 0,
                artifacts_preserved: 0,
            };
            pending = (batch, entry.scope(), entry.kind);
        }
        // Outside the write lock: the re-target sweep takes the artifact
        // cache's own mutex and may rebase many entries; evaluation must
        // not wait on it.  An evaluation racing this window may still
        // insert an artifact under the *old* scope — unreachable by this
        // document afterwards, aged out by LRU (or still live for other
        // holders of a shared scope); never a wrong result.
        let (batch, old_scope, old_kind) = pending;
        let (killed, preserved) = if promoted {
            // A promotion changes the backend kind (and, for lazy, the
            // node numbering the edit batch is relative to): no pre-edit
            // artifact is comparable with the post-edit snapshot, so the
            // subtree-scoped rule does not apply — drop this document's
            // artifacts (releasing a shared hold rather than sweeping
            // when other documents still share the content).
            (
                shared
                    .artifacts
                    .release_doc(outcome.doc, old_scope, old_kind) as u64,
                0,
            )
        } else {
            shared.artifacts.retarget(
                Retarget {
                    doc: outcome.doc,
                    generation: outcome.generation,
                    old_scope,
                    new_revision: outcome.revision,
                    kind: old_kind,
                    dirty: batch.dirty,
                    renumbered: batch.renumbered,
                },
                &new_prepared,
            )
        };
        outcome.edits = Some(batch);
        outcome.artifacts_killed = killed;
        outcome.artifacts_preserved = preserved;
        Ok(outcome)
    }

    /// Resolves a name to the live entry, counting the lookup and
    /// touching LRU recency on a hit.
    fn entry(&self, name: &str) -> Option<Arc<CatalogEntry>> {
        let found = {
            let docs = self.shared.docs.read().unwrap();
            docs.by_name
                .get(name)
                .and_then(|id| docs.entries.get(id))
                .cloned()
        };
        match &found {
            Some(entry) => {
                entry.last_used.store(self.next_tick(), Ordering::Relaxed);
                self.shared.resolve_hits.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                self.shared.resolve_misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        found
    }

    /// The stable id behind a name, if present.
    pub fn resolve(&self, name: &str) -> Option<DocId> {
        self.entry(name).map(|e| e.id)
    }

    /// Is the name in the catalog?  (Uncounted; use [`Catalog::resolve`]
    /// for a counted lookup.)
    pub fn contains(&self, name: &str) -> bool {
        self.shared.docs.read().unwrap().by_name.contains_key(name)
    }

    /// The prepared document behind a name.
    pub fn get(&self, name: &str) -> Option<Arc<PreparedDocument>> {
        self.entry(name).map(|e| Arc::clone(&e.prepared))
    }

    /// The prepared document behind a stable id (uncounted; ids come from
    /// [`Catalog::resolve`] or an insert).
    pub fn get_by_id(&self, id: DocId) -> Option<Arc<PreparedDocument>> {
        let docs = self.shared.docs.read().unwrap();
        docs.entries.get(&id).map(|e| Arc::clone(&e.prepared))
    }

    /// The current generation of a name (1 after first insert, +1 per
    /// replacement).
    pub fn generation(&self, name: &str) -> Option<u64> {
        let docs = self.shared.docs.read().unwrap();
        docs.by_name
            .get(name)
            .and_then(|id| docs.entries.get(id))
            .map(|e| e.generation)
    }

    /// The current in-place edit revision of a name (0 after insert or
    /// replacement, +1 per successful [`Catalog::mutate_named`] edit).
    pub fn revision(&self, name: &str) -> Option<u64> {
        let docs = self.shared.docs.read().unwrap();
        docs.by_name
            .get(name)
            .and_then(|id| docs.entries.get(id))
            .map(|e| e.revision)
    }

    /// Number of documents currently stored.
    pub fn len(&self) -> usize {
        self.shared.docs.read().unwrap().entries.len()
    }

    /// Is the catalog empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every stored name, sorted.
    pub fn names(&self) -> Vec<String> {
        let docs = self.shared.docs.read().unwrap();
        let mut names: Vec<String> = docs.by_name.keys().cloned().collect();
        drop(docs);
        names.sort_unstable();
        names
    }

    fn info_of(entry: &CatalogEntry) -> DocInfo {
        DocInfo {
            name: entry.name.clone(),
            id: entry.id,
            generation: entry.generation,
            revision: entry.revision,
            backend: entry.kind,
            node_count: entry.prepared.node_count(),
            evaluations: entry.counters.evaluations.load(Ordering::Relaxed),
            artifact_hits: entry.counters.artifact_hits.load(Ordering::Relaxed),
        }
    }

    /// The storage backend kind behind a name (uncounted lookup).
    pub fn backend_kind(&self, name: &str) -> Option<BackendKind> {
        let docs = self.shared.docs.read().unwrap();
        docs.by_name
            .get(name)
            .and_then(|id| docs.entries.get(id))
            .map(|e| e.kind)
    }

    /// Snapshot of one entry's identity and usage counters (uncounted
    /// lookup).
    pub fn info(&self, name: &str) -> Option<DocInfo> {
        let docs = self.shared.docs.read().unwrap();
        docs.by_name
            .get(name)
            .and_then(|id| docs.entries.get(id))
            .map(|e| Self::info_of(e))
    }

    /// Snapshots of every entry, sorted by name.
    pub fn list(&self) -> Vec<DocInfo> {
        let mut infos: Vec<DocInfo> = {
            let docs = self.shared.docs.read().unwrap();
            docs.entries.values().map(|e| Self::info_of(e)).collect()
        };
        infos.sort_by(|a, b| a.name.cmp(&b.name));
        infos
    }

    /// Evaluates one query against the entry, through the artifact cache.
    fn evaluate_entry(
        &self,
        entry: &Arc<CatalogEntry>,
        query: &str,
    ) -> Result<QueryOutput, EvalError> {
        self.evaluate_entry_bound(entry, query, &Bindings::new())
    }

    fn evaluate_entry_bound(
        &self,
        entry: &Arc<CatalogEntry>,
        query: &str,
        bindings: &Bindings,
    ) -> Result<QueryOutput, EvalError> {
        let shared = &self.shared;
        shared.evaluations.fetch_add(1, Ordering::Relaxed);
        entry.counters.evaluations.fetch_add(1, Ordering::Relaxed);
        let entry = self.grown_for(entry, query)?;
        // A miss compiles through the engine's shared plan cache, then
        // specializes for this document snapshot, outside every lock; threads
        // missing the same key meanwhile wait for that one artifact.
        let (artifact, hit) =
            shared
                .artifacts
                .get_or_build(entry.scope(), entry.kind, query, || {
                    let plan = shared.engine.compile(query)?;
                    Ok(Arc::new(PlanArtifact::build(
                        &plan,
                        entry.id,
                        entry.generation,
                        entry.revision,
                        entry.kind,
                        &entry.prepared,
                    )))
                })?;
        if hit {
            entry.counters.artifact_hits.fetch_add(1, Ordering::Relaxed);
            if artifact.doc() != entry.id {
                // Served by an artifact another document built: the
                // content-hash sharing witness.
                shared
                    .artifact_cross_doc_hits
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut out = artifact.run_bound(bindings)?;
        if entry.kind == BackendKind::Lazy {
            // Witness the laziness: how many arena nodes the query's wave
            // actually holds (compare with the document's total to see the
            // fraction a targeted query materialized).
            out.stats.nodes_materialized = entry.prepared.node_count() as u64;
        }
        Ok(out)
    }

    /// Grows a lazy entry's resident wave to cover `query` and publishes
    /// the grown wave as a new revision; pass-through for every other
    /// backing.  Node ids are not stable across waves, so a grown wave
    /// invalidates the entry's artifacts exactly like an edit would.
    fn grown_for(
        &self,
        entry: &Arc<CatalogEntry>,
        query: &str,
    ) -> Result<Arc<CatalogEntry>, EvalError> {
        let Backing::Lazy { doc: lazy, .. } = &entry.backing else {
            return Ok(Arc::clone(entry));
        };
        let plan = self.shared.engine.compile(query)?;
        let doc = lazy
            .materialize_for(plan.expr())
            .map_err(|e| EvalError::Unsupported {
                message: format!("lazy materialization failed: {e}"),
            })?;
        if Arc::ptr_eq(&doc, &entry.prepared) {
            return Ok(Arc::clone(entry));
        }
        let tick = self.next_tick();
        let published = {
            let mut docs = self.shared.docs.write().unwrap();
            let cur = docs.entries.get(&entry.id).cloned();
            match cur {
                // Publish only onto the generation we resolved; a racing
                // replacement wins.
                Some(cur)
                    if cur.generation == entry.generation
                        && matches!(cur.backing, Backing::Lazy { .. }) =>
                {
                    let next = Arc::new(CatalogEntry {
                        name: cur.name.clone(),
                        id: cur.id,
                        generation: cur.generation,
                        revision: cur.revision + 1,
                        prepared: Arc::clone(&doc),
                        kind: cur.kind,
                        backing: cur.backing.clone(),
                        last_used: AtomicU64::new(tick),
                        counters: Arc::clone(&cur.counters),
                    });
                    docs.entries.insert(cur.id, Arc::clone(&next));
                    Some(next)
                }
                _ => None,
            }
        };
        match published {
            Some(next) => {
                self.shared
                    .artifacts
                    .release_doc(entry.id, entry.scope(), entry.kind);
                self.enforce_node_budget();
                Ok(next)
            }
            // The entry was replaced while the wave grew: evaluate against
            // our wave without publishing (an artifact inserted under the
            // stale coordinates is unreachable by future lookups and ages
            // out).
            None => Ok(Arc::new(CatalogEntry {
                name: entry.name.clone(),
                id: entry.id,
                generation: entry.generation,
                revision: entry.revision,
                prepared: doc,
                kind: entry.kind,
                backing: entry.backing.clone(),
                last_used: AtomicU64::new(tick),
                counters: Arc::clone(&entry.counters),
            })),
        }
    }

    /// Evaluates a query string against the named document, from the root
    /// context.  Repeated (query, name) pairs are served from the
    /// (query × document) artifact cache: compilation, tag resolution and
    /// strategy selection are all skipped.
    pub fn evaluate_on(&self, name: &str, query: &str) -> Result<QueryOutput, CatalogError> {
        let entry = self
            .entry(name)
            .ok_or_else(|| CatalogError::UnknownDocument {
                name: name.to_string(),
            })?;
        self.evaluate_entry(&entry, query)
            .map_err(CatalogError::Eval)
    }

    /// [`Catalog::evaluate_on`] with external variable bindings for the
    /// query's `$name` references.  The artifact cache key stays the query
    /// string alone — re-binding the same query against the same document
    /// is an artifact hit, never a recompile.
    pub fn evaluate_on_bound(
        &self,
        name: &str,
        query: &str,
        bindings: &Bindings,
    ) -> Result<QueryOutput, CatalogError> {
        let entry = self
            .entry(name)
            .ok_or_else(|| CatalogError::UnknownDocument {
                name: name.to_string(),
            })?;
        self.evaluate_entry_bound(&entry, query, bindings)
            .map_err(CatalogError::Eval)
    }

    /// Entries matching an optional glob, sorted by name, LRU-touched.
    fn select(&self, pattern: Option<&str>) -> Vec<Arc<CatalogEntry>> {
        let mut selected: Vec<Arc<CatalogEntry>> = {
            let docs = self.shared.docs.read().unwrap();
            docs.entries
                .values()
                .filter(|e| pattern.map_or(true, |p| glob_match(p, &e.name)))
                .cloned()
                .collect()
        };
        selected.sort_by(|a, b| a.name.cmp(&b.name));
        for entry in &selected {
            entry.last_used.store(self.next_tick(), Ordering::Relaxed);
        }
        selected
    }

    /// Fans one query out over **every** document, returning per-document
    /// results sorted by name.  One failing document does not poison the
    /// fan-out.
    pub fn evaluate_on_all(&self, query: &str) -> Vec<FanOut> {
        self.fan_out(self.select(None), query, &Bindings::new())
    }

    /// Fans one query out over the documents whose names match the glob
    /// `pattern` (`*` = any run, `?` = one character), sorted by name.  An
    /// empty selection returns an empty vector.
    pub fn evaluate_matching(&self, pattern: &str, query: &str) -> Vec<FanOut> {
        self.fan_out(self.select(Some(pattern)), query, &Bindings::new())
    }

    /// [`Catalog::evaluate_matching`] with one binding set shared by every
    /// selected document — the parameterized fan-out: one compiled plan,
    /// one `$name` environment, many documents.
    pub fn evaluate_matching_bound(
        &self,
        pattern: &str,
        query: &str,
        bindings: &Bindings,
    ) -> Vec<FanOut> {
        self.fan_out(self.select(Some(pattern)), query, bindings)
    }

    fn fan_out(
        &self,
        entries: Vec<Arc<CatalogEntry>>,
        query: &str,
        bindings: &Bindings,
    ) -> Vec<FanOut> {
        entries
            .into_iter()
            .map(|entry| FanOut {
                name: entry.name.clone(),
                doc: entry.id,
                generation: entry.generation,
                result: self.evaluate_entry_bound(&entry, query, bindings),
            })
            .collect()
    }

    /// Drops every cached artifact (counters are kept); documents stay.
    pub fn clear_artifacts(&self) {
        self.shared.artifacts.clear();
    }

    /// Snapshot of the catalog's counters.
    pub fn stats(&self) -> CatalogStats {
        let shared = &self.shared;
        let resident_nodes = {
            let docs = shared.docs.read().unwrap();
            docs.entries.values().map(|e| e.prepared.node_count()).sum()
        };
        let mut stats = CatalogStats {
            documents: self.len(),
            capacity: shared.capacity,
            node_budget: shared.node_budget,
            resident_nodes,
            inserts: shared.inserts.load(Ordering::Relaxed),
            replacements: shared.replacements.load(Ordering::Relaxed),
            mutations: shared.mutations.load(Ordering::Relaxed),
            removals: shared.removals.load(Ordering::Relaxed),
            evictions: shared.evictions.load(Ordering::Relaxed),
            demotions: shared.demotions.load(Ordering::Relaxed),
            resolve_hits: shared.resolve_hits.load(Ordering::Relaxed),
            resolve_misses: shared.resolve_misses.load(Ordering::Relaxed),
            evaluations: shared.evaluations.load(Ordering::Relaxed),
            artifact_cross_doc_hits: shared.artifact_cross_doc_hits.load(Ordering::Relaxed),
            ..CatalogStats::default()
        };
        shared.artifacts.fill_stats(&mut stats);
        stats
    }
}
