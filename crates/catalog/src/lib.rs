//! # xpeval-catalog — the named multi-document store
//!
//! The pipeline below this crate amortizes work along two axes: a
//! [`CompiledQuery`](xpeval_core::CompiledQuery) is compiled once per
//! *query*, a [`PreparedDocument`](xpeval_dom::PreparedDocument) is
//! indexed once per *document*.  A serving system over many documents
//! needs a third axis — the (query × document) pair — and a way to *name*
//! documents at all: `Arc` pointers cannot be shared across submission
//! boundaries, replaced atomically, or evicted by policy.
//!
//! [`Catalog`] is that layer:
//!
//! * **Named ingestion** — [`Catalog::insert_xml`] /
//!   [`Catalog::insert_document`] parse and prepare once and store the
//!   document under a human-readable name plus a stable [`DocId`] (never
//!   reused).  Re-inserting a name **replaces** the document and bumps its
//!   generation counter; capacity is bounded with LRU eviction; per-entry
//!   usage counters are observable ([`DocInfo`]).
//! * **(query × document) plan artifacts** — the first evaluation of a
//!   query against a document generation builds a [`PlanArtifact`]: the
//!   source-aware strategy choice pinned into a specialized plan, the
//!   final-step name tests resolved to the document's interned
//!   [`TagId`](xpeval_dom::TagId)s, and the candidate bound (zero bound ⇒
//!   empty result without evaluating).  Artifacts are cached keyed by
//!   (query, [`DocId`], generation), so a replacement invalidates exactly
//!   that document's artifacts and nothing else.
//! * **Fan-out evaluation** — [`Catalog::evaluate_on`] targets one name;
//!   [`Catalog::evaluate_on_all`] and [`Catalog::evaluate_matching`] (glob
//!   selection) run one query across many documents, returning
//!   per-document [`FanOut`] results.
//! * **Pluggable storage backends** — beyond the eager default,
//!   [`Catalog::insert_lazy`] stores a tokenized document that
//!   materializes subtree extents on demand (each query grows the
//!   resident wave; `EvalStats::nodes_materialized` witnesses how little
//!   a targeted query parsed), [`Catalog::insert_snapshot`] stores the
//!   decode of a zero-copy `PreparedSnapshot`, and
//!   [`Catalog::insert_tree`] accepts any non-XML `TreeProvider` (e.g.
//!   JSON).  Artifacts are additionally
//!   keyed by [`BackendKind`]; [`CatalogBuilder::node_budget`] bounds
//!   total *resident* nodes, demoting lazy entries back to their spine
//!   before evicting anyone.
//! * **Observability** — [`CatalogStats`] counts inserts, replacements,
//!   evictions, demotions, resolve hits, artifact
//!   hits/misses/invalidations, with a one-line
//!   [`Display`](std::fmt::Display) form in the family of `CacheStats`
//!   and `ServeStats`.
//!
//! ## Quickstart
//!
//! ```
//! use xpeval_catalog::Catalog;
//!
//! let catalog = Catalog::builder().capacity(64).build();
//! catalog.insert_xml("orders", "<orders><order id='1'/><order id='2'/></orders>").unwrap();
//! catalog.insert_xml("invoices", "<invoices><invoice/></invoices>").unwrap();
//!
//! // Target one document by name; repeats hit the artifact cache.
//! for _ in 0..10 {
//!     let out = catalog.evaluate_on("orders", "count(//order)").unwrap();
//!     assert_eq!(out.value, xpeval_core::Value::Number(2.0));
//! }
//! assert!(catalog.stats().artifact_hits >= 9);
//!
//! // Fan one query out over every document.
//! let results = catalog.evaluate_on_all("count(//*)");
//! assert_eq!(results.len(), 2);
//!
//! // Replacing a document bumps its generation and invalidates exactly
//! // its artifacts.
//! catalog.insert_xml("orders", "<orders/>").unwrap();
//! assert_eq!(catalog.generation("orders"), Some(2));
//! ```
//!
//! The serving layer (`xpeval-serve`) accepts a catalog reference so
//! asynchronous submissions can target documents by name too.

pub mod artifact;
pub(crate) mod glob;
pub mod stats;
pub mod store;

pub use artifact::{ArtifactScope, PlanArtifact};
pub use stats::{CatalogStats, DocInfo};
pub use store::{Catalog, CatalogBuilder, CatalogError, DocId, FanOut, MutationOutcome};
pub use xpeval_backends::BackendKind;
pub use xpeval_live::{LiveDocument, PendingEdits};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xpeval_core::{EvalError, Value};
    use xpeval_dom::parse_xml;

    #[test]
    fn insert_resolve_get_roundtrip() {
        let catalog = Catalog::new();
        let id = catalog.insert_xml("a", "<r><x/></r>").unwrap();
        assert_eq!(catalog.resolve("a"), Some(id));
        assert!(catalog.contains("a"));
        assert_eq!(catalog.len(), 1);
        assert_eq!(catalog.generation("a"), Some(1));
        let prepared = catalog.get("a").unwrap();
        assert_eq!(prepared.node_count(), 3);
        assert!(Arc::ptr_eq(&prepared, &catalog.get_by_id(id).unwrap()));
        assert_eq!(catalog.resolve("nosuch"), None);
        let s = catalog.stats();
        assert_eq!((s.inserts, s.resolve_hits, s.resolve_misses), (1, 2, 1));
    }

    #[test]
    fn insert_xml_reports_parse_errors() {
        let catalog = Catalog::new();
        let err = catalog.insert_xml("bad", "<r><unclosed>").unwrap_err();
        assert!(matches!(err, CatalogError::Xml(_)), "{err:?}");
        assert!(!catalog.contains("bad"));
    }

    #[test]
    fn replacement_keeps_the_id_and_bumps_the_generation() {
        let catalog = Catalog::new();
        let id1 = catalog.insert_xml("doc", "<r><a/></r>").unwrap();
        let id2 = catalog.insert_xml("doc", "<r><a/><a/></r>").unwrap();
        assert_eq!(id1, id2);
        assert_eq!(catalog.generation("doc"), Some(2));
        assert_eq!(catalog.len(), 1);
        let out = catalog.evaluate_on("doc", "count(//a)").unwrap();
        assert_eq!(out.value, Value::Number(2.0));
        let s = catalog.stats();
        assert_eq!((s.inserts, s.replacements), (1, 1));
    }

    #[test]
    fn evaluate_on_repeats_hit_the_artifact_cache() {
        let catalog = Catalog::new();
        catalog.insert_xml("d", "<r><a/><b/><a/></r>").unwrap();
        for _ in 0..5 {
            let out = catalog.evaluate_on("d", "//a").unwrap();
            assert_eq!(out.value.expect_nodes().len(), 2);
        }
        let s = catalog.stats();
        assert_eq!(s.artifact_misses, 1, "{s}");
        assert_eq!(s.artifact_hits, 4, "{s}");
        assert_eq!(s.evaluations, 5, "{s}");
        let info = catalog.info("d").unwrap();
        assert_eq!((info.evaluations, info.artifact_hits), (5, 4));
    }

    #[test]
    fn replacement_invalidates_only_its_own_artifacts() {
        let catalog = Catalog::new();
        catalog.insert_xml("left", "<r><a/></r>").unwrap();
        catalog.insert_xml("right", "<r><a/><a/></r>").unwrap();
        catalog.evaluate_on("left", "//a").unwrap();
        catalog.evaluate_on("right", "//a").unwrap();
        assert_eq!(catalog.stats().artifact_len, 2);

        catalog.insert_xml("left", "<r/>").unwrap();
        let s = catalog.stats();
        assert_eq!(s.artifact_len, 1, "{s}");
        assert_eq!(s.artifact_invalidations, 1, "{s}");

        // The replaced document evaluates against its new generation...
        assert_eq!(
            catalog.evaluate_on("left", "//a").unwrap().value,
            Value::NodeSet(Vec::new())
        );
        // ...and the untouched document still hits its artifact.
        let hits_before = catalog.stats().artifact_hits;
        catalog.evaluate_on("right", "//a").unwrap();
        assert_eq!(catalog.stats().artifact_hits, hits_before + 1);
    }

    #[test]
    fn identical_documents_share_one_artifact() {
        let catalog = Catalog::new();
        let xml = "<library><book><title/></book><book><title/></book></library>";
        catalog.insert_xml("mirror-a", xml).unwrap();
        catalog.insert_xml("mirror-b", xml).unwrap();

        let a = catalog.evaluate_on("mirror-a", "//book/title").unwrap();
        let b = catalog.evaluate_on("mirror-b", "//book/title").unwrap();
        assert_eq!(a.value, b.value);

        let s = catalog.stats();
        // One build served both names: the second evaluation hit the
        // artifact built for the first document.
        assert_eq!(s.artifact_misses, 1, "{s}");
        assert_eq!(s.artifact_hits, 1, "{s}");
        assert_eq!(s.artifact_len, 1, "{s}");
        assert_eq!(s.artifact_cross_doc_hits, 1, "{s}");
        assert!(s.to_string().contains("cross_doc_hits 1"), "{s}");

        // Divergence ends the sharing: replacing one copy with different
        // content leaves the other copy's artifact alive and hot.
        catalog.insert_xml("mirror-a", "<library/>").unwrap();
        let hits = catalog.stats().artifact_hits;
        catalog.evaluate_on("mirror-b", "//book/title").unwrap();
        let s = catalog.stats();
        assert_eq!(s.artifact_hits, hits + 1, "{s}");
        assert_eq!(s.artifact_len, 1, "{s}");
    }

    #[test]
    fn replacement_with_identical_content_keeps_the_shared_artifact() {
        let catalog = Catalog::new();
        let xml = "<r><a/><b/><a/></r>";
        catalog.insert_xml("d", xml).unwrap();
        catalog.evaluate_on("d", "//a").unwrap();
        assert_eq!(catalog.stats().artifact_misses, 1);

        // Re-inserting byte-identical content under the same name bumps
        // the generation but lands on the same content hash, so the
        // artifact survives and the next evaluation is a hit.
        catalog.insert_xml("d", xml).unwrap();
        let out = catalog.evaluate_on("d", "//a").unwrap();
        assert_eq!(out.value.expect_nodes().len(), 2);
        let s = catalog.stats();
        assert_eq!(s.replacements, 1, "{s}");
        assert_eq!(s.artifact_misses, 1, "{s}");
        assert_eq!(s.artifact_hits, 1, "{s}");
        assert_eq!(s.artifact_invalidations, 0, "{s}");
    }

    #[test]
    fn capacity_evicts_the_least_recently_used_document() {
        let catalog = Catalog::builder().capacity(2).build();
        catalog.insert_xml("a", "<a/>").unwrap();
        catalog.insert_xml("b", "<b/>").unwrap();
        catalog.evaluate_on("a", "count(//*)").unwrap(); // touch a
        catalog.insert_xml("c", "<c/>").unwrap(); // evicts b
        assert!(catalog.contains("a"));
        assert!(!catalog.contains("b"));
        assert!(catalog.contains("c"));
        let s = catalog.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.documents, 2);
        assert!(matches!(
            catalog.evaluate_on("b", "count(//*)"),
            Err(CatalogError::UnknownDocument { .. })
        ));
    }

    #[test]
    fn remove_retires_the_name_and_purges_artifacts() {
        let catalog = Catalog::new();
        catalog.insert_xml("d", "<r><a/></r>").unwrap();
        catalog.evaluate_on("d", "//a").unwrap();
        assert_eq!(catalog.stats().artifact_len, 1);
        assert!(catalog.remove("d"));
        assert!(!catalog.remove("d"));
        assert_eq!(catalog.stats().artifact_len, 0);
        assert_eq!(catalog.stats().removals, 1);
        assert!(catalog.get("d").is_none());
    }

    #[test]
    fn fan_out_covers_all_and_glob_selects() {
        let catalog = Catalog::new();
        catalog.insert_xml("orders-1", "<r><x/></r>").unwrap();
        catalog.insert_xml("orders-2", "<r><x/><x/></r>").unwrap();
        catalog.insert_xml("invoices", "<r/>").unwrap();

        let all = catalog.evaluate_on_all("count(//x)");
        assert_eq!(all.len(), 3);
        // Sorted by name.
        let names: Vec<&str> = all.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["invoices", "orders-1", "orders-2"]);
        assert_eq!(all[1].result.as_ref().unwrap().value, Value::Number(1.0));

        let some = catalog.evaluate_matching("orders-*", "count(//x)");
        assert_eq!(some.len(), 2);
        assert_eq!(some[1].result.as_ref().unwrap().value, Value::Number(2.0));
        assert!(catalog.evaluate_matching("nomatch-*", "1").is_empty());
    }

    #[test]
    fn fan_out_does_not_poison_on_a_failing_document() {
        // A query that is fine on one document shape and errors on
        // another is hard to construct (evaluation is total); a failing
        // *compile* errors on every document, which still exercises the
        // per-document Result slots.
        let catalog = Catalog::new();
        catalog.insert_xml("a", "<r/>").unwrap();
        catalog.insert_xml("b", "<r/>").unwrap();
        let results = catalog.evaluate_on_all("//[");
        assert_eq!(results.len(), 2);
        for f in &results {
            assert!(matches!(f.result, Err(EvalError::Parse { .. })), "{f:?}");
        }
    }

    #[test]
    fn handles_share_the_store() {
        let catalog = Catalog::new();
        let clone = catalog.clone();
        catalog.insert_xml("d", "<r/>").unwrap();
        assert!(clone.contains("d"));
        clone.evaluate_on("d", "count(//*)").unwrap();
        assert_eq!(catalog.stats().evaluations, 1);
    }

    #[test]
    fn ids_are_never_reused() {
        let catalog = Catalog::new();
        let id1 = catalog.insert_xml("a", "<a/>").unwrap();
        assert!(catalog.remove("a"));
        let id2 = catalog.insert_xml("a", "<a/>").unwrap();
        assert_ne!(id1, id2, "a removed id must not be recycled");
        assert_eq!(catalog.resolve("a"), Some(id2));
    }

    #[test]
    fn catalogs_sharing_an_engine_mint_distinct_ids() {
        // DocIds come from one process-global counter, so two catalogs on
        // one engine never hand out the same id — and removing from one
        // catalog leaves the other's document answerable.
        let engine = xpeval_core::Engine::builder().build();
        let a = Catalog::builder().engine(engine.clone()).build();
        let b = Catalog::builder().engine(engine).build();
        let id_a = a.insert_xml("d", "<r><x/></r>").unwrap();
        let id_b = b.insert_xml("d", "<r/>").unwrap();
        assert_ne!(id_a, id_b, "ids are process-unique");
        assert!(a.remove("d"));
        assert_eq!(
            b.evaluate_on("d", "count(//*)").unwrap().value,
            Value::Number(1.0)
        );
    }

    #[test]
    fn retired_documents_are_freed() {
        use std::sync::Weak;
        use xpeval_dom::PreparedDocument;
        // The catalog is the only owner of a prepared document: once its
        // entry is replaced, removed or evicted, nothing keeps it alive.
        // Each document is evaluated first so that it has a plan artifact.
        fn held(catalog: &Catalog, name: &str) -> Weak<PreparedDocument> {
            catalog.evaluate_on(name, "//x").unwrap();
            Arc::downgrade(&catalog.get(name).unwrap())
        }

        let catalog = Catalog::new();
        catalog.insert_xml("d", "<r><x/></r>").unwrap();
        let v1 = held(&catalog, "d");
        catalog.insert_xml("d", "<r><x/><x/></r>").unwrap();
        assert!(v1.upgrade().is_none(), "replaced through insert_xml");
        let v2 = held(&catalog, "d");
        let v3 = Arc::new(PreparedDocument::new(parse_xml("<r/>").unwrap()));
        catalog.insert_prepared("d", v3);
        assert!(v2.upgrade().is_none(), "replaced through insert_prepared");
        assert_eq!(catalog.generation("d"), Some(3));
        assert_eq!(
            catalog.evaluate_on("d", "count(//x)").unwrap().value,
            Value::Number(0.0)
        );

        let v3 = held(&catalog, "d");
        assert!(catalog.remove("d"));
        assert!(v3.upgrade().is_none(), "removed");

        let catalog = Catalog::builder().capacity(2).build();
        catalog.insert_xml("a", "<a><x/></a>").unwrap();
        let a = held(&catalog, "a");
        catalog.insert_xml("b", "<b/>").unwrap();
        catalog.insert_xml("c", "<c/>").unwrap(); // evicts a
        assert_eq!(catalog.stats().evictions, 1);
        assert!(a.upgrade().is_none(), "evicted");
    }

    #[test]
    fn mutation_frees_the_pre_edit_document() {
        // An in-place edit publishes a new prepared document; the entry's
        // previous one is held by nobody afterwards.
        let catalog = Catalog::new();
        catalog.insert_xml("d", "<r><x/></r>").unwrap();
        catalog.evaluate_on("d", "//x").unwrap();
        let before = Arc::downgrade(&catalog.get("d").unwrap());
        catalog
            .mutate_named("d", |live| {
                let x = live.elements_named("x")[0];
                live.set_attribute(x, "k", "v").unwrap();
            })
            .unwrap();
        assert!(before.upgrade().is_none(), "pre-edit document still alive");
        assert_eq!(
            catalog
                .evaluate_on("d", "count(//x[@k = 'v'])")
                .unwrap()
                .value,
            Value::Number(1.0)
        );
    }

    #[test]
    fn one_document_under_two_names_is_owned_per_name() {
        // Each name prepares and owns its own copy of a shared source
        // document; the source lives exactly as long as some entry does.
        let doc = Arc::new(parse_xml("<r><x/><x/></r>").unwrap());
        let source = Arc::downgrade(&doc);
        let catalog = Catalog::new();
        catalog.insert_document("a", Arc::clone(&doc));
        catalog.insert_document("b", doc);
        let (a, b) = (catalog.get("a").unwrap(), catalog.get("b").unwrap());
        assert!(!Arc::ptr_eq(&a, &b), "one prepared document per name");
        assert!(std::ptr::eq(a.document(), b.document()), "no tree copy");
        drop((a, b));
        for name in ["a", "b"] {
            assert_eq!(
                catalog.evaluate_on(name, "count(//x)").unwrap().value,
                Value::Number(2.0)
            );
        }
        assert!(catalog.remove("a"));
        assert!(source.upgrade().is_some(), "\"b\" still holds the source");
        assert!(catalog.remove("b"));
        assert!(source.upgrade().is_none(), "the source outlived its names");
    }

    #[test]
    fn plans_outlive_the_documents_they_ran_on() {
        // The engine keeps compiled plans, not documents: a query compiled
        // for a removed document is a plan-cache hit for its successor.
        let catalog = Catalog::new();
        catalog.insert_xml("d", "<r><x/></r>").unwrap();
        catalog.evaluate_on("d", "count(//x)").unwrap();
        assert!(catalog.remove("d"));
        catalog.insert_xml("e", "<r><x/><x/></r>").unwrap();
        assert_eq!(
            catalog.evaluate_on("e", "count(//x)").unwrap().value,
            Value::Number(2.0)
        );
        let s = catalog.engine().cache_stats();
        assert_eq!((s.misses, s.len), (1, 1), "{s:?}");
        assert!(s.hits >= 1, "{s:?}");
    }

    #[test]
    fn unnamed_documents_share_the_engine_caches() {
        // The catalog evaluates through its engine: plans compiled by
        // catalog evaluations are plan-cache hits for direct engine users
        // and vice versa.
        let catalog = Catalog::new();
        catalog.insert_xml("d", "<r><a/></r>").unwrap();
        catalog.evaluate_on("d", "//a").unwrap();
        let engine = catalog.engine().clone();
        let doc = Arc::new(parse_xml("<r><a/></r>").unwrap());
        engine.evaluate_str(&doc, "//a").unwrap();
        let s = engine.cache_stats();
        assert_eq!((s.misses, s.hits), (1, 1), "{s:?}");
    }

    #[test]
    fn list_is_sorted_and_carries_usage() {
        let catalog = Catalog::new();
        catalog.insert_xml("b", "<r/>").unwrap();
        catalog.insert_xml("a", "<r><x/></r>").unwrap();
        catalog.evaluate_on("a", "count(//x)").unwrap();
        let list = catalog.list();
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].name, "a");
        assert_eq!(list[0].node_count, 3);
        assert_eq!(list[0].evaluations, 1);
        assert_eq!(list[1].name, "b");
        assert_eq!(catalog.names(), ["a", "b"]);
        assert_eq!(catalog.info("nosuch"), None);
    }

    #[test]
    fn mutate_named_edits_in_place_and_bumps_the_revision() {
        let catalog = Catalog::new();
        catalog.insert_xml("d", "<r><item/><item/></r>").unwrap();
        assert_eq!(catalog.revision("d"), Some(0));
        let out = catalog
            .mutate_named("d", |live| {
                let r = live.first_child(live.root()).unwrap();
                live.insert_subtree(r, 2, &parse_xml("<item new=\"1\"/>").unwrap())
                    .map(|o| o.inserted.len())
            })
            .unwrap();
        assert_eq!(out.value.unwrap(), 2, "element + attribute");
        assert_eq!(out.revision, 1);
        assert_eq!(out.generation, 1, "mutation does not bump the generation");
        let edits = out.edits.unwrap();
        assert_eq!(edits.edits, 1);
        assert!(!edits.renumbered);
        assert_eq!(catalog.revision("d"), Some(1));
        assert_eq!(catalog.generation("d"), Some(1));
        assert_eq!(
            catalog.evaluate_on("d", "count(//item)").unwrap().value,
            Value::Number(3.0)
        );
        let info = catalog.info("d").unwrap();
        assert_eq!((info.generation, info.revision), (1, 1));
        assert_eq!(catalog.stats().mutations, 1);
        // By-id addressing reaches the same entry.
        let id = catalog.resolve("d").unwrap();
        let out = catalog
            .mutate(id, |live| {
                let item = live.elements_named("item")[0];
                live.remove_subtree(item).map(|o| o.removed)
            })
            .unwrap();
        assert!(out.value.is_ok());
        assert_eq!(out.revision, 2);
        assert_eq!(
            catalog.evaluate_on("d", "count(//item)").unwrap().value,
            Value::Number(2.0)
        );
    }

    #[test]
    fn mutate_errors_on_unknown_targets() {
        let catalog = Catalog::new();
        assert!(matches!(
            catalog.mutate_named("nosuch", |_| ()),
            Err(CatalogError::UnknownDocument { .. })
        ));
        let foreign = DocId::from_raw(u64::MAX);
        assert!(matches!(
            catalog.mutate(foreign, |_| ()),
            Err(CatalogError::UnknownDocId { .. })
        ));
    }

    #[test]
    fn a_no_op_mutation_publishes_nothing() {
        let catalog = Catalog::new();
        catalog.insert_xml("d", "<r><a/></r>").unwrap();
        catalog.evaluate_on("d", "//a").unwrap();
        let before = catalog.get("d").unwrap();
        // A closure that only *fails* to edit also publishes nothing.
        let out = catalog
            .mutate_named("d", |live| {
                let root = live.root();
                live.remove_subtree(root).unwrap_err()
            })
            .unwrap();
        assert_eq!(out.revision, 0);
        assert!(out.edits.is_none());
        assert_eq!(catalog.stats().mutations, 0);
        assert!(Arc::ptr_eq(&before, &catalog.get("d").unwrap()));
        // The cached artifact is still live (same revision key).
        let hits = catalog.stats().artifact_hits;
        catalog.evaluate_on("d", "//a").unwrap();
        assert_eq!(catalog.stats().artifact_hits, hits + 1);
    }

    #[test]
    fn mutation_kills_intersecting_artifacts_and_preserves_the_rest() {
        let catalog = Catalog::new();
        catalog
            .insert_xml("d", "<r><left><a/></left><right><b/><b/></right></r>")
            .unwrap();
        // Cache three artifacts: one whose candidates live in the edited
        // subtree, one outside it, one verified-empty.
        assert_eq!(
            catalog
                .evaluate_on("d", "//a")
                .unwrap()
                .value
                .expect_nodes()
                .len(),
            1
        );
        assert_eq!(
            catalog
                .evaluate_on("d", "//b")
                .unwrap()
                .value
                .expect_nodes()
                .len(),
            2
        );
        assert_eq!(
            catalog.evaluate_on("d", "//nosuch").unwrap().value,
            Value::NodeSet(Vec::new())
        );
        assert_eq!(catalog.stats().artifact_len, 3);

        let out = catalog
            .mutate_named("d", |live| {
                let left = live.elements_named("left")[0];
                live.insert_subtree(left, 1, &parse_xml("<a/>").unwrap())
                    .unwrap();
            })
            .unwrap();
        assert_eq!(out.artifacts_killed, 1, "only //a intersects the edit");
        assert_eq!(out.artifacts_preserved, 2);

        // The preserved artifacts answer the new revision as cache hits —
        // //nosuch keeps its verified-empty shortcut (zero work counters).
        let hits = catalog.stats().artifact_hits;
        assert_eq!(
            catalog
                .evaluate_on("d", "//b")
                .unwrap()
                .value
                .expect_nodes()
                .len(),
            2
        );
        let empty = catalog.evaluate_on("d", "//nosuch").unwrap();
        assert_eq!(empty.value, Value::NodeSet(Vec::new()));
        assert_eq!(empty.stats.evaluations, 0, "verified shortcut survived");
        assert_eq!(catalog.stats().artifact_hits, hits + 2);
        // The killed artifact re-specializes and sees the edit.
        assert_eq!(
            catalog
                .evaluate_on("d", "//a")
                .unwrap()
                .value
                .expect_nodes()
                .len(),
            2
        );
        let s = catalog.stats();
        assert_eq!(s.artifact_scope_killed, 1, "{s}");
        assert_eq!(s.artifact_scope_preserved, 2, "{s}");
        let line = s.to_string();
        assert!(line.contains("scope_killed 1"), "{line}");
        assert!(line.contains("scope_preserved 2"), "{line}");

        // A removal inside `right` kills //b (candidates in the *old*
        // snapshot intersect the dirty interval) and preserves //a.
        let out = catalog
            .mutate_named("d", |live| {
                let b = live.elements_named("b")[0];
                live.remove_subtree(b).unwrap();
            })
            .unwrap();
        assert_eq!(out.artifacts_killed, 1);
        assert_eq!(out.artifacts_preserved, 2);
        assert_eq!(
            catalog.evaluate_on("d", "count(//b)").unwrap().value,
            Value::Number(1.0)
        );
        assert_eq!(
            catalog.evaluate_on("d", "count(//a)").unwrap().value,
            Value::Number(2.0)
        );
    }

    #[test]
    fn replacement_still_resets_the_revision() {
        let catalog = Catalog::new();
        catalog.insert_xml("d", "<r><a/></r>").unwrap();
        catalog
            .mutate_named("d", |live| {
                let a = live.elements_named("a")[0];
                live.set_attribute(a, "k", "v").unwrap();
            })
            .unwrap();
        assert_eq!(catalog.revision("d"), Some(1));
        catalog.insert_xml("d", "<r/>").unwrap();
        assert_eq!(catalog.generation("d"), Some(2));
        assert_eq!(catalog.revision("d"), Some(0));
    }

    #[test]
    fn display_line_mentions_the_moving_parts() {
        let catalog = Catalog::builder().capacity(8).build();
        catalog.insert_xml("d", "<r/>").unwrap();
        catalog.evaluate_on("d", "count(//*)").unwrap();
        catalog.evaluate_on("d", "count(//*)").unwrap();
        let line = catalog.stats().to_string();
        assert!(line.contains("docs 1/8"), "{line}");
        assert!(line.contains("hits 1/2 (50.0%)"), "{line}");
    }

    /// A 3-group document whose leaf subtrees are comfortably above the
    /// tiny-document collapse and give lazy tokenization real extents
    /// under the default threshold... sized so each <g> is < 1024 bytes
    /// (an extent) while the whole document is > 1024 (root on the spine).
    fn grouped_xml() -> String {
        let mut xml = String::from("<r>");
        for g in 0..3 {
            xml.push_str(&format!("<g{g}>"));
            for i in 0..20 {
                xml.push_str(&format!("<leaf{g} n='{i}'>payload {g} {i}</leaf{g}>"));
            }
            xml.push_str(&format!("</g{g}>"));
        }
        xml.push_str("</r>");
        xml
    }

    #[test]
    fn lazy_entries_materialize_per_query_and_witness_it() {
        let catalog = Catalog::new();
        let xml = grouped_xml();
        catalog.insert_lazy("d", &xml).unwrap();
        assert_eq!(catalog.backend_kind("d"), Some(BackendKind::Lazy));
        let total = xpeval_dom::parse_xml(&xml).unwrap().prepare().node_count();
        // The cold entry holds only the spine wave.
        let spine = catalog.info("d").unwrap().node_count;
        assert!(spine < total, "spine {spine} vs total {total}");

        // A targeted query materializes its group only — and the stats
        // witness the resident count.
        let out = catalog.evaluate_on("d", "count(//leaf1)").unwrap();
        assert_eq!(out.value, Value::Number(20.0));
        let resident = out.stats.nodes_materialized as usize;
        assert!(resident > spine && resident < total, "resident {resident}");
        assert_eq!(catalog.info("d").unwrap().node_count, resident);
        // Each wave bumps the revision (node ids are not stable across
        // waves, so artifacts must not survive).
        assert_eq!(catalog.revision("d"), Some(1));

        // Repeating the query does not grow the wave again...
        let repeat = catalog.evaluate_on("d", "count(//leaf1)").unwrap();
        assert_eq!(repeat.value, Value::Number(20.0));
        assert_eq!(catalog.revision("d"), Some(1));
        assert!(catalog.stats().artifact_hits >= 1);

        // ...and the lazy answers agree with an eager insert.
        catalog.insert_xml("eager", &xml).unwrap();
        for q in ["count(//leaf0)", "count(//leaf2)", "//leaf1[@n = '3']"] {
            let lazy = catalog.evaluate_on("d", q).unwrap();
            let eager = catalog.evaluate_on("eager", q).unwrap();
            match (&lazy.value, &eager.value) {
                (Value::NodeSet(a), Value::NodeSet(b)) => assert_eq!(a.len(), b.len(), "{q}"),
                (a, b) => assert_eq!(a, b, "{q}"),
            }
        }
        assert_eq!(catalog.info("d").unwrap().node_count, total);
    }

    #[test]
    fn wildcard_under_named_ancestor_stays_lazy() {
        // `//g1/*` pins the context at <g1>, so the wildcard child step
        // needs only that group's extent — the wave stays a strict subset
        // and `nodes_materialized` witnesses it.
        let catalog = Catalog::new();
        let xml = grouped_xml();
        catalog.insert_lazy("d", &xml).unwrap();
        let total = xpeval_dom::parse_xml(&xml).unwrap().prepare().node_count();
        let spine = catalog.info("d").unwrap().node_count;
        let out = catalog.evaluate_on("d", "count(//g1/*)").unwrap();
        assert_eq!(out.value, Value::Number(20.0));
        let resident = out.stats.nodes_materialized as usize;
        assert!(
            resident > spine && resident < total,
            "resident {resident} spine {spine} total {total}"
        );
    }

    #[test]
    fn mutating_a_lazy_entry_promotes_it_to_eager() {
        let catalog = Catalog::new();
        catalog.insert_lazy("d", &grouped_xml()).unwrap();
        let out = catalog
            .mutate_named("d", |live| {
                let leaf = live.elements_named("leaf2")[0];
                live.set_attribute(leaf, "edited", "yes").unwrap();
            })
            .unwrap();
        assert!(out.edits.is_some());
        assert_eq!(catalog.backend_kind("d"), Some(BackendKind::Eager));
        let hit = catalog
            .evaluate_on("d", "count(//leaf2[@edited = 'yes'])")
            .unwrap();
        assert_eq!(hit.value, Value::Number(1.0));
        // Eager entries do not stamp the laziness witness.
        assert_eq!(hit.stats.nodes_materialized, 0);
    }

    #[test]
    fn node_budget_demotes_lazy_entries_before_evicting_anyone() {
        let xml = grouped_xml();
        let total = xpeval_dom::parse_xml(&xml).unwrap().prepare().node_count();
        // Budget fits both documents at spine size plus one materialized
        // wave, but not both fully materialized.
        let catalog = Catalog::builder().node_budget(total + total / 2).build();
        catalog.insert_lazy("a", &xml).unwrap();
        catalog.insert_lazy("b", &xml).unwrap();
        // Materialize both fully (wildcard bails the tag analysis).
        catalog.evaluate_on("a", "count(//*)").unwrap();
        catalog.evaluate_on("b", "count(//*)").unwrap();
        let stats = catalog.stats();
        // Both documents survived: demotion, not eviction, paid the debt.
        assert_eq!(stats.documents, 2, "{stats}");
        assert_eq!(stats.evictions, 0, "{stats}");
        assert!(stats.demotions >= 1, "{stats}");
        assert!(stats.resident_nodes <= stats.node_budget, "{stats}");
        // "a" (the LRU entry) was demoted back to its spine; it still
        // answers queries by re-growing.
        assert!(catalog.info("a").unwrap().node_count < total);
        assert_eq!(
            catalog.evaluate_on("a", "count(//leaf0)").unwrap().value,
            Value::Number(20.0)
        );
    }

    #[test]
    fn node_budget_evicts_lru_eager_entries_but_never_the_newest() {
        let catalog = Catalog::builder().node_budget(10).build();
        catalog.insert_xml("old", "<r><a/><a/><a/></r>").unwrap();
        catalog.insert_xml("huge", &grouped_xml()).unwrap();
        // "huge" alone exceeds the budget: the LRU entry goes, the newest
        // stays (over budget, alone).
        assert!(!catalog.contains("old"));
        assert!(catalog.contains("huge"));
        assert_eq!(catalog.stats().evictions, 1);
    }

    #[test]
    fn snapshot_entries_share_the_decoded_document() {
        use xpeval_backends::PreparedSnapshot;
        let prepared = xpeval_dom::parse_xml("<r><a/><b/><a/></r>")
            .unwrap()
            .prepare();
        let bytes = PreparedSnapshot::to_bytes(&prepared);
        let snapshot = Arc::new(PreparedSnapshot::from_bytes(bytes).unwrap());
        let catalog = Catalog::new();
        catalog.insert_snapshot("d", &snapshot).unwrap();
        assert_eq!(catalog.backend_kind("d"), Some(BackendKind::Snapshot));
        assert_eq!(
            catalog.evaluate_on("d", "count(//a)").unwrap().value,
            Value::Number(2.0)
        );
        // The catalog holds the snapshot's own decode, not a second copy.
        assert!(Arc::ptr_eq(
            &catalog.get("d").unwrap(),
            &snapshot.document().unwrap()
        ));
        // Mutation promotes to eager (the byte image is released).
        catalog
            .mutate_named("d", |live| {
                let a = live.elements_named("a")[0];
                live.set_attribute(a, "k", "v").unwrap();
            })
            .unwrap();
        assert_eq!(catalog.backend_kind("d"), Some(BackendKind::Eager));
    }

    #[test]
    fn snapshot_entries_do_not_pin_the_byte_image() {
        use xpeval_backends::PreparedSnapshot;
        let prepared = xpeval_dom::parse_xml("<r><a/><b/><a/></r>")
            .unwrap()
            .prepare();
        let bytes = PreparedSnapshot::to_bytes(&prepared);
        let snapshot = Arc::new(PreparedSnapshot::from_bytes(bytes).unwrap());
        let catalog = Catalog::new();
        catalog.insert_snapshot("d", &snapshot).unwrap();
        let image = Arc::downgrade(&snapshot);
        drop(snapshot);
        assert!(image.upgrade().is_none(), "the entry keeps no snapshot");
        assert_eq!(catalog.backend_kind("d"), Some(BackendKind::Snapshot));
        assert_eq!(
            catalog.evaluate_on("d", "count(//a)").unwrap().value,
            Value::Number(2.0)
        );
    }

    #[test]
    fn corrupt_snapshots_surface_as_backend_errors() {
        use xpeval_backends::PreparedSnapshot;
        let prepared = xpeval_dom::parse_xml("<r/>").unwrap().prepare();
        let mut bytes = PreparedSnapshot::to_bytes(&prepared);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert!(PreparedSnapshot::from_bytes(bytes).is_err());
    }

    #[test]
    fn tree_provider_documents_enter_the_catalog() {
        use xpeval_backends::JsonProvider;
        let catalog = Catalog::new();
        let provider = JsonProvider::new(r#"{"item": [{"@id": "1"}, {"@id": "2"}]}"#);
        catalog.insert_tree("j", &provider).unwrap();
        assert_eq!(catalog.backend_kind("j"), Some(BackendKind::Tree));
        assert_eq!(
            catalog.evaluate_on("j", "count(//item)").unwrap().value,
            Value::Number(2.0)
        );
        let bad = JsonProvider::new("{broken");
        assert!(matches!(
            catalog.insert_tree("bad", &bad),
            Err(CatalogError::Backend { .. })
        ));
        assert!(!catalog.contains("bad"));
    }
}
