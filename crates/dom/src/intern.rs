//! Workspace-global tag-name interning.
//!
//! Every element tag name in the process is interned exactly once into a
//! lock-sharded symbol table, and [`TagId`]s are handed out from a single
//! global counter — so the id of `"book"` is the same in every document,
//! every [`crate::PreparedDocument`] and every compiled query plan.  This is
//! what lets a plan artifact carry pre-resolved name tests that stay valid
//! across documents (and therefore lets equal documents share one artifact):
//! ids compare globally instead of being private to the document that
//! minted them.
//!
//! Concurrency: lookups and inserts take one shard mutex (the shard is
//! picked by the name's hash, so one name always lands on the same shard and
//! can never be assigned two ids); id allocation additionally takes the
//! global name-table write lock, in that order.  [`tag_name`] only takes the
//! name-table read lock.  Interned strings are leaked, which is what makes
//! `&'static str` resolution lock-free after the table read — tag names are
//! schema vocabulary, a small bounded set in practice, so the leak is the
//! usual symbol-table trade.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::{Mutex, OnceLock, RwLock};

/// A workspace-globally interned element tag name.
///
/// Ids are dense indexes into the global symbol table in first-interning
/// order across the whole process: the same tag name resolves to the same id
/// in every document.  Resolving a name to its id ([`intern`],
/// [`crate::PreparedDocument::tag_id`]) pays the string hash once; every
/// id-keyed lookup afterwards ([`crate::PreparedDocument::elements_by_tag`],
/// [`crate::PreparedDocument::children_by_tag`]) is an array index.  This is
/// the hook document-specialized plan artifacts build on: resolve a query's
/// name tests once at lowering time, evaluate against any document forever.
///
/// A document that never saw a tag simply has no index entry for its id:
/// id-keyed lookups against it return empty sets, never wrong ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TagId(pub(crate) u32);

impl TagId {
    /// The dense index of this id in the global symbol table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Number of mutex-protected map shards.  Sixteen keeps contention
/// negligible for the 8-thread catalog storms the test suite runs while
/// staying cache-friendly.
const SHARD_COUNT: usize = 16;

struct Interner {
    /// name → id, sharded by the name's hash so a given name always lands
    /// on the same shard (the uniqueness argument for ids).
    shards: [Mutex<HashMap<&'static str, TagId>>; SHARD_COUNT],
    /// id → name, append-only; the allocation point for new ids.
    names: RwLock<Vec<&'static str>>,
    hasher: RandomState,
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| Interner {
        shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        names: RwLock::new(Vec::new()),
        hasher: RandomState::new(),
    })
}

fn shard_of(table: &Interner, name: &str) -> usize {
    let mut h = table.hasher.build_hasher();
    h.write(name.as_bytes());
    (h.finish() as usize) % SHARD_COUNT
}

/// Interns `name`, returning its global [`TagId`].  Idempotent and
/// thread-safe: every caller in the process gets the same id for the same
/// name.
pub fn intern(name: &str) -> TagId {
    let table = interner();
    let mut shard = table.shards[shard_of(table, name)].lock().unwrap();
    if let Some(&id) = shard.get(name) {
        return id;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    let mut names = table.names.write().unwrap();
    let id = TagId(u32::try_from(names.len()).expect("global tag table overflowed u32"));
    names.push(leaked);
    drop(names);
    shard.insert(leaked, id);
    id
}

/// The id `name` was interned under, without interning it; `None` when the
/// name has never been seen by this process.
pub fn lookup(name: &str) -> Option<TagId> {
    let table = interner();
    let shard = table.shards[shard_of(table, name)].lock().unwrap();
    shard.get(name).copied()
}

/// The name behind a global [`TagId`].
///
/// # Panics
/// Panics if `id` did not come from [`intern`] (ids cannot be forged outside
/// this crate, so this only fires on internal corruption).
pub fn tag_name(id: TagId) -> &'static str {
    interner()
        .names
        .read()
        .unwrap()
        .get(id.index())
        .copied()
        .expect("TagId does not name an interned tag")
}

/// Number of distinct tag names interned so far, process-wide.  Valid ids
/// are exactly `0..interned_tag_count()`.
pub fn interned_tag_count() -> usize {
    interner().names.read().unwrap().len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_resolves_back() {
        let a = intern("intern-test-alpha");
        let b = intern("intern-test-beta");
        assert_ne!(a, b);
        assert_eq!(intern("intern-test-alpha"), a);
        assert_eq!(tag_name(a), "intern-test-alpha");
        assert_eq!(tag_name(b), "intern-test-beta");
        assert_eq!(lookup("intern-test-alpha"), Some(a));
        assert!(interned_tag_count() > a.index());
    }

    #[test]
    fn lookup_does_not_intern() {
        // The table is global and sibling tests intern concurrently, so its
        // size is no witness; a second lookup is — had the first one
        // interned the name, this one would find it.
        assert_eq!(lookup("intern-test-never-interned-probe"), None);
        assert_eq!(lookup("intern-test-never-interned-probe"), None);
    }

    #[test]
    fn concurrent_interning_agrees_on_ids() {
        let names: Vec<String> = (0..64).map(|i| format!("intern-race-{i}")).collect();
        let ids: Vec<Vec<TagId>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let names = &names;
                    s.spawn(move || {
                        // Each thread interns in a different order.
                        let mut out: Vec<(usize, TagId)> = names
                            .iter()
                            .enumerate()
                            .cycle()
                            .skip(t * 8)
                            .take(names.len())
                            .map(|(i, n)| (i, intern(n)))
                            .collect();
                        out.sort_by_key(|&(i, _)| i);
                        out.into_iter().map(|(_, id)| id).collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for later in &ids[1..] {
            assert_eq!(later, &ids[0]);
        }
        for (i, &id) in ids[0].iter().enumerate() {
            assert_eq!(tag_name(id), names[i]);
        }
    }
}
