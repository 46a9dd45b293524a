//! The bounded LRU plan cache behind the engine.
//!
//! Compilation (parse + classify + plan) is pure per-query work; an engine
//! serving repeated query strings should pay it once.  [`PlanCache`] is a
//! small least-recently-used map from source string to
//! [`Arc<CompiledQuery>`]; [`ShardedPlanCache`] spreads those entries over
//! up to [`PLAN_CACHE_SHARDS`] independently locked shards (selected by key
//! hash), so concurrent compilations on different shards never contend on
//! one mutex.  [`crate::Engine`] consults it on every
//! [`crate::Engine::compile`] / [`crate::Engine::evaluate_str`] call, and
//! its [`CacheStats`] make hits and misses observable — in aggregate and
//! per shard — so tests and benches can assert that a repeated query string
//! really skips re-parsing.  Compilation is single-flight
//! ([`ShardedPlanCache::get_or_compile`]): the first thread to miss a key
//! compiles it, and threads asking for the same key meanwhile wait for that
//! one result and count as hits.
//!
//! The per-document half of the pipeline is not cached here: a caller
//! builds a [`xpeval_dom::PreparedDocument`] once and keeps it (the catalog
//! keeps one per named document).
//!
//! Recency is tracked with a monotonic touch counter per entry; eviction
//! scans for the minimum.  That is O(capacity) per eviction, which is the
//! right trade-off for plan caches (tens to a few thousand entries, hit
//! paths that must stay allocation-free).

use crate::compile::CompiledQuery;
use crate::error::EvalError;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use xpeval_obs::{Field, FieldValue, MetricSource};

/// Maximum number of shards of a [`ShardedPlanCache`].  Small caches use a
/// single shard so capacity semantics stay exact; see
/// [`ShardedPlanCache::new`].
pub const PLAN_CACHE_SHARDS: usize = 8;

/// Per-shard counters of a [`ShardedPlanCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Lookups this shard answered from its map.
    pub hits: u64,
    /// Lookups on this shard that fell through to compilation.
    pub misses: u64,
    /// Entries currently stored in this shard.
    pub len: usize,
}

/// Observable counters of a plan cache.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (no re-parse, no re-classification).
    pub hits: u64,
    /// Lookups that fell through to compilation.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Entries currently stored.
    pub len: usize,
    /// Maximum number of entries (0 = caching disabled).
    pub capacity: usize,
    /// Per-shard hit/miss/len counters, one entry per shard.  Empty for
    /// an unsharded [`PlanCache`].
    pub per_shard: Vec<ShardStats>,
}

impl MetricSource for ShardStats {
    fn source_name(&self) -> &'static str {
        "plan_cache_shard"
    }

    fn fields(&self) -> Vec<Field> {
        vec![
            Field::new("hits", FieldValue::Counter(self.hits)),
            Field::new("misses", FieldValue::Counter(self.misses)),
            Field::new("len", FieldValue::Gauge(self.len as i64)),
        ]
    }
}

impl std::fmt::Display for ShardStats {
    /// One-line summary shared with [`MetricSource::summary_line`]:
    /// `hits 5, misses 2, len 3`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.summary_line())
    }
}

impl CacheStats {
    /// Fraction of lookups answered from the cache, in `0.0..=1.0`
    /// (0.0 when no lookup happened yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl MetricSource for CacheStats {
    fn source_name(&self) -> &'static str {
        "plan_cache"
    }

    fn fields(&self) -> Vec<Field> {
        let mut fields = vec![
            Field::new(
                "hits",
                FieldValue::Ratio {
                    num: self.hits,
                    den: self.hits + self.misses,
                },
            ),
            Field::new(
                "len",
                FieldValue::Frac {
                    num: self.len as u64,
                    den: self.capacity as u64,
                },
            ),
            Field::new("evictions", FieldValue::Counter(self.evictions)),
        ];
        if self.per_shard.len() > 1 {
            fields.push(Field::new(
                "shards",
                FieldValue::Gauge(self.per_shard.len() as i64),
            ));
        }
        fields
    }
}

impl std::fmt::Display for CacheStats {
    /// One-line summary shared with [`MetricSource::summary_line`], e.g.
    /// `hits 9/10 (90.0%), len 1/128, evictions 0, shards 8`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.summary_line())
    }
}

#[derive(Debug)]
struct Entry {
    plan: Arc<CompiledQuery>,
    last_used: u64,
}

/// One compilation in progress: the thread that missed the key compiles
/// into it, and threads that ask for the key meanwhile wait on it.
type Flight = Arc<OnceLock<Result<Arc<CompiledQuery>, EvalError>>>;

/// What a lookup found: the plan, a compilation to wait for, or the
/// compilation this thread now owes.
enum Join {
    Hit(Arc<CompiledQuery>),
    Wait(Flight),
    Lead(Flight),
}

/// A bounded LRU map from query string to compiled plan.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    entries: HashMap<String, Entry>,
    /// Keys being compiled right now.  A key leaves when its compilation
    /// lands, whether it succeeded (then the plan is stored) or not.
    in_flight: HashMap<String, Flight>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans; 0 disables caching
    /// (every lookup misses, nothing is stored).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity,
            entries: HashMap::with_capacity(capacity.min(1024)),
            in_flight: HashMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up a plan, refreshing its recency on a hit.
    pub fn get(&mut self, source: &str) -> Option<Arc<CompiledQuery>> {
        let found = self.touch(source);
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    /// The stored plan for `source` with its recency refreshed; counts
    /// nothing.
    fn touch(&mut self, source: &str) -> Option<Arc<CompiledQuery>> {
        self.tick += 1;
        let entry = self.entries.get_mut(source)?;
        entry.last_used = self.tick;
        Some(Arc::clone(&entry.plan))
    }

    /// [`PlanCache::get`] that joins a compilation in progress: a key being
    /// compiled counts as a hit and hands back the flight to wait on; a key
    /// neither stored nor in flight counts as a miss and registers a flight
    /// the caller must compile into and land.  A cache of capacity 0 stores
    /// nothing, so it registers no flight either.
    fn join(&mut self, source: &str) -> Join {
        if let Some(plan) = self.touch(source) {
            self.hits += 1;
            return Join::Hit(plan);
        }
        // A key is in flight only while it is not stored: its flight lands
        // under the same lock that stores it.
        if let Some(flight) = self.in_flight.get(source) {
            self.hits += 1;
            return Join::Wait(Arc::clone(flight));
        }
        self.misses += 1;
        let flight = Flight::default();
        if self.capacity > 0 {
            self.in_flight
                .insert(source.to_string(), Arc::clone(&flight));
        }
        Join::Lead(flight)
    }

    /// Stores a plan, evicting the least-recently-used entry when full.
    pub fn insert(&mut self, source: String, plan: Arc<CompiledQuery>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&source) {
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&victim);
                self.evictions += 1;
            }
        }
        self.entries.insert(
            source,
            Entry {
                plan,
                last_used: self.tick,
            },
        );
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            len: self.entries.len(),
            capacity: self.capacity,
            per_shard: Vec::new(),
        }
    }

    /// Drops all cached plans (counters are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// A [`PlanCache`] split over independently locked shards selected by key
/// hash, so concurrent compile lookups on different keys proceed without
/// contending on a single mutex.
///
/// Sharding only engages when the capacity is large enough to split
/// meaningfully (at least two entries per shard); small caches keep a
/// single shard so the exact LRU/capacity semantics of [`PlanCache`] are
/// preserved.
#[derive(Debug)]
pub struct ShardedPlanCache {
    shards: Vec<Mutex<PlanCache>>,
}

impl ShardedPlanCache {
    /// Creates a cache holding at most `capacity` plans in total,
    /// distributed (as evenly as possible) over the shards.
    pub fn new(capacity: usize) -> Self {
        let shard_count = if capacity >= 2 * PLAN_CACHE_SHARDS {
            PLAN_CACHE_SHARDS
        } else {
            1
        };
        let base = capacity / shard_count;
        let remainder = capacity % shard_count;
        let shards = (0..shard_count)
            .map(|i| Mutex::new(PlanCache::new(base + usize::from(i < remainder))))
            .collect();
        ShardedPlanCache { shards }
    }

    /// Number of shards in use.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_for(&self, source: &str) -> &Mutex<PlanCache> {
        let mut hasher = DefaultHasher::new();
        source.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % self.shards.len()]
    }

    /// Looks up a plan in its key's shard, refreshing recency on a hit.
    pub fn get(&self, source: &str) -> Option<Arc<CompiledQuery>> {
        self.shard_for(source).lock().unwrap().get(source)
    }

    /// Stores a plan in its key's shard, evicting that shard's LRU entry
    /// when the shard is full.
    pub fn insert(&self, source: String, plan: Arc<CompiledQuery>) {
        self.shard_for(&source).lock().unwrap().insert(source, plan);
    }

    /// The plan for `source`, compiled by `compile` on a miss — once per
    /// key however many threads miss it together.  The first thread to
    /// miss compiles; threads asking while it does wait for its result and
    /// count as hits.  An error reaches every waiter and is not stored, so
    /// the next call compiles again.  A hit takes the shard lock once, as
    /// [`ShardedPlanCache::get`] does.
    pub fn get_or_compile(
        &self,
        source: &str,
        compile: impl FnOnce() -> Result<Arc<CompiledQuery>, EvalError>,
    ) -> Result<Arc<CompiledQuery>, EvalError> {
        let shard = self.shard_for(source);
        let join = shard.lock().unwrap().join(source);
        match join {
            Join::Hit(plan) => Ok(plan),
            Join::Wait(flight) => flight.get_or_init(compile).clone(),
            Join::Lead(flight) => {
                let mut landing = Landing {
                    shard,
                    source,
                    plan: None,
                };
                let result = flight.get_or_init(compile).clone();
                landing.plan = result.as_ref().ok().cloned();
                result
            }
        }
    }

    /// Aggregated counters plus the per-shard breakdown.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let s = shard.lock().unwrap().stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.len += s.len;
            total.capacity += s.capacity;
            total.per_shard.push(ShardStats {
                hits: s.hits,
                misses: s.misses,
                len: s.len,
            });
        }
        total
    }

    /// Drops every cached plan in every shard (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().unwrap().clear();
        }
    }
}

/// Lands a compilation its thread led: takes the key off the in-flight
/// list and stores the plan if there is one.  Done on drop, so a panicking
/// compilation leaves no flight behind.
struct Landing<'a> {
    shard: &'a Mutex<PlanCache>,
    source: &'a str,
    plan: Option<Arc<CompiledQuery>>,
}

impl Drop for Landing<'_> {
    fn drop(&mut self) {
        let mut shard = self.shard.lock().unwrap_or_else(PoisonError::into_inner);
        shard.in_flight.remove(self.source);
        if let Some(plan) = self.plan.take() {
            shard.insert(self.source.to_string(), plan);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(src: &str) -> Arc<CompiledQuery> {
        Arc::new(CompiledQuery::compile(src).unwrap())
    }

    #[test]
    fn hit_after_insert() {
        let mut c = PlanCache::new(4);
        assert!(c.get("//a").is_none());
        c.insert("//a".into(), plan("//a"));
        let hit = c.get("//a").unwrap();
        assert_eq!(hit.source(), "//a");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.len), (1, 1, 1));
    }

    #[test]
    fn least_recently_used_entry_is_evicted() {
        let mut c = PlanCache::new(2);
        c.insert("//a".into(), plan("//a"));
        c.insert("//b".into(), plan("//b"));
        // Touch //a so //b becomes the LRU victim.
        assert!(c.get("//a").is_some());
        c.insert("//c".into(), plan("//c"));
        assert!(c.get("//b").is_none(), "//b should have been evicted");
        assert!(c.get("//a").is_some());
        assert!(c.get("//c").is_some());
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.len, 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = PlanCache::new(0);
        c.insert("//a".into(), plan("//a"));
        assert!(c.get("//a").is_none());
        assert_eq!(c.stats().len, 0);
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let mut c = PlanCache::new(2);
        c.insert("//a".into(), plan("//a"));
        c.insert("//b".into(), plan("//b"));
        c.insert("//a".into(), plan("//a"));
        assert_eq!(c.stats().evictions, 0);
        assert!(c.get("//b").is_some());
    }

    #[test]
    fn small_capacities_use_a_single_shard() {
        let c = ShardedPlanCache::new(4);
        assert_eq!(c.shard_count(), 1);
        let s = c.stats();
        assert_eq!(s.capacity, 4);
        assert_eq!(s.per_shard.len(), 1);
    }

    #[test]
    fn large_capacities_shard_and_report_per_shard_counts() {
        let c = ShardedPlanCache::new(128);
        assert_eq!(c.shard_count(), PLAN_CACHE_SHARDS);
        let queries: Vec<String> = (0..40).map(|i| format!("//a[child::t{i}]")).collect();
        for q in &queries {
            assert!(c.get(q).is_none());
            c.insert(q.clone(), plan(q));
        }
        for q in &queries {
            assert!(c.get(q).is_some(), "{q}");
        }
        let s = c.stats();
        assert_eq!(s.capacity, 128);
        assert_eq!(s.misses, 40);
        assert_eq!(s.hits, 40);
        assert_eq!(s.len, 40);
        assert_eq!(s.per_shard.len(), PLAN_CACHE_SHARDS);
        // The aggregate is exactly the sum of the shards, and the keys
        // spread over more than one shard.
        assert_eq!(s.per_shard.iter().map(|p| p.hits).sum::<u64>(), s.hits);
        assert_eq!(s.per_shard.iter().map(|p| p.misses).sum::<u64>(), s.misses);
        assert_eq!(s.per_shard.iter().map(|p| p.len).sum::<usize>(), s.len);
        assert!(s.per_shard.iter().filter(|p| p.len > 0).count() > 1);
    }

    #[test]
    fn sharded_cache_supports_concurrent_compiles() {
        let c = std::sync::Arc::new(ShardedPlanCache::new(64));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let c = std::sync::Arc::clone(&c);
                scope.spawn(move || {
                    for i in 0..16 {
                        let q = format!("//t{t}[child::x{i}]");
                        if c.get(&q).is_none() {
                            c.insert(q.clone(), plan(&q));
                        }
                        assert!(c.get(&q).is_some());
                    }
                });
            }
        });
        let s = c.stats();
        assert_eq!(s.misses, 64);
        assert_eq!(s.hits, 64);
        // Keys hash unevenly, so a full cache may evict within hot shards;
        // every entry is either stored or was evicted.
        assert_eq!(s.len as u64 + s.evictions, 64);
    }
}
