//! The worker-pool executor: [`AsyncEngine`], its builder, and the
//! submission surface.
//!
//! An [`AsyncEngine`] owns a fixed pool of worker threads, each holding
//! its own clone of the underlying [`Engine`] (clones share the plan and
//! document caches — [`Engine`] is a cheap handle).  Submissions cross a
//! bounded MPMC queue; workers pull jobs, evaluate them through the
//! compile-once pipeline and complete the caller's [`QueryFuture`].
//!
//! **Backpressure.**  The queue holds at most `queue_capacity` jobs.
//! [`AsyncEngine::try_submit`] fails fast with [`TrySubmitError::Full`];
//! [`AsyncEngine::submit`] blocks the caller until a slot drains;
//! [`AsyncEngine::submit_async`] awaits the slot instead of blocking.
//!
//! **Graceful shutdown.**  [`AsyncEngine::begin_shutdown`] stops intake;
//! every already-accepted job still runs to completion.
//! [`AsyncEngine::shutdown`] additionally joins the workers and returns
//! the final [`ServeStats`].  Dropping the engine shuts it down the same
//! way.

use crate::future::{oneshot, DeadlineResult, JobExpired, QueryFuture};
use crate::queue::{BoundedQueue, Job};
use crate::stats::{ServeStats, WorkerStats};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use xpeval_backends::PreparedSnapshot;
use xpeval_catalog::{Catalog, CatalogError, LiveDocument, MutationOutcome};
use xpeval_core::{default_threads, Bindings, CompiledQuery, Engine, EvalError, QueryOutput};
use xpeval_dom::{Document, PreparedDocument};
use xpeval_obs::Histogram;

/// Why a non-blocking submission was not accepted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrySubmitError {
    /// The bounded submission queue is at capacity — backpressure.  Retry,
    /// block via [`AsyncEngine::submit`], or shed the request.
    Full,
    /// The pool is shutting down and accepts no further work.
    ShutDown,
}

impl std::fmt::Display for TrySubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrySubmitError::Full => write!(f, "submission queue is full"),
            TrySubmitError::ShutDown => write!(f, "serving pool is shutting down"),
        }
    }
}

impl std::error::Error for TrySubmitError {}

/// What a submitted query resolves to: the full
/// [`QueryOutput`] (value, work counters, fragment) or the evaluation
/// error — exactly what the synchronous `Engine::query_str_prepared`
/// returns.
pub type QueryResult = Result<QueryOutput, EvalError>;

/// What a catalog-named submission resolves to: the query output, or a
/// [`CatalogError`] (unknown document name, or the evaluation error) —
/// exactly what the synchronous `Catalog::evaluate_on` returns.
pub type CatalogQueryResult = Result<QueryOutput, CatalogError>;

/// What a catalog-named mutation submission resolves to: the
/// [`MutationOutcome`] (closure return value, post-edit revision, scoped
/// invalidation counts), or [`CatalogError::UnknownDocument`] — exactly
/// what the synchronous `Catalog::mutate_named` returns.
pub type CatalogMutationResult<T> = Result<MutationOutcome<T>, CatalogError>;

/// Shared state between the [`AsyncEngine`] handle and its workers.
pub(crate) struct Shared {
    pub(crate) engine: Engine,
    pub(crate) queue: BoundedQueue,
    pub(crate) rejected_full: AtomicU64,
    pub(crate) rejected_shutdown: AtomicU64,
    /// Request lifecycle distributions, all in nanoseconds: enqueue→dequeue,
    /// dequeue→done, enqueue→done.  Atomic log2 histograms — workers record
    /// into them lock-free.
    queue_wait: Histogram,
    execution: Histogram,
    end_to_end: Histogram,
    workers: Vec<WorkerCounters>,
}

#[derive(Default)]
struct WorkerCounters {
    completed: AtomicU64,
    panicked: AtomicU64,
}

/// Configures and builds an [`AsyncEngine`].
#[derive(Debug)]
pub struct AsyncEngineBuilder {
    engine: Option<Engine>,
    workers: usize,
    queue_capacity: Option<usize>,
}

impl AsyncEngineBuilder {
    /// Default configuration: one worker per available core, a queue of
    /// 16 slots per worker, and a default [`Engine`].
    pub fn new() -> Self {
        AsyncEngineBuilder {
            engine: None,
            workers: default_threads(),
            queue_capacity: None,
        }
    }

    /// Serves through this engine (a clone of its handle goes to every
    /// worker, so its plan/document caches are shared with the caller).
    /// Defaults to `Engine::builder().build()`.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Worker threads in the pool (clamped to at least 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Capacity of the bounded submission queue — the backpressure knob
    /// (clamped to at least 1).  Defaults to 16 slots per worker.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = Some(capacity.max(1));
        self
    }

    /// Builds the pool and spawns its workers.
    pub fn build(self) -> AsyncEngine {
        let workers = self.workers.max(1);
        let queue_capacity = self.queue_capacity.unwrap_or(workers * 16);
        let engine = self
            .engine
            .unwrap_or_else(|| Engine::builder().auto_strategy().build());
        let shared = Arc::new(Shared {
            engine,
            queue: BoundedQueue::new(queue_capacity),
            rejected_full: AtomicU64::new(0),
            rejected_shutdown: AtomicU64::new(0),
            queue_wait: Histogram::new(),
            execution: Histogram::new(),
            end_to_end: Histogram::new(),
            workers: (0..workers).map(|_| WorkerCounters::default()).collect(),
        });
        let handles = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("xpeval-serve-{index}"))
                    .spawn(move || worker_loop(shared, index))
                    .expect("spawning a serve worker thread")
            })
            .collect();
        AsyncEngine { shared, handles }
    }
}

impl Default for AsyncEngineBuilder {
    fn default() -> Self {
        AsyncEngineBuilder::new()
    }
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    // The worker's own engine handle: clones share the plan and document
    // caches, so a plan compiled by any worker is a hit for all.
    let engine = shared.engine.clone();
    // When the engine carries a telemetry handle, the same lifecycle
    // distributions also stream into its metrics registry, so a scrape
    // sees the pool live rather than only at shutdown.  The handles are
    // resolved once here: per-job recording is then purely atomic.
    let live = engine.telemetry().map(|t| {
        let registry = t.registry();
        (
            registry.histogram("serve_queue_wait_ns"),
            registry.histogram("serve_execution_ns"),
            registry.histogram("serve_end_to_end_ns"),
            registry.gauge("serve_queue_depth"),
        )
    });
    while let Some((job, waited)) = shared.queue.pop() {
        shared.queue_wait.record_duration(waited);
        let enqueued = job.enqueued;
        let counters = &shared.workers[index];
        // A panicking job must not take the worker (or the pool) down: the
        // submitter's future resolves to JobLost (its sender is dropped
        // during unwinding) and the worker moves on.
        let started = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| (job.run)(&engine))) {
            Ok(()) => counters.completed.fetch_add(1, Ordering::Relaxed),
            Err(_) => counters.panicked.fetch_add(1, Ordering::Relaxed),
        };
        let ran = started.elapsed();
        let total = enqueued.elapsed();
        shared.execution.record_duration(ran);
        shared.end_to_end.record_duration(total);
        if let Some((wait_h, exec_h, e2e_h, depth_g)) = &live {
            wait_h.record_duration(waited);
            exec_h.record_duration(ran);
            e2e_h.record_duration(total);
            depth_g.set(shared.queue.depth() as i64);
        }
    }
}

/// A concurrent front end over an [`Engine`]: a fixed worker pool fed by a
/// bounded submission queue.
///
/// See the [module docs](self) for the backpressure and shutdown
/// semantics.  All submission entry points take `&self`; the engine can be
/// shared across client threads behind an `Arc` (or by reference from
/// scoped threads).
pub struct AsyncEngine {
    pub(crate) shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for AsyncEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncEngine")
            .field("workers", &self.handles.len())
            .field("queue_capacity", &self.shared.queue.capacity())
            .field("queue_depth", &self.shared.queue.depth())
            .finish()
    }
}

impl AsyncEngine {
    /// Starts configuring a pool.
    pub fn builder() -> AsyncEngineBuilder {
        AsyncEngineBuilder::new()
    }

    /// A pool with default configuration (one worker per core).
    pub fn new() -> Self {
        AsyncEngineBuilder::new().build()
    }

    /// The underlying engine handle (shared with every worker).
    pub fn engine(&self) -> &Engine {
        &self.shared.engine
    }

    pub(crate) fn enqueue<T>(
        &self,
        job: Job,
        future: QueryFuture<T>,
        blocking: bool,
    ) -> Result<QueryFuture<T>, TrySubmitError> {
        let pushed = if blocking {
            self.shared.queue.push_blocking(job)
        } else {
            self.shared.queue.try_push(job)
        };
        match pushed {
            // Acceptance is counted by the queue itself, under its lock.
            Ok(()) => Ok(future),
            Err(e) => {
                let counter = match e {
                    TrySubmitError::Full => &self.shared.rejected_full,
                    TrySubmitError::ShutDown => &self.shared.rejected_shutdown,
                };
                counter.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Packages a closure into a queueable job plus the future resolving
    /// to its return value.
    pub(crate) fn task_job<T, F>(f: F) -> (Job, QueryFuture<T>)
    where
        F: FnOnce(&Engine) -> T + Send + 'static,
        T: Send + 'static,
    {
        let (sender, future) = oneshot();
        let job = Job::new(Box::new(move |engine: &Engine| sender.send(f(engine))));
        (job, future)
    }

    /// [`AsyncEngine::task_job`] with a deadline: the future resolves to
    /// `Ok(T)` when a worker ran the closure, or `Err(JobExpired)` when
    /// the deadline passed while the job was still queued (it is dropped
    /// at dequeue and never runs).
    ///
    /// The one-shot sender must be reachable from whichever of the two
    /// paths fires — run or expire — so it travels in a shared take-once
    /// slot; the queue guarantees exactly one of them is invoked.
    pub(crate) fn deadline_task_job<T, F>(
        f: F,
        deadline: Instant,
    ) -> (Job, QueryFuture<DeadlineResult<T>>)
    where
        F: FnOnce(&Engine) -> T + Send + 'static,
        T: Send + 'static,
    {
        let (sender, future) = oneshot();
        let slot = Arc::new(Mutex::new(Some(sender)));
        let run_slot = Arc::clone(&slot);
        let mut job = Job::new(Box::new(move |engine: &Engine| {
            if let Some(sender) = run_slot.lock().unwrap().take() {
                sender.send(Ok(f(engine)));
            }
        }));
        job.deadline = Some(deadline);
        job.expire = Some(Box::new(move || {
            if let Some(sender) = slot.lock().unwrap().take() {
                sender.send(Err(JobExpired));
            }
        }));
        (job, future)
    }

    pub(crate) fn query_job(
        doc: &Arc<PreparedDocument>,
        query: &str,
    ) -> (Job, QueryFuture<QueryResult>) {
        let doc = Arc::clone(doc);
        let query = query.to_string();
        Self::task_job(move |engine| {
            engine
                .compile(&query)
                .and_then(|plan| plan.run_prepared(&doc))
        })
    }

    fn query_job_bound(
        doc: &Arc<PreparedDocument>,
        query: &str,
        bindings: Bindings,
    ) -> (Job, QueryFuture<QueryResult>) {
        let doc = Arc::clone(doc);
        let query = query.to_string();
        Self::task_job(move |engine| {
            engine
                .compile(&query)
                .and_then(|plan| plan.run_prepared_bound(&doc, &bindings))
        })
    }

    fn batch_job(
        doc: &Arc<PreparedDocument>,
        queries: &[&str],
    ) -> (Job, QueryFuture<Vec<QueryResult>>) {
        let doc = Arc::clone(doc);
        let queries: Vec<String> = queries.iter().map(|q| q.to_string()).collect();
        Self::task_job(move |engine| {
            // Compile through the shared plan cache, then multiplex the
            // whole batch over the prepared document in one call; a query
            // that fails to compile keeps its slot as an error.
            let compiled: Vec<Result<Arc<CompiledQuery>, EvalError>> =
                queries.iter().map(|q| engine.compile(q)).collect();
            let plans: Vec<&CompiledQuery> =
                compiled.iter().filter_map(|c| c.as_deref().ok()).collect();
            let mut ran = engine.evaluate_batch_prepared(&doc, &plans).into_iter();
            compiled
                .into_iter()
                .map(|c| match c {
                    Ok(_) => ran.next().expect("one result per compiled plan"),
                    Err(e) => Err(e),
                })
                .collect()
        })
    }

    /// Submits one query string against a prepared document, **blocking**
    /// while the queue is full (backpressure); wakes as soon as a worker
    /// drains a slot.  Fails only when the pool is shutting down.
    pub fn submit(
        &self,
        doc: &Arc<PreparedDocument>,
        query: &str,
    ) -> Result<QueryFuture<QueryResult>, TrySubmitError> {
        let (job, future) = Self::query_job(doc, query);
        self.enqueue(job, future, true)
    }

    /// Non-blocking [`AsyncEngine::submit`]: fails fast with
    /// [`TrySubmitError::Full`] instead of waiting for a slot.
    pub fn try_submit(
        &self,
        doc: &Arc<PreparedDocument>,
        query: &str,
    ) -> Result<QueryFuture<QueryResult>, TrySubmitError> {
        let (job, future) = Self::query_job(doc, query);
        self.enqueue(job, future, false)
    }

    /// [`AsyncEngine::submit`] with external variable bindings for the
    /// query's `$name` references.  The bindings are captured by value into
    /// the job; the plan cache key stays the query string alone, so many
    /// in-flight submissions of one query under different bindings share a
    /// single compilation.
    pub fn submit_bound(
        &self,
        doc: &Arc<PreparedDocument>,
        query: &str,
        bindings: &Bindings,
    ) -> Result<QueryFuture<QueryResult>, TrySubmitError> {
        let (job, future) = Self::query_job_bound(doc, query, bindings.clone());
        self.enqueue(job, future, true)
    }

    /// Non-blocking [`AsyncEngine::submit_bound`].
    pub fn try_submit_bound(
        &self,
        doc: &Arc<PreparedDocument>,
        query: &str,
        bindings: &Bindings,
    ) -> Result<QueryFuture<QueryResult>, TrySubmitError> {
        let (job, future) = Self::query_job_bound(doc, query, bindings.clone());
        self.enqueue(job, future, false)
    }

    /// [`AsyncEngine::submit`] with a per-submission deadline: if the job
    /// is still sitting in the queue when `deadline` passes, it is dropped
    /// at dequeue — **it never runs** — its future resolves to
    /// [`JobExpired`], and the drop is counted in [`ServeStats::expired`].
    /// A job a worker picked up *before* the deadline runs to completion
    /// normally (deadlines bound queueing, not execution).
    ///
    /// Blocking while the queue is full, like [`AsyncEngine::submit`].
    pub fn submit_with_deadline(
        &self,
        doc: &Arc<PreparedDocument>,
        query: &str,
        deadline: Instant,
    ) -> Result<QueryFuture<DeadlineResult<QueryResult>>, TrySubmitError> {
        let (job, future) = Self::deadline_query_job(doc, query, deadline);
        self.enqueue(job, future, true)
    }

    /// Non-blocking [`AsyncEngine::submit_with_deadline`]: fails fast with
    /// [`TrySubmitError::Full`] instead of waiting for a slot.
    pub fn try_submit_with_deadline(
        &self,
        doc: &Arc<PreparedDocument>,
        query: &str,
        deadline: Instant,
    ) -> Result<QueryFuture<DeadlineResult<QueryResult>>, TrySubmitError> {
        let (job, future) = Self::deadline_query_job(doc, query, deadline);
        self.enqueue(job, future, false)
    }

    fn deadline_query_job(
        doc: &Arc<PreparedDocument>,
        query: &str,
        deadline: Instant,
    ) -> (Job, QueryFuture<DeadlineResult<QueryResult>>) {
        let doc = Arc::clone(doc);
        let query = query.to_string();
        Self::deadline_task_job(
            move |engine| {
                engine
                    .compile(&query)
                    .and_then(|plan| plan.run_prepared(&doc))
            },
            deadline,
        )
    }

    /// Submits a query against a **named catalog document** instead of a
    /// shipped `Arc`: the worker resolves `name` through the catalog when
    /// the job runs, so it always evaluates the *current* generation (a
    /// replacement between submit and run is picked up, and the
    /// (query × document) artifact cache serves repeats).  Resolution
    /// failure surfaces as [`CatalogError::UnknownDocument`] in the
    /// result, not as a submission error.
    ///
    /// The catalog handle is cheap to clone and shared; for plan-cache
    /// sharing between direct and named submissions, build the pool on
    /// the catalog's engine (`AsyncEngineBuilder::engine`).  Blocking
    /// while the queue is full, like [`AsyncEngine::submit`].
    pub fn submit_named(
        &self,
        catalog: &Catalog,
        name: &str,
        query: &str,
    ) -> Result<QueryFuture<CatalogQueryResult>, TrySubmitError> {
        let (job, future) = Self::named_job(catalog, name, query);
        self.enqueue(job, future, true)
    }

    /// Non-blocking [`AsyncEngine::submit_named`].
    pub fn try_submit_named(
        &self,
        catalog: &Catalog,
        name: &str,
        query: &str,
    ) -> Result<QueryFuture<CatalogQueryResult>, TrySubmitError> {
        let (job, future) = Self::named_job(catalog, name, query);
        self.enqueue(job, future, false)
    }

    /// [`AsyncEngine::submit_named`] with a deadline: combines named
    /// resolution with the queueing bound of
    /// [`AsyncEngine::submit_with_deadline`].
    pub fn submit_named_with_deadline(
        &self,
        catalog: &Catalog,
        name: &str,
        query: &str,
        deadline: Instant,
    ) -> Result<QueryFuture<DeadlineResult<CatalogQueryResult>>, TrySubmitError> {
        let (job, future) = Self::named_deadline_job(catalog, name, query, deadline);
        self.enqueue(job, future, true)
    }

    /// Non-blocking [`AsyncEngine::submit_named_with_deadline`]: fails
    /// fast with [`TrySubmitError::Full`] — the load-shedding shape, on
    /// both ends of the queue.
    pub fn try_submit_named_with_deadline(
        &self,
        catalog: &Catalog,
        name: &str,
        query: &str,
        deadline: Instant,
    ) -> Result<QueryFuture<DeadlineResult<CatalogQueryResult>>, TrySubmitError> {
        let (job, future) = Self::named_deadline_job(catalog, name, query, deadline);
        self.enqueue(job, future, false)
    }

    fn named_deadline_job(
        catalog: &Catalog,
        name: &str,
        query: &str,
        deadline: Instant,
    ) -> (Job, QueryFuture<DeadlineResult<CatalogQueryResult>>) {
        let catalog = catalog.clone();
        let name = name.to_string();
        let query = query.to_string();
        Self::deadline_task_job(move |_engine| catalog.evaluate_on(&name, &query), deadline)
    }

    fn named_job(
        catalog: &Catalog,
        name: &str,
        query: &str,
    ) -> (Job, QueryFuture<CatalogQueryResult>) {
        let catalog = catalog.clone();
        let name = name.to_string();
        let query = query.to_string();
        Self::task_job(move |_engine| catalog.evaluate_on(&name, &query))
    }

    /// Submits an **in-place edit** of a named catalog document
    /// (`Catalog::mutate_named`) as a pool job: the worker runs the edit
    /// closure against a [`LiveDocument`] view, the catalog applies it
    /// with incremental index maintenance, bumps the entry's revision and
    /// re-targets its plan artifacts — only those intersecting the edit's
    /// dirty subtree are dropped.
    ///
    /// Edits on one catalog serialize through the catalog's own store
    /// lock, so a mutation and the queries racing it are ordered: each
    /// query sees either the whole pre-edit snapshot or the whole
    /// post-edit one, never a half-patched index — while documents in
    /// *other* catalogs (independent tenants) proceed in parallel on the
    /// remaining workers.  Parse or build fragments *before* submitting;
    /// the closure should only apply edits.  Blocking while the queue is
    /// full, like [`AsyncEngine::submit`].
    pub fn submit_mutation_named<T, F>(
        &self,
        catalog: &Catalog,
        name: &str,
        edit: F,
    ) -> Result<QueryFuture<CatalogMutationResult<T>>, TrySubmitError>
    where
        F: FnOnce(&mut LiveDocument) -> T + Send + 'static,
        T: Send + 'static,
    {
        let (job, future) = Self::mutation_job(catalog, name, edit);
        self.enqueue(job, future, true)
    }

    /// Non-blocking [`AsyncEngine::submit_mutation_named`]: fails fast
    /// with [`TrySubmitError::Full`] instead of waiting for a slot.
    pub fn try_submit_mutation_named<T, F>(
        &self,
        catalog: &Catalog,
        name: &str,
        edit: F,
    ) -> Result<QueryFuture<CatalogMutationResult<T>>, TrySubmitError>
    where
        F: FnOnce(&mut LiveDocument) -> T + Send + 'static,
        T: Send + 'static,
    {
        let (job, future) = Self::mutation_job(catalog, name, edit);
        self.enqueue(job, future, false)
    }

    fn mutation_job<T, F>(
        catalog: &Catalog,
        name: &str,
        edit: F,
    ) -> (Job, QueryFuture<CatalogMutationResult<T>>)
    where
        F: FnOnce(&mut LiveDocument) -> T + Send + 'static,
        T: Send + 'static,
    {
        let catalog = catalog.clone();
        let name = name.to_string();
        Self::task_job(move |_engine| catalog.mutate_named(&name, edit))
    }

    /// Submits a whole batch of query strings as **one** job: a worker
    /// compiles them through the shared plan cache and multiplexes them
    /// over the prepared document via `Engine::evaluate_batch_prepared`.
    /// One failing query does not poison the batch.  Blocking, like
    /// [`AsyncEngine::submit`].
    pub fn submit_batch(
        &self,
        doc: &Arc<PreparedDocument>,
        queries: &[&str],
    ) -> Result<QueryFuture<Vec<QueryResult>>, TrySubmitError> {
        let (job, future) = Self::batch_job(doc, queries);
        self.enqueue(job, future, true)
    }

    /// Non-blocking [`AsyncEngine::submit_batch`].
    pub fn try_submit_batch(
        &self,
        doc: &Arc<PreparedDocument>,
        queries: &[&str],
    ) -> Result<QueryFuture<Vec<QueryResult>>, TrySubmitError> {
        let (job, future) = Self::batch_job(doc, queries);
        self.enqueue(job, future, false)
    }

    /// Submits a query against an *unprepared* document; the worker
    /// prepares it through the engine's document cache first (paid once
    /// per document, not per query).  Blocking, like
    /// [`AsyncEngine::submit`].
    pub fn submit_document(
        &self,
        doc: &Arc<Document>,
        query: &str,
    ) -> Result<QueryFuture<QueryResult>, TrySubmitError> {
        let doc = Arc::clone(doc);
        let query = query.to_string();
        let (job, future) = Self::task_job(move |engine| {
            let prepared = engine.prepare(&doc);
            engine
                .compile(&query)
                .and_then(|plan| plan.run_prepared(&prepared))
        });
        self.enqueue(job, future, true)
    }

    /// Submits a query against a **zero-copy prepared snapshot**
    /// (`xpeval_backends::PreparedSnapshot`): the worker decodes the
    /// snapshot into its `PreparedDocument` on first touch — subsequent
    /// submissions against the same snapshot share the already-decoded
    /// `Arc` — then evaluates through the compile-once pipeline.  A
    /// corrupt or version-skewed snapshot surfaces as
    /// [`EvalError::Unsupported`] in the result, not as a submission
    /// error.  Blocking while the queue is full, like
    /// [`AsyncEngine::submit`].
    pub fn submit_snapshot(
        &self,
        snapshot: &Arc<PreparedSnapshot>,
        query: &str,
    ) -> Result<QueryFuture<QueryResult>, TrySubmitError> {
        let (job, future) = Self::snapshot_job(snapshot, query);
        self.enqueue(job, future, true)
    }

    /// Non-blocking [`AsyncEngine::submit_snapshot`].
    pub fn try_submit_snapshot(
        &self,
        snapshot: &Arc<PreparedSnapshot>,
        query: &str,
    ) -> Result<QueryFuture<QueryResult>, TrySubmitError> {
        let (job, future) = Self::snapshot_job(snapshot, query);
        self.enqueue(job, future, false)
    }

    fn snapshot_job(
        snapshot: &Arc<PreparedSnapshot>,
        query: &str,
    ) -> (Job, QueryFuture<QueryResult>) {
        let snapshot = Arc::clone(snapshot);
        let query = query.to_string();
        Self::task_job(move |engine| {
            let doc = snapshot.document().map_err(|e| EvalError::Unsupported {
                message: format!("snapshot decode failed: {e}"),
            })?;
            engine
                .compile(&query)
                .and_then(|plan| plan.run_prepared(&doc))
        })
    }

    /// Submits an arbitrary closure to run on a worker, with access to the
    /// worker's engine handle — the generic escape hatch behind the typed
    /// entry points (and the lever tests use to occupy workers
    /// deterministically).  Blocking while the queue is full.
    pub fn submit_task<T, F>(&self, f: F) -> Result<QueryFuture<T>, TrySubmitError>
    where
        F: FnOnce(&Engine) -> T + Send + 'static,
        T: Send + 'static,
    {
        let (job, future) = Self::task_job(f);
        self.enqueue(job, future, true)
    }

    /// Non-blocking [`AsyncEngine::submit_task`].
    pub fn try_submit_task<T, F>(&self, f: F) -> Result<QueryFuture<T>, TrySubmitError>
    where
        F: FnOnce(&Engine) -> T + Send + 'static,
        T: Send + 'static,
    {
        let (job, future) = Self::task_job(f);
        self.enqueue(job, future, false)
    }

    /// Snapshot of the pool's counters.
    pub fn stats(&self) -> ServeStats {
        let shared = &self.shared;
        let per_worker: Vec<WorkerStats> = shared
            .workers
            .iter()
            .map(|w| WorkerStats {
                completed: w.completed.load(Ordering::Relaxed),
                panicked: w.panicked.load(Ordering::Relaxed),
            })
            .collect();
        ServeStats {
            workers: per_worker.len(),
            queue_capacity: shared.queue.capacity(),
            queue_depth: shared.queue.depth(),
            queue_high_watermark: shared.queue.high_watermark(),
            submitted: shared.queue.accepted(),
            expired: shared.queue.expired(),
            rejected_full: shared.rejected_full.load(Ordering::Relaxed),
            rejected_shutdown: shared.rejected_shutdown.load(Ordering::Relaxed),
            completed: per_worker.iter().map(|w| w.completed).sum(),
            panicked: per_worker.iter().map(|w| w.panicked).sum(),
            queue_wait: shared.queue_wait.snapshot(),
            execution: shared.execution.snapshot(),
            end_to_end: shared.end_to_end.snapshot(),
            per_worker,
        }
    }

    /// Stops accepting submissions: every later `submit`/`try_submit`
    /// fails with [`TrySubmitError::ShutDown`], submitters blocked on a
    /// full queue are woken with the same error, and workers keep draining
    /// every *already accepted* job.  Non-consuming; pair with
    /// [`AsyncEngine::shutdown`] (or drop) to also join the workers.
    pub fn begin_shutdown(&self) {
        self.shared.queue.shutdown();
    }

    /// True once [`AsyncEngine::begin_shutdown`] (or `shutdown`) ran.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.queue.is_shutting_down()
    }

    /// Graceful shutdown: stops intake, waits for the workers to drain
    /// every accepted job, joins them, and returns the final counters.
    pub fn shutdown(mut self) -> ServeStats {
        self.begin_shutdown();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        self.stats()
    }
}

impl Default for AsyncEngine {
    fn default() -> Self {
        AsyncEngine::new()
    }
}

impl Drop for AsyncEngine {
    /// Same protocol as [`AsyncEngine::shutdown`]: accepted work is
    /// drained, then the workers are joined.
    fn drop(&mut self) {
        self.begin_shutdown();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}
