//! # xpeval-serve — the async serving layer
//!
//! The evaluation pipeline of `xpeval-core` is synchronous end to end: an
//! [`Engine`](xpeval_core::Engine) call occupies its caller until the
//! value is back.  That is the right shape for one client, and the wrong
//! one for many: the engine is `Sync` (sharded plan cache, memoized
//! document indexes), so under concurrent load the missing piece is purely
//! *front-of-house* — something that accepts queries from many clients,
//! keeps every core busy, and pushes back when work arrives faster than it
//! can be evaluated.
//!
//! This crate is that piece, built on std only (no runtime dependency):
//!
//! * [`AsyncEngine`] — a fixed pool of workers, each holding a clone of
//!   the engine handle (clones share the caches), fed by a **bounded**
//!   MPMC queue.
//! * **Backpressure** — [`AsyncEngine::try_submit`] fails fast with
//!   [`TrySubmitError::Full`] when the queue is at capacity;
//!   [`AsyncEngine::submit`] blocks until a slot drains;
//!   [`AsyncEngine::submit_async`] awaits the slot.
//! * [`QueryFuture`] — the pending result: a plain
//!   [`std::future::Future`], awaitable from any runtime, with a blocking
//!   [`QueryFuture::wait`] for threads and the minimal own executor
//!   [`block_on`] in between.
//! * **Per-submission deadlines** — [`AsyncEngine::submit_with_deadline`]
//!   bounds how long a job may *queue*: a job whose deadline passes while
//!   it waits is dropped at dequeue (it never runs), its future resolves
//!   to [`JobExpired`], and the drop is counted in
//!   [`ServeStats::expired`].
//! * **Named documents** — [`AsyncEngine::submit_named`] targets a
//!   document in an `xpeval_catalog::Catalog` by name instead of shipping
//!   an `Arc`; the worker resolves the name when the job runs, so it
//!   always evaluates the current generation and repeats hit the
//!   catalog's (query × document) artifact cache.
//! * **Snapshot submissions** — [`AsyncEngine::submit_snapshot`] accepts
//!   a zero-copy `xpeval_backends::PreparedSnapshot`: workers share one
//!   lazily-decoded `PreparedDocument` behind the snapshot's `Arc`, so a
//!   prepared artifact written offline serves concurrent queries without
//!   re-parsing or re-indexing.
//! * **Graceful shutdown** — [`AsyncEngine::shutdown`] stops intake,
//!   drains every accepted job, joins the workers and returns the final
//!   [`ServeStats`]; late submissions fail with
//!   [`TrySubmitError::ShutDown`].
//! * [`ServeStats`] — queue depth and high-watermark, full request
//!   lifecycle latency histograms (queue-wait, execution and end-to-end,
//!   each with p50/p90/p99), expired-job and per-worker
//!   completed/panicked counters — the serving-side sibling of
//!   `xpeval_core::CacheStats`.  It implements
//!   `xpeval_obs::MetricSource`, so the same snapshot renders as a
//!   summary line, a JSON object, or a Prometheus scrape; and when the
//!   pool's engine carries an `xpeval_obs::Telemetry` handle, workers
//!   stream the same distributions into its metrics registry live.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use xpeval_dom::{parse_xml, PreparedDocument};
//! use xpeval_serve::AsyncEngine;
//!
//! let pool = AsyncEngine::builder().workers(2).queue_capacity(64).build();
//! let doc = Arc::new(PreparedDocument::new(
//!     parse_xml("<lib><book/><book/></lib>").unwrap(),
//! ));
//!
//! // Fan out; each submission returns immediately with a future.
//! let futures: Vec<_> = (0..8)
//!     .map(|_| pool.submit(&doc, "count(//book)").unwrap())
//!     .collect();
//! for f in futures {
//!     let output = f.wait().unwrap().unwrap();
//!     assert_eq!(output.value, xpeval_core::Value::Number(2.0));
//! }
//!
//! let stats = pool.shutdown(); // drains in-flight work, joins workers
//! assert_eq!(stats.completed, 8);
//! ```

pub mod future;
pub mod pool;
pub(crate) mod queue;
pub mod stats;
pub mod submit_async;

pub use future::{block_on, DeadlineResult, JobExpired, JobLost, QueryFuture};
pub use pool::{
    AsyncEngine, AsyncEngineBuilder, CatalogMutationResult, CatalogQueryResult, QueryResult,
    TrySubmitError,
};
pub use stats::{ServeStats, WorkerStats};
pub use submit_async::SubmitFuture;
