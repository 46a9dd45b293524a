//! The runtime-facing async submission surface.
//!
//! [`AsyncEngine::submit`](crate::AsyncEngine::submit) *blocks* its caller
//! while the queue is full — correct for dedicated client threads, wrong
//! inside an async runtime, where blocking a task blocks the executor
//! thread under it.  This module adds the awaiting counterpart:
//! [`AsyncEngine::submit_async`] returns a [`SubmitFuture`] that resolves
//! once the job is *accepted* (or the pool shuts down), parking the task —
//! not the thread — on a full queue.  Backpressure thus propagates through
//! `.await`, tokio-style.
//!
//! Nothing here names a runtime's type: `SubmitFuture` and
//! [`QueryFuture`] are plain [`std::future::Future`]s,
//! so any executor (including the crate's own
//! [`block_on`](crate::block_on)) can drive them.

use crate::future::QueryFuture;
use crate::pool::{AsyncEngine, QueryResult};
use crate::queue::{Job, PushOutcome};
use crate::TrySubmitError;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::task::{Context, Poll};
use xpeval_dom::PreparedDocument;

/// Resolves once the submission is accepted by the queue — yielding the
/// [`QueryFuture`] for its result — or rejected by shutdown.
///
/// While the queue is full the future is parked and re-woken each time a
/// worker drains a slot (the check and the waker registration happen under
/// one lock, so no wakeup can be lost).
#[must_use = "a SubmitFuture does nothing until awaited"]
pub struct SubmitFuture<'a, T> {
    engine: &'a AsyncEngine,
    /// The job travels with the future until the queue accepts it.
    job: Option<Job>,
    result: Option<QueryFuture<T>>,
}

impl<T> std::fmt::Debug for SubmitFuture<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubmitFuture")
            .field("pending", &self.job.is_some())
            .finish_non_exhaustive()
    }
}

impl<T> Future for SubmitFuture<'_, T> {
    type Output = Result<QueryFuture<T>, TrySubmitError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // Everything is Unpin; the pin is structural noise.
        let this = self.get_mut();
        let Some(job) = this.job.take() else {
            panic!("SubmitFuture polled after completion");
        };
        let shared = &this.engine.shared;
        match shared.queue.push_or_register(job, cx.waker()) {
            PushOutcome::Pushed => Poll::Ready(Ok(this
                .result
                .take()
                .expect("result future present until acceptance"))),
            PushOutcome::Registered(job) => {
                this.job = Some(job);
                Poll::Pending
            }
            PushOutcome::ShutDown => {
                shared.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
                Poll::Ready(Err(TrySubmitError::ShutDown))
            }
        }
    }
}

impl AsyncEngine {
    /// Async counterpart of [`AsyncEngine::submit`]: awaits queue space
    /// instead of blocking the thread.  Typical use from a runtime task:
    ///
    /// ```
    /// # use std::sync::Arc;
    /// # use xpeval_core::Engine;
    /// # use xpeval_dom::{parse_xml, PreparedDocument};
    /// # use xpeval_serve::{block_on, AsyncEngine};
    /// let pool = AsyncEngine::builder().workers(2).build();
    /// let doc = Arc::new(PreparedDocument::new(parse_xml("<a><b/></a>").unwrap()));
    /// let out = block_on(async {
    ///     let accepted = pool.submit_async(&doc, "count(//b)").await?;
    ///     accepted.await.map_err(|_| xpeval_serve::TrySubmitError::ShutDown)
    /// });
    /// assert!(out.unwrap().is_ok());
    /// ```
    pub fn submit_async(
        &self,
        doc: &Arc<PreparedDocument>,
        query: &str,
    ) -> SubmitFuture<'_, QueryResult> {
        // Same job body as the blocking `submit`: sync and async
        // submissions must never diverge in what they evaluate.
        let (job, result) = Self::query_job(doc, query);
        SubmitFuture {
            engine: self,
            job: Some(job),
            result: Some(result),
        }
    }

    /// Async counterpart of [`AsyncEngine::submit_task`].
    pub fn submit_task_async<T, F>(&self, f: F) -> SubmitFuture<'_, T>
    where
        F: FnOnce(&xpeval_core::Engine) -> T + Send + 'static,
        T: Send + 'static,
    {
        let (job, result) = Self::task_job(f);
        SubmitFuture {
            engine: self,
            job: Some(job),
            result: Some(result),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_on;
    use xpeval_dom::parse_xml;

    #[test]
    fn submit_async_accepts_and_resolves() {
        let pool = AsyncEngine::builder().workers(1).build();
        let doc = Arc::new(PreparedDocument::new(parse_xml("<r><x/><x/></r>").unwrap()));
        let value = block_on(async {
            let accepted = pool.submit_async(&doc, "count(//x)").await.unwrap();
            accepted.await.unwrap().unwrap().value
        });
        assert_eq!(value, xpeval_core::Value::Number(2.0));
    }

    #[test]
    fn submit_async_awaits_a_full_queue_instead_of_failing() {
        let pool = AsyncEngine::builder().workers(1).queue_capacity(1).build();
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        // Occupy the single worker…
        let blocker = pool
            .submit_task(move |_| {
                gate_rx.recv().ok();
            })
            .unwrap();
        // …and fill the single queue slot.
        let filler = pool.submit_task(|_| 1u32).unwrap();
        assert_eq!(
            pool.try_submit_task(|_| 2u32).unwrap_err(),
            TrySubmitError::Full
        );

        // The async submit parks instead of failing; releasing the worker
        // drains the queue and wakes it.
        let pool_ref = &pool;
        let resolved = block_on(async move {
            let submit = pool_ref.submit_task_async(|_| 3u32);
            // Open the gate only after the submit future exists, from a
            // helper thread, so the task genuinely waits first.
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(30));
                gate_tx.send(()).ok();
            });
            submit.await.unwrap().await
        });
        assert_eq!(resolved, Ok(3));
        assert_eq!(blocker.wait(), Ok(()));
        assert_eq!(filler.wait(), Ok(1));
    }

    #[test]
    fn a_cancelled_submit_future_does_not_eat_the_wakeup() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::task::{Context, Poll, Waker};

        fn flag_waker(flag: Arc<AtomicBool>) -> Waker {
            struct Flag(Arc<AtomicBool>);
            impl std::task::Wake for Flag {
                fn wake(self: Arc<Self>) {
                    self.0.store(true, Ordering::SeqCst);
                }
            }
            Waker::from(Arc::new(Flag(flag)))
        }

        let pool = AsyncEngine::builder().workers(1).queue_capacity(1).build();
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let _blocker = pool.submit_task(move |_| {
            gate_rx.recv().ok();
        });
        let filler = pool.submit_task(|_| ()).unwrap();

        // Two parked submitters, each with its own waker registered.
        let mut cancelled = pool.submit_task_async(|_| 1u8);
        let mut live = pool.submit_task_async(|_| 2u8);
        let live_woken = Arc::new(AtomicBool::new(false));
        let cancelled_waker = flag_waker(Arc::new(AtomicBool::new(false)));
        let live_waker = flag_waker(Arc::clone(&live_woken));
        assert!(std::pin::Pin::new(&mut cancelled)
            .poll(&mut Context::from_waker(&cancelled_waker))
            .is_pending());
        assert!(std::pin::Pin::new(&mut live)
            .poll(&mut Context::from_waker(&live_waker))
            .is_pending());

        // The first submitter gives up (select!/timeout-style cancel),
        // leaving its stale waker behind; the drained slot must still
        // reach the live one.
        drop(cancelled);
        gate_tx.send(()).unwrap();
        filler.wait().unwrap();

        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !live_woken.load(Ordering::SeqCst) {
            assert!(
                std::time::Instant::now() < deadline,
                "live submitter was never woken after the queue drained"
            );
            std::thread::yield_now();
        }
        match std::pin::Pin::new(&mut live).poll(&mut Context::from_waker(&live_waker)) {
            Poll::Ready(Ok(result)) => assert_eq!(result.wait(), Ok(2)),
            other => panic!("expected acceptance after wakeup, got {other:?}"),
        }
    }

    #[test]
    fn submit_async_resolves_shutdown_when_parked() {
        let pool = AsyncEngine::builder().workers(1).queue_capacity(1).build();
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let _blocker = pool.submit_task(move |_| {
            gate_rx.recv().ok();
        });
        let _filler = pool.submit_task(|_| ()).unwrap();

        let pool_ref = &pool;
        let outcome = block_on(async move {
            let submit = pool_ref.submit_task_async(|_| ());
            let engine_for_shutdown = pool_ref;
            std::thread::spawn({
                let shared = Arc::clone(&engine_for_shutdown.shared);
                move || {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    shared.queue.shutdown();
                }
            });
            submit.await
        });
        assert_eq!(outcome.unwrap_err(), TrySubmitError::ShutDown);
        gate_tx.send(()).ok();
    }
}
