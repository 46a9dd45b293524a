//! The bounded MPMC job queue between submitters and workers.
//!
//! This is the backpressure point of the serving layer: the queue holds at
//! most `capacity` jobs, and a full queue makes [`BoundedQueue::try_push`]
//! fail fast while [`BoundedQueue::push_blocking`] waits (condvar) for a
//! worker to drain a slot.  Async submitters register a [`Waker`] instead
//! of blocking ([`BoundedQueue::push_or_register`]); every pop wakes all
//! of them (stale registrations from cancelled futures must not absorb
//! the wakeup), and losers re-register on their next poll.
//!
//! Shutdown is graceful by construction: [`BoundedQueue::shutdown`] only
//! flips a flag and wakes everyone — already-accepted jobs stay in the
//! queue and [`BoundedQueue::pop`] keeps handing them out until it is
//! empty, so workers drain all in-flight work before exiting.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::task::Waker;
use std::time::{Duration, Instant};
use xpeval_core::Engine;

use crate::TrySubmitError;

/// A unit of work: the closure a worker runs against its own [`Engine`]
/// handle, stamped with its enqueue time so the pool can report
/// enqueue→dequeue latency — plus, for deadline-bearing submissions, the
/// instant past which the job must not run and the hook that resolves the
/// submitter's future to `JobExpired` when it is dropped.
pub(crate) struct Job {
    pub(crate) run: Box<dyn FnOnce(&Engine) + Send + 'static>,
    pub(crate) enqueued: Instant,
    /// A job still queued at this instant is dropped at dequeue instead of
    /// run ([`BoundedQueue::pop`]); `None` = no deadline.
    pub(crate) deadline: Option<Instant>,
    /// Invoked (instead of `run`) when the deadline drop happens.  Exactly
    /// one of `run`/`expire` ever fires.
    pub(crate) expire: Option<Box<dyn FnOnce() + Send + 'static>>,
}

impl Job {
    /// A job without a deadline.
    pub(crate) fn new(run: Box<dyn FnOnce(&Engine) + Send + 'static>) -> Self {
        Job {
            run,
            enqueued: Instant::now(),
            deadline: None,
            expire: None,
        }
    }
}

/// Outcome of [`BoundedQueue::push_or_register`].
pub(crate) enum PushOutcome {
    /// The job was enqueued.
    Pushed,
    /// The queue was full; the waker is registered and the job handed back
    /// for the next attempt.
    Registered(Job),
    /// The queue no longer accepts work.
    ShutDown,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutting_down: bool,
    /// Jobs ever accepted into the queue; bumped under the same lock as
    /// the push, so an accepted job is counted before any worker can pop
    /// it (a stats snapshot never sees completed > accepted).
    accepted: u64,
    /// Jobs dropped at dequeue because their deadline had passed.
    expired: u64,
    /// Deepest the queue has ever been.
    high_watermark: usize,
    /// Wakers of async submitters parked on a full queue.
    submit_waiters: Vec<Waker>,
}

pub(crate) struct BoundedQueue {
    capacity: usize,
    state: Mutex<QueueState>,
    /// Signalled on push (workers wait here when the queue is empty).
    not_empty: Condvar,
    /// Signalled on pop (blocking submitters wait here when it is full).
    not_full: Condvar,
}

impl BoundedQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        BoundedQueue {
            capacity: capacity.max(1),
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutting_down: false,
                accepted: 0,
                expired: 0,
                high_watermark: 0,
                submit_waiters: Vec::new(),
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn depth(&self) -> usize {
        self.state.lock().unwrap().jobs.len()
    }

    pub(crate) fn high_watermark(&self) -> usize {
        self.state.lock().unwrap().high_watermark
    }

    /// Jobs ever accepted into the queue.
    pub(crate) fn accepted(&self) -> u64 {
        self.state.lock().unwrap().accepted
    }

    /// Jobs dropped at dequeue because their deadline had passed.
    pub(crate) fn expired(&self) -> u64 {
        self.state.lock().unwrap().expired
    }

    fn enqueue_locked(&self, state: &mut QueueState, job: Job) {
        state.jobs.push_back(job);
        state.accepted += 1;
        state.high_watermark = state.high_watermark.max(state.jobs.len());
        self.not_empty.notify_one();
    }

    /// Non-blocking enqueue; fails fast with [`TrySubmitError::Full`] under
    /// backpressure.
    pub(crate) fn try_push(&self, job: Job) -> Result<(), TrySubmitError> {
        let mut state = self.state.lock().unwrap();
        if state.shutting_down {
            return Err(TrySubmitError::ShutDown);
        }
        if state.jobs.len() >= self.capacity {
            return Err(TrySubmitError::Full);
        }
        self.enqueue_locked(&mut state, job);
        Ok(())
    }

    /// Blocking enqueue: waits until a worker drains a slot.  Only fails
    /// when the queue shuts down (before or during the wait).
    pub(crate) fn push_blocking(&self, job: Job) -> Result<(), TrySubmitError> {
        let mut state = self.state.lock().unwrap();
        loop {
            if state.shutting_down {
                return Err(TrySubmitError::ShutDown);
            }
            if state.jobs.len() < self.capacity {
                self.enqueue_locked(&mut state, job);
                return Ok(());
            }
            state = self.not_full.wait(state).unwrap();
        }
    }

    /// Async enqueue step: pushes, or registers `waker` to be woken when a
    /// slot drains — atomically with the fullness check, so no wakeup can
    /// slip between the check and the registration.
    pub(crate) fn push_or_register(&self, job: Job, waker: &Waker) -> PushOutcome {
        let mut state = self.state.lock().unwrap();
        if state.shutting_down {
            return PushOutcome::ShutDown;
        }
        if state.jobs.len() < self.capacity {
            self.enqueue_locked(&mut state, job);
            return PushOutcome::Pushed;
        }
        // Keep one registration per task: a re-poll replaces its old waker.
        if let Some(existing) = state.submit_waiters.iter_mut().find(|w| w.will_wake(waker)) {
            existing.clone_from(waker);
        } else {
            state.submit_waiters.push(waker.clone());
        }
        PushOutcome::Registered(job)
    }

    /// Dequeues the next job, blocking while the queue is empty; returns
    /// `None` once the queue is shutting down *and* drained, together with
    /// how long the job sat in the queue.
    ///
    /// A job whose deadline passed while it sat in the queue is **dropped
    /// here, never run**: its `expire` hook resolves the submitter's
    /// future to `JobExpired`, the drop is counted, and the pop moves on
    /// to the next job — so an expired job costs the worker one dequeue,
    /// not an evaluation.
    pub(crate) fn pop(&self) -> Option<(Job, Duration)> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                let expired = job.deadline.is_some_and(|d| Instant::now() >= d);
                if expired {
                    state.expired += 1;
                }
                // A slot opened either way: hand it to one blocked
                // submitter, and wake *every* parked async submitter
                // (outside the lock).  All, not one: a cancelled
                // SubmitFuture leaves a stale waker behind, and waking
                // just one registration could spend the wakeup on that
                // corpse while a live submitter sleeps on a free slot.
                // Live losers simply re-register on their next poll.
                let wakers = std::mem::take(&mut state.submit_waiters);
                drop(state);
                self.not_full.notify_one();
                for waker in wakers {
                    waker.wake();
                }
                if expired {
                    // Dropped at dequeue: the job's closure never runs.
                    if let Some(expire) = job.expire {
                        expire();
                    }
                    state = self.state.lock().unwrap();
                    continue;
                }
                let waited = job.enqueued.elapsed();
                return Some((job, waited));
            }
            if state.shutting_down {
                return None;
            }
            state = self.not_empty.wait(state).unwrap();
        }
    }

    /// Stops accepting submissions and wakes every waiter; queued jobs are
    /// still handed out by [`BoundedQueue::pop`] until drained.
    pub(crate) fn shutdown(&self) {
        let wakers = {
            let mut state = self.state.lock().unwrap();
            state.shutting_down = true;
            std::mem::take(&mut state.submit_waiters)
        };
        self.not_empty.notify_all();
        self.not_full.notify_all();
        for waker in wakers {
            waker.wake();
        }
    }

    pub(crate) fn is_shutting_down(&self) -> bool {
        self.state.lock().unwrap().shutting_down
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn job() -> Job {
        Job::new(Box::new(|_: &Engine| {}))
    }

    fn deadline_job(
        deadline: Instant,
        expired_flag: std::sync::Arc<std::sync::Mutex<bool>>,
    ) -> Job {
        let mut job = Job::new(Box::new(|_: &Engine| {}));
        job.deadline = Some(deadline);
        job.expire = Some(Box::new(move || *expired_flag.lock().unwrap() = true));
        job
    }

    #[test]
    fn try_push_fails_fast_when_full() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(job()).is_ok());
        assert!(q.try_push(job()).is_ok());
        assert_eq!(q.try_push(job()).unwrap_err(), TrySubmitError::Full);
        assert_eq!(q.depth(), 2);
        assert_eq!(q.high_watermark(), 2);
    }

    #[test]
    fn capacity_zero_is_clamped_to_one() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        assert!(q.try_push(job()).is_ok());
        assert_eq!(q.try_push(job()).unwrap_err(), TrySubmitError::Full);
    }

    #[test]
    fn pop_drains_in_fifo_order_then_blocks_until_shutdown() {
        let q = BoundedQueue::new(4);
        q.try_push(job()).unwrap();
        q.try_push(job()).unwrap();
        assert!(q.pop().is_some());
        assert!(q.pop().is_some());
        q.shutdown();
        assert!(q.pop().is_none());
    }

    #[test]
    fn shutdown_rejects_pushes_but_pops_queued_jobs() {
        let q = BoundedQueue::new(4);
        q.try_push(job()).unwrap();
        q.shutdown();
        assert_eq!(q.try_push(job()).unwrap_err(), TrySubmitError::ShutDown);
        assert_eq!(
            q.push_blocking(job()).unwrap_err(),
            TrySubmitError::ShutDown
        );
        assert!(q.pop().is_some(), "accepted work survives shutdown");
        assert!(q.pop().is_none());
    }

    #[test]
    fn expired_jobs_are_dropped_at_dequeue() {
        use std::sync::{Arc, Mutex};
        let q = BoundedQueue::new(4);
        let hit = Arc::new(Mutex::new(false));
        // Already past its deadline when popped.
        q.try_push(deadline_job(
            Instant::now() - Duration::from_millis(1),
            Arc::clone(&hit),
        ))
        .unwrap();
        q.try_push(job()).unwrap();
        // The pop skips the expired job and hands out the live one.
        let (live, _) = q.pop().unwrap();
        assert!(live.deadline.is_none());
        assert!(*hit.lock().unwrap(), "expire hook must have fired");
        assert_eq!(q.expired(), 1);
        // A future deadline is not expiry.
        let not_yet = Arc::new(Mutex::new(false));
        q.try_push(deadline_job(
            Instant::now() + Duration::from_secs(60),
            Arc::clone(&not_yet),
        ))
        .unwrap();
        assert!(q.pop().is_some());
        assert!(!*not_yet.lock().unwrap());
        assert_eq!(q.expired(), 1);
    }

    #[test]
    fn a_queue_of_only_expired_jobs_drains_to_shutdown() {
        use std::sync::{Arc, Mutex};
        let q = BoundedQueue::new(4);
        let past = Instant::now() - Duration::from_millis(1);
        for _ in 0..3 {
            q.try_push(deadline_job(past, Arc::new(Mutex::new(false))))
                .unwrap();
        }
        q.shutdown();
        // pop skips all three and reports the drained shutdown.
        assert!(q.pop().is_none());
        assert_eq!(q.expired(), 3);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn blocking_push_wakes_on_drain() {
        let q = std::sync::Arc::new(BoundedQueue::new(1));
        q.try_push(job()).unwrap();
        let q2 = std::sync::Arc::clone(&q);
        let submitter = std::thread::spawn(move || q2.push_blocking(job()));
        std::thread::sleep(Duration::from_millis(20));
        assert!(!submitter.is_finished(), "must block while full");
        q.pop().unwrap();
        assert!(submitter.join().unwrap().is_ok());
        assert_eq!(q.depth(), 1);
    }
}
