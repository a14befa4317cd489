//! The bounded admission queue, the service's one admission policy:
//! at most `limit` evaluations run concurrently, at most `queue_depth`
//! callers wait for a slot, and everyone past that is turned away with
//! [`ServeError::Saturated`] — backpressure instead of unbounded
//! queueing.
//!
//! Bounding *both* dimensions matters for a serving system: the
//! concurrency limit keeps concurrent evaluations from thrashing the
//! shared worker pool, while `queue_depth` bounds tail latency — a
//! request that would wait behind an arbitrarily long line is cheaper
//! to reject immediately. The limit is fixed when the service is built
//! (`max_inflight`, `workers` by default).
//!
//! Released slots are handed to the **oldest waiter** (FIFO tickets):
//! neither a fresh [`Admission::acquire_deadline`] nor a stream of
//! [`Admission::try_acquire`] calls can barge past callers already
//! queued. Without the hand-off, a hot client hammering `try_acquire`
//! could starve a blocked `acquire` indefinitely — the opposite of the
//! bounded-tail-latency contract the queue exists to provide.
//!
//! A queued waiter leaves the line only when it is admitted, when its
//! deadline passes ([`Admission::acquire_deadline`]), or when the
//! service closes for draining ([`Admission::close`]). A leaving waiter
//! hands its FIFO ticket to the next waiter: if it was first in line,
//! the serve cursor advances past it immediately; otherwise the ticket
//! is remembered as cancelled and skipped when the cursor reaches it.
//! Either way no ticket is ever stranded — a stranded head ticket would
//! deadlock every waiter behind it even with free slots available.

use std::collections::BTreeSet;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use crate::error::ServeError;

#[derive(Default)]
struct AdmissionState {
    inflight: usize,
    waiting: usize,
    /// Next ticket to hand to a new waiter.
    next_ticket: u64,
    /// Ticket currently first in line; only its holder may take a freed
    /// slot, so wakeups admit waiters strictly in arrival order.
    serve_ticket: u64,
    /// Tickets whose holders left the queue (deadline passed) while not
    /// at the head of the line; the serve cursor skips over them.
    cancelled: BTreeSet<u64>,
    /// Set by [`Admission::close`]: no further admissions, queued
    /// waiters are shed with [`ServeError::Draining`].
    closed: bool,
}

/// Advance the serve cursor to the next ticket whose holder is still
/// waiting.
fn advance_cursor(st: &mut AdmissionState) {
    st.serve_ticket += 1;
    while st.cancelled.remove(&st.serve_ticket) {
        st.serve_ticket += 1;
    }
}

/// A queued waiter gives up: hand its FIFO ticket to the next waiter
/// instead of stranding the line.
fn leave_queue(st: &mut AdmissionState, ticket: u64) {
    st.waiting -= 1;
    if ticket == st.serve_ticket {
        advance_cursor(st);
    } else {
        st.cancelled.insert(ticket);
    }
}

/// Counting semaphore with a fixed concurrency limit and a bounded,
/// strictly FIFO wait queue.
pub(crate) struct Admission {
    state: Mutex<AdmissionState>,
    cv: Condvar,
    limit: usize,
    queue_depth: usize,
}

impl Admission {
    pub(crate) fn new(max_inflight: usize, queue_depth: usize) -> Admission {
        Admission {
            state: Mutex::new(AdmissionState::default()),
            cv: Condvar::new(),
            limit: max_inflight.max(1),
            queue_depth,
        }
    }

    /// The concurrency limit.
    pub(crate) fn limit(&self) -> usize {
        self.limit
    }

    fn saturated(&self) -> ServeError {
        ServeError::Saturated {
            max_inflight: self.limit,
            queue_depth: self.queue_depth,
        }
    }

    /// Acquire a slot with no deadline (test convenience for
    /// [`Admission::acquire_deadline`]).
    #[cfg(test)]
    pub(crate) fn acquire(&self) -> Result<AdmissionPermit<'_>, ServeError> {
        self.acquire_deadline(None)
    }

    /// Acquire a slot, waiting at most until `deadline`. A waiter whose
    /// deadline passes while queued leaves with
    /// [`ServeError::DeadlineExceeded`] (carrying `deadline_ms`, the
    /// request's configured allowance, for the error message) and hands
    /// its FIFO ticket to the next waiter.
    pub(crate) fn acquire_deadline(
        &self,
        deadline: Option<(Instant, u64)>,
    ) -> Result<AdmissionPermit<'_>, ServeError> {
        let mut st = lock(&self.state);
        if st.closed {
            return Err(ServeError::Draining);
        }
        if let Some((d, ms)) = deadline {
            if Instant::now() >= d {
                return Err(ServeError::DeadlineExceeded { deadline_ms: ms });
            }
        }
        // Fast path only when nobody is queued: with waiters present a
        // newcomer takes a ticket behind them instead of stealing the
        // slot a release just freed for the head of the line.
        if st.inflight < self.limit && st.waiting == 0 {
            st.inflight += 1;
            return Ok(AdmissionPermit { admission: self });
        }
        if st.waiting >= self.queue_depth {
            return Err(self.saturated());
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.waiting += 1;
        while st.inflight >= self.limit || ticket != st.serve_ticket {
            if st.closed {
                leave_queue(&mut st, ticket);
                drop(st);
                self.cv.notify_all();
                return Err(ServeError::Draining);
            }
            match deadline {
                None => st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner()),
                Some((d, ms)) => {
                    let now = Instant::now();
                    if now >= d {
                        leave_queue(&mut st, ticket);
                        drop(st);
                        // The head may just have moved onto another
                        // waiter's ticket: wake the line to re-check.
                        self.cv.notify_all();
                        return Err(ServeError::DeadlineExceeded { deadline_ms: ms });
                    }
                    let (guard, _) = self
                        .cv
                        .wait_timeout(st, d - now)
                        .unwrap_or_else(|p| p.into_inner());
                    st = guard;
                }
            }
        }
        advance_cursor(&mut st);
        st.waiting -= 1;
        st.inflight += 1;
        drop(st);
        // More than one slot may be free (several releases in a burst):
        // let the next ticket holder re-check rather than idle.
        self.cv.notify_all();
        Ok(AdmissionPermit { admission: self })
    }

    /// Acquire a slot only if one is free right now *and* no caller is
    /// queued for it; never waits and never barges past the queue.
    pub(crate) fn try_acquire(&self) -> Result<AdmissionPermit<'_>, ServeError> {
        let mut st = lock(&self.state);
        if st.closed {
            Err(ServeError::Draining)
        } else if st.inflight < self.limit && st.waiting == 0 {
            st.inflight += 1;
            Ok(AdmissionPermit { admission: self })
        } else {
            Err(self.saturated())
        }
    }

    /// Close admission for draining: every subsequent acquire and every
    /// currently queued waiter fails with [`ServeError::Draining`];
    /// permits already granted are unaffected and release normally.
    pub(crate) fn close(&self) {
        lock(&self.state).closed = true;
        self.cv.notify_all();
    }

    /// Whether [`Admission::close`] was called.
    pub(crate) fn is_closed(&self) -> bool {
        lock(&self.state).closed
    }

    /// Block until nothing is admitted or queued, or `deadline` passes;
    /// returns whether the queue went idle. Combined with
    /// [`Admission::close`] this is the graceful-drain wait: closed to
    /// newcomers, idle once in-flight work finished.
    pub(crate) fn wait_idle(&self, deadline: Instant) -> bool {
        let mut st = lock(&self.state);
        while st.inflight > 0 || st.waiting > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            st = guard;
        }
        true
    }

    /// Current `(inflight, waiting)` snapshot.
    pub(crate) fn load(&self) -> (usize, usize) {
        let st = lock(&self.state);
        (st.inflight, st.waiting)
    }
}

/// An admitted request's slot; released on drop.
pub(crate) struct AdmissionPermit<'a> {
    admission: &'a Admission,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        lock(&self.admission.state).inflight -= 1;
        // notify_all, not notify_one: the woken waiter must be the one
        // holding `serve_ticket`, which notify_one cannot target.
        self.admission.cv.notify_all();
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn admits_up_to_max_inflight() {
        let a = Admission::new(2, 0);
        let p1 = a.acquire().unwrap();
        let _p2 = a.acquire().unwrap();
        assert!(matches!(a.try_acquire(), Err(ServeError::Saturated { .. })));
        // With queue_depth 0, a blocking acquire is also rejected.
        assert!(matches!(a.acquire(), Err(ServeError::Saturated { .. })));
        drop(p1);
        let _p3 = a.acquire().unwrap();
    }

    #[test]
    fn waiters_are_woken_in_bounded_queue() {
        let a = Arc::new(Admission::new(1, 4));
        let p = a.acquire().unwrap();
        let a2 = a.clone();
        let h = std::thread::spawn(move || {
            let _p = a2.acquire().unwrap();
        });
        // Give the waiter time to enqueue, then release.
        while a.load().1 == 0 {
            std::thread::yield_now();
        }
        drop(p);
        h.join().unwrap();
        assert_eq!(a.load(), (0, 0));
    }

    #[test]
    fn try_acquire_yields_to_queued_waiters() {
        // Regression (ISSUE 4): try_acquire used to grab any free slot,
        // so a stream of try_acquire callers could starve a blocked
        // acquire indefinitely.
        let a = Arc::new(Admission::new(1, 4));
        let p = a.acquire().unwrap();
        let a2 = a.clone();
        // The waiter holds its permit until told to let go: released
        // the moment it was admitted, the slot could be legitimately
        // free again between a `load` still reporting the waiter queued
        // and the `try_acquire` that follows.
        let (release, released) = std::sync::mpsc::channel::<()>();
        let waiter = std::thread::spawn(move || {
            let _p = a2.acquire().unwrap();
            released.recv().unwrap();
        });
        while a.load().1 == 0 {
            std::thread::yield_now();
        }
        // Release the slot: it now belongs to the queued waiter. Every
        // barge attempt until the waiter is admitted must fail.
        drop(p);
        while a.load().1 > 0 {
            assert!(
                a.try_acquire().is_err(),
                "try_acquire barged past a queued waiter"
            );
            std::thread::yield_now();
        }
        release.send(()).unwrap();
        waiter.join().unwrap();
        // Queue drained and slot released: barging is fine again.
        assert!(a.try_acquire().is_ok());
    }

    #[test]
    fn released_slots_go_to_the_oldest_waiter() {
        let a = Arc::new(Admission::new(1, 4));
        let p = a.acquire().unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for id in 0..3 {
            // Serialize enqueue order by waiting for the count to rise.
            while a.load().1 != id {
                std::thread::yield_now();
            }
            let a2 = a.clone();
            let order2 = order.clone();
            handles.push(std::thread::spawn(move || {
                let _p = a2.acquire().unwrap();
                order2.lock().unwrap().push(id);
            }));
            while a.load().1 != id + 1 {
                std::thread::yield_now();
            }
        }
        drop(p);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            *order.lock().unwrap(),
            vec![0, 1, 2],
            "admission must be strictly FIFO"
        );
    }

    #[test]
    fn expired_deadline_is_shed_before_queueing() {
        let a = Admission::new(1, 4);
        let _p = a.acquire().unwrap();
        let past = Instant::now() - Duration::from_millis(1);
        assert!(matches!(
            a.acquire_deadline(Some((past, 0))),
            Err(ServeError::DeadlineExceeded { deadline_ms: 0 })
        ));
        assert_eq!(a.load(), (1, 0), "shed request never occupied the queue");
    }

    #[test]
    fn cancelled_waiter_hands_its_ticket_to_the_next() {
        // Regression (ISSUE 6): a waiter whose deadline passed while
        // queued used to strand its FIFO ticket — `serve_ticket` never
        // reached the waiters behind it, deadlocking them even with
        // free slots.
        let a = Arc::new(Admission::new(1, 4));
        let p = a.acquire().unwrap();
        // Waiter A queues first, with a deadline that expires while the
        // slot is still held.
        let a2 = a.clone();
        let ha = std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_millis(30);
            a2.acquire_deadline(Some((deadline, 30))).err()
        });
        while a.load().1 != 1 {
            std::thread::yield_now();
        }
        // Waiter B queues behind A, with no deadline.
        let a3 = a.clone();
        let hb = std::thread::spawn(move || {
            let _p = a3.acquire().unwrap();
        });
        while a.load().1 != 2 {
            std::thread::yield_now();
        }
        // A gives up while the slot is still held...
        let err = ha.join().unwrap();
        assert!(
            matches!(err, Some(ServeError::DeadlineExceeded { .. })),
            "waiter A must report its deadline: {err:?}"
        );
        // ...and B (now sole waiter, holding A's handed-down turn) is
        // admitted as soon as the slot frees. Pre-fix this join hangs.
        drop(p);
        hb.join().unwrap();
        assert_eq!(a.load(), (0, 0));
    }

    #[test]
    fn close_sheds_queued_waiters_and_newcomers() {
        let a = Arc::new(Admission::new(1, 4));
        let p = a.acquire().unwrap();
        let a2 = a.clone();
        let waiter = std::thread::spawn(move || a2.acquire().err());
        while a.load().1 != 1 {
            std::thread::yield_now();
        }
        a.close();
        assert!(matches!(waiter.join().unwrap(), Some(ServeError::Draining)));
        assert!(matches!(a.acquire(), Err(ServeError::Draining)));
        assert!(matches!(a.try_acquire(), Err(ServeError::Draining)));
        assert!(a.is_closed());
        // The in-flight permit still completes; wait_idle observes it.
        assert!(!a.wait_idle(Instant::now() + Duration::from_millis(10)));
        drop(p);
        assert!(a.wait_idle(Instant::now() + Duration::from_secs(5)));
    }
}
