//! The persistent, shareable work-stealing worker pool.
//!
//! Earlier revisions of the executor spawned OS threads with
//! `std::thread::scope` for every stage, so short stages paid thread
//! creation and teardown on their critical path — exactly the fixed
//! overhead Figure 5 measures. This module keeps one set of workers
//! alive and hands stage work to them as `Job`s — an immutable stage
//! description plus a shared atomic batch cursor.
//!
//! Since the serving work (`mozart-serve`) a pool is no longer owned by
//! exactly one [`MozartContext`](crate::MozartContext): it is handed out
//! as a cheaply clonable [`PoolHandle`] that any number of contexts can
//! attach to. Jobs submitted concurrently by different contexts queue
//! up, and the submitting thread always participates in its own job as
//! worker 0, so a stage makes progress even when every pool thread is
//! busy serving another session — many sessions share one machine's
//! worth of threads instead of oversubscribing it with one pool per
//! context.
//!
//! # Queue order across sessions
//!
//! An idle worker joins the first open job in the queue, which is the
//! oldest one. No session is starved: the submitting thread always
//! runs its own job, so a stage progresses at single-thread speed even
//! while every pool worker serves other sessions' jobs. Requests are
//! ordered across sessions before they reach the pool, by admission
//! (`mozart-serve`'s fixed in-flight limit and its FIFO queue).
//!
//! Scheduling within a job is dynamic: instead of carving the element
//! range into one static span per worker, every participant claims the
//! next cache-sized batch — or, when many batches remain, a *guided
//! claim span* of `remaining / (2 · participants)` batches — from
//! `Job::cursor` with a `fetch_add`. A worker stuck on a skewed batch
//! (expensive split, data-dependent task cost) simply stops claiming
//! while the others drain the remainder, so the stage finishes at the
//! speed of the aggregate, not of the slowest static range.
//!
//! Per-job bookkeeping (claimed batches and cursor claims per
//! participant, batches that static partitioning would have given to
//! another worker, park/unpark transitions) is aggregated into
//! [`PoolStats`]; see `MozartContext::pool_stats` and
//! `PoolHandle::stats`. The pool keeps no per-session or per-context
//! accounts: a serving layer meters its sessions from each request's
//! `PhaseStats`.
//!
//! # Panic isolation and worker respawn
//!
//! A panic inside a split/task/merge phase is caught *inside* the
//! driver loop (`executor::catch_phase`) and fails only the job it
//! belonged to, as a typed [`Error::TaskPanicked`]; the worker thread
//! survives and serves the next job. Panics that nonetheless unwind a
//! pool thread — a deliberate
//! [`WorkerAbort`](crate::faultinject::WorkerAbort) from the fault
//! injector, or a defect outside the phase wrappers — hit two
//! backstops: `worker_main` completes the job's join bookkeeping (so
//! the submitter unblocks with a typed error instead of hanging) before
//! letting the thread die, and a drop sentinel on the thread's stack
//! respawns a replacement so the pool always returns to its full
//! complement ([`PoolStats::respawned_workers`]).

#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::cputime::PhaseClock;
use crate::error::{Error, Result};
use crate::executor::{run_worker, ExecStage, WorkerOut};
use crate::faultinject::{panic_message, FaultPhase};
use crate::stats::PoolStats;

/// One stage dispatched to the pool: the immutable stage description,
/// the shared batch cursor workers claim ranges from, and completion
/// bookkeeping.
///
/// Pool workers *join* a job before participating and are counted out
/// when they finish. Once the caller has drained its own share it
/// *closes* the job: workers that have not joined by then are turned
/// away, so a stage the caller drained alone (common for short stages)
/// completes without waiting for any worker to wake up.
pub(crate) struct Job {
    /// The stage being executed (read-only across workers).
    pub(crate) exec: ExecStage,
    /// Next unclaimed element index; workers `fetch_add` claim spans.
    pub(crate) cursor: AtomicU64,
    /// Set when any participant fails, so the others stop claiming.
    pub(crate) failed: AtomicBool,
    /// Cleared once the job is closed or fully ticketed, so queue scans
    /// skip it without taking its state lock.
    open: AtomicBool,
    /// Participant-index allocator for pool workers (the calling thread
    /// is always participant 0, so tickets start at 1).
    tickets: AtomicUsize,
    /// Worker results and join/finish bookkeeping.
    state: Mutex<JobState>,
    done_cv: Condvar,
}

#[derive(Default)]
struct JobState {
    outs: Vec<WorkerOut>,
    error: Option<Error>,
    /// Pool workers that joined (ran or are running the driver loop).
    joined: usize,
    /// Pool workers that finished.
    finished: usize,
    /// Set by the caller once its own driver loop is done; no further
    /// workers may join.
    closed: bool,
}

impl Job {
    /// Wrap a stage for execution on the pool.
    pub(crate) fn new(exec: ExecStage) -> Arc<Job> {
        Arc::new(Job {
            exec,
            cursor: AtomicU64::new(0),
            failed: AtomicBool::new(false),
            open: AtomicBool::new(true),
            tickets: AtomicUsize::new(1),
            state: Mutex::new(JobState::default()),
            done_cv: Condvar::new(),
        })
    }

    /// Record a result into the job state (caller must hold no lock).
    fn record(&self, result: Result<WorkerOut>) {
        if result.is_err() {
            self.failed.store(true, Ordering::Relaxed);
        }
        let mut st = lock(&self.state);
        match result {
            Ok(out) => st.outs.push(out),
            Err(e) => {
                if st.error.is_none() {
                    st.error = Some(e);
                }
            }
        }
    }
}

/// What parked workers wake up to: the open stage jobs, in submission
/// order. Multiple contexts sharing the pool may each have a job
/// queued; workers join the first open one.
struct Queue {
    jobs: VecDeque<Arc<Job>>,
    shutdown: bool,
    /// Join handles of workers the respawn supervisor created. Pushed
    /// under this lock *before* `shutdown` can be observed set, so
    /// [`WorkerPool`]'s `Drop` never misses one.
    respawned: Vec<JoinHandle<()>>,
}

/// Monotonic counters aggregated across jobs (see [`PoolStats`]).
struct Counters {
    jobs: AtomicU64,
    parks: AtomicU64,
    unparks: AtomicU64,
    stolen: AtomicU64,
    /// Driver-loop runs that ended in a caught panic
    /// ([`Error::TaskPanicked`]); the job failed, the worker survived.
    panicked: AtomicU64,
    /// Workers the respawn supervisor replaced after an unwinding panic
    /// escaped the phase wrappers and killed the thread.
    respawned: AtomicU64,
    per_worker_batches: Vec<AtomicU64>,
    /// Cursor claims per participant slot (one claim may cover a guided
    /// span of several batches; see the module docs).
    per_worker_claims: Vec<AtomicU64>,
}

impl Counters {
    /// Attribute one participant's driver-loop result: batch/claim/steal
    /// counters on success, the panic counter on a caught panic.
    fn bump_batches(&self, participant: usize, result: &Result<WorkerOut>) {
        if matches!(result, Err(Error::TaskPanicked { .. })) {
            self.panicked.fetch_add(1, Ordering::Relaxed);
        }
        if let Ok(out) = result {
            self.stolen.fetch_add(out.stolen, Ordering::Relaxed);
            if let Some(slot) = self.per_worker_batches.get(participant) {
                slot.fetch_add(out.batches, Ordering::Relaxed);
            }
            if let Some(slot) = self.per_worker_claims.get(participant) {
                slot.fetch_add(out.claims, Ordering::Relaxed);
            }
        }
    }
}

struct PoolShared {
    queue: Mutex<Queue>,
    work_cv: Condvar,
    counters: Counters,
}

/// A persistent set of worker threads shared by every context holding a
/// handle to it.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn a pool of `pool_workers` threads. Every submitting thread
    /// joins its own stage as one extra participant, so a pool sized
    /// `config.workers - 1` saturates `config.workers` cores for a
    /// single session.
    ///
    /// Returns once every worker has started and parked, so whatever a
    /// thread allocates as it starts is done before the pool is used:
    /// a caller that counts its allocations counts none of its workers'.
    pub fn new(pool_workers: usize) -> WorkerPool {
        crate::membudget::keep_freed_pieces_mapped();
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
                respawned: Vec::new(),
            }),
            work_cv: Condvar::new(),
            counters: Counters {
                jobs: AtomicU64::new(0),
                parks: AtomicU64::new(0),
                unparks: AtomicU64::new(0),
                stolen: AtomicU64::new(0),
                panicked: AtomicU64::new(0),
                respawned: AtomicU64::new(0),
                per_worker_batches: (0..=pool_workers).map(|_| AtomicU64::new(0)).collect(),
                per_worker_claims: (0..=pool_workers).map(|_| AtomicU64::new(0)).collect(),
            },
        });
        let handles = (0..pool_workers)
            .map(|i| {
                let shared = shared.clone();
                match std::thread::Builder::new()
                    .name(format!("mozart-worker-{i}"))
                    .spawn(move || worker_body(shared, i))
                {
                    Ok(h) => h,
                    Err(e) => panic!("failed to spawn pool worker {i}: {e}"),
                }
            })
            .collect();
        // Each worker counts one park before it first blocks.
        while shared.counters.parks.load(Ordering::Relaxed) < pool_workers as u64 {
            std::thread::yield_now();
        }
        WorkerPool { shared, handles }
    }

    /// Number of pool threads (excluding participating submitters).
    pub fn pool_workers(&self) -> usize {
        self.handles.len()
    }

    /// Execute a multi-participant stage on the pool. The caller
    /// participates as worker 0 and blocks until every participant is
    /// done. Safe to call from many threads concurrently: each job is
    /// queued and pool workers join the open jobs in queue order. The
    /// caller's phases are timed on `clock`; the submit before its
    /// driver loop and the join after it are not counted as any phase.
    pub(crate) fn run_stage(
        &self,
        job: &Arc<Job>,
        clock: &mut PhaseClock,
    ) -> Result<Vec<WorkerOut>> {
        debug_assert!(
            job.exec.participants >= 2,
            "single-worker stages run inline"
        );
        let c = &self.shared.counters;
        c.jobs.fetch_add(1, Ordering::Relaxed);
        {
            let mut q = lock(&self.shared.queue);
            q.jobs.push_back(job.clone());
        }
        // Chained wakeup: wake one worker; each worker that joins wakes
        // the next (see `worker_main`). Compared to a notify_all this
        // avoids a thundering herd on short stages — if the caller
        // drains the cursor before the first worker joins, the rest are
        // never taken off their futex at all.
        self.shared.work_cv.notify_one();

        // Participate from the calling thread.
        clock.lap();
        let mine = run_worker(&job.exec, &job.cursor, &job.failed, 0, clock);
        c.bump_batches(0, &mine);
        job.record(mine);

        // Close the job — late-waking workers are turned away — and wait
        // for the workers that did join. If the caller drained the whole
        // stage before any worker woke, this returns without a handoff.
        let mut st = lock(&job.state);
        st.closed = true;
        job.open.store(false, Ordering::Relaxed);
        while st.finished < st.joined {
            st = job.done_cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        let outs = std::mem::take(&mut st.outs);
        let error = st.error.take();
        drop(st);

        // Remove the completed job so queue scans stay short.
        {
            let mut q = lock(&self.shared.queue);
            q.jobs.retain(|j| !Arc::ptr_eq(j, job));
        }

        clock.lap();
        match error {
            Some(e) => Err(e),
            None => Ok(outs),
        }
    }

    /// Snapshot of the pool's counters.
    pub fn stats(&self) -> PoolStats {
        let c = &self.shared.counters;
        PoolStats {
            workers: self.handles.len(),
            jobs: c.jobs.load(Ordering::Relaxed),
            parks: c.parks.load(Ordering::Relaxed),
            unparks: c.unparks.load(Ordering::Relaxed),
            batches_stolen: c.stolen.load(Ordering::Relaxed),
            per_worker_batches: c
                .per_worker_batches
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            per_worker_claims: c
                .per_worker_claims
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            panicked_batches: c.panicked.load(Ordering::Relaxed),
            respawned_workers: c.respawned.load(Ordering::Relaxed),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut q = lock(&self.shared.queue);
            q.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        // Respawned replacements park on the same queue and observe the
        // shutdown flag like original workers. Drain in rounds: a worker
        // dying *during* shutdown no longer respawns (the sentinel
        // checks the flag under the queue lock), so this terminates.
        loop {
            let batch = std::mem::take(&mut lock(&self.shared.queue).respawned);
            if batch.is_empty() {
                break;
            }
            self.shared.work_cv.notify_all();
            for h in batch {
                let _ = h.join();
            }
        }
    }
}

/// A cheaply clonable, shareable handle to a [`WorkerPool`].
///
/// Any number of [`MozartContext`](crate::MozartContext)s may attach the
/// same handle (`MozartContext::attach_pool`); their stages then share
/// one set of threads instead of spawning a pool per context. The pool
/// shuts down when the last handle is dropped.
#[derive(Clone)]
pub struct PoolHandle {
    pool: Arc<WorkerPool>,
}

impl PoolHandle {
    /// Spawn a shared pool of `pool_workers` threads (see
    /// [`WorkerPool::new`] for sizing guidance).
    pub fn new(pool_workers: usize) -> PoolHandle {
        PoolHandle {
            pool: Arc::new(WorkerPool::new(pool_workers)),
        }
    }

    /// Snapshot of the pool's counters.
    pub fn stats(&self) -> PoolStats {
        self.pool.stats()
    }
}

impl std::ops::Deref for PoolHandle {
    type Target = WorkerPool;

    fn deref(&self) -> &WorkerPool {
        &self.pool
    }
}

impl std::fmt::Debug for PoolHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PoolHandle({} workers)", self.pool.pool_workers())
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Stack sentinel of a pool thread: if the thread unwinds (a panic
/// escaped every phase wrapper, e.g. the fault injector's
/// [`WorkerAbort`](crate::faultinject::WorkerAbort)), the sentinel's
/// drop runs during the unwind and spawns a replacement worker, so the
/// pool returns to its full complement. Normal exits (shutdown) drop it
/// without effect.
struct RespawnSentinel {
    shared: Arc<PoolShared>,
    idx: usize,
}

impl Drop for RespawnSentinel {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        // Respawn under the queue lock: `Drop for WorkerPool` sets
        // `shutdown` under the same lock, so either we see the flag and
        // stand down, or our replacement's handle lands in
        // `Queue::respawned` before the drain loop reads it.
        let mut q = lock(&self.shared.queue);
        if q.shutdown {
            return;
        }
        let shared = self.shared.clone();
        let idx = self.idx;
        if let Ok(h) = std::thread::Builder::new()
            .name(format!("mozart-worker-{idx}r"))
            .spawn(move || worker_body(shared, idx))
        {
            self.shared
                .counters
                .respawned
                .fetch_add(1, Ordering::Relaxed);
            q.respawned.push(h);
        }
        // A spawn failure here (resource exhaustion mid-unwind) leaves
        // the pool one worker short rather than aborting the process
        // with a double panic.
    }
}

/// Entry point of every pool thread, original or respawned: arm the
/// respawn sentinel, then run the park/serve loop.
fn worker_body(shared: Arc<PoolShared>, idx: usize) {
    let _sentinel = RespawnSentinel {
        shared: shared.clone(),
        idx,
    };
    worker_main(&shared);
}

/// The body of one pool thread: park until the queue holds an open job,
/// claim a participant ticket, repeat.
fn worker_main(shared: &PoolShared) {
    let c = &shared.counters;
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                if q.shutdown {
                    return;
                }
                // The first open job is the oldest (module docs).
                if let Some(job) = q.jobs.iter().find(|j| j.open.load(Ordering::Relaxed)) {
                    break job.clone();
                }
                c.parks.fetch_add(1, Ordering::Relaxed);
                q = shared.work_cv.wait(q).unwrap_or_else(|p| p.into_inner());
            }
        };

        let ticket = job.tickets.fetch_add(1, Ordering::Relaxed);
        if ticket >= job.exec.participants {
            // More pool workers than the stage has batches: stop further
            // scans from picking this job up.
            job.open.store(false, Ordering::Relaxed);
            continue;
        }
        {
            let mut st = lock(&job.state);
            if st.closed {
                // The caller already drained and closed this stage.
                continue;
            }
            st.joined += 1;
        }
        // Propagate the wake chain before doing work, so the rest of
        // the pool ramps up while this worker runs batches.
        shared.work_cv.notify_one();
        c.unparks.fetch_add(1, Ordering::Relaxed);
        // Backstop catch: `run_worker` already converts phase panics to
        // typed errors, so anything unwinding out of it is a deliberate
        // worker abort (fault injection) or a defect outside the phase
        // wrappers. Either way the job's join bookkeeping MUST complete
        // before this thread dies, or the submitter blocks forever on
        // `finished == joined`.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_worker(
                &job.exec,
                &job.cursor,
                &job.failed,
                ticket,
                &mut PhaseClock::start(),
            )
        }));
        let (out, abort) = match caught {
            Ok(out) => (out, None),
            Err(payload) => (
                Err(Error::TaskPanicked {
                    stage: FaultPhase::Worker,
                    payload: panic_message(payload.as_ref()),
                }),
                Some(payload),
            ),
        };
        c.bump_batches(ticket, &out);
        job.record(out);
        {
            let mut st = lock(&job.state);
            st.finished += 1;
            if st.closed && st.finished == st.joined {
                job.done_cv.notify_all();
            }
        }
        if let Some(payload) = abort {
            // Let the thread die; the respawn sentinel replaces it.
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn pool_spins_up_and_shuts_down() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.pool_workers(), 3);
        let s = pool.stats();
        assert_eq!(s.workers, 3);
        assert_eq!(s.jobs, 0);
        assert_eq!(
            s.per_worker_batches.len(),
            4,
            "3 pool workers + caller slot"
        );
        assert_eq!(s.per_worker_claims.len(), 4);
        drop(pool); // must not hang
    }

    #[test]
    fn empty_pool_is_valid() {
        // workers == 1 means every stage runs inline on the caller.
        let pool = WorkerPool::new(0);
        assert_eq!(pool.pool_workers(), 0);
        drop(pool);
    }

    #[test]
    fn handles_share_one_pool() {
        let a = PoolHandle::new(2);
        let b = a.clone();
        assert_eq!(a.pool_workers(), 2);
        assert_eq!(b.pool_workers(), 2);
        drop(a);
        // The pool survives while any handle is alive.
        assert_eq!(b.stats().workers, 2);
        drop(b);
    }
}
