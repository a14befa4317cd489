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
//! # Deficit-weighted round-robin across sessions
//!
//! Idle workers do **not** simply serve the oldest open job: a hot
//! tenant submitting stage after stage would then monopolize the pool
//! while a light tenant's occasional job waited behind it. Instead every
//! session carries a *weight* ([`WorkerPool::set_session_weight`],
//! default 1) and a *virtual service time* that advances by
//! `batches / weight` whenever one of its jobs completes. Workers pick
//! the open job of the session with the smallest virtual time — the
//! most-underserved session per unit weight — with queue order breaking
//! ties, so over time each session's batch share converges to its
//! weight share of the contended pool.
//!
//! Two bounds keep this well-behaved:
//!
//! * **Deficit cap.** A session that went idle stops advancing its
//!   virtual clock; re-admitted naively it would hold absolute priority
//!   until it caught up to the hot sessions. On submit, a session's
//!   virtual time is therefore clamped to at most
//!   [`DEFICIT_CAP_BATCHES`] weighted batches behind the furthest-ahead
//!   session — a bounded burst credit, not an unbounded debt.
//! * **Caller participation.** The submitting thread always runs its
//!   own job, so even a session the scheduler never favors progresses
//!   at single-thread speed — no session can be starved outright.
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
//! another worker, park/unpark transitions, per-session job and batch
//! totals) is aggregated into [`PoolStats`]; see
//! `MozartContext::pool_stats` and `PoolHandle::stats`.
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

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

use crate::cputime::PhaseClock;
use crate::error::{Error, Result};
use crate::executor::{run_worker, ExecStage, WorkerOut};
use crate::faultinject::{panic_message, FaultPhase};
use crate::stats::{PoolStats, SessionPoolStats};

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
    /// Session tag of the submitting context (fairness accounting).
    session: u64,
    /// Nominal bytes this stage splits (`total_elements · Σ elem bytes`
    /// from the split info API), charged to the session's byte totals.
    bytes: u64,
    /// Batches served by pool workers (ticket >= 1; the submitting
    /// caller's share is excluded). Observability only: the DRR clock
    /// charges *total* service (see [`SessionEntry::vtime`]), but this
    /// split shows how the contended worker capacity was divided.
    worker_batches: AtomicU64,
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
    /// Wrap a stage for execution on behalf of `session`.
    pub(crate) fn new(exec: ExecStage, session: u64) -> Arc<Job> {
        let bytes = exec.total_elements.saturating_mul(exec.sum_elem_bytes);
        Arc::new(Job {
            exec,
            cursor: AtomicU64::new(0),
            failed: AtomicBool::new(false),
            session,
            bytes,
            worker_batches: AtomicU64::new(0),
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
/// queued; workers serve the most-underserved session's open job, so no
/// session's stage is starved by later arrivals.
struct Queue {
    jobs: VecDeque<Arc<Job>>,
    shutdown: bool,
    /// Join handles of workers the respawn supervisor created. Pushed
    /// under this lock *before* `shutdown` can be observed set, so
    /// [`WorkerPool`]'s `Drop` never misses one.
    respawned: Vec<JoinHandle<()>>,
}

/// Per-session scheduling and accounting state (see the module docs on
/// deficit-weighted round-robin).
#[derive(Debug, Clone, PartialEq, Eq)]
struct SessionEntry {
    /// Completed pool jobs.
    jobs: u64,
    /// Batches processed across all participants of this session's jobs.
    batches: u64,
    /// Of those, batches served by pool workers (submitting callers
    /// excluded) — the contended capacity DRR divides.
    worker_batches: u64,
    /// Nominal bytes split by this session's pool jobs.
    bytes: u64,
    /// Fair-share weight (>= 1); a weight-2 session is entitled to twice
    /// the contended batch share of a weight-1 session.
    weight: u32,
    /// Weighted virtual service time: advances by
    /// `batches · VTIME_SCALE / weight` per completed job, counting the
    /// session's *total* service — pool-worker batches and the
    /// submitting caller's own. Charging self-service is deliberate: a
    /// session whose caller drains its own jobs is demonstrably getting
    /// work done, so the scarce pool assist tilts toward sessions that
    /// are not. Workers serve the open job of the session with the
    /// smallest value.
    vtime: u64,
    /// Jobs currently queued or running. A session with open jobs is
    /// never folded into the overflow bucket — evicting it would split
    /// its accounting across two entries when the jobs complete.
    open_jobs: u32,
}

impl Default for SessionEntry {
    fn default() -> Self {
        SessionEntry {
            jobs: 0,
            batches: 0,
            worker_batches: 0,
            bytes: 0,
            weight: 1,
            vtime: 0,
            open_jobs: 0,
        }
    }
}

/// Fixed-point scale of [`SessionEntry::vtime`] (so integer division by
/// the weight keeps sub-batch resolution).
const VTIME_SCALE: u64 = 1024;

/// Deficit cap, in weighted batches: on submit, a session's virtual time
/// is clamped to at most this many weighted batches behind the
/// furthest-ahead session, bounding the burst a long-idle session can
/// claim when it returns (and, symmetrically, how long it can hold
/// strict priority over the hot sessions).
pub const DEFICIT_CAP_BATCHES: u64 = 256;

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
    /// Per-session scheduling and accounting entries, keyed by the
    /// submitting context's session tag. Bounded: once
    /// `MAX_TRACKED_SESSIONS` distinct tags are live, the least-used
    /// *idle* entry is folded into the catch-all [`OVERFLOW_SESSION`]
    /// bucket, so a server opening one session per connection cannot
    /// grow this map without limit.
    sessions: Mutex<HashMap<u64, SessionEntry>>,
}

/// Cap on individually tracked session tags (see [`Counters::sessions`]).
const MAX_TRACKED_SESSIONS: usize = 64;

/// Synthetic session tag aggregating evicted sessions' totals.
pub const OVERFLOW_SESSION: u64 = u64::MAX;

/// Fetch (or create) the entry for `session`, evicting one idle entry
/// first if the map is at capacity and the tag is new.
fn session_entry(sessions: &mut HashMap<u64, SessionEntry>, session: u64) -> &mut SessionEntry {
    if sessions.len() >= MAX_TRACKED_SESSIONS && !sessions.contains_key(&session) {
        evict_one_idle(sessions);
    }
    sessions.entry(session).or_default()
}

/// Fold the least-used *idle* tracked session into the overflow bucket.
///
/// Sessions with jobs currently open are skipped: evicting a live
/// session would let its in-flight completions re-create a fresh entry
/// and split its totals across two buckets — corrupting exactly the
/// per-session batch counts the deficit-weighted scheduler ranks by.
/// If every candidate is live the map transiently exceeds the cap
/// (bounded by the number of concurrently open jobs).
///
/// Among idle candidates, default-weight entries go first: eviction
/// drops an entry's weight and virtual time, so a session whose
/// operator explicitly set a non-default weight keeps its entry as
/// long as any default-weight idle session can be folded instead.
fn evict_one_idle(sessions: &mut HashMap<u64, SessionEntry>) {
    let victim = sessions
        .iter()
        .filter(|(&s, e)| s != OVERFLOW_SESSION && e.open_jobs == 0)
        .min_by_key(|(_, e)| (e.weight != 1, e.jobs))
        .map(|(&s, _)| s);
    if let Some(victim) = victim {
        let e = sessions.remove(&victim).unwrap_or_default();
        let overflow = sessions.entry(OVERFLOW_SESSION).or_default();
        overflow.jobs += e.jobs;
        overflow.batches += e.batches;
        overflow.worker_batches += e.worker_batches;
        overflow.bytes += e.bytes;
    }
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

    /// Session accounting at job submit: count the job open and clamp
    /// the session's virtual time to the deficit cap (module docs).
    fn note_submit(&self, session: u64) {
        let mut sessions = lock(&self.sessions);
        let max_vtime = sessions.values().map(|e| e.vtime).max().unwrap_or(0);
        let entry = session_entry(&mut sessions, session);
        entry.open_jobs += 1;
        let floor = max_vtime.saturating_sub(DEFICIT_CAP_BATCHES * VTIME_SCALE);
        entry.vtime = entry.vtime.max(floor);
    }

    /// Session accounting at job completion: fold in the served batches
    /// and bytes and advance the session's virtual time by its weighted
    /// service.
    fn note_complete(&self, session: u64, batches: u64, worker_batches: u64, bytes: u64) {
        let mut sessions = lock(&self.sessions);
        let entry = session_entry(&mut sessions, session);
        entry.jobs += 1;
        entry.batches += batches;
        entry.worker_batches += worker_batches;
        entry.bytes += bytes;
        entry.open_jobs = entry.open_jobs.saturating_sub(1);
        // Every job advances the clock by at least one batch so a
        // stream of degenerate jobs still rotates fairly.
        entry.vtime += batches.max(1) * VTIME_SCALE / u64::from(entry.weight.max(1));
    }
}

/// Pick the queue index of the open job whose session is most
/// underserved (smallest weighted virtual time); queue order breaks
/// ties, so equal-service sessions are served FIFO.
fn pick_fair(
    open_jobs: impl Iterator<Item = (usize, u64)>,
    sessions: &HashMap<u64, SessionEntry>,
) -> Option<usize> {
    let mut best: Option<(usize, u64)> = None;
    for (idx, session) in open_jobs {
        let vtime = sessions.get(&session).map(|e| e.vtime).unwrap_or(0);
        if best.is_none_or(|(_, bv)| vtime < bv) {
            best = Some((idx, vtime));
        }
    }
    best.map(|(idx, _)| idx)
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
                sessions: Mutex::new(HashMap::new()),
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

    /// Set the fair-share weight of `session` (clamped to >= 1; every
    /// session defaults to 1). Under deficit-weighted scheduling a
    /// weight-`w` session is entitled to `w` times the contended batch
    /// share of a weight-1 session. Takes effect for jobs completing
    /// after the call.
    pub fn set_session_weight(&self, session: u64, weight: u32) {
        let mut sessions = lock(&self.shared.counters.sessions);
        session_entry(&mut sessions, session).weight = weight.max(1);
    }

    /// Execute a multi-participant stage on the pool. The caller
    /// participates as worker 0 and blocks until every participant is
    /// done. Safe to call from many threads concurrently: each job is
    /// queued and pool workers pick among the open jobs by session
    /// (module docs). The caller's phases are timed on `clock`; the
    /// submit before its driver loop and the join after it are not
    /// counted as any phase.
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
        // Open the session's accounting before the job becomes visible:
        // the fair pick reads the entry under the queue lock, and the
        // open-job count must already protect the entry from eviction.
        c.note_submit(job.session);
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

        // Per-session fairness accounting (pool jobs only; single-batch
        // stages run inline on their caller and are not counted).
        let batches: u64 = outs.iter().map(|o| o.batches).sum();
        let worker_batches = job.worker_batches.load(Ordering::Relaxed);
        c.note_complete(job.session, batches, worker_batches, job.bytes);

        clock.lap();
        match error {
            Some(e) => Err(e),
            None => Ok(outs),
        }
    }

    /// Snapshot of the pool's counters.
    pub fn stats(&self) -> PoolStats {
        let c = &self.shared.counters;
        let mut sessions: Vec<SessionPoolStats> = lock(&c.sessions)
            .iter()
            .map(|(&session, e)| SessionPoolStats {
                session,
                jobs: e.jobs,
                batches: e.batches,
                worker_batches: e.worker_batches,
                bytes: e.bytes,
                weight: e.weight,
            })
            .collect();
        sessions.sort_by_key(|s| s.session);
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
            sessions,
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

/// The process-global shared pool, created on first use and sized
/// `default_workers() - 1` so that one saturated session uses the whole
/// machine. Serving layers that want explicit sizing should create
/// their own [`PoolHandle`] instead.
pub fn global_pool() -> PoolHandle {
    static GLOBAL: OnceLock<PoolHandle> = OnceLock::new();
    GLOBAL
        .get_or_init(|| PoolHandle::new(crate::config::default_workers().max(1) - 1))
        .clone()
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
                // Deficit-weighted round-robin (module docs): serve the
                // open job of the most-underserved session. The nested
                // sessions lock is fine — lock order is always
                // queue -> sessions, never the reverse.
                let picked = {
                    let sessions = lock(&shared.counters.sessions);
                    pick_fair(
                        q.jobs
                            .iter()
                            .enumerate()
                            .filter(|(_, j)| j.open.load(Ordering::Relaxed))
                            .map(|(i, j)| (i, j.session)),
                        &sessions,
                    )
                    .and_then(|i| q.jobs.get(i))
                };
                if let Some(job) = picked {
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
        if let Ok(o) = &out {
            // Worker-served share, the capacity DRR divides (the
            // submitting caller's own batches are excluded).
            job.worker_batches.fetch_add(o.batches, Ordering::Relaxed);
        }
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
        assert!(s.sessions.is_empty());
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

    #[test]
    fn global_pool_is_a_singleton() {
        let a = global_pool();
        let b = global_pool();
        assert!(Arc::ptr_eq(&a.pool, &b.pool));
    }

    fn counters() -> Counters {
        Counters {
            jobs: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            unparks: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            respawned: AtomicU64::new(0),
            per_worker_batches: Vec::new(),
            per_worker_claims: Vec::new(),
            sessions: Mutex::new(HashMap::new()),
        }
    }

    #[test]
    fn fair_pick_prefers_underserved_session_weighted() {
        let c = counters();
        // Session 1 has been served 30 batches at weight 1, session 2
        // served 40 batches at weight 2: per unit weight, session 2 is
        // the more underserved (40/2 = 20 < 30/1).
        {
            let mut sessions = lock(&c.sessions);
            session_entry(&mut sessions, 2).weight = 2;
        }
        c.note_submit(1);
        c.note_complete(1, 30, 0, 0);
        c.note_submit(2);
        c.note_complete(2, 40, 0, 0);
        let sessions = lock(&c.sessions);
        let open = [(0usize, 1u64), (1usize, 2u64)];
        assert_eq!(pick_fair(open.iter().copied(), &sessions), Some(1));
        // Queue order breaks exact ties (fresh sessions at vtime 0).
        let fresh = [(0usize, 7u64), (1usize, 8u64)];
        assert_eq!(pick_fair(fresh.iter().copied(), &sessions), Some(0));
        // No open jobs: nothing to pick.
        assert_eq!(pick_fair(std::iter::empty(), &sessions), None);
    }

    #[test]
    fn deficit_cap_bounds_idle_credit() {
        let c = counters();
        // A hot session races ahead of the clock...
        c.note_submit(1);
        c.note_complete(1, 10 * DEFICIT_CAP_BATCHES, 0, 0);
        // ...then a long-idle session submits: its vtime is clamped to
        // at most DEFICIT_CAP_BATCHES weighted batches behind.
        c.note_submit(2);
        let sessions = lock(&c.sessions);
        let hot = sessions[&1].vtime;
        let cold = sessions[&2].vtime;
        assert!(cold < hot, "cold session still holds priority");
        assert_eq!(
            hot - cold,
            DEFICIT_CAP_BATCHES * VTIME_SCALE,
            "idle credit is capped, not unbounded"
        );
    }

    #[test]
    fn eviction_skips_sessions_with_open_jobs() {
        // Regression (ISSUE 4): evicting a session with jobs in flight
        // splits its accounting across the overflow bucket and a fresh
        // entry once the jobs complete.
        let mut sessions: HashMap<u64, SessionEntry> = HashMap::new();
        for s in 0..MAX_TRACKED_SESSIONS as u64 {
            let e = sessions.entry(s).or_default();
            // Session 0 is the least-used *and* live; 1 is the least
            // used idle session.
            e.jobs = s.max(1);
        }
        sessions.get_mut(&0).unwrap().open_jobs = 1;
        let live = sessions[&0].clone();
        // A new tag at capacity evicts exactly one idle session.
        session_entry(&mut sessions, 1_000);
        assert_eq!(
            sessions.get(&0),
            Some(&live),
            "live session must not be folded into overflow"
        );
        assert!(
            !sessions.contains_key(&1),
            "least-used idle session evicted"
        );
        assert_eq!(sessions[&OVERFLOW_SESSION].jobs, 1);
        assert!(sessions.contains_key(&1_000));
    }

    #[test]
    fn eviction_prefers_default_weight_sessions() {
        // An operator-set weight marks an entry worth keeping: eviction
        // folds a default-weight idle session first, even one with more
        // completed jobs.
        let mut sessions: HashMap<u64, SessionEntry> = HashMap::new();
        for s in 0..MAX_TRACKED_SESSIONS as u64 {
            let e = sessions.entry(s).or_default();
            e.jobs = s + 1;
            e.weight = 3; // everyone premium...
        }
        sessions.get_mut(&7).unwrap().weight = 1; // ...except one
        session_entry(&mut sessions, 5_000);
        assert!(
            !sessions.contains_key(&7),
            "the default-weight session is folded first"
        );
        assert!(sessions.contains_key(&0), "premium sessions survive");
    }

    #[test]
    fn eviction_declines_when_every_session_is_live() {
        let mut sessions: HashMap<u64, SessionEntry> = HashMap::new();
        for s in 0..MAX_TRACKED_SESSIONS as u64 {
            sessions.entry(s).or_default().open_jobs = 1;
        }
        session_entry(&mut sessions, 9_999);
        // The map transiently exceeds the cap instead of corrupting a
        // live session's totals.
        assert_eq!(sessions.len(), MAX_TRACKED_SESSIONS + 1);
        assert!(!sessions.contains_key(&OVERFLOW_SESSION));
    }

    #[test]
    fn completed_jobs_advance_weighted_vtime_and_totals() {
        let c = counters();
        {
            let mut sessions = lock(&c.sessions);
            session_entry(&mut sessions, 5).weight = 4;
        }
        c.note_submit(5);
        c.note_complete(5, 8, 6, 4096);
        let sessions = lock(&c.sessions);
        let e = &sessions[&5];
        assert_eq!(
            (e.jobs, e.batches, e.worker_batches, e.bytes),
            (1, 8, 6, 4096)
        );
        assert_eq!(e.open_jobs, 0);
        assert_eq!(e.vtime, 8 * VTIME_SCALE / 4);
    }
}
