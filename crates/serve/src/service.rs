//! The in-process pipeline service: named pipelines, session handles,
//! and the one lifecycle every request runs through.
//!
//! # The request lifecycle
//!
//! [`Session::call`] and [`Session::try_call`] both enter
//! `execute_inner`, which runs these stages in order; each stage that
//! turns a request away counts it and returns the typed error.
//!
//! 1. **drain** — a draining service sheds everything
//!    ([`ServeError::Draining`]).
//! 2. **lookup** — the named pipeline ([`ServeError::UnknownPipeline`]).
//! 3. **budget** — the session's byte budget
//!    ([`ServeError::OverBudget`]).
//! 4. **breaker** — the pipeline's circuit breaker; the pass it hands
//!    out is reported to in stage 9 ([`ServeError::CircuitOpen`]).
//! 5. **memory** — the pipeline's estimated footprint against the
//!    process ceiling ([`ServeError::OverMemory`]).
//! 6. **coalesce role** (`coalesce_role`) — a blocking request with a
//!    [`Pipeline::coalesce_key`] either *follows* the open batch of its
//!    key (`follow`: park until the leader resolves it, then settle) or
//!    publishes a batch and *leads* it. Everything else — `try_call`,
//!    coalescing off, no key, memory pressure, a full or sealed batch —
//!    is a batch of one that was never published.
//! 7. **admit** (`admit`) — the evaluating request takes one of the
//!    fixed `max_inflight` admission slots, waiting in the bounded FIFO
//!    queue (`call`) or not (`try_call`). A queued request leaves only
//!    when admitted, at its deadline ([`ServeError::DeadlineExceeded`])
//!    or on drain ([`ServeError::Draining`]); a full queue turns it away
//!    ([`ServeError::Saturated`]). Followers join while a leader waits
//!    here.
//! 8. **attempts** (`eval_batch` → `attempts`) — the batch's members
//!    evaluate under that one slot: as one coalesced pipeline when there
//!    are several and the pipeline can, else one by one; transient
//!    failures retry with backoff.
//! 9. **settle** (`settle`) — charge each member its share of the bytes,
//!    report to the breaker, count the outcome, release the followers.
//!
//! `execute_traced` wraps all of it in the `Request` span, the
//! end-to-end histogram and the slow-request log.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use mozart_core::cputime;
use mozart_core::faultinject::splitmix64;
use mozart_core::membudget;
use mozart_core::trace::{
    RetryCause, SpanKind, SpanRecord, SpanTree, TraceId, TraceRecorder, SERVICE_WORKER,
};
use mozart_core::{
    CancelToken, Concat, Config, DataValue, MozartContext, PhaseStats, PlanCache, PoolHandle,
    Splitter,
};

use crate::admission::{Admission, AdmissionPermit};
use crate::breaker::{BreakerConfig, BreakerDecision, BreakerMap, BreakerPass, BreakerState};
use crate::error::{Result, ServeError};
use crate::metrics::{
    render_counter, render_gauge, render_gauge_labeled, render_histogram, Histogram,
    HistogramSnapshot,
};
use crate::stats::{ServiceStats, StatKind, STAT_TABLE};

/// Most requests one coalesced evaluation may absorb (the leader plus
/// `MAX_COALESCE - 1` followers). Bounds both the concatenated input
/// size and the blast radius of a failing batch.
pub const MAX_COALESCE: usize = 8;

/// A pipeline request: string parameters keyed by name (the in-process
/// mirror of the wire protocol's `key=value` pairs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Request {
    params: BTreeMap<String, String>,
    /// Deadline in milliseconds from submission; `None` falls back to
    /// the session's default ([`Session::set_deadline`]). Deliberately
    /// *not* a parameter: it must never influence pipeline behavior or
    /// coalescing fingerprints, only scheduling.
    deadline_ms: Option<u64>,
}

impl Request {
    /// An empty request (pipelines fall back to their defaults).
    pub fn new() -> Request {
        Request::default()
    }

    /// Set a deadline in milliseconds from submission, builder-style.
    /// Once it passes — while queued, while parked in a coalesced
    /// batch, or mid-evaluation — the request is shed with
    /// [`ServeError::DeadlineExceeded`]. `0` sheds immediately.
    pub fn with_deadline_ms(mut self, ms: u64) -> Request {
        self.deadline_ms = Some(ms);
        self
    }

    /// Set or clear the deadline in place.
    pub fn set_deadline_ms(&mut self, ms: Option<u64>) {
        self.deadline_ms = ms;
    }

    /// This request's explicit deadline, if any.
    pub fn deadline_ms(&self) -> Option<u64> {
        self.deadline_ms
    }

    /// Set a parameter, builder-style.
    pub fn with(mut self, key: &str, value: impl ToString) -> Request {
        self.params.insert(key.to_string(), value.to_string());
        self
    }

    /// Set a parameter in place.
    pub fn set(&mut self, key: &str, value: impl ToString) {
        self.params.insert(key.to_string(), value.to_string());
    }

    /// Raw parameter value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.params.get(key).map(String::as_str)
    }

    /// Parameters in deterministic (sorted) order.
    pub fn params(&self) -> impl Iterator<Item = (&str, &str)> {
        self.params.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Parse a `usize` parameter, with a default when absent.
    pub fn usize_or(&self, key: &str, default: usize) -> Result<usize> {
        match self.params.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| {
                ServeError::BadRequest(format!("parameter {key}={raw} is not an integer"))
            }),
        }
    }

    /// Parse a `u64` parameter, with a default when absent.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64> {
        match self.params.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| {
                ServeError::BadRequest(format!("parameter {key}={raw} is not an integer"))
            }),
        }
    }
}

/// A pipeline response: a single line of `key=value` pairs (checksums,
/// summaries) suitable for the wire protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Response body (no newlines).
    pub body: String,
}

impl Response {
    /// Wrap a body string.
    pub fn new(body: impl Into<String>) -> Response {
        Response { body: body.into() }
    }
}

/// A named, registered pipeline: a fixed sequence of annotated calls
/// over request-parameterized inputs, evaluated through the provided
/// context. Implementations must be stateless per request (they run
/// concurrently) but may cache generated inputs internally.
pub trait Pipeline: Send + Sync {
    /// The name requests address this pipeline by.
    fn name(&self) -> &'static str;

    /// Execute the pipeline through `ctx` (already wired to the
    /// service's shared pool and plan cache). The default runs the
    /// request's [`Pipeline::segment`] through [`run_segment`], so the
    /// single-request path and the coalesced path share one evaluation
    /// body; a pipeline with neither its own `run` nor a segment fails
    /// with [`mozart_core::Error::Library`].
    fn run(&self, ctx: &MozartContext, req: &Request) -> mozart_core::Result<Response> {
        match self.segment(req) {
            Some(seg) => run_segment(ctx, seg?),
            None => Err(mozart_core::Error::Library(format!(
                "pipeline {} implements neither run nor segment",
                self.name()
            ))),
        }
    }

    /// Coalescing key: requests with equal keys produce pending-segment
    /// fingerprints that match (the plan-cache key from
    /// `DataflowGraph::pending_shape`), so the service may evaluate them
    /// as **one** pipeline over concatenated inputs and split the
    /// outputs back per request — the serving analogue of model-server
    /// micro-batching. Return `None` (the default) for requests that
    /// must never coalesce; implementations that return `Some` must
    /// also implement [`Pipeline::segment`].
    fn coalesce_key(&self, _req: &Request) -> Option<u64> {
        None
    }

    /// Describe one request's evaluation through the split layer (a
    /// [`Segment`]): whole input values typed with their split types,
    /// one evaluation body, and a response formatter. The service's
    /// **generic coalescer** concatenates key-identical requests'
    /// inputs through each split type's [`Concat`] capability,
    /// evaluates the leader's segment once over the combined values,
    /// and slices every request's elements back out of the outputs —
    /// no pipeline-specific concatenation code anywhere.
    ///
    /// Return `None` (the default) if the pipeline cannot express
    /// itself as an element-preserving segment; such pipelines never
    /// coalesce.
    fn segment(&self, _req: &Request) -> Option<mozart_core::Result<Segment>> {
        None
    }
}

/// One input of a [`Segment`]: a whole value plus the split type whose
/// [`Concat`] capability concatenates and slices values of its kind.
pub struct SegmentInput {
    /// The request's whole input value.
    pub value: DataValue,
    /// The input's split type. Coalescing requires
    /// [`Splitter::concat`] to return a capability; element counts come
    /// from `default_params` + `info`.
    pub splitter: Arc<dyn Splitter>,
}

impl SegmentInput {
    /// Pair a value with its split type.
    pub fn new(value: DataValue, splitter: Arc<dyn Splitter>) -> SegmentInput {
        SegmentInput { value, splitter }
    }
}

/// Evaluation body of a [`Segment`]: pipeline over (possibly
/// concatenated) inputs, returning fully materialized per-element
/// outputs in declaration order.
pub type SegmentEval =
    Box<dyn FnOnce(&MozartContext, &[DataValue]) -> mozart_core::Result<Vec<DataValue>> + Send>;

/// Response formatter of a [`Segment`]: this request's slice of each
/// output (in [`Segment::outputs`] order) to a wire response.
pub type SegmentRespond = Box<dyn FnOnce(&[DataValue]) -> mozart_core::Result<Response> + Send>;

/// One request's evaluation expressed through the split layer — the
/// unit the generic cross-request coalescer operates on.
///
/// Invariant the pipeline must uphold: the evaluation is
/// **element-preserving** (output `i` covers exactly the elements of
/// the inputs, in order), so a request's response can be computed from
/// its element range of the outputs, bit-identically to a separate
/// evaluation. Per-element operator chains (vector math, per-pixel
/// image filters, per-row frame arithmetic) satisfy this; filters and
/// whole-value reductions do not (put the reduction in `respond`,
/// where it runs serially over the request's own slice).
pub struct Segment {
    /// Whole input values with their split types.
    pub inputs: Vec<SegmentInput>,
    /// Split types of the evaluation's outputs, used to slice each
    /// request's elements back out of a coalesced evaluation.
    pub outputs: Vec<Arc<dyn Splitter>>,
    /// Decline coalescing when the combined element total would exceed
    /// this bound (0 = unbounded); the members then evaluate
    /// individually under the leader's admission slot.
    pub max_total_elements: u64,
    /// The evaluation body.
    pub eval: SegmentEval,
    /// The response formatter.
    pub respond: SegmentRespond,
}

/// Run one request's [`Segment`] standalone — the single-request path
/// of a segment-based pipeline. Evaluates over the request's own inputs
/// and formats the whole (unsliced) outputs, which for an
/// element-preserving evaluation equals the `[0, len)` slice a
/// coalesced evaluation would hand back.
pub fn run_segment(ctx: &MozartContext, segment: Segment) -> mozart_core::Result<Response> {
    let inputs: Vec<DataValue> = segment.inputs.iter().map(|i| i.value.clone()).collect();
    let outs = (segment.eval)(ctx, &inputs)?;
    (segment.respond)(&outs)
}

/// Sizing knobs of a [`PipelineService`]; see
/// [`ServiceBuilder`](PipelineService::builder).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads available to an evaluation (the shared pool holds
    /// `workers - 1` threads; the evaluating thread participates).
    pub workers: usize,
    /// Concurrent evaluations admitted (defaults to `workers`). The
    /// limit is fixed for the service's lifetime; callers past it wait
    /// in the bounded FIFO queue (`queue_depth`).
    pub max_inflight: usize,
    /// Callers allowed to wait for admission beyond `max_inflight`
    /// before [`ServeError::Saturated`] is returned.
    pub queue_depth: usize,
    /// Default fair-share weight of new sessions (>= 1). Under the
    /// pool's deficit-weighted round-robin, a weight-`w` session is
    /// entitled to `w` times the contended batch share of a weight-1
    /// session.
    pub session_weight: u32,
    /// Default byte budget of new sessions (0 = unlimited): once the
    /// bytes split + merged on a session's behalf reach the budget, its
    /// requests are shed with [`ServeError::OverBudget`].
    pub session_byte_budget: u64,
    /// Cross-request batch coalescing (on by default): queued blocking
    /// requests with matching [`Pipeline::coalesce_key`]s evaluate as
    /// one pipeline over concatenated inputs.
    pub coalescing: bool,
    /// Retries of a request whose evaluation failed *transiently* — a
    /// caught panic ([`mozart_core::Error::TaskPanicked`]) or an
    /// injected fault ([`mozart_core::Error::Injected`]) — under the
    /// same admission permit, with jittered exponential backoff.
    /// Deterministic errors never retry; 0 disables retrying.
    pub max_retries: u32,
    /// Base of the retry backoff: attempt `k` sleeps a jittered
    /// duration in `[base·2ᵏ/2, base·2ᵏ]` milliseconds, clamped to the
    /// request's remaining deadline. 0 retries immediately.
    pub retry_backoff_ms: u64,
    /// End-to-end request tracing and latency histograms (off by
    /// default; see [`ServiceBuilder::tracing`]). When off, the request
    /// path records nothing — one `Option` branch per would-be span.
    pub tracing: bool,
    /// Process-wide memory ceiling in bytes (0 = unlimited), installed
    /// into `mozart_core::membudget` at build time. Requests whose
    /// estimated footprint does not fit are shed with
    /// [`ServeError::OverMemory`] before admission, and the coalescer
    /// declines batch growth once live bytes cross ⅞ of the ceiling.
    pub memory_ceiling_bytes: u64,
    /// Consecutive post-retry transient failures that open a pipeline's
    /// circuit breaker (0 disables breakers); see [`crate::breaker`].
    pub breaker_threshold: u32,
    /// How long an open breaker fast-fails ([`ServeError::CircuitOpen`])
    /// before admitting a half-open probe, in milliseconds.
    pub breaker_cooldown_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let workers = mozart_core::config::default_workers();
        ServiceConfig {
            workers,
            max_inflight: workers,
            queue_depth: 4 * workers,
            session_weight: 1,
            session_byte_budget: 0,
            coalescing: true,
            max_retries: 2,
            retry_backoff_ms: 5,
            tracing: false,
            memory_ceiling_bytes: 0,
            breaker_threshold: 8,
            breaker_cooldown_ms: 200,
        }
    }
}

/// One entry of the slow-request log (see
/// [`PipelineService::slow_requests`]): a request that consumed at
/// least 80% of its deadline before resolving, successfully or not.
#[derive(Debug, Clone)]
pub struct SlowRequest {
    /// The request's trace id; `TRACE <id>` (or
    /// [`PipelineService::trace_tree`]) retrieves where the time went.
    pub trace: TraceId,
    /// The pipeline the request addressed.
    pub pipeline: String,
    /// End-to-end latency in milliseconds.
    pub e2e_ms: u64,
    /// The deadline the request carried, in milliseconds.
    pub deadline_ms: u64,
    /// `"ok"` or the [`ServeError::kind`] the request failed with.
    pub outcome: &'static str,
}

/// Plain-value histogram snapshots of a tracing-enabled service
/// ([`PipelineService::metrics`]). All samples are nanoseconds;
/// snapshots merge across services or time windows
/// ([`HistogramSnapshot::merge`]).
#[derive(Debug, Clone)]
pub struct ServiceMetrics {
    /// End-to-end request latency (admission to response, failures
    /// included).
    pub e2e: HistogramSnapshot,
    /// Time spent waiting for an admission slot.
    pub admission_wait: HistogramSnapshot,
    /// Per-evaluation-attempt phase times, keyed by phase name in
    /// [`PHASE_NAMES`] order.
    pub phases: Vec<(&'static str, HistogramSnapshot)>,
}

/// Names (and order) of the per-phase latency histograms in
/// [`ServiceMetrics::phases`] and on the metrics page
/// (`mozart_phase_<name>_seconds`).
pub const PHASE_NAMES: [&str; 5] = ["unprotect", "planner", "split", "task", "merge"];

/// Entries the slow-request log retains (oldest evicted first).
const SLOW_LOG_CAP: usize = 64;

/// Fingerprints the shared [`PlanCache`] keeps an entry (and its parked
/// merge targets) for.
const PLAN_CACHE_CAPACITY: usize = 256;

/// Observability state of a tracing-enabled service: the shared span
/// recorder plus the serve-side latency histograms and the slow-request
/// log. Absent entirely when tracing is off.
struct Obs {
    recorder: Arc<TraceRecorder>,
    e2e: Histogram,
    admission_wait: Histogram,
    /// Per-phase attempt times, [`PHASE_NAMES`] order.
    phases: [Histogram; PHASE_NAMES.len()],
    slow: Mutex<VecDeque<SlowRequest>>,
}

/// Start stamps of one serve-side span in flight; closed by
/// [`ServiceInner::span_end`]. Serve-side spans always run on the
/// calling service thread and record under [`SERVICE_WORKER`].
#[derive(Clone, Copy)]
struct SpanTimer {
    start_ns: u64,
    cpu0: Duration,
}

impl Obs {
    fn new(recorder: Arc<TraceRecorder>) -> Obs {
        Obs {
            recorder,
            e2e: Histogram::new(),
            admission_wait: Histogram::new(),
            phases: std::array::from_fn(|_| Histogram::new()),
            slow: Mutex::new(VecDeque::with_capacity(SLOW_LOG_CAP)),
        }
    }

    /// Feed one evaluation attempt's phase stats into the per-phase
    /// histograms. Zero phases (e.g. nothing to unprotect) are skipped
    /// so quantiles reflect work actually done.
    fn record_phases(&self, stats: &PhaseStats) {
        let samples = [
            stats.unprotect,
            stats.planner,
            stats.split,
            stats.task,
            stats.merge,
        ];
        for (h, d) in self.phases.iter().zip(samples) {
            if !d.is_zero() {
                h.record(duration_ns(d));
            }
        }
    }

    /// Log the request if it consumed at least 80% of its deadline.
    fn note_slow(
        &self,
        counters: &Mutex<ServiceStats>,
        trace: TraceId,
        pipeline: &str,
        outcome: &'static str,
        deadline: Option<(Instant, u64)>,
        wall_ns: u64,
    ) {
        let Some((_, deadline_ms)) = deadline else {
            return;
        };
        let threshold_ns = deadline_ms.saturating_mul(1_000_000) / 5 * 4;
        if deadline_ms == 0 || wall_ns < threshold_ns {
            return;
        }
        let entry = SlowRequest {
            trace,
            pipeline: pipeline.to_string(),
            e2e_ms: wall_ns / 1_000_000,
            deadline_ms,
            outcome,
        };
        eprintln!(
            "mozart-serve: slow request: pipeline={} trace={} e2e_ms={} deadline_ms={} outcome={}",
            entry.pipeline, entry.trace, entry.e2e_ms, entry.deadline_ms, entry.outcome
        );
        lock(counters).slow += 1;
        let mut log = lock(&self.slow);
        if log.len() >= SLOW_LOG_CAP {
            log.pop_front();
        }
        log.push_back(entry);
    }
}

/// Nanoseconds of a [`Duration`], saturating at `u64::MAX`.
fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Classify a failed attempt's error for the next attempt's
/// [`SpanKind::Attempt`] `link` field.
fn retry_cause(e: &ServeError) -> RetryCause {
    match e {
        ServeError::Runtime(mozart_core::Error::TaskPanicked { .. }) => RetryCause::Panic,
        ServeError::Runtime(mozart_core::Error::Injected(_)) => RetryCause::Injected,
        _ => RetryCause::Other,
    }
}

/// One forming coalesced batch: the leader's request plus any followers
/// that joined while the leader waited for admission.
struct CoalesceBatch {
    state: Mutex<CoalesceState>,
    cv: Condvar,
    /// The leader's trace id (0 when tracing is off): followers'
    /// `CoalesceWait` spans link here, tying a follower's trace to the
    /// evaluation that actually served it.
    leader_trace: TraceId,
}

struct CoalesceState {
    /// Requests in join order; index 0 is the leader's.
    reqs: Vec<Request>,
    /// Set once the leader takes the batch; no further joiners.
    sealed: bool,
    /// Set once by the leader; followers wait for it.
    outcome: Option<BatchOutcome>,
}

/// How a coalesced batch resolved: per-member results (in `reqs` order
/// — they can differ when a failed coalesced evaluation degraded to
/// per-member evaluation) plus each member's share of the byte cost,
/// or the admission error that turned the whole batch away.
type BatchOutcome = std::result::Result<(Vec<Result<Response>>, u64), ServeError>;

impl CoalesceBatch {
    fn new(leader_req: Request, leader_trace: TraceId) -> CoalesceBatch {
        CoalesceBatch {
            state: Mutex::new(CoalesceState {
                reqs: vec![leader_req],
                sealed: false,
                outcome: None,
            }),
            cv: Condvar::new(),
            leader_trace,
        }
    }
}

/// Scope guard for a coalesced batch's leader: guarantees the batch is
/// sealed, unpublished, and resolved exactly once — even if the leader
/// unwinds mid-evaluation, followers are released with an error rather
/// than blocking forever.
struct CoalesceGuard<'a> {
    inner: &'a ServiceInner,
    key: (String, u64),
    batch: Arc<CoalesceBatch>,
    finished: bool,
}

impl CoalesceGuard<'_> {
    /// Unpublish the batch (later arrivals form a new one) and close it
    /// to joiners; returns the final member list. Idempotent.
    fn seal(&self) -> Vec<Request> {
        let mut map = lock(&self.inner.coalescer);
        if map
            .get(&self.key)
            .is_some_and(|b| Arc::ptr_eq(b, &self.batch))
        {
            map.remove(&self.key);
        }
        drop(map);
        let mut st = lock(&self.batch.state);
        st.sealed = true;
        st.reqs.clone()
    }

    /// Resolve the batch and wake every follower.
    fn finish(mut self, outcome: BatchOutcome) {
        self.resolve(outcome);
    }

    fn resolve(&mut self, outcome: BatchOutcome) {
        self.finished = true;
        self.seal();
        let mut st = lock(&self.batch.state);
        if st.outcome.is_none() {
            st.outcome = Some(outcome);
        }
        drop(st);
        self.batch.cv.notify_all();
    }
}

impl Drop for CoalesceGuard<'_> {
    fn drop(&mut self) {
        if !self.finished {
            // The leader unwound (pipeline panic): release the
            // followers, who find no result of theirs and report the
            // abort.
            self.resolve(Ok((Vec::new(), 0)));
        }
    }
}

struct ServiceInner {
    config: ServiceConfig,
    /// Template for per-request contexts (workers forced to
    /// `config.workers`); lets operators tune batch sizing, pipelining,
    /// etc. for every session at once.
    session_config: Config,
    pool: PoolHandle,
    cache: Arc<PlanCache>,
    pipelines: RwLock<HashMap<&'static str, Arc<dyn Pipeline>>>,
    admission: Admission,
    /// Open coalesced batches, keyed by `(pipeline, coalesce_key)`.
    coalescer: Mutex<HashMap<(String, u64), Arc<CoalesceBatch>>>,
    session_counter: AtomicU64,
    /// The locked half of [`ServiceStats`]: the request-outcome
    /// counters (`started` through `engine`) live behind this one mutex
    /// so [`PipelineService::stats`] reads a single consistent
    /// snapshot — a request that just completed can never be counted in
    /// `completed` but not yet in `started`. The lock is uncontended in
    /// steady state (two locks per request, each held for a few
    /// increments). The sampled half (admission, coalescer, plan cache,
    /// pool, memory) stays at its defaults in here; `stats()` fills it
    /// in from the components that own those figures.
    counters: Mutex<ServiceStats>,
    draining: AtomicBool,
    /// Drain broadcast for sleepers: retry backoffs wait on this
    /// condvar instead of a bare `thread::sleep`, so `drain(timeout)`
    /// cuts them short instead of being held hostage by a backing-off
    /// retry.
    drain_mu: Mutex<bool>,
    drain_cv: Condvar,
    /// Per-pipeline circuit breakers.
    breakers: BreakerMap,
    /// EWMA of per-request byte footprint per pipeline (split + merge
    /// traffic of recent evaluations) — the pre-admission estimate the
    /// memory ceiling checks against.
    pipeline_cost: Mutex<HashMap<String, u64>>,
    /// Tracing/metrics state; `None` when tracing is off, and then the
    /// request path records nothing.
    obs: Option<Obs>,
}

impl ServiceInner {
    /// Open a serve-side span (`None` when tracing is off).
    fn span_start(&self) -> Option<SpanTimer> {
        let o = self.obs.as_ref()?;
        Some(SpanTimer {
            start_ns: o.recorder.now_ns(),
            cpu0: cputime::thread_cpu_now(),
        })
    }

    /// Record the span `t` opened; its wall time in ns when traced.
    fn span_end(
        &self,
        t: Option<SpanTimer>,
        trace: TraceId,
        kind: SpanKind,
        arg: u64,
        link: u64,
    ) -> Option<u64> {
        let (o, t) = (self.obs.as_ref()?, t?);
        let wall_ns = o.recorder.now_ns().saturating_sub(t.start_ns);
        let cpu = cputime::cpu_elapsed(t.cpu0, cputime::thread_cpu_now());
        o.recorder.record(SpanRecord {
            seq: 0,
            trace,
            kind,
            worker: SERVICE_WORKER,
            arg,
            link,
            start_ns: t.start_ns,
            wall_ns,
            cpu_ns: duration_ns(cpu),
        });
        Some(wall_ns)
    }

    /// Record a zero-duration marker span (e.g. a deadline shed).
    fn mark(&self, trace: TraceId, kind: SpanKind, arg: u64, link: u64) {
        if let Some(o) = &self.obs {
            o.recorder.record(SpanRecord {
                seq: 0,
                trace,
                kind,
                worker: SERVICE_WORKER,
                arg,
                link,
                start_ns: o.recorder.now_ns(),
                wall_ns: 0,
                cpu_ns: 0,
            });
        }
    }

    /// Update `pipeline`'s footprint EWMA with one request's measured
    /// byte cost (¼ new, ¾ old — a few requests re-center the estimate
    /// after a workload shift without letting one outlier swing it).
    fn note_cost(&self, pipeline: &str, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let mut costs = lock(&self.pipeline_cost);
        match costs.get_mut(pipeline) {
            Some(c) => *c = (*c * 3 + bytes) / 4,
            None => {
                costs.insert(pipeline.to_string(), bytes);
            }
        }
    }

    /// The current footprint estimate for `pipeline` (0 = unknown; an
    /// unknown pipeline is never memory-shed — the first request
    /// measures it).
    fn estimated_cost(&self, pipeline: &str) -> u64 {
        lock(&self.pipeline_cost)
            .get(pipeline)
            .copied()
            .unwrap_or(0)
    }
}

/// A multi-tenant, in-process pipeline service (the `mozart-serve`
/// tentpole): every session shares one process-wide worker pool — no
/// per-client thread oversubscription — and one plan cache, so repeated
/// structurally identical pipelines skip the planner. Sessions carry
/// fair-share weights (deficit-weighted round-robin on the pool) and
/// optional byte budgets, and queued fingerprint-identical requests
/// coalesce into one evaluation.
///
/// Cloning is cheap; clones share all state. See the crate docs for a
/// quickstart.
#[derive(Clone)]
pub struct PipelineService {
    inner: Arc<ServiceInner>,
}

impl PipelineService {
    /// Start configuring a service.
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder {
            config: ServiceConfig::default(),
            max_inflight: None,
            queue_depth: None,
            session_config: None,
            pipelines: Vec::new(),
        }
    }

    /// Register (or replace) a pipeline after construction.
    pub fn register(&self, pipeline: Arc<dyn Pipeline>) {
        let mut map = write(&self.inner.pipelines);
        map.insert(pipeline.name(), pipeline);
    }

    /// Names of the registered pipelines, sorted.
    pub fn pipeline_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = read(&self.inner.pipelines).keys().copied().collect();
        names.sort_unstable();
        names
    }

    /// Open a session: the unit of fairness accounting and the handle
    /// requests go through. Sessions are cheap and `Send`; open one per
    /// client connection or per client thread. The session starts with
    /// the service's default weight and byte budget
    /// ([`ServiceConfig::session_weight`] /
    /// [`ServiceConfig::session_byte_budget`]).
    ///
    /// Session ids are allocated from a process-global counter, so a
    /// session tag in pool accounting or a trace names one session of
    /// the process, whichever service opened it.
    pub fn session(&self) -> Session {
        static SESSION_IDS: AtomicU64 = AtomicU64::new(1);
        let inner = &self.inner;
        inner.session_counter.fetch_add(1, Ordering::Relaxed);
        let id = SESSION_IDS.fetch_add(1, Ordering::Relaxed);
        let weight = inner.config.session_weight.max(1);
        if weight != 1 {
            // Default-weight sessions are registered lazily (on their
            // first pool job): eagerly creating an entry per connection
            // would churn the pool's bounded session map with idle
            // sessions and evict entries that carry real accounting.
            inner.pool.set_session_weight(id, weight);
        }
        Session {
            service: self.clone(),
            id,
            requests: AtomicU64::new(0),
            weight: AtomicU32::new(weight),
            byte_budget: AtomicU64::new(inner.config.session_byte_budget),
            bytes_used: AtomicU64::new(0),
            default_deadline_ms: AtomicU64::new(0),
            pipeline: AtomicBool::new(inner.session_config.pipeline),
        }
    }

    /// The sizing configuration the service was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.config
    }

    /// The service's shared worker pool handle.
    pub fn pool(&self) -> PoolHandle {
        self.inner.pool.clone()
    }

    /// The service's shared plan cache.
    pub fn plan_cache(&self) -> Arc<PlanCache> {
        self.inner.cache.clone()
    }

    /// Snapshot of the service counters. The request-outcome counters
    /// (`started` through `engine`) are read as **one** locked snapshot:
    /// a request that just resolved is either entirely in the snapshot
    /// or entirely absent, never counted in `completed` but missing
    /// from `started`. The admission, coalescer, plan-cache, and pool
    /// figures are each internally consistent but sampled separately.
    pub fn stats(&self) -> ServiceStats {
        let inner = &self.inner;
        let (inflight, waiting) = inner.admission.load();
        // Lock order matches every other coalescer user: map, then the
        // individual batch states.
        let coalesce_waiting = lock(&inner.coalescer)
            .values()
            .map(|b| lock(&b.state).reqs.len().saturating_sub(1))
            .sum();
        let counted = lock(&inner.counters).clone();
        ServiceStats {
            draining: inner.draining.load(Ordering::Relaxed),
            coalesce_waiting,
            sessions: inner.session_counter.load(Ordering::Relaxed),
            inflight,
            waiting,
            plan_cache: inner.cache.stats(),
            pool: inner.pool.stats(),
            admission_limit: inner.admission.limit(),
            breaker_open: inner
                .breakers
                .snapshot()
                .iter()
                .filter(|(_, state, _)| *state == BreakerState::Open)
                .count(),
            memory_live_bytes: membudget::live_bytes(),
            memory_ceiling_bytes: membudget::ceiling_bytes(),
            ..counted
        }
    }

    /// `(pipeline, state, times_opened)` for every circuit breaker the
    /// service has touched, sorted by pipeline name. A pipeline no
    /// request has reached yet has no entry (equivalent to Closed).
    pub fn breaker_states(&self) -> Vec<(String, &'static str, u64)> {
        self.inner
            .breakers
            .snapshot()
            .into_iter()
            .map(|(name, state, opened)| (name, state.as_str(), opened))
            .collect()
    }

    /// Whether the service was built with tracing
    /// ([`ServiceBuilder::tracing`]).
    pub fn tracing_enabled(&self) -> bool {
        self.inner.obs.is_some()
    }

    /// The shared span recorder, when tracing is enabled. Request
    /// contexts record into it from every worker thread; drained via
    /// [`TraceRecorder::spans`] / [`TraceRecorder::all_spans`] (e.g.
    /// for [`mozart_core::chrome_trace_json`] export).
    pub fn recorder(&self) -> Option<Arc<TraceRecorder>> {
        self.inner.obs.as_ref().map(|o| o.recorder.clone())
    }

    /// Raw span records of one trace, sorted by start time. Empty when
    /// tracing is off, the id is unknown, or the ring buffers have
    /// since overwritten the trace's spans.
    pub fn trace_spans(&self, trace: TraceId) -> Vec<SpanRecord> {
        self.inner
            .obs
            .as_ref()
            .map_or_else(Vec::new, |o| o.recorder.spans(trace))
    }

    /// One request's assembled span tree (`None` when tracing is off or
    /// no spans of the trace survive in the ring buffers).
    pub fn trace_tree(&self, trace: TraceId) -> Option<SpanTree> {
        self.inner.obs.as_ref()?.recorder.tree(trace)
    }

    /// Histogram snapshots of a tracing-enabled service (`None` when
    /// tracing is off): end-to-end latency, admission wait, and
    /// per-attempt phase times, all in nanoseconds.
    pub fn metrics(&self) -> Option<ServiceMetrics> {
        let o = self.inner.obs.as_ref()?;
        Some(ServiceMetrics {
            e2e: o.e2e.snapshot(),
            admission_wait: o.admission_wait.snapshot(),
            phases: PHASE_NAMES
                .iter()
                .zip(o.phases.iter())
                .map(|(&n, h)| (n, h.snapshot()))
                .collect(),
        })
    }

    /// The slow-request log: the most recent 64 requests that consumed
    /// at least 80% of their deadline, oldest first. Empty when tracing
    /// is off.
    pub fn slow_requests(&self) -> Vec<SlowRequest> {
        self.inner
            .obs
            .as_ref()
            .map_or_else(Vec::new, |o| lock(&o.slow).iter().cloned().collect())
    }

    /// The service's metrics page in the Prometheus text exposition
    /// format (see [`crate::metrics`] for the format contract): every
    /// [`STAT_TABLE`] row with a metric name, in table order, and the
    /// per-pipeline breaker gauges, always; latency histograms,
    /// per-span-kind wall/CPU totals, and the recorder's drop counter
    /// when tracing is enabled. Served verbatim by the `METRICS`
    /// protocol line and `serve_tcp --metrics-port`.
    pub fn metrics_text(&self) -> String {
        let mut out = String::with_capacity(4096);
        let s = self.stats();
        for row in &STAT_TABLE {
            let Some(name) = row.metric else { continue };
            let render = match row.kind {
                StatKind::Counter => render_counter,
                StatKind::Gauge | StatKind::Flag => render_gauge,
            };
            render(&mut out, name, row.help, (row.get)(&s));
        }
        let breakers = self.inner.breakers.snapshot();
        if !breakers.is_empty() {
            render_gauge_labeled(
                &mut out,
                "mozart_breaker_state",
                "Circuit breaker state per pipeline (0 closed, 1 half-open, 2 open)",
                "pipeline",
                breakers
                    .iter()
                    .map(|(name, state, _)| (name.as_str(), state.as_gauge())),
            );
            render_gauge_labeled(
                &mut out,
                "mozart_breaker_opened_total",
                "Times each pipeline's breaker has opened",
                "pipeline",
                breakers
                    .iter()
                    .map(|(name, _, opened)| (name.as_str(), *opened)),
            );
        }
        if let Some(o) = self.inner.obs.as_ref() {
            render_histogram(
                &mut out,
                "mozart_request_seconds",
                "End-to-end request latency",
                &o.e2e.snapshot(),
            );
            render_histogram(
                &mut out,
                "mozart_admission_wait_seconds",
                "Time waiting for an admission slot",
                &o.admission_wait.snapshot(),
            );
            for (name, h) in PHASE_NAMES.iter().zip(o.phases.iter()) {
                render_histogram(
                    &mut out,
                    &format!("mozart_phase_{name}_seconds"),
                    "Per-attempt evaluation phase time",
                    &h.snapshot(),
                );
            }
            render_counter(
                &mut out,
                "mozart_trace_spans_dropped_total",
                "Span records overwritten before being read",
                o.recorder.dropped(),
            );
            // Per-span-kind totals survive ring overwrites (accumulated
            // at record time), so they are true since-start counters.
            for t in o.recorder.phase_totals() {
                if t.count == 0 {
                    continue;
                }
                let kind = t.kind.name();
                render_counter(
                    &mut out,
                    &format!("mozart_span_{kind}_total"),
                    "Spans recorded of this kind",
                    t.count,
                );
                render_counter(
                    &mut out,
                    &format!("mozart_span_{kind}_wall_ns_total"),
                    "Cumulative wall time of this span kind (ns)",
                    t.wall_ns,
                );
                render_counter(
                    &mut out,
                    &format!("mozart_span_{kind}_cpu_ns_total"),
                    "Cumulative thread CPU time of this span kind (ns)",
                    t.cpu_ns,
                );
            }
        }
        out
    }

    /// Gracefully drain the service: close admission — every subsequent
    /// request and every queued waiter is shed with
    /// [`ServeError::Draining`] — and wait up to `timeout` for
    /// in-flight evaluations (and the coalesced followers they resolve)
    /// to finish. Returns whether the service went fully idle within
    /// the timeout; either way, draining is irreversible for this
    /// service instance. Safe to call from any thread (e.g. a SIGTERM
    /// watcher) and idempotent.
    pub fn drain(&self, timeout: Duration) -> bool {
        self.inner.draining.store(true, Ordering::SeqCst);
        self.inner.admission.close();
        // Wake every backing-off retry: a drain must not wait out a
        // sleeper's full backoff before its in-flight request resolves.
        *lock(&self.inner.drain_mu) = true;
        self.inner.drain_cv.notify_all();
        self.inner.admission.wait_idle(Instant::now() + timeout)
    }

    /// Whether [`PipelineService::drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst) || self.inner.admission.is_closed()
    }

    /// One short-lived context per request: registration state never
    /// accumulates, while the expensive parts — worker threads and
    /// plans — live in the shared pool and cache.
    fn request_context(&self, session: &Session) -> MozartContext {
        let inner = &self.inner;
        let mut config = inner.session_config.clone();
        config.pipeline = session.pipeline.load(Ordering::Relaxed);
        let ctx = MozartContext::new(config);
        ctx.attach_pool(inner.pool.clone())
            .attach_plan_cache(inner.cache.clone())
            .set_session_tag(session.id);
        ctx
    }

    /// Run one request end to end, minting and returning its trace id
    /// when tracing is enabled. The outermost [`SpanKind::Request`]
    /// span, the end-to-end histogram sample, and the slow-request
    /// check all live here, wrapped around the whole request lifetime
    /// (admission wait included).
    fn execute_traced(
        &self,
        session: &Session,
        pipeline: &str,
        req: &Request,
        wait: bool,
    ) -> (Result<Response>, Option<TraceId>) {
        let inner = &self.inner;
        let obs = inner.obs.as_ref();
        let trace = obs.map_or(0, |o| o.recorder.mint());
        let timer = inner.span_start();
        // The request's deadline clock starts on arrival: an explicit
        // per-request deadline wins over the session's default.
        let deadline = req
            .deadline_ms()
            .or_else(|| session.deadline_ms())
            .map(|ms| (Instant::now() + Duration::from_millis(ms), ms));
        let result = self.execute_inner(&Flight {
            session,
            pipeline,
            req,
            wait,
            deadline,
            trace,
        });
        let wall_ns = inner.span_end(timer, trace, SpanKind::Request, 0, 0);
        if let (Some(o), Some(wall_ns)) = (obs, wall_ns) {
            o.e2e.record(wall_ns);
            let outcome = match &result {
                Ok(_) => "ok",
                Err(e) => e.kind(),
            };
            o.note_slow(&inner.counters, trace, pipeline, outcome, deadline, wall_ns);
        }
        (result, (trace != 0).then_some(trace))
    }

    /// The lifecycle (module docs), stages 1–6, then the evaluating
    /// request's stages 7–9 in [`PipelineService::run_batch`].
    fn execute_inner(&self, rq: &Flight<'_>) -> Result<Response> {
        let inner = &self.inner;
        if inner.draining.load(Ordering::SeqCst) {
            return Err(self.turn_away(ServeError::Draining, rq.trace));
        }
        let handler = read(&inner.pipelines)
            .get(rq.pipeline)
            .cloned()
            .ok_or_else(|| ServeError::UnknownPipeline(rq.pipeline.to_string()))?;
        rq.session.check_budget(inner)?;

        // Circuit breaker: a pipeline stuck in consecutive transient
        // failures fast-fails here — no admission permit, no pool time.
        let breaker_pass = match inner.breakers.admit(rq.pipeline) {
            BreakerDecision::Proceed(pass) => pass,
            BreakerDecision::Reject => {
                lock(&inner.counters).breaker_shed += 1;
                return Err(ServeError::CircuitOpen {
                    pipeline: rq.pipeline.to_string(),
                });
            }
        };

        // Process memory ceiling: shed before admission when the
        // pipeline's estimated footprint (EWMA of its recent split +
        // merge byte traffic) does not fit under the global ceiling.
        let estimated = inner.estimated_cost(rq.pipeline);
        if membudget::would_exceed(estimated) {
            lock(&inner.counters).over_memory += 1;
            return Err(ServeError::OverMemory {
                live_bytes: membudget::live_bytes(),
                ceiling_bytes: membudget::ceiling_bytes(),
                estimated_bytes: estimated,
            });
        }

        let published = match self.coalesce_role(&*handler, rq) {
            // A follower leaves its breaker pass untouched (neutral on
            // drop): the leader is the one request that evaluates, so it
            // alone reports on the pipeline's health.
            Role::Follow(batch) => match self.follow(rq, &batch) {
                Some(result) => return result,
                // Sealed or full: serve this request on its own rather
                // than spinning on the next batch.
                None => None,
            },
            Role::Lead(guard) => Some(guard),
            Role::Solo => None,
        };
        self.run_batch(rq, &*handler, breaker_pass, published)
    }

    /// Stage 6 — cross-request coalescing: blocking requests whose
    /// coalesce keys match may share one evaluation. `try_call`
    /// requests never coalesce — joining a batch means waiting for its
    /// leader. Under memory pressure (live bytes ≥ ⅞ of the ceiling)
    /// the coalescer declines batch growth: a coalesced evaluation's
    /// concatenated inputs and outputs peak higher than any single
    /// member's, which is exactly the wrong shape near the ceiling.
    fn coalesce_role(&self, handler: &dyn Pipeline, rq: &Flight<'_>) -> Role<'_> {
        let inner = &self.inner;
        if !rq.wait || !inner.config.coalescing || membudget::pressured() {
            return Role::Solo;
        }
        let Some(key) = handler.coalesce_key(rq.req) else {
            return Role::Solo;
        };
        let key = (rq.pipeline.to_string(), key);
        let mut open = lock(&inner.coalescer);
        if let Some(batch) = open.get(&key) {
            return Role::Follow(batch.clone());
        }
        let batch = Arc::new(CoalesceBatch::new(rq.req.clone(), rq.trace));
        open.insert(key.clone(), batch.clone());
        Role::Lead(CoalesceGuard {
            inner,
            key,
            batch,
            finished: false,
        })
    }

    /// Count a request no stage admitted — shed by its deadline (marked
    /// on its trace) or rejected by admission — and hand the error back.
    fn turn_away(&self, e: ServeError, trace: TraceId) -> ServeError {
        let inner = &self.inner;
        if let ServeError::DeadlineExceeded { deadline_ms } = e {
            lock(&inner.counters).deadline_shed += 1;
            inner.mark(trace, SpanKind::DeadlineShed, 0, deadline_ms);
        } else {
            lock(&inner.counters).rejected += 1;
        }
        e
    }

    /// Stage 7 — take an admission slot, queueing for it (`call`) or
    /// not (`try_call`), and count the request started.
    fn admit(&self, rq: &Flight<'_>) -> Result<AdmissionPermit<'_>> {
        let inner = &self.inner;
        let qt = inner.span_start();
        let permit = if rq.wait {
            inner.admission.acquire_deadline(rq.deadline)
        } else {
            inner.admission.try_acquire()
        };
        let wall_ns = inner.span_end(qt, rq.trace, SpanKind::QueueWait, 0, 0);
        if let (Some(o), Some(wall_ns)) = (&inner.obs, wall_ns) {
            o.admission_wait.record(wall_ns);
        }
        let permit = permit.map_err(|e| self.turn_away(e, rq.trace))?;
        lock(&inner.counters).started += 1;
        rq.session.requests.fetch_add(1, Ordering::Relaxed);
        Ok(permit)
    }

    /// Stages 7–9 for the request that evaluates. `published` is the
    /// batch it leads; `None` is a batch of one the coalescer never
    /// saw. The request carries the batch's breaker pass.
    fn run_batch(
        &self,
        rq: &Flight<'_>,
        handler: &dyn Pipeline,
        breaker_pass: BreakerPass<'_>,
        published: Option<CoalesceGuard<'_>>,
    ) -> Result<Response> {
        // Followers join while this blocks — the window where the
        // service is busy is exactly the window coalescing pays off.
        let _permit = match self.admit(rq) {
            Ok(permit) => permit,
            Err(e) => {
                if let Some(guard) = published {
                    guard.finish(Err(e.clone()));
                }
                return Err(e);
            }
        };
        let sealed;
        let reqs = match &published {
            Some(guard) => {
                sealed = guard.seal();
                &sealed[..]
            }
            None => std::slice::from_ref(rq.req),
        };
        let mut spent = PhaseStats::default();
        let results = self.eval_batch(rq, handler, reqs, &mut spent);

        // The byte cost (failed work included) splits evenly across the
        // members: it must not land on the leader's budget alone.
        let share = spent.bytes_split.saturating_add(spent.bytes_merged) / reqs.len() as u64;
        self.inner.note_cost(rq.pipeline, share);
        let own = results.first().cloned().unwrap_or_else(|| Err(aborted()));
        // Only post-retry transient failures move the breaker;
        // deterministic errors say nothing about health.
        match &own {
            Ok(_) => breaker_pass.success(),
            Err(e) if e.is_transient() => breaker_pass.failure(),
            Err(_) => breaker_pass.neutral(),
        }
        self.settle(rq.session, &own, share, Some(&spent));
        if let Some(guard) = published {
            guard.finish(Ok((results, share)));
        }
        own
    }

    /// Stage 9 — close the books on a request that was evaluated, by
    /// itself or by its leader: charge its byte share to the session
    /// and count the outcome. `spent` is what the request's own
    /// attempts cost the engine; a follower has none and is counted
    /// started here, having never taken a slot of its own.
    fn settle(
        &self,
        session: &Session,
        result: &Result<Response>,
        share: u64,
        spent: Option<&PhaseStats>,
    ) {
        session.bytes_used.fetch_add(share, Ordering::Relaxed);
        let mut c = lock(&self.inner.counters);
        match spent {
            Some(spent) => c.engine.accumulate(spent),
            None => {
                session.requests.fetch_add(1, Ordering::Relaxed);
                c.started += 1;
                c.coalesced_requests += 1;
            }
        }
        match result {
            Ok(_) => c.completed += 1,
            Err(ServeError::DeadlineExceeded { .. }) => c.deadline_shed += 1,
            Err(_) => c.failed += 1,
        }
    }

    /// Stage 8 — evaluate under the held admission slot, retrying
    /// transient failures (caught panics, injected faults) up to
    /// [`ServiceConfig::max_retries`] times with jittered backoff.
    /// `eval` is the evaluation: one request's pipeline, or a batch's
    /// shared segment. Each attempt gets a fresh context — a panicked
    /// evaluation poisons its context — carrying a deadline cancel
    /// token, so an expired request stops claiming batches instead of
    /// running to completion. Every attempt's phase stats land in
    /// `spent`: failed work still cost the machine, and the session's
    /// budget sees it.
    fn attempts<T>(
        &self,
        rq: &Flight<'_>,
        spent: &mut PhaseStats,
        mut eval: impl FnMut(&MozartContext) -> mozart_core::Result<T>,
    ) -> Result<T> {
        let inner = &self.inner;
        let expired = |attempt: u32| {
            let deadline_ms = rq.deadline.map_or(0, |(_, ms)| ms);
            let arg = u64::from(attempt);
            inner.mark(rq.trace, SpanKind::DeadlineShed, arg, deadline_ms);
            ServeError::DeadlineExceeded { deadline_ms }
        };
        let mut attempt: u32 = 0;
        // Cause of the previous attempt's failure, carried in the next
        // Attempt span's link field.
        let mut prev_cause = RetryCause::None;
        loop {
            if rq.deadline.is_some_and(|(d, _)| Instant::now() >= d) {
                return Err(expired(attempt));
            }
            let at = inner.span_start();
            let ctx = self.request_context(rq.session);
            if rq.trace != 0 {
                ctx.set_trace_id(rq.trace);
            }
            if let Some((d, _)) = rq.deadline {
                ctx.set_cancel_token(CancelToken::with_deadline(d));
            }
            let result = eval(&ctx);
            let stats = ctx.stats();
            let (arg, link) = (u64::from(attempt), prev_cause as u64);
            inner.span_end(at, rq.trace, SpanKind::Attempt, arg, link);
            if let Some(o) = &inner.obs {
                o.record_phases(&stats);
            }
            spent.accumulate(&stats);
            let e = match result {
                Ok(value) => return Ok(value),
                // Cooperative abandonment: the deadline token fired
                // mid-evaluation. Never retried.
                Err(mozart_core::Error::Cancelled(_)) => return Err(expired(attempt)),
                Err(e) => ServeError::Runtime(e),
            };
            if !e.is_transient() || attempt >= inner.config.max_retries {
                return Err(e);
            }
            prev_cause = retry_cause(&e);
            attempt += 1;
            lock(&inner.counters).retries += 1;
            let bt = inner.span_start();
            self.backoff(rq.session.id, attempt, rq.deadline);
            inner.span_end(bt, rq.trace, SpanKind::Backoff, u64::from(attempt), 0);
        }
    }

    /// Evaluate an admitted batch's member requests: several members
    /// as **one** coalesced pipeline when the pipeline can, **degrading**
    /// to per-member evaluation (each with its own retry budget, all
    /// under the one admission slot) when it declines or the shared
    /// evaluation keeps failing transiently — one fault must not
    /// condemn the whole batch. Deterministic errors fail every member
    /// identically. Returns per-member results in `reqs` order.
    fn eval_batch(
        &self,
        rq: &Flight<'_>,
        handler: &dyn Pipeline,
        reqs: &[Request],
        spent: &mut PhaseStats,
    ) -> Vec<Result<Response>> {
        if reqs.len() > 1 {
            let shared = self.attempts(rq, spent, |ctx| coalesce_segments(ctx, handler, reqs));
            let all = |e: ServeError| vec![Err(e); reqs.len()];
            match shared {
                Ok(Some(resps)) if resps.len() == reqs.len() => {
                    return resps.into_iter().map(Ok).collect();
                }
                Ok(Some(resps)) => {
                    return all(ServeError::Runtime(mozart_core::Error::Library(format!(
                        "coalesced evaluation returned {} responses for {} requests",
                        resps.len(),
                        reqs.len()
                    ))));
                }
                // Declined, or out of retries on a transient failure:
                // isolate the fault per member.
                Ok(None) => {}
                Err(e) if e.is_transient() => {}
                Err(e) => return all(e),
            }
        }
        reqs.iter()
            .map(|req| self.attempts(rq, spent, |ctx| handler.run(ctx, req)))
            .collect()
    }

    /// Jittered exponential backoff before retry `attempt`, clamped to
    /// the request's remaining deadline (a retry that cannot finish in
    /// time sleeps short and is shed by the next deadline check). The
    /// jitter is deterministic per (session, attempt, global retry
    /// count) — `splitmix64`, the fault injector's mixer — so sessions
    /// retrying in lockstep after a shared fault decorrelate.
    fn backoff(&self, session: u64, attempt: u32, deadline: Option<(Instant, u64)>) {
        let base = self.inner.config.retry_backoff_ms;
        if base == 0 {
            return;
        }
        let scaled = base.saturating_mul(1u64 << attempt.min(6));
        let seed = session
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(attempt))
            .wrapping_add(lock(&self.inner.counters).retries << 17);
        let jitter = splitmix64(seed) % (scaled / 2 + 1);
        let mut wait = Duration::from_millis(scaled / 2 + jitter);
        if let Some((d, _)) = deadline {
            wait = wait.min(d.saturating_duration_since(Instant::now()));
        }
        if wait.is_zero() {
            return;
        }
        // Not a bare sleep: wait on the drain condvar so `drain()` cuts
        // the backoff short — the retry then runs immediately and the
        // drain observes its outcome, instead of the drain timeout
        // being eaten by a sleeper nothing can wake.
        let until = Instant::now() + wait;
        let mut drained = lock(&self.inner.drain_mu);
        while !*drained {
            let now = Instant::now();
            if now >= until {
                break;
            }
            let (guard, _) = self
                .inner
                .drain_cv
                .wait_timeout(drained, until - now)
                .unwrap_or_else(|p| p.into_inner());
            drained = guard;
        }
    }

    /// Stage 6, the follower's side: park on a forming batch until its
    /// leader resolves it, then settle this member's result. Returns
    /// `None` if the batch cannot be joined (sealed by its leader or at
    /// capacity). A follower whose deadline passes while parked sheds
    /// itself with [`ServeError::DeadlineExceeded`] without disturbing
    /// the batch (its slot in the member list stays — indices into the
    /// leader's per-member results must remain stable — it just goes
    /// unclaimed).
    fn follow(&self, rq: &Flight<'_>, batch: &CoalesceBatch) -> Option<Result<Response>> {
        let inner = &self.inner;
        let mut st = lock(&batch.state);
        if st.sealed || st.reqs.len() >= MAX_COALESCE {
            return None;
        }
        let shed = |ms| self.turn_away(ServeError::DeadlineExceeded { deadline_ms: ms }, rq.trace);
        if let Some((d, ms)) = rq.deadline {
            if Instant::now() >= d {
                drop(st);
                return Some(Err(shed(ms)));
            }
        }
        let idx = st.reqs.len();
        st.reqs.push(rq.req.clone());
        // The follower's wait on its leader, linked to the leader's
        // trace — the span that ties this request's tree to the
        // evaluation that actually served it.
        let (wt, arg, link) = (inner.span_start(), idx as u64, batch.leader_trace);
        let waited = || inner.span_end(wt, rq.trace, SpanKind::CoalesceWait, arg, link);
        while st.outcome.is_none() {
            match rq.deadline {
                None => st = batch.cv.wait(st).unwrap_or_else(|p| p.into_inner()),
                Some((d, ms)) => {
                    let now = Instant::now();
                    if now >= d {
                        drop(st);
                        waited();
                        return Some(Err(shed(ms)));
                    }
                    st = batch
                        .cv
                        .wait_timeout(st, d - now)
                        .unwrap_or_else(|p| p.into_inner())
                        .0;
                }
            }
        }
        waited();
        let (own, share) = match &st.outcome {
            // The batch never got an admission slot; the follower
            // would have queued behind the same full (or closed) line,
            // or died with the leader's deadline.
            Some(Err(e)) => {
                let e = e.clone();
                drop(st);
                return Some(Err(self.turn_away(e, rq.trace)));
            }
            Some(Ok((results, share))) => (results.get(idx).cloned(), *share),
            None => (None, 0),
        };
        drop(st);
        let own = own.unwrap_or_else(|| Err(aborted()));
        self.settle(rq.session, &own, share, None);
        Some(own)
    }
}

/// What a member of a batch reports when the batch resolved without a
/// result for it: its leader unwound mid-evaluation. Typed rather than
/// a panic so a bug here fails one request.
fn aborted() -> ServeError {
    ServeError::Runtime(mozart_core::Error::Library(
        "coalesced evaluation aborted by its leader".into(),
    ))
}

/// What every lifecycle stage needs to know about the request in hand.
struct Flight<'a> {
    session: &'a Session,
    pipeline: &'a str,
    req: &'a Request,
    /// `call` waits for admission and may coalesce; `try_call` does
    /// neither.
    wait: bool,
    /// The instant the request expires, and the allowance in
    /// milliseconds that put it there.
    deadline: Option<(Instant, u64)>,
    /// 0 when tracing is off.
    trace: TraceId,
}

/// A request's part in cross-request coalescing (lifecycle stage 6).
enum Role<'a> {
    /// Evaluate alone, unpublished.
    Solo,
    /// Evaluate the batch this request just published.
    Lead(CoalesceGuard<'a>),
    /// Wait on another request's open batch.
    Follow(Arc<CoalesceBatch>),
}

/// The generic cross-request coalescer: evaluate several key-identical
/// requests as **one** pipeline over split-layer-concatenated inputs
/// and slice the outputs back per request.
///
/// Returns `Ok(None)` to decline — the pipeline exposes no segments, an
/// input's split type exposes no [`Concat`] capability, or the combined
/// element total exceeds the leader's bound — in which case the caller
/// evaluates the members individually. `Err(..)` fails the whole batch
/// (every member sees the error, exactly like a failing shared
/// evaluation).
fn coalesce_segments(
    ctx: &MozartContext,
    handler: &dyn Pipeline,
    reqs: &[Request],
) -> mozart_core::Result<Option<Vec<Response>>> {
    let mut segments = Vec::with_capacity(reqs.len());
    for req in reqs {
        match handler.segment(req) {
            None => return Ok(None),
            // Joining is gated on a parseable coalesce key, so a
            // member whose segment fails to build indicates a true
            // evaluation-input failure; it fails the batch like any
            // shared-evaluation error.
            Some(segment) => segments.push(segment?),
        }
    }
    let structural = |msg: String| mozart_core::Error::Library(format!("coalescing: {msg}"));
    let arity = segments[0].inputs.len();
    let out_arity = segments[0].outputs.len();
    if segments
        .iter()
        .any(|s| s.inputs.len() != arity || s.outputs.len() != out_arity)
    {
        return Err(structural(
            "key-identical requests produced segments of different arity".into(),
        ));
    }
    if arity == 0 || out_arity == 0 {
        return Ok(None);
    }

    // Per-member element counts, from the first input's split type.
    // Every input of one request must cover the same element total (the
    // stage element-agreement rule), so one probe per member suffices.
    let mut counts = Vec::with_capacity(segments.len());
    let mut offsets = Vec::with_capacity(segments.len());
    let mut total = 0u64;
    for s in &segments {
        let input = &s.inputs[0];
        let params = input.splitter.default_params(&input.value)?;
        let info = input.splitter.info(&input.value, &params)?;
        offsets.push(total);
        counts.push(info.total_elements);
        total = total.saturating_add(info.total_elements);
    }
    let bound = segments[0].max_total_elements;
    if bound > 0 && total > bound {
        return Ok(None); // size decline: fall back to per-request evaluation
    }

    // Concatenate each input position across members through the split
    // type's Concat capability (the inverse of `split`).
    let mut cat_inputs = Vec::with_capacity(arity);
    for j in 0..arity {
        let Some(cap) = segments[0].inputs[j].splitter.concat() else {
            return Ok(None); // this input's type cannot concatenate
        };
        let values: Vec<DataValue> = segments.iter().map(|s| s.inputs[j].value.clone()).collect();
        let (cat, cat_offsets) = cap.concat(&values)?;
        if cat_offsets != offsets {
            return Err(structural(format!(
                "input {j} concatenated at offsets {cat_offsets:?}, expected \
                 {offsets:?} (inputs of one request disagree on element counts)"
            )));
        }
        cat_inputs.push(cat);
    }

    // Output slicers must exist before the evaluation runs, so a
    // missing capability declines instead of wasting the work.
    let out_caps: Vec<Arc<dyn Concat>> = {
        let mut caps = Vec::with_capacity(out_arity);
        for sp in &segments[0].outputs {
            match sp.concat() {
                Some(c) => caps.push(c),
                None => return Ok(None),
            }
        }
        caps
    };

    // One evaluation (the leader's body) over the combined inputs...
    let mut members = segments.into_iter();
    let Some(leader) = members.next() else {
        return Ok(None);
    };
    let eval = leader.eval;
    let mut responds = vec![leader.respond];
    responds.extend(members.map(|s| s.respond));
    let outs = eval(ctx, &cat_inputs)?;
    if outs.len() != out_arity {
        return Err(structural(format!(
            "evaluation returned {} outputs, segment declared {out_arity}",
            outs.len()
        )));
    }

    // ...then slice every member's element range back out.
    let mut responses = Vec::with_capacity(responds.len());
    for (i, respond) in responds.into_iter().enumerate() {
        let mut sliced = Vec::with_capacity(out_arity);
        for (out, cap) in outs.iter().zip(&out_caps) {
            sliced.push(cap.slice_back(out, offsets[i], counts[i])?);
        }
        responses.push(respond(&sliced)?);
    }
    Ok(Some(responses))
}

/// Builder for [`PipelineService`].
pub struct ServiceBuilder {
    config: ServiceConfig,
    /// Explicit overrides; `None` means "derive from `workers`" so a
    /// later [`ServiceBuilder::workers`] call rescales the defaults
    /// without clobbering values the operator set.
    max_inflight: Option<usize>,
    queue_depth: Option<usize>,
    session_config: Option<Config>,
    pipelines: Vec<Arc<dyn Pipeline>>,
}

impl ServiceBuilder {
    /// Worker threads per evaluation (shared pool holds `workers - 1`).
    /// Unless set explicitly, `max_inflight` defaults to `workers` and
    /// `queue_depth` to `4 * workers`.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers.max(1);
        self
    }

    /// Concurrent evaluations admitted (default `workers`); see
    /// [`ServiceConfig::max_inflight`].
    pub fn max_inflight(mut self, n: usize) -> Self {
        self.max_inflight = Some(n.max(1));
        self
    }

    /// Process-wide memory ceiling in bytes (0 = unlimited), installed
    /// into `mozart_core::membudget` when the service is built. Note
    /// the ceiling is **global** to the process — the last service
    /// built wins — because the buffers it governs are shared across
    /// every service and session.
    pub fn memory_ceiling_bytes(mut self, bytes: u64) -> Self {
        self.config.memory_ceiling_bytes = bytes;
        self
    }

    /// Circuit-breaker tuning: consecutive post-retry transient
    /// failures that open a pipeline's breaker (0 disables breakers)
    /// and the fast-fail cooldown before a half-open probe.
    pub fn breaker(mut self, threshold: u32, cooldown: Duration) -> Self {
        self.config.breaker_threshold = threshold;
        self.config.breaker_cooldown_ms = cooldown.as_millis() as u64;
        self
    }

    /// Waiters allowed beyond `max_inflight` before `Saturated`.
    pub fn queue_depth(mut self, n: usize) -> Self {
        self.queue_depth = Some(n);
        self
    }

    /// Default fair-share weight for new sessions (clamped to >= 1).
    /// Individual sessions can override it with [`Session::set_weight`].
    pub fn session_weight(mut self, weight: u32) -> Self {
        self.config.session_weight = weight.max(1);
        self
    }

    /// Default byte budget for new sessions (0 = unlimited); see
    /// [`ServeError::OverBudget`]. Individual sessions can override it
    /// with [`Session::set_byte_budget`].
    pub fn session_byte_budget(mut self, bytes: u64) -> Self {
        self.config.session_byte_budget = bytes;
        self
    }

    /// Enable or disable cross-request coalescing (on by default).
    pub fn coalescing(mut self, on: bool) -> Self {
        self.config.coalescing = on;
        self
    }

    /// Retries of transiently failed evaluations under the same
    /// admission permit (see [`ServiceConfig::max_retries`]; 0
    /// disables retrying).
    pub fn max_retries(mut self, n: u32) -> Self {
        self.config.max_retries = n;
        self
    }

    /// Base of the jittered exponential retry backoff, in milliseconds
    /// (see [`ServiceConfig::retry_backoff_ms`]; 0 retries
    /// immediately).
    pub fn retry_backoff_ms(mut self, ms: u64) -> Self {
        self.config.retry_backoff_ms = ms;
        self
    }

    /// Enable end-to-end request tracing and latency histograms (off by
    /// default). A tracing service mints a [`TraceId`] per request,
    /// records spans for every wait and evaluation phase into lock-free
    /// per-worker ring buffers ([`mozart_core::trace`]), feeds the
    /// latency histograms behind [`PipelineService::metrics`] /
    /// [`PipelineService::metrics_text`], and keeps the slow-request
    /// log. When off (the default), the request path takes one `Option`
    /// branch per would-be span and records nothing.
    pub fn tracing(mut self, on: bool) -> Self {
        self.config.tracing = on;
        self
    }

    /// Template [`Config`] for per-request contexts (batch sizing,
    /// pipelining, ...). The worker count is overridden by
    /// [`ServiceBuilder::workers`].
    pub fn session_config(mut self, config: Config) -> Self {
        self.session_config = Some(config);
        self
    }

    /// Register a pipeline.
    pub fn pipeline(mut self, p: Arc<dyn Pipeline>) -> Self {
        self.pipelines.push(p);
        self
    }

    /// Register every built-in workload pipeline
    /// (see [`crate::pipelines::builtin_pipelines`]).
    pub fn builtin_pipelines(mut self) -> Self {
        self.pipelines.extend(crate::pipelines::builtin_pipelines());
        self
    }

    /// Build the service: spawns the shared pool, creates the plan
    /// cache, registers the integrations' default split types.
    ///
    /// # Panics
    ///
    /// If the provided session [`Config`] fails
    /// [`Config::validate`](mozart_core::Config::validate) — a server
    /// that would poison every request context should fail at startup,
    /// not serve errors forever.
    pub fn build(self) -> PipelineService {
        workloads::register_all_defaults();
        let mut config = self.config;
        config.max_inflight = self.max_inflight.unwrap_or(config.workers);
        config.queue_depth = self.queue_depth.unwrap_or(4 * config.workers);
        let pool = PoolHandle::new(config.workers.max(1) - 1);
        let mut session_config = self
            .session_config
            .unwrap_or_else(|| Config::with_workers(config.workers));
        session_config.workers = config.workers;
        // Tracing: one shared recorder feeds every request context (the
        // executor's per-batch spans) and the serve-side spans alike.
        let obs = if config.tracing {
            let recorder = TraceRecorder::new();
            session_config.tracing = Some(recorder.clone());
            Some(Obs::new(recorder))
        } else {
            // An operator-supplied session Config may carry its own
            // recorder (e.g. one shared across services); adopt it.
            session_config.tracing.clone().map(Obs::new)
        };
        if let Err(e) = session_config.validate() {
            panic!("mozart-serve: session_config rejected: {e}");
        }
        if config.memory_ceiling_bytes > 0 {
            membudget::set_ceiling(config.memory_ceiling_bytes);
        }
        let service = PipelineService {
            inner: Arc::new(ServiceInner {
                admission: Admission::new(config.max_inflight, config.queue_depth),
                cache: Arc::new(PlanCache::new(PLAN_CACHE_CAPACITY)),
                session_config,
                pool,
                pipelines: RwLock::new(HashMap::new()),
                coalescer: Mutex::new(HashMap::new()),
                session_counter: AtomicU64::new(0),
                counters: Mutex::new(ServiceStats::default()),
                draining: AtomicBool::new(false),
                drain_mu: Mutex::new(false),
                drain_cv: Condvar::new(),
                breakers: BreakerMap::new(BreakerConfig {
                    threshold: config.breaker_threshold,
                    cooldown: Duration::from_millis(config.breaker_cooldown_ms),
                }),
                pipeline_cost: Mutex::new(HashMap::new()),
                obs,
                config,
            }),
        };
        for p in self.pipelines {
            service.register(p);
        }
        service
    }
}

/// One client's handle onto a [`PipelineService`]. The session id tags
/// every request context, so the shared pool's
/// [`PoolStats::sessions`](mozart_core::PoolStats) fairness accounting aggregates per client
/// rather than per short-lived request context; the session also
/// carries its fair-share weight and byte budget.
pub struct Session {
    service: PipelineService,
    id: u64,
    requests: AtomicU64,
    weight: AtomicU32,
    /// Byte budget (0 = unlimited); see [`ServeError::OverBudget`].
    byte_budget: AtomicU64,
    /// Bytes split + merged on this session's behalf, accumulated from
    /// each request context's phase stats.
    bytes_used: AtomicU64,
    /// Default deadline in milliseconds for requests that carry none
    /// (0 = no default; sub-millisecond settings round up to 1).
    default_deadline_ms: AtomicU64,
    /// Stage evaluation mode for this session's request contexts:
    /// `true` fuses whole pipelines (`Config::pipeline`, the service
    /// default), `false` evaluates one stage per call, merging every
    /// intermediate at its boundary (the paper's "-pipe").
    pipeline: AtomicBool,
}

impl Session {
    /// This session's id (the pool's fairness key).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Requests this session has submitted.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// This session's fair-share weight.
    pub fn weight(&self) -> u32 {
        self.weight.load(Ordering::Relaxed)
    }

    /// Set this session's fair-share weight (clamped to >= 1): its
    /// entitled share of the contended pool, relative to other sessions'
    /// weights, under deficit-weighted round-robin.
    pub fn set_weight(&self, weight: u32) {
        let weight = weight.max(1);
        self.weight.store(weight, Ordering::Relaxed);
        self.service.inner.pool.set_session_weight(self.id, weight);
    }

    /// This session's byte budget (0 = unlimited).
    pub fn byte_budget(&self) -> u64 {
        self.byte_budget.load(Ordering::Relaxed)
    }

    /// Set this session's byte budget (0 = unlimited). Once
    /// [`Session::bytes_used`] reaches the budget, further requests are
    /// shed with [`ServeError::OverBudget`].
    pub fn set_byte_budget(&self, bytes: u64) {
        self.byte_budget.store(bytes, Ordering::Relaxed);
    }

    /// Bytes split + merged on this session's behalf so far.
    pub fn bytes_used(&self) -> u64 {
        self.bytes_used.load(Ordering::Relaxed)
    }

    /// Shed the request if the session's byte budget is exhausted.
    fn check_budget(&self, inner: &ServiceInner) -> Result<()> {
        let budget = self.byte_budget.load(Ordering::Relaxed);
        if budget == 0 {
            return Ok(());
        }
        let used = self.bytes_used.load(Ordering::Relaxed);
        if used >= budget {
            lock(&inner.counters).over_budget += 1;
            return Err(ServeError::OverBudget {
                session: self.id,
                used_bytes: used,
                budget_bytes: budget,
            });
        }
        Ok(())
    }

    /// This session's default deadline in milliseconds for requests
    /// that carry no explicit deadline (`None` = no default).
    pub fn deadline_ms(&self) -> Option<u64> {
        match self.default_deadline_ms.load(Ordering::Relaxed) {
            0 => None,
            ms => Some(ms),
        }
    }

    /// Set (or clear, with `None`) the default deadline applied to this
    /// session's requests that carry no explicit
    /// [`Request::with_deadline_ms`]. Sub-millisecond durations round
    /// up to 1 ms; an immediate-shed deadline is expressed per request
    /// (`with_deadline_ms(0)`).
    pub fn set_deadline(&self, deadline: Option<Duration>) {
        let ms = deadline.map_or(0, |d| {
            u64::try_from(d.as_millis()).unwrap_or(u64::MAX).max(1)
        });
        self.default_deadline_ms.store(ms, Ordering::Relaxed);
    }

    /// This session's stage evaluation mode: `true` fuses whole
    /// pipelines, `false` evaluates one stage per call, merging and
    /// re-splitting at every call boundary (the paper's "-pipe").
    pub fn pipeline(&self) -> bool {
        self.pipeline.load(Ordering::Relaxed)
    }

    /// Set this session's stage evaluation mode (the `PIPELINE <0|1>`
    /// wire directive). Takes effect on the next request; fused and
    /// staged evaluation produce bit-identical responses, so this is a
    /// performance knob, never a semantic one.
    pub fn set_pipeline(&self, pipeline: bool) {
        self.pipeline.store(pipeline, Ordering::Relaxed);
    }

    /// Run `pipeline` with `req`, waiting in the bounded admission
    /// queue if the service is busy. Returns
    /// [`ServeError::Saturated`] once the queue itself is full. While
    /// waiting, the request may coalesce with fingerprint-identical
    /// queued requests (see [`Pipeline::coalesce_key`]).
    pub fn call(&self, pipeline: &str, req: &Request) -> Result<Response> {
        self.service.execute_traced(self, pipeline, req, true).0
    }

    /// Like [`Session::call`], additionally returning the request's
    /// trace id when the service was built with tracing
    /// ([`ServiceBuilder::tracing`]); `None` otherwise. The id is
    /// returned for failed requests too — their traces show where the
    /// time went before the failure. Look the trace up with
    /// [`PipelineService::trace_tree`] or the `TRACE <id>` protocol
    /// line.
    pub fn call_traced(
        &self,
        pipeline: &str,
        req: &Request,
    ) -> (Result<Response>, Option<TraceId>) {
        self.service.execute_traced(self, pipeline, req, true)
    }

    /// Run `pipeline` with `req` only if a slot is free right now;
    /// never waits (and never coalesces — joining a batch means waiting
    /// for its leader).
    pub fn try_call(&self, pipeline: &str, req: &Request) -> Result<Response> {
        self.service.execute_traced(self, pipeline, req, false).0
    }

    /// A fresh context wired like this session's request contexts
    /// (shared pool, shared plan cache, this session's tag) — for
    /// callers that want to run ad-hoc annotated calls under the
    /// service's resource envelope. Bypasses admission control and
    /// byte-budget metering.
    pub fn context(&self) -> MozartContext {
        self.service.request_context(self)
    }
}

fn read<'a, K, V>(l: &'a RwLock<HashMap<K, V>>) -> std::sync::RwLockReadGuard<'a, HashMap<K, V>> {
    l.read().unwrap_or_else(|p| p.into_inner())
}

fn write<'a, K, V>(l: &'a RwLock<HashMap<K, V>>) -> std::sync::RwLockWriteGuard<'a, HashMap<K, V>> {
    l.write().unwrap_or_else(|p| p.into_inner())
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}
