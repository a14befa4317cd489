//! The Mozart client library (`libmozart`, §4): lazy capture of a
//! dataflow graph from an unmodified application, and the evaluation
//! entry points.
//!
//! Annotated wrapper functions call [`MozartContext::call`] (the paper's
//! `register(function, args)`), which records the call and returns a
//! lazy [`FutureHandle`]. Evaluation is forced when (1) a `Future` is
//! accessed, or (2) a buffer mutated by a pending call is read through
//! its safe API — the Rust analogue of the paper's memory-protection
//! trick (see [`crate::buffer`]).
//!
//! Every evaluation executes *all* pending calls but carries the
//! [`Demand`] of the read that triggered it: `Future::get` asks for its
//! one value, a protected-buffer read for nothing but in-place storage,
//! an explicit [`MozartContext::evaluate`] for every live `Future`.
//! An output that is alive but not asked for, made by calls that mutate
//! nothing from values that cannot change (dataframe frames and
//! columns, images, scalars) and merged by concatenation, is not merged:
//! it keeps only its lineage (`OutputKind::Lineage`), its pieces are
//! dropped as a dead value's are, and the first read that asks
//! recomputes it, planning and running its calls again as stages —
//! under the context lock, or before the next evaluation of a call that
//! reads the value, or before a stage that writes storage in place.
//! The lineage is dropped with its `Future`. Any other live output,
//! such as one over a `SharedVec` or a reduction, is merged in its
//! stage. See
//! "Demand-driven materialization" in [`crate::planner`].
//!
//! Whenever a context lets go of a placement-merged value — its
//! `Future` is dropped, the end of an evaluation finds it unreachable,
//! or the context itself goes away — the value's storage is *parked* in
//! the attached plan cache for the next evaluation of the same segment
//! to write over, instead of being freed (see "Merge-target spares" in
//! [`crate::planner`]). Without a plan cache nothing is parked.
//!
//! A lazy argument must be a value of the calling context that is ready
//! or that an evaluation can still produce; a copy of one whose
//! `Future` was dropped after it was released is refused with
//! [`Error::ValueUnavailable`] and nothing is registered.
//!
//! # Calls below the work floor
//!
//! Pipelining and batching pay only once a pipeline's working set
//! outgrows the cache. A call whose split arguments total at most
//! `Config::l2_bytes / 16` bytes would be one batch of a one-batch
//! stage unless its pipeline touched 16 times its bytes, and capturing,
//! fingerprinting, planning and launching that stage costs as much as
//! the call itself (the paper's Fig. 5 regime). Such a call runs at
//! registration instead, on the caller: each split argument is split
//! once over its whole range, the function runs under the same panic
//! isolation as a stage's task phase, and a returned piece is merged
//! through its split type and stored as a ready value behind the
//! returned `Future`. That is the work a one-batch stage of the call
//! does, over the same range in the same order, so results are
//! bit-identical; the call leaves no graph node, plan or stage behind.
//! It counts in [`PhaseStats::calls`] and [`PhaseStats::inline_calls`].
//!
//! A call runs at registration only when all of these hold, checked
//! cheapest first; any other call is captured as ever:
//!
//! * nothing is pending in the context and it holds no value as
//!   lineage — which also keeps the rule that held values are made
//!   before storage they read is written in place;
//! * every argument is materialized: library data, or a lazy value of
//!   this context that is ready;
//! * no argument's storage is protected by any context: a call over
//!   storage with another context's pending write stays captured, so
//!   the order of the two is what the captured path gives;
//! * every split type comes from the call's own arguments as the
//!   planner would bind it in a fresh stage, and the element totals
//!   agree;
//! * the split arguments' `total_elements · elem_size_bytes` sum to at
//!   most `l2_bytes / 16`, in one batch of the batch heuristic;
//! * neither `Config::batch_override` nor `Config::fault_plan` is set.
//!
//! A failure poisons the context as a failed stage does; an attached
//! cancel token is polled first, as at a batch boundary.
//!
//! Such a call should cost what the library call costs, so the runtime
//! decides once and splits once, reads each argument once, and takes one
//! lock, the context's:
//!
//! * [`MozartContext::call`] borrows its arguments ([`Arg`]) and wraps
//!   one as an owned [`DataValue`] only where it keeps it.
//! * How a call takes each argument — the split types, element total
//!   and bytes the checks above derive, which arguments share a piece,
//!   the return's split type — is decided by a thread's first call of
//!   each shape and kept by that thread, for every context, and read
//!   under no lock: a decision is a function of the shape and of the
//!   registry generation, which every use checks. The shape is each
//!   argument's kind with its length (arrays), the value of each scalar
//!   that is split or read by a split type's constructor, and which
//!   arguments share storage; a scalar taken whole that no constructor
//!   reads, such as a per-call factor, is wrapped afresh on every call
//!   and does not split the memo. What can change between calls is
//!   checked on every call: pending and deferred work, protect flags,
//!   the config, and whether a default split type the decision looked
//!   up has been replaced. A call with an argument of another
//!   kind decides afresh. A first call makes the decision and then runs
//!   the same code as every later one.
//! * A split type that declares
//!   [`Splitter::whole_piece_stable`](crate::split::Splitter::whole_piece_stable)
//!   is split once per storage: the context keeps the whole piece,
//!   which holds the storage alive so that its address cannot name
//!   another (or, if the piece does not name the storage, a handle to
//!   the argument does), until its next evaluation (a bounded number of
//!   pieces; a full memo is emptied). Any other split type is split on
//!   every call. A buffer or scalar the caller passed as itself is
//!   wrapped in a handle the context rewrites in place for the next
//!   call while nothing else holds it, so a kept piece is a call's only
//!   allocation.
//! * The function borrows its pieces ([`Invocation`](crate::Invocation)):
//!   the caller's handles, the decision's and the kept ones are lent to
//!   it, not cloned.
//!
//! ## Timing
//!
//! A call at the floor counts its time from its decision on as task
//! time, as a stage counts its task phase; under tracing it is one
//! `Task` span. Two readings of the clock (the time-stamp counter on
//! x86-64) cost a fifth of a small call, so not every call reads it:
//! one in 16 calls of a shape on a thread is timed, and every traced
//! call, and each of the others counts the time its shape's last timed
//! call took, which differs from its own only as much as two calls over
//! the same lengths differ. The first call at the floor the context's
//! statistics count, and a call that makes its decision, also read the
//! clock on entry to the decision: that much is planner time (see
//! [`PhaseStats::planner`]), and such a call is timed. A captured call
//! counts as client time from when the floor declined it.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

use parking_lot::Mutex;

use crate::annotation::Annotation;
use crate::buffer::EvalTrigger;
use crate::config::Config;
use crate::cputime::{thread_cpu_now, Stamp};
use crate::error::{Error, Result};
use crate::executor::{duration_ns, execute_stage, replay_lineage, ExecEnv};
use crate::floor::Floor;
use crate::graph::{
    DataflowGraph, FutureToken, MergeOrigin, NodeId, ValueEntry, ValueId, ValueOrigin,
};
use crate::planner::{plan_next_stage, Demand, OutputKind, PlanCache, PlanSite, StagePlan};
use crate::pool::{PoolHandle, WorkerPool};
use crate::stats::{PhaseStats, PoolStats};
use crate::trace::{SpanKind, SpanRecord, TraceCtx, TraceId, SERVICE_WORKER};
use crate::value::{Arg, DataObject, DataValue};

static CTX_COUNTER: AtomicU64 = AtomicU64::new(1);

struct State {
    graph: DataflowGraph,
    config: Config,
    stats: PhaseStats,
    /// The context's own worker pool, created lazily on first evaluation
    /// and kept across stages (and evaluations) so stage execution never
    /// spawns threads. Rebuilt only if `config.workers` changes. Unused
    /// (and never created) while a shared pool is attached.
    pool: Option<PoolHandle>,
    /// A shared pool attached with [`MozartContext::attach_pool`]; takes
    /// precedence over the context-owned pool.
    attached_pool: Option<PoolHandle>,
    /// A shared plan cache attached with
    /// [`MozartContext::attach_plan_cache`].
    plan_cache: Option<Arc<PlanCache>>,
    /// Cooperative cancellation token
    /// ([`MozartContext::set_cancel_token`]): workers poll it at batch
    /// boundaries and abandon the evaluation with [`Error::Cancelled`].
    cancel: Option<Arc<crate::faultinject::CancelToken>>,
    /// Active trace id when `config.tracing` is set: installed by a
    /// serving layer ([`MozartContext::set_trace_id`]) or minted on the
    /// first evaluation; 0 = untraced.
    trace_id: TraceId,
    /// Values whose storage is protected pending evaluation.
    protected: Vec<DataValue>,
    /// First evaluation error, if any, reported to later accessors.
    poisoned: Option<Error>,
    /// The kept pieces and buffers of calls run at registration.
    floor: Floor,
    /// The arguments of the call being captured, empty between calls.
    owned: Vec<DataValue>,
}

/// Shared interior of a context.
pub struct ContextInner {
    id: u64,
    state: Mutex<State>,
}

impl Drop for ContextInner {
    /// The last handle to the context is gone: park the placement
    /// targets its graph still holds before they are freed with it.
    fn drop(&mut self) {
        let State {
            graph, plan_cache, ..
        } = self.state.get_mut();
        if let Some(cache) = plan_cache {
            for (origin, target) in graph.take_merge_targets() {
                cache.park(origin, target);
            }
        }
    }
}

impl EvalTrigger for ContextInner {
    fn force(&self) {
        // Errors surface on explicit `Future::get` / `evaluate` calls;
        // a protected read cannot return them, so they poison the state.
        let mut st = self.state.lock();
        let _ = evaluate_locked(&mut st, Demand::Nothing);
    }
}

/// A handle to the Mozart runtime: captures calls, owns the dataflow
/// graph, and evaluates it on demand.
///
/// Cloning is cheap and clones share all state.
#[derive(Clone)]
pub struct MozartContext {
    inner: Arc<ContextInner>,
}

impl Default for MozartContext {
    fn default() -> Self {
        Self::new(Config::default())
    }
}

impl MozartContext {
    /// Create a context with the given configuration. An invalid config
    /// (see [`Config::validate`]) poisons the context: every `call` and
    /// `evaluate` reports [`Error::InvalidConfig`] instead of silently
    /// mis-scheduling.
    pub fn new(config: Config) -> Self {
        let id = CTX_COUNTER.fetch_add(1, Ordering::Relaxed);
        let poisoned = config.validate().err();
        MozartContext {
            inner: Arc::new(ContextInner {
                id,
                state: Mutex::new(State {
                    graph: DataflowGraph::default(),
                    config,
                    stats: PhaseStats::default(),
                    pool: None,
                    attached_pool: None,
                    plan_cache: None,
                    cancel: None,
                    trace_id: 0,
                    protected: Vec::new(),
                    poisoned,
                    floor: Floor::default(),
                    owned: Vec::new(),
                }),
            }),
        }
    }

    /// Create a context with `workers` threads and defaults otherwise.
    pub fn with_workers(workers: usize) -> Self {
        Self::new(Config::with_workers(workers))
    }

    /// Attach a shared worker pool. Stages of this context then run on
    /// the shared threads (the evaluating thread still participates as
    /// worker 0) instead of a context-owned pool — the serving setup,
    /// where many sessions share one machine-sized pool rather than
    /// oversubscribing the host with a pool per context. The number of
    /// participants per stage is still capped by `config.workers`.
    pub fn attach_pool(&self, pool: PoolHandle) -> &Self {
        let mut st = self.inner.state.lock();
        st.attached_pool = Some(pool);
        st.pool = None;
        self
    }

    /// Attach a shared plan cache (see [`PlanCache`]): each evaluation
    /// still plans its own stages, and its placement-merged outputs
    /// write over the merge targets an earlier evaluation of a segment
    /// with the same fingerprint released.
    pub fn attach_plan_cache(&self, cache: Arc<PlanCache>) -> &Self {
        self.inner.state.lock().plan_cache = Some(cache);
        self
    }

    /// Retired: does nothing. The pool no longer keeps per-session
    /// accounts (a serving layer meters its sessions from each
    /// request's [`PhaseStats`]); the method stays, with its
    /// signature, only until the repository benchmark (`benchmark/`)
    /// stops calling it in its next revision.
    pub fn set_session_tag(&self, _session: u64) -> &Self {
        self
    }

    /// Attach a cooperative cancellation token (see
    /// [`CancelToken`](crate::faultinject::CancelToken)). Every stage
    /// executed after this call polls the token at its batch-claim
    /// boundaries: once the token is cancelled — explicitly or because
    /// its deadline passed — the evaluation stops claiming batches and
    /// fails with [`Error::Cancelled`] (poisoning this context like any
    /// other execution failure). Serving layers attach a
    /// deadline-carrying token per request so shed requests stop
    /// burning pool time mid-evaluation.
    pub fn set_cancel_token(&self, token: Arc<crate::faultinject::CancelToken>) -> &Self {
        self.inner.state.lock().cancel = Some(token);
        self
    }

    /// Install the trace id evaluations of this context record spans
    /// under (see [`Config::tracing`](crate::Config) and
    /// [`crate::trace`]). Serving layers mint one id per request and
    /// install it on the request's context so executor spans join the
    /// request's serve-side spans in one tree. Without an explicit id,
    /// a traced context mints its own on first evaluation.
    pub fn set_trace_id(&self, id: TraceId) -> &Self {
        self.inner.state.lock().trace_id = id;
        self
    }

    /// The trace id this context records under, if tracing is active
    /// (an id was installed or minted).
    pub fn trace_id(&self) -> Option<TraceId> {
        let id = self.inner.state.lock().trace_id;
        (id != 0).then_some(id)
    }

    /// Unique id of this context (used to tag lazy values).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Replace the configuration. Affects stages planned after the call.
    /// An invalid config (see [`Config::validate`]) poisons the context;
    /// attaching a valid config afterwards clears that poison (nothing
    /// was scheduled under the rejected config, so unlike an execution
    /// failure there is no corrupted state to protect).
    pub fn set_config(&self, config: Config) {
        let mut st = self.inner.state.lock();
        match config.validate() {
            Err(e) => {
                if st.poisoned.is_none() {
                    st.poisoned = Some(e);
                }
            }
            Ok(()) => {
                if matches!(st.poisoned, Some(Error::InvalidConfig(_))) {
                    st.poisoned = None;
                }
            }
        }
        st.config = config;
    }

    /// Read a copy of the current configuration.
    pub fn config(&self) -> Config {
        self.inner.state.lock().config.clone()
    }

    /// Register a call to an annotated function (the paper's
    /// `register`). Returns a lazy handle to the return value if the
    /// annotation declares one.
    ///
    /// The arguments are borrowed, in annotation order:
    ///
    /// ```text
    /// ctx.call(&VD_ADD, &[Arg::Int(n), Arg::Vec(&a), Arg::Vec(&b), Arg::Vec(&out)])
    /// ```
    ///
    /// A call below the work floor (module docs) runs before this
    /// returns and keeps no argument beyond its kept pieces; any other
    /// call is captured as a graph node, which holds each argument as an
    /// owned [`DataValue`].
    pub fn call(&self, annot: &Arc<Annotation>, args: &[Arg<'_>]) -> Result<Option<FutureHandle>> {
        let mut st = self.inner.state.lock();
        if let Some(e) = &st.poisoned {
            return Err(e.clone());
        }
        if args.len() != annot.args.len() {
            return Err(Error::ArgCount {
                function: annot.name,
                expected: annot.args.len(),
                actual: args.len(),
            });
        }
        // Layer-1 static check (§3 typing rules), run once when the
        // annotation was built: reject unsound annotations at
        // registration instead of failing deep in the executor. The call
        // is refused but the context stays usable — nothing has been
        // scheduled yet.
        if let Some(err) = &annot.unsound {
            return Err(Error::Verify(err.clone()));
        }

        // A lazy argument must be a value of this context that is ready
        // or that an evaluation can still produce: one whose `Future` was
        // dropped after it was released is refused here, not left to
        // fail the next evaluation.
        let mut ready = true;
        for arg in args {
            let (ctx_id, value) = match *arg {
                Arg::Future(f) => (f.ctx.id(), f.value),
                Arg::Value(&DataValue::Lazy { ctx_id, value }) => (ctx_id, value),
                _ => continue,
            };
            if ctx_id != self.inner.id {
                return Err(Error::ForeignValue);
            }
            ready &= st.graph.lazy_arg(value)?.is_some();
        }
        if ready {
            // `None`: above the floor, or a split returned `NULL` and
            // nothing ran — either way the call is captured.
            if let Some(ran) = self.run_at_floor(&mut st, annot, args) {
                return ran;
            }
        }
        let t0 = Stamp::now();

        // The node's ids go straight into the graph's arena: arguments
        // first — resolved before any mut-version exists, so an in-place
        // call (out == a) reads the pre-mutation version — then the new
        // version of each `mut` argument.
        let mut owned = std::mem::take(&mut st.owned);
        owned.extend(args.iter().map(Arg::to_value));
        let ids = st.graph.node_ids.len();
        for dv in &owned {
            let vid = match dv {
                DataValue::Lazy { value, .. } => *value,
                _ => st.graph.resolve_arg(dv),
            };
            st.graph.node_ids.push(vid);
        }

        // Create mut-versions and protect the mutated storage.
        let node_id = NodeId(st.graph.nodes.len() as u32);
        for (i, spec) in annot.args.iter().enumerate() {
            if !spec.mutable {
                continue;
            }
            let dv = &owned[i];
            let prev = st.graph.node_ids[ids + i];
            let mv = st.graph.push_value(ValueEntry {
                origin: ValueOrigin::MutVersion {
                    node: node_id,
                    arg: i,
                    prev,
                },
                data: Some(dv.clone()),
                ready: false,
                lineage: false,
                recomputable: false,
                merge_origin: None,
                last_consumer: None,
                user_token: None,
            });
            st.graph.node_ids.push(mv);
            if let Some(ident) = dv.identity() {
                st.graph.identity_map.insert(ident, mv);
            }
            // Storage this context already protects stays protected until
            // its next evaluation, which runs this call too: one
            // protection and one `protected` entry cover every pending
            // call. Storage another context protects is taken over, so
            // a read forces the context with the latest pending write.
            if let Some(flag) = dv.protect_flag() {
                if !flag.protected_by(Arc::as_ptr(&self.inner).cast()) {
                    let trigger: Weak<ContextInner> = Arc::downgrade(&self.inner);
                    flag.protect(trigger);
                    st.protected.push(dv.clone());
                }
            }
        }
        owned.clear();
        st.owned = owned;

        // Create the return value and its liveness token.
        let origin = ValueOrigin::Ret(node_id);
        let future = annot
            .ret
            .as_ref()
            .map(|_| self.future(&mut st, origin, None));
        let ret = future.as_ref().map(|f| f.value);
        st.graph.push_captured(annot.clone(), ids as u32, ret);
        st.stats.client += t0.until(Stamp::now());
        Ok(future)
    }

    /// Run a call below the work floor at registration (module docs),
    /// failing the context as a failed stage would. `None` when the call
    /// is above the floor, or a split returned `NULL` and nothing ran:
    /// the caller captures the call instead.
    fn run_at_floor(
        &self,
        st: &mut State,
        annot: &Annotation,
        args: &[Arg<'_>],
    ) -> Option<Result<Option<FutureHandle>>> {
        let mut ret = None;
        let (graph, config, cancel) = (&st.graph, &st.config, st.cancel.as_deref());
        let task = match st
            .floor
            .run(graph, config, &mut st.stats, annot, args, cancel, &mut ret)
        {
            Ok(Some(task)) => task,
            Ok(None) => return None,
            Err(e) => return Some(Err(poison(st, *e))),
        };
        // One task span for a traced call, which is timed, ending now on
        // the recorder's clock. Its CPU time is taken as its wall time:
        // the call runs on this thread without blocking, and two reads of
        // the thread CPU clock would cost as much as a small call.
        if let Some(recorder) = &st.config.tracing {
            if st.trace_id == 0 {
                st.trace_id = recorder.mint();
            }
            let wall = duration_ns(task);
            recorder.record(SpanRecord {
                seq: 0,
                trace: st.trace_id,
                kind: SpanKind::Task,
                worker: 0,
                arg: 0,
                link: 0,
                start_ns: recorder.now_ns().saturating_sub(wall),
                wall_ns: wall,
                cpu_ns: wall,
            });
        }
        let future = ret.map(|merged| self.future(st, ValueOrigin::Source, Some(merged)));
        Some(Ok(future))
    }

    /// A new value of the graph and the `Future` that keeps it live:
    /// ready with `data` if it was made already.
    fn future(&self, st: &mut State, origin: ValueOrigin, data: Option<DataValue>) -> FutureHandle {
        let token = Arc::new(FutureToken);
        let value = st.graph.push_value(ValueEntry {
            origin,
            ready: data.is_some(),
            data,
            lineage: false,
            recomputable: false,
            merge_origin: None,
            last_consumer: None,
            user_token: Some(Arc::downgrade(&token)),
        });
        FutureHandle {
            ctx: self.clone(),
            value,
            _token: token,
        }
    }

    /// Evaluate all pending calls (the paper's `evaluate()`) and make
    /// every value the application holds a `Future` for whole —
    /// including values an earlier, narrower read left held.
    pub fn evaluate(&self) -> Result<()> {
        let mut st = self.inner.state.lock();
        evaluate_locked(&mut st, Demand::AllLive)?;
        flush_deferred(&mut st)
    }

    /// Data of a graph value, if it has been produced.
    pub fn value_data(&self, id: ValueId) -> Option<DataValue> {
        self.inner.state.lock().graph.value_data(id).cloned()
    }

    /// Force evaluation, demanding only this value, and fetch its data.
    pub fn force_value(&self, id: ValueId) -> Result<DataValue> {
        let mut st = self.inner.state.lock();
        if st.graph.value_data(id).is_none() {
            evaluate_locked(&mut st, Demand::Value(id))?;
            // Still held: an output an earlier read left as lineage.
            // Make it now; on failure it stays held, so the read can be
            // retried.
            materialize(&mut st, id)?;
        }
        st.graph
            .value_data(id)
            .cloned()
            .ok_or(Error::ValueUnavailable)
    }

    /// Cumulative phase statistics.
    pub fn stats(&self) -> PhaseStats {
        self.inner.state.lock().stats
    }

    /// Counters of the worker pool this context evaluates on — the
    /// attached shared pool if one is set (counters then aggregate over
    /// every context sharing it), otherwise the context-owned pool
    /// (empty until the first multi-worker stage runs; counters reset if
    /// the pool is rebuilt after a `set_config` call that changes the
    /// worker count).
    pub fn pool_stats(&self) -> PoolStats {
        let st = self.inner.state.lock();
        st.attached_pool
            .as_ref()
            .or(st.pool.as_ref())
            .map(|p| WorkerPool::stats(p))
            .unwrap_or_default()
    }

    /// Take and reset the phase statistics.
    pub fn take_stats(&self) -> PhaseStats {
        std::mem::take(&mut self.inner.state.lock().stats)
    }

    /// Number of pending (captured but unexecuted) calls.
    pub fn pending_calls(&self) -> usize {
        self.inner.state.lock().graph.pending_nodes()
    }
}

/// The span recorder + trace id evaluations of `st` record under:
/// minted on first use (serving layers install theirs up front via
/// `set_trace_id`). `None` when tracing is off — the only cost then is
/// this branch and an `Option` check per span site.
fn trace_ctx(st: &mut State) -> Option<TraceCtx> {
    let recorder = st.config.tracing.clone()?;
    if st.trace_id == 0 {
        st.trace_id = recorder.mint();
    }
    Some(TraceCtx {
        recorder,
        trace: st.trace_id,
    })
}

impl State {
    /// Split borrow for one executor call: the graph and stats it
    /// mutates, and the read-only environment it runs in. `site` is
    /// where the stage sits in its plan-cache entry, if it has one.
    fn exec_parts<'a>(
        &'a mut self,
        trace: Option<&'a TraceCtx>,
        site: Option<PlanSite>,
    ) -> (&'a mut DataflowGraph, &'a mut PhaseStats, ExecEnv<'a>) {
        let env = ExecEnv {
            config: &self.config,
            pool: self
                .attached_pool
                .as_ref()
                .or(self.pool.as_ref())
                .map(|h| &**h),
            cancel: self.cancel.as_ref(),
            trace,
            spares: self.plan_cache.as_deref().zip(site),
        };
        (&mut self.graph, &mut self.stats, env)
    }

    /// Release value `id` (see [`DataflowGraph::release`]), parking the
    /// placement targets it lets go of in the attached plan cache.
    fn release(&mut self, id: ValueId) {
        let State {
            graph, plan_cache, ..
        } = self;
        graph.release(id, parker(plan_cache));
    }
}

/// Where a released placement target goes: the attached plan cache.
fn parker(cache: &Option<Arc<PlanCache>>) -> impl FnMut(MergeOrigin, DataValue) + '_ {
    move |origin, target| {
        if let Some(cache) = cache {
            cache.park(origin, target);
        }
    }
}

/// Make value `id` whole if it is held as lineage, by replaying it. A
/// failure puts the replay's values back as they were and does not
/// poison the context: no half-updated state is left.
fn materialize(st: &mut State, id: ValueId) -> Result<()> {
    let trace = trace_ctx(st);
    let cache = st.plan_cache.clone();
    let mut park = parker(&cache);
    let (graph, stats, env) = st.exec_parts(trace.as_ref(), None);
    replay_lineage(graph, id, stats, &env, &mut park)
}

/// Make every still-held output somebody can still reach (a live
/// `Future`, a pending call) and drop the lineage of the rest. Runs for
/// an explicit `evaluate()` and before any stage that mutates storage
/// in place: a replay must read its inputs as they were recorded.
fn flush_deferred(st: &mut State) -> Result<()> {
    // Popped only once handled, so a failed replay stays listed.
    while let Some(&id) = st.graph.deferred.last() {
        if !st.graph.values[id.0 as usize].observable() {
            st.release(id);
        }
        materialize(st, id)?;
        st.graph.deferred.pop();
    }
    Ok(())
}

fn evaluate_locked(st: &mut State, demand: Demand) -> Result<()> {
    // Pieces kept for calls at the floor hold their storage; an
    // evaluation lets go of them.
    st.floor.forget();
    if let Some(e) = &st.poisoned {
        return Err(e.clone());
    }
    if st.graph.fully_executed() {
        return Ok(());
    }
    let first_node = st.graph.next_unplanned;
    let result = evaluate_pending(st, demand);
    // Whatever this evaluation executed, release what nobody can reach
    // any more (see `DataflowGraph::release_unreachable`).
    let State {
        graph, plan_cache, ..
    } = st;
    graph.release_unreachable(first_node, parker(plan_cache));
    result
}

fn evaluate_pending(st: &mut State, demand: Demand) -> Result<()> {
    let trace = trace_ctx(st);
    let planner_before = st.stats.planner;
    // Planner CPU time, read only for the span.
    let mut planner_cpu = trace.as_ref().map(|_| std::time::Duration::ZERO);
    let eval_start_ns = trace.as_ref().map(|t| t.recorder.now_ns());

    // Unprotect everything first: during execution the runtime itself
    // reads and writes these buffers through the unchecked APIs, and the
    // data will be up to date when evaluation returns.
    let t0 = Instant::now();
    let c0 = trace.as_ref().map(|_| thread_cpu_now());
    for dv in st.protected.drain(..) {
        if let Some(flag) = dv.protect_flag() {
            flag.unprotect();
        }
    }
    st.stats.unprotect += t0.elapsed();
    if let (Some(t), Some(start), Some(c0)) = (&trace, eval_start_ns, c0) {
        let wall = duration_ns(t0.elapsed());
        let cpu = duration_ns(crate::cputime::cpu_elapsed(c0, thread_cpu_now()));
        t.emit(SpanKind::Unprotect, SERVICE_WORKER, 0, 0, start, wall, cpu);
    }

    // Make sure the persistent pool matches the configured parallelism:
    // the calling thread participates in every stage, so the pool holds
    // `workers - 1` threads. An attached shared pool always wins — the
    // whole point of sharing is that this context spawns nothing.
    if st.attached_pool.is_some() {
        st.pool = None;
    } else {
        let want_pool_workers = st.config.workers.max(1) - 1;
        let pool_matches = st
            .pool
            .as_ref()
            .is_some_and(|p| p.pool_workers() == want_pool_workers);
        if !pool_matches {
            st.pool = Some(PoolHandle::new(want_pool_workers));
        }
    }

    // Values an earlier read left held are made whole before a pending
    // call reads them, so every stage input is a whole value.
    let mut i = 0;
    while let Some(&id) = st.graph.deferred.get(i) {
        i += 1;
        let reader = st.graph.values[id.0 as usize].last_consumer;
        if reader.is_some_and(|c| !st.graph.nodes[c.0 as usize].executed) {
            materialize(st, id).map_err(|e| poison(st, e))?;
        }
    }

    // Plan-cache entry: fingerprint the pending segment once per
    // evaluation and fetch or insert its entry, where the stages'
    // placement outputs find the merge targets earlier evaluations of
    // the fingerprint released (see "Merge-target spares" in
    // `crate::planner`). Planning is the same either way.
    let mut fingerprint = None;
    if let Some(cache) = &st.plan_cache {
        let shape = st
            .stats
            .planning(planner_cpu.as_mut(), || st.graph.pending_shape());
        if let Some(mut fp) = shape {
            // The `pipeline` ablation changes stage grouping, and so
            // which stage index an output sits at: its setting is part
            // of the key (one shared cache can serve contexts with both).
            if !st.config.pipeline {
                fp ^= 0x9e37_79b9_7f4a_7c15;
            }
            let kind = if cache.enter(fp) {
                SpanKind::PlanCacheHit
            } else {
                SpanKind::PlanCacheMiss
            };
            // A zero-duration marker span for the lookup's outcome.
            if let Some(t) = &trace {
                t.emit(kind, SERVICE_WORKER, 0, 0, t.recorder.now_ns(), 0, 0);
            }
            fingerprint = Some(fp);
        }
    }

    let mut stage_index = 0;
    while !st.graph.fully_executed() {
        let plan = st.stats.planning(planner_cpu.as_mut(), || {
            plan_next_stage(&st.graph, &st.config, demand)
        });
        let stage = match plan {
            Ok(Some(stage)) => stage,
            Ok(None) => break,
            Err(e) => return Err(poison(st, e)),
        };
        let site = fingerprint.map(|fingerprint| PlanSite {
            fingerprint,
            stage: stage_index,
        });
        stage_index += 1;
        execute_locked(st, &stage, demand, trace.as_ref(), site)?;
    }
    // One accumulated planner span per evaluation (fingerprinting and
    // stage planning), anchored at evaluation start.
    if let (Some(t), Some(start)) = (&trace, eval_start_ns) {
        let wall = duration_ns(st.stats.planner.saturating_sub(planner_before));
        let cpu = duration_ns(planner_cpu.unwrap_or_default());
        t.emit(SpanKind::Planner, SERVICE_WORKER, 0, 0, start, wall, cpu);
    }
    Ok(())
}

/// Record `e` as the context's poison and hand it back.
fn poison(st: &mut State, e: Error) -> Error {
    st.poisoned = Some(e.clone());
    e
}

/// Execute one planned stage against the locked state, poisoning the
/// context on failure. `site` is the stage's position in its plan-cache
/// entry, if there is one.
fn execute_locked(
    st: &mut State,
    stage: &StagePlan,
    demand: Demand,
    trace: Option<&TraceCtx>,
    site: Option<PlanSite>,
) -> Result<()> {
    // Layer-2 static check: prove the plan sound before anything
    // executes. Every stage of an evaluation funnels through here (the
    // stages of lineage replays are verified where they run).
    if let Err(v) = crate::verify::verify_stage(&st.graph, stage, &st.config, demand) {
        return Err(poison(st, Error::Verify(v)));
    }
    st.stats.plans_verified += 1;
    if stage.outputs.iter().any(|o| o.kind == OutputKind::InPlace) {
        flush_deferred(st).map_err(|e| poison(st, e))?;
    }
    let (graph, stats, env) = st.exec_parts(trace, site);
    execute_stage(graph, stage, stats, &env).map_err(|e| poison(st, e))?;
    for &n in &stage.nodes {
        st.graph.nodes[n.0 as usize].executed = true;
    }
    st.graph.next_unplanned += stage.nodes.len();
    Ok(())
}

/// An untyped lazy result handle (the paper's `Future<T>` before
/// typing). Holding it keeps the result observable; dropping every
/// handle lets the runtime discard the value if no later call reads it.
pub struct FutureHandle {
    ctx: MozartContext,
    value: ValueId,
    _token: Arc<FutureToken>,
}

impl Drop for FutureHandle {
    /// Dropping the handle drops what only it could reach: the value's
    /// data or lineage, unless a pending call still reads them (a
    /// placement-merged value's storage is parked in the plan cache).
    /// Best effort — if the context is busy evaluating, the end of that
    /// (or the next) evaluation releases it instead.
    fn drop(&mut self) {
        if let Some(mut st) = self.ctx.inner.state.try_lock() {
            st.release(self.value);
        }
    }
}

impl std::fmt::Debug for FutureHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FutureHandle(ctx={}, v={})", self.ctx.id(), self.value.0)
    }
}

impl FutureHandle {
    /// The lazy value, usable as an argument to further annotated calls
    /// (pipelineable). Keep the handle alive until evaluation if you also
    /// want to read the result yourself.
    pub fn as_value(&self) -> DataValue {
        DataValue::Lazy {
            ctx_id: self.ctx.id(),
            value: self.value,
        }
    }

    /// Force evaluation and return the materialized value.
    pub fn get(&self) -> Result<DataValue> {
        self.ctx.force_value(self.value)
    }

    /// The graph value this future refers to.
    pub fn value_id(&self) -> ValueId {
        self.value
    }

    /// Add a concrete result type.
    pub fn typed<T: DataObject + Clone>(self) -> Future<T> {
        Future {
            raw: self,
            _pd: PhantomData,
        }
    }
}

/// A typed lazy result handle.
pub struct Future<T: DataObject + Clone> {
    raw: FutureHandle,
    _pd: PhantomData<fn() -> T>,
}

impl<T: DataObject + Clone> Future<T> {
    /// Force evaluation and return a clone of the result (clones of
    /// library values are cheap `Arc`-backed handles).
    pub fn get(&self) -> Result<T> {
        let dv = self.raw.get()?;
        dv.downcast_ref::<T>().cloned().ok_or(Error::ArgType {
            function: "Future::get",
            arg: 0,
            expected: std::any::type_name::<T>(),
            actual: dv.type_name(),
        })
    }

    /// The lazy value, usable as an argument to further annotated calls.
    pub fn as_value(&self) -> DataValue {
        self.raw.as_value()
    }

    /// The untyped handle.
    pub fn raw(&self) -> &FutureHandle {
        &self.raw
    }
}
