//! The parallel, pipelined execution engine (§5.2).
//!
//! Each stage is executed by (1) discovering runtime parameters via the
//! splitting API's `Info` function and choosing a cache-sized batch,
//! (2) running the *driver loop* — split every input for a batch, call
//! every function in the stage on the pieces, stash result pieces — on
//! the participants of the context's persistent [worker
//! pool](crate::pool), and (3) merging partial results per worker and
//! then once more on the calling thread.
//!
//! Two properties distinguish this engine from a naive per-stage
//! fork/join:
//!
//! * **Workers are persistent and scheduling is dynamic.** Threads are
//!   created once per context and park between stages; batches are
//!   claimed from a shared atomic cursor rather than pre-partitioned
//!   into static ranges, so a worker that draws an expensive batch
//!   (skewed split or data-dependent task cost) never idles the rest of
//!   the pool. The calling thread participates as worker 0, which keeps
//!   single-batch stages handoff-free.
//! * **The driver loop is hash-free.** The planner assigns every
//!   stage-local value a dense `u32` slot at plan time
//!   ([`StagePlan::slots`]); arguments, returns, and mut-aliases are
//!   resolved to slot offsets once per stage in `build_exec_stage`
//!   (into two flat arrays for the whole stage, not a `Vec` per node),
//!   and the per-batch loop indexes a flat `Vec<Option<DataValue>>`,
//!   gathering each call's arguments into one buffer per worker.
//!   Broadcast (`_`-typed) values are written once per worker, not once
//!   per batch, and phases are timed with one CPU-clock reading per
//!   phase boundary (`cputime::PhaseClock`).
//!
//! Because batches may complete out of claim order, every stashed piece
//! carries the element range that produced it. Workers pre-merge
//! contiguous runs (or everything, for
//! [commutative](crate::split::MergeStrategy::Commutative) merges such
//! as reductions), and the final merge orders runs by element offset, so
//! split types still observe pieces in element order (§3.4).
//!
//! # Placement merges
//!
//! Concat-shaped outputs additionally support a *placement* fast path
//! (`Config::placement_merge`, on by default): when a split type's
//! [`merge_strategy`](crate::split::Splitter::merge_strategy) is
//! [`MergeStrategy::Concat`](crate::split::MergeStrategy::Concat) with a
//! [`Placement`] capability, the merged value
//! is preallocated once — on the first result piece any worker
//! produces, so data-dependent layouts (DataFrame schemas, column
//! dtypes) size correctly — and every worker then
//! [`write_piece`](crate::split::Placement::write_piece)s its results
//! directly at their element offsets inside the driver loop. The
//! worker-local pre-merge and the serial O(total) final concat both
//! disappear: merging becomes parallel in-place writes, exactly like
//! the mut-argument `SliceView` path that MKL-style outputs already
//! take. Out-of-claim-order batches are harmless (offsets are absolute),
//! and a `NULL`-split tail shrinks the output to the written prefix via
//! [`truncate_merged`](crate::split::Placement::truncate_merged).
//!
//! Under an attached plan cache the preallocation itself is skipped
//! where it can be: both allocation points first take the *spare* an
//! earlier evaluation of the same cached plan parked for this stage
//! output and offer it to [`Placement::reuse`], which hands it back
//! only if nobody else holds its storage any more (see "Merge-target
//! spares" in [`crate::planner`]). Every installed target records where
//! it came from ([`MergeOrigin`]) so the context can park it in turn
//! when it lets go of the value.
//!
//! # Held pieces: split-form hand-offs and deferred outputs
//!
//! When the planner marks an output [`OutputKind::SplitForm`] (see the
//! split-form rewrite in [`crate::planner`]) or
//! [`OutputKind::Deferred`] (alive, but the triggering read did not ask
//! for it), the merge is elided entirely: worker batch pieces are
//! collected with their element ranges (never locally merged, placement
//! disabled) and stored on the value entry as a [`SplitForm`] — an
//! ordered, contiguous piece set. A deferred set is merged by
//! `materialize_held` when something does ask for the value: an
//! *identity stage* — no calls, the pieces as its one split input, the
//! value as its one merge output — run through the same driver loop,
//! so it is placement-written in parallel on the pool when the type has
//! the capability and classically merged otherwise, with the
//! cancellation checks, fault points, panic isolation and spans of any
//! other stage. For a hand-off, the
//! *consuming* stage's `build_exec_stage` recognizes the form and
//! serves its batches from [`SplitForm::slice`] instead of calling the
//! split type's `split` on a materialized value: a batch range landing
//! on piece boundaries is a clone of the piece (the common case, since
//! batch sizing is deterministic in the element count and per-element
//! footprint, both preserved by the hand-off), and a misaligned range
//! is re-sliced through the split type's
//! [`Concat`](crate::split::Concat) capability (counted in
//! [`PhaseStats::split_form_reslices`]). Cancellation, fault injection,
//! tracing, and pedantic checks all apply unchanged — the hand-off only
//! replaces where batch pieces come from and where result pieces go.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::Mutex;

use crate::annotation::Invocation;
use crate::config::Config;
use crate::cputime::{cpu_elapsed, thread_cpu_now, PhaseClock};
use crate::error::{Error, Result};
use crate::faultinject::{panic_message, CancelToken, FaultPhase, FaultPlan, WorkerAbort};
use crate::graph::{DataflowGraph, MergeOrigin, ValueId};
use crate::planner::{OutputKind, PlanCache, PlanSite, StagePlan};
use crate::pool::{Job, WorkerPool};
use crate::split::{Params, Placement, SplitForm, SplitInstance};
use crate::stats::PhaseStats;
use crate::trace::{SpanKind, TraceCtx, SERVICE_WORKER};
use crate::value::DataValue;

/// Saturating `Duration -> u64` nanoseconds for span fields.
#[inline]
pub(crate) fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Immutable description of a stage shared across worker threads.
///
/// All values are addressed by dense plan-time slot indices; see the
/// module docs.
pub(crate) struct ExecStage {
    nodes: Vec<ExecNode>,
    /// Every node's argument slots, back to back (see [`ExecNode::args`]).
    arg_slots: Vec<u32>,
    /// Every node's `(arg index, mut-version slot)` pairs, back to back:
    /// after the call, the mut version aliases the argument's piece.
    mut_aliases: Vec<(u32, u32)>,
    inputs: Vec<ExecInput>,
    /// Values passed whole to every batch, written once per worker.
    broadcast: Vec<(u32, DataValue)>,
    /// Outputs whose pieces must be collected and merged.
    merge_outputs: Vec<MergeOutput>,
    /// Slots written by node execution, cleared at the top of every
    /// batch so output-presence checks see only this batch's pieces.
    produced_slots: Vec<u32>,
    num_slots: usize,
    pub(crate) total_elements: u64,
    /// Per-element footprint summed over the split inputs (split info
    /// API); `total_elements · sum_elem_bytes` is the stage's nominal
    /// split cost in bytes, the signal behind per-session byte budgets.
    pub(crate) sum_elem_bytes: u64,
    batch: u64,
    /// Worker count for this stage (callers + pool workers), already
    /// capped by the number of batches.
    pub(crate) participants: usize,
    pedantic: bool,
    /// Index of this stage in the owning evaluation (0-based), the
    /// coordinate fault points address stages by.
    stage_idx: u64,
    /// The config's fault-injection schedule, consulted per batch phase.
    faults: Option<Arc<FaultPlan>>,
    /// Cooperative cancellation: polled at batch boundaries; a
    /// cancelled token abandons the stage with [`Error::Cancelled`].
    cancel: Option<Arc<CancelToken>>,
    /// Span recorder + trace id (see [`crate::trace`]); rides into pool
    /// jobs so worker threads record per-batch phase spans under the
    /// request's trace. `None` when tracing is off, costing one branch
    /// per phase.
    trace: Option<TraceCtx>,
}

impl ExecStage {
    /// A stage over `total_elements` elements in batches of `batch`
    /// with nothing to split, call or merge yet: the sizing and the
    /// environment every stage shares.
    fn sized(total_elements: u64, batch: u64, stage_idx: u64, env: &ExecEnv<'_>) -> ExecStage {
        let config = env.config;
        let num_batches = total_elements.div_ceil(batch.max(1)).max(1);
        ExecStage {
            nodes: Vec::new(),
            arg_slots: Vec::new(),
            mut_aliases: Vec::new(),
            inputs: Vec::new(),
            broadcast: Vec::new(),
            merge_outputs: Vec::new(),
            produced_slots: Vec::new(),
            num_slots: 0,
            total_elements,
            sum_elem_bytes: 0,
            batch,
            participants: config.workers.max(1).min(num_batches as usize),
            pedantic: config.pedantic,
            stage_idx,
            faults: config.fault_plan.clone(),
            cancel: env.cancel.cloned(),
            trace: env.trace.cloned(),
        }
    }

    /// When a traced phase starts on the wall clock; `None` untraced.
    fn span_start(&self) -> Option<u64> {
        self.trace.as_ref().map(|t| t.recorder.now_ns())
    }

    /// Record one phase span that started at `w0` (from
    /// [`span_start`](Self::span_start)) and used `cpu` of this thread.
    fn span(&self, kind: SpanKind, worker: u32, arg: u64, w0: Option<u64>, cpu: Duration) {
        if let (Some(t), Some(w0)) = (&self.trace, w0) {
            let wall = t.recorder.now_ns().saturating_sub(w0);
            t.emit(
                kind,
                worker,
                self.stage_idx,
                arg,
                w0,
                wall,
                duration_ns(cpu),
            );
        }
    }
}

struct ExecInput {
    slot: u32,
    instance: SplitInstance,
    data: InputData,
}

/// The backing storage a split input draws its batch pieces from.
enum InputData {
    /// A materialized value; batches are cut by the split type's
    /// `split` function (the classic path).
    Whole(DataValue),
    /// A split-form hand-off from the producing stage
    /// ([`OutputKind::SplitForm`]): batches are served from the piece
    /// set by [`SplitForm::slice`] — a clone when batch boundaries line
    /// up with piece boundaries (the common case, since batch sizing is
    /// deterministic in the element count and footprint both preserved
    /// by the hand-off), a `Concat`-capability re-slice otherwise.
    Pieces(Arc<SplitForm>),
}

struct ExecNode {
    name: &'static str,
    func: crate::annotation::LibFn,
    /// Range of [`ExecStage::arg_slots`] holding the argument slots, in
    /// annotation order.
    args: std::ops::Range<usize>,
    /// Range of [`ExecStage::mut_aliases`] holding the node's aliases.
    muts: std::ops::Range<usize>,
    ret: Option<u32>,
}

struct MergeOutput {
    slot: u32,
    value: ValueId,
    /// Index among the stage's planned outputs: with the stage's
    /// [`PlanSite`], the key of this output's spare slot.
    output: u32,
    instance: SplitInstance,
    /// Cached: whether the merge strategy is commutative.
    commutative: bool,
    /// Placement-merge capability + probe state; `None` when the config
    /// disables placement or the split type's merge strategy carries no
    /// placement capability (commutative merges never do — partial
    /// results have no meaningful element offsets).
    placement: Option<PlacementMerge>,
    /// [`OutputKind::Merge`], or one of the two kinds whose pieces are
    /// never merged here ([`OutputKind::SplitForm`],
    /// [`OutputKind::Deferred`]): those are collected (each batch piece
    /// its own run, placement disabled) and stored on the value as a
    /// [`SplitForm`].
    kind: OutputKind,
}

impl MergeOutput {
    fn new(
        slot: u32,
        value: ValueId,
        output: u32,
        instance: SplitInstance,
        kind: OutputKind,
        config: &Config,
    ) -> Self {
        let strategy = instance.merge_strategy();
        // The placement capability comes straight from the merge
        // strategy probe (`MergeStrategy::Concat { placement }`).
        // `unknown` outputs (filters, anything whose pieces do not
        // correspond to input elements, §3.2) compact: a piece may
        // hold fewer elements than the batch that produced it, so
        // batch offsets are meaningless there and the merger must
        // concatenate; commutative strategies cannot carry placement
        // by construction. Held outputs never take placement — the
        // whole point is that no merged value is allocated.
        let placement =
            (config.placement_merge && !instance.is_unknown() && kind == OutputKind::Merge)
                .then(|| strategy.placement().cloned())
                .flatten()
                .map(|cap| PlacementMerge {
                    cap,
                    state: PlacementState::new(),
                });
        MergeOutput {
            slot,
            value,
            output,
            commutative: strategy.commutative(),
            placement,
            kind,
            instance,
        }
    }

    /// Whether the pieces are kept as pieces instead of merged.
    fn held(&self) -> bool {
        self.kind != OutputKind::Merge
    }

    /// The placement target this output resolved to, if any.
    fn target(&self) -> Option<&Target> {
        self.placement.as_ref()?.state.out.get()?.as_ref()
    }
}

/// One output's placement merge: the split type's capability object and
/// the resolve-once probe state shared across workers.
struct PlacementMerge {
    cap: Arc<dyn Placement>,
    state: PlacementState,
}

/// Shared state of one output's placement merge, resolved exactly once
/// across all workers.
struct PlacementState {
    /// `Some(target)` once the placement output exists (every piece is
    /// then written in place); `None` once the split type declined
    /// placement for this stage (pieces collect as usual). Resolved at
    /// stage start or on the first piece produced, whichever worker
    /// gets there first.
    out: OnceLock<Option<Target>>,
    /// A spare taken from the plan cache at stage start that has to
    /// wait for the first piece: it was resolved by exemplar when it
    /// was new, so that is the call site that offers it for reuse.
    spare: Mutex<Option<DataValue>>,
    /// Elements written across all pieces.
    written: AtomicU64,
    /// Highest element offset written (exclusive).
    high: AtomicU64,
}

impl PlacementState {
    fn new() -> PlacementState {
        PlacementState {
            out: OnceLock::new(),
            spare: Mutex::new(None),
            written: AtomicU64::new(0),
            high: AtomicU64::new(0),
        }
    }
}

/// A resolved placement output and how it came to be.
struct Target {
    out: DataValue,
    /// Handed back by [`Placement::reuse`], not allocated.
    reused: bool,
    /// Resolved on the first piece rather than at stage start.
    by_exemplar: bool,
}

/// Nominal size in bytes of a materialized merge output, via the split
/// info API (`total_elements · elem_size_bytes`); zero when the info
/// call declines, since byte budgets are a load-shedding signal, not an
/// exact meter.
fn merged_bytes(instance: &SplitInstance, merged: &DataValue) -> u64 {
    if instance.is_unknown() {
        // `unknown` instances carry no params and only delegate their
        // merge; their info contract does not cover merged values.
        return 0;
    }
    instance
        .splitter
        .info(merged, &instance.params)
        .map(|i| i.total_elements.saturating_mul(i.elem_size_bytes))
        .unwrap_or(0)
}

/// Run one phase of the batch pipeline with panic isolation: a panic
/// unwinding out of foreign split/task/merge code is caught at the
/// phase boundary and surfaced as the typed
/// [`Error::TaskPanicked`], attributed to `phase` — the worker thread
/// (and every other job on the pool) survives. The one exception is the
/// fault injector's [`WorkerAbort`] marker, which is deliberately
/// re-raised so chaos tests can exercise the pool's respawn supervisor.
pub(crate) fn catch_phase<T>(phase: FaultPhase, f: impl FnOnce() -> Result<T>) -> Result<T> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            if payload.downcast_ref::<WorkerAbort>().is_some() {
                std::panic::resume_unwind(payload);
            }
            Err(Error::TaskPanicked {
                stage: phase,
                payload: panic_message(payload.as_ref()),
            })
        }
    }
}

/// Consult the stage's fault plan at one (phase, batch) point and
/// trigger whatever it schedules. Called *inside* the phase's
/// [`catch_phase`] wrapper so injected panics take the same typed path
/// organic panics do.
#[inline]
fn inject(exec: &ExecStage, phase: FaultPhase, batch_idx: u64, worker_idx: usize) -> Result<()> {
    if let Some(plan) = &exec.faults {
        if let Some(kind) = plan.check(exec.stage_idx, phase, batch_idx) {
            kind.trigger(phase, exec.stage_idx, batch_idx, worker_idx)?;
        }
    }
    Ok(())
}

/// A merged (or single) piece covering elements `[start, end)`. The
/// classic merge path only orders by `start`; split-form hand-offs also
/// need `end` to rebuild the piece set's element ranges.
pub(crate) struct PieceRun {
    start: u64,
    end: u64,
    piece: DataValue,
}

/// Per-worker result: pre-merged partial runs and phase timings.
#[derive(Default)]
pub(crate) struct WorkerOut {
    /// Per merge output: runs in increasing element order.
    partials: Vec<Vec<PieceRun>>,
    split: Duration,
    task: Duration,
    merge: Duration,
    pub(crate) batches: u64,
    calls: u64,
    /// Result pieces written in place by the placement fast path.
    placement_writes: u64,
    /// Batch ranges served from a split-form input that did not line up
    /// with a hand-off piece boundary and went through a
    /// `Concat`-capability re-slice.
    split_form_reslices: u64,
    /// Cursor claims (each covering a guided span of >= 1 batches).
    pub(crate) claims: u64,
    /// Batches this worker claimed that static partitioning would have
    /// assigned to a different worker.
    pub(crate) stolen: u64,
}

/// The read-only environment a stage runs in, borrowed from the owning
/// context for one executor call.
pub(crate) struct ExecEnv<'a> {
    pub(crate) config: &'a Config,
    pub(crate) pool: Option<&'a WorkerPool>,
    /// Tags pool jobs for per-session fairness accounting when the pool
    /// is shared between contexts (see
    /// [`PoolStats::sessions`](crate::stats::PoolStats)).
    pub(crate) session: u64,
    pub(crate) cancel: Option<&'a Arc<CancelToken>>,
    pub(crate) trace: Option<&'a TraceCtx>,
    /// The attached plan cache and where the stage sits in its plan:
    /// the spare slots its placement outputs take from and are later
    /// parked in. `None` without a cache, for uncacheable segments and
    /// for on-demand merges of held pieces — those allocate as ever.
    pub(crate) spares: Option<(&'a PlanCache, PlanSite)>,
}

/// Execute one stage, materializing its outputs into the graph.
pub(crate) fn execute_stage(
    graph: &mut DataflowGraph,
    stage: &StagePlan,
    stats: &mut PhaseStats,
    env: &ExecEnv<'_>,
) -> Result<()> {
    let exec = build_exec_stage(graph, stage, stats.stages, env)?;
    let total_elements = exec.total_elements;
    let sum_elem_bytes = exec.sum_elem_bytes;
    run_exec(graph, exec, stats, env)?;

    // Materialize in-place and discarded outputs.
    for out in &stage.outputs {
        let entry = &mut graph.values[out.value.0 as usize];
        match out.kind {
            OutputKind::InPlace => entry.ready = true,
            OutputKind::Discard => entry.ready = false,
            // Stored by `run_exec`.
            OutputKind::Merge | OutputKind::SplitForm | OutputKind::Deferred => {}
        }
    }

    for &n in &stage.nodes {
        graph.nodes[n.0 as usize].executed = true;
    }
    graph.next_unplanned += stage.nodes.len();
    stats.stages += 1;
    stats.bytes_split += total_elements.saturating_mul(sum_elem_bytes);
    Ok(())
}

/// Merge the pieces value `id` is held as into the whole value, if it
/// is held — the on-demand half of `OutputKind::Deferred` and the
/// fallback for a hand-off some consumer needs whole. Returns whether a
/// merge ran.
///
/// Runs as an *identity stage* (module docs): the held pieces are the
/// one split input, served at their own boundaries so every batch is a
/// piece clone, and the value is the one merge output.
pub(crate) fn materialize_held(
    graph: &mut DataflowGraph,
    id: ValueId,
    stats: &mut PhaseStats,
    env: &ExecEnv<'_>,
) -> Result<bool> {
    let Some(sf) = graph.held(id).cloned() else {
        return Ok(false);
    };
    let instance = sf.instance().clone();
    let mut exec = ExecStage::sized(sf.total(), sf.piece_len(), stats.stages, env);
    // `sum_elem_bytes` stays 0: nothing is split, the pieces exist.
    exec.num_slots = 1;
    let output = MergeOutput::new(0, id, 0, instance.clone(), OutputKind::Merge, env.config);
    exec.merge_outputs.push(output);
    let data = InputData::Pieces(sf);
    exec.inputs.push(ExecInput {
        slot: 0,
        instance,
        data,
    });
    run_exec(graph, exec, stats, env)?;
    graph.values[id.0 as usize].held = None;
    Ok(true)
}

/// Run a built stage — driver loop on the participants, then the final
/// merge on the calling thread — storing every merge output on its
/// graph value, whole or (for held kinds) as pieces.
fn run_exec(
    graph: &mut DataflowGraph,
    exec: ExecStage,
    stats: &mut PhaseStats,
    env: &ExecEnv<'_>,
) -> Result<()> {
    let stage_idx = exec.stage_idx;
    if env.cancel.is_some_and(|c| c.is_cancelled()) {
        return Err(Error::Cancelled(format!(
            "evaluation abandoned before stage {stage_idx}"
        )));
    }

    // Stage-start placement allocation: split types whose parameters
    // determine the output layout allocate (and pre-fault) the merged
    // value here, on the calling thread while the pool is parked —
    // first-touch page faults taken inside worker merge windows would
    // contend with the parallel phase's own faults. Data-dependent
    // layouts resolve later, on the first piece produced. A spare the
    // plan cache holds for the output is offered for reuse first, at
    // whichever of the two points resolved it when it was new. Counted
    // as merge time: it is the placement path's share of what the
    // collect-then-concat path pays inside its final merge.
    let mut clock = PhaseClock::start();
    for mo in &exec.merge_outputs {
        let Some(pm) = &mo.placement else { continue };
        let (total, params) = (exec.total_elements, &mo.instance.params);
        let spare = env
            .spares
            .and_then(|(cache, site)| cache.take_spare(site, mo.output));
        let spare = match spare {
            Some((origin, target)) if origin.by_exemplar => {
                *pm.state.spare.lock() = Some(target);
                None
            }
            other => other.map(|(_, target)| target),
        };
        if let Some(target) = resolve_target(pm, spare, total, params, None)? {
            let _ = pm.state.out.set(Some(target));
        }
    }
    let prealloc = clock.lap();

    let job;
    let (exec, mut outs) = match env.pool {
        Some(pool) if exec.participants > 1 => {
            job = Job::new(exec, env.session);
            let outs = pool.run_stage(&job, &mut clock)?;
            (&job.exec, outs)
        }
        // A single batch runs inline, with no pool job to hand out.
        // (So would a stage with no pool, which `evaluate_pending`
        // rules out: a context with no attached pool owns one.)
        _ => {
            let (cursor, failed) = (AtomicU64::new(0), AtomicBool::new(false));
            let out = run_worker(&exec, &cursor, &failed, 0, &mut clock)?;
            (&exec, vec![out])
        }
    };

    // Final merge on the calling thread (§5.2 step 3): order every
    // worker's partial runs by element offset, then merge once.
    // Placement outputs skip all of this — their pieces already live in
    // the preallocated value — and held outputs keep the ordered runs.
    let w0 = exec.span_start();
    for (i, mo) in exec.merge_outputs.iter().enumerate() {
        let mut store = |merged: DataValue, target: Option<&Target>, stats: &mut PhaseStats| {
            let bytes = merged_bytes(&mo.instance, &merged);
            stats.bytes_merged += bytes;
            let entry = &mut graph.values[mo.value.0 as usize];
            (entry.data, entry.ready) = (Some(merged), true);
            // A placement target remembers its spare slot, so whoever
            // lets go of the value can park it for the plan's next
            // evaluation.
            entry.merge_origin = env.spares.zip(target).map(|((_, site), t)| MergeOrigin {
                fingerprint: site.fingerprint,
                stage: site.stage,
                output: mo.output,
                by_exemplar: t.by_exemplar,
                bytes,
            });
        };
        if let Some((merged, target)) = finish_placement(mo, exec.total_elements)? {
            if target.reused {
                stats.merge_targets_reused += 1;
            } else {
                stats.merge_targets_allocated += 1;
            }
            store(merged, Some(target), stats);
            continue;
        }
        // Take ownership of the runs out of the worker results instead
        // of cloning every piece into the merge call.
        let mut runs: Vec<PieceRun> = outs
            .iter_mut()
            .flat_map(|o| std::mem::take(&mut o.partials[i]))
            .collect();
        if runs.is_empty() {
            return Err(Error::Merge {
                split_type: mo.instance.splitter.name(),
                message: format!(
                    "stage {stage_idx} produced no pieces for its {} output \
                     (v{}): every batch came back empty",
                    mo.instance.splitter.name(),
                    mo.value.0
                ),
            });
        }
        runs.sort_by_key(|r| r.start);
        if mo.held() {
            hold_pieces(graph, mo, runs, exec, stats)?;
            continue;
        }
        let pieces: Vec<DataValue> = runs.into_iter().map(|r| r.piece).collect();
        // Merge-size hint (ROADMAP): the final merged value covers the
        // stage's whole element range, so concat-style mergers can
        // preallocate once instead of growing per piece.
        let merged = catch_phase(FaultPhase::Merge, || {
            mo.instance
                .splitter
                .merge(pieces, &mo.instance.params, exec.total_elements)
        })?;
        store(merged, None, stats);
    }
    let final_merge = clock.lap();
    // One final-merge span per stage on the calling thread; CPU time
    // also folds in the stage-start placement preallocation, which is
    // the placement path's share of merge work.
    let merge_cpu = final_merge + prealloc;
    exec.span(SpanKind::FinalMerge, SERVICE_WORKER, 0, w0, merge_cpu);

    // Phase accounting: worker-parallel phases report the per-stage max.
    stats.split += outs.iter().map(|o| o.split).max().unwrap_or_default();
    stats.task += outs.iter().map(|o| o.task).max().unwrap_or_default();
    stats.merge += outs.iter().map(|o| o.merge).max().unwrap_or_default() + final_merge + prealloc;
    stats.batches += outs.iter().map(|o| o.batches).sum::<u64>();
    stats.calls += outs.iter().map(|o| o.calls).sum::<u64>();
    stats.placement_writes += outs.iter().map(|o| o.placement_writes).sum::<u64>();
    stats.split_form_reslices += outs.iter().map(|o| o.split_form_reslices).sum::<u64>();
    Ok(())
}

/// Store a held output's ordered runs on its value instead of merging
/// them. `SplitForm::new` validates contiguity, so an interior gap a
/// concat would have silently closed fails loudly here.
fn hold_pieces(
    graph: &mut DataflowGraph,
    mo: &MergeOutput,
    runs: Vec<PieceRun>,
    exec: &ExecStage,
    stats: &mut PhaseStats,
) -> Result<()> {
    let pieces: Vec<(u64, u64, DataValue)> = runs
        .into_iter()
        .map(|r| (r.start, r.end, r.piece))
        .collect();
    let piece_count = pieces.len() as u64;
    // Per-element footprint via the split info API on the first piece
    // (the info contract covers pieces; elem size is range-independent;
    // `unknown` instances have no info contract). Zero when the info
    // call declines — byte-budget degradation, not a correctness issue.
    let elem_size = if mo.instance.is_unknown() {
        0
    } else {
        mo.instance
            .splitter
            .info(&pieces[0].2, &mo.instance.params)
            .map_or(0, |i| i.elem_size_bytes)
    };
    let sf = SplitForm::new(pieces, exec.total_elements, mo.instance.clone(), elem_size)?;
    let entry = &mut graph.values[mo.value.0 as usize];
    entry.held = Some(Arc::new(sf));
    (entry.data, entry.merge_origin) = (None, None);
    entry.ready = false;
    if mo.kind == OutputKind::Deferred {
        stats.deferred_outputs += 1;
        graph.deferred.push(mo.value);
    } else {
        stats.split_form_handoffs += 1;
        if let Some(t) = &exec.trace {
            // Zero-duration marker span: the elided-merge analogue of
            // FinalMerge (arg = stage, link = pieces).
            let (kind, now) = (SpanKind::SplitFormHandoff, t.recorder.now_ns());
            t.emit(kind, SERVICE_WORKER, exec.stage_idx, piece_count, now, 0, 0);
        }
    }
    Ok(())
}

/// Complete a placement merge, if this output resolved to one: the
/// pieces already live in the preallocated value, so the "merge" is a
/// coverage check plus, for `NULL`-split tails, a truncation to the
/// written prefix.
fn finish_placement(mo: &MergeOutput, total_elements: u64) -> Result<Option<(DataValue, &Target)>> {
    // No target: no piece was ever produced (the no-pieces error on
    // the classic path below reports it) or the splitter declined.
    let (Some(pm), Some(target)) = (&mo.placement, mo.target()) else {
        return Ok(None);
    };
    let (ps, out) = (&pm.state, &target.out);
    let written = ps.written.load(Ordering::Relaxed);
    let high = ps.high.load(Ordering::Relaxed);
    if written != high {
        // A batch inside the written range produced no piece: the
        // output has an interior hole, which a concat of collected
        // pieces would have silently closed but an in-place buffer
        // cannot. Fail loudly rather than return stale elements.
        return Err(Error::Merge {
            split_type: mo.instance.splitter.name(),
            message: format!(
                "placement output has interior gaps: {written} of {high} \
                 leading elements written"
            ),
        });
    }
    if high == total_elements {
        return Ok(Some((out.clone(), target)));
    }
    // NULL-split tail: the sources dried up before the declared total.
    pm.cap
        .truncate_merged(out.clone(), high, &mo.instance.params)
        .map(|truncated| Some((truncated, target)))
}

/// Gather materialized data, run `Info`, size batches, and resolve every
/// value reference to its dense slot.
fn build_exec_stage(
    graph: &DataflowGraph,
    stage: &StagePlan,
    stage_idx: u64,
    env: &ExecEnv<'_>,
) -> Result<ExecStage> {
    let config = env.config;
    let mut inputs = Vec::with_capacity(stage.inputs.len());
    let mut total: Option<u64> = None;
    let mut sum_elem_bytes: u64 = 0;

    for (vid, instance) in &stage.inputs {
        // A split-form hand-off serves batches straight from its piece
        // set; its element count and footprint come from the form (the
        // producing stage's info results), never from a split call on
        // the unmaterialized value.
        let (data, input_total, elem_bytes) = if let Some(sf) = graph.split_form(*vid) {
            (
                InputData::Pieces(Arc::clone(sf)),
                sf.total(),
                sf.elem_size_bytes(),
            )
        } else {
            let data = graph
                .value_data(*vid)
                .cloned()
                .ok_or(Error::ValueUnavailable)?;
            let info = instance.splitter.info(&data, &instance.params)?;
            (
                InputData::Whole(data),
                info.total_elements,
                info.elem_size_bytes,
            )
        };
        match total {
            None => total = Some(input_total),
            Some(t) if t == input_total => {}
            Some(t) => {
                return Err(Error::ElementMismatch {
                    expected: t,
                    actual: input_total,
                })
            }
        }
        sum_elem_bytes += elem_bytes;
        inputs.push(ExecInput {
            slot: stage.slot_of(*vid),
            instance: instance.clone(),
            data,
        });
    }

    // A stage with no split inputs (e.g. a call whose arguments are all
    // `_`) executes as a single batch of one element.
    let total_elements = total.unwrap_or(1);
    let batch = config.batch_elements(sum_elem_bytes, total_elements);

    let mut broadcast = Vec::with_capacity(stage.broadcast.len());
    for vid in &stage.broadcast {
        let data = graph
            .value_data(*vid)
            .cloned()
            .ok_or(Error::ValueUnavailable)?;
        broadcast.push((stage.slot_of(*vid), data));
    }

    let nodes_of = || stage.nodes.iter().map(|n| &graph.nodes[n.0 as usize]);
    let arity: usize = nodes_of().map(|node| node.annot.args.len()).sum();
    let mut nodes = Vec::with_capacity(stage.nodes.len());
    let mut arg_slots = Vec::with_capacity(arity);
    let mut mut_aliases = Vec::with_capacity(arity);
    for node in nodes_of() {
        let (args_at, muts_at) = (arg_slots.len(), mut_aliases.len());
        arg_slots.extend(graph.args(node).iter().map(|&a| stage.slot_of(a)));
        mut_aliases.extend(
            graph
                .mut_outs(node)
                .map(|(i, mv)| (i as u32, stage.slot_of(mv))),
        );
        nodes.push(ExecNode {
            name: node.annot.name,
            func: node.annot.func.clone(),
            args: args_at..arg_slots.len(),
            muts: muts_at..mut_aliases.len(),
            ret: node.ret.map(|rv| stage.slot_of(rv)),
        });
    }
    let mut produced_slots: Vec<u32> = mut_aliases
        .iter()
        .map(|&(_, s)| s)
        .chain(nodes.iter().filter_map(|n| n.ret))
        .collect();
    produced_slots.sort_unstable();
    produced_slots.dedup();

    let merge_outputs = stage
        .outputs
        .iter()
        .enumerate()
        .filter(|(_, o)| !matches!(o.kind, OutputKind::InPlace | OutputKind::Discard))
        .map(|(i, o)| {
            MergeOutput::new(
                stage.slot_of(o.value),
                o.value,
                i as u32,
                o.instance.clone(),
                o.kind,
                config,
            )
        })
        .collect();

    Ok(ExecStage {
        nodes,
        arg_slots,
        mut_aliases,
        inputs,
        broadcast,
        merge_outputs,
        produced_slots,
        num_slots: stage.num_slots as usize,
        sum_elem_bytes,
        ..ExecStage::sized(total_elements, batch, stage_idx, env)
    })
}

/// The driver loop (§5.2 step 2) for one participant.
///
/// Claims batches from the shared `cursor` until the elements are
/// exhausted, a split returns `NULL`, or another participant fails.
/// Phases are timed on `clock`: the first split phase starts at its
/// last reading, and it is left at the end of the worker-local merge.
pub(crate) fn run_worker(
    exec: &ExecStage,
    cursor: &AtomicU64,
    failed: &AtomicBool,
    worker_idx: usize,
    clock: &mut PhaseClock,
) -> Result<WorkerOut> {
    let mut out = WorkerOut::default();
    let worker = worker_idx as u32;
    // Raw pieces per merge output, tagged `(start, end, piece)`. Claims
    // from the shared cursor are monotonic, so these stay sorted.
    let mut pending: Vec<Vec<(u64, u64, DataValue)>> = vec![Vec::new(); exec.merge_outputs.len()];
    let mut slots: Vec<Option<DataValue>> = vec![None; exec.num_slots];
    for (slot, data) in &exec.broadcast {
        slots[*slot as usize] = Some(data.clone());
    }
    // One argument buffer for every call this worker makes.
    let max_args = exec.nodes.iter().map(|n| n.args.len()).max();
    let mut args: Vec<DataValue> = Vec::with_capacity(max_args.unwrap_or(0));
    // The range a static partitioner would have given this worker, for
    // the steal counter.
    let static_share = exec
        .total_elements
        .div_ceil(exec.participants.max(1) as u64)
        .max(1);

    'driver: loop {
        if failed.load(Ordering::Relaxed) {
            break;
        }
        // Guided claim spans (ROADMAP): while many batches remain, claim
        // `remaining / (2 · participants)` batches per `fetch_add` so the
        // cursor cache line is touched O(workers · log batches) times
        // instead of once per batch; the halving keeps the tail fine-
        // grained for load balance. The estimate reads a possibly stale
        // cursor, which only affects span length, never claim ownership.
        let batch = exec.batch.max(1);
        let span_batches = {
            let pos = cursor.load(Ordering::Relaxed);
            if pos >= exec.total_elements {
                break;
            }
            let remaining = (exec.total_elements - pos).div_ceil(batch);
            (remaining / (2 * exec.participants.max(1) as u64)).max(1)
        };
        let start = cursor.fetch_add(span_batches * batch, Ordering::Relaxed);
        if start >= exec.total_elements {
            break;
        }
        let claim_end = (start + span_batches * batch).min(exec.total_elements);
        out.claims += 1;
        let mut start = start;
        while start < claim_end {
            if failed.load(Ordering::Relaxed) {
                break 'driver;
            }
            // Cooperative cancellation, polled per batch: a request
            // whose deadline passed stops burning pool time here, at
            // the claim boundary — a batch that already started always
            // runs to completion (library calls are never interrupted).
            if let Some(c) = &exec.cancel {
                if c.is_cancelled() {
                    failed.store(true, Ordering::Relaxed);
                    return Err(Error::Cancelled(format!(
                        "deadline passed or token cancelled at stage {} \
                         batch boundary",
                        exec.stage_idx
                    )));
                }
            }
            let end = (start + batch).min(claim_end);
            let batch_idx = start / batch;

            // Split every input for this batch. Worker-parallel
            // phases are timed on the per-thread CPU clock (see
            // `crate::cputime`): wall windows on an oversubscribed
            // host charge a phase for every preemption that lands in
            // it, which systematically misattributes scheduler noise
            // to whichever phase has the most windows.
            //
            // Each phase body runs under `catch_phase`: a panic in
            // foreign split/task/merge code fails this job with the
            // typed `Error::TaskPanicked` and the thread survives.
            let w0 = exec.span_start();
            for &s in &exec.produced_slots {
                slots[s as usize] = None;
            }
            let null_split = catch_phase(FaultPhase::Split, || {
                inject(exec, FaultPhase::Split, batch_idx, worker_idx)?;
                let mut produced = 0usize;
                for input in &exec.inputs {
                    // Split-form inputs never see a `split` call — their
                    // batches come straight from the hand-off piece set
                    // (a clone when the range lands on piece boundaries,
                    // a `Concat` re-slice otherwise).
                    let piece = match &input.data {
                        InputData::Whole(data) => input.instance.splitter.split(
                            data,
                            start..end,
                            &input.instance.params,
                        )?,
                        InputData::Pieces(sf) => sf.slice(start..end)?.map(|(piece, resliced)| {
                            if resliced {
                                out.split_form_reslices += 1;
                            }
                            piece
                        }),
                    };
                    match piece {
                        Some(piece) => {
                            slots[input.slot as usize] = Some(piece);
                            produced += 1;
                        }
                        None => {
                            if exec.pedantic && produced > 0 {
                                return Err(Error::Pedantic(format!(
                                    "split type {} returned NULL for elements [{start}, {end}) \
                                 while other inputs produced pieces",
                                    input.instance.splitter.name()
                                )));
                            }
                            // The paper's NULL return: no data here,
                            // stop claiming.
                            return Ok(true);
                        }
                    }
                }
                Ok(false)
            });
            let split_cpu = clock.lap();
            out.split += split_cpu;
            exec.span(SpanKind::Split, worker, batch_idx, w0, split_cpu);
            if null_split? {
                break 'driver;
            }

            // Run the pipeline on this batch's pieces.
            let w1 = exec.span_start();
            let task_result = catch_phase(FaultPhase::Task, || {
                inject(exec, FaultPhase::Task, batch_idx, worker_idx)?;
                for node in &exec.nodes {
                    args.clear();
                    for &slot in &exec.arg_slots[node.args.clone()] {
                        match &slots[slot as usize] {
                            Some(piece) => args.push(piece.clone()),
                            None => return Err(Error::ValueUnavailable),
                        }
                    }
                    let inv = Invocation {
                        function: node.name,
                        args: &args,
                    };
                    let ret = (node.func)(&inv)?;
                    for &(arg_idx, mv_slot) in &exec.mut_aliases[node.muts.clone()] {
                        slots[mv_slot as usize] = Some(args[arg_idx as usize].clone());
                    }
                    match (ret, node.ret) {
                        (Some(piece), Some(rv_slot)) => {
                            slots[rv_slot as usize] = Some(piece);
                        }
                        (None, None) => {}
                        (None, Some(_)) => {
                            return Err(Error::Library(format!(
                                "{} is annotated with a return split type but returned nothing",
                                node.name
                            )))
                        }
                        (Some(_), None) => {
                            return Err(Error::Library(format!(
                                "{} returned a value but its annotation declares none",
                                node.name
                            )))
                        }
                    }
                    out.calls += 1;
                }
                args.clear();
                Ok(())
            });
            let task_cpu = clock.lap();
            out.task += task_cpu;
            exec.span(SpanKind::Task, worker, batch_idx, w1, task_cpu);
            task_result?;

            // Stash pieces of observable outputs ("moved to a list of
            // partial results", §5.2), tagged with their element range —
            // or, on the placement path, write them straight into the
            // preallocated merge output at their element offset. The
            // whole phase is merge time.
            let stashed = catch_phase(FaultPhase::Merge, || {
                inject(exec, FaultPhase::Merge, batch_idx, worker_idx)?;
                for (i, mo) in exec.merge_outputs.iter().enumerate() {
                    match &slots[mo.slot as usize] {
                        Some(piece) => {
                            if let Some(pm) = &mo.placement {
                                let w2 = exec.span_start();
                                // Per-write CPU time only feeds the span.
                                let c2 = w2.map(|_| thread_cpu_now());
                                let mut alloc_err: Option<Error> = None;
                                // Resolve the placement decision exactly
                                // once, on the first piece any worker
                                // produces — it serves as the exemplar for
                                // data-dependent output layouts.
                                let placed = pm.state.out.get_or_init(|| {
                                    let spare = pm.state.spare.lock().take();
                                    let (total, params) =
                                        (exec.total_elements, &mo.instance.params);
                                    resolve_target(pm, spare, total, params, Some(piece))
                                        .unwrap_or_else(|e| {
                                            alloc_err = Some(e);
                                            None
                                        })
                                });
                                if let Some(e) = alloc_err {
                                    return Err(e);
                                }
                                if let Some(Target { out: out_val, .. }) = placed {
                                    // Coverage tracks the piece's actual
                                    // element count, not the batch range:
                                    // a source that dries up mid-batch
                                    // writes fewer elements, and the
                                    // truncation below must not include
                                    // the unwritten remainder.
                                    let n = pm.cap.write_piece(out_val, start, piece)?;
                                    pm.state.written.fetch_add(n, Ordering::Relaxed);
                                    pm.state.high.fetch_max(start + n, Ordering::Relaxed);
                                    out.placement_writes += 1;
                                    if let Some(c2) = c2 {
                                        let cpu = cpu_elapsed(c2, thread_cpu_now());
                                        let kind = SpanKind::PlacementWrite;
                                        exec.span(kind, worker, batch_idx, w2, cpu);
                                    }
                                    continue;
                                }
                            }
                            pending[i].push((start, end, piece.clone()));
                        }
                        None if exec.pedantic => {
                            return Err(Error::Pedantic(format!(
                                "output of split type {} missing after batch [{start}, {end})",
                                mo.instance.splitter.name()
                            )))
                        }
                        None => {}
                    }
                }
                Ok(())
            });
            out.merge += clock.lap();
            stashed?;

            if start / static_share != worker_idx as u64 {
                out.stolen += 1;
            }
            out.batches += 1;
            start = end;
        }
    }

    // Worker-local merge (§5.2 step 3, first level). Commutative merges
    // fold everything this worker produced into one partial; order-
    // sensitive merges fold each contiguous run so the final merge can
    // order them globally. The last batch's pieces are freed first,
    // inside this phase, rather than by whichever phase reads this
    // thread's clock next.
    drop((slots, args));
    let w2 = exec.span_start();
    let partials = catch_phase(FaultPhase::Merge, || {
        exec.merge_outputs
            .iter()
            .zip(pending.iter_mut())
            .map(|(mo, pieces)| local_merge(mo, std::mem::take(pieces)))
            .collect::<Result<Vec<Vec<PieceRun>>>>()
    });
    let merge_cpu = clock.lap();
    out.merge += merge_cpu;
    if out.batches > 0 {
        exec.span(SpanKind::Merge, worker, 0, w2, merge_cpu);
    }
    out.partials = partials?;
    Ok(out)
}

/// Resolve an output's placement target at one of the two allocation
/// points (stage start: `exemplar` is `None`; first piece: `Some`): a
/// `spare` the split type accepts for reuse, else a fresh allocation,
/// else `None` (placement declined at this point).
fn resolve_target(
    pm: &PlacementMerge,
    spare: Option<DataValue>,
    total_elements: u64,
    params: &Params,
    exemplar: Option<&DataValue>,
) -> Result<Option<Target>> {
    let target = |out, reused| Target {
        out,
        reused,
        by_exemplar: exemplar.is_some(),
    };
    if let Some(out) = spare.and_then(|s| pm.cap.reuse(s, total_elements, params, exemplar)) {
        return Ok(Some(target(out, true)));
    }
    let fresh = pm.cap.alloc_merged(total_elements, params, exemplar)?;
    Ok(fresh.map(|out| target(out, false)))
}

/// First-level merge of one worker's pieces for one output.
fn local_merge(mo: &MergeOutput, pieces: Vec<(u64, u64, DataValue)>) -> Result<Vec<PieceRun>> {
    if pieces.is_empty() {
        return Ok(Vec::new());
    }
    if mo.held() {
        // No merging at any level: each batch piece stays its own run,
        // so the held set keeps per-batch granularity and aligned
        // batches of whoever reads it next (a consuming stage, or the
        // identity stage of an on-demand merge) take the clone fast
        // path instead of re-slicing a worker-concatenated chunk.
        return Ok(pieces
            .into_iter()
            .map(|(start, end, piece)| PieceRun { start, end, piece })
            .collect());
    }
    if mo.commutative {
        let start = pieces[0].0;
        let end = pieces.last().map(|&(_, e, _)| e).unwrap_or(start);
        let covered: u64 = pieces.iter().map(|(s, e, _)| e - s).sum();
        let piece = merge_group(mo, pieces.into_iter().map(|p| p.2).collect(), covered)?;
        return Ok(vec![PieceRun { start, end, piece }]);
    }
    let mut runs = Vec::new();
    let mut group: Vec<DataValue> = Vec::new();
    let mut group_start = 0;
    let mut group_end = 0;
    for (start, end, piece) in pieces {
        if !group.is_empty() && start != group_end {
            runs.push(PieceRun {
                start: group_start,
                end: group_end,
                piece: merge_group(mo, std::mem::take(&mut group), group_end - group_start)?,
            });
        }
        if group.is_empty() {
            group_start = start;
        }
        group_end = end;
        group.push(piece);
    }
    if !group.is_empty() {
        runs.push(PieceRun {
            start: group_start,
            end: group_end,
            piece: merge_group(mo, group, group_end - group_start)?,
        });
    }
    Ok(runs)
}

/// Merge a group of pieces covering `elements` elements, skipping the
/// library call for singletons.
fn merge_group(mo: &MergeOutput, mut group: Vec<DataValue>, elements: u64) -> Result<DataValue> {
    if group.len() == 1 {
        return Ok(group.pop().expect("len checked"));
    }
    mo.instance
        .splitter
        .merge(group, &mo.instance.params, elements)
}
