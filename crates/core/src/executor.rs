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
//! carries the element range that produced it. Collected pieces merge
//! over one fixed grouping that depends only on the stage's batch count
//! `n`: batches `[b·K, (b+1)·K)` form *block* `b`, with `K = ⌈√n⌉`. A
//! worker merges each block it holds completely and leaves the pieces
//! of any block it holds only part of; the caller orders everything by
//! element offset, merges each block's leftover pieces, then merges the
//! block values in order. A block always merges as the merge of its
//! pieces in element order, whichever thread does it, so split types
//! observe pieces in element order (§3.4) and a result's bits depend on
//! the plan alone, not on which worker claimed which batch. A stage
//! that collects an output claims batches in spans that end on block
//! boundaries, so the workers hold whole blocks and merge them in
//! parallel; a claim made from a stale cursor reading, or a `NULL`
//! split, can still leave a block to the caller.
//!
//! # Output paths
//!
//! Every stage output whose pieces need the executor —
//! [`OutputKind::Merge`]; in-place, discarded and lineage outputs need
//! nothing — gets a *sink* when the stage is built, and the sink alone
//! decides where its pieces go. It has three transitions, and one
//! `store` then writes the graph value:
//!
//! | Sink | Per batch (`accept`) | Worker end (`local`) | Caller (`finish`) | Spans | Counters |
//! |------|----------------------|----------------------|-------------------|-------|----------|
//! | `Place` | write the piece in place at its element offset | nothing to do | coverage check, truncation to the written prefix after a `NULL`-split tail | `PlacementWrite` per batch | `placement_writes`, `bytes_merged`, `merge_targets_{reused,allocated}` |
//! | `Collect` | stash `(start, end, piece)` | merge each block whose pieces it holds completely | order by offset, merge each block's leftover pieces, merge the block values in order | — | `bytes_merged` |
//!
//! Both sinks share the phase spans: `Split` and `Task` per batch, one
//! `Merge` per worker that ran a batch (its `local` window) and one
//! `FinalMerge` per stage, on the caller.
//!
//! **`Place`** takes every `Merge` output whose split type's
//! [`merge_strategy`](crate::split::Splitter::merge_strategy) is
//! [`MergeStrategy::Concat`] with a [`Placement`] capability — never an
//! `unknown` output, whose pieces may compact; every other `Merge`
//! output takes `Collect`. A placed output's merged value is resolved
//! once, at the first of two points: stage start, on the caller while
//! the pool is parked, when the parameters determine the layout
//! (first-touch page faults then run uncontended); else the first piece
//! any worker produces, which serves as the exemplar for data-dependent
//! layouts (DataFrame schemas, column dtypes). A split type that
//! declines at both points collects instead.
//! The worker-local block merges and the serial final concat disappear,
//! and out-of-claim-order batches are harmless because offsets are
//! absolute.
//! Under an attached plan cache the point that resolved a target when it
//! was new first offers the *spare* an earlier evaluation of the same
//! fingerprint parked for the output to [`Placement::reuse`], which hands it back
//! only if nobody else holds its storage any more (see "Merge-target
//! spares" in [`crate::planner`]); the stored value records its
//! [`MergeOrigin`] so the context can park it in turn when it lets go.
//!
//! **[`OutputKind::Lineage`]** has no sink: like a discarded output its
//! pieces are dropped per batch, and the value is marked
//! [held as lineage](crate::graph::ValueEntry::lineage), pins what its
//! replay reads and is counted in `lineage_outputs`. It is made by
//! `replay_lineage` when something asks for it. The replay's slice —
//! its call, the calls its stage dropped for it, and those of each
//! input held as lineage, each once, in registration order — is planned
//! by the planner's one entry and run here stage by stage, like any
//! other: verified, split into batches on the pool, merged through its
//! sinks, polled for cancellation per batch, addressable by a fault
//! plan, and counted and traced as any stage. Only the plan cache stays
//! out of it. Each replayed call also counts once in
//! `recomputed_values`, when the whole replay has run.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::Mutex;

use crate::annotation::Invocation;
use crate::buffer::{SharedVec, VecValue};
use crate::config::Config;
use crate::cputime::{cpu_elapsed, thread_cpu_now, PhaseClock};
use crate::error::{Error, Result};
use crate::faultinject::{panic_message, CancelToken, FaultPhase, FaultPlan, WorkerAbort};
use crate::graph::{DataflowGraph, MergeOrigin, NodeId, ValueId, ValueOrigin, WordSet};
use crate::planner::{plan_stage, Demand, OutputKind, PlanCache, PlanSite, StageOutput, StagePlan};
use crate::pool::{Job, WorkerPool};
use crate::split::{MergeStrategy, Params, Placement, RuntimeInfo, SplitInstance};
use crate::stats::PhaseStats;
use crate::trace::{SpanKind, TraceCtx, SERVICE_WORKER};
use crate::value::DataValue;
use crate::verify::verify_stage;

/// Saturating `Duration -> u64` nanoseconds for span fields.
#[inline]
pub(crate) fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A result piece (or a merged block of them) with the element range
/// `(start, end, piece)` that produced it.
type Piece = (u64, u64, DataValue);

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
    /// Outputs whose pieces go to a sink (module docs, "Output paths").
    merge_outputs: Vec<MergeOutput>,
    /// Slots written by node execution, cleared at the top of every
    /// batch so output-presence checks see only this batch's pieces.
    produced_slots: Vec<u32>,
    num_slots: usize,
    pub(crate) total_elements: u64,
    /// Per-element footprint summed over the split inputs (split info
    /// API); `total_elements · sum_elem_bytes` is the stage's nominal
    /// split cost in bytes (`PhaseStats::bytes_split`), the signal
    /// behind per-session byte metering.
    pub(crate) sum_elem_bytes: u64,
    batch: u64,
    num_batches: u64,
    /// Batches per merge block (module docs): `⌈√num_batches⌉`.
    block: u64,
    /// Worker count for this stage (callers + pool workers), already
    /// capped by the number of batches.
    pub(crate) participants: usize,
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
    /// A claim of `span` batches from batch `at`, cut back or stretched
    /// to end on a merge-block boundary when the stage collects an
    /// output (past the last batch, the claim ends with the elements):
    /// a claim that ends inside a block leaves that block split between
    /// workers, and the caller merges a split block's pieces alone,
    /// after the pool is done.
    fn block_aligned(&self, at: u64, span: u64) -> u64 {
        if !(self.merge_outputs.iter()).any(|mo| matches!(mo.sink, Sink::Collect)) {
            return span;
        }
        let k = self.block;
        ((at + span) / k * k).max((at / k + 1) * k) - at
    }

    /// `pieces`, sorted by element offset, as runs of one merge block
    /// each, with the block's index.
    fn blocks(&self, pieces: Vec<Piece>) -> impl Iterator<Item = (u64, Vec<Piece>)> + '_ {
        let of = |p: &Piece| p.0 / self.batch.max(1) / self.block;
        let mut pieces = pieces.into_iter().peekable();
        std::iter::from_fn(move || {
            let first = pieces.next()?;
            let b = of(&first);
            let mut group = vec![first];
            group.extend(std::iter::from_fn(|| pieces.next_if(|p| of(p) == b)));
            Some((b, group))
        })
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

    /// Release every buffer the stage claimed, on the caller once the
    /// participants are done (`ran` is their outcome): ready if the
    /// stage ran and its bands are a prefix of the buffer, fresh again
    /// if not. A gap below the highest band — a split that returned
    /// `NULL` and then data again — fails the stage: the elements
    /// between were never written.
    fn release(&self, ran: Result<Vec<WorkerOut>>) -> Result<Vec<WorkerOut>> {
        let mut gap = false;
        for (buffer, [zeroed, high]) in self.inputs.iter().filter_map(|i| i.claim.as_ref()) {
            let high = high.load(Ordering::Relaxed);
            gap |= zeroed.load(Ordering::Relaxed) != high;
            buffer.release((ran.is_ok() && !gap).then_some(high as usize));
        }
        let gap = gap
            .then(|| Error::Pedantic(format!("stage {}: a gap in a fresh buffer", self.stage_idx)));
        ran.and_then(|outs| gap.map_or(Ok(outs), Err))
    }
}

struct ExecInput {
    slot: u32,
    instance: SplitInstance,
    /// The whole value; batches are cut by the split type's `split`
    /// function.
    data: DataValue,
    /// `Some` for a fresh buffer the stage writes whole in place
    /// ("Fresh buffers" in [`crate::buffer`]), from the stage's build:
    /// the buffer, and `[zeroed, high]`, the elements its bands zeroed
    /// and the end of the highest. Cleared when the stage starts if the
    /// claim fails. Each batch zeroes its band of a claimed buffer in
    /// the split phase.
    claim: Option<(SharedVec<f64>, [AtomicU64; 2])>,
}

/// The buffer `value` holds, if it is a [`VecValue`].
fn buffer_of(value: &DataValue) -> Option<&SharedVec<f64>> {
    value.downcast_ref::<VecValue>().map(|v| &v.0)
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
    /// Where the output's pieces go (module docs, "Output paths").
    sink: Sink,
}

/// An output path (module docs), chosen once when the stage is built.
enum Sink {
    /// Written in place into one preallocated value; collected instead
    /// if the split type declines the allocation.
    Place(PlacementMerge),
    /// Merged per block of batches, then once more on the caller.
    Collect,
}

/// One output's placement merge: the split type's capability object and
/// the resolve-once state shared across workers.
struct PlacementMerge {
    cap: &'static dyn Placement,
    /// `Some(target)` once the placement output exists (every piece is
    /// then written in place); `None` once the split type declined it
    /// (pieces collect). Unset until [`resolve`](Self::resolve) decides.
    out: OnceLock<Option<Target>>,
    /// A spare from the plan cache, tagged with the point that resolved
    /// it when it was new (`true`: the first piece) and kept until that
    /// point. The lock also makes the first-piece resolution run once.
    spare: Mutex<Option<(bool, DataValue)>>,
    /// Elements written across all pieces.
    written: AtomicU64,
    /// Highest element offset written (exclusive).
    high: AtomicU64,
}

impl PlacementMerge {
    /// Resolve the target at one of its two points — stage start
    /// (`exemplar` is `None`, `spare` is what the plan cache holds for
    /// the output) or the first piece any worker produces — once across
    /// workers, and return it: `None` while unresolved or once declined.
    /// A spare the split type accepts for reuse wins over a fresh
    /// allocation; a decline at stage start leaves the first piece to
    /// decide.
    fn resolve(
        &self,
        spare: Option<(MergeOrigin, DataValue)>,
        exemplar: Option<&DataValue>,
        total_elements: u64,
        params: &Params,
    ) -> Result<Option<&Target>> {
        if let Some(resolved) = self.out.get() {
            return Ok(resolved.as_ref());
        }
        let mut parked = self.spare.lock();
        if let Some(resolved) = self.out.get() {
            return Ok(resolved.as_ref());
        }
        if let Some((origin, target)) = spare {
            *parked = Some((origin.by_exemplar, target));
        }
        let by_exemplar = exemplar.is_some();
        let offered = parked.take_if(|(at, _)| *at == by_exemplar);
        let reused = offered.and_then(|(_, s)| self.cap.reuse(s, total_elements, params, exemplar));
        let (out, reused) = match reused {
            Some(out) => (Some(out), true),
            None => (
                self.cap.alloc_merged(total_elements, params, exemplar)?,
                false,
            ),
        };
        if out.is_none() && !by_exemplar {
            return Ok(None);
        }
        let target = out.map(|out| Target {
            out,
            reused,
            by_exemplar,
        });
        Ok(self.out.get_or_init(|| target).as_ref())
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

impl MergeOutput {
    /// The planned output `output` of a stage, stored in `slot`, with its
    /// sink — `None` for the kinds that need none (in place, discarded,
    /// lineage).
    fn new(slot: u32, output: u32, planned: &StageOutput) -> Option<Self> {
        let instance = planned.instance.clone();
        let sink = match planned.kind {
            OutputKind::InPlace | OutputKind::Discard | OutputKind::Lineage => return None,
            // The placement capability comes straight from the merge
            // strategy probe (`MergeStrategy::Concat { placement }`).
            // `unknown` outputs (filters, anything whose pieces do not
            // correspond to input elements, §3.2) compact: a piece may
            // hold fewer elements than the batch that produced it, so
            // batch offsets are meaningless there and the merger must
            // concatenate.
            OutputKind::Merge => match instance.merge_strategy() {
                MergeStrategy::Concat {
                    placement: Some(cap),
                } if !instance.is_unknown() => Sink::Place(PlacementMerge {
                    cap,
                    out: OnceLock::new(),
                    spare: Mutex::new(None),
                    written: AtomicU64::new(0),
                    high: AtomicU64::new(0),
                }),
                _ => Sink::Collect,
            },
        };
        Some(MergeOutput {
            slot,
            value: planned.value,
            output,
            instance,
            sink,
        })
    }

    /// Stage start, on the caller: take the output's spare from the
    /// plan cache and resolve a placement target whose layout the
    /// parameters determine.
    fn start(&self, env: &ExecEnv<'_>, total_elements: u64) -> Result<()> {
        if let Sink::Place(pm) = &self.sink {
            let spare = env
                .spares
                .and_then(|(cache, site)| cache.take_spare(site, self.output));
            pm.resolve(spare, None, total_elements, &self.instance.params)?;
        }
        Ok(())
    }

    /// Per batch: take this output's piece of the worker's batch and
    /// write it in place at its element offset once a placement target
    /// exists — the first piece resolves it — or stash it with the batch
    /// range for the worker's [`local`](Self::local) merge. `i` is the
    /// output's index among the stage's merge outputs.
    fn accept(&self, w: &mut Worker<'_>, i: usize) -> Result<()> {
        let exec = w.exec;
        let Some(piece) = &w.slots[self.slot as usize] else {
            return Err(Error::Pedantic(format!(
                "output of split type {} missing after batch [{}, {})",
                self.instance.splitter.name(),
                w.start,
                w.end
            )));
        };
        if let Sink::Place(pm) = &self.sink {
            let w0 = exec.span_start();
            // Per-write CPU time only feeds the span.
            let c0 = w0.map(|_| thread_cpu_now());
            let (total, params) = (exec.total_elements, &self.instance.params);
            if let Some(target) = pm.resolve(None, Some(piece), total, params)? {
                // Coverage tracks the piece's actual element count, not
                // the batch range: a source that dries up mid-batch
                // writes fewer elements, and the truncation in `finish`
                // must not include the unwritten remainder.
                let n = pm.cap.write_piece(&target.out, w.start, piece)?;
                pm.written.fetch_add(n, Ordering::Relaxed);
                pm.high.fetch_max(w.start + n, Ordering::Relaxed);
                w.out.placement_writes += 1;
                let cpu = c0.map_or(Duration::ZERO, |c0| cpu_elapsed(c0, thread_cpu_now()));
                exec.span(SpanKind::PlacementWrite, w.worker as u32, w.index, w0, cpu);
                return Ok(());
            }
        }
        w.out.partials[i].push((w.start, w.end, piece.clone()));
        Ok(())
    }

    /// At the end of each worker, over its stash (in claim order, which
    /// is element order): merge each block whose pieces the worker holds
    /// completely, and keep the pieces of any block it holds only part
    /// of for the caller.
    fn local(&self, pieces: Vec<Piece>, exec: &ExecStage) -> Result<Vec<Piece>> {
        let mut kept = Vec::with_capacity(pieces.len());
        for (b, group) in exec.blocks(pieces) {
            // Every block has `block` batches but the last.
            if group.len() as u64 == exec.block.min(exec.num_batches - b * exec.block) {
                kept.push(self.merge_block(group)?);
            } else {
                kept.extend(group);
            }
        }
        Ok(kept)
    }

    /// Merge `group`, pieces of one block in element order, into one
    /// piece, skipping the library call for a singleton. The size hint
    /// is the elements the block's pieces span.
    fn merge_block(&self, mut group: Vec<Piece>) -> Result<Piece> {
        if group.len() == 1 {
            return Ok(group.pop().expect("one piece"));
        }
        let (start, end) = (group[0].0, group[group.len() - 1].1);
        let pieces = group.into_iter().map(|p| p.2).collect();
        let merged = (self.instance.splitter).merge(pieces, &self.instance.params, end - start)?;
        Ok((start, end, merged))
    }

    /// On the caller, with what every worker kept: check a placement
    /// target's coverage, or order the pieces and merged blocks by
    /// element offset (§5.2 step 3), merge each block's leftover pieces
    /// and then the block values. Returns the merged value and the
    /// placement target it was written into.
    fn finish(
        &self,
        mut kept: Vec<Piece>,
        exec: &ExecStage,
    ) -> Result<(DataValue, Option<&Target>)> {
        let (split_type, params) = (self.instance.splitter.name(), &self.instance.params);
        let total = exec.total_elements;
        if let Some((pm, target)) = self.target() {
            let written = pm.written.load(Ordering::Relaxed);
            let high = pm.high.load(Ordering::Relaxed);
            if written != high {
                // A batch inside the written range produced no piece:
                // the output has an interior hole, which a concat of
                // collected pieces would have silently closed but an
                // in-place buffer cannot. Fail loudly rather than return
                // stale elements.
                return Err(Error::Merge {
                    split_type,
                    message: format!(
                        "placement output has interior gaps: {written} of {high} \
                         leading elements written"
                    ),
                });
            }
            // A `NULL`-split tail: the sources dried up before the
            // declared total.
            let merged = if high == total {
                target.out.clone()
            } else {
                pm.cap.truncate_merged(target.out.clone(), high, params)?
            };
            return Ok((merged, Some(target)));
        }
        if kept.is_empty() {
            return Err(Error::Merge {
                split_type,
                message: format!(
                    "stage {} produced no pieces for its {split_type} output \
                     (v{}): every batch came back empty",
                    exec.stage_idx, self.value.0
                ),
            });
        }
        kept.sort_unstable_by_key(|p| p.0);
        let merged = catch_phase(FaultPhase::Merge, || {
            let blocks = (exec.blocks(kept))
                .map(|(_, group)| self.merge_block(group).map(|p| p.2))
                .collect::<Result<_>>()?;
            // The stage's element total is the merge-size hint:
            // concat-style mergers preallocate once instead of growing
            // per piece.
            self.instance.splitter.merge(blocks, params, total)
        })?;
        Ok((merged, None))
    }

    /// The split info of this output's merged value: `None` when the
    /// call declines or the output is `unknown` (its instance carries no
    /// params and only delegates its merge, so its info contract does not
    /// cover it). Callers read `None` as zero bytes: merged-byte
    /// accounting is a load-shedding signal, not an exact meter, so a
    /// declined call degrades it and never correctness.
    fn info(&self, value: &DataValue) -> Option<RuntimeInfo> {
        if self.instance.is_unknown() {
            return None;
        }
        self.instance
            .splitter
            .info(value, &self.instance.params)
            .ok()
    }

    /// The placement merge and the target it resolved to, if any.
    fn target(&self) -> Option<(&PlacementMerge, &Target)> {
        let Sink::Place(pm) = &self.sink else {
            return None;
        };
        Some((pm, pm.out.get()?.as_ref()?))
    }

    /// Write a merged output, and the placement target it was written
    /// into, to its graph value, with the counters of its path.
    fn store(
        &self,
        (merged, target): (DataValue, Option<&Target>),
        graph: &mut DataflowGraph,
        env: &ExecEnv<'_>,
        stats: &mut PhaseStats,
    ) {
        let entry = &mut graph.values[self.value.0 as usize];
        // Nominal size: `total_elements · elem_size_bytes`.
        let info = self.info(&merged);
        let bytes = info.map_or(0, |i| i.total_elements.saturating_mul(i.elem_size_bytes));
        stats.bytes_merged += bytes;
        (entry.data, entry.ready) = (Some(merged), true);
        // A placement target remembers its spare slot, so whoever lets
        // go of the value can park it for the plan's next evaluation.
        entry.merge_origin = env.spares.zip(target).map(|((_, site), t)| MergeOrigin {
            fingerprint: site.fingerprint,
            stage: site.stage,
            output: self.output,
            by_exemplar: t.by_exemplar,
            bytes,
        });
        match target {
            Some(t) if t.reused => stats.merge_targets_reused += 1,
            Some(_) => stats.merge_targets_allocated += 1,
            None => {}
        }
    }
}

/// Keep value `id` as its lineage in place of its data, to be replayed
/// when something asks for it.
fn hold(graph: &mut DataflowGraph, id: ValueId, stats: &mut PhaseStats) {
    let entry = &mut graph.values[id.0 as usize];
    (entry.data, entry.ready, entry.merge_origin) = (None, false, None);
    entry.lineage = true;
    stats.lineage_outputs += 1;
    graph.deferred.push(id);
    graph.pin_inputs(id);
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

/// Per-worker result: merged blocks, leftover pieces and phase timings.
#[derive(Default)]
pub(crate) struct WorkerOut {
    /// Per merge output: the pieces stashed by the driver loop, then
    /// the worker's merged blocks and the pieces of blocks it holds only
    /// part of, in increasing element order.
    partials: Vec<Vec<Piece>>,
    split: Duration,
    task: Duration,
    merge: Duration,
    pub(crate) batches: u64,
    calls: u64,
    /// Result pieces written in place by the placement fast path.
    placement_writes: u64,
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
    pub(crate) cancel: Option<&'a Arc<CancelToken>>,
    pub(crate) trace: Option<&'a TraceCtx>,
    /// The attached plan cache and where the stage sits in its plan:
    /// the spare slots its placement outputs take from and are later
    /// parked in. `None` without a cache, for a segment without a
    /// fingerprint and for the stages of lineage replays — those
    /// allocate as ever.
    pub(crate) spares: Option<(&'a PlanCache, PlanSite)>,
}

/// Execute one stage, materializing its outputs into the graph. The
/// caller marks its nodes executed, if they were pending.
pub(crate) fn execute_stage(
    graph: &mut DataflowGraph,
    stage: &StagePlan,
    stats: &mut PhaseStats,
    env: &ExecEnv<'_>,
) -> Result<()> {
    let exec = build_exec_stage(graph, stage, stats.stages, env)?;
    let bytes_split = exec.total_elements.saturating_mul(exec.sum_elem_bytes);
    run_exec(graph, exec, stats, env)?;

    // Materialize in-place, discarded and lineage outputs.
    for out in &stage.outputs {
        match out.kind {
            OutputKind::InPlace => graph.values[out.value.0 as usize].ready = true,
            OutputKind::Discard => graph.values[out.value.0 as usize].ready = false,
            OutputKind::Lineage => hold(graph, out.value, stats),
            // Stored by `run_exec`.
            OutputKind::Merge => {}
        }
    }
    stats.stages += 1;
    stats.bytes_split += bytes_split;
    Ok(())
}

/// Recompute value `id` from its lineage, if it is held as lineage —
/// the on-demand half of `OutputKind::Lineage` (module docs). The
/// slice is every value on the way back to ready data that has none:
/// the value, what its stage dropped for it, and inputs held as
/// lineage, in turn. The planner keeps a value as
/// lineage only over inputs that outlast its stage, and those stay
/// pinned while it is held (see `planner::output_kind` and
/// [`DataflowGraph::pin_inputs`]), so the slice ends at the stage that
/// made each value it holds. The slice's calls are planned and run
/// stage by stage as an evaluation's are, never through the plan
/// cache. The value, and every value of the slice a `Future` still
/// observes, is kept whole; what only the made values pinned is
/// released into `park`.
///
/// A failure puts every value of the slice back the way it was, held
/// or dropped, so the read can be retried.
pub(crate) fn replay_lineage(
    graph: &mut DataflowGraph,
    id: ValueId,
    stats: &mut PhaseStats,
    env: &ExecEnv<'_>,
    park: &mut impl FnMut(MergeOrigin, DataValue),
) -> Result<()> {
    if !graph.held(id) {
        return Ok(());
    }
    let mut slice: Vec<NodeId> = Vec::new();
    let mut seen: WordSet<ValueId> = WordSet::default();
    let mut unread = vec![id];
    while let Some(v) = unread.pop() {
        if !seen.insert(v) || graph.value_data(v).is_some() {
            continue;
        }
        let e = &graph.values[v.0 as usize];
        let (&ValueOrigin::Ret(n), true) = (&e.origin, e.recomputable) else {
            return Err(Error::ValueUnavailable);
        };
        slice.push(n);
        unread.extend(graph.args(&graph.nodes[n.0 as usize]));
    }
    // Registration order is a topological order.
    slice.sort_unstable();

    let ran = replay_stages(graph, id, &slice, stats, env);
    // A stage stores what it merges and leaves `lineage` as it was: a
    // value kept is made, any other goes back to held or dropped.
    for n in &slice {
        let v = graph.nodes[n.0 as usize].ret.expect("a return value");
        let e = &mut graph.values[v.0 as usize];
        if ran.is_ok() && (v == id || e.observable()) {
            e.lineage = false;
            graph.unpin_inputs(v, park);
        } else {
            (e.data, e.ready, e.merge_origin) = (None, false, None);
        }
    }
    ran?;
    stats.lineage_replays += 1;
    stats.recomputed_values += slice.len() as u64;
    Ok(())
}

/// Plan `slice`, the calls of the replay of `read`, a stage at a time
/// through the planner's one entry, and verify and run each stage.
fn replay_stages(
    graph: &mut DataflowGraph,
    read: ValueId,
    mut slice: &[NodeId],
    stats: &mut PhaseStats,
    env: &ExecEnv<'_>,
) -> Result<()> {
    let demand = Demand::Value(read);
    while !slice.is_empty() {
        let nodes = slice.iter().copied();
        let plan = || plan_stage(graph, env.config, nodes, demand, Some(slice));
        let stage = stats.planning(None, plan)?;
        verify_stage(graph, &stage, env.config, demand).map_err(Error::Verify)?;
        stats.plans_verified += 1;
        execute_stage(graph, &stage, stats, env)?;
        slice = &slice[stage.nodes.len()..];
    }
    Ok(())
}

/// Run a built stage — driver loop on the participants, then the final
/// merge on the calling thread — storing every merge output on its
/// graph value.
fn run_exec(
    graph: &mut DataflowGraph,
    mut exec: ExecStage,
    stats: &mut PhaseStats,
    env: &ExecEnv<'_>,
) -> Result<()> {
    if env.cancel.is_some_and(|c| c.is_cancelled()) {
        return Err(Error::Cancelled(format!(
            "evaluation abandoned before stage {}",
            exec.stage_idx
        )));
    }

    // Stage-start placement resolution (module docs), on the calling
    // thread while the pool is parked. Counted as merge time: it is the
    // placement path's share of what the collect-then-concat path pays
    // inside its final merge.
    let mut clock = PhaseClock::start();
    for mo in &exec.merge_outputs {
        mo.start(env, exec.total_elements)?;
    }
    let prealloc = clock.lap();

    // Claim each fresh buffer the stage writes whole, and release every
    // claim once the participants are done, whatever their outcome.
    for input in &mut exec.inputs {
        input.claim = input.claim.take().filter(|(buffer, _)| buffer.claim());
    }
    let job;
    let (exec, outs) = match env.pool {
        Some(pool) if exec.participants > 1 => {
            job = Job::new(exec);
            let outs = pool.run_stage(&job, &mut clock);
            (&job.exec, outs)
        }
        // A single batch runs inline, with no pool job to hand out.
        // (So would a stage with no pool, which `evaluate_pending`
        // rules out: a context with no attached pool owns one.)
        _ => {
            let (cursor, failed) = (AtomicU64::new(0), AtomicBool::new(false));
            let out = run_worker(&exec, &cursor, &failed, 0, &mut clock);
            (&exec, out.map(|out| vec![out]))
        }
    };
    let mut outs = exec.release(outs)?;

    // Final merge on the calling thread (§5.2 step 3). Each output's
    // pieces are moved out of the worker results, not cloned into it.
    let w0 = exec.span_start();
    for (i, mo) in exec.merge_outputs.iter().enumerate() {
        let kept = outs
            .iter_mut()
            .flat_map(|o| std::mem::take(&mut o.partials[i]))
            .collect();
        let merged = mo.finish(kept, exec)?;
        mo.store(merged, graph, env, stats);
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
    Ok(())
}

/// Gather materialized data, run `Info`, size batches, and resolve every
/// value reference to its dense slot.
fn build_exec_stage(
    graph: &DataflowGraph,
    stage: &StagePlan,
    stage_idx: u64,
    env: &ExecEnv<'_>,
) -> Result<ExecStage> {
    let mut inputs = Vec::with_capacity(stage.inputs.len());
    let mut total: Option<u64> = None;
    let mut sum_elem_bytes: u64 = 0;

    let nodes_of = || stage.nodes.iter().map(|n| &graph.nodes[n.0 as usize]);
    let written = |v| nodes_of().any(|n| graph.mut_outs(n).any(|(i, _)| graph.args(n)[i] == v));
    for (vid, instance) in &stage.inputs {
        let data = graph
            .value_data(*vid)
            .cloned()
            .ok_or(Error::ValueUnavailable)?;
        let info = instance.splitter.info(&data, &instance.params)?;
        if let Some(expected) = total.filter(|&t| t != info.total_elements) {
            let actual = info.total_elements;
            return Err(Error::ElementMismatch { expected, actual });
        }
        total = Some(info.total_elements);
        sum_elem_bytes += info.elem_size_bytes;
        // A fresh buffer is claimed when the stage runs if a node writes
        // it in place as a whole view, over a split that covers every
        // element; any other is materialized here ("Fresh buffers" in
        // `crate::buffer`).
        let bytes = info.total_elements.saturating_mul(info.elem_size_bytes);
        let buffer = buffer_of(&data);
        let whole =
            |b: &&SharedVec<f64>| b.is_whole() && bytes == (b.len() * size_of::<f64>()) as u64;
        let claim = buffer
            .filter(|b| whole(b) && written(*vid))
            .map(|b| (b.clone(), Default::default()));
        if let (None, Some(buffer)) = (&claim, buffer) {
            buffer.materialize();
        }
        inputs.push(ExecInput {
            slot: stage.slot_of(*vid),
            instance: instance.clone(),
            data,
            claim,
        });
    }

    // A stage with no split inputs (e.g. a call whose arguments are all
    // `_`) executes as a single batch of one element.
    let total_elements = total.unwrap_or(1);
    let config = env.config;
    let batch = config.batch_elements(sum_elem_bytes, total_elements);
    let num_batches = total_elements.div_ceil(batch.max(1)).max(1);

    let mut broadcast = Vec::with_capacity(stage.broadcast.len());
    for vid in &stage.broadcast {
        let data = graph
            .value_data(*vid)
            .cloned()
            .ok_or(Error::ValueUnavailable)?;
        broadcast.push((stage.slot_of(*vid), data));
    }

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

    let planned = stage.outputs.iter().enumerate();
    let merge_outputs = planned
        .filter_map(|(i, o)| MergeOutput::new(stage.slot_of(o.value), i as u32, o))
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
        total_elements,
        sum_elem_bytes,
        batch,
        num_batches,
        block: num_batches.isqrt() + u64::from(num_batches.isqrt().pow(2) < num_batches),
        participants: config.workers.max(1).min(num_batches as usize),
        stage_idx,
        faults: config.fault_plan.clone(),
        cancel: env.cancel.cloned(),
        trace: env.trace.cloned(),
    })
}

/// One participant's state in the driver loop.
struct Worker<'a> {
    exec: &'a ExecStage,
    clock: &'a mut PhaseClock,
    /// The participant index, and the index of the batch being run —
    /// with the stage, the coordinates fault points and spans use.
    worker: usize,
    index: u64,
    /// The batch's elements, `[start, end)`.
    start: u64,
    end: u64,
    /// The batch's pieces by value slot (broadcast values stay put).
    slots: Vec<Option<DataValue>>,
    /// One argument buffer for every call this worker makes, empty
    /// between calls (see [`reuse`]).
    args: Vec<&'static DataValue>,
    out: WorkerOut,
}

impl Worker<'_> {
    /// Run one phase of the batch: `body` behind the phase's fault point
    /// under panic isolation — a panic in foreign split/task/merge code
    /// fails this job with the typed `Error::TaskPanicked` and the
    /// thread survives — timed into the phase's total and, for split
    /// and task, recorded as a span. The stash phase records none of
    /// its own; placement writes record theirs.
    ///
    /// Worker-parallel phases are timed on the per-thread CPU clock
    /// (see `crate::cputime`): wall windows on an oversubscribed host
    /// charge a phase for every preemption that lands in it, which
    /// systematically misattributes scheduler noise to whichever phase
    /// has the most windows.
    fn phase<T>(&mut self, fault: FaultPhase, body: fn(&mut Self) -> Result<T>) -> Result<T> {
        let (exec, worker, index) = (self.exec, self.worker, self.index);
        let kind = match fault {
            FaultPhase::Split => Some(SpanKind::Split),
            FaultPhase::Task => Some(SpanKind::Task),
            _ => None,
        };
        let w0 = kind.and_then(|_| exec.span_start());
        let result = catch_phase(fault, || {
            inject(exec, fault, index, worker)?;
            body(self)
        });
        let cpu = self.clock.lap();
        *match fault {
            FaultPhase::Split => &mut self.out.split,
            FaultPhase::Task => &mut self.out.task,
            _ => &mut self.out.merge,
        } += cpu;
        if let Some(kind) = kind {
            exec.span(kind, worker as u32, index, w0, cpu);
        }
        result
    }

    /// The split phase: cut every input's piece of the batch into its
    /// slot. `true` is the paper's `NULL` return — no data here, stop
    /// claiming.
    fn split(&mut self) -> Result<bool> {
        let (exec, range) = (self.exec, self.start..self.end);
        for &s in &exec.produced_slots {
            self.slots[s as usize] = None;
        }
        for (i, input) in exec.inputs.iter().enumerate() {
            let (splitter, params) = (&input.instance.splitter, &input.instance.params);
            let piece = match exec.total_elements {
                0 => Some(input.data.clone()),
                _ => splitter.split(&input.data, range.clone(), params)?,
            };
            let Some(piece) = piece else {
                if i > 0 {
                    return Err(Error::Pedantic(format!(
                        "split type {} returned NULL for elements [{}, {}) \
                         while other inputs produced pieces",
                        splitter.name(),
                        range.start,
                        range.end
                    )));
                }
                return Ok(true);
            };
            self.slots[input.slot as usize] = Some(piece);
        }
        // Zero each claimed buffer's band. A piece that is not a view of
        // it zeroes nothing: the release fills, or fails on, what no band
        // zeroed.
        for input in &exec.inputs {
            let Some((whole, [zeroed, high])) = &input.claim else {
                continue;
            };
            let piece = self.slots[input.slot as usize].as_ref().and_then(buffer_of);
            let Some(band) = piece.filter(|p| p.same_storage(whole)) else {
                continue;
            };
            // SAFETY: the band-write contract over the band: it is this
            // batch's piece of the claimed buffer, which no other batch's
            // overlaps (rule 1), and nothing reads the buffer until the
            // stage releases it (rule 2).
            let end = unsafe { band.zero_band() };
            zeroed.fetch_add(band.len() as u64, Ordering::Relaxed);
            high.fetch_max(end as u64, Ordering::Relaxed);
        }
        Ok(false)
    }

    /// The task phase: call every node of the stage on the batch's
    /// pieces.
    fn call(&mut self) -> Result<()> {
        let (exec, slots) = (self.exec, &mut self.slots);
        for node in &exec.nodes {
            let arg_slots = &exec.arg_slots[node.args.clone()];
            let mut args = reuse(std::mem::take(&mut self.args));
            for &slot in arg_slots {
                let piece = slots[slot as usize].as_ref();
                args.push(piece.ok_or(Error::ValueUnavailable)?);
            }
            let inv = Invocation {
                function: node.name,
                args: &args,
            };
            let ret = (node.func)(&inv);
            self.args = reuse(args);
            let ret = ret?;
            for &(arg_idx, mv_slot) in &exec.mut_aliases[node.muts.clone()] {
                slots[mv_slot as usize] = slots[arg_slots[arg_idx as usize] as usize].clone();
            }
            let piece = returned(node.name, ret, node.ret.is_some())?;
            if let (Some(piece), Some(rv_slot)) = (piece, node.ret) {
                slots[rv_slot as usize] = Some(piece);
            }
            self.out.calls += 1;
        }
        Ok(())
    }

    /// The stash phase ("moved to a list of partial results", §5.2):
    /// hand each merge output's piece of the batch to its sink.
    fn stash(&mut self) -> Result<()> {
        for (i, mo) in self.exec.merge_outputs.iter().enumerate() {
            mo.accept(self, i)?;
        }
        Ok(())
    }
}

/// What function `name` returned, checked against whether its
/// annotation declares a return value.
#[inline]
pub(crate) fn returned(
    name: &str,
    ret: Option<DataValue>,
    declared: bool,
) -> Result<Option<DataValue>> {
    match (ret, declared) {
        (Some(_), false) => Err(Error::Library(format!(
            "{name} returned a value but its annotation declares none"
        ))),
        (None, true) => Err(Error::Library(format!(
            "{name} is annotated with a return split type but returned nothing"
        ))),
        (ret, _) => Ok(ret),
    }
}

/// An empty buffer over `v`'s allocation, for elements of another type
/// of the same size and alignment — here, references that borrow for
/// one call only. `v`'s elements are dropped, so no borrow outlives the
/// call; the standard library collects in place, so nothing allocates.
pub(crate) fn reuse<T, U>(v: Vec<T>) -> Vec<U> {
    v.into_iter().filter_map(|_| None).collect()
}

/// The driver loop (§5.2 step 2) for one participant: claim batches
/// from the shared `cursor` until the elements are exhausted, a split
/// returns `NULL`, or another participant fails; split, call and stash
/// each one; then merge what this worker stashed.
///
/// Phases are timed on `clock`: the first split phase starts at its
/// last reading, and it is left at the end of the worker-local merge.
pub(crate) fn run_worker(
    exec: &ExecStage,
    cursor: &AtomicU64,
    failed: &AtomicBool,
    worker_idx: usize,
    clock: &mut PhaseClock,
) -> Result<WorkerOut> {
    let max_args = exec.nodes.iter().map(|n| n.args.len()).max();
    let mut w = Worker {
        exec,
        clock,
        worker: worker_idx,
        index: 0,
        start: 0,
        end: 0,
        slots: vec![None; exec.num_slots],
        args: Vec::with_capacity(max_args.unwrap_or(0)),
        out: WorkerOut {
            partials: vec![Vec::new(); exec.merge_outputs.len()],
            ..WorkerOut::default()
        },
    };
    for (slot, data) in &exec.broadcast {
        w.slots[*slot as usize] = Some(data.clone());
    }
    // The range a static partitioner would have given this worker, for
    // the steal counter.
    let static_share = exec
        .total_elements
        .div_ceil(exec.participants.max(1) as u64)
        .max(1);
    let batch = exec.batch.max(1);
    // A stage over zero elements runs one batch, whose pieces are the
    // whole (empty) inputs: split types return `NULL` past the end.
    let elements = exec.total_elements.max(1);

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
        let span_batches = {
            let pos = cursor.load(Ordering::Relaxed);
            if pos >= elements {
                break;
            }
            let remaining = (elements - pos).div_ceil(batch);
            let span = (remaining / (2 * exec.participants.max(1) as u64)).max(1);
            exec.block_aligned(pos / batch, span)
        };
        let mut start = cursor.fetch_add(span_batches * batch, Ordering::Relaxed);
        if start >= elements {
            break;
        }
        let claim_end = (start + span_batches * batch).min(elements);
        w.out.claims += 1;
        while start < claim_end {
            if failed.load(Ordering::Relaxed) {
                break 'driver;
            }
            // Cooperative cancellation, polled per batch: a request
            // whose deadline passed stops burning pool time here, at
            // the claim boundary — a batch that already started always
            // runs to completion (library calls are never interrupted).
            if exec.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                failed.store(true, Ordering::Relaxed);
                return Err(Error::Cancelled(format!(
                    "deadline passed or token cancelled at stage {} \
                     batch boundary",
                    exec.stage_idx
                )));
            }
            let end = (start + batch).min(claim_end);
            (w.index, w.start, w.end) = (start / batch, start, end.min(exec.total_elements));
            if w.phase(FaultPhase::Split, Worker::split)? {
                break 'driver;
            }
            w.phase(FaultPhase::Task, Worker::call)?;
            w.phase(FaultPhase::Merge, Worker::stash)?;
            if start / static_share != worker_idx as u64 {
                w.out.stolen += 1;
            }
            w.out.batches += 1;
            start = end;
        }
    }

    // Worker-local merge (§5.2 step 3, first level; see `local`). The
    // last batch's pieces are freed first, inside this phase, rather
    // than by whichever phase reads this thread's clock next.
    (w.slots, w.args) = (Vec::new(), Vec::new());
    let w0 = exec.span_start();
    let local = catch_phase(FaultPhase::Merge, || {
        for (mo, pieces) in exec.merge_outputs.iter().zip(&mut w.out.partials) {
            *pieces = mo.local(std::mem::take(pieces), exec)?;
        }
        Ok(())
    });
    let merge_cpu = w.clock.lap();
    w.out.merge += merge_cpu;
    if w.out.batches > 0 {
        exec.span(SpanKind::Merge, worker_idx as u32, 0, w0, merge_cpu);
    }
    local.map(|()| w.out)
}
