//! The planner: converting a dataflow graph into stages (§5.1).
//!
//! Two consecutive functions belong to the same stage iff every value
//! passed between them has the same split type. Generic split types are
//! resolved by pushing known types along the graph's edges (local type
//! inference); generics that remain unbound fall back to the data type's
//! registered default split type. `unknown` return types produce fresh
//! unique instances, so they never pipeline into other split values but
//! still flow into generic arguments.
//!
//! Planning is interleaved with execution: the planner plans one stage,
//! the executor runs it, then the planner continues. This is how split
//! type constructors can depend on values produced by earlier stages
//! (e.g. the length of a filtered table): by the time the consuming
//! stage is planned, the value is materialized.
//!
//! Every value crossing a stage boundary is whole: the planner never
//! sees pieces. Values an earlier evaluation left held as pieces or
//! lineage (`Deferred` and `Lineage` outputs) are materialized before
//! planning starts when a pending call reads them.
//!
//! # Demand-driven materialization
//!
//! The paper's client library evaluates when a lazy value is
//! *accessed* (§4); which value was accessed is the [`Demand`] every
//! evaluation carries down to `finish_stage` and
//! `CachedPlan::bind_stage`. A return value's [`OutputKind`] follows
//! from the facts below, re-derived on every plan and every replay (so
//! the plan-cache fingerprint does not depend on them) except
//! *recomputable*, fixed when the call was captured
//! ([`ValueEntry::recomputable`](crate::graph::ValueEntry::recomputable)).
//! A value is *replayable* if it is recomputable, its split type merges
//! by concatenation, and each input of its call outlasts the stage
//! (it is ready, alive or read past the stage) or is a replayable value
//! the stage drops:
//!
//! | the value is … | kind |
//! |---|---|
//! | consumed by a pending node outside the stage | `Merge` |
//! | demanded by the read that triggered the evaluation | `Merge` |
//! | only alive (a `Future` exists, nobody asked), and replayable | `Lineage` |
//! | only alive, and not replayable | `Deferred` |
//! | dead | `Discard` |
//!
//! A `Lineage` output costs what a dead one costs: its pieces are
//! dropped, and the value keeps only the graph's record of how it was
//! made — calls that mutate nothing, over values that cannot change.
//! The first later read replays that record: the value's call, the
//! calls its stage dropped for it, and the replay of each input held as
//! lineage in turn, each once, in registration order, as un-annotated
//! library calls over whole arguments (the paper's soundness
//! contract). Concatenation makes that bit-equal to the merged pieces;
//! a reduction's partial sums would group differently, so it stays
//! `Deferred`. What a replay reads is pinned while the value is held
//! ([`DataflowGraph::pin_inputs`](crate::graph::DataflowGraph)), so a
//! replay never reaches past the stage that made the value and the
//! held values it reads. It costs the calls on one core where the
//! pieces cost a parallel write and a concat: reading every held value
//! costs about what merging them did, reading one deep in a chain of
//! held values costs more.
//! A `Deferred` output — over storage that can change, such as a
//! `SharedVec`, or a reduction — costs no placement allocation, no
//! worker-local pre-merge and no final concat: its range-tagged pieces
//! are stored on the value and merged then. Either is materialized by
//! the first read of its `Future`, before the next evaluation of a call
//! that reads it, or before a stage that writes storage in place.
//! `MozartContext::evaluate` demands every live handle
//! ([`Demand::AllLive`]) — the pre-demand behaviour.
//!
//! # Merge-target spares
//!
//! A cached plan also keeps, per stage output, at most one *spare*
//! placement-merge target: the merged value an earlier evaluation of
//! the plan produced there and has since let go of (its `Future`
//! dropped, the evaluation's end found it unreachable, or its context
//! went away). The next evaluation's stage takes the spare and asks the
//! split type's [`Placement::reuse`](crate::split::Placement::reuse)
//! whether it can be written over — only if nobody else holds its
//! storage *at that moment* and its layout is the one a fresh
//! allocation would have; otherwise it is dropped and the stage
//! allocates as if there had been none. A warm plan therefore stops
//! paying the allocation, zeroing and first-touch page faults of its
//! merge targets, which for buffers above the allocator's `mmap`
//! threshold recur on every evaluation.
//!
//! Parked memory is bounded by construction: one spare per cached
//! stage output, replaced (never accumulated) by a later release;
//! spares die with their plan entry on eviction or invalidation;
//! nothing is parked while [`membudget::pressured`](crate::membudget::pressured);
//! and a context without a plan cache never parks. Stages without a
//! placement output never consult the slots.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::annotation::{GenericId, SplitTypeExpr};
use crate::config::Config;
use crate::error::{Error, Result};
use crate::graph::{
    DataflowGraph, MergeOrigin, NodeId, SegmentShape, ValueId, ValueOrigin, WordMap, WordSet,
};
use crate::registry::default_instance_for;
use crate::split::{MergeStrategy, SplitInstance, Splitter};
use crate::value::{DataValue, IntValue};

/// How a merged stage output is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputKind {
    /// Collect the pieces each batch produced and merge them.
    Merge,
    /// The output aliases storage mutated in place; nothing to merge.
    InPlace,
    /// The output is not observable (dead intermediate); drop the pieces.
    Discard,
    /// A `Future` for the output is alive but the read that triggered
    /// the evaluation did not ask for it, and no later node consumes
    /// it: keep the pieces on the value and merge them when (if) the
    /// `Future` is read. See "Demand-driven materialization" in the
    /// module docs.
    Deferred,
    /// As `Deferred`, for a replayable value (module docs): drop the
    /// pieces as `Discard` does and recompute the value when (if) the
    /// `Future` is read.
    Lineage,
}

/// What the read that triggered an evaluation asks for — the set of
/// user-visible values that must be whole when it returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Demand {
    /// An explicit `MozartContext::evaluate`: every value the
    /// application still holds a `Future` for.
    AllLive,
    /// `Future::get` / `MozartContext::force_value` of this one value.
    Value(ValueId),
    /// A read of protected storage: in-place results only.
    Nothing,
}

impl Demand {
    /// Whether `value` is demanded, given whether the application still
    /// holds a `Future` for it.
    pub fn wants(self, value: ValueId, live: bool) -> bool {
        match self {
            Demand::AllLive => live,
            Demand::Value(v) => v == value,
            Demand::Nothing => false,
        }
    }
}

/// One value a stage produces.
#[derive(Clone)]
pub struct StageOutput {
    /// The produced value.
    pub value: ValueId,
    /// Its split type (used to merge).
    pub instance: SplitInstance,
    /// How to materialize it.
    pub kind: OutputKind,
}

/// An executable stage: an ordered run of pipelinable calls.
pub struct StagePlan {
    /// Nodes in pipeline order.
    pub nodes: Vec<NodeId>,
    /// Stage inputs: materialized values split per batch.
    pub inputs: Vec<(ValueId, SplitInstance)>,
    /// Materialized values passed whole to every batch (`_` split type).
    pub broadcast: Vec<ValueId>,
    /// Values the stage produces.
    pub outputs: Vec<StageOutput>,
    /// Dense slot index per stage-local value, assigned at plan time so
    /// the executor's driver loop addresses values by array offset
    /// instead of hashing `ValueId`s per batch (§5.2 overhead work).
    pub slots: SlotTable,
    /// Number of slots (`slots` maps into `0..num_slots`).
    pub num_slots: u32,
}

impl StagePlan {
    /// Slot of a stage-local value. Panics on values the planner never
    /// assigned, which would be a planning bug.
    pub fn slot_of(&self, value: ValueId) -> u32 {
        self.slots
            .get(value)
            .unwrap_or_else(|| panic!("value v{} has no stage slot", value.0))
    }
}

/// A `ValueId → u32` map over the window of value ids a node range
/// touches (`DataflowGraph::id_window`): a stage's slots, and the
/// canonical numbering of [`DataflowGraph::pending_shape`]. Ids inside
/// the window are addressed by offset; the few outside it — values
/// much older than the range that it reads — go to a small hashed
/// map, so the table's size follows the range, not the graph.
#[derive(Clone, Debug)]
pub struct SlotTable {
    /// Value id of `slots[0]`.
    base: u32,
    /// Slot per value id from `base` on, [`SlotTable::NONE`] where the
    /// value has none.
    slots: Vec<u32>,
    /// Slots of the ids outside `base..base + slots.len()`.
    outside: WordMap<ValueId, u32>,
}

impl SlotTable {
    const NONE: u32 = u32::MAX;

    /// An empty table over the ids `ids`.
    pub(crate) fn window(ids: std::ops::Range<u32>) -> SlotTable {
        SlotTable {
            base: ids.start,
            slots: vec![Self::NONE; ids.len()],
            outside: WordMap::default(),
        }
    }

    /// A table giving `ValueId(i)` the slot `slots[i]`, for plans built
    /// by hand (tests of the plan verifier).
    pub fn from_slots(slots: &[Option<u32>]) -> SlotTable {
        SlotTable {
            base: 0,
            slots: slots.iter().map(|s| s.unwrap_or(Self::NONE)).collect(),
            outside: WordMap::default(),
        }
    }

    fn offset(&self, value: ValueId) -> Option<usize> {
        let i = value.0.checked_sub(self.base)? as usize;
        (i < self.slots.len()).then_some(i)
    }

    /// The slot of `value`, if it has one.
    pub fn get(&self, value: ValueId) -> Option<u32> {
        match self.offset(value) {
            Some(i) => Some(self.slots[i]).filter(|&s| s != Self::NONE),
            None => self.outside.get(&value).copied(),
        }
    }

    /// Assign `value` to `slot`, replacing any earlier assignment.
    pub(crate) fn insert(&mut self, value: ValueId, slot: u32) {
        match self.offset(value) {
            Some(i) => self.slots[i] = slot,
            None => {
                self.outside.insert(value, slot);
            }
        }
    }

    /// Every assignment.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ValueId, u32)> + '_ {
        let inside = (self.base..)
            .zip(&self.slots)
            .filter(|&(_, &s)| s != Self::NONE)
            .map(|(v, &s)| (ValueId(v), s));
        inside.chain(self.outside.iter().map(|(&v, &s)| (v, s)))
    }
}

/// Incremental state while growing a stage. Its nodes are always a
/// contiguous run from `graph.next_unplanned`.
struct StageBuilder {
    nodes: Vec<NodeId>,
    /// Required split type per stage input value.
    input_types: WordMap<ValueId, SplitInstance>,
    input_order: Vec<ValueId>,
    broadcast: WordSet<ValueId>,
    broadcast_order: Vec<ValueId>,
    /// Split types of values produced within the stage (rets and
    /// in-place mut versions).
    produced: WordMap<ValueId, SplitInstance>,
    /// Total element count the stage's split inputs agreed on, once any
    /// split input exists. All split functions of a stage must produce
    /// the same number of splits (§3.4), so a call whose inputs have a
    /// different total cannot join the stage.
    total_elements: Option<u64>,
}

impl StageBuilder {
    fn new() -> Self {
        StageBuilder {
            nodes: Vec::new(),
            input_types: WordMap::default(),
            input_order: Vec::new(),
            broadcast: WordSet::default(),
            broadcast_order: Vec::new(),
            produced: WordMap::default(),
            total_elements: None,
        }
    }

    fn known_type(&self, v: ValueId) -> Option<&SplitInstance> {
        self.produced.get(&v).or_else(|| self.input_types.get(&v))
    }
}

/// Result of attempting to add one node to the stage being built.
enum AddOutcome {
    /// The node joined the stage.
    Added,
    /// The node's split types are incompatible with the current stage;
    /// it must start the next stage.
    Incompatible,
}

/// Plan the next stage starting at `graph.next_unplanned`.
///
/// Returns `None` when there are no pending nodes.
pub fn plan_next_stage(
    graph: &DataflowGraph,
    config: &Config,
    demand: Demand,
) -> Result<Option<StagePlan>> {
    if graph.fully_executed() {
        return Ok(None);
    }
    let mut b = StageBuilder::new();
    let mut cursor = graph.next_unplanned;
    while cursor < graph.nodes.len() {
        let node_id = NodeId(cursor as u32);
        match try_add(graph, &mut b, node_id)? {
            AddOutcome::Added => {
                cursor += 1;
                if !config.pipeline {
                    break; // "-pipe" ablation: one function per stage.
                }
            }
            AddOutcome::Incompatible if !b.nodes.is_empty() => break,
            AddOutcome::Incompatible => {
                // A single node must always be schedulable by itself;
                // reaching this indicates a broken annotation.
                return Err(Error::Pedantic(format!(
                    "node {} cannot be scheduled even in a fresh stage",
                    graph.nodes[cursor].annot.name
                )));
            }
        }
    }
    Ok(Some(finish_stage(graph, b, demand)))
}

/// Attempt to add `node_id` to the stage; on success, commits the node's
/// argument and output types to the builder.
fn try_add(graph: &DataflowGraph, b: &mut StageBuilder, node_id: NodeId) -> Result<AddOutcome> {
    let node = &graph.nodes[node_id.0 as usize];
    let annot = &node.annot;
    let args = graph.args(node);
    let captured = |i: usize| graph.captured_data(args[i]);

    let mut bindings: WordMap<GenericId, SplitInstance> = WordMap::default();

    // Pass 1: bind generics from types already flowing into this node —
    // types produced or bound within the stage.
    for (i, spec) in annot.args.iter().enumerate() {
        if let SplitTypeExpr::Generic(g) = &spec.ty {
            if let Some(t) = b.known_type(args[i]) {
                if t.terminal() {
                    // Partial results (reductions) must merge first.
                    return Ok(AddOutcome::Incompatible);
                }
                match bindings.get(g) {
                    None => {
                        let t = t.clone();
                        bindings.insert(*g, t);
                    }
                    Some(existing) if existing.same_type(t) => {}
                    Some(_) => return Ok(AddOutcome::Incompatible),
                }
            }
        }
    }

    // Pass 2: resolve every argument, staging changes so an incompatible
    // node leaves the builder untouched.
    let mut new_inputs: Vec<(ValueId, SplitInstance)> = Vec::new();
    let mut new_broadcast: Vec<ValueId> = Vec::new();
    let mut arg_instances: Vec<Option<SplitInstance>> = Vec::with_capacity(annot.args.len());

    // Classify a value use against the current stage + staged changes.
    let check_use = |b: &StageBuilder,
                     new_inputs: &mut Vec<(ValueId, SplitInstance)>,
                     vid: ValueId,
                     required: &SplitInstance|
     -> Result<bool> {
        if let Some(t) = b.known_type(vid) {
            // Partial results (reductions) must merge before use.
            return Ok(!t.terminal() && t.same_type(required));
        }
        if let Some((_, t)) = new_inputs.iter().find(|(v, _)| *v == vid) {
            return Ok(t.same_type(required));
        }
        if b.broadcast.contains(&vid) {
            // Used both whole and split within one stage: not pipelinable.
            return Ok(false);
        }
        // A fresh stage input must be materialized.
        if graph.value_data(vid).is_none() {
            return Ok(false);
        }
        new_inputs.push((vid, required.clone()));
        Ok(true)
    };

    for (i, spec) in annot.args.iter().enumerate() {
        let vid = args[i];
        match &spec.ty {
            SplitTypeExpr::Missing => {
                if b.produced.contains_key(&vid) {
                    // Produced inside the stage but needed whole: the
                    // producer must merge first.
                    return Ok(AddOutcome::Incompatible);
                }
                if b.input_types.contains_key(&vid) || new_inputs.iter().any(|(v, _)| *v == vid) {
                    // Split for another function but needed whole here.
                    return Ok(AddOutcome::Incompatible);
                }
                if graph.value_data(vid).is_none() {
                    return Ok(AddOutcome::Incompatible);
                }
                if !b.broadcast.contains(&vid) && !new_broadcast.contains(&vid) {
                    new_broadcast.push(vid);
                }
                arg_instances.push(None);
            }
            SplitTypeExpr::Concrete {
                splitter,
                ctor_args,
            } => {
                let inst = match construct_instance(splitter, ctor_args, args.len(), captured)? {
                    Some(i) => i,
                    None => return Ok(AddOutcome::Incompatible),
                };
                if !check_use(b, &mut new_inputs, vid, &inst)? {
                    return Ok(AddOutcome::Incompatible);
                }
                arg_instances.push(Some(inst));
            }
            SplitTypeExpr::Generic(g) => {
                let inst = match bindings.get(g) {
                    Some(t) => t.clone(),
                    None => {
                        // Unbound generic: default split for the data type
                        // (§5.1). The value must be materialized.
                        let data = match graph.value_data(vid) {
                            Some(d) => d.clone(),
                            None => return Ok(AddOutcome::Incompatible),
                        };
                        let t = default_instance_for(&data)?;
                        bindings.insert(*g, t.clone());
                        t
                    }
                };
                if !check_use(b, &mut new_inputs, vid, &inst)? {
                    return Ok(AddOutcome::Incompatible);
                }
                arg_instances.push(Some(inst));
            }
            SplitTypeExpr::Unknown { .. } => {
                return Err(Error::Pedantic(format!(
                    "{}: `unknown` is only valid in return position",
                    annot.name
                )));
            }
        }
    }

    // Resolve the return type.
    let ret_instance = match (&annot.ret, node.ret) {
        (Some(expr), Some(_)) => Some(match expr {
            SplitTypeExpr::Concrete {
                splitter,
                ctor_args,
            } => match construct_instance(splitter, ctor_args, args.len(), captured)? {
                Some(i) => i,
                None => return Ok(AddOutcome::Incompatible),
            },
            SplitTypeExpr::Generic(g) => match bindings.get(g) {
                Some(t) => t.clone(),
                None => {
                    return Err(Error::Pedantic(format!(
                        "{}: return generic S{g} is not bound by any argument",
                        annot.name
                    )))
                }
            },
            SplitTypeExpr::Unknown { merger } => SplitInstance::fresh_unknown(merger.clone()),
            SplitTypeExpr::Missing => {
                return Err(Error::Pedantic(format!(
                    "{}: return value cannot have the missing split type",
                    annot.name
                )))
            }
        }),
        (None, None) => None,
        _ => {
            return Err(Error::Pedantic(format!(
                "{}: annotation and node disagree on return value",
                annot.name
            )))
        }
    };

    // All split inputs of a stage must agree on the number of elements;
    // otherwise their split functions would produce different numbers of
    // splits (§3.4) and the pipeline would be ill-formed.
    let mut total = b.total_elements;
    for (vid, inst) in &new_inputs {
        let data = match graph.captured_data(*vid) {
            Some(d) => d,
            None => return Ok(AddOutcome::Incompatible),
        };
        let input_total = inst.splitter.info(data, &inst.params)?.total_elements;
        match total {
            None => total = Some(input_total),
            Some(t) if t == input_total => {}
            Some(_) => return Ok(AddOutcome::Incompatible),
        }
    }

    // Commit.
    b.total_elements = total;
    for (vid, inst) in new_inputs {
        b.input_types.insert(vid, inst);
        b.input_order.push(vid);
    }
    for vid in new_broadcast {
        b.broadcast.insert(vid);
        b.broadcast_order.push(vid);
    }
    for (i, mv) in graph.mut_outs(node) {
        if let Some(inst) = &arg_instances[i] {
            b.produced.insert(mv, inst.clone());
        }
    }
    if let (Some(rv), Some(inst)) = (node.ret, ret_instance) {
        b.produced.insert(rv, inst);
    }
    b.nodes.push(node_id);
    Ok(AddOutcome::Added)
}

thread_local! {
    /// Split types [`construct_instance`] built on this thread from one
    /// integer constructor argument, with their splitter and that
    /// integer. A few dozen at most: cleared when full.
    static BUILT: RefCell<Vec<(i64, SplitInstance)>> = const { RefCell::new(Vec::new()) };
}

/// Evaluate a concrete split type's constructor over the arguments of a
/// call with `arity` arguments, `arg` giving each one's data — for the
/// planner and for calls run at registration alike.
///
/// Returns `Ok(None)` when a constructor argument has no data yet (the
/// node must wait for the next stage). One constructed from a single
/// integer (`ArraySplit(size)`) is built once per thread and splitter
/// and reused: a constructor is a function of its arguments' values —
/// what the plan cache relies on for scalars too — and a call would
/// otherwise allocate its parameters every time.
pub(crate) fn construct_instance<'a>(
    splitter: &Arc<dyn Splitter>,
    ctor_args: &[usize],
    arity: usize,
    arg: impl Fn(usize) -> Option<&'a DataValue>,
) -> Result<Option<SplitInstance>> {
    if let Some(idx) = ctor_args.iter().find(|&&i| i >= arity) {
        return Err(Error::Constructor {
            split_type: splitter.name(),
            message: format!("constructor references argument {idx} beyond arity"),
        });
    }
    let int = match ctor_args {
        [i] => arg(*i)
            .and_then(|d| d.downcast_ref::<IntValue>())
            .map(|v| v.0),
        _ => None,
    };
    let built = |n: i64| {
        BUILT.with_borrow(|b| {
            let (_, inst) = b
                .iter()
                .find(|(m, inst)| *m == n && Arc::ptr_eq(&inst.splitter, splitter))?;
            Some(inst.clone())
        })
    };
    if let Some(inst) = int.and_then(built) {
        return Ok(Some(inst));
    }
    let params = match ctor_args {
        [i] => match arg(*i) {
            Some(data) => splitter.construct(&[data])?,
            None => return Ok(None),
        },
        _ => match ctor_args
            .iter()
            .map(|&i| arg(i))
            .collect::<Option<Vec<_>>>()
        {
            Some(data) => splitter.construct(&data)?,
            None => return Ok(None),
        },
    };
    let inst = SplitInstance::new(splitter.clone(), params);
    if let Some(n) = int {
        BUILT.with_borrow_mut(|b| {
            if b.len() == 64 {
                b.clear();
            }
            b.push((n, inst.clone()));
        });
    }
    Ok(Some(inst))
}

/// How a stage ending before node `stage_end` materializes return
/// value `value` of split type `instance` — the rule table of
/// "Demand-driven materialization" in the module docs. Shared by fresh
/// planning and plan-cache replay, which re-derives it from the
/// *current* liveness and demand. Called for the stage's return values
/// in node order; `dropped` collects those discarded that a replay may
/// recompute.
fn output_kind(
    graph: &DataflowGraph,
    stage_end: usize,
    value: ValueId,
    instance: &SplitInstance,
    demand: Demand,
    dropped: &mut Vec<ValueId>,
) -> OutputKind {
    let consumed_later = |v: ValueId| {
        graph.values[v.0 as usize]
            .last_consumer
            .is_some_and(|c| c.0 as usize >= stage_end && !graph.nodes[c.0 as usize].executed)
    };
    let entry = &graph.values[value.0 as usize];
    let live = entry.observable();
    if consumed_later(value) || demand.wants(value, live) {
        return OutputKind::Merge;
    }
    // Replayable: a whole call returns the bits the stage's pieces merge
    // to (a concatenation), over inputs that outlast the stage — data, a
    // live handle, a later reader — or that the stage drops and are
    // replayable themselves.
    let replayable = match entry.origin {
        ValueOrigin::Ret(n) if entry.recomputable => {
            graph.args(&graph.nodes[n.0 as usize]).iter().all(|&a| {
                let e = &graph.values[a.0 as usize];
                e.ready || e.observable() || consumed_later(a) || dropped.contains(&a)
            }) && matches!(instance.merge_strategy(), MergeStrategy::Concat { .. })
        }
        _ => false,
    };
    match (live, replayable) {
        (true, true) => OutputKind::Lineage,
        (true, false) => OutputKind::Deferred,
        (false, true) => {
            dropped.push(value);
            OutputKind::Discard
        }
        (false, false) => OutputKind::Discard,
    }
}

/// Close the stage: compute its outputs and their merge plans.
fn finish_stage(graph: &DataflowGraph, b: StageBuilder, demand: Demand) -> StagePlan {
    let first = b.nodes[0].0 as usize;
    let stage = first..first + b.nodes.len();
    let (mut outputs, mut dropped) = (Vec::new(), Vec::new());
    for node in &graph.nodes[stage.clone()] {
        for (_, mv) in graph.mut_outs(node) {
            if let Some(inst) = b.produced.get(&mv) {
                outputs.push(StageOutput {
                    value: mv,
                    instance: inst.clone(),
                    kind: OutputKind::InPlace,
                });
            }
        }
        if let Some(rv) = node.ret {
            let instance = b.produced.get(&rv).expect("ret type was committed");
            outputs.push(StageOutput {
                value: rv,
                instance: instance.clone(),
                kind: output_kind(graph, stage.end, rv, instance, demand, &mut dropped),
            });
        }
    }
    // Assign every stage-local value a dense slot: inputs and broadcast
    // values first (written per worker), then everything the nodes read
    // or produce. The executor indexes a flat `Vec` with these, keeping
    // hash lookups out of the per-batch driver loop.
    let mut slots = SlotTable::window(graph.id_window(stage.clone()));
    let mut num_slots = 0;
    let mut assign = |v: ValueId| {
        if slots.get(v).is_none() {
            slots.insert(v, num_slots);
            num_slots += 1;
        }
    };
    for &v in b.input_order.iter().chain(&b.broadcast_order) {
        assign(v);
    }
    for node in &graph.nodes[stage] {
        for &a in graph.args(node) {
            assign(a);
        }
        for (_, mv) in graph.mut_outs(node) {
            assign(mv);
        }
        if let Some(rv) = node.ret {
            assign(rv);
        }
    }

    StagePlan {
        nodes: b.nodes,
        inputs: b
            .input_order
            .iter()
            .map(|v| (*v, b.input_types[v].clone()))
            .collect(),
        broadcast: b.broadcast_order,
        outputs,
        slots,
        num_slots,
    }
}

// ---------------------------------------------------------------------
// Plan cache: memoized stage skeletons keyed by graph fingerprint.
// ---------------------------------------------------------------------

/// One stage input as recorded in a cached plan.
struct CachedInput {
    /// Canonical value number (see [`DataflowGraph::pending_shape`]).
    value: u32,
    /// The split instance as planned in the recording run.
    instance: SplitInstance,
    /// Whether the instance's parameters can be re-derived from the
    /// bound value via [`crate::split::Splitter::default_params`]. Set
    /// at record time iff re-derivation reproduced the planned
    /// parameters, so replays rebind against *current* data where the
    /// splitter supports it and fall back to recorded parameters where
    /// it does not (e.g. `MatrixSplit`, whose dimensions come from
    /// scalar arguments that the fingerprint already pins). Never set
    /// for a scalar from outside the segment: the fingerprint pins its
    /// value, so its recorded parameters are its current ones.
    rederive: bool,
}

/// One stage output as recorded in a cached plan. How a return value
/// materializes is *not* recorded: it depends on whether the
/// application still holds a `Future` for the value and on what the
/// replaying read demands, so bind time re-derives it through the same
/// `output_kind` rule [`finish_stage`] uses.
struct CachedOutput {
    value: u32,
    instance: SplitInstance,
    in_place: bool,
}

/// The memoized skeleton of one planned stage, with every value
/// reference rewritten to canonical numbers.
struct CachedStage {
    node_count: usize,
    inputs: Vec<CachedInput>,
    broadcast: Vec<u32>,
    outputs: Vec<CachedOutput>,
    slots: Vec<(u32, u32)>,
    num_slots: u32,
}

/// A fully recorded segment plan.
pub(crate) struct CachedPlan {
    stages: Vec<CachedStage>,
    /// Total nodes the stages consume; must equal the pending-node
    /// count of the graph being replayed (guards fingerprint
    /// collisions).
    pub(crate) nodes_total: usize,
    /// Parked merge targets, each with the origin it was released
    /// under, by `(stage, output)`: see "Merge-target spares" in the
    /// module docs. Living inside the entry is what makes them die
    /// with it.
    spares: Mutex<WordMap<(u32, u32), (MergeOrigin, DataValue)>>,
}

/// A stage's position in a cached (or being-recorded) plan: the key
/// prefix of its outputs' spare slots.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlanSite {
    pub(crate) fingerprint: u64,
    pub(crate) stage: u32,
}

/// Counters and size of a [`PlanCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Evaluations fully replayed from a cached plan.
    pub hits: u64,
    /// Evaluations that planned from scratch (no entry, shape changed,
    /// or a replay failed validation mid-way).
    pub misses: u64,
    /// Entries dropped because replay validation rejected them.
    pub invalidations: u64,
    /// Plans currently cached.
    pub entries: usize,
    /// Nominal bytes (split info API) of the merge targets currently
    /// parked for reuse, over all cached plans.
    pub parked_bytes: u64,
}

impl PlanCacheStats {
    /// Fraction of evaluations served from cache (0 when none ran).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A shareable cache of planned stage skeletons, keyed by the
/// [fingerprint](DataflowGraph::pending_shape) of a graph's pending
/// segment.
///
/// Attach one cache to many contexts (`MozartContext::attach_plan_cache`)
/// — typically one per serving process — and repeated, structurally
/// identical pipelines skip split-type inference and stage grouping
/// entirely: the planner returns the memoized skeletons, re-binding only
/// the materialized values (and re-validating element counts before
/// anything executes). A shape change — different array lengths, a
/// different split type, a different call sequence — changes the
/// fingerprint, so stale plans are not replayed; entries that fail
/// bind-time validation are additionally invalidated eagerly.
///
/// Each entry also holds at most one released placement-merge target
/// per stage output for the plan's next evaluation to write over (see
/// "Merge-target spares" in the module docs);
/// [`PlanCacheStats::parked_bytes`] reports their size.
///
/// Caching is refused (the segment simply plans fresh every time) when
/// a value's shape cannot be characterized (no default splitter, not a
/// known scalar) or when a planned split instance derives parameters
/// from values computed *inside* the evaluation that cannot be
/// re-derived from the bound data at replay time. Residual assumption:
/// a splitter whose `default_params` fails (e.g. matrix splits) must
/// take its constructor arguments from evaluation inputs — which the
/// fingerprint pins by value — not from computed intermediates attached
/// to a different input value.
pub struct PlanCache {
    entries: Mutex<WordMap<u64, Arc<CachedPlan>>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new(256)
    }
}

impl PlanCache {
    /// Create a cache bounded to `capacity` plans. At capacity, an
    /// arbitrary entry is evicted per insertion.
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            entries: Mutex::new(WordMap::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Snapshot of the cache counters.
    pub fn stats(&self) -> PlanCacheStats {
        let entries = lock(&self.entries);
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: entries.len(),
            parked_bytes: entries
                .values()
                .map(|plan| {
                    lock(&plan.spares)
                        .values()
                        .map(|(o, _)| o.bytes)
                        .sum::<u64>()
                })
                .sum(),
        }
    }

    pub(crate) fn lookup(&self, fingerprint: u64) -> Option<Arc<CachedPlan>> {
        lock(&self.entries).get(&fingerprint).cloned()
    }

    pub(crate) fn insert(&self, fingerprint: u64, plan: CachedPlan) {
        // Displaced entries (and the spares that die with them) are
        // freed after the map lock is released.
        let mut displaced = Vec::new();
        let mut entries = lock(&self.entries);
        if entries.len() >= self.capacity && !entries.contains_key(&fingerprint) {
            if let Some(&evict) = entries.keys().next() {
                displaced.extend(entries.remove(&evict));
            }
        }
        displaced.extend(entries.insert(fingerprint, Arc::new(plan)));
        drop(entries);
    }

    pub(crate) fn invalidate(&self, fingerprint: u64) {
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        let removed = lock(&self.entries).remove(&fingerprint);
        drop(removed);
    }

    /// Park a released placement target in the spare slot of the stage
    /// output it was allocated for, replacing (and freeing) whatever
    /// was parked there. Dropped instead when the plan is no longer
    /// cached or the process is under memory pressure.
    pub(crate) fn park(&self, origin: MergeOrigin, target: DataValue) {
        if crate::membudget::pressured() {
            return;
        }
        let Some(plan) = self.lookup(origin.fingerprint) else {
            return;
        };
        let replaced = lock(&plan.spares).insert((origin.stage, origin.output), (origin, target));
        drop(replaced);
    }

    /// Take the spare parked for output `output` of the stage at
    /// `site`, if any, with the origin it was released under. The slot
    /// is left empty: whoever takes a spare reuses it or drops it.
    pub(crate) fn take_spare(
        &self,
        site: PlanSite,
        output: u32,
    ) -> Option<(MergeOrigin, DataValue)> {
        let plan = self.lookup(site.fingerprint)?;
        let spare = lock(&plan.spares).remove(&(site.stage, output));
        spare
    }

    pub(crate) fn note_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Records the stages of one freshly planned segment for insertion into
/// a [`PlanCache`].
pub(crate) struct PlanRecorder {
    fingerprint: u64,
    /// ValueId → canonical number, from the segment shape.
    numbering: WordMap<ValueId, u32>,
    /// ValueIds produced outside the segment (fingerprint-pinned).
    external: WordSet<ValueId>,
    stages: Vec<CachedStage>,
    nodes_total: usize,
    /// Set if a stage referenced a value outside the canonical
    /// numbering, or planned a split instance whose parameters can
    /// neither be re-derived from data nor trusted across replays; the
    /// segment is then not recorded.
    poisoned: bool,
}

impl PlanRecorder {
    pub(crate) fn new(shape: &SegmentShape) -> PlanRecorder {
        PlanRecorder {
            fingerprint: shape.fingerprint,
            numbering: shape
                .values
                .iter()
                .enumerate()
                .map(|(c, v)| (*v, c as u32))
                .collect(),
            external: shape
                .values
                .iter()
                .zip(&shape.externals)
                .filter(|(_, &ext)| ext)
                .map(|(v, _)| *v)
                .collect(),
            stages: Vec::new(),
            nodes_total: 0,
            poisoned: false,
        }
    }

    pub(crate) fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Where the next recorded stage will sit in the plan.
    pub(crate) fn next_site(&self) -> PlanSite {
        PlanSite {
            fingerprint: self.fingerprint,
            stage: self.stages.len() as u32,
        }
    }

    /// Record one planned stage. `graph` supplies the data the planner
    /// bound, used to decide per input whether parameters are
    /// re-derivable at replay time.
    pub(crate) fn record(&mut self, plan: &StagePlan, graph: &DataflowGraph) {
        if self.poisoned {
            return;
        }
        let canon = |v: ValueId, poisoned: &mut bool| -> u32 {
            match self.numbering.get(&v) {
                Some(&c) => c,
                None => {
                    *poisoned = true;
                    0
                }
            }
        };
        let mut poisoned = false;
        let stage = CachedStage {
            node_count: plan.nodes.len(),
            inputs: plan
                .inputs
                .iter()
                .map(|(v, inst)| {
                    let external = self.external.contains(v);
                    let data = graph.value_data(*v);
                    // A scalar from outside the segment is pinned by
                    // value (see `pending_shape`): re-deriving from it
                    // can only reproduce the recorded parameters.
                    let pinned = external && data.is_some_and(crate::value::is_scalar);
                    let rederive = !pinned
                        && !inst.is_unknown()
                        && data
                            .and_then(|d| inst.splitter.default_params(d).ok())
                            .is_some_and(|p| p == *inst.params);
                    // A non-re-derivable instance over a value computed
                    // *inside* the segment (the interleaved-planning
                    // case: constructor args depending on earlier
                    // stages' results) carries parameters the
                    // fingerprint does not pin — refuse to cache the
                    // segment rather than risk replaying stale params.
                    if !rederive && !external {
                        poisoned = true;
                    }
                    CachedInput {
                        value: canon(*v, &mut poisoned),
                        instance: inst.clone(),
                        rederive,
                    }
                })
                .collect(),
            broadcast: plan
                .broadcast
                .iter()
                .map(|v| canon(*v, &mut poisoned))
                .collect(),
            outputs: plan
                .outputs
                .iter()
                .map(|o| CachedOutput {
                    value: canon(o.value, &mut poisoned),
                    instance: o.instance.clone(),
                    in_place: o.kind == OutputKind::InPlace,
                })
                .collect(),
            slots: plan
                .slots
                .iter()
                .map(|(v, s)| (canon(v, &mut poisoned), s))
                .collect(),
            num_slots: plan.num_slots,
        };
        self.poisoned = poisoned;
        self.nodes_total += plan.nodes.len();
        self.stages.push(stage);
    }

    /// Finish recording; `None` if the segment turned out unrecordable.
    pub(crate) fn finish(self) -> Option<CachedPlan> {
        if self.poisoned {
            return None;
        }
        Some(CachedPlan {
            stages: self.stages,
            nodes_total: self.nodes_total,
            spares: Mutex::new(WordMap::default()),
        })
    }
}

impl CachedPlan {
    /// Number of cached stages.
    pub(crate) fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Bind cached stage `idx` against the current graph state,
    /// producing an executable [`StagePlan`].
    ///
    /// Validates before anything runs: every input and broadcast value
    /// must be materialized, re-derived split parameters must agree on
    /// one element total across the stage's inputs. Any failure returns
    /// an error — the caller invalidates the entry and falls back to
    /// fresh planning, which is always correct because planning only
    /// depends on the graph's `next_unplanned` state.
    pub(crate) fn bind_stage(
        &self,
        idx: usize,
        graph: &DataflowGraph,
        canon: &[ValueId],
        demand: Demand,
    ) -> Result<StagePlan> {
        let cs = self.stages.get(idx).ok_or(Error::ValueUnavailable)?;
        let stage = graph.next_unplanned..graph.next_unplanned + cs.node_count;
        if stage.is_empty() || stage.end > graph.nodes.len() {
            return Err(Error::ValueUnavailable);
        }
        let get = |c: u32| -> Result<ValueId> {
            canon
                .get(c as usize)
                .copied()
                .ok_or(Error::ValueUnavailable)
        };

        // All split inputs must agree on one element total.
        let mut total: Option<u64> = None;
        let mut agree = |actual: u64| match total {
            None => {
                total = Some(actual);
                Ok(())
            }
            Some(expected) if expected == actual => Ok(()),
            Some(expected) => Err(Error::ElementMismatch { expected, actual }),
        };
        let mut inputs = Vec::with_capacity(cs.inputs.len());
        for ci in &cs.inputs {
            let vid = get(ci.value)?;
            let data = graph.value_data(vid).ok_or(Error::ValueUnavailable)?;
            let rederived = ci
                .rederive
                .then(|| ci.instance.splitter.default_params(data).ok())
                .flatten()
                // Unchanged parameters keep sharing the recorded ones.
                .filter(|params| *params != *ci.instance.params);
            let inst = match rederived {
                Some(params) => SplitInstance::new(ci.instance.splitter.clone(), params),
                None => ci.instance.clone(),
            };
            agree(inst.splitter.info(data, &inst.params)?.total_elements)?;
            inputs.push((vid, inst));
        }

        let mut broadcast = Vec::with_capacity(cs.broadcast.len());
        for c in &cs.broadcast {
            let vid = get(*c)?;
            graph.value_data(vid).ok_or(Error::ValueUnavailable)?;
            broadcast.push(vid);
        }

        let (mut outputs, mut dropped) = (Vec::with_capacity(cs.outputs.len()), Vec::new());
        for co in &cs.outputs {
            let vid = get(co.value)?;
            let kind = if co.in_place {
                OutputKind::InPlace
            } else {
                output_kind(graph, stage.end, vid, &co.instance, demand, &mut dropped)
            };
            outputs.push(StageOutput {
                value: vid,
                instance: co.instance.clone(),
                kind,
            });
        }

        let mut slots = SlotTable::window(graph.id_window(stage.clone()));
        for &(c, s) in &cs.slots {
            slots.insert(get(c)?, s);
        }

        Ok(StagePlan {
            nodes: stage.map(|i| NodeId(i as u32)).collect(),
            inputs,
            broadcast,
            outputs,
            slots,
            num_slots: cs.num_slots,
        })
    }
}
