//! The lazily-captured dataflow graph (§4).
//!
//! Nodes are calls to annotated functions; values are the data flowing
//! between them. Values are versioned: when a call mutates an argument
//! in place (a `mut` argument), a new value version is created for the
//! same storage, which is how read-after-write dependencies between
//! black-box calls are represented without library cooperation.
//!
//! Capture allocates nothing per call beyond the graph's own growth: a
//! node's argument and mut-version ids live in one arena shared by all
//! nodes (read through [`DataflowGraph::args`] and
//! [`DataflowGraph::mut_outs`]), and a value records only its last
//! reader ([`ValueEntry::last_consumer`]), which is all liveness needs
//! because nodes execute in registration order.
//!
//! A return value also records at capture whether it is
//! [recomputable](ValueEntry::recomputable): what a live output no read
//! asked for needs to be kept as lineage instead of merged (see
//! "Demand-driven materialization" in [`crate::planner`]). A value held
//! as lineage *pins* what its replay reads — walking back through the
//! values its stage dropped, the first ready or held value on each path:
//! while it is held, releasing one of them is put off, so a replay never
//! reaches past the stage that made the value and the held values it
//! reads. Whatever lets a long-lived context drop the graph's hold on
//! sources and their versions (an open ROADMAP item) must honour the
//! same pins.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::{Arc, Weak};

use crate::annotation::Annotation;
use crate::error::{Error, Result};
use crate::planner::SlotTable;
use crate::value::{DataIdentity, DataValue};

/// Index of a value in the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

/// Index of a node (annotated call) in the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Where a value comes from.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // variant docs describe the fields
pub enum ValueOrigin {
    /// Captured from the application, or returned by a call that ran at
    /// registration (already materialized).
    Source,
    /// The return value of a node.
    Ret(NodeId),
    /// A new version of `prev` produced by node `node` mutating its
    /// argument `arg` in place.
    MutVersion {
        node: NodeId,
        arg: usize,
        prev: ValueId,
    },
}

/// Token proving the application still holds a `Future` for a value.
///
/// The executor merges a stage-internal result only if it is consumed by
/// a later node or the application can still observe it (the token's
/// `Arc` has outstanding clones); otherwise the pieces are discarded.
#[derive(Debug, Default)]
pub struct FutureToken;

/// Where a placement-merged value's storage came from: the
/// [`PlanCache`](crate::planner::PlanCache) spare slot of the stage
/// output it was allocated (or reused) for. Recorded when the executor
/// installs a placement target on a value, so that whichever path lets
/// go of the value can park the storage for the next evaluation of the
/// same segment instead of freeing it (see "Merge-target spares" in
/// [`crate::planner`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeOrigin {
    /// Fingerprint of the segment whose stage produced the value.
    pub fingerprint: u64,
    /// Index of the producing stage in that segment's evaluation.
    pub stage: u32,
    /// Index of the value among that stage's outputs.
    pub output: u32,
    /// Whether the target was resolved on the first result piece
    /// (`exemplar: Some(..)`) rather than at stage start — the call
    /// site that will ask
    /// [`Placement::reuse`](crate::split::Placement::reuse) for it.
    pub by_exemplar: bool,
    /// Nominal size of the merged value, from the split info API.
    pub bytes: u64,
}

/// A value in the dataflow graph.
pub struct ValueEntry {
    /// Provenance.
    pub origin: ValueOrigin,
    /// The value's data. For sources and mut-versions this is set at
    /// capture time (mut versions alias the mutated storage); for
    /// returned values it is filled in after the producing stage merges.
    pub data: Option<DataValue>,
    /// Whether `data` reflects completed computation.
    pub ready: bool,
    /// Set instead of `data`/`ready` when the producing stage kept the
    /// value as its lineage (`OutputKind::Lineage`: alive but not asked
    /// for) — the graph's nodes and inputs, replayed on demand by the
    /// first read, before the next evaluation of a call that reads it,
    /// or before a stage that writes storage in place. See
    /// "Demand-driven materialization" in [`crate::planner`].
    pub lineage: bool,
    /// Set at capture for a return value that can be recomputed from
    /// the graph alone: its call mutates no argument, and each argument
    /// is a recomputable value or a ready value the graph never lets go
    /// of (no `Future` token) whose storage cannot change — no
    /// [`protect_flag`](crate::value::DataObject::protect_flag), no
    /// [`stable_identity`](crate::value::DataObject::stable_identity),
    /// the purely functional values of [`crate::value::DataObject`]'s
    /// contract.
    pub recomputable: bool,
    /// Set when `data` is a placement-merge target installed under an
    /// attached plan cache: where to park it on release.
    pub merge_origin: Option<MergeOrigin>,
    /// The last node that reads this value. Nodes execute in
    /// registration order, so the value still has a pending reader iff
    /// this node has not executed, and every reader past a stage is
    /// found between the stage's end and this node.
    pub last_consumer: Option<NodeId>,
    /// Liveness token for application-held `Future`s (call results only;
    /// what makes a value releasable).
    pub user_token: Option<Weak<FutureToken>>,
}

impl ValueEntry {
    /// Whether the application still holds a `Future` for the value.
    pub fn observable(&self) -> bool {
        self.user_token
            .as_ref()
            .is_some_and(|w| w.strong_count() > 0)
    }
}

/// A captured annotated call.
pub struct Node {
    /// The call's annotation (split types, mutability, the function).
    pub annot: Arc<Annotation>,
    /// Offset of the node's value ids in [`DataflowGraph::node_ids`]:
    /// the value read for each argument, in annotation order, then the
    /// new version each `mut` argument produces, in argument order. Read
    /// them with [`DataflowGraph::args`] and [`DataflowGraph::mut_outs`].
    pub(crate) ids: u32,
    /// The return value, if the annotation declares one.
    pub ret: Option<ValueId>,
    /// Set once the node's stage has executed.
    pub executed: bool,
}

/// The dataflow graph of one context.
///
/// Values and nodes accumulate over the context's lifetime;
/// `next_unplanned` tracks the boundary between executed and pending
/// nodes. Registration order is a valid topological order because a call
/// can only reference values that already exist.
#[derive(Default)]
pub struct DataflowGraph {
    /// All values, indexed by [`ValueId`].
    pub values: Vec<ValueEntry>,
    /// All nodes, indexed by [`NodeId`].
    pub nodes: Vec<Node>,
    /// Every node's value ids, back to back in registration order (see
    /// [`Node::ids`]).
    pub(crate) node_ids: Vec<ValueId>,
    /// Maps live storage identities to their latest value version.
    pub(crate) identity_map: WordMap<DataIdentity, ValueId>,
    /// Index of the first node not yet executed.
    pub next_unplanned: usize,
    /// Values held as [lineage](ValueEntry::lineage) and not known to be
    /// made since — what a stage that mutates storage in place must
    /// flush first (a replay must read its inputs as they were
    /// recorded).
    pub deferred: Vec<ValueId>,
    /// Per value, how many values held as lineage read it (see
    /// [`pin_inputs`](Self::pin_inputs)); absent when none does.
    pub(crate) pins: WordMap<ValueId, u32>,
}

impl DataflowGraph {
    /// Add a value entry, returning its id.
    pub fn push_value(&mut self, entry: ValueEntry) -> ValueId {
        let id = ValueId(self.values.len() as u32);
        self.values.push(entry);
        id
    }

    /// Add a pending call to `annot` whose value ids are `ids` — the
    /// value read for each argument, in annotation order, then the new
    /// version each `mut` argument produces — making it the last
    /// consumer of every value it reads. Returns its id.
    pub fn push_node(
        &mut self,
        annot: Arc<Annotation>,
        ids: &[ValueId],
        ret: Option<ValueId>,
    ) -> NodeId {
        let at = self.node_ids.len() as u32;
        self.node_ids.extend_from_slice(ids);
        self.push_captured(annot, at, ret)
    }

    /// [`push_node`](Self::push_node) for a call whose ids capture
    /// already wrote to [`node_ids`](Self::node_ids) from `ids` on.
    pub(crate) fn push_captured(
        &mut self,
        annot: Arc<Annotation>,
        ids: u32,
        ret: Option<ValueId>,
    ) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let node = Node {
            annot,
            ids,
            ret,
            executed: false,
        };
        let mut pure = !node.annot.args.iter().any(|a| a.mutable);
        for &arg in node_args(&self.node_ids, &node) {
            let e = &mut self.values[arg.0 as usize];
            e.last_consumer = Some(id);
            pure &= e.recomputable
                || (e.ready
                    && e.user_token.is_none()
                    && e.data.as_ref().is_some_and(DataValue::immutable));
        }
        if let Some(rv) = ret {
            self.values[rv.0 as usize].recomputable = pure;
        }
        self.nodes.push(node);
        id
    }

    /// The values `node` reads, one per argument, in annotation order.
    pub fn args(&self, node: &Node) -> &[ValueId] {
        node_args(&self.node_ids, node)
    }

    /// The new versions `node` writes: `(argument index, version)` for
    /// each `mut` argument, in argument order.
    pub fn mut_outs<'a>(&'a self, node: &'a Node) -> impl Iterator<Item = (usize, ValueId)> + 'a {
        let versions = &self.node_ids[node.ids as usize + node.annot.args.len()..];
        let mutable = node
            .annot
            .args
            .iter()
            .enumerate()
            .filter(|(_, a)| a.mutable);
        mutable.map(|(i, _)| i).zip(versions.iter().copied())
    }

    /// The window of value ids a [`SlotTable`] over the (non-empty) node
    /// range `nodes` spans, ending one past the largest id the range
    /// reads or produces. It starts at the oldest id the range reads if
    /// that at most doubles it, else at the first value the range
    /// produces (every mut-version and return it creates is at or above
    /// it). Its size follows the range, not the graph: the few older
    /// values a range reads — inputs a long-lived context has held since
    /// its first evaluation — fall below it and take the table's
    /// fallback, while a young graph needs none.
    pub(crate) fn id_window(&self, nodes: Range<usize>) -> Range<u32> {
        let run_end = |i: usize| {
            self.nodes
                .get(i + 1)
                .map_or(self.node_ids.len(), |n| n.ids as usize)
        };
        // Ids grow in capture order: the first value the range produces
        // is the first mut-version, else the return, of its first node
        // with an output.
        let first = nodes.clone().find_map(|i| {
            let node = &self.nodes[i];
            let versions = node.ids as usize + node.annot.args.len()..run_end(i);
            self.node_ids[versions].first().copied().or(node.ret)
        });
        let ids = &self.node_ids[self.nodes[nodes.start].ids as usize..run_end(nodes.end - 1)];
        let rets = self.nodes[nodes].iter().filter_map(|n| n.ret);
        let (oldest, hi) = ids
            .iter()
            .copied()
            .chain(rets)
            .fold((u32::MAX, 0), |(lo, hi), v| (lo.min(v.0), hi.max(v.0 + 1)));
        let first = first.map_or(hi, |v| v.0);
        let oldest = oldest.min(first);
        if first - oldest <= hi - first {
            oldest..hi
        } else {
            first..hi
        }
    }

    /// Resolve an argument `DataValue` to a graph value.
    ///
    /// Lazy handles resolve to the value they reference. Materialized
    /// values resolve through the identity map (so the latest in-place
    /// version is used), or become new sources.
    pub fn resolve_arg(&mut self, dv: &DataValue) -> ValueId {
        let ident = dv.identity();
        if let Some(&vid) = ident.as_ref().and_then(|i| self.identity_map.get(i)) {
            return vid;
        }
        let vid = self.push_value(ValueEntry {
            origin: ValueOrigin::Source,
            data: Some(dv.clone()),
            ready: true,
            lineage: false,
            recomputable: false,
            merge_origin: None,
            last_consumer: None,
            user_token: None,
        });
        // Identity-less values (e.g. a fresh scalar) are always a new
        // source.
        if let Some(ident) = ident {
            self.identity_map.insert(ident, vid);
        }
        vid
    }

    /// Whether all registered nodes have executed.
    pub fn fully_executed(&self) -> bool {
        self.next_unplanned >= self.nodes.len()
    }

    /// Number of pending (unexecuted) nodes.
    pub fn pending_nodes(&self) -> usize {
        self.nodes.len() - self.next_unplanned
    }

    /// Data for a value, if it has been produced.
    pub fn value_data(&self, id: ValueId) -> Option<&DataValue> {
        let e = self.values.get(id.0 as usize)?;
        if e.ready {
            e.data.as_ref()
        } else {
            None
        }
    }

    /// Whether its producing stage kept the value as lineage and the
    /// value has not been made since.
    pub fn held(&self, id: ValueId) -> bool {
        self.values
            .get(id.0 as usize)
            .is_some_and(|e| e.lineage && !e.ready)
    }

    /// A lazy argument's value at registration: its data once produced,
    /// `None` while an evaluation can still produce it (its call is
    /// pending, or it is held as lineage), and
    /// [`Error::ValueUnavailable`] once it is gone for good — its
    /// `Future` was dropped and the value released, or an evaluation
    /// discarded it — or was never a value of this graph.
    pub(crate) fn lazy_arg(&self, id: ValueId) -> Result<Option<&DataValue>> {
        let e = self
            .values
            .get(id.0 as usize)
            .ok_or(Error::ValueUnavailable)?;
        if let Some(data) = self.value_data(id) {
            return Ok(Some(data));
        }
        let pending = match e.origin {
            ValueOrigin::Ret(node) => !self.nodes[node.0 as usize].executed,
            _ => e.data.is_some(),
        };
        if pending || e.lineage {
            Ok(None)
        } else {
            Err(Error::ValueUnavailable)
        }
    }

    /// Drop the payload (data or lineage) of result value `id` unless a
    /// pending call still reads it or the replay of a value held as
    /// lineage does (a pin: the last one to go releases it). A released
    /// lineage value is gone, as released data is, and lets go of its
    /// own pins. The caller has established that no `Future` can observe
    /// the value. Only values handed out behind a `Future` are released:
    /// sources and mut-versions alias application storage. Released
    /// placement targets go to `park` with their origin.
    pub fn release(&mut self, id: ValueId, mut park: impl FnMut(MergeOrigin, DataValue)) {
        release_value(self, id, &mut park);
    }

    /// What a replay of value `id`, held as lineage, reads without
    /// making it: walking back from its call through the values its
    /// stage dropped, the first value on each path that is ready or
    /// held. A dropped value has no reader past its stage, so the walk
    /// stays in the stage that made `id`.
    fn replay_inputs(&self, id: ValueId) -> Vec<ValueId> {
        let (mut inputs, mut dropped, mut walked) = (Vec::new(), vec![id], Vec::new());
        while let Some(v) = dropped.pop() {
            let ValueOrigin::Ret(n) = self.values[v.0 as usize].origin else {
                continue;
            };
            for &a in node_args(&self.node_ids, &self.nodes[n.0 as usize]) {
                let e = &self.values[a.0 as usize];
                if e.ready || e.lineage {
                    inputs.push(a);
                } else if !walked.contains(&a) {
                    walked.push(a);
                    dropped.push(a);
                }
            }
        }
        inputs
    }

    /// Pin what a replay of value `id` reads ([`replay_inputs`]), now
    /// that `id` is held as lineage: none of it is released before `id`
    /// is made or released ([`unpin_inputs`](Self::unpin_inputs)).
    ///
    /// [`replay_inputs`]: Self::replay_inputs
    pub(crate) fn pin_inputs(&mut self, id: ValueId) {
        for a in self.replay_inputs(id) {
            *self.pins.entry(a).or_default() += 1;
        }
    }

    /// Undo [`pin_inputs`](Self::pin_inputs) for value `id`, no longer
    /// held as lineage, releasing each input that was kept only by pins.
    pub(crate) fn unpin_inputs(
        &mut self,
        id: ValueId,
        park: &mut impl FnMut(MergeOrigin, DataValue),
    ) {
        for a in self.replay_inputs(id) {
            let Some(pins) = self.pins.get_mut(&a) else {
                continue;
            };
            *pins -= 1;
            if *pins == 0 {
                self.pins.remove(&a);
                if !self.values[a.0 as usize].observable() {
                    release_value(self, a, park);
                }
            }
        }
    }

    /// [`release`](Self::release) every return value the nodes executed
    /// since `first_node` produced or read that no `Future` observes —
    /// run at the end of each evaluation, so a long-lived context holds
    /// only what the application can still reach. Released placement
    /// targets go to `park`.
    pub fn release_unreachable(
        &mut self,
        first_node: usize,
        mut park: impl FnMut(MergeOrigin, DataValue),
    ) {
        let mut unobserved = |graph: &mut Self, id: ValueId| {
            if !graph.values[id.0 as usize].observable() {
                release_value(graph, id, &mut park);
            }
        };
        for n in first_node..self.next_unplanned {
            let at = self.nodes[n].ids as usize;
            for i in at..at + self.nodes[n].annot.args.len() {
                unobserved(self, self.node_ids[i]);
            }
            if let Some(id) = self.nodes[n].ret {
                unobserved(self, id);
            }
        }
        let values = &self.values;
        self.deferred.retain(|id| values[id.0 as usize].lineage);
    }

    /// Every placement target the graph still holds, with its origin —
    /// what a context parks when it is dropped.
    pub fn take_merge_targets(&mut self) -> impl Iterator<Item = (MergeOrigin, DataValue)> + '_ {
        self.values.iter_mut().filter_map(|e| {
            let origin = e.merge_origin.take()?;
            Some((origin, e.data.take()?))
        })
    }

    /// Data captured for a value even if its producing call has not run.
    ///
    /// Sources and in-place mut-versions have captured handles whose
    /// *shape* is already correct (in-place mutation cannot change it),
    /// which is all split type constructors may inspect (§3.2: "the
    /// split type ... does not depend on the matrix data itself").
    /// Pending returned values have no captured data.
    pub fn captured_data(&self, id: ValueId) -> Option<&DataValue> {
        self.values.get(id.0 as usize)?.data.as_ref()
    }

    /// The structural fingerprint of the pending segment (the nodes
    /// registered but not yet executed): the key of its
    /// [plan cache](crate::planner::PlanCache) entry.
    ///
    /// Two graphs whose pending segments call the same annotations in
    /// the same dependency pattern over values of the same shapes (and,
    /// for scalars, the same values) produce equal fingerprints, even
    /// across different contexts — this is what lets a request arriving
    /// in one session write over the merge targets another released.
    ///
    /// Returns `None` when nothing is pending, or when some external
    /// value's shape cannot be characterized (no default splitter and
    /// not a known scalar) — such segments have no entry.
    ///
    /// The walk is word-hashed (`WordHasher`): per node, the
    /// annotation's address and its [signature](Annotation) (hashed
    /// once when it was built), then one word per value reference, by
    /// its canonical number — the order in which the segment first
    /// touches it. Canonical numbers live in a [`SlotTable`] over the
    /// segment's id window, so only values much older than the segment
    /// hash their id.
    pub fn pending_shape(&self) -> Option<u64> {
        if self.fully_executed() {
            return None;
        }
        let pending = self.next_unplanned..self.nodes.len();
        let mut canon = SlotTable::window(self.id_window(pending.clone()));
        let mut next = 0;
        let mut intern = |v: ValueId| {
            if let Some(c) = canon.get(v) {
                return (c as u64, false);
            }
            canon.insert(v, next);
            next += 1;
            (next as u64 - 1, true)
        };
        let mut h = WordHasher::default();
        for node in &self.nodes[pending] {
            // Annotation identity: the pointer (annotations are built
            // once and live in statics in the generated-wrapper idiom)
            // plus the signature — everything the planner reads from
            // the annotation, and insurance against address reuse by
            // short-lived dynamic annotations.
            h.word(Arc::as_ptr(&node.annot) as *const () as usize as u64);
            h.word(node.annot.signature);
            for &vid in self.args(node) {
                let (c, first) = intern(vid);
                h.word(c);
                if first {
                    // A value first seen as an argument was produced
                    // outside the segment: its shape is part of the key.
                    self.hash_external(&mut h, vid)?;
                }
            }
            for (_, mv) in self.mut_outs(node) {
                h.word(0x4d55_5456 ^ intern(mv).0); // "MUTV"
            }
            match node.ret {
                Some(rv) => h.word(0x5245_5456 ^ intern(rv).0), // "RETV"
                None => h.word(0),
            }
        }
        h.word(self.pending_nodes() as u64);
        Some(h.finish())
    }

    /// Hash the shape signature of a value produced outside the pending
    /// segment. Returns `None` (no fingerprint) when the value has no
    /// data yet or no way to characterize its shape.
    fn hash_external(&self, h: &mut WordHasher, vid: ValueId) -> Option<()> {
        use crate::value::{BoolValue, FloatValue, IntValue, StrValue};
        let data = self.captured_data(vid)?;
        // Scalars hash by value: they feed split type constructors
        // (array lengths, matrix dims) and function behavior directly.
        if let Some(i) = data.downcast_ref::<IntValue>() {
            h.word(1);
            h.word(i.0 as u64);
            return Some(());
        }
        if let Some(x) = data.downcast_ref::<FloatValue>() {
            h.word(2);
            h.word(x.0.to_bits());
            return Some(());
        }
        if let Some(b) = data.downcast_ref::<BoolValue>() {
            h.word(3);
            h.word(b.0 as u64);
            return Some(());
        }
        if let Some(s) = data.downcast_ref::<StrValue>() {
            h.word(4);
            h.bytes(s.0.as_bytes());
            return Some(());
        }
        // Library values hash by their type and their default split
        // type's parameters — the annotator's own shape characterization
        // (lengths, rows, dimensions). No default splitter means no shape
        // key, and so no fingerprint.
        let splitter = crate::registry::default_splitter_for(data)?;
        let params = splitter.default_params(data).ok()?;
        h.word(5);
        h.bytes(data.type_name().as_bytes());
        h.bytes(splitter.name().as_bytes());
        for p in params {
            h.word(p as u64);
        }
        Some(())
    }
}

/// [`DataflowGraph::args`] over the arena alone, for callers holding
/// other graph fields mutably.
fn node_args<'a>(node_ids: &'a [ValueId], node: &Node) -> &'a [ValueId] {
    let at = node.ids as usize;
    &node_ids[at..at + node.annot.args.len()]
}

/// [`DataflowGraph::release`] over the graph's fields, so a caller
/// iterating `nodes` can release values as it goes.
fn release_value(
    graph: &mut DataflowGraph,
    id: ValueId,
    park: &mut impl FnMut(MergeOrigin, DataValue),
) {
    let nodes = &graph.nodes;
    let e = &mut graph.values[id.0 as usize];
    let pending_reader = e
        .last_consumer
        .is_some_and(|c| !nodes[c.0 as usize].executed);
    if e.user_token.is_none() || pending_reader || graph.pins.contains_key(&id) {
        return;
    }
    let data = e.data.take();
    let lineage = std::mem::take(&mut e.lineage);
    e.ready = false;
    if let Some((origin, target)) = e.merge_origin.take().zip(data) {
        park(origin, target);
    }
    if lineage {
        graph.unpin_inputs(id, park);
    }
}

/// The runtime's one hash function, for the plan-cache fingerprint and
/// the maps the warm path touches (storage identities, plan-cache entries,
/// default splitters): a 64-bit word at a time, each folded in with one
/// 64×64→128-bit multiply (the folded-multiply mix of wyhash and
/// foldhash) — where byte-at-a-time FNV paid a multiply per byte and
/// SipHash its rounds per word. Deterministic and unkeyed: every key is
/// the runtime's own ids and shapes, never chosen by a remote peer.
#[derive(Clone, Copy)]
pub(crate) struct WordHasher(u64);

impl Default for WordHasher {
    fn default() -> Self {
        WordHasher(0x243f_6a88_85a3_08d3)
    }
}

impl WordHasher {
    #[inline]
    pub(crate) fn word(&mut self, w: u64) {
        let p = u128::from(self.0 ^ w) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (p as u64) ^ (p >> 64) as u64;
    }

    /// The length, then the bytes in little-endian words (the last one
    /// zero-padded).
    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }
}

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.bytes(bytes);
    }

    fn write_u32(&mut self, v: u32) {
        self.word(v.into());
    }

    fn write_u64(&mut self, v: u64) {
        self.word(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.word(v as u64);
    }
}

/// A `HashMap` keyed through [`WordHasher`].
pub(crate) type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// A `HashSet` keyed through [`WordHasher`].
pub(crate) type WordSet<K> = HashSet<K, BuildHasherDefault<WordHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::IntValue;

    #[test]
    fn resolve_arg_reuses_identity() {
        let mut g = DataflowGraph::default();
        let v = DataValue::new(IntValue(1));
        let a = g.resolve_arg(&v);
        let b = g.resolve_arg(&v.clone());
        assert_eq!(a, b);
        let other = DataValue::new(IntValue(1));
        let c = g.resolve_arg(&other);
        assert_ne!(a, c);
    }

    #[test]
    fn lazy_args_have_no_identity_path() {
        let mut g = DataflowGraph::default();
        // A lazy handle is resolved by the context before reaching
        // resolve_arg; here we just confirm identity-less values fork.
        let v = DataValue::Lazy {
            ctx_id: 0,
            value: ValueId(0),
        };
        assert!(v.identity().is_none());
        let a = g.resolve_arg(&DataValue::new(IntValue(3)));
        assert!(g.value_data(a).is_some());
    }

    #[test]
    fn pending_node_accounting() {
        let g = DataflowGraph::default();
        assert!(g.fully_executed());
        assert_eq!(g.pending_nodes(), 0);
    }
}
