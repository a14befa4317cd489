//! The lazily-captured dataflow graph (§4).
//!
//! Nodes are calls to annotated functions; values are the data flowing
//! between them. Values are versioned: when a call mutates an argument
//! in place (a `mut` argument), a new value version is created for the
//! same storage, which is how read-after-write dependencies between
//! black-box calls are represented without library cooperation.

use std::collections::HashMap;
use std::sync::{Arc, Weak};

use crate::annotation::{Annotation, SplitTypeExpr};
use crate::split::SplitForm;
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
    /// Captured from the application (already materialized).
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
/// same plan instead of freeing it (see "Merge-target spares" in
/// [`crate::planner`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeOrigin {
    /// Fingerprint of the plan whose stage produced the value.
    pub fingerprint: u64,
    /// Index of the producing stage in that plan.
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
    /// The value held *as pieces* (not merged) after its producing
    /// stage skipped the merge — set instead of `data`/`ready` when the
    /// planner chose `OutputKind::SplitForm` (consumed by the next
    /// stage's split phase) or `OutputKind::Deferred` (alive but not
    /// asked for). Merged on demand by the first read, or when a
    /// consumer turns out to need the whole value.
    pub held: Option<Arc<SplitForm>>,
    /// Set when `data` is a placement-merge target installed under an
    /// attached plan cache: where to park it on release.
    pub merge_origin: Option<MergeOrigin>,
    /// Nodes that read this value.
    pub consumers: Vec<NodeId>,
    /// Liveness token for application-held `Future`s (return values only).
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
    /// Value read for each argument, in annotation order.
    pub args: Vec<ValueId>,
    /// For each argument, the new value version it produces if `mut`.
    pub mut_out: Vec<Option<ValueId>>,
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
    /// Maps live storage identities to their latest value version.
    pub identity_map: HashMap<DataIdentity, ValueId>,
    /// Index of the first node not yet executed.
    pub next_unplanned: usize,
    /// Values stored as `OutputKind::Deferred` pieces and not known to
    /// be merged since — what a stage that mutates storage in place
    /// must flush first (the pieces may be views of that storage).
    pub deferred: Vec<ValueId>,
}

impl DataflowGraph {
    /// Add a value entry, returning its id.
    pub fn push_value(&mut self, entry: ValueEntry) -> ValueId {
        let id = ValueId(self.values.len() as u32);
        self.values.push(entry);
        id
    }

    /// Add a node, updating consumer lists, returning its id.
    pub fn push_node(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        for &arg in &node.args {
            self.values[arg.0 as usize].consumers.push(id);
        }
        self.nodes.push(node);
        id
    }

    /// Resolve an argument `DataValue` to a graph value.
    ///
    /// Lazy handles resolve to the value they reference. Materialized
    /// values resolve through the identity map (so the latest in-place
    /// version is used), or become new sources.
    pub fn resolve_arg(&mut self, dv: &DataValue) -> ValueId {
        if let Some(ident) = dv.identity() {
            if let Some(&vid) = self.identity_map.get(&ident) {
                return vid;
            }
            let vid = self.push_value(ValueEntry {
                origin: ValueOrigin::Source,
                data: Some(dv.clone()),
                ready: true,
                held: None,
                merge_origin: None,
                consumers: Vec::new(),
                user_token: None,
            });
            self.identity_map.insert(ident, vid);
            vid
        } else {
            // Identity-less (e.g. a fresh scalar): always a new source.
            self.push_value(ValueEntry {
                origin: ValueOrigin::Source,
                data: Some(dv.clone()),
                ready: true,
                held: None,
                merge_origin: None,
                consumers: Vec::new(),
                user_token: None,
            })
        }
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

    /// The piece set a value is held as, if its producing stage skipped
    /// the merge and the value has not been materialized since.
    pub fn held(&self, id: ValueId) -> Option<&Arc<SplitForm>> {
        let e = self.values.get(id.0 as usize)?;
        if e.ready {
            None
        } else {
            e.held.as_ref()
        }
    }

    /// [`held`](Self::held) pieces a stage can bind as a split input:
    /// only re-splittable sets qualify — `unknown` or concat-less
    /// pieces must be merged whole first.
    pub fn split_form(&self, id: ValueId) -> Option<&Arc<SplitForm>> {
        self.held(id).filter(|sf| sf.resplittable())
    }

    /// Drop the payload (data or held pieces) of return value `id`
    /// unless a pending call still reads it. The caller has established
    /// that no `Future` can observe the value; sources and mut-versions
    /// alias application storage and are never released. A released
    /// placement target is handed back with its origin for the caller
    /// to park.
    pub fn release(&mut self, id: ValueId) -> Option<(MergeOrigin, DataValue)> {
        release_value(&mut self.values, &self.nodes, id)
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
        let (values, nodes) = (&mut self.values, &self.nodes);
        for node in &nodes[first_node..self.next_unplanned] {
            for &id in node.args.iter().chain(&node.ret) {
                if !values[id.0 as usize].observable() {
                    if let Some((origin, target)) = release_value(values, nodes, id) {
                        park(origin, target);
                    }
                }
            }
        }
        self.deferred
            .retain(|id| values[id.0 as usize].held.is_some());
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

    /// Canonicalize the pending segment (the nodes registered but not
    /// yet executed) into a [`SegmentShape`]: a structural fingerprint
    /// plus a canonical numbering of every value the segment touches.
    ///
    /// Two graphs whose pending segments call the same annotations in
    /// the same dependency pattern over values of the same shapes (and,
    /// for scalars, the same values) produce equal fingerprints and
    /// matching canonical numberings, even across different contexts —
    /// this is what lets the [plan cache](crate::planner::PlanCache)
    /// replay a plan recorded in one session for a request arriving in
    /// another.
    ///
    /// Returns `None` when nothing is pending, or when some external
    /// value's shape cannot be characterized (no default splitter and
    /// not a known scalar) — such segments are simply not cacheable.
    pub fn pending_shape(&self) -> Option<SegmentShape> {
        if self.fully_executed() {
            return None;
        }
        let mut h = Fnv::new();
        let mut numbering: HashMap<ValueId, u32> = HashMap::new();
        let mut values: Vec<ValueId> = Vec::new();
        let mut externals: Vec<bool> = Vec::new();
        let mut intern =
            |v: ValueId, values: &mut Vec<ValueId>, externals: &mut Vec<bool>, ext: bool| {
                match numbering.get(&v) {
                    Some(&c) => (c, false),
                    None => {
                        let c = values.len() as u32;
                        numbering.insert(v, c);
                        values.push(v);
                        externals.push(ext);
                        (c, true)
                    }
                }
            };
        for node in &self.nodes[self.next_unplanned..] {
            // Annotation identity: the pointer (annotations are built
            // once and live in statics in the generated-wrapper idiom)
            // plus the name, as insurance against address reuse by
            // short-lived dynamic annotations.
            h.usize(Arc::as_ptr(&node.annot) as *const () as usize);
            h.bytes(node.annot.name.as_bytes());
            for (i, spec) in node.annot.args.iter().enumerate() {
                h.u64(spec.mutable as u64);
                hash_expr(&mut h, &spec.ty);
                let vid = node.args[i];
                let (c, first) = intern(vid, &mut values, &mut externals, true);
                h.u64(c as u64);
                if first {
                    // A value first seen as an argument was produced
                    // outside the segment: its shape is part of the key.
                    self.hash_external(&mut h, vid)?;
                }
            }
            for mv in node.mut_out.iter().flatten() {
                let (c, _) = intern(*mv, &mut values, &mut externals, false);
                h.u64(0x4d55_5456 ^ c as u64); // "MUTV"
            }
            match (&node.annot.ret, node.ret) {
                (Some(expr), Some(rv)) => {
                    hash_expr(&mut h, expr);
                    let (c, _) = intern(rv, &mut values, &mut externals, false);
                    h.u64(0x5245_5456 ^ c as u64); // "RETV"
                }
                _ => h.u64(0),
            }
        }
        h.u64(self.pending_nodes() as u64);
        Some(SegmentShape {
            fingerprint: h.finish(),
            values,
            externals,
        })
    }

    /// Hash the shape signature of a value produced outside the pending
    /// segment. Returns `None` (uncacheable) when the value has no data
    /// yet or no way to characterize its shape.
    fn hash_external(&self, h: &mut Fnv, vid: ValueId) -> Option<()> {
        use crate::value::{BoolValue, FloatValue, IntValue, StrValue};
        let data = self.captured_data(vid)?;
        h.bytes(data.type_name().as_bytes());
        // Scalars hash by value: they feed split type constructors
        // (array lengths, matrix dims) and function behavior directly.
        if let Some(i) = data.downcast_ref::<IntValue>() {
            h.u64(1);
            h.u64(i.0 as u64);
            return Some(());
        }
        if let Some(x) = data.downcast_ref::<FloatValue>() {
            h.u64(2);
            h.u64(x.0.to_bits());
            return Some(());
        }
        if let Some(b) = data.downcast_ref::<BoolValue>() {
            h.u64(3);
            h.u64(b.0 as u64);
            return Some(());
        }
        if let Some(s) = data.downcast_ref::<StrValue>() {
            h.u64(4);
            h.bytes(s.0.as_bytes());
            return Some(());
        }
        // Library values hash by their default split type's parameters —
        // the annotator's own shape characterization (lengths, rows,
        // dimensions). No default splitter means no shape key: refuse to
        // cache rather than risk replaying a stale plan.
        let inst = crate::registry::default_instance_for(data).ok()?;
        h.u64(5);
        h.bytes(inst.splitter.name().as_bytes());
        for p in &inst.params {
            h.u64(*p as u64);
        }
        Some(())
    }
}

/// [`DataflowGraph::release`] over the graph's fields, so a caller
/// iterating `nodes` can release values as it goes.
fn release_value(
    values: &mut [ValueEntry],
    nodes: &[Node],
    id: ValueId,
) -> Option<(MergeOrigin, DataValue)> {
    let e = &mut values[id.0 as usize];
    let pending = |c: &NodeId| !nodes[c.0 as usize].executed;
    if !matches!(e.origin, ValueOrigin::Ret(_)) || e.consumers.iter().any(pending) {
        return None;
    }
    let data = e.data.take();
    (e.held, e.ready) = (None, false);
    e.merge_origin.take().zip(data)
}

/// Canonical shape of a graph's pending segment: the plan-cache key and
/// the mapping from canonical value numbers back to this graph's
/// [`ValueId`]s (see [`DataflowGraph::pending_shape`]).
pub struct SegmentShape {
    /// Structural fingerprint of the segment.
    pub fingerprint: u64,
    /// Canonical number → [`ValueId`] in this graph, in first-use order.
    pub values: Vec<ValueId>,
    /// Per canonical number: whether the value was produced *outside*
    /// the segment (its shape — and, for scalars, its value — is pinned
    /// by the fingerprint). Internal values (returns and mut-versions of
    /// pending nodes) are only pinned structurally, so cached split
    /// parameters derived from them are not trustworthy unless they can
    /// be re-derived from the bound data at replay time.
    pub externals: Vec<bool>,
}

fn hash_expr(h: &mut Fnv, expr: &SplitTypeExpr) {
    match expr {
        SplitTypeExpr::Concrete {
            splitter,
            ctor_args,
        } => {
            h.u64(0x10);
            h.bytes(splitter.name().as_bytes());
            for a in ctor_args {
                h.u64(*a as u64);
            }
        }
        SplitTypeExpr::Generic(g) => {
            h.u64(0x20);
            h.u64(*g as u64);
        }
        SplitTypeExpr::Missing => h.u64(0x30),
        SplitTypeExpr::Unknown { merger } => {
            h.u64(0x40);
            h.bytes(merger.name().as_bytes());
        }
    }
}

/// FNV-1a, 64-bit: tiny, deterministic, dependency-free.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

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
