//! The machinery of calls below the work floor (see "Calls below the
//! work floor" in [`crate::context`]): how such a call takes each
//! argument, decided once per call shape and kept on its annotation,
//! and the whole-range pieces it runs on, kept per context until the
//! context's next evaluation.

use std::any::TypeId;
use std::borrow::Cow;
use std::hash::Hasher;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::annotation::{Annotation, ArgSpec, GenericId, SplitTypeExpr};
use crate::buffer::{SharedVec, VecValue};
use crate::config::Config;
use crate::error::Result;
use crate::executor::catch_phase;
use crate::faultinject::FaultPhase;
use crate::graph::{DataflowGraph, WordHasher, WordMap};
use crate::planner::construct_instance;
use crate::registry::{default_instance_for, generation};
use crate::split::SplitInstance;
use crate::value::{Arg, DataIdentity, DataValue, FloatValue, IntValue};

/// Call shapes one annotation keeps a decision for. A full memo is
/// emptied and refills from the calls that follow.
const SHAPES: usize = 64;

/// Whole pieces one context keeps between evaluations. A full memo is
/// emptied; each entry holds its storage alive, so the bound is also
/// what a long-lived context that never evaluates can hold.
const PIECES: usize = 32;

/// How a call run at registration hands one argument to its function.
enum How {
    /// Whole (the `_` split type).
    Broadcast,
    /// As its piece `0..total` of `inst`. `key` names the split type
    /// among kept pieces; `stable` is
    /// [`Splitter::whole_piece_stable`](crate::split::Splitter::whole_piece_stable).
    Split {
        inst: SplitInstance,
        key: u64,
        stable: bool,
    },
    /// As the piece of an earlier argument over the same storage: one
    /// stage input serves both, as the planner's slots would.
    SameAs(usize),
    /// As this piece, made when the call was decided: a scalar split by
    /// a stable split type is a function of the shape, which holds its
    /// value.
    Fixed(DataValue),
}

impl How {
    fn split(inst: SplitInstance) -> How {
        let mut h = WordHasher::default();
        h.bytes(inst.splitter.name().as_bytes());
        h.word(inst.unique.unwrap_or(u64::MAX));
        for &p in inst.params.iter() {
            h.word(p as u64);
        }
        How::Split {
            stable: inst.splitter.whole_piece_stable(),
            key: h.finish(),
            inst,
        }
    }

    /// The split type argument `i` of `how` is split by, if it is split.
    fn split_type(how: &[How], i: usize) -> Option<&SplitInstance> {
        match &how[i] {
            How::Split { inst, .. } => Some(inst),
            How::SameAs(j) => How::split_type(how, *j),
            How::Broadcast | How::Fixed(_) => None,
        }
    }
}

/// How a call of one shape runs at registration.
pub(crate) struct Plan {
    /// Per argument, in annotation order.
    how: Vec<How>,
    /// The return value's split type, if the annotation declares one.
    pub(crate) ret: Option<SplitInstance>,
    /// The element count every split argument agrees on.
    pub(crate) total: u64,
    /// `elem_size_bytes` summed over the split arguments.
    elem_bytes: u64,
}

impl Plan {
    /// Nominal bytes split: `total · elem_size_bytes` summed over the
    /// split arguments.
    pub(crate) fn bytes(&self) -> u64 {
        self.total.saturating_mul(self.elem_bytes)
    }

    /// The floor itself: the split arguments' nominal bytes are at most
    /// 1/16 of L2. The batch heuristic then gives them one batch
    /// (`l2_bytes / elem_bytes ≥ 16 · total`), as `batch_override` is
    /// unset at the floor.
    fn fits(&self, config: &Config) -> bool {
        self.total > 0 && self.bytes().saturating_mul(16) <= config.l2_bytes
    }

    /// Nominal size of the merged return value, as a stage output
    /// counts it in [`PhaseStats::bytes_merged`](crate::PhaseStats) (0
    /// for `unknown`).
    pub(crate) fn merged_bytes(&self, merged: &DataValue) -> u64 {
        let inst = self.ret.as_ref().filter(|i| !i.is_unknown());
        let info = inst.and_then(|i| i.splitter.info(merged, &i.params).ok());
        info.map_or(0, |i| i.total_elements.saturating_mul(i.elem_size_bytes))
    }
}

/// The decision for one call shape.
struct Decision {
    /// The shape, to tell two shapes with one hash apart.
    shape: Box<[u64]>,
    /// The registry generation a default split type was looked up at,
    /// if one was: a later registration may have changed it.
    registry: Option<u64>,
    /// `None` when a call of this shape is captured whatever the floor:
    /// an `unknown` argument, disagreeing element totals, one storage
    /// needed whole and split, or anything the planner would reject, so
    /// that it fails where it always has.
    plan: Option<Arc<Plan>>,
}

/// The decisions of one annotation, by call shape: each argument's kind
/// with its length (arrays), the value of each scalar the decision reads
/// (one that is split, or that a constructor takes), and which arguments
/// share storage. That is all a decision reads from the arguments, by
/// the contract of [`Splitter::construct`](crate::split::Splitter::construct)
/// and [`Splitter::info`](crate::split::Splitter::info). A scalar taken
/// whole that no constructor reads counts by its kind alone, so calls
/// that differ only in such a scalar share a decision. A call with any
/// other kind of argument decides afresh and keeps nothing.
pub(crate) struct Decisions {
    /// Per argument: whether its value, if a scalar, is part of the
    /// shape.
    valued: Box<[bool]>,
    map: Mutex<WordMap<u64, Decision>>,
}

impl Decisions {
    pub(crate) fn new(args: &[ArgSpec], ret: Option<&SplitTypeExpr>) -> Decisions {
        let ctors: Vec<usize> = args
            .iter()
            .map(|a| &a.ty)
            .chain(ret)
            .flat_map(|ty| match ty {
                SplitTypeExpr::Concrete { ctor_args, .. } => ctor_args.as_slice(),
                _ => &[],
            })
            .copied()
            .collect();
        let valued = args
            .iter()
            .enumerate()
            .map(|(i, a)| !matches!(a.ty, SplitTypeExpr::Missing) || ctors.contains(&i));
        Decisions {
            valued: valued.collect(),
            map: Mutex::default(),
        }
    }

    /// The plan for `shape`, if it was decided and nothing it looked up
    /// has changed since. The outer `None` is a miss.
    fn get(&self, hash: u64, shape: &[u64]) -> Option<Option<Arc<Plan>>> {
        let map = self.map.lock();
        let d = map.get(&hash)?;
        (*d.shape == *shape && d.registry.is_none_or(|g| g == generation())).then(|| d.plan.clone())
    }

    fn insert(&self, hash: u64, decision: Decision) {
        let mut map = self.map.lock();
        if map.len() >= SHAPES && !map.contains_key(&hash) {
            map.clear();
        }
        map.insert(hash, decision);
    }
}

/// A call argument as the floor reads it.
#[derive(Clone, Copy)]
struct Seen<'a> {
    kind: Kind<'a>,
    /// The value handle the caller passed, or the data of the ready
    /// lazy value it named; `None` for a buffer or scalar passed as is.
    value: Option<&'a DataValue>,
}

#[derive(Clone, Copy)]
enum Kind<'a> {
    Vec(&'a SharedVec<f64>),
    Int(i64),
    Float(f64),
    /// Any other data.
    Other,
}

/// What keeps a kept piece's storage alive, so that its address cannot
/// name another storage while the entry lives.
enum Owner {
    Vec(#[allow(dead_code)] SharedVec<f64>),
    Value(#[allow(dead_code)] DataValue),
}

impl<'a> Seen<'a> {
    /// Argument `arg`, every lazy argument being ready.
    fn of(arg: &Arg<'a>, graph: &'a DataflowGraph) -> Seen<'a> {
        let value = match *arg {
            Arg::Vec(v) => return Seen::bare(Kind::Vec(v)),
            Arg::Int(i) => return Seen::bare(Kind::Int(i)),
            Arg::Float(x) => return Seen::bare(Kind::Float(x)),
            Arg::Future(f) => graph.value_data(f.value_id()),
            Arg::Value(DataValue::Lazy { value, .. }) => graph.value_data(*value),
            Arg::Value(v) => Some(v),
        };
        let value = value.expect("a lazy argument at the floor is ready");
        let kind = if let Some(v) = value.downcast_ref::<VecValue>() {
            Kind::Vec(&v.0)
        } else if let Some(i) = value.downcast_ref::<IntValue>() {
            Kind::Int(i.0)
        } else if let Some(x) = value.downcast_ref::<FloatValue>() {
            Kind::Float(x.0)
        } else {
            Kind::Other
        };
        Seen {
            kind,
            value: Some(value),
        }
    }

    fn bare(kind: Kind<'a>) -> Seen<'a> {
        Seen { kind, value: None }
    }

    /// Whether some context has a pending write to the storage.
    fn protected(&self) -> bool {
        match (self.kind, self.value) {
            (Kind::Vec(v), _) => v.protect_flag().is_protected(),
            (_, Some(v)) => v.protect_flag().is_some_and(|f| f.is_protected()),
            _ => false,
        }
    }

    /// The storage the argument names, to find arguments over one
    /// storage; `None` for a scalar passed by value, which shares
    /// storage with nothing.
    fn identity(&self) -> Option<DataIdentity> {
        match (self.kind, self.value) {
            (Kind::Vec(v), _) => Some(DataIdentity::new(
                v.storage_addr(),
                TypeId::of::<VecValue>(),
            )),
            (_, Some(v)) => v.identity(),
            _ => None,
        }
    }

    /// Two words of the call's shape, with a scalar's value only if it
    /// is `valued`; `None` for data of another kind.
    fn shape(&self, valued: bool) -> Option<[u64; 2]> {
        let value = |bits: u64| if valued { bits } else { 0 };
        Some(match self.kind {
            Kind::Vec(v) => [1, v.len() as u64],
            Kind::Int(i) => [2, value(i as u64)],
            Kind::Float(x) => [3, value(x.to_bits())],
            Kind::Other => return None,
        })
    }

    /// The argument as a value handle: the caller's, or a new one.
    fn whole(&self) -> Cow<'a, DataValue> {
        match (self.kind, self.value) {
            (_, Some(v)) => Cow::Borrowed(v),
            (Kind::Vec(v), None) => Cow::Owned(DataValue::new(VecValue(v.clone()))),
            (Kind::Int(i), None) => Cow::Owned(DataValue::new(IntValue(i))),
            (Kind::Float(x), None) => Cow::Owned(DataValue::new(FloatValue(x))),
            (Kind::Other, None) => unreachable!("other data always has a handle"),
        }
    }

    fn scalar(&self) -> bool {
        matches!(self.kind, Kind::Int(_) | Kind::Float(_))
    }

    /// What keeps the argument's storage alive.
    fn owner(&self) -> Owner {
        match (self.kind, self.value) {
            (Kind::Vec(v), _) => Owner::Vec(v.clone()),
            (_, v) => Owner::Value(v.expect("stored data always has a handle").clone()),
        }
    }
}

/// A kept piece.
struct Kept {
    /// Keeps the keyed storage alive.
    _owner: Owner,
    /// The split type the piece is of; `None` for a whole value.
    inst: Option<SplitInstance>,
    piece: DataValue,
}

/// A context's side of the work floor: the whole pieces of its calls
/// since its last evaluation, and the current call's buffers. Its
/// buffers are allocated once per context, not per call.
#[derive(Default)]
pub(crate) struct Floor {
    /// The pieces the current call's function runs on, one per
    /// argument; emptied by [`done`](Self::done).
    pieces: Vec<DataValue>,
    /// Whole-range pieces and whole values, by the storage of the
    /// argument and the key of its split type (0 for a whole value).
    kept: WordMap<(DataIdentity, u64), Kept>,
    /// The current call's shape.
    shape: Vec<u64>,
    /// The storage of each of the current call's arguments.
    idents: Vec<Option<DataIdentity>>,
}

impl Floor {
    /// How `annot` over `args` runs at registration, if it does: the
    /// conditions of the context docs, checked cheapest first, with the
    /// decision for the call's shape taken from its annotation or made
    /// and kept there. Every lazy argument is ready.
    pub(crate) fn decide(
        &mut self,
        graph: &DataflowGraph,
        config: &Config,
        annot: &Annotation,
        args: &[Arg<'_>],
    ) -> Option<Arc<Plan>> {
        if !graph.fully_executed()
            || !graph.deferred.is_empty()
            || config.batch_override.is_some()
            || config.fault_plan.is_some()
        {
            return None;
        }
        self.shape.clear();
        self.idents.clear();
        let mut keep = true;
        for (i, arg) in args.iter().enumerate() {
            let seen = Seen::of(arg, graph);
            // Storage some context has a pending write to stays
            // captured, so that write is ordered before this call as it
            // always was.
            if seen.protected() {
                return None;
            }
            let ident = seen.identity();
            self.idents.push(ident);
            let Some([kind, word]) = seen.shape(annot.floor.valued[i]) else {
                keep = false;
                continue;
            };
            let alias = ident.and_then(|id| self.idents.iter().position(|&j| j == Some(id)));
            self.shape
                .extend([kind | (alias.unwrap_or(i) as u64) << 8, word]);
        }
        let mut h = WordHasher::default();
        for &w in &self.shape {
            h.word(w);
        }
        let hash = h.finish();
        let plan = match keep.then(|| annot.floor.get(hash, &self.shape)).flatten() {
            Some(plan) => plan,
            None => {
                let registry = generation();
                let mut looked_up = false;
                let plan = make_plan(graph, annot, args, &mut looked_up).map(Arc::new);
                if keep {
                    let decision = Decision {
                        shape: self.shape.as_slice().into(),
                        registry: looked_up.then_some(registry),
                        plan: plan.clone(),
                    };
                    annot.floor.insert(hash, decision);
                }
                plan
            }
        };
        plan.filter(|p| p.fits(config))
    }

    /// The split phase of a call run at registration — what a one-batch
    /// stage of the call alone splits, in the same order: one piece per
    /// argument into [`pieces`](Self::pieces). A stable split type's
    /// piece of a storage, and a buffer taken whole, is made once and
    /// kept until the next evaluation. `false` when a split returns the
    /// paper's `NULL`: there is nothing to call the function on.
    pub(crate) fn split(
        &mut self,
        graph: &DataflowGraph,
        args: &[Arg<'_>],
        plan: &Plan,
    ) -> Result<bool> {
        for (i, how) in plan.how.iter().enumerate() {
            let seen = Seen::of(&args[i], graph);
            let split = |inst: &SplitInstance| {
                let whole = seen.whole();
                catch_phase(FaultPhase::Split, || {
                    inst.splitter.split(&whole, 0..plan.total, &inst.params)
                })
            };
            let piece = match how {
                How::Fixed(piece) => Some(piece.clone()),
                How::SameAs(j) => Some(self.pieces[*j].clone()),
                How::Broadcast => match seen.value {
                    Some(v) => Some(v.clone()),
                    None => self.kept(seen, None, || Ok(Some(seen.whole().into_owned())))?,
                },
                How::Split {
                    inst,
                    key,
                    stable: true,
                } => self.kept(seen, Some((inst, *key)), || split(inst))?,
                How::Split { inst, .. } => split(inst)?,
            };
            let Some(piece) = piece else {
                return Ok(false);
            };
            self.pieces.push(piece);
        }
        Ok(true)
    }

    /// The pieces of the current call, in argument order.
    pub(crate) fn pieces(&self) -> &[DataValue] {
        &self.pieces
    }

    /// The current call is over: let go of its pieces.
    pub(crate) fn done(&mut self) {
        self.pieces.clear();
    }

    /// The kept piece of `seen` under split type `inst` (`None`: the
    /// whole value), made by `make` and kept if there is none; `None` if
    /// `make` returns the paper's `NULL`. Data with no storage of its
    /// own (a scalar passed by value) is made every time.
    fn kept(
        &mut self,
        seen: Seen<'_>,
        inst: Option<(&SplitInstance, u64)>,
        make: impl FnOnce() -> Result<Option<DataValue>>,
    ) -> Result<Option<DataValue>> {
        let Some(id) = seen.identity() else {
            return make();
        };
        let key = (id, inst.map_or(0, |(_, k)| k));
        let inst = inst.map(|(i, _)| i);
        if let Some(k) = self.kept.get(&key) {
            let same = match (&k.inst, inst) {
                (Some(a), Some(b)) => Arc::ptr_eq(&a.params, &b.params) || a.same_type(b),
                (a, b) => a.is_none() && b.is_none(),
            };
            // Otherwise the key is another split type's (the keys are
            // hashes), and this piece is not kept.
            return if same {
                Ok(Some(k.piece.clone()))
            } else {
                make()
            };
        }
        let Some(piece) = make()? else {
            return Ok(None);
        };
        if self.kept.len() >= PIECES {
            self.kept.clear();
        }
        if self.kept.capacity() == 0 {
            self.kept.reserve(PIECES);
        }
        let kept = Kept {
            _owner: seen.owner(),
            inst: inst.cloned(),
            piece: piece.clone(),
        };
        self.kept.insert(key, kept);
        Ok(Some(piece))
    }

    /// Let go of every kept piece (the end of an evaluation).
    pub(crate) fn forget(&mut self) {
        self.kept.clear();
    }
}

/// Decide how a call of `annot` over `args` runs at registration:
/// split types as `try_add` binds them in a fresh stage — concrete
/// types from the call's own arguments, an unbound generic from its
/// data's default split — agreeing element totals, and one piece per
/// storage. `looked_up` is set if a default split type was looked up.
fn make_plan(
    graph: &DataflowGraph,
    annot: &Annotation,
    args: &[Arg<'_>],
    looked_up: &mut bool,
) -> Option<Plan> {
    let seen: Vec<Seen> = args.iter().map(|a| Seen::of(a, graph)).collect();
    let wholes: Vec<Cow<DataValue>> = seen.iter().map(Seen::whole).collect();
    let whole = |i: usize| wholes.get(i).map(|w| &**w);
    // What the planner would fail on is captured, to fail there.
    let construct = |splitter, ctor_args| {
        construct_instance(splitter, ctor_args, args.len(), whole)
            .ok()
            .flatten()
    };

    let mut how: Vec<How> = Vec::with_capacity(args.len());
    let mut generics: Vec<(GenericId, usize)> = Vec::new();
    let (mut total, mut elem_bytes) = (None, 0u64);
    for (i, spec) in annot.args.iter().enumerate() {
        let inst = match &spec.ty {
            SplitTypeExpr::Missing => {
                how.push(How::Broadcast);
                continue;
            }
            SplitTypeExpr::Concrete {
                splitter,
                ctor_args,
            } => match annot.split_like[i] {
                Some(j) => How::split_type(&how, j)?.clone(),
                None => construct(splitter, ctor_args)?,
            },
            SplitTypeExpr::Generic(g) => match generics.iter().find(|(id, _)| id == g) {
                Some(&(_, j)) => How::split_type(&how, j)?.clone(),
                None => {
                    generics.push((*g, i));
                    *looked_up = true;
                    default_instance_for(&wholes[i]).ok()?
                }
            },
            SplitTypeExpr::Unknown { .. } => return None,
        };
        let info = inst.splitter.info(&wholes[i], &inst.params).ok()?;
        if *total.get_or_insert(info.total_elements) != info.total_elements {
            return None;
        }
        elem_bytes += info.elem_size_bytes;
        how.push(How::split(inst));
    }

    // Arguments over one storage share one piece, as they share one
    // stage input; needed whole and split, or split two ways, the call
    // cannot be planned at all.
    for i in 1..how.len() {
        let Some(id) = seen[i].identity() else {
            continue;
        };
        let Some(first) = (0..i).find(|&j| seen[j].identity() == Some(id)) else {
            continue;
        };
        how[i] = match (How::split_type(&how, first), How::split_type(&how, i)) {
            (Some(a), Some(b)) if a.same_type(b) => How::SameAs(first),
            (None, None) => continue,
            _ => return None,
        };
    }

    let total = total.unwrap_or(1);
    let ret = match &annot.ret {
        None => None,
        Some(SplitTypeExpr::Concrete {
            splitter,
            ctor_args,
        }) => Some(construct(splitter, ctor_args)?),
        Some(SplitTypeExpr::Generic(g)) => {
            let &(_, j) = generics.iter().find(|(id, _)| id == g)?;
            How::split_type(&how, j).cloned()
        }
        Some(SplitTypeExpr::Unknown { merger }) => {
            Some(SplitInstance::fresh_unknown(merger.clone()))
        }
        Some(SplitTypeExpr::Missing) => return None,
    };

    // A split scalar's value is part of the shape, so a stable split
    // type's piece of it is too: make it once. A split that fails is left
    // to fail where it always has, at the call.
    for (i, h) in how.iter_mut().enumerate() {
        let piece = match h {
            How::Split {
                inst, stable: true, ..
            } if seen[i].scalar() => catch_phase(FaultPhase::Split, || {
                inst.splitter.split(&wholes[i], 0..total, &inst.params)
            }),
            _ => continue,
        };
        match piece {
            Ok(Some(piece)) => *h = How::Fixed(piece),
            // `NULL`: nothing to call the function on, ever.
            Ok(None) => return None,
            Err(_) => {}
        }
    }
    Some(Plan {
        how,
        ret,
        // With no split argument, the call is one batch of one element.
        total,
        elem_bytes,
    })
}
