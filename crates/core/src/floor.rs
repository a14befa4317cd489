//! The machinery of calls below the work floor (see "Calls below the
//! work floor" in [`crate::context`]): how such a call takes each
//! argument, decided once per call shape and kept by the calling
//! thread, and the whole-range pieces it runs on, kept per context until
//! the context's next evaluation.

use std::any::{Any, TypeId};
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::annotation::{Annotation, ArgSpec, GenericId, Invocation, SplitTypeExpr};
use crate::buffer::{SharedVec, VecValue};
use crate::config::Config;
use crate::cputime::Stamp;
use crate::error::{Error, Result};
use crate::executor::{catch_phase, returned, reuse};
use crate::faultinject::{CancelToken, FaultPhase};
use crate::graph::{DataflowGraph, WordHasher, WordMap};
use crate::planner::construct_instance;
use crate::registry::{default_instance_for, generation};
use crate::split::{Params, SplitInstance};
use crate::stats::PhaseStats;
use crate::value::{Arg, DataIdentity, DataValue, FloatValue, IntValue};

/// Call shapes one thread keeps a decision for, over every annotation it
/// calls. A full memo is emptied and refills from the calls that follow.
const SHAPES: usize = 256;

/// Of every `TIMED_EVERY` calls of one shape on one thread, one has its
/// task time measured (two readings of a [`Stamp`]); each of the others
/// counts the time the last measured one took. A shape's work is a
/// function of its arguments' lengths, and the two readings cost a fifth
/// of a small call.
const TIMED_EVERY: u32 = 16;

/// Split types [`split_type_key`] keeps a number for.
const SPLIT_TYPES: usize = 4096;

/// Whole pieces one context keeps between evaluations. A memo that is
/// full when a call starts is emptied; each entry holds its storage
/// alive, so the bound (plus one call's arguments) is also what a
/// long-lived context that never evaluates can hold.
const PIECES: usize = 32;

thread_local! {
    /// This thread's decisions, by annotation and the hash of the call
    /// shape. Read and written under no lock: a decision is a function
    /// of the shape and of the registry generation it looked a default
    /// split type up at, which every use checks.
    static DECIDED: RefCell<WordMap<(u64, u64), Decision>> =
        const { RefCell::new(HashMap::with_hasher(BuildHasherDefault::new())) };
}

/// How a call run at registration hands one argument to its function.
enum How {
    /// Whole (the `_` split type).
    Broadcast,
    /// As its piece `0..total` of the split type. If the split type
    /// declares
    /// [`Splitter::whole_piece_stable`](crate::split::Splitter::whole_piece_stable),
    /// its number (see [`split_type_key`]), under which the piece is
    /// kept.
    Split(SplitInstance, Option<u64>),
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
        let key = inst
            .splitter
            .whole_piece_stable()
            .then(|| split_type_key(&inst));
        How::Split(inst, key)
    }

    /// The split type argument `i` of `how` is split by, if it is split.
    fn split_type(how: &[How], i: usize) -> Option<&SplitInstance> {
        match &how[i] {
            How::Split(inst, _) => Some(inst),
            How::SameAs(j) => How::split_type(how, *j),
            How::Broadcast | How::Fixed(_) => None,
        }
    }
}

/// A number for `inst`'s split type — its name, uniqueness token and
/// parameters — by which kept pieces are found: two split types with one
/// number are the same. Numbers start at 1 and are never reused; a full
/// table is emptied, and a split type numbered again gets a new number
/// (its pieces are then split again).
fn split_type_key(inst: &SplitInstance) -> u64 {
    type Key = (&'static str, Option<u64>, Arc<Params>);
    static KEYS: Mutex<WordMap<Key, u64>> =
        Mutex::new(HashMap::with_hasher(BuildHasherDefault::new()));
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let mut keys = KEYS.lock();
    if keys.len() >= SPLIT_TYPES {
        keys.clear();
    }
    let key = (inst.splitter.name(), inst.unique, inst.params.clone());
    let next = || NEXT.fetch_add(1, Ordering::Relaxed);
    *keys.entry(key).or_insert_with(next)
}

/// How a call of one shape runs at registration.
struct Plan {
    /// Per argument, in annotation order.
    how: Vec<How>,
    /// The return value's split type, if the annotation declares one.
    ret: Option<SplitInstance>,
    /// The element count every split argument agrees on.
    total: u64,
    /// `elem_size_bytes` summed over the split arguments.
    elem_bytes: u64,
    /// The task time of the last call of this shape that was timed, and
    /// how many calls may still count it before one is timed again (see
    /// [`TIMED_EVERY`]).
    timing: Cell<(Duration, u32)>,
}

impl Plan {
    /// Nominal bytes split: `total · elem_size_bytes` summed over the
    /// split arguments.
    fn bytes(&self) -> u64 {
        self.total.saturating_mul(self.elem_bytes)
    }

    /// The floor itself: the split arguments' nominal bytes are at most
    /// 1/16 of L2. The batch heuristic then gives them one batch
    /// (`l2_bytes / elem_bytes ≥ 16 · total`), as `batch_override` is
    /// unset at the floor.
    fn fits(&self, config: &Config) -> bool {
        self.total > 0 && self.bytes().saturating_mul(16) <= config.l2_bytes
    }

    /// The task time a call of this shape counts: `measured`, if it was
    /// timed, which the calls after it count in turn, or else the last
    /// one measured.
    fn count(&self, measured: Option<Duration>) -> Duration {
        let (last, untimed) = self.timing.get();
        let (task, untimed) = match measured {
            Some(task) => (task, TIMED_EVERY - 1),
            None => (last, untimed.saturating_sub(1)),
        };
        self.timing.set((task, untimed));
        task
    }

    /// Whether the next call of this shape is timed.
    fn due(&self) -> bool {
        self.timing.get().1 == 0
    }

    /// Nominal size of the merged return value, as a stage output
    /// counts it in [`PhaseStats::bytes_merged`](crate::PhaseStats) (0
    /// for `unknown`).
    fn merged_bytes(&self, merged: &DataValue) -> u64 {
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
    plan: Option<Rc<Plan>>,
}

/// What a call's shape reads of one annotation's arguments: each
/// argument's kind with its length (arrays), the value of each scalar
/// the decision reads (one that is split, or that a constructor takes),
/// and which arguments share storage. That is all a decision reads from
/// the arguments, by the contract of
/// [`Splitter::construct`](crate::split::Splitter::construct) and
/// [`Splitter::info`](crate::split::Splitter::info). A scalar taken
/// whole that no constructor reads counts by its kind alone, so calls
/// that differ only in such a scalar share a decision. A call with any
/// other kind of argument decides afresh and keeps nothing.
pub(crate) struct CallShape {
    /// The annotation's key among a thread's decisions, never reused.
    id: u64,
    /// Per argument: whether its value, if a scalar, is part of the
    /// shape.
    valued: Box<[bool]>,
}

impl CallShape {
    pub(crate) fn new(args: &[ArgSpec], ret: Option<&SplitTypeExpr>) -> CallShape {
        static IDS: AtomicU64 = AtomicU64::new(0);
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
        CallShape {
            id: IDS.fetch_add(1, Ordering::Relaxed),
            valued: valued.collect(),
        }
    }
}

/// A call argument as the floor reads it.
#[derive(Clone, Copy)]
struct Seen<'a> {
    kind: Kind<'a>,
    /// The value handle the caller passed, or the data of the ready
    /// lazy value it named; `None` for a buffer or scalar passed as is.
    value: Option<&'a DataValue>,
    /// The storage the argument names, to find arguments over one
    /// storage; `None` for a scalar passed by value, which shares
    /// storage with nothing.
    ident: Option<DataIdentity>,
    /// Where the current call's piece of the argument is, once made.
    at: At,
}

#[derive(Clone, Copy)]
enum Kind<'a> {
    Vec(&'a SharedVec<f64>),
    Int(i64),
    Float(f64),
    /// Any other data.
    Other,
}

impl<'a> Kind<'a> {
    /// The kind of ready data, with its handle.
    fn of(value: Option<&'a DataValue>) -> (Kind<'a>, Option<&'a DataValue>) {
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
        (kind, Some(value))
    }
}

/// Where a piece the current call runs on is held.
#[derive(Clone, Copy)]
enum At {
    /// The argument's own value handle.
    Caller,
    /// [`Floor::kept`], at this index.
    Kept(u32),
    /// [`Floor::made`], at this index.
    Made(u32),
    /// [`Floor::scalars`], at the argument's index.
    Scalar,
}

impl<'a> Seen<'a> {
    /// Argument `arg`, every lazy argument being ready.
    fn of(arg: &Arg<'a>, graph: &'a DataflowGraph) -> Seen<'a> {
        let (kind, value) = match *arg {
            Arg::Vec(v) => (Kind::Vec(v), None),
            Arg::Int(i) => (Kind::Int(i), None),
            Arg::Float(x) => (Kind::Float(x), None),
            Arg::Future(f) => Kind::of(graph.value_data(f.value_id())),
            Arg::Value(DataValue::Lazy { value, .. }) => Kind::of(graph.value_data(*value)),
            Arg::Value(v) => Kind::of(Some(v)),
        };
        let vec_type = TypeId::of::<VecValue>();
        // A view of part of a buffer is not the buffer (`VecValue`'s
        // identity): it has none.
        let ident = match (kind, value) {
            (Kind::Vec(v), None) => v
                .is_whole()
                .then(|| DataIdentity::new(v.storage_addr(), vec_type)),
            (_, value) => value.and_then(DataValue::identity),
        };
        let at = At::Caller;
        Seen {
            kind,
            value,
            ident,
            at,
        }
    }

    /// Whether some context has a pending write to the storage.
    fn protected(&self) -> bool {
        match (self.kind, self.value) {
            (Kind::Vec(v), _) => v.protect_flag().is_protected(),
            (_, Some(v)) => v.protect_flag().is_some_and(|f| f.is_protected()),
            _ => false,
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
}

/// A kept piece.
struct Kept {
    /// The storage of the argument and the key of its split type (0 for
    /// a whole value).
    key: (DataIdentity, u64),
    /// The argument's handle, which keeps the keyed storage alive so
    /// that its address cannot name another storage while the entry
    /// lives, unless the piece names the storage itself (a view of all
    /// of it), and so does that.
    _owner: Option<DataValue>,
    piece: DataValue,
}

/// A context's side of the work floor: the whole pieces of its calls
/// since its last evaluation, and the current call's buffers. Its
/// buffers are allocated once per context, not per call; the ones that
/// borrow for one call are empty between calls.
#[derive(Default)]
pub(crate) struct Floor {
    /// Whole-range pieces and whole values, by the storage of the
    /// argument and the key of its split type.
    kept: Vec<Kept>,
    /// The pieces the current call made for itself alone.
    made: Vec<DataValue>,
    /// The current call's shape.
    shape: Vec<u64>,
    /// The current call's arguments, as read.
    seen: Vec<Seen<'static>>,
    /// The pieces the current call's function runs on.
    pieces: Vec<&'static DataValue>,
    /// A handle to the last buffer passed as itself that a call split
    /// into a kept piece, rewritten for the next such buffer while
    /// nothing else holds it: the split borrows a handle, and a piece
    /// that names its storage holds it, so the piece is the only
    /// allocation.
    spare: Option<DataValue>,
    /// Handles to the scalars passed as themselves and taken whole, by
    /// argument index, rewritten for the next call while nothing else
    /// holds them, as the spare is.
    scalars: Vec<Option<DataValue>>,
}

impl Floor {
    /// Run `annot` over `args` at registration if it is below the floor
    /// (the conditions of the context docs, checked cheapest first, with
    /// the decision for the call's shape taken from this thread's memo
    /// or made and kept there), and count it in `stats` as a stage would:
    /// its call, its planning and task time (see "Timing" in the context
    /// docs), and the bytes it split and merged. `cancel` is polled once
    /// the call is known to run here, before any split. The merged return
    /// value, if the function returned one, is left in `ret`. The task
    /// time the call counted, measured if the config traces; `None` when
    /// the call is above the floor, or a split returned the paper's
    /// `NULL` and there was nothing to call the function on: either way
    /// the caller captures it. The error, if the call fails, is boxed so
    /// that the outcome is two words on its way out. Every lazy argument
    /// is ready.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run<'a>(
        &mut self,
        graph: &'a DataflowGraph,
        config: &Config,
        stats: &mut PhaseStats,
        annot: &Annotation,
        args: &[Arg<'a>],
        cancel: Option<&CancelToken>,
        ret: &mut Option<DataValue>,
    ) -> std::result::Result<Option<Duration>, Box<Error>> {
        if !graph.fully_executed()
            || !graph.deferred.is_empty()
            || config.batch_override.is_some()
            || config.fault_plan.is_some()
        {
            return Ok(None);
        }
        // The first call the statistics count is timed from here to its
        // decision, as planning.
        let entry = (stats.inline_calls == 0).then(Stamp::now);
        // The arguments as read, borrowed for this call; given back, and
        // the pieces made for the call let go of, when it is over. A
        // failed call leaves them to its context, which is poisoned.
        let mut seen = reuse(std::mem::take(&mut self.seen));
        let ran = 'run: {
            // One pass over the arguments reads each once, for the checks,
            // the shape, and the pieces.
            self.shape.clear();
            let mut hash = WordHasher::default();
            let mut keep = true;
            for (i, arg) in args.iter().enumerate() {
                let s = Seen::of(arg, graph);
                // Storage some context has a pending write to stays
                // captured, so that write is ordered before this call as it
                // always was.
                if s.protected() {
                    break 'run Ok(None);
                }
                if let Some([kind, word]) = s.shape(annot.floor.valued[i]) {
                    let same = |o: &Seen| s.ident.is_some() && o.ident == s.ident;
                    let kind = kind | (seen.iter().position(same).unwrap_or(i) as u64) << 8;
                    hash.word(kind);
                    hash.word(word);
                    self.shape.extend([kind, word]);
                } else {
                    keep = false;
                }
                seen.push(s);
            }
            let (plan, made) = self.plan(annot, &seen, keep.then(|| hash.finish()));
            let Some(plan) = plan.filter(|p| p.fits(config)) else {
                break 'run Ok(None);
            };
            // Deciding how the call runs was its planning; what follows
            // is its task.
            let mut start = made.or(entry).map(|t0| {
                let t1 = Stamp::now();
                stats.planner += t0.until(t1);
                t1
            });
            if config.tracing.is_some() || plan.due() {
                start = start.or_else(|| Some(Stamp::now()));
            }
            // Polled once, as at a batch boundary.
            if cancel.is_some_and(CancelToken::is_cancelled) {
                let why = "deadline passed or token cancelled at registration";
                break 'run Err(Error::Cancelled(why.into()).into());
            }
            if !self.split(&mut seen, &plan)? {
                break 'run Ok(None);
            }

            // The task phase, on pieces the function borrows: the caller's
            // handles, the plan's, the kept ones and the ones made for this
            // call. Then the merge of the piece it returns, as a one-piece
            // final merge over the stage's elements.
            let mut pieces = reuse(std::mem::take(&mut self.pieces));
            for (i, how) in plan.how.iter().enumerate() {
                let piece: &DataValue = match (how, seen[i].at) {
                    (How::Fixed(piece), _) => piece,
                    (How::SameAs(j), _) => pieces[*j],
                    (_, At::Caller) => seen[i].value.expect("a caller's piece is its handle"),
                    (_, At::Kept(k)) => &self.kept[k as usize].piece,
                    (_, At::Made(k)) => &self.made[k as usize],
                    (_, At::Scalar) => self.scalars[i].as_ref().expect("rewritten"),
                };
                pieces.push(piece);
            }
            let inv = Invocation {
                function: annot.name,
                args: &pieces,
            };
            let piece = catch_phase(FaultPhase::Task, || (annot.func)(&inv));
            self.pieces = reuse(pieces);
            if let (Some(piece), Some(merge)) =
                (returned(annot.name, piece?, plan.ret.is_some())?, &plan.ret)
            {
                let merged = catch_phase(FaultPhase::Merge, || {
                    merge.splitter.merge(vec![piece], &merge.params, plan.total)
                })?;
                stats.bytes_merged += plan.merged_bytes(&merged);
                *ret = Some(merged);
            }
            let task = plan.count(start.map(|t| t.until(Stamp::now())));
            stats.task += task;
            stats.calls += 1;
            stats.inline_calls += 1;
            stats.bytes_split += plan.bytes();
            Ok(Some(task))
        };
        self.made.clear();
        self.seen = reuse(seen);
        ran
    }

    /// The plan for the current call's shape, whose hash is `hash`, from
    /// this thread's memo, or made now and kept there. A call without a
    /// shape (`hash` is `None`) decides afresh and keeps nothing. `None`
    /// if the call is captured whatever the floor; with it, when the
    /// decision started to be made, if it was made now.
    fn plan(
        &self,
        annot: &Annotation,
        seen: &[Seen<'_>],
        hash: Option<u64>,
    ) -> (Option<Rc<Plan>>, Option<Stamp>) {
        let key = hash.map(|h| (annot.floor.id, h));
        let kept = key.and_then(|key| {
            DECIDED.with_borrow(|memo| {
                let d = memo.get(&key)?;
                let fresh = *d.shape == *self.shape && d.registry.is_none_or(|g| g == generation());
                fresh.then(|| d.plan.clone())
            })
        });
        if let Some(plan) = kept {
            return (plan, None);
        }
        let made = Stamp::now();
        let registry = generation();
        let mut looked_up = false;
        let plan = make_plan(annot, seen, &mut looked_up).map(Rc::new);
        if let Some(key) = key {
            let decision = Decision {
                shape: self.shape.as_slice().into(),
                registry: looked_up.then_some(registry),
                plan: plan.clone(),
            };
            DECIDED.with_borrow_mut(|memo| {
                if memo.len() >= SHAPES && !memo.contains_key(&key) {
                    memo.clear();
                }
                memo.insert(key, decision);
            });
        }
        (plan, Some(made))
    }

    /// The split phase of a call run at registration — what a one-batch
    /// stage of the call alone splits, in the same order: one piece per
    /// argument, whose place is left in its [`Seen::at`]. A stable split
    /// type's piece of a storage, and a buffer taken whole, is made once
    /// and kept until the next evaluation. `false` when a split returns
    /// the paper's `NULL`: there is nothing to call the function on.
    fn split(&mut self, seen: &mut [Seen<'_>], plan: &Plan) -> Result<bool> {
        if self.kept.len() >= PIECES {
            self.forget();
        }
        let split = |inst: &SplitInstance, whole: &DataValue| {
            catch_phase(FaultPhase::Split, || {
                inst.splitter.split(whole, 0..plan.total, &inst.params)
            })
        };
        for (i, (s, how)) in seen.iter_mut().zip(&plan.how).enumerate() {
            let at = match how {
                How::Fixed(_) | How::SameAs(_) => continue,
                How::Broadcast if s.value.is_some() => Some(At::Caller),
                How::Broadcast if s.scalar() => {
                    if self.scalars.len() <= i {
                        self.scalars.resize(i + 1, None);
                    }
                    Self::rewrite(&mut self.scalars[i], s);
                    Some(At::Scalar)
                }
                How::Broadcast if s.ident.is_some() => {
                    self.keep(s, 0, |whole| Ok(Some(whole.clone())))?
                }
                How::Split(inst, Some(key)) if s.ident.is_some() => {
                    self.keep(s, *key, |whole| split(inst, whole))?
                }
                How::Broadcast => Some(self.make(s.whole().into_owned())),
                How::Split(inst, _) => split(inst, &s.whole())?.map(|piece| self.make(piece)),
            };
            let Some(at) = at else { return Ok(false) };
            s.at = at;
        }
        Ok(true)
    }

    /// Where the kept piece of `seen`, which has storage, under the split
    /// type numbered `key` (0: the whole value) is: made from the whole
    /// value by `make` and kept if there is none. `None` if `make`
    /// returns the paper's `NULL`.
    fn keep(
        &mut self,
        seen: &Seen<'_>,
        key: u64,
        make: impl FnOnce(&DataValue) -> Result<Option<DataValue>>,
    ) -> Result<Option<At>> {
        let key = (seen.ident.expect("kept data has storage"), key);
        if let Some(k) = self.kept.iter().rposition(|k| k.key == key) {
            return Ok(Some(At::Kept(k as u32)));
        }
        let whole = match (seen.kind, seen.value) {
            (_, Some(whole)) => whole,
            (Kind::Vec(_), None) => Self::rewrite(&mut self.spare, seen),
            _ => unreachable!("kept data has storage"),
        };
        let Some(piece) = make(whole)? else {
            return Ok(None);
        };
        let _owner = (piece.identity() != Some(key.0)).then(|| whole.clone());
        if self.kept.capacity() == 0 {
            self.kept.reserve(PIECES);
        }
        self.kept.push(Kept { key, _owner, piece });
        Ok(Some(At::Kept(self.kept.len() as u32 - 1)))
    }

    /// A handle to `seen`, which the caller passed as itself: the one in
    /// `slot`, rewritten, if nothing else holds it and it has the same
    /// type, or else a new one, left in `slot`.
    fn rewrite<'s>(slot: &'s mut Option<DataValue>, seen: &Seen<'_>) -> &'s DataValue {
        let held = match slot {
            Some(DataValue::Data(d)) => Arc::get_mut(d).map(|d| d as &mut dyn Any),
            _ => None,
        };
        let rewritten = match (held, seen.kind) {
            (Some(h), Kind::Vec(v)) => h.downcast_mut().map(|h: &mut VecValue| h.0 = v.clone()),
            (Some(h), Kind::Int(i)) => h.downcast_mut().map(|h: &mut IntValue| h.0 = i),
            (Some(h), Kind::Float(x)) => h.downcast_mut().map(|h: &mut FloatValue| h.0 = x),
            _ => None,
        };
        if rewritten.is_none() {
            *slot = Some(seen.whole().into_owned());
        }
        slot.as_ref().expect("just set")
    }

    /// Hold `piece` for the current call alone.
    fn make(&mut self, piece: DataValue) -> At {
        self.made.push(piece);
        At::Made(self.made.len() as u32 - 1)
    }

    /// Let go of every kept piece (the end of an evaluation).
    pub(crate) fn forget(&mut self) {
        self.kept.clear();
        self.spare = None;
    }
}

/// Decide how a call of `annot` over the arguments `seen` runs at
/// registration: split types as `try_add` binds them in a fresh stage —
/// concrete types from the call's own arguments, an unbound generic from
/// its data's default split — agreeing element totals, and one piece per
/// storage. `looked_up` is set if a default split type was looked up.
fn make_plan(annot: &Annotation, seen: &[Seen<'_>], looked_up: &mut bool) -> Option<Plan> {
    let wholes: Vec<Cow<DataValue>> = seen.iter().map(Seen::whole).collect();
    let whole = |i: usize| wholes.get(i).map(|w| &**w);
    // What the planner would fail on is captured, to fail there.
    let construct = |splitter, ctor_args| {
        construct_instance(splitter, ctor_args, seen.len(), whole)
            .ok()
            .flatten()
    };

    let mut how: Vec<How> = Vec::with_capacity(seen.len());
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
        let first = seen[i]
            .ident
            .and_then(|id| (0..i).find(|&j| seen[j].ident == Some(id)));
        let Some(first) = first else { continue };
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
            How::Split(inst, Some(_)) if seen[i].scalar() => catch_phase(FaultPhase::Split, || {
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
        timing: Cell::default(),
    })
}
