//! Static soundness verification for annotations and stage plans.
//!
//! Mozart's runtime is only sound when annotations obey the paper's
//! typing rules (§3) and the planner's stage plans respect the
//! executor's memory discipline: placement merges write through raw
//! offsets and mut arguments alias user storage.
//! A bad annotation or a corrupted plan therefore fails *deep* in the
//! executor — as a wrong answer or an out-of-bounds write — long after
//! the mistake was made. This module rejects those inputs up front,
//! before anything executes.
//!
//! Two layers, one diagnostic type ([`VerifyError`]):
//!
//! * **Layer 1 — [`check_annotation`]**: the paper's annotation typing
//!   rules over a runtime-registered [`Annotation`]. Generic split-type
//!   variables must be bound by an argument before the return may use
//!   them; `unknown` is only legal in return position; constructor
//!   argument indices must be in range and never name `mut` positions
//!   (the constructor runs before the call, against pre-mutation
//!   values); `mut` arguments require a merge strategy that recovers
//!   in-place views ([`MergeStrategy::None`] or
//!   [`MergeStrategy::Concat`] — the v1→v2 migration rule); terminal
//!   split types describe partial results and may not type arguments;
//!   and a concatenation-strategy return should carry the
//!   [`Concat`](crate::split::Concat) capability so the serving layer
//!   can coalesce requests over it. It runs once per annotation, when
//!   [`AnnotationBuilder::build`](crate::annotation::AnnotationBuilder::build)
//!   finishes it; a call of an unsound annotation is refused at
//!   registration with [`Error::Verify`](crate::error::Error).
//!
//! * **Layer 2 — [`verify_stage`]**: a structural proof over one
//!   [`StagePlan`] against its [`DataflowGraph`], run before every
//!   stage executes, planned or replayed from the plan cache: slot
//!   assignments are dense, in range and alias-free; every value a node
//!   reads is defined before use (a stage input, broadcast, or an
//!   earlier in-stage product) and never a stale pre-mutation version;
//!   no value is bound both `mut` and shared; `Discard` outputs are
//!   truly dead (no pending consumer, no live user future); a
//!   user-visible value is `Merge`, `Deferred` or `Lineage`, a held one
//!   (`Deferred` or `Lineage`) only when the triggering read did not
//!   demand it and no pending node consumes it, and `Lineage` only for
//!   a value recomputable from the graph and merged by concatenation; `InPlace` outputs are genuine
//!   mut-versions;
//!   split inputs agree on one element total and the batch size
//!   partitions `[0, total)` exactly (which makes the placement write
//!   offsets a partition too); and no split input is a value still held
//!   as pieces (held pieces are only ever merged).
//!
//! Both layers always run; there is no switch. Layer 2 costs a few
//! array reads per stage value — its tables are indexed by slot and by
//! node, not hashed — and never allocates anything proportional to
//! data. Verified stages are counted in
//! [`PhaseStats::plans_verified`](crate::stats::PhaseStats).

use std::collections::HashSet;

use crate::annotation::{Annotation, SplitTypeExpr};
use crate::config::Config;
use crate::graph::{DataflowGraph, NodeId, ValueId, ValueOrigin};
use crate::planner::{Demand, OutputKind, StagePlan};
use crate::split::MergeStrategy;

/// A soundness violation found by the static verifier.
///
/// Layer-1 variants carry the annotation and argument names; Layer-2
/// variants carry graph value/node indices (`v{n}` / `n{n}` in the
/// rendered message). Every variant is a *rejection*: the runtime
/// refuses to execute rather than risk an unsound run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    // ----- Layer 1: annotation typing rules (§3) -----
    /// `unknown` used outside return position. The paper defines
    /// `unknown` as a fresh unique split type for *results* whose
    /// cardinality is data-dependent; an argument typed `unknown` could
    /// never be split.
    UnknownArgType {
        /// Annotated function name.
        annotation: String,
        /// Offending argument name.
        arg: String,
    },
    /// The return is annotated with the missing (`_`) split type.
    /// `_` means "broadcast whole, never split" and is only meaningful
    /// for arguments; a `_` return would be unmergeable.
    MissingReturnType {
        /// Annotated function name.
        annotation: String,
    },
    /// The return uses a generic split-type variable that no argument
    /// binds, so inference could never resolve it.
    UnboundReturnGeneric {
        /// Annotated function name.
        annotation: String,
        /// The unbound generic's id.
        generic: u32,
    },
    /// A split-type constructor references an argument index that does
    /// not exist.
    CtorArgOutOfRange {
        /// Annotated function name.
        annotation: String,
        /// Position whose type carries the constructor ("return" for
        /// the return type).
        position: String,
        /// The out-of-range constructor index.
        index: usize,
        /// Number of declared arguments.
        arity: usize,
    },
    /// A split-type constructor references a `mut` argument.
    /// Constructors run once, before the call, against pre-mutation
    /// values; deriving split parameters from storage the same call
    /// mutates is order-dependent and unsound.
    CtorArgMutable {
        /// Annotated function name.
        annotation: String,
        /// Position whose type carries the constructor.
        position: String,
        /// The constructor index naming a mut argument.
        index: usize,
    },
    /// A `mut` argument's split type cannot recover in-place views:
    /// its merge strategy is not [`MergeStrategy::None`] or
    /// [`MergeStrategy::Concat`], or the type is generic/missing so
    /// nothing can be proven about it. Mut pieces alias the caller's
    /// storage; a commutative or custom merge would build a *new*
    /// value and silently drop the in-place writes.
    MutArgNotInPlace {
        /// Annotated function name.
        annotation: String,
        /// Offending argument name.
        arg: String,
        /// Why the type cannot recover in-place views.
        reason: String,
    },
    /// An argument is typed with a *terminal* split type. Terminal
    /// types describe partial results that must merge before any
    /// consumer runs; an argument of that type can never be split
    /// (reducer splitters are merge-only), so the annotation could
    /// never execute.
    TerminalArgType {
        /// Annotated function name.
        annotation: String,
        /// Offending argument name.
        arg: String,
        /// The terminal split type's name.
        split_type: String,
    },
    /// A return's split type declares [`MergeStrategy::Concat`] but
    /// exposes no [`Concat`](crate::split::Concat) capability, so
    /// request coalescing (one evaluation over concatenated inputs)
    /// silently never applies to it.
    ConcatWithoutCapability {
        /// Annotated function name.
        annotation: String,
        /// The split type missing its `concat()` capability.
        split_type: String,
    },

    // ----- Layer 2: stage-plan structural rules -----
    /// A node id in the plan does not exist in the graph.
    NodeOutOfRange {
        /// The dangling node index.
        node: u32,
    },
    /// A value the stage touches has no slot assignment.
    SlotMissing {
        /// The unslotted value.
        value: u32,
    },
    /// A slot index is outside `[0, num_slots)`.
    SlotOutOfRange {
        /// The value whose slot is out of range.
        value: u32,
        /// Its assigned slot.
        slot: u32,
        /// The plan's slot count.
        num_slots: u32,
    },
    /// Two distinct values share one slot — the executor's dense value
    /// array would alias them.
    SlotAliased {
        /// The shared slot.
        slot: u32,
        /// First value mapped to it.
        first: u32,
        /// Second value mapped to it.
        second: u32,
    },
    /// A node reads a value that is neither a stage input, a broadcast,
    /// nor produced by an earlier node in the stage.
    UseBeforeDef {
        /// The reading node.
        node: u32,
        /// The undefined value.
        value: u32,
    },
    /// A node reads a pre-mutation version of storage an earlier node
    /// in the stage mutated in place — the read would observe mutated
    /// bytes under the old value's identity.
    StaleRead {
        /// The reading node.
        node: u32,
        /// The stale (pre-mutation) value.
        value: u32,
        /// The earlier node that mutated the storage.
        mutated_by: u32,
    },
    /// One node binds a value `mut` (split, written in place) while the
    /// stage also broadcasts it whole: every worker's whole-value view
    /// would race with the in-place writes. (Two *split* bindings of
    /// one value alias identical ranges — one slot per value — which
    /// elementwise annotations tolerate by design.)
    MutSharedAlias {
        /// The node with the double binding.
        node: u32,
        /// The value bound twice.
        value: u32,
    },
    /// An output marked `Discard` is still observable: a pending node
    /// outside the stage consumes it, or the application holds a live
    /// future for it.
    DiscardedLive {
        /// The wrongly discarded value.
        value: u32,
        /// A pending consumer outside the stage, if that is the leak
        /// (`None` when the leak is a live user future).
        consumer: Option<u32>,
    },
    /// An output marked `Deferred` or `Lineage` is demanded by the read
    /// that triggered the evaluation: the reader would be handed pieces
    /// or lineage where it was promised the whole value.
    DeferredDemanded {
        /// The demanded value left held.
        value: u32,
    },
    /// An output marked `Deferred` or `Lineage` is still consumed by a
    /// pending node outside the stage. A held value waits for a *read*;
    /// a consumer needs the value whole.
    DeferredConsumed {
        /// The wrongly deferred value.
        value: u32,
        /// A pending consumer outside the stage.
        consumer: u32,
    },
    /// An output marked `Lineage` is not recomputable from the graph —
    /// its call mutates an argument, or reads storage that can change,
    /// so a replay could not make the value it stands for — or its
    /// split type does not merge by concatenation, so a replay's whole
    /// call could differ in the last bits from the merged pieces.
    LineageNotRecomputable {
        /// The mismarked value.
        value: u32,
    },
    /// An output marked `InPlace` is not a mut-version — there is no
    /// aliased storage for it to recover, so the "output" would be
    /// whatever stale data the entry held.
    InPlaceNotMutVersion {
        /// The mismarked value.
        value: u32,
    },
    /// An `InPlace` output's *resolved* split instance cannot recover
    /// in-place views (strategy is not `None`/`Concat`) — the plan-time
    /// counterpart of [`VerifyError::MutArgNotInPlace`] for generic mut
    /// arguments, whose concrete type is only known after inference.
    InPlaceBadStrategy {
        /// The output value.
        value: u32,
        /// The resolved split type.
        split_type: String,
    },
    /// An output appears in the plan but no node in the stage produces
    /// it.
    OutputNotProduced {
        /// The foreign value.
        value: u32,
    },
    /// Split inputs disagree on the stage's element total (§3.4: all
    /// split functions of a stage must produce the same number of
    /// splits).
    ElementMismatch {
        /// The disagreeing input value.
        value: u32,
        /// Total the stage's earlier inputs agreed on.
        expected: u64,
        /// This input's total.
        actual: u64,
    },
    /// The batch size cannot partition `[0, total)`: zero-sized batches
    /// would spin the driver loop and corrupt placement offsets.
    BadBatchPartition {
        /// The degenerate batch size.
        batch: u64,
        /// The stage element total.
        total: u64,
    },
    /// A split input's runtime info is unavailable — the splitter
    /// refused to characterize the value (merge-only reducers do
    /// this), so the stage could never size batches.
    InfoUnavailable {
        /// The uncharacterizable input value.
        value: u32,
        /// Its split type.
        split_type: String,
        /// The splitter's own error message.
        message: String,
    },
    /// A stage input is typed with a terminal split type: its pieces
    /// would be partial results consumed without the mandatory merge.
    TerminalInput {
        /// The input value.
        value: u32,
        /// The terminal split type's name.
        split_type: String,
    },
    /// A split input is a value still held as pieces (a deferred
    /// output nobody merged): the executor splits whole values only, and
    /// held pieces are merged before any stage reads them.
    HeldInput {
        /// The held input value.
        value: u32,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::UnknownArgType { annotation, arg } => write!(
                f,
                "{annotation}: argument `{arg}` has the `unknown` split type; \
                 `unknown` is only legal in return position"
            ),
            VerifyError::MissingReturnType { annotation } => write!(
                f,
                "{annotation}: return type is `_`; a missing-typed return cannot be merged"
            ),
            VerifyError::UnboundReturnGeneric {
                annotation,
                generic,
            } => write!(
                f,
                "{annotation}: return type uses generic S{generic} that no argument binds"
            ),
            VerifyError::CtorArgOutOfRange {
                annotation,
                position,
                index,
                arity,
            } => write!(
                f,
                "{annotation}: {position} constructor references argument {index}, \
                 but the function has {arity} arguments"
            ),
            VerifyError::CtorArgMutable {
                annotation,
                position,
                index,
            } => write!(
                f,
                "{annotation}: {position} constructor references mut argument {index}; \
                 constructors must not depend on storage the call mutates"
            ),
            VerifyError::MutArgNotInPlace {
                annotation,
                arg,
                reason,
            } => write!(
                f,
                "{annotation}: mut argument `{arg}` cannot recover in-place views: {reason}"
            ),
            VerifyError::TerminalArgType {
                annotation,
                arg,
                split_type,
            } => write!(
                f,
                "{annotation}: argument `{arg}` is typed with terminal split type \
                 {split_type}; terminal types describe partial results and cannot \
                 type arguments"
            ),
            VerifyError::ConcatWithoutCapability {
                annotation,
                split_type,
            } => write!(
                f,
                "{annotation}: return split type {split_type} declares a Concat merge \
                 strategy but exposes no concat() capability, so requests over it can \
                 never be coalesced"
            ),
            VerifyError::NodeOutOfRange { node } => {
                write!(f, "plan references node n{node} which does not exist")
            }
            VerifyError::SlotMissing { value } => {
                write!(f, "stage value v{value} has no slot assignment")
            }
            VerifyError::SlotOutOfRange {
                value,
                slot,
                num_slots,
            } => write!(
                f,
                "value v{value} is assigned slot {slot}, outside the stage's \
                 {num_slots} slots"
            ),
            VerifyError::SlotAliased {
                slot,
                first,
                second,
            } => write!(
                f,
                "values v{first} and v{second} share slot {slot}; the executor \
                 would alias them"
            ),
            VerifyError::UseBeforeDef { node, value } => write!(
                f,
                "node n{node} reads v{value}, which is neither a stage input nor \
                 produced earlier in the stage"
            ),
            VerifyError::StaleRead {
                node,
                value,
                mutated_by,
            } => write!(
                f,
                "node n{node} reads v{value} after node n{mutated_by} mutated that \
                 storage in place; the read would observe mutated bytes under a \
                 stale identity"
            ),
            VerifyError::MutSharedAlias { node, value } => write!(
                f,
                "node n{node} binds v{value} mut while the stage broadcasts it \
                 whole; whole-value readers would race the in-place writes"
            ),
            VerifyError::DiscardedLive { value, consumer } => match consumer {
                Some(c) => write!(
                    f,
                    "output v{value} is marked Discard but pending node n{c} \
                     outside the stage still consumes it"
                ),
                None => write!(
                    f,
                    "output v{value} is marked Discard but the application holds a \
                     live future for it"
                ),
            },
            VerifyError::DeferredDemanded { value } => write!(
                f,
                "output v{value} is held (Deferred or Lineage) but the read that \
                 triggered this evaluation demands it"
            ),
            VerifyError::DeferredConsumed { value, consumer } => write!(
                f,
                "output v{value} is held (Deferred or Lineage) but pending node \
                 n{consumer} outside the stage still consumes it"
            ),
            VerifyError::LineageNotRecomputable { value } => write!(
                f,
                "output v{value} is marked Lineage but is not recomputable or \
                 not merged by concatenation; a replay could not make it"
            ),
            VerifyError::InPlaceNotMutVersion { value } => write!(
                f,
                "output v{value} is marked InPlace but is not a mut-version; \
                 there is no aliased storage to recover"
            ),
            VerifyError::InPlaceBadStrategy { value, split_type } => write!(
                f,
                "InPlace output v{value} resolved to split type {split_type}, \
                 whose merge strategy cannot recover in-place views"
            ),
            VerifyError::OutputNotProduced { value } => write!(
                f,
                "output v{value} is not produced by any node in the stage"
            ),
            VerifyError::ElementMismatch {
                value,
                expected,
                actual,
            } => write!(
                f,
                "split input v{value} covers {actual} elements but the stage \
                 agreed on {expected} (§3.4: all split functions of a stage must \
                 produce the same number of splits)"
            ),
            VerifyError::BadBatchPartition { batch, total } => {
                write!(f, "batch size {batch} cannot partition [0, {total})")
            }
            VerifyError::InfoUnavailable {
                value,
                split_type,
                message,
            } => write!(
                f,
                "split input v{value} under {split_type} has no runtime info: {message}"
            ),
            VerifyError::TerminalInput { value, split_type } => write!(
                f,
                "stage input v{value} is typed with terminal split type \
                 {split_type}; partial results must merge before consumption"
            ),
            VerifyError::HeldInput { value } => write!(
                f,
                "split input v{value} is still held as pieces; held values must be \
                 merged before a stage reads them"
            ),
        }
    }
}

/// Layer 1: check a runtime-registered annotation against the paper's
/// typing rules (§3). Returns every violation found, empty when the
/// annotation is sound.
pub fn check_annotation(annot: &Annotation) -> Vec<VerifyError> {
    let mut errs = Vec::new();
    let name = annot.name.to_string();
    let arity = annot.args.len();
    let mutable = |i: usize| annot.args.get(i).map(|s| s.mutable).unwrap_or(false);

    let mut bound_generics: HashSet<u32> = HashSet::new();
    for spec in &annot.args {
        if let SplitTypeExpr::Generic(g) = &spec.ty {
            bound_generics.insert(*g);
        }
    }

    // Constructor discipline, shared between argument and return types.
    let check_ctor = |position: &str, ctor_args: &[usize], errs: &mut Vec<VerifyError>| {
        for &idx in ctor_args {
            if idx >= arity {
                errs.push(VerifyError::CtorArgOutOfRange {
                    annotation: name.clone(),
                    position: position.to_string(),
                    index: idx,
                    arity,
                });
            } else if mutable(idx) {
                errs.push(VerifyError::CtorArgMutable {
                    annotation: name.clone(),
                    position: position.to_string(),
                    index: idx,
                });
            }
        }
    };

    for spec in &annot.args {
        match &spec.ty {
            SplitTypeExpr::Unknown { .. } => errs.push(VerifyError::UnknownArgType {
                annotation: name.clone(),
                arg: spec.name.to_string(),
            }),
            SplitTypeExpr::Concrete {
                splitter,
                ctor_args,
            } => {
                check_ctor(&format!("argument `{}`", spec.name), ctor_args, &mut errs);
                let strategy = splitter.merge_strategy();
                if strategy.terminal() {
                    errs.push(VerifyError::TerminalArgType {
                        annotation: name.clone(),
                        arg: spec.name.to_string(),
                        split_type: splitter.name().to_string(),
                    });
                }
                if spec.mutable
                    && !matches!(strategy, MergeStrategy::None | MergeStrategy::Concat { .. })
                {
                    errs.push(VerifyError::MutArgNotInPlace {
                        annotation: name.clone(),
                        arg: spec.name.to_string(),
                        reason: format!(
                            "{} merges with strategy {:?}, which builds a new value \
                             instead of recovering the mutated storage",
                            splitter.name(),
                            strategy
                        ),
                    });
                }
            }
            // Generic mut args are legal: the generic resolves to a
            // concrete instance at plan time, and the plan verifier
            // checks the resolved strategy on every InPlace output.
            SplitTypeExpr::Missing if spec.mutable => {
                errs.push(VerifyError::MutArgNotInPlace {
                    annotation: name.clone(),
                    arg: spec.name.to_string(),
                    reason: "it is broadcast whole (`_`); concurrent batches would \
                             race on the shared storage"
                        .to_string(),
                });
            }
            _ => {}
        }
    }

    match &annot.ret {
        Some(SplitTypeExpr::Missing) => errs.push(VerifyError::MissingReturnType {
            annotation: name.clone(),
        }),
        Some(SplitTypeExpr::Generic(g)) => {
            if !bound_generics.contains(g) {
                errs.push(VerifyError::UnboundReturnGeneric {
                    annotation: name.clone(),
                    generic: *g,
                });
            }
        }
        Some(SplitTypeExpr::Concrete {
            splitter: _,
            ctor_args,
        }) => {
            check_ctor("return", ctor_args, &mut errs);
        }
        Some(SplitTypeExpr::Unknown { .. }) | None => {}
    }

    errs
}

/// Advisory lints over one annotation: findings that indicate a missed
/// optimization or a suspicious declaration rather than unsoundness.
/// The runtime gate ([`check_annotation`]) does not enforce these —
/// a Concat-strategy splitter without the [`Concat`](crate::split::Concat)
/// capability still merges correctly through placement or
/// [`Splitter::merge`](crate::split::Splitter::merge) — but
/// `mozart-check` reports them so annotators
/// notice that requests over such a type can never be coalesced.
pub fn lint_annotation(annot: &Annotation) -> Vec<VerifyError> {
    let mut lints = Vec::new();
    let exprs = annot
        .args
        .iter()
        .map(|a| Some(&a.ty))
        .chain(std::iter::once(annot.ret.as_ref()));
    let mut seen: Vec<&str> = Vec::new();
    for expr in exprs.flatten() {
        if let SplitTypeExpr::Concrete { splitter, .. } = expr {
            if seen.contains(&splitter.name()) {
                continue;
            }
            seen.push(splitter.name());
            if matches!(splitter.merge_strategy(), MergeStrategy::Concat { .. })
                && splitter.concat().is_none()
            {
                lints.push(VerifyError::ConcatWithoutCapability {
                    annotation: annot.name.to_string(),
                    split_type: splitter.name().to_string(),
                });
            }
        }
    }
    lints
}

/// What [`verify_stage`] has learned about one slot of the plan it
/// checks. Once every value the stage touches holds a slot of its own, a
/// fact about a slot is a fact about its value, so the proof reads rows
/// of one array where it would otherwise hash value and node ids.
#[derive(Clone, Copy, Default)]
struct SlotFacts {
    /// The value that claimed the slot.
    owner: Option<ValueId>,
    /// Readable by the stage's next node: a stage input, a broadcast, or
    /// produced by an earlier node.
    defined: bool,
    /// Passed whole to every batch.
    broadcast: bool,
    /// A return or mut-version of a node of the stage.
    produced: bool,
    /// The node of the stage that has mutated the owner's storage in
    /// place.
    mutated_by: Option<NodeId>,
    /// The first pending node outside the stage that reads the owner.
    reader: Option<NodeId>,
}

/// Layer 2: statically prove one stage plan sound against its graph.
///
/// Run before every stage executes — fresh plans and plan-cache replay
/// binds alike — against the [`Demand`] of the read that triggered the
/// evaluation. Returns the first violation found; the caller surfaces
/// it as [`Error::Verify`](crate::error::Error) and refuses to execute
/// the stage.
pub fn verify_stage(
    graph: &DataflowGraph,
    plan: &StagePlan,
    config: &Config,
    demand: Demand,
) -> Result<(), VerifyError> {
    // --- Slots, def-before-use, stale reads, mut/shared aliasing ------
    // One pass in stage order. A slot error anywhere outranks a misuse
    // found earlier in the pass, so the first misuse waits until every
    // value the stage touches has claimed its slot.
    let mut facts = vec![SlotFacts::default(); plan.num_slots as usize];
    for (vid, _) in &plan.inputs {
        let s = claim(plan, &mut facts, *vid)?;
        facts[s].defined = true;
    }
    for vid in &plan.broadcast {
        let s = claim(plan, &mut facts, *vid)?;
        (facts[s].defined, facts[s].broadcast) = (true, true);
    }
    let mut misuse = None;
    for &nid in &plan.nodes {
        let node = graph
            .nodes
            .get(nid.0 as usize)
            .ok_or(VerifyError::NodeOutOfRange { node: nid.0 })?;
        let args = graph.args(node);
        for (&a, spec) in args.iter().zip(&node.annot.args) {
            let s = claim(plan, &mut facts, a)?;
            if misuse.is_none() {
                misuse = misused(nid, a, facts[s], spec.mutable);
            }
        }
        for (i, mv) in graph.mut_outs(node) {
            let s = claim(plan, &mut facts, mv)?;
            (facts[s].defined, facts[s].produced) = (true, true);
            facts[plan.slot_of(args[i]) as usize].mutated_by = Some(nid);
        }
        if let Some(rv) = node.ret {
            let s = claim(plan, &mut facts, rv)?;
            (facts[s].defined, facts[s].produced) = (true, true);
        }
    }
    if let Some(e) = misuse {
        return Err(e);
    }

    // --- Pending readers ----------------------------------------------
    // A `Discard`, `Deferred` or `Lineage` output must have no pending
    // reader outside the stage among the nodes up to its last consumer.
    // One pass over those nodes records each stage value's first such
    // reader.
    let readers_end = plan
        .outputs
        .iter()
        .filter(|o| {
            matches!(
                o.kind,
                OutputKind::Discard | OutputKind::Deferred | OutputKind::Lineage
            )
        })
        .filter_map(|o| graph.values.get(o.value.0 as usize)?.last_consumer)
        .map(|c| c.0 as usize + 1)
        .max()
        .unwrap_or(0);
    if readers_end > 0 {
        // Stage membership over the span of the stage's node ids (a
        // planned stage is a contiguous run).
        let first = plan.nodes.iter().map(|n| n.0 as usize).min().unwrap_or(0);
        let span = plan.nodes.iter().map(|n| n.0 as usize + 1 - first).max();
        let mut in_stage = vec![false; span.unwrap_or(0)];
        for n in &plan.nodes {
            in_stage[n.0 as usize - first] = true;
        }
        let nodes = graph.nodes.iter().zip(0..).take(readers_end);
        for (node, c) in nodes {
            let staged = c >= first && in_stage.get(c - first).copied().unwrap_or(false);
            if node.executed || staged {
                continue;
            }
            for &a in graph.args(node) {
                let row = plan.slots.get(a).and_then(|s| facts.get_mut(s as usize));
                if let Some(row) = row.filter(|row| row.owner == Some(a)) {
                    row.reader.get_or_insert(NodeId(c as u32));
                }
            }
        }
    }

    // --- Output discipline --------------------------------------------
    for out in &plan.outputs {
        let row = plan
            .slots
            .get(out.value)
            .and_then(|s| facts.get(s as usize))
            .filter(|row| row.owner == Some(out.value) && row.produced)
            .ok_or(VerifyError::OutputNotProduced { value: out.value.0 })?;
        let entry = &graph.values[out.value.0 as usize];
        let last = entry.last_consumer.map_or(0, |c| c.0 + 1);
        let pending_consumer = row.reader.filter(|c| c.0 < last);
        match out.kind {
            OutputKind::Discard => {
                if let Some(c) = pending_consumer {
                    return Err(VerifyError::DiscardedLive {
                        value: out.value.0,
                        consumer: Some(c.0),
                    });
                }
                if entry.observable() {
                    return Err(VerifyError::DiscardedLive {
                        value: out.value.0,
                        consumer: None,
                    });
                }
            }
            OutputKind::Deferred | OutputKind::Lineage => {
                let concat = matches!(out.instance.merge_strategy(), MergeStrategy::Concat { .. });
                if out.kind == OutputKind::Lineage && !(entry.recomputable && concat) {
                    return Err(VerifyError::LineageNotRecomputable { value: out.value.0 });
                }
                if let Some(c) = pending_consumer {
                    return Err(VerifyError::DeferredConsumed {
                        value: out.value.0,
                        consumer: c.0,
                    });
                }
                if demand.wants(out.value, entry.observable()) {
                    return Err(VerifyError::DeferredDemanded { value: out.value.0 });
                }
            }
            OutputKind::InPlace => {
                if !matches!(entry.origin, ValueOrigin::MutVersion { .. }) {
                    return Err(VerifyError::InPlaceNotMutVersion { value: out.value.0 });
                }
                // The annotation checker can only vet *concrete* mut
                // arg types; a generic one resolves here, so re-check
                // that the resolved strategy recovers in-place views.
                if !matches!(
                    out.instance.merge_strategy(),
                    MergeStrategy::None | MergeStrategy::Concat { .. }
                ) {
                    return Err(VerifyError::InPlaceBadStrategy {
                        value: out.value.0,
                        split_type: out.instance.splitter.name().to_string(),
                    });
                }
            }
            OutputKind::Merge => {}
        }
    }

    // --- Element totals, batch partition, held inputs ----------------
    let mut total: Option<u64> = None;
    let mut sum_elem_bytes: u64 = 0;
    for (vid, instance) in &plan.inputs {
        if instance.terminal() {
            return Err(VerifyError::TerminalInput {
                value: vid.0,
                split_type: instance.splitter.name().to_string(),
            });
        }
        if graph.held(*vid).is_some() {
            return Err(VerifyError::HeldInput { value: vid.0 });
        }
        // Verification must work on *pending* plans: fall back to
        // captured (pre-execution) data where the merged value does not
        // exist yet, exactly like the planner's constructor pass. Values
        // with no data at all (returns of earlier unexecuted stages)
        // cannot be characterized here; skip them rather than reject —
        // the executor re-checks totals when it binds real data.
        let (input_total, elem_bytes) = match graph.captured_data(*vid) {
            Some(data) => match instance.splitter.info(data, &instance.params) {
                Ok(info) => (info.total_elements, info.elem_size_bytes),
                Err(e) => {
                    return Err(VerifyError::InfoUnavailable {
                        value: vid.0,
                        split_type: instance.splitter.name().to_string(),
                        message: e.to_string(),
                    })
                }
            },
            None => continue,
        };
        match total {
            None => total = Some(input_total),
            Some(t) if t == input_total => {}
            Some(t) => {
                return Err(VerifyError::ElementMismatch {
                    value: vid.0,
                    expected: t,
                    actual: input_total,
                })
            }
        }
        sum_elem_bytes += elem_bytes;
    }

    // Batch partition proof: with total `n` and batch `b >= 1`, the
    // executor's cursor claims ranges [i*b, min((i+1)*b, n)), which
    // partition [0, n) exactly — each element lands in range i = e/b,
    // ranges are disjoint by construction, and the last range clamps to
    // n. The only degenerate case is b == 0 (driver spin, placement
    // offset corruption), which batch_elements is supposed to make
    // impossible; prove it per stage anyway.
    let total_elements = total.unwrap_or(1);
    let batch = config.batch_elements(sum_elem_bytes, total_elements);
    if batch == 0 || (total_elements > 0 && batch > total_elements) {
        return Err(VerifyError::BadBatchPartition {
            batch,
            total: total_elements,
        });
    }

    Ok(())
}

/// Give `vid` its slot's row in `facts`, returning the slot, or reject
/// the plan's slot map: no slot, one out of range, or one another value
/// already holds.
fn claim(plan: &StagePlan, facts: &mut [SlotFacts], vid: ValueId) -> Result<usize, VerifyError> {
    let slot = plan
        .slots
        .get(vid)
        .ok_or(VerifyError::SlotMissing { value: vid.0 })?;
    let Some(row) = facts.get_mut(slot as usize) else {
        return Err(VerifyError::SlotOutOfRange {
            value: vid.0,
            slot,
            num_slots: plan.num_slots,
        });
    };
    match row.owner {
        Some(owner) if owner != vid => Err(VerifyError::SlotAliased {
            slot,
            first: owner.0,
            second: vid.0,
        }),
        _ => {
            row.owner = Some(vid);
            Ok(slot as usize)
        }
    }
}

/// The misuse, if any, of `value` (whose facts are `row`) by node
/// `node`, which reads it through a `mut` argument or a shared one.
fn misused(node: NodeId, value: ValueId, row: SlotFacts, mutable: bool) -> Option<VerifyError> {
    let (node, value) = (node.0, value.0);
    if !row.defined {
        return Some(VerifyError::UseBeforeDef { node, value });
    }
    if let Some(m) = row.mutated_by {
        return Some(VerifyError::StaleRead {
            node,
            value,
            mutated_by: m.0,
        });
    }
    // A value bound mut (split, written in place) that is also broadcast
    // whole to every worker: the whole-value readers race with the
    // in-place writers. Two *split* bindings of the same value are fine
    // — one slot per value means both positions see the identical range,
    // the aliasing elementwise annotations document as tolerated.
    (mutable && row.broadcast).then_some(VerifyError::MutSharedAlias { node, value })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::{concrete, generic, missing, unknown, Annotation};
    use crate::split::{SizeSplit, SplitInstance, Splitter};
    use crate::value::DataValue;
    use std::ops::Range;
    use std::sync::Arc;

    /// A merge-only terminal reducer for rule tests.
    struct TermReduce;
    impl Splitter for TermReduce {
        fn name(&self) -> &'static str {
            "TermReduce"
        }
        fn construct(&self, _c: &[&DataValue]) -> crate::error::Result<crate::split::Params> {
            Ok(vec![])
        }
        fn info(
            &self,
            _a: &DataValue,
            _p: &crate::split::Params,
        ) -> crate::error::Result<crate::split::RuntimeInfo> {
            Err(crate::error::Error::Split {
                split_type: "TermReduce",
                message: "merge-only".into(),
            })
        }
        fn split(
            &self,
            _a: &DataValue,
            _r: Range<u64>,
            _p: &crate::split::Params,
        ) -> crate::error::Result<Option<DataValue>> {
            Err(crate::error::Error::Split {
                split_type: "TermReduce",
                message: "merge-only".into(),
            })
        }
        fn merge(
            &self,
            pieces: Vec<DataValue>,
            _p: &crate::split::Params,
            _t: u64,
        ) -> crate::error::Result<DataValue> {
            Ok(pieces.into_iter().next().expect("nonempty"))
        }
        fn merge_strategy(&self) -> MergeStrategy {
            MergeStrategy::Commutative { terminal: true }
        }
    }

    /// A concat-strategy splitter with no concat capability.
    struct ConcatNoCap;
    impl Splitter for ConcatNoCap {
        fn name(&self) -> &'static str {
            "ConcatNoCap"
        }
        fn construct(&self, _c: &[&DataValue]) -> crate::error::Result<crate::split::Params> {
            Ok(vec![])
        }
        fn info(
            &self,
            _a: &DataValue,
            _p: &crate::split::Params,
        ) -> crate::error::Result<crate::split::RuntimeInfo> {
            Ok(crate::split::RuntimeInfo {
                total_elements: 1,
                elem_size_bytes: 0,
            })
        }
        fn split(
            &self,
            a: &DataValue,
            _r: Range<u64>,
            _p: &crate::split::Params,
        ) -> crate::error::Result<Option<DataValue>> {
            Ok(Some(a.clone()))
        }
        fn merge(
            &self,
            pieces: Vec<DataValue>,
            _p: &crate::split::Params,
            _t: u64,
        ) -> crate::error::Result<DataValue> {
            Ok(pieces.into_iter().next().expect("nonempty"))
        }
        fn merge_strategy(&self) -> MergeStrategy {
            MergeStrategy::Concat { placement: None }
        }
    }

    fn noop(_: &crate::annotation::Invocation<'_>) -> crate::error::Result<Option<DataValue>> {
        Ok(None)
    }

    #[test]
    fn sound_annotation_passes() {
        let a = Annotation::new("ok", noop)
            .arg("size", concrete(Arc::new(SizeSplit), vec![0]))
            .arg("x", generic(0))
            .ret(generic(0))
            .build();
        assert!(check_annotation(&a).is_empty());
    }

    #[test]
    fn unknown_arg_rejected() {
        let a = Annotation::new("bad", noop)
            .arg("x", unknown(Arc::new(SizeSplit)))
            .build();
        let errs = check_annotation(&a);
        assert!(
            matches!(errs[0], VerifyError::UnknownArgType { .. }),
            "{errs:?}"
        );
    }

    #[test]
    fn unbound_return_generic_rejected() {
        let a = Annotation::new("bad", noop)
            .arg("x", generic(0))
            .ret(generic(1))
            .build();
        let errs = check_annotation(&a);
        assert!(
            matches!(
                errs[0],
                VerifyError::UnboundReturnGeneric { generic: 1, .. }
            ),
            "{errs:?}"
        );
    }

    #[test]
    fn ctor_rules_rejected() {
        let a = Annotation::new("bad", noop)
            .arg("x", concrete(Arc::new(SizeSplit), vec![5]))
            .build();
        let errs = check_annotation(&a);
        assert!(
            matches!(
                errs[0],
                VerifyError::CtorArgOutOfRange {
                    index: 5,
                    arity: 1,
                    ..
                }
            ),
            "{errs:?}"
        );

        let a = Annotation::new("bad2", noop)
            .arg("x", generic(0))
            .mut_arg(
                "out",
                concrete(Arc::new(crate::array_split::ArraySplit), vec![1]),
            )
            .build();
        let errs = check_annotation(&a);
        assert!(
            errs.iter()
                .any(|e| matches!(e, VerifyError::CtorArgMutable { index: 1, .. })),
            "{errs:?}"
        );
    }

    #[test]
    fn mut_arg_strategy_rules() {
        // Commutative strategy cannot recover in-place views.
        let a = Annotation::new("bad", noop)
            .mut_arg("out", concrete(Arc::new(SizeSplit), vec![]))
            .build();
        let errs = check_annotation(&a);
        assert!(
            errs.iter()
                .any(|e| matches!(e, VerifyError::MutArgNotInPlace { .. })),
            "{errs:?}"
        );
        // A broadcast (`_`) mut arg would race across batches.
        let a = Annotation::new("bad2", noop)
            .mut_arg("out", missing())
            .build();
        assert!(check_annotation(&a)
            .iter()
            .any(|e| matches!(e, VerifyError::MutArgNotInPlace { .. })));
        // A generic mut arg is fine at annotation level: the plan
        // verifier checks the resolved instance instead.
        let a = Annotation::new("ok2", noop)
            .mut_arg("out", generic(0))
            .build();
        assert!(check_annotation(&a).is_empty());
        // ArraySplit (Concat) mut args are the sanctioned pattern.
        let a = Annotation::new("ok", noop)
            .mut_arg(
                "out",
                concrete(Arc::new(crate::array_split::ArraySplit), vec![]),
            )
            .build();
        assert!(check_annotation(&a).is_empty());
    }

    #[test]
    fn terminal_arg_rejected_and_ret_allowed() {
        let a = Annotation::new("bad", noop)
            .arg("x", concrete(Arc::new(TermReduce), vec![]))
            .build();
        let errs = check_annotation(&a);
        assert!(
            matches!(errs[0], VerifyError::TerminalArgType { .. }),
            "{errs:?}"
        );
        let a = Annotation::new("ok", noop)
            .arg("x", generic(0))
            .ret(concrete(Arc::new(TermReduce), vec![]))
            .build();
        assert!(check_annotation(&a).is_empty());
    }

    #[test]
    fn concat_ret_without_capability_is_a_lint_not_an_error() {
        let a = Annotation::new("bad", noop)
            .arg("x", generic(0))
            .ret(concrete(Arc::new(ConcatNoCap), vec![]))
            .build();
        // Legal at runtime: placement / Splitter::merge still work.
        assert!(check_annotation(&a).is_empty());
        // But mozart-check reports that requests over it cannot coalesce.
        let lints = lint_annotation(&a);
        assert!(
            matches!(lints[0], VerifyError::ConcatWithoutCapability { .. }),
            "{lints:?}"
        );
    }

    #[test]
    fn missing_ret_rejected() {
        let a = Annotation::new("bad", noop)
            .arg("x", generic(0))
            .ret(missing())
            .build();
        let errs = check_annotation(&a);
        assert!(
            matches!(errs[0], VerifyError::MissingReturnType { .. }),
            "{errs:?}"
        );
    }

    #[test]
    fn terminal_input_instance_rejected_in_plan() {
        use crate::graph::DataflowGraph;
        use crate::planner::{SlotTable, StagePlan};
        let graph = DataflowGraph::default();
        let inst = SplitInstance::new(Arc::new(TermReduce), vec![]);
        let plan = StagePlan {
            nodes: vec![],
            inputs: vec![(ValueId(0), inst)],
            broadcast: vec![],
            outputs: vec![],
            slots: SlotTable::from_slots(&[Some(0)]),
            num_slots: 1,
        };
        let err =
            verify_stage(&graph, &plan, &Config::with_workers(1), Demand::AllLive).unwrap_err();
        assert!(matches!(err, VerifyError::TerminalInput { .. }), "{err}");
    }
}
