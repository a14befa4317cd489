//! Property tests for the Layer-2 plan verifier: start from a valid
//! graph + stage plan, apply one randomly-parameterized corruption
//! (drop a slot, alias two slots, discard a live output, defer a
//! demanded or consumed output, bind a held value as a split input,
//! ...), and assert `verify_stage` rejects it with the matching typed
//! [`VerifyError`] — never a panic, never a silent acceptance.
//!
//! The scenario mirrors the planner's output for a two-call pipeline:
//! `n0` scales a vector in place (mut arg -> `InPlace` output) and
//! `n1` squares the mut-version into a fresh return (`Merge` output),
//! with a pending consumer `n2` and a live user future keeping both
//! outputs observable.

use std::ops::Range;
use std::sync::Arc;

use proptest::prelude::*;

use mozart_core::annotation::{concrete, generic, missing, Annotation, Invocation};
use mozart_core::array_split::ArraySplit;
use mozart_core::buffer::{SharedVec, VecValue};
use mozart_core::config::Config;
use mozart_core::error::{Error, Result};
use mozart_core::graph::{
    DataflowGraph, FutureToken, Held, NodeId, ValueEntry, ValueId, ValueOrigin,
};
use mozart_core::planner::{Demand, OutputKind, SlotTable, StageOutput, StagePlan};
use mozart_core::split::{HeldPieces, MergeStrategy, Params, RuntimeInfo, SplitInstance, Splitter};
use mozart_core::value::{DataValue, FloatValue, IntValue};
use mozart_core::verify::{verify_stage, VerifyError};

/// Element count of the scenario's vector values.
const N: u64 = 16;

fn noop(_: &Invocation<'_>) -> Result<Option<DataValue>> {
    Ok(None)
}

/// Configurable stub splitter for the non-`ArraySplit` corruption
/// cases: commutative merge (so the strategy cannot recover in-place
/// views), optionally terminal, optionally refusing `info` like a
/// merge-only reducer.
struct Stub {
    name: &'static str,
    terminal: bool,
    info_ok: bool,
}

impl Splitter for Stub {
    fn name(&self) -> &'static str {
        self.name
    }
    fn construct(&self, _c: &[&DataValue]) -> Result<Params> {
        Ok(vec![])
    }
    fn info(&self, _a: &DataValue, _p: &Params) -> Result<RuntimeInfo> {
        if self.info_ok {
            Ok(RuntimeInfo {
                total_elements: N,
                elem_size_bytes: 8,
            })
        } else {
            Err(Error::Split {
                split_type: self.name,
                message: "merge-only".into(),
            })
        }
    }
    fn split(&self, _a: &DataValue, _r: Range<u64>, _p: &Params) -> Result<Option<DataValue>> {
        Err(Error::Split {
            split_type: self.name,
            message: "merge-only".into(),
        })
    }
    fn merge(&self, pieces: Vec<DataValue>, _p: &Params, _t: u64) -> Result<DataValue> {
        Ok(pieces.into_iter().next().expect("nonempty"))
    }
    fn merge_strategy(&self) -> MergeStrategy {
        MergeStrategy::Commutative {
            terminal: self.terminal,
        }
    }
}

fn terminal_inst() -> SplitInstance {
    SplitInstance::new(
        Arc::new(Stub {
            name: "TermStub",
            terminal: true,
            info_ok: false,
        }),
        vec![],
    )
}

fn no_info_inst() -> SplitInstance {
    SplitInstance::new(
        Arc::new(Stub {
            name: "NoInfoStub",
            terminal: false,
            info_ok: false,
        }),
        vec![],
    )
}

fn commut_inst() -> SplitInstance {
    SplitInstance::new(
        Arc::new(Stub {
            name: "CommutStub",
            terminal: false,
            info_ok: true,
        }),
        vec![],
    )
}

fn arr(n: u64) -> SplitInstance {
    SplitInstance::new(Arc::new(ArraySplit), vec![n as i64])
}

fn vec_value(n: u64) -> DataValue {
    DataValue::new(VecValue(SharedVec::from_vec(vec![0.0f64; n as usize])))
}

fn source(data: DataValue) -> ValueEntry {
    ValueEntry {
        origin: ValueOrigin::Source,
        data: Some(data),
        ready: true,
        held: None,
        recomputable: false,
        merge_origin: None,
        last_consumer: None,
        user_token: None,
    }
}

/// A valid graph + plan pair that `verify_stage` accepts, plus the
/// token keeping the user future for `v2` alive.
struct Scenario {
    graph: DataflowGraph,
    plan: StagePlan,
    _token: Arc<FutureToken>,
}

/// Values: v0 = source vector (split input), v1 = source scalar
/// (broadcast), v2 = mut-version of v0 produced by n0 (InPlace output,
/// user-visible future), v3 = return of n1 (Merge output), v4 = spare
/// source vector of a different length (unused until the
/// `ElementMismatch` mutation drafts it as a second split input).
/// Nodes: n0 and n1 form the stage; n2 is a pending consumer of v3
/// outside it.
fn scenario() -> Scenario {
    scenario_with_n1_reading(ValueId(2))
}

/// Value `i` in slot `i`: the valid plan's slot table, as a list to
/// corrupt.
fn valid_slots(values: u32) -> Vec<Option<u32>> {
    (0..values).map(Some).collect()
}

/// [`scenario`], with n1 reading `n1_arg` instead of v2.
fn scenario_with_n1_reading(n1_arg: ValueId) -> Scenario {
    let token = Arc::new(FutureToken);
    let mut graph = DataflowGraph::default();

    let v0 = graph.push_value(source(vec_value(N)));
    let v1 = graph.push_value(source(DataValue::new(IntValue(N as i64))));
    let v2 = graph.push_value(ValueEntry {
        origin: ValueOrigin::MutVersion {
            node: NodeId(0),
            arg: 0,
            prev: v0,
        },
        data: Some(vec_value(N)),
        ready: false,
        held: None,
        recomputable: false,
        merge_origin: None,
        last_consumer: None,
        user_token: Some(Arc::downgrade(&token)),
    });

    let scale = Annotation::new("pscale", noop)
        // MKL convention: the split parameter comes from the size
        // argument (index 1), never from the mutated storage.
        .mut_arg("xs", concrete(Arc::new(ArraySplit), vec![1]))
        .arg("n", missing())
        .build();
    graph.push_node(scale, &[v0, v1, v2], None);

    let v3 = graph.push_value(ValueEntry {
        origin: ValueOrigin::Ret(NodeId(1)),
        data: None,
        ready: false,
        held: None,
        recomputable: false,
        merge_origin: None,
        last_consumer: None,
        user_token: None,
    });
    let square = Annotation::new("psquare", noop)
        .arg("x", generic(0))
        .ret(generic(0))
        .build();
    graph.push_node(square.clone(), &[n1_arg], Some(v3));
    // n2: pending consumer of v3, outside the stage.
    graph.push_node(square, &[v3], None);

    // v4: spare source of a different length, not in the valid plan.
    graph.push_value(source(vec_value(N / 2)));

    let slots = SlotTable::from_slots(&valid_slots(4));
    let plan = StagePlan {
        nodes: vec![NodeId(0), NodeId(1)],
        inputs: vec![(v0, arr(N))],
        broadcast: vec![v1],
        outputs: vec![
            StageOutput {
                value: v2,
                instance: arr(N),
                kind: OutputKind::InPlace,
            },
            StageOutput {
                value: v3,
                instance: arr(N),
                kind: OutputKind::Merge,
            },
        ],
        slots,
        num_slots: 4,
    };
    Scenario {
        graph,
        plan,
        _token: token,
    }
}

/// One corruption of the valid scenario, with its parameters.
#[derive(Debug, Clone)]
enum Mutation {
    /// Delete value `which`'s slot assignment.
    UnslotValue(u32),
    /// Move value `which`'s slot to `num_slots + off`.
    SlotOutOfRange { which: u32, off: u32 },
    /// Give value `(base + delta) % 4` the same slot as value `base`.
    AliasSlots { base: u32, delta: u32 },
    /// Remove the split input so n0 reads an undefined value.
    DropSplitInput,
    /// Point the plan at a node the graph does not have.
    BogusNode(u32),
    /// Discard v3 while pending n2 still consumes it.
    DiscardConsumedOutput,
    /// Discard v2 while the application holds a live future for it.
    DiscardUserVisibleOutput,
    /// Defer v3 while pending n2 still consumes it.
    DeferConsumedOutput,
    /// Defer v3 — no longer consumed, but observed through a live
    /// future — although the triggering read demands it.
    DeferDemandedOutput,
    /// Keep recomputable v3 as lineage while pending n2 still consumes
    /// it.
    LineageConsumedOutput,
    /// Keep v3 — observed, not demanded — as lineage although it reads
    /// the mutated storage of v2, so it is not recomputable.
    LineageNotRecomputable,
    /// Mark the returned v3 as an InPlace output.
    InPlaceOnReturn,
    /// Resolve the InPlace output v2 to a commutative-merge instance.
    InPlaceBadStrategy,
    /// Rewire n1 to read pre-mutation v0 after n0 mutated its storage.
    StaleRead,
    /// Broadcast v0 whole while n0 binds it mut.
    MutSharedAlias,
    /// Emit v0 as an output no stage node produces.
    ForeignOutput,
    /// Bind the split input under a terminal (merge-only) split type.
    TerminalInput,
    /// Bind the split input under a splitter whose `info` errors.
    InfoUnavailable,
    /// Add a second split input of `len != N` elements.
    ElementMismatch { len: u64 },
    /// Hold the split input v0 as `pieces` pieces instead of whole, as a
    /// deferred output nobody merged.
    HeldInput { pieces: u64 },
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0u32..4).prop_map(Mutation::UnslotValue),
        (0u32..4, 0u32..8).prop_map(|(which, off)| Mutation::SlotOutOfRange { which, off }),
        (0u32..4, 1u32..4).prop_map(|(base, delta)| Mutation::AliasSlots { base, delta }),
        Just(Mutation::DropSplitInput),
        (0u32..8).prop_map(Mutation::BogusNode),
        Just(Mutation::DiscardConsumedOutput),
        Just(Mutation::DiscardUserVisibleOutput),
        Just(Mutation::DeferConsumedOutput),
        Just(Mutation::DeferDemandedOutput),
        Just(Mutation::LineageConsumedOutput),
        Just(Mutation::LineageNotRecomputable),
        Just(Mutation::InPlaceOnReturn),
        Just(Mutation::InPlaceBadStrategy),
        Just(Mutation::StaleRead),
        Just(Mutation::MutSharedAlias),
        Just(Mutation::ForeignOutput),
        Just(Mutation::TerminalInput),
        Just(Mutation::InfoUnavailable),
        (1u64..2 * N).prop_map(|len| Mutation::ElementMismatch {
            len: if len == N { N + N } else { len },
        }),
        (1u64..N + 1).prop_map(|pieces| Mutation::HeldInput { pieces }),
    ]
}

/// Make v3 live-only — its consumer n2 has run, the application holds
/// a future for it — and plan it `Deferred`: sound exactly when the
/// triggering read does not demand it.
fn defer_observed_v3(s: &mut Scenario) {
    s.graph.nodes[2].executed = true;
    s.graph.values[3].user_token = Some(Arc::downgrade(&s._token));
    s.plan.outputs[1].kind = OutputKind::Deferred;
}

fn apply(s: &mut Scenario, m: &Mutation) {
    match m {
        Mutation::UnslotValue(which) => {
            let mut slots = valid_slots(4);
            slots[*which as usize] = None;
            s.plan.slots = SlotTable::from_slots(&slots);
        }
        Mutation::SlotOutOfRange { which, off } => {
            let mut slots = valid_slots(4);
            slots[*which as usize] = Some(s.plan.num_slots + off);
            s.plan.slots = SlotTable::from_slots(&slots);
        }
        Mutation::AliasSlots { base, delta } => {
            let mut slots = valid_slots(4);
            slots[((base + delta) % 4) as usize] = slots[*base as usize];
            s.plan.slots = SlotTable::from_slots(&slots);
        }
        Mutation::DropSplitInput => {
            s.plan.inputs.clear();
        }
        Mutation::BogusNode(k) => {
            s.plan.nodes = vec![NodeId(3 + k)];
        }
        Mutation::DiscardConsumedOutput => {
            s.plan.outputs[1].kind = OutputKind::Discard;
        }
        Mutation::DiscardUserVisibleOutput => {
            s.plan.outputs[0].kind = OutputKind::Discard;
        }
        Mutation::DeferConsumedOutput => {
            s.plan.outputs[1].kind = OutputKind::Deferred;
        }
        Mutation::DeferDemandedOutput => defer_observed_v3(s),
        Mutation::LineageConsumedOutput => {
            s.graph.values[3].recomputable = true;
            s.plan.outputs[1].kind = OutputKind::Lineage;
        }
        Mutation::LineageNotRecomputable => {
            defer_observed_v3(s);
            s.plan.outputs[1].kind = OutputKind::Lineage;
        }
        Mutation::InPlaceOnReturn => {
            s.plan.outputs[1].kind = OutputKind::InPlace;
        }
        Mutation::InPlaceBadStrategy => {
            s.plan.outputs[0].instance = commut_inst();
        }
        Mutation::StaleRead => *s = scenario_with_n1_reading(ValueId(0)),
        Mutation::MutSharedAlias => {
            s.plan.broadcast.push(ValueId(0));
        }
        Mutation::ForeignOutput => {
            s.plan.outputs.push(StageOutput {
                value: ValueId(0),
                instance: arr(N),
                kind: OutputKind::Merge,
            });
        }
        Mutation::TerminalInput => {
            s.plan.inputs[0].1 = terminal_inst();
        }
        Mutation::InfoUnavailable => {
            s.plan.inputs[0].1 = no_info_inst();
        }
        Mutation::ElementMismatch { len } => {
            // v4 was created with N/2 elements; rebuild it at `len` so
            // the mismatch magnitude varies per case.
            s.graph.values[4].data = Some(vec_value(*len));
            s.plan.inputs.push((ValueId(4), arr(*len)));
            s.plan.slots = SlotTable::from_slots(&valid_slots(5));
            s.plan.num_slots = 5;
        }
        Mutation::HeldInput { pieces } => {
            // Contiguous pieces of `len` elements covering all N, under
            // the very split type the plan binds: only holding is wrong.
            let len = N.div_ceil(*pieces);
            let piece = DataValue::new(FloatValue(0.0));
            let ranges = (0..N).step_by(len as usize);
            let pieces = ranges.map(|s| (s, N.min(s + len), piece.clone())).collect();
            let held = HeldPieces::new(pieces, N, arr(N)).expect("contiguous pieces");
            let entry = &mut s.graph.values[0];
            (entry.data, entry.ready, entry.held) =
                (None, false, Some(Held::Pieces(Arc::new(held))));
        }
    }
}

/// The typed rejection each mutation must produce.
fn expected(err: &VerifyError, m: &Mutation) -> bool {
    match m {
        Mutation::UnslotValue(w) => {
            matches!(err, VerifyError::SlotMissing { value } if value == w)
        }
        Mutation::SlotOutOfRange { which, .. } => {
            matches!(err, VerifyError::SlotOutOfRange { value, .. } if value == which)
        }
        Mutation::AliasSlots { .. } => matches!(err, VerifyError::SlotAliased { .. }),
        Mutation::DropSplitInput => {
            matches!(err, VerifyError::UseBeforeDef { node: 0, value: 0 })
        }
        Mutation::BogusNode(_) => matches!(err, VerifyError::NodeOutOfRange { .. }),
        Mutation::DiscardConsumedOutput => matches!(
            err,
            VerifyError::DiscardedLive {
                value: 3,
                consumer: Some(2),
            }
        ),
        Mutation::DiscardUserVisibleOutput => matches!(
            err,
            VerifyError::DiscardedLive {
                value: 2,
                consumer: None,
            }
        ),
        Mutation::DeferConsumedOutput => matches!(
            err,
            VerifyError::DeferredConsumed {
                value: 3,
                consumer: 2,
            }
        ),
        Mutation::DeferDemandedOutput => {
            matches!(err, VerifyError::DeferredDemanded { value: 3 })
        }
        Mutation::LineageConsumedOutput => matches!(
            err,
            VerifyError::DeferredConsumed {
                value: 3,
                consumer: 2,
            }
        ),
        Mutation::LineageNotRecomputable => {
            matches!(err, VerifyError::LineageNotRecomputable { value: 3 })
        }
        Mutation::InPlaceOnReturn => {
            matches!(err, VerifyError::InPlaceNotMutVersion { value: 3 })
        }
        Mutation::InPlaceBadStrategy => {
            matches!(err, VerifyError::InPlaceBadStrategy { value: 2, .. })
        }
        Mutation::StaleRead => matches!(
            err,
            VerifyError::StaleRead {
                node: 1,
                value: 0,
                mutated_by: 0,
            }
        ),
        Mutation::MutSharedAlias => {
            matches!(err, VerifyError::MutSharedAlias { node: 0, value: 0 })
        }
        Mutation::ForeignOutput => {
            matches!(err, VerifyError::OutputNotProduced { value: 0 })
        }
        Mutation::TerminalInput => {
            matches!(err, VerifyError::TerminalInput { value: 0, .. })
        }
        Mutation::InfoUnavailable => {
            matches!(err, VerifyError::InfoUnavailable { value: 0, .. })
        }
        Mutation::ElementMismatch { len } => matches!(
            err,
            VerifyError::ElementMismatch { value: 4, expected: N, actual } if actual == len
        ),
        Mutation::HeldInput { .. } => matches!(err, VerifyError::HeldInput { value: 0 }),
    }
}

#[test]
fn valid_plan_verifies() {
    let s = scenario();
    let cfg = Config::with_workers(2);
    verify_stage(&s.graph, &s.plan, &cfg, Demand::AllLive)
        .expect("the unmutated scenario must verify");
}

#[test]
fn deferred_output_verifies_unless_demanded() {
    let mut s = scenario();
    let cfg = Config::with_workers(2);
    defer_observed_v3(&mut s);
    for demand in [Demand::Nothing, Demand::Value(ValueId(2))] {
        verify_stage(&s.graph, &s.plan, &cfg, demand)
            .expect("a live value nobody asked for may stay pieces");
    }
    for demand in [Demand::AllLive, Demand::Value(ValueId(3))] {
        assert_eq!(
            verify_stage(&s.graph, &s.plan, &cfg, demand),
            Err(VerifyError::DeferredDemanded { value: 3 })
        );
    }
}

/// The lineage twin of the test above: a recomputable live value nobody
/// asked for may be kept as lineage, and a demanded or still-consumed
/// one may not.
#[test]
fn lineage_output_verifies_unless_demanded_or_consumed() {
    let mut s = scenario();
    let cfg = Config::with_workers(2);
    defer_observed_v3(&mut s);
    s.graph.values[3].recomputable = true;
    s.plan.outputs[1].kind = OutputKind::Lineage;
    verify_stage(&s.graph, &s.plan, &cfg, Demand::Nothing)
        .expect("a recomputable live value nobody asked for may stay lineage");
    assert_eq!(
        verify_stage(&s.graph, &s.plan, &cfg, Demand::Value(ValueId(3))),
        Err(VerifyError::DeferredDemanded { value: 3 })
    );
    s.graph.nodes[2].executed = false;
    assert_eq!(
        verify_stage(&s.graph, &s.plan, &cfg, Demand::Nothing),
        Err(VerifyError::DeferredConsumed {
            value: 3,
            consumer: 2
        })
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_plans_are_rejected(m in mutation()) {
        let mut s = scenario();
        let cfg = Config::with_workers(2);
        prop_assert!(
            verify_stage(&s.graph, &s.plan, &cfg, Demand::AllLive).is_ok(),
            "baseline scenario failed to verify"
        );
        apply(&mut s, &m);
        match verify_stage(&s.graph, &s.plan, &cfg, Demand::AllLive) {
            Err(e) => prop_assert!(
                expected(&e, &m),
                "mutation {:?} produced unexpected rejection: {}",
                m, e
            ),
            Ok(()) => prop_assert!(false, "mutation {:?} was silently accepted", m),
        }
    }
}
