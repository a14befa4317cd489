//! Split-form intermediates (ISSUE 9): a stage's merge output consumed
//! only by later re-splitting nodes crosses the stage boundary as an
//! ordered piece set ([`SplitForm`]) — no merge, no downstream
//! re-split.
//!
//! The invariants under test:
//!
//! * hand-offs elide the merge→re-split round-trip while producing
//!   results **bit-identical** to the element-wise values and to the
//!   classic path (the same chain with its intermediates held, so they
//!   merge);
//! * misaligned downstream batch boundaries re-slice through the split
//!   type's `Concat` capability, still bit-identically;
//! * hand-offs compose with placement merges, plan-cache replay,
//!   cooperative cancellation, and injected faults;
//! * values the application observes, `_`-typed consumers, and split
//!   types without a `Concat` capability always merge classically.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use mozart_core::annotation::{generic, missing, unknown, Annotation};
use mozart_core::faultinject::silence_injected_panics;
use mozart_core::prelude::*;

// ---------------------------------------------------------------------
// A functional toy library over f64 arrays: every call returns a fresh
// buffer, so multi-stage chains produce real merge outputs (the
// round-trip split-form exists to elide).
// ---------------------------------------------------------------------

/// Borrow piece elements whether the piece is a `SliceView` (classic
/// split of a materialized value) or an owned `VecValue` (a split-form
/// hand-off piece, which is the producing batch's fresh result).
fn piece_elems(v: &DataValue) -> Result<Vec<f64>> {
    if let Some(v) = v.downcast_ref::<VecValue>() {
        return Ok(v.0.as_slice().to_vec());
    }
    if let Some(v) = v.downcast_ref::<SliceView>() {
        // SAFETY: the executor hands each worker disjoint ranges and
        // no one mutates the parent during the task phase.
        return Ok(unsafe { v.as_slice() }.to_vec());
    }
    Err(Error::Library(format!(
        "expected an array piece, got {}",
        v.type_name()
    )))
}

/// `ys = xs * k`, functional (returns a fresh array piece per batch).
/// Built once: plan-cache fingerprints key on the annotation's address,
/// so a chain rebuilt per context would replay only when the allocator
/// happened to reuse the freed one's address.
fn vmul() -> Arc<Annotation> {
    static VMUL: OnceLock<Arc<Annotation>> = OnceLock::new();
    let build = || {
        Annotation::new("sf_vmul", |inv| {
            let xs = piece_elems(&inv.args[0])?;
            let k = inv.float(1)?;
            Ok(Some(DataValue::new(VecValue(SharedVec::from_vec(
                xs.iter().map(|x| x * k).collect(),
            )))))
        })
        .arg("xs", generic(0))
        .arg("k", missing())
        .ret(generic(0))
        .build()
    };
    VMUL.get_or_init(build).clone()
}

/// `out = a + b`, functional.
fn vadd() -> Arc<Annotation> {
    Annotation::new("sf_vadd", |inv| {
        let a = piece_elems(&inv.args[0])?;
        let b = piece_elems(&inv.args[1])?;
        if a.len() != b.len() {
            return Err(Error::Library(format!(
                "sf_vadd piece length mismatch: {} vs {}",
                a.len(),
                b.len()
            )));
        }
        Ok(Some(DataValue::new(VecValue(SharedVec::from_vec(
            a.iter().zip(b.iter()).map(|(x, y)| x + y).collect(),
        )))))
    })
    .arg("a", generic(0))
    .arg("b", generic(0))
    .ret(generic(0))
    .build()
}

/// Whole-value consumer (`_`-typed argument): needs the materialized
/// array, so a producer feeding it must not hand off in split form.
fn whole_len() -> Arc<Annotation> {
    /// Merge-only split type that keeps the sole piece.
    struct FirstPiece;
    impl Splitter for FirstPiece {
        fn name(&self) -> &'static str {
            "SfFirstPiece"
        }
        fn construct(&self, _ctor_args: &[&DataValue]) -> Result<Params> {
            Ok(vec![])
        }
        fn info(&self, _arg: &DataValue, _params: &Params) -> Result<RuntimeInfo> {
            Err(Error::Library("merge-only".into()))
        }
        fn split(
            &self,
            _arg: &DataValue,
            _r: std::ops::Range<u64>,
            _p: &Params,
        ) -> Result<Option<DataValue>> {
            Err(Error::Library("merge-only".into()))
        }
        fn merge(&self, mut pieces: Vec<DataValue>, _p: &Params, _t: u64) -> Result<DataValue> {
            pieces.drain(..).next().ok_or(Error::Merge {
                split_type: "SfFirstPiece",
                message: "no pieces".into(),
            })
        }
    }
    Annotation::new("sf_whole_len", |inv| {
        let v = inv.arg::<VecValue>(0)?;
        Ok(Some(DataValue::new(IntValue(v.0.len() as i64))))
    })
    .arg("xs", missing())
    .ret(unknown(Arc::new(FirstPiece)))
    .build()
}

fn sf_ctx(workers: usize, batch: Option<u64>) -> MozartContext {
    ArraySplit::register_default();
    let mut cfg = Config::with_workers(workers);
    cfg.pipeline = false; // every call its own stage: boundaries to elide
    cfg.batch_override = batch;
    cfg.pedantic = true;
    MozartContext::new(cfg)
}

fn input(n: usize) -> DataValue {
    DataValue::new(VecValue(SharedVec::from_vec(
        (0..n).map(|i| i as f64 - (n as f64) / 3.0).collect(),
    )))
}

/// Run `x*2 → *3 → *0.5`, returning the final elements. With
/// intermediates dropped they are hand-off candidates; held, the
/// application can observe them and they merge classically.
fn run_chain(ctx: &MozartContext, n: usize, hold: bool) -> Vec<f64> {
    let m = vmul();
    let f1 = ctx
        .call(&m, vec![input(n), DataValue::new(FloatValue(2.0))])
        .unwrap()
        .unwrap();
    let f2 = ctx
        .call(&m, vec![f1.as_value(), DataValue::new(FloatValue(3.0))])
        .unwrap()
        .unwrap();
    let f3 = ctx
        .call(&m, vec![f2.as_value(), DataValue::new(FloatValue(0.5))])
        .unwrap()
        .unwrap();
    let held = hold.then_some((f1, f2));
    let out = f3.get().unwrap();
    drop(held);
    out.downcast_ref::<VecValue>()
        .unwrap()
        .0
        .as_slice()
        .to_vec()
}

/// What [`run_chain`] computes, element by element.
fn chain_values(n: usize) -> Vec<f64> {
    let x = input(n);
    let xs = x.downcast_ref::<VecValue>().unwrap().0.as_slice().to_vec();
    xs.iter().map(|x| x * 2.0 * 3.0 * 0.5).collect()
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

#[test]
fn handoff_elides_merges_bit_identically() {
    let n = 48;
    let handed = sf_ctx(3, Some(7));
    let got = run_chain(&handed, n, false);
    let merged = sf_ctx(3, Some(7));
    let classic = run_chain(&merged, n, true);
    assert_eq!(got, chain_values(n), "split-form must be bit-identical");
    assert_eq!(classic, got);

    let s_on = handed.stats();
    assert_eq!(
        s_on.split_form_handoffs, 2,
        "both dropped intermediates hand off"
    );
    assert_eq!(
        merged.stats().split_form_handoffs,
        0,
        "held intermediates merge"
    );
    assert_eq!(
        s_on.split_form_reslices, 0,
        "identical batch geometry serves whole-piece clones"
    );
    assert_eq!(s_on.split_form_fallbacks, 0);
    // The held final future is user-visible and must merge classically;
    // its fresh owned pieces take the placement path, proving the two
    // merge modes compose in one evaluation.
    assert!(s_on.placement_writes > 0, "final output still merges");
    assert_eq!(s_on.stages, 3, "-pipe ablation: one stage per call");
}

#[test]
fn misaligned_downstream_batches_reslice_through_concat() {
    // No batch override: the heuristic sizes batches from the summed
    // per-element footprint. Stage 1 splits one array (8 B/elem);
    // stage 2 splits two (16 B/elem), so its batches are half the
    // producer's piece size and every range needs a concat re-slice.
    ArraySplit::register_default();
    let n = 128usize;
    let mut cfg = Config::with_workers(2);
    cfg.pipeline = false;
    cfg.l2_bytes = 512;
    cfg.batch_override = None;
    cfg.pedantic = true;
    let ctx = MozartContext::new(cfg);
    let f1 = ctx
        .call(&vmul(), vec![input(n), DataValue::new(FloatValue(2.0))])
        .unwrap()
        .unwrap();
    let fz = ctx
        .call(&vadd(), vec![f1.as_value(), input(n)])
        .unwrap()
        .unwrap();
    drop(f1);
    let out = fz.get().unwrap();
    let got = out
        .downcast_ref::<VecValue>()
        .unwrap()
        .0
        .as_slice()
        .to_vec();
    let x = input(n);
    let xs = x.downcast_ref::<VecValue>().unwrap().0.as_slice();
    let want: Vec<f64> = xs.iter().map(|x| x * 2.0 + x).collect();
    assert_eq!(got, want, "re-sliced hand-off must be bit-identical");
    let s = ctx.stats();
    assert_eq!(s.split_form_handoffs, 1);
    assert!(
        s.split_form_reslices > 0,
        "halved downstream batches cannot reuse whole pieces: {s:?}"
    );
}

#[test]
fn observed_and_whole_value_consumers_merge_classically() {
    // A held future is user-visible: no hand-off even though a later
    // node re-splits it.
    let ctx = sf_ctx(2, Some(8));
    let m = vmul();
    let f1 = ctx
        .call(&m, vec![input(32), DataValue::new(FloatValue(2.0))])
        .unwrap()
        .unwrap();
    let f2 = ctx
        .call(&m, vec![f1.as_value(), DataValue::new(FloatValue(3.0))])
        .unwrap()
        .unwrap();
    let first = f1.get().unwrap(); // forces evaluation with f1 held
    assert_eq!(ctx.stats().split_form_handoffs, 0);
    let v1 = first.downcast_ref::<VecValue>().unwrap().0.as_slice()[0];
    let v2 = f2
        .get()
        .unwrap()
        .downcast_ref::<VecValue>()
        .unwrap()
        .0
        .as_slice()[0];
    assert_eq!(v2, v1 * 3.0);

    // A `_`-typed consumer needs the whole value: the planner must
    // decline the rewrite up front (no hand-off, no fallback).
    let ctx = sf_ctx(2, Some(8));
    let f1 = ctx
        .call(&m, vec![input(32), DataValue::new(FloatValue(2.0))])
        .unwrap()
        .unwrap();
    let fl = ctx
        .call(&whole_len(), vec![f1.as_value()])
        .unwrap()
        .unwrap();
    drop(f1);
    let len = fl.get().unwrap();
    assert_eq!(len.downcast_ref::<IntValue>().unwrap().0, 32);
    let s = ctx.stats();
    assert_eq!(s.split_form_handoffs, 0);
    assert_eq!(s.split_form_fallbacks, 0);
}

#[test]
fn plan_cache_replay_preserves_the_rewrite() {
    let cache = Arc::new(PlanCache::new(8));
    let n = 40;
    let mut results = Vec::new();
    for round in 0..2 {
        let ctx = sf_ctx(2, Some(9));
        ctx.attach_plan_cache(cache.clone());
        results.push(run_chain(&ctx, n, false));
        assert_eq!(
            ctx.stats().split_form_handoffs,
            2,
            "round {round}: replayed plans must keep the rewrite"
        );
    }
    assert_eq!(results[0], results[1]);
    let s = cache.stats();
    assert_eq!(
        (s.hits, s.misses),
        (1, 1),
        "split-form inputs must not poison the cache"
    );
}

#[test]
fn handoff_composes_with_injected_faults() {
    silence_injected_panics();
    // A task panic in the consuming stage (stage 1 reads stage 0's
    // hand-off) surfaces typed, and a fault-free retry on a fresh
    // context is bit-identical to the element-wise values.
    let plan = Arc::new(
        FaultPlan::new().point(FaultPoint::once(FaultPhase::Task, FaultKind::Panic).at_stage(1)),
    );
    ArraySplit::register_default();
    let mut cfg = Config::with_workers(2);
    cfg.pipeline = false;
    cfg.batch_override = Some(7);
    cfg.fault_plan = Some(plan);
    let ctx = MozartContext::new(cfg);
    let m = vmul();
    let f1 = ctx
        .call(&m, vec![input(48), DataValue::new(FloatValue(2.0))])
        .unwrap()
        .unwrap();
    let f2 = ctx
        .call(&m, vec![f1.as_value(), DataValue::new(FloatValue(3.0))])
        .unwrap()
        .unwrap();
    drop(f1);
    let err = f2.get().unwrap_err();
    assert!(
        matches!(err, Error::TaskPanicked { .. }),
        "expected TaskPanicked, got {err:?}"
    );

    let retry = sf_ctx(2, Some(7));
    assert_eq!(run_chain(&retry, 48, false), chain_values(48));
    assert!(retry.stats().split_form_handoffs > 0);
}

#[test]
fn handoff_respects_cancellation() {
    let ctx = sf_ctx(2, Some(4));
    let token = CancelToken::new();
    token.cancel();
    ctx.set_cancel_token(token);
    let m = vmul();
    let f1 = ctx
        .call(&m, vec![input(64), DataValue::new(FloatValue(2.0))])
        .unwrap()
        .unwrap();
    let f2 = ctx
        .call(&m, vec![f1.as_value(), DataValue::new(FloatValue(3.0))])
        .unwrap()
        .unwrap();
    drop(f1);
    let err = f2.get().unwrap_err();
    assert!(matches!(err, Error::Cancelled(_)), "{err:?}");
}

#[test]
fn slow_consumer_still_sheds_on_deadline() {
    // A deadline that expires mid-chain cancels at a batch boundary of
    // whichever stage is running — hand-offs must not bypass the
    // cancellation poll.
    let ctx = sf_ctx(2, Some(1));
    ctx.set_cancel_token(CancelToken::with_deadline(
        std::time::Instant::now() + Duration::from_millis(10),
    ));
    let slow = Annotation::new("sf_slow", |inv| {
        let xs = piece_elems(&inv.args[0])?;
        std::thread::sleep(Duration::from_millis(2));
        Ok(Some(DataValue::new(VecValue(SharedVec::from_vec(xs)))))
    })
    .arg("xs", generic(0))
    .ret(generic(0))
    .build();
    let f1 = ctx.call(&slow, vec![input(200)]).unwrap().unwrap();
    let f2 = ctx.call(&slow, vec![f1.as_value()]).unwrap().unwrap();
    drop(f1);
    let err = f2.get().unwrap_err();
    assert!(matches!(err, Error::Cancelled(_)), "{err:?}");
    assert!(
        ctx.stats().batches < 400,
        "cancellation must abandon remaining batches"
    );
}

#[test]
fn split_form_unit_invariants() {
    // Construction validates contiguity and capability; slicing honours
    // the NULL contract and materialization equals a classic merge.
    let inst = SplitInstance::new(Arc::new(ArraySplit), vec![6]);
    let p = |xs: &[f64]| DataValue::new(VecValue(SharedVec::from_vec(xs.to_vec())));

    // Interior gap rejected.
    let gap = SplitForm::new(
        vec![(0, 2, p(&[0.0, 1.0])), (3, 6, p(&[3.0, 4.0, 5.0]))],
        6,
        inst.clone(),
        8,
    );
    assert!(gap.is_err());
    // Coverage beyond the declared total rejected.
    let over = SplitForm::new(vec![(0, 7, p(&[0.0; 7]))], 6, inst.clone(), 8);
    assert!(over.is_err());
    // Empty piece set rejected.
    assert!(SplitForm::new(vec![], 6, inst.clone(), 8).is_err());

    let sf = SplitForm::new(
        vec![
            (0, 2, p(&[0.0, 1.0])),
            (2, 4, p(&[2.0, 3.0])),
            (4, 6, p(&[4.0, 5.0])),
        ],
        6,
        inst.clone(),
        8,
    )
    .unwrap();
    assert_eq!((sf.total(), sf.covered(), sf.piece_count()), (6, 6, 3));

    // Aligned range: whole-piece clone, not a re-slice.
    let (piece, resliced) = sf.slice(2..4).unwrap().unwrap();
    assert!(!resliced);
    assert_eq!(
        piece.downcast_ref::<VecValue>().unwrap().0.as_slice(),
        &[2.0, 3.0]
    );
    // Misaligned range spanning two pieces: concat re-slice.
    let (piece, resliced) = sf.slice(1..5).unwrap().unwrap();
    assert!(resliced);
    assert_eq!(
        piece.downcast_ref::<VecValue>().unwrap().0.as_slice(),
        &[1.0, 2.0, 3.0, 4.0]
    );
    // Tail clamp and NULL past the covered range.
    let (piece, _) = sf.slice(5..9).unwrap().unwrap();
    assert_eq!(
        piece.downcast_ref::<VecValue>().unwrap().0.as_slice(),
        &[5.0]
    );
    assert!(sf.slice(6..8).unwrap().is_none());

    // Materialization equals the classic merge of the same pieces.
    let whole = sf.materialize().unwrap();
    assert_eq!(
        whole.downcast_ref::<VecValue>().unwrap().0.as_slice(),
        &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    );

    // No concat capability → the pieces can be held and merged, and
    // served at their own boundaries, but never re-sliced.
    let unknown_inst = SplitInstance::fresh_unknown(Arc::new(ArraySplit));
    assert!(unknown_inst.split_form_concat().is_none());
    let held = SplitForm::new(
        vec![(0, 2, p(&[0.0, 1.0])), (2, 4, p(&[2.0, 3.0]))],
        4,
        unknown_inst,
        0,
    )
    .unwrap();
    assert!(!held.resplittable() && sf.resplittable());
    assert_eq!(held.piece_len(), 2);
    assert!(matches!(held.slice(2..4), Ok(Some((_, false)))));
    assert!(held.slice(1..3).is_err());
    assert_eq!(
        held.materialize()
            .unwrap()
            .downcast_ref::<VecValue>()
            .unwrap()
            .0
            .as_slice(),
        &[0.0, 1.0, 2.0, 3.0]
    );
}
