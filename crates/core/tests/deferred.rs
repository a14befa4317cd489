//! Demand-driven materialization (ISSUE 12): a `Future` read evaluates
//! every pending call but merges only the value it asks for; outputs
//! that are merely *alive* stay held as pieces (`OutputKind::Deferred`)
//! and are merged by the first later read that asks for them.
//!
//! The invariants under test:
//!
//! * reading handles in any order — only the last, all in capture
//!   order, all reversed, none — is **bit-identical** to
//!   `ctx.evaluate()`-then-read, across workers, pipelining and
//!   plan-cache replay, over every output path;
//! * a held handle merges nothing it was not asked for, and dropping it
//!   drops its pieces;
//! * `unknown`-typed (compacting) outputs and types with neither a
//!   placement nor a `Concat` capability defer and round-trip;
//! * deferred pieces that are views of storage a later call mutates in
//!   place are merged before the write (they read pre-mutation data);
//! * a deferred value a later call reads is merged once, before that
//!   call's stage is planned — held pieces are never a stage input;
//! * an injected merge panic or an expired deadline during an
//!   on-demand merge surfaces as the typed error an in-stage one does,
//!   leaves the pieces in place, and a retry succeeds.

use std::ops::Range;
use std::sync::{Arc, LazyLock};
use std::time::Instant;

use mozart_core::annotation::{concrete, generic, missing, unknown, Annotation};
use mozart_core::faultinject::silence_injected_panics;
use mozart_core::prelude::*;

// ---------------------------------------------------------------------
// Two toy libraries. Arrays (`VecValue` under `ArraySplit`): placement-
// and concat-capable. Chunks: owned pieces whose split type can only
// concatenate classically — no placement, no `Concat` capability.
// ---------------------------------------------------------------------

fn input(n: usize) -> DataValue {
    DataValue::new(VecValue(SharedVec::from_vec(
        (0..n).map(|i| i as f64 * 0.5 - 3.0).collect(),
    )))
}

/// Piece elements, whether the piece is a view of a materialized value
/// or an owned batch result served from held pieces.
fn piece_elems(v: &DataValue) -> Result<Vec<f64>> {
    if let Some(v) = v.downcast_ref::<VecValue>() {
        return Ok(v.0.as_slice().to_vec());
    }
    let view = v
        .downcast_ref::<SliceView>()
        .ok_or_else(|| Error::Library(format!("expected an array piece, got {}", v.type_name())))?;
    // SAFETY: the executor hands each worker disjoint ranges and no one
    // mutates the parent during the task phase.
    Ok(unsafe { view.as_slice() }.to_vec())
}

/// `xs * k`, functional (a fresh array piece per batch). Annotations
/// are built once: the plan cache keys on their identity.
fn vmul() -> Arc<Annotation> {
    static A: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
        Annotation::new("df_vmul", |inv| {
            let k = inv.float(1)?;
            let out = piece_elems(&inv.args[0])?.iter().map(|x| x * k).collect();
            Ok(Some(DataValue::new(VecValue(SharedVec::from_vec(out)))))
        })
        .arg("xs", generic(0))
        .arg("k", missing())
        .ret(generic(0))
        .build()
    });
    A.clone()
}

/// `a + b`, functional.
fn vadd() -> Arc<Annotation> {
    static A: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
        Annotation::new("df_vadd", |inv| {
            let (a, b) = (piece_elems(&inv.args[0])?, piece_elems(&inv.args[1])?);
            let out = a.iter().zip(&b).map(|(x, y)| x + y).collect();
            Ok(Some(DataValue::new(VecValue(SharedVec::from_vec(out)))))
        })
        .arg("a", generic(0))
        .arg("b", generic(0))
        .ret(generic(0))
        .build()
    });
    A.clone()
}

#[derive(Debug, Clone)]
struct Chunk(Arc<Vec<f64>>);

impl mozart_core::value::DataObject for Chunk {
    fn type_name(&self) -> &'static str {
        "Chunk"
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

fn chunk(n: usize) -> DataValue {
    DataValue::new(Chunk(Arc::new((0..n).map(|i| i as f64).collect())))
}

fn as_chunk(v: &DataValue) -> Result<&Chunk> {
    v.downcast_ref::<Chunk>()
        .ok_or_else(|| Error::Library(format!("expected a Chunk, got {}", v.type_name())))
}

struct ChunkSplit;

impl Splitter for ChunkSplit {
    fn name(&self) -> &'static str {
        "ChunkSplit"
    }
    fn construct(&self, ctor_args: &[&DataValue]) -> Result<Params> {
        Ok(vec![as_chunk(ctor_args[0])?.0.len() as i64])
    }
    fn info(&self, _arg: &DataValue, params: &Params) -> Result<RuntimeInfo> {
        Ok(RuntimeInfo {
            total_elements: params[0] as u64,
            elem_size_bytes: 8,
        })
    }
    fn split(&self, arg: &DataValue, r: Range<u64>, params: &Params) -> Result<Option<DataValue>> {
        let total = params[0] as u64;
        if r.start >= total {
            return Ok(None);
        }
        let piece = as_chunk(arg)?.0[r.start as usize..r.end.min(total) as usize].to_vec();
        Ok(Some(DataValue::new(Chunk(Arc::new(piece)))))
    }
    fn merge(&self, pieces: Vec<DataValue>, _p: &Params, _total: u64) -> Result<DataValue> {
        let mut out = Vec::new();
        for p in &pieces {
            out.extend_from_slice(&as_chunk(p)?.0);
        }
        Ok(DataValue::new(Chunk(Arc::new(out))))
    }
}

/// `c + k` over chunks (concrete `ChunkSplit` in and out).
fn chunk_offset() -> Arc<Annotation> {
    static A: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
        Annotation::new("df_chunk_offset", |inv| {
            let k = inv.float(1)?;
            let out = as_chunk(&inv.args[0])?.0.iter().map(|x| x + k).collect();
            Ok(Some(DataValue::new(Chunk(Arc::new(out)))))
        })
        .arg("c", concrete(Arc::new(ChunkSplit), vec![0]))
        .arg("k", missing())
        .ret(concrete(Arc::new(ChunkSplit), vec![0]))
        .build()
    });
    A.clone()
}

/// Keep the elements divisible by 3: a filter, so the result's split
/// type is `unknown` (pieces hold fewer elements than their batches).
fn chunk_keep_thirds() -> Arc<Annotation> {
    static A: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
        Annotation::new("df_chunk_keep_thirds", |inv| {
            let kept = as_chunk(&inv.args[0])?
                .0
                .iter()
                .copied()
                .filter(|x| x % 3.0 == 0.0)
                .collect();
            Ok(Some(DataValue::new(Chunk(Arc::new(kept)))))
        })
        .arg("c", concrete(Arc::new(ChunkSplit), vec![0]))
        .ret(unknown(Arc::new(ChunkSplit)))
        .build()
    });
    A.clone()
}

fn elems(v: &DataValue) -> Vec<f64> {
    match v.downcast_ref::<Chunk>() {
        Some(c) => c.0.to_vec(),
        None => v.downcast_ref::<VecValue>().unwrap().0.as_slice().to_vec(),
    }
}

/// Capture the test pipeline: two array calls (placement- and
/// concat-capable, the second consuming the first), a chunk call (no
/// capability at all) and a filter over it (`unknown`).
fn capture(ctx: &MozartContext) -> Vec<FutureHandle> {
    let x = input(53);
    let a = ctx
        .call(&vmul(), &[Arg::Value(&x.clone()), Arg::Float(2.0)])
        .unwrap()
        .unwrap();
    let b = ctx
        .call(&vadd(), &[Arg::Value(&a.as_value()), Arg::Value(&x)])
        .unwrap()
        .unwrap();
    let c = ctx
        .call(&chunk_offset(), &[Arg::Value(&chunk(41)), Arg::Float(1.0)])
        .unwrap()
        .unwrap();
    let kept = ctx
        .call(&chunk_keep_thirds(), &[Arg::Value(&c.as_value())])
        .unwrap()
        .unwrap();
    vec![a, b, c, kept]
}

/// The order handles are read in after capture.
#[derive(Debug, Clone, Copy)]
enum Reads {
    LastOnly,
    CaptureOrder,
    Reversed,
    /// Nothing is read until `evaluate()` made every value whole.
    EvaluateFirst,
}

/// Run the pipeline reading handles per `reads`, then return every
/// handle's value (reading whatever was not read yet) and the stats.
fn run(cfg: &Config, cache: &Arc<PlanCache>, reads: Reads) -> (Vec<Vec<f64>>, PhaseStats) {
    // Without a default split type a `Chunk` input has no shape key and
    // its pipelines would bypass the plan cache.
    register_default_splitter::<Chunk>(Arc::new(ChunkSplit));
    let ctx = MozartContext::new(cfg.clone());
    ctx.attach_plan_cache(cache.clone());
    let handles = capture(&ctx);
    let order: Vec<usize> = match reads {
        Reads::LastOnly => vec![3],
        Reads::CaptureOrder => (0..4).collect(),
        Reads::Reversed => (0..4).rev().collect(),
        Reads::EvaluateFirst => {
            ctx.evaluate().unwrap();
            assert_eq!(ctx.stats().deferred_outputs, 0, "evaluate() demands all");
            vec![]
        }
    };
    for i in order {
        handles[i].get().unwrap();
    }
    let values = handles.iter().map(|h| elems(&h.get().unwrap())).collect();
    (values, ctx.stats())
}

#[test]
fn every_read_order_matches_evaluate_then_read() {
    ArraySplit::register_default();
    for workers in [1, 2] {
        for pipeline in [true, false] {
            let mut cfg = Config::with_workers(workers);
            cfg.batch_override = Some(6);
            cfg.pipeline = pipeline;
            let label = format!("{workers}w pipe={pipeline}");
            let reference_cache = Arc::new(PlanCache::new(8));
            let (reference, _) = run(&cfg, &reference_cache, Reads::EvaluateFirst);
            assert_eq!(
                reference[3],
                [3.0, 6.0, 9.0, 12.0, 15.0, 18.0, 21.0, 24.0, 27.0, 30.0, 33.0, 36.0, 39.0]
            );
            for reads in [Reads::LastOnly, Reads::CaptureOrder, Reads::Reversed] {
                // Cold then warm: the second run replays the first's
                // cached plan under the same demand.
                let cache = Arc::new(PlanCache::new(8));
                for warm in [false, true] {
                    let (got, stats) = run(&cfg, &cache, reads);
                    assert_eq!(got, reference, "{label} {reads:?} warm={warm}");
                    assert!(stats.deferred_outputs > 0, "{label} {reads:?}: {stats:?}");
                    assert_eq!(
                        stats.deferred_outputs, stats.deferred_materialized,
                        "{label} {reads:?}: every handle was eventually read: {stats:?}"
                    );
                }
                let s = cache.stats();
                assert_eq!((s.hits, s.misses), (1, 1), "{label} {reads:?}");
            }
        }
    }
}

#[test]
fn held_handles_merge_nothing_they_were_not_asked_for() {
    ArraySplit::register_default();
    let mut cfg = Config::with_workers(2);
    cfg.batch_override = Some(6);
    let cache = Arc::new(PlanCache::new(8));

    // All four held, only the last read: the two array outputs stay
    // pieces (`c` feeds the filter's stage, so it merges).
    let ctx = MozartContext::new(cfg.clone());
    ctx.attach_plan_cache(cache.clone());
    let handles = capture(&ctx);
    handles[3].get().unwrap();
    let held = ctx.stats();
    assert_eq!((held.deferred_outputs, held.deferred_materialized), (2, 0));

    // The array handles dropped before the read: their outputs are
    // discarded outright — and the run merges exactly as many bytes as
    // the one that held them.
    let ctx2 = MozartContext::new(cfg);
    ctx2.attach_plan_cache(cache);
    let mut handles2 = capture(&ctx2);
    handles2.drain(..2);
    handles2[1].get().unwrap();
    let dropped = ctx2.stats();
    assert_eq!(dropped.deferred_outputs, 0);
    assert_eq!(held.bytes_merged, dropped.bytes_merged);
}

#[test]
fn dropping_a_deferred_handle_drops_its_pieces() {
    /// Merge-only split type that keeps the first piece.
    struct KeepFirst;
    impl Splitter for KeepFirst {
        fn name(&self) -> &'static str {
            "DfKeepFirst"
        }
        fn construct(&self, _ctor_args: &[&DataValue]) -> Result<Params> {
            Ok(vec![])
        }
        fn info(&self, _arg: &DataValue, _params: &Params) -> Result<RuntimeInfo> {
            Err(Error::Library("merge-only".into()))
        }
        fn split(&self, _a: &DataValue, _r: Range<u64>, _p: &Params) -> Result<Option<DataValue>> {
            Err(Error::Library("merge-only".into()))
        }
        fn merge(&self, mut pieces: Vec<DataValue>, _p: &Params, _t: u64) -> Result<DataValue> {
            Ok(pieces.swap_remove(0))
        }
    }
    /// A result piece carrying a clone of the test's token, so the
    /// token's strong count says how many pieces are alive.
    struct Tracked(#[allow(dead_code)] Arc<()>);
    impl mozart_core::value::DataObject for Tracked {
        fn type_name(&self) -> &'static str {
            "Tracked"
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }
    let token = Arc::new(());
    let piece_token = token.clone();
    let tracked = Annotation::new("df_tracked", move |_inv| {
        Ok(Some(DataValue::new(Tracked(piece_token.clone()))))
    })
    .arg("c", concrete(Arc::new(ChunkSplit), vec![0]))
    .ret(unknown(Arc::new(KeepFirst)))
    .build();
    let baseline = Arc::strong_count(&token); // this test + the closure

    let mut cfg = Config::with_workers(2);
    cfg.batch_override = Some(6);
    let ctx = MozartContext::new(cfg);
    let held = ctx
        .call(&tracked, &[Arg::Value(&chunk(41))])
        .unwrap()
        .unwrap();
    let read = ctx
        .call(&tracked, &[Arg::Value(&chunk(41))])
        .unwrap()
        .unwrap();
    read.get().unwrap();
    assert_eq!(ctx.stats().deferred_outputs, 1);
    // `read` merged to its first piece; `held` keeps all 7 of its own.
    assert_eq!(Arc::strong_count(&token), baseline + 1 + 7);
    drop(held);
    assert_eq!(Arc::strong_count(&token), baseline + 1);
    drop(read);
    assert_eq!(Arc::strong_count(&token), baseline);
}

// ---------------------------------------------------------------------
// Deferred views of storage a later call mutates in place.
// ---------------------------------------------------------------------

/// Split type of [`view_of`]'s result: the pieces are *views* of the
/// argument's buffer, and merging them copies the viewed elements out.
struct ViewCopySplit;

impl Splitter for ViewCopySplit {
    fn name(&self) -> &'static str {
        "ViewCopySplit"
    }
    fn construct(&self, ctor_args: &[&DataValue]) -> Result<Params> {
        ArraySplit.construct(ctor_args)
    }
    fn info(&self, arg: &DataValue, params: &Params) -> Result<RuntimeInfo> {
        ArraySplit.info(arg, params)
    }
    fn split(&self, _arg: &DataValue, _r: Range<u64>, _p: &Params) -> Result<Option<DataValue>> {
        Err(Error::Library("ViewCopySplit is merge-only".into()))
    }
    fn merge(&self, pieces: Vec<DataValue>, _p: &Params, _total: u64) -> Result<DataValue> {
        let mut out = Vec::new();
        for p in &pieces {
            out.extend(piece_elems(p)?);
        }
        Ok(DataValue::new(VecValue(SharedVec::from_vec(out))))
    }
}

#[test]
fn deferred_views_are_merged_before_their_storage_is_mutated() {
    ArraySplit::register_default();
    // Returns its argument's piece itself: a zero-copy view.
    let view_of = Annotation::new("df_view_of", |inv| Ok(Some(inv.args[0].clone())))
        .arg("xs", concrete(Arc::new(ArraySplit), vec![0]))
        .ret(concrete(Arc::new(ViewCopySplit), vec![0]))
        .build();
    let double = Annotation::new("df_double", |inv| {
        let piece = inv.arg::<SliceView>(1)?;
        // SAFETY: the executor hands each worker disjoint ranges.
        for x in unsafe { piece.as_slice_mut() } {
            *x *= 2.0;
        }
        Ok(None)
    })
    .arg("n", missing())
    .mut_arg("xs", concrete(Arc::new(ArraySplit), vec![0]))
    .build();

    let n = 40usize;
    let original: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
    for eager in [false, true] {
        let mut cfg = Config::with_workers(2);
        cfg.batch_override = Some(8);
        let ctx = MozartContext::new(cfg);
        let buf = SharedVec::from_vec(original.clone());
        let xs = DataValue::new(VecValue(buf.clone()));
        let view = ctx
            .call(&view_of, &[Arg::Value(&xs.clone())])
            .unwrap()
            .unwrap();
        let other = ctx
            .call(&vmul(), &[Arg::Value(&xs.clone()), Arg::Float(1.0)])
            .unwrap()
            .unwrap();
        if eager {
            ctx.evaluate().unwrap();
        }
        // Reads `other` only: `view` stays pieces aliasing `buf`.
        assert_eq!(elems(&other.get().unwrap()), original);
        assert_eq!(ctx.stats().deferred_outputs, u64::from(!eager));

        // Mutate the viewed storage in place, then read it (which
        // forces the evaluation): the flush must copy `view` first.
        let len = DataValue::new(IntValue(n as i64));
        ctx.call(&double, &[Arg::Value(&len), Arg::Value(&xs)])
            .unwrap();
        let doubled: Vec<f64> = original.iter().map(|x| x * 2.0).collect();
        assert_eq!(buf.as_slice(), &doubled[..]);
        assert_eq!(ctx.stats().deferred_materialized, u64::from(!eager));
        assert_eq!(
            elems(&view.get().unwrap()),
            original,
            "eager={eager}: the view was captured before the mutation"
        );
    }

    // A deferred view whose handle is gone but which a pending call
    // still reads is flushed, not dropped: the call sees the
    // pre-mutation elements.
    let mut cfg = Config::with_workers(2);
    cfg.batch_override = Some(8);
    let ctx = MozartContext::new(cfg);
    let buf = SharedVec::from_vec(original.clone());
    let xs = DataValue::new(VecValue(buf.clone()));
    let view = ctx
        .call(&view_of, &[Arg::Value(&xs.clone())])
        .unwrap()
        .unwrap();
    let k = |k: f64| DataValue::new(FloatValue(k));
    let other = ctx
        .call(&vmul(), &[Arg::Value(&xs.clone()), Arg::Value(&k(1.0))])
        .unwrap()
        .unwrap();
    other.get().unwrap();
    let len = DataValue::new(IntValue(n as i64));
    ctx.call(&double, &[Arg::Value(&len), Arg::Value(&xs)])
        .unwrap();
    let tripled = ctx
        .call(
            &vmul(),
            &[Arg::Value(&view.as_value()), Arg::Value(&k(3.0))],
        )
        .unwrap()
        .unwrap();
    drop(view);
    let expect: Vec<f64> = original.iter().map(|x| x * 3.0).collect();
    assert_eq!(elems(&tripled.get().unwrap()), expect);
    assert_eq!(buf.as_slice()[0], original[0] * 2.0);
}

// ---------------------------------------------------------------------
// Failure behaviour of the on-demand merge.
// ---------------------------------------------------------------------

/// Two independent single-call stages, over arrays (whose merges
/// place) or chunks (whose merges collect); returns the context with the
/// *second* read (so the first handle is deferred) and both handles.
fn two_outputs(cfg: Config, chunks: bool) -> (MozartContext, FutureHandle, FutureHandle) {
    ArraySplit::register_default();
    let ctx = MozartContext::new(cfg);
    let call = |k: f64| {
        let k = DataValue::new(FloatValue(k));
        let (annot, x) = if chunks {
            (chunk_offset(), chunk(48))
        } else {
            (vmul(), input(48))
        };
        ctx.call(&annot, &[Arg::Value(&x), Arg::Value(&k)])
            .unwrap()
            .unwrap()
    };
    let (first, second) = (call(2.0), call(3.0));
    (ctx, first, second)
}

#[test]
fn on_demand_merge_panics_are_typed_like_in_stage_ones_and_retryable() {
    silence_injected_panics();
    for chunks in [false, true] {
        let reference = {
            let (_ctx, first, _second) = two_outputs(Config::with_workers(2), chunks);
            elems(&first.get().unwrap())
        };
        let merge_panic_at = |stage: u64| {
            let mut cfg = Config::with_workers(2);
            cfg.batch_override = Some(7);
            cfg.fault_plan = Some(Arc::new(
                FaultPlan::new()
                    .point(FaultPoint::once(FaultPhase::Merge, FaultKind::Panic).at_stage(stage)),
            ));
            cfg
        };
        // In-stage: the panic fires while stage 0 merges `first`.
        let (_ctx, first, _second) = two_outputs(merge_panic_at(0), chunks);
        let in_stage = first.get().unwrap_err();

        // On demand: the one pipelined stage ran clean with `first`
        // deferred; the fault point addresses its on-demand merge by
        // the next stage index.
        let (ctx, first, second) = two_outputs(merge_panic_at(1), chunks);
        second.get().unwrap();
        assert_eq!(ctx.stats().deferred_outputs, 1);
        let on_demand = first.get().unwrap_err();
        for err in [&in_stage, &on_demand] {
            assert!(
                matches!(
                    err,
                    Error::TaskPanicked {
                        stage: FaultPhase::Merge,
                        ..
                    }
                ),
                "chunks={chunks}: {err:?}"
            );
        }
        // The pieces are still there and the context is not poisoned:
        // the budget is spent, so the retry merges clean — placed for
        // arrays, collected for chunks.
        assert_eq!(elems(&first.get().unwrap()), reference, "chunks={chunks}");
        let stats = ctx.stats();
        assert_eq!(stats.deferred_materialized, 1);
        assert_eq!(stats.placement_writes > 0, !chunks, "{stats:?}");
    }
}

#[test]
fn on_demand_merge_honours_the_deadline_and_is_retryable() {
    let mut cfg = Config::with_workers(2);
    cfg.batch_override = Some(7);
    let (ctx, first, second) = two_outputs(cfg, false);
    second.get().unwrap();
    ctx.set_cancel_token(CancelToken::with_deadline(Instant::now()));
    let err = first.get().unwrap_err();
    assert!(matches!(err, Error::Cancelled(_)), "{err:?}");
    // A live token again: the same handle reads fine.
    ctx.set_cancel_token(CancelToken::new());
    assert_eq!(elems(&first.get().unwrap()).len(), 48);
}

#[test]
fn a_later_call_consumes_deferred_pieces() {
    ArraySplit::register_default();
    let mut cfg = Config::with_workers(2);
    cfg.batch_override = Some(6);
    let ctx = MozartContext::new(cfg);
    let k = |k: f64| DataValue::new(FloatValue(k));
    let handles = capture(&ctx);
    let lone = ctx
        .call(
            &chunk_offset(),
            &[Arg::Value(&chunk(41)), Arg::Value(&k(1.0))],
        )
        .unwrap()
        .unwrap();
    handles[3].get().unwrap();
    assert_eq!(ctx.stats().deferred_outputs, 3, "a, b and lone");

    // `b` (arrays) and `lone` (chunks: no `Concat` capability) each feed
    // a new call: both are merged whole before the calls' stage.
    let b_half = ctx
        .call(
            &vmul(),
            &[Arg::Value(&handles[1].as_value()), Arg::Value(&k(0.5))],
        )
        .unwrap()
        .unwrap();
    let lone_thirds = ctx
        .call(&chunk_keep_thirds(), &[Arg::Value(&lone.as_value())])
        .unwrap()
        .unwrap();
    let thirds = elems(&lone_thirds.get().unwrap());
    assert_eq!(thirds, elems(&handles[3].get().unwrap()));
    let stats = ctx.stats();
    assert_eq!(
        stats.deferred_materialized, 2,
        "b and lone merged for their consumers: {stats:?}"
    );

    let b = elems(&handles[1].get().unwrap());
    let half: Vec<f64> = b.iter().map(|x| x * 0.5).collect();
    assert_eq!(elems(&b_half.get().unwrap()), half);
}

#[test]
fn held_piece_set_invariants() {
    // Construction validates contiguity; slicing serves a set's own
    // pieces and honours the NULL contract; materialization equals a
    // classic merge, for `unknown` pieces too.
    let p = |xs: &[f64]| DataValue::new(VecValue(SharedVec::from_vec(xs.to_vec())));
    for inst in [
        SplitInstance::new(Arc::new(ArraySplit), vec![6]),
        SplitInstance::fresh_unknown(Arc::new(ArraySplit)),
    ] {
        let gap = vec![(0, 2, p(&[0.0, 1.0])), (3, 6, p(&[3.0, 4.0, 5.0]))];
        assert!(
            HeldPieces::new(gap, 6, inst.clone()).is_err(),
            "interior gap"
        );
        let over = vec![(0, 7, p(&[0.0; 7]))];
        assert!(HeldPieces::new(over, 6, inst.clone()).is_err(), "overrun");
        assert!(
            HeldPieces::new(vec![], 6, inst.clone()).is_err(),
            "no pieces"
        );

        let pieces = (0..3).map(|i| (2 * i, 2 * i + 2, p(&[2.0 * i as f64, 2.0 * i as f64 + 1.0])));
        let sf = HeldPieces::new(pieces.collect(), 6, inst).unwrap();
        assert_eq!((sf.total(), sf.covered(), sf.piece_len()), (6, 6, 2));
        assert_eq!(elems(&sf.slice(2..4).unwrap().unwrap()), [2.0, 3.0]);
        // The last piece clamps the range to the covered end.
        assert_eq!(elems(&sf.slice(4..9).unwrap().unwrap()), [4.0, 5.0]);
        assert!(sf.slice(6..8).unwrap().is_none(), "NULL past the pieces");
        assert!(sf.slice(1..3).is_err(), "a range that is not one piece");
        assert_eq!(
            elems(&sf.materialize().unwrap()),
            [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        );
    }
}

#[test]
fn a_deferred_input_is_merged_once_before_its_readers_stage() {
    // The read of `second` leaves `first` deferred. A call captured over
    // `first` afterwards finds it merged before its stage is fingerprinted
    // and planned — the plan verifier rejects a stage that binds held
    // pieces, and a held input would have no shape to cache the segment
    // under — and a later read of `first` merges nothing again.
    let cache = Arc::new(PlanCache::new(8));
    let run = || {
        let mut cfg = Config::with_workers(2);
        cfg.batch_override = Some(7);
        let (ctx, first, second) = two_outputs(cfg, false);
        ctx.attach_plan_cache(cache.clone());
        second.get().unwrap();
        let k = DataValue::new(FloatValue(0.5));
        let half = ctx
            .call(&vmul(), &[Arg::Value(&first.as_value()), Arg::Value(&k)])
            .unwrap()
            .unwrap();
        let half = elems(&half.get().unwrap());
        let s = ctx.stats();
        let counts = (s.stages, s.deferred_outputs, s.deferred_materialized);
        assert_eq!(counts, (2, 1, 1), "{s:?}");
        let first = elems(&first.get().unwrap());
        assert_eq!(ctx.stats().deferred_materialized, 1, "merged once");
        (first, half)
    };
    let doubled: Vec<f64> = elems(&input(48)).iter().map(|x| x * 2.0).collect();
    for _ in 0..2 {
        let (first, half) = run();
        assert_eq!(first, doubled);
        assert_eq!(half, doubled.iter().map(|x| x * 0.5).collect::<Vec<_>>());
    }
    let s = cache.stats();
    assert_eq!((s.hits, s.misses), (2, 2), "both segments cached: {s:?}");
}
