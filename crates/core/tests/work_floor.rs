//! Calls below the work floor run at registration (see "Calls below the
//! work floor" in `mozart_core::context`): whole, on the caller, with no
//! graph node, plan or stage.
//!
//! The invariants under test:
//!
//! * on four real pipelines — MKL-style Black Scholes, NumPy-style Black
//!   Scholes (returned values chained lazily), Crime Index (a filter and
//!   a reduction) and Nashville (image filters) — the registration path
//!   is **bit-identical** to the captured path with every stage one
//!   batch, and runs every call at registration;
//! * the floor is a boundary: a chain whose calls are all at the floor
//!   runs at registration, and from its first call above it everything
//!   is captured;
//! * a panic is typed and poisons the context; an expired deadline is
//!   `Cancelled`; a traced call records one task span;
//! * what must stay captured stays captured: storage another context
//!   will write, an in-place call over a held deferred view, calls
//!   under `batch_override` or a `fault_plan`, and a call whose split
//!   type cannot be constructed (it fails typed where the planner
//!   fails it);
//! * a lazy copy of a released value is refused with `ValueUnavailable`
//!   on both paths, and the context stays usable.

use std::sync::{Arc, LazyLock};
use std::time::Instant;

use mozart_core::annotation::{concrete, generic, missing, Annotation};
use mozart_core::prelude::*;
use ndarray_lite::NdArray;
use workloads::{black_scholes as bs, crime_index, images};

const WORKERS: usize = 2;

/// A cache of 1 MiB puts the work floor at 64 KiB, above every call of
/// the pipelines below.
fn below_floor() -> Config {
    Config {
        l2_bytes: 1 << 20,
        ..Config::with_workers(WORKERS)
    }
}

/// The captured path a call below the floor stands in for: every call
/// planned into a stage, and every stage one batch.
fn captured() -> Config {
    Config {
        batch_override: Some(u64::MAX),
        ..Config::with_workers(WORKERS)
    }
}

fn assert_at_registration(stats: &PhaseStats) {
    assert!(stats.calls > 0, "{stats:?}");
    assert_eq!(stats.inline_calls, stats.calls, "{stats:?}");
    assert_eq!(stats.stages, 0, "{stats:?}");
}

fn assert_captured(stats: &PhaseStats) {
    assert_eq!(stats.inline_calls, 0, "{stats:?}");
    assert!(stats.stages > 0, "{stats:?}");
}

fn bits<T: Copy + Into<f64>>(xs: &[T]) -> Vec<u64> {
    xs.iter().map(|&x| x.into().to_bits()).collect()
}

// ---------------------------------------------------------------------
// Real pipelines, both ways.
// ---------------------------------------------------------------------

/// `bs::mkl_chain` over `n` elements on a fresh context attached to
/// `pool` and `cache`, as the benchmark runs one operation: the call and
/// put vectors, and the context's stats.
fn mkl_chain(
    config: Config,
    n: usize,
    pool: &PoolHandle,
    cache: &Arc<PlanCache>,
) -> (Vec<f64>, Vec<f64>, PhaseStats) {
    let inp = bs::generate(n, 7);
    let ctx = workloads::mozart_context_with(config);
    ctx.attach_pool(pool.clone())
        .attach_plan_cache(cache.clone());
    let v = |x: &Vec<f64>| SharedVec::from_vec(x.clone());
    let (call, put) = bs::mkl_chain(
        &ctx,
        &v(&inp.price),
        &v(&inp.strike),
        &v(&inp.t),
        &v(&inp.rate),
        &v(&inp.vol),
    )
    .unwrap();
    ctx.evaluate().unwrap();
    (
        call.as_slice().to_vec(),
        put.as_slice().to_vec(),
        ctx.stats(),
    )
}

#[test]
fn mkl_black_scholes_runs_at_registration_bit_identically() {
    let pool = PoolHandle::new(WORKERS - 1);
    let cache = Arc::new(PlanCache::new(8));
    // `bs_mkl.small`'s operation: 512 elements (4 KiB arrays), a fresh
    // context per operation, on the benchmark host's 2 MiB L2 (floor
    // 128 KiB).
    let host = Config {
        l2_bytes: 2 << 20,
        ..Config::with_workers(WORKERS)
    };
    for _ in 0..3 {
        let (call, put, stats) = mkl_chain(host.clone(), 512, &pool, &cache);
        assert_at_registration(&stats);
        assert_eq!(stats.inline_calls, 30, "every call of the chain");
        let (want_call, want_put, captured_stats) = mkl_chain(captured(), 512, &pool, &cache);
        assert_captured(&captured_stats);
        assert_eq!(bits(&call), bits(&want_call));
        assert_eq!(bits(&put), bits(&want_put));
    }
    // Only the captured runs planned: one miss, then hits.
    let s = cache.stats();
    assert_eq!((s.hits, s.misses), (2, 1));
}

#[test]
fn numpy_black_scholes_chains_returned_values_at_registration() {
    let inp = bs::generate(512, 3);
    let run = |config: Config| {
        let ctx = workloads::mozart_context_with(config);
        (bs::numpy_mozart(&inp, &ctx).unwrap(), ctx.stats())
    };
    let (got, stats) = run(below_floor());
    assert_at_registration(&stats);
    assert!(
        stats.bytes_merged > 0,
        "returned values are merged: {stats:?}"
    );
    let (want, captured_stats) = run(captured());
    assert_captured(&captured_stats);
    assert_eq!(got.call_sum.to_bits(), want.call_sum.to_bits());
    assert_eq!(got.put_sum.to_bits(), want.put_sum.to_bits());
}

#[test]
fn crime_index_filters_and_reduces_at_registration() {
    let df = crime_index::generate(300, 5);
    let run = |config: Config| {
        let ctx = workloads::mozart_context_with(config);
        (crime_index::mozart(&df, &ctx).unwrap(), ctx.stats())
    };
    let (got, stats) = run(below_floor());
    assert_at_registration(&stats);
    let (want, captured_stats) = run(captured());
    assert_captured(&captured_stats);
    assert_eq!(got.index_sum.to_bits(), want.index_sum.to_bits());
}

#[test]
fn nashville_filters_an_image_at_registration() {
    let img = images::generate(32, 40, 9);
    let run = |config: Config| {
        let ctx = workloads::mozart_context_with(config);
        let out = images::nashville_mozart_image(&img, &ctx).unwrap();
        (bits(out.data()), ctx.stats())
    };
    let (got, stats) = run(below_floor());
    assert_at_registration(&stats);
    let (want, captured_stats) = run(captured());
    assert_captured(&captured_stats);
    assert_eq!(got, want);
}

#[test]
fn the_floor_is_a_boundary() {
    let pool = PoolHandle::new(WORKERS - 1);
    let cache = Arc::new(PlanCache::new(8));
    let with_floor = |floor: u64| Config {
        l2_bytes: 16 * floor,
        ..Config::with_workers(WORKERS)
    };
    // At 512 elements the chain's largest calls read three 4 KiB
    // arrays: with the floor exactly there, every call runs at
    // registration.
    let at = with_floor(3 * 4096);
    let (call, put, stats) = mkl_chain(at.clone(), 512, &pool, &cache);
    assert_at_registration(&stats);
    // One byte below its first call (two arrays, 8 KiB), the chain is
    // captured from the start.
    let (under_call, under_put, under) = mkl_chain(with_floor(2 * 4096 - 1), 512, &pool, &cache);
    assert_captured(&under);
    assert_eq!(
        (bits(&call), bits(&put)),
        (bits(&under_call), bits(&under_put))
    );

    // One element more: the first two calls (two arrays each) still fit
    // under the floor; the first three-array call does not, and from it
    // on everything is captured.
    let (call, put, stats) = mkl_chain(at, 513, &pool, &cache);
    assert_eq!(stats.inline_calls, 2, "{stats:?}");
    assert!(stats.stages > 0, "{stats:?}");
    let (want_call, want_put, _) = mkl_chain(captured(), 513, &pool, &cache);
    assert_eq!(
        (bits(&call), bits(&put)),
        (bits(&want_call), bits(&want_put))
    );
}

// ---------------------------------------------------------------------
// A toy array library for the edge cases.
// ---------------------------------------------------------------------

fn input(n: usize) -> DataValue {
    DataValue::new(VecValue(SharedVec::from_vec(
        (0..n).map(|i| i as f64 + 1.0).collect(),
    )))
}

fn k(k: f64) -> DataValue {
    DataValue::new(FloatValue(k))
}

fn elems(v: &DataValue) -> Vec<f64> {
    v.downcast_ref::<VecValue>().unwrap().0.as_slice().to_vec()
}

fn piece_elems(v: &DataValue) -> Result<Vec<f64>> {
    if let Some(v) = v.downcast_ref::<VecValue>() {
        return Ok(v.0.as_slice().to_vec());
    }
    let view = v
        .downcast_ref::<SliceView>()
        .ok_or_else(|| Error::Library(format!("expected an array piece, got {}", v.type_name())))?;
    // SAFETY: nobody mutates the parent during the task phase.
    Ok(unsafe { view.as_slice() }.to_vec())
}

/// `xs * k`, functional. Built once: the plan cache keys on identity.
fn vmul() -> Arc<Annotation> {
    static A: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
        ArraySplit::register_default();
        Annotation::new("wf_vmul", |inv| {
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

/// `xs *= 2` in place, split by the explicit length.
fn double() -> Arc<Annotation> {
    static A: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
        Annotation::new("wf_double", |inv| {
            let piece = inv.arg::<SliceView>(1)?;
            // SAFETY: each call gets its own range of the buffer.
            for x in unsafe { piece.as_slice_mut() } {
                *x *= 2.0;
            }
            Ok(None)
        })
        .arg("n", missing())
        .mut_arg("xs", concrete(Arc::new(ArraySplit), vec![0]))
        .build()
    });
    A.clone()
}

fn len(n: usize) -> DataValue {
    DataValue::new(IntValue(n as i64))
}

#[test]
fn a_panic_at_registration_is_typed_and_poisons_the_context() {
    let boom = Annotation::new("wf_boom", |_inv| -> Result<Option<DataValue>> {
        panic!("wf_boom always panics")
    })
    .arg("xs", concrete(Arc::new(ArraySplit), vec![0]))
    .build();
    let ctx = MozartContext::new(below_floor());
    let err = ctx.call(&boom, vec![input(16)]).unwrap_err();
    match &err {
        Error::TaskPanicked { stage, payload } => {
            assert_eq!(*stage, FaultPhase::Task);
            assert!(payload.contains("always panics"), "{payload}");
        }
        other => panic!("expected TaskPanicked, got {other:?}"),
    }
    // Poisoned as a failed stage would leave it.
    let next = ctx.call(&vmul(), vec![input(16), k(2.0)]);
    assert!(matches!(next, Err(Error::TaskPanicked { .. })), "{next:?}");
    assert!(matches!(ctx.evaluate(), Err(Error::TaskPanicked { .. })));
}

#[test]
fn an_expired_deadline_cancels_the_call() {
    let ctx = MozartContext::new(below_floor());
    ctx.set_cancel_token(CancelToken::with_deadline(Instant::now()));
    let err = ctx.call(&vmul(), vec![input(16), k(2.0)]).unwrap_err();
    assert!(matches!(err, Error::Cancelled(_)), "{err:?}");
    assert_eq!(ctx.stats().inline_calls, 0);
    assert!(matches!(ctx.evaluate(), Err(Error::Cancelled(_))));
}

#[test]
fn a_traced_call_at_registration_records_one_task_span() {
    let recorder = TraceRecorder::new();
    let ctx = MozartContext::new(Config {
        tracing: Some(recorder.clone()),
        ..below_floor()
    });
    let f = ctx.call(&vmul(), vec![input(16), k(2.0)]).unwrap().unwrap();
    assert_eq!(elems(&f.get().unwrap())[..2], [2.0, 4.0]);
    let spans = recorder.spans(ctx.trace_id().expect("a traced call mints an id"));
    let kinds: Vec<SpanKind> = spans.iter().map(|s| s.kind).collect();
    assert_eq!(kinds, [SpanKind::Task]);
}

// ---------------------------------------------------------------------
// What stays captured.
// ---------------------------------------------------------------------

#[test]
fn storage_another_context_will_write_stays_captured() {
    let buf = SharedVec::from_vec(vec![1.0; 16]);
    let xs = DataValue::new(VecValue(buf.clone()));
    let writer = MozartContext::new(captured());
    writer.call(&double(), vec![len(16), xs.clone()]).unwrap();

    let reader = MozartContext::new(below_floor());
    let tripled = reader.call(&vmul(), vec![xs, k(3.0)]).unwrap().unwrap();
    assert_eq!(
        reader.pending_calls(),
        1,
        "captured behind the pending write"
    );
    // Ordering is what the captured path gives: reading the storage
    // runs the writer, and the reader's evaluation then sees the write.
    assert_eq!(buf.as_slice(), &[2.0; 16]);
    assert_eq!(elems(&tripled.get().unwrap()), [6.0; 16]);
    assert_captured(&reader.stats());
}

/// Split type of [`view_of`]'s result: the pieces are views of the
/// argument's buffer, and merging them copies the viewed elements out.
struct ViewCopySplit;

impl Splitter for ViewCopySplit {
    fn name(&self) -> &'static str {
        "WfViewCopySplit"
    }
    fn construct(&self, ctor_args: &[&DataValue]) -> Result<Params> {
        ArraySplit.construct(ctor_args)
    }
    fn info(&self, arg: &DataValue, params: &Params) -> Result<RuntimeInfo> {
        ArraySplit.info(arg, params)
    }
    fn split(
        &self,
        _arg: &DataValue,
        _r: std::ops::Range<u64>,
        _p: &Params,
    ) -> Result<Option<DataValue>> {
        Err(Error::Library("WfViewCopySplit is merge-only".into()))
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
fn an_in_place_call_over_a_held_view_stays_captured() {
    // Returns its argument's piece itself: a zero-copy view.
    let view_of = Annotation::new("wf_view_of", |inv| Ok(Some(inv.args[0].clone())))
        .arg("xs", concrete(Arc::new(ArraySplit), vec![0]))
        .ret(concrete(Arc::new(ViewCopySplit), vec![0]))
        .build();
    let n = 40;
    let original: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
    let buf = SharedVec::from_vec(original.clone());
    let xs = DataValue::new(VecValue(buf.clone()));

    // Captured, and only `other` read: `view` stays held as pieces
    // aliasing `buf`.
    let ctx = MozartContext::new(captured());
    let view = ctx.call(&view_of, vec![xs.clone()]).unwrap().unwrap();
    let other = ctx
        .call(&vmul(), vec![xs.clone(), k(1.0)])
        .unwrap()
        .unwrap();
    assert_eq!(elems(&other.get().unwrap()), original);
    assert_eq!(ctx.stats().deferred_outputs, 1);

    // Below the floor from here on — but the context holds deferred
    // pieces, so the write over their storage is captured and flushes
    // them first, as `deferred.rs` requires.
    ctx.set_config(below_floor());
    ctx.call(&double(), vec![len(n), xs]).unwrap();
    assert_eq!(ctx.pending_calls(), 1);
    let doubled: Vec<f64> = original.iter().map(|x| x * 2.0).collect();
    assert_eq!(buf.as_slice(), &doubled[..]);
    assert_eq!(ctx.stats().deferred_materialized, 1);
    assert_eq!(
        elems(&view.get().unwrap()),
        original,
        "read before the write"
    );
    assert_eq!(ctx.stats().inline_calls, 0);

    // Nothing held any more: the next call runs at registration.
    ctx.call(
        &double(),
        vec![len(n), DataValue::new(VecValue(buf.clone()))],
    )
    .unwrap();
    assert_eq!(ctx.pending_calls(), 0);
    assert_eq!(ctx.stats().inline_calls, 1);
    assert_eq!(buf.as_slice()[0], original[0] * 4.0);
}

#[test]
fn batch_override_and_fault_plans_keep_calls_captured() {
    let overridden = Config {
        batch_override: Some(1 << 20),
        ..below_floor()
    };
    let faulty = Config {
        fault_plan: Some(Arc::new(FaultPlan::new())),
        ..below_floor()
    };
    for config in [overridden, faulty] {
        let ctx = MozartContext::new(config);
        let f = ctx.call(&vmul(), vec![input(16), k(2.0)]).unwrap().unwrap();
        assert_eq!(ctx.pending_calls(), 1);
        assert_eq!(elems(&f.get().unwrap())[..3], [2.0, 4.0, 6.0]);
        assert_captured(&ctx.stats());
    }
}

#[test]
fn a_constructor_argument_beyond_the_arity_fails_typed_on_both_paths() {
    // The annotation checker would refuse this at registration; with it
    // off (the release default) the call is captured and its evaluation
    // fails with the planner's typed error, not a panic in `call`.
    let bad = Annotation::new("wf_bad_ctor", |_inv| Ok(None))
        .arg("xs", concrete(Arc::new(ArraySplit), vec![3]))
        .build();
    let mut errors = Vec::new();
    for config in [below_floor(), captured()] {
        let ctx = MozartContext::new(Config {
            verify_plans: false,
            ..config
        });
        ctx.call(&bad, vec![input(16)]).unwrap();
        assert_eq!(ctx.pending_calls(), 1);
        let err = ctx.evaluate().unwrap_err();
        assert!(
            matches!(&err, Error::Constructor { message, .. } if message.contains("beyond arity")),
            "{err:?}"
        );
        errors.push(err.to_string());
    }
    assert_eq!(errors[0], errors[1]);
}

// ---------------------------------------------------------------------
// Released values.
// ---------------------------------------------------------------------

#[test]
fn a_released_value_is_refused_at_registration() {
    for config in [below_floor(), captured()] {
        let ctx = workloads::mozart_context_with(config);
        let x = NdArray::from_vec((0..64).map(|i| i as f64).collect());
        let h = sa_ndarray::square(&ctx, &x).unwrap();
        ctx.evaluate().unwrap();
        let copy = h.as_value();
        drop(h);
        let err = sa_ndarray::mul_scalar(&ctx, &copy, 2.0).unwrap_err();
        assert!(matches!(err, Error::ValueUnavailable), "{err:?}");

        // Refused, not scheduled: the context is still usable.
        ctx.evaluate().unwrap();
        let twice = sa_ndarray::mul_scalar(&ctx, &x, 2.0).unwrap();
        let got = sa_ndarray::get(&twice).unwrap();
        assert_eq!(got.as_slice()[..3], [0.0, 2.0, 4.0]);
    }
}
