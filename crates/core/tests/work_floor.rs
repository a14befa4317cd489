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
//!   will write, an in-place call while the context holds lineage that
//!   reads the storage it writes, and calls under `batch_override` or a
//!   `fault_plan`;
//! * an annotation whose split type names an argument beyond its arity
//!   is refused at registration on both paths;
//! * a lazy copy of a released value is refused with `ValueUnavailable`
//!   on both paths, and the context stays usable;
//! * what a call keeps is sound against the plain library: a new buffer
//!   where a dropped one was gets its own piece, a default split type
//!   registered between two calls is honoured, a split type that
//!   does not declare a stable whole piece is split on every call, and
//!   a scalar taken whole is read afresh by every call of one shape;
//! * the function borrows its pieces: one that returns an argument's
//!   piece — a kept whole piece, a piece split for the call, or the
//!   handle of a scalar passed by value — gives the plain function's
//!   bits on both paths, and its result outlives the call;
//! * decisions are kept per thread and the memo is bounded: more call
//!   shapes than a thread keeps, from two threads at once, all run at
//!   registration and match the plain library bit for bit.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, LazyLock};
use std::time::{Duration, Instant};

use mozart_core::annotation::{concrete, generic, missing, unknown, Annotation, Invocation};
use mozart_core::prelude::*;
use mozart_core::row_bands::RowBand;
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
    let view = &v
        .downcast_ref::<VecValue>()
        .ok_or_else(|| Error::Library(format!("expected an array piece, got {}", v.type_name())))?
        .0;
    // SAFETY: nobody mutates the parent during the task phase.
    Ok(unsafe { view.slice_unchecked(0, view.len()) }.to_vec())
}

/// `xs * k`, functional. Built once: the plan cache keys on identity.
fn vmul() -> Arc<Annotation> {
    static A: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
        ArraySplit::register_default();
        Annotation::new("wf_vmul", |inv| {
            let k = inv.float(1)?;
            let out = piece_elems(inv.args[0])?.iter().map(|x| x * k).collect();
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
            let piece = &inv.arg::<VecValue>(1)?.0;
            // SAFETY: each call gets its own range of the buffer.
            for x in unsafe { piece.slice_mut_unchecked(0, piece.len()) } {
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
    let err = ctx.call(&boom, &[Arg::Value(&input(16))]).unwrap_err();
    match &err {
        Error::TaskPanicked { stage, payload } => {
            assert_eq!(*stage, FaultPhase::Task);
            assert!(payload.contains("always panics"), "{payload}");
        }
        other => panic!("expected TaskPanicked, got {other:?}"),
    }
    // Poisoned as a failed stage would leave it.
    let next = ctx.call(&vmul(), &[Arg::Value(&input(16)), Arg::Value(&k(2.0))]);
    assert!(matches!(next, Err(Error::TaskPanicked { .. })), "{next:?}");
    assert!(matches!(ctx.evaluate(), Err(Error::TaskPanicked { .. })));
}

#[test]
fn an_expired_deadline_cancels_the_call() {
    let ctx = MozartContext::new(below_floor());
    ctx.set_cancel_token(CancelToken::with_deadline(Instant::now()));
    let err = ctx
        .call(&vmul(), &[Arg::Value(&input(16)), Arg::Value(&k(2.0))])
        .unwrap_err();
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
    let f = ctx
        .call(&vmul(), &[Arg::Value(&input(16)), Arg::Value(&k(2.0))])
        .unwrap()
        .unwrap();
    assert_eq!(elems(&f.get().unwrap())[..2], [2.0, 4.0]);
    let spans = recorder.spans(ctx.trace_id().expect("a traced call mints an id"));
    let kinds: Vec<SpanKind> = spans.iter().map(|s| s.kind).collect();
    assert_eq!(kinds, [SpanKind::Task]);
}

#[test]
fn every_call_at_registration_counts_task_time_though_few_are_timed() {
    // Each call sleeps 1 ms: a call that is not timed counts what its
    // shape's last timed call took, so every call counts at least that.
    const CALLS: u32 = 40;
    let nap = Annotation::new("wf_nap", |_inv| {
        std::thread::sleep(Duration::from_millis(1));
        Ok(None)
    })
    .arg("xs", concrete(Arc::new(ArraySplit), vec![0]))
    .build();
    let ctx = MozartContext::new(below_floor());
    let buf = SharedVec::from_vec(vec![0.0; 16]);
    for _ in 0..CALLS {
        ctx.call(&nap, &[Arg::Vec(&buf)]).unwrap();
    }
    let stats = ctx.stats();
    assert_eq!(stats.inline_calls, u64::from(CALLS));
    assert!(
        stats.task >= Duration::from_millis(1) * CALLS,
        "{CALLS} calls of 1 ms counted {:?}",
        stats.task
    );
}

// ---------------------------------------------------------------------
// What stays captured.
// ---------------------------------------------------------------------

#[test]
fn storage_another_context_will_write_stays_captured() {
    let buf = SharedVec::from_vec(vec![1.0; 16]);
    let xs = DataValue::new(VecValue(buf.clone()));
    let writer = MozartContext::new(captured());
    writer
        .call(&double(), &[Arg::Value(&len(16)), Arg::Value(&xs.clone())])
        .unwrap();

    let reader = MozartContext::new(below_floor());
    let tripled = reader
        .call(&vmul(), &[Arg::Value(&xs), Arg::Value(&k(3.0))])
        .unwrap()
        .unwrap();
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

/// A library type that keeps `DataObject`'s defaults — no declared
/// storage, no protection — over a `SharedVec` an in-place call writes:
/// a live output over it that nobody read is held as lineage.
#[derive(Clone)]
struct Cells(SharedVec<f64>);

impl mozart_core::value::DataObject for Cells {
    fn type_name(&self) -> &'static str {
        "WfCells"
    }
}

fn cells(v: &DataValue) -> Result<Vec<f64>> {
    let c = v
        .downcast_ref::<Cells>()
        .ok_or_else(|| Error::Library(format!("expected cells, got {}", v.type_name())))?;
    Ok(c.0.as_slice().to_vec())
}

/// Pieces are copies of their range; merging concatenates them.
struct CellSplit;

impl Splitter for CellSplit {
    fn name(&self) -> &'static str {
        "WfCellSplit"
    }
    fn construct(&self, ctor_args: &[&DataValue]) -> Result<Params> {
        Ok(vec![cells(ctor_args[0])?.len() as i64])
    }
    fn info(&self, _arg: &DataValue, params: &Params) -> Result<RuntimeInfo> {
        Ok(RuntimeInfo {
            total_elements: params[0] as u64,
            elem_size_bytes: 8,
        })
    }
    fn split(
        &self,
        arg: &DataValue,
        r: std::ops::Range<u64>,
        params: &Params,
    ) -> Result<Option<DataValue>> {
        let total = params[0] as u64;
        if r.start >= total {
            return Ok(None);
        }
        let piece = cells(arg)?[r.start as usize..r.end.min(total) as usize].to_vec();
        Ok(Some(DataValue::new(Cells(SharedVec::from_vec(piece)))))
    }
    fn merge_strategy(&self) -> MergeStrategy {
        MergeStrategy::Concat { placement: None }
    }
    fn merge(&self, pieces: Vec<DataValue>, _p: &Params, _total: u64) -> Result<DataValue> {
        let mut out = Vec::new();
        for p in &pieces {
            out.extend(cells(p)?);
        }
        Ok(DataValue::new(Cells(SharedVec::from_vec(out))))
    }
}

/// `c + k` over cells.
fn cells_offset() -> Arc<Annotation> {
    static A: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
        Annotation::new("wf_cells_offset", |inv| {
            let k = inv.float(1)?;
            let out = cells(inv.args[0])?.iter().map(|x| x + k).collect();
            Ok(Some(DataValue::new(Cells(SharedVec::from_vec(out)))))
        })
        .arg("c", concrete(Arc::new(CellSplit), vec![0]))
        .arg("k", missing())
        .ret(concrete(Arc::new(CellSplit), vec![0]))
        .build()
    });
    A.clone()
}

#[test]
fn an_in_place_call_over_a_held_view_stays_captured() {
    let n = 40;
    let original: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
    let buf = SharedVec::from_vec(original.clone());
    let xs = DataValue::new(VecValue(buf.clone()));
    let over_buf = DataValue::new(Cells(buf.clone()));

    // Captured, and only `other` read: `held` is kept as its lineage,
    // which reads `buf`.
    let ctx = MozartContext::new(captured());
    let offset = |k: f64| {
        ctx.call(&cells_offset(), &[Arg::Value(&over_buf), Arg::Float(k)])
            .unwrap()
            .unwrap()
    };
    let held = offset(0.0);
    let other = offset(1.0);
    let plus_one: Vec<f64> = original.iter().map(|x| x + 1.0).collect();
    assert_eq!(cells(&other.get().unwrap()).unwrap(), plus_one);
    assert_eq!(ctx.stats().lineage_outputs, 1);

    // Below the floor from here on — but the context holds lineage, so
    // the write over the storage it reads is captured and replays it
    // first.
    ctx.set_config(below_floor());
    ctx.call(&double(), &[Arg::Value(&len(n)), Arg::Value(&xs)])
        .unwrap();
    assert_eq!(ctx.pending_calls(), 1);
    let doubled: Vec<f64> = original.iter().map(|x| x * 2.0).collect();
    assert_eq!(buf.as_slice(), &doubled[..]);
    assert_eq!(ctx.stats().lineage_replays, 1);
    assert_eq!(
        cells(&held.get().unwrap()).unwrap(),
        original,
        "read before the write"
    );
    assert_eq!(ctx.stats().inline_calls, 0);

    // Nothing held any more: the next call runs at registration.
    ctx.call(&double(), &[Arg::Value(&len(n)), Arg::Vec(&buf)])
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
        let f = ctx
            .call(&vmul(), &[Arg::Value(&input(16)), Arg::Value(&k(2.0))])
            .unwrap()
            .unwrap();
        assert_eq!(ctx.pending_calls(), 1);
        assert_eq!(elems(&f.get().unwrap())[..3], [2.0, 4.0, 6.0]);
        assert_captured(&ctx.stats());
    }
}

#[test]
fn a_constructor_argument_beyond_the_arity_fails_typed_on_both_paths() {
    // The annotation checker refuses the call at registration, on the
    // work-floor path and the captured one alike: nothing is pending, and
    // the context still evaluates. (`construct_instance` keeps its own
    // arity check as a defence.)
    let bad = Annotation::new("wf_bad_ctor", |_inv| Ok(None))
        .arg("xs", concrete(Arc::new(ArraySplit), vec![3]))
        .build();
    let mut errors = Vec::new();
    for config in [below_floor(), captured()] {
        let ctx = MozartContext::new(config);
        let err = ctx.call(&bad, &[Arg::Value(&input(16))]).unwrap_err();
        assert!(
            matches!(
                &err,
                Error::Verify(VerifyError::CtorArgOutOfRange {
                    index: 3,
                    arity: 1,
                    ..
                })
            ),
            "{err:?}"
        );
        assert_eq!(ctx.pending_calls(), 0);
        let f = ctx
            .call(&vmul(), &[Arg::Value(&input(16)), Arg::Value(&k(2.0))])
            .unwrap()
            .unwrap();
        assert_eq!(elems(&f.get().unwrap())[..3], [2.0, 4.0, 6.0]);
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

// ---------------------------------------------------------------------
// What a call at the floor keeps: its shape's decision, on the
// annotation, and whole pieces, on the context until it evaluates.
// ---------------------------------------------------------------------

#[test]
fn a_new_buffer_where_a_dropped_one_was_gets_its_own_piece() {
    sa_vectormath::register_defaults();
    let ctx = MozartContext::new(below_floor());
    let n = 64;
    let b = SharedVec::from_vec((0..n).map(|i| i as f64 * 0.5).collect());
    for round in 0..4 {
        // The same length as last round's input, dropped by now.
        let a: Vec<f64> = (0..n).map(|i| (round * n + i) as f64).collect();
        let out = SharedVec::zeros(n);
        sa_vectormath::vd_add(&ctx, n, &SharedVec::from_vec(a.clone()), &b, &out).unwrap();
        let mut want = vec![0.0; n];
        vectormath::vd_add(&a, b.as_slice(), &mut want);
        assert_eq!(bits(out.as_slice()), bits(&want), "round {round}");
    }
    assert_eq!(ctx.stats().inline_calls, 4);
}

/// A default split type for `FloatValue` whose merge adds `.1`, so a
/// result shows which default split it.
struct Bumped(&'static str, f64);

impl Splitter for Bumped {
    fn name(&self) -> &'static str {
        self.0
    }
    fn construct(&self, _ctor_args: &[&DataValue]) -> Result<Params> {
        Ok(vec![])
    }
    fn info(&self, _arg: &DataValue, _p: &Params) -> Result<RuntimeInfo> {
        Ok(RuntimeInfo {
            total_elements: 1,
            elem_size_bytes: 8,
        })
    }
    fn split(
        &self,
        arg: &DataValue,
        _r: std::ops::Range<u64>,
        _p: &Params,
    ) -> Result<Option<DataValue>> {
        Ok(Some(arg.clone()))
    }
    fn merge(&self, pieces: Vec<DataValue>, _p: &Params, _total: u64) -> Result<DataValue> {
        let x = pieces[0].downcast_ref::<FloatValue>().expect("a float").0;
        Ok(DataValue::new(FloatValue(x + self.1)))
    }
}

#[test]
fn a_default_split_type_registered_between_calls_is_honoured() {
    // The library function: `x * 2`, over a scalar split by its type's
    // default.
    let twice = Annotation::new("wf_twice", |inv| {
        Ok(Some(DataValue::new(FloatValue(inv.float(0)? * 2.0))))
    })
    .arg("x", generic(0))
    .ret(generic(0))
    .build();
    let ctx = MozartContext::new(below_floor());
    let twice_of = |x: f64| {
        let f = ctx.call(&twice, &[Arg::Float(x)]).unwrap().unwrap();
        f.get().unwrap().downcast_ref::<FloatValue>().unwrap().0
    };
    register_default_splitter::<FloatValue>(Arc::new(Bumped("WfBumpOne", 1.0)));
    assert_eq!(twice_of(3.0), 3.0 * 2.0 + 1.0);
    assert_eq!(twice_of(3.0), 3.0 * 2.0 + 1.0, "the kept decision");
    register_default_splitter::<FloatValue>(Arc::new(Bumped("WfBumpTen", 10.0)));
    assert_eq!(twice_of(3.0), 3.0 * 2.0 + 10.0);
    assert_eq!(ctx.stats().inline_calls, 3);
}

/// `ArraySplit`, counting its splits, with or without a stable whole
/// piece.
struct Counted {
    stable: bool,
    splits: AtomicUsize,
}

impl Splitter for Counted {
    fn name(&self) -> &'static str {
        "WfCounted"
    }
    fn construct(&self, ctor_args: &[&DataValue]) -> Result<Params> {
        ArraySplit.construct(ctor_args)
    }
    fn info(&self, arg: &DataValue, params: &Params) -> Result<RuntimeInfo> {
        ArraySplit.info(arg, params)
    }
    fn split(
        &self,
        arg: &DataValue,
        range: std::ops::Range<u64>,
        params: &Params,
    ) -> Result<Option<DataValue>> {
        self.splits.fetch_add(1, Ordering::Relaxed);
        ArraySplit.split(arg, range, params)
    }
    fn merge(&self, pieces: Vec<DataValue>, params: &Params, total: u64) -> Result<DataValue> {
        ArraySplit.merge(pieces, params, total)
    }
    fn merge_strategy(&self) -> MergeStrategy {
        ArraySplit.merge_strategy()
    }
    fn whole_piece_stable(&self) -> bool {
        self.stable
    }
}

#[test]
fn only_a_stable_split_type_is_split_once_per_buffer() {
    for stable in [false, true] {
        let split = Arc::new(Counted {
            stable,
            splits: AtomicUsize::new(0),
        });
        let double = Annotation::new("wf_counted_double", |inv| {
            let piece = &inv.arg::<VecValue>(1)?.0;
            // SAFETY: the call has the buffer to itself.
            for x in unsafe { piece.slice_mut_unchecked(0, piece.len()) } {
                *x *= 2.0;
            }
            Ok(None)
        })
        .arg("n", missing())
        .mut_arg("xs", concrete(split.clone(), vec![0]))
        .build();
        let ctx = MozartContext::new(below_floor());
        let buf = SharedVec::from_vec(vec![1.0; 16]);
        let splits = || split.splits.load(Ordering::Relaxed);
        for _ in 0..3 {
            ctx.call(&double, &[Arg::Int(16), Arg::Vec(&buf)]).unwrap();
        }
        assert_eq!(buf.as_slice(), &[8.0; 16]);
        assert_eq!(splits(), if stable { 1 } else { 3 }, "stable: {stable}");
        // An evaluation lets go of the kept piece.
        ctx.evaluate().unwrap();
        ctx.call(&double, &[Arg::Int(16), Arg::Vec(&buf)]).unwrap();
        assert_eq!(splits(), if stable { 2 } else { 4 }, "stable: {stable}");
        assert_eq!(buf.as_slice(), &[16.0; 16]);
        assert_eq!(ctx.stats().inline_calls, 4);
    }
}

#[test]
fn a_scalar_taken_whole_is_read_on_every_call() {
    sa_vectormath::register_defaults();
    let ctx = MozartContext::new(below_floor());
    let n = 64;
    let a: Vec<f64> = (0..n).map(|i| i as f64 + 0.25).collect();
    let shared = SharedVec::from_vec(a.clone());
    // One call shape, a different factor on every call.
    for k in [0.5, -3.0, 1e-3, 7.0] {
        let out = SharedVec::zeros(n);
        sa_vectormath::vd_scale(&ctx, n, &shared, k, &out).unwrap();
        let mut want = vec![0.0; n];
        vectormath::vd_scale(&a, k, &mut want);
        assert_eq!(bits(out.as_slice()), bits(&want), "k = {k}");
    }
    assert_eq!(ctx.stats().inline_calls, 4);
}

// ---------------------------------------------------------------------
// Borrowed pieces and the decision memo.
// ---------------------------------------------------------------------

/// Merges a stage's pieces of an `unknown` result by keeping the first:
/// for a function that returns one of its whole arguments, every piece
/// is that argument.
struct First;

impl Splitter for First {
    fn name(&self) -> &'static str {
        "WfFirst"
    }
    fn construct(&self, _ctor_args: &[&DataValue]) -> Result<Params> {
        Ok(Vec::new())
    }
    fn info(&self, _arg: &DataValue, _p: &Params) -> Result<RuntimeInfo> {
        Err(Error::Library("WfFirst only merges".into()))
    }
    fn split(
        &self,
        _arg: &DataValue,
        _r: std::ops::Range<u64>,
        _p: &Params,
    ) -> Result<Option<DataValue>> {
        Err(Error::Library("WfFirst only merges".into()))
    }
    fn merge(&self, pieces: Vec<DataValue>, _p: &Params, _total: u64) -> Result<DataValue> {
        pieces
            .into_iter()
            .next()
            .ok_or_else(|| Error::Library("no piece to merge".into()))
    }
}

/// Returns its argument `arg`'s piece as it was handed in.
fn returns_arg(
    name: &'static str,
    arg: usize,
) -> impl Fn(&Invocation<'_>) -> Result<Option<DataValue>> {
    move |inv| {
        let piece = inv
            .args
            .get(arg)
            .ok_or_else(|| Error::Library(format!("{name}: no piece")))?;
        Ok(Some((*piece).clone()))
    }
}

#[test]
fn a_function_returning_an_argument_piece_gives_the_plain_bits_and_outlives_the_call() {
    ArraySplit::register_default();
    // A kept whole piece: `ArraySplit` declares a stable whole piece, so
    // the floor splits the buffer once and lends the piece to each call.
    let view = Annotation::new("wf_returns_view", returns_arg("wf_returns_view", 0))
        .arg("xs", generic(0))
        .ret(generic(0))
        .build();
    // A piece split for the call alone, a copy of its range.
    let copy = Annotation::new("wf_returns_copy", returns_arg("wf_returns_copy", 0))
        .arg("c", concrete(Arc::new(CellSplit), vec![0]))
        .ret(concrete(Arc::new(CellSplit), vec![0]))
        .build();
    // The handle a scalar passed by value is wrapped in.
    let factor = Annotation::new("wf_returns_factor", returns_arg("wf_returns_factor", 1))
        .arg("xs", generic(0))
        .arg("k", missing())
        .ret(unknown(Arc::new(First)))
        .build();

    for config in [below_floor(), captured()] {
        let at_floor = config.batch_override.is_none();
        let ctx = MozartContext::new(config);
        let xs: Vec<f64> = (0..16).map(|i| i as f64 * 0.75 - 3.0).collect();
        let buf = SharedVec::from_vec(xs.clone());
        let c = DataValue::new(Cells(SharedVec::from_vec(xs.clone())));
        let same = ctx.call(&view, &[Arg::Vec(&buf)]).unwrap().unwrap();
        let copied = ctx.call(&copy, &[Arg::Value(&c)]).unwrap().unwrap();
        // Two calls of one shape, each returning its own factor.
        let two = ctx
            .call(&factor, &[Arg::Vec(&buf), Arg::Float(2.0)])
            .unwrap()
            .unwrap();
        let three = ctx
            .call(&factor, &[Arg::Vec(&buf), Arg::Float(3.0)])
            .unwrap()
            .unwrap();
        ctx.evaluate().unwrap();
        let stats = ctx.stats();
        if at_floor {
            assert_at_registration(&stats);
        } else {
            assert_captured(&stats);
        }
        // The arguments and everything the floor kept are gone; the
        // results stand on their own.
        drop((buf, c));
        let float = |v: &FutureHandle| v.get().unwrap().downcast_ref::<FloatValue>().unwrap().0;
        assert_eq!(
            bits(&elems(&same.get().unwrap())),
            bits(&xs),
            "at floor: {at_floor}"
        );
        assert_eq!(bits(&cells(&copied.get().unwrap()).unwrap()), bits(&xs));
        assert_eq!(
            (float(&two), float(&three)),
            (2.0, 3.0),
            "at floor: {at_floor}"
        );
    }
}

#[test]
fn more_shapes_than_a_thread_keeps_all_run_at_the_floor_from_two_threads() {
    // A thread keeps 256 decisions; each length below is a shape of its
    // own, and each thread runs them all twice, so its memo is emptied
    // and refilled while the other thread does the same.
    const LENGTHS: usize = 320;
    sa_vectormath::register_defaults();
    let ctx = MozartContext::new(below_floor());
    std::thread::scope(|s| {
        for t in 0..2 {
            let ctx = ctx.clone();
            s.spawn(move || {
                for round in 0..2 {
                    for n in 1..=LENGTHS {
                        let a: Vec<f64> = (0..n).map(|i| (i + t) as f64 * 0.5 - 7.25).collect();
                        let k = 1.5 + (n * (round + 1)) as f64 * 1e-3;
                        let (shared, out) = (SharedVec::from_vec(a.clone()), SharedVec::zeros(n));
                        sa_vectormath::vd_scale(&ctx, n, &shared, k, &out).unwrap();
                        let mut want = vec![0.0; n];
                        vectormath::vd_scale(&a, k, &mut want);
                        assert_eq!(bits(out.as_slice()), bits(&want), "thread {t}, n = {n}");
                    }
                }
            });
        }
    });
    let stats = ctx.stats();
    assert_at_registration(&stats);
    assert_eq!(stats.inline_calls, 2 * 2 * LENGTHS as u64, "{stats:?}");
}

#[test]
fn a_view_never_passes_for_another_view_of_its_buffer() {
    // Two halves of one buffer, of one length: the same call shape over
    // the same storage, but not the same elements.
    for config in [below_floor(), captured()] {
        let at_floor = config.batch_override.is_none();
        let ctx = MozartContext::new(config);
        let buf = input(32);
        let whole = buf.downcast_ref::<VecValue>().unwrap();
        let (head, tail) = (whole.view(0, 16).0, whole.view(16, 32).0);
        let a = ctx
            .call(&vmul(), &[Arg::Vec(&head), Arg::Value(&k(2.0))])
            .unwrap()
            .unwrap();
        let b = ctx
            .call(&vmul(), &[Arg::Vec(&tail), Arg::Value(&k(2.0))])
            .unwrap()
            .unwrap();
        let twice = |xs: &[f64]| xs.iter().map(|x| x * 2.0).collect::<Vec<_>>();
        let want = elems(&buf);
        assert_eq!(
            elems(&a.get().unwrap()),
            twice(&want[..16]),
            "at floor: {at_floor}"
        );
        assert_eq!(
            elems(&b.get().unwrap()),
            twice(&want[16..]),
            "at floor: {at_floor}"
        );
    }
}
