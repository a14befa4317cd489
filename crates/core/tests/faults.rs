//! Chaos suite: deterministic fault injection across the executor's
//! split/task/merge phases, panic isolation, pool-worker respawn,
//! cooperative cancellation, and retry determinism.
//!
//! The invariants under test (ISSUE 6):
//!
//! * every injected or organic fault surfaces as a **typed** error
//!   (`TaskPanicked` / `Injected` / `Cancelled`) — never a hang, never
//!   an unwinding caller;
//! * a panicking batch fails only its job: the worker pool survives,
//!   and a worker thread that dies anyway is respawned;
//! * a retried evaluation (fault budget spent) produces results
//!   **bit-identical** to a fault-free run.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mozart_core::annotation::{concrete, missing, Annotation};
use mozart_core::faultinject::{silence_injected_panics, WorkerAbort};
use mozart_core::prelude::*;

// ---------------------------------------------------------------------
// A toy functional library over owned chunks (no placement capability:
// outputs are collected and concatenated), the same over `SharedVec`
// arrays (outputs are written in place), and an in-place variant over
// `SharedVec` (mut-argument views, nothing to merge).
// ---------------------------------------------------------------------

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

struct ChunkSplit;

impl Splitter for ChunkSplit {
    fn name(&self) -> &'static str {
        "ChunkSplit"
    }
    fn construct(&self, ctor_args: &[&DataValue]) -> Result<Params> {
        let c = ctor_args[0]
            .downcast_ref::<Chunk>()
            .ok_or(Error::Library("ChunkSplit ctor".into()))?;
        Ok(vec![c.0.len() as i64])
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
        range: Range<u64>,
        params: &Params,
    ) -> Result<Option<DataValue>> {
        let c = arg
            .downcast_ref::<Chunk>()
            .ok_or(Error::Library("ChunkSplit split".into()))?;
        let total = params[0] as u64;
        if range.start >= total {
            return Ok(None);
        }
        let end = range.end.min(total) as usize;
        Ok(Some(DataValue::new(Chunk(Arc::new(
            c.0[range.start as usize..end].to_vec(),
        )))))
    }
    fn merge(
        &self,
        pieces: Vec<DataValue>,
        _params: &Params,
        _total_elements: u64,
    ) -> Result<DataValue> {
        let mut out = Vec::new();
        for p in pieces {
            let c = p
                .downcast_ref::<Chunk>()
                .ok_or(Error::Library("ChunkSplit merge".into()))?;
            out.extend_from_slice(&c.0);
        }
        Ok(DataValue::new(Chunk(Arc::new(out))))
    }
}

/// Like [`ChunkSplit`], but its `panic_at`-th `merge` call (counting
/// from 1) panics — models an organic panic inside foreign merge code
/// (local worker merges and the final merge both route through here).
struct FlakyMergeSplit {
    panic_at: u64,
    calls: AtomicU64,
}

impl Splitter for FlakyMergeSplit {
    fn name(&self) -> &'static str {
        "FlakyMergeSplit"
    }
    fn construct(&self, ctor_args: &[&DataValue]) -> Result<Params> {
        ChunkSplit.construct(ctor_args)
    }
    fn info(&self, arg: &DataValue, params: &Params) -> Result<RuntimeInfo> {
        ChunkSplit.info(arg, params)
    }
    fn split(&self, arg: &DataValue, r: Range<u64>, p: &Params) -> Result<Option<DataValue>> {
        ChunkSplit.split(arg, r, p)
    }
    fn merge(&self, pieces: Vec<DataValue>, p: &Params, total: u64) -> Result<DataValue> {
        if self.calls.fetch_add(1, Ordering::Relaxed) + 1 == self.panic_at {
            panic!("organic merge panic (chaos test)");
        }
        ChunkSplit.merge(pieces, p, total)
    }
}

/// Functional chunk scaling with an optional per-batch sleep and an
/// optional per-batch panic behaviour.
#[derive(Clone, Copy)]
enum Misbehave {
    No,
    /// `panic!` with a `String` payload on pool worker threads only
    /// (named `mozart-worker-*`); the caller's driver loop stays sane.
    PanicOnPoolThreads,
    /// Unwind the [`WorkerAbort`] marker on pool worker threads only:
    /// the phase wrappers re-raise it, so the thread actually dies and
    /// the respawn supervisor must replace it.
    KillPoolThreads,
}

fn on_pool_thread() -> bool {
    std::thread::current()
        .name()
        .is_some_and(|n| n.starts_with("mozart-worker"))
}

fn chunk_scale(sleep: Duration, misbehave: Misbehave) -> Arc<Annotation> {
    chunk_scale_with(Arc::new(ChunkSplit), sleep, misbehave)
}

fn chunk_scale_with(
    splitter: Arc<dyn Splitter>,
    sleep: Duration,
    misbehave: Misbehave,
) -> Arc<Annotation> {
    Annotation::new("chaos_scale", move |inv| {
        match misbehave {
            Misbehave::No => {}
            Misbehave::PanicOnPoolThreads if on_pool_thread() => {
                panic!("organic task panic (chaos test)")
            }
            Misbehave::KillPoolThreads if on_pool_thread() => {
                std::panic::panic_any(WorkerAbort("chaos kill".into()))
            }
            _ => {}
        }
        if !sleep.is_zero() {
            std::thread::sleep(sleep);
        }
        let c = inv.arg::<Chunk>(0)?;
        let k = inv.float(1)?;
        Ok(Some(DataValue::new(Chunk(Arc::new(
            c.0.iter().map(|x| x * k).collect(),
        )))))
    })
    .arg("xs", concrete(splitter.clone(), vec![0]))
    .arg("k", missing())
    .ret(concrete(splitter, vec![0]))
    .build()
}

/// Functional array scaling through `ArraySplit`, whose fresh result
/// pieces are written in place into one preallocated output.
fn array_scale() -> Arc<Annotation> {
    Annotation::new("chaos_array_scale", |inv| {
        let piece = inv.arg::<SliceView>(0)?;
        let k = inv.float(1)?;
        // SAFETY: the piece is only read, by the batch it belongs to.
        let ys = unsafe { piece.as_slice() }.iter().map(|x| x * k).collect();
        Ok(Some(DataValue::new(VecValue(SharedVec::from_vec(ys)))))
    })
    .arg("xs", concrete(Arc::new(ArraySplit), vec![0]))
    .arg("k", missing())
    .ret(concrete(Arc::new(ArraySplit), vec![0]))
    .build()
}

/// In-place scaling over `SharedVec` through `ArraySplit`: mut-argument
/// slice views, no merge at all.
fn vec_scale() -> Arc<Annotation> {
    Annotation::new("chaos_vec_scale", |inv| {
        let piece = inv.arg::<SliceView>(0)?;
        let k = inv.float(1)?;
        // SAFETY: the executor hands each worker disjoint ranges.
        for x in unsafe { piece.as_slice_mut() } {
            *x *= k;
        }
        Ok(None)
    })
    // MKL convention: split parameters come from the explicit size
    // argument, never from the mutable array itself.
    .mut_arg("xs", concrete(Arc::new(ArraySplit), vec![2]))
    .arg("k", missing())
    .arg("n", missing())
    .build()
}

fn chaos_ctx(
    pool: Option<&PoolHandle>,
    workers: usize,
    plan: Option<Arc<FaultPlan>>,
) -> MozartContext {
    let mut cfg = Config::with_workers(workers);
    cfg.batch_override = Some(1);
    cfg.fault_plan = plan;
    let ctx = MozartContext::new(cfg);
    if let Some(p) = pool {
        ctx.attach_pool(p.clone());
    }
    ctx
}

/// Run one functional evaluation and return the output elements.
fn run_chunks(ctx: &MozartContext, annot: &Arc<Annotation>, n: u64, k: f64) -> Result<Vec<f64>> {
    let data = Chunk(Arc::new((0..n).map(|i| i as f64).collect()));
    let fut = ctx
        .call(
            annot,
            vec![DataValue::new(data), DataValue::new(FloatValue(k))],
        )?
        .ok_or(Error::ValueUnavailable)?;
    let out = fut.get()?;
    let c = out
        .downcast_ref::<Chunk>()
        .ok_or(Error::Library("not a Chunk".into()))?;
    Ok(c.0.as_ref().clone())
}

/// Run one placement-merged evaluation and return the output elements.
fn run_array(ctx: &MozartContext, n: u64, k: f64) -> Result<Vec<f64>> {
    let data = SharedVec::from_vec((0..n).map(|i| i as f64).collect());
    let fut = ctx
        .call(
            &array_scale(),
            vec![
                DataValue::new(VecValue(data)),
                DataValue::new(FloatValue(k)),
            ],
        )?
        .ok_or(Error::ValueUnavailable)?;
    let out = fut.get()?;
    let v = out
        .downcast_ref::<VecValue>()
        .ok_or(Error::Library("not an array".into()))?;
    Ok(v.0.as_slice().to_vec())
}

/// Run one in-place evaluation and return the mutated elements.
fn run_vec(ctx: &MozartContext, n: u64, k: f64) -> Result<Vec<f64>> {
    let data = SharedVec::from_vec((0..n).map(|i| i as f64).collect());
    ctx.call(
        &vec_scale(),
        vec![
            DataValue::new(VecValue(data.clone())),
            DataValue::new(FloatValue(k)),
            DataValue::new(IntValue(n as i64)),
        ],
    )?;
    ctx.evaluate()?;
    Ok(data.as_slice().to_vec())
}

fn expected(n: u64, k: f64) -> Vec<f64> {
    (0..n).map(|i| i as f64 * k).collect()
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

/// How an evaluation's output leaves its stage.
#[derive(Debug, Clone, Copy)]
enum Output {
    /// Written in place into a preallocated value (arrays).
    Placed,
    /// Collected and concatenated (chunks).
    Collected,
    /// A mutated argument: nothing to merge.
    InPlace,
}

impl Output {
    fn run(self, ctx: &MozartContext, n: u64, k: f64) -> Result<Vec<f64>> {
        match self {
            Output::Placed => run_array(ctx, n, k),
            Output::Collected => run_chunks(ctx, &chunk_scale(Duration::ZERO, Misbehave::No), n, k),
            Output::InPlace => run_vec(ctx, n, k),
        }
    }
}

#[test]
fn injected_panics_surface_typed_in_every_phase_and_merge_mode() {
    silence_injected_panics();
    let pool = PoolHandle::new(2);
    let n = 16u64;
    for phase in [FaultPhase::Split, FaultPhase::Task, FaultPhase::Merge] {
        for output in [Output::Placed, Output::Collected, Output::InPlace] {
            let plan = Arc::new(FaultPlan::new().point(FaultPoint::once(phase, FaultKind::Panic)));
            let ctx = chaos_ctx(Some(&pool), 3, Some(plan.clone()));
            match &output.run(&ctx, n, 2.0).unwrap_err() {
                Error::TaskPanicked { stage, payload } => {
                    assert_eq!(*stage, phase, "panic attributed to its phase");
                    assert!(payload.contains("injected"), "payload: {payload}");
                }
                other => panic!("{output:?} phase={phase}: expected TaskPanicked, got {other:?}"),
            }
            assert_eq!(plan.fired(), 1, "explicit point fires exactly once");

            // The pool survived: a clean evaluation still works.
            let ctx = chaos_ctx(Some(&pool), 3, None);
            assert_eq!(output.run(&ctx, n, 3.0).unwrap(), expected(n, 3.0));
            let stats = ctx.stats();
            let placed = matches!(output, Output::Placed);
            assert_eq!(stats.placement_writes > 0, placed, "{output:?}: {stats:?}");
        }
    }
    assert_eq!(
        pool.stats().respawned_workers,
        0,
        "caught panics must not cost worker threads"
    );
}

#[test]
fn injected_errors_are_typed_and_delays_only_slow_things_down() {
    let pool = PoolHandle::new(1);
    let n = 8u64;
    let plan =
        Arc::new(FaultPlan::new().point(FaultPoint::once(FaultPhase::Task, FaultKind::Error)));
    let ctx = chaos_ctx(Some(&pool), 2, Some(plan));
    let err = run_chunks(&ctx, &chunk_scale(Duration::ZERO, Misbehave::No), n, 2.0).unwrap_err();
    match &err {
        Error::Injected(m) => assert!(m.contains("task"), "{m}"),
        other => panic!("expected Injected, got {other:?}"),
    }

    let plan = Arc::new(FaultPlan::new().point(FaultPoint::once(
        FaultPhase::Task,
        FaultKind::Delay(Duration::from_millis(20)),
    )));
    let ctx = chaos_ctx(Some(&pool), 2, Some(plan.clone()));
    let t0 = Instant::now();
    let out = run_chunks(&ctx, &chunk_scale(Duration::ZERO, Misbehave::No), n, 2.0).unwrap();
    assert_eq!(out, expected(n, 2.0), "a delayed batch still computes");
    assert!(t0.elapsed() >= Duration::from_millis(20));
    assert_eq!(plan.fired(), 1);
}

#[test]
fn retried_evaluation_is_bit_identical_to_fault_free() {
    silence_injected_panics();
    let pool = PoolHandle::new(2);
    let n = 64u64;
    let clean = {
        let ctx = chaos_ctx(Some(&pool), 3, None);
        run_chunks(&ctx, &chunk_scale(Duration::ZERO, Misbehave::No), n, 2.5).unwrap()
    };
    for kind in [FaultKind::Panic, FaultKind::Error] {
        // The once-budget is the retry contract: attempt 1 faults,
        // attempt 2 (fresh context, same plan) runs clean.
        let plan = Arc::new(FaultPlan::new().point(FaultPoint::once(FaultPhase::Task, kind)));
        let ctx = chaos_ctx(Some(&pool), 3, Some(plan.clone()));
        let err = run_chunks(&ctx, &chunk_scale(Duration::ZERO, Misbehave::No), n, 2.5);
        assert!(err.is_err(), "first attempt must fault");
        let retry_ctx = chaos_ctx(Some(&pool), 3, Some(plan));
        let retried = run_chunks(
            &retry_ctx,
            &chunk_scale(Duration::ZERO, Misbehave::No),
            n,
            2.5,
        )
        .unwrap();
        assert_eq!(
            retried.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            clean.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "retried bytes must equal the fault-free run"
        );
    }
}

#[test]
fn deadline_token_cancels_mid_evaluation_at_a_batch_boundary() {
    let pool = PoolHandle::new(1);
    let n = 200u64;
    let ctx = chaos_ctx(Some(&pool), 2, None);
    ctx.set_cancel_token(CancelToken::with_deadline(
        Instant::now() + Duration::from_millis(15),
    ));
    let err = run_chunks(
        &ctx,
        &chunk_scale(Duration::from_millis(2), Misbehave::No),
        n,
        2.0,
    )
    .unwrap_err();
    assert!(
        matches!(err, Error::Cancelled(_)),
        "expected Cancelled, got {err:?}"
    );
    assert!(
        ctx.stats().batches < n,
        "cancellation must abandon remaining batches"
    );

    // An explicitly cancelled token sheds before any batch runs.
    let ctx = chaos_ctx(Some(&pool), 2, None);
    let token = CancelToken::new();
    token.cancel();
    ctx.set_cancel_token(token);
    let err = run_chunks(&ctx, &chunk_scale(Duration::ZERO, Misbehave::No), 8, 2.0).unwrap_err();
    assert!(matches!(err, Error::Cancelled(_)), "{err:?}");
}

#[test]
fn killed_pool_workers_are_respawned_and_keep_serving() {
    silence_injected_panics();
    let pool = PoolHandle::new(2);
    let n = 64u64;
    // Pool threads unwind the WorkerAbort marker on their first batch
    // (the caller's own driver loop keeps going): the job must fail
    // typed, not hang, and the dead threads must be replaced.
    let ctx = chaos_ctx(Some(&pool), 3, None);
    let err = run_chunks(
        &ctx,
        &chunk_scale(Duration::from_millis(1), Misbehave::KillPoolThreads),
        n,
        2.0,
    )
    .unwrap_err();
    match &err {
        Error::TaskPanicked { stage, .. } => {
            assert_eq!(
                *stage,
                FaultPhase::Worker,
                "backstop attributes the driver loop"
            )
        }
        other => panic!("expected TaskPanicked, got {other:?}"),
    }
    let stats = pool.stats();
    assert!(
        stats.respawned_workers >= 1,
        "at least one pool thread died and was respawned: {stats:?}"
    );
    assert!(stats.panicked_batches >= 1, "{stats:?}");
    assert_eq!(stats.workers, 2, "pool size is invariant");

    // Liveness: the respawned threads serve follow-up work — a sleepy
    // multi-batch job on session 77 must see pool-side participation.
    let ctx = chaos_ctx(Some(&pool), 3, None);
    ctx.set_session_tag(77);
    let out = run_chunks(
        &ctx,
        &chunk_scale(Duration::from_millis(1), Misbehave::No),
        n,
        4.0,
    )
    .unwrap();
    assert_eq!(out, expected(n, 4.0));
    let sess = pool
        .stats()
        .sessions
        .iter()
        .find(|s| s.session == 77)
        .cloned()
        .expect("session accounted");
    assert!(
        sess.worker_batches > 0,
        "respawned workers must claim batches: {sess:?}"
    );
}

#[test]
fn injected_kill_worker_fault_fails_typed_and_pool_survives() {
    silence_injected_panics();
    let pool = PoolHandle::new(2);
    let n = 64u64;
    let plan = Arc::new(
        FaultPlan::new().point(FaultPoint::once(FaultPhase::Task, FaultKind::KillWorker).times(n)),
    );
    let ctx = chaos_ctx(Some(&pool), 3, Some(plan.clone()));
    let err = run_chunks(
        &ctx,
        &chunk_scale(Duration::from_millis(1), Misbehave::No),
        n,
        2.0,
    )
    .unwrap_err();
    assert!(
        matches!(err, Error::TaskPanicked { .. }),
        "expected TaskPanicked, got {err:?}"
    );
    assert!(plan.fired() >= 1);
    // Whether the fault hit the caller (degraded to a caught panic) or
    // a pool thread (died, respawned), the pool keeps serving.
    let ctx = chaos_ctx(Some(&pool), 3, None);
    let out = run_chunks(&ctx, &chunk_scale(Duration::ZERO, Misbehave::No), n, 5.0).unwrap();
    assert_eq!(out, expected(n, 5.0));
}

#[test]
fn organic_task_panic_fails_job_not_worker() {
    let pool = PoolHandle::new(2);
    let n = 64u64;
    let before = pool.stats().respawned_workers;
    let ctx = chaos_ctx(Some(&pool), 3, None);
    let err = run_chunks(
        &ctx,
        &chunk_scale(Duration::from_millis(1), Misbehave::PanicOnPoolThreads),
        n,
        2.0,
    )
    .unwrap_err();
    match &err {
        Error::TaskPanicked { stage, payload } => {
            assert_eq!(*stage, FaultPhase::Task);
            assert!(payload.contains("organic task panic"), "{payload}");
        }
        other => panic!("expected TaskPanicked, got {other:?}"),
    }
    let stats = pool.stats();
    assert!(stats.panicked_batches >= 1, "{stats:?}");
    assert_eq!(
        stats.respawned_workers, before,
        "a caught panic must not cost a worker thread"
    );
    // Same pool, clean run.
    let ctx = chaos_ctx(Some(&pool), 3, None);
    let out = run_chunks(&ctx, &chunk_scale(Duration::ZERO, Misbehave::No), n, 3.0).unwrap();
    assert_eq!(out, expected(n, 3.0));
}

#[test]
fn organic_merge_panics_are_typed_in_either_merge_mode() {
    // The flaky splitter panics on its `panic_at`-th merge call. On one
    // worker, every batch is one contiguous run: the first merge call is
    // the worker-local merge, the second the caller's final merge.
    // Wherever it lands, it must surface typed.
    for panic_at in [1, 2] {
        let pool = PoolHandle::new(2);
        let splitter = Arc::new(FlakyMergeSplit {
            panic_at,
            calls: AtomicU64::new(0),
        });
        let annot = chunk_scale_with(splitter, Duration::ZERO, Misbehave::No);
        let ctx = chaos_ctx(Some(&pool), 1, None);
        let err = run_chunks(&ctx, &annot, 32, 2.0).unwrap_err();
        match &err {
            Error::TaskPanicked { stage, payload } => {
                assert_eq!(*stage, FaultPhase::Merge, "panic_at={panic_at}");
                assert!(payload.contains("organic merge panic"), "{payload}");
            }
            other => panic!("panic_at={panic_at}: expected TaskPanicked, got {other:?}"),
        }
        // The panic is spent: the retry merges cleanly and
        // bit-identically.
        let ctx = chaos_ctx(Some(&pool), 3, None);
        let out = run_chunks(&ctx, &annot, 32, 2.0).unwrap();
        assert_eq!(out, expected(32, 2.0));
    }
}

#[test]
fn scoped_no_pool_path_reports_typed_panics() {
    silence_injected_panics();
    // Regression: the scoped (pool-less) execution path used to unwrap
    // scoped-thread join results, re-raising worker panics into the
    // caller instead of reporting them as typed errors.
    let plan =
        Arc::new(FaultPlan::new().point(FaultPoint::once(FaultPhase::Task, FaultKind::Panic)));
    let ctx = chaos_ctx(None, 3, Some(plan));
    let err = run_chunks(&ctx, &chunk_scale(Duration::ZERO, Misbehave::No), 32, 2.0).unwrap_err();
    assert!(
        matches!(err, Error::TaskPanicked { .. }),
        "expected TaskPanicked, got {err:?}"
    );
    // And the context stays usable afterwards.
    let ctx = chaos_ctx(None, 3, None);
    let out = run_chunks(&ctx, &chunk_scale(Duration::ZERO, Misbehave::No), 32, 2.0).unwrap();
    assert_eq!(out, expected(32, 2.0));
}

#[test]
fn quiet_fault_plan_perturbs_nothing() {
    let pool = PoolHandle::new(1);
    let n = 48u64;
    let clean = {
        let ctx = chaos_ctx(Some(&pool), 2, None);
        run_chunks(&ctx, &chunk_scale(Duration::ZERO, Misbehave::No), n, 1.5).unwrap()
    };
    let plan = Arc::new(FaultPlan::seeded(9, 0, None, FaultKind::Panic));
    let ctx = chaos_ctx(Some(&pool), 2, Some(plan.clone()));
    let out = run_chunks(&ctx, &chunk_scale(Duration::ZERO, Misbehave::No), n, 1.5).unwrap();
    assert_eq!(
        out.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        clean.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
    );
    assert_eq!(plan.fired(), 0);
}
