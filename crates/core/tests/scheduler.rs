//! Tests of the persistent-pool executor's dynamic batch scheduler:
//! skewed workloads must not serialize on one worker, and the NULL-split
//! early exit must survive batches being claimed out of claim order.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mozart_core::annotation::{concrete, Annotation};
use mozart_core::prelude::*;

/// An owned chunk of floats (functional pieces, like a NumPy result).
#[derive(Debug, Clone)]
struct Chunk(Arc<Vec<f64>>);

impl mozart_core::value::DataObject for Chunk {
    fn type_name(&self) -> &'static str {
        "Chunk"
    }
}

/// Copying range splitter over [`Chunk`]s; merge concatenates in order.
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

/// Like [`ChunkSplit`], but `info` over-reports the element count:
/// `split` returns the paper's NULL once the real data is exhausted, the
/// way a generator-backed source dries up mid-stage.
struct TruncatedSplit;

impl Splitter for TruncatedSplit {
    fn name(&self) -> &'static str {
        "TruncatedSplit"
    }
    fn construct(&self, ctor_args: &[&DataValue]) -> Result<Params> {
        let c = ctor_args[0]
            .downcast_ref::<Chunk>()
            .ok_or(Error::Library("TruncatedSplit ctor".into()))?;
        // Parameters: [claimed total, real total].
        Ok(vec![c.0.len() as i64 * 2, c.0.len() as i64])
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
            .ok_or(Error::Library("TruncatedSplit split".into()))?;
        let real = params[1] as u64;
        if range.start >= real {
            return Ok(None); // the early-exit NULL
        }
        let end = range.end.min(real) as usize;
        Ok(Some(DataValue::new(Chunk(Arc::new(
            c.0[range.start as usize..end].to_vec(),
        )))))
    }
    fn merge(
        &self,
        pieces: Vec<DataValue>,
        params: &Params,
        total_elements: u64,
    ) -> Result<DataValue> {
        ChunkSplit.merge(pieces, params, total_elements)
    }
}

fn batched_ctx(workers: usize, batch: u64) -> MozartContext {
    let mut cfg = Config::with_workers(workers);
    cfg.batch_override = Some(batch);
    MozartContext::new(cfg)
}

/// Scale a chunk, sleeping long enough that every pool worker gets a
/// chance to claim batches before the stage drains.
fn slow_scale_annotation(sleep_per_batch: Duration) -> Arc<Annotation> {
    Annotation::new("slow_scale", move |inv| {
        let c = inv.arg::<Chunk>(0)?;
        let k = inv.float(1)?;
        std::thread::sleep(sleep_per_batch);
        Ok(Some(DataValue::new(Chunk(Arc::new(
            c.0.iter().map(|x| x * k).collect(),
        )))))
    })
    .arg("xs", concrete(Arc::new(ChunkSplit), vec![0]))
    .arg("k", mozart_core::annotation::missing())
    .ret(concrete(Arc::new(ChunkSplit), vec![0]))
    .build()
}

#[test]
fn skewed_batches_keep_every_worker_busy() {
    let workers = 4;
    let n = 64u64;
    let ctx = batched_ctx(workers, 1); // 64 one-element batches
    let data = Chunk(Arc::new((0..n).map(|i| i as f64).collect()));

    // Deterministic rendezvous: the first batch each participant claims
    // blocks until all four participants have claimed one. Claims pause
    // while a participant is blocked, so the cursor is forced to spread
    // the early batches across every worker regardless of scheduling
    // luck — no sleep-length guessing on loaded CI runners.
    thread_local! {
        static JOINED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }
    let arrivals = Arc::new(AtomicU64::new(0));
    let arrivals2 = arrivals.clone();
    let annot = Annotation::new("rendezvous_scale", move |inv| {
        let c = inv.arg::<Chunk>(0)?;
        let k = inv.float(1)?;
        let first = JOINED.with(|j| !j.replace(true));
        if first {
            arrivals2.fetch_add(1, Ordering::SeqCst);
            let deadline = std::time::Instant::now() + Duration::from_secs(30);
            while arrivals2.load(Ordering::SeqCst) < 4 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "pool workers never all joined the stage"
                );
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        Ok(Some(DataValue::new(Chunk(Arc::new(
            c.0.iter().map(|x| x * k).collect(),
        )))))
    })
    .arg("xs", concrete(Arc::new(ChunkSplit), vec![0]))
    .arg("k", mozart_core::annotation::missing())
    .ret(concrete(Arc::new(ChunkSplit), vec![0]))
    .build();

    let fut = ctx
        .call(
            &annot,
            &[Arg::Value(&DataValue::new(data)), Arg::Float(2.0)],
        )
        .unwrap()
        .unwrap();
    let out = fut.get().unwrap();

    // Dynamic claiming must not reorder the merged result.
    let chunk = out.downcast_ref::<Chunk>().unwrap();
    let expect: Vec<f64> = (0..n).map(|i| i as f64 * 2.0).collect();
    assert_eq!(*chunk.0, expect);

    let pool = ctx.pool_stats();
    assert_eq!(pool.workers, workers - 1, "caller participates as worker 0");
    assert_eq!(pool.jobs, 1);
    assert_eq!(
        pool.per_worker_batches.iter().sum::<u64>(),
        n,
        "every batch claimed exactly once"
    );
    assert!(
        pool.all_workers_productive(),
        "static partitioning would idle workers on skewed batches; \
         dynamic claiming must not: {:?}",
        pool.per_worker_batches
    );
    assert!(
        pool.batches_stolen > 0,
        "with a shared cursor, some claims must cross static ranges"
    );

    // With the stage drained, every pool worker must eventually park
    // again: once as the pool started, and once after the stage it
    // worked on.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if ctx.pool_stats().parks >= 2 * (workers as u64 - 1) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "workers never parked after the stage: {:?}",
            ctx.pool_stats()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn pool_survives_many_tiny_stages() {
    // Stages of different lengths cannot pipeline with each other, so
    // this produces one stage per call — the spawn-per-stage worst case
    // the persistent pool exists for.
    let ctx = batched_ctx(3, 4);
    let annot = slow_scale_annotation(Duration::ZERO);
    let mut futs = Vec::new();
    for len in 1..=24usize {
        let data = Chunk(Arc::new(vec![1.0; len]));
        let fut = ctx
            .call(
                &annot,
                &[Arg::Value(&DataValue::new(data)), Arg::Float(3.0)],
            )
            .unwrap()
            .unwrap();
        futs.push((len, fut));
    }
    ctx.evaluate().unwrap();
    for (len, fut) in futs {
        let out = fut.get().unwrap();
        assert_eq!(*out.downcast_ref::<Chunk>().unwrap().0, vec![3.0; len]);
    }
    assert_eq!(ctx.stats().stages, 24);
    let pool = ctx.pool_stats();
    assert_eq!(pool.workers, 2, "pool threads persist across all stages");
    // Stages of 1..=4 elements are a single batch and run inline on the
    // caller; the rest (lengths 5..=24) dispatch to the pool. (A pool
    // worker only *joins* a job it wakes up for in time — the caller may
    // drain a short stage alone — so `unparks` has no fixed floor.)
    assert_eq!(pool.jobs, 20);
}

#[test]
fn null_split_early_exit_with_out_of_order_batches() {
    // TruncatedSplit claims 2n elements but serves n: workers claiming
    // batches past n (in whatever order the cursor hands them out) see
    // NULL and stop; batches below n must all still be processed and
    // merged in element order, with no split-agreement violation.
    let workers = 4;
    let real = 40u64;
    let ctx = batched_ctx(workers, 1);
    let data = Chunk(Arc::new((0..real).map(|i| i as f64).collect()));
    let annot = Annotation::new("trunc_scale", |inv| {
        let c = inv.arg::<Chunk>(0)?;
        std::thread::sleep(Duration::from_micros(200));
        Ok(Some(DataValue::new(Chunk(Arc::new(
            c.0.iter().map(|x| x + 1.0).collect(),
        )))))
    })
    .arg("xs", concrete(Arc::new(TruncatedSplit), vec![0]))
    .ret(concrete(Arc::new(ChunkSplit), vec![0]))
    .build();

    let fut = ctx
        .call(&annot, &[Arg::Value(&DataValue::new(data))])
        .unwrap()
        .unwrap();
    let out = fut.get().unwrap();
    let chunk = out.downcast_ref::<Chunk>().unwrap();
    let expect: Vec<f64> = (0..real).map(|i| i as f64 + 1.0).collect();
    assert_eq!(*chunk.0, expect, "all real batches processed, in order");
    assert_eq!(ctx.stats().batches, real, "no batch double-claimed or lost");
}

#[test]
fn pedantic_mode_still_flags_disagreeing_splits() {
    // One input produces a piece, the other returns NULL for the same
    // batch: the always-on split-agreement check must fail the stage
    // whichever worker claims the offending batch, even out of order.
    let real = 16u64;
    let ctx = batched_ctx(3, 1);
    let full = Chunk(Arc::new((0..real * 2).map(|i| i as f64).collect()));
    let truncated = Chunk(Arc::new((0..real).map(|i| i as f64).collect()));
    let annot = Annotation::new("mismatch", |inv| {
        let a = inv.arg::<Chunk>(0)?;
        let _b = inv.arg::<Chunk>(1)?;
        Ok(Some(DataValue::new(Chunk(a.0.clone()))))
    })
    .arg("full", concrete(Arc::new(ChunkSplit), vec![0]))
    .arg("truncated", concrete(Arc::new(TruncatedSplit), vec![1]))
    .ret(concrete(Arc::new(ChunkSplit), vec![0]))
    .build();

    let fut = ctx
        .call(
            &annot,
            &[
                Arg::Value(&DataValue::new(full)),
                Arg::Value(&DataValue::new(truncated)),
            ],
        )
        .unwrap()
        .unwrap();
    let err = fut.get().unwrap_err();
    assert!(
        matches!(err, Error::Pedantic(ref m) if m.contains("TruncatedSplit")),
        "expected a NULL-disagreement error, got {err:?}"
    );
}

#[test]
fn worker_errors_stop_the_stage_quickly() {
    // A failing library call must poison the stage without hanging the
    // pool, and later evaluations must keep reporting the error.
    let ctx = batched_ctx(4, 1);
    let n = 128u64;
    let calls = Arc::new(AtomicU64::new(0));
    let calls2 = calls.clone();
    let data = Chunk(Arc::new(vec![1.0; n as usize]));
    let annot = Annotation::new("fails_midway", move |inv| {
        let c = inv.arg::<Chunk>(0)?;
        if calls2.fetch_add(1, Ordering::Relaxed) == 20 {
            return Err(Error::Library("synthetic failure".into()));
        }
        Ok(Some(DataValue::new(Chunk(c.0.clone()))))
    })
    .arg("xs", concrete(Arc::new(ChunkSplit), vec![0]))
    .ret(concrete(Arc::new(ChunkSplit), vec![0]))
    .build();

    let fut = ctx
        .call(&annot, &[Arg::Value(&DataValue::new(data))])
        .unwrap()
        .unwrap();
    let err = fut.get().unwrap_err();
    assert!(matches!(err, Error::Library(_)), "got {err:?}");
    // The failed flag lets other workers bail before claiming all 128
    // batches (timing-dependent, so only sanity-check the ceiling).
    assert!(calls.load(Ordering::Relaxed) <= n + 4);
    // The context stays poisoned.
    let err2 = ctx.evaluate().unwrap_err();
    assert!(matches!(err2, Error::Library(_)));
}
