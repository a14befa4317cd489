//! Tests of the shared worker pool: multiple contexts attached to one
//! [`PoolHandle`] must evaluate concurrently without deadlock, produce
//! correct results and run every batch exactly once; guided claim spans
//! must cut cursor claims without losing batches.

use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use mozart_core::annotation::{concrete, missing, Annotation};
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

fn scale_annotation(sleep_per_batch: Duration) -> Arc<Annotation> {
    Annotation::new("shared_scale", move |inv| {
        let c = inv.arg::<Chunk>(0)?;
        let k = inv.float(1)?;
        if !sleep_per_batch.is_zero() {
            std::thread::sleep(sleep_per_batch);
        }
        Ok(Some(DataValue::new(Chunk(Arc::new(
            c.0.iter().map(|x| x * k).collect(),
        )))))
    })
    .arg("xs", concrete(Arc::new(ChunkSplit), vec![0]))
    .arg("k", missing())
    .ret(concrete(Arc::new(ChunkSplit), vec![0]))
    .build()
}

fn ctx_on(pool: &PoolHandle, workers: usize, batch: u64) -> MozartContext {
    let mut cfg = Config::with_workers(workers);
    cfg.batch_override = Some(batch);
    let ctx = MozartContext::new(cfg);
    ctx.attach_pool(pool.clone());
    ctx
}

#[test]
fn two_contexts_share_one_pool_concurrently() {
    let pool = PoolHandle::new(2);
    let annot = scale_annotation(Duration::from_micros(100));
    let n = 48u64;

    let run = |session: u64, k: f64| {
        let pool = pool.clone();
        let annot = annot.clone();
        move || {
            let ctx = ctx_on(&pool, 3, 1);
            // Several evaluations per session so the two sessions'
            // jobs interleave on the shared queue.
            for round in 0..4 {
                let data = Chunk(Arc::new((0..n).map(|i| (i + round) as f64).collect()));
                let fut = ctx
                    .call(&annot, &[Arg::Value(&DataValue::new(data)), Arg::Float(k)])
                    .unwrap()
                    .unwrap();
                let out = fut.get().unwrap();
                let got = out.downcast_ref::<Chunk>().unwrap();
                let expect: Vec<f64> = (0..n).map(|i| (i + round) as f64 * k).collect();
                assert_eq!(*got.0, expect, "session {session} round {round}");
            }
        }
    };

    std::thread::scope(|s| {
        let a = s.spawn(run(101, 2.0));
        let b = s.spawn(run(202, -3.0));
        a.join().unwrap();
        b.join().unwrap();
    });

    let stats = pool.stats();
    assert_eq!(stats.workers, 2);
    assert_eq!(stats.jobs, 8, "4 evaluations per session, all multi-batch");
    assert_eq!(
        stats.total_batches(),
        8 * n,
        "every batch processed exactly once"
    );
}

#[test]
fn shared_pool_survives_a_failing_session() {
    // One session fails mid-stage; the pool must keep serving the other.
    let pool = PoolHandle::new(1);
    let fail = Annotation::new("always_fails", |_inv| {
        Err(Error::Library("synthetic".into()))
    })
    .arg("xs", concrete(Arc::new(ChunkSplit), vec![0]))
    .ret(concrete(Arc::new(ChunkSplit), vec![0]))
    .build();

    let bad = ctx_on(&pool, 2, 1);
    let data = Chunk(Arc::new(vec![1.0; 16]));
    let fut = bad
        .call(&fail, &[Arg::Value(&DataValue::new(data))])
        .unwrap()
        .unwrap();
    assert!(matches!(fut.get(), Err(Error::Library(_))));

    let good = ctx_on(&pool, 2, 1);
    let annot = scale_annotation(Duration::ZERO);
    let data = Chunk(Arc::new(vec![2.0; 16]));
    let fut = good
        .call(
            &annot,
            &[Arg::Value(&DataValue::new(data)), Arg::Float(5.0)],
        )
        .unwrap()
        .unwrap();
    let out = fut.get().unwrap();
    assert_eq!(*out.downcast_ref::<Chunk>().unwrap().0, vec![10.0; 16]);
}

#[test]
fn guided_claim_spans_cut_cursor_claims() {
    // 256 one-element batches on 2 participants: the first claim takes
    // remaining/(2*2) = 64 batches, so total claims stay far below the
    // batch count while every batch is still processed exactly once.
    let pool = PoolHandle::new(1);
    let ctx = ctx_on(&pool, 2, 1);
    let n = 256u64;
    let annot = scale_annotation(Duration::ZERO);
    let data = Chunk(Arc::new((0..n).map(|i| i as f64).collect()));
    let fut = ctx
        .call(
            &annot,
            &[Arg::Value(&DataValue::new(data)), Arg::Float(1.5)],
        )
        .unwrap()
        .unwrap();
    let out = fut.get().unwrap();
    let expect: Vec<f64> = (0..n).map(|i| i as f64 * 1.5).collect();
    assert_eq!(*out.downcast_ref::<Chunk>().unwrap().0, expect);

    let stats = pool.stats();
    assert_eq!(stats.total_batches(), n, "no batch lost or double-claimed");
    let claims = stats.total_claims();
    assert!(claims >= 1);
    assert!(
        claims <= n / 4,
        "guided spans should need far fewer than {n} claims, got {claims}"
    );
}

#[test]
fn evaluation_meters_split_bytes_in_phase_stats() {
    let pool = PoolHandle::new(1);
    let ctx = ctx_on(&pool, 2, 4);
    let n = 64u64;
    let annot = scale_annotation(Duration::ZERO);
    let data = Chunk(Arc::new((0..n).map(|i| i as f64).collect()));
    let fut = ctx
        .call(
            &annot,
            &[Arg::Value(&DataValue::new(data)), Arg::Float(3.0)],
        )
        .unwrap()
        .unwrap();
    fut.get().unwrap();
    let stats = ctx.stats();
    assert_eq!(
        stats.bytes_split,
        n * 8,
        "one ChunkSplit input at 8 bytes/element"
    );
    assert_eq!(
        stats.bytes_merged,
        n * 8,
        "the merged Chunk output is metered through the info API"
    );
    // The metered stage was a pool job, and the pool ran each of its
    // 4-element batches once.
    let pool = pool.stats();
    assert_eq!((pool.jobs, pool.total_batches()), (1, n / 4), "{pool:?}");
}

#[test]
fn invalid_config_poisons_context_loudly() {
    // An unusable batch-heuristic input surfaces as a typed error on
    // the first call instead of mis-sizing every stage.
    let mut cfg = Config::with_workers(2);
    cfg.l2_bytes = 0;
    let ctx = MozartContext::new(cfg);
    let annot = scale_annotation(Duration::ZERO);
    let data = Chunk(Arc::new(vec![1.0; 8]));
    let err = ctx
        .call(
            &annot,
            &[Arg::Value(&DataValue::new(data)), Arg::Float(1.0)],
        )
        .unwrap_err();
    assert!(
        matches!(err, Error::InvalidConfig(_)),
        "expected InvalidConfig, got {err:?}"
    );
    // set_config with a bad config poisons an existing context too...
    let ctx = MozartContext::with_workers(1);
    let mut bad = Config::with_workers(1);
    bad.l2_bytes = 0;
    ctx.set_config(bad);
    assert!(matches!(ctx.evaluate(), Err(Error::InvalidConfig(_))));
    // ...and attaching a valid config clears the poison (nothing was
    // ever scheduled under the rejected config).
    ctx.set_config(Config::with_workers(1));
    assert!(ctx.evaluate().is_ok());
}
