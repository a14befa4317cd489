//! Tests of the placement-merge fast path: out-of-claim-order batches
//! must land at the right element offsets, `NULL`-split tails must
//! under-fill without corrupting neighbors, and placement outputs must
//! coexist with mut-alias outputs in one stage.

use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use mozart_core::annotation::{concrete, Annotation};
use mozart_core::buffer::SharedVec;
use mozart_core::prelude::*;
use mozart_core::ArraySplit;

/// A placement-capable splitter over [`VecValue`] that *over-reports*
/// its element count by `claim_factor`: past the real length, `split`
/// returns the paper's `NULL`, so placement outputs under-fill and must
/// truncate to the written prefix. Params: `[claimed, real]`.
struct PlacedSplit {
    claim_factor: i64,
}

impl Splitter for PlacedSplit {
    fn name(&self) -> &'static str {
        "PlacedSplit"
    }
    fn construct(&self, ctor_args: &[&DataValue]) -> Result<Params> {
        let v = ctor_args[0]
            .downcast_ref::<VecValue>()
            .ok_or(Error::Library("PlacedSplit ctor".into()))?;
        let real = v.0.len() as i64;
        Ok(vec![real * self.claim_factor, real])
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
        let v = arg
            .downcast_ref::<VecValue>()
            .ok_or(Error::Library("PlacedSplit split".into()))?;
        let real = params[1] as u64;
        if range.start >= real {
            return Ok(None);
        }
        let end = range.end.min(real) as usize;
        let piece = v.0.as_slice()[range.start as usize..end].to_vec();
        Ok(Some(DataValue::new(VecValue(SharedVec::from_vec(piece)))))
    }
    fn merge(
        &self,
        pieces: Vec<DataValue>,
        _params: &Params,
        _total_elements: u64,
    ) -> Result<DataValue> {
        let mut out = Vec::new();
        for p in pieces {
            let v = p
                .downcast_ref::<VecValue>()
                .ok_or(Error::Library("PlacedSplit merge".into()))?;
            out.extend_from_slice(v.0.as_slice());
        }
        Ok(DataValue::new(VecValue(SharedVec::from_vec(out))))
    }
    fn merge_strategy(&self) -> MergeStrategy {
        MergeStrategy::Concat {
            placement: Some(Arc::new(PlacedPlacement)),
        }
    }
}

/// Placement capability of [`PlacedSplit`]: params fully determine the
/// layout, so allocation happens at stage start (no exemplar needed).
struct PlacedPlacement;

impl Placement for PlacedPlacement {
    fn alloc_merged(
        &self,
        total_elements: u64,
        _params: &Params,
        _exemplar: Option<&DataValue>,
    ) -> Result<Option<DataValue>> {
        Ok(Some(DataValue::new(VecValue(SharedVec::zeros_prefaulted(
            total_elements as usize,
        )))))
    }
    fn write_piece(&self, out: &DataValue, offset: u64, piece: &DataValue) -> Result<u64> {
        Placement::write_piece(&ArraySplit, out, offset, piece)
    }
    fn truncate_merged(&self, out: DataValue, elements: u64, params: &Params) -> Result<DataValue> {
        Placement::truncate_merged(&ArraySplit, out, elements, params)
    }
}

fn ctx(workers: usize, batch: u64, placement: bool) -> MozartContext {
    let mut cfg = Config::with_workers(workers);
    cfg.batch_override = Some(batch);
    cfg.pedantic = true;
    cfg.placement_merge = placement;
    MozartContext::new(cfg)
}

fn vec_value(n: usize) -> DataValue {
    DataValue::new(VecValue(SharedVec::from_vec(
        (0..n).map(|i| i as f64).collect(),
    )))
}

/// Scale an array through a fresh-allocation return (placement merge),
/// sleeping so pool workers claim batches out of order.
fn scaled_fresh_annotation(splitter: Arc<dyn Splitter>, sleep: Duration) -> Arc<Annotation> {
    Annotation::new("scaled_fresh", move |inv| {
        let v = inv.arg::<VecValue>(0)?;
        std::thread::sleep(sleep);
        let out: Vec<f64> = v.0.as_slice().iter().map(|x| x * 2.0).collect();
        Ok(Some(DataValue::new(VecValue(SharedVec::from_vec(out)))))
    })
    .arg("xs", concrete(splitter.clone(), vec![0]))
    .ret(concrete(splitter, vec![0]))
    .build()
}

#[test]
fn out_of_order_placement_writes_land_at_their_offsets() {
    // 48 one-element batches across 4 workers, each sleeping long
    // enough that completion order differs from element order; the
    // placement output must still be in element order.
    let n = 48u64;
    let c = ctx(4, 1, true);
    let splitter: Arc<dyn Splitter> = Arc::new(PlacedSplit { claim_factor: 1 });
    let annot = scaled_fresh_annotation(splitter, Duration::from_micros(300));
    let fut = c
        .call(&annot, vec![vec_value(n as usize)])
        .unwrap()
        .unwrap();
    let out = fut.get().unwrap();
    let v = out.downcast_ref::<VecValue>().unwrap();
    let expect: Vec<f64> = (0..n).map(|i| i as f64 * 2.0).collect();
    assert_eq!(v.0.as_slice(), &expect[..]);
    let stats = c.stats();
    assert_eq!(
        stats.placement_writes, n,
        "every batch wrote its piece in place"
    );
}

#[test]
fn null_split_tail_underfills_without_corrupting_neighbors() {
    // The splitter claims 2n elements but serves n: workers claiming
    // past n see NULL and stop. The placement output must truncate to
    // exactly the written prefix, with every real element intact.
    let n = 40u64;
    let c = ctx(4, 1, true);
    let splitter: Arc<dyn Splitter> = Arc::new(PlacedSplit { claim_factor: 2 });
    let annot = scaled_fresh_annotation(splitter, Duration::from_micros(200));
    let fut = c
        .call(&annot, vec![vec_value(n as usize)])
        .unwrap()
        .unwrap();
    let out = fut.get().unwrap();
    let v = out.downcast_ref::<VecValue>().unwrap();
    let expect: Vec<f64> = (0..n).map(|i| i as f64 * 2.0).collect();
    assert_eq!(v.0.len(), n as usize, "truncated to the written prefix");
    assert_eq!(v.0.as_slice(), &expect[..]);
}

#[test]
fn clipped_final_piece_truncates_to_actual_elements() {
    // The real total (37) is not a multiple of the batch size (8), so
    // the last produced piece covers only 5 of its batch's 8 claimed
    // elements before the NULL tail. Coverage must count the piece's
    // actual length â a batch-range count would truncate to 40 and
    // leak 3 never-written elements.
    let n = 37u64;
    let c = ctx(2, 8, true);
    let splitter: Arc<dyn Splitter> = Arc::new(PlacedSplit { claim_factor: 2 });
    let annot = scaled_fresh_annotation(splitter, Duration::ZERO);
    let fut = c
        .call(&annot, vec![vec_value(n as usize)])
        .unwrap()
        .unwrap();
    let out = fut.get().unwrap();
    let v = out.downcast_ref::<VecValue>().unwrap();
    let expect: Vec<f64> = (0..n).map(|i| i as f64 * 2.0).collect();
    assert_eq!(v.0.len(), n as usize, "clipped piece shrinks the output");
    assert_eq!(v.0.as_slice(), &expect[..]);
}

#[test]
fn deferred_null_split_tail_underfills_like_the_eager_merge() {
    // Two handles on the same under-filled (NULL-tailed, clipped)
    // output shape; only the second is read first, so the other stays
    // pieces covering [0, 37) of a claimed 74 and is merged on demand —
    // by placement writes or the classic concat — to exactly what an
    // `evaluate()`-first run reads.
    let n = 37u64;
    let expect: Vec<f64> = (0..n).map(|i| i as f64 * 2.0).collect();
    for placement in [true, false] {
        for eager in [true, false] {
            let c = ctx(2, 8, placement);
            let splitter: Arc<dyn Splitter> = Arc::new(PlacedSplit { claim_factor: 2 });
            let annot = scaled_fresh_annotation(splitter, Duration::ZERO);
            let first = c
                .call(&annot, vec![vec_value(n as usize)])
                .unwrap()
                .unwrap();
            let second = c
                .call(&annot, vec![vec_value(n as usize)])
                .unwrap()
                .unwrap();
            if eager {
                c.evaluate().unwrap();
            }
            for fut in [&second, &first] {
                let out = fut.get().unwrap();
                let v = out.downcast_ref::<VecValue>().unwrap();
                assert_eq!(
                    v.0.as_slice(),
                    &expect[..],
                    "placement {placement} eager {eager}"
                );
            }
            let stats = c.stats();
            let deferred = if eager { (0, 0) } else { (1, 1) };
            assert_eq!(
                (stats.deferred_outputs, stats.deferred_materialized),
                deferred,
                "{stats:?}"
            );
            assert_eq!(stats.placement_writes > 0, placement, "{stats:?}");
        }
    }
}

#[test]
fn placement_and_mut_alias_outputs_coexist_in_one_stage() {
    // One call both mutates an argument in place (the MKL convention:
    // an ArraySplit mut arg whose SliceView writes land in the parent)
    // and returns fresh pieces (merged by placement). Both outputs must
    // come out right from a single stage.
    let n = 32usize;
    let c = ctx(3, 4, true);
    let annot = Annotation::new("scale_and_square", |inv| {
        let xs = inv.arg::<VecValue>(0)?;
        let out = inv.arg::<mozart_core::SliceView>(1)?;
        let src = xs.0.as_slice();
        // SAFETY: the executor hands each worker disjoint ranges.
        let dst = unsafe { out.as_slice_mut() };
        for (d, s) in dst.iter_mut().zip(src) {
            *d = s * s;
        }
        let fresh: Vec<f64> = src.iter().map(|x| x * 3.0).collect();
        Ok(Some(DataValue::new(VecValue(SharedVec::from_vec(fresh)))))
    })
    .arg(
        "xs",
        concrete(Arc::new(PlacedSplit { claim_factor: 1 }), vec![0]),
    )
    // Split parameters come from `xs` (same length), not the mut arg.
    .mut_arg("out", concrete(Arc::new(ArraySplit), vec![0]))
    .ret(concrete(Arc::new(PlacedSplit { claim_factor: 1 }), vec![0]))
    .build();

    let squares = SharedVec::<f64>::zeros(n);
    let fut = c
        .call(
            &annot,
            vec![vec_value(n), DataValue::new(VecValue(squares.clone()))],
        )
        .unwrap()
        .unwrap();
    let ret = fut.get().unwrap();
    let tripled = ret.downcast_ref::<VecValue>().unwrap();
    for i in 0..n {
        assert_eq!(tripled.0.as_slice()[i], i as f64 * 3.0, "ret piece {i}");
        assert_eq!(squares.as_slice()[i], (i * i) as f64, "mut-alias {i}");
    }
    assert!(c.stats().placement_writes > 0);
}
