//! Tests of the placement-merge fast path: out-of-claim-order batches
//! must land at the right element offsets, `NULL`-split tails must
//! under-fill without corrupting neighbors, and placement outputs must
//! coexist with mut-alias outputs in one stage. The last test profiles
//! every output path of the executor — placement, collect, a fold of
//! partial results, a live output nobody read — by its spans and
//! counters.

use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use mozart_core::annotation::{concrete, generic, missing, unknown, Annotation};
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
            placement: Some(&PlacedPlacement),
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
        Ok(Some(DataValue::new(VecValue(SharedVec::zeros(
            total_elements as usize,
        )))))
    }
    /// A spare is taken only if it is an exclusively owned buffer of
    /// the stage's length (only ever offered under a plan cache).
    fn reuse(
        &self,
        spare: DataValue,
        total_elements: u64,
        _params: &Params,
        _exemplar: Option<&DataValue>,
    ) -> Option<DataValue> {
        let mut buf = spare.downcast_ref::<VecValue>()?.0.clone();
        drop(spare);
        (buf.len() as u64 == total_elements && buf.is_exclusive())
            .then(|| DataValue::new(VecValue(buf)))
    }
    fn write_piece(&self, out: &DataValue, offset: u64, piece: &DataValue) -> Result<u64> {
        array_placement().write_piece(out, offset, piece)
    }
    fn truncate_merged(&self, out: DataValue, elements: u64, params: &Params) -> Result<DataValue> {
        array_placement().truncate_merged(out, elements, params)
    }
}

/// `ArraySplit`'s placement capability.
fn array_placement() -> &'static dyn Placement {
    ArraySplit.merge_strategy().placement().unwrap()
}

/// [`PlacedSplit`] without its placement capability: its outputs are
/// collected and concatenated.
struct CollectedSplit(PlacedSplit);

impl Splitter for CollectedSplit {
    fn name(&self) -> &'static str {
        "CollectedSplit"
    }
    fn construct(&self, ctor_args: &[&DataValue]) -> Result<Params> {
        self.0.construct(ctor_args)
    }
    fn info(&self, arg: &DataValue, params: &Params) -> Result<RuntimeInfo> {
        self.0.info(arg, params)
    }
    fn split(&self, arg: &DataValue, r: Range<u64>, params: &Params) -> Result<Option<DataValue>> {
        self.0.split(arg, r, params)
    }
    fn merge(&self, pieces: Vec<DataValue>, params: &Params, total: u64) -> Result<DataValue> {
        self.0.merge(pieces, params, total)
    }
    fn merge_strategy(&self) -> MergeStrategy {
        MergeStrategy::Concat { placement: None }
    }
}

fn ctx(workers: usize, batch: u64) -> MozartContext {
    let mut cfg = Config::with_workers(workers);
    cfg.batch_override = Some(batch);
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
    let c = ctx(4, 1);
    let splitter: Arc<dyn Splitter> = Arc::new(PlacedSplit { claim_factor: 1 });
    let annot = scaled_fresh_annotation(splitter, Duration::from_micros(300));
    let fut = c
        .call(&annot, &[Arg::Value(&vec_value(n as usize))])
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
    let c = ctx(4, 1);
    let splitter: Arc<dyn Splitter> = Arc::new(PlacedSplit { claim_factor: 2 });
    let annot = scaled_fresh_annotation(splitter, Duration::from_micros(200));
    let fut = c
        .call(&annot, &[Arg::Value(&vec_value(n as usize))])
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
    let c = ctx(2, 8);
    let splitter: Arc<dyn Splitter> = Arc::new(PlacedSplit { claim_factor: 2 });
    let annot = scaled_fresh_annotation(splitter, Duration::ZERO);
    let fut = c
        .call(&annot, &[Arg::Value(&vec_value(n as usize))])
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
    // output shape; only the second is read first, so the other, alive
    // but not asked for, is merged in the same stage from pieces
    // covering [0, 37) of a claimed 74 — by placement writes or the
    // classic concat — to exactly what an `evaluate()`-first run reads.
    let n = 37u64;
    let expect: Vec<f64> = (0..n).map(|i| i as f64 * 2.0).collect();
    for placement in [true, false] {
        for eager in [true, false] {
            let c = ctx(2, 8);
            let placed = PlacedSplit { claim_factor: 2 };
            let splitter: Arc<dyn Splitter> = if placement {
                Arc::new(placed)
            } else {
                Arc::new(CollectedSplit(placed))
            };
            let annot = scaled_fresh_annotation(splitter, Duration::ZERO);
            let first = c
                .call(&annot, &[Arg::Value(&vec_value(n as usize))])
                .unwrap()
                .unwrap();
            let second = c
                .call(&annot, &[Arg::Value(&vec_value(n as usize))])
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
            assert_eq!(
                (stats.lineage_outputs, stats.lineage_replays),
                (0, 0),
                "{stats:?}"
            );
            assert_eq!(stats.placement_writes > 0, placement, "{stats:?}");
        }
    }
}

#[test]
fn placement_and_mut_alias_outputs_coexist_in_one_stage() {
    // One call both mutates an argument in place (the MKL convention:
    // an ArraySplit mut arg whose piece views write into the parent)
    // and returns fresh pieces (merged by placement). Both outputs must
    // come out right from a single stage.
    let n = 32usize;
    let c = ctx(3, 4);
    let annot = Annotation::new("scale_and_square", |inv| {
        let xs = inv.arg::<VecValue>(0)?;
        let out = &inv.arg::<VecValue>(1)?.0;
        let src = xs.0.as_slice();
        // SAFETY: the executor hands each worker disjoint ranges.
        let dst = unsafe { out.slice_mut_unchecked(0, out.len()) };
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
        .call(&annot, &[Arg::Value(&vec_value(n)), Arg::Vec(&squares)])
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

// ---------------------------------------------------------------------
// Merge-target reuse (ISSUE 14): under an attached plan cache, a
// released placement target is parked and the plan's next evaluation
// writes over it — but only if nobody else holds its storage then.
// ---------------------------------------------------------------------

/// The two placement call sites: `PlacedSplit` resolves its target at
/// stage start, `ArraySplit` on the first piece.
fn reuse_annotations(claim_factor: i64) -> [(&'static str, Arc<Annotation>); 2] {
    let at_start: Arc<dyn Splitter> = Arc::new(PlacedSplit { claim_factor });
    // `ArraySplit` pieces are views; the fresh arrays the call returns
    // are what its placement capability allocates a target for.
    let split: Arc<dyn Splitter> = Arc::new(ArraySplit);
    let by_exemplar = Annotation::new("scaled_fresh_array", |inv| {
        let v = &inv.arg::<VecValue>(0)?.0;
        // SAFETY: the input piece is only read, by this batch alone.
        let out: Vec<f64> = unsafe { v.slice_unchecked(0, v.len()) }
            .iter()
            .map(|x| x * 2.0)
            .collect();
        Ok(Some(DataValue::new(VecValue(SharedVec::from_vec(out)))))
    })
    .arg("xs", concrete(split.clone(), vec![0]))
    .ret(concrete(split, vec![0]))
    .build();
    [
        (
            "stage start",
            scaled_fresh_annotation(at_start, Duration::ZERO),
        ),
        ("first piece", by_exemplar),
    ]
}

/// What an application keeps warm between evaluations: every evaluation
/// is a fresh context on the shared plan cache, as in `mozart-serve`.
struct Warm {
    cache: Arc<PlanCache>,
    config: Config,
}

impl Warm {
    fn new(workers: usize, batch: u64) -> Warm {
        ArraySplit::register_default();
        let mut config = Config::with_workers(workers);
        config.batch_override = Some(batch);
        Warm {
            cache: Arc::new(PlanCache::new(8)),
            config,
        }
    }

    /// One evaluation of `annot` over `0..n`: the merged buffer and the
    /// evaluation's stats. The handle and the context are gone when it
    /// returns; only the returned buffer keeps the result alive.
    fn eval(&self, annot: &Arc<Annotation>, n: usize) -> Result<(SharedVec<f64>, PhaseStats)> {
        let c = MozartContext::new(self.config.clone());
        c.attach_plan_cache(self.cache.clone());
        let fut = c.call(annot, &[Arg::Value(&vec_value(n))])?.unwrap();
        let out = fut.get()?;
        let buf = out.downcast_ref::<VecValue>().unwrap().0.clone();
        Ok((buf, c.stats()))
    }
}

fn targets(stats: &PhaseStats) -> (u64, u64) {
    (stats.merge_targets_reused, stats.merge_targets_allocated)
}

fn doubled(n: usize) -> Vec<f64> {
    (0..n).map(|i| i as f64 * 2.0).collect()
}

#[test]
fn a_held_result_is_never_written_over_and_a_dropped_one_is_reused() {
    let n = 64;
    for workers in [1, 2] {
        for (site, annot) in reuse_annotations(1) {
            let warm = Warm::new(workers, 8);
            let what = format!("{site}, {workers} workers");

            // Evaluation 1 allocates; its result stays with the caller.
            let (first, stats) = warm.eval(&annot, n).unwrap();
            assert_eq!(targets(&stats), (0, 1), "{what}");

            // Evaluation 2 finds the parked target still shared with
            // `first`: it must allocate, and `first` must not change.
            let (second, stats) = warm.eval(&annot, n).unwrap();
            assert_eq!(targets(&stats), (0, 1), "{what}");
            assert_ne!(first.base_ptr(), second.base_ptr(), "{what}");
            assert_eq!(first.as_slice(), &doubled(n)[..], "{what}");
            assert_eq!(second.as_slice(), &doubled(n)[..], "{what}");

            // Dropped first, the parked target is exclusive by the next
            // evaluation, which writes its result over it.
            let addr = second.base_ptr();
            drop((first, second));
            let (third, stats) = warm.eval(&annot, n).unwrap();
            assert_eq!(targets(&stats), (1, 0), "{what}");
            assert_eq!(third.base_ptr(), addr, "{what}: same storage");
            assert_eq!(third.as_slice(), &doubled(n)[..], "{what}");
            assert!(warm.cache.stats().parked_bytes >= (n * 8) as u64, "{what}");
        }
    }
}

#[test]
fn warm_results_are_bit_identical_to_a_cold_cache() {
    let n = 257;
    let cold = doubled(n);
    for workers in [1, 2] {
        for (site, annot) in reuse_annotations(1) {
            let warm = Warm::new(workers, 16);
            let mut reused = 0;
            for round in 0..4 {
                let (out, stats) = warm.eval(&annot, n).unwrap();
                assert_eq!(out.as_slice(), &cold[..], "{site} round {round}");
                reused += stats.merge_targets_reused;
            }
            assert_eq!(reused, 3, "{site}: every warm evaluation reused");
        }
    }
}

#[test]
fn a_shape_change_never_reuses_another_shapes_target() {
    for (site, annot) in reuse_annotations(1) {
        let warm = Warm::new(2, 8);
        drop(warm.eval(&annot, 64).unwrap());
        // Another length is another plan: nothing is parked for it.
        let (out, stats) = warm.eval(&annot, 48).unwrap();
        assert_eq!(targets(&stats), (0, 1), "{site}");
        assert_eq!(out.as_slice(), &doubled(48)[..]);
        drop(out);
        // The first shape's spare was not disturbed.
        let (out, stats) = warm.eval(&annot, 64).unwrap();
        assert_eq!(targets(&stats), (1, 0), "{site}");
        assert_eq!(out.as_slice(), &doubled(64)[..]);
    }
}

#[test]
fn a_null_split_truncated_output_is_never_reused() {
    // The splitter claims 2n elements and serves n: the stored result is
    // the truncated prefix, not a whole target of the stage's length.
    let n = 40;
    let (_, annot) = &reuse_annotations(2)[0];
    let warm = Warm::new(2, 8);
    for round in 0..3 {
        let (out, stats) = warm.eval(annot, n).unwrap();
        assert_eq!(out.as_slice(), &doubled(n)[..], "round {round}");
        assert_eq!(targets(&stats), (0, 1), "round {round}");
    }
}

#[test]
fn eviction_and_a_failed_evaluation_free_the_spare() {
    let (_, annot) = &reuse_annotations(1)[1];
    // A clone of the result shares its storage, so `is_exclusive` on it
    // says whether the cache still holds the parked target.
    let parked_probe = |warm: &Warm| {
        let (out, _) = warm.eval(annot, 64).unwrap();
        let mut probe = out.clone();
        drop(out);
        assert!(!probe.is_exclusive(), "the target is parked");
        assert!(warm.cache.stats().parked_bytes > 0);
        probe
    };

    // Eviction: a one-entry cache drops the plan, spare included, when
    // another shape's plan comes in.
    let mut warm = Warm::new(2, 8);
    warm.cache = Arc::new(PlanCache::new(1));
    let mut probe = parked_probe(&warm);
    drop(warm.eval(annot, 48).unwrap());
    assert!(probe.is_exclusive(), "eviction freed the spare");

    // A failing evaluation: its stage takes the spare (shared with the
    // probe, so it allocates instead) and fails before it stores a
    // target to park in its place.
    mozart_core::faultinject::silence_injected_panics();
    let mut warm = Warm::new(2, 8);
    let mut probe = parked_probe(&warm);
    let plan = FaultPlan::new().point(FaultPoint::once(FaultPhase::Merge, FaultKind::Panic));
    warm.config.fault_plan = Some(Arc::new(plan));
    assert!(warm.eval(annot, 64).is_err());
    assert_eq!(warm.cache.stats().parked_bytes, 0);
    assert!(
        probe.is_exclusive(),
        "the failed evaluation freed the spare"
    );
}

#[test]
fn a_merge_panic_in_the_reusing_stage_is_typed_and_the_retry_allocates() {
    mozart_core::faultinject::silence_injected_panics();
    for (site, annot) in reuse_annotations(1) {
        let mut warm = Warm::new(2, 8);
        drop(warm.eval(&annot, 64).unwrap());
        let plan = FaultPlan::new().point(FaultPoint::once(FaultPhase::Merge, FaultKind::Panic));
        warm.config.fault_plan = Some(Arc::new(plan));
        match warm.eval(&annot, 64) {
            Err(Error::TaskPanicked { stage, .. }) => assert_eq!(stage, FaultPhase::Merge),
            other => panic!(
                "{site}: expected a typed merge panic, got {:?}",
                other.err()
            ),
        }
        // The fault budget is spent: the retry runs clean, and the
        // target the failed stage was writing over is gone with it.
        let (out, stats) = warm.eval(&annot, 64).unwrap();
        assert_eq!(targets(&stats), (0, 1), "{site}");
        assert_eq!(out.as_slice(), &doubled(64)[..], "{site}");
    }
}

#[test]
fn without_a_plan_cache_nothing_is_parked_or_reused() {
    let (_, annot) = &reuse_annotations(1)[0];
    let c = ctx(2, 8);
    for _ in 0..3 {
        let fut = c
            .call(annot, &[Arg::Value(&vec_value(64))])
            .unwrap()
            .unwrap();
        let out = fut.get().unwrap();
        assert_eq!(
            out.downcast_ref::<VecValue>().unwrap().0.as_slice(),
            &doubled(64)[..]
        );
    }
    assert_eq!(targets(&c.stats()), (0, 3));
}

#[test]
fn a_long_lived_context_reuses_its_own_released_targets() {
    // The other release paths: the handle is dropped before the *next*
    // evaluation starts (`Drop for FutureHandle`), or while the context
    // is busy, so the end of that evaluation releases it.
    let (_, annot) = &reuse_annotations(1)[0];
    let warm = Warm::new(2, 8);
    let c = MozartContext::new(warm.config.clone());
    c.attach_plan_cache(warm.cache.clone());
    for round in 0..4u64 {
        let fut = c
            .call(annot, &[Arg::Value(&vec_value(64))])
            .unwrap()
            .unwrap();
        let out = fut.get().unwrap();
        assert_eq!(
            out.downcast_ref::<VecValue>().unwrap().0.as_slice(),
            &doubled(64)[..]
        );
        assert_eq!(c.stats().merge_targets_reused, round, "round {round}");
    }
}

/// The positive elements of an array, collected: how many there are is
/// data, not a shape the plan-cache fingerprint pins.
fn positives() -> Arc<Annotation> {
    let collected: Arc<dyn Splitter> = Arc::new(CollectedSplit(PlacedSplit { claim_factor: 1 }));
    Annotation::new("reuse_positives", |inv| {
        let kept = elems(inv.args[0])
            .into_iter()
            .filter(|x| *x > 0.0)
            .collect();
        Ok(Some(DataValue::new(VecValue(SharedVec::from_vec(kept)))))
    })
    .arg("xs", generic(0))
    .ret(unknown(collected))
    .build()
}

/// `ys = xs * k`, split by an `ArraySplit` built from `xs` itself: a
/// call over a value its own stage produces cannot join that stage.
fn mul_own_len() -> Arc<Annotation> {
    Annotation::new("reuse_mul_own_len", |inv| {
        let k = inv.float(1)?;
        let ys = elems(inv.args[0]).iter().map(|x| x * k).collect();
        Ok(Some(DataValue::new(VecValue(SharedVec::from_vec(ys)))))
    })
    .arg("xs", concrete(Arc::new(ArraySplit), vec![0]))
    .arg("k", missing())
    .ret(concrete(Arc::new(ArraySplit), vec![0]))
    .build()
}

#[test]
fn one_fingerprint_planned_two_ways_never_misplaces_a_spare() {
    // The fingerprint pins the shapes of a segment's inputs, not the
    // lengths its stages compute. With 16 of 32 elements positive, the
    // two products pipeline into stage 1 as its outputs 0 and 1; with
    // 12, they run apart, as stage 1 output 0 (12 elements) and stage 2
    // output 0. Both products are placement-merged (`ArraySplit` over
    // fresh arrays), so each structure finds the other's spares in its
    // slots.
    let (keep, mul_own, mul) = (positives(), mul_own_len(), vmul());
    let eval = |warm: &Warm, positives: usize| {
        let c = MozartContext::new(warm.config.clone());
        c.attach_plan_cache(warm.cache.clone());
        let xs = (0..32).map(|i| if i < positives { 0.5 + i as f64 } else { -1.0 });
        let xs = DataValue::new(VecValue(SharedVec::from_vec(xs.collect())));
        let ys = call1(&c, &keep, vec![xs]);
        let a = call1(&c, &mul_own, times(ys.as_value(), 3.0));
        let b = call1(&c, &mul, times(vec_value(16), 0.1));
        c.evaluate().unwrap();
        let bits = |f: &FutureHandle| read(f).iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        ([bits(&a), bits(&b)], c.stats())
    };
    let warm = Warm::new(2, 4);
    let (first, stats) = eval(&warm, 16);
    assert_eq!((stats.stages, targets(&stats)), (2, (0, 2)));

    // The second structure, warm: stage 1's spare is 16 elements, its
    // output 12, so it is never written over.
    let (second, stats) = eval(&warm, 12);
    assert_eq!(stats.stages, 3);
    assert_eq!(targets(&stats), (0, 2), "no spare in another shape");
    let (cold, _) = eval(&Warm::new(2, 4), 12);
    assert_eq!(second, cold, "warm bits equal a cold cache's");
    assert_eq!(second[0].len(), 12);

    // The first structure again: stage 1 output 1 still holds the first
    // evaluation's target, exclusive now, and writes over it.
    let (again, stats) = eval(&warm, 16);
    assert_eq!(stats.stages, 2);
    assert!(stats.merge_targets_reused >= 1, "{stats:?}");
    assert_eq!(again, first);

    // The second structure twice more: by the second time, each of its
    // two placement stages finds its own last target at its own stage
    // index.
    eval(&warm, 12);
    let (second_again, stats) = eval(&warm, 12);
    assert_eq!(targets(&stats), (2, 0));
    assert_eq!(second_again, cold);
    let s = warm.cache.stats();
    assert_eq!((s.hits, s.misses), (4, 1));
}

// ---------------------------------------------------------------------
// Output-path profile: every way a stage output can leave the driver
// loop, observed through the spans it records and the counters it
// bumps.
// ---------------------------------------------------------------------

/// Elements of an array piece: a view of a split input or a fresh
/// per-batch array.
fn elems(v: &DataValue) -> Vec<f64> {
    let view = &v.downcast_ref::<VecValue>().expect("an array piece").0;
    // SAFETY: the piece is only read, by the batch it belongs to.
    unsafe { view.slice_unchecked(0, view.len()) }.to_vec()
}

/// `ys = xs * k`, a fresh array per batch.
fn vmul() -> Arc<Annotation> {
    Annotation::new("profile_vmul", |inv| {
        let k = inv.float(1)?;
        let ys = elems(inv.args[0]).iter().map(|x| x * k).collect();
        Ok(Some(DataValue::new(VecValue(SharedVec::from_vec(ys)))))
    })
    .arg("xs", generic(0))
    .arg("k", missing())
    .ret(generic(0))
    .build()
}

/// Keeps every third element: an `unknown` output, whose pieces are
/// collected and concatenated.
fn every_third() -> Arc<Annotation> {
    let split: Arc<dyn Splitter> = Arc::new(PlacedSplit { claim_factor: 1 });
    Annotation::new("profile_every_third", |inv| {
        let kept = elems(inv.args[0])
            .into_iter()
            .filter(|x| *x as i64 % 3 == 0)
            .collect();
        Ok(Some(DataValue::new(VecValue(SharedVec::from_vec(kept)))))
    })
    .arg("xs", concrete(split.clone(), vec![0]))
    .ret(unknown(split))
    .build()
}

/// Merge-only split type of a scalar sum: partial sums fold in any
/// order.
struct SumReduce;

impl Splitter for SumReduce {
    fn name(&self) -> &'static str {
        "SumReduce"
    }
    fn construct(&self, _ctor_args: &[&DataValue]) -> Result<Params> {
        Ok(vec![])
    }
    fn info(&self, _arg: &DataValue, _params: &Params) -> Result<RuntimeInfo> {
        Err(Error::Library("SumReduce is merge-only".into()))
    }
    fn split(&self, _arg: &DataValue, _r: Range<u64>, _p: &Params) -> Result<Option<DataValue>> {
        Err(Error::Library("SumReduce is merge-only".into()))
    }
    fn merge(&self, pieces: Vec<DataValue>, _p: &Params, _total: u64) -> Result<DataValue> {
        let partial = |p: &DataValue| p.downcast_ref::<FloatValue>().map_or(0.0, |f| f.0);
        Ok(DataValue::new(FloatValue(pieces.iter().map(partial).sum())))
    }
    fn merge_strategy(&self) -> MergeStrategy {
        MergeStrategy::Custom { terminal: true }
    }
}

fn sum() -> Arc<Annotation> {
    Annotation::new("profile_sum", |inv| {
        let partial = elems(inv.args[0]).iter().sum();
        Ok(Some(DataValue::new(FloatValue(partial))))
    })
    .arg(
        "xs",
        concrete(Arc::new(PlacedSplit { claim_factor: 1 }), vec![0]),
    )
    .ret(concrete(Arc::new(SumReduce), vec![]))
    .build()
}

fn call1(c: &MozartContext, annot: &Arc<Annotation>, args: Vec<DataValue>) -> FutureHandle {
    let args: Vec<Arg> = args.iter().map(Arg::Value).collect();
    c.call(annot, &args).unwrap().expect("a return value")
}

fn times(x: DataValue, k: f64) -> Vec<DataValue> {
    vec![x, DataValue::new(FloatValue(k))]
}

/// A read's result as floats (a scalar reads as one element).
fn read(fut: &FutureHandle) -> Vec<f64> {
    let v = fut.get().unwrap();
    match v.downcast_ref::<FloatValue>() {
        Some(f) => vec![f.0],
        None => elems(&v),
    }
}

/// What one evaluation left in its [`PhaseStats`], for the counters an
/// output path owns.
#[derive(Debug, PartialEq)]
struct Profile {
    stages: u64,
    batches: u64,
    placement_writes: u64,
    bytes_merged: u64,
    /// `(lineage_outputs, lineage_replays)`.
    deferred: (u64, u64),
    /// `(merge_targets_reused, merge_targets_allocated)`.
    targets: (u64, u64),
}

impl Profile {
    fn of(s: &PhaseStats) -> Profile {
        Profile {
            stages: s.stages,
            batches: s.batches,
            placement_writes: s.placement_writes,
            bytes_merged: s.bytes_merged,
            deferred: (s.lineage_outputs, s.lineage_replays),
            targets: targets(s),
        }
    }
}

#[test]
fn every_output_path_records_its_spans_and_counters() {
    ArraySplit::register_default();
    // 64 elements in batches of 8: 8 batches per stage.
    const N: usize = 64;
    let scaled = |k: f64| (0..N).map(|i| i as f64 * k).collect::<Vec<f64>>();
    // One placement-written stage output of 64 `f64`s.
    let placed = Profile {
        stages: 1,
        batches: 8,
        placement_writes: 8,
        bytes_merged: 8 * N as u64,
        deferred: (0, 0),
        targets: (0, 1),
    };
    let collected = Profile {
        placement_writes: 0,
        bytes_merged: 0,
        targets: (0, 0),
        ..placed
    };
    type Run = fn(&MozartContext) -> Vec<f64>;
    // (output path, evaluation, its result, its counters)
    let cases: [(&str, Run, Vec<f64>, Profile); 5] = [
        (
            "placement resolved at stage start",
            |c| {
                let split = Arc::new(PlacedSplit { claim_factor: 1 });
                let annot = scaled_fresh_annotation(split, Duration::ZERO);
                read(&call1(c, &annot, vec![vec_value(N)]))
            },
            scaled(2.0),
            Profile { ..placed },
        ),
        (
            "placement resolved by exemplar",
            |c| read(&call1(c, &vmul(), times(vec_value(N), 2.0))),
            scaled(2.0),
            Profile { ..placed },
        ),
        (
            "collect in blocks",
            |c| read(&call1(c, &every_third(), vec![vec_value(N)])),
            (0..N).step_by(3).map(|i| i as f64).collect(),
            Profile { ..collected },
        ),
        (
            "fold of partial results",
            |c| read(&call1(c, &sum(), vec![vec_value(N)])),
            vec![(N * (N - 1) / 2) as f64],
            Profile { ..collected },
        ),
        (
            "alive but not read, merged in its stage",
            |c| {
                let doubled = call1(c, &vmul(), times(vec_value(N), 2.0));
                let tripled = call1(c, &vmul(), times(vec_value(N), 3.0));
                let mut out = read(&tripled);
                out.extend(read(&doubled));
                out
            },
            [scaled(3.0), scaled(2.0)].concat(),
            Profile {
                placement_writes: 16,
                bytes_merged: 16 * N as u64,
                targets: (0, 2),
                ..placed
            },
        ),
    ];
    for workers in [1, 2] {
        for (path, run, result, profile) in &cases {
            let what = format!("{path}, {workers} workers");
            let mut cfg = Config::with_workers(workers);
            cfg.batch_override = Some(8);
            let recorder = TraceRecorder::new();
            cfg.tracing = Some(recorder.clone());
            let c = MozartContext::new(cfg);
            assert_eq!(run(&c), *result, "{what}");
            let s = c.stats();
            assert_eq!(Profile::of(&s), *profile, "{what}");

            let spans = recorder.spans(c.trace_id().expect("a traced context"));
            let count = |kind| spans.iter().filter(|r| r.kind == kind).count() as u64;
            let runs = s.stages;
            assert_eq!(count(SpanKind::Split), s.batches, "{what}");
            assert_eq!(count(SpanKind::Task), s.batches, "{what}");
            assert_eq!(
                count(SpanKind::PlacementWrite),
                s.placement_writes,
                "{what}"
            );
            assert_eq!(count(SpanKind::FinalMerge), runs, "{what}");
            // One worker-local merge window per participant that ran a
            // batch.
            let merges = count(SpanKind::Merge);
            assert!(
                (runs..=runs * workers as u64).contains(&merges),
                "{what}: {merges} merge spans over {runs} stages"
            );
        }
    }
}
