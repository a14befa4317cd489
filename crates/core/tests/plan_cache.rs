//! Tests of the plan cache: repeated structurally identical pipelines
//! replay memoized stage skeletons (including across contexts); shape
//! or split-type changes miss; replayed plans produce correct results.

use std::sync::Arc;

use mozart_core::annotation::{concrete, Annotation};
use mozart_core::prelude::*;

/// In-place scale over a shared buffer (the MKL idiom: aliasing
/// `SliceView` pieces, nothing to merge).
fn scale_annotation() -> Arc<Annotation> {
    Annotation::new("cache_scale", |inv| {
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
    .arg("k", mozart_core::annotation::missing())
    .arg("n", mozart_core::annotation::missing())
    .build()
}

/// Like [`scale_annotation`] but split with `SizeSplit`-parameterized
/// `ArraySplit` via a different split type name is not possible without
/// a second splitter; instead this variant differs structurally (extra
/// shift argument), which must fingerprint differently.
fn scale_shift_annotation() -> Arc<Annotation> {
    Annotation::new("cache_scale_shift", |inv| {
        let piece = inv.arg::<SliceView>(0)?;
        let k = inv.float(1)?;
        let b = inv.float(2)?;
        // SAFETY: disjoint ranges per worker.
        for x in unsafe { piece.as_slice_mut() } {
            *x = *x * k + b;
        }
        Ok(None)
    })
    .mut_arg("xs", concrete(Arc::new(ArraySplit), vec![3]))
    .arg("k", mozart_core::annotation::missing())
    .arg("b", mozart_core::annotation::missing())
    .arg("n", mozart_core::annotation::missing())
    .build()
}

fn cached_ctx(cache: &Arc<PlanCache>, workers: usize, batch: u64) -> MozartContext {
    ArraySplit::register_default();
    let mut cfg = Config::with_workers(workers);
    cfg.batch_override = Some(batch);
    cfg.pedantic = true;
    let ctx = MozartContext::new(cfg);
    ctx.attach_plan_cache(cache.clone());
    ctx
}

fn run_scale(ctx: &MozartContext, annot: &Arc<Annotation>, n: usize, k: f64) -> Vec<f64> {
    let data = SharedVec::from_vec((0..n).map(|i| i as f64).collect());
    let dv = DataValue::new(VecValue(data.clone()));
    let nn = DataValue::new(IntValue(n as i64));
    ctx.call(
        annot,
        vec![dv.clone(), DataValue::new(FloatValue(k)), nn.clone()],
    )
    .unwrap();
    ctx.call(annot, vec![dv, DataValue::new(FloatValue(k)), nn])
        .unwrap();
    ctx.evaluate().unwrap();
    data.as_slice().to_vec()
}

#[test]
fn repeated_pipeline_hits_across_contexts() {
    let cache = Arc::new(PlanCache::new(16));
    let annot = scale_annotation();

    // First context: plans from scratch, records.
    let out1 = run_scale(&cached_ctx(&cache, 1, 4), &annot, 16, 2.0);
    let expect: Vec<f64> = (0..16).map(|i| i as f64 * 4.0).collect();
    assert_eq!(out1, expect);
    let s = cache.stats();
    assert_eq!((s.hits, s.misses, s.entries), (0, 1, 1));

    // Fresh context, identical structure and shapes: replays the plan.
    let out2 = run_scale(&cached_ctx(&cache, 1, 4), &annot, 16, 2.0);
    assert_eq!(out2, expect, "replayed plan must compute the same result");
    let s = cache.stats();
    assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));

    // Different scalar (the constant is part of the fingerprint — it
    // feeds the function): a miss, and still correct.
    let out3 = run_scale(&cached_ctx(&cache, 1, 4), &annot, 16, 3.0);
    let expect3: Vec<f64> = (0..16).map(|i| i as f64 * 9.0).collect();
    assert_eq!(out3, expect3);
    let s = cache.stats();
    assert_eq!((s.hits, s.misses), (1, 2));
}

#[test]
fn repeated_evaluation_hits_within_one_context() {
    let cache = Arc::new(PlanCache::new(16));
    let annot = scale_annotation();
    let ctx = cached_ctx(&cache, 1, 4);

    let data = SharedVec::from_vec(vec![1.0; 12]);
    let dv = DataValue::new(VecValue(data.clone()));
    for _ in 0..3 {
        ctx.call(
            &annot,
            vec![
                dv.clone(),
                DataValue::new(FloatValue(2.0)),
                DataValue::new(IntValue(12)),
            ],
        )
        .unwrap();
        ctx.evaluate().unwrap();
    }
    assert_eq!(data.as_slice(), &[8.0; 12] as &[f64]);
    // Segment 1 misses; segments 2 and 3 (arg is now the latest
    // mut-version, same shape) hit.
    let s = cache.stats();
    assert_eq!((s.hits, s.misses), (2, 1));
}

#[test]
fn shape_change_misses_and_recomputes() {
    let cache = Arc::new(PlanCache::new(16));
    let annot = scale_annotation();

    run_scale(&cached_ctx(&cache, 1, 4), &annot, 16, 2.0);
    // Same pipeline over a different length: must not replay the n=16
    // plan (its ArraySplit parameters would be stale).
    let out = run_scale(&cached_ctx(&cache, 1, 4), &annot, 24, 2.0);
    let expect: Vec<f64> = (0..24).map(|i| i as f64 * 4.0).collect();
    assert_eq!(out, expect);
    let s = cache.stats();
    assert_eq!((s.hits, s.misses, s.entries), (0, 2, 2));

    // And each shape now replays independently.
    run_scale(&cached_ctx(&cache, 1, 4), &annot, 16, 2.0);
    run_scale(&cached_ctx(&cache, 1, 4), &annot, 24, 2.0);
    let s = cache.stats();
    assert_eq!((s.hits, s.misses), (2, 2));
}

#[test]
fn pipeline_structure_change_misses() {
    let cache = Arc::new(PlanCache::new(16));
    run_scale(&cached_ctx(&cache, 1, 4), &scale_annotation(), 16, 2.0);
    // Different annotation (different callee and split-type exprs) over
    // identical data: a distinct fingerprint, planned fresh.
    let ctx = cached_ctx(&cache, 1, 4);
    let data = SharedVec::from_vec((0..16).map(|i| i as f64).collect());
    let dv = DataValue::new(VecValue(data.clone()));
    ctx.call(
        &scale_shift_annotation(),
        vec![
            dv,
            DataValue::new(FloatValue(2.0)),
            DataValue::new(FloatValue(1.0)),
            DataValue::new(IntValue(16)),
        ],
    )
    .unwrap();
    ctx.evaluate().unwrap();
    let expect: Vec<f64> = (0..16).map(|i| i as f64 * 2.0 + 1.0).collect();
    assert_eq!(data.as_slice(), expect.as_slice());
    let s = cache.stats();
    assert_eq!((s.hits, s.misses, s.entries), (0, 2, 2));
}

#[test]
fn pipeline_ablation_does_not_share_plans() {
    // The "-pipe" ablation (one function per stage) must not replay a
    // plan recorded with pipelining on, or vice versa, even through one
    // shared cache.
    ArraySplit::register_default();
    let cache = Arc::new(PlanCache::new(16));
    let annot = scale_annotation();

    let run = |pipeline: bool| {
        let mut cfg = Config::with_workers(1);
        cfg.batch_override = Some(4);
        cfg.pipeline = pipeline;
        let ctx = MozartContext::new(cfg);
        ctx.attach_plan_cache(cache.clone());
        let stages_before = ctx.stats().stages;
        let out = run_scale(&ctx, &annot, 16, 2.0);
        (out, ctx.stats().stages - stages_before)
    };

    let expect: Vec<f64> = (0..16).map(|i| i as f64 * 4.0).collect();
    let (out_piped, stages_piped) = run(true);
    assert_eq!(out_piped, expect);
    assert_eq!(stages_piped, 1, "both calls pipeline into one stage");
    let (out_unpiped, stages_unpiped) = run(false);
    assert_eq!(out_unpiped, expect);
    assert_eq!(stages_unpiped, 2, "-pipe: one stage per call");
    let s = cache.stats();
    assert_eq!(
        (s.hits, s.misses, s.entries),
        (0, 2, 2),
        "the two settings key distinct cache entries"
    );
    // And each setting replays its own entry with its own granularity.
    let (_, stages_again) = run(false);
    assert_eq!(stages_again, 2);
    assert_eq!(cache.stats().hits, 1);
}

#[test]
fn cache_capacity_is_bounded() {
    let cache = Arc::new(PlanCache::new(2));
    let annot = scale_annotation();
    for n in [8usize, 12, 16, 20] {
        run_scale(&cached_ctx(&cache, 1, 4), &annot, n, 2.0);
    }
    let s = cache.stats();
    assert_eq!(s.misses, 4);
    assert!(s.entries <= 2, "capacity respected, got {}", s.entries);
}

#[test]
fn multi_worker_replay_is_correct() {
    // Replayed plans must execute identically on the pool path.
    let cache = Arc::new(PlanCache::new(4));
    let annot = scale_annotation();
    let out1 = run_scale(&cached_ctx(&cache, 3, 8), &annot, 64, 2.0);
    let out2 = run_scale(&cached_ctx(&cache, 3, 8), &annot, 64, 2.0);
    let expect: Vec<f64> = (0..64).map(|i| i as f64 * 4.0).collect();
    assert_eq!(out1, expect);
    assert_eq!(out2, expect);
    assert_eq!(cache.stats().hits, 1);
}

/// The scale kernel under an annotation built on the spot, always named
/// `cache_dyn`: `xs` (mutable or not) is split by an `ArraySplit` built
/// from argument `ctor` (`n` or its twin `m`), and `n` is broadcast or
/// split by `SizeSplit`.
fn dyn_scale(mutable: bool, ctor: usize, split_n: bool) -> Arc<Annotation> {
    let b = Annotation::new("cache_dyn", |inv| {
        let piece = inv.arg::<SliceView>(0)?;
        let k = inv.float(1)?;
        // SAFETY: the executor hands each worker disjoint ranges.
        for x in unsafe { piece.as_slice_mut() } {
            *x *= k;
        }
        Ok(None)
    });
    let xs = concrete(Arc::new(ArraySplit), vec![ctor]);
    let b = if mutable {
        b.mut_arg("xs", xs)
    } else {
        b.arg("xs", xs)
    };
    let n = if split_n {
        concrete(Arc::new(SizeSplit), vec![2])
    } else {
        mozart_core::annotation::missing()
    };
    b.arg("k", mozart_core::annotation::missing())
        .arg("n", n)
        .arg("m", mozart_core::annotation::missing())
        .build()
}

#[test]
fn fingerprint_keys_every_planning_input() {
    let cache = Arc::new(PlanCache::new(16));
    // One evaluation of `annot` over `n` elements scaled by `k`, on a
    // fresh context; returns the cache's (hits, misses) after it.
    let run = |annot: &Arc<Annotation>, n: usize, k: f64| {
        let ctx = cached_ctx(&cache, 1, 4);
        let data = SharedVec::from_vec(vec![1.0; n]);
        let len = || DataValue::new(IntValue(n as i64));
        let args = vec![
            DataValue::new(VecValue(data.clone())),
            DataValue::new(FloatValue(k)),
            len(),
            len(),
        ];
        ctx.call(annot, args).unwrap();
        ctx.evaluate().unwrap();
        assert_eq!(data.as_slice(), vec![k; n].as_slice());
        let s = cache.stats();
        (s.hits, s.misses)
    };

    let base = dyn_scale(true, 2, false);
    assert_eq!(run(&base, 16, 2.0), (0, 1));
    assert_eq!(run(&base, 16, 2.0), (1, 1), "equal across contexts");
    assert_eq!(run(&base, 16, 3.0), (1, 2), "a scalar is part of the key");
    assert_eq!(run(&base, 24, 2.0), (1, 3), "so is a length");
    drop(base);

    // Same name, different declarations. Each annotation is dropped
    // before the next is built, so the allocator may hand a later one
    // an earlier one's address; its signature must still tell them
    // apart.
    let variants = [
        (true, 3, false, "a split-type constructor argument"),
        (false, 2, false, "mutability"),
        (true, 2, true, "the split type of an argument"),
    ];
    for (i, (mutable, ctor, split_n, what)) in variants.into_iter().enumerate() {
        let misses = 4 + i as u64;
        assert_eq!(
            run(&dyn_scale(mutable, ctor, split_n), 16, 2.0),
            (1, misses),
            "{what}"
        );
    }
    assert_eq!(cache.stats().entries, 6);
}

/// `ys = xs * k`, returning a fresh array per batch: its output can be
/// handed to a consuming stage as pieces.
fn mul_annotation() -> Arc<Annotation> {
    Annotation::new("cache_mul", |inv| {
        let xs: Vec<f64> = match inv.args[0].downcast_ref::<SliceView>() {
            // SAFETY: the executor hands each worker disjoint ranges.
            Some(view) => unsafe { view.as_slice() }.to_vec(),
            None => inv.arg::<VecValue>(0)?.0.to_vec(),
        };
        let k = inv.float(1)?;
        let ys = xs.iter().map(|x| x * k).collect();
        Ok(Some(DataValue::new(VecValue(SharedVec::from_vec(ys)))))
    })
    .arg("xs", mozart_core::annotation::generic(0))
    .arg("k", mozart_core::annotation::missing())
    .ret(mozart_core::annotation::generic(0))
    .build()
}

#[test]
fn a_replay_that_fails_to_bind_invalidates_and_replans() {
    // Liveness is not part of the fingerprint: a plan recorded while
    // the intermediate was dropped hands it to the next stage as
    // pieces, and replaying it while the application holds that
    // intermediate cannot bind the hand-off. The entry is invalidated
    // and the evaluation plans afresh, with the right result.
    let cache = Arc::new(PlanCache::new(16));
    let mul = mul_annotation();
    let run = |keep_intermediate: bool| {
        let mut cfg = Config::with_workers(1);
        (cfg.pipeline, cfg.batch_override) = (false, Some(4));
        let ctx = MozartContext::new(cfg);
        ctx.attach_plan_cache(cache.clone());
        let xs = DataValue::new(VecValue(SharedVec::from_vec(vec![1.0; 16])));
        let k = || DataValue::new(FloatValue(3.0));
        let f1 = ctx.call(&mul, vec![xs, k()]).unwrap().unwrap();
        let f2 = ctx.call(&mul, vec![f1.as_value(), k()]).unwrap().unwrap();
        let kept = keep_intermediate.then_some(f1);
        let out = f2
            .get()
            .unwrap()
            .downcast_ref::<VecValue>()
            .unwrap()
            .0
            .to_vec();
        assert_eq!(out, vec![9.0; 16]);
        drop(kept);
        ctx.stats().split_form_handoffs
    };
    ArraySplit::register_default();
    assert_eq!(
        run(false),
        1,
        "the recorded plan hands the intermediate off"
    );
    assert_eq!(run(true), 0, "a held intermediate merges");
    let s = cache.stats();
    assert_eq!((s.hits, s.misses, s.invalidations), (0, 2, 1));
}
