//! Demand-driven materialization: a `Future` read evaluates every
//! pending call but asks only for the value it reads. An output that is
//! merely *alive* and cannot be replayed — over storage that can change,
//! as these toy arrays and chunks are — is merged in its stage as a
//! demanded one is; a dead one is discarded. Replayable outputs are kept
//! as lineage instead (`tests/lineage.rs` at the workspace root).
//!
//! The invariants under test:
//!
//! * reading handles in any order — only the last, all in capture
//!   order, all reversed, none — is **bit-identical** to
//!   `ctx.evaluate()`-then-read, across workers, pipelining and
//!   plan-cache replay, over every output path, `unknown`-typed
//!   (compacting) outputs and types with neither a placement nor a
//!   `Concat` capability included;
//! * a live output whose pieces are views of storage a later call
//!   mutates in place reads the pre-mutation data.

use std::ops::Range;
use std::sync::{Arc, LazyLock};

use mozart_core::annotation::{concrete, generic, missing, unknown, Annotation};
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
/// or an owned batch result.
fn piece_elems(v: &DataValue) -> Result<Vec<f64>> {
    let view = &v
        .downcast_ref::<VecValue>()
        .ok_or_else(|| Error::Library(format!("expected an array piece, got {}", v.type_name())))?
        .0;
    // SAFETY: the executor hands each worker disjoint ranges and no one
    // mutates the parent during the task phase.
    Ok(unsafe { view.slice_unchecked(0, view.len()) }.to_vec())
}

/// `xs * k`, functional (a fresh array piece per batch). Annotations
/// are built once: the plan cache keys on their identity.
fn vmul() -> Arc<Annotation> {
    static A: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
        Annotation::new("df_vmul", |inv| {
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

/// `a + b`, functional.
fn vadd() -> Arc<Annotation> {
    static A: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
        Annotation::new("df_vadd", |inv| {
            let (a, b) = (piece_elems(inv.args[0])?, piece_elems(inv.args[1])?);
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

/// Chunks declare their storage, as a type written in place would, so a
/// live chunk output nobody asked for cannot be kept as lineage and is
/// merged in its stage.
impl mozart_core::value::DataObject for Chunk {
    fn type_name(&self) -> &'static str {
        "Chunk"
    }
    fn stable_identity(&self) -> Option<usize> {
        Some(Arc::as_ptr(&self.0) as usize)
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
            let out = as_chunk(inv.args[0])?.0.iter().map(|x| x + k).collect();
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
            let kept = as_chunk(inv.args[0])?
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
            assert_eq!(ctx.stats().lineage_outputs, 0, "evaluate() demands all");
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
                // Cold then warm: the second run finds the first's
                // plan-cache entry and plans under the same demand.
                let cache = Arc::new(PlanCache::new(8));
                for warm in [false, true] {
                    let (got, stats) = run(&cfg, &cache, reads);
                    assert_eq!(got, reference, "{label} {reads:?} warm={warm}");
                    assert_eq!(
                        (stats.lineage_outputs, stats.lineage_replays),
                        (0, 0),
                        "{label} {reads:?}: nothing here is replayable: {stats:?}"
                    );
                }
                let s = cache.stats();
                assert_eq!((s.hits, s.misses), (1, 1), "{label} {reads:?}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Live views of storage a later call mutates in place.
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
        let piece = &inv.arg::<VecValue>(1)?.0;
        // SAFETY: the executor hands each worker disjoint ranges.
        for x in unsafe { piece.slice_mut_unchecked(0, piece.len()) } {
            *x *= 2.0;
        }
        Ok(None)
    })
    .arg("n", missing())
    .mut_arg("xs", concrete(Arc::new(ArraySplit), vec![0]))
    .build();

    let n = 40usize;
    let original: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
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
    // Reads `other` only: `view`, alive, is merged in the same stage —
    // copied out of `buf`.
    assert_eq!(elems(&other.get().unwrap()), original);
    let stats = ctx.stats();
    assert_eq!((stats.stages, stats.lineage_outputs), (1, 0));

    // Mutate the viewed storage in place, then read it (which forces
    // the evaluation): `view` keeps the elements it was merged from.
    let len = DataValue::new(IntValue(n as i64));
    ctx.call(&double, &[Arg::Value(&len), Arg::Value(&xs)])
        .unwrap();
    let doubled: Vec<f64> = original.iter().map(|x| x * 2.0).collect();
    assert_eq!(buf.as_slice(), &doubled[..]);
    assert_eq!(
        elems(&view.get().unwrap()),
        original,
        "the view was merged before the mutation"
    );
    assert_eq!(ctx.stats().lineage_replays, 0);

    // A view whose handle is dropped after a later call captured it
    // reads the pre-mutation elements too.
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
