//! End-to-end tests of the capture → plan → execute pipeline using a
//! small synthetic "library" annotated with split annotations.

use std::ops::Range;
use std::sync::Arc;

use mozart_core::annotation::{concrete, generic, missing, unknown, Annotation};
use mozart_core::prelude::*;
use mozart_core::registry::register_default_splitter;

// ---------------------------------------------------------------------
// A toy library: plain functions over `SharedVec<f64>` and `Vec<f64>`.
// ---------------------------------------------------------------------

fn lib_scale(xs: &mut [f64], k: f64) {
    for x in xs {
        *x *= k;
    }
}

fn lib_add(a: &[f64], b: &[f64], out: &mut [f64]) {
    for i in 0..out.len() {
        out[i] = a[i] + b[i];
    }
}

fn lib_sum(xs: &[f64]) -> f64 {
    xs.iter().sum()
}

fn lib_filter_nonneg(xs: &[f64]) -> Vec<f64> {
    xs.iter().copied().filter(|x| *x >= 0.0).collect()
}

// ---------------------------------------------------------------------
// Splitting API implementations for the toy library.
// ---------------------------------------------------------------------

/// An owned piece of `f64`s (functional style, like a NumPy result).
#[derive(Debug, Clone)]
struct OwnedChunk(Arc<Vec<f64>>);

impl mozart_core::value::DataObject for OwnedChunk {
    fn type_name(&self) -> &'static str {
        "OwnedChunk"
    }
}

/// Splits `OwnedChunk` values by copying ranges; merges by concatenation.
struct ChunkSplit;

impl Splitter for ChunkSplit {
    fn name(&self) -> &'static str {
        "ChunkSplit"
    }
    fn construct(&self, ctor_args: &[&DataValue]) -> Result<Params> {
        let c = ctor_args[0]
            .downcast_ref::<OwnedChunk>()
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
            .downcast_ref::<OwnedChunk>()
            .ok_or(Error::Library("ChunkSplit split".into()))?;
        let total = params[0] as u64;
        if range.start >= total {
            return Ok(None);
        }
        let end = range.end.min(total) as usize;
        Ok(Some(DataValue::new(OwnedChunk(Arc::new(
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
                .downcast_ref::<OwnedChunk>()
                .ok_or(Error::Library("ChunkSplit merge".into()))?;
            out.extend_from_slice(&c.0);
        }
        Ok(DataValue::new(OwnedChunk(Arc::new(out))))
    }
}

/// Merge-only split type that keeps the sole piece (for single-batch
/// whole-value results).
struct FirstPiece;

impl Splitter for FirstPiece {
    fn name(&self) -> &'static str {
        "FirstPiece"
    }
    fn construct(&self, _ctor_args: &[&DataValue]) -> Result<Params> {
        Ok(vec![])
    }
    fn info(&self, _arg: &DataValue, _params: &Params) -> Result<RuntimeInfo> {
        Err(Error::Library("FirstPiece is merge-only".into()))
    }
    fn split(&self, _arg: &DataValue, _r: Range<u64>, _p: &Params) -> Result<Option<DataValue>> {
        Err(Error::Library("FirstPiece is merge-only".into()))
    }
    fn merge(
        &self,
        mut pieces: Vec<DataValue>,
        _params: &Params,
        _total_elements: u64,
    ) -> Result<DataValue> {
        pieces.drain(..).next().ok_or(Error::Merge {
            split_type: "FirstPiece",
            message: "no pieces".into(),
        })
    }
}

/// Merge-only split type for scalar sum reductions.
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
    fn merge(
        &self,
        pieces: Vec<DataValue>,
        _params: &Params,
        _total_elements: u64,
    ) -> Result<DataValue> {
        let mut acc = 0.0;
        for p in pieces {
            acc += p.downcast_ref::<FloatValue>().map(|f| f.0).unwrap_or(0.0);
        }
        Ok(DataValue::new(FloatValue(acc)))
    }
}

// ---------------------------------------------------------------------
// Annotations (what a library annotator would write).
// ---------------------------------------------------------------------

fn scale_annotation() -> Arc<Annotation> {
    Annotation::new("scale", |inv| {
        let piece = &inv.arg::<VecValue>(0)?.0;
        let k = inv.float(1)?;
        // SAFETY: the executor hands each worker disjoint ranges.
        lib_scale(unsafe { piece.slice_mut_unchecked(0, piece.len()) }, k);
        Ok(None)
    })
    // MKL convention: split parameters come from the explicit size
    // argument, never from the mutable array itself.
    .mut_arg("xs", concrete(Arc::new(ArraySplit), vec![2]))
    .arg("k", missing())
    .arg("n", missing())
    .build()
}

fn add_annotation() -> Arc<Annotation> {
    Annotation::new("add", |inv| {
        let a = &inv.arg::<VecValue>(0)?.0;
        let b = &inv.arg::<VecValue>(1)?.0;
        let out = &inv.arg::<VecValue>(2)?.0;
        // SAFETY: disjoint ranges per worker; `out` may alias `a`/`b`
        // only with identical ranges (elementwise ops tolerate this).
        unsafe {
            lib_add(
                a.slice_unchecked(0, a.len()),
                b.slice_unchecked(0, b.len()),
                out.slice_mut_unchecked(0, out.len()),
            )
        };
        Ok(None)
    })
    .arg("a", generic(0))
    .arg("b", generic(0))
    .mut_arg("out", generic(0))
    .build()
}

fn sum_annotation() -> Arc<Annotation> {
    Annotation::new("sum", |inv| {
        let piece = &inv.arg::<VecValue>(0)?.0;
        // SAFETY: disjoint ranges per worker.
        let s = lib_sum(unsafe { piece.slice_unchecked(0, piece.len()) });
        Ok(Some(DataValue::new(FloatValue(s))))
    })
    .arg("xs", concrete(Arc::new(ArraySplit), vec![0]))
    .ret(concrete(Arc::new(SumReduce), vec![]))
    .build()
}

fn filter_annotation() -> Arc<Annotation> {
    Annotation::new("filter_nonneg", |inv| {
        let c = inv.arg::<OwnedChunk>(0)?;
        Ok(Some(DataValue::new(OwnedChunk(Arc::new(
            lib_filter_nonneg(&c.0),
        )))))
    })
    .arg("xs", generic(0))
    .ret(unknown(Arc::new(ChunkSplit)))
    .build()
}

fn chunk_scale_annotation() -> Arc<Annotation> {
    Annotation::new("chunk_scale", |inv| {
        let c = inv.arg::<OwnedChunk>(0)?;
        let k = inv.float(1)?;
        Ok(Some(DataValue::new(OwnedChunk(Arc::new(
            c.0.iter().map(|x| x * k).collect(),
        )))))
    })
    .arg("xs", generic(0))
    .arg("k", missing())
    .ret(generic(0))
    .build()
}

fn int_len(data: &SharedVec<f64>) -> DataValue {
    DataValue::new(IntValue(data.len() as i64))
}

fn vec_value(data: &SharedVec<f64>) -> DataValue {
    DataValue::new(VecValue(data.clone()))
}

fn small_batch_ctx(workers: usize) -> MozartContext {
    let mut cfg = Config::with_workers(workers);
    cfg.batch_override = Some(7); // deliberately awkward batch size
    MozartContext::new(cfg)
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

#[test]
fn in_place_chain_pipelines_into_one_stage() {
    let ctx = small_batch_ctx(3);
    let n = 100;
    let data = SharedVec::from_vec((0..n).map(|i| i as f64).collect());
    let scale = scale_annotation();

    ctx.call(
        &scale,
        &[
            Arg::Value(&vec_value(&data)),
            Arg::Float(2.0),
            Arg::Value(&int_len(&data)),
        ],
    )
    .unwrap();
    ctx.call(
        &scale,
        &[
            Arg::Value(&vec_value(&data)),
            Arg::Float(3.0),
            Arg::Value(&int_len(&data)),
        ],
    )
    .unwrap();
    ctx.call(
        &scale,
        &[
            Arg::Value(&vec_value(&data)),
            Arg::Float(0.5),
            Arg::Value(&int_len(&data)),
        ],
    )
    .unwrap();
    assert_eq!(ctx.pending_calls(), 3);

    // Access forces evaluation through the protect flag.
    let out = data.as_slice();
    for (i, &x) in out.iter().enumerate() {
        assert_eq!(x, i as f64 * 3.0);
    }
    assert_eq!(ctx.pending_calls(), 0);
    let stats = ctx.stats();
    assert_eq!(stats.stages, 1, "all three calls should share one stage");
    assert_eq!(
        stats.calls,
        3 * 15,
        "5 batches/worker * 3 workers * 3 calls"
    );
}

#[test]
fn pipe_ablation_runs_one_stage_per_function() {
    let mut cfg = Config::with_workers(2);
    cfg.pipeline = false;
    cfg.batch_override = Some(16);
    let ctx = MozartContext::new(cfg);
    let data = SharedVec::from_vec(vec![1.0; 64]);
    let scale = scale_annotation();
    ctx.call(
        &scale,
        &[
            Arg::Value(&vec_value(&data)),
            Arg::Float(2.0),
            Arg::Value(&int_len(&data)),
        ],
    )
    .unwrap();
    ctx.call(
        &scale,
        &[
            Arg::Value(&vec_value(&data)),
            Arg::Float(2.0),
            Arg::Value(&int_len(&data)),
        ],
    )
    .unwrap();
    ctx.evaluate().unwrap();
    assert_eq!(ctx.stats().stages, 2);
    assert_eq!(data.as_slice()[0], 4.0);
}

/// `ys = xs * k` over `ArraySplit` arrays, returning a fresh array per
/// batch, so a chain of calls has real intermediates to merge.
fn vmul_annotation() -> Arc<Annotation> {
    Annotation::new("pipe_vmul", |inv| {
        let view = &inv.arg::<VecValue>(0)?.0;
        // SAFETY: the executor hands each worker disjoint ranges and
        // nobody mutates the parent during the task phase.
        let xs = unsafe { view.slice_unchecked(0, view.len()) };
        let k = inv.float(1)?;
        let ys = xs.iter().map(|x| x * k).collect();
        Ok(Some(DataValue::new(VecValue(SharedVec::from_vec(ys)))))
    })
    .arg("xs", generic(0))
    .arg("k", missing())
    .ret(generic(0))
    .build()
}

#[test]
fn unpipelined_chain_merges_at_every_call_boundary() {
    // The paper's "-pipe" ablation: with pipelining off, each call is
    // its own stage and every value passed between calls is merged at
    // the end of one stage and re-split by the next.
    ArraySplit::register_default();
    let n = 48usize;
    let vmul = vmul_annotation();
    let run = |pipeline: bool| {
        let mut cfg = Config::with_workers(3);
        (cfg.pipeline, cfg.batch_override) = (pipeline, Some(7));
        let ctx = MozartContext::new(cfg);
        let xs = (0..n).map(|i| i as f64 - n as f64 / 3.0).collect();
        let mut fut = ctx
            .call(
                &vmul,
                &[
                    Arg::Value(&DataValue::new(VecValue(SharedVec::from_vec(xs)))),
                    Arg::Float(2.0),
                ],
            )
            .unwrap()
            .unwrap();
        for k in [3.0, 0.5] {
            let next = ctx.call(&vmul, &[Arg::Value(&fut.as_value()), Arg::Float(k)]);
            fut = next.unwrap().unwrap();
        }
        let out = fut.get().unwrap();
        let bits: Vec<u64> = out
            .downcast_ref::<VecValue>()
            .unwrap()
            .0
            .to_vec()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        (bits, ctx.stats())
    };
    let (staged, s) = run(false);
    let (fused, f) = run(true);
    assert_eq!(
        staged, fused,
        "-pipe must be bit-identical to the fused run"
    );
    assert_eq!(
        (s.stages, f.stages),
        (3, 1),
        "one stage per call vs one stage"
    );
    assert_eq!(s.split_form_handoffs, 0);
    // Eight bytes per element: the fused run merges only the result,
    // the staged one also both intermediates.
    let one = 8 * n as u64;
    assert_eq!((s.bytes_merged, f.bytes_merged), (3 * one, one), "{s:?}");
}

#[test]
fn generics_pipeline_binary_ops_and_detect_dependencies() {
    // Mirrors the Black Scholes snippet: in-place ops over shared buffers.
    ArraySplit::register_default();
    let ctx = small_batch_ctx(2);
    let n = 50;
    let a = SharedVec::from_vec((0..n).map(|i| i as f64).collect());
    let b = SharedVec::from_vec(vec![10.0; n]);
    let out = SharedVec::from_vec(vec![0.0; n]);
    let add = add_annotation();
    let scale = scale_annotation();

    // out = a + b; out = out * 2; out = out + a
    ctx.call(
        &add,
        &[
            Arg::Value(&vec_value(&a)),
            Arg::Value(&vec_value(&b)),
            Arg::Value(&vec_value(&out)),
        ],
    )
    .unwrap();
    ctx.call(
        &scale,
        &[
            Arg::Value(&vec_value(&out)),
            Arg::Float(2.0),
            Arg::Value(&int_len(&out)),
        ],
    )
    .unwrap();
    ctx.call(
        &add,
        &[
            Arg::Value(&vec_value(&out)),
            Arg::Value(&vec_value(&a)),
            Arg::Value(&vec_value(&out)),
        ],
    )
    .unwrap();
    ctx.evaluate().unwrap();

    for i in 0..n {
        let expected = ((i as f64) + 10.0) * 2.0 + i as f64;
        assert_eq!(out.as_slice()[i], expected, "index {i}");
    }
    assert_eq!(
        ctx.stats().stages,
        1,
        "generic ops over same-length arrays pipeline"
    );
}

#[test]
fn reduction_merges_partials_across_workers_and_batches() {
    let ctx = small_batch_ctx(4);
    let n = 1000;
    let data = SharedVec::from_vec((0..n).map(|i| i as f64).collect());
    let sum = sum_annotation();
    let fut = ctx
        .call(&sum, &[Arg::Value(&vec_value(&data))])
        .unwrap()
        .expect("sum returns a value");
    let result = fut.get().unwrap();
    let got = result.downcast_ref::<FloatValue>().unwrap().0;
    let expected = (n * (n - 1) / 2) as f64;
    assert_eq!(got, expected);
}

#[test]
fn scale_then_sum_pipelines_and_reduces() {
    let ctx = small_batch_ctx(2);
    let data = SharedVec::from_vec(vec![1.0; 64]);
    let scale = scale_annotation();
    let sum = sum_annotation();
    ctx.call(
        &scale,
        &[
            Arg::Value(&vec_value(&data)),
            Arg::Float(3.0),
            Arg::Value(&int_len(&data)),
        ],
    )
    .unwrap();
    let fut = ctx
        .call(&sum, &[Arg::Value(&vec_value(&data))])
        .unwrap()
        .unwrap();
    let got = fut.get().unwrap().downcast_ref::<FloatValue>().unwrap().0;
    assert_eq!(got, 192.0);
    assert_eq!(
        ctx.stats().stages,
        1,
        "scale and sum share the ArraySplit split type"
    );
}

#[test]
fn unknown_output_pipelines_into_generic_but_not_concrete() {
    register_default_splitter::<OwnedChunk>(Arc::new(ChunkSplit));
    let ctx = small_batch_ctx(2);
    let input = OwnedChunk(Arc::new((0..40).map(|i| i as f64 - 20.0).collect()));
    let filter = filter_annotation();
    let cscale = chunk_scale_annotation();

    let filtered = ctx
        .call(&filter, &[Arg::Value(&DataValue::new(input))])
        .unwrap()
        .unwrap();
    // Generic function accepts the unknown value: pipelined in-stage.
    let scaled = ctx
        .call(
            &cscale,
            &[Arg::Value(&filtered.as_value()), Arg::Float(2.0)],
        )
        .unwrap()
        .unwrap();
    let out = scaled.get().unwrap();
    let chunk = out.downcast_ref::<OwnedChunk>().unwrap();
    assert_eq!(chunk.0.len(), 20);
    assert!(chunk.0.iter().all(|x| *x >= 0.0));
    assert_eq!(chunk.0[0], 0.0);
    assert_eq!(*chunk.0.last().unwrap(), 38.0);
    assert_eq!(ctx.stats().stages, 1, "filter and scale pipeline");
}

#[test]
fn two_unknowns_do_not_pipeline_together() {
    register_default_splitter::<OwnedChunk>(Arc::new(ChunkSplit));
    let ctx = small_batch_ctx(2);
    let a = OwnedChunk(Arc::new((0..32).map(|i| i as f64 - 16.0).collect()));
    let b = OwnedChunk(Arc::new((0..32).map(|i| -(i as f64) + 16.0).collect()));
    let filter = filter_annotation();

    // A generic binary op over chunks.
    let chunk_add = Annotation::new("chunk_add", |inv| {
        let a = inv.arg::<OwnedChunk>(0)?;
        let b = inv.arg::<OwnedChunk>(1)?;
        if a.0.len() != b.0.len() {
            return Err(Error::Library(format!(
                "chunk_add length mismatch: {} vs {}",
                a.0.len(),
                b.0.len()
            )));
        }
        Ok(Some(DataValue::new(OwnedChunk(Arc::new(
            a.0.iter().zip(b.0.iter()).map(|(x, y)| x + y).collect(),
        )))))
    })
    .arg("a", generic(0))
    .arg("b", generic(0))
    .ret(generic(0))
    .build();

    let fa = ctx
        .call(&filter, &[Arg::Value(&DataValue::new(a))])
        .unwrap()
        .unwrap();
    let fb = ctx
        .call(&filter, &[Arg::Value(&DataValue::new(b))])
        .unwrap()
        .unwrap();
    let fc = ctx
        .call(
            &chunk_add,
            &[Arg::Value(&fa.as_value()), Arg::Value(&fb.as_value())],
        )
        .unwrap()
        .unwrap();
    let out = fc.get().unwrap();
    let chunk = out.downcast_ref::<OwnedChunk>().unwrap();
    assert_eq!(
        chunk.0.len(),
        16,
        "both filters keep 16 non-negative values"
    );
    // The two filters have distinct unknown types, so chunk_add must not
    // be pipelined with them (it would see mismatched piece lengths —
    // the library function itself checks and would error).
    assert!(ctx.stats().stages >= 2);
}

#[test]
fn stage_breaks_when_split_value_needed_whole() {
    let ctx = small_batch_ctx(2);
    let n = 30;
    let data = SharedVec::from_vec(vec![1.0; n]);
    let scale = scale_annotation();

    // A function that needs the whole array (e.g. a reshape): `_` type.
    let whole = Annotation::new("whole_len", |inv| {
        let v = inv.arg::<VecValue>(0)?;
        Ok(Some(DataValue::new(IntValue(v.0.len() as i64))))
    })
    .arg("xs", missing())
    .ret(unknown(Arc::new(FirstPiece)))
    .build();

    ctx.call(
        &scale,
        &[
            Arg::Value(&vec_value(&data)),
            Arg::Float(2.0),
            Arg::Value(&int_len(&data)),
        ],
    )
    .unwrap();
    let fut = ctx
        .call(&whole, &[Arg::Value(&vec_value(&data))])
        .unwrap()
        .unwrap();
    let len = fut.get().unwrap();
    assert_eq!(len.downcast_ref::<IntValue>().unwrap().0, n as i64);
    assert_eq!(
        ctx.stats().stages,
        2,
        "whole-array access ends the pipeline stage"
    );
    assert_eq!(data.as_slice()[0], 2.0, "scale ran before whole_len");
}

#[test]
fn arrays_of_different_lengths_do_not_pipeline() {
    let ctx = small_batch_ctx(2);
    let a = SharedVec::from_vec(vec![1.0; 30]);
    let b = SharedVec::from_vec(vec![1.0; 40]);
    let scale = scale_annotation();
    ctx.call(
        &scale,
        &[
            Arg::Value(&vec_value(&a)),
            Arg::Float(2.0),
            Arg::Value(&int_len(&a)),
        ],
    )
    .unwrap();
    ctx.call(
        &scale,
        &[
            Arg::Value(&vec_value(&b)),
            Arg::Float(3.0),
            Arg::Value(&int_len(&b)),
        ],
    )
    .unwrap();
    ctx.evaluate().unwrap();
    assert_eq!(a.as_slice()[0], 2.0);
    assert_eq!(b.as_slice()[0], 3.0);
    // ArraySplit<30> != ArraySplit<40>: dependent type parameters differ.
    assert_eq!(ctx.stats().stages, 2);
}

#[test]
fn dead_intermediates_are_discarded() {
    register_default_splitter::<OwnedChunk>(Arc::new(ChunkSplit));
    let ctx = small_batch_ctx(2);
    let cscale = chunk_scale_annotation();
    let input = OwnedChunk(Arc::new(vec![1.0; 32]));
    let f1 = ctx
        .call(
            &cscale,
            &[Arg::Value(&DataValue::new(input)), Arg::Float(2.0)],
        )
        .unwrap()
        .unwrap();
    let f2 = ctx
        .call(&cscale, &[Arg::Value(&f1.as_value()), Arg::Float(3.0)])
        .unwrap()
        .unwrap();
    drop(f1); // intermediate not observable by the user
    let out = f2.get().unwrap();
    assert_eq!(out.downcast_ref::<OwnedChunk>().unwrap().0[0], 6.0);
}

#[test]
fn foreign_lazy_values_are_rejected() {
    let ctx1 = small_batch_ctx(1);
    let ctx2 = small_batch_ctx(1);
    let sum = sum_annotation();
    let data = SharedVec::from_vec(vec![1.0; 8]);
    let fut = ctx1
        .call(&sum, &[Arg::Value(&vec_value(&data))])
        .unwrap()
        .unwrap();
    let chunk_scale = chunk_scale_annotation();
    let err = ctx2
        .call(
            &chunk_scale,
            &[Arg::Value(&fut.as_value()), Arg::Float(1.0)],
        )
        .unwrap_err();
    assert_eq!(err, Error::ForeignValue);
}

#[test]
fn evaluate_is_idempotent_and_stats_accumulate() {
    let ctx = small_batch_ctx(2);
    let data = SharedVec::from_vec(vec![1.0; 16]);
    let scale = scale_annotation();
    ctx.call(
        &scale,
        &[
            Arg::Value(&vec_value(&data)),
            Arg::Float(2.0),
            Arg::Value(&int_len(&data)),
        ],
    )
    .unwrap();
    ctx.evaluate().unwrap();
    ctx.evaluate().unwrap(); // no pending work: no-op
    assert_eq!(ctx.stats().stages, 1);

    // A second round of laziness on the same context.
    ctx.call(
        &scale,
        &[
            Arg::Value(&vec_value(&data)),
            Arg::Float(5.0),
            Arg::Value(&int_len(&data)),
        ],
    )
    .unwrap();
    assert_eq!(data.as_slice()[0], 10.0);
    assert_eq!(ctx.stats().stages, 2);
}

#[test]
fn many_workers_on_tiny_input_degrade_gracefully() {
    let mut cfg = Config::with_workers(16);
    cfg.batch_override = Some(1);
    let ctx = MozartContext::new(cfg);
    let data = SharedVec::from_vec(vec![1.0, 2.0, 3.0]);
    let scale = scale_annotation();
    ctx.call(
        &scale,
        &[
            Arg::Value(&vec_value(&data)),
            Arg::Float(2.0),
            Arg::Value(&int_len(&data)),
        ],
    )
    .unwrap();
    ctx.evaluate().unwrap();
    assert_eq!(data.as_slice(), &[2.0, 4.0, 6.0]);
}

#[test]
fn argument_count_mismatch_is_reported_at_registration() {
    let ctx = small_batch_ctx(1);
    let scale = scale_annotation();
    let data = SharedVec::from_vec(vec![1.0]);
    let err = ctx
        .call(&scale, &[Arg::Value(&vec_value(&data))])
        .unwrap_err();
    assert!(matches!(err, Error::ArgCount { .. }));
}

#[test]
fn a_read_forces_the_context_that_protected_the_storage_last() {
    // A context re-registering `mut` calls over storage it already
    // protects keeps the one protection it holds (ISSUE 21). It must
    // compare *which* context protects the storage, not just whether
    // one does: B's pending write over storage A protected takes the
    // protection over, so a read forces B instead of returning the
    // storage without B's write.
    let scale = scale_annotation();
    let data = SharedVec::from_vec(vec![1.0; 16]);
    let call = |ctx: &MozartContext, k: f64| {
        let args = [
            Arg::Value(&vec_value(&data)),
            Arg::Float(k),
            Arg::Value(&int_len(&data)),
        ];
        ctx.call(&scale, &args).unwrap();
    };

    let a = small_batch_ctx(2);
    call(&a, 2.0);
    call(&a, 3.0);
    assert_eq!(data.as_slice(), &[6.0; 16][..], "the read forces A");
    assert_eq!(a.pending_calls(), 0);

    call(&a, 2.0);
    let b = small_batch_ctx(2);
    call(&b, 10.0);
    assert_eq!(data.as_slice(), &[60.0; 16][..], "the read forces B");
    assert_eq!((a.pending_calls(), b.pending_calls()), (1, 0));
    a.evaluate().unwrap();
    assert_eq!(data.as_slice(), &[120.0; 16][..]);
}
