//! Built-in pipelines over the paper's workload suite
//! (`crates/workloads`), ready to register with a
//! [`PipelineService`](crate::PipelineService).
//!
//! Each pipeline memoizes its generated inputs per parameter key so
//! steady-state requests measure pipeline evaluation, not data
//! generation — the serving analogue of a model server keeping its
//! weights resident. The memo is bounded (a remote client cycling
//! seeds must not grow server memory without limit) and sizes are
//! clamped to [`MAX_ELEMENTS`] / [`MAX_IMAGE_DIM`] so a single
//! malicious request line cannot trigger a giant allocation.
//!
//! Every coalescible pipeline is expressed as a [`Segment`]: typed
//! whole-value inputs, one evaluation body, and a per-request response
//! formatter. The service's generic coalescer concatenates
//! fingerprint-identical requests' inputs through the split layer's
//! `Concat` capability — vector buffers end to end (`ArraySplit`),
//! images along the row axis (`ImageSplit`), DataFrames by rows
//! (`RowSplit`) — with **zero pipeline-specific concatenation code**.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

use mozart_core::{ArraySplit, DataValue, SharedVec, VecValue};
use sa_dataframe::{DfValue, RowSplit};
use sa_image::{ImageSplit, ImgValue};

use crate::error::{Result, ServeError};
use crate::service::{Pipeline, Request, Response, Segment, SegmentInput};

/// Largest accepted element count for array pipelines (128 Mi doubles
/// per input vector would already be ~1 GiB across Black Scholes'
/// twelve buffers; reject anything above).
pub const MAX_ELEMENTS: usize = 1 << 24;

/// Largest accepted image dimension (width or height). Doubles as the
/// row bound of a coalesced image evaluation.
pub const MAX_IMAGE_DIM: usize = 8192;

/// Generated inputs a pipeline keeps per parameter key, at most.
const MEMO_CAPACITY: usize = 8;

/// A bounded `key -> Arc<value>` memo: at capacity, an arbitrary entry
/// is evicted before inserting (steady-state serving repeats one key;
/// the bound only matters against adversarial key churn).
struct Memo<K, V>(Mutex<HashMap<K, Arc<V>>>);

impl<K: Eq + Hash + Clone, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo(Mutex::new(HashMap::new()))
    }
}

impl<K: Eq + Hash + Clone, V> Memo<K, V> {
    fn get_or_insert_with(&self, key: K, make: impl FnOnce() -> V) -> Arc<V> {
        let mut map = self.0.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(v) = map.get(&key) {
            return v.clone();
        }
        if map.len() >= MEMO_CAPACITY {
            if let Some(evict) = map.keys().next().cloned() {
                map.remove(&evict);
            }
        }
        let v = Arc::new(make());
        map.insert(key, v.clone());
        v
    }
}

fn bounded(req: &Request, key: &str, default: usize, max: usize) -> Result<usize> {
    let v = req.usize_or(key, default)?;
    if v == 0 || v > max {
        return Err(ServeError::BadRequest(format!(
            "parameter {key}={v} out of range (1..={max})"
        )));
    }
    Ok(v)
}

/// Coalescing key: a hash of the pipeline name and its shape-bearing
/// parameters. Requests with equal keys register identical pending call
/// graphs — same annotations, same split types, same shape parameters —
/// so their pending-segment fingerprints (the plan-cache key) match and
/// a concatenated evaluation is structurally sound; the seed changes
/// only input *values*, never the shape. Any unparsable parameter
/// returns `None` so the malformed request takes the single path and
/// reports its error there — it must never join a batch and fail valid
/// peers.
fn shape_key(pipeline: &str, req: &Request, dims: &[Result<usize>]) -> Option<u64> {
    req.u64_or("seed", 0).ok()?;
    // FNV-1a over the pipeline name and shape dimensions.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(pipeline.as_bytes());
    for d in dims {
        let d = *d.as_ref().ok()?;
        mix(&d.to_le_bytes());
    }
    Some(h)
}

/// Wrap a `Vec<f64>` as a shared-buffer `DataValue` input.
fn vec_input(v: &[f64]) -> SegmentInput {
    SegmentInput::new(
        DataValue::new(VecValue(SharedVec::from_vec(v.to_vec()))),
        Arc::new(ArraySplit),
    )
}

/// Downcast one of a segment evaluation's inputs back to a shared
/// buffer.
fn vec_arg(inputs: &[DataValue], i: usize) -> mozart_core::Result<SharedVec<f64>> {
    inputs
        .get(i)
        .and_then(|v| v.downcast_ref::<VecValue>())
        .map(|v| v.0.clone())
        .ok_or_else(|| mozart_core::Error::Library(format!("segment input {i} is not a vector")))
}

/// Downcast one of a request's sliced outputs back to a shared buffer.
fn vec_out(outs: &[DataValue], i: usize) -> mozart_core::Result<SharedVec<f64>> {
    outs.get(i)
        .and_then(|v| v.downcast_ref::<VecValue>())
        .map(|v| v.0.clone())
        .ok_or_else(|| mozart_core::Error::Library(format!("segment output {i} is not a vector")))
}

/// Black Scholes options pricing through the annotated MKL-style
/// wrappers (27 pipelined in-place vector calls). Parameters: `n`
/// (option count, default 8192), `seed`.
#[derive(Default)]
pub struct BlackScholesPipeline {
    inputs: Memo<(usize, u64), workloads::black_scholes::Inputs>,
}

impl BlackScholesPipeline {
    /// Parse one request and fetch (or generate) its memoized inputs.
    fn request_inputs(&self, req: &Request) -> Result<Arc<workloads::black_scholes::Inputs>> {
        let n = bounded(req, "n", 8192, MAX_ELEMENTS)?;
        let seed = req.u64_or("seed", 42)?;
        Ok(self
            .inputs
            .get_or_insert_with((n, seed), || workloads::black_scholes::generate(n, seed)))
    }
}

fn black_scholes_response(summary: &workloads::black_scholes::Summary) -> Response {
    Response::new(format!(
        "call_sum={:.6} put_sum={:.6}",
        summary.call_sum, summary.put_sum
    ))
}

impl Pipeline for BlackScholesPipeline {
    fn name(&self) -> &'static str {
        "black_scholes"
    }

    fn coalesce_key(&self, req: &Request) -> Option<u64> {
        shape_key(
            "black_scholes",
            req,
            &[bounded(req, "n", 8192, MAX_ELEMENTS)],
        )
    }

    fn segment(&self, req: &Request) -> Option<mozart_core::Result<Segment>> {
        let inputs = match self.request_inputs(req).map_err(to_library_error) {
            Ok(i) => i,
            Err(e) => return Some(Err(e)),
        };
        Some(Ok(Segment {
            inputs: vec![
                vec_input(&inputs.price),
                vec_input(&inputs.strike),
                vec_input(&inputs.t),
                vec_input(&inputs.rate),
                vec_input(&inputs.vol),
            ],
            outputs: vec![Arc::new(ArraySplit), Arc::new(ArraySplit)],
            max_total_elements: MAX_ELEMENTS as u64,
            eval: Box::new(|ctx, inputs| {
                let (price, strike, t, rate, vol) = (
                    vec_arg(inputs, 0)?,
                    vec_arg(inputs, 1)?,
                    vec_arg(inputs, 2)?,
                    vec_arg(inputs, 3)?,
                    vec_arg(inputs, 4)?,
                );
                let (call, put) =
                    workloads::black_scholes::mkl_chain(ctx, &price, &strike, &t, &rate, &vol)?;
                // Evaluate explicitly inside the admission window: a bare
                // protected read (`as_slice`) would swallow a failed
                // evaluation and hand back stale zeros instead of the
                // typed error the retry layer needs.
                ctx.evaluate()?;
                Ok(vec![
                    DataValue::new(VecValue(call)),
                    DataValue::new(VecValue(put)),
                ])
            }),
            respond: Box::new(|outs| {
                let (call, put) = (vec_out(outs, 0)?, vec_out(outs, 1)?);
                Ok(black_scholes_response(
                    &workloads::black_scholes::summarize_range(call.as_slice(), put.as_slice()),
                ))
            }),
        }))
    }
}

/// Haversine distance through the annotated MKL-style wrappers.
/// Parameters: `n` (coordinate count, default 8192), `seed`.
#[derive(Default)]
pub struct HaversinePipeline {
    inputs: Memo<(usize, u64), workloads::haversine::Inputs>,
}

impl HaversinePipeline {
    fn request_inputs(&self, req: &Request) -> Result<Arc<workloads::haversine::Inputs>> {
        let n = bounded(req, "n", 8192, MAX_ELEMENTS)?;
        let seed = req.u64_or("seed", 42)?;
        Ok(self
            .inputs
            .get_or_insert_with((n, seed), || workloads::haversine::generate(n, seed)))
    }
}

fn haversine_response(distances: &[f64]) -> Response {
    // Serial slice sum (not the annotated reduction): a coalesced
    // evaluation's per-request slice then sums the same values in the
    // same order as a separate evaluation — identical responses.
    Response::new(format!("dist_sum={:.6}", distances.iter().sum::<f64>()))
}

impl Pipeline for HaversinePipeline {
    fn name(&self) -> &'static str {
        "haversine"
    }

    fn coalesce_key(&self, req: &Request) -> Option<u64> {
        shape_key("haversine", req, &[bounded(req, "n", 8192, MAX_ELEMENTS)])
    }

    fn segment(&self, req: &Request) -> Option<mozart_core::Result<Segment>> {
        let inputs = match self.request_inputs(req).map_err(to_library_error) {
            Ok(i) => i,
            Err(e) => return Some(Err(e)),
        };
        Some(Ok(Segment {
            inputs: vec![vec_input(&inputs.lat), vec_input(&inputs.lon)],
            outputs: vec![Arc::new(ArraySplit)],
            max_total_elements: MAX_ELEMENTS as u64,
            eval: Box::new(|ctx, inputs| {
                let (lat, lon) = (vec_arg(inputs, 0)?, vec_arg(inputs, 1)?);
                let d = workloads::haversine::mkl_chain(ctx, &lat, &lon)?;
                // Explicit evaluation: surface faults typed rather than
                // poisoning the context behind a protected read.
                ctx.evaluate()?;
                Ok(vec![DataValue::new(VecValue(d))])
            }),
            respond: Box::new(|outs| {
                let d = vec_out(outs, 0)?;
                Ok(haversine_response(d.as_slice()))
            }),
        }))
    }
}

/// The Nashville instagram-filter chain over a synthetic photograph.
/// Parameters: `width` (default 640), `height` (default 480), `seed`.
///
/// Coalescible: every filter is per-pixel, so several requests'
/// photographs stack along the **row axis** (`ImageSplit`'s `Concat`
/// capability), evaluate as one image, and slice back into per-request
/// row bands bit-identically.
#[derive(Default)]
pub struct NashvillePipeline {
    images: Memo<(usize, usize, u64), imagelib::Image>,
}

impl NashvillePipeline {
    fn request_image(&self, req: &Request) -> Result<Arc<imagelib::Image>> {
        let width = bounded(req, "width", 640, MAX_IMAGE_DIM)?;
        let height = bounded(req, "height", 480, MAX_IMAGE_DIM)?;
        let seed = req.u64_or("seed", 7)?;
        Ok(self.images.get_or_insert_with((width, height, seed), || {
            workloads::images::generate(width, height, seed)
        }))
    }
}

impl Pipeline for NashvillePipeline {
    fn name(&self) -> &'static str {
        "nashville"
    }

    fn coalesce_key(&self, req: &Request) -> Option<u64> {
        // Width must match for row-axis stacking (ImageSplit::concat
        // rejects mismatches); equal heights additionally keep the
        // per-request pending-shape fingerprints identical.
        shape_key(
            "nashville",
            req,
            &[
                bounded(req, "width", 640, MAX_IMAGE_DIM),
                bounded(req, "height", 480, MAX_IMAGE_DIM),
            ],
        )
    }

    fn segment(&self, req: &Request) -> Option<mozart_core::Result<Segment>> {
        let img = match self.request_image(req).map_err(to_library_error) {
            Ok(i) => i,
            Err(e) => return Some(Err(e)),
        };
        Some(Ok(Segment {
            inputs: vec![SegmentInput::new(
                DataValue::new(ImgValue(img.as_ref().clone())),
                Arc::new(ImageSplit),
            )],
            outputs: vec![Arc::new(ImageSplit)],
            max_total_elements: MAX_IMAGE_DIM as u64, // total stacked rows
            eval: Box::new(|ctx, inputs| {
                let img = inputs
                    .first()
                    .and_then(|v| v.downcast_ref::<ImgValue>())
                    .map(|v| v.0.clone())
                    .ok_or_else(|| {
                        mozart_core::Error::Library("segment input 0 is not an image".into())
                    })?;
                let out = workloads::images::nashville_mozart_image(&img, ctx)?;
                Ok(vec![DataValue::new(ImgValue(out))])
            }),
            respond: Box::new(|outs| {
                let img = outs
                    .first()
                    .and_then(|v| v.downcast_ref::<ImgValue>())
                    .map(|v| v.0.clone())
                    .ok_or_else(|| {
                        mozart_core::Error::Library("segment output 0 is not an image".into())
                    })?;
                Ok(Response::new(format!(
                    "mean={:.6}",
                    workloads::images::image_mean(&img)
                )))
            }),
        }))
    }
}

/// The Crime Index per-city scoring chain over a synthetic statistics
/// frame (row-preserving: no big-city filter, so output rows align with
/// input rows). Parameters: `rows` (city count, default 4096), `seed`.
///
/// Coalescible: requests' frames concatenate by row (`RowSplit`'s
/// `Concat` capability), the per-row arithmetic evaluates once, and
/// each request's score rows slice back out; the response sums them
/// serially, so coalesced and separate evaluations are bit-identical.
#[derive(Default)]
pub struct CrimeIndexPipeline {
    frames: Memo<(usize, u64), dataframe::DataFrame>,
}

impl CrimeIndexPipeline {
    fn request_frame(&self, req: &Request) -> Result<Arc<dataframe::DataFrame>> {
        let rows = bounded(req, "rows", 4096, MAX_ELEMENTS)?;
        let seed = req.u64_or("seed", 17)?;
        Ok(self.frames.get_or_insert_with((rows, seed), || {
            workloads::crime_index::generate(rows, seed)
        }))
    }
}

impl Pipeline for CrimeIndexPipeline {
    fn name(&self) -> &'static str {
        "crime_index"
    }

    fn coalesce_key(&self, req: &Request) -> Option<u64> {
        shape_key(
            "crime_index",
            req,
            &[bounded(req, "rows", 4096, MAX_ELEMENTS)],
        )
    }

    fn segment(&self, req: &Request) -> Option<mozart_core::Result<Segment>> {
        let frame = match self.request_frame(req).map_err(to_library_error) {
            Ok(f) => f,
            Err(e) => return Some(Err(e)),
        };
        Some(Ok(Segment {
            inputs: vec![SegmentInput::new(
                DataValue::new(DfValue(frame.as_ref().clone())),
                RowSplit::shared(),
            )],
            outputs: vec![RowSplit::shared()],
            max_total_elements: MAX_ELEMENTS as u64,
            eval: Box::new(|ctx, inputs| {
                let df = inputs
                    .first()
                    .and_then(|v| v.downcast_ref::<DfValue>())
                    .map(|v| v.0.clone())
                    .ok_or_else(|| {
                        mozart_core::Error::Library("segment input 0 is not a DataFrame".into())
                    })?;
                let scores = workloads::crime_index::score_mozart(&df, ctx)?;
                Ok(vec![DataValue::new(sa_dataframe::ColValue(scores))])
            }),
            respond: Box::new(|outs| {
                let col = outs
                    .first()
                    .and_then(|v| v.downcast_ref::<sa_dataframe::ColValue>())
                    .map(|v| v.0.clone())
                    .ok_or_else(|| {
                        mozart_core::Error::Library("segment output 0 is not a column".into())
                    })?;
                // Serial slice sum: identical to separate evaluation.
                Ok(Response::new(format!(
                    "index_sum={:.6}",
                    col.f64s().iter().sum::<f64>()
                )))
            }),
        }))
    }
}

/// The full built-in pipeline set: two vector pipelines, one image
/// pipeline, one DataFrame pipeline — all coalescible through the
/// generic split-layer path.
pub fn builtin_pipelines() -> Vec<Arc<dyn Pipeline>> {
    vec![
        Arc::new(BlackScholesPipeline::default()),
        Arc::new(HaversinePipeline::default()),
        Arc::new(NashvillePipeline::default()),
        Arc::new(CrimeIndexPipeline::default()),
    ]
}

/// Pipelines report parameter problems through the runtime error type
/// (the service maps them back to `ServeError::Runtime`; wire clients
/// still see the message).
fn to_library_error(e: ServeError) -> mozart_core::Error {
    mozart_core::Error::Library(e.to_string())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn memo_is_bounded() {
        let memo: Memo<usize, usize> = Memo::default();
        for k in 0..(MEMO_CAPACITY * 3) {
            let v = memo.get_or_insert_with(k, || k * 10);
            assert_eq!(*v, k * 10);
        }
        let map = memo.0.lock().unwrap();
        assert!(map.len() <= MEMO_CAPACITY);
    }

    #[test]
    fn shape_key_rejects_unparsable_params() {
        // A request that cannot parse must never join a coalesced
        // batch (it would fail every valid peer); it takes the single
        // path and reports its own error there.
        let p = BlackScholesPipeline::default();
        let ok = Request::new().with("n", 1024).with("seed", 7u64);
        assert!(p.coalesce_key(&ok).is_some());
        let bad_seed = Request::new().with("n", 1024).with("seed", "x");
        assert!(p.coalesce_key(&bad_seed).is_none());
        let bad_n = Request::new().with("n", "x");
        assert!(p.coalesce_key(&bad_n).is_none());
        // Same n, different seeds: same key (the coalescible case).
        let a = Request::new().with("n", 1024).with("seed", 1u64);
        let b = Request::new().with("n", 1024).with("seed", 2u64);
        assert_eq!(p.coalesce_key(&a), p.coalesce_key(&b));
        // Different n: different key.
        let c = Request::new().with("n", 2048);
        assert_ne!(p.coalesce_key(&a), p.coalesce_key(&c));
        // Different pipelines never share keys for the same dims.
        let h = HaversinePipeline::default();
        assert_ne!(p.coalesce_key(&a), h.coalesce_key(&a));
    }

    #[test]
    fn image_and_frame_keys_track_their_shape_params() {
        let n = NashvillePipeline::default();
        let a = Request::new().with("width", 320).with("height", 200);
        let b = Request::new()
            .with("width", 320)
            .with("height", 200)
            .with("seed", 9u64);
        let c = Request::new().with("width", 321).with("height", 200);
        assert_eq!(n.coalesce_key(&a), n.coalesce_key(&b));
        assert_ne!(n.coalesce_key(&a), n.coalesce_key(&c));
        assert!(n.coalesce_key(&Request::new().with("seed", "x")).is_none());

        let ci = CrimeIndexPipeline::default();
        let a = Request::new().with("rows", 1000);
        let b = Request::new().with("rows", 1000).with("seed", 3u64);
        let c = Request::new().with("rows", 1001);
        assert_eq!(ci.coalesce_key(&a), ci.coalesce_key(&b));
        assert_ne!(ci.coalesce_key(&a), ci.coalesce_key(&c));
    }

    #[test]
    fn size_parameters_are_clamped() {
        let req = Request::new().with("n", usize::MAX);
        assert!(bounded(&req, "n", 8192, MAX_ELEMENTS).is_err());
        let req = Request::new().with("n", 0);
        assert!(bounded(&req, "n", 8192, MAX_ELEMENTS).is_err());
        let req = Request::new();
        assert_eq!(bounded(&req, "n", 8192, MAX_ELEMENTS).unwrap(), 8192);
    }
}
