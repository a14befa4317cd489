//! The `NdSplit` split type: shape-parameterized row splitting of
//! [`NdArray`] values.
//!
//! Merges are leading-axis concatenation with **placement** support:
//! the shape parameters `(d0, d1)` fully determine the output layout,
//! so the runtime preallocates the merged array at stage start and
//! workers copy their result rows in at their offsets
//! ([`NdArray::write_rows_at`]) — no per-piece collection, no final
//! O(total) concat; a released result array of the same shape that
//! nobody else holds any more is written over instead of allocating a
//! new one ([`Placement::reuse`]). `NdSplit` also exposes the [`Concat`] capability
//! (the inverse of `split`) for the serving layer's generic
//! cross-request coalescing.

use std::ops::Range;

use std::sync::Arc;

use mozart_core::prelude::*;
use ndarray_lite::NdArray;

/// `DataValue` wrapper for [`NdArray`].
///
/// Arrays are immutable/functional, so no stable identity or protection
/// flag is needed: results flow through `Future`s, never in-place.
#[derive(Debug, Clone)]
pub struct NdValue(pub NdArray);

impl mozart_core::value::DataObject for NdValue {
    fn type_name(&self) -> &'static str {
        "NdValue"
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Split type for `NdValue`: parameters are the array shape
/// `(d0, d1)` with `d1 = 0` for rank-1 arrays (the paper's "single
/// split type for ndarray, whose splitting behavior depends on its
/// shape"). Splits are zero-copy leading-axis views; merges
/// concatenate along the leading axis.
pub struct NdSplit;

impl NdSplit {
    fn params_of(a: &NdArray) -> Params {
        match a.shape() {
            [n] => vec![*n as i64, 0],
            [r, c] => vec![*r as i64, *c as i64],
            other => unreachable!("rank {} arrays are unrepresentable", other.len()),
        }
    }
}

impl Splitter for NdSplit {
    fn name(&self) -> &'static str {
        "NdSplit"
    }

    /// Constructor from the array argument itself (shape-derived).
    fn construct(&self, ctor_args: &[&DataValue]) -> Result<Params> {
        let a = ctor_args
            .first()
            .and_then(|v| v.downcast_ref::<NdValue>())
            .ok_or_else(|| Error::Constructor {
                split_type: "NdSplit",
                message: "expected an ndarray argument".into(),
            })?;
        Ok(Self::params_of(&a.0))
    }

    fn info(&self, _arg: &DataValue, params: &Params) -> Result<RuntimeInfo> {
        let d0 = params.first().copied().unwrap_or(0).max(0) as u64;
        let d1 = params.get(1).copied().unwrap_or(0).max(1) as u64;
        Ok(RuntimeInfo {
            total_elements: d0,
            elem_size_bytes: d1 * std::mem::size_of::<f64>() as u64,
        })
    }

    fn split(
        &self,
        arg: &DataValue,
        range: Range<u64>,
        params: &Params,
    ) -> Result<Option<DataValue>> {
        let a = arg.downcast_ref::<NdValue>().ok_or_else(|| Error::Split {
            split_type: "NdSplit",
            message: format!("expected NdValue, got {}", arg.type_name()),
        })?;
        if Self::params_of(&a.0) != *params {
            return Err(Error::Split {
                split_type: "NdSplit",
                message: format!(
                    "array shape {:?} does not match split type parameters {params:?}",
                    a.0.shape()
                ),
            });
        }
        let d0 = params[0].max(0) as u64;
        if range.start >= d0 {
            return Ok(None);
        }
        let end = range.end.min(d0);
        Ok(Some(DataValue::new(NdValue(
            a.0.view_rows(range.start as usize, end as usize),
        ))))
    }

    fn merge(
        &self,
        pieces: Vec<DataValue>,
        _params: &Params,
        _total_elements: u64,
    ) -> Result<DataValue> {
        let arrays: Vec<NdArray> = pieces
            .iter()
            .map(|p| {
                p.downcast_ref::<NdValue>()
                    .map(|v| v.0.clone())
                    .ok_or_else(|| Error::Merge {
                        split_type: "NdSplit",
                        message: format!("expected NdValue piece, got {}", p.type_name()),
                    })
            })
            .collect::<Result<_>>()?;
        Ok(DataValue::new(NdValue(ndarray_lite::concat(&arrays))))
    }

    fn merge_strategy(&self) -> MergeStrategy {
        MergeStrategy::Concat {
            placement: Some(Arc::new(NdSplit)),
        }
    }

    fn concat(&self) -> Option<Arc<dyn Concat>> {
        Some(Arc::new(NdSplit))
    }
}

impl Placement for NdSplit {
    fn alloc_merged(
        &self,
        total_elements: u64,
        params: &Params,
        exemplar: Option<&DataValue>,
    ) -> Result<Option<DataValue>> {
        // `(d0, d1)` with `d1 > 0` is unambiguously a rank-2 layout, so
        // allocation happens at stage start (exemplar not needed):
        // first-touch page faults run on the caller while the pool is
        // still parked. `d1 == 0` encodes BOTH rank-1 arrays and
        // degenerate zero-column matrices (`params_of` conflates them),
        // so those wait for the first piece and take its rank.
        // `total_elements` replaces `d0` — a stage's element total can
        // exceed one input's row count only if the annotation is
        // broken, and `write_piece` bounds-checks anyway.
        let d1 = params.get(1).copied().unwrap_or(0).max(0) as usize;
        let shape: Vec<usize> = if d1 > 0 {
            vec![total_elements as usize, d1]
        } else {
            match exemplar.and_then(|e| e.downcast_ref::<NdValue>()) {
                None => return Ok(None), // stage-start probe: rank unknown yet
                Some(e) if e.0.ndim() == 1 => vec![total_elements as usize],
                // Zero-column rank-2 pieces: nothing to place, and the
                // concat merge handles the empty payload fine.
                Some(_) => return Ok(None),
            }
        };
        // SAFETY: the executor's coverage check guarantees every row of
        // the placement output is written before the merged value is
        // released (or it is truncated to a view of the written
        // prefix), so the unspecified initial contents are never read.
        let out = unsafe { NdArray::alloc_rows_uninit(&shape) };
        Ok(Some(DataValue::new(NdValue(out))))
    }

    fn reuse(
        &self,
        spare: DataValue,
        total_elements: u64,
        params: &Params,
        exemplar: Option<&DataValue>,
    ) -> Option<DataValue> {
        // The shape `alloc_merged` would allocate for these arguments
        // (and `None` exactly where it would decline).
        let d1 = params.get(1).copied().unwrap_or(0).max(0) as usize;
        let shape: Vec<usize> = if d1 > 0 {
            vec![total_elements as usize, d1]
        } else {
            match exemplar?.downcast_ref::<NdValue>()? {
                e if e.0.ndim() == 1 => vec![total_elements as usize],
                _ => return None,
            }
        };
        let mut arr = spare.downcast_ref::<NdValue>()?.0.clone();
        // Let go of the wrapper first: if it was the last one, `arr` is
        // now the only handle a sole owner of the buffer would have.
        drop(spare);
        (arr.shape() == shape && arr.is_exclusive()).then(|| DataValue::new(NdValue(arr)))
    }

    fn write_piece(&self, out: &DataValue, offset: u64, piece: &DataValue) -> Result<u64> {
        let dst = out.downcast_ref::<NdValue>().ok_or_else(|| Error::Merge {
            split_type: "NdSplit",
            message: format!("placement output is {}, not NdValue", out.type_name()),
        })?;
        let band = piece
            .downcast_ref::<NdValue>()
            .ok_or_else(|| Error::Merge {
                split_type: "NdSplit",
                message: format!("expected NdValue piece, got {}", piece.type_name()),
            })?;
        let offset = offset as usize;
        let rows = band.0.shape()[0];
        if band.0.ndim() != dst.0.ndim()
            || band.0.shape()[1..] != dst.0.shape()[1..]
            || offset
                .checked_add(rows)
                .is_none_or(|e| e > dst.0.shape()[0])
        {
            return Err(Error::Merge {
                split_type: "NdSplit",
                message: format!(
                    "piece of shape {:?} at row {offset} does not fit output {:?}",
                    band.0.shape(),
                    dst.0.shape()
                ),
            });
        }
        // SAFETY: the executor guarantees concurrent `write_piece` calls
        // cover disjoint row ranges of the not-yet-observable output;
        // shape and bounds were checked above.
        unsafe { dst.0.write_rows_at(offset, &band.0) };
        Ok(rows as u64)
    }

    fn truncate_merged(
        &self,
        out: DataValue,
        elements: u64,
        _params: &Params,
    ) -> Result<DataValue> {
        let a = out.downcast_ref::<NdValue>().ok_or_else(|| Error::Merge {
            split_type: "NdSplit",
            message: format!("placement output is {}, not NdValue", out.type_name()),
        })?;
        // NULL-split tail: the written prefix as a zero-copy row view.
        let rows = (elements as usize).min(a.0.shape()[0]);
        Ok(DataValue::new(NdValue(a.0.view_rows(0, rows))))
    }
}

impl Concat for NdSplit {
    fn concat(&self, values: &[DataValue]) -> Result<(DataValue, Vec<u64>)> {
        let arrays: Vec<NdArray> = values
            .iter()
            .map(|v| {
                v.downcast_ref::<NdValue>()
                    .map(|v| v.0.clone())
                    .ok_or_else(|| Error::Merge {
                        split_type: "NdSplit",
                        message: format!("expected NdValue, got {}", v.type_name()),
                    })
            })
            .collect::<Result<_>>()?;
        if arrays.is_empty() {
            return Err(Error::Merge {
                split_type: "NdSplit",
                message: "nothing to concatenate".into(),
            });
        }
        if arrays[1..]
            .iter()
            .any(|a| a.ndim() != arrays[0].ndim() || a.shape()[1..] != arrays[0].shape()[1..])
        {
            return Err(Error::Merge {
                split_type: "NdSplit",
                message: "trailing shape mismatch across concatenated arrays".into(),
            });
        }
        let mut offsets = Vec::with_capacity(arrays.len());
        let mut rows = 0u64;
        for a in &arrays {
            offsets.push(rows);
            rows += a.shape()[0] as u64;
        }
        Ok((
            DataValue::new(NdValue(ndarray_lite::concat(&arrays))),
            offsets,
        ))
    }

    fn slice_back(&self, out: &DataValue, offset: u64, len: u64) -> Result<DataValue> {
        let a = out.downcast_ref::<NdValue>().ok_or_else(|| Error::Merge {
            split_type: "NdSplit",
            message: format!("expected NdValue, got {}", out.type_name()),
        })?;
        let (offset, len) = (offset as usize, len as usize);
        if offset.checked_add(len).is_none_or(|e| e > a.0.shape()[0]) {
            return Err(Error::Merge {
                split_type: "NdSplit",
                message: format!(
                    "slice [{offset}, {offset}+{len}) exceeds {} rows",
                    a.0.shape()[0]
                ),
            });
        }
        Ok(DataValue::new(NdValue(a.0.view_rows(offset, offset + len))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nd(a: NdArray) -> DataValue {
        DataValue::new(NdValue(a))
    }

    #[test]
    fn shape_parameterization() {
        let s = NdSplit;
        let v1 = nd(NdArray::from_vec(vec![0.0; 7]));
        assert_eq!(s.construct(&[&v1]).unwrap(), vec![7, 0]);
        let v2 = nd(NdArray::zeros(&[3, 5]));
        assert_eq!(s.construct(&[&v2]).unwrap(), vec![3, 5]);
        // Dependent types: different shapes never pipeline.
        let a = SplitInstance::new(std::sync::Arc::new(NdSplit), vec![3, 5]);
        let b = SplitInstance::new(std::sync::Arc::new(NdSplit), vec![5, 3]);
        assert!(!a.same_type(&b));
    }

    #[test]
    fn split_merge_roundtrip_rank2() {
        let s = NdSplit;
        let arr = NdArray::from_shape_vec(&[4, 2], (0..8).map(|i| i as f64).collect());
        let params = vec![4, 2];
        let p1 = s.split(&nd(arr.clone()), 0..2, &params).unwrap().unwrap();
        let p2 = s.split(&nd(arr.clone()), 2..4, &params).unwrap().unwrap();
        let merged = s.merge(vec![p1, p2], &params, 4).unwrap();
        assert_eq!(merged.downcast_ref::<NdValue>().unwrap().0, arr);
        assert!(s.split(&nd(arr), 4..6, &params).unwrap().is_none());
    }

    #[test]
    fn stale_params_rejected() {
        let s = NdSplit;
        let arr = nd(NdArray::zeros(&[4, 2]));
        assert!(s.split(&arr, 0..2, &vec![5, 2]).is_err());
    }

    #[test]
    fn placement_roundtrip_rank1_and_rank2() {
        // NdSplit placement (PR 3 ROADMAP leftover): params determine
        // the layout, so allocation succeeds without an exemplar, and
        // out-of-order row writes reproduce the concat merge exactly.
        let s = NdSplit;
        for shape in [vec![9usize], vec![9, 3]] {
            let arr = NdArray::from_fn(&shape, |i| i as f64);
            let params = NdSplit::params_of(&arr);
            let p1 = s.split(&nd(arr.clone()), 0..4, &params).unwrap().unwrap();
            let p2 = s.split(&nd(arr.clone()), 4..9, &params).unwrap().unwrap();
            // Rank-2 shapes allocate from params alone (stage start);
            // d1 == 0 is ambiguous (rank-1 vs zero-column rank-2), so
            // rank-1 allocation waits for the first piece.
            let out = Placement::alloc_merged(&s, 9, &params, Some(&p1))
                .unwrap()
                .expect("NdSplit supports placement");
            s.write_piece(&out, 4, &p2).unwrap();
            s.write_piece(&out, 0, &p1).unwrap();
            assert_eq!(out.downcast_ref::<NdValue>().unwrap().0, arr);
            // NULL-tail truncation is a zero-copy view of the prefix.
            let t = s.truncate_merged(out, 4, &params).unwrap();
            assert_eq!(t.downcast_ref::<NdValue>().unwrap().0, arr.view_rows(0, 4));
        }
        // Mis-shaped pieces and out-of-range offsets are rejected.
        let arr = NdArray::zeros(&[4, 2]);
        let params = vec![4, 2];
        let out = Placement::alloc_merged(&s, 4, &params, None)
            .unwrap()
            .unwrap();
        let wide = nd(NdArray::zeros(&[1, 3]));
        assert!(s.write_piece(&out, 0, &wide).is_err());
        let band = s.split(&nd(arr), 0..2, &params).unwrap().unwrap();
        assert!(s.write_piece(&out, 3, &band).is_err());
        // Degenerate zero-column rank-2 arrays decline placement (their
        // params are indistinguishable from rank-1) and still merge.
        let empty = nd(NdArray::from_shape_vec(&[3, 0], vec![]));
        let params = vec![3, 0];
        assert!(Placement::alloc_merged(&s, 3, &params, Some(&empty))
            .unwrap()
            .is_none());
        let p = s.split(&empty, 0..2, &params).unwrap().unwrap();
        let q = s.split(&empty, 2..3, &params).unwrap().unwrap();
        let merged = s.merge(vec![p, q], &params, 3).unwrap();
        assert_eq!(merged.downcast_ref::<NdValue>().unwrap().0.shape(), &[3, 0]);
    }

    #[test]
    fn concat_capability_roundtrips() {
        let s = NdSplit;
        let cap = Splitter::concat(&s).expect("NdSplit exposes Concat");
        let a = NdArray::from_shape_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = NdArray::from_shape_vec(&[1, 2], vec![5.0, 6.0]);
        let (cat, offsets) = cap.concat(&[nd(a.clone()), nd(b.clone())]).unwrap();
        assert_eq!(offsets, vec![0, 2]);
        let cat_arr = &cat.downcast_ref::<NdValue>().unwrap().0;
        assert_eq!(cat_arr.shape(), &[3, 2]);
        assert_eq!(
            cap.slice_back(&cat, 2, 1)
                .unwrap()
                .downcast_ref::<NdValue>()
                .unwrap()
                .0,
            b
        );
        assert_eq!(
            cap.slice_back(&cat, 0, 2)
                .unwrap()
                .downcast_ref::<NdValue>()
                .unwrap()
                .0,
            a
        );
        // Shape mismatches and out-of-range slices are typed errors.
        assert!(cap.concat(&[nd(a), nd(NdArray::zeros(&[1, 3]))]).is_err());
        assert!(cap.slice_back(&cat, 2, 2).is_err());
    }

    #[test]
    fn numpy_pipeline_placement_on_off_identical() {
        // End-to-end through the executor: a fresh-array ndarray chain
        // with placement on must produce the same values as with it
        // off, and the placement path must actually engage.
        crate::register_defaults();
        let arr = NdArray::from_fn(&[257usize], |i| (i as f64).sin());
        let run = |placement: bool| {
            let mut cfg = mozart_core::Config::with_workers(3);
            cfg.batch_override = Some(16);
            cfg.placement_merge = placement;
            let ctx = mozart_core::MozartContext::new(cfg);
            let h = crate::sqrt(&ctx, &crate::square(&ctx, &arr).unwrap()).unwrap();
            let out = crate::get(&h).unwrap();
            (out, ctx.stats())
        };
        let (on, stats_on) = run(true);
        let (off, stats_off) = run(false);
        assert_eq!(on, off, "placement must not change values");
        assert!(stats_on.placement_writes > 0, "{stats_on:?}");
        assert_eq!(stats_off.placement_writes, 0);
    }

    #[test]
    fn released_result_arrays_are_reused_bit_identically() {
        // Rank 1 resolves its target on the first piece, rank 2 at
        // stage start: both write over the released previous result on
        // a warm plan cache, never over one the caller still holds.
        crate::register_defaults();
        for shape in [vec![257usize], vec![64, 3]] {
            let arr = NdArray::from_fn(&shape, |i| (i as f64).sin());
            let eval = |cache: &Arc<mozart_core::PlanCache>, workers: usize| {
                let mut cfg = mozart_core::Config::with_workers(workers);
                cfg.batch_override = Some(16);
                let ctx = mozart_core::MozartContext::new(cfg);
                ctx.attach_plan_cache(cache.clone());
                let h = crate::sqrt(&ctx, &crate::square(&ctx, &arr).unwrap()).unwrap();
                let out = crate::get(&h).unwrap();
                drop(h);
                (out, ctx.stats())
            };
            for workers in [1, 2] {
                let (cold, _) = eval(&Arc::new(mozart_core::PlanCache::new(4)), workers);
                let cache = Arc::new(mozart_core::PlanCache::new(4));
                let (first, _) = eval(&cache, workers);
                let (second, stats) = eval(&cache, workers);
                assert_eq!(stats.merge_targets_reused, 0, "{shape:?}: first is held");
                assert!(!first.shares_storage(&second));
                assert_eq!(first, cold);
                let addr = second.storage_addr();
                drop((first, second));
                let (third, stats) = eval(&cache, workers);
                assert_eq!(
                    (stats.merge_targets_reused, stats.merge_targets_allocated),
                    (1, 0),
                    "{shape:?}, {workers} workers"
                );
                assert_eq!(third.storage_addr(), addr);
                assert_eq!(third, cold);
            }
        }
    }

    #[test]
    fn info_accounts_row_bytes() {
        let s = NdSplit;
        let i = s.info(&nd(NdArray::zeros(&[10, 4])), &vec![10, 4]).unwrap();
        assert_eq!(i.total_elements, 10);
        assert_eq!(i.elem_size_bytes, 32);
        let i = s.info(&nd(NdArray::zeros(&[10])), &vec![10, 0]).unwrap();
        assert_eq!(i.elem_size_bytes, 8);
    }
}
