//! The `NdSplit` split type: shape-parameterized row splitting of
//! [`NdArray`] values.
//!
//! `NdSplit` is a row-band split type ([`mozart_core::row_bands`]):
//! [`NdValue`] implements [`RowBand`] with `ndarray-lite`'s own calls
//! (`view_rows`, `concat`, `alloc_rows_uninit`, `write_rows_at`,
//! `is_exclusive`), and the runtime's one generic implementation does
//! the rest. Splits are zero-copy leading-axis views; merges are
//! leading-axis concatenation with **placement**: the shape parameters
//! `(d0, d1)` of a rank-2 array fully determine the output layout, so
//! the runtime preallocates the merged array at stage start (a rank-1
//! array's, on the first piece) and workers copy their result rows in
//! at their offsets — no per-piece collection, no final O(total)
//! concat; a released result array of the same shape that nobody else
//! holds any more is written over instead of allocating a new one. The
//! same implementation gives `NdSplit` the `Concat` capability (the
//! inverse of `split`) for the serving layer's cross-request coalescing.

use mozart_core::prelude::*;
use mozart_core::row_bands::{bands, Bands, RowBand, RowSplitter};
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
}

impl RowBand for NdValue {
    fn rows(&self) -> usize {
        self.0.rows()
    }

    fn same_cross_section(&self, other: &Self) -> bool {
        self.0.ndim() == other.0.ndim() && self.0.shape()[1..] == other.0.shape()[1..]
    }

    fn view(&self, start: usize, end: usize) -> Self {
        NdValue(self.0.view_rows(start, end))
    }

    fn concat(parts: &[&Self]) -> Self {
        let arrays: Vec<NdArray> = parts.iter().map(|p| p.0.clone()).collect();
        NdValue(ndarray_lite::concat(&arrays))
    }

    unsafe fn alloc_uninit(rows: usize, params: &Params, exemplar: Option<&Self>) -> Option<Self> {
        // `(d0, d1)` with `d1 > 0` is a rank-2 layout, allocated at
        // stage start. `d1 == 0` encodes both rank-1 arrays and
        // zero-column matrices (`params_of` conflates them), so those
        // wait for the first piece: rank 1 takes its rank, and zero
        // columns decline (nothing to place; the concat merge handles
        // the empty payload).
        let d1 = params.get(1).copied().unwrap_or(0).max(0) as usize;
        let shape = match exemplar {
            _ if d1 > 0 => vec![rows, d1],
            Some(e) if e.0.ndim() == 1 => vec![rows],
            _ => return None,
        };
        // SAFETY: forwarded contract.
        Some(NdValue(unsafe { NdArray::alloc_rows_uninit(&shape) }))
    }

    unsafe fn write_rows(&self, offset: usize, band: &Self) {
        // SAFETY: forwarded contract.
        unsafe { self.0.write_rows_at(offset, &band.0) }
    }

    fn is_exclusive(&mut self) -> bool {
        self.0.is_exclusive()
    }
}

/// Split type for `NdValue`: parameters are the array shape
/// `(d0, d1)` with `d1 = 0` for rank-1 arrays (the paper's "single
/// split type for ndarray, whose splitting behavior depends on its
/// shape"). Splits are zero-copy leading-axis views; merges
/// concatenate along the leading axis.
#[derive(Default)]
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

impl RowSplitter for NdSplit {
    const NAME: &'static str = "NdSplit";

    /// Constructor from the array argument itself (shape-derived).
    fn construct(ctor_args: &[&DataValue]) -> Result<Params> {
        let a = ctor_args
            .first()
            .and_then(|v| v.downcast_ref::<NdValue>())
            .ok_or_else(|| Error::Constructor {
                split_type: "NdSplit",
                message: "expected an ndarray argument".into(),
            })?;
        Ok(Self::params_of(&a.0))
    }

    fn info(params: &Params) -> RuntimeInfo {
        let d0 = params.first().copied().unwrap_or(0).max(0) as u64;
        let d1 = params.get(1).copied().unwrap_or(0).max(1) as u64;
        RuntimeInfo {
            total_elements: d0,
            elem_size_bytes: d1 * std::mem::size_of::<f64>() as u64,
        }
    }

    fn bands(_: Option<&DataValue>) -> &'static dyn Bands {
        bands::<Self, NdValue>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The split type's placement capability.
    fn placement() -> &'static dyn Placement {
        NdSplit.merge_strategy().placement().unwrap()
    }
    use std::sync::Arc;

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
        let p = placement();
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
            let out = p
                .alloc_merged(9, &params, Some(&p1))
                .unwrap()
                .expect("NdSplit supports placement");
            p.write_piece(&out, 4, &p2).unwrap();
            p.write_piece(&out, 0, &p1).unwrap();
            assert_eq!(out.downcast_ref::<NdValue>().unwrap().0, arr);
            // NULL-tail truncation is a zero-copy view of the prefix.
            let t = p.truncate_merged(out, 4, &params).unwrap();
            assert_eq!(t.downcast_ref::<NdValue>().unwrap().0, arr.view_rows(0, 4));
        }
        // Mis-shaped pieces and out-of-range offsets are rejected.
        let arr = NdArray::zeros(&[4, 2]);
        let params = vec![4, 2];
        let out = p.alloc_merged(4, &params, None).unwrap().unwrap();
        let wide = nd(NdArray::zeros(&[1, 3]));
        assert!(p.write_piece(&out, 0, &wide).is_err());
        let band = s.split(&nd(arr), 0..2, &params).unwrap().unwrap();
        assert!(p.write_piece(&out, 3, &band).is_err());
        // Degenerate zero-column rank-2 arrays decline placement (their
        // params are indistinguishable from rank-1) and still merge.
        let empty = nd(NdArray::from_shape_vec(&[3, 0], vec![]));
        let params = vec![3, 0];
        assert!(p.alloc_merged(3, &params, Some(&empty)).unwrap().is_none());
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
        // End-to-end through the executor: a fresh-array ndarray chain,
        // placement-written, must produce the plain library's values
        // (placement off), and the placement path must actually engage.
        crate::register_defaults();
        let arr = NdArray::from_fn(&[257usize], |i| (i as f64).sin());
        let mut cfg = mozart_core::Config::with_workers(3);
        cfg.batch_override = Some(16);
        let ctx = mozart_core::MozartContext::new(cfg);
        let h = crate::sqrt(&ctx, &crate::square(&ctx, &arr).unwrap()).unwrap();
        let on = crate::get(&h).unwrap();
        let off = ndarray_lite::sqrt(&ndarray_lite::square(&arr));
        assert_eq!(on, off, "placement must not change values");
        let stats = ctx.stats();
        assert!(stats.placement_writes > 0, "{stats:?}");
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

    #[test]
    fn merge_of_mismatched_pieces_is_a_merge_error() {
        // `ndarray_lite::concat` asserts on these; the merge checks the
        // trailing shapes first.
        let s = NdSplit;
        let mismatched = [
            (NdArray::zeros(&[2, 2]), NdArray::zeros(&[1, 3])),
            (NdArray::zeros(&[2, 2]), NdArray::zeros(&[1])),
        ];
        for (a, b) in mismatched {
            let err = s.merge(vec![nd(a), nd(b)], &vec![3, 2], 3).unwrap_err();
            assert!(
                matches!(
                    err,
                    Error::Merge {
                        split_type: "NdSplit",
                        ..
                    }
                ),
                "{err:?}"
            );
        }
    }
}
