//! `ArraySplit` — the paper's canonical split type (§2.1, §3.2): a C
//! array split into regularly-sized pieces. Parameter: the array length.
//!
//! `ArraySplit` is a row-band split type ([`crate::row_bands`]) whose
//! rows are the elements of a [`VecValue`]. Pieces are views of the
//! buffer they were split from, so functions that mutate their output
//! argument write directly into the final location, and pieces that
//! follow each other in one buffer concatenate to the view spanning
//! them, without a copy: no merge is required (the MKL convention,
//! §3.3).
//!
//! Functions that instead *return* freshly allocated arrays per batch
//! merge by **placement**: the runtime allocates one buffer of the full
//! length on the first piece and workers copy their pieces in at their
//! element offsets. A piece that is a view of part of a buffer declines
//! placement, since its concat is cheaper than any copy. A released
//! target of the right length that nobody else holds any more is
//! written over instead of allocating a new one. The same row band
//! gives `ArraySplit` the [`Concat`](crate::split::Concat) capability
//! that the serving layer's cross-request coalescing rides on.

use std::sync::Arc;

use crate::buffer::{SharedVec, VecValue};
use crate::error::{Error, Result};
use crate::registry::register_default_splitter;
use crate::row_bands::{bands, Bands, RowBand, RowSplitter};
use crate::split::{Params, RuntimeInfo};
use crate::value::DataValue;

impl RowBand for VecValue {
    fn rows(&self) -> usize {
        self.0.len()
    }

    fn same_cross_section(&self, _: &Self) -> bool {
        true
    }

    fn view(&self, start: usize, end: usize) -> Self {
        VecValue(self.0.view(start, end))
    }

    fn concat(parts: &[&Self]) -> Self {
        if let Some(all) = SharedVec::spanning(parts.iter().map(|p| &p.0)) {
            return VecValue(all);
        }
        let mut out = Vec::with_capacity(parts.iter().map(|p| p.0.len()).sum());
        for p in parts {
            out.extend_from_slice(p.0.as_slice());
        }
        VecValue(SharedVec::from_vec(out))
    }

    unsafe fn alloc_uninit(rows: usize, _: &Params, exemplar: Option<&Self>) -> Option<Self> {
        // Whether placement pays depends on what the pieces are, so the
        // stage-start probe waits for the first one. Views of part of a
        // buffer concatenate without a copy; fresh arrays are what
        // placement is for.
        exemplar.filter(|e| e.0.is_whole())?;
        // SAFETY: forwarded contract.
        Some(VecValue(unsafe { SharedVec::uninit_prefaulted(rows) }))
    }

    unsafe fn write_rows(&self, offset: usize, band: &Self) {
        let n = band.0.len();
        // SAFETY: forwarded contract; nothing writes a piece while the
        // merge reads it.
        unsafe {
            let src = band.0.slice_unchecked(0, n);
            self.0.slice_mut_unchecked(offset, n).copy_from_slice(src);
        }
    }

    fn is_exclusive(&mut self) -> bool {
        self.0.is_exclusive()
    }
}

/// Split type for [`VecValue`] (shared `f64` buffers).
#[derive(Default)]
pub struct ArraySplit;

impl ArraySplit {
    /// Register `ArraySplit` as the default split type for `VecValue`,
    /// used when type inference cannot resolve a generic (§5.1).
    pub fn register_default() {
        register_default_splitter::<VecValue>(Arc::new(ArraySplit));
    }
}

impl RowSplitter for ArraySplit {
    const NAME: &'static str = "ArraySplit";

    /// Constructed either from a size argument (MKL style, where the
    /// length precedes the array) or from the array itself.
    fn construct(ctor_args: &[&DataValue]) -> Result<Params> {
        let first = ctor_args.first().ok_or_else(|| Error::Constructor {
            split_type: "ArraySplit",
            message: "expected a size or array argument".into(),
        })?;
        if let Some(n) = crate::value::as_i64(first) {
            return Ok(vec![n]);
        }
        if let Some(v) = first.downcast_ref::<VecValue>() {
            return Ok(vec![v.0.len() as i64]);
        }
        Err(Error::Constructor {
            split_type: "ArraySplit",
            message: format!("cannot derive length from {}", first.type_name()),
        })
    }

    fn fits(value: &DataValue, params: &Params) -> bool {
        let len = value.downcast_ref::<VecValue>().map(|v| v.0.len() as i64);
        len.is_some_and(|n| params[..] == [n])
    }

    fn info(params: &Params) -> RuntimeInfo {
        RuntimeInfo {
            total_elements: params.first().copied().unwrap_or(0).max(0) as u64,
            elem_size_bytes: std::mem::size_of::<f64>() as u64,
        }
    }

    fn bands(_: Option<&DataValue>) -> &'static dyn Bands {
        bands::<Self, VecValue>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::{MergeStrategy, Splitter};

    fn array(xs: &[f64]) -> DataValue {
        DataValue::new(VecValue(SharedVec::from_vec(xs.to_vec())))
    }

    fn vec_value(n: usize) -> DataValue {
        DataValue::new(VecValue(SharedVec::from_vec(
            (0..n).map(|i| i as f64).collect(),
        )))
    }

    fn buf(v: &DataValue) -> &SharedVec<f64> {
        &v.downcast_ref::<VecValue>().unwrap().0
    }

    #[test]
    fn construct_from_size_or_array() {
        let s = ArraySplit;
        let size = DataValue::new(crate::value::IntValue(8));
        assert_eq!(s.construct(&[&size]).unwrap(), vec![8]);
        let arr = vec_value(5);
        assert_eq!(s.construct(&[&arr]).unwrap(), vec![5]);
        assert!(s.construct(&[]).is_err());
    }

    #[test]
    fn split_produces_aliasing_views() {
        let s = ArraySplit;
        let arr = vec_value(10);
        let params = vec![10];
        let piece = s.split(&arr, 2..5, &params).unwrap().unwrap();
        assert_eq!(buf(&piece).as_slice(), &[2.0, 3.0, 4.0]);
        assert!(buf(&piece).same_storage(buf(&arr)));
        // A view of part of the buffer does not pass for the buffer.
        assert_ne!(piece.identity(), arr.identity());
        // Clamps the tail and terminates past the end.
        let piece = s.split(&arr, 8..16, &params).unwrap().unwrap();
        assert_eq!(buf(&piece).len(), 2);
        assert!(s.split(&arr, 10..12, &params).unwrap().is_none());
    }

    #[test]
    fn split_rejects_stale_params() {
        let s = ArraySplit;
        let arr = vec_value(10);
        assert!(s.split(&arr, 0..4, &vec![12]).is_err());
        assert!(s.split(&arr, 0..4, &vec![10, 1]).is_err());
        let size = DataValue::new(crate::value::IntValue(10));
        assert!(s.split(&size, 0..4, &vec![10]).is_err());
    }

    #[test]
    fn merge_recovers_parent() {
        // Contiguous views merge to the parent, without a copy.
        let s = ArraySplit;
        let arr = vec_value(10);
        let params = vec![10];
        let a = s.split(&arr, 0..5, &params).unwrap().unwrap();
        let b = s.split(&arr, 5..10, &params).unwrap().unwrap();
        let merged = s.merge(vec![a, b], &params, 10).unwrap();
        assert_eq!(merged.identity(), arr.identity(), "the parent itself");
        assert_eq!(buf(&merged).base_ptr(), buf(&arr).base_ptr());
        assert_eq!(buf(&merged).len(), 10);
        assert!(matches!(s.merge_strategy(), MergeStrategy::Concat { .. }));
    }

    #[test]
    fn merge_concatenates_fresh_pieces() {
        // Owned per-batch arrays merge by concatenation.
        let s = ArraySplit;
        let merged = s
            .merge(vec![array(&[1.0, 2.0]), array(&[3.0])], &vec![3], 3)
            .unwrap();
        assert_eq!(buf(&merged).as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn views_and_fresh_pieces_are_data_and_concatenate() {
        // A view is an array like any other: a merge of views of two
        // buffers, of a view beside a fresh array, or of one view of
        // part of a buffer is the concatenation of their own elements.
        let s = ArraySplit;
        let (x, y) = (vec_value(4), array(&[7.0, 8.0]));
        let head = s.split(&x, 0..2, &vec![4]).unwrap().unwrap();
        let tail = s.split(&y, 1..2, &vec![2]).unwrap().unwrap();
        let merged = s.merge(vec![head.clone(), tail], &vec![3], 3).unwrap();
        assert_eq!(buf(&merged).as_slice(), &[0.0, 1.0, 8.0]);
        let merged = s
            .merge(vec![array(&[9.0]), head.clone()], &vec![3], 3)
            .unwrap();
        assert_eq!(buf(&merged).as_slice(), &[9.0, 0.0, 1.0]);
        let mid = s.split(&x, 1..3, &vec![4]).unwrap().unwrap();
        let merged = s.merge(vec![mid], &vec![2], 2).unwrap();
        assert_eq!(buf(&merged).as_slice(), &[1.0, 2.0]);
        assert_ne!(merged.identity(), x.identity());
        assert!(s.merge(vec![], &vec![4], 4).is_err());
    }

    #[test]
    fn placement_declined_for_aliasing_views_taken_for_fresh_arrays() {
        let s = ArraySplit;
        let p = s.merge_strategy().placement().unwrap();
        let arr = vec_value(8);
        let params = vec![8];
        // Nothing to go on at stage start.
        assert!(p.alloc_merged(8, &params, None).unwrap().is_none());
        // A view exemplar: the pieces concatenate without a copy.
        let view = s.split(&arr, 0..4, &params).unwrap().unwrap();
        assert!(p.alloc_merged(8, &params, Some(&view)).unwrap().is_none());
        // Fresh VecValue exemplar: placement engages.
        let fresh = array(&[1.0, 2.0]);
        let out = p.alloc_merged(8, &params, Some(&fresh)).unwrap().unwrap();
        // Out-of-order writes land at their offsets; views and owned
        // pieces both write. (The output is uninitialized until
        // written, so the test covers all 8 elements before reading.)
        p.write_piece(&out, 4, &view).unwrap();
        p.write_piece(&out, 2, &fresh).unwrap();
        p.write_piece(&out, 0, &fresh).unwrap();
        assert_eq!(
            buf(&out).as_slice(),
            &[1.0, 2.0, 1.0, 2.0, 0.0, 1.0, 2.0, 3.0],
            "views copy their aliased elements, fresh pieces their own"
        );
        // Out-of-range writes are rejected before touching memory.
        assert!(p.write_piece(&out, 7, &fresh).is_err());
        // Truncation returns a view of the written prefix.
        let t = p.truncate_merged(out.clone(), 4, &params).unwrap();
        assert_eq!(buf(&t).as_slice(), &[1.0, 2.0, 1.0, 2.0]);
        assert!(buf(&t).same_storage(buf(&out)));
    }

    #[test]
    fn concat_capability_roundtrips() {
        // concat is the inverse of split: whole values concatenate end
        // to end, and slice_back recovers each one's elements.
        let s = ArraySplit;
        let cap = Splitter::concat(&s).expect("ArraySplit exposes Concat");
        let values = [array(&[1.0, 2.0, 3.0]), array(&[4.0]), array(&[5.0, 6.0])];
        let (cat, offsets) = cap.concat(&values).unwrap();
        assert_eq!(offsets, vec![0, 3, 4]);
        assert_eq!(buf(&cat).as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let back = cap.slice_back(&cat, 3, 1).unwrap();
        assert_eq!(buf(&back).as_slice(), &[4.0]);
        // A band is a view of the concatenation, not a copy.
        assert!(buf(&back).same_storage(buf(&cat)));
        // Out-of-range slices are rejected; empty concats error.
        assert!(cap.slice_back(&cat, 5, 2).is_err());
        assert!(cap.concat(&[]).is_err());
    }
}
