//! `ArraySplit` — the paper's canonical split type (§2.1, §3.2): a C
//! array split into regularly-sized pieces. Parameter: the array length.
//!
//! Pieces are [`SliceView`]s aliasing the parent buffer, so functions
//! that mutate their output argument write directly into the final
//! location and no merge is required (the MKL convention).
//!
//! Functions that instead *return* freshly allocated arrays per batch
//! merge by **placement**: the runtime preallocates one `SharedVec` of
//! the full length and workers copy their pieces in at their element
//! offsets (the [`Placement`] capability inside
//! [`MergeStrategy::Concat`]). When the exemplar piece is a
//! [`SliceView`] — the pieces already alias one final buffer — placement
//! is declined, since recovering the parent is cheaper than any copy.
//! A released target of the right length that nobody else holds any
//! more is written over instead of allocating a new one
//! ([`Placement::reuse`]).
//!
//! `ArraySplit` also exposes the [`Concat`] capability (the inverse of
//! `split`): whole buffers concatenate end to end and element ranges
//! slice back out, which is what the serving layer's generic
//! cross-request coalescing rides on.

use std::ops::Range;
use std::sync::{Arc, LazyLock};

use crate::buffer::{SharedVec, SliceView, VecValue};
use crate::error::{Error, Result};
use crate::registry::register_default_splitter;
use crate::split::{Concat, MergeStrategy, Params, Placement, RuntimeInfo, Splitter};
use crate::value::DataValue;

/// Split type for [`VecValue`] (shared `f64` buffers).
pub struct ArraySplit;

impl ArraySplit {
    /// Register `ArraySplit` as the default split type for `VecValue`,
    /// used when type inference cannot resolve a generic (§5.1).
    pub fn register_default() {
        register_default_splitter::<VecValue>(Arc::new(ArraySplit));
    }
}

/// Borrow a value's elements as an `f64` slice, whichever array form it
/// takes.
///
/// # Safety
///
/// For `SliceView` values the caller must guarantee no concurrent
/// mutation of the viewed range (the merge/concat phases' contract).
unsafe fn elems(v: &DataValue) -> Result<&[f64]> {
    if let Some(v) = v.downcast_ref::<VecValue>() {
        return Ok(v.0.as_slice());
    }
    if let Some(v) = v.downcast_ref::<SliceView>() {
        // SAFETY: per this function's contract.
        return Ok(unsafe { v.as_slice() });
    }
    Err(Error::Merge {
        split_type: "ArraySplit",
        message: format!("expected an array value, got {}", v.type_name()),
    })
}

impl Splitter for ArraySplit {
    fn name(&self) -> &'static str {
        "ArraySplit"
    }

    fn construct(&self, ctor_args: &[&DataValue]) -> Result<Params> {
        // Constructed either from a size argument (MKL style, where the
        // length precedes the array) or from the array itself.
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

    fn info(&self, _arg: &DataValue, params: &Params) -> Result<RuntimeInfo> {
        Ok(RuntimeInfo {
            total_elements: params.first().copied().unwrap_or(0).max(0) as u64,
            elem_size_bytes: std::mem::size_of::<f64>() as u64,
        })
    }

    fn split(
        &self,
        arg: &DataValue,
        range: Range<u64>,
        params: &Params,
    ) -> Result<Option<DataValue>> {
        let v = arg.downcast_ref::<VecValue>().ok_or_else(|| Error::Split {
            split_type: "ArraySplit",
            message: format!("expected VecValue, got {}", arg.type_name()),
        })?;
        let total = params.first().copied().unwrap_or(0).max(0) as u64;
        if v.0.len() as u64 != total {
            return Err(Error::Split {
                split_type: "ArraySplit",
                message: format!(
                    "array length {} does not match split type parameter {}",
                    v.0.len(),
                    total
                ),
            });
        }
        if range.start >= total {
            return Ok(None);
        }
        let end = range.end.min(total);
        Ok(Some(DataValue::new(SliceView {
            parent: v.0.clone(),
            start: range.start as usize,
            len: (end - range.start) as usize,
        })))
    }

    fn merge(
        &self,
        pieces: Vec<DataValue>,
        _params: &Params,
        total_elements: u64,
    ) -> Result<DataValue> {
        let first = pieces.first().ok_or_else(|| Error::Merge {
            split_type: "ArraySplit",
            message: "no pieces to merge".into(),
        })?;
        if first.downcast_ref::<SliceView>().is_some() {
            // In-place views alias a single parent buffer; the merged
            // value is that buffer, recovered without touching elements.
            let parent = first
                .downcast_ref::<SliceView>()
                .expect("checked above")
                .parent
                .clone();
            for p in &pieces[1..] {
                let v = p.downcast_ref::<SliceView>().ok_or_else(|| Error::Merge {
                    split_type: "ArraySplit",
                    message: "mixed piece types".into(),
                })?;
                if !v.parent.same_storage(&parent) {
                    return Err(Error::Merge {
                        split_type: "ArraySplit",
                        message: "pieces come from different buffers".into(),
                    });
                }
            }
            return Ok(DataValue::new(VecValue(parent)));
        }
        // Fresh owned pieces (the placement-disabled fallback path):
        // concatenate, preallocating from the size hint. Only owned
        // `VecValue` pieces are legal here: a stray `SliceView` means
        // view pieces were pre-merged into whole parents elsewhere and
        // a concat would duplicate data — fail loudly (the v1 contract)
        // rather than return a corrupt buffer.
        let mut out: Vec<f64> = Vec::with_capacity(total_elements as usize);
        for p in &pieces {
            let v = p.downcast_ref::<VecValue>().ok_or_else(|| Error::Merge {
                split_type: "ArraySplit",
                message: "mixed piece types".into(),
            })?;
            out.extend_from_slice(v.0.as_slice());
        }
        if total_elements > 0 && out.len() as u64 != total_elements {
            return Err(Error::Merge {
                split_type: "ArraySplit",
                message: format!(
                    "concatenated {} elements but the merge covers {total_elements} \
                     (pieces are not a partition of the output)",
                    out.len()
                ),
            });
        }
        Ok(DataValue::new(VecValue(SharedVec::from_vec(out))))
    }

    fn merge_strategy(&self) -> MergeStrategy {
        // One shared capability: the strategy is read for every input
        // and output of every verified stage, so it must not allocate.
        static PLACEMENT: LazyLock<Arc<ArraySplit>> = LazyLock::new(|| Arc::new(ArraySplit));
        MergeStrategy::Concat {
            placement: Some(PLACEMENT.clone()),
        }
    }

    fn concat(&self) -> Option<Arc<dyn Concat>> {
        Some(Arc::new(ArraySplit))
    }

    fn whole_piece_stable(&self) -> bool {
        // A piece is a view of the buffer, not a copy of its elements.
        true
    }
}

impl Placement for ArraySplit {
    fn alloc_merged(
        &self,
        total_elements: u64,
        _params: &Params,
        exemplar: Option<&DataValue>,
    ) -> Result<Option<DataValue>> {
        // Whether placement pays depends on what the pieces are, so
        // the stage-start probe (no exemplar yet) is declined.
        let Some(exemplar) = exemplar else {
            return Ok(None);
        };
        // SliceView pieces alias a parent buffer already — `merge`
        // recovers it without touching a single element, so placement
        // (which would copy) is a regression there. Fresh owned arrays
        // (`VecValue` pieces) are what placement exists for.
        if exemplar.downcast_ref::<SliceView>().is_some() {
            return Ok(None);
        }
        if exemplar.downcast_ref::<VecValue>().is_none() {
            return Ok(None);
        }
        // SAFETY: the executor's coverage check guarantees every
        // element of the placement output is written before the merged
        // value is released (or it is truncated to the written
        // prefix), so the unspecified initial contents are never read.
        let out = unsafe { SharedVec::uninit_prefaulted(total_elements as usize) };
        Ok(Some(DataValue::new(VecValue(out))))
    }

    fn reuse(
        &self,
        spare: DataValue,
        total_elements: u64,
        _params: &Params,
        exemplar: Option<&DataValue>,
    ) -> Option<DataValue> {
        // Same decision as `alloc_merged`: only fresh `VecValue` pieces
        // are worth a placement target.
        exemplar?.downcast_ref::<VecValue>()?;
        let mut buf = spare.downcast_ref::<VecValue>()?.0.clone();
        // Let go of the wrapper first: if it was the last one, `buf` is
        // now the only handle a sole owner would have.
        drop(spare);
        (buf.len() as u64 == total_elements && buf.is_exclusive())
            .then(|| DataValue::new(VecValue(buf)))
    }

    fn write_piece(&self, out: &DataValue, offset: u64, piece: &DataValue) -> Result<u64> {
        let dst = out.downcast_ref::<VecValue>().ok_or_else(|| Error::Merge {
            split_type: "ArraySplit",
            message: format!("placement output is {}, not VecValue", out.type_name()),
        })?;
        let write = |src: &[f64]| -> Result<u64> {
            let offset = offset as usize;
            if offset
                .checked_add(src.len())
                .is_none_or(|e| e > dst.0.len())
            {
                return Err(Error::Merge {
                    split_type: "ArraySplit",
                    message: format!(
                        "piece of {} elements at offset {offset} exceeds output length {}",
                        src.len(),
                        dst.0.len()
                    ),
                });
            }
            // SAFETY: the executor guarantees concurrent `write_piece`
            // calls cover disjoint element ranges, and the bounds were
            // checked above.
            unsafe { dst.0.slice_mut_unchecked(offset, src.len()) }.copy_from_slice(src);
            Ok(src.len() as u64)
        };
        if let Some(v) = piece.downcast_ref::<VecValue>() {
            return write(v.0.as_slice());
        }
        if let Some(v) = piece.downcast_ref::<SliceView>() {
            // SAFETY: pieces are read-only during the merge phase; the
            // written range belongs to `dst`, a different buffer.
            return write(unsafe { v.as_slice() });
        }
        Err(Error::Merge {
            split_type: "ArraySplit",
            message: format!("unexpected placement piece type {}", piece.type_name()),
        })
    }

    fn truncate_merged(
        &self,
        out: DataValue,
        elements: u64,
        _params: &Params,
    ) -> Result<DataValue> {
        let v = out.downcast_ref::<VecValue>().ok_or_else(|| Error::Merge {
            split_type: "ArraySplit",
            message: format!("placement output is {}, not VecValue", out.type_name()),
        })?;
        // Rare path (NULL-split tail): copy the written prefix out.
        let prefix = v.0.as_slice()[..(elements as usize).min(v.0.len())].to_vec();
        Ok(DataValue::new(VecValue(SharedVec::from_vec(prefix))))
    }
}

impl Concat for ArraySplit {
    fn concat(&self, values: &[DataValue]) -> Result<(DataValue, Vec<u64>)> {
        if values.is_empty() {
            return Err(Error::Merge {
                split_type: "ArraySplit",
                message: "nothing to concatenate".into(),
            });
        }
        let mut offsets = Vec::with_capacity(values.len());
        let mut total = 0usize;
        for v in values {
            offsets.push(total as u64);
            // SAFETY: whole input values are not concurrently mutated
            // while being concatenated.
            total += unsafe { elems(v)? }.len();
        }
        let mut out: Vec<f64> = Vec::with_capacity(total);
        for v in values {
            // SAFETY: as above.
            out.extend_from_slice(unsafe { elems(v)? });
        }
        Ok((DataValue::new(VecValue(SharedVec::from_vec(out))), offsets))
    }

    fn slice_back(&self, out: &DataValue, offset: u64, len: u64) -> Result<DataValue> {
        // SAFETY: concatenated outputs are fully materialized before
        // slicing back (reading a `VecValue` forces evaluation).
        let all = unsafe { elems(out)? };
        let (offset, len) = (offset as usize, len as usize);
        if offset.checked_add(len).is_none_or(|e| e > all.len()) {
            return Err(Error::Merge {
                split_type: "ArraySplit",
                message: format!(
                    "slice [{offset}, {offset}+{len}) exceeds concatenated length {}",
                    all.len()
                ),
            });
        }
        Ok(DataValue::new(VecValue(SharedVec::from_vec(
            all[offset..offset + len].to_vec(),
        ))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::SharedVec;

    fn vec_value(n: usize) -> DataValue {
        DataValue::new(VecValue(SharedVec::from_vec(
            (0..n).map(|i| i as f64).collect(),
        )))
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
        let view = piece.downcast_ref::<SliceView>().unwrap();
        assert_eq!(view.start, 2);
        assert_eq!(view.len, 3);
        // SAFETY: single-threaded test.
        assert_eq!(unsafe { view.as_slice() }, &[2.0, 3.0, 4.0]);
        // Clamps the tail and terminates past the end.
        let piece = s.split(&arr, 8..16, &params).unwrap().unwrap();
        assert_eq!(piece.downcast_ref::<SliceView>().unwrap().len, 2);
        assert!(s.split(&arr, 10..12, &params).unwrap().is_none());
    }

    #[test]
    fn split_rejects_stale_params() {
        let s = ArraySplit;
        let arr = vec_value(10);
        assert!(s.split(&arr, 0..4, &vec![12]).is_err());
    }

    #[test]
    fn merge_recovers_parent() {
        let s = ArraySplit;
        let arr = vec_value(10);
        let params = vec![10];
        let a = s.split(&arr, 0..5, &params).unwrap().unwrap();
        let b = s.split(&arr, 5..10, &params).unwrap().unwrap();
        let merged = s.merge(vec![a, b], &params, 10).unwrap();
        let v = merged.downcast_ref::<VecValue>().unwrap();
        assert_eq!(v.0.len(), 10);
        assert!(matches!(s.merge_strategy(), MergeStrategy::Concat { .. }));
    }

    #[test]
    fn merge_concatenates_fresh_pieces() {
        // The placement-disabled fallback: owned per-batch arrays merge
        // by concatenation, preallocated from the hint.
        let s = ArraySplit;
        let a = DataValue::new(VecValue(SharedVec::from_vec(vec![1.0, 2.0])));
        let b = DataValue::new(VecValue(SharedVec::from_vec(vec![3.0])));
        let merged = s.merge(vec![a, b], &vec![3], 3).unwrap();
        assert_eq!(
            merged.downcast_ref::<VecValue>().unwrap().0.as_slice(),
            &[1.0, 2.0, 3.0]
        );
    }

    #[test]
    fn placement_declined_for_aliasing_views_taken_for_fresh_arrays() {
        let s = ArraySplit;
        let arr = vec_value(8);
        let params = vec![8];
        // SliceView exemplar: the pieces already alias a final buffer;
        // recovering the parent beats copying.
        let view = s.split(&arr, 0..4, &params).unwrap().unwrap();
        assert!(Placement::alloc_merged(&s, 8, &params, Some(&view))
            .unwrap()
            .is_none());
        // Fresh VecValue exemplar: placement engages.
        let fresh = DataValue::new(VecValue(SharedVec::from_vec(vec![1.0, 2.0])));
        let out = Placement::alloc_merged(&s, 8, &params, Some(&fresh))
            .unwrap()
            .unwrap();
        // Out-of-order writes land at their offsets; views and owned
        // pieces both write. (The output is uninitialized until
        // written, so the test covers all 8 elements before reading.)
        s.write_piece(&out, 4, &view).unwrap();
        s.write_piece(&out, 2, &fresh).unwrap();
        s.write_piece(&out, 0, &fresh).unwrap();
        let v = out.downcast_ref::<VecValue>().unwrap();
        assert_eq!(
            v.0.as_slice(),
            &[1.0, 2.0, 1.0, 2.0, 0.0, 1.0, 2.0, 3.0],
            "views copy their aliased elements, fresh pieces their own"
        );
        // Out-of-range writes are rejected before touching memory.
        assert!(s.write_piece(&out, 7, &fresh).is_err());
        // Truncation returns the written prefix.
        let t = s.truncate_merged(out, 4, &params).unwrap();
        assert_eq!(
            t.downcast_ref::<VecValue>().unwrap().0.as_slice(),
            &[1.0, 2.0, 1.0, 2.0]
        );
    }

    #[test]
    fn concat_capability_roundtrips() {
        // concat is the inverse of split: whole values concatenate end
        // to end, and slice_back recovers each one's elements.
        let s = ArraySplit;
        let cap = Splitter::concat(&s).expect("ArraySplit exposes Concat");
        let a = DataValue::new(VecValue(SharedVec::from_vec(vec![1.0, 2.0, 3.0])));
        let b = DataValue::new(VecValue(SharedVec::from_vec(vec![4.0])));
        let c = DataValue::new(VecValue(SharedVec::from_vec(vec![5.0, 6.0])));
        let (cat, offsets) = cap.concat(&[a, b, c]).unwrap();
        assert_eq!(offsets, vec![0, 3, 4]);
        assert_eq!(
            cat.downcast_ref::<VecValue>().unwrap().0.as_slice(),
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        );
        let back = cap.slice_back(&cat, 3, 1).unwrap();
        assert_eq!(
            back.downcast_ref::<VecValue>().unwrap().0.as_slice(),
            &[4.0]
        );
        // Out-of-range slices are rejected; empty concats error.
        assert!(cap.slice_back(&cat, 5, 2).is_err());
        assert!(cap.concat(&[]).is_err());
    }

    #[test]
    fn owned_merge_fallback_fails_loudly_on_views_and_bad_coverage() {
        // Regression: the owned-piece concat fallback must never
        // silently absorb view-derived pieces (pre-merged whole
        // parents would duplicate data) or return a buffer that does
        // not cover the merge's element total.
        let s = ArraySplit;
        let arr = vec_value(6);
        let params = vec![6];
        let view = s.split(&arr, 0..3, &params).unwrap().unwrap();
        let owned = DataValue::new(VecValue(SharedVec::from_vec(vec![9.0, 9.0, 9.0])));
        // Owned first, view second: mixed types are rejected.
        assert!(s.merge(vec![owned.clone(), view], &params, 6).is_err());
        // Owned pieces that do not partition the declared total are
        // rejected instead of returning a short (or long) buffer.
        assert!(s.merge(vec![owned.clone()], &params, 6).is_err());
        assert!(s
            .merge(vec![owned.clone(), owned.clone()], &params, 6)
            .is_ok());
        assert!(s
            .merge(vec![owned.clone(), owned.clone(), owned], &params, 6)
            .is_err());
    }

    #[test]
    fn merge_rejects_foreign_pieces() {
        let s = ArraySplit;
        let a = s.split(&vec_value(4), 0..2, &vec![4]).unwrap().unwrap();
        let b = s.split(&vec_value(4), 2..4, &vec![4]).unwrap().unwrap();
        assert!(s.merge(vec![a, b], &vec![4], 4).is_err());
        assert!(s.merge(vec![], &vec![4], 4).is_err());
    }
}
