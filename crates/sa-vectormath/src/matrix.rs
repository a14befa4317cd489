//! `MatrixSplit` — split type for row-major matrices stored in shared
//! `f64` buffers (the MKL convention of pointer + dimensions).
//!
//! Parameters: `(rows, cols)`. Elements are **rows**: splitting range
//! `[a, b)` yields the view covering rows `a..b`, i.e. the flat range
//! `[a*cols, b*cols)` of the buffer. This is the split type the paper's
//! MKL integration defines "for matrices (with rows, columns, and order
//! as parameters)" — order is fixed to row-major here.

use std::ops::Range;
use std::sync::Arc;

use mozart_core::prelude::*;
use mozart_core::row_bands::RowBand;

/// Row-splitting split type for matrices in shared buffers.
pub struct MatrixSplit;

impl MatrixSplit {
    /// Shared instance.
    pub fn shared() -> Arc<dyn Splitter> {
        Arc::new(MatrixSplit)
    }
}

/// `(rows, cols)` of the split type's parameters.
fn dims(params: &Params) -> (u64, u64) {
    let dim = |i: usize| params.get(i).copied().unwrap_or(0).max(0) as u64;
    (dim(0), dim(1))
}

impl Splitter for MatrixSplit {
    fn name(&self) -> &'static str {
        "MatrixSplit"
    }

    /// Constructor from `(rows, cols)` integer arguments; a flat buffer
    /// does not tell its dimensions, so there are no default parameters.
    fn construct(&self, ctor_args: &[&DataValue]) -> Result<Params> {
        let get = |i: usize| -> Result<i64> {
            ctor_args
                .get(i)
                .and_then(|v| mozart_core::value::as_i64(v))
                .ok_or_else(|| Error::Constructor {
                    split_type: "MatrixSplit",
                    message: format!("expected integer argument {i} (rows, cols)"),
                })
        };
        Ok(vec![get(0)?, get(1)?])
    }

    fn info(&self, _arg: &DataValue, params: &Params) -> Result<RuntimeInfo> {
        let (rows, cols) = dims(params);
        Ok(RuntimeInfo {
            total_elements: rows,
            elem_size_bytes: cols * std::mem::size_of::<f64>() as u64,
        })
    }

    /// The view of rows `range`: elements `[a·cols, b·cols)`.
    fn split(
        &self,
        arg: &DataValue,
        range: Range<u64>,
        params: &Params,
    ) -> Result<Option<DataValue>> {
        let v = arg.downcast_ref::<VecValue>().ok_or_else(|| Error::Split {
            split_type: "MatrixSplit",
            message: format!("expected VecValue, got {}", arg.type_name()),
        })?;
        let (rows, cols) = dims(params);
        if v.0.len() as u64 != rows * cols {
            return Err(Error::Split {
                split_type: "MatrixSplit",
                message: format!(
                    "buffer has {} elements but split type says {rows}x{cols}",
                    v.0.len()
                ),
            });
        }
        if range.start >= rows {
            return Ok(None);
        }
        let (a, b) = (range.start * cols, range.end.min(rows) * cols);
        Ok(Some(DataValue::new(v.view(a as usize, b as usize))))
    }

    /// The array concat of the pieces: views that follow each other in
    /// one buffer span it without a copy.
    fn merge(&self, pieces: Vec<DataValue>, _: &Params, _: u64) -> Result<DataValue> {
        let parts: Option<Vec<&VecValue>> = pieces.iter().map(|p| p.downcast_ref()).collect();
        match parts {
            Some(parts) if !parts.is_empty() => Ok(DataValue::new(VecValue::concat(&parts))),
            _ => Err(Error::Merge {
                split_type: "MatrixSplit",
                message: "expected one or more VecValue pieces".into(),
            }),
        }
    }

    /// A concatenation, but of rows, where a placement's offsets would
    /// be elements of the buffer.
    fn merge_strategy(&self) -> MergeStrategy {
        MergeStrategy::Concat { placement: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_by_rows() {
        let s = MatrixSplit;
        let buf = SharedVec::from_vec((0..12).map(|i| i as f64).collect());
        let arg = DataValue::new(VecValue(buf));
        // 4 rows x 3 cols.
        let params = s
            .construct(&[&DataValue::new(IntValue(4)), &DataValue::new(IntValue(3))])
            .unwrap();
        assert_eq!(params, vec![4, 3]);
        let info = s.info(&arg, &params).unwrap();
        assert_eq!(info.total_elements, 4);
        assert_eq!(info.elem_size_bytes, 24);
        let piece = s.split(&arg, 1..3, &params).unwrap().unwrap();
        let view = &piece.downcast_ref::<VecValue>().unwrap().0;
        assert_eq!(view.as_slice(), &[3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert!(view.same_storage(&arg.downcast_ref::<VecValue>().unwrap().0));
        assert!(s.split(&arg, 4..5, &params).unwrap().is_none());
        // The pieces of every row merge to the buffer itself.
        let pieces = vec![
            s.split(&arg, 0..1, &params).unwrap().unwrap(),
            s.split(&arg, 1..4, &params).unwrap().unwrap(),
        ];
        let merged = s.merge(pieces, &params, 4).unwrap();
        assert_eq!(merged.identity(), arg.identity());
    }

    #[test]
    fn pieces_merge_to_their_own_elements() {
        // Pieces of two buffers, or one view of rows 1..2, merge to the
        // concatenation of their own elements, not to a parent.
        let s = MatrixSplit;
        let params = vec![2, 2];
        let a = DataValue::new(VecValue(SharedVec::from_vec(vec![1.0, 2.0, 3.0, 4.0])));
        let b = DataValue::new(VecValue(SharedVec::from_vec(vec![5.0, 6.0, 7.0, 8.0])));
        let elems = |v: &DataValue| v.downcast_ref::<VecValue>().unwrap().0.to_vec();
        let pieces = vec![
            s.split(&a, 0..1, &params).unwrap().unwrap(),
            s.split(&b, 1..2, &params).unwrap().unwrap(),
        ];
        let merged = s.merge(pieces, &params, 2).unwrap();
        assert_eq!(elems(&merged), vec![1.0, 2.0, 7.0, 8.0]);
        let row = s.split(&a, 1..2, &params).unwrap().unwrap();
        let merged = s.merge(vec![row], &params, 1).unwrap();
        assert_eq!(elems(&merged), vec![3.0, 4.0]);
        assert!(s.merge(vec![], &params, 0).is_err());
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let s = MatrixSplit;
        let buf = SharedVec::from_vec(vec![0.0; 10]);
        let arg = DataValue::new(VecValue(buf));
        assert!(s.split(&arg, 0..2, &vec![4, 3]).is_err());
        assert!(s.default_params(&arg).is_err());
    }

    #[test]
    fn different_axes_yield_different_types() {
        // MatrixSplit<4,3> != MatrixSplit<3,4>: dependent-type equality.
        let a = SplitInstance::new(MatrixSplit::shared(), vec![4, 3]);
        let b = SplitInstance::new(MatrixSplit::shared(), vec![3, 4]);
        assert!(!a.same_type(&b));
    }
}
