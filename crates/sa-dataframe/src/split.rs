//! The `RowSplit` split type shared by DataFrames and Series.
//!
//! The paper's Pandas integration "implements split types over
//! DataFrames and Series by splitting by row" (§7). Split type equality
//! is by name and parameters, so a frame and a column with the same row
//! count carry the *same* split type `RowSplit<rows>` and pipeline
//! freely (e.g. `df.col(...)` flows into Series arithmetic); `split`
//! and `merge` dispatch on the concrete piece type.
//!
//! Merged frames and columns are placement-written into one
//! preallocated target per output ([`Placement`]); on a warm plan cache
//! a released target of the same schema and row count that nobody else
//! holds any more is written over instead of allocating a new one
//! ([`Placement::reuse`]).

use std::ops::Range;
use std::sync::Arc;

use mozart_core::split::{Concat, MergeStrategy, Placement};

use dataframe::{Column, DataFrame};
use mozart_core::prelude::*;

/// `DataValue` wrapper for [`DataFrame`].
#[derive(Debug, Clone)]
pub struct DfValue(pub DataFrame);

impl mozart_core::value::DataObject for DfValue {
    fn type_name(&self) -> &'static str {
        "DfValue"
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// `DataValue` wrapper for [`Column`] (a Series).
#[derive(Debug, Clone)]
pub struct ColValue(pub Column);

impl mozart_core::value::DataObject for ColValue {
    fn type_name(&self) -> &'static str {
        "ColValue"
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Row-based split type for frames and columns. Parameter: row count.
pub struct RowSplit;

impl RowSplit {
    /// Shared instance.
    pub fn shared() -> Arc<dyn Splitter> {
        Arc::new(RowSplit)
    }

    fn rows_of(v: &DataValue) -> Result<usize> {
        if let Some(d) = v.downcast_ref::<DfValue>() {
            return Ok(d.0.num_rows());
        }
        if let Some(c) = v.downcast_ref::<ColValue>() {
            return Ok(c.0.len());
        }
        Err(Error::Split {
            split_type: "RowSplit",
            message: format!("expected DfValue or ColValue, got {}", v.type_name()),
        })
    }
}

impl Splitter for RowSplit {
    fn name(&self) -> &'static str {
        "RowSplit"
    }

    fn construct(&self, ctor_args: &[&DataValue]) -> Result<Params> {
        let v = ctor_args.first().ok_or_else(|| Error::Constructor {
            split_type: "RowSplit",
            message: "expected a frame or series argument".into(),
        })?;
        Ok(vec![Self::rows_of(v)? as i64])
    }

    fn info(&self, _arg: &DataValue, params: &Params) -> Result<RuntimeInfo> {
        Ok(RuntimeInfo {
            total_elements: params.first().copied().unwrap_or(0).max(0) as u64,
            // Approximate row footprint; Pandas rows are wide, use a
            // conservative 64 bytes so batches stay cache-resident.
            elem_size_bytes: 64,
        })
    }

    fn split(
        &self,
        arg: &DataValue,
        range: Range<u64>,
        params: &Params,
    ) -> Result<Option<DataValue>> {
        let rows = Self::rows_of(arg)?;
        let declared = params.first().copied().unwrap_or(0).max(0) as usize;
        if rows != declared {
            return Err(Error::Split {
                split_type: "RowSplit",
                message: format!("value has {rows} rows, split type says {declared}"),
            });
        }
        if range.start >= rows as u64 {
            return Ok(None);
        }
        let start = range.start as usize;
        let end = (range.end as usize).min(rows);
        if let Some(d) = arg.downcast_ref::<DfValue>() {
            return Ok(Some(DataValue::new(DfValue(d.0.slice_rows(start, end)))));
        }
        if let Some(c) = arg.downcast_ref::<ColValue>() {
            return Ok(Some(DataValue::new(ColValue(c.0.slice(start, end)))));
        }
        unreachable!("rows_of validated the type");
    }

    fn merge(
        &self,
        pieces: Vec<DataValue>,
        _params: &Params,
        _total_elements: u64,
    ) -> Result<DataValue> {
        merge_rows(pieces)
    }

    /// Row concatenation with placement: the exemplar piece supplies
    /// what the parameters cannot (a frame's schema, a column's dtype).
    fn merge_strategy(&self) -> MergeStrategy {
        MergeStrategy::Concat {
            placement: Some(Arc::new(RowSplit)),
        }
    }

    fn concat(&self) -> Option<Arc<dyn Concat>> {
        Some(Arc::new(RowSplit))
    }
}

impl Placement for RowSplit {
    fn alloc_merged(
        &self,
        total_elements: u64,
        _params: &Params,
        exemplar: Option<&DataValue>,
    ) -> Result<Option<DataValue>> {
        // The exemplar (the first piece produced) supplies what the
        // parameters cannot: the schema of a frame, the dtype of a
        // column. The stage-start probe (no exemplar yet) is declined.
        let Some(exemplar) = exemplar else {
            return Ok(None);
        };
        let rows = total_elements as usize;
        if let Some(d) = exemplar.downcast_ref::<DfValue>() {
            return Ok(Some(DataValue::new(DfValue(d.0.alloc_like(rows)))));
        }
        if let Some(c) = exemplar.downcast_ref::<ColValue>() {
            return Ok(Some(DataValue::new(ColValue(c.0.alloc_like(rows)))));
        }
        Err(Error::Merge {
            split_type: "RowSplit",
            message: format!("unexpected piece type {}", exemplar.type_name()),
        })
    }

    fn reuse(
        &self,
        spare: DataValue,
        total_elements: u64,
        _params: &Params,
        exemplar: Option<&DataValue>,
    ) -> Option<DataValue> {
        // Like `alloc_merged`, only the first piece says what the
        // target must look like: same kind, schema and dtypes, the
        // stage's row count, and storage nobody else holds — no
        // application clone of the previous result, no row slice.
        let exemplar = exemplar?;
        let rows = total_elements as usize;
        if let (Some(d), Some(e)) = (
            spare.downcast_ref::<DfValue>(),
            exemplar.downcast_ref::<DfValue>(),
        ) {
            let mut df = d.0.clone();
            // Let go of the wrapper first: if it was the last one, `df`
            // holds the only handles a sole owner would have.
            drop(spare);
            return (df.num_rows() == rows && same_schema(&df, &e.0) && df.is_exclusive())
                .then(|| DataValue::new(DfValue(df)));
        }
        if let (Some(c), Some(e)) = (
            spare.downcast_ref::<ColValue>(),
            exemplar.downcast_ref::<ColValue>(),
        ) {
            let mut col = c.0.clone();
            drop(spare);
            return (col.len() == rows && col.dtype() == e.0.dtype() && col.is_exclusive())
                .then(|| DataValue::new(ColValue(col)));
        }
        None
    }

    fn write_piece(&self, out: &DataValue, offset: u64, piece: &DataValue) -> Result<u64> {
        let offset = offset as usize;
        if let (Some(dst), Some(src)) = (
            out.downcast_ref::<DfValue>(),
            piece.downcast_ref::<DfValue>(),
        ) {
            check_fit(
                offset,
                src.0.num_rows(),
                dst.0.num_rows(),
                same_schema(&src.0, &dst.0),
            )?;
            // SAFETY: the executor guarantees concurrent `write_piece`
            // calls cover disjoint row ranges of the not-yet-observable
            // output; schema and bounds were checked above.
            unsafe { dst.0.write_rows_at(offset, &src.0) };
            return Ok(src.0.num_rows() as u64);
        }
        if let (Some(dst), Some(src)) = (
            out.downcast_ref::<ColValue>(),
            piece.downcast_ref::<ColValue>(),
        ) {
            check_fit(
                offset,
                src.0.len(),
                dst.0.len(),
                src.0.dtype() == dst.0.dtype(),
            )?;
            // SAFETY: as above.
            unsafe { dst.0.write_at(offset, &src.0) };
            return Ok(src.0.len() as u64);
        }
        Err(Error::Merge {
            split_type: "RowSplit",
            message: format!(
                "placement piece {} does not match output {}",
                piece.type_name(),
                out.type_name()
            ),
        })
    }

    fn truncate_merged(
        &self,
        out: DataValue,
        elements: u64,
        _params: &Params,
    ) -> Result<DataValue> {
        // NULL-split tail: the written prefix as a zero-copy row slice.
        let rows = elements as usize;
        if let Some(d) = out.downcast_ref::<DfValue>() {
            let rows = rows.min(d.0.num_rows());
            return Ok(DataValue::new(DfValue(d.0.slice_rows(0, rows))));
        }
        if let Some(c) = out.downcast_ref::<ColValue>() {
            let rows = rows.min(c.0.len());
            return Ok(DataValue::new(ColValue(c.0.slice(0, rows))));
        }
        Err(Error::Merge {
            split_type: "RowSplit",
            message: format!("unexpected placement output {}", out.type_name()),
        })
    }
}

impl Concat for RowSplit {
    fn concat(&self, values: &[DataValue]) -> Result<(DataValue, Vec<u64>)> {
        if values.is_empty() {
            return Err(Error::Merge {
                split_type: "RowSplit",
                message: "nothing to concatenate".into(),
            });
        }
        let mut offsets = Vec::with_capacity(values.len());
        let mut rows = 0u64;
        for v in values {
            offsets.push(rows);
            rows += Self::rows_of(v)? as u64;
        }
        // Reuse the merge: mixed piece types and schema mismatches
        // surface as the same typed errors.
        let cat = merge_rows(values.to_vec())?;
        Ok((cat, offsets))
    }

    fn slice_back(&self, out: &DataValue, offset: u64, len: u64) -> Result<DataValue> {
        let rows = Self::rows_of(out)?;
        let (offset, len) = (offset as usize, len as usize);
        if offset.checked_add(len).is_none_or(|e| e > rows) {
            return Err(Error::Merge {
                split_type: "RowSplit",
                message: format!("slice [{offset}, {offset}+{len}) exceeds {rows} rows"),
            });
        }
        if let Some(d) = out.downcast_ref::<DfValue>() {
            return Ok(DataValue::new(DfValue(
                d.0.slice_rows(offset, offset + len),
            )));
        }
        if let Some(c) = out.downcast_ref::<ColValue>() {
            return Ok(DataValue::new(ColValue(c.0.slice(offset, offset + len))));
        }
        unreachable!("rows_of validated the type");
    }
}

/// Whether two frames have the same column names and dtypes, in order.
fn same_schema(a: &DataFrame, b: &DataFrame) -> bool {
    a.names() == b.names()
        && a.columns()
            .iter()
            .zip(b.columns())
            .all(|((_, x), (_, y))| x.dtype() == y.dtype())
}

/// Validate a placement write: schema/dtype agreement and row bounds.
fn check_fit(offset: usize, src_rows: usize, dst_rows: usize, schema_ok: bool) -> Result<()> {
    if !schema_ok || offset.checked_add(src_rows).is_none_or(|e| e > dst_rows) {
        return Err(Error::Merge {
            split_type: "RowSplit",
            message: format!(
                "piece of {src_rows} rows at offset {offset} does not fit \
                 placement output of {dst_rows} rows (or schema/dtype mismatch)"
            ),
        });
    }
    Ok(())
}

fn merge_rows(pieces: Vec<DataValue>) -> Result<DataValue> {
    let first = pieces.first().ok_or_else(|| Error::Merge {
        split_type: "RowSplit",
        message: "no pieces".into(),
    })?;
    if first.downcast_ref::<DfValue>().is_some() {
        let frames: Vec<DataFrame> = pieces
            .iter()
            .map(|p| {
                p.downcast_ref::<DfValue>()
                    .map(|d| d.0.clone())
                    .ok_or_else(|| Error::Merge {
                        split_type: "RowSplit",
                        message: "mixed piece types".into(),
                    })
            })
            .collect::<Result<_>>()?;
        return Ok(DataValue::new(DfValue(DataFrame::concat(&frames))));
    }
    if first.downcast_ref::<ColValue>().is_some() {
        let cols: Vec<Column> = pieces
            .iter()
            .map(|p| {
                p.downcast_ref::<ColValue>()
                    .map(|c| c.0.clone())
                    .ok_or_else(|| Error::Merge {
                        split_type: "RowSplit",
                        message: "mixed piece types".into(),
                    })
            })
            .collect::<Result<_>>()?;
        return Ok(DataValue::new(ColValue(Column::concat(&cols))));
    }
    Err(Error::Merge {
        split_type: "RowSplit",
        message: format!("unexpected piece type {}", first.type_name()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_df() -> DataFrame {
        DataFrame::from_cols(vec![
            ("id", Column::from_i64((0..10).collect())),
            ("v", Column::from_f64((0..10).map(|i| i as f64).collect())),
        ])
    }

    #[test]
    fn frame_and_column_share_one_split_type() {
        let s = RowSplit;
        let d = DataValue::new(DfValue(test_df()));
        let c = DataValue::new(ColValue(test_df().col("v").clone()));
        let pd = s.construct(&[&d]).unwrap();
        let pc = s.construct(&[&c]).unwrap();
        assert_eq!(pd, pc);
        let a = SplitInstance::new(RowSplit::shared(), pd);
        let b = SplitInstance::new(RowSplit::shared(), pc);
        assert!(a.same_type(&b));
    }

    #[test]
    fn split_merge_roundtrip_frame() {
        let s = RowSplit;
        let d = DataValue::new(DfValue(test_df()));
        let params = vec![10];
        let p1 = s.split(&d, 0..4, &params).unwrap().unwrap();
        let p2 = s.split(&d, 4..10, &params).unwrap().unwrap();
        let merged = s.merge(vec![p1, p2], &params, 0).unwrap();
        let m = merged.downcast_ref::<DfValue>().unwrap();
        assert_eq!(m.0.num_rows(), 10);
        assert_eq!(m.0.col("id").i64s(), test_df().col("id").i64s());
    }

    #[test]
    fn split_merge_roundtrip_column() {
        let s = RowSplit;
        let c = DataValue::new(ColValue(Column::from_strs(&["a", "b", "c"])));
        let params = vec![3];
        let p1 = s.split(&c, 0..2, &params).unwrap().unwrap();
        let p2 = s.split(&c, 2..3, &params).unwrap().unwrap();
        let merged = s.merge(vec![p1, p2], &params, 0).unwrap();
        assert_eq!(
            merged.downcast_ref::<ColValue>().unwrap().0.strs(),
            &["a".to_string(), "b".to_string(), "c".to_string()]
        );
        // Out-of-range terminates.
        assert!(s.split(&c, 3..5, &params).unwrap().is_none());
    }

    #[test]
    fn placement_matches_concat_for_frames_and_columns() {
        let s = RowSplit;
        let df = test_df();
        let d = DataValue::new(DfValue(df.clone()));
        let params = vec![10];
        let p1 = s.split(&d, 0..4, &params).unwrap().unwrap();
        let p2 = s.split(&d, 4..10, &params).unwrap().unwrap();
        let out = s
            .alloc_merged(10, &params, Some(&p1))
            .unwrap()
            .expect("RowSplit supports placement");
        // Out-of-claim-order writes land at the right offsets.
        s.write_piece(&out, 4, &p2).unwrap();
        s.write_piece(&out, 0, &p1).unwrap();
        let m = out.downcast_ref::<DfValue>().unwrap();
        assert_eq!(m.0.col("id").i64s(), df.col("id").i64s());
        assert_eq!(m.0.col("v").f64s(), df.col("v").f64s());

        // Columns, including non-Copy string payloads.
        let col = Column::from_strs(&["a", "b", "c", "d", "e"]);
        let c = DataValue::new(ColValue(col.clone()));
        let params = vec![5];
        let p1 = s.split(&c, 0..2, &params).unwrap().unwrap();
        let p2 = s.split(&c, 2..5, &params).unwrap().unwrap();
        let out = s.alloc_merged(5, &params, Some(&p2)).unwrap().unwrap();
        s.write_piece(&out, 2, &p2).unwrap();
        s.write_piece(&out, 0, &p1).unwrap();
        assert_eq!(out.downcast_ref::<ColValue>().unwrap().0.strs(), col.strs());
        // A truncated (NULL-tail) output is the written prefix.
        let trunc = s.truncate_merged(out, 3, &params).unwrap();
        assert_eq!(
            trunc.downcast_ref::<ColValue>().unwrap().0.strs(),
            &["a".to_string(), "b".to_string(), "c".to_string()]
        );
    }

    #[test]
    fn placement_rejects_mismatched_pieces() {
        let s = RowSplit;
        let col = DataValue::new(ColValue(Column::from_i64(vec![1, 2, 3])));
        let params = vec![3];
        let piece = s.split(&col, 0..2, &params).unwrap().unwrap();
        let out = s.alloc_merged(3, &params, Some(&piece)).unwrap().unwrap();
        // Out-of-bounds offset.
        assert!(s.write_piece(&out, 2, &piece).is_err());
        // Dtype mismatch.
        let other = DataValue::new(ColValue(Column::from_f64(vec![1.0])));
        assert!(s.write_piece(&out, 0, &other).is_err());
        // Frame piece into a column output.
        let frame = DataValue::new(DfValue(test_df()));
        assert!(s.write_piece(&out, 0, &frame).is_err());
    }

    #[test]
    fn stale_params_rejected() {
        let s = RowSplit;
        let c = DataValue::new(ColValue(Column::from_i64(vec![1, 2])));
        assert!(s.split(&c, 0..1, &vec![5]).is_err());
        assert!(s.merge(vec![], &vec![0], 0).is_err());
    }
    #[test]
    fn reuse_takes_only_an_exclusive_target_of_the_same_schema_and_rows() {
        let s = RowSplit;
        let params = vec![10];
        let piece = s
            .split(&DataValue::new(DfValue(test_df())), 0..4, &params)
            .unwrap()
            .unwrap();
        let fresh = || s.alloc_merged(10, &params, Some(&piece)).unwrap().unwrap();
        let v_ptr = |v: &DataValue| {
            v.downcast_ref::<DfValue>()
                .unwrap()
                .0
                .col("v")
                .f64s()
                .as_ptr()
        };

        // Exclusive, same schema, same rows: handed back as is.
        let out = fresh();
        let addr = v_ptr(&out);
        let reused = s.reuse(out, 10, &params, Some(&piece)).expect("exclusive");
        assert_eq!(v_ptr(&reused), addr);
        // No exemplar (the stage-start probe), another row count,
        // another schema, a column offered for a frame.
        assert!(s.reuse(fresh(), 10, &params, None).is_none());
        assert!(s.reuse(fresh(), 12, &params, Some(&piece)).is_none());
        let other = DataValue::new(DfValue(DataFrame::from_cols(vec![
            ("id", Column::from_f64(vec![0.0; 4])),
            ("v", Column::from_f64(vec![0.0; 4])),
        ])));
        assert!(s.reuse(fresh(), 10, &params, Some(&other)).is_none());
        let col = DataValue::new(ColValue(Column::from_f64(vec![0.0; 4])));
        assert!(s.reuse(fresh(), 10, &params, Some(&col)).is_none());
        // One column still held by the application, or a row slice of
        // the frame (a NULL-tail truncation, a coalesced request's band).
        let out = fresh();
        let held = out.downcast_ref::<DfValue>().unwrap().0.col("v").clone();
        assert!(s.reuse(out, 10, &params, Some(&piece)).is_none());
        drop(held);
        let out = fresh();
        let band = Concat::slice_back(&s, &out, 2, 3).unwrap();
        assert!(s.reuse(out, 10, &params, Some(&piece)).is_none());
        drop(band);
        let truncated = s.truncate_merged(fresh(), 6, &params).unwrap();
        assert!(s.reuse(truncated, 10, &params, Some(&piece)).is_none());

        // Columns: dtype must match the exemplar's.
        let cpiece = DataValue::new(ColValue(Column::from_strs(&["a", "b"])));
        let cout = s.alloc_merged(5, &params, Some(&cpiece)).unwrap().unwrap();
        assert!(s.reuse(cout, 5, &params, Some(&col)).is_none());
        let cout = s.alloc_merged(5, &params, Some(&cpiece)).unwrap().unwrap();
        assert!(s.reuse(cout, 5, &params, Some(&cpiece)).is_some());
    }
}
