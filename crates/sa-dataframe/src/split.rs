//! The `RowSplit` split type shared by DataFrames and Series.
//!
//! The paper's Pandas integration "implements split types over
//! DataFrames and Series by splitting by row" (§7). Split type equality
//! is by name and parameters, so a frame and a column with the same row
//! count carry the *same* split type `RowSplit<rows>` and pipeline
//! freely (e.g. `df.col(...)` flows into Series arithmetic).
//!
//! `RowSplit` is a row-band split type ([`mozart_core::row_bands`]):
//! [`DfValue`] and [`ColValue`] each implement [`RowBand`] with the
//! `dataframe` crate's own calls, and [`RowSplitter::bands`] picks
//! between them by the value's type. The runtime's one generic
//! implementation does the rest: zero-copy row slices, merges
//! placement-written into one target per output, allocated on the first
//! piece (which supplies what the parameters cannot: a frame's schema,
//! a column's dtype), and, on a warm plan cache, a released target of
//! the same schema and row count that nobody else holds any more
//! written over instead of allocating a new one.

use std::sync::Arc;

use dataframe::{Column, DataFrame};
use mozart_core::prelude::*;
use mozart_core::row_bands::{bands, Bands, RowBand, RowSplitter};

/// `DataValue` wrapper for [`DataFrame`].
#[derive(Debug, Clone)]
pub struct DfValue(pub DataFrame);

impl mozart_core::value::DataObject for DfValue {
    fn type_name(&self) -> &'static str {
        "DfValue"
    }
}

/// `DataValue` wrapper for [`Column`] (a Series).
#[derive(Debug, Clone)]
pub struct ColValue(pub Column);

impl mozart_core::value::DataObject for ColValue {
    fn type_name(&self) -> &'static str {
        "ColValue"
    }
}

impl RowBand for DfValue {
    fn rows(&self) -> usize {
        self.0.num_rows()
    }

    /// The same column names and dtypes, in order.
    fn same_cross_section(&self, other: &Self) -> bool {
        self.0.names() == other.0.names()
            && (self.0.columns().iter())
                .zip(other.0.columns())
                .all(|((_, x), (_, y))| x.dtype() == y.dtype())
    }

    fn view(&self, start: usize, end: usize) -> Self {
        DfValue(self.0.slice_rows(start, end))
    }

    fn concat(parts: &[&Self]) -> Self {
        let frames: Vec<DataFrame> = parts.iter().map(|p| p.0.clone()).collect();
        DfValue(DataFrame::concat(&frames))
    }

    unsafe fn alloc_uninit(rows: usize, _: &Params, exemplar: Option<&Self>) -> Option<Self> {
        exemplar.map(|e| DfValue(e.0.alloc_like(rows)))
    }

    unsafe fn write_rows(&self, offset: usize, band: &Self) {
        // SAFETY: forwarded contract.
        unsafe { self.0.write_rows_at(offset, &band.0) }
    }

    fn is_exclusive(&mut self) -> bool {
        self.0.is_exclusive()
    }
}

impl RowBand for ColValue {
    fn rows(&self) -> usize {
        self.0.len()
    }

    fn same_cross_section(&self, other: &Self) -> bool {
        self.0.dtype() == other.0.dtype()
    }

    fn view(&self, start: usize, end: usize) -> Self {
        ColValue(self.0.slice(start, end))
    }

    fn concat(parts: &[&Self]) -> Self {
        let cols: Vec<Column> = parts.iter().map(|p| p.0.clone()).collect();
        ColValue(Column::concat(&cols))
    }

    unsafe fn alloc_uninit(rows: usize, _: &Params, exemplar: Option<&Self>) -> Option<Self> {
        exemplar.map(|e| ColValue(e.0.alloc_like(rows)))
    }

    unsafe fn write_rows(&self, offset: usize, band: &Self) {
        // SAFETY: forwarded contract.
        unsafe { self.0.write_at(offset, &band.0) }
    }

    fn is_exclusive(&mut self) -> bool {
        self.0.is_exclusive()
    }
}

/// Row-based split type for frames and columns. Parameter: row count.
#[derive(Default)]
pub struct RowSplit;

impl RowSplit {
    /// Shared instance.
    pub fn shared() -> Arc<dyn Splitter> {
        Arc::new(RowSplit)
    }
}

impl RowSplitter for RowSplit {
    const NAME: &'static str = "RowSplit";

    fn construct(ctor_args: &[&DataValue]) -> Result<Params> {
        let rows = ctor_args.first().and_then(|v| {
            (v.downcast_ref::<DfValue>().map(RowBand::rows))
                .or_else(|| v.downcast_ref::<ColValue>().map(RowBand::rows))
        });
        let rows = rows.ok_or_else(|| Error::Constructor {
            split_type: "RowSplit",
            message: "expected a frame or series argument".into(),
        })?;
        Ok(vec![rows as i64])
    }

    fn info(params: &Params) -> RuntimeInfo {
        RuntimeInfo {
            total_elements: params.first().copied().unwrap_or(0).max(0) as u64,
            // Approximate row footprint; Pandas rows are wide, use a
            // conservative 64 bytes so batches stay cache-resident.
            elem_size_bytes: 64,
        }
    }

    fn bands(value: Option<&DataValue>) -> &'static dyn Bands {
        match value {
            Some(v) if v.downcast_ref::<ColValue>().is_some() => bands::<Self, ColValue>(),
            _ => bands::<Self, DfValue>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The split type's placement capability.
    fn placement() -> &'static dyn Placement {
        RowSplit.merge_strategy().placement().unwrap()
    }

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
        let p = placement();
        let s = RowSplit;
        let df = test_df();
        let d = DataValue::new(DfValue(df.clone()));
        let params = vec![10];
        let p1 = s.split(&d, 0..4, &params).unwrap().unwrap();
        let p2 = s.split(&d, 4..10, &params).unwrap().unwrap();
        let out = p
            .alloc_merged(10, &params, Some(&p1))
            .unwrap()
            .expect("RowSplit supports placement");
        // Out-of-claim-order writes land at the right offsets.
        p.write_piece(&out, 4, &p2).unwrap();
        p.write_piece(&out, 0, &p1).unwrap();
        let m = out.downcast_ref::<DfValue>().unwrap();
        assert_eq!(m.0.col("id").i64s(), df.col("id").i64s());
        assert_eq!(m.0.col("v").f64s(), df.col("v").f64s());

        // Columns, including non-Copy string payloads.
        let col = Column::from_strs(&["a", "b", "c", "d", "e"]);
        let c = DataValue::new(ColValue(col.clone()));
        let params = vec![5];
        let p1 = s.split(&c, 0..2, &params).unwrap().unwrap();
        let p2 = s.split(&c, 2..5, &params).unwrap().unwrap();
        let out = p.alloc_merged(5, &params, Some(&p2)).unwrap().unwrap();
        p.write_piece(&out, 2, &p2).unwrap();
        p.write_piece(&out, 0, &p1).unwrap();
        assert_eq!(out.downcast_ref::<ColValue>().unwrap().0.strs(), col.strs());
        // A truncated (NULL-tail) output is the written prefix.
        let trunc = p.truncate_merged(out, 3, &params).unwrap();
        assert_eq!(
            trunc.downcast_ref::<ColValue>().unwrap().0.strs(),
            &["a".to_string(), "b".to_string(), "c".to_string()]
        );
    }

    #[test]
    fn placement_rejects_mismatched_pieces() {
        let p = placement();
        let s = RowSplit;
        let col = DataValue::new(ColValue(Column::from_i64(vec![1, 2, 3])));
        let params = vec![3];
        let piece = s.split(&col, 0..2, &params).unwrap().unwrap();
        let out = p.alloc_merged(3, &params, Some(&piece)).unwrap().unwrap();
        // Out-of-bounds offset.
        assert!(p.write_piece(&out, 2, &piece).is_err());
        // Dtype mismatch.
        let other = DataValue::new(ColValue(Column::from_f64(vec![1.0])));
        assert!(p.write_piece(&out, 0, &other).is_err());
        // Frame piece into a column output.
        let frame = DataValue::new(DfValue(test_df()));
        assert!(p.write_piece(&out, 0, &frame).is_err());
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
        let p = placement();
        let s = RowSplit;
        let params = vec![10];
        let piece = s
            .split(&DataValue::new(DfValue(test_df())), 0..4, &params)
            .unwrap()
            .unwrap();
        let fresh = || p.alloc_merged(10, &params, Some(&piece)).unwrap().unwrap();
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
        let reused = p.reuse(out, 10, &params, Some(&piece)).expect("exclusive");
        assert_eq!(v_ptr(&reused), addr);
        // No exemplar (the stage-start probe), another row count,
        // another schema, a column offered for a frame.
        assert!(p.reuse(fresh(), 10, &params, None).is_none());
        assert!(p.reuse(fresh(), 12, &params, Some(&piece)).is_none());
        let other = DataValue::new(DfValue(DataFrame::from_cols(vec![
            ("id", Column::from_f64(vec![0.0; 4])),
            ("v", Column::from_f64(vec![0.0; 4])),
        ])));
        assert!(p.reuse(fresh(), 10, &params, Some(&other)).is_none());
        let col = DataValue::new(ColValue(Column::from_f64(vec![0.0; 4])));
        assert!(p.reuse(fresh(), 10, &params, Some(&col)).is_none());
        // One column still held by the application, or a row slice of
        // the frame (a NULL-tail truncation, a coalesced request's band).
        let out = fresh();
        let held = out.downcast_ref::<DfValue>().unwrap().0.col("v").clone();
        assert!(p.reuse(out, 10, &params, Some(&piece)).is_none());
        drop(held);
        let out = fresh();
        let band = Concat::slice_back(&s, &out, 2, 3).unwrap();
        assert!(p.reuse(out, 10, &params, Some(&piece)).is_none());
        drop(band);
        let truncated = p.truncate_merged(fresh(), 6, &params).unwrap();
        assert!(p.reuse(truncated, 10, &params, Some(&piece)).is_none());

        // Columns: dtype must match the exemplar's.
        let cpiece = DataValue::new(ColValue(Column::from_strs(&["a", "b"])));
        let cout = p.alloc_merged(5, &params, Some(&cpiece)).unwrap().unwrap();
        assert!(p.reuse(cout, 5, &params, Some(&col)).is_none());
        let cout = p.alloc_merged(5, &params, Some(&cpiece)).unwrap().unwrap();
        assert!(p.reuse(cout, 5, &params, Some(&cpiece)).is_some());
    }

    #[test]
    fn merge_of_mismatched_pieces_is_a_merge_error() {
        // `DataFrame::concat` and `Column::concat` assert on these; the
        // merge checks the cross-sections first.
        let s = RowSplit;
        let frame = |id: Column| DataValue::new(DfValue(DataFrame::from_cols(vec![("id", id)])));
        let col = |c: Column| DataValue::new(ColValue(c));
        let renamed = DataValue::new(DfValue(DataFrame::from_cols(vec![(
            "key",
            Column::from_i64(vec![2]),
        )])));
        let mismatched = [
            (frame(Column::from_i64(vec![1])), renamed),
            (
                frame(Column::from_i64(vec![1])),
                frame(Column::from_f64(vec![2.0])),
            ),
            (
                col(Column::from_i64(vec![1])),
                col(Column::from_f64(vec![2.0])),
            ),
            (
                frame(Column::from_i64(vec![1])),
                col(Column::from_i64(vec![2])),
            ),
        ];
        for (a, b) in mismatched {
            let err = s.merge(vec![a, b], &vec![2], 2).unwrap_err();
            assert!(
                matches!(
                    err,
                    Error::Merge {
                        split_type: "RowSplit",
                        ..
                    }
                ),
                "{err:?}"
            );
        }
    }
}
