//! Typed columns with zero-copy row slicing.
//!
//! A [`Column`] is the storage unit of the DataFrame library (the
//! reproduction's `pandas.Series` values). Storage is shared (`Arc`) and
//! row ranges are views, so the row-based split type the annotator
//! writes for Mozart is zero-copy, like `df.iloc[a:b]` on a contiguous
//! frame.
//!
//! Missing data follows the Pandas convention: `f64` columns use NaN as
//! the null sentinel (integer and string columns are null-free; casting
//! with [`Column::to_f64`]-style parsers introduces NaN).
//!
//! Storage is the cell store every base library's buffer sits on
//! (`crates/cells.rs`, compiled in as the private `cells` module), so
//! *placement merges* can fill disjoint row ranges of one preallocated
//! column from multiple threads ([`ColData::alloc`] +
//! [`ColData::write_range`]) under that store's band-write contract:
//! disjoint ranges across threads, and no reader until the column is
//! complete.

use std::any::TypeId;
use std::sync::Arc;

use crate::cells::Cells;
use crate::width::Width;

/// Shared storage for one column's values plus a row-range view.
#[derive(Clone)]
pub struct ColData<T> {
    data: Arc<Cells<T>>,
    start: usize,
    len: usize,
}

impl<T: std::fmt::Debug + Clone> std::fmt::Debug for ColData<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: Clone> ColData<T> {
    /// Take ownership of values by adopting `v`'s allocation as is:
    /// same address, no pass over the rows (a vector with spare
    /// capacity pays one shrinking `realloc` first, as
    /// `Vec::into_boxed_slice` does).
    pub fn new(v: Vec<T>) -> Self {
        Self::adopt(Cells::from_vec(v))
    }

    /// A view of all of `cells`.
    fn adopt(cells: Cells<T>) -> Self {
        ColData {
            len: cells.len(),
            data: Arc::new(cells),
            start: 0,
        }
    }

    /// Whether this handle is the only reference to its backing buffer
    /// and views all of it: no clone and no [`ColData::slice`] of the
    /// buffer is alive anywhere, and the handle is not itself a slice
    /// of a longer column. `Arc::get_mut`-exact, so a `true` cannot go
    /// stale while the caller keeps the handle to itself — what a
    /// runtime checks before refilling a released placement target
    /// through [`ColData::write_range`].
    pub fn is_exclusive(&mut self) -> bool {
        let len = self.len;
        self.start == 0 && Arc::get_mut(&mut self.data).is_some_and(|b| b.len() == len)
    }

    /// Allocate a default-initialized column of `len` rows, for use as
    /// a placement-merge target: disjoint row ranges of it can be
    /// filled in parallel with [`ColData::write_range`]. For
    /// zero-default primitives this is one zeroed allocation
    /// (`calloc`), adopted without a pass over it.
    pub fn alloc(len: usize) -> Self
    where
        T: Default + 'static,
    {
        let mut cells = Cells::from_vec(vec![T::default(); len]);
        // Fault the pages in here, so that the parallel placement
        // writers never take concurrent first-touch faults on one fresh
        // mapping. A *reused* target (see [`ColData::is_exclusive`])
        // never comes through here: its pages are resident already.
        let primitive = [
            TypeId::of::<i64>(),
            TypeId::of::<f64>(),
            TypeId::of::<bool>(),
        ];
        if primitive.contains(&TypeId::of::<T>()) {
            // SAFETY: the default of each of these types is all-zero
            // bits, so every byte of the fill is zero. It is a lazy
            // zeroed allocation, which a zero write faults in once per
            // page.
            unsafe { cells.prefault_zeroed() };
        } else {
            // The fill wrote every slot; the touch writes back each byte
            // it reads.
            cells.prefault();
        }
        Self::adopt(cells)
    }

    /// Write `src` into rows `[offset, offset + src.len())` (the
    /// placement-merge write: the parallel, in-place counterpart of a
    /// concat).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the view.
    ///
    /// # Safety
    ///
    /// The cell store's band-write contract (see the module docs): no
    /// other thread writes the row range meanwhile, and nothing reads it
    /// until the column is complete. The Mozart executor upholds this
    /// by handing workers disjoint element ranges of a not-yet-released
    /// column.
    pub unsafe fn write_range(&self, offset: usize, src: &[T]) {
        assert!(
            offset.checked_add(src.len()).is_some_and(|e| e <= self.len),
            "write_range out of bounds"
        );
        // SAFETY: in bounds per the assert and the view invariant; the
        // contract is this function's.
        let rows = unsafe { self.data.band_mut(self.start + offset, src.len()) };
        rows.clone_from_slice(src);
    }

    /// Number of rows in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The viewed values.
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: a view lies inside its store, and no band write is in
        // flight over a column anyone can read (the band-write contract).
        unsafe { self.data.slice(self.start, self.len) }
    }

    /// Zero-copy sub-view of rows `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the view.
    pub fn slice(&self, start: usize, end: usize) -> Self {
        assert!(
            start <= end && end <= self.len,
            "column slice out of bounds"
        );
        ColData {
            data: Arc::clone(&self.data),
            start: self.start + start,
            len: end - start,
        }
    }

    /// Copy the rows selected by a boolean mask, cloning each into a
    /// vector of exactly the kept rows' size.
    ///
    /// # Panics
    ///
    /// Panics if the mask length differs.
    pub fn filter(&self, mask: &[bool]) -> Self {
        assert_eq!(mask.len(), self.len, "mask length mismatch");
        self.clone_kept(mask, Selection::of(Width::host(), mask))
    }

    fn clone_kept(&self, mask: &[bool], sel: Selection) -> Self {
        let mut out = Vec::with_capacity(sel.kept);
        for (v, &keep) in self.as_slice().iter().zip(mask) {
            if keep {
                out.push(v.clone());
            }
        }
        ColData::new(out)
    }

    /// Copy rows at the given indices (used by joins).
    pub fn take(&self, idx: &[usize]) -> Self {
        let s = self.as_slice();
        ColData::new(idx.iter().map(|&i| s[i].clone()).collect())
    }
}

impl<T: Copy> ColData<T> {
    /// The rows `mask` keeps, compacted without a branch: every row up
    /// to the last kept one is written to the next free slot, which
    /// advances only past a kept row. A row `i` before the last kept
    /// one finds at most `kept − 1` kept rows before it, so its slot is
    /// in the buffer, which is sized to the kept rows exactly.
    fn compact(&self, width: Width, mask: &[bool], sel: Selection) -> Self {
        let src = &self.as_slice()[..sel.end];
        let mask = &mask[..sel.end];
        let mut out = Vec::with_capacity(sel.kept);
        let dst = &mut out.spare_capacity_mut()[..sel.kept];
        let written = width.run(
            #[inline(always)]
            || {
                let mut j = 0;
                for (&v, &keep) in src.iter().zip(mask) {
                    dst[j].write(v);
                    j += usize::from(keep);
                }
                j
            },
        );
        assert_eq!(written, sel.kept, "filter: a selection of another mask");
        // SAFETY: slots `0..written` were written: the loop writes slot
        // `j` before it moves `j` past it.
        unsafe { out.set_len(written) };
        ColData::new(out)
    }
}

/// What a mask keeps: its kept rows and the end of the last one. A
/// frame's filter counts it once for all of its columns.
#[derive(Clone, Copy)]
pub(crate) struct Selection {
    kept: usize,
    end: usize,
}

impl Selection {
    pub(crate) fn of(width: Width, mask: &[bool]) -> Selection {
        let kept = width.run(
            #[inline(always)]
            || mask.iter().map(|&keep| usize::from(keep)).sum(),
        );
        let end = mask.iter().rposition(|&keep| keep).map_or(0, |i| i + 1);
        Selection { kept, end }
    }
}

/// A typed column of row values.
#[derive(Clone, Debug)]
pub enum Column {
    /// 64-bit integers (null-free).
    I64(ColData<i64>),
    /// 64-bit floats; NaN is the null sentinel.
    F64(ColData<f64>),
    /// UTF-8 strings (null-free).
    Str(ColData<String>),
    /// Booleans (null-free).
    Bool(ColData<bool>),
}

impl Column {
    /// Integer column from values.
    pub fn from_i64(v: Vec<i64>) -> Self {
        Column::I64(ColData::new(v))
    }
    /// Float column from values.
    pub fn from_f64(v: Vec<f64>) -> Self {
        Column::F64(ColData::new(v))
    }
    /// String column from values.
    ///
    /// Not the `FromStr` trait: this takes owned values, mirroring the
    /// other `from_*` constructors.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(v: Vec<String>) -> Self {
        Column::Str(ColData::new(v))
    }
    /// String column from `&str` values.
    pub fn from_strs(v: &[&str]) -> Self {
        Column::Str(ColData::new(v.iter().map(|s| s.to_string()).collect()))
    }
    /// Boolean column from values.
    pub fn from_bool(v: Vec<bool>) -> Self {
        Column::Bool(ColData::new(v))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::I64(c) => c.len(),
            Column::F64(c) => c.len(),
            Column::Str(c) => c.len(),
            Column::Bool(c) => c.len(),
        }
    }

    /// Whether the column has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this handle is the only reference to its backing buffer
    /// and views all of it (see [`ColData::is_exclusive`]).
    pub fn is_exclusive(&mut self) -> bool {
        match self {
            Column::I64(c) => c.is_exclusive(),
            Column::F64(c) => c.is_exclusive(),
            Column::Str(c) => c.is_exclusive(),
            Column::Bool(c) => c.is_exclusive(),
        }
    }

    /// Short name of the column's data type.
    pub fn dtype(&self) -> &'static str {
        match self {
            Column::I64(_) => "i64",
            Column::F64(_) => "f64",
            Column::Str(_) => "str",
            Column::Bool(_) => "bool",
        }
    }

    /// Allocate a default-initialized column of `rows` rows with this
    /// column's dtype (a placement-merge target; see
    /// [`ColData::alloc`]).
    pub fn alloc_like(&self, rows: usize) -> Column {
        match self {
            Column::I64(_) => Column::I64(ColData::alloc(rows)),
            Column::F64(_) => Column::F64(ColData::alloc(rows)),
            Column::Str(_) => Column::Str(ColData::alloc(rows)),
            Column::Bool(_) => Column::Bool(ColData::alloc(rows)),
        }
    }

    /// Write all rows of `src` into this column starting at `offset`
    /// (the placement-merge write; the parallel, in-place counterpart
    /// of [`Column::concat`]).
    ///
    /// # Panics
    ///
    /// Panics on dtype mismatch or an out-of-bounds row range.
    ///
    /// # Safety
    ///
    /// Same contract as [`ColData::write_range`]: the cell store's
    /// band-write contract.
    pub unsafe fn write_at(&self, offset: usize, src: &Column) {
        // SAFETY: forwarded contract.
        unsafe {
            match (self, src) {
                (Column::I64(d), Column::I64(s)) => d.write_range(offset, s.as_slice()),
                (Column::F64(d), Column::F64(s)) => d.write_range(offset, s.as_slice()),
                (Column::Str(d), Column::Str(s)) => d.write_range(offset, s.as_slice()),
                (Column::Bool(d), Column::Bool(s)) => d.write_range(offset, s.as_slice()),
                (d, s) => panic!("write_at: mixed types {} vs {}", d.dtype(), s.dtype()),
            }
        }
    }

    /// Zero-copy view of rows `[start, end)`.
    pub fn slice(&self, start: usize, end: usize) -> Column {
        match self {
            Column::I64(c) => Column::I64(c.slice(start, end)),
            Column::F64(c) => Column::F64(c.slice(start, end)),
            Column::Str(c) => Column::Str(c.slice(start, end)),
            Column::Bool(c) => Column::Bool(c.slice(start, end)),
        }
    }

    /// Copy rows selected by a boolean mask.
    ///
    /// # Panics
    ///
    /// Panics if the mask length differs.
    pub fn filter(&self, mask: &[bool]) -> Column {
        self.filter_at(Width::host(), mask)
    }

    /// [`Column::filter`] at one arm of the dispatch, for tests that
    /// compare the arms.
    ///
    /// # Panics
    ///
    /// Panics if the mask length differs.
    #[doc(hidden)]
    pub fn filter_at(&self, width: Width, mask: &[bool]) -> Column {
        self.select(width, mask, Selection::of(width, mask))
    }

    /// The rows `sel` counted of `mask`.
    pub(crate) fn select(&self, width: Width, mask: &[bool], sel: Selection) -> Column {
        assert_eq!(mask.len(), self.len(), "mask length mismatch");
        match self {
            Column::I64(c) => Column::I64(c.compact(width, mask, sel)),
            Column::F64(c) => Column::F64(c.compact(width, mask, sel)),
            Column::Str(c) => Column::Str(c.clone_kept(mask, sel)),
            Column::Bool(c) => Column::Bool(c.compact(width, mask, sel)),
        }
    }

    /// Copy rows at the given indices.
    pub fn take(&self, idx: &[usize]) -> Column {
        match self {
            Column::I64(c) => Column::I64(c.take(idx)),
            Column::F64(c) => Column::F64(c.take(idx)),
            Column::Str(c) => Column::Str(c.take(idx)),
            Column::Bool(c) => Column::Bool(c.take(idx)),
        }
    }

    /// Concatenate columns of the same type. The output is allocated
    /// once, at the parts' total length.
    ///
    /// # Panics
    ///
    /// Panics on empty input or mixed types.
    pub fn concat(parts: &[Column]) -> Column {
        let total_rows = parts.iter().map(Column::len).sum();
        assert!(!parts.is_empty(), "concat of zero columns");
        match &parts[0] {
            Column::I64(_) => {
                let mut out = Vec::with_capacity(total_rows);
                for p in parts {
                    match p {
                        Column::I64(c) => out.extend_from_slice(c.as_slice()),
                        other => panic!("concat: mixed types i64 vs {}", other.dtype()),
                    }
                }
                Column::from_i64(out)
            }
            Column::F64(_) => {
                let mut out = Vec::with_capacity(total_rows);
                for p in parts {
                    match p {
                        Column::F64(c) => out.extend_from_slice(c.as_slice()),
                        other => panic!("concat: mixed types f64 vs {}", other.dtype()),
                    }
                }
                Column::from_f64(out)
            }
            Column::Str(_) => {
                let mut out: Vec<String> = Vec::with_capacity(total_rows);
                for p in parts {
                    match p {
                        Column::Str(c) => out.extend(c.as_slice().iter().cloned()),
                        other => panic!("concat: mixed types str vs {}", other.dtype()),
                    }
                }
                Column::from_str(out)
            }
            Column::Bool(_) => {
                let mut out = Vec::with_capacity(total_rows);
                for p in parts {
                    match p {
                        Column::Bool(c) => out.extend_from_slice(c.as_slice()),
                        other => panic!("concat: mixed types bool vs {}", other.dtype()),
                    }
                }
                Column::from_bool(out)
            }
        }
    }

    /// Borrow as `i64` values.
    ///
    /// # Panics
    ///
    /// Panics if the column is not `i64`.
    pub fn i64s(&self) -> &[i64] {
        match self {
            Column::I64(c) => c.as_slice(),
            other => panic!("expected i64 column, got {}", other.dtype()),
        }
    }

    /// Borrow as `f64` values.
    ///
    /// # Panics
    ///
    /// Panics if the column is not `f64`.
    pub fn f64s(&self) -> &[f64] {
        match self {
            Column::F64(c) => c.as_slice(),
            other => panic!("expected f64 column, got {}", other.dtype()),
        }
    }

    /// Borrow as strings.
    ///
    /// # Panics
    ///
    /// Panics if the column is not `str`.
    pub fn strs(&self) -> &[String] {
        match self {
            Column::Str(c) => c.as_slice(),
            other => panic!("expected str column, got {}", other.dtype()),
        }
    }

    /// Borrow as booleans.
    ///
    /// # Panics
    ///
    /// Panics if the column is not `bool`.
    pub fn bools(&self) -> &[bool] {
        match self {
            Column::Bool(c) => c.as_slice(),
            other => panic!("expected bool column, got {}", other.dtype()),
        }
    }

    /// Cast to `f64` (integers cast exactly; strings parse with NaN on
    /// failure; booleans become 0.0/1.0; floats are returned as-is).
    pub fn to_f64(&self) -> Column {
        match self {
            Column::F64(_) => self.clone(),
            Column::I64(c) => Column::from_f64(c.as_slice().iter().map(|&v| v as f64).collect()),
            Column::Str(c) => Column::from_f64(
                c.as_slice()
                    .iter()
                    .map(|s| s.trim().parse::<f64>().unwrap_or(f64::NAN))
                    .collect(),
            ),
            Column::Bool(c) => Column::from_f64(
                c.as_slice()
                    .iter()
                    .map(|&b| if b { 1.0 } else { 0.0 })
                    .collect(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slicing_is_zero_copy_and_nested() {
        let c = Column::from_i64((0..10).collect());
        let v = c.slice(2, 8);
        assert_eq!(v.i64s(), &[2, 3, 4, 5, 6, 7]);
        let vv = v.slice(1, 3);
        assert_eq!(vv.i64s(), &[3, 4]);
    }

    #[test]
    fn filter_and_take() {
        let c = Column::from_strs(&["a", "b", "c", "d"]);
        let f = c.filter(&[true, false, false, true]);
        assert_eq!(f.strs(), &["a".to_string(), "d".to_string()]);
        let t = c.take(&[3, 0, 0]);
        assert_eq!(
            t.strs(),
            &["d".to_string(), "a".to_string(), "a".to_string()]
        );
    }

    #[test]
    fn write_range_writes_the_rows_of_the_view() {
        let f = ColData::new(vec![0.0f64; 8]).slice(2, 7);
        let s = ColData::new(vec![String::new(); 8]).slice(1, 6);
        // SAFETY: no other reference reads or writes the columns.
        unsafe {
            f.write_range(1, &[1.5, 2.5]);
            s.write_range(3, &["a".to_string(), "b".to_string()]);
        }
        assert_eq!(f.as_slice(), &[0.0, 1.5, 2.5, 0.0, 0.0]);
        assert_eq!(s.as_slice(), &["", "", "", "a", "b"]);
    }

    #[test]
    #[should_panic(expected = "write_range out of bounds")]
    fn write_range_stays_inside_the_view() {
        let c = ColData::new(vec![0i64; 8]).slice(0, 4);
        // SAFETY: as above; the call panics before it writes.
        unsafe { c.write_range(3, &[1, 2]) };
    }

    #[test]
    fn concat_roundtrips_slices() {
        let c = Column::from_f64((0..6).map(|i| i as f64).collect());
        let merged = Column::concat(&[c.slice(0, 2), c.slice(2, 5), c.slice(5, 6)]);
        assert_eq!(merged.f64s(), c.f64s());
    }

    #[test]
    #[should_panic(expected = "mixed types")]
    fn concat_rejects_mixed_types() {
        Column::concat(&[Column::from_i64(vec![1]), Column::from_f64(vec![1.0])]);
    }

    #[test]
    fn casting() {
        let c = Column::from_strs(&["1.5", "x", " 2 "]);
        let f = c.to_f64();
        let v = f.f64s();
        assert_eq!(v[0], 1.5);
        assert!(v[1].is_nan());
        assert_eq!(v[2], 2.0);
        assert_eq!(Column::from_i64(vec![3]).to_f64().f64s(), &[3.0]);
        assert_eq!(
            Column::from_bool(vec![true, false]).to_f64().f64s(),
            &[1.0, 0.0]
        );
    }

    #[test]
    #[should_panic(expected = "expected i64 column")]
    fn typed_access_checks() {
        Column::from_f64(vec![1.0]).i64s();
    }
}
