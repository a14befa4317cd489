//! The [`DataFrame`]: an ordered collection of named, equal-length
//! columns with zero-copy row slicing.

use crate::column::{Column, Selection};
use crate::width::Width;

/// A columnar table (the reproduction's `pandas.DataFrame`).
///
/// Cloning is cheap: columns share storage.
#[derive(Clone, Debug)]
pub struct DataFrame {
    cols: Vec<(String, Column)>,
}

impl DataFrame {
    /// Build from `(name, column)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if column lengths differ or names repeat.
    pub fn new(cols: Vec<(String, Column)>) -> Self {
        if let Some((_, first)) = cols.first() {
            let n = first.len();
            for (name, c) in &cols {
                assert_eq!(
                    c.len(),
                    n,
                    "column {name} has {} rows, expected {n}",
                    c.len()
                );
            }
        }
        let mut seen = std::collections::HashSet::new();
        for (name, _) in &cols {
            assert!(seen.insert(name.clone()), "duplicate column name {name}");
        }
        DataFrame { cols }
    }

    /// Convenience constructor from `&str` names.
    pub fn from_cols(cols: Vec<(&str, Column)>) -> Self {
        Self::new(cols.into_iter().map(|(n, c)| (n.to_string(), c)).collect())
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.cols.first().map(|(_, c)| c.len()).unwrap_or(0)
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.cols.len()
    }

    /// Column names, in order.
    pub fn names(&self) -> Vec<&str> {
        self.cols.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Look up a column by name.
    ///
    /// # Panics
    ///
    /// Panics if the column does not exist.
    pub fn col(&self, name: &str) -> &Column {
        self.get(name)
            .unwrap_or_else(|| panic!("no column named {name:?} (have {:?})", self.names()))
    }

    /// Look up a column by name, if present.
    pub fn get(&self, name: &str) -> Option<&Column> {
        self.cols.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }

    /// All `(name, column)` pairs.
    pub fn columns(&self) -> &[(String, Column)] {
        &self.cols
    }

    /// New frame with `col` added or replaced.
    pub fn with_column(&self, name: &str, col: Column) -> DataFrame {
        if !self.cols.is_empty() {
            assert_eq!(
                col.len(),
                self.num_rows(),
                "with_column: row count mismatch"
            );
        }
        let mut cols = self.cols.clone();
        match cols.iter_mut().find(|(n, _)| n == name) {
            Some((_, c)) => *c = col,
            None => cols.push((name.to_string(), col)),
        }
        DataFrame { cols }
    }

    /// New frame with only the named columns, in the given order.
    ///
    /// # Panics
    ///
    /// Panics if a name is missing.
    pub fn select(&self, names: &[&str]) -> DataFrame {
        DataFrame::new(
            names
                .iter()
                .map(|n| (n.to_string(), self.col(n).clone()))
                .collect(),
        )
    }

    /// Zero-copy view of rows `[start, end)`.
    pub fn slice_rows(&self, start: usize, end: usize) -> DataFrame {
        DataFrame {
            cols: self
                .cols
                .iter()
                .map(|(n, c)| (n.clone(), c.slice(start, end)))
                .collect(),
        }
    }

    /// Copy the rows selected by a boolean mask column.
    ///
    /// # Panics
    ///
    /// Panics if the mask is not boolean or has the wrong length.
    pub fn filter(&self, mask: &Column) -> DataFrame {
        let m = mask.bools();
        let width = Width::host();
        let sel = Selection::of(width, m);
        DataFrame {
            cols: self
                .cols
                .iter()
                .map(|(n, c)| (n.clone(), c.select(width, m, sel)))
                .collect(),
        }
    }

    /// Copy the rows at the given indices.
    pub fn take(&self, idx: &[usize]) -> DataFrame {
        DataFrame {
            cols: self
                .cols
                .iter()
                .map(|(n, c)| (n.clone(), c.take(idx)))
                .collect(),
        }
    }

    /// Whether every column is the only reference to its backing buffer
    /// and views all of it (see [`Column::is_exclusive`]): nothing but
    /// this handle can observe a write into the frame.
    pub fn is_exclusive(&mut self) -> bool {
        self.cols.iter_mut().all(|(_, c)| c.is_exclusive())
    }

    /// Allocate a default-initialized frame of `rows` rows with this
    /// frame's schema (a placement-merge target; see
    /// [`Column::alloc_like`]).
    pub fn alloc_like(&self, rows: usize) -> DataFrame {
        DataFrame {
            cols: self
                .cols
                .iter()
                .map(|(n, c)| (n.clone(), c.alloc_like(rows)))
                .collect(),
        }
    }

    /// Write all rows of `src` into this frame starting at row
    /// `offset` (the placement-merge write; the parallel, in-place
    /// counterpart of [`DataFrame::concat`]).
    ///
    /// # Panics
    ///
    /// Panics on schema mismatch or an out-of-bounds row range.
    ///
    /// # Safety
    ///
    /// Same contract as [`Column::write_at`]: the cell store's
    /// band-write contract (see the [`crate::column`] docs).
    pub unsafe fn write_rows_at(&self, offset: usize, src: &DataFrame) {
        assert_eq!(src.names(), self.names(), "write_rows_at: schema mismatch");
        for ((_, dst), (_, s)) in self.cols.iter().zip(&src.cols) {
            // SAFETY: forwarded contract.
            unsafe { dst.write_at(offset, s) };
        }
    }

    /// Concatenate frames with identical schemas, preserving row order.
    /// Every column is allocated once, at the parts' total row count.
    ///
    /// # Panics
    ///
    /// Panics on empty input or schema mismatch.
    pub fn concat(parts: &[DataFrame]) -> DataFrame {
        assert!(!parts.is_empty(), "concat of zero frames");
        let names = parts[0].names();
        for p in parts {
            assert_eq!(p.names(), names, "concat: schema mismatch");
        }
        let cols = names
            .iter()
            .map(|n| {
                let pieces: Vec<Column> = parts.iter().map(|p| p.col(n).clone()).collect();
                (n.to_string(), Column::concat(&pieces))
            })
            .collect();
        DataFrame { cols }
    }

    /// Stable sort by an integer or string column, ascending.
    ///
    /// # Panics
    ///
    /// Panics if the column is float or boolean.
    pub fn sort_by(&self, name: &str) -> DataFrame {
        let mut idx: Vec<usize> = (0..self.num_rows()).collect();
        match self.col(name) {
            Column::I64(_) => {
                let keys = self.col(name).i64s();
                idx.sort_by_key(|&i| keys[i]);
            }
            Column::Str(_) => {
                let keys = self.col(name).strs();
                idx.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
            }
            other => panic!("sort_by: unsupported column type {}", other.dtype()),
        }
        self.take(&idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn df() -> DataFrame {
        DataFrame::from_cols(vec![
            ("id", Column::from_i64(vec![3, 1, 2])),
            ("score", Column::from_f64(vec![0.5, 1.5, 2.5])),
            ("name", Column::from_strs(&["c", "a", "b"])),
        ])
    }

    #[test]
    fn basic_access() {
        let d = df();
        assert_eq!(d.num_rows(), 3);
        assert_eq!(d.num_cols(), 3);
        assert_eq!(d.names(), vec!["id", "score", "name"]);
        assert_eq!(d.col("id").i64s(), &[3, 1, 2]);
        assert!(d.get("missing").is_none());
    }

    #[test]
    fn slicing_and_concat_roundtrip() {
        let d = df();
        let parts = vec![d.slice_rows(0, 1), d.slice_rows(1, 3)];
        let merged = DataFrame::concat(&parts);
        assert_eq!(merged.col("name").strs(), d.col("name").strs());
        assert_eq!(merged.num_rows(), 3);
    }

    #[test]
    fn filter_and_take() {
        let d = df();
        let mask = Column::from_bool(vec![true, false, true]);
        let f = d.filter(&mask);
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.col("id").i64s(), &[3, 2]);
        let t = d.take(&[1, 1]);
        assert_eq!(t.col("name").strs(), &["a".to_string(), "a".to_string()]);
    }

    #[test]
    fn with_column_and_select() {
        let d = df();
        let d2 = d.with_column("double", crate::ops::mul_scalar(d.col("score"), 2.0));
        assert_eq!(d2.col("double").f64s(), &[1.0, 3.0, 5.0]);
        let d3 = d2.with_column("score", Column::from_f64(vec![0.0; 3]));
        assert_eq!(d3.col("score").f64s(), &[0.0, 0.0, 0.0]);
        let s = d3.select(&["name", "double"]);
        assert_eq!(s.names(), vec!["name", "double"]);
    }

    #[test]
    fn sorting() {
        let d = df();
        assert_eq!(d.sort_by("id").col("name").strs(), &["a", "b", "c"]);
        assert_eq!(d.sort_by("name").col("id").i64s(), &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "duplicate column name")]
    fn duplicate_names_rejected() {
        DataFrame::from_cols(vec![
            ("a", Column::from_i64(vec![1])),
            ("a", Column::from_i64(vec![2])),
        ]);
    }

    #[test]
    #[should_panic(expected = "rows, expected")]
    fn ragged_columns_rejected() {
        DataFrame::from_cols(vec![
            ("a", Column::from_i64(vec![1])),
            ("b", Column::from_i64(vec![1, 2])),
        ]);
    }
}
