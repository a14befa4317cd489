//! The `NdArray` container: an immutable, cheaply-cloneable, row-major
//! dense array of `f64` (the reproduction's `numpy.ndarray`).
//!
//! Values are functional: operations return new arrays; views share the
//! backing allocation. This mirrors how the paper's Python integration
//! treats NumPy values (split functions return views, operators return
//! fresh arrays, mergers concatenate).
//!
//! Arrays are immutable through every safe API. Their elements sit on
//! the cell store every base library's buffer sits on
//! (`crates/cells.rs`, compiled in as the private `cells` module) only
//! for [`NdArray::write_rows_at`], the runtime's placement-merge hook,
//! which forwards that store's band-write contract: disjoint ranges
//! across threads, and no reader until the array is complete.

use std::sync::Arc;

use crate::cells::Cells;

/// A dense, row-major, immutable `f64` array of rank 1 or 2.
///
/// Cloning is O(1) (shared storage). Contiguity is an invariant: every
/// `NdArray` views a contiguous range `[offset, offset + len)` of its
/// backing buffer, which is what allows zero-copy row splits.
#[derive(Clone)]
pub struct NdArray {
    data: Arc<Cells<f64>>,
    offset: usize,
    shape: Vec<usize>,
}

impl NdArray {
    /// Build a rank-1 array from a vector.
    pub fn from_vec(v: Vec<f64>) -> Self {
        let shape = vec![v.len()];
        NdArray {
            data: Arc::new(Cells::from_vec(v)),
            offset: 0,
            shape,
        }
    }

    /// Build an array of the given shape from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `v.len()` does not equal the shape's element count, or
    /// if the rank is not 1 or 2.
    pub fn from_shape_vec(shape: &[usize], v: Vec<f64>) -> Self {
        assert!(
            shape.len() == 1 || shape.len() == 2,
            "NdArray supports rank 1 and 2, got rank {}",
            shape.len()
        );
        let n: usize = shape.iter().product();
        assert_eq!(
            v.len(),
            n,
            "shape {shape:?} needs {n} elements, got {}",
            v.len()
        );
        NdArray {
            data: Arc::new(Cells::from_vec(v)),
            offset: 0,
            shape: shape.to_vec(),
        }
    }

    /// All-zeros array.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// All-ones array.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Constant-filled array.
    pub fn full(shape: &[usize], v: f64) -> Self {
        let n: usize = shape.iter().product();
        Self::from_shape_vec(shape, vec![v; n])
    }

    /// `n` evenly spaced values over `[start, stop]` (like
    /// `numpy.linspace`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn linspace(start: f64, stop: f64, n: usize) -> Self {
        assert!(n > 0, "linspace needs at least one point");
        if n == 1 {
            return Self::from_vec(vec![start]);
        }
        let step = (stop - start) / (n - 1) as f64;
        Self::from_vec((0..n).map(|i| start + step * i as f64).collect())
    }

    /// Build from a function of the flat index.
    pub fn from_fn(shape: &[usize], f: impl FnMut(usize) -> f64) -> Self {
        let n: usize = shape.iter().product();
        Self::from_shape_vec(shape, (0..n).map(f).collect())
    }

    /// The array's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Rank (1 or 2).
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.shape.iter().product()
    }

    /// Whether the array has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of rows (rank-2) or elements (rank-1).
    pub fn rows(&self) -> usize {
        self.shape[0]
    }

    /// Number of columns (rank-2 only).
    ///
    /// # Panics
    ///
    /// Panics on rank-1 arrays.
    pub fn cols(&self) -> usize {
        assert_eq!(self.ndim(), 2, "cols() requires a rank-2 array");
        self.shape[1]
    }

    /// The contiguous elements in row-major order.
    pub fn as_slice(&self) -> &[f64] {
        // SAFETY: a view lies inside its store, and no band write is in
        // flight over an array anyone can read (the band-write
        // contract).
        unsafe { self.data.slice(self.offset, self.len()) }
    }

    /// Allocate an **uninitialized** array of `shape`, its pages
    /// pre-touched so later parallel [`NdArray::write_rows_at`] calls
    /// are pure memory copies — the placement-merge allocation hook.
    ///
    /// # Safety
    ///
    /// The caller must write every element (via
    /// [`NdArray::write_rows_at`]) before any read, or truncate the
    /// result to the written row prefix with
    /// [`NdArray::view_rows`]. Reading unwritten elements is undefined
    /// behavior.
    pub unsafe fn alloc_rows_uninit(shape: &[usize]) -> Self {
        assert!(
            shape.len() == 1 || shape.len() == 2,
            "NdArray supports rank 1 and 2, got rank {}",
            shape.len()
        );
        let n: usize = shape.iter().product();
        NdArray {
            // SAFETY: forwarded contract.
            data: Arc::new(unsafe { Cells::uninit(n, |_, _| {}) }),
            offset: 0,
            shape: shape.to_vec(),
        }
    }

    /// Copy `src`'s rows into this array starting at row `row0` — the
    /// placement-merge write hook.
    ///
    /// # Panics
    ///
    /// Panics if the trailing dimensions differ or the row range is out
    /// of bounds.
    ///
    /// # Safety
    ///
    /// The cell store's band-write contract (see the module docs):
    /// concurrent calls cover disjoint row ranges, and nothing reads
    /// the array until it is complete.
    pub unsafe fn write_rows_at(&self, row0: usize, src: &NdArray) {
        assert_eq!(self.ndim(), src.ndim(), "write_rows_at: rank mismatch");
        assert_eq!(
            &self.shape[1..],
            &src.shape[1..],
            "write_rows_at: trailing shape mismatch"
        );
        assert!(
            row0 + src.shape[0] <= self.shape[0],
            "write_rows_at: row range out of bounds"
        );
        let row_len: usize = self.shape.iter().skip(1).product();
        let start = self.offset + row0 * row_len;
        // SAFETY: in bounds per the asserts and the view invariant; the
        // contract is this function's.
        let dst = unsafe { self.data.band_mut(start, src.len()) };
        dst.copy_from_slice(src.as_slice());
    }

    /// Copy out as a flat vector.
    pub fn to_vec(&self) -> Vec<f64> {
        self.as_slice().to_vec()
    }

    /// Element at a flat index.
    pub fn get(&self, i: usize) -> f64 {
        self.as_slice()[i]
    }

    /// Element at `(row, col)` of a rank-2 array.
    pub fn at(&self, row: usize, col: usize) -> f64 {
        assert_eq!(self.ndim(), 2, "at() requires a rank-2 array");
        self.as_slice()[row * self.shape[1] + col]
    }

    /// Zero-copy view of rows `[start, end)` (rank-2), or elements
    /// `[start, end)` (rank-1).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn view_rows(&self, start: usize, end: usize) -> NdArray {
        assert!(
            start <= end && end <= self.shape[0],
            "row range out of bounds"
        );
        let row_len: usize = self.shape.iter().skip(1).product();
        let mut shape = self.shape.clone();
        shape[0] = end - start;
        NdArray {
            data: Arc::clone(&self.data),
            offset: self.offset + start * row_len,
            shape,
        }
    }

    /// One row of a rank-2 array as a rank-1 view.
    pub fn row(&self, i: usize) -> NdArray {
        assert_eq!(self.ndim(), 2, "row() requires a rank-2 array");
        let v = self.view_rows(i, i + 1);
        NdArray {
            data: v.data,
            offset: v.offset,
            shape: vec![self.shape[1]],
        }
    }

    /// Reinterpret with a new shape (same element count; zero-copy).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> NdArray {
        let n: usize = shape.iter().product();
        assert_eq!(n, self.len(), "reshape from {:?} to {shape:?}", self.shape);
        assert!(shape.len() == 1 || shape.len() == 2);
        NdArray {
            data: Arc::clone(&self.data),
            offset: self.offset,
            shape: shape.to_vec(),
        }
    }

    /// Whether this handle is the only reference to its backing buffer
    /// and views all of it: no clone, row view or reshape of the buffer
    /// is alive anywhere, and the handle is not itself a view into a
    /// larger one. `Arc::get_mut`-exact, so a `true` cannot go stale
    /// while the caller keeps the handle to itself — what a runtime
    /// checks before refilling a released placement target through
    /// [`NdArray::write_rows_at`].
    pub fn is_exclusive(&mut self) -> bool {
        let whole = self.len();
        self.offset == 0 && Arc::get_mut(&mut self.data).is_some_and(|b| b.len() == whole)
    }

    /// Whether two arrays share backing storage (views of one buffer).
    pub fn shares_storage(&self, other: &NdArray) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Address of the backing allocation (for dependency tracking by
    /// annotators; the library itself does not use it).
    pub fn storage_addr(&self) -> usize {
        self.data.as_ptr() as usize
    }
}

impl std::fmt::Debug for NdArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NdArray(shape={:?}", self.shape)?;
        if self.len() <= 8 {
            write!(f, ", data={:?}", self.as_slice())?;
        }
        write!(f, ")")
    }
}

impl PartialEq for NdArray {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_shape() {
        let a = NdArray::from_shape_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.shape(), &[2, 3]);
        assert_eq!(a.rows(), 2);
        assert_eq!(a.cols(), 3);
        assert_eq!(a.len(), 6);
        assert_eq!(a.at(1, 2), 6.0);
        assert_eq!(a.get(3), 4.0);
    }

    #[test]
    fn views_share_storage() {
        let a = NdArray::from_shape_vec(&[4, 2], (0..8).map(|i| i as f64).collect());
        let v = a.view_rows(1, 3);
        assert_eq!(v.shape(), &[2, 2]);
        assert_eq!(v.as_slice(), &[2.0, 3.0, 4.0, 5.0]);
        assert!(v.shares_storage(&a));
        let r = a.row(3);
        assert_eq!(r.shape(), &[2]);
        assert_eq!(r.as_slice(), &[6.0, 7.0]);
    }

    #[test]
    fn reshape_is_zero_copy() {
        let a = NdArray::linspace(0.0, 5.0, 6);
        let m = a.reshape(&[2, 3]);
        assert!(m.shares_storage(&a));
        assert_eq!(m.at(1, 0), 3.0);
    }

    #[test]
    fn linspace_endpoints() {
        let a = NdArray::linspace(1.0, 3.0, 5);
        assert_eq!(a.as_slice(), &[1.0, 1.5, 2.0, 2.5, 3.0]);
        assert_eq!(NdArray::linspace(7.0, 9.0, 1).as_slice(), &[7.0]);
    }

    #[test]
    #[should_panic(expected = "row range out of bounds")]
    fn view_bounds_checked() {
        NdArray::zeros(&[3, 3]).view_rows(2, 5);
    }

    #[test]
    #[should_panic(expected = "needs 6 elements")]
    fn shape_mismatch_panics() {
        NdArray::from_shape_vec(&[2, 3], vec![0.0; 5]);
    }
}
