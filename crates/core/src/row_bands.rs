//! Row-band split types, written once: the splitting API for values
//! that split into bands of rows and merge by stacking them.
//!
//! An array split along its leading axis, an image split into row
//! bands, a DataFrame or a Series split by row, a corpus split by
//! documents: each is cut into zero-copy row views, and each merges by
//! concatenation along the row axis. Everything else about the
//! splitting API is the same for all of them, and is implemented here,
//! once:
//!
//! * [`Splitter::split`] checks the value against the split type's
//!   parameters (what [`RowSplitter::construct`] makes of it), returns
//!   `NULL` past the end, and hands out a row view;
//! * [`Splitter::merge`] and [`Concat::concat`] check the input is
//!   non-empty and the cross-sections agree, then call the library's
//!   concat, which would panic on a mismatch;
//! * the [`Placement`] capability allocates the merged value
//!   uninitialized, at stage start when the parameters determine its
//!   layout and on the first piece otherwise; [`write_piece`]
//!   checks the cross-section and the bounds before the library's row
//!   write; [`truncate_merged`] and [`Concat::slice_back`] check the
//!   bounds and return a row view; and [`reuse`] takes a spare only if
//!   it has the layout [`alloc_merged`] would produce and is exclusive.
//!
//! An integration supplies the rest in two parts. The value wrapper
//! implements [`RowBand`] with its library's own calls: row count,
//! cross-section equality, row view, concat, uninitialized allocation,
//! row write and exclusivity. The split type implements [`RowSplitter`]:
//! its name, its constructor, its runtime info, and one line naming
//! the [`RowBand`] type of a value ([`RowSplitter::bands`]). The
//! runtime derives [`Splitter`], [`Placement`] and [`Concat`] from that,
//! with [`MergeStrategy::Concat`] and placement.
//!
//! A piece that aliases the merged value's storage needs no copy: an
//! array's pieces are views of its buffer, and its concat of views that
//! follow each other in one buffer is the view spanning them. That is
//! the MKL convention ("updates occur in-place, so no merge operation
//! is needed", §3.3), and it is a property of the row band, not a kind
//! of split type. Reductions, whose pieces are partial results, are
//! merge-only split types ([`crate::merge_only`]).
//!
//! [`write_piece`]: Placement::write_piece
//! [`truncate_merged`]: Placement::truncate_merged
//! [`reuse`]: Placement::reuse
//! [`alloc_merged`]: Placement::alloc_merged

use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::split::{Concat, MergeStrategy, Params, Placement, RuntimeInfo, Splitter};
use crate::value::{short_type_name, DataObject, DataValue};

/// A library value made of rows, as the generic row-band split type
/// sees it: each method is one call of the library's own API.
pub trait RowBand: DataObject + Clone {
    /// The number of rows.
    fn rows(&self) -> usize;

    /// Whether `other` has this value's cross-section — an image's
    /// width, an array's trailing shape, a frame's schema, a column's
    /// dtype — so that the rows of one fit into the other.
    fn same_cross_section(&self, other: &Self) -> bool;

    /// A zero-copy view of rows `[start, end)`.
    fn view(&self, start: usize, end: usize) -> Self;

    /// The library's concatenation along the row axis. Only called on a
    /// non-empty list of values of one cross-section.
    fn concat(parts: &[&Self]) -> Self;

    /// An allocation of `rows` rows with unspecified contents, its
    /// layout taken from the split type's parameters or, when those do
    /// not determine it, from `exemplar` (the first result piece). `None`
    /// declines: at stage start (`exemplar: None`) to wait for the first
    /// piece, or for good.
    ///
    /// # Safety
    ///
    /// No row of the result may be read before it is written with
    /// [`write_rows`](RowBand::write_rows); a partly written value may
    /// only be read through a view of its written rows.
    unsafe fn alloc_uninit(rows: usize, params: &Params, exemplar: Option<&Self>) -> Option<Self>;

    /// Copy `band`'s rows into this value from row `offset` on.
    ///
    /// # Safety
    ///
    /// `self` is a whole allocation from
    /// [`alloc_uninit`](RowBand::alloc_uninit), `band` has its
    /// cross-section and fits at `offset`, and no other code reads or
    /// writes those rows while the call runs.
    unsafe fn write_rows(&self, offset: usize, band: &Self);

    /// Whether this handle is the only one to its storage and views all
    /// of it, so a write into it cannot be seen through another.
    fn is_exclusive(&mut self) -> bool;
}

/// A row-band split type: everything about it the generic row-band
/// implementation cannot know. Implementing it implements
/// [`Splitter`] and [`Concat`], and gives the split type its
/// [`Placement`] capability (see the module docs).
///
/// `Default` makes the concat capability object.
pub trait RowSplitter: Default + Send + Sync + 'static {
    /// The split type's name ([`Splitter::name`]).
    const NAME: &'static str;

    /// The constructor ([`Splitter::construct`]).
    fn construct(ctor_args: &[&DataValue]) -> Result<Params>;

    /// Whether `value` has the parameters `params`, as
    /// [`construct`](RowSplitter::construct) would make them of it:
    /// what [`Splitter::split`] checks before it cuts a piece. The
    /// default constructs and compares; a split type that can tell
    /// without building the parameters overrides it, since the check
    /// runs once per piece.
    fn fits(value: &DataValue, params: &Params) -> bool {
        Self::construct(&[value]).is_ok_and(|own| own == *params)
    }

    /// Runtime info for batch sizing ([`Splitter::info`]): the row count
    /// and the bytes of one row.
    fn info(params: &Params) -> RuntimeInfo;

    /// The row-band implementation for `value`'s type:
    /// `bands::<Self, V>()` for the split type's [`RowBand`] type `V`,
    /// or a choice by the value's type when the split type covers
    /// several. `None` asks at stage start and for an empty list of
    /// values.
    fn bands(value: Option<&DataValue>) -> &'static dyn Bands;
}

/// The generic row-band implementation for one split type and one
/// [`RowBand`] type, as an object, so a split type can choose it per
/// value. Made by [`bands`]; the derived [`Splitter`], [`Placement`]
/// and [`Concat`] impls of a [`RowSplitter`] forward to it.
pub trait Bands: Placement + Concat {}

/// The row-band implementation of split type `T` over values `V`.
pub fn bands<T: RowSplitter, V: RowBand>() -> &'static dyn Bands {
    &Of::<T, V>(PhantomData)
}

struct Of<T, V>(PhantomData<fn() -> (T, V)>);

impl<T: RowSplitter, V: RowBand> Bands for Of<T, V> {}

impl<T: RowSplitter, V: RowBand> Of<T, V> {
    fn error(message: String) -> Error {
        Error::Merge {
            split_type: T::NAME,
            message,
        }
    }

    /// `value` as a `V`, or an error saying what it is instead.
    fn band(value: &DataValue) -> Result<&V> {
        value.downcast_ref::<V>().ok_or_else(|| {
            let v = short_type_name::<V>();
            Self::error(format!("expected {v}, got {}", value.type_name()))
        })
    }
}

impl<T: RowSplitter, V: RowBand> Concat for Of<T, V> {
    fn concat(&self, values: &[DataValue]) -> Result<(DataValue, Vec<u64>)> {
        let parts: Vec<&V> = values.iter().map(Self::band).collect::<Result<_>>()?;
        let Some(first) = parts.first() else {
            return Err(Self::error("nothing to concatenate".into()));
        };
        if !parts.iter().all(|p| p.same_cross_section(first)) {
            return Err(Self::error("the values' cross-sections differ".into()));
        }
        let (mut offsets, mut rows) = (Vec::with_capacity(parts.len()), 0);
        for p in &parts {
            offsets.push(rows);
            rows += p.rows() as u64;
        }
        Ok((DataValue::new(V::concat(&parts)), offsets))
    }

    fn slice_back(&self, out: &DataValue, offset: u64, len: u64) -> Result<DataValue> {
        let value = Self::band(out)?;
        let (offset, len) = (offset as usize, len as usize);
        if offset.checked_add(len).is_none_or(|e| e > value.rows()) {
            let rows = value.rows();
            return Err(Self::error(format!(
                "rows [{offset}, {offset}+{len}) exceed {rows} rows"
            )));
        }
        Ok(DataValue::new(value.view(offset, offset + len)))
    }
}

impl<T: RowSplitter, V: RowBand> Placement for Of<T, V> {
    fn alloc_merged(
        &self,
        total_elements: u64,
        params: &Params,
        exemplar: Option<&DataValue>,
    ) -> Result<Option<DataValue>> {
        let exemplar = exemplar.map(Self::band).transpose()?;
        // SAFETY: the executor's coverage check lets no row of a
        // placement output be read before it is written; an under-filled
        // one is truncated to a view of its written prefix.
        let out = unsafe { V::alloc_uninit(total_elements as usize, params, exemplar) };
        Ok(out.map(DataValue::new))
    }

    fn reuse(
        &self,
        spare: DataValue,
        total_elements: u64,
        params: &Params,
        exemplar: Option<&DataValue>,
    ) -> Option<DataValue> {
        let exemplar = exemplar.map(Self::band).transpose().ok()?;
        // SAFETY: a layout witness of no rows has nothing to leave
        // unwritten; it is compared, never read.
        let layout = unsafe { V::alloc_uninit(0, params, exemplar) }?;
        let mut out = spare.downcast_ref::<V>()?.clone();
        // Let go of the spare's handle first: if it was the last one,
        // `out` is now the only handle a sole owner would have.
        drop(spare);
        let fits = out.rows() as u64 == total_elements && out.same_cross_section(&layout);
        (fits && out.is_exclusive()).then(|| DataValue::new(out))
    }

    fn write_piece(&self, out: &DataValue, offset: u64, piece: &DataValue) -> Result<u64> {
        let (dst, src) = (Self::band(out)?, Self::band(piece)?);
        let (offset, rows) = (offset as usize, src.rows());
        if !src.same_cross_section(dst) || offset.checked_add(rows).is_none_or(|e| e > dst.rows()) {
            let out_rows = dst.rows();
            return Err(Self::error(format!(
                "a piece of {rows} rows at row {offset} does not fit an output of \
                 {out_rows} rows, or its cross-section differs"
            )));
        }
        // SAFETY: the executor hands concurrent writes disjoint row
        // ranges of a whole, not yet observable output; cross-section
        // and bounds were checked above.
        unsafe { dst.write_rows(offset, src) };
        Ok(rows as u64)
    }

    fn truncate_merged(&self, out: DataValue, elements: u64, _: &Params) -> Result<DataValue> {
        self.slice_back(&out, 0, elements)
    }
}

impl<T: RowSplitter> Splitter for T {
    fn name(&self) -> &'static str {
        T::NAME
    }

    fn construct(&self, ctor_args: &[&DataValue]) -> Result<Params> {
        <T as RowSplitter>::construct(ctor_args)
    }

    fn info(&self, _: &DataValue, params: &Params) -> Result<RuntimeInfo> {
        Ok(<T as RowSplitter>::info(params))
    }

    /// A checked [`Concat::slice_back`]: the value's own parameters
    /// must be the split type's, and past its rows is `NULL`.
    fn split(
        &self,
        arg: &DataValue,
        range: Range<u64>,
        params: &Params,
    ) -> Result<Option<DataValue>> {
        let error = |message| Error::Split {
            split_type: T::NAME,
            message,
        };
        if !T::fits(arg, params) {
            let message = match <T as RowSplitter>::construct(&[arg]) {
                Ok(own) if own != *params => {
                    format!("value has parameters {own:?}, split type says {params:?}")
                }
                _ => format!("cannot split a {}", arg.type_name()),
            };
            return Err(error(message));
        }
        let rows = <T as RowSplitter>::info(params).total_elements;
        if range.start >= rows {
            return Ok(None);
        }
        let len = range.end.min(rows) - range.start;
        T::bands(Some(arg))
            .slice_back(arg, range.start, len)
            .map(Some)
    }

    fn merge(&self, pieces: Vec<DataValue>, _: &Params, _: u64) -> Result<DataValue> {
        Ok(T::bands(pieces.first()).concat(&pieces)?.0)
    }

    fn merge_strategy(&self) -> MergeStrategy {
        MergeStrategy::Concat {
            placement: Some(&Placed::<T>(PhantomData)),
        }
    }

    fn concat(&self) -> Option<Arc<dyn Concat>> {
        Some(Arc::new(T::default()))
    }

    /// A whole piece is a row view ([`RowBand::view`] is zero-copy).
    fn whole_piece_stable(&self) -> bool {
        true
    }
}

/// The [`Placement`] of row-band split type `T` as a `'static` object,
/// which the merge strategy hands out without allocating.
struct Placed<T>(PhantomData<fn() -> T>);

impl<T: RowSplitter> Placement for Placed<T> {
    fn alloc_merged(
        &self,
        total: u64,
        params: &Params,
        exemplar: Option<&DataValue>,
    ) -> Result<Option<DataValue>> {
        T::bands(exemplar).alloc_merged(total, params, exemplar)
    }

    fn reuse(
        &self,
        spare: DataValue,
        total: u64,
        params: &Params,
        exemplar: Option<&DataValue>,
    ) -> Option<DataValue> {
        T::bands(Some(exemplar.unwrap_or(&spare))).reuse(spare, total, params, exemplar)
    }

    fn write_piece(&self, out: &DataValue, offset: u64, piece: &DataValue) -> Result<u64> {
        T::bands(Some(out)).write_piece(out, offset, piece)
    }

    fn truncate_merged(&self, out: DataValue, elements: u64, params: &Params) -> Result<DataValue> {
        T::bands(Some(&out)).truncate_merged(out, elements, params)
    }
}

impl<T: RowSplitter> Concat for T {
    fn concat(&self, values: &[DataValue]) -> Result<(DataValue, Vec<u64>)> {
        T::bands(values.first()).concat(values)
    }

    fn slice_back(&self, out: &DataValue, offset: u64, len: u64) -> Result<DataValue> {
        T::bands(Some(out)).slice_back(out, offset, len)
    }
}
