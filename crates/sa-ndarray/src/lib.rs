//! # sa-ndarray — split annotations for the `ndarray-lite` library
//!
//! The annotator-side integration for the NumPy stand-in (§7 "NumPy"):
//! "We implemented a single split type for ndarray, whose splitting
//! behavior depends on its shape ... We added SAs over all tensor
//! unary, binary, and associative reduction operators. We implemented
//! split types for each reduction operator to merge the partial
//! results: these only required merge functions."
//!
//! * [`NdSplit`] splits arrays by their leading axis (rows), returning
//!   zero-copy views; results are fresh arrays merged by concatenation
//!   (the functional NumPy convention). It is a row-band split type:
//!   [`NdValue`] implements `mozart_core::row_bands::RowBand` with
//!   `ndarray-lite`'s own calls, `NdSplit` names its shape parameters,
//!   and the runtime's generic row-band implementation splits, merges,
//!   places and concatenates.
//! * [`reduce`] holds the merge-only split types for reductions,
//!   including the axis reductions of Listing 4's Ex. 5: each
//!   implements `mozart_core::merge_only::MergeOnly` — its name,
//!   strategy, partial type and merge — and the runtime's generic
//!   merge-only implementation does the rest.
//!
//! The `ndarray-lite` crate itself is not modified.

#![warn(missing_docs)]

pub mod reduce;
pub mod split;
pub mod wrappers;

pub use split::{NdSplit, NdValue};
pub use wrappers::*;

use mozart_core::prelude::*;
use ndarray_lite::NdArray;

/// Register this integration's default split types. Idempotent.
pub fn register_defaults() {
    mozart_core::registry::register_default_splitter::<NdValue>(std::sync::Arc::new(NdSplit));
    for a in wrappers::annotations() {
        mozart_core::registry::register_annotation(a);
    }
}

/// Values accepted by the annotated wrappers: concrete arrays or lazy
/// results of earlier wrapped calls (the paper's `Future<T>` arguments).
pub trait NdArg {
    /// Convert to a Mozart argument value.
    fn to_value(&self) -> DataValue;
}

impl NdArg for NdArray {
    fn to_value(&self) -> DataValue {
        DataValue::new(NdValue(self.clone()))
    }
}

impl NdArg for FutureHandle {
    fn to_value(&self) -> DataValue {
        self.as_value()
    }
}

impl NdArg for DataValue {
    fn to_value(&self) -> DataValue {
        self.clone()
    }
}

/// Materialize a lazy wrapper result as an [`NdArray`].
pub fn get(f: &FutureHandle) -> Result<NdArray> {
    let dv = f.get()?;
    dv.downcast_ref::<NdValue>()
        .map(|v| v.0.clone())
        .ok_or(Error::ArgType {
            function: "sa_ndarray::get",
            arg: 0,
            expected: "NdValue",
            actual: dv.type_name(),
        })
}

/// Materialize a lazy scalar reduction result.
pub fn get_scalar(f: &FutureHandle) -> Result<f64> {
    let dv = f.get()?;
    if let Some(v) = dv.downcast_ref::<FloatValue>() {
        return Ok(v.0);
    }
    if let Some(p) = dv.downcast_ref::<reduce::PartialMean>() {
        return Ok(p.value());
    }
    Err(Error::ArgType {
        function: "sa_ndarray::get_scalar",
        arg: 0,
        expected: "FloatValue or PartialMean",
        actual: dv.type_name(),
    })
}
