//! # ndarray-lite — a NumPy-style dense array library
//!
//! The reproduction's stand-in for NumPy (§7): an immutable, row-major,
//! rank-1/2 `f64` array with elementwise operators (backed by the
//! `vectormath` kernels, like NumPy built on MKL), axis reductions, and
//! structural operators.
//!
//! Like the real library, every operator makes one full pass over its
//! operands and returns a fresh array — which is exactly why chains of
//! NumPy calls are memory-bound and why the paper's split annotations
//! help. The library knows nothing about Mozart; annotations live in the
//! separate `sa-ndarray` crate.

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod array;
#[path = "../../cells.rs"]
mod cells;
pub mod elementwise;
pub mod reduce;
pub mod structure;

pub use array::NdArray;
pub use elementwise::*;
pub use reduce::{dot, max, max_axis, mean, mean_axis, min, min_axis, sum, sum_axis};
pub use structure::{concat, roll, tile_rows, transpose};
