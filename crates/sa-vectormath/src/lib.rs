//! # sa-vectormath — split annotations for the `vectormath` library
//!
//! The annotator-side integration for the MKL stand-in (§7 "Intel MKL"):
//! split types, the splitting API, and generated wrapper functions. The
//! `vectormath` crate itself is **not modified** — this crate is what
//! the paper's `annotate` tool would emit, the Rust analogue of
//! Listing 2:
//!
//! ```text
//! @splittable(
//!   size: SizeSplit(size), a: ArraySplit(size),
//!   b: ArraySplit(size), mut out: ArraySplit(size))
//! void vdAdd(long size, double *a, double *b, double *out);
//! ```
//!
//! Three split types cover the whole header, as in the paper: one for
//! arrays (`ArraySplit`, parameterized by length), one for matrices
//! ([`MatrixSplit`], parameterized by rows/cols), and one for the size
//! argument (`SizeSplit`). In-place updates mean no merge functions are
//! needed; the two reductions (`ddot`, `dasum`) add a merge-only
//! [`AddReduce`] split type, whose merge is all it writes
//! (`mozart_core::merge_only`).

#![warn(missing_docs)]

pub mod matrix;
pub mod reduce;
pub mod wrappers;

pub use matrix::MatrixSplit;
pub use reduce::AddReduce;
pub use wrappers::*;

use mozart_core::prelude::*;

/// Register this integration's default split types (ArraySplit for
/// shared `f64` buffers). Idempotent; call once at startup.
pub fn register_defaults() {
    ArraySplit::register_default();
    for a in wrappers::annotations() {
        mozart_core::registry::register_annotation(a);
    }
}
