//! # dataframe — a Pandas-style columnar table library
//!
//! The reproduction's stand-in for Pandas (§7): typed shared-storage
//! columns, Series operators (arithmetic, predicates, string methods,
//! null handling), row filters, hash groupBy with commutative
//! aggregations, and inner hash joins.
//!
//! Row slicing is zero-copy, which is what makes the row-based split
//! type the `sa-dataframe` crate defines cheap.
//!
//! Like Pandas over NumPy, it is a hand-optimized library, so the
//! paper's Figure 4 shows what Mozart adds by moving less data, not by
//! making its operators faster. The Series loops (arithmetic,
//! comparisons, boolean logic, null handling, `mask_assign`) are
//! branch-free IEEE operations and selects, run at the host's vector
//! width behind one CPU-feature dispatch point (AVX-512, AVX2 or the
//! baseline target; a row's bits do not depend on which). A row filter
//! counts its mask once per frame and compacts each column without a
//! branch into a buffer of exactly the kept rows; the sum is NumPy's
//! pairwise sum, eight partial sums per block of at most 128 rows,
//! which skips NaN by reading it as −0.0.
//!
//! The library itself knows nothing about Mozart.

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

#[path = "../../cells.rs"]
mod cells;
pub mod column;
pub mod frame;
pub mod groupby;
pub mod join;
pub mod ops;
mod wide;
#[path = "../../vector_width.rs"]
mod width;

pub use column::{ColData, Column};
pub use frame::DataFrame;
pub use groupby::{groupby_agg, partial_groupby_agg, reaggregate, Agg, AggSpec, KeyPart};
pub use join::inner_join;
#[doc(hidden)]
pub use width::Width;
