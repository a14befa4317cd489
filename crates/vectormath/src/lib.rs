//! # vectormath — an MKL-style vector math library
//!
//! The "existing, hand-optimized library" of the reproduction: the
//! stand-in for Intel MKL's vector math (VML) and L1/L2 BLAS headers that
//! the paper annotates with split annotations (§7).
//!
//! Design constraints that make it a faithful substitute:
//!
//! * every call performs a **full pass** over its operand arrays, so a
//!   chain of calls on large arrays is memory-bound (the bottleneck SAs
//!   attack, §2.1);
//! * kernels **vectorize**, the transcendentals ([`fastmath`]) included:
//!   every kernel is branch-free straight-line code (special cases are
//!   selects, `2^n` is built from exponent bits, nothing calls libm), and
//!   each call runs its loop at the host's vector width — AVX-512 when
//!   the CPU has it, else AVX2, else baseline SSE2 (see [`vml`]) —
//!   chosen at one dispatch point inside the library's threading, with
//!   the same output bits at every width. This is the "code developers have
//!   already hand-optimized" that lets Mozart beat IR compilers that
//!   emit scalar `erf`/`exp` (Figure 1);
//! * the raw-pointer entry points allow MKL's **exact in-place aliasing**
//!   convention (`vdLog1p(len, d1, d1)`);
//! * calls parallelize internally across a configurable number of
//!   threads ([`set_num_threads`]), like MKL on top of TBB; and
//! * the library knows nothing about Mozart: annotations live entirely
//!   in the separate `sa-vectormath` crate.
//!
//! Optional [`trace`]-based traffic recording supports the machine-
//! independent cache-miss measurements of Table 4.

#![warn(missing_docs)]

pub mod blas;
// rustfmt hits exponential blowup on this module's deeply nested Horner
// polynomials (hand-formatted on purpose); formatting is skipped.
#[rustfmt::skip]
pub mod fastmath;
mod parallel;
pub mod trace;
pub mod vml;
#[path = "../../vector_width.rs"]
mod width;

pub use blas::{dasum, daxpy, daxpy_raw, ddot, dgemv, dscal};
pub use parallel::{num_threads, set_num_threads};
pub use vml::*;
#[doc(hidden)]
pub use width::Width;
