//! Vector math kernels (the analogue of Intel MKL's VML header).
//!
//! Every kernel exists in two forms:
//!
//! * a **safe slice API** (`vd_add(a, b, out)`) that asserts lengths, and
//! * a **raw pointer API** (`vd_add_raw(n, a, b, out)`) with MKL's
//!   calling convention, which additionally permits *exact* in-place
//!   aliasing (`out == a` and/or `out == b`), the idiom the paper's
//!   Black Scholes snippet relies on (`vdLog1p(len, d1, d1)`).
//!
//! # Aliasing contract
//!
//! Like MKL, operand arrays must be **identical or disjoint**. Partial
//! overlap is undefined behaviour. The implementations branch on exact
//! aliasing so each specialization works on ordinary slices and
//! vectorizes.
//!
//! # Vector width
//!
//! Each kernel's loop is an `#[inline(always)]` closure handed to the
//! library's threading, which runs every part of a call through one
//! dispatch point ([`crate::Width`]) at the widest arm the CPU has:
//! inside an AVX-512 (x86-64-v4) function, else an AVX2 one, else at
//! the baseline width (SSE2). The closure and the branch-free
//! [`fastmath`] functions it calls compile into that function, so the
//! whole loop is code of that width. All three widths give the same
//! bits. Each kernel's hidden `_at` form runs it at a given arm, for
//! tests that compare them.
//!
//! Kernels honor the library's internal thread count
//! ([`crate::set_num_threads`]), mirroring MKL's TBB-backed internal
//! parallelism: this is the "already-parallelized library" baseline of
//! the paper's Figures 4j–m.

use crate::fastmath;
use crate::parallel::{run_parallel_at, width};
use crate::trace;
use crate::width::Width;

macro_rules! vml_unary {
    ($(#[$doc:meta])* $name:ident, $raw:ident, $at:ident, $f:expr) => {
        $(#[$doc])*
        ///
        /// # Panics
        ///
        /// Panics if `a.len() != out.len()`.
        pub fn $name(a: &[f64], out: &mut [f64]) {
            assert_eq!(a.len(), out.len(), concat!(stringify!($name), ": length mismatch"));
            // SAFETY: lengths checked; slices obey Rust aliasing already.
            unsafe { $raw(out.len(), a.as_ptr(), out.as_mut_ptr()) }
        }

        /// Raw-pointer form of the kernel (MKL convention).
        ///
        /// # Safety
        ///
        /// `a` and `out` must each point to `n` readable (resp. writable)
        /// doubles, and must be either exactly equal or disjoint.
        pub unsafe fn $raw(n: usize, a: *const f64, out: *mut f64) {
            // SAFETY: forwarded contract.
            unsafe { $at(width(), n, a, out) }
        }

        /// The raw form at one arm of the dispatch, for tests that
        /// compare the arms.
        ///
        /// # Safety
        ///
        /// As for the raw form.
        #[doc(hidden)]
        pub unsafe fn $at(width: Width, n: usize, a: *const f64, out: *mut f64) {
            trace::record_unary(n, a as usize, out as usize);
            let (ap, op) = (a as usize, out as usize);
            run_parallel_at(width, n, #[inline(always)] move |start, len| {
                let f = $f;
                let a = ap as *const f64;
                let o = op as *mut f64;
                if ap == op {
                    // SAFETY: exact alias: one exclusive slice.
                    let out = unsafe {
                        std::slice::from_raw_parts_mut(o.add(start), len)
                    };
                    for x in out.iter_mut() {
                        *x = f(*x);
                    }
                } else {
                    // SAFETY: disjoint per the function contract.
                    let (src, dst) = unsafe {
                        (
                            std::slice::from_raw_parts(a.add(start), len),
                            std::slice::from_raw_parts_mut(o.add(start), len),
                        )
                    };
                    for i in 0..len {
                        dst[i] = f(src[i]);
                    }
                }
            });
        }
    };
}

macro_rules! vml_binary {
    ($(#[$doc:meta])* $name:ident, $raw:ident, $at:ident, $f:expr) => {
        $(#[$doc])*
        ///
        /// # Panics
        ///
        /// Panics if the slice lengths differ.
        pub fn $name(a: &[f64], b: &[f64], out: &mut [f64]) {
            assert_eq!(a.len(), out.len(), concat!(stringify!($name), ": length mismatch"));
            assert_eq!(b.len(), out.len(), concat!(stringify!($name), ": length mismatch"));
            // SAFETY: lengths checked; slices obey Rust aliasing already.
            unsafe { $raw(out.len(), a.as_ptr(), b.as_ptr(), out.as_mut_ptr()) }
        }

        /// Raw-pointer form of the kernel (MKL convention).
        ///
        /// # Safety
        ///
        /// All three pointers must cover `n` doubles and be pairwise
        /// either exactly equal or disjoint.
        pub unsafe fn $raw(n: usize, a: *const f64, b: *const f64, out: *mut f64) {
            // SAFETY: forwarded contract.
            unsafe { $at(width(), n, a, b, out) }
        }

        /// The raw form at one arm of the dispatch, for tests that
        /// compare the arms.
        ///
        /// # Safety
        ///
        /// As for the raw form.
        #[doc(hidden)]
        pub unsafe fn $at(width: Width, n: usize, a: *const f64, b: *const f64, out: *mut f64) {
            trace::record_binary(n, a as usize, b as usize, out as usize);
            let (ap, bp, op) = (a as usize, b as usize, out as usize);
            run_parallel_at(width, n, #[inline(always)] move |start, len| {
                let f = $f;
                let a = ap as *const f64;
                let b = bp as *const f64;
                let o = op as *mut f64;
                match (ap == op, bp == op) {
                    (true, true) => {
                        // SAFETY: all three exactly alias.
                        let out = unsafe {
                            std::slice::from_raw_parts_mut(o.add(start), len)
                        };
                        for x in out.iter_mut() {
                            *x = f(*x, *x);
                        }
                    }
                    (true, false) => {
                        // SAFETY: out == a; b disjoint per contract.
                        let (bs, out) = unsafe {
                            (
                                std::slice::from_raw_parts(b.add(start), len),
                                std::slice::from_raw_parts_mut(o.add(start), len),
                            )
                        };
                        for i in 0..len {
                            out[i] = f(out[i], bs[i]);
                        }
                    }
                    (false, true) => {
                        // SAFETY: out == b; a disjoint per contract.
                        let (as_, out) = unsafe {
                            (
                                std::slice::from_raw_parts(a.add(start), len),
                                std::slice::from_raw_parts_mut(o.add(start), len),
                            )
                        };
                        for i in 0..len {
                            out[i] = f(as_[i], out[i]);
                        }
                    }
                    (false, false) => {
                        // SAFETY: pairwise disjoint (a == b is fine for
                        // two shared borrows).
                        let (as_, bs, out) = unsafe {
                            (
                                std::slice::from_raw_parts(a.add(start), len),
                                std::slice::from_raw_parts(b.add(start), len),
                                std::slice::from_raw_parts_mut(o.add(start), len),
                            )
                        };
                        for i in 0..len {
                            out[i] = f(as_[i], bs[i]);
                        }
                    }
                }
            });
        }
    };
}

macro_rules! vml_scalar {
    ($(#[$doc:meta])* $name:ident, $raw:ident, $at:ident, $f:expr) => {
        $(#[$doc])*
        ///
        /// # Panics
        ///
        /// Panics if `a.len() != out.len()`.
        pub fn $name(a: &[f64], k: f64, out: &mut [f64]) {
            assert_eq!(a.len(), out.len(), concat!(stringify!($name), ": length mismatch"));
            // SAFETY: lengths checked.
            unsafe { $raw(out.len(), a.as_ptr(), k, out.as_mut_ptr()) }
        }

        /// Raw-pointer form of the kernel (MKL convention).
        ///
        /// # Safety
        ///
        /// `a` and `out` must cover `n` doubles and be exactly equal or
        /// disjoint.
        pub unsafe fn $raw(n: usize, a: *const f64, k: f64, out: *mut f64) {
            // SAFETY: forwarded contract.
            unsafe { $at(width(), n, a, k, out) }
        }

        /// The raw form at one arm of the dispatch, for tests that
        /// compare the arms.
        ///
        /// # Safety
        ///
        /// As for the raw form.
        #[doc(hidden)]
        pub unsafe fn $at(width: Width, n: usize, a: *const f64, k: f64, out: *mut f64) {
            trace::record_unary(n, a as usize, out as usize);
            let (ap, op) = (a as usize, out as usize);
            run_parallel_at(width, n, #[inline(always)] move |start, len| {
                let f = $f;
                let a = ap as *const f64;
                let o = op as *mut f64;
                if ap == op {
                    // SAFETY: exact alias.
                    let out = unsafe {
                        std::slice::from_raw_parts_mut(o.add(start), len)
                    };
                    for x in out.iter_mut() {
                        *x = f(*x, k);
                    }
                } else {
                    // SAFETY: disjoint per contract.
                    let (src, dst) = unsafe {
                        (
                            std::slice::from_raw_parts(a.add(start), len),
                            std::slice::from_raw_parts_mut(o.add(start), len),
                        )
                    };
                    for i in 0..len {
                        dst[i] = f(src[i], k);
                    }
                }
            });
        }
    };
}

// ----------------------------- binary ops -----------------------------

vml_binary!(
    /// Elementwise addition: `out[i] = a[i] + b[i]` (MKL `vdAdd`).
    vd_add, vd_add_raw, vd_add_at, |x: f64, y: f64| x + y
);
vml_binary!(
    /// Elementwise subtraction: `out[i] = a[i] - b[i]` (MKL `vdSub`).
    vd_sub, vd_sub_raw, vd_sub_at, |x: f64, y: f64| x - y
);
vml_binary!(
    /// Elementwise multiplication: `out[i] = a[i] * b[i]` (MKL `vdMul`).
    vd_mul, vd_mul_raw, vd_mul_at, |x: f64, y: f64| x * y
);
vml_binary!(
    /// Elementwise division: `out[i] = a[i] / b[i]` (MKL `vdDiv`).
    vd_div, vd_div_raw, vd_div_at, |x: f64, y: f64| x / y
);
vml_binary!(
    /// Elementwise power: `out[i] = a[i] ^ b[i]` (MKL `vdPow`).
    vd_pow, vd_pow_raw, vd_pow_at, fastmath::pow
);
vml_binary!(
    /// Elementwise maximum (MKL `vdFmax`).
    vd_fmax, vd_fmax_raw, vd_fmax_at, |x: f64, y: f64| if x > y { x } else { y }
);
vml_binary!(
    /// Elementwise minimum (MKL `vdFmin`).
    vd_fmin, vd_fmin_raw, vd_fmin_at, |x: f64, y: f64| if x < y { x } else { y }
);

// ----------------------------- unary ops ------------------------------

vml_unary!(
    /// Elementwise square: `out[i] = a[i]²` (MKL `vdSqr`).
    vd_sqr, vd_sqr_raw, vd_sqr_at, |x: f64| x * x
);
vml_unary!(
    /// Elementwise square root (MKL `vdSqrt`).
    vd_sqrt, vd_sqrt_raw, vd_sqrt_at, fastmath::sqrt
);
vml_unary!(
    /// Elementwise absolute value (MKL `vdAbs`).
    vd_abs, vd_abs_raw, vd_abs_at, |x: f64| x.abs()
);
vml_unary!(
    /// Elementwise reciprocal (MKL `vdInv`).
    vd_inv, vd_inv_raw, vd_inv_at, |x: f64| 1.0 / x
);
vml_unary!(
    /// Elementwise negation.
    vd_neg, vd_neg_raw, vd_neg_at, |x: f64| -x
);
vml_unary!(
    /// Elementwise `e^x` (MKL `vdExp`), branch-free polynomial kernel.
    vd_exp, vd_exp_raw, vd_exp_at, fastmath::exp
);
vml_unary!(
    /// Elementwise natural log (MKL `vdLn`).
    vd_ln, vd_ln_raw, vd_ln_at, fastmath::ln
);
vml_unary!(
    /// Elementwise `ln(1 + x)` (MKL `vdLog1p`).
    vd_log1p, vd_log1p_raw, vd_log1p_at, fastmath::log1p
);
vml_unary!(
    /// Elementwise error function (MKL `vdErf`).
    vd_erf, vd_erf_raw, vd_erf_at, fastmath::erf
);
vml_unary!(
    /// Elementwise sine (MKL `vdSin`).
    vd_sin, vd_sin_raw, vd_sin_at, fastmath::sin
);
vml_unary!(
    /// Elementwise cosine (MKL `vdCos`).
    vd_cos, vd_cos_raw, vd_cos_at, fastmath::cos
);
vml_unary!(
    /// Elementwise arcsine (MKL `vdAsin`).
    vd_asin, vd_asin_raw, vd_asin_at, fastmath::asin
);

// ----------------------------- scalar ops -----------------------------

vml_scalar!(
    /// Scale by a constant: `out[i] = a[i] * k`.
    vd_scale, vd_scale_raw, vd_scale_at, |x: f64, k: f64| x * k
);
vml_scalar!(
    /// Shift by a constant: `out[i] = a[i] + k`.
    vd_shift, vd_shift_raw, vd_shift_at, |x: f64, k: f64| x + k
);
vml_scalar!(
    /// Constant power: `out[i] = a[i] ^ k`.
    vd_powx, vd_powx_raw, vd_powx_at, fastmath::pow
);
vml_scalar!(
    /// Constant-minus: `out[i] = k - a[i]` (for `1 - x` idioms).
    vd_rsub, vd_rsub_raw, vd_rsub_at, |x: f64, k: f64| k - x
);
vml_scalar!(
    /// Constant-divide: `out[i] = k / a[i]`.
    vd_rdiv, vd_rdiv_raw, vd_rdiv_at, |x: f64, k: f64| k / x
);

/// Fill `out` with a constant.
pub fn vd_fill(k: f64, out: &mut [f64]) {
    for x in out.iter_mut() {
        *x = k;
    }
}

/// Copy `a` into `out`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn vd_copy(a: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), out.len(), "vd_copy: length mismatch");
    out.copy_from_slice(a);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64 * 0.25 + 0.5).collect()
    }

    #[test]
    fn binary_ops_disjoint() {
        let a = seq(100);
        let b = vec![2.0; 100];
        let mut out = vec![0.0; 100];
        vd_add(&a, &b, &mut out);
        assert_eq!(out[4], a[4] + 2.0);
        vd_mul(&a, &b, &mut out);
        assert_eq!(out[9], a[9] * 2.0);
        vd_div(&a, &b, &mut out);
        assert_eq!(out[7], a[7] / 2.0);
        vd_sub(&a, &b, &mut out);
        assert_eq!(out[3], a[3] - 2.0);
        vd_fmax(&a, &b, &mut out);
        assert_eq!(out[0], 2.0);
        vd_fmin(&a, &b, &mut out);
        assert_eq!(out[0], 0.5);
    }

    #[test]
    fn in_place_aliasing_out_equals_a() {
        let mut d = seq(64);
        let orig = d.clone();
        let b = vec![3.0; 64];
        // SAFETY: exact aliasing is the documented MKL convention.
        unsafe { vd_add_raw(64, d.as_ptr(), b.as_ptr(), d.as_mut_ptr()) };
        for i in 0..64 {
            assert_eq!(d[i], orig[i] + 3.0);
        }
    }

    #[test]
    fn in_place_aliasing_out_equals_b() {
        let a = seq(64);
        let mut d = vec![3.0; 64];
        // SAFETY: exact aliasing per contract.
        unsafe { vd_sub_raw(64, a.as_ptr(), d.as_ptr(), d.as_mut_ptr()) };
        for i in 0..64 {
            assert_eq!(d[i], a[i] - 3.0);
        }
    }

    #[test]
    fn in_place_all_alias() {
        let mut d = seq(32);
        let orig = d.clone();
        // SAFETY: exact aliasing per contract.
        unsafe { vd_mul_raw(32, d.as_ptr(), d.as_ptr(), d.as_mut_ptr()) };
        for i in 0..32 {
            assert_eq!(d[i], orig[i] * orig[i]);
        }
    }

    #[test]
    fn unary_in_place_log1p_matches_black_scholes_idiom() {
        let mut d = seq(50);
        let orig = d.clone();
        // vdLog1p(len, d1, d1) from Listing 1.
        unsafe { vd_log1p_raw(50, d.as_ptr(), d.as_mut_ptr()) };
        for i in 0..50 {
            assert!((d[i] - orig[i].ln_1p()).abs() < 1e-12);
        }
    }

    #[test]
    fn transcendental_kernels_match_std() {
        let a = seq(200);
        let mut out = vec![0.0; 200];
        vd_exp(&a, &mut out);
        for i in 0..200 {
            assert!((out[i] - a[i].exp()).abs() / a[i].exp() < 1e-12);
        }
        vd_erf(&a, &mut out);
        for i in 0..200 {
            // A&S 7.1.26 accuracy class.
            assert!((out[i] - libm_erf_reference(a[i])).abs() < 2e-7);
        }
        vd_sin(&a, &mut out);
        for i in 0..200 {
            assert!((out[i] - a[i].sin()).abs() < 1e-12);
        }
    }

    fn libm_erf_reference(x: f64) -> f64 {
        // Series reference (same as fastmath's unit tests).
        if x.abs() > 5.0 {
            return x.signum();
        }
        let mut term = x;
        let mut sum = x;
        for n in 1..200 {
            term *= -x * x / n as f64;
            sum += term / (2 * n + 1) as f64;
        }
        sum * 2.0 / std::f64::consts::PI.sqrt()
    }

    #[test]
    fn scalar_ops() {
        let a = seq(16);
        let mut out = vec![0.0; 16];
        vd_scale(&a, 4.0, &mut out);
        assert_eq!(out[3], a[3] * 4.0);
        vd_shift(&a, -1.0, &mut out);
        assert_eq!(out[5], a[5] - 1.0);
        vd_rsub(&a, 1.0, &mut out);
        assert_eq!(out[2], 1.0 - a[2]);
        vd_rdiv(&a, 1.0, &mut out);
        assert_eq!(out[2], 1.0 / a[2]);
        vd_powx(&a, 2.0, &mut out);
        assert!((out[7] - a[7] * a[7]).abs() < 1e-10);
    }

    #[test]
    fn internal_parallelism_matches_serial() {
        let n = 100_000; // above the parallel threshold
        let a = seq(n);
        let b = seq(n);
        let mut serial = vec![0.0; n];
        vd_add(&a, &b, &mut serial);

        crate::set_num_threads(4);
        let mut par = vec![0.0; n];
        vd_add(&a, &b, &mut par);
        crate::set_num_threads(1);
        assert_eq!(serial, par);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let a = vec![1.0; 4];
        let b = vec![1.0; 5];
        let mut out = vec![0.0; 4];
        vd_add(&a, &b, &mut out);
    }
}
