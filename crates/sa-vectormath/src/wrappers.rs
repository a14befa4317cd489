//! Generated wrapper functions around the unmodified `vectormath`
//! kernels — what the paper's `annotate` tool packages into the wrapped
//! library (§4.1). The application calls these instead of the library
//! functions ("this generally requires a namespace import and no other
//! code changes").
//!
//! Every wrapper registers the call with the Mozart context and returns
//! immediately; results materialize lazily when accessed.

use std::sync::{Arc, LazyLock};

use mozart_core::annotation::{concrete, missing};
use mozart_core::prelude::*;

use crate::matrix::MatrixSplit;
use crate::reduce::AddReduce;

// One splitter per split type for every annotation here: annotations
// then share each constructed split type, and a call below the work
// floor finds the piece another annotation kept for a buffer without
// comparing split types by name.
fn array_split() -> Arc<dyn Splitter> {
    static ARRAY: LazyLock<Arc<dyn Splitter>> = LazyLock::new(|| Arc::new(ArraySplit));
    ARRAY.clone()
}

fn size_split() -> Arc<dyn Splitter> {
    static SIZE: LazyLock<Arc<dyn Splitter>> = LazyLock::new(|| Arc::new(SizeSplit));
    SIZE.clone()
}

macro_rules! sa_binary {
    ($(#[$doc:meta])* $name:ident, $annot:ident, $raw:path) => {
        static $annot: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
            Annotation::new(stringify!($name), |inv| {
                let n = inv.int(0)? as usize;
                let a = &inv.arg::<VecValue>(1)?.0;
                let b = &inv.arg::<VecValue>(2)?.0;
                let out = &inv.arg::<VecValue>(3)?.0;
                debug_assert!(a.len() == n && b.len() == n && out.len() == n);
                // SAFETY: the Mozart executor hands this worker disjoint
                // element ranges of each buffer; within a batch, views
                // are either exactly aliased (in-place arguments) or
                // disjoint, which is the kernel's documented contract.
                unsafe { $raw(n, a.base_ptr(), b.base_ptr(), out.base_ptr()) };
                Ok(None)
            })
            .arg("size", concrete(size_split(), vec![0]))
            .arg("a", concrete(array_split(), vec![0]))
            .arg("b", concrete(array_split(), vec![0]))
            .mut_arg("out", concrete(array_split(), vec![0]))
            .build()
        });

        $(#[$doc])*
        ///
        /// Lazily registered; evaluation happens when a result is read.
        pub fn $name(
            ctx: &MozartContext,
            n: usize,
            a: &SharedVec<f64>,
            b: &SharedVec<f64>,
            out: &SharedVec<f64>,
        ) -> Result<()> {
            let n = n as i64;
            ctx.call(&$annot, &[Arg::Int(n), Arg::Vec(a), Arg::Vec(b), Arg::Vec(out)])?;
            Ok(())
        }
    };
}

macro_rules! sa_unary {
    ($(#[$doc:meta])* $name:ident, $annot:ident, $raw:path) => {
        static $annot: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
            Annotation::new(stringify!($name), |inv| {
                let n = inv.int(0)? as usize;
                let a = &inv.arg::<VecValue>(1)?.0;
                let out = &inv.arg::<VecValue>(2)?.0;
                debug_assert!(a.len() == n && out.len() == n);
                // SAFETY: see the binary wrapper; same contract.
                unsafe { $raw(n, a.base_ptr(), out.base_ptr()) };
                Ok(None)
            })
            .arg("size", concrete(size_split(), vec![0]))
            .arg("a", concrete(array_split(), vec![0]))
            .mut_arg("out", concrete(array_split(), vec![0]))
            .build()
        });

        $(#[$doc])*
        ///
        /// Lazily registered; evaluation happens when a result is read.
        pub fn $name(
            ctx: &MozartContext,
            n: usize,
            a: &SharedVec<f64>,
            out: &SharedVec<f64>,
        ) -> Result<()> {
            ctx.call(&$annot, &[Arg::Int(n as i64), Arg::Vec(a), Arg::Vec(out)])?;
            Ok(())
        }
    };
}

macro_rules! sa_scalar {
    ($(#[$doc:meta])* $name:ident, $annot:ident, $raw:path) => {
        static $annot: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
            Annotation::new(stringify!($name), |inv| {
                let n = inv.int(0)? as usize;
                let a = &inv.arg::<VecValue>(1)?.0;
                let k = inv.float(2)?;
                let out = &inv.arg::<VecValue>(3)?.0;
                debug_assert!(a.len() == n && out.len() == n);
                // SAFETY: see the binary wrapper; same contract.
                unsafe { $raw(n, a.base_ptr(), k, out.base_ptr()) };
                Ok(None)
            })
            .arg("size", concrete(size_split(), vec![0]))
            .arg("a", concrete(array_split(), vec![0]))
            .arg("k", missing())
            .mut_arg("out", concrete(array_split(), vec![0]))
            .build()
        });

        $(#[$doc])*
        ///
        /// Lazily registered; evaluation happens when a result is read.
        pub fn $name(
            ctx: &MozartContext,
            n: usize,
            a: &SharedVec<f64>,
            k: f64,
            out: &SharedVec<f64>,
        ) -> Result<()> {
            let n = n as i64;
            ctx.call(&$annot, &[Arg::Int(n), Arg::Vec(a), Arg::Float(k), Arg::Vec(out)])?;
            Ok(())
        }
    };
}

sa_binary!(
    /// Annotated `vd_add`: `out = a + b` (Listing 2).
    vd_add, VD_ADD, vectormath::vd_add_raw
);
sa_binary!(
    /// Annotated `vd_sub`: `out = a - b`.
    vd_sub, VD_SUB, vectormath::vd_sub_raw
);
sa_binary!(
    /// Annotated `vd_mul`: `out = a * b`.
    vd_mul, VD_MUL, vectormath::vd_mul_raw
);
sa_binary!(
    /// Annotated `vd_div`: `out = a / b` (Listing 2).
    vd_div, VD_DIV, vectormath::vd_div_raw
);
sa_binary!(
    /// Annotated `vd_pow`: `out = a ^ b`.
    vd_pow, VD_POW, vectormath::vd_pow_raw
);
sa_binary!(
    /// Annotated `vd_fmax`.
    vd_fmax, VD_FMAX, vectormath::vd_fmax_raw
);
sa_binary!(
    /// Annotated `vd_fmin`.
    vd_fmin, VD_FMIN, vectormath::vd_fmin_raw
);

sa_unary!(
    /// Annotated `vd_sqr`: `out = a²`.
    vd_sqr, VD_SQR, vectormath::vd_sqr_raw
);
sa_unary!(
    /// Annotated `vd_sqrt`.
    vd_sqrt, VD_SQRT, vectormath::vd_sqrt_raw
);
sa_unary!(
    /// Annotated `vd_abs`.
    vd_abs, VD_ABS, vectormath::vd_abs_raw
);
sa_unary!(
    /// Annotated `vd_inv`: `out = 1/a`.
    vd_inv, VD_INV, vectormath::vd_inv_raw
);
sa_unary!(
    /// Annotated `vd_neg`.
    vd_neg, VD_NEG, vectormath::vd_neg_raw
);
sa_unary!(
    /// Annotated `vd_exp`.
    vd_exp, VD_EXP, vectormath::vd_exp_raw
);
sa_unary!(
    /// Annotated `vd_ln`.
    vd_ln, VD_LN, vectormath::vd_ln_raw
);
sa_unary!(
    /// Annotated `vd_log1p` (Listing 2).
    vd_log1p, VD_LOG1P, vectormath::vd_log1p_raw
);
sa_unary!(
    /// Annotated `vd_erf`.
    vd_erf, VD_ERF, vectormath::vd_erf_raw
);
sa_unary!(
    /// Annotated `vd_sin`.
    vd_sin, VD_SIN, vectormath::vd_sin_raw
);
sa_unary!(
    /// Annotated `vd_cos`.
    vd_cos, VD_COS, vectormath::vd_cos_raw
);
sa_unary!(
    /// Annotated `vd_asin`.
    vd_asin, VD_ASIN, vectormath::vd_asin_raw
);

sa_scalar!(
    /// Annotated `vd_scale`: `out = a * k`.
    vd_scale, VD_SCALE, vectormath::vd_scale_raw
);
sa_scalar!(
    /// Annotated `vd_shift`: `out = a + k`.
    vd_shift, VD_SHIFT, vectormath::vd_shift_raw
);
sa_scalar!(
    /// Annotated `vd_powx`: `out = a ^ k`.
    vd_powx, VD_POWX, vectormath::vd_powx_raw
);
sa_scalar!(
    /// Annotated `vd_rsub`: `out = k - a`.
    vd_rsub, VD_RSUB, vectormath::vd_rsub_raw
);
sa_scalar!(
    /// Annotated `vd_rdiv`: `out = k / a`.
    vd_rdiv, VD_RDIV, vectormath::vd_rdiv_raw
);

// ----------------------------- BLAS -----------------------------------

static DAXPY: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
    Annotation::new("daxpy", |inv| {
        let n = inv.int(0)? as usize;
        let alpha = inv.float(1)?;
        let x = &inv.arg::<VecValue>(2)?.0;
        let y = &inv.arg::<VecValue>(3)?.0;
        // SAFETY: disjoint worker ranges; exact aliasing allowed.
        unsafe { vectormath::daxpy_raw(n, alpha, x.base_ptr(), y.base_ptr()) };
        Ok(None)
    })
    .arg("size", concrete(size_split(), vec![0]))
    .arg("alpha", missing())
    .arg("x", concrete(array_split(), vec![0]))
    .mut_arg("y", concrete(array_split(), vec![0]))
    .build()
});

/// Annotated `daxpy`: `y = alpha * x + y`.
pub fn daxpy(
    ctx: &MozartContext,
    n: usize,
    alpha: f64,
    x: &SharedVec<f64>,
    y: &SharedVec<f64>,
) -> Result<()> {
    let n = n as i64;
    ctx.call(
        &DAXPY,
        &[Arg::Int(n), Arg::Float(alpha), Arg::Vec(x), Arg::Vec(y)],
    )?;
    Ok(())
}

static DDOT: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
    Annotation::new("ddot", |inv| {
        let x = &inv.arg::<VecValue>(0)?.0;
        let y = &inv.arg::<VecValue>(1)?.0;
        // SAFETY: read-only views of disjoint worker ranges.
        let partial = unsafe {
            vectormath::ddot(x.slice_unchecked(0, x.len()), y.slice_unchecked(0, y.len()))
        };
        Ok(Some(DataValue::new(FloatValue(partial))))
    })
    .arg("x", concrete(array_split(), vec![0]))
    .arg("y", concrete(array_split(), vec![0]))
    .ret(concrete(AddReduce::shared(), vec![]))
    .build()
});

/// Annotated `ddot`: parallel dot product via partial-sum merging.
pub fn ddot(ctx: &MozartContext, x: &SharedVec<f64>, y: &SharedVec<f64>) -> Result<FutureHandle> {
    let fut = ctx.call(&DDOT, &[Arg::Vec(x), Arg::Vec(y)])?;
    Ok(fut.expect("ddot returns a value"))
}

static DASUM: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
    Annotation::new("dasum", |inv| {
        let x = &inv.arg::<VecValue>(0)?.0;
        // SAFETY: read-only view of this worker's range.
        let partial = vectormath::dasum(unsafe { x.slice_unchecked(0, x.len()) });
        Ok(Some(DataValue::new(FloatValue(partial))))
    })
    .arg("x", concrete(array_split(), vec![0]))
    .ret(concrete(AddReduce::shared(), vec![]))
    .build()
});

/// Annotated `dasum`: parallel sum of absolute values.
pub fn dasum(ctx: &MozartContext, x: &SharedVec<f64>) -> Result<FutureHandle> {
    let fut = ctx.call(&DASUM, &[Arg::Vec(x)])?;
    Ok(fut.expect("dasum returns a value"))
}

static DGEMV: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
    Annotation::new("dgemv", |inv| {
        let _m = inv.int(0)?;
        let n = inv.int(1)? as usize;
        let alpha = inv.float(2)?;
        let a = &inv.arg::<VecValue>(3)?.0;
        let x = inv.arg::<VecValue>(4)?;
        let beta = inv.float(5)?;
        let y = &inv.arg::<VecValue>(6)?.0;
        let m_piece = y.len();
        // SAFETY: `a` and `y` are this worker's disjoint row ranges;
        // `x` is a broadcast read-only operand, and the executor
        // guarantees no pending writer exists during execution.
        unsafe {
            let a_rows = a.slice_unchecked(0, a.len());
            let y_rows = y.slice_mut_unchecked(0, m_piece);
            vectormath::dgemv(m_piece, n, alpha, a_rows, x.0.as_slice(), beta, y_rows);
        }
        Ok(None)
    })
    .arg("m", concrete(size_split(), vec![0]))
    .arg("n", missing())
    .arg("alpha", missing())
    .arg("a", concrete(MatrixSplit::shared(), vec![0, 1]))
    .arg("x", missing())
    .arg("beta", missing())
    .mut_arg("y", concrete(array_split(), vec![0]))
    .build()
});

/// Annotated `dgemv`: `y = alpha * A x + beta * y`, `A` split by rows.
#[allow(clippy::too_many_arguments)]
pub fn dgemv(
    ctx: &MozartContext,
    m: usize,
    n: usize,
    alpha: f64,
    a: &SharedVec<f64>,
    x: &SharedVec<f64>,
    beta: f64,
    y: &SharedVec<f64>,
) -> Result<()> {
    ctx.call(
        &DGEMV,
        &[
            Arg::Int(m as i64),
            Arg::Int(n as i64),
            Arg::Float(alpha),
            Arg::Vec(a),
            Arg::Vec(x),
            Arg::Float(beta),
            Arg::Vec(y),
        ],
    )?;
    Ok(())
}

/// Every annotation this integration defines, in declaration order —
/// the walk surface for static tooling (`mozart-check`).
pub fn annotations() -> Vec<Arc<Annotation>> {
    vec![
        VD_ADD.clone(),
        VD_SUB.clone(),
        VD_MUL.clone(),
        VD_DIV.clone(),
        VD_POW.clone(),
        VD_FMAX.clone(),
        VD_FMIN.clone(),
        VD_SQR.clone(),
        VD_SQRT.clone(),
        VD_ABS.clone(),
        VD_INV.clone(),
        VD_NEG.clone(),
        VD_EXP.clone(),
        VD_LN.clone(),
        VD_LOG1P.clone(),
        VD_ERF.clone(),
        VD_SIN.clone(),
        VD_COS.clone(),
        VD_ASIN.clone(),
        VD_SCALE.clone(),
        VD_SHIFT.clone(),
        VD_POWX.clone(),
        VD_RSUB.clone(),
        VD_RDIV.clone(),
        DAXPY.clone(),
        DDOT.clone(),
        DASUM.clone(),
        DGEMV.clone(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> MozartContext {
        crate::register_defaults();
        let mut cfg = Config::with_workers(2);
        cfg.batch_override = Some(13);
        MozartContext::new(cfg)
    }

    #[test]
    fn black_scholes_snippet_matches_listing_1() {
        // Listing 1: d1 = log1p(d1); d1 = d1 + tmp; d1 = d1 / vol_sqrt
        let c = ctx();
        let n = 100;
        let d1 = SharedVec::from_vec((0..n).map(|i| i as f64 * 0.01).collect());
        let tmp = SharedVec::from_vec(vec![1.0; n]);
        let vol = SharedVec::from_vec(vec![2.0; n]);
        vd_log1p(&c, n, &d1, &d1).unwrap();
        vd_add(&c, n, &d1, &tmp, &d1).unwrap();
        vd_div(&c, n, &d1, &vol, &d1).unwrap();
        assert_eq!(c.pending_calls(), 3);

        let out = d1.to_vec(); // forces evaluation
        for (i, &v) in out.iter().enumerate() {
            let expected = ((i as f64 * 0.01).ln_1p() + 1.0) / 2.0;
            assert!((v - expected).abs() < 1e-12, "index {i}");
        }
        assert_eq!(c.stats().stages, 1, "whole chain pipelines into one stage");
    }

    #[test]
    fn ddot_reduction_matches_serial() {
        let c = ctx();
        let x = SharedVec::from_vec((0..97).map(|i| i as f64).collect());
        let y = SharedVec::from_vec(vec![2.0; 97]);
        let fut = ddot(&c, &x, &y).unwrap();
        let got = fut.get().unwrap().downcast_ref::<FloatValue>().unwrap().0;
        assert_eq!(got, (0..97).map(|i| i as f64 * 2.0).sum::<f64>());
    }

    #[test]
    fn pipelined_chain_then_reduce() {
        let c = ctx();
        let n = 64;
        let a = SharedVec::from_vec(vec![3.0; n]);
        let b = SharedVec::from_vec(vec![1.0; n]);
        vd_mul(&c, n, &a, &a, &a).unwrap(); // a = 9
        vd_add(&c, n, &a, &b, &a).unwrap(); // a = 10
        let s = dasum(&c, &a).unwrap();
        let got = s.get().unwrap().downcast_ref::<FloatValue>().unwrap().0;
        assert_eq!(got, 640.0);
        assert_eq!(c.stats().stages, 1);
    }

    #[test]
    fn dgemv_splits_matrix_by_rows() {
        let c = ctx();
        // 5x3 matrix, y = A * x.
        let a = SharedVec::from_vec((0..15).map(|i| i as f64).collect());
        let x = SharedVec::from_vec(vec![1.0, 2.0, 3.0]);
        let y = SharedVec::from_vec(vec![0.0; 5]);
        dgemv(&c, 5, 3, 1.0, &a, &x, 0.0, &y).unwrap();
        let out = y.to_vec();
        // Row i = [3i, 3i+1, 3i+2] · [1,2,3].
        for (i, &got) in out.iter().enumerate() {
            let base = 3.0 * i as f64;
            let expected = base + 2.0 * (base + 1.0) + 3.0 * (base + 2.0);
            assert_eq!(got, expected, "row {i}");
        }
    }

    #[test]
    fn scalar_and_unary_wrappers() {
        let c = ctx();
        let n = 40;
        let a = SharedVec::from_vec(vec![4.0; n]);
        vd_sqrt(&c, n, &a, &a).unwrap(); // 2
        vd_scale(&c, n, &a, 10.0, &a).unwrap(); // 20
        vd_rsub(&c, n, &a, 100.0, &a).unwrap(); // 80
        daxpy(&c, n, 0.25, &a, &a).unwrap(); // 100
        assert_eq!(a.as_slice()[n - 1], 100.0);
        assert_eq!(c.stats().stages, 1);
    }
}
