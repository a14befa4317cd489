//! Annotated wrapper functions over unmodified `ndarray-lite`
//! operators. Binary/unary operators use generics (Listing 4 Ex. 2–3);
//! reductions return merge-only split types (Ex. 5).

use std::sync::{Arc, LazyLock};

use mozart_core::annotation::{concrete, generic, missing};
use mozart_core::prelude::*;
use ndarray_lite as nd;

use crate::reduce::{AxisReduce, MaxReduce, MeanReduce, MinReduce, PartialMean, SumReduce};
use crate::split::NdValue;
use crate::NdArg;

fn nd_piece(inv: &Invocation<'_>, i: usize) -> Result<nd::NdArray> {
    Ok(inv.arg::<NdValue>(i)?.0.clone())
}

macro_rules! nd_sa_binary {
    ($(#[$doc:meta])* $name:ident, $annot:ident, $f:path) => {
        static $annot: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
            Annotation::new(stringify!($name), |inv| {
                let a = nd_piece(inv, 0)?;
                let b = nd_piece(inv, 1)?;
                Ok(Some(DataValue::new(NdValue($f(&a, &b)))))
            })
            // @splittable(left: S, right: S) -> S   (Ex. 2)
            .arg("left", generic(0))
            .arg("right", generic(0))
            .ret(generic(0))
            .build()
        });

        $(#[$doc])*
        pub fn $name(ctx: &MozartContext, a: &impl NdArg, b: &impl NdArg) -> Result<FutureHandle> {
            let fut = ctx.call(&$annot, &[Arg::Value(&a.to_value()), Arg::Value(&b.to_value())])?;
            Ok(fut.expect("binary op returns a value"))
        }
    };
}

macro_rules! nd_sa_unary {
    ($(#[$doc:meta])* $name:ident, $annot:ident, $f:path) => {
        static $annot: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
            Annotation::new(stringify!($name), |inv| {
                let a = nd_piece(inv, 0)?;
                Ok(Some(DataValue::new(NdValue($f(&a)))))
            })
            .arg("a", generic(0))
            .ret(generic(0))
            .build()
        });

        $(#[$doc])*
        pub fn $name(ctx: &MozartContext, a: &impl NdArg) -> Result<FutureHandle> {
            let fut = ctx.call(&$annot, &[Arg::Value(&a.to_value())])?;
            Ok(fut.expect("unary op returns a value"))
        }
    };
}

macro_rules! nd_sa_scalar {
    ($(#[$doc:meta])* $name:ident, $annot:ident, $f:path) => {
        static $annot: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
            Annotation::new(stringify!($name), |inv| {
                let a = nd_piece(inv, 0)?;
                let k = inv.float(1)?;
                Ok(Some(DataValue::new(NdValue($f(&a, k)))))
            })
            // @splittable(a: S, k: _) -> S   (Ex. 3 shape)
            .arg("a", generic(0))
            .arg("k", missing())
            .ret(generic(0))
            .build()
        });

        $(#[$doc])*
        pub fn $name(ctx: &MozartContext, a: &impl NdArg, k: f64) -> Result<FutureHandle> {
            let fut = ctx.call(&$annot, &[Arg::Value(&a.to_value()), Arg::Float(k)])?;
            Ok(fut.expect("scalar op returns a value"))
        }
    };
}

nd_sa_binary!(
    /// Annotated elementwise `a + b` (same shape).
    add, ADD, nd::add
);
nd_sa_binary!(
    /// Annotated elementwise `a - b`.
    sub, SUB, nd::sub
);
nd_sa_binary!(
    /// Annotated elementwise `a * b`.
    mul, MUL, nd::mul
);
nd_sa_binary!(
    /// Annotated elementwise `a / b`.
    div, DIV, nd::div
);
nd_sa_binary!(
    /// Annotated elementwise `a ^ b`.
    pow, POW, nd::pow
);
nd_sa_binary!(
    /// Annotated elementwise maximum.
    maximum, MAXIMUM, nd::maximum
);
nd_sa_binary!(
    /// Annotated elementwise minimum.
    minimum, MINIMUM, nd::minimum
);

nd_sa_unary!(
    /// Annotated elementwise square root.
    sqrt, SQRT, nd::sqrt
);
nd_sa_unary!(
    /// Annotated elementwise `e^x`.
    exp, EXP, nd::exp
);
nd_sa_unary!(
    /// Annotated elementwise natural log.
    ln, LN, nd::ln
);
nd_sa_unary!(
    /// Annotated elementwise `ln(1+x)`.
    log1p, LOG1P, nd::log1p
);
nd_sa_unary!(
    /// Annotated elementwise error function.
    erf, ERF, nd::erf
);
nd_sa_unary!(
    /// Annotated elementwise sine.
    sin, SIN, nd::sin
);
nd_sa_unary!(
    /// Annotated elementwise cosine.
    cos, COS, nd::cos
);
nd_sa_unary!(
    /// Annotated elementwise arcsine.
    asin, ASIN, nd::asin
);
nd_sa_unary!(
    /// Annotated elementwise absolute value.
    abs, ABS, nd::abs
);
nd_sa_unary!(
    /// Annotated elementwise square.
    square, SQUARE, nd::square
);
nd_sa_unary!(
    /// Annotated elementwise negation.
    neg, NEG, nd::neg
);
nd_sa_unary!(
    /// Annotated elementwise reciprocal.
    recip, RECIP, nd::recip
);

nd_sa_scalar!(
    /// Annotated `a * k`.
    mul_scalar, MUL_SCALAR, nd::mul_scalar
);
nd_sa_scalar!(
    /// Annotated `a + k`.
    add_scalar, ADD_SCALAR, nd::add_scalar
);
nd_sa_scalar!(
    /// Annotated `a ^ k`.
    pow_scalar, POW_SCALAR, nd::pow_scalar
);
nd_sa_scalar!(
    /// Annotated `k - a`.
    rsub_scalar, RSUB_SCALAR, nd::rsub_scalar
);
nd_sa_scalar!(
    /// Annotated `k / a`.
    rdiv_scalar, RDIV_SCALAR, nd::rdiv_scalar
);
nd_sa_scalar!(
    /// Annotated `a - k`.
    sub_scalar, SUB_SCALAR, nd::sub_scalar
);
nd_sa_scalar!(
    /// Annotated `a / k`.
    div_scalar, DIV_SCALAR, nd::div_scalar
);

/// Annotated broadcast `matrix + row-vector` — the row vector is
/// copied to every pipeline (`_` split type), so the matrix's split is
/// unconstrained.
static ADD_ROWVEC: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
    Annotation::new("add_rowvec", |inv| {
        let a = nd_piece(inv, 0)?;
        let v = nd_piece(inv, 1)?;
        Ok(Some(DataValue::new(NdValue(nd::add(&a, &v)))))
    })
    .arg("a", generic(0))
    .arg("v", missing())
    .ret(generic(0))
    .build()
});

/// Annotated broadcast add of a row vector to every row of `a`.
pub fn add_rowvec(ctx: &MozartContext, a: &impl NdArg, v: &impl NdArg) -> Result<FutureHandle> {
    let fut = ctx.call(
        &ADD_ROWVEC,
        &[Arg::Value(&a.to_value()), Arg::Value(&v.to_value())],
    )?;
    Ok(fut.expect("returns a value"))
}

/// Annotated broadcast `matrix * row-vector`.
static MUL_ROWVEC: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
    Annotation::new("mul_rowvec", |inv| {
        let a = nd_piece(inv, 0)?;
        let v = nd_piece(inv, 1)?;
        Ok(Some(DataValue::new(NdValue(nd::mul(&a, &v)))))
    })
    .arg("a", generic(0))
    .arg("v", missing())
    .ret(generic(0))
    .build()
});

/// Annotated broadcast multiply of a row vector into every row of `a`.
pub fn mul_rowvec(ctx: &MozartContext, a: &impl NdArg, v: &impl NdArg) -> Result<FutureHandle> {
    let fut = ctx.call(
        &MUL_ROWVEC,
        &[Arg::Value(&a.to_value()), Arg::Value(&v.to_value())],
    )?;
    Ok(fut.expect("returns a value"))
}

/// Annotated `roll` along axis 1 (within-row permutation — row splits
/// compose). Axis-0 roll moves data between rows and is deliberately
/// NOT annotated; call `ndarray_lite::roll` directly on materialized
/// data for that case (a stage boundary, as in Shallow Water §8.2).
static ROLL_AXIS1: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
    Annotation::new("roll_axis1", |inv| {
        let a = nd_piece(inv, 0)?;
        let k = inv.int(1)?;
        Ok(Some(DataValue::new(NdValue(nd::roll(&a, k, 1)))))
    })
    .arg("a", generic(0))
    .arg("k", missing())
    .ret(generic(0))
    .build()
});

/// Annotated circular shift within rows.
pub fn roll_axis1(ctx: &MozartContext, a: &impl NdArg, k: i64) -> Result<FutureHandle> {
    let fut = ctx.call(&ROLL_AXIS1, &[Arg::Value(&a.to_value()), Arg::Int(k)])?;
    Ok(fut.expect("returns a value"))
}

// ----------------------------- reductions ------------------------------

macro_rules! nd_sa_full_reduce {
    ($(#[$doc:meta])* $name:ident, $annot:ident, $f:path, $merger:expr) => {
        static $annot: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
            Annotation::new(stringify!($name), |inv| {
                let a = nd_piece(inv, 0)?;
                Ok(Some(DataValue::new(FloatValue($f(&a)))))
            })
            .arg("a", generic(0))
            .ret(concrete($merger, vec![]))
            .build()
        });

        $(#[$doc])*
        pub fn $name(ctx: &MozartContext, a: &impl NdArg) -> Result<FutureHandle> {
            let fut = ctx.call(&$annot, &[Arg::Value(&a.to_value())])?;
            Ok(fut.expect("reduction returns a value"))
        }
    };
}

nd_sa_full_reduce!(
    /// Annotated full sum; partials merge additively.
    sum, SUM, nd::sum, SumReduce::shared()
);
nd_sa_full_reduce!(
    /// Annotated full min.
    min, MIN, nd::min, MinReduce::shared()
);
nd_sa_full_reduce!(
    /// Annotated full max.
    max, MAX, nd::max, MaxReduce::shared()
);

static MEAN: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
    Annotation::new("mean", |inv| {
        let a = nd_piece(inv, 0)?;
        Ok(Some(DataValue::new(PartialMean {
            sum: nd::sum(&a),
            count: a.len() as u64,
        })))
    })
    .arg("a", generic(0))
    .ret(concrete(MeanReduce::shared(), vec![]))
    .build()
});

/// Annotated full mean; partials carry `(sum, count)` so unequal batch
/// sizes merge correctly.
pub fn mean(ctx: &MozartContext, a: &impl NdArg) -> Result<FutureHandle> {
    let fut = ctx.call(&MEAN, &[Arg::Value(&a.to_value())])?;
    Ok(fut.expect("mean returns a value"))
}

/// Listing 4 Ex. 5: `sumReduceToVector` — reduce a matrix to a vector
/// along `axis`, with a `ReduceSplit<axis>`-merged result.
static SUM_AXIS: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
    Annotation::new("sum_axis", |inv| {
        let a = nd_piece(inv, 0)?;
        let axis = inv.int(1)? as usize;
        Ok(Some(DataValue::new(NdValue(nd::sum_axis(&a, axis)))))
    })
    // @splittable(m: S, axis: _) -> ReduceSplit(axis)
    .arg("m", generic(0))
    .arg("axis", missing())
    .ret(concrete(AxisReduce::shared(), vec![1]))
    .build()
});

/// Annotated axis sum over row-split matrices.
pub fn sum_axis(ctx: &MozartContext, a: &impl NdArg, axis: usize) -> Result<FutureHandle> {
    let fut = ctx.call(
        &SUM_AXIS,
        &[Arg::Value(&a.to_value()), Arg::Int(axis as i64)],
    )?;
    Ok(fut.expect("sum_axis returns a value"))
}

/// Every annotation this integration defines, in declaration order —
/// the walk surface for static tooling (`mozart-check`).
pub fn annotations() -> Vec<Arc<Annotation>> {
    vec![
        ADD.clone(),
        SUB.clone(),
        MUL.clone(),
        DIV.clone(),
        POW.clone(),
        MAXIMUM.clone(),
        MINIMUM.clone(),
        SQRT.clone(),
        EXP.clone(),
        LN.clone(),
        LOG1P.clone(),
        ERF.clone(),
        SIN.clone(),
        COS.clone(),
        ASIN.clone(),
        ABS.clone(),
        SQUARE.clone(),
        NEG.clone(),
        RECIP.clone(),
        MUL_SCALAR.clone(),
        ADD_SCALAR.clone(),
        POW_SCALAR.clone(),
        RSUB_SCALAR.clone(),
        RDIV_SCALAR.clone(),
        SUB_SCALAR.clone(),
        DIV_SCALAR.clone(),
        ADD_ROWVEC.clone(),
        MUL_ROWVEC.clone(),
        ROLL_AXIS1.clone(),
        SUM.clone(),
        MIN.clone(),
        MAX.clone(),
        MEAN.clone(),
        SUM_AXIS.clone(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{get, get_scalar};
    use ndarray_lite::NdArray;

    fn ctx() -> MozartContext {
        crate::register_defaults();
        let mut cfg = Config::with_workers(2);
        cfg.batch_override = Some(9);
        MozartContext::new(cfg)
    }

    #[test]
    fn functional_chain_pipelines() {
        let c = ctx();
        let x = NdArray::linspace(0.0, 1.0, 100);
        let y = NdArray::full(&[100], 2.0);
        // z = sqrt(x * y) + x
        let xy = mul(&c, &x, &y).unwrap();
        let s = sqrt(&c, &xy).unwrap();
        let z = add(&c, &s, &x).unwrap();
        let out = get(&z).unwrap();
        for i in 0..100 {
            let expect = (x.get(i) * 2.0).sqrt() + x.get(i);
            assert!((out.get(i) - expect).abs() < 1e-12, "index {i}");
        }
        assert_eq!(c.stats().stages, 1);
    }

    #[test]
    fn full_reductions_match_library() {
        let c = ctx();
        let x = NdArray::linspace(-3.0, 14.0, 57);
        assert!((get_scalar(&sum(&c, &x).unwrap()).unwrap() - nd::sum(&x)).abs() < 1e-9);
        assert_eq!(get_scalar(&min(&c, &x).unwrap()).unwrap(), nd::min(&x));
        assert_eq!(get_scalar(&max(&c, &x).unwrap()).unwrap(), nd::max(&x));
        let m = get_scalar(&mean(&c, &x).unwrap()).unwrap();
        assert!((m - nd::mean(&x)).abs() < 1e-12);
    }

    #[test]
    fn axis_reductions_both_axes() {
        let c = ctx();
        let m = NdArray::from_shape_vec(&[20, 3], (0..60).map(|i| i as f64).collect());
        let by_cols = get(&sum_axis(&c, &m, 0).unwrap()).unwrap();
        assert_eq!(by_cols, nd::sum_axis(&m, 0));
        let by_rows = get(&sum_axis(&c, &m, 1).unwrap()).unwrap();
        assert_eq!(by_rows, nd::sum_axis(&m, 1));
    }

    #[test]
    fn different_axis_reductions_do_not_pipeline_with_each_other() {
        // The §3.1 example: same function, different axis arguments =>
        // different (dependent) split types.
        let c = ctx();
        let m = NdArray::from_shape_vec(&[12, 4], (0..48).map(|i| i as f64).collect());
        let r0 = sum_axis(&c, &m, 0).unwrap();
        let r1 = sum_axis(&c, &m, 1).unwrap();
        assert_eq!(get(&r0).unwrap(), nd::sum_axis(&m, 0));
        assert_eq!(get(&r1).unwrap(), nd::sum_axis(&m, 1));
    }

    #[test]
    fn broadcast_and_roll_wrappers() {
        let c = ctx();
        let m = NdArray::from_shape_vec(&[30, 2], (0..60).map(|i| i as f64).collect());
        let v = NdArray::from_vec(vec![100.0, 200.0]);
        let out = get(&add_rowvec(&c, &m, &v).unwrap()).unwrap();
        assert_eq!(out.at(0, 1), 201.0);
        assert_eq!(out.at(29, 0), 158.0);

        let rolled = get(&roll_axis1(&c, &m, 1).unwrap()).unwrap();
        assert_eq!(rolled, nd::roll(&m, 1, 1));
    }

    #[test]
    fn mean_is_exact_with_uneven_batches() {
        // batch_override = 9 does not divide 100: unequal piece sizes.
        let c = ctx();
        let x = NdArray::linspace(1.0, 7.0, 100);
        let m = get_scalar(&mean(&c, &x).unwrap()).unwrap();
        assert!((m - 4.0).abs() < 1e-12);
    }

    #[test]
    fn pipelined_map_then_reduce_single_stage() {
        let c = ctx();
        let x = NdArray::full(&[64], 3.0);
        let sq = square(&c, &x).unwrap();
        let total = sum(&c, &sq).unwrap();
        assert_eq!(get_scalar(&total).unwrap(), 9.0 * 64.0);
        assert_eq!(c.stats().stages, 1);
    }
}
