//! Black Scholes options pricing (Table 2; Figures 1, 4a, 4j).
//!
//! ~32 vector operations per pricing pass. The MKL variant mirrors
//! Listing 1: in-place vector math over pre-allocated buffers. The
//! NumPy variant is the functional-array version. The fused variant is
//! `fusedbaseline::black_scholes`.

use mozart_core::{MozartContext, Result, SharedVec};
use ndarray_lite::NdArray;

/// Inverse of sqrt(2), for the cumulative normal distribution.
const INV_SQRT2: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// Workload inputs.
pub struct Inputs {
    /// Spot prices.
    pub price: Vec<f64>,
    /// Strike prices.
    pub strike: Vec<f64>,
    /// Times to maturity.
    pub t: Vec<f64>,
    /// Risk-free rates.
    pub rate: Vec<f64>,
    /// Volatilities.
    pub vol: Vec<f64>,
}

/// Generate inputs.
pub fn generate(n: usize, seed: u64) -> Inputs {
    let (price, strike, t, rate, vol) = crate::data::black_scholes_inputs(n, seed);
    Inputs {
        price,
        strike,
        t,
        rate,
        vol,
    }
}

/// Summarize one request's slice of the (possibly concatenated) call
/// and put price vectors. Serial summation over the slice, so a
/// coalesced evaluation reproduces the separate evaluation's sums
/// bit for bit (the per-element prices are positionally identical).
///
/// The concatenation itself is no longer done here: the serving layer
/// coalesces requests generically through the splitting API's `Concat`
/// capability (`ArraySplit`), so no per-pipeline input structs exist.
pub fn summarize_range(call: &[f64], put: &[f64]) -> Summary {
    summarize(call, put)
}

/// Result summary: checksums of the call and put price vectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sum of call prices.
    pub call_sum: f64,
    /// Sum of put prices.
    pub put_sum: f64,
}

fn summarize(call: &[f64], put: &[f64]) -> Summary {
    Summary {
        call_sum: call.iter().sum(),
        put_sum: put.iter().sum(),
    }
}

// ----------------------------- NumPy variant ---------------------------

/// Base: eager `ndarray-lite` calls (single-threaded library).
pub fn numpy_base(inp: &Inputs) -> Summary {
    use ndarray_lite as nd;
    let price = NdArray::from_vec(inp.price.clone());
    let strike = NdArray::from_vec(inp.strike.clone());
    let t = NdArray::from_vec(inp.t.clone());
    let rate = NdArray::from_vec(inp.rate.clone());
    let vol = NdArray::from_vec(inp.vol.clone());

    let rsig = nd::add(&rate, &nd::mul_scalar(&nd::square(&vol), 0.5));
    let vol_sqrt = nd::mul(&vol, &nd::sqrt(&t));
    let ratio = nd::div(&price, &strike);
    let d1 = nd::div(
        &nd::add(
            &nd::log1p(&nd::add_scalar(&ratio, -1.0)),
            &nd::mul(&rsig, &t),
        ),
        &vol_sqrt,
    );
    let d2 = nd::sub(&d1, &vol_sqrt);
    let cnd = |d: &NdArray| {
        nd::add_scalar(
            &nd::mul_scalar(&nd::erf(&nd::mul_scalar(d, INV_SQRT2)), 0.5),
            0.5,
        )
    };
    let e_rt = nd::exp(&nd::neg(&nd::mul(&rate, &t)));
    let call = nd::sub(
        &nd::mul(&price, &cnd(&d1)),
        &nd::mul(&nd::mul(&e_rt, &strike), &cnd(&d2)),
    );
    let put = nd::add(&nd::sub(&nd::mul(&e_rt, &strike), &price), &call);
    summarize(call.as_slice(), put.as_slice())
}

/// Mozart: the same operator sequence through the `sa-ndarray`
/// wrappers, captured lazily and pipelined.
pub fn numpy_mozart(inp: &Inputs, ctx: &MozartContext) -> Result<Summary> {
    use sa_ndarray as sa;
    let price = NdArray::from_vec(inp.price.clone());
    let strike = NdArray::from_vec(inp.strike.clone());
    let t = NdArray::from_vec(inp.t.clone());
    let rate = NdArray::from_vec(inp.rate.clone());
    let vol = NdArray::from_vec(inp.vol.clone());

    let rsig = {
        let v2 = sa::square(ctx, &vol)?;
        let half = sa::mul_scalar(ctx, &v2, 0.5)?;
        sa::add(ctx, &rate, &half)?
    };
    let vol_sqrt = {
        let st = sa::sqrt(ctx, &t)?;
        sa::mul(ctx, &vol, &st)?
    };
    let d1 = {
        let ratio = sa::div(ctx, &price, &strike)?;
        let shifted = sa::add_scalar(ctx, &ratio, -1.0)?;
        let ln = sa::log1p(ctx, &shifted)?;
        let rt = sa::mul(ctx, &rsig, &t)?;
        let num = sa::add(ctx, &ln, &rt)?;
        sa::div(ctx, &num, &vol_sqrt)?
    };
    let d2 = sa::sub(ctx, &d1, &vol_sqrt)?;
    let cnd = |d: &mozart_core::FutureHandle| -> Result<mozart_core::FutureHandle> {
        let scaled = sa::mul_scalar(ctx, d, INV_SQRT2)?;
        let e = sa::erf(ctx, &scaled)?;
        let h = sa::mul_scalar(ctx, &e, 0.5)?;
        sa::add_scalar(ctx, &h, 0.5)
    };
    let cnd1 = cnd(&d1)?;
    let cnd2 = cnd(&d2)?;
    let e_rt = {
        let rt = sa::mul(ctx, &rate, &t)?;
        let neg = sa::neg(ctx, &rt)?;
        sa::exp(ctx, &neg)?
    };
    let call = {
        let a = sa::mul(ctx, &price, &cnd1)?;
        let es = sa::mul(ctx, &e_rt, &strike)?;
        let b = sa::mul(ctx, &es, &cnd2)?;
        sa::sub(ctx, &a, &b)?
    };
    let put = {
        let es = sa::mul(ctx, &e_rt, &strike)?;
        let diff = sa::sub(ctx, &es, &price)?;
        sa::add(ctx, &diff, &call)?
    };
    let call = sa_ndarray::get(&call)?;
    let put = sa_ndarray::get(&put)?;
    Ok(summarize(call.as_slice(), put.as_slice()))
}

// ----------------------------- MKL variant -----------------------------

/// Base: eager `vectormath` calls with the library's internal
/// parallelism (set `vectormath::set_num_threads` beforehand), mirroring
/// Listing 1's in-place style.
pub fn mkl_base(inp: &Inputs) -> Summary {
    use vectormath as vm;
    let n = inp.price.len();
    let mut d1 = vec![0.0; n];
    let mut d2 = vec![0.0; n];
    let mut tmp = vec![0.0; n];
    let mut vol_sqrt = vec![0.0; n];
    let mut e_rt = vec![0.0; n];
    let mut call = vec![0.0; n];
    let mut put = vec![0.0; n];

    // rsig (in tmp) = rate + vol^2/2
    vm::vd_sqr(&inp.vol, &mut tmp);
    vm::vd_scale(&tmp.clone(), 0.5, &mut tmp);
    vm::vd_add(&tmp.clone(), &inp.rate, &mut tmp);
    // vol_sqrt = vol * sqrt(t)
    vm::vd_sqrt(&inp.t, &mut vol_sqrt);
    vm::vd_mul(&vol_sqrt.clone(), &inp.vol, &mut vol_sqrt);
    // d1 = (log1p(price/strike - 1) + rsig*t) / vol_sqrt
    vm::vd_div(&inp.price, &inp.strike, &mut d1);
    vm::vd_shift(&d1.clone(), -1.0, &mut d1);
    vm::vd_log1p(&d1.clone(), &mut d1);
    vm::vd_mul(&tmp.clone(), &inp.t, &mut tmp);
    vm::vd_add(&d1.clone(), &tmp, &mut d1);
    vm::vd_div(&d1.clone(), &vol_sqrt, &mut d1);
    // d2 = d1 - vol_sqrt
    vm::vd_sub(&d1, &vol_sqrt, &mut d2);
    // cnd(d1) in-place, cnd(d2) in-place.
    for d in [&mut d1, &mut d2] {
        vm::vd_scale(&d.clone(), INV_SQRT2, d);
        vm::vd_erf(&d.clone(), d);
        vm::vd_scale(&d.clone(), 0.5, d);
        vm::vd_shift(&d.clone(), 0.5, d);
    }
    // e_rt = exp(-rate * t)
    vm::vd_mul(&inp.rate, &inp.t, &mut e_rt);
    vm::vd_neg(&e_rt.clone(), &mut e_rt);
    vm::vd_exp(&e_rt.clone(), &mut e_rt);
    // call = price*cnd1 - e_rt*strike*cnd2
    vm::vd_mul(&inp.price, &d1, &mut call);
    vm::vd_mul(&e_rt, &inp.strike, &mut tmp);
    vm::vd_mul(&tmp.clone(), &d2, &mut tmp);
    vm::vd_sub(&call.clone(), &tmp, &mut call);
    // put = e_rt*strike - price + call
    vm::vd_mul(&e_rt, &inp.strike, &mut put);
    vm::vd_sub(&put.clone(), &inp.price, &mut put);
    vm::vd_add(&put.clone(), &call, &mut put);
    summarize(&call, &put)
}

/// Mozart: the same in-place sequence (27 annotated vector calls)
/// through `sa-vectormath`.
pub fn mkl_mozart(inp: &Inputs, ctx: &MozartContext) -> Result<Summary> {
    let price = SharedVec::from_vec(inp.price.clone());
    let strike = SharedVec::from_vec(inp.strike.clone());
    let t = SharedVec::from_vec(inp.t.clone());
    let rate = SharedVec::from_vec(inp.rate.clone());
    let vol = SharedVec::from_vec(inp.vol.clone());
    let (call, put) = mkl_chain(ctx, &price, &strike, &t, &rate, &vol)?;
    // Reading forces evaluation (the protect-flag trigger).
    Ok(summarize(call.as_slice(), put.as_slice()))
}

/// The annotated 27-call in-place chain over already-shared buffers,
/// returning the (still lazy) call/put price vectors. The serving
/// layer's generic coalescer hands in concatenated buffers and slices
/// the per-element outputs back per request; reading the returned
/// buffers forces evaluation.
pub fn mkl_chain(
    ctx: &MozartContext,
    price: &SharedVec<f64>,
    strike: &SharedVec<f64>,
    t: &SharedVec<f64>,
    rate: &SharedVec<f64>,
    vol: &SharedVec<f64>,
) -> Result<(SharedVec<f64>, SharedVec<f64>)> {
    use sa_vectormath as sa;
    let n = price.len();
    let d1: SharedVec<f64> = SharedVec::zeros(n);
    let d2: SharedVec<f64> = SharedVec::zeros(n);
    let tmp: SharedVec<f64> = SharedVec::zeros(n);
    let vol_sqrt: SharedVec<f64> = SharedVec::zeros(n);
    let e_rt: SharedVec<f64> = SharedVec::zeros(n);
    let call: SharedVec<f64> = SharedVec::zeros(n);
    let put: SharedVec<f64> = SharedVec::zeros(n);

    sa::vd_sqr(ctx, n, vol, &tmp)?;
    sa::vd_scale(ctx, n, &tmp, 0.5, &tmp)?;
    sa::vd_add(ctx, n, &tmp, rate, &tmp)?;
    sa::vd_sqrt(ctx, n, t, &vol_sqrt)?;
    sa::vd_mul(ctx, n, &vol_sqrt, vol, &vol_sqrt)?;
    sa::vd_div(ctx, n, price, strike, &d1)?;
    sa::vd_shift(ctx, n, &d1, -1.0, &d1)?;
    sa::vd_log1p(ctx, n, &d1, &d1)?;
    sa::vd_mul(ctx, n, &tmp, t, &tmp)?;
    sa::vd_add(ctx, n, &d1, &tmp, &d1)?;
    sa::vd_div(ctx, n, &d1, &vol_sqrt, &d1)?;
    sa::vd_sub(ctx, n, &d1, &vol_sqrt, &d2)?;
    for d in [&d1, &d2] {
        sa::vd_scale(ctx, n, d, INV_SQRT2, d)?;
        sa::vd_erf(ctx, n, d, d)?;
        sa::vd_scale(ctx, n, d, 0.5, d)?;
        sa::vd_shift(ctx, n, d, 0.5, d)?;
    }
    sa::vd_mul(ctx, n, rate, t, &e_rt)?;
    sa::vd_neg(ctx, n, &e_rt, &e_rt)?;
    sa::vd_exp(ctx, n, &e_rt, &e_rt)?;
    sa::vd_mul(ctx, n, price, &d1, &call)?;
    sa::vd_mul(ctx, n, &e_rt, strike, &tmp)?;
    sa::vd_mul(ctx, n, &tmp, &d2, &tmp)?;
    sa::vd_sub(ctx, n, &call, &tmp, &call)?;
    sa::vd_mul(ctx, n, &e_rt, strike, &put)?;
    sa::vd_sub(ctx, n, &put, price, &put)?;
    sa::vd_add(ctx, n, &put, &call, &put)?;
    Ok((call, put))
}

/// Fused (compiler stand-in).
pub fn fused(inp: &Inputs, threads: usize) -> Summary {
    let n = inp.price.len();
    let mut call = vec![0.0; n];
    let mut put = vec![0.0; n];
    fusedbaseline::black_scholes::run(
        &inp.price,
        &inp.strike,
        &inp.t,
        &inp.rate,
        &inp.vol,
        &mut call,
        &mut put,
        threads,
    );
    summarize(&call, &put)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::close;

    #[test]
    fn all_modes_agree() {
        let inp = generate(4000, 42);
        let base_np = numpy_base(&inp);
        let base_mkl = mkl_base(&inp);
        let f = fused(&inp, 2);
        let ctx = crate::mozart_context(2);
        let moz_np = numpy_mozart(&inp, &ctx).unwrap();
        let ctx = crate::mozart_context(2);
        let moz_mkl = mkl_mozart(&inp, &ctx).unwrap();

        for s in [&base_mkl, &f, &moz_np, &moz_mkl] {
            assert!(
                close(base_np.call_sum, s.call_sum, 1e-5),
                "call: {} vs {}",
                base_np.call_sum,
                s.call_sum
            );
            assert!(
                close(base_np.put_sum, s.put_sum, 1e-5),
                "put: {} vs {}",
                base_np.put_sum,
                s.put_sum
            );
        }
    }

    #[test]
    fn mkl_mozart_pipelines_into_one_stage() {
        let inp = generate(2000, 1);
        let ctx = crate::captured_context(2);
        mkl_mozart(&inp, &ctx).unwrap();
        let stats = ctx.stats();
        assert_eq!(
            stats.stages, 1,
            "all 27 in-place vector calls share one stage"
        );
    }
}
