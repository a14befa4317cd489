//! Haversine distance (Table 2; Figures 4b, 4k): distance from a fixed
//! point to a set of GPS coordinates. ~18 vector operations.

use fusedbaseline::haversine::EARTH_RADIUS_MILES;
use mozart_core::{MozartContext, Result, SharedVec};
use ndarray_lite::NdArray;

/// Fixed reference point (radians) used by all modes.
pub const LAT1: f64 = 0.70984286;
/// Fixed reference longitude (radians).
pub const LON1: f64 = -1.29744104;

/// Workload inputs: target coordinates in radians.
pub struct Inputs {
    /// Latitudes.
    pub lat: Vec<f64>,
    /// Longitudes.
    pub lon: Vec<f64>,
}

/// Generate inputs.
pub fn generate(n: usize, seed: u64) -> Inputs {
    let (lat, lon) = crate::data::haversine_inputs(n, seed);
    Inputs { lat, lon }
}

/// Result summary: checksum of distances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sum of all distances (miles).
    pub dist_sum: f64,
}

/// Base NumPy: eager functional arrays.
pub fn numpy_base(inp: &Inputs) -> Summary {
    use ndarray_lite as nd;
    let lat2 = NdArray::from_vec(inp.lat.clone());
    let lon2 = NdArray::from_vec(inp.lon.clone());
    let dlat = nd::add_scalar(&lat2, -LAT1);
    let dlon = nd::add_scalar(&lon2, -LON1);
    let sa2 = nd::square(&nd::sin(&nd::mul_scalar(&dlat, 0.5)));
    let so2 = nd::square(&nd::sin(&nd::mul_scalar(&dlon, 0.5)));
    let h = nd::add(
        &sa2,
        &nd::mul_scalar(&nd::mul(&nd::cos(&lat2), &so2), LAT1.cos()),
    );
    let d = nd::mul_scalar(
        &nd::asin(&nd::minimum(
            &nd::sqrt(&h),
            &NdArray::full(&[inp.lat.len()], 1.0),
        )),
        2.0 * EARTH_RADIUS_MILES,
    );
    Summary {
        dist_sum: ndarray_lite::sum(&d),
    }
}

/// Mozart NumPy: annotated wrappers, pipelined, ending in an annotated
/// reduction.
pub fn numpy_mozart(inp: &Inputs, ctx: &MozartContext) -> Result<Summary> {
    use sa_ndarray as sa;
    let n = inp.lat.len();
    let lat2 = NdArray::from_vec(inp.lat.clone());
    let lon2 = NdArray::from_vec(inp.lon.clone());
    let ones = NdArray::full(&[n], 1.0);

    let dlat = sa::add_scalar(ctx, &lat2, -LAT1)?;
    let dlon = sa::add_scalar(ctx, &lon2, -LON1)?;
    let sa2 = {
        let h = sa::mul_scalar(ctx, &dlat, 0.5)?;
        let s = sa::sin(ctx, &h)?;
        sa::square(ctx, &s)?
    };
    let so2 = {
        let h = sa::mul_scalar(ctx, &dlon, 0.5)?;
        let s = sa::sin(ctx, &h)?;
        sa::square(ctx, &s)?
    };
    let h = {
        let c2 = sa::cos(ctx, &lat2)?;
        let prod = sa::mul(ctx, &c2, &so2)?;
        let scaled = sa::mul_scalar(ctx, &prod, LAT1.cos())?;
        sa::add(ctx, &sa2, &scaled)?
    };
    let d = {
        let r = sa::sqrt(ctx, &h)?;
        let clamped = sa::minimum(ctx, &r, &ones)?;
        let a = sa::asin(ctx, &clamped)?;
        sa::mul_scalar(ctx, &a, 2.0 * EARTH_RADIUS_MILES)?
    };
    let total = sa::sum(ctx, &d)?;
    Ok(Summary {
        dist_sum: sa_ndarray::get_scalar(&total)?,
    })
}

/// Base MKL: eager in-place vector math (internally parallel library).
pub fn mkl_base(inp: &Inputs) -> Summary {
    use vectormath as vm;
    let n = inp.lat.len();
    let mut a = vec![0.0; n];
    let mut b = vec![0.0; n];
    // a = sin²(dlat/2)
    vm::vd_shift(&inp.lat, -LAT1, &mut a);
    vm::vd_scale(&a.clone(), 0.5, &mut a);
    vm::vd_sin(&a.clone(), &mut a);
    vm::vd_sqr(&a.clone(), &mut a);
    // b = cos(lat1) * cos(lat2) * sin²(dlon/2)
    vm::vd_shift(&inp.lon, -LON1, &mut b);
    vm::vd_scale(&b.clone(), 0.5, &mut b);
    vm::vd_sin(&b.clone(), &mut b);
    vm::vd_sqr(&b.clone(), &mut b);
    let mut c = vec![0.0; n];
    vm::vd_cos(&inp.lat, &mut c);
    vm::vd_mul(&b.clone(), &c, &mut b);
    vm::vd_scale(&b.clone(), LAT1.cos(), &mut b);
    // d = 2R asin(min(sqrt(a + b), 1))
    vm::vd_add(&a.clone(), &b, &mut a);
    vm::vd_sqrt(&a.clone(), &mut a);
    vm::vd_fmin(&a.clone(), &vec![1.0; n], &mut a);
    vm::vd_asin(&a.clone(), &mut a);
    vm::vd_scale(&a.clone(), 2.0 * EARTH_RADIUS_MILES, &mut a);
    Summary {
        dist_sum: a.iter().sum(),
    }
}

/// Register the annotated 16-call in-place distance chain on `ctx`
/// over already-shared coordinate buffers and return the (still lazy)
/// per-coordinate distance vector. Shared by [`mkl_mozart`] (which
/// appends the annotated `dasum` reduction) and the serving layer,
/// whose generic coalescer hands in concatenated buffers and slices
/// the distances back per request; reading the returned buffer forces
/// evaluation.
pub fn mkl_chain(
    ctx: &MozartContext,
    lat: &SharedVec<f64>,
    lon: &SharedVec<f64>,
) -> Result<SharedVec<f64>> {
    use sa_vectormath as sa;
    let n = lat.len();
    let ones = SharedVec::from_vec(vec![1.0; n]);
    let a: SharedVec<f64> = SharedVec::zeros(n);
    let b: SharedVec<f64> = SharedVec::zeros(n);
    let c: SharedVec<f64> = SharedVec::zeros(n);

    sa::vd_shift(ctx, n, lat, -LAT1, &a)?;
    sa::vd_scale(ctx, n, &a, 0.5, &a)?;
    sa::vd_sin(ctx, n, &a, &a)?;
    sa::vd_sqr(ctx, n, &a, &a)?;
    sa::vd_shift(ctx, n, lon, -LON1, &b)?;
    sa::vd_scale(ctx, n, &b, 0.5, &b)?;
    sa::vd_sin(ctx, n, &b, &b)?;
    sa::vd_sqr(ctx, n, &b, &b)?;
    sa::vd_cos(ctx, n, lat, &c)?;
    sa::vd_mul(ctx, n, &b, &c, &b)?;
    sa::vd_scale(ctx, n, &b, LAT1.cos(), &b)?;
    sa::vd_add(ctx, n, &a, &b, &a)?;
    sa::vd_sqrt(ctx, n, &a, &a)?;
    sa::vd_fmin(ctx, n, &a, &ones, &a)?;
    sa::vd_asin(ctx, n, &a, &a)?;
    sa::vd_scale(ctx, n, &a, 2.0 * EARTH_RADIUS_MILES, &a)?;
    Ok(a)
}

/// Mozart MKL: the same in-place sequence, annotated, ending in the
/// annotated `dasum` reduction (distances are non-negative).
pub fn mkl_mozart(inp: &Inputs, ctx: &MozartContext) -> Result<Summary> {
    use sa_vectormath as sa;
    let lat = SharedVec::from_vec(inp.lat.clone());
    let lon = SharedVec::from_vec(inp.lon.clone());
    let a = mkl_chain(ctx, &lat, &lon)?;
    let total = sa::dasum(ctx, &a)?;
    let dv = total.get()?;
    Ok(Summary {
        dist_sum: dv
            .downcast_ref::<mozart_core::FloatValue>()
            .expect("float")
            .0,
    })
}

/// Fused (compiler stand-in).
pub fn fused(inp: &Inputs, threads: usize) -> Summary {
    let mut out = vec![0.0; inp.lat.len()];
    fusedbaseline::haversine::run(LAT1, LON1, &inp.lat, &inp.lon, &mut out, threads);
    Summary {
        dist_sum: out.iter().sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::close;

    #[test]
    fn all_modes_agree() {
        let inp = generate(3000, 11);
        let a = numpy_base(&inp);
        let b = mkl_base(&inp);
        let f = fused(&inp, 2);
        let ctx = crate::mozart_context(2);
        let m1 = numpy_mozart(&inp, &ctx).unwrap();
        let ctx = crate::mozart_context(2);
        let m2 = mkl_mozart(&inp, &ctx).unwrap();
        for s in [&b, &f, &m1, &m2] {
            assert!(
                close(a.dist_sum, s.dist_sum, 1e-6),
                "{} vs {}",
                a.dist_sum,
                s.dist_sum
            );
        }
    }

    #[test]
    fn mkl_chain_is_one_stage() {
        let inp = generate(1000, 3);
        let ctx = crate::captured_context(2);
        mkl_mozart(&inp, &ctx).unwrap();
        assert_eq!(ctx.stats().stages, 1);
    }
}
