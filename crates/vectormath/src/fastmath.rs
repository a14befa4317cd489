//! Vectorizable scalar math kernels.
//!
//! Polynomial implementations in the style of the hand-optimized SIMD
//! routines inside Intel MKL's vector math library, written so LLVM
//! vectorizes the elementwise loops in [`crate::vml`]. Every function is
//! branch-free on every input:
//!
//! * no early return: special cases (NaN, ±∞, zero, clamps, domain
//!   errors) are selects on values computed for every lane;
//! * no libm call: rounding half away from zero (as [`f64::round`],
//!   which is a libm call on baseline x86-64) is the 2⁵² shift, which
//!   rounds to nearest-even, plus one select that moves exact ties;
//! * no float→int cast: `2^n` is assembled from exponent bits (in two
//!   steps for subnormal results), and integers are read from and
//!   written into mantissa bits.
//!
//! The transcendentals are `#[inline(always)]`, so they compile into the
//! kernel loop, at whatever vector width that loop is compiled for. Only
//! IEEE adds, multiplies, divides, square roots and selects remain, and
//! Rust never contracts `a*b + c` into an FMA, so every width produces
//! the same bits (`tests/bits.rs` pins them).
//!
//! Accuracy targets (documented per function, verified by tests):
//! `exp`/`ln`/`log1p` ≲ 4 ulp over their primary ranges; `erf` absolute
//! error < 5e-7 (Abramowitz & Stegun 7.1.26, the classic vector-math
//! tradeoff); `sin`/`cos` < 1e-13 absolute for |x| ≤ 10⁵; `asin` < 1e-9.

// The hi/lo-split range-reduction constants below are libm idiom: each
// pair deliberately carries more (or differently-rounded) digits than
// one f64, which trips these lints.
#![allow(clippy::approx_constant, clippy::excessive_precision)]

/// log2(e)
const LOG2E: f64 = std::f64::consts::LOG2_E;
/// High/low split of ln(2) for accurate range reduction.
const LN2_HI: f64 = 6.931_471_803_691_238_16e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_70e-10;

/// 2⁵²: a magnitude below it plus 2⁵² is rounded to an integer (to
/// nearest, ties to even), and that integer is the sum's low mantissa
/// bits.
const TWO52: f64 = 4_503_599_627_370_496.0;
/// 1.5·2⁵²: `n + SHIFT` carries an integral `|n| < 2⁵¹` as two's
/// complement in its low mantissa bits.
const SHIFT: f64 = 6_755_399_441_055_744.0;

/// `y` rounded half away from zero, bit for bit as [`f64::round`] (a
/// libm call on baseline x86-64, which keeps a loop scalar).
#[inline(always)]
fn round(y: f64) -> f64 {
    let a = y.abs();
    let n = (a + TWO52) - TWO52;
    // Exact ties went to even; move the ones that went down up.
    let n = if a - n == 0.5 { n + 1.0 } else { n };
    // From 2⁵² up, `a` is already integral (or ∞, or NaN).
    let n = if a >= TWO52 { a } else { n };
    n.copysign(y)
}

/// Fast `e^x`.
///
/// Range-reduced (`x = n·ln2 + r`, |r| ≤ ln2/2) with a degree-11 Taylor
/// polynomial for `e^r`; `2^n` is assembled from exponent bits.
/// Overflow/underflow clamp to `inf`/`0` like libm.
#[inline(always)]
pub fn exp(x: f64) -> f64 {
    let n = round(x * LOG2E);
    let r = (x - n * LN2_HI) - n * LN2_LO;
    // e^r for |r| <= ~0.347: Taylor with Horner evaluation.
    let p = 1.0
        + r * (1.0
            + r * (0.5
                + r * (1.0 / 6.0
                    + r * (1.0 / 24.0
                        + r * (1.0 / 120.0
                            + r * (1.0 / 720.0
                                + r * (1.0 / 5040.0
                                    + r * (1.0 / 40320.0
                                        + r * (1.0 / 362880.0
                                            + r * (1.0 / 3628800.0
                                                + r / 39916800.0))))))))));
    // 2^n via exponent bits; n in [-1075, 1024] wherever the result is
    // kept (n = 1024 gives the infinity bits, as it always has).
    let bits = (n + SHIFT).to_bits().wrapping_sub(SHIFT.to_bits());
    let normal = f64::from_bits(bits.wrapping_add(1023) << 52);
    // Subnormal results: scale in two steps.
    let subnormal =
        f64::from_bits(bits.wrapping_add(1023 + 64) << 52) * f64::from_bits((1023u64 - 64) << 52);
    let y = p * if n >= -1022.0 { normal } else { subnormal };
    let y = if x > 709.78 { f64::INFINITY } else { y };
    let y = if x < -745.0 { 0.0 } else { y };
    if x.is_nan() { f64::NAN } else { y }
}

/// Fast natural logarithm.
///
/// Decomposes `x = m·2^e` with `m ∈ [√2/2, √2)` and evaluates
/// `ln(m) = 2·atanh((m-1)/(m+1))` with a degree-13 odd polynomial.
#[inline(always)]
pub fn ln(x: f64) -> f64 {
    let bits = x.to_bits();
    // The biased exponent as a double: 2⁵² + field, less 2⁵², exactly.
    let e = f64::from_bits(TWO52.to_bits() | ((bits >> 52) & 0x7ff)) - TWO52 - 1023.0;
    let m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | (1023u64 << 52));
    let high = m > std::f64::consts::SQRT_2;
    let m = if high { m * 0.5 } else { m };
    let e = if high { e + 1.0 } else { e };
    let s = (m - 1.0) / (m + 1.0);
    let s2 = s * s;
    let poly = 2.0
        * s
        * (1.0
            + s2 * (1.0 / 3.0
                + s2 * (1.0 / 5.0
                    + s2 * (1.0 / 7.0
                        + s2 * (1.0 / 9.0
                            + s2 * (1.0 / 11.0
                                + s2 * (1.0 / 13.0
                                    + s2 * (1.0 / 15.0 + s2 / 17.0))))))));
    let y = e * LN2_HI + (poly + e * LN2_LO);
    let y = if x == f64::INFINITY { f64::INFINITY } else { y };
    let y = if x == 0.0 { f64::NEG_INFINITY } else { y };
    if x < 0.0 || x.is_nan() { f64::NAN } else { y }
}

/// Fast `ln(1 + x)` without catastrophic cancellation near zero.
///
/// `x ≤ −1` needs no case of its own: `1 + x` is then exactly 0 or
/// negative, which [`ln`] maps to `-inf` and NaN.
#[inline(always)]
pub fn log1p(x: f64) -> f64 {
    // ln(1+x) = 2 atanh(x / (2 + x)) for |x| < 0.25.
    let s = x / (2.0 + x);
    let s2 = s * s;
    let near0 = 2.0 * s
        * (1.0
            + s2 * (1.0 / 3.0
                + s2 * (1.0 / 5.0
                    + s2 * (1.0 / 7.0
                        + s2 * (1.0 / 9.0
                            + s2 * (1.0 / 11.0
                                + s2 * (1.0 / 13.0 + s2 / 15.0)))))));
    if x.abs() < 0.25 { near0 } else { ln(1.0 + x) }
}

/// Fast error function (Abramowitz & Stegun 7.1.26).
///
/// Absolute error < 5e-7, matching the precision class MKL's EP
/// (enhanced-performance) mode trades for throughput.
#[inline(always)]
pub fn erf(x: f64) -> f64 {
    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let ax = x.abs();
    let t = 1.0 / (1.0 + P * ax);
    // `exp` sees `|x|` capped at 10: past 6 the product below is under
    // half an ulp of 1.0, so `y` is 1.0 either way. The cap (a compare
    // and a select, which a NaN fails) also keeps a NaN `x` out of
    // `exp`, so `t` is the only NaN operand of every operation and the
    // result is `x`'s NaN, quieted and positive, at every vector width.
    // `exp`'s own NaN would meet `t`'s in one multiply, and which of two
    // NaNs a multiply returns depends on how the compiler orders its
    // operands: the SSE2 loop returned `exp`'s.
    let ae = if ax < 10.0 { ax } else { 10.0 };
    let y = 1.0 - ((((A5 * t + A4) * t + A3) * t + A2) * t + A1) * t * exp(-ae * ae);
    sign * y
}

/// Fast square root (hardware instruction; present for API symmetry).
#[inline]
pub fn sqrt(x: f64) -> f64 {
    x.sqrt()
}

/// π/2 split for Cody–Waite range reduction.
const PIO2_HI: f64 = 1.570_796_326_794_896_56;
const PIO2_MID: f64 = 6.123_233_995_736_766_04e-17;

/// Fast sine via Cody–Waite reduction modulo π/2 and degree-13/12
/// minimax-style polynomials. Accurate to ~1e-13 for |x| ≤ 1e5.
#[inline(always)]
pub fn sin(x: f64) -> f64 {
    let (q, r) = reduce_pio2(x);
    // Quadrants 0..3: sin, cos, -sin, -cos.
    let v = if q & 1 == 0 { sin_poly(r) } else { cos_poly(r) };
    if q & 2 == 0 { v } else { -v }
}

/// Fast cosine (see [`sin`]).
#[inline(always)]
pub fn cos(x: f64) -> f64 {
    let (q, r) = reduce_pio2(x);
    // Quadrants 0..3: cos, -sin, -cos, sin.
    let v = if q & 1 == 0 { cos_poly(r) } else { sin_poly(r) };
    if (q + 1) & 2 == 0 { v } else { -v }
}

/// `x = q·π/2 + r`; returns `(q as i64) & 3` and `r`.
#[inline(always)]
fn reduce_pio2(x: f64) -> (u64, f64) {
    let q = round(x * std::f64::consts::FRAC_2_PI);
    let r = (x - q * PIO2_HI) - q * PIO2_MID;
    (quadrant(q), r)
}

/// `(q as i64) & 3` for an integral `q`, ±∞ or NaN, without the cast.
#[inline(always)]
fn quadrant(q: f64) -> u64 {
    let a = q.abs();
    // |q| mod 4 sits in the low mantissa bits of `a + 2⁵²` below 2⁵², of
    // `a` itself up to 2⁵³; up to 2⁵⁴ it is twice the lowest bit, and
    // beyond (or for ∞ and NaN) it is 0.
    let low = if a < TWO52 { a + TWO52 } else { a }.to_bits() & 3;
    let m = if a < 2.0 * TWO52 { low } else if a < 4.0 * TWO52 { (low & 1) << 1 } else { 0 };
    let m = if q < 0.0 { m.wrapping_neg() & 3 } else { m };
    // The cast saturates: from 2⁶³ up (and +∞) it gives i64::MAX.
    if q >= 9_223_372_036_854_775_808.0 { 3 } else { m }
}

#[inline(always)]
fn sin_poly(r: f64) -> f64 {
    let r2 = r * r;
    r * (1.0
        + r2 * (-1.0 / 6.0
            + r2 * (1.0 / 120.0
                + r2 * (-1.0 / 5040.0
                    + r2 * (1.0 / 362880.0
                        + r2 * (-1.0 / 39916800.0 + r2 / 6227020800.0))))))
}

#[inline(always)]
fn cos_poly(r: f64) -> f64 {
    let r2 = r * r;
    1.0 + r2
        * (-0.5
            + r2 * (1.0 / 24.0
                + r2 * (-1.0 / 720.0
                    + r2 * (1.0 / 40320.0
                        + r2 * (-1.0 / 3628800.0 + r2 / 479001600.0)))))
}

/// Fast arcsine.
///
/// Polynomial on |x| ≤ 0.5; the identity
/// `asin(x) = π/2 − 2·asin(√((1−x)/2))` otherwise. Error < 1e-9.
#[inline(always)]
pub fn asin(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let ax = x.abs();
    let near0 = ax <= 0.5;
    let p = asin_poly(if near0 { ax } else { ((1.0 - ax) * 0.5).sqrt() });
    let y = sign * if near0 { p } else { std::f64::consts::FRAC_PI_2 - 2.0 * p };
    if x.is_nan() || ax > 1.0 { f64::NAN } else { y }
}

/// Taylor-like series for asin on [0, 0.5]: x + x³/6 + 3x⁵/40 + ...
#[inline(always)]
fn asin_poly(x: f64) -> f64 {
    let x2 = x * x;
    x * (1.0
        + x2 * (1.0 / 6.0
            + x2 * (3.0 / 40.0
                + x2 * (15.0 / 336.0
                    + x2 * (105.0 / 3456.0
                        + x2 * (945.0 / 42240.0
                            + x2 * (10395.0 / 599040.0
                                + x2 * (135135.0 / 9676800.0
                                    + x2 * (2027025.0 / 175472640.0
                                        + x2 * (34459425.0 / 3530096640.0
                                            + x2 * (654729075.0 / 77409976320.0
                                                + x2 * (13749310575.0
                                                    / 1824676331520.0))))))))))))
}

/// Fast `x^y` via `exp(y · ln(x))` for positive bases.
///
/// Negative bases return NaN (like libm for non-integer exponents);
/// MKL's `vdPow` has the same domain.
#[inline(always)]
pub fn pow(x: f64, y: f64) -> f64 {
    let v = exp(y * ln(x));
    let v = if x < 0.0 { f64::NAN } else { v };
    let zero = if y > 0.0 { 0.0 } else { f64::INFINITY };
    if x == 0.0 { zero } else { v }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64, what: &str) {
        let denom = b.abs().max(1.0);
        assert!(
            (a - b).abs() / denom < tol,
            "{what}: got {a}, expected {b} (rel err {})",
            (a - b).abs() / denom
        );
    }

    #[test]
    fn exp_matches_std() {
        for i in -200..=200 {
            let x = i as f64 * 0.37;
            assert_close(exp(x), x.exp(), 1e-13, &format!("exp({x})"));
        }
        assert_eq!(exp(1000.0), f64::INFINITY);
        assert_eq!(exp(-1000.0), 0.0);
        assert!(exp(f64::NAN).is_nan());
    }

    #[test]
    fn ln_matches_std() {
        for i in 1..2000 {
            let x = i as f64 * 0.13;
            assert_close(ln(x), x.ln(), 1e-12, &format!("ln({x})"));
        }
        assert_close(ln(1e-300), (1e-300f64).ln(), 1e-12, "ln tiny");
        assert_close(ln(1e300), (1e300f64).ln(), 1e-12, "ln huge");
        assert_eq!(ln(0.0), f64::NEG_INFINITY);
        assert!(ln(-1.0).is_nan());
    }

    #[test]
    fn log1p_matches_std() {
        for i in -400..4000 {
            let x = i as f64 * 2.4e-3;
            assert_close(log1p(x), x.ln_1p(), 1e-12, &format!("log1p({x})"));
        }
        // Near-zero accuracy (where the naive form cancels).
        assert_close(log1p(1e-15), 1e-15, 1e-12, "log1p tiny");
        assert_eq!(log1p(-1.0), f64::NEG_INFINITY);
    }

    #[test]
    fn erf_is_within_documented_error() {
        for i in -60..=60 {
            let x = i as f64 * 0.1;
            // Reference: high-precision series for small x, asymptotic 1
            // for large x.
            let reference = reference_erf(x);
            assert!(
                (erf(x) - reference).abs() < 5e-7,
                "erf({x}): got {}, want {reference}",
                erf(x)
            );
        }
        // The rational approximation is ~1e-9 off at the origin.
        assert!(erf(0.0).abs() < 1e-8);
        assert!(erf(6.0) > 0.999999);
        assert!(erf(-6.0) < -0.999999);
    }

    /// Taylor series reference implementation of erf (slow, accurate).
    fn reference_erf(x: f64) -> f64 {
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
    fn trig_matches_std() {
        for i in -1000..=1000 {
            let x = i as f64 * 0.097;
            assert_close(sin(x), x.sin(), 1e-12, &format!("sin({x})"));
            assert_close(cos(x), x.cos(), 1e-12, &format!("cos({x})"));
        }
    }

    #[test]
    fn asin_matches_std() {
        for i in -100..=100 {
            let x = i as f64 / 100.0;
            assert_close(asin(x), x.asin(), 1e-9, &format!("asin({x})"));
        }
        assert!(asin(1.5).is_nan());
    }

    #[test]
    fn pow_matches_std_for_positive_base() {
        for (x, y) in [(2.0, 10.0), (1.5, -3.3), (100.0, 0.5), (0.3, 2.7)] {
            assert_close(pow(x, y), x.powf(y), 1e-12, &format!("pow({x},{y})"));
        }
        assert_eq!(pow(0.0, 2.0), 0.0);
        assert!(pow(-2.0, 0.5).is_nan());
    }
}
