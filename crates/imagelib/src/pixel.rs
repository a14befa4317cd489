//! Per-pixel kernels: the branch-free `f32` functions every color
//! operator is built from.
//!
//! `imagelib` stands in for ImageMagick, a hand-optimized library whose
//! per-pixel loops already run at the machine's vector width; the
//! paper's Figures 4n–o measure what Mozart adds on top of such a
//! library. The functions here keep `imagelib` in that class: every one
//! is written so that a loop over a tile of pixels vectorizes.
//!
//! * **No branch.** Special cases (NaN, ±∞, zero, clamps, the HSV
//!   max-channel cases and hue sectors) are selects between values
//!   computed for every lane, each computed before the `if` that picks
//!   it: an arm that computes stays a branch in LLVM's IR, and a loop
//!   over a composition of such kernels then stays scalar.
//! * **No libm call.** `powf`, `expf`, `logf` and `fmodf` are calls on
//!   x86-64, which keep a loop scalar. The transcendentals here are
//!   polynomials, and the remainders are selects.
//! * **No float→int conversion.** Integers are read from and written
//!   into exponent and mantissa bits.
//!
//! Only IEEE adds, multiplies, divides and selects remain. Rust never
//! contracts `a*b + c` into an FMA and never substitutes an approximate
//! reciprocal, so a pixel's bits are the same at every vector width,
//! tile position, row band and internal thread count, NaN aside: Rust
//! leaves a NaN's sign and payload unspecified, and the widths differ
//! in them. `tests/bits.rs` pins the bits.
//!
//! Each operator's kernel has one of two shapes, and its parameters are
//! folded in:
//!
//! * a **channel kernel** ([`Channelwise`]: [`gamma`], [`colortone`],
//!   [`colorize`], [`levels`], [`invert`], [`sigmoidal_contrast`],
//!   [`inverse_sigmoidal_contrast`]) maps each channel on its own, so
//!   [`crate::image::map_rgb_channels`] runs it over the interleaved
//!   channels where they lie;
//! * a **pixel kernel** ([`modulate`], [`sepia`], [`grayscale`]) mixes
//!   a pixel's channels, so [`crate::image::map_rgb`] copies each tile
//!   of pixels into three channel arrays and runs it across them.
//!
//! Both loops run at the host's vector width, through the library's
//! one CPU-feature dispatch point, and clamp each output channel to
//! `[0, 1]` ([`clamp`]). An operator in [`crate::ops`] is one of those
//! loops over its kernel, so kernels composed with a [`clamp`] between
//! each pair ([`Channelwise::per_pixel`] lifts a channel kernel) give
//! the operator chain's bits in one pass.
//!
//! Accuracy:
//!
//! * [`colortone`], [`colorize`], [`levels`], [`invert`], [`sepia`],
//!   [`grayscale`] and [`modulate`] need no transcendental. On channels
//!   in `[0, 1]` they are bit for bit the scalar forms this library used
//!   to run (`modulate` for hue in `(-100, 300)`, where the hue shift
//!   stays within ±360°).
//! * [`gamma`], [`sigmoidal_contrast`] and [`inverse_sigmoidal_contrast`]
//!   stay within 1e-6 (absolute, after the clamp) of the same formulas
//!   evaluated in `f64`. `tests/bits.rs` checks the bound over a sweep
//!   of the `f32` channel values in `[0, 1]`, every one of those near 0
//!   and 1 among them, for steepnesses up to 20 and gammas from 0.05 to
//!   20; the worst it finds is 1.3e-7.
//! * [`exp2`], [`exp`], [`log2`] and [`ln`] are within 2 ulp over their
//!   ranges (subnormal results flush to 0); [`pow`] is
//!   `exp2(y · log2(x))`.

// The polynomial coefficients are printed as fitted, and `LN2_HI` with
// every digit of its exact value, more than the shortest form of each
// `f32`, which trips this lint.
#![allow(clippy::excessive_precision)]

/// 1.5·2²³: `x + SHIFT` rounds an `|x| < 2²²` to an integer (to nearest,
/// ties to even), and carries it as two's complement in its low
/// mantissa bits.
const SHIFT: f32 = 12_582_912.0;
const LOG2E: f32 = std::f32::consts::LOG2_E;
const LN2: f32 = std::f32::consts::LN_2;
/// ln 2 split for Cody–Waite reduction: `n · LN2_HI` is exact for
/// `|n| < 2¹⁵`.
const LN2_HI: f32 = 0.693_359_375;
const LN2_LO: f32 = -2.121_944_4e-4;
/// The bits of √½.
const SQRT_HALF_BITS: u32 = 0x3f35_04f3;

/// `p · 2ⁿ` for the integer `n ∈ [-126, 127]` that `s = n + SHIFT`
/// carries, the power assembled in the exponent bits. Outside that
/// range the bits are meaningless; callers select over them.
#[inline(always)]
fn scale(p: f32, s: f32) -> f32 {
    p * f32::from_bits(s.to_bits().wrapping_sub(SHIFT.to_bits() - 127) << 23)
}

/// `eʳ` for `|r| ≤ ½ ln 2`: `1 + r·q(r)`, `q` a degree-5 fit to
/// `(eʳ − 1)/r` (error below 5e-9 of the result).
#[inline(always)]
fn exp_poly(r: f32) -> f32 {
    let q = r * 1.393_364_1e-3 + 8.369_148_5e-3;
    let q = q * r + 4.166_646_5e-2;
    let q = q * r + 1.666_650_5e-1;
    let q = q * r + 0.5;
    let q = q * r + 1.0;
    1.0 + r * q
}

/// `2ʳ` for `|r| ≤ ½`: `1 + r·q(r)`, `q` a degree-5 fit to
/// `(2ʳ − 1)/r` (error below 5e-9 of the result).
#[inline(always)]
fn exp2_poly(r: f32) -> f32 {
    let q = r * 1.545_316_3e-4 + 1.339_086_3e-3;
    let q = q * r + 9.618_082_6e-3;
    let q = q * r + 5.550_357_1e-2;
    let q = q * r + 2.402_265_1e-1;
    let q = q * r + 6.931_471_9e-1;
    1.0 + r * q
}

/// `eˣ − 1` for `0 ≤ x < 1` without cancellation (degree-10 Taylor;
/// relative truncation < 3e-8).
#[inline(always)]
fn expm1_poly(x: f32) -> f32 {
    let p = x * (1.0 / 3_628_800.0) + 1.0 / 362_880.0;
    let p = p * x + 1.0 / 40_320.0;
    let p = p * x + 1.0 / 5040.0;
    let p = p * x + 1.0 / 720.0;
    let p = p * x + 1.0 / 120.0;
    let p = p * x + 1.0 / 24.0;
    let p = p * x + 1.0 / 6.0;
    let p = p * x + 0.5;
    x + x * (x * p)
}

/// `atanh(z)` for `|z| ≤ ¼` (odd series to `z¹³`; relative truncation
/// < 3e-10).
#[inline(always)]
fn atanh_poly(z: f32) -> f32 {
    let z2 = z * z;
    let p = z2 * (1.0 / 13.0) + 1.0 / 11.0;
    let p = p * z2 + 1.0 / 9.0;
    let p = p * z2 + 1.0 / 7.0;
    let p = p * z2 + 1.0 / 5.0;
    let p = p * z2 + 1.0 / 3.0;
    z + z * (z2 * p)
}

/// `2ˣ`, within 2 ulp. Results below 2⁻¹²⁶ (the subnormals) flush to
/// 0, and from `x = 127.5` the result is ∞; NaN stays NaN.
#[inline(always)]
pub fn exp2(x: f32) -> f32 {
    let s = x + SHIFT;
    let r = x - (s - SHIFT);
    let y = scale(exp2_poly(r), s);
    let y = if x < -126.0 { 0.0 } else { y };
    if x >= 128.0 {
        f32::INFINITY
    } else {
        y
    }
}

/// `eˣ` (Cody–Waite reduction to `|r| ≤ ½ ln 2`), within 2 ulp.
/// Results below 2⁻¹²⁶ flush to 0, and from `x ≈ 88.38` (`2¹²⁷·⁵`) the
/// result is ∞; NaN stays NaN.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    let s = x * LOG2E + SHIFT;
    let n = s - SHIFT;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    let y = scale(exp_poly(r), s);
    let y = if x < -126.0 * LN2 { 0.0 } else { y };
    if x >= 128.0 * LN2 {
        f32::INFINITY
    } else {
        y
    }
}

/// `(e, s)` with `x = m · 2ᵉ`, `m ∈ [√½, √2)` and `s = (m − 1) / (m + 1)`
/// (so `|s| ≤ 0.172` and `ln m = 2 atanh s`), for finite `x > 0`,
/// subnormals included. Subtracting √½'s bits moves `x` into `m`'s
/// range and leaves `e` in the exponent field.
#[inline(always)]
fn log_parts(x: f32) -> (f32, f32) {
    let tiny = x < f32::MIN_POSITIVE;
    let scaled = x * 8_388_608.0;
    let x = if tiny { scaled } else { x };
    let ix = x.to_bits().wrapping_sub(SQRT_HALF_BITS);
    let e = ((ix as i32) >> 23) as f32 - if tiny { 23.0 } else { 0.0 };
    let m = f32::from_bits((ix & 0x007f_ffff) + SQRT_HALF_BITS);
    (e, (m - 1.0) / (m + 1.0))
}

/// A logarithm's value `y` at `x`, with `log(0) = −∞`, `log(∞) = ∞` and
/// NaN for `x < 0` and NaN. (Written as one `x > 0` chain: LLVM turns
/// three independent tests into an integer classification three times
/// as long.)
#[inline(always)]
fn log_specials(x: f32, y: f32) -> f32 {
    let y = if x > 0.0 {
        y
    } else if x == 0.0 {
        f32::NEG_INFINITY
    } else {
        f32::NAN
    };
    if x == f32::INFINITY {
        x
    } else {
        y
    }
}

/// `log₂ x`, within 2 ulp (absolutely within 1e-7 near `x = 1`).
#[inline(always)]
pub fn log2(x: f32) -> f32 {
    let (e, s) = log_parts(x);
    let u = s * s;
    // log₂ m = (2 / ln 2) · atanh s = s · P(s²), P a degree-3 fit
    // (error below 1e-9 of the result).
    let p = u * 0.431_717_7 + 0.576_715_2;
    let p = p * u + 0.961_798_84;
    let p = p * u + 2.885_390_1;
    log_specials(x, e + s * p)
}

/// `ln x`, within 2 ulp.
#[inline(always)]
pub fn ln(x: f32) -> f32 {
    let (e, s) = log_parts(x);
    let u = s * s;
    // ln m = 2 atanh s = s · Q(s²), Q a degree-3 fit.
    let q = u * 0.299_243_9 + 0.399_748_5;
    let q = q * u + 0.666_668_15;
    let q = q * u + 2.0;
    log_specials(x, e * LN2_HI + (s * q + e * LN2_LO))
}

/// `xʸ` as `exp2(y · log2(x))`, for `x ≥ 0`: 1 where `y = 0` or
/// `x = 1` (NaNs included, as IEEE `pow`), `0^y` is 0 for `y > 0` and
/// ∞ for `y < 0`, and `x < 0` gives NaN. Results below 2⁻¹²⁶ flush
/// to 0.
#[inline(always)]
pub fn pow(x: f32, y: f32) -> f32 {
    let p = exp2(y * log2(x));
    if y == 0.0 || x == 1.0 {
        1.0
    } else {
        p
    }
}

/// `tanh x` as `(e²ˣ − 1) / (e²ˣ + 1)` on `|x|`, with `e²ˣ − 1` from
/// its series below `|x| = ½` so small `x` keep their relative
/// precision; ±1 beyond `|x| = 9`.
#[inline(always)]
fn tanh(x: f32) -> f32 {
    let a = x.abs();
    let t = 2.0 * a;
    let (series, big) = (expm1_poly(t), exp(t) - 1.0);
    let em = if t < 1.0 { series } else { big };
    let y = em / (em + 2.0);
    let y = if a > 9.0 { 1.0 } else { y };
    y.copysign(x)
}

/// `c` clamped to `[0, 1]`; NaN stays NaN.
#[inline(always)]
pub(crate) fn unit(c: f32) -> f32 {
    c.clamp(0.0, 1.0)
}

/// Each channel clamped to `[0, 1]` (NaN stays NaN): what every
/// operator applies to its kernel's output, and what goes between two
/// kernels composed into one pass.
#[inline(always)]
pub fn clamp([r, g, b]: [f32; 3]) -> [f32; 3] {
    [unit(r), unit(g), unit(b)]
}

/// `x mod 360` in `[0, 360]`, bit for bit as `x.rem_euclid(360.0)`
/// (whose `fmodf` is a libm call) for `|x| < 10⁸`: `x − n·360` is exact
/// for the nearest integer `n`, and a negative remainder takes one
/// rounding `+ 360` either way. NaN and ±∞ give NaN.
#[inline(always)]
fn wrap_degrees(x: f32) -> f32 {
    let n = (x * (1.0 / 360.0) + SHIFT) - SHIFT;
    let r = x - n * 360.0;
    let up = r + 360.0;
    if r < 0.0 {
        up
    } else {
        r
    }
}

/// RGB to `(hue in degrees, saturation, value)`: the textbook cases
/// (which channel is the largest; gray) as selects, one division for
/// the hue. Bit for bit the branchy form on every input.
#[inline(always)]
pub fn rgb_to_hsv([r, g, b]: [f32; 3]) -> (f32, f32, f32) {
    let max = r.max(g).max(b);
    let min = r.min(g).min(b);
    let d = max - min;
    let (gb, br, rg) = (g - b, b - r, r - g);
    let (num, off) = if max == r {
        (gb, 0.0)
    } else if max == g {
        (br, 2.0)
    } else {
        (rg, 4.0)
    };
    let q = num / d;
    // When red is largest `|q| ≤ 1`, so `q mod 6` is one select.
    let (wrapped, shifted) = (q + 6.0, q + off);
    let red = if q < 0.0 { wrapped } else { q };
    let sector = if max == r { red } else { shifted };
    let h = 60.0 * sector;
    let h = if d == 0.0 { 0.0 } else { h };
    let s = d / max;
    let s = if max == 0.0 { 0.0 } else { s };
    (h, s, max)
}

/// `(hue in degrees, saturation, value)` to RGB, for hue in `[0, 360]`
/// (NaN takes sector 0): the six-sector `match` as selects on the
/// sector's bounds, and `(h / 60) mod 2` as one exact subtraction.
#[inline(always)]
pub fn hsv_to_rgb(h: f32, s: f32, v: f32) -> [f32; 3] {
    let c = v * s;
    let y = h / 60.0;
    let y4 = y - 4.0;
    let f = if y >= 4.0 { y4 } else { y };
    let f2 = f - 2.0;
    let f = if f >= 2.0 { f2 } else { f };
    let x = c * (1.0 - (f - 1.0).abs());
    let m = v - c;
    let k = step(y, 1.0) + step(y, 2.0) + step(y, 3.0) + step(y, 4.0) + step(y, 5.0);
    let k = if y >= 6.0 { 0.0 } else { k };
    let r = if k == 0.0 || k == 5.0 {
        c
    } else if k == 1.0 || k == 4.0 {
        x
    } else {
        0.0
    };
    let g = if k == 1.0 || k == 2.0 {
        c
    } else if k == 0.0 || k == 3.0 {
        x
    } else {
        0.0
    };
    let b = if k == 3.0 || k == 4.0 {
        c
    } else if k == 2.0 || k == 5.0 {
        x
    } else {
        0.0
    };
    [r + m, g + m, b + m]
}

/// 1 where `y ≥ t`, else 0.
#[inline(always)]
fn step(y: f32, t: f32) -> f32 {
    if y >= t {
        1.0
    } else {
        0.0
    }
}

/// A channel kernel: channel `i` of a pixel goes to `f(c, params[i])`,
/// each channel on its own, so [`crate::image::map_rgb_channels`] maps
/// the channels where they lie. [`Channelwise::per_pixel`] turns it into
/// a pixel kernel, to compose with others.
#[derive(Clone, Copy, Debug)]
pub struct Channelwise<F> {
    /// Each channel's parameter: red, green, blue.
    pub params: [f32; 3],
    /// The kernel, of a channel value and its channel's parameter.
    pub f: F,
}

impl<F: Fn(f32, f32) -> f32 + Copy> Channelwise<F> {
    /// The same kernel as a function of whole pixels.
    pub fn per_pixel(self) -> impl Fn([f32; 3]) -> [f32; 3] + Copy {
        let Channelwise {
            params: [p0, p1, p2],
            f,
        } = self;
        #[inline(always)]
        move |[r, g, b]: [f32; 3]| [f(r, p0), f(g, p1), f(b, p2)]
    }
}

/// [`crate::gamma`]'s kernel: each channel, clamped to `[0, 1]`, to the
/// power `1 / gamma` (the parameter). `gamma = 0` maps `[0, 1)` to 0;
/// `gamma < 0` maps every channel to 1 after the clamp (`0` goes to ∞);
/// NaN channels stay NaN.
pub fn gamma(gamma: f32) -> Channelwise<impl Fn(f32, f32) -> f32 + Copy + Send + Sync> {
    Channelwise {
        params: [1.0 / gamma; 3],
        f: gamma_channel,
    }
}

#[inline(always)]
fn gamma_channel(c: f32, inv: f32) -> f32 {
    pow(unit(c), inv)
}

/// [`crate::modulate`]'s kernel: an HSV round trip scaling value by
/// `brightness / 100` and saturation by `saturation / 100` (each
/// clamped to `[0, 1]`) and rotating hue by `(hue − 100) · 1.8°`.
pub fn modulate(
    brightness: f32,
    saturation: f32,
    hue: f32,
) -> impl Fn([f32; 3]) -> [f32; 3] + Copy + Send + Sync {
    let bf = brightness / 100.0;
    let sf = saturation / 100.0;
    let hshift = (hue - 100.0) / 100.0 * 180.0;
    #[inline(always)]
    move |px: [f32; 3]| {
        let (h, s, v) = rgb_to_hsv(px);
        hsv_to_rgb(wrap_degrees(h + hshift), unit(s * sf), unit(v * bf))
    }
}

/// [`crate::contrast`]'s kernel for `amount ≥ 0`: the sigmoidal
/// contrast curve through `(0, 0)`, `(½, ½)` and `(1, 1)` of steepness
/// `a = |amount|` (at least 1e-4, so `amount = 0` is the identity to
/// within 1e-9). Channels are clamped to `[0, 1]` first; NaN stays NaN.
/// The parameters are unused.
///
/// With `T = tanh(a/4)`, the curve `(s(c) − s(0)) / (s(1) − s(0))`, `s`
/// the logistic function of steepness `a` centred at ½, is
/// `½ + tanh(a(c − ½)/2) / 2T`. That form never subtracts two nearby
/// sigmoid values, which is what loses `f32` precision at small
/// amounts.
pub fn sigmoidal_contrast(
    amount: f32,
) -> Channelwise<impl Fn(f32, f32) -> f32 + Copy + Send + Sync> {
    let a = amount.abs().max(1e-4);
    Channelwise {
        params: [0.0; 3],
        f: sigmoid(0.5 * a, 0.5 / tanh(0.25 * a)),
    }
}

/// `c ↦ ½ + tanh(half_a · (c − ½)) · scale` on `c` clamped to `[0, 1]`.
fn sigmoid(half_a: f32, scale: f32) -> impl Fn(f32, f32) -> f32 + Copy + Send + Sync {
    #[inline(always)]
    move |c: f32, _: f32| 0.5 + tanh(half_a * (unit(c) - 0.5)) * scale
}

/// [`crate::contrast`]'s kernel for `amount < 0`: the inverse of
/// [`sigmoidal_contrast`]'s curve of steepness `a = |amount|` (at least
/// 1e-4), `½ + (2/a) · atanh((2c − 1) · T)`. Channels are clamped to
/// `[0, 1]` first; NaN stays NaN. The parameters are unused.
///
/// The `atanh` is a series near 0 and `½ ln((1 + z) / (1 − z))`
/// elsewhere, with `1 ± z` summed from `1 − T = 2 / (e^{a/2} + 1)` so
/// the ratio keeps its precision at steep amounts.
pub fn inverse_sigmoidal_contrast(
    amount: f32,
) -> Channelwise<impl Fn(f32, f32) -> f32 + Copy + Send + Sync> {
    let a = amount.abs().max(1e-4);
    Channelwise {
        params: [0.0; 3],
        f: inverse_sigmoid(tanh(0.25 * a), 2.0 / (exp(0.5 * a) + 1.0), 2.0 / a),
    }
}

/// `c ↦ ½ + scale · atanh((2c − 1) · t)` on `c` clamped to `[0, 1]`,
/// with `one_minus_t = 1 − t`.
fn inverse_sigmoid(
    t: f32,
    one_minus_t: f32,
    scale: f32,
) -> impl Fn(f32, f32) -> f32 + Copy + Send + Sync {
    #[inline(always)]
    move |c: f32, _: f32| {
        let c = unit(c);
        let z = (2.0 * c - 1.0) * t;
        let near = atanh_poly(z);
        let far = 0.5 * ln((one_minus_t + 2.0 * c * t) / (one_minus_t + 2.0 * (1.0 - c) * t));
        0.5 + scale * if z.abs() < 0.25 { near } else { far }
    }
}

/// [`crate::colorize`]'s kernel: the parameters `rgb` blended over each
/// channel at opacity `alpha`.
pub fn colorize(
    rgb: [f32; 3],
    alpha: f32,
) -> Channelwise<impl Fn(f32, f32) -> f32 + Copy + Send + Sync> {
    Channelwise {
        params: rgb,
        f: move |c: f32, t: f32| c * (1.0 - alpha) + t * alpha,
    }
}

/// [`crate::colortone`]'s kernel: the parameters `rgb` overlaid at 50%
/// with multiply (`negate = false`) or screen (`negate = true`)
/// blending.
pub fn colortone(
    rgb: [f32; 3],
    negate: bool,
) -> Channelwise<impl Fn(f32, f32) -> f32 + Copy + Send + Sync> {
    Channelwise {
        params: rgb,
        f: move |c: f32, t: f32| {
            let (screen, multiply) = (1.0 - (1.0 - c) * (1.0 - t), c * t);
            let m = if negate { screen } else { multiply };
            0.5 * c + 0.5 * m
        },
    }
}

/// [`crate::invert`]'s kernel: `1 − c`. The parameters are unused.
pub fn invert() -> Channelwise<impl Fn(f32, f32) -> f32 + Copy + Send + Sync> {
    Channelwise {
        params: [0.0; 3],
        f: |c: f32, _: f32| 1.0 - c,
    }
}

/// [`crate::levels`]'s kernel: `[black, white]` mapped linearly onto
/// `[0, 1]` (a range narrower than 1e-6 counts as 1e-6); `black` is
/// every channel's parameter.
pub fn levels(
    black: f32,
    white: f32,
) -> Channelwise<impl Fn(f32, f32) -> f32 + Copy + Send + Sync> {
    let scale = 1.0 / (white - black).max(1e-6);
    Channelwise {
        params: [black; 3],
        f: move |c: f32, black: f32| (c - black) * scale,
    }
}

/// [`crate::grayscale`]'s kernel: Rec. 601 luma in every channel.
pub fn grayscale() -> impl Fn([f32; 3]) -> [f32; 3] + Copy + Send + Sync {
    #[inline(always)]
    |[r, g, b]: [f32; 3]| {
        let y = 0.299 * r + 0.587 * g + 0.114 * b;
        [y, y, y]
    }
}

/// [`crate::sepia`]'s kernel: the classic sepia matrix.
pub fn sepia() -> impl Fn([f32; 3]) -> [f32; 3] + Copy + Send + Sync {
    #[inline(always)]
    |[r, g, b]: [f32; 3]| {
        [
            0.393 * r + 0.769 * g + 0.189 * b,
            0.349 * r + 0.686 * g + 0.168 * b,
            0.272 * r + 0.534 * g + 0.131 * b,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `f32` in `[lo, hi]` stepping by `step` ulps.
    fn sweep(lo: f32, hi: f32, step: u32) -> impl Iterator<Item = f32> {
        let (lo, hi) = (lo.to_bits(), hi.to_bits());
        (lo..=hi).step_by(step as usize).map(f32::from_bits)
    }

    fn ulps(a: f32, b: f64) -> f64 {
        let b32 = b as f32;
        ((a as f64) - b).abs() / (b32.abs().max(f32::MIN_POSITIVE) as f64 * f32::EPSILON as f64)
    }

    #[test]
    fn exp2_and_exp_are_within_2_ulp() {
        let mut worst = (0.0f64, 0.0f64);
        for x in sweep(-87.0, -0.0, 997).chain(sweep(0.0, 88.0, 997)) {
            worst.0 = worst.0.max(ulps(exp(x), (x as f64).exp()));
            if x < 87.0 {
                worst.1 = worst.1.max(ulps(exp2(x), (x as f64).exp2()));
            }
        }
        assert!(worst.0 < 2.0 && worst.1 < 2.0, "{worst:?}");
        assert_eq!(exp(88.4), f32::INFINITY);
        assert!(ulps(exp(88.3), f64::from(88.3f32).exp()) < 3.0);
        assert_eq!(exp2(127.5), f32::INFINITY);
        assert!(ulps(exp2(127.4), f64::from(127.4f32).exp2()) < 3.0);
        assert_eq!(exp2(-126.0), f32::MIN_POSITIVE);
        assert_eq!(exp2(-126.01), 0.0);
        assert_eq!(exp(-87.34), 0.0);
        assert_eq!(exp(f32::NEG_INFINITY), 0.0);
        assert_eq!(exp2(f32::INFINITY), f32::INFINITY);
        assert!(exp(f32::NAN).is_nan() && exp2(f32::NAN).is_nan());
        assert_eq!(exp(0.0), 1.0);
    }

    #[test]
    fn logs_are_within_2_ulp() {
        let mut worst = 0.0f64;
        for x in sweep(f32::from_bits(1), 1e30, 99_991) {
            worst = worst.max(ulps(ln(x), (x as f64).ln()));
            let l2 = log2(x);
            // log2 near 1 is small; compare absolutely there.
            let want = (x as f64).log2();
            worst = worst.max(ulps(l2, want).min(((l2 as f64) - want).abs() / 1.2e-7));
        }
        assert!(worst < 2.0, "{worst}");
        assert_eq!(ln(1.0), 0.0);
        assert_eq!(log2(8.0), 3.0);
        assert_eq!(ln(0.0), f32::NEG_INFINITY);
        assert_eq!(log2(f32::INFINITY), f32::INFINITY);
        assert!(ln(-1.0).is_nan() && log2(f32::NAN).is_nan());
    }

    #[test]
    fn pow_follows_ieee_at_its_edges() {
        assert_eq!(pow(0.0, 2.0), 0.0);
        assert_eq!(pow(0.0, -2.0), f32::INFINITY);
        assert_eq!(pow(1.0, f32::NAN), 1.0);
        assert_eq!(pow(f32::NAN, 0.0), 1.0);
        assert_eq!(pow(0.5, f32::INFINITY), 0.0);
        assert_eq!(pow(0.5, f32::NEG_INFINITY), f32::INFINITY);
        assert!(pow(-0.5, 2.0).is_nan());
        assert!((pow(0.25, 0.5) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn tanh_keeps_relative_precision() {
        let mut worst = 0.0f64;
        for x in sweep(1e-30, 12.0, 9973) {
            worst = worst.max(ulps(tanh(x), (x as f64).tanh()));
            assert_eq!(tanh(-x), -tanh(x));
        }
        assert!(worst < 2.0, "{worst}");
    }

    #[test]
    fn wrap_degrees_matches_rem_euclid() {
        for x in sweep(-1e5, -0.0, 101).chain(sweep(0.0, 1e5, 101)) {
            let (got, want) = (wrap_degrees(x), x.rem_euclid(360.0));
            assert!(got == want, "{x}: {got} vs {want}");
        }
    }
}
