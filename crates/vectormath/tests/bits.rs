//! Output bits of every `vd_*` kernel, pinned.
//!
//! Each kernel runs over seeded values across its range, the IEEE
//! specials (NaN, ±∞, ±0, subnormals), the clamp edges of `exp` and
//! `log1p`, and constructed exact rounding ties (`x·log₂e` or `x·2/π` a
//! half-integer), at every length 0–67 and at `PAR_THRESHOLD + 17`; in
//! place and out of place; at 1 and 2 internal threads; dispatched and
//! through each kernel's `_at` form at every arm of the dispatch the
//! host has (`Width::available`: the baseline, AVX2 and AVX-512 arms
//! on an AVX-512 host). Every variant must produce the same bits, and
//! an FNV-1a hash of those bits must equal the one pinned below. The hashes were taken from the scalar
//! kernels this library shipped before they were made branch-free, so a
//! pass means every kernel's output is bit-identical to theirs.
//!
//! `dispatched_kernels_match_scalar_calls` checks the widths against each
//! other: each dispatched kernel must equal its scalar function called
//! element by element through a `black_box`ed fn pointer, which the
//! compiler cannot inline and so runs at the baseline target's codegen.

use std::hint::black_box;
use vectormath::{fastmath, Width};

/// The library's parallel threshold (`parallel::PAR_THRESHOLD`); one
/// length above it makes 2 internal threads actually split the call.
const PAR_THRESHOLD: usize = 1 << 14;
const LONG: usize = PAR_THRESHOLD + 17;
/// Inputs per kernel: room for the long run plus the short windows.
const INPUTS: usize = LONG + 256;

type UnarySafe = fn(&[f64], &mut [f64]);
type UnaryRaw = unsafe fn(usize, *const f64, *mut f64);
type UnaryAt = unsafe fn(Width, usize, *const f64, *mut f64);
type BinarySafe = fn(&[f64], &[f64], &mut [f64]);
type BinaryRaw = unsafe fn(usize, *const f64, *const f64, *mut f64);
type BinaryAt = unsafe fn(Width, usize, *const f64, *const f64, *mut f64);
type ScalarSafe = fn(&[f64], f64, &mut [f64]);
type ScalarRaw = unsafe fn(usize, *const f64, f64, *mut f64);
type ScalarAt = unsafe fn(Width, usize, *const f64, f64, *mut f64);

/// The ranges seeded inputs are drawn from, cycled per element. `BITS`
/// draws a random bit pattern: any double, NaN payloads included.
type Ranges = &'static [(f64, f64)];
const BITS: (f64, f64) = (f64::NAN, f64::NAN);
const WIDE: Ranges = &[(-1e3, 1e3), (-1.0, 1.0), BITS];
const POSITIVE: Ranges = &[(0.0, 1e6), (0.0, 2.0), BITS];
const BASES: Ranges = &[(0.0, 100.0), (0.0, 2.0), (-1.0, 1.0), BITS];
const EXPONENTS: Ranges = &[(-20.0, 20.0), (-400.0, 400.0), (-2.0, 2.0), BITS];

struct Unary {
    name: &'static str,
    safe: UnarySafe,
    raw: UnaryRaw,
    at: UnaryAt,
    scalar: fn(f64) -> f64,
    ranges: Ranges,
    hash: u64,
}

struct Binary {
    name: &'static str,
    safe: BinarySafe,
    raw: BinaryRaw,
    at: BinaryAt,
    scalar: fn(f64, f64) -> f64,
    ranges: (Ranges, Ranges),
    hash: u64,
}

struct Scalar {
    name: &'static str,
    safe: ScalarSafe,
    raw: ScalarRaw,
    at: ScalarAt,
    scalar: fn(f64, f64) -> f64,
    ranges: Ranges,
    hash: u64,
}

/// A kernel table: one `name, raw, at, scalar, ranges, hash;` row per
/// kernel.
macro_rules! table {
    ($kind:ident: $($name:ident, $raw:ident, $at:ident, $scalar:expr, $ranges:expr, $hash:expr;)*) => {
        vec![$($kind {
            name: stringify!($name),
            safe: vectormath::$name,
            raw: vectormath::$raw,
            at: vectormath::$at,
            scalar: $scalar,
            ranges: $ranges,
            hash: $hash,
        }),*]
    };
}

const EXP: Ranges = &[
    (-760.0, 720.0),
    (-20.0, 20.0),
    (-1.0, 1.0),
    (700.0, 710.0),
    (-750.0, -700.0),
    BITS,
];
const LN: Ranges = &[(0.0, 2.0), (0.0, 1e6), (-1.0, 1.0), BITS];
const LOG1P: Ranges = &[(-0.25, 0.25), (-1.0, 1.0), (-1.0, 100.0), (-3.0, 3.0), BITS];
const ERF: Ranges = &[(-6.0, 6.0), (-1.0, 1.0), (-30.0, 30.0), BITS];
const TRIG: Ranges = &[
    (-10.0, 10.0),
    (-1e5, 1e5),
    (-1e16, 1e16),
    (-1e20, 1e20),
    BITS,
];
const ASIN: Ranges = &[(-1.0, 1.0), (-0.6, 0.6), (-1.2, 1.2), BITS];

fn unaries() -> Vec<Unary> {
    use fastmath::*;
    table![Unary:
        vd_sqr, vd_sqr_raw, vd_sqr_at, |x| x * x, WIDE, 0xc186b1d7ea112625;
        vd_sqrt, vd_sqrt_raw, vd_sqrt_at, sqrt, POSITIVE, 0xdfd5add0113ffa65;
        vd_abs, vd_abs_raw, vd_abs_at, |x| x.abs(), WIDE, 0x8e1e2c0f8477fbd4;
        vd_inv, vd_inv_raw, vd_inv_at, |x| 1.0 / x, WIDE, 0x04fdc075b6803430;
        vd_neg, vd_neg_raw, vd_neg_at, |x| -x, WIDE, 0x3132afcd18ae2080;
        vd_exp, vd_exp_raw, vd_exp_at, exp, EXP, 0xff2cadc545163a96;
        vd_ln, vd_ln_raw, vd_ln_at, ln, LN, 0x88dd7478ef6208e3;
        vd_log1p, vd_log1p_raw, vd_log1p_at, log1p, LOG1P, 0xb3d29e20edad7c20;
        vd_erf, vd_erf_raw, vd_erf_at, erf, ERF, 0x8ab632a2f354c0b6;
        vd_sin, vd_sin_raw, vd_sin_at, sin, TRIG, 0x08fb207ca6c06094;
        vd_cos, vd_cos_raw, vd_cos_at, cos, TRIG, 0x790e95fc6083402d;
        vd_asin, vd_asin_raw, vd_asin_at, asin, ASIN, 0xd8670d0839ac43d9;
    ]
}

fn binaries() -> Vec<Binary> {
    table![Binary:
        vd_add, vd_add_raw, vd_add_at, |x, y| x + y, (WIDE, WIDE), 0x0df69f6d4567f57e;
        vd_sub, vd_sub_raw, vd_sub_at, |x, y| x - y, (WIDE, WIDE), 0x2a9f0ad2853fb0d4;
        vd_mul, vd_mul_raw, vd_mul_at, |x, y| x * y, (WIDE, WIDE), 0x313645d497c91e74;
        vd_div, vd_div_raw, vd_div_at, |x, y| x / y, (WIDE, WIDE), 0x7fed192b61554da2;
        vd_pow, vd_pow_raw, vd_pow_at, fastmath::pow, (BASES, EXPONENTS), 0xd84badcfb8555554;
        vd_fmax, vd_fmax_raw, vd_fmax_at, |x, y| if x > y { x } else { y }, (WIDE, WIDE), 0x3335647c1b2aefa2;
        vd_fmin, vd_fmin_raw, vd_fmin_at, |x, y| if x < y { x } else { y }, (WIDE, WIDE), 0xaa7d10cd93a47f40;
    ]
}

fn scalars() -> Vec<Scalar> {
    table![Scalar:
        vd_scale, vd_scale_raw, vd_scale_at, |x, k| x * k, WIDE, 0x0ddad23f08873d16;
        vd_shift, vd_shift_raw, vd_shift_at, |x, k| x + k, WIDE, 0x8577ab59212fde0c;
        vd_powx, vd_powx_raw, vd_powx_at, fastmath::pow, BASES, 0xe0c8b3b9244a23a4;
        vd_rsub, vd_rsub_raw, vd_rsub_at, |x, k| k - x, WIDE, 0x524e35f5ef9e3b94;
        vd_rdiv, vd_rdiv_raw, vd_rdiv_at, |x, k| k / x, WIDE, 0x5f63f3eb9cadff0c;
    ]
}

/// The constants each scalar kernel is called with.
const KS: [f64; 9] = [
    2.0,
    -0.5,
    0.0,
    -0.0,
    1.0,
    3.7,
    -41.25,
    f64::INFINITY,
    f64::NAN,
];

/// SplitMix64: a seeded, dependency-free generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn draw(&mut self, (lo, hi): (f64, f64)) -> f64 {
        let bits = self.next();
        if lo.is_nan() {
            return f64::from_bits(bits);
        }
        let unit = (bits >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }
}

/// Values every kernel sees: NaN, ±∞, ±0, subnormals and extremes.
fn specials() -> Vec<f64> {
    vec![
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::from_bits(1),
        -f64::from_bits(1),
        1e-310,
        -1e-310,
        f64::MAX,
        f64::MIN,
        1.0,
        -1.0,
        0.5,
        -0.5,
        0.25,
        -0.25,
        2.0,
        -2.0,
        // The clamp edges of `exp` and `log1p`.
        709.78,
        709.79,
        -745.0,
        -745.1,
        709.43,
        709.5,
        -708.4,
        -744.5,
    ]
}

/// Doubles `x` near `(k + ½) / m` for which `x · m` is exactly `k + ½`:
/// ties, where rounding half away from zero and half to even disagree
/// for every other `k`.
fn ties(m: f64, ks: impl Iterator<Item = i64>) -> Vec<f64> {
    let mut out = Vec::new();
    for k in ks {
        let target = k as f64 + 0.5;
        let guess = target / m;
        for step in -8i64..=8 {
            let x = f64::from_bits((guess.to_bits() as i64 + step) as u64);
            if x * m == target {
                out.push(x);
                break;
            }
        }
    }
    out
}

/// `x · log₂e` a half-integer over `exp`'s whole finite range.
fn exp_ties() -> Vec<f64> {
    ties(std::f64::consts::LOG2_E, -1077..=1025)
}

/// `x · 2/π` a half-integer, near the origin and far out.
fn pio2_ties() -> Vec<f64> {
    let near = -1000..1000;
    let far = (0..200).flat_map(|i| {
        let k = 1i64 << (20 + i % 30);
        [k + i, -k - i]
    });
    ties(std::f64::consts::FRAC_2_PI, near.chain(far))
}

/// Specials, then the constructed values, then seeded draws.
fn inputs(seed: u64, ranges: Ranges, extra: &[f64]) -> Vec<f64> {
    let mut rng = Rng(seed);
    let mut v = specials();
    v.extend_from_slice(extra);
    let mut i = 0;
    while v.len() < INPUTS {
        v.push(rng.draw(ranges[i % ranges.len()]));
        i += 1;
    }
    v
}

fn extras(name: &str) -> Vec<f64> {
    match name {
        "vd_exp" | "vd_erf" | "vd_pow" | "vd_powx" => exp_ties(),
        "vd_sin" | "vd_cos" => pio2_ties(),
        "vd_log1p" => vec![
            -1.0,
            -2.0,
            -1.0 - f64::EPSILON,
            -1.0 + f64::EPSILON / 2.0,
            0.2499,
            0.25,
            -0.25,
        ],
        _ => Vec::new(),
    }
}

/// `b`'s specials are `a`'s rotated by one, so they meet each other in
/// pairs (NaN with −NaN, −NaN with ∞, ∞ with −∞, ...).
fn binary_inputs(k: &Binary) -> (Vec<f64>, Vec<f64>) {
    let extra = extras(k.name);
    let a = inputs(seed(k.name), k.ranges.0, &extra);
    let mut b = inputs(!seed(k.name), k.ranges.1, &extra);
    b[..specials().len()].rotate_left(1);
    (a, b)
}

fn seed(name: &str) -> u64 {
    name.bytes()
        .fold(0x5eed, |h, b| h.wrapping_mul(31).wrapping_add(u64::from(b)))
}

/// The `(start, len)` windows every kernel runs over: each length 0–67
/// at a start that moves through the inputs, then the long run.
fn windows() -> Vec<(usize, usize)> {
    let mut w: Vec<_> = (0..=67)
        .map(|len| ((len * 241) % (INPUTS - 68), len))
        .collect();
    w.push((0, LONG));
    w
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, xs: &[f64]) {
        for x in xs {
            for b in x.to_bits().to_le_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// An element whose operands are all NaN, of different signs or
/// payloads: Rust leaves unspecified which operand's NaN the result
/// carries, and the compiler picks per loop (an AVX2 loop that folds a
/// load into `x * k` returns `k`'s). Such an element is hashed and
/// compared as plain `NaN`; every other element, NaNs included, bit for
/// bit.
fn mask(out: &mut [f64], start: usize, both_nan: &dyn Fn(usize) -> bool) {
    for (i, x) in out.iter_mut().enumerate() {
        if both_nan(start + i) {
            *x = f64::NAN;
        }
    }
}

const NO_MASK: &dyn Fn(usize) -> bool = &|_| false;

/// Runs every variant of one kernel over every window; returns the hash
/// of the first variant's outputs and records the variants that
/// disagreed.
fn run_variants(
    name: &str,
    variants: &[&dyn Fn(usize, usize) -> Vec<f64>],
    both_nan: &dyn Fn(usize) -> bool,
    failures: &mut Vec<String>,
) -> u64 {
    let mut fnv = Fnv::new();
    for threads in [1, 2] {
        vectormath::set_num_threads(threads);
        for (start, len) in windows() {
            let mut first = variants[0](start, len);
            mask(&mut first, start, both_nan);
            if threads == 1 {
                fnv.eat(&first);
            }
            for (i, variant) in variants.iter().enumerate().skip(1) {
                let mut out = variant(start, len);
                mask(&mut out, start, both_nan);
                if !same_bits(&first, &out) {
                    failures.push(format!(
                        "{name}: variant {i} differs at {threads} threads, window {start}+{len}"
                    ));
                }
            }
        }
    }
    vectormath::set_num_threads(1);
    fnv.0
}

fn check_hash(name: &str, got: u64, want: u64, failures: &mut Vec<String>) {
    if got != want {
        failures.push(format!("{name}: hash {got:#018x}, pinned {want:#018x}"));
    }
}

#[test]
fn every_kernel_reproduces_its_pinned_bits() {
    let mut failures = Vec::new();
    for k in unaries() {
        let a = inputs(seed(k.name), k.ranges, &extras(k.name));
        let out_of_place = |s: usize, n: usize| {
            let mut out = vec![0.0; n];
            (k.safe)(&a[s..s + n], &mut out);
            out
        };
        let in_place = |s: usize, n: usize| {
            let mut d = a[s..s + n].to_vec();
            // SAFETY: `d` holds `n` doubles; in and out exactly alias.
            unsafe { (k.raw)(n, d.as_ptr(), d.as_mut_ptr()) };
            d
        };
        let (arms, at, a) = (Width::available(), k.at, &a);
        let per_arm: Vec<_> = arms
            .iter()
            .map(|&w| {
                move |s: usize, n: usize| {
                    let mut out = vec![0.0; n];
                    // SAFETY: `a[s..]` and `out` hold `n` doubles, disjoint.
                    unsafe { at(w, n, a[s..].as_ptr(), out.as_mut_ptr()) };
                    out
                }
            })
            .collect();
        let per_arm_in_place: Vec<_> = arms
            .iter()
            .map(|&w| {
                move |s: usize, n: usize| {
                    let mut d = a[s..s + n].to_vec();
                    // SAFETY: `d` holds `n` doubles; in and out exactly alias.
                    unsafe { at(w, n, d.as_ptr(), d.as_mut_ptr()) };
                    d
                }
            })
            .collect();
        let mut variants: Vec<&dyn Fn(usize, usize) -> Vec<f64>> = vec![&out_of_place, &in_place];
        variants.extend(
            per_arm
                .iter()
                .map(|f| f as &dyn Fn(usize, usize) -> Vec<f64>),
        );
        variants.extend(
            per_arm_in_place
                .iter()
                .map(|f| f as &dyn Fn(usize, usize) -> Vec<f64>),
        );
        let got = run_variants(k.name, &variants, NO_MASK, &mut failures);
        check_hash(k.name, got, k.hash, &mut failures);
    }
    for k in binaries() {
        let (a, b) = binary_inputs(&k);
        let both_nan = |i: usize| a[i].is_nan() && b[i].is_nan();
        let out_of_place = |s: usize, n: usize| {
            let mut out = vec![0.0; n];
            (k.safe)(&a[s..s + n], &b[s..s + n], &mut out);
            out
        };
        let out_is_a = |s: usize, n: usize| {
            let mut d = a[s..s + n].to_vec();
            // SAFETY: all operands hold `n` doubles; `out == a`, `b` is disjoint.
            unsafe { (k.raw)(n, d.as_ptr(), b[s..].as_ptr(), d.as_mut_ptr()) };
            d
        };
        let out_is_b = |s: usize, n: usize| {
            let mut d = b[s..s + n].to_vec();
            // SAFETY: all operands hold `n` doubles; `out == b`, `a` is disjoint.
            unsafe { (k.raw)(n, a[s..].as_ptr(), d.as_ptr(), d.as_mut_ptr()) };
            d
        };
        let squared = |s: usize, n: usize| {
            let mut out = vec![0.0; n];
            (k.safe)(&a[s..s + n], &a[s..s + n], &mut out);
            out
        };
        let squared_in_place = |s: usize, n: usize| {
            let mut d = a[s..s + n].to_vec();
            // SAFETY: `d` holds `n` doubles; all three operands exactly alias.
            unsafe { (k.raw)(n, d.as_ptr(), d.as_ptr(), d.as_mut_ptr()) };
            d
        };
        let (arms, at, a, b) = (Width::available(), k.at, &a, &b);
        let per_arm: Vec<_> = arms
            .iter()
            .map(|&w| {
                move |s: usize, n: usize| {
                    let mut out = vec![0.0; n];
                    // SAFETY: all operands hold `n` doubles, pairwise disjoint.
                    unsafe { at(w, n, a[s..].as_ptr(), b[s..].as_ptr(), out.as_mut_ptr()) };
                    out
                }
            })
            .collect();
        let squared_per_arm: Vec<_> = arms
            .iter()
            .map(|&w| {
                move |s: usize, n: usize| {
                    let mut d = a[s..s + n].to_vec();
                    // SAFETY: `d` holds `n` doubles; all three operands exactly alias.
                    unsafe { at(w, n, d.as_ptr(), d.as_ptr(), d.as_mut_ptr()) };
                    d
                }
            })
            .collect();
        let mut variants: Vec<&dyn Fn(usize, usize) -> Vec<f64>> =
            vec![&out_of_place, &out_is_a, &out_is_b];
        variants.extend(
            per_arm
                .iter()
                .map(|f| f as &dyn Fn(usize, usize) -> Vec<f64>),
        );
        let got = run_variants(k.name, &variants, &both_nan, &mut failures);
        // One NaN in both operands: nothing left unspecified.
        let mut variants: Vec<&dyn Fn(usize, usize) -> Vec<f64>> =
            vec![&squared, &squared_in_place];
        variants.extend(
            squared_per_arm
                .iter()
                .map(|f| f as &dyn Fn(usize, usize) -> Vec<f64>),
        );
        let got_squared = run_variants(k.name, &variants, NO_MASK, &mut failures);
        check_hash(
            k.name,
            got ^ got_squared.rotate_left(1),
            k.hash,
            &mut failures,
        );
    }
    for k in scalars() {
        let a = inputs(seed(k.name), k.ranges, &extras(k.name));
        let mut hash = 0u64;
        for c in KS {
            let out_of_place = |s: usize, n: usize| {
                let mut out = vec![0.0; n];
                (k.safe)(&a[s..s + n], c, &mut out);
                out
            };
            let in_place = |s: usize, n: usize| {
                let mut d = a[s..s + n].to_vec();
                // SAFETY: `d` holds `n` doubles; in and out exactly alias.
                unsafe { (k.raw)(n, d.as_ptr(), c, d.as_mut_ptr()) };
                d
            };
            let (at, a) = (k.at, &a);
            let per_arm: Vec<_> = Width::available()
                .into_iter()
                .map(|w| {
                    move |s: usize, n: usize| {
                        let mut d = a[s..s + n].to_vec();
                        // SAFETY: `d` holds `n` doubles; in and out exactly alias.
                        unsafe { at(w, n, d.as_ptr(), c, d.as_mut_ptr()) };
                        d
                    }
                })
                .collect();
            let mut variants: Vec<&dyn Fn(usize, usize) -> Vec<f64>> =
                vec![&out_of_place, &in_place];
            variants.extend(
                per_arm
                    .iter()
                    .map(|f| f as &dyn Fn(usize, usize) -> Vec<f64>),
            );
            let both_nan = |i: usize| a[i].is_nan() && c.is_nan();
            let got = run_variants(k.name, &variants, &both_nan, &mut failures);
            hash = hash.rotate_left(7) ^ got;
        }
        check_hash(k.name, hash, k.hash, &mut failures);
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

fn agree(
    name: &str,
    got: &[f64],
    want: impl Iterator<Item = f64>,
    both_nan: &dyn Fn(usize) -> bool,
    failures: &mut Vec<String>,
) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g.to_bits() != w.to_bits() && !(both_nan(i) && g.is_nan() && w.is_nan()) {
            failures.push(format!(
                "{name}[{i}]: dispatched {g:e} ({:#x}), scalar {w:e} ({:#x})",
                g.to_bits(),
                w.to_bits()
            ));
            return;
        }
    }
}

#[test]
fn dispatched_kernels_match_scalar_calls() {
    let mut failures = Vec::new();
    for k in unaries() {
        let a = inputs(seed(k.name), k.ranges, &extras(k.name));
        let f = black_box(k.scalar);
        let mut out = vec![0.0; a.len()];
        (k.safe)(&a, &mut out);
        agree(
            k.name,
            &out,
            a.iter().map(|&x| f(x)),
            NO_MASK,
            &mut failures,
        );
    }
    for k in binaries() {
        let (a, b) = binary_inputs(&k);
        let both_nan = |i: usize| a[i].is_nan() && b[i].is_nan();
        let f = black_box(k.scalar);
        let mut out = vec![0.0; a.len()];
        (k.safe)(&a, &b, &mut out);
        agree(
            k.name,
            &out,
            a.iter().zip(&b).map(|(&x, &y)| f(x, y)),
            &both_nan,
            &mut failures,
        );
    }
    for k in scalars() {
        let a = inputs(seed(k.name), k.ranges, &extras(k.name));
        let f = black_box(k.scalar);
        for c in KS {
            let mut out = vec![0.0; a.len()];
            (k.safe)(&a, c, &mut out);
            let both_nan = |i: usize| a[i].is_nan() && c.is_nan();
            agree(
                k.name,
                &out,
                a.iter().map(|&x| f(x, c)),
                &both_nan,
                &mut failures,
            );
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn constructed_ties_are_exact_half_integers() {
    for (m, xs) in [
        (std::f64::consts::LOG2_E, exp_ties()),
        (std::f64::consts::FRAC_2_PI, pio2_ties()),
    ] {
        let y: Vec<f64> = xs.iter().map(|&x| x * m).collect();
        assert!(y.iter().all(|y| (y - y.trunc()).abs() == 0.5));
        // Half of them round differently to nearest-even.
        let moved = y
            .iter()
            .filter(|y| y.round() != y.round_ties_even())
            .count();
        println!("{} ties, {moved} where round-half-even differs", xs.len());
        assert!(
            xs.len() > 1500 && moved > xs.len() / 3,
            "{} ties, {moved} moved",
            xs.len()
        );
    }
}
