//! Output bits of every per-pixel operator, pinned.
//!
//! Each operator runs over every triple of edge channel values (0, −0,
//! 1, subnormals, negatives, values above 1, ±∞, NaN) and seeded pixels
//! in `[0, 1]`, and must give the same bits
//!
//! * through the operator, through `map_rgb`/`map_rgb_channels` called
//!   directly, and through each arm of the dispatch the host has, the
//!   ones those calls dispatch away from included (`map_rgb_at`,
//!   `map_rgb_channels_at` at every `Width::available`: the baseline,
//!   AVX2 and AVX-512 arms on an AVX-512 host);
//! * on 1 and 2 internal threads;
//! * for every pixel count from 1 to two tiles and one more, and at the
//!   internal-parallel threshold and one either side: each is a prefix
//!   of the whole input, and its output is the same prefix;
//!
//! and an FNV-1a hash of those bits must equal the one pinned below.
//! (A NaN counts as any NaN: Rust leaves its sign and payload
//! unspecified, and the widths differ in them.)
//!
//! Against the scalar operators the library shipped before its kernels
//! were made branch-free (`tests/reference`): on channels in `[0, 1]`,
//! every operator that needs no transcendental gives their bits, and
//! `gamma` and `contrast` stay within [`BOUND`] of the same formulas
//! evaluated in `f64`.

mod reference;

use std::mem::MaybeUninit;

use imagelib::image::{self, Width, TILE};
use imagelib::{pixel, Image};

/// The library's parallel threshold in pixels (`image::PAR_THRESHOLD`).
const PAR_THRESHOLD: usize = 1 << 14;
/// Pixels in the whole input: one above the threshold.
const PIXELS: usize = PAR_THRESHOLD + 1;
/// `gamma` and `contrast`'s absolute bound against `f64`, after the
/// clamp.
const BOUND: f64 = 1e-6;

/// Channel values every operator sees in every combination.
const EDGES: [f32; 18] = [
    0.0,
    -0.0,
    1.0,
    0.5,
    0.25,
    f32::from_bits(1),
    1e-40,
    f32::MIN_POSITIVE,
    f32::EPSILON,
    1.0 - f32::EPSILON / 2.0,
    -1e-3,
    -0.5,
    -1.0,
    1.5,
    3.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
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

    /// A channel value in `[0, 1]`: uniform, on a grid of sixteenths
    /// (so channels tie, which picks HSV's cases), or tiny.
    fn unit(&mut self) -> f32 {
        let bits = self.next();
        match bits % 4 {
            0 => ((bits >> 8) % 17) as f32 / 16.0,
            1 => f32::from_bits((bits >> 8) as u32 % 0x0100_0000),
            _ => (bits >> 40) as f32 / (1u64 << 24) as f32,
        }
    }
}

/// Every triple of [`EDGES`], then seeded pixels in `[0, 1]` up to
/// [`PIXELS`]; interleaved RGB.
fn inputs() -> Vec<f32> {
    let mut v = Vec::with_capacity(PIXELS * 3);
    for r in EDGES {
        for g in EDGES {
            for b in EDGES {
                v.extend([r, g, b]);
            }
        }
    }
    let mut rng = Rng(0x5eed);
    while v.len() < PIXELS * 3 {
        v.push(rng.unit());
    }
    v
}

/// The seeded pixels alone: every channel in `[0, 1]`.
fn unit_inputs() -> Vec<f32> {
    inputs()[EDGES.len().pow(3) * 3..].to_vec()
}

/// The first `n` pixels of `data` as a one-row image.
fn image(data: &[f32], n: usize) -> Image {
    Image::from_rgb(n, 1, data[..n * 3].to_vec())
}

/// A slice loop.
type Map<'a> = dyn Fn(&[f32], &mut [MaybeUninit<f32>]) + 'a;
/// The direct call's slice loop.
type Loop = Box<Map<'static>>;
/// A slice loop at one arm of the dispatch.
type ArmLoop = Box<dyn Fn(Width, &[f32], &mut [MaybeUninit<f32>])>;
/// A scalar pixel function.
type Pixel = Box<dyn Fn([f32; 3]) -> [f32; 3]>;

struct Op {
    name: String,
    op: Box<dyn Fn(&Image) -> Image>,
    direct: Loop,
    at: ArmLoop,
    /// The scalar form, for operators that must match it bit for bit.
    reference: Option<Pixel>,
    hash: u64,
}

fn pixel_op<K>(name: &str, op: impl Fn(&Image) -> Image + 'static, k: K, hash: u64) -> Op
where
    K: Fn([f32; 3]) -> [f32; 3] + Copy + 'static,
{
    Op {
        name: name.to_string(),
        op: Box::new(op),
        direct: Box::new(move |s, d| image::map_rgb(s, d, &k)),
        at: Box::new(move |w, s, d| image::map_rgb_at(w, s, d, &k)),
        reference: None,
        hash,
    }
}

fn channel_op<F>(
    name: &str,
    op: impl Fn(&Image) -> Image + 'static,
    k: pixel::Channelwise<F>,
    hash: u64,
) -> Op
where
    F: Fn(f32, f32) -> f32 + Copy + 'static,
{
    Op {
        name: name.to_string(),
        op: Box::new(op),
        direct: Box::new(move |s, d| image::map_rgb_channels(s, d, k.params, &k.f)),
        at: Box::new(move |w, s, d| image::map_rgb_channels_at(w, s, d, k.params, &k.f)),
        reference: None,
        hash,
    }
}

impl Op {
    fn exact(mut self, reference: impl Fn([f32; 3]) -> [f32; 3] + 'static) -> Op {
        self.reference = Some(Box::new(reference));
        self
    }
}

fn ops() -> Vec<Op> {
    use imagelib as il;
    use reference as r;
    let (tone, screen) = ([0.13, 0.17, 0.43], [0.97, 0.85, 0.68]);
    let tint = [0.13, 0.16, 0.32];
    let mut ops = vec![
        channel_op(
            "colortone",
            move |i| il::colortone(i, tone, false),
            pixel::colortone(tone, false),
            COLORTONE,
        )
        .exact(r::colortone(tone, false)),
        channel_op(
            "colortone screen",
            move |i| il::colortone(i, screen, true),
            pixel::colortone(screen, true),
            SCREEN,
        )
        .exact(r::colortone(screen, true)),
        channel_op(
            "colorize",
            move |i| il::colorize(i, tint, 0.2),
            pixel::colorize(tint, 0.2),
            COLORIZE,
        )
        .exact(r::colorize(tint, 0.2)),
        channel_op(
            "levels",
            |i| il::levels(i, 0.1, 0.9),
            pixel::levels(0.1, 0.9),
            LEVELS,
        )
        .exact(r::levels(0.1, 0.9)),
        channel_op("invert", il::invert, pixel::invert(), INVERT).exact(r::invert()),
        pixel_op("sepia", il::sepia, pixel::sepia(), SEPIA).exact(r::sepia()),
        pixel_op("grayscale", il::grayscale, pixel::grayscale(), GRAYSCALE).exact(r::grayscale()),
    ];
    for (i, (b, s, h)) in [
        (100.0, 150.0, 100.0),
        (120.0, 10.0, 100.0),
        (80.0, 120.0, 130.0),
        (100.0, 100.0, 40.0),
        (100.0, 100.0, 200.0),
        (90.0, 300.0, 299.0),
    ]
    .into_iter()
    .enumerate()
    {
        ops.push(
            pixel_op(
                &format!("modulate({b}, {s}, {h})"),
                move |img| il::modulate(img, b, s, h),
                pixel::modulate(b, s, h),
                MODULATE[i],
            )
            .exact(r::modulate(b, s, h)),
        );
    }
    for (i, g) in [1.2f32, 0.5, 2.2, 0.0, -1.0].into_iter().enumerate() {
        ops.push(channel_op(
            &format!("gamma({g})"),
            move |img| il::gamma(img, g),
            pixel::gamma(g),
            GAMMA[i],
        ));
    }
    for (i, a) in [6.0f32, 0.5, 0.0, 20.0].into_iter().enumerate() {
        ops.push(channel_op(
            &format!("contrast({a})"),
            move |img| il::contrast(img, a),
            pixel::sigmoidal_contrast(a),
            CONTRAST[i],
        ));
    }
    for (i, a) in [-6.0f32, -0.5, -20.0].into_iter().enumerate() {
        ops.push(channel_op(
            &format!("contrast({a})"),
            move |img| il::contrast(img, a),
            pixel::inverse_sigmoidal_contrast(a),
            INVERSE_CONTRAST[i],
        ));
    }
    ops
}

const COLORTONE: u64 = 0x55cd61c6faeeb67a;
const SCREEN: u64 = 0xc6ee56224585e093;
const COLORIZE: u64 = 0x9f365d3e5ed29b7d;
const LEVELS: u64 = 0x6664c1005295b2c9;
const INVERT: u64 = 0x5573687f720f99fb;
const SEPIA: u64 = 0x9f4d0cf7947a9af9;
const GRAYSCALE: u64 = 0x762e61c4a3288a28;
const MODULATE: [u64; 6] = [
    0x1f5eac4763ee79cd,
    0xc1e9799d123c00f5,
    0xb3e24ae3d9245b09,
    0x8e9e6c6d27db11df,
    0x142ef2d3c3a7c753,
    0x8f3870953d874df0,
];
const GAMMA: [u64; 5] = [
    0xb3aff8ec39700a93,
    0xf0cd595d0ffaffe7,
    0x6b6fd667cdf5b6ad,
    0xca4a3bb6c9908278,
    0xe284f2f5e7fd51c8,
];
const CONTRAST: [u64; 4] = [
    0x7b9c341d1e4e4a68,
    0x07b55347de376f5f,
    0xfa1526eb0f9550cc,
    0x2bea16bf78e5d61d,
];
const INVERSE_CONTRAST: [u64; 3] = [0xa23730f7aee04f23, 0x4d4dd6848f1278fb, 0x1d1854c6ca81ff67];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, xs: &[f32]) {
        for x in xs {
            for b in bits(*x).to_le_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

/// `x`'s bits, every NaN as `f32::NAN`'s: Rust leaves a NaN's sign
/// and payload unspecified, and the two widths may differ in them.
fn bits(x: f32) -> u32 {
    if x.is_nan() {
        f32::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

/// Where two outputs first differ in bits, if they do.
fn first_difference(a: &[f32], b: &[f32]) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("lengths {} and {}", a.len(), b.len()));
    }
    let i = a.iter().zip(b).position(|(x, y)| bits(*x) != bits(*y))?;
    Some(format!(
        "channel {i} (pixel {}): {:e} ({:#x}) vs {:e} ({:#x})",
        i / 3,
        a[i],
        a[i].to_bits(),
        b[i],
        b[i].to_bits()
    ))
}

fn run(f: &Map<'_>, src: &[f32]) -> Vec<f32> {
    let mut out = Vec::with_capacity(src.len());
    f(src, &mut out.spare_capacity_mut()[..src.len()]);
    // SAFETY: the map wrote every element of the spare capacity it was
    // handed, the first `src.len()`.
    unsafe { out.set_len(src.len()) };
    out
}

#[test]
fn every_operator_reproduces_its_pinned_bits() {
    let input = inputs();
    let whole = image(&input, PIXELS);
    let counts: Vec<usize> = (1..=2 * TILE + 1)
        .chain([PAR_THRESHOLD - 1, PAR_THRESHOLD, PAR_THRESHOLD + 1])
        .collect();
    let mut failures = Vec::new();
    let mut hashes = Vec::new();
    for op in ops() {
        let mut fail = |what: &str, diff: Option<String>| {
            if let Some(diff) = diff {
                failures.push(format!("{}: {what}: {diff}", op.name));
            }
        };
        imagelib::set_num_threads(1);
        let want = (op.op)(&whole);
        let want = want.data();
        fail(
            "direct call",
            first_difference(want, &run(&op.direct, &input)),
        );
        for w in Width::available() {
            let at = |s: &[f32], d: &mut [MaybeUninit<f32>]| (op.at)(w, s, d);
            fail(&format!("{w:?}"), first_difference(want, &run(&at, &input)));
        }
        for threads in [1, 2] {
            imagelib::set_num_threads(threads);
            for &n in &counts {
                let got = (op.op)(&image(&input, n));
                fail(
                    &format!("{n} pixels on {threads} threads"),
                    first_difference(&want[..n * 3], got.data()),
                );
            }
        }
        imagelib::set_num_threads(1);
        let mut fnv = Fnv::new();
        fnv.eat(want);
        hashes.push(format!("{}: {:#018x}", op.name, fnv.0));
        if fnv.0 != op.hash {
            failures.push(format!(
                "{}: hash {:#018x}, pinned {:#018x}",
                op.name, fnv.0, op.hash
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{}\n\nhashes:\n{}",
        failures.join("\n"),
        hashes.join("\n")
    );
}

#[test]
fn operators_without_transcendentals_keep_the_scalar_bits_on_the_unit_cube() {
    let input = unit_inputs();
    let n = input.len() / 3;
    let mut failures = Vec::new();
    for op in ops() {
        let Some(reference) = &op.reference else {
            continue;
        };
        let got = (op.op)(&image(&input, n));
        let want = reference::map(&input, reference);
        if let Some(diff) = first_difference(got.data(), &want) {
            failures.push(format!("{}: {diff}", op.name));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Every `step`-th `f32` in `[0, 1]`, and every one of the first and
/// last `2¹⁶` below 1, each a channel value.
fn unit_sweep(step: usize) -> Vec<f32> {
    let one = 1.0f32.to_bits();
    let mut v: Vec<f32> = (0..=one)
        .step_by(step)
        .chain(0..1 << 16)
        .chain(one - (1 << 16)..=one)
        .map(f32::from_bits)
        .collect();
    v.resize(v.len().div_ceil(3) * 3, 0.5);
    v
}

/// The worst absolute distance, over [`unit_sweep`], between `op` and
/// `want` evaluated in `f64` and clamped.
fn worst(op: impl Fn(&Image) -> Image, want: impl Fn(f64) -> f64) -> (f64, f32) {
    let input = unit_sweep(if cfg!(debug_assertions) { 4093 } else { 389 });
    let got = op(&image(&input, input.len() / 3));
    let mut worst = (0.0, 0.0);
    for (&c, &g) in input.iter().zip(got.data()) {
        let e = (g as f64 - want(c as f64).clamp(0.0, 1.0)).abs();
        if e > worst.0 {
            worst = (e, c);
        }
    }
    worst
}

#[test]
fn gamma_and_contrast_stay_within_the_bound_of_f64() {
    let mut report = Vec::new();
    for g in [1.2f32, 0.5, 2.2, 1.0, 0.05, 20.0] {
        let inv = 1.0 / g as f64;
        let (e, at) = worst(|i| imagelib::gamma(i, g), |c| c.powf(inv));
        report.push((format!("gamma({g})"), e, at));
    }
    for amount in [6.0f32, 0.5, 0.0, 20.0, -6.0, -0.5, -20.0, -1e-3] {
        let alpha = (amount.abs() as f64).max(1e-4);
        let forward = move |c: f64| {
            let s = |x: f64| 1.0 / (1.0 + (-alpha * (x - 0.5)).exp());
            (s(c) - s(0.0)) / (s(1.0) - s(0.0))
        };
        let inverse = move |c: f64| {
            let lo = 1.0 / (1.0 + (alpha * 0.5).exp());
            let hi = 1.0 / (1.0 + (-alpha * 0.5).exp());
            let y = lo + c * (hi - lo);
            0.5 - (1.0 / y - 1.0).ln() / alpha
        };
        let op = move |i: &Image| imagelib::contrast(i, amount);
        let (e, at) = if amount >= 0.0 {
            worst(op, forward)
        } else {
            worst(op, inverse)
        };
        report.push((format!("contrast({amount})"), e, at));
    }
    let lines: Vec<String> = report
        .iter()
        .map(|(name, e, at)| format!("{name}: {e:.2e} at {at:e}"))
        .collect();
    println!("{}", lines.join("\n"));
    assert!(
        report.iter().all(|(_, e, _)| *e <= BOUND),
        "beyond {BOUND:e}:\n{}",
        lines.join("\n")
    );
}

#[test]
fn edge_pixels_and_parameters_behave_as_documented() {
    let px = |op: &dyn Fn(&Image) -> Image, rgb: [f32; 3]| {
        let out = op(&Image::from_rgb(1, 1, rgb.to_vec()));
        out.pixel(0, 0)
    };
    let nan = f32::NAN;
    // Every channel is clamped to [0, 1] on the way out; NaN stays NaN.
    for op in ops() {
        let out = px(&op.op, [nan, nan, nan]);
        if !op.name.starts_with("modulate") {
            assert!(out.iter().all(|c| c.is_nan()), "{}: {out:?}", op.name);
        }
        let out = (op.op)(&image(&inputs(), PIXELS));
        assert!(
            out.data()
                .iter()
                .all(|c| c.is_nan() || (0.0..=1.0).contains(c)),
            "{} leaves [0, 1]",
            op.name
        );
    }
    // gamma and contrast clamp their input first: below 0 is 0 and
    // above 1 is 1.
    let inf = f32::INFINITY;
    let g = |gamma: f32| move |i: &Image| imagelib::gamma(i, gamma);
    assert_eq!(px(&g(2.2), [-0.5, 1.5, inf]), [0.0, 1.0, 1.0]);
    assert_eq!(px(&g(2.2), [-inf, 0.0, 1.0]), [0.0, 0.0, 1.0]);
    // gamma = 0 sends [0, 1) to 0; gamma < 0 sends everything to 1.
    assert_eq!(px(&g(0.0), [0.0, 0.999, 1.0]), [0.0, 0.0, 1.0]);
    assert_eq!(px(&g(-1.0), [0.0, 0.5, 1.0]), [1.0, 1.0, 1.0]);
    assert_eq!(px(&g(-0.0), [0.0, 0.5, 1.0]), [1.0, 1.0, 1.0]);
    // Subnormal channels keep their power.
    let tiny = px(&g(2.0), [1e-40, f32::from_bits(1), 0.0]);
    assert!(
        (tiny[0] as f64 / f64::from(1e-40f32).sqrt() - 1.0).abs() < 1e-5,
        "{tiny:?}"
    );
    assert!(tiny[1] > 0.0 && tiny[2] == 0.0, "{tiny:?}");
    // contrast 0 is the identity to within the bound.
    let c = |amount: f32| move |i: &Image| imagelib::contrast(i, amount);
    for x in [0.0, 1e-3, 0.25, 0.5, 0.8, 1.0] {
        let out = px(&c(0.0), [x, x, x]);
        assert!((out[0] - x).abs() <= 1e-6, "contrast(0) at {x}: {out:?}");
    }
    for amount in [6.0, -6.0] {
        assert_eq!(px(&c(amount), [-1.0, 0.0, 1.0])[0], 0.0, "{amount}");
        assert_eq!(px(&c(amount), [2.0, inf, 1.0]), [1.0, 1.0, 1.0], "{amount}");
        assert_eq!(px(&c(amount), [0.5, 0.5, 0.5]), [0.5, 0.5, 0.5], "{amount}");
    }
}
