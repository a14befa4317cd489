//! The scalar per-pixel operators `imagelib` shipped before its kernels
//! became branch-free: libm `powf`, `expf`, `lnf` and `fmodf`, and the
//! branchy HSV round trip. `tests/bits.rs` checks the kernels against
//! them and `tests/pixel_cost.rs` times them.

#![allow(dead_code)]

/// Map interleaved RGB through `f`, clamping each output channel to
/// `[0, 1]`, into a zeroed buffer: the library's old pixel loop.
pub fn map(src: &[f32], f: impl Fn([f32; 3]) -> [f32; 3]) -> Vec<f32> {
    let mut out = vec![0.0f32; src.len()];
    for (s, d) in src.chunks_exact(3).zip(out.chunks_exact_mut(3)) {
        let [r, g, b] = f([s[0], s[1], s[2]]);
        d[0] = r.clamp(0.0, 1.0);
        d[1] = g.clamp(0.0, 1.0);
        d[2] = b.clamp(0.0, 1.0);
    }
    out
}

pub fn gamma(gamma: f32) -> impl Fn([f32; 3]) -> [f32; 3] {
    let inv = 1.0 / gamma;
    move |[r, g, b]| [r.powf(inv), g.powf(inv), b.powf(inv)]
}

pub fn modulate(brightness: f32, saturation: f32, hue: f32) -> impl Fn([f32; 3]) -> [f32; 3] {
    let bf = brightness / 100.0;
    let sf = saturation / 100.0;
    let hshift = (hue - 100.0) / 100.0 * 180.0;
    move |px| {
        let (mut h, s, v) = rgb_to_hsv(px);
        h = (h + hshift).rem_euclid(360.0);
        hsv_to_rgb(h, (s * sf).clamp(0.0, 1.0), (v * bf).clamp(0.0, 1.0))
    }
}

pub fn contrast(amount: f32) -> impl Fn([f32; 3]) -> [f32; 3] {
    let alpha = amount.abs().max(1e-4);
    let apply = move |c: f32| -> f32 {
        if amount >= 0.0 {
            let s = |x: f32| 1.0 / (1.0 + (-alpha * (x - 0.5)).exp());
            let lo = s(0.0);
            let hi = s(1.0);
            (s(c) - lo) / (hi - lo)
        } else {
            let lo = 1.0 / (1.0 + (alpha * 0.5).exp());
            let hi = 1.0 / (1.0 + (-alpha * 0.5).exp());
            let y = lo + c * (hi - lo);
            0.5 - (1.0 / y - 1.0).ln() / alpha
        }
    };
    move |[r, g, b]| [apply(r), apply(g), apply(b)]
}

pub fn colorize(rgb: [f32; 3], alpha: f32) -> impl Fn([f32; 3]) -> [f32; 3] {
    move |[r, g, b]| {
        [
            r * (1.0 - alpha) + rgb[0] * alpha,
            g * (1.0 - alpha) + rgb[1] * alpha,
            b * (1.0 - alpha) + rgb[2] * alpha,
        ]
    }
}

pub fn colortone(rgb: [f32; 3], negate: bool) -> impl Fn([f32; 3]) -> [f32; 3] {
    move |[r, g, b]| {
        let blend = |c: f32, t: f32| -> f32 {
            let m = if negate {
                1.0 - (1.0 - c) * (1.0 - t)
            } else {
                c * t
            };
            0.5 * c + 0.5 * m
        };
        [blend(r, rgb[0]), blend(g, rgb[1]), blend(b, rgb[2])]
    }
}

pub fn grayscale() -> impl Fn([f32; 3]) -> [f32; 3] {
    |[r, g, b]| {
        let y = 0.299 * r + 0.587 * g + 0.114 * b;
        [y, y, y]
    }
}

pub fn invert() -> impl Fn([f32; 3]) -> [f32; 3] {
    |[r, g, b]| [1.0 - r, 1.0 - g, 1.0 - b]
}

pub fn sepia() -> impl Fn([f32; 3]) -> [f32; 3] {
    |[r, g, b]| {
        [
            0.393 * r + 0.769 * g + 0.189 * b,
            0.349 * r + 0.686 * g + 0.168 * b,
            0.272 * r + 0.534 * g + 0.131 * b,
        ]
    }
}

pub fn levels(black: f32, white: f32) -> impl Fn([f32; 3]) -> [f32; 3] {
    let scale = 1.0 / (white - black).max(1e-6);
    move |[r, g, b]| {
        [
            (r - black) * scale,
            (g - black) * scale,
            (b - black) * scale,
        ]
    }
}

fn rgb_to_hsv([r, g, b]: [f32; 3]) -> (f32, f32, f32) {
    let max = r.max(g).max(b);
    let min = r.min(g).min(b);
    let d = max - min;
    let h = if d == 0.0 {
        0.0
    } else if max == r {
        60.0 * (((g - b) / d).rem_euclid(6.0))
    } else if max == g {
        60.0 * ((b - r) / d + 2.0)
    } else {
        60.0 * ((r - g) / d + 4.0)
    };
    let s = if max == 0.0 { 0.0 } else { d / max };
    (h, s, max)
}

fn hsv_to_rgb(h: f32, s: f32, v: f32) -> [f32; 3] {
    let c = v * s;
    let x = c * (1.0 - ((h / 60.0).rem_euclid(2.0) - 1.0).abs());
    let m = v - c;
    let (r, g, b) = match (h / 60.0) as u32 % 6 {
        0 => (c, x, 0.0),
        1 => (x, c, 0.0),
        2 => (0.0, c, x),
        3 => (0.0, x, c),
        4 => (x, 0.0, c),
        _ => (c, 0.0, x),
    };
    [r + m, g + m, b + m]
}

/// The Nashville chain (`workloads::images::nashville_base`) through
/// these operators.
pub fn nashville(src: &[f32]) -> Vec<f32> {
    let t = map(src, colortone([0.13, 0.17, 0.43], false));
    let t = map(&t, colortone([0.97, 0.85, 0.68], true));
    let t = map(&t, gamma(1.2));
    map(&t, modulate(100.0, 150.0, 100.0))
}
