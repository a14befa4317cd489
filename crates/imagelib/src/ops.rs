//! Color and filter operators.
//!
//! Per-pixel operators (everything except [`blur`]) are row-local, so
//! they satisfy the SA correctness condition (§3.4): applying them to
//! row crops and appending equals applying them to the whole image.
//! [`blur`] reads *neighboring* rows with special boundary handling, the
//! paper's canonical example of a function that must NOT be annotated
//! (§7.1): split/merge would re-run the boundary condition at every
//! split edge and corrupt the result.
//!
//! Each per-pixel operator is `Image::map_channels` or
//! `Image::map_pixels` over its kernel from [`crate::pixel`], where
//! the arithmetic and its accuracy are documented: the operators here
//! only choose the kernel. Their bits do not depend on the row band, so
//! the row-split commutation above holds bit for bit.

use crate::image::Image;
use crate::pixel;

/// Per-channel gamma correction: `c ^ (1/gamma)` (like `MagickGammaImage`).
pub fn gamma(img: &Image, gamma: f32) -> Image {
    img.map_channels(pixel::gamma(gamma))
}

/// Brightness / saturation / hue modulation in percent, 100 = unchanged
/// (like `MagickModulateImage`).
pub fn modulate(img: &Image, brightness: f32, saturation: f32, hue: f32) -> Image {
    img.map_pixels(pixel::modulate(brightness, saturation, hue))
}

/// Sigmoidal contrast adjustment; positive `amount` increases contrast
/// (like `MagickSigmoidalContrastImage`).
pub fn contrast(img: &Image, amount: f32) -> Image {
    if amount >= 0.0 {
        img.map_channels(pixel::sigmoidal_contrast(amount))
    } else {
        img.map_channels(pixel::inverse_sigmoidal_contrast(amount))
    }
}

/// Blend a solid color over the image with `alpha` opacity (the
/// `colorize`/fill step of the instagram filters).
pub fn colorize(img: &Image, rgb: [f32; 3], alpha: f32) -> Image {
    img.map_channels(pixel::colorize(rgb, alpha))
}

/// The instagram-filters `colortone` step: overlay `rgb` using multiply
/// (`negate = false`) or screen (`negate = true`) blending at 50%.
pub fn colortone(img: &Image, rgb: [f32; 3], negate: bool) -> Image {
    img.map_channels(pixel::colortone(rgb, negate))
}

/// Luminance grayscale.
pub fn grayscale(img: &Image) -> Image {
    img.map_pixels(pixel::grayscale())
}

/// Channel inversion (negative).
pub fn invert(img: &Image) -> Image {
    img.map_channels(pixel::invert())
}

/// Classic sepia tone.
pub fn sepia(img: &Image) -> Image {
    img.map_pixels(pixel::sepia())
}

/// Per-channel linear level adjustment mapping `[black, white]` to
/// `[0, 1]` (like `MagickLevelImage`).
pub fn levels(img: &Image, black: f32, white: f32) -> Image {
    img.map_channels(pixel::levels(black, white))
}

/// Separable Gaussian blur with **clamped (replicated) edges**.
///
/// The edge rows are processed differently from interior rows — the
/// boundary condition the paper cites as making ImageMagick's `Blur`
/// unsafe to annotate (§7.1): blurring row crops independently and
/// appending them re-applies the boundary at every crop edge and does
/// not equal blurring the whole image. `sa-image` intentionally leaves
/// this function un-annotated, and a test documents the mismatch.
pub fn blur(img: &Image, radius: usize) -> Image {
    if radius == 0 {
        return img.clone();
    }
    let sigma = radius as f32 / 2.0;
    let kernel: Vec<f32> = (-(radius as i64)..=radius as i64)
        .map(|i| (-((i * i) as f32) / (2.0 * sigma * sigma)).exp())
        .collect();
    let ksum: f32 = kernel.iter().sum();
    let kernel: Vec<f32> = kernel.iter().map(|k| k / ksum).collect();

    let (w, h) = (img.width(), img.height());
    let src = img.data();
    let c = Image::CHANNELS;
    // Horizontal pass.
    let mut tmp = vec![0.0f32; src.len()];
    for y in 0..h {
        for x in 0..w {
            for ch in 0..c {
                let mut acc = 0.0;
                for (ki, k) in kernel.iter().enumerate() {
                    let sx = (x as i64 + ki as i64 - radius as i64).clamp(0, w as i64 - 1);
                    acc += k * src[(y * w + sx as usize) * c + ch];
                }
                tmp[(y * w + x) * c + ch] = acc;
            }
        }
    }
    // Vertical pass (the one the row boundary condition matters for).
    let mut out = vec![0.0f32; src.len()];
    for y in 0..h {
        for x in 0..w {
            for ch in 0..c {
                let mut acc = 0.0;
                for (ki, k) in kernel.iter().enumerate() {
                    let sy = (y as i64 + ki as i64 - radius as i64).clamp(0, h as i64 - 1);
                    acc += k * tmp[(sy as usize * w + x) * c + ch];
                }
                out[(y * w + x) * c + ch] = acc;
            }
        }
    }
    Image::from_rgb(w, h, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn img() -> Image {
        Image::synthetic(16, 12, 3)
    }

    /// Per-pixel ops must commute with row splitting (§3.4), bit for
    /// bit. The 24-pixel-wide image's 256-pixel tile ends mid-row 10,
    /// and the splits move it: a band starting at row 7 ends its first
    /// tile mid-row 17.
    fn splits_exactly(f: impl Fn(&Image) -> Image) -> bool {
        let i = Image::synthetic(24, 20, 3);
        let whole = f(&i);
        [vec![0, 5, 20], vec![0, 7, 13, 20], vec![0, 11, 20]]
            .iter()
            .all(|cuts| {
                let parts: Vec<Image> = cuts
                    .windows(2)
                    .map(|w| f(&i.crop_rows(w[0], w[1])))
                    .collect();
                Image::append_rows(&parts).data() == whole.data()
            })
    }

    #[test]
    fn per_pixel_ops_commute_with_row_splits() {
        assert!(splits_exactly(|i| gamma(i, 2.2)));
        assert!(splits_exactly(|i| modulate(i, 120.0, 80.0, 100.0)));
        assert!(splits_exactly(|i| contrast(i, 5.0)));
        assert!(splits_exactly(|i| contrast(i, -5.0)));
        assert!(splits_exactly(|i| colorize(i, [0.9, 0.2, 0.1], 0.3)));
        assert!(splits_exactly(|i| colortone(i, [0.13, 0.17, 0.43], false)));
        assert!(splits_exactly(grayscale));
        assert!(splits_exactly(invert));
        assert!(splits_exactly(sepia));
        assert!(splits_exactly(|i| levels(i, 0.1, 0.9)));
    }

    #[test]
    fn blur_does_not_commute_with_row_splits() {
        // The §7.1 boundary-condition hazard, demonstrated.
        let i = img();
        let whole = blur(&i, 3);
        let merged =
            Image::append_rows(&[blur(&i.crop_rows(0, 6), 3), blur(&i.crop_rows(6, 12), 3)]);
        assert!(
            whole.mean_abs_diff(&merged) > 1e-4,
            "blur must differ across split boundaries"
        );
    }

    #[test]
    fn gamma_identity() {
        let i = img();
        assert!(i.mean_abs_diff(&gamma(&i, 1.0)) < 1e-6);
    }

    #[test]
    fn invert_is_involution() {
        let i = img();
        assert!(i.mean_abs_diff(&invert(&invert(&i))) < 1e-6);
    }

    #[test]
    fn hsv_roundtrip() {
        for px in [
            [0.2, 0.4, 0.8],
            [0.9, 0.1, 0.1],
            [0.5, 0.5, 0.5],
            [0.0, 1.0, 0.0],
        ] {
            let (h, s, v) = pixel::rgb_to_hsv(px);
            let back = pixel::hsv_to_rgb(h, s, v);
            for ch in 0..3 {
                assert!((px[ch] - back[ch]).abs() < 1e-5, "{px:?} -> {back:?}");
            }
        }
    }

    #[test]
    fn modulate_identity_at_100() {
        let i = img();
        let m = modulate(&i, 100.0, 100.0, 100.0);
        assert!(i.mean_abs_diff(&m) < 1e-4);
    }

    #[test]
    fn grayscale_equalizes_channels() {
        let g = grayscale(&img());
        let px = g.pixel(3, 4);
        assert_eq!(px[0], px[1]);
        assert_eq!(px[1], px[2]);
    }
}
