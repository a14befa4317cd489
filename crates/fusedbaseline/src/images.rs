//! Fused image filters: the Nashville and Gotham pipelines composed
//! into one per-pixel pass (maximal fusion of the instagram-filter
//! operator chains), as a compiler would emit it: `imagelib`'s own
//! kernels back to back over each tile, with the clamp every operator
//! applies between them, so the output is the chain's bit for bit.

use std::mem::MaybeUninit;

use imagelib::image::map_rgb;
use imagelib::{pixel, Image};

use crate::parallel::parallel_ranges;

/// Fused Nashville filter: the full operator chain applied per pixel in
/// one pass, parallel over rows.
pub fn nashville(img: &Image, threads: usize) -> Image {
    let a = pixel::colortone([0.13, 0.17, 0.43], false).per_pixel();
    let b = pixel::colortone([0.97, 0.85, 0.68], true).per_pixel();
    let c = pixel::gamma(1.2).per_pixel();
    let d = pixel::modulate(100.0, 150.0, 100.0);
    fuse_rows(
        img,
        threads,
        #[inline(always)]
        move |px| d(pixel::clamp(c(pixel::clamp(b(pixel::clamp(a(px))))))),
    )
}

/// Fused Gotham filter.
pub fn gotham(img: &Image, threads: usize) -> Image {
    let a = pixel::modulate(120.0, 10.0, 100.0);
    let b = pixel::colorize([0.13, 0.16, 0.32], 0.2).per_pixel();
    let c = pixel::gamma(0.5).per_pixel();
    let d = pixel::sigmoidal_contrast(6.0).per_pixel();
    fuse_rows(
        img,
        threads,
        #[inline(always)]
        move |px| d(pixel::clamp(c(pixel::clamp(b(pixel::clamp(a(px))))))),
    )
}

fn fuse_rows(img: &Image, threads: usize, f: impl Fn([f32; 3]) -> [f32; 3] + Send + Sync) -> Image {
    let (w, h) = (img.width(), img.height());
    let src = img.data();
    let stride = w * Image::CHANNELS;
    let mut out: Vec<f32> = Vec::with_capacity(src.len());
    let out_addr = out.as_mut_ptr() as usize;
    parallel_ranges(h, threads, |r0, r1| {
        let (start, len) = (r0 * stride, (r1 - r0) * stride);
        // SAFETY: `out` has capacity for every row, and each worker
        // writes its own disjoint rows, into capacity nothing reads.
        let dst = unsafe {
            std::slice::from_raw_parts_mut((out_addr as *mut MaybeUninit<f32>).add(start), len)
        };
        map_rgb(&src[start..start + len], dst, &f);
    });
    // SAFETY: the row ranges cover `[0, h)`, so `map_rgb` wrote every
    // element.
    unsafe { out.set_len(src.len()) };
    Image::from_rgb(w, h, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fused pipelines must match the operator-by-operator library
    /// composition bit for bit — the correctness bar Weld-generated
    /// code meets.
    #[test]
    fn fused_nashville_matches_composition() {
        let img = Image::synthetic(40, 30, 5);
        let fused = nashville(&img, 2);
        let composed = imagelib::modulate(
            &imagelib::gamma(
                &imagelib::colortone(
                    &imagelib::colortone(&img, [0.13, 0.17, 0.43], false),
                    [0.97, 0.85, 0.68],
                    true,
                ),
                1.2,
            ),
            100.0,
            150.0,
            100.0,
        );
        assert!(
            fused.data() == composed.data(),
            "fused differs from the chain"
        );
    }

    #[test]
    fn fused_gotham_matches_composition() {
        let img = Image::synthetic(24, 18, 11);
        let fused = gotham(&img, 1);
        let composed = imagelib::contrast(
            &imagelib::gamma(
                &imagelib::colorize(
                    &imagelib::modulate(&img, 120.0, 10.0, 100.0),
                    [0.13, 0.16, 0.32],
                    0.2,
                ),
                0.5,
            ),
            6.0,
        );
        assert!(
            fused.data() == composed.data(),
            "fused differs from the chain"
        );
    }
}
