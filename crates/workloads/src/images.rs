//! Nashville and Gotham image pipelines (Table 2; Figures 4n–o): the
//! instagram-filter operator chains over a large image. The base
//! library parallelizes each operator internally (like ImageMagick);
//! Mozart additionally pipelines row bands across operators.

use imagelib::Image;
use mozart_core::{MozartContext, Result};

/// Generate a synthetic photograph.
pub fn generate(width: usize, height: usize, seed: u64) -> Image {
    Image::synthetic(width, height, seed)
}

/// Result summary: mean channel value (content checksum).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Mean of all channel values.
    pub mean: f64,
}

fn summarize(img: &Image) -> Summary {
    let sum: f64 = img.data().iter().map(|&v| v as f64).sum();
    Summary {
        mean: sum / img.data().len() as f64,
    }
}

/// Base Nashville: eager library calls (internally parallel).
pub fn nashville_base(img: &Image) -> Summary {
    let t = imagelib::colortone(img, [0.13, 0.17, 0.43], false);
    let t = imagelib::colortone(&t, [0.97, 0.85, 0.68], true);
    let t = imagelib::gamma(&t, 1.2);
    let t = imagelib::modulate(&t, 100.0, 150.0, 100.0);
    summarize(&t)
}

/// Mozart Nashville: the chain through `sa-image`, pipelined per band.
pub fn nashville_mozart(img: &Image, ctx: &MozartContext) -> Result<Summary> {
    Ok(summarize(&nashville_mozart_image(img, ctx)?))
}

/// [`nashville_mozart`] returning the full filtered image instead of
/// its summary — the serving layer's generic coalescer stacks several
/// requests' photographs along the row axis, runs this chain once, and
/// slices each request's rows back out (every filter is per-pixel, so
/// the band boundaries are invisible in the output).
pub fn nashville_mozart_image(img: &Image, ctx: &MozartContext) -> Result<Image> {
    use sa_image as sa;
    // Rebind with `=` (not shadowing) so each intermediate handle drops
    // as soon as the next call captures it: only the final image is
    // user-visible at evaluation time, so the runtime discards the
    // intermediates' pieces per batch. Shadowed handles would stay alive
    // to end of scope and cost about the same: images are purely
    // functional, so a live output nobody reads keeps only its lineage,
    // not its pieces.
    let mut t = sa::colortone(ctx, img, [0.13, 0.17, 0.43], false)?;
    t = sa::colortone(ctx, &t, [0.97, 0.85, 0.68], true)?;
    t = sa::gamma(ctx, &t, 1.2)?;
    t = sa::modulate(ctx, &t, 100.0, 150.0, 100.0)?;
    sa::get_image(&t)
}

/// Mean channel value of an image (the per-request response checksum
/// used by the serving layer; serial over the image's own rows, so a
/// sliced-back coalesced band summarizes bit-identically to a separate
/// evaluation).
pub fn image_mean(img: &Image) -> f64 {
    summarize(img).mean
}

/// Fused Nashville (compiler stand-in).
pub fn nashville_fused(img: &Image, threads: usize) -> Summary {
    summarize(&fusedbaseline::images::nashville(img, threads))
}

/// Base Gotham: eager library calls (internally parallel).
pub fn gotham_base(img: &Image) -> Summary {
    let t = imagelib::modulate(img, 120.0, 10.0, 100.0);
    let t = imagelib::colorize(&t, [0.13, 0.16, 0.32], 0.2);
    let t = imagelib::gamma(&t, 0.5);
    let t = imagelib::contrast(&t, 6.0);
    summarize(&t)
}

/// Mozart Gotham.
pub fn gotham_mozart(img: &Image, ctx: &MozartContext) -> Result<Summary> {
    use sa_image as sa;
    // Rebind, don't shadow: see `nashville_mozart`.
    let mut t = sa::modulate(ctx, img, 120.0, 10.0, 100.0)?;
    t = sa::colorize(ctx, &t, [0.13, 0.16, 0.32], 0.2)?;
    t = sa::gamma(ctx, &t, 0.5)?;
    t = sa::contrast(ctx, &t, 6.0)?;
    Ok(summarize(&sa::get_image(&t)?))
}

/// Fused Gotham (compiler stand-in).
pub fn gotham_fused(img: &Image, threads: usize) -> Summary {
    summarize(&fusedbaseline::images::gotham(img, threads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::close;

    #[test]
    fn nashville_modes_agree() {
        let img = generate(64, 48, 3);
        let a = nashville_base(&img);
        let f = nashville_fused(&img, 2);
        let ctx = crate::mozart_context(2);
        let m = nashville_mozart(&img, &ctx).unwrap();
        // The fused pass runs the library's kernels with its clamps:
        // the same bits, so the same mean.
        assert_eq!(a.mean, f.mean);
        assert!(close(a.mean, m.mean, 1e-5), "{} vs {}", a.mean, m.mean);
    }

    #[test]
    fn gotham_modes_agree() {
        let img = generate(64, 48, 9);
        let a = gotham_base(&img);
        let f = gotham_fused(&img, 2);
        let ctx = crate::mozart_context(2);
        let m = gotham_mozart(&img, &ctx).unwrap();
        assert_eq!(a.mean, f.mean);
        assert!(close(a.mean, m.mean, 1e-5), "{} vs {}", a.mean, m.mean);
    }

    #[test]
    fn bands_ending_mid_tile_equal_the_library() {
        // 100-pixel rows in 3-row bands: every band ends 44 pixels into
        // a 256-pixel tile of `map_pixels`, and tiles end mid-row. A
        // pixel's bits depend on nothing but the pixel, so Mozart's
        // banded result is the library's, bit for bit.
        use sa_image as sa;
        let img = generate(100, 37, 13);
        let mut cfg = mozart_core::Config::with_workers(2);
        cfg.batch_override = Some(3);
        let ctx = crate::mozart_context_with(cfg);
        let nashville = nashville_mozart_image(&img, &ctx).unwrap();
        let t = imagelib::colortone(&img, [0.13, 0.17, 0.43], false);
        let t = imagelib::colortone(&t, [0.97, 0.85, 0.68], true);
        let t = imagelib::gamma(&t, 1.2);
        let base = imagelib::modulate(&t, 100.0, 150.0, 100.0);
        assert!(nashville.data() == base.data(), "Nashville bands differ");

        let mut t = sa::modulate(&ctx, &img, 120.0, 10.0, 100.0).unwrap();
        t = sa::colorize(&ctx, &t, [0.13, 0.16, 0.32], 0.2).unwrap();
        t = sa::gamma(&ctx, &t, 0.5).unwrap();
        t = sa::contrast(&ctx, &t, 6.0).unwrap();
        let gotham = sa::get_image(&t).unwrap();
        let t = imagelib::modulate(&img, 120.0, 10.0, 100.0);
        let t = imagelib::colorize(&t, [0.13, 0.16, 0.32], 0.2);
        let t = imagelib::gamma(&t, 0.5);
        let base = imagelib::contrast(&t, 6.0);
        assert!(gotham.data() == base.data(), "Gotham bands differ");
        assert!(ctx.stats().batches >= 2 * 13, "{:?}", ctx.stats());
    }

    #[test]
    fn image_pipeline_is_one_stage() {
        // Pipelined, the four calls run as one stage; staged (the
        // paper's "-pipe"), one stage per call, merging the image at
        // every boundary. Both give the plain library's result.
        let img = generate(32, 40, 1);
        let base = nashville_base(&img).mean;
        for (pipeline, stages) in [(true, 1), (false, 4)] {
            // The L2 of `captured_context`: every call is captured.
            let ctx = crate::mozart_context_with(mozart_core::Config {
                l2_bytes: 64 << 10,
                pipeline,
                ..mozart_core::Config::with_workers(2)
            });
            let m = nashville_mozart(&img, &ctx).unwrap();
            assert_eq!(ctx.stats().stages, stages, "pipeline = {pipeline}");
            assert!(close(base, m.mean, 1e-5), "{base} vs {}", m.mean);
        }
    }

    #[test]
    fn placement_preserves_nashville_checksum() {
        // The placement fast path must be invisible in the output: the
        // summary checksum equals the plain library's, bit for bit.
        let img = generate(48, 37, 5);
        let mut cfg = mozart_core::Config::with_workers(3);
        cfg.batch_override = Some(4);
        let ctx = crate::mozart_context_with(cfg);
        let s = nashville_mozart(&img, &ctx).unwrap();
        assert_eq!(
            s.mean,
            nashville_base(&img).mean,
            "checksums must match exactly"
        );
        let stats = ctx.stats();
        assert!(stats.placement_writes > 0, "{stats:?}");
    }
}
