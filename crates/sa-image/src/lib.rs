//! # sa-image — split annotations for the `imagelib` library
//!
//! The annotator-side integration for the ImageMagick stand-in (§7
//! "ImageMagick"): one split type over the opaque image handle.
//!
//! The paper's integration copies on both sides — "the split function
//! uses a crop function to clone and return a subset of the original
//! image" and the merger uses the append API — and reports that those
//! copies are why end-to-end ImageMagick speedups are limited despite
//! pipelining (§8.2, Figures 4n–o). This integration drives that tax
//! toward zero:
//!
//! * **splits are zero-copy** — `ImageSplit` hands out
//!   [`Image::rows`] views aliasing the parent pixel buffer instead of
//!   crop clones;
//! * **merges are placement writes** — the runtime preallocates the
//!   final image once and workers copy their result bands directly at
//!   their row offsets (the [`Placement`] capability inside
//!   [`MergeStrategy::Concat`]); the copying append
//!   ([`Splitter::merge`]) remains only for what the runtime never
//!   places — a zero-width image, or an `unknown` output;
//! * **the final image is written over, not re-allocated** — on a warm
//!   plan cache the previous evaluation's released result image is
//!   reused as the target when nobody else holds its pixels any more
//!   ([`Placement::reuse`], checked with [`Image::is_exclusive`]), so
//!   the multi-megabyte allocation and its page faults are paid once.
//!
//! `ImageSplit` also exposes the [`Concat`] capability (the inverse of
//! `split`): whole images stack along the row axis and row bands slice
//! back out as zero-copy views, which the serving layer uses to
//! coalesce fingerprint-identical image requests into one evaluation.
//!
//! All of that is the runtime's generic row-band implementation
//! ([`mozart_core::row_bands`]): [`ImgValue`] implements [`RowBand`]
//! with `imagelib`'s own calls (`rows`, `append_rows`,
//! `alloc_rows_uninit`, `write_rows_from`, `is_exclusive`), and
//! `ImageSplit` names its parameters, `(height, width)`, and its runtime
//! info. The width check before every append and row write is made
//! there, so a band of another width is an `Error::Merge`, never the
//! library's assertion.
//!
//! `imagelib::blur` is deliberately **not** annotated: its edge
//! boundary condition violates the SA correctness condition (§7.1).

#![warn(missing_docs)]

use std::sync::{Arc, LazyLock};

use imagelib::Image;
use mozart_core::annotation::{generic, missing};
use mozart_core::prelude::*;
use mozart_core::row_bands::{bands, Bands, RowBand, RowSplitter};

/// `DataValue` wrapper for [`Image`].
#[derive(Debug, Clone)]
pub struct ImgValue(pub Image);

impl mozart_core::value::DataObject for ImgValue {
    fn type_name(&self) -> &'static str {
        "ImgValue"
    }
}

impl RowBand for ImgValue {
    fn rows(&self) -> usize {
        self.0.height()
    }

    fn same_cross_section(&self, other: &Self) -> bool {
        self.0.width() == other.0.width()
    }

    /// Zero-copy row view (the paper's crop clones here; see the module
    /// docs on why this integration does not).
    fn view(&self, start: usize, end: usize) -> Self {
        ImgValue(self.0.rows(start, end))
    }

    fn concat(parts: &[&Self]) -> Self {
        let images: Vec<Image> = parts.iter().map(|p| p.0.clone()).collect();
        ImgValue(Image::append_rows(&images))
    }

    unsafe fn alloc_uninit(rows: usize, params: &Params, _: Option<&Self>) -> Option<Self> {
        // `(height, width)` parameters fully determine the layout, so
        // the image allocates at stage start — on the caller, while the
        // pool is parked, where its first-touch page faults run
        // uncontended. A zero-width image has nothing to place.
        let width = params.get(1).copied().unwrap_or(0).max(0) as usize;
        // SAFETY: forwarded contract.
        (width > 0).then(|| ImgValue(unsafe { Image::alloc_rows_uninit(width, rows) }))
    }

    unsafe fn write_rows(&self, offset: usize, band: &Self) {
        // SAFETY: forwarded contract.
        unsafe { self.0.write_rows_from(offset, &band.0) }
    }

    fn is_exclusive(&mut self) -> bool {
        self.0.is_exclusive()
    }
}

/// Row-band split type for images. Parameters: `(height, width)`.
#[derive(Default)]
pub struct ImageSplit;

impl ImageSplit {
    /// Shared instance.
    pub fn shared() -> Arc<dyn Splitter> {
        Arc::new(ImageSplit)
    }
}

impl RowSplitter for ImageSplit {
    const NAME: &'static str = "ImageSplit";

    fn construct(ctor_args: &[&DataValue]) -> Result<Params> {
        let img = ctor_args
            .first()
            .and_then(|v| v.downcast_ref::<ImgValue>())
            .ok_or_else(|| Error::Constructor {
                split_type: "ImageSplit",
                message: "expected an image argument".into(),
            })?;
        Ok(vec![img.0.height() as i64, img.0.width() as i64])
    }

    fn info(params: &Params) -> RuntimeInfo {
        let h = params.first().copied().unwrap_or(0).max(0) as u64;
        let w = params.get(1).copied().unwrap_or(0).max(0) as u64;
        RuntimeInfo {
            total_elements: h,
            elem_size_bytes: w * (Image::CHANNELS as u64) * 4,
        }
    }

    fn bands(_: Option<&DataValue>) -> &'static dyn Bands {
        bands::<Self, ImgValue>()
    }
}

/// Register this integration's default split types. Idempotent.
pub fn register_defaults() {
    mozart_core::registry::register_default_splitter::<ImgValue>(ImageSplit::shared());
    for a in annotations() {
        mozart_core::registry::register_annotation(a);
    }
}

/// Values accepted by the wrappers.
pub trait ImgArg {
    /// Convert to a Mozart argument value.
    fn to_value(&self) -> DataValue;
}

impl ImgArg for Image {
    fn to_value(&self) -> DataValue {
        DataValue::new(ImgValue(self.clone()))
    }
}
impl ImgArg for FutureHandle {
    fn to_value(&self) -> DataValue {
        self.as_value()
    }
}

/// Materialize a lazy image result.
pub fn get_image(f: &FutureHandle) -> Result<Image> {
    let dv = f.get()?;
    dv.downcast_ref::<ImgValue>()
        .map(|i| i.0.clone())
        .ok_or(Error::ArgType {
            function: "sa_image::get_image",
            arg: 0,
            expected: "ImgValue",
            actual: dv.type_name(),
        })
}

fn img_piece(inv: &Invocation<'_>, i: usize) -> Result<Image> {
    Ok(inv.arg::<ImgValue>(i)?.0.clone())
}

macro_rules! img_sa_unary {
    ($(#[$doc:meta])* $name:ident, $annot:ident, $f:path) => {
        static $annot: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
            Annotation::new(stringify!($name), |inv| {
                let img = img_piece(inv, 0)?;
                Ok(Some(DataValue::new(ImgValue($f(&img)))))
            })
            .arg("img", generic(0))
            .ret(generic(0))
            .build()
        });

        $(#[$doc])*
        pub fn $name(ctx: &MozartContext, img: &impl ImgArg) -> Result<FutureHandle> {
            Ok(ctx.call(&$annot, &[Arg::Value(&img.to_value())])?.expect("returns"))
        }
    };
}

img_sa_unary!(
    /// Annotated luminance grayscale.
    grayscale, GRAYSCALE, imagelib::grayscale
);
img_sa_unary!(
    /// Annotated channel inversion.
    invert, INVERT, imagelib::invert
);
img_sa_unary!(
    /// Annotated sepia tone.
    sepia, SEPIA, imagelib::sepia
);

static GAMMA: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
    Annotation::new("gamma", |inv| {
        let img = img_piece(inv, 0)?;
        let g = inv.float(1)? as f32;
        Ok(Some(DataValue::new(ImgValue(imagelib::gamma(&img, g)))))
    })
    .arg("img", generic(0))
    .arg("g", missing())
    .ret(generic(0))
    .build()
});

/// Annotated gamma correction.
pub fn gamma(ctx: &MozartContext, img: &impl ImgArg, g: f32) -> Result<FutureHandle> {
    Ok(ctx
        .call(&GAMMA, &[Arg::Value(&img.to_value()), Arg::Float(g as f64)])?
        .expect("returns"))
}

static CONTRAST: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
    Annotation::new("contrast", |inv| {
        let img = img_piece(inv, 0)?;
        let amount = inv.float(1)? as f32;
        Ok(Some(DataValue::new(ImgValue(imagelib::contrast(
            &img, amount,
        )))))
    })
    .arg("img", generic(0))
    .arg("amount", missing())
    .ret(generic(0))
    .build()
});

/// Annotated sigmoidal contrast adjustment.
pub fn contrast(ctx: &MozartContext, img: &impl ImgArg, amount: f32) -> Result<FutureHandle> {
    Ok(ctx
        .call(
            &CONTRAST,
            &[Arg::Value(&img.to_value()), Arg::Float(amount as f64)],
        )?
        .expect("returns"))
}

static MODULATE: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
    Annotation::new("modulate", |inv| {
        let img = img_piece(inv, 0)?;
        let b = inv.float(1)? as f32;
        let s = inv.float(2)? as f32;
        let h = inv.float(3)? as f32;
        Ok(Some(DataValue::new(ImgValue(imagelib::modulate(
            &img, b, s, h,
        )))))
    })
    .arg("img", generic(0))
    .arg("brightness", missing())
    .arg("saturation", missing())
    .arg("hue", missing())
    .ret(generic(0))
    .build()
});

/// Annotated HSV modulation (percentages, 100 = unchanged).
pub fn modulate(
    ctx: &MozartContext,
    img: &impl ImgArg,
    brightness: f32,
    saturation: f32,
    hue: f32,
) -> Result<FutureHandle> {
    Ok(ctx
        .call(
            &MODULATE,
            &[
                Arg::Value(&img.to_value()),
                Arg::Float(brightness as f64),
                Arg::Float(saturation as f64),
                Arg::Float(hue as f64),
            ],
        )?
        .expect("returns"))
}

static COLORIZE: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
    Annotation::new("colorize", |inv| {
        let img = img_piece(inv, 0)?;
        let r = inv.float(1)? as f32;
        let g = inv.float(2)? as f32;
        let b = inv.float(3)? as f32;
        let alpha = inv.float(4)? as f32;
        Ok(Some(DataValue::new(ImgValue(imagelib::colorize(
            &img,
            [r, g, b],
            alpha,
        )))))
    })
    .arg("img", generic(0))
    .arg("r", missing())
    .arg("g", missing())
    .arg("b", missing())
    .arg("alpha", missing())
    .ret(generic(0))
    .build()
});

/// Annotated color blend at `alpha` opacity.
pub fn colorize(
    ctx: &MozartContext,
    img: &impl ImgArg,
    rgb: [f32; 3],
    alpha: f32,
) -> Result<FutureHandle> {
    Ok(ctx
        .call(
            &COLORIZE,
            &[
                Arg::Value(&img.to_value()),
                Arg::Float(rgb[0] as f64),
                Arg::Float(rgb[1] as f64),
                Arg::Float(rgb[2] as f64),
                Arg::Float(alpha as f64),
            ],
        )?
        .expect("returns"))
}

static COLORTONE: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
    Annotation::new("colortone", |inv| {
        let img = img_piece(inv, 0)?;
        let r = inv.float(1)? as f32;
        let g = inv.float(2)? as f32;
        let b = inv.float(3)? as f32;
        let negate = inv.int(4)? != 0;
        Ok(Some(DataValue::new(ImgValue(imagelib::colortone(
            &img,
            [r, g, b],
            negate,
        )))))
    })
    .arg("img", generic(0))
    .arg("r", missing())
    .arg("g", missing())
    .arg("b", missing())
    .arg("negate", missing())
    .ret(generic(0))
    .build()
});

/// Annotated colortone (multiply/screen overlay).
pub fn colortone(
    ctx: &MozartContext,
    img: &impl ImgArg,
    rgb: [f32; 3],
    negate: bool,
) -> Result<FutureHandle> {
    Ok(ctx
        .call(
            &COLORTONE,
            &[
                Arg::Value(&img.to_value()),
                Arg::Float(rgb[0] as f64),
                Arg::Float(rgb[1] as f64),
                Arg::Float(rgb[2] as f64),
                Arg::Int(negate as i64),
            ],
        )?
        .expect("returns"))
}

static LEVELS: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
    Annotation::new("levels", |inv| {
        let img = img_piece(inv, 0)?;
        let black = inv.float(1)? as f32;
        let white = inv.float(2)? as f32;
        Ok(Some(DataValue::new(ImgValue(imagelib::levels(
            &img, black, white,
        )))))
    })
    .arg("img", generic(0))
    .arg("black", missing())
    .arg("white", missing())
    .ret(generic(0))
    .build()
});

/// Annotated linear level mapping.
pub fn levels(
    ctx: &MozartContext,
    img: &impl ImgArg,
    black: f32,
    white: f32,
) -> Result<FutureHandle> {
    Ok(ctx
        .call(
            &LEVELS,
            &[
                Arg::Value(&img.to_value()),
                Arg::Float(black as f64),
                Arg::Float(white as f64),
            ],
        )?
        .expect("returns"))
}

/// Every annotation this integration defines, in declaration order —
/// the walk surface for static tooling (`mozart-check`).
pub fn annotations() -> Vec<Arc<Annotation>> {
    vec![
        GRAYSCALE.clone(),
        INVERT.clone(),
        SEPIA.clone(),
        GAMMA.clone(),
        CONTRAST.clone(),
        MODULATE.clone(),
        COLORIZE.clone(),
        COLORTONE.clone(),
        LEVELS.clone(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The split type's placement capability.
    fn placement() -> &'static dyn Placement {
        ImageSplit.merge_strategy().placement().unwrap()
    }

    fn ctx() -> MozartContext {
        register_defaults();
        let mut cfg = Config::with_workers(2);
        cfg.batch_override = Some(5);
        MozartContext::new(cfg)
    }

    #[test]
    fn split_merge_roundtrip() {
        let s = ImageSplit;
        let img = Image::synthetic(12, 17, 1);
        let arg = DataValue::new(ImgValue(img.clone()));
        let params = s.construct(&[&arg]).unwrap();
        assert_eq!(params, vec![17, 12]);
        let p1 = s.split(&arg, 0..9, &params).unwrap().unwrap();
        let p2 = s.split(&arg, 9..17, &params).unwrap().unwrap();
        let merged = s.merge(vec![p1, p2], &params, 17).unwrap();
        let out = merged.downcast_ref::<ImgValue>().unwrap();
        assert_eq!(out.0.mean_abs_diff(&img), 0.0);
        assert!(s.split(&arg, 17..20, &params).unwrap().is_none());
    }

    #[test]
    fn view_split_matches_copying_crop_pixel_for_pixel() {
        let p = placement();
        // The ImageRows view path must be indistinguishable from the
        // paper's crop-clone split, and the placement merge from the
        // copying append.
        let s = ImageSplit;
        let img = Image::synthetic(10, 23, 4);
        let arg = DataValue::new(ImgValue(img.clone()));
        let params = s.construct(&[&arg]).unwrap();
        let ranges = [(0u64, 7u64), (7, 16), (16, 23)];
        let mut views = Vec::new();
        for &(a, b) in &ranges {
            let piece = s.split(&arg, a..b, &params).unwrap().unwrap();
            let v = piece.downcast_ref::<ImgValue>().unwrap();
            let crop = img.crop_rows(a as usize, b as usize);
            assert_eq!(v.0.data(), crop.data(), "view rows [{a}, {b})");
            views.push(piece);
        }
        // Placement: allocate from the first piece, write out of order.
        let out = p
            .alloc_merged(23, &params, Some(&views[0]))
            .unwrap()
            .expect("ImageSplit supports placement");
        for (&(a, _), piece) in ranges.iter().zip(&views).rev() {
            p.write_piece(&out, a, piece).unwrap();
        }
        let placed = out.downcast_ref::<ImgValue>().unwrap();
        assert_eq!(placed.0.mean_abs_diff(&img), 0.0);
        // Copying fallback agrees.
        let merged = s.merge(views, &params, 23).unwrap();
        let appended = merged.downcast_ref::<ImgValue>().unwrap();
        assert_eq!(appended.0.mean_abs_diff(&img), 0.0);
    }

    #[test]
    fn placement_on_and_off_produce_identical_pipelines() {
        // Placement on is the runtime; off is the plain library, which
        // splits and merges nothing. The pixels must agree bit for bit.
        register_defaults();
        let img = Image::synthetic(33, 57, 13);
        let mut cfg = Config::with_workers(3);
        cfg.batch_override = Some(5);
        let c = MozartContext::new(cfg);
        let t = colortone(&c, &img, [0.13, 0.17, 0.43], false).unwrap();
        let t = gamma(&c, &t, 1.3).unwrap();
        let on = get_image(&t).unwrap();
        let off = imagelib::gamma(&imagelib::colortone(&img, [0.13, 0.17, 0.43], false), 1.3);
        assert_eq!(on.data(), off.data(), "placement must not change pixels");
        let stats = c.stats();
        assert!(
            stats.placement_writes > 0,
            "placement path engaged: {stats:?}"
        );
    }

    #[test]
    fn filter_pipeline_matches_direct() {
        let c = ctx();
        let img = Image::synthetic(24, 31, 7);
        // A Nashville-like chain.
        let t = colortone(&c, &img, [0.13, 0.17, 0.43], false).unwrap();
        let t = gamma(&c, &t, 1.3).unwrap();
        let t = modulate(&c, &t, 100.0, 150.0, 100.0).unwrap();
        let out = get_image(&t).unwrap();

        let direct = imagelib::modulate(
            &imagelib::gamma(&imagelib::colortone(&img, [0.13, 0.17, 0.43], false), 1.3),
            100.0,
            150.0,
            100.0,
        );
        assert!(out.mean_abs_diff(&direct) < 1e-6);
        assert_eq!(c.stats().stages, 1, "per-pixel chain pipelines");
    }

    #[test]
    fn remaining_wrappers_match_direct() {
        let c = ctx();
        let img = Image::synthetic(10, 13, 3);
        assert!(
            get_image(&grayscale(&c, &img).unwrap())
                .unwrap()
                .mean_abs_diff(&imagelib::grayscale(&img))
                < 1e-7
        );
        assert!(
            get_image(&invert(&c, &img).unwrap())
                .unwrap()
                .mean_abs_diff(&imagelib::invert(&img))
                < 1e-7
        );
        assert!(
            get_image(&sepia(&c, &img).unwrap())
                .unwrap()
                .mean_abs_diff(&imagelib::sepia(&img))
                < 1e-7
        );
        assert!(
            get_image(&contrast(&c, &img, 4.0).unwrap())
                .unwrap()
                .mean_abs_diff(&imagelib::contrast(&img, 4.0))
                < 1e-6
        );
        assert!(
            get_image(&levels(&c, &img, 0.1, 0.9).unwrap())
                .unwrap()
                .mean_abs_diff(&imagelib::levels(&img, 0.1, 0.9))
                < 1e-6
        );
        assert!(
            get_image(&colorize(&c, &img, [0.5, 0.1, 0.9], 0.4).unwrap())
                .unwrap()
                .mean_abs_diff(&imagelib::colorize(&img, [0.5, 0.1, 0.9], 0.4))
                < 1e-7
        );
    }
    /// One Nashville-like evaluation on a fresh context attached to the
    /// shared plan cache (what `mozart-serve` does per request): the
    /// result image and the evaluation's stats.
    fn warm_eval(
        cache: &Arc<PlanCache>,
        workers: usize,
        img: &Image,
    ) -> (Image, mozart_core::PhaseStats) {
        register_defaults();
        let mut cfg = Config::with_workers(workers);
        cfg.batch_override = Some(5);
        let c = MozartContext::new(cfg);
        c.attach_plan_cache(cache.clone());
        let t = colortone(&c, img, [0.13, 0.17, 0.43], false).unwrap();
        let t = gamma(&c, &t, 1.3).unwrap();
        let out = get_image(&t).unwrap();
        drop(t);
        (out, c.stats())
    }

    #[test]
    fn released_result_image_is_reused_and_a_held_one_is_left_alone() {
        let img = Image::synthetic(33, 57, 13);
        let direct = imagelib::gamma(&imagelib::colortone(&img, [0.13, 0.17, 0.43], false), 1.3);
        for workers in [1, 2] {
            let cache = Arc::new(PlanCache::new(8));
            // Cold cache: allocate.
            let (first, stats) = warm_eval(&cache, workers, &img);
            assert_eq!(
                (stats.merge_targets_reused, stats.merge_targets_allocated),
                (0, 1)
            );
            assert_eq!(first.data(), direct.data(), "cold result");
            // `first` is still held: the parked target is shared, so
            // the next evaluation allocates and `first` is untouched.
            let (second, stats) = warm_eval(&cache, workers, &img);
            assert_eq!(stats.merge_targets_reused, 0, "{workers} workers");
            assert_ne!(first.data().as_ptr(), second.data().as_ptr());
            assert_eq!(first.data(), direct.data(), "held result is bit-identical");
            // Dropped first: the next evaluation writes over the same
            // pixels, bit-identically to the cold result.
            let addr = second.data().as_ptr();
            drop((first, second));
            let (third, stats) = warm_eval(&cache, workers, &img);
            assert_eq!(
                (stats.merge_targets_reused, stats.merge_targets_allocated),
                (1, 0),
                "{workers} workers"
            );
            assert_eq!(third.data().as_ptr(), addr, "same storage");
            assert_eq!(third.data(), direct.data(), "warm result");
            // Another geometry is another plan: nothing to reuse.
            let (_, stats) = warm_eval(&cache, workers, &Image::synthetic(33, 40, 1));
            assert_eq!(stats.merge_targets_reused, 0);
        }
    }

    #[test]
    fn reuse_takes_only_an_exclusive_whole_target_of_the_right_geometry() {
        let p = placement();
        let s = ImageSplit;
        let params = vec![20, 7];
        let fresh = || p.alloc_merged(20, &params, None).unwrap().unwrap();
        let fill = |out: &DataValue| {
            let band = DataValue::new(ImgValue(Image::synthetic(7, 20, 3)));
            p.write_piece(out, 0, &band).unwrap();
        };
        let pixels = |v: &DataValue| v.downcast_ref::<ImgValue>().unwrap().0.data().as_ptr();

        // Exclusive, whole, right geometry: handed back as is.
        let out = fresh();
        let addr = pixels(&out);
        let reused = p.reuse(out, 20, &params, None).expect("exclusive target");
        assert_eq!(pixels(&reused), addr);

        // An application clone of the image, or of the value handle.
        let out = fresh();
        let held = out.downcast_ref::<ImgValue>().unwrap().0.clone();
        assert!(p.reuse(out, 20, &params, None).is_none());
        drop(held);
        let out = fresh();
        let handle = out.clone();
        assert!(p.reuse(out, 20, &params, None).is_none());
        drop(handle);

        // A NULL-split tail: the stored value is a view of the prefix.
        let out = fresh();
        fill(&out);
        let truncated = p.truncate_merged(out, 12, &params).unwrap();
        assert!(p.reuse(truncated, 20, &params, None).is_none());
        assert!(
            p.reuse(fresh(), 12, &params, None).is_none(),
            "other height"
        );
        assert!(
            p.reuse(fresh(), 20, &vec![20, 9], None).is_none(),
            "other width"
        );

        // A coalesced output whose per-request `slice_back` band lives.
        let out = fresh();
        fill(&out);
        let band = Concat::slice_back(&s, &out, 5, 10).unwrap();
        assert!(p.reuse(out, 20, &params, None).is_none());
        drop(band);
    }

    #[test]
    fn merge_of_mismatched_pieces_is_a_merge_error() {
        // `Image::append_rows` asserts on the width; the merge checks it
        // first.
        let s = ImageSplit;
        let band = |w| DataValue::new(ImgValue(Image::synthetic(w, 2, 1)));
        let err = s.merge(vec![band(4), band(5)], &vec![4, 4], 4).unwrap_err();
        assert!(
            matches!(
                err,
                Error::Merge {
                    split_type: "ImageSplit",
                    ..
                }
            ),
            "{err:?}"
        );
    }
}
