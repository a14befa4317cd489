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
//! * **splits are zero-copy** — [`ImageSplit::split`] hands out
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
//! `imagelib::blur` is deliberately **not** annotated: its edge
//! boundary condition violates the SA correctness condition (§7.1).

#![warn(missing_docs)]

use std::ops::Range;
use std::sync::{Arc, LazyLock};

use imagelib::Image;
use mozart_core::annotation::{generic, missing};
use mozart_core::prelude::*;
use mozart_core::split::{Concat, MergeStrategy, Placement};

/// `DataValue` wrapper for [`Image`].
#[derive(Debug, Clone)]
pub struct ImgValue(pub Image);

impl mozart_core::value::DataObject for ImgValue {
    fn type_name(&self) -> &'static str {
        "ImgValue"
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Row-band split type for images. Parameters: `(height, width)`.
pub struct ImageSplit;

impl ImageSplit {
    /// Shared instance.
    pub fn shared() -> Arc<dyn Splitter> {
        Arc::new(ImageSplit)
    }
}

impl Splitter for ImageSplit {
    fn name(&self) -> &'static str {
        "ImageSplit"
    }

    fn construct(&self, ctor_args: &[&DataValue]) -> Result<Params> {
        let img = ctor_args
            .first()
            .and_then(|v| v.downcast_ref::<ImgValue>())
            .ok_or_else(|| Error::Constructor {
                split_type: "ImageSplit",
                message: "expected an image argument".into(),
            })?;
        Ok(vec![img.0.height() as i64, img.0.width() as i64])
    }

    fn info(&self, _arg: &DataValue, params: &Params) -> Result<RuntimeInfo> {
        let h = params.first().copied().unwrap_or(0).max(0) as u64;
        let w = params.get(1).copied().unwrap_or(0).max(0) as u64;
        Ok(RuntimeInfo {
            total_elements: h,
            elem_size_bytes: w * (Image::CHANNELS as u64) * 4,
        })
    }

    fn split(
        &self,
        arg: &DataValue,
        range: Range<u64>,
        params: &Params,
    ) -> Result<Option<DataValue>> {
        let img = arg.downcast_ref::<ImgValue>().ok_or_else(|| Error::Split {
            split_type: "ImageSplit",
            message: format!("expected ImgValue, got {}", arg.type_name()),
        })?;
        let h = params.first().copied().unwrap_or(0).max(0) as u64;
        if img.0.height() as u64 != h {
            return Err(Error::Split {
                split_type: "ImageSplit",
                message: format!(
                    "image height {} does not match split type parameter {h}",
                    img.0.height()
                ),
            });
        }
        if range.start >= h {
            return Ok(None);
        }
        let end = range.end.min(h);
        // Zero-copy row view (the paper's crop clones here; see the
        // module docs on why this integration does not).
        Ok(Some(DataValue::new(ImgValue(
            img.0.rows(range.start as usize, end as usize),
        ))))
    }

    fn merge(
        &self,
        pieces: Vec<DataValue>,
        _params: &Params,
        _total_elements: u64,
    ) -> Result<DataValue> {
        Ok(DataValue::new(ImgValue(Image::append_rows(&band_pieces(
            &pieces,
        )?))))
    }

    /// Row concatenation with placement: the `(height, width)`
    /// parameters fully determine the output layout.
    fn merge_strategy(&self) -> MergeStrategy {
        MergeStrategy::Concat {
            placement: Some(Arc::new(ImageSplit)),
        }
    }

    fn concat(&self) -> Option<Arc<dyn Concat>> {
        Some(Arc::new(ImageSplit))
    }
}

impl Placement for ImageSplit {
    fn alloc_merged(
        &self,
        total_elements: u64,
        params: &Params,
        _exemplar: Option<&DataValue>,
    ) -> Result<Option<DataValue>> {
        // `(height, width)` parameters fully determine the output
        // layout, so the image allocates at stage start — on the
        // caller, while the pool is parked, where its first-touch page
        // faults run uncontended — and the exemplar is not needed. A
        // function that changes the image geometry under this split
        // type violates the annotation (split type equality is
        // `(h, w)`); `write_piece` rejects its bands with a
        // descriptive error instead of the width-mismatch panic the
        // append fallback would raise.
        let width = params.get(1).copied().unwrap_or(0).max(0) as usize;
        if width == 0 {
            return Ok(None);
        }
        // SAFETY: the executor's coverage check guarantees every row of
        // the placement output is written before the merged value is
        // released (or it is truncated to a view of the written
        // prefix), so the unspecified initial contents are never read.
        let img = unsafe { Image::alloc_rows_uninit(width, total_elements as usize) };
        Ok(Some(DataValue::new(ImgValue(img))))
    }

    fn reuse(
        &self,
        spare: DataValue,
        total_elements: u64,
        params: &Params,
        _exemplar: Option<&DataValue>,
    ) -> Option<DataValue> {
        let mut img = spare.downcast_ref::<ImgValue>()?.0.clone();
        // Let go of the wrapper first: if it was the last one, `img` is
        // now the only handle a sole owner of the pixels would have.
        drop(spare);
        // The layout `alloc_merged` would produce, held by nobody else:
        // not the application's clone of the previous result, not a
        // row view, not a coalesced request's `slice_back` band.
        let width = params.get(1).copied().unwrap_or(0).max(0) as usize;
        (width > 0
            && img.width() == width
            && img.height() as u64 == total_elements
            && img.is_exclusive())
        .then(|| DataValue::new(ImgValue(img)))
    }

    fn write_piece(&self, out: &DataValue, offset: u64, piece: &DataValue) -> Result<u64> {
        let dst = out.downcast_ref::<ImgValue>().ok_or_else(|| Error::Merge {
            split_type: "ImageSplit",
            message: format!("placement output is {}, not ImgValue", out.type_name()),
        })?;
        let band = piece
            .downcast_ref::<ImgValue>()
            .ok_or_else(|| Error::Merge {
                split_type: "ImageSplit",
                message: format!("expected ImgValue piece, got {}", piece.type_name()),
            })?;
        let offset = offset as usize;
        if band.0.width() != dst.0.width()
            || offset
                .checked_add(band.0.height())
                .is_none_or(|e| e > dst.0.height())
        {
            return Err(Error::Merge {
                split_type: "ImageSplit",
                message: format!(
                    "band {}x{} at row {offset} does not fit output {}x{}",
                    band.0.width(),
                    band.0.height(),
                    dst.0.width(),
                    dst.0.height()
                ),
            });
        }
        // SAFETY: the executor guarantees concurrent `write_piece` calls
        // cover disjoint row ranges of the not-yet-observable output.
        unsafe { dst.0.write_rows_from(offset, &band.0) };
        Ok(band.0.height() as u64)
    }

    fn truncate_merged(
        &self,
        out: DataValue,
        elements: u64,
        _params: &Params,
    ) -> Result<DataValue> {
        let img = out.downcast_ref::<ImgValue>().ok_or_else(|| Error::Merge {
            split_type: "ImageSplit",
            message: format!("placement output is {}, not ImgValue", out.type_name()),
        })?;
        // NULL-split tail: the written prefix as a zero-copy row view.
        let rows = (elements as usize).min(img.0.height());
        Ok(DataValue::new(ImgValue(img.0.rows(0, rows))))
    }
}

impl Concat for ImageSplit {
    fn concat(&self, values: &[DataValue]) -> Result<(DataValue, Vec<u64>)> {
        let bands = band_pieces(values)?;
        if bands.is_empty() {
            return Err(Error::Merge {
                split_type: "ImageSplit",
                message: "nothing to concatenate".into(),
            });
        }
        if bands[1..].iter().any(|b| b.width() != bands[0].width()) {
            return Err(Error::Merge {
                split_type: "ImageSplit",
                message: "width mismatch across concatenated images".into(),
            });
        }
        let mut offsets = Vec::with_capacity(bands.len());
        let mut rows = 0u64;
        for b in &bands {
            offsets.push(rows);
            rows += b.height() as u64;
        }
        Ok((
            DataValue::new(ImgValue(Image::append_rows(&bands))),
            offsets,
        ))
    }

    fn slice_back(&self, out: &DataValue, offset: u64, len: u64) -> Result<DataValue> {
        let img = out.downcast_ref::<ImgValue>().ok_or_else(|| Error::Merge {
            split_type: "ImageSplit",
            message: format!("expected ImgValue, got {}", out.type_name()),
        })?;
        let (offset, len) = (offset as usize, len as usize);
        if offset.checked_add(len).is_none_or(|e| e > img.0.height()) {
            return Err(Error::Merge {
                split_type: "ImageSplit",
                message: format!(
                    "slice [{offset}, {offset}+{len}) exceeds {} rows",
                    img.0.height()
                ),
            });
        }
        // Zero-copy row view of the requested band.
        Ok(DataValue::new(ImgValue(img.0.rows(offset, offset + len))))
    }
}

fn band_pieces(pieces: &[DataValue]) -> Result<Vec<Image>> {
    pieces
        .iter()
        .map(|p| {
            p.downcast_ref::<ImgValue>()
                .map(|i| i.0.clone())
                .ok_or_else(|| Error::Merge {
                    split_type: "ImageSplit",
                    message: format!("expected ImgValue piece, got {}", p.type_name()),
                })
        })
        .collect()
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
            Ok(ctx.call(&$annot, vec![img.to_value()])?.expect("returns"))
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
        .call(
            &GAMMA,
            vec![img.to_value(), DataValue::new(FloatValue(g as f64))],
        )?
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
            vec![img.to_value(), DataValue::new(FloatValue(amount as f64))],
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
            vec![
                img.to_value(),
                DataValue::new(FloatValue(brightness as f64)),
                DataValue::new(FloatValue(saturation as f64)),
                DataValue::new(FloatValue(hue as f64)),
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
            vec![
                img.to_value(),
                DataValue::new(FloatValue(rgb[0] as f64)),
                DataValue::new(FloatValue(rgb[1] as f64)),
                DataValue::new(FloatValue(rgb[2] as f64)),
                DataValue::new(FloatValue(alpha as f64)),
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
            vec![
                img.to_value(),
                DataValue::new(FloatValue(rgb[0] as f64)),
                DataValue::new(FloatValue(rgb[1] as f64)),
                DataValue::new(FloatValue(rgb[2] as f64)),
                DataValue::new(IntValue(negate as i64)),
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
            vec![
                img.to_value(),
                DataValue::new(FloatValue(black as f64)),
                DataValue::new(FloatValue(white as f64)),
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

    fn ctx() -> MozartContext {
        register_defaults();
        let mut cfg = Config::with_workers(2);
        cfg.batch_override = Some(5);
        cfg.pedantic = true;
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
        let out = s
            .alloc_merged(23, &params, Some(&views[0]))
            .unwrap()
            .expect("ImageSplit supports placement");
        for (&(a, _), piece) in ranges.iter().zip(&views).rev() {
            s.write_piece(&out, a, piece).unwrap();
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
        cfg.pedantic = true;
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
        cfg.pedantic = true;
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
        let s = ImageSplit;
        let params = vec![20, 7];
        let fresh = || s.alloc_merged(20, &params, None).unwrap().unwrap();
        let fill = |out: &DataValue| {
            let band = DataValue::new(ImgValue(Image::synthetic(7, 20, 3)));
            s.write_piece(out, 0, &band).unwrap();
        };
        let pixels = |v: &DataValue| v.downcast_ref::<ImgValue>().unwrap().0.data().as_ptr();

        // Exclusive, whole, right geometry: handed back as is.
        let out = fresh();
        let addr = pixels(&out);
        let reused = s.reuse(out, 20, &params, None).expect("exclusive target");
        assert_eq!(pixels(&reused), addr);

        // An application clone of the image, or of the value handle.
        let out = fresh();
        let held = out.downcast_ref::<ImgValue>().unwrap().0.clone();
        assert!(s.reuse(out, 20, &params, None).is_none());
        drop(held);
        let out = fresh();
        let handle = out.clone();
        assert!(s.reuse(out, 20, &params, None).is_none());
        drop(handle);

        // A NULL-split tail: the stored value is a view of the prefix.
        let out = fresh();
        fill(&out);
        let truncated = s.truncate_merged(out, 12, &params).unwrap();
        assert!(s.reuse(truncated, 20, &params, None).is_none());
        assert!(
            s.reuse(fresh(), 12, &params, None).is_none(),
            "other height"
        );
        assert!(
            s.reuse(fresh(), 20, &vec![20, 9], None).is_none(),
            "other width"
        );

        // A coalesced output whose per-request `slice_back` band lives.
        let out = fresh();
        fill(&out);
        let band = Concat::slice_back(&s, &out, 5, 10).unwrap();
        assert!(s.reuse(out, 20, &params, None).is_none());
        drop(band);
    }
}
