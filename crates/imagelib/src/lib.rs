//! # imagelib — an ImageMagick-style image processing library
//!
//! The reproduction's stand-in for ImageMagick's `MagickWand` API (§7):
//! an opaque image handle, per-pixel color operators (gamma, modulate,
//! contrast, colorize, colortone, ...), a row-range **crop** and a
//! vertical **append** — the two structural operations the `sa-image`
//! annotator builds its split type from — and a Gaussian [`ops::blur`]
//! whose edge boundary condition makes it deliberately *not* annotatable
//! (the paper's §7.1 example).
//!
//! Like ImageMagick, it is a hand-optimized library, so the paper's
//! Figures 4n–o show what Mozart adds by moving less data, not by
//! making its operators faster. Every color operator is one loop over a
//! kernel from [`pixel`]: branch-free `f32` functions with no libm
//! call, run at the host's vector width behind one CPU-feature dispatch
//! point ([`image::map_rgb_channels`] for kernels that map each channel
//! on its own, [`image::map_rgb`] for those that mix a pixel's
//! channels). A pixel's bits do not depend on that width, the tile, the
//! row band or the internal thread count, and the [`pixel`] docs state
//! each kernel's accuracy.
//!
//! The library knows nothing about Mozart.

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

#[path = "../../cells.rs"]
mod cells;
pub mod image;
pub mod ops;
pub mod pixel;
#[path = "../../vector_width.rs"]
mod width;

pub use image::{num_threads, set_num_threads, Image};
pub use ops::{
    blur, colorize, colortone, contrast, gamma, grayscale, invert, levels, modulate, sepia,
};
