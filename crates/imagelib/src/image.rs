//! The [`Image`] type and its structural API.
//!
//! Mirrors the parts of ImageMagick's `MagickWand` API the paper's
//! integration uses (§7): images are opaque handles; the library offers
//! a **crop** that clones a row range out of an image and an **append**
//! that stacks images vertically — exactly the two operations the
//! annotator builds the split type from. Like the real library, crop
//! and append allocate and copy — which is why the paper reports split/
//! merge overheads dominating the ImageMagick workloads (§8.2).
//!
//! Beyond the wand API, the library also exposes the structural
//! operations a zero-overhead splitter needs (the "ImageRows" path):
//!
//! * [`Image::rows`] — a zero-copy row-band *view* sharing the parent
//!   pixel buffer (like a DataFrame column slice), replacing the
//!   copying crop on the split side;
//! * [`Image::alloc_rows`] + [`Image::write_rows_from`] — a
//!   preallocated image that disjoint row bands can be written into
//!   from multiple threads, replacing the copying append on the merge
//!   side (placement merging).
//!
//! Every color operator is one of two loops over a new image:
//! `Image::map_channels` for kernels that map each channel on its own,
//! `Image::map_pixels` for kernels that mix a pixel's channels. Each
//! writes its output once, into the new image's uninitialized buffer,
//! one range of pixels per internal thread, and each range runs through
//! [`map_rgb_channels`] or [`map_rgb`]: the kernel loop at the host's
//! vector width, behind the library's one CPU-feature dispatch point
//! ([`Width`]): 16 channels per instruction under AVX-512, 8 under AVX2
//! and 4 at the baseline target (SSE2). See [`crate::pixel`] for the
//! kernels and why their bits do not depend on any of it.
//!
//! Pixels sit on the cell store every base library's buffer sits on
//! (`crates/cells.rs`, compiled in as the private `cells` module), so
//! disjoint row bands can be written in parallel under that store's
//! band-write contract: disjoint ranges across threads, and no reader
//! until the image is complete.

use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::cells::Cells;
use crate::pixel;
#[doc(hidden)]
pub use crate::width::Width;

static THREADS: AtomicUsize = AtomicUsize::new(1);

/// Set the library's internal thread count. Like ImageMagick, the
/// library parallelizes each operator internally; the paper's
/// Figures 4n-o compare Mozart against exactly this baseline.
pub fn set_num_threads(n: usize) {
    THREADS.store(n.max(1), Ordering::SeqCst);
}

/// Current internal thread count.
pub fn num_threads() -> usize {
    THREADS.load(Ordering::Relaxed)
}

/// An RGB image with `f32` channels in `[0, 1]`, row-major interleaved.
///
/// Cloning is O(1) (shared storage); all pixel operators return new
/// images (the wand convention of "clone then operate" without exposing
/// mutation to the annotator). An `Image` may be a zero-copy row *view*
/// of a larger image (see [`Image::rows`]); views and owners are
/// indistinguishable to every operator.
#[derive(Clone)]
pub struct Image {
    width: usize,
    height: usize,
    /// First buffer row of this view.
    row_start: usize,
    data: Arc<Cells<f32>>,
}

impl Image {
    /// Number of `f32` channels per pixel.
    pub const CHANNELS: usize = 3;

    /// Build from interleaved RGB data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height * 3`.
    pub fn from_rgb(width: usize, height: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            width * height * Self::CHANNELS,
            "image data size mismatch"
        );
        Self::adopt(width, height, Cells::from_vec(data))
    }

    /// An image of all of `cells`.
    fn adopt(width: usize, height: usize, cells: Cells<f32>) -> Self {
        Image {
            width,
            height,
            row_start: 0,
            data: Arc::new(cells),
        }
    }

    /// Allocate a zeroed image of the given dimensions, for use as a
    /// placement-merge target: disjoint row bands of it can be filled
    /// in parallel with [`Image::write_rows_from`]. One zeroed
    /// allocation (`calloc`), adopted without a pass over it.
    pub fn alloc_rows(width: usize, height: usize) -> Self {
        Self::from_rgb(width, height, vec![0.0; width * height * Self::CHANNELS])
    }

    /// [`Image::alloc_rows`] without the zeroing pass: the pixel buffer
    /// has *unspecified* contents, with every page faulted in so
    /// parallel [`Image::write_rows_from`] calls are pure memory copies
    /// (no first-touch page faults, which would otherwise serialize on
    /// kernel page-table locks under concurrent writers).
    ///
    /// # Safety
    ///
    /// The caller must write every row (via [`Image::write_rows_from`])
    /// before any read of it — including reads through row views that
    /// survive the image, so a partially-filled image may only be
    /// observed through views restricted to its written rows.
    pub unsafe fn alloc_rows_uninit(width: usize, height: usize) -> Self {
        let n = width * height * Self::CHANNELS;
        // SAFETY: forwarded contract.
        Self::adopt(width, height, unsafe { Cells::uninit(n, |_, _| {}) })
    }

    /// Solid-color image.
    pub fn solid(width: usize, height: usize, rgb: [f32; 3]) -> Self {
        let mut data = Vec::with_capacity(width * height * Self::CHANNELS);
        for _ in 0..width * height {
            data.extend_from_slice(&rgb);
        }
        Self::from_rgb(width, height, data)
    }

    /// Deterministic synthetic test image (smooth gradients + texture),
    /// standing in for the photographs the instagram-filter workloads
    /// process.
    pub fn synthetic(width: usize, height: usize, seed: u64) -> Self {
        let mut data = Vec::with_capacity(width * height * Self::CHANNELS);
        let s = seed as f32 * 0.001;
        for y in 0..height {
            for x in 0..width {
                let fx = x as f32 / width as f32;
                let fy = y as f32 / height as f32;
                let tex = ((x * 31 + y * 17) % 97) as f32 / 97.0;
                data.push((fx * 0.8 + tex * 0.2 + s).fract());
                data.push((fy * 0.7 + fx * 0.2 + tex * 0.1 + s).fract());
                data.push(((fx + fy) * 0.4 + tex * 0.3 + s).fract());
            }
        }
        Self::from_rgb(width, height, data)
    }

    /// Whether this handle is the only reference to its pixel buffer
    /// and views all of it: no clone and no [`Image::rows`] view of the
    /// buffer is alive anywhere, and the handle is not itself a band of
    /// a larger image. `Arc::get_mut`-exact, so a `true` cannot go
    /// stale while the caller keeps the handle to itself — what a
    /// runtime checks before refilling a released placement target
    /// through [`Image::write_rows_from`].
    pub fn is_exclusive(&mut self) -> bool {
        let whole = self.width * self.height * Self::CHANNELS;
        self.row_start == 0 && Arc::get_mut(&mut self.data).is_some_and(|b| b.len() == whole)
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The interleaved channel data of this view's rows.
    pub fn data(&self) -> &[f32] {
        let stride = self.width * Self::CHANNELS;
        // SAFETY: a view's rows lie inside its store, and no band write
        // is in flight over an image anyone can read (the band-write
        // contract).
        unsafe {
            self.data
                .slice(self.row_start * stride, self.height * stride)
        }
    }

    /// Pixel at `(x, y)`.
    pub fn pixel(&self, x: usize, y: usize) -> [f32; 3] {
        let d = self.data();
        let i = (y * self.width + x) * Self::CHANNELS;
        [d[i], d[i + 1], d[i + 2]]
    }

    /// Zero-copy view of rows `[y0, y1)`: the returned image shares
    /// this image's pixel buffer (the "ImageRows" path the zero-overhead
    /// splitter uses instead of the copying crop).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn rows(&self, y0: usize, y1: usize) -> Image {
        assert!(y0 <= y1 && y1 <= self.height, "row range out of bounds");
        Image {
            width: self.width,
            height: y1 - y0,
            row_start: self.row_start + y0,
            data: Arc::clone(&self.data),
        }
    }

    /// Clone rows `[y0, y1)` into a new image (the `MagickWand` crop).
    /// Copies, like the real API; splitters use [`Image::rows`].
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn crop_rows(&self, y0: usize, y1: usize) -> Image {
        assert!(y0 <= y1 && y1 <= self.height, "crop range out of bounds");
        let stride = self.width * Self::CHANNELS;
        Image::from_rgb(
            self.width,
            y1 - y0,
            self.data()[y0 * stride..y1 * stride].to_vec(),
        )
    }

    /// Copy all rows of `src` into this image starting at row `y0`
    /// (the placement-merge write: the parallel, in-place counterpart
    /// of [`Image::append_rows`]).
    ///
    /// # Panics
    ///
    /// Panics on width mismatch or an out-of-bounds row range.
    ///
    /// # Safety
    ///
    /// The cell store's band-write contract (see the module docs): no
    /// other thread writes the rows `[y0, y0 + src.height())` meanwhile,
    /// and nothing reads them until the image is complete. The Mozart
    /// executor upholds this by handing workers disjoint element ranges
    /// of a not-yet-released image.
    pub unsafe fn write_rows_from(&self, y0: usize, src: &Image) {
        assert_eq!(src.width, self.width, "write_rows_from: width mismatch");
        assert!(
            y0 + src.height <= self.height,
            "write_rows_from: row range out of bounds"
        );
        let stride = self.width * Self::CHANNELS;
        // SAFETY: in bounds per the asserts and the view invariant; the
        // contract is this function's.
        let dst = unsafe {
            self.data
                .band_mut((self.row_start + y0) * stride, src.height * stride)
        };
        dst.copy_from_slice(src.data());
    }

    /// Stack images vertically (the append API the merger uses). The
    /// pixel buffer is allocated once, at the parts' total height.
    ///
    /// # Panics
    ///
    /// Panics on empty input or mismatched widths.
    pub fn append_rows(parts: &[Image]) -> Image {
        assert!(!parts.is_empty(), "append of zero images");
        let width = parts[0].width;
        let height = parts.iter().map(Image::height).sum();
        let mut data = Vec::with_capacity(width * height * Self::CHANNELS);
        for p in parts {
            assert_eq!(p.width, width, "append: width mismatch");
            data.extend_from_slice(p.data());
        }
        Image::from_rgb(width, height, data)
    }

    /// Map every pixel through the pixel kernel `f`, clamping each
    /// output channel to `[0, 1]` (NaN stays NaN): the loop of every
    /// operator that mixes channels, with its kernel from
    /// [`crate::pixel`]. Returns a new image. Each internal thread's
    /// share runs through [`map_rgb`].
    pub(crate) fn map_pixels(&self, f: impl Fn([f32; 3]) -> [f32; 3] + Send + Sync) -> Image {
        self.map_parallel(|src, dst| map_rgb(src, dst, &f))
    }

    /// Map every channel value through the channel kernel `k` (value
    /// `c` of channel `i` goes to `(k.f)(c, k.params[i])`), clamping to
    /// `[0, 1]` (NaN stays NaN): the loop of every operator that maps
    /// channels on their own. Returns a new image. Each internal
    /// thread's share runs through [`map_rgb_channels`].
    pub(crate) fn map_channels<F>(&self, k: pixel::Channelwise<F>) -> Image
    where
        F: Fn(f32, f32) -> f32 + Send + Sync,
    {
        self.map_parallel(|src, dst| map_rgb_channels(src, dst, k.params, &k.f))
    }

    /// A new image of this one's size, its channels written by `run`
    /// from this image's: once the image reaches 2¹⁴ pixels, one whole
    /// range of pixels per internal thread. The output is written once,
    /// into the new image's uninitialized buffer. The kernels see each
    /// pixel alone, so the bits do not depend on the thread count.
    fn map_parallel(&self, run: impl Fn(&[f32], &mut [MaybeUninit<f32>]) + Sync) -> Image {
        let n = self.width * self.height;
        let len = n * Self::CHANNELS;
        let src = self.data();
        let mut out: Vec<f32> = Vec::with_capacity(len);
        let dst = &mut out.spare_capacity_mut()[..len];
        let t = num_threads();
        if t <= 1 || n < PAR_THRESHOLD {
            run(src, dst);
        } else {
            let per = n.div_ceil(t) * Self::CHANNELS;
            let run = &run;
            std::thread::scope(|s| {
                let mut parts = src.chunks(per).zip(dst.chunks_mut(per));
                let last = parts.next_back();
                for (src, dst) in parts {
                    s.spawn(move || run(src, dst));
                }
                if let Some((src, dst)) = last {
                    run(src, dst);
                }
            });
        }
        // SAFETY: `run` wrote every one of the first `len` elements
        // (each range above, together the whole of `dst`).
        unsafe { out.set_len(len) };
        Image::from_rgb(self.width, self.height, out)
    }

    /// Mean absolute per-channel difference against another image
    /// (testing aid).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn mean_abs_diff(&self, other: &Image) -> f32 {
        assert_eq!(self.width, other.width, "diff: width mismatch");
        assert_eq!(self.height, other.height, "diff: height mismatch");
        let d = self.data();
        let n = d.len() as f32;
        d.iter()
            .zip(other.data().iter())
            .map(|(a, b)| (a - b).abs())
            .sum::<f32>()
            / n
    }
}

/// Pixels from which an image is mapped on the internal threads.
const PAR_THRESHOLD: usize = 1 << 14;

/// Pixels per tile of [`map_rgb`]: the three channel arrays of one tile
/// take 768 bytes.
pub const TILE: usize = 64;

/// Map interleaved RGB pixels `src` through the pixel kernel `f` into
/// `dst`, clamping each output channel to `[0, 1]` (NaN stays NaN), at
/// the host's vector width. `dst` is written once, element by element,
/// and never read. One thread; `Image::map_pixels` runs one call per
/// internal thread.
///
/// Each tile of [`TILE`] pixels is copied into three channel arrays,
/// `f` runs across them with the clamp, and the arrays are interleaved
/// into `dst`. With `f` one of [`crate::pixel`]'s branch-free kernels,
/// the middle loop compiles to full-width vector code. Those kernels are
/// `#[inline(always)]` closures; a composition of them must be one too,
/// or the loop calls it once per pixel and stays scalar. Stale lanes
/// past a short last tile are computed and dropped.
///
/// # Panics
///
/// Panics if the lengths differ or are not a whole number of pixels.
pub fn map_rgb<F: Fn([f32; 3]) -> [f32; 3]>(src: &[f32], dst: &mut [MaybeUninit<f32>], f: &F) {
    map_rgb_at(Width::host(), src, dst, f)
}

/// Map interleaved RGB channel values `src` through the channel kernel
/// `f` into `dst`: value `c` of channel `i` goes to `f(c, params[i])`,
/// clamped to `[0, 1]` (NaN stays NaN), at the host's vector width.
/// `dst` is written once and never read. One thread;
/// `Image::map_channels` runs one call per internal thread.
///
/// The channels are mapped where they lie, beside a block of the
/// parameters repeated in the same interleaved order, so there is
/// nothing to shuffle.
///
/// # Panics
///
/// Panics if the lengths differ or are not a whole number of pixels.
pub fn map_rgb_channels<F: Fn(f32, f32) -> f32>(
    src: &[f32],
    dst: &mut [MaybeUninit<f32>],
    params: [f32; 3],
    f: &F,
) {
    map_rgb_channels_at(Width::host(), src, dst, params, f)
}

/// [`map_rgb`] at one arm of the dispatch, for tests that compare the
/// arms.
#[doc(hidden)]
pub fn map_rgb_at<F: Fn([f32; 3]) -> [f32; 3]>(
    width: Width,
    src: &[f32],
    dst: &mut [MaybeUninit<f32>],
    f: &F,
) {
    check_lengths(src, dst);
    width.run(
        #[inline(always)]
        || map_tiles(src, dst, f),
    )
}

/// [`map_rgb_channels`] at one arm of the dispatch, for tests that
/// compare the arms.
#[doc(hidden)]
pub fn map_rgb_channels_at<F: Fn(f32, f32) -> f32>(
    width: Width,
    src: &[f32],
    dst: &mut [MaybeUninit<f32>],
    params: [f32; 3],
    f: &F,
) {
    check_lengths(src, dst);
    width.run(
        #[inline(always)]
        || map_flat(src, dst, params, f),
    )
}

fn check_lengths(src: &[f32], dst: &[MaybeUninit<f32>]) {
    assert!(
        src.len() == dst.len() && src.len().is_multiple_of(Image::CHANNELS),
        "map_rgb: {} source and {} output channels",
        src.len(),
        dst.len()
    );
}

#[inline(always)]
fn map_tiles<F: Fn([f32; 3]) -> [f32; 3]>(src: &[f32], dst: &mut [MaybeUninit<f32>], f: &F) {
    let mut lanes = [[0.0f32; TILE]; 3];
    let tile = TILE * Image::CHANNELS;
    for (s, d) in src.chunks(tile).zip(dst.chunks_mut(tile)) {
        let [r, g, b] = &mut lanes;
        for (p, (r, (g, b))) in s
            .chunks_exact(Image::CHANNELS)
            .zip(r.iter_mut().zip(g.iter_mut().zip(b.iter_mut())))
        {
            (*r, *g, *b) = (p[0], p[1], p[2]);
        }
        for (r, (g, b)) in r.iter_mut().zip(g.iter_mut().zip(b.iter_mut())) {
            [*r, *g, *b] = pixel::clamp(f([*r, *g, *b]));
        }
        for (p, (r, (g, b))) in d
            .chunks_exact_mut(Image::CHANNELS)
            .zip(r.iter().zip(g.iter().zip(b.iter())))
        {
            p[0].write(*r);
            p[1].write(*g);
            p[2].write(*b);
        }
    }
}

#[inline(always)]
fn map_flat<F: Fn(f32, f32) -> f32>(
    src: &[f32],
    dst: &mut [MaybeUninit<f32>],
    params: [f32; 3],
    f: &F,
) {
    let mut block = [0.0f32; TILE * Image::CHANNELS];
    for (i, p) in block.iter_mut().enumerate() {
        *p = params[i % Image::CHANNELS];
    }
    for (s, d) in src.chunks(block.len()).zip(dst.chunks_mut(block.len())) {
        for ((c, d), p) in s.iter().zip(d.iter_mut()).zip(&block) {
            d.write(pixel::unit(f(*c, *p)));
        }
    }
}

impl std::fmt::Debug for Image {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Image({}x{})", self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_pixels() {
        let img = Image::solid(2, 2, [0.5, 0.25, 1.0]);
        assert_eq!(img.width(), 2);
        assert_eq!(img.height(), 2);
        assert_eq!(img.pixel(1, 1), [0.5, 0.25, 1.0]);
    }

    #[test]
    fn crop_append_roundtrip() {
        let img = Image::synthetic(8, 10, 42);
        let parts = vec![
            img.crop_rows(0, 3),
            img.crop_rows(3, 7),
            img.crop_rows(7, 10),
        ];
        let merged = Image::append_rows(&parts);
        assert_eq!(merged.width(), 8);
        assert_eq!(merged.height(), 10);
        assert_eq!(merged.mean_abs_diff(&img), 0.0);
    }

    #[test]
    fn rows_view_matches_copying_crop() {
        let img = Image::synthetic(9, 12, 5);
        let view = img.rows(3, 8);
        let crop = img.crop_rows(3, 8);
        assert_eq!(view.height(), 5);
        assert_eq!(view.data(), crop.data(), "view is pixel-identical");
        // Views nest, like column slices.
        let nested = view.rows(1, 4);
        assert_eq!(nested.data(), img.crop_rows(4, 7).data());
        // Operating on a view never touches the parent.
        let _ = crate::invert(&view);
        assert_eq!(img.mean_abs_diff(&Image::synthetic(9, 12, 5)), 0.0);
    }

    #[test]
    fn placement_writes_reassemble_disjoint_bands() {
        let img = Image::synthetic(7, 20, 11);
        let out = Image::alloc_rows(7, 20);
        std::thread::scope(|s| {
            for (y0, y1) in [(10usize, 20usize), (0, 4), (4, 10)] {
                let band = img.rows(y0, y1);
                let out = &out;
                // SAFETY: bands cover disjoint row ranges of `out`.
                s.spawn(move || unsafe { out.write_rows_from(y0, &band) });
            }
        });
        assert_eq!(out.mean_abs_diff(&img), 0.0);
    }

    #[test]
    #[should_panic(expected = "row range out of bounds")]
    fn rows_bounds() {
        Image::solid(2, 2, [0.0; 3]).rows(1, 3);
    }

    #[test]
    fn synthetic_is_deterministic() {
        let a = Image::synthetic(16, 16, 7);
        let b = Image::synthetic(16, 16, 7);
        assert_eq!(a.mean_abs_diff(&b), 0.0);
        let c = Image::synthetic(16, 16, 8);
        assert!(a.mean_abs_diff(&c) > 0.0);
    }

    #[test]
    #[should_panic(expected = "crop range out of bounds")]
    fn crop_bounds() {
        Image::solid(2, 2, [0.0; 3]).crop_rows(1, 3);
    }

    #[test]
    #[should_panic(expected = "append: width mismatch")]
    fn append_checks_width() {
        Image::append_rows(&[Image::solid(2, 1, [0.0; 3]), Image::solid(3, 1, [0.0; 3])]);
    }
}
