//! Buffer adoption: `Image::from_rgb` takes the pixel
//! vector's allocation as is — same address, no new buffer, no pass
//! over the pixels — and `Image::alloc_rows` is one zeroed allocation.
//!
//! Measured with a counting global allocator and the process's resident
//! set size (`crates/adoption_harness.rs`), which is why this file holds
//! exactly one test: nothing else may allocate while it runs.

#[path = "../../adoption_harness.rs"]
mod harness;

#[cfg(target_os = "linux")]
use harness::assert_untouched;
use harness::counted;
use imagelib::Image;

#[test]
fn from_rgb_adopts_the_allocation_and_alloc_rows_is_one_calloc() {
    const W: usize = 256;
    const H: usize = 64;
    let n = W * H * Image::CHANNELS;
    let bytes = n * std::mem::size_of::<f32>();

    // len == capacity: the pixel buffer IS the vector's allocation. The
    // only allocation is the handle's fixed-size `Arc` header.
    let v: Vec<f32> = (0..n).map(|i| (i % 251) as f32 / 251.0).collect();
    assert_eq!(v.len(), v.capacity());
    let addr = v.as_ptr();
    let (img, [allocs, _, reallocs, largest]) = counted(|| Image::from_rgb(W, H, v));
    assert_eq!(img.data().as_ptr(), addr, "allocation address preserved");
    assert_eq!((allocs, reallocs), (1, 0), "one handle header, no buffer");
    assert!(
        largest < 256,
        "largest allocation was {largest} B, the buffer is {bytes} B"
    );
    assert!(img
        .data()
        .iter()
        .enumerate()
        .all(|(i, &x)| x == (i % 251) as f32 / 251.0));

    // capacity > len: contents round-trip; the documented price is one
    // shrinking realloc (`Vec::into_boxed_slice`).
    let mut v: Vec<f32> = Vec::with_capacity(2 * n);
    v.extend((0..n).map(|i| (i % 7) as f32));
    let (img, [_, _, reallocs, _]) = counted(|| Image::from_rgb(W, H, v));
    assert_eq!(reallocs, 1, "spare capacity is shrunk away, once");
    assert!(img
        .data()
        .iter()
        .enumerate()
        .all(|(i, &x)| x == (i % 7) as f32));

    // alloc_rows: one buffer-sized allocation, a calloc, and no second
    // pass — adoption alone removed it.
    let (z, [allocs, zeroed, reallocs, largest]) = counted(|| Image::alloc_rows(W, H));
    assert_eq!(
        (allocs, zeroed, reallocs),
        (2, 1, 0),
        "calloc + handle header"
    );
    assert_eq!(largest, bytes);
    assert!(z.data().iter().all(|&x| x == 0.0));
    #[cfg(target_os = "linux")]
    {
        let (w, h) = (4096, 1400); // 65.6 MiB of f32 channels
        let z = assert_untouched(w * h * 12, "Image::alloc_rows", || Image::alloc_rows(w, h));
        assert_eq!(z.pixel(w - 1, h - 1), [0.0; 3]);
    }
}
