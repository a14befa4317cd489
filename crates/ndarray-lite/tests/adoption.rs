//! Buffer adoption: `NdArray::from_vec` takes the vector's
//! allocation as is — same address, no new buffer, no pass over the
//! elements — so `NdArray::zeros` is one zeroed allocation.
//!
//! Measured with a counting global allocator and the process's resident
//! set size (`crates/adoption_harness.rs`), which is why this file holds
//! exactly one test: nothing else may allocate while it runs.

#[path = "../../adoption_harness.rs"]
mod harness;

#[cfg(target_os = "linux")]
use harness::assert_untouched;
use harness::counted;
use ndarray_lite::NdArray;

#[test]
fn from_vec_adopts_the_allocation_and_zeros_is_one_calloc() {
    const N: usize = 1 << 16;
    let bytes = N * std::mem::size_of::<f64>();

    // len == capacity: the buffer IS the vector's allocation. Beyond it
    // come only the fixed-size `Arc` header and the one-entry shape.
    let v: Vec<f64> = (0..N).map(|i| i as f64).collect();
    assert_eq!(v.len(), v.capacity());
    let addr = v.as_ptr();
    let (a, [allocs, _, reallocs, largest]) = counted(|| NdArray::from_vec(v));
    assert_eq!(a.as_slice().as_ptr(), addr, "allocation address preserved");
    assert_eq!(
        (allocs, reallocs),
        (2, 0),
        "handle header + shape, no buffer"
    );
    assert!(
        largest < 256,
        "largest allocation was {largest} B, the buffer is {bytes} B"
    );
    assert!(a.as_slice().iter().enumerate().all(|(i, &x)| x == i as f64));

    // capacity > len: contents round-trip; the documented price is one
    // shrinking realloc (`Vec::into_boxed_slice`).
    let mut v: Vec<f64> = Vec::with_capacity(2 * N);
    v.extend((0..N).map(|i| i as f64 * 0.5));
    let (a, [_, _, reallocs, _]) = counted(|| NdArray::from_shape_vec(&[N / 4, 4], v));
    assert_eq!(reallocs, 1, "spare capacity is shrunk away, once");
    assert!(a
        .as_slice()
        .iter()
        .enumerate()
        .all(|(i, &x)| x == i as f64 * 0.5));

    // zeros: exactly one buffer-sized allocation, and it is a calloc.
    let (z, [_, zeroed, reallocs, largest]) = counted(|| NdArray::zeros(&[N]));
    assert_eq!((zeroed, reallocs, largest), (1, 0, bytes));
    assert!(z.as_slice().iter().all(|&x| x == 0.0));

    // ... that no runtime pass touches.
    #[cfg(target_os = "linux")]
    {
        const BIG: usize = 8 << 20; // 64 MiB of f64
        let z = assert_untouched(BIG * 8, "NdArray::zeros", || NdArray::zeros(&[BIG]));
        assert_eq!(z.get(BIG - 1), 0.0);
    }
}
