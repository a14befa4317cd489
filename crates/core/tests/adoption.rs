//! Buffer adoption: `SharedVec::from_vec` takes a `Vec`'s
//! allocation as is — same address, no new buffer, no pass over the
//! elements — and `SharedVec::zeros` is one allocation, neither zeroed
//! nor touched (its elements read as zero through every API: see
//! `lazy_zeros.rs`), while `SharedVec::uninit_prefaulted` is one
//! allocation, not zeroed, with every page it spans resident.
//!
//! Measured with a counting global allocator and the process's resident
//! set size (`crates/adoption_harness.rs`), which is why this file holds
//! exactly one test: nothing else may allocate while it runs.

#[path = "../../adoption_harness.rs"]
mod harness;

#[cfg(target_os = "linux")]
use harness::assert_untouched;
use harness::counted;
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
use harness::{present_pages, resident_bytes};
use mozart_core::SharedVec;

#[test]
fn from_vec_adopts_the_allocation_and_zeros_is_one_untouched_malloc() {
    const N: usize = 1 << 16;
    let bytes = N * std::mem::size_of::<f64>();

    // len == capacity: the buffer IS the vector's allocation. The only
    // allocation is the handle's fixed-size `Arc` header.
    let v: Vec<f64> = (0..N).map(|i| i as f64).collect();
    assert_eq!(v.len(), v.capacity());
    let addr = v.as_ptr();
    let (sv, [allocs, _, reallocs, largest]) = counted(|| SharedVec::from_vec(v));
    assert_eq!(
        sv.base_ptr() as *const f64,
        addr,
        "allocation address preserved"
    );
    assert_eq!((allocs, reallocs), (1, 0), "one handle header, no buffer");
    assert!(
        largest < 256,
        "largest allocation was {largest} B, the buffer is {bytes} B"
    );
    assert!(sv
        .as_slice()
        .iter()
        .enumerate()
        .all(|(i, &x)| x == i as f64));

    // capacity > len: contents round-trip; the documented price is one
    // shrinking realloc (`Vec::into_boxed_slice`).
    let mut v: Vec<f64> = Vec::with_capacity(2 * N);
    v.extend((0..N).map(|i| i as f64 * 0.5));
    let (sv, [_, _, reallocs, _]) = counted(|| SharedVec::from_vec(v));
    assert_eq!(reallocs, 1, "spare capacity is shrunk away, once");
    assert_eq!(sv.len(), N);
    assert!(sv
        .as_slice()
        .iter()
        .enumerate()
        .all(|(i, &x)| x == i as f64 * 0.5));

    // zeros: exactly one buffer-sized allocation, and it is not zeroed:
    // below the `mmap` threshold a zeroed allocation is a `memset` of a
    // recycled chunk on this thread.
    let (z, [allocs, zeroed, reallocs, largest]) = counted(|| SharedVec::<f64>::zeros(N));
    assert_eq!(
        (allocs, zeroed, reallocs),
        (2, 0, 0),
        "malloc + handle header"
    );
    assert_eq!(largest, bytes);
    assert!(z.as_slice().iter().all(|&x| x == 0.0));

    // ... that no runtime pass touches.
    #[cfg(target_os = "linux")]
    {
        const BIG: usize = 8 << 20; // 64 MiB of f64
        let z = assert_untouched(BIG * 8, "SharedVec::zeros", || SharedVec::<f64>::zeros(BIG));
        assert_eq!(z.as_slice()[BIG - 1], 0.0);
    }

    // uninit_prefaulted: one buffer-sized allocation, not zeroed, at
    // least its size made resident, and every page it spans present on
    // return — the last one too, which a buffer that does not start on
    // a page boundary reaches into by a few bytes. 48 MiB is past
    // glibc's largest `mmap` threshold, so the buffer is a fresh mapping
    // whatever was freed above. (x86-64 only: 4 KiB pages, as
    // `resident_bytes` counts them.)
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        const BIG: usize = 6 << 20; // 48 MiB of f64
        let bytes = BIG * 8;
        let before = resident_bytes();
        // SAFETY: no element is read; only the address is.
        let (u, [allocs, zeroed, reallocs, largest]) =
            counted(|| unsafe { SharedVec::<f64>::uninit_prefaulted(BIG) });
        let grown = resident_bytes().saturating_sub(before);
        assert_eq!(
            (allocs, zeroed, reallocs, largest),
            (2, 0, 0, bytes),
            "malloc + handle header"
        );
        assert!(
            grown >= bytes,
            "uninit_prefaulted: {bytes} bytes made {grown} bytes resident"
        );
        let (present, spanned) = present_pages(u.base_ptr() as *const u8, bytes);
        assert_eq!(present, spanned, "uninit_prefaulted: pages present");
    }
}
