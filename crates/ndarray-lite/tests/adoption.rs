//! Buffer adoption (ISSUE 14): `NdArray::from_vec` takes the vector's
//! allocation as is — same address, no new buffer, no pass over the
//! elements — so `NdArray::zeros` is one zeroed allocation.
//!
//! Measured with a counting global allocator and the process's resident
//! set size, which is why this file holds exactly one test: nothing
//! else may allocate while it runs.

use ndarray_lite::NdArray;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Allocations (`alloc` + `alloc_zeroed`), how many of them were
/// `alloc_zeroed`, `realloc`s, and the largest allocation requested.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static ZEROED: AtomicUsize = AtomicUsize::new(0);
static REALLOCS: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are only statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        LARGEST.fetch_max(layout.size(), Relaxed);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ZEROED.fetch_add(1, Relaxed);
        LARGEST.fetch_max(layout.size(), Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's `realloc` contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `f` asked of the allocator: `(allocations, of which zeroed,
/// reallocs, largest allocation in bytes)`.
fn counted<R>(f: impl FnOnce() -> R) -> (R, [usize; 4]) {
    let before = [
        ALLOCS.load(Relaxed),
        ZEROED.load(Relaxed),
        REALLOCS.load(Relaxed),
    ];
    LARGEST.store(0, Relaxed);
    let r = f();
    let counts = [
        ALLOCS.load(Relaxed) - before[0],
        ZEROED.load(Relaxed) - before[1],
        REALLOCS.load(Relaxed) - before[2],
        LARGEST.load(Relaxed),
    ];
    (r, counts)
}

/// Resident set size of the process in bytes (Linux; 4 KiB pages, so a
/// host with larger pages under-reports growth and can only make the
/// check below more lenient).
#[cfg(target_os = "linux")]
fn resident_bytes() -> usize {
    let statm = std::fs::read_to_string("/proc/self/statm").unwrap();
    statm
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse::<usize>()
        .unwrap()
        * 4096
}

/// Assert that `make` builds a `bytes`-sized zeroed buffer without
/// touching it: a zeroed allocation this large is lazily mapped, so a
/// runtime pass over the elements — even one that rewrites each value
/// in place — would make every page resident.
#[cfg(target_os = "linux")]
fn assert_untouched<R>(bytes: usize, what: &str, make: impl FnOnce() -> R) -> R {
    let before = resident_bytes();
    let r = make();
    let grown = resident_bytes().saturating_sub(before);
    assert!(
        grown < bytes / 4,
        "{what}: building {bytes} zero bytes made {grown} bytes resident"
    );
    r
}

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
