//! Buffer adoption (ISSUE 14): `ColData::new` takes the vector's
//! allocation as is — same address, no new buffer, no pass over the
//! rows — and `ColData::alloc` builds its zero column as one zeroed
//! allocation instead of an element-by-element fill.
//!
//! Measured with a counting global allocator, which is why this file
//! holds exactly one test: nothing else may allocate while it runs.

use dataframe::{ColData, Column};

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

#[test]
fn new_adopts_the_allocation_and_alloc_is_one_calloc() {
    const N: usize = 1 << 16;
    let bytes = N * std::mem::size_of::<f64>();

    // len == capacity: the column IS the vector's allocation. The only
    // allocation is the handle's fixed-size `Arc` header.
    let v: Vec<f64> = (0..N).map(|i| i as f64).collect();
    assert_eq!(v.len(), v.capacity());
    let addr = v.as_ptr();
    let (col, [allocs, _, reallocs, largest]) = counted(|| ColData::new(v));
    assert_eq!(
        col.as_slice().as_ptr(),
        addr,
        "allocation address preserved"
    );
    assert_eq!((allocs, reallocs), (1, 0), "one handle header, no buffer");
    assert!(
        largest < 256,
        "largest allocation was {largest} B, the buffer is {bytes} B"
    );
    assert!(col
        .as_slice()
        .iter()
        .enumerate()
        .all(|(i, &x)| x == i as f64));

    // Rows that own heap data are adopted the same way: the strings
    // keep their addresses and are dropped with the column.
    let v: Vec<String> = (0..100).map(|i| format!("row {i}")).collect();
    let (addr, first) = (v.as_ptr(), v[0].as_ptr());
    let (col, [allocs, _, reallocs, _]) = counted(|| ColData::new(v));
    assert_eq!((allocs, reallocs), (1, 0));
    assert_eq!(
        (col.as_slice().as_ptr(), col.as_slice()[0].as_ptr()),
        (addr, first)
    );
    assert_eq!(col.as_slice()[99], "row 99");
    drop(col);

    // capacity > len: contents round-trip; the documented price is one
    // shrinking realloc (`Vec::into_boxed_slice`).
    let mut v: Vec<i64> = Vec::with_capacity(2 * N);
    v.extend(0..N as i64);
    let (col, [_, _, reallocs, _]) = counted(|| Column::from_i64(v));
    assert_eq!(reallocs, 1, "spare capacity is shrunk away, once");
    assert!(col.i64s().iter().enumerate().all(|(i, &x)| x == i as i64));

    // alloc: one buffer-sized allocation, and it is a calloc — not a
    // collected fill followed by a copy.
    let (z, [allocs, zeroed, reallocs, largest]) = counted(|| ColData::<f64>::alloc(N));
    assert_eq!(
        (allocs, zeroed, reallocs),
        (2, 1, 0),
        "calloc + handle header"
    );
    assert_eq!(largest, bytes);
    assert!(z.as_slice().iter().all(|&x| x == 0.0));
    // Non-zero-default rows still come out default-initialized.
    let s = ColData::<String>::alloc(3);
    assert!(s.as_slice().iter().all(String::is_empty));
}
