//! The measuring harness of the buffer-adoption suites
//! (`tests/adoption.rs` of `mozart-core`, `dataframe`, `imagelib` and
//! `ndarray-lite`), compiled into each as a module (`#[path]`): a
//! counting global allocator and the process's resident set size.
//!
//! It installs the test binary's global allocator, which is why each
//! suite holds exactly one test: nothing else may allocate while it
//! runs.

// Each suite uses its own subset of the helpers.
#![allow(dead_code)]

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
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, [usize; 4]) {
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
/// host with larger pages under-reports growth: that only makes
/// [`assert_untouched`] more lenient, but a check that pages did become
/// resident holds only on a host with 4 KiB pages).
#[cfg(target_os = "linux")]
pub fn resident_bytes() -> usize {
    let statm = std::fs::read_to_string("/proc/self/statm").unwrap();
    statm
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse::<usize>()
        .unwrap()
        * 4096
}

/// How many of the 4 KiB pages that `bytes` bytes from `ptr` span are
/// present in memory, and how many they span (Linux's
/// `/proc/self/pagemap`, whose bit 63 an unprivileged process may
/// read).
#[cfg(target_os = "linux")]
pub fn present_pages(ptr: *const u8, bytes: usize) -> (usize, usize) {
    use std::io::{Read, Seek, SeekFrom};
    let first = ptr as usize / 4096;
    let last = (ptr as usize + bytes - 1) / 4096;
    let mut map = std::fs::File::open("/proc/self/pagemap").unwrap();
    map.seek(SeekFrom::Start(first as u64 * 8)).unwrap();
    let mut entries = vec![0u8; (last - first + 1) * 8];
    map.read_exact(&mut entries).unwrap();
    let present = entries
        .chunks_exact(8)
        .filter(|e| u64::from_le_bytes((*e).try_into().unwrap()) >> 63 == 1)
        .count();
    (present, last - first + 1)
}

/// Assert that `make` builds a `bytes`-sized zeroed buffer without
/// touching it: a zeroed allocation this large is lazily mapped, so a
/// runtime pass over the elements — even one that rewrites each value
/// in place — would make every page resident.
#[cfg(target_os = "linux")]
pub fn assert_untouched<R>(bytes: usize, what: &str, make: impl FnOnce() -> R) -> R {
    let before = resident_bytes();
    let r = make();
    let grown = resident_bytes().saturating_sub(before);
    assert!(
        grown < bytes / 4,
        "{what}: building {bytes} zero bytes made {grown} bytes resident"
    );
    r
}
