//! The one interior-mutable store under every buffer: the runtime's
//! `SharedVec` and the base libraries' columns, images and arrays.
//!
//! `mozart-core`, `dataframe`, `imagelib` and `ndarray-lite` each
//! compile this file as a private module of their own (`#[path]`), so
//! no base library depends on the runtime, while the storage, its
//! `Send`/`Sync` argument and the band-write contract are written once.
//! Each library keeps its own handle type over a shared [`Cells`]: the
//! view offsets, the exclusivity check and the metering stay there.
//!
//! # The band-write contract
//!
//! A store is shared between threads (behind an `Arc`) and written in
//! place by [`Cells::band_mut`]. Every caller of it upholds two rules:
//!
//! 1. the ranges written from different threads at the same time are
//!    disjoint, and
//! 2. nothing reads a range, through any handle, until the target it
//!    belongs to is complete: every write into it has returned.
//!
//! Placement merges keep both: each worker writes the rows of its own
//! pieces into a target that no reader can see until the executor
//! releases it. Reads ([`Cells::slice`]) rely on rule 2 alone, so a
//! library's read API may stay safe: its writes are the `unsafe` entry
//! points, and each forwards this contract to its caller.

// Each library that compiles this file uses its own subset of it.
#![allow(dead_code)]

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;

/// Bytes between two page touches: the smallest page size.
const PAGE: usize = 4096;

/// A fixed-length run of `T`s that shared handles write in place
/// under the band-write contract (see the module docs).
pub(crate) struct Cells<T>(Box<[UnsafeCell<T>]>);

// SAFETY: a store owns its `T`s as a `Box<[T]>` would, so it may move
// to another thread when they may, and dropping it there drops them
// there. Sharing it gives other threads `&T` (reads) and, under the
// band-write contract, `&mut T` over disjoint ranges with no reader
// alongside, which is what `T: Send + Sync` allows: the bounds `Mutex`
// and `RwLock` use.
unsafe impl<T: Send> Send for Cells<T> {}
// SAFETY: as above.
unsafe impl<T: Send + Sync> Sync for Cells<T> {}

impl<T> Cells<T> {
    /// Adopt `v`'s allocation as is: same address, no pass over the
    /// elements (a vector with spare capacity pays one shrinking
    /// `realloc` first, as `Vec::into_boxed_slice` does).
    pub(crate) fn from_vec(v: Vec<T>) -> Self {
        let raw = Box::into_raw(v.into_boxed_slice());
        // SAFETY: `UnsafeCell<T>` is `repr(transparent)` over `T`, so
        // `[T]` and `[UnsafeCell<T>]` have the same size, alignment and
        // element layout (drop glue included: `UnsafeCell<T>` drops its
        // `T`) and the fat pointer's length carries over. `raw` came
        // from `Box::into_raw` just above: it is uniquely owned, and the
        // rebuilt box frees it with the very layout the global
        // allocator handed it out under.
        Cells(unsafe { Box::from_raw(raw as *mut [UnsafeCell<T>]) })
    }

    /// Number of elements.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// The first element, writable under the band-write contract.
    pub(crate) fn as_ptr(&self) -> *mut T {
        UnsafeCell::raw_get(self.0.as_ptr())
    }

    /// Elements `[start, start + len)`, shared.
    ///
    /// # Safety
    ///
    /// The range is inside the store, and no band write over it is in
    /// flight (rule 2 of the contract).
    pub(crate) unsafe fn slice(&self, start: usize, len: usize) -> &[T] {
        debug_assert!(start.checked_add(len).is_some_and(|e| e <= self.len()));
        // SAFETY: in bounds and not written meanwhile, per the contract.
        unsafe { std::slice::from_raw_parts(self.as_ptr().add(start), len) }
    }

    /// The band write: elements `[start, start + len)`, exclusively, to
    /// write in place from any thread (by `copy_from_slice` or
    /// `clone_from_slice`, which drops each value it overwrites).
    ///
    /// # Safety
    ///
    /// The range is inside the store, and the band-write contract holds
    /// while the returned slice lives: no other thread writes any of the
    /// range and nothing reads it.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn band_mut(&self, start: usize, len: usize) -> &mut [T] {
        debug_assert!(start.checked_add(len).is_some_and(|e| e <= self.len()));
        // SAFETY: in bounds, and exclusive for as long as the slice
        // lives, per the contract.
        unsafe { std::slice::from_raw_parts_mut(self.as_ptr().add(start), len) }
    }

    /// Fault in every page of the store, single-threaded, before
    /// parallel writers take their first-touch faults on one fresh
    /// mapping (which serialize on the kernel's page-table locks), and
    /// keep the contents. A zeroed allocation (`calloc`) is lazy; this
    /// makes it resident.
    pub(crate) fn prefault(&mut self) {
        self.touch_pages(true);
    }

    /// [`Cells::prefault`] for a store whose every byte is zero, as a
    /// zeroed allocation's are: the touch writes a zero, one write fault
    /// per page, where reading the byte back first takes a read fault
    /// (which maps the shared zero page) and then a copy-on-write fault.
    ///
    /// # Safety
    ///
    /// Every byte of the store is zero.
    pub(crate) unsafe fn prefault_zeroed(&mut self) {
        self.touch_pages(false);
    }

    /// One volatile byte write per [`PAGE`] from the store's first
    /// byte, and one to its last byte, so the final page is touched
    /// also when the store does not start on a page boundary. `keep`
    /// writes back the byte that is there (contents unchanged, for any
    /// `T`, padding included); otherwise a zero is written, one write
    /// fault per page instead of a read fault and then a write fault.
    /// Volatile, so that the optimizer keeps a touch that changes no
    /// value.
    fn touch_pages(&mut self, keep: bool) {
        let bytes = std::mem::size_of_val(&*self.0);
        let base = self.0.as_mut_ptr() as *mut MaybeUninit<u8>;
        let touched = (0..bytes).step_by(PAGE).chain(bytes.checked_sub(1));
        for off in touched {
            // SAFETY: `off < bytes`, so the byte is inside the store,
            // which `&mut self` holds exclusively. A `MaybeUninit<u8>`
            // may be read from any byte, initialized or not.
            unsafe {
                let p = base.add(off);
                let b = if keep {
                    std::ptr::read_volatile(p)
                } else {
                    MaybeUninit::new(0)
                };
                std::ptr::write_volatile(p, b);
            }
        }
    }
}

impl<T: Copy> Cells<T> {
    /// A store of `len` elements with unspecified contents: one
    /// allocation, neither zeroed nor touched, so a store above the
    /// allocator's `mmap` threshold stays a lazy mapping and one below
    /// it costs no pass over a recycled chunk.
    ///
    /// # Safety
    ///
    /// Every element is written (by a band write) before it is read.
    #[allow(clippy::uninit_vec)] // the unspecified contents are this function's contract
    pub(crate) unsafe fn untouched(len: usize) -> Self {
        let mut v: Vec<UnsafeCell<T>> = Vec::with_capacity(len);
        // SAFETY: the capacity was just reserved; `T: Copy` has no drop
        // glue to run on the unwritten elements, and the caller writes
        // each before it is read.
        unsafe { v.set_len(len) };
        Cells(v.into_boxed_slice())
    }

    /// [`Cells::untouched`] with every page faulted in (see
    /// [`Cells::prefault`]) but none zeroed: the allocation of a
    /// placement target, whose every element is written or truncated
    /// away before it is read. `advise` gets the store's first byte and
    /// its size before any page is touched.
    ///
    /// # Safety
    ///
    /// Every element is written (by a band write) before it is read.
    pub(crate) unsafe fn uninit(len: usize, advise: impl FnOnce(*mut u8, usize)) -> Self {
        // SAFETY: forwarded contract.
        let mut cells = unsafe { Self::untouched(len) };
        advise(cells.as_ptr() as *mut u8, len * std::mem::size_of::<T>());
        cells.touch_pages(false);
        cells
    }
}
