//! Shared, splittable buffers.
//!
//! [`SharedVec`] is the storage type the substrate libraries in this
//! repository use for dense numeric data (standing in for the raw C arrays
//! that Intel MKL operates on). It provides:
//!
//! * O(1) *adoption*: [`SharedVec::from_vec`] takes a `Vec`'s allocation
//!   as is — same address, no copy, no pass over the elements — so
//!   wrapping application data costs nothing per byte, and
//!   [`SharedVec::zeros`] is one allocation that nothing writes until
//!   the buffer is used (see "Fresh buffers" below),
//! * cheap cloning (handles share one allocation),
//! * zero-copy views: a handle covers a range of its storage, so a
//!   split piece of a buffer is a `SharedVec` of the same type, and a
//!   write through it lands in the buffer,
//! * *disjoint* mutable range access from multiple worker threads, which
//!   is what lets Mozart run unmodified kernels on split pieces in
//!   parallel: the storage is the cell store every base library's
//!   buffer also sits on (`crates/cells.rs`), and
//!   [`SharedVec::slice_mut_unchecked`] forwards that store's
//!   band-write contract (disjoint ranges across threads, no reader
//!   until the target is complete), and
//! * a protection flag that reproduces the paper's `mprotect`-based lazy
//!   evaluation trigger (§4.1): when an annotated call that mutates the
//!   buffer is registered with a context, the buffer is *protected*; any
//!   subsequent read through the safe API forces the context to evaluate
//!   its dataflow graph first, exactly like the SIGSEGV handler in the
//!   paper (but at the cost of an atomic load instead of a page fault —
//!   the paper's proposed `pkeys` optimization has the same effect).
//!
//! # Fresh buffers
//!
//! A buffer from [`SharedVec::zeros`] starts *fresh*: every element is
//! logically `T::default()`, but the allocation is neither zeroed nor
//! touched. (A zeroed allocation is no cheaper: below the 32 MiB `mmap`
//! threshold the worker pool pins, `calloc` recycles a freed heap chunk
//! and `memset`s it, on the thread that allocates.) Every API that reads
//! or writes elements first *materializes* a fresh buffer: it fills the
//! whole buffer with the default, once, under the buffer's lock, so no
//! API returns unwritten memory. A call at the work floor does so on
//! its first access, as a `calloc` did.
//!
//! The one exception is a stage that writes the buffer in place (a `mut`
//! argument of one of its nodes) as a whole view, over a split that
//! covers every element. The executor *claims* the buffer when the
//! stage starts. Each worker then fills its batch's band with the
//! default in the split phase, just before the band's first call, so
//! the batch's first writes find the lines in cache, and no thread makes
//! a pass of its own over the buffer. When the stage ends, the executor
//! *releases* the claim. After a stage that ran, the buffer is ready,
//! and any tail that no batch reached (a `NULL` split) is filled with
//! the default. After a failed or cancelled stage, the buffer is fresh
//! again, so a read finds every element at the default. A stage that
//! only reads a fresh buffer, or whose split covers part of it,
//! materializes it whole when the stage is built: another context may
//! read it at the same time, which the band-write contract does not
//! cover.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::cells::Cells;
use crate::value::{DataObject, DataValue};

/// Something that can evaluate a pending dataflow graph.
///
/// Implemented by the Mozart context; buffers hold a weak reference so a
/// protected read can force evaluation without a dependency cycle.
pub trait EvalTrigger: Send + Sync {
    /// Evaluate all pending work. Must be idempotent.
    fn force(&self);
}

/// Lazy-evaluation trigger attached to mutable storage.
///
/// `protected == true` means the dataflow graph of the attached context
/// contains a pending call that mutates this storage, so its current
/// contents are stale.
pub struct ProtectFlag {
    protected: AtomicBool,
    trigger: Mutex<Option<Weak<dyn EvalTrigger>>>,
}

impl Default for ProtectFlag {
    fn default() -> Self {
        ProtectFlag {
            protected: AtomicBool::new(false),
            trigger: Mutex::new(None),
        }
    }
}

impl ProtectFlag {
    /// Mark the storage as pending mutation by `trigger`'s graph.
    pub fn protect(&self, trigger: Weak<dyn EvalTrigger>) {
        *self.trigger.lock() = Some(trigger);
        self.protected.store(true, Ordering::Release);
    }

    /// Clear the protection (called when the graph is evaluated).
    pub fn unprotect(&self) {
        self.protected.store(false, Ordering::Release);
        *self.trigger.lock() = None;
    }

    /// Whether the storage currently has pending mutations.
    pub fn is_protected(&self) -> bool {
        self.protected.load(Ordering::Acquire)
    }

    /// Whether the storage is protected on behalf of the trigger at
    /// address `owner`. The stored weak reference keeps its trigger's
    /// allocation alive, so a match cannot be another trigger that
    /// reused a dead one's address.
    pub(crate) fn protected_by(&self, owner: *const ()) -> bool {
        self.is_protected()
            && self
                .trigger
                .lock()
                .as_ref()
                .is_some_and(|w| std::ptr::addr_eq(w.as_ptr(), owner))
    }

    /// If protected, force the owning context to evaluate. Cheap when not
    /// protected (a single atomic load — this is the fast path every safe
    /// read takes).
    pub fn ensure_evaluated(&self) {
        if self.protected.load(Ordering::Acquire) {
            let trigger = self.trigger.lock().clone();
            if let Some(t) = trigger.and_then(|w| w.upgrade()) {
                t.force();
            } else {
                // The owning context is gone; the data can never be
                // brought up to date, but it is also unobservable through
                // that context, so clear the flag and return what we have.
                self.unprotect();
            }
        }
    }
}

struct Inner<T> {
    storage: Cells<T>,
    protect: ProtectFlag,
    /// Whether the buffer is fresh: every element is logically
    /// `T::default()`, and none is written (module docs, "Fresh
    /// buffers"). A claim clears it, since the stage that holds the
    /// claim is then the buffer's one writer; a failed stage sets it
    /// again.
    fresh: AtomicBool,
    /// Writes `T::default()` over a band: set by [`SharedVec::zeros`],
    /// where `T: Default` is known, and called only on its buffers.
    fill: fn(&mut [T]),
    /// Held while a fresh buffer is materialized or claimed, so that
    /// neither sees the other half done.
    settling: Mutex<()>,
    /// Metered footprint registered with [`crate::membudget`] at
    /// construction; returned on drop of the last reference.
    bytes: usize,
}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        crate::membudget::note_free(self.bytes);
    }
}

/// A shared, fixed-length vector supporting disjoint parallel mutation.
///
/// This is the "C array" of the reproduction: the substrate libraries take
/// plain slices. A `SharedVec` is a view: a handle to shared storage and
/// the range of its elements the handle covers. The constructors view
/// the whole storage; the split types hand out pieces that view ranges
/// of it, so a write through a piece lands in the buffer itself.
pub struct SharedVec<T: Copy + Send + Sync + 'static> {
    inner: Arc<Inner<T>>,
    /// First storage element of the view.
    start: usize,
    /// Elements in the view.
    len: usize,
}

impl<T: Copy + Send + Sync + 'static> Clone for SharedVec<T> {
    fn clone(&self) -> Self {
        SharedVec {
            inner: Arc::clone(&self.inner),
            start: self.start,
            len: self.len,
        }
    }
}

impl<T: Copy + Send + Sync + Default + 'static> SharedVec<T> {
    /// Allocate a default-initialized buffer of `len` elements: one
    /// allocation, neither zeroed nor touched, whose elements read as
    /// `T::default()` through every API. The defaults are written when
    /// the buffer is first used: band by band, inside a stage that
    /// writes the whole buffer in place, else all at once on first
    /// access (module docs, "Fresh buffers").
    pub fn zeros(len: usize) -> Self {
        // SAFETY: the buffer is fresh, so every element API writes the
        // defaults before it reads, and a stage that claims the buffer
        // zeroes each band before its first call: rule 2 of the
        // band-write contract (module docs, "Fresh buffers").
        let storage = unsafe { Cells::untouched(len) };
        SharedVec::adopt(storage, Some(|band| band.fill(T::default())))
    }

    /// Allocate a buffer of `len` elements with *unspecified* contents:
    /// one allocation, not zeroed, advised for huge pages (best effort,
    /// `MADV_HUGEPAGE`) and then faulted in page by page, so a
    /// placement-merge target takes its first-touch page faults once,
    /// single-threaded, at allocation, and the parallel placement writes
    /// are pure memory copies. Zeroing would be dead work in every
    /// outcome: full coverage overwrites every element, a `NULL`-split
    /// tail is truncated to the written prefix, and an interior gap
    /// fails the merge — no unwritten element is ever read.
    ///
    /// # Safety
    ///
    /// The caller must ensure every element range is written before it
    /// is read through any API of the returned buffer. The placement
    /// executor guarantees this: the merged value is only released
    /// after its coverage check, restricted to the written prefix.
    pub unsafe fn uninit_prefaulted(len: usize) -> Self {
        // SAFETY: forwarded contract.
        SharedVec::adopt(unsafe { Cells::uninit(len, advise_hugepages) }, None)
    }
}

/// Best-effort `madvise(MADV_HUGEPAGE)` over the page-aligned interior
/// of `bytes` bytes from `ptr`: under THP `madvise` policy, one fault
/// per 2 MiB region instead of one per 4 KiB page, which on
/// fault-expensive virtualized hosts is most of a fresh target's cost.
/// Advice reads and writes no memory, so any range will do; failure is
/// ignored.
#[allow(unused_variables)]
fn advise_hugepages(ptr: *mut u8, bytes: usize) {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    {
        const MADV_HUGEPAGE: i64 = 14;
        // Page-align inward; madvise requires an aligned start address.
        let start = (ptr as usize).next_multiple_of(4096);
        let end = ptr as usize + bytes;
        if end > start {
            let _ret: i64;
            #[cfg(target_arch = "x86_64")]
            // SAFETY: madvise(2) with MADV_HUGEPAGE is advisory: it
            // changes no byte of the process, whatever the range.
            unsafe {
                std::arch::asm!(
                    "syscall",
                    inlateout("rax") 28i64 => _ret, // __NR_madvise
                    in("rdi") start,
                    in("rsi") end - start,
                    in("rdx") MADV_HUGEPAGE,
                    lateout("rcx") _,
                    lateout("r11") _,
                    options(nostack),
                );
            }
            #[cfg(target_arch = "aarch64")]
            // SAFETY: as above.
            unsafe {
                std::arch::asm!(
                    "svc 0",
                    inlateout("x8") 233i64 => _, // __NR_madvise
                    inlateout("x0") start => _ret,
                    in("x1") end - start,
                    in("x2") MADV_HUGEPAGE,
                    options(nostack),
                );
            }
        }
    }
}

impl<T: Copy + Send + Sync + 'static> SharedVec<T> {
    /// Take ownership of a `Vec`'s allocation: the buffer keeps the
    /// vector's address and no element is read or written. A vector
    /// with spare capacity (`capacity > len`) pays one shrinking
    /// `realloc` first, as `Vec::into_boxed_slice` does.
    pub fn from_vec(v: Vec<T>) -> Self {
        SharedVec::adopt(Cells::from_vec(v), None)
    }

    /// A view of all of `storage`, metered with [`crate::membudget`]:
    /// fresh with `Some` of the fill of its elements' default (module
    /// docs, "Fresh buffers"), else ready.
    fn adopt(storage: Cells<T>, fresh: Option<fn(&mut [T])>) -> Self {
        let len = storage.len();
        let bytes = len * std::mem::size_of::<T>();
        crate::membudget::note_alloc(bytes);
        SharedVec {
            inner: Arc::new(Inner {
                storage,
                protect: ProtectFlag::default(),
                fresh: AtomicBool::new(fresh.is_some()),
                fill: fresh.unwrap_or(|_| {}),
                settling: Mutex::new(()),
                bytes,
            }),
            start: 0,
            len,
        }
    }

    /// Fill a fresh buffer with `T::default()`, once; every element API
    /// calls this first. One atomic load once the buffer is not fresh:
    /// a claimed buffer's one writer is the stage that claimed it, and
    /// its bands are zeroed before they are read.
    #[inline]
    pub(crate) fn materialize(&self) {
        let inner = &*self.inner;
        if inner.fresh.load(Ordering::Acquire) {
            let _settling = inner.settling.lock();
            if inner.fresh.load(Ordering::Acquire) {
                // SAFETY: the band-write contract over the whole store.
                // Rule 1: a fresh buffer has no claim, so no stage writes
                // it, and other materializers wait on the lock. Rule 2:
                // every element API reaches this call before it reads.
                (inner.fill)(unsafe { inner.storage.band_mut(0, inner.storage.len()) });
                inner.fresh.store(false, Ordering::Release);
            }
        }
    }

    /// Claim a fresh buffer for the stage about to run (module docs,
    /// "Fresh buffers"); `false` if it is not fresh. The caller
    /// [`release`](Self::release)s it once the stage's workers are done.
    pub(crate) fn claim(&self) -> bool {
        let _settling = self.inner.settling.lock();
        self.inner.fresh.swap(false, Ordering::AcqRel)
    }

    /// Write `T::default()` over this view of a claimed buffer — a
    /// batch's band, on its worker, before the batch's first call — and
    /// return the storage index where the view ends.
    ///
    /// # Safety
    ///
    /// The band-write contract over the view: no other thread reads or
    /// writes any of it meanwhile (rule 1: each batch's band is its
    /// worker's alone, and rule 2: nothing reads a claimed buffer until
    /// its stage ends).
    pub(crate) unsafe fn zero_band(&self) -> usize {
        // SAFETY: in bounds (the view lies in its storage); rules 1 and
        // 2 of the band-write contract per this function's contract.
        (self.inner.fill)(unsafe { self.inner.storage.band_mut(self.start, self.len) });
        self.start + self.len
    }

    /// Settle a [`claim`](Self::claim) once the stage's workers are
    /// done. `Some(end)`: the stage ran and every element below `end`
    /// was zeroed by a band; the rest is filled with `T::default()` and
    /// the buffer is ready. `None`: the stage failed, and the buffer is
    /// fresh again.
    pub(crate) fn release(&self, covered: Option<usize>) {
        let inner = &*self.inner;
        if let Some(end) = covered {
            // SAFETY: the band-write contract over the tail. Rule 1: the
            // claim is this caller's and its stage's workers are done, so
            // nothing else writes the buffer. Rule 2: nothing reads it
            // until this release marks it ready.
            (inner.fill)(unsafe { inner.storage.band_mut(end, inner.storage.len() - end) });
        }
        inner.fresh.store(covered.is_none(), Ordering::Release);
    }

    /// Number of elements in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Address of the backing allocation; the stable identity of a view
    /// of all of it for dependency tracking.
    pub fn storage_addr(&self) -> usize {
        Arc::as_ptr(&self.inner) as *const () as usize
    }

    /// Whether the view covers all of its storage.
    pub(crate) fn is_whole(&self) -> bool {
        self.start == 0 && self.len == self.inner.storage.len()
    }

    /// The view of elements `[start, end)` of this view.
    ///
    /// # Panics
    ///
    /// Panics if the range is not inside the view.
    pub(crate) fn view(&self, start: usize, end: usize) -> Self {
        assert!(
            start <= end && end <= self.len,
            "view [{start}, {end}) of {}",
            self.len
        );
        SharedVec {
            inner: Arc::clone(&self.inner),
            start: self.start + start,
            len: end - start,
        }
    }

    /// The one view spanning `parts`, if they are views of one storage
    /// that follow each other without a gap, in order.
    pub(crate) fn spanning<'a>(mut parts: impl Iterator<Item = &'a Self>) -> Option<Self> {
        let first = parts.next()?;
        let mut end = first.start + first.len;
        for p in parts {
            if !p.same_storage(first) || p.start != end {
                return None;
            }
            end += p.len;
        }
        Some(SharedVec {
            inner: Arc::clone(&first.inner),
            start: first.start,
            len: end - first.start,
        })
    }

    /// Whether this handle is the only reference to its storage and views
    /// all of it: no clone, no other view, no value wrapping either is
    /// alive anywhere, and the handle is not itself a view of part of the
    /// storage. `Arc::get_mut`-exact, so a `true` cannot go stale while
    /// the caller keeps the handle to itself — the check a
    /// [`Placement::reuse`](crate::split::Placement::reuse) makes before
    /// writing a new result over a released one.
    pub fn is_exclusive(&mut self) -> bool {
        self.is_whole() && Arc::get_mut(&mut self.inner).is_some()
    }

    /// Whether two handles share the same backing storage.
    pub fn same_storage(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// The buffer's lazy-evaluation flag.
    pub fn protect_flag(&self) -> &ProtectFlag {
        &self.inner.protect
    }

    /// Read access to the viewed elements, forcing any pending lazy
    /// computation that mutates it first (the paper's evaluation point
    /// for values "allocated outside of the dataflow graph but mutated by
    /// an annotated function", §4.1).
    pub fn as_slice(&self) -> &[T] {
        self.inner.protect.ensure_evaluated();
        // SAFETY: `ensure_evaluated` completed all pending mutations, and
        // new mutations only begin after another annotated call is
        // registered, which cannot happen while `&self` borrows from this
        // call are live in well-formed programs; see module docs for the
        // runtime discipline.
        unsafe { self.slice_unchecked(0, self.len()) }
    }

    /// Copy the contents out as a `Vec`, forcing pending computation.
    pub fn to_vec(&self) -> Vec<T> {
        self.as_slice().to_vec()
    }

    /// Read a range of the view without checking the protect flag (a
    /// fresh buffer is materialized first, as by every element API).
    ///
    /// # Safety
    ///
    /// The caller must guarantee that no thread concurrently mutates any
    /// element of `[start, start + len)`. The Mozart executor guarantees
    /// this by assigning workers disjoint element ranges.
    pub unsafe fn slice_unchecked(&self, start: usize, len: usize) -> &[T] {
        debug_assert!(start + len <= self.len());
        self.materialize();
        // SAFETY: in bounds per the debug_assert and the invariant that
        // the view lies inside its storage; no band write over the
        // range is in flight, per this function's contract.
        unsafe { self.inner.storage.slice(self.start + start, len) }
    }

    /// Mutable access to a range of the view.
    ///
    /// # Safety
    ///
    /// The caller must guarantee that the range `[start, start + len)` is
    /// not accessed (read or written) by any other live reference while
    /// the returned slice is alive. The Mozart executor upholds this by
    /// giving each worker thread a disjoint element range and pipelining
    /// batches sequentially within a worker.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut_unchecked(&self, start: usize, len: usize) -> &mut [T] {
        debug_assert!(start + len <= self.len());
        self.materialize();
        // SAFETY: in bounds as above; exclusive per this function's
        // contract, which is the band-write contract.
        unsafe { self.inner.storage.band_mut(self.start + start, len) }
    }

    /// Raw pointer to the view's first element (for kernels with
    /// MKL-style aliasing semantics, e.g. in-place `out == a`). A fresh
    /// buffer is materialized first, unless a running stage claimed it
    /// and zeroes its bands (module docs, "Fresh buffers").
    pub fn base_ptr(&self) -> *mut T {
        self.materialize();
        let base = self.inner.storage.as_ptr();
        // SAFETY: `start <= storage length` is a construction invariant
        // of every view, so the offset stays inside (or one past) the
        // allocation.
        unsafe { base.add(self.start) }
    }
}

impl<T: Copy + Send + Sync + std::fmt::Debug + 'static> std::fmt::Debug for SharedVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SharedVec(len={})", self.len())
    }
}

/// A `DataValue` wrapper around a [`SharedVec<f64>`].
///
/// This is the value type the MKL-style integrations capture in the
/// dataflow graph, and the type of `ArraySplit`'s pieces, which view
/// ranges of the value they were split from. The identity of a view of
/// a whole buffer is its storage, so in-place mutation chains
/// (`d1 = log(d1); d1 = d1 + tmp; ...`) produce dependency edges. A
/// view of part of a buffer never passes for the buffer: it has no
/// storage identity, and each handle to it is a value of its own. So
/// no dependency edge joins calls on two views of one buffer: calls
/// that write a buffer should take it whole.
#[derive(Clone, Debug)]
pub struct VecValue(pub SharedVec<f64>);

impl DataObject for VecValue {
    fn type_name(&self) -> &'static str {
        "VecValue"
    }
    fn stable_identity(&self) -> Option<usize> {
        self.0.is_whole().then(|| self.0.storage_addr())
    }
    fn protect_flag(&self) -> Option<&ProtectFlag> {
        Some(self.0.protect_flag())
    }
}

impl VecValue {
    /// Wrap into a dynamic value handle.
    pub fn into_value(self) -> DataValue {
        DataValue::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn from_vec_roundtrip() {
        let v = SharedVec::from_vec(vec![1.0, 2.0, 3.0]);
        assert_eq!(v.as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
    }

    #[test]
    fn clones_share_storage() {
        let v = SharedVec::from_vec(vec![0u8; 8]);
        let w = v.clone();
        assert!(v.same_storage(&w));
        assert_eq!(v.storage_addr(), w.storage_addr());
    }

    #[test]
    fn disjoint_parallel_mutation() {
        let v: SharedVec<f64> = SharedVec::zeros(1000);
        std::thread::scope(|s| {
            for w in 0..4 {
                let v = v.clone();
                s.spawn(move || {
                    // SAFETY: each worker owns the disjoint range
                    // [w*250, (w+1)*250).
                    let chunk = unsafe { v.slice_mut_unchecked(w * 250, 250) };
                    for x in chunk.iter_mut() {
                        *x = w as f64;
                    }
                });
            }
        });
        let s = v.as_slice();
        assert_eq!(s[0], 0.0);
        assert_eq!(s[999], 3.0);
        assert_eq!(s[500], 2.0);
    }

    struct CountingTrigger(AtomicUsize);
    impl EvalTrigger for CountingTrigger {
        fn force(&self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn protected_read_forces_evaluation() {
        let trig = Arc::new(CountingTrigger(AtomicUsize::new(0)));
        let v: SharedVec<f64> = SharedVec::zeros(4);
        let weak: Weak<dyn EvalTrigger> = {
            let t: Arc<dyn EvalTrigger> = trig.clone();
            Arc::downgrade(&t)
        };
        v.protect_flag().protect(weak);
        assert!(v.protect_flag().is_protected());
        let _ = v.as_slice();
        assert_eq!(trig.0.load(Ordering::SeqCst), 1);
        // The trigger is responsible for unprotecting; simulate that.
        v.protect_flag().unprotect();
        let _ = v.as_slice();
        assert_eq!(trig.0.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn protected_read_with_dead_context_degrades_gracefully() {
        let v: SharedVec<f64> = SharedVec::from_vec(vec![7.0]);
        {
            let t: Arc<dyn EvalTrigger> = Arc::new(CountingTrigger(AtomicUsize::new(0)));
            v.protect_flag().protect(Arc::downgrade(&t));
        } // trigger dropped
        assert_eq!(v.as_slice(), &[7.0]);
        assert!(!v.protect_flag().is_protected());
    }

    #[test]
    fn a_view_aliases_its_storage() {
        let v = SharedVec::from_vec(vec![1.0, 2.0, 3.0, 4.0]);
        let piece = v.view(1, 3);
        assert_eq!(piece.len(), 2);
        assert!(piece.same_storage(&v) && !piece.is_whole());
        // SAFETY: no concurrent mutation in this test.
        unsafe {
            piece.slice_mut_unchecked(0, 2)[0] = 20.0;
            assert_eq!(piece.slice_unchecked(0, 2), &[20.0, 3.0]);
        }
        assert_eq!(piece.base_ptr(), v.base_ptr().wrapping_add(1));
        assert_eq!(piece.as_slice(), &[20.0, 3.0]);
        assert_eq!(v.as_slice(), &[1.0, 20.0, 3.0, 4.0]);
        // A view of a view is relative to it.
        assert_eq!(piece.view(1, 2).as_slice(), &[3.0]);
    }

    #[test]
    fn views_that_follow_each_other_span_one_view() {
        let v = SharedVec::from_vec(vec![1.0, 2.0, 3.0, 4.0]);
        let (a, b, c) = (v.view(0, 1), v.view(1, 3), v.view(3, 4));
        let all = SharedVec::spanning([&a, &b, &c].into_iter()).unwrap();
        assert!(all.is_whole() && all.same_storage(&v));
        let inner = SharedVec::spanning([&b].into_iter()).unwrap();
        assert_eq!(inner.as_slice(), &[2.0, 3.0]);
        // A gap, a wrong order or another storage spans nothing.
        assert!(SharedVec::spanning([&a, &c].into_iter()).is_none());
        assert!(SharedVec::spanning([&b, &a].into_iter()).is_none());
        let other = SharedVec::from_vec(vec![9.0]);
        assert!(SharedVec::spanning([&a, &other].into_iter()).is_none());
    }

    #[test]
    fn only_a_sole_handle_to_all_of_its_storage_is_exclusive() {
        let mut v = SharedVec::from_vec(vec![1.0, 2.0]);
        assert!(v.is_exclusive());
        let mut piece = v.view(0, 1);
        assert!(!v.is_exclusive() && !piece.is_exclusive());
        drop(v);
        // The last handle, but a view of part of the storage.
        assert!(!piece.is_exclusive());
    }

    #[test]
    fn vec_value_identity_tracks_storage() {
        let v = SharedVec::from_vec(vec![0.0]);
        let a = DataValue::new(VecValue(v.clone()));
        let b = DataValue::new(VecValue(v.clone()));
        // Distinct handles, same storage => same identity.
        assert_eq!(a.identity(), b.identity());
        let other = DataValue::new(VecValue(SharedVec::from_vec(vec![0.0])));
        assert_ne!(a.identity(), other.identity());
        // A view of part of the buffer is not the buffer.
        let w = SharedVec::from_vec(vec![0.0, 1.0]);
        let whole = DataValue::new(VecValue(w.clone()));
        let part = DataValue::new(VecValue(w.view(0, 1)));
        assert_ne!(part.identity(), whole.identity());
        assert_eq!(
            DataValue::new(VecValue(w.view(0, 2))).identity(),
            whole.identity()
        );
    }
}
