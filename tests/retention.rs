//! A long-lived `MozartContext` holds only what the application can
//! still reach (ISSUE 12): at the end of each evaluation the runtime
//! drops the payload of every return value whose `Future` is gone and
//! whose consumers have all run, so reusing one context for many
//! evaluations does not accumulate their intermediates.
//!
//! The measurement is the process's live heap, from a counting global
//! allocator — which is why this file holds exactly one test: nothing
//! else may allocate while it runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mozart_repro::workloads::crime_index;

/// Live heap bytes of the process.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is only a statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System.alloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_reused_context_does_not_accumulate_evaluations() {
    let df = crime_index::generate(100_000, 3);
    let ctx = mozart_repro::workloads::mozart_context(2);
    let expect = crime_index::base(&df).index_sum;
    let evaluate = || {
        let got = crime_index::mozart(&df, &ctx).unwrap().index_sum;
        assert!(mozart_repro::workloads::close(got, expect, 1e-9));
        LIVE.load(Ordering::Relaxed)
    };
    let after_one = evaluate();
    let mut after_many = after_one;
    for _ in 1..100 {
        after_many = evaluate();
    }
    // One evaluation's intermediates are several times the input frame;
    // a context that kept them would hold ~100x `after_one` by now.
    assert!(
        after_many <= 2 * after_one,
        "live heap grew from {after_one} B after one evaluation to {after_many} B after 100"
    );
}
