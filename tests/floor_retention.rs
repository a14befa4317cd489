//! Calls below the work floor keep a bounded set of whole pieces on
//! their context: 10 000 calls over fresh buffers on one long-lived
//! context, with no evaluation between them, leave the live heap where
//! the first thousand left it.
//!
//! The measurement is the process's live heap, from a counting global
//! allocator — which is why this file holds exactly one test: nothing
//! else may allocate while it runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mozart_repro::core::{Config, MozartContext, SharedVec};
use mozart_repro::{sa_vectormath, workloads};

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
fn floor_calls_over_fresh_buffers_keep_the_heap_flat() {
    workloads::register_all_defaults();
    // On a 2 MiB L2 the floor (128 KiB) is above every call below,
    // whatever `MOZART_L2_BYTES` says.
    let ctx = MozartContext::new(Config {
        l2_bytes: 2 << 20,
        ..Config::with_workers(2)
    });
    let n = 64;
    let b = SharedVec::from_vec(vec![1.0; n]);
    // The highest live heap over calls `calls`, each over a fresh input
    // and output the application drops right after.
    let peak = |calls: std::ops::Range<usize>| {
        let mut peak = 0;
        for i in calls {
            let a = SharedVec::from_vec(vec![i as f64; n]);
            let out = SharedVec::<f64>::zeros(n);
            sa_vectormath::vd_add(&ctx, n, &a, &b, &out).unwrap();
            assert_eq!(out.as_slice()[n - 1], i as f64 + 1.0);
            peak = peak.max(LIVE.load(Ordering::Relaxed));
        }
        peak
    };
    let early = peak(0..1000);
    let late = peak(1000..10_000);
    let stats = ctx.stats();
    assert_eq!((stats.inline_calls, stats.stages), (10_000, 0), "{stats:?}");
    // Each kept piece holds its buffer until the memo is emptied, so the
    // heap saws up and down; its highest point must not climb.
    assert!(
        late <= early,
        "live heap peaked at {early} B over the first 1000 calls and {late} B over the next 9000"
    );
}
