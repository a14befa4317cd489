//! A warm evaluation is cheap in heap allocations, not only in time
//! (ISSUE 21): one warm `bs_mkl.small` operation — a fresh context on a
//! shared pool and plan cache, the 28 calls of `bs::mkl_chain`, then
//! `evaluate()` — stays within a fixed allocation budget. It made 607
//! allocations before capture, fingerprinting, replay binding and stage
//! launch stopped allocating per call, per value and per node.
//!
//! The count comes from a counting global allocator, which is why this
//! file holds exactly one test: nothing else may allocate while it runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mozart_repro::core::{Config, MozartContext, PlanCache, PoolHandle, SharedVec};
use mozart_repro::workloads::{self, black_scholes as bs};

/// Allocations (fresh or resized) made by the process so far.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is only a statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The budget: the operation's own `SharedVec` temporaries and the
/// wrappers' argument vectors and handles (~150) plus the runtime's
/// capture, fingerprint, stage planning and stage launch.
const BUDGET: usize = 350;

#[test]
fn a_warm_evaluation_stays_within_its_allocation_budget() {
    workloads::register_all_defaults();
    let inp = bs::generate(512, 7);
    let inputs = [&inp.price, &inp.strike, &inp.t, &inp.rate, &inp.vol]
        .map(|v| SharedVec::from_vec(v.clone()));
    // The configuration the benchmark measures, checks included: every
    // stage plan is verified before it runs. The cache size is pinned
    // so that the host's L2 (or
    // `MOZART_L2_BYTES`) cannot change what runs: at 64 KiB every stage
    // of the 512-element chain is one batch (682 elements fit), and the
    // work floor (4 KiB) is below its smallest call (8 KiB), so every
    // call is captured and planned, on a plan-cache hit.
    let mut config = Config::with_workers(2);
    config.l2_bytes = 64 << 10;
    let pool = PoolHandle::new(1);
    let cache = Arc::new(PlanCache::new(8));

    // Allocations of one operation, from context creation to the end of
    // `evaluate()`.
    let op = || {
        let before = ALLOCS.load(Ordering::Relaxed);
        let ctx = MozartContext::new(config.clone());
        ctx.attach_pool(pool.clone())
            .attach_plan_cache(cache.clone());
        let [price, strike, t, rate, vol] = &inputs;
        let (call, put) = bs::mkl_chain(&ctx, price, strike, t, rate, vol).unwrap();
        ctx.evaluate().unwrap();
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        let got = bs::summarize_range(call.as_slice(), put.as_slice());
        (allocs, got.call_sum + got.put_sum)
    };
    // Warm: the pool runs, the plan is cached, the allocator has its pages.
    let (_, expect) = op();
    op();
    let cache_before = cache.stats();
    for round in 0..5 {
        let (allocs, got) = op();
        assert_eq!(
            got, expect,
            "round {round}: a warm evaluation changed the result"
        );
        assert!(
            allocs <= BUDGET,
            "round {round}: a warm evaluation made {allocs} heap allocations (budget {BUDGET})"
        );
    }
    let hits = cache.stats().hits - cache_before.hits;
    assert_eq!(
        hits, 5,
        "every measured evaluation hits its plan-cache entry"
    );
}
