//! Calls below the work floor are cheap in heap allocations: one
//! `bs_mkl.small` operation whose 30 calls all run at registration — a
//! fresh context on a shared pool and plan cache, `bs::mkl_chain`, then
//! `evaluate()` — stays within a fixed allocation budget.
//! `tests/warm_allocations.rs` counts the same operation on the captured
//! path's plan-cache hit.
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
/// wrappers' argument vectors and handles (~150), plus a piece per split
/// argument of each call; split parameters are built once per thread.
/// It made 244 when the budget was set.
const BUDGET: usize = 260;

#[test]
fn an_operation_at_registration_stays_within_its_allocation_budget() {
    workloads::register_all_defaults();
    let inp = bs::generate(512, 7);
    let inputs = [&inp.price, &inp.strike, &inp.t, &inp.rate, &inp.vol]
        .map(|v| SharedVec::from_vec(v.clone()));
    // The configuration the benchmark measures, on its host's 2 MiB L2:
    // the work floor (128 KiB) is above every call of the 512-element
    // chain, whatever `MOZART_L2_BYTES` says. Each annotation was
    // checked once when it was built, so no call checks it again.
    let mut config = Config::with_workers(2);
    config.l2_bytes = 2 << 20;
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
        let stats = ctx.stats();
        assert_eq!((stats.inline_calls, stats.stages), (30, 0), "{stats:?}");
        let got = bs::summarize_range(call.as_slice(), put.as_slice());
        (allocs, got.call_sum + got.put_sum)
    };
    let (_, expect) = op();
    for round in 0..5 {
        let (allocs, got) = op();
        assert_eq!(got, expect, "round {round}: the result changed");
        assert!(
            allocs <= BUDGET,
            "round {round}: an operation made {allocs} heap allocations (budget {BUDGET})"
        );
    }
    assert_eq!(
        cache.stats().hits + cache.stats().misses,
        0,
        "nothing planned"
    );
}
