//! Planning a long-lived context's next evaluation costs what that
//! evaluation's own calls cost, however many came before it. The
//! fingerprint's canonical numbering, every stage's slot table and the
//! plan verifier's tables over it span only the value ids the pending
//! calls produce; the inputs a context
//! keeps reading since its first evaluation — whose value ids stay the
//! graph's oldest — are looked up aside, not by widening the window
//! down to them.
//!
//! The cost is measured as the heap bytes `evaluate()` allocates, from
//! a counting global allocator — which is why this file holds exactly
//! one test: nothing else may allocate while it runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mozart_repro::core::{Config, MozartContext, PlanCache, PoolHandle, SharedVec};
use mozart_repro::workloads::{self, black_scholes as bs};

/// Heap bytes requested by the process so far (fresh or resized).
static BYTES: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is only a statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size, Ordering::Relaxed);
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

#[test]
fn planning_cost_stays_flat_on_a_reused_context() {
    workloads::register_all_defaults();
    let inp = bs::generate(64, 11);
    let inputs = [&inp.price, &inp.strike, &inp.t, &inp.rate, &inp.vol]
        .map(|v| SharedVec::from_vec(v.clone()));
    let mut config = Config::with_workers(2);
    // At 8 KiB of L2 the work floor (512 B) is below the chain's
    // smallest call (1 KiB), so every call is captured and planned.
    config.l2_bytes = 8 << 10;
    let ctx = MozartContext::new(config);
    let cache = Arc::new(PlanCache::new(8));
    ctx.attach_pool(PoolHandle::new(1))
        .attach_plan_cache(cache.clone());

    // Bytes `evaluate()` allocates for one more `bs::mkl_chain` on the
    // same context over the same inputs.
    let evaluation = || {
        let [price, strike, t, rate, vol] = &inputs;
        let (call, put) = bs::mkl_chain(&ctx, price, strike, t, rate, vol).unwrap();
        let before = BYTES.load(Ordering::Relaxed);
        ctx.evaluate().unwrap();
        let bytes = BYTES.load(Ordering::Relaxed) - before;
        let got = bs::summarize_range(call.as_slice(), put.as_slice());
        (bytes, got.call_sum + got.put_sum)
    };
    let (_, expect) = evaluation();
    for _ in 0..10 {
        evaluation();
    }
    let (early, _) = evaluation();
    // Each evaluation adds ~40 values to the graph: 500 more put ~20k
    // values ahead of the next one. A window reaching back to the
    // inputs would make it allocate tens of bytes per graph value.
    for _ in 0..500 {
        evaluation();
    }
    let hits_before = cache.stats().hits;
    let (late, got) = evaluation();
    assert_eq!(got, expect, "a later evaluation changed the result");
    assert_eq!(
        cache.stats().hits,
        hits_before + 1,
        "the evaluation hits its entry"
    );
    assert!(
        late <= early + 1024,
        "evaluate() allocated {early} B on a young context but {late} B \
         after 500 more evaluations"
    );
}
