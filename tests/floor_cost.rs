//! What a pipeline of calls below the work floor costs against the
//! plain library, in wall time: one `bs_mkl.small` operation — a fresh
//! context on a shared pool and plan cache, `bs::mkl_chain` over copies
//! of its five inputs at n = 512, `evaluate()`, then the read — against
//! `bs::mkl_base` over the same inputs. All 30 calls of the chain run at
//! registration, so what the operation pays beyond the library is the
//! runtime's cost per call.
//!
//! Each side is timed as the minimum over 2000 rounds that alternate
//! between the two, one run of each per round: another tenant's load on
//! a shared host only ever lengthens a run, so the minimum is each
//! side's own cost, and alternating lets a quiet stretch reach both. The
//! bound is `operation ≤ 1.55 · library`: a `speedup_vs_base` of at
//! least 0.65.
//!
//! One test in this file, so that no sibling test shares the cores.
//! Run it in release: `cargo test --release --test floor_cost`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mozart_repro::core::{Config, MozartContext, PlanCache, PoolHandle, SharedVec};
use mozart_repro::workloads::{self, black_scholes as bs};

/// Rounds, each timing one run of each side.
const ROUNDS: usize = 2000;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wall-time gate; runs in the release CI leg"
)]
fn an_operation_below_the_floor_costs_at_most_1_55x_the_library() {
    workloads::register_all_defaults();
    let inp = bs::generate(512, 7);
    // The benchmark's configuration on its host's 2 MiB L2: the work
    // floor (128 KiB) is above every call of the 512-element chain,
    // whatever `MOZART_L2_BYTES` says.
    let mut config = Config::with_workers(2);
    config.l2_bytes = 2 << 20;
    let pool = PoolHandle::new(1);
    let cache = Arc::new(PlanCache::new(8));
    let op = || {
        let ctx = MozartContext::new(config.clone());
        ctx.attach_pool(pool.clone())
            .attach_plan_cache(cache.clone());
        let shared = |v: &Vec<f64>| SharedVec::from_vec(v.clone());
        let (call, put) = bs::mkl_chain(
            &ctx,
            &shared(&inp.price),
            &shared(&inp.strike),
            &shared(&inp.t),
            &shared(&inp.rate),
            &shared(&inp.vol),
        )
        .unwrap();
        ctx.evaluate().unwrap();
        let stats = ctx.stats();
        assert_eq!((stats.inline_calls, stats.stages), (30, 0), "{stats:?}");
        bs::summarize_range(call.as_slice(), put.as_slice())
    };
    let base = || bs::mkl_base(&inp);
    assert_eq!(op(), base(), "the operation returns the library's bits");

    let (mut mozart, mut library) = (Duration::MAX, Duration::MAX);
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        black_box(op());
        let t1 = Instant::now();
        black_box(base());
        mozart = mozart.min(t1 - t0);
        library = library.min(t1.elapsed());
    }
    let ratio = mozart.as_secs_f64() / library.as_secs_f64();
    eprintln!("operation {mozart:?}, library {library:?}: {ratio:.2}x");
    assert!(
        ratio <= 1.55,
        "an operation below the floor took {mozart:?} against the library's {library:?}: {ratio:.2}x"
    );
}
