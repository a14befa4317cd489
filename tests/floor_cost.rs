//! What a pipeline of calls below the work floor costs against the
//! plain library, in wall time: one `bs_mkl.small` operation — a fresh
//! context on a shared pool and plan cache, `bs::mkl_chain` over copies
//! of its five inputs at n = 512, `evaluate()`, then the read — against
//! `bs::mkl_base` over the same inputs. All 30 calls of the chain run at
//! registration, so what the operation pays beyond the library is the
//! runtime's cost per call.
//!
//! Each side is timed as the minimum over 2000 rounds that alternate
//! between the sides, one run of each per round: another tenant's load
//! on a shared host only ever lengthens a run, so the minimum is each
//! side's own cost, and alternating lets a quiet stretch reach both. The
//! bound is `operation ≤ 1.55 · library`: a `speedup_vs_base` of at
//! least 0.65.
//!
//! A third side, timed in the same rounds but not bounded, names the
//! layer a regression is in: the chain's 30 kernels called directly, on
//! the same five input copies and seven zeroed buffers the operation
//! makes, then the same read. The operation less that is the runtime's
//! share, printed per call.
//!
//! One test in this file, so that no sibling test shares the cores.
//! Run it in release: `cargo test --release --test floor_cost`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mozart_repro::core::{Config, MozartContext, PlanCache, PoolHandle, SharedVec};
use mozart_repro::vectormath as vm;
use mozart_repro::workloads::{self, black_scholes as bs};

/// Rounds, each timing one run of each side.
const ROUNDS: usize = 2000;

/// The calls of `bs::mkl_chain`.
const CALLS: u32 = 30;

/// `bs::mkl_chain`'s kernels in its order, each on the buffers as they
/// are, without the runtime.
fn direct(inp: &bs::Inputs) -> bs::Summary {
    let shared = |v: &Vec<f64>| SharedVec::from_vec(v.clone());
    let [price, strike, t, rate, vol] =
        [&inp.price, &inp.strike, &inp.t, &inp.rate, &inp.vol].map(shared);
    let n = price.len();
    let [d1, d2, tmp, vol_sqrt, e_rt, call, put] =
        std::array::from_fn::<_, 7, _>(|_| SharedVec::<f64>::zeros(n));
    let p = |v: &SharedVec<f64>| v.base_ptr();
    // SAFETY: every buffer holds `n` elements, and each call's operands
    // are the same buffer or disjoint ones, as the kernels require.
    unsafe {
        vm::vd_sqr_raw(n, p(&vol), p(&tmp));
        vm::vd_scale_raw(n, p(&tmp), 0.5, p(&tmp));
        vm::vd_add_raw(n, p(&tmp), p(&rate), p(&tmp));
        vm::vd_sqrt_raw(n, p(&t), p(&vol_sqrt));
        vm::vd_mul_raw(n, p(&vol_sqrt), p(&vol), p(&vol_sqrt));
        vm::vd_div_raw(n, p(&price), p(&strike), p(&d1));
        vm::vd_shift_raw(n, p(&d1), -1.0, p(&d1));
        vm::vd_log1p_raw(n, p(&d1), p(&d1));
        vm::vd_mul_raw(n, p(&tmp), p(&t), p(&tmp));
        vm::vd_add_raw(n, p(&d1), p(&tmp), p(&d1));
        vm::vd_div_raw(n, p(&d1), p(&vol_sqrt), p(&d1));
        vm::vd_sub_raw(n, p(&d1), p(&vol_sqrt), p(&d2));
        for d in [&d1, &d2] {
            vm::vd_scale_raw(n, p(d), std::f64::consts::FRAC_1_SQRT_2, p(d));
            vm::vd_erf_raw(n, p(d), p(d));
            vm::vd_scale_raw(n, p(d), 0.5, p(d));
            vm::vd_shift_raw(n, p(d), 0.5, p(d));
        }
        vm::vd_mul_raw(n, p(&rate), p(&t), p(&e_rt));
        vm::vd_neg_raw(n, p(&e_rt), p(&e_rt));
        vm::vd_exp_raw(n, p(&e_rt), p(&e_rt));
        vm::vd_mul_raw(n, p(&price), p(&d1), p(&call));
        vm::vd_mul_raw(n, p(&e_rt), p(&strike), p(&tmp));
        vm::vd_mul_raw(n, p(&tmp), p(&d2), p(&tmp));
        vm::vd_sub_raw(n, p(&call), p(&tmp), p(&call));
        vm::vd_mul_raw(n, p(&e_rt), p(&strike), p(&put));
        vm::vd_sub_raw(n, p(&put), p(&price), p(&put));
        vm::vd_add_raw(n, p(&put), p(&call), p(&put));
    }
    bs::summarize_range(call.as_slice(), put.as_slice())
}

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
    assert_eq!(
        direct(&inp),
        base(),
        "the kernels return the library's bits"
    );

    let (mut mozart, mut library, mut kernels) = (Duration::MAX, Duration::MAX, Duration::MAX);
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        black_box(op());
        let t1 = Instant::now();
        black_box(base());
        let t2 = Instant::now();
        black_box(direct(&inp));
        mozart = mozart.min(t1 - t0);
        library = library.min(t2 - t1);
        kernels = kernels.min(t2.elapsed());
    }
    let ratio = mozart.as_secs_f64() / library.as_secs_f64();
    let runtime = mozart.saturating_sub(kernels);
    eprintln!("operation {mozart:?}, library {library:?}: {ratio:.2}x");
    eprintln!(
        "kernels called directly {kernels:?}: the runtime's share {runtime:?}, {:?} per call",
        runtime / CALLS
    );
    assert!(
        ratio <= 1.55,
        "an operation below the floor took {mozart:?} against the library's {library:?}: {ratio:.2}x"
    );
}
