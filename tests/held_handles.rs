//! What holding `crime_index`'s eight intermediate handles across its
//! one read costs against dropping them first, in wall time.
//!
//! Demand-driven materialization keeps a live but unread output as
//! pieces instead of merging it, so holding a handle should be nearly
//! free. The bound is `held ≤ 1.15·dropped + 2 ms` per evaluation, at
//! 2^18 rows on 4 workers: 6 timed evaluations after 2 warm-ups, one
//! context per evaluation on a shared pool.
//!
//! The gate passes through its 2 ms allowance, not through the 1.15
//! factor. On a 2-core shared host, five quiet runs of this test read
//! 1.05–1.42× (3.8–4.5 ms held against 3.0–3.7 ms dropped). At 2^20
//! rows, three runs read 1.14–1.46×, and the 1.46× run failed the same
//! bound. Under load from other processes the held arm slows more than
//! the dropped one: 2 of 20 runs of this test failed (8.2 ms held
//! against 5.0 ms dropped, and 15.2 against 11.4), as did 5 of 20 runs
//! of the bench this test replaces (ratios 0.70–1.98×). The merged bytes and deferred outputs
//! of the two arms are checked exactly by `tests/properties.rs`
//! (`crime_index_held_handles_merge_no_extra_bytes`).
//!
//! One test in this file, so that no sibling test shares the cores.
//! Run it in release: `cargo test --release --test held_handles`.

use std::time::Instant;

use mozart_repro::core::{Config, PoolHandle};
use mozart_repro::workloads::{self, crime_index};

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wall-time gate; runs in the release CI leg"
)]
fn holding_handles_costs_at_most_1_15x_dropping_them() {
    const WORKERS: usize = 4;
    const WARMUPS: usize = 2;
    const EVALS: usize = 6;
    let df = crime_index::generate(1 << 18, 7);
    let pool = PoolHandle::new(WORKERS - 1);
    let seconds_per_eval = |held: bool| {
        let run = if held {
            crime_index::mozart
        } else {
            crime_index::mozart_handles_dropped
        };
        let once = || {
            let ctx = workloads::mozart_context_with(Config::with_workers(WORKERS));
            ctx.attach_pool(pool.clone());
            run(&df, &ctx).unwrap().index_sum
        };
        for _ in 0..WARMUPS {
            once();
        }
        let t0 = Instant::now();
        for _ in 0..EVALS {
            once();
        }
        t0.elapsed().as_secs_f64() / EVALS as f64
    };
    let held = seconds_per_eval(true);
    let dropped = seconds_per_eval(false);
    assert!(
        held <= dropped * 1.15 + 2e-3,
        "holding handles costs more than 1.15x: {held:.4}s/eval held vs {dropped:.4}s/eval dropped"
    );
}
