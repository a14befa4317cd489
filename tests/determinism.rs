//! A result's bits depend on the plan alone, not on the schedule.
//!
//! Collected outputs merge over one fixed grouping of batches (blocks
//! of `⌈√n⌉` batches, then the block values; see
//! `mozart_core::executor`), so a floating-point fold returns the same
//! bits whichever worker claimed which batch. Generated programs mix
//! `f64` folds — `SumReduce` and `MeanReduce` (NumPy), `AddReduce`
//! (MKL) and the Series sum's `ColSumReduce` (Pandas) — with a placed
//! concat output and a collected one (a filtered frame), under a pinned
//! batch of at least 16 batches per stage. Every output is bit-equal
//! across 1, 2 and 4 workers and across 20 evaluations on one shared
//! pool. The Crime Index pipeline is held to the same.

use proptest::prelude::*;

use dataframe::{Column, DataFrame};
use mozart_repro::core::{Config, MozartContext, PoolHandle, SharedVec};
use mozart_repro::ndarray_lite::NdArray;
use mozart_repro::workloads::crime_index;
use mozart_repro::{sa_dataframe as sdf, sa_ndarray as snd, sa_vectormath as svm};

/// A context of `workers` participants with a pinned batch, on `pool`
/// (its `workers - 1` threads) when given, else on its own.
fn ctx(workers: usize, batch: u64, pool: Option<&PoolHandle>) -> MozartContext {
    mozart_repro::workloads::register_all_defaults();
    let mut cfg = Config::with_workers(workers);
    cfg.batch_override = Some(batch);
    let ctx = MozartContext::new(cfg);
    if let Some(pool) = pool {
        ctx.attach_pool(pool.clone());
    }
    ctx
}

/// One generated program: an input of `data`, elementwise steps `ops`
/// (each an op code and a scalar) before the folds, and a filter
/// threshold for the frame.
#[derive(Debug, Clone)]
struct Program {
    data: Vec<f64>,
    ops: Vec<(u8, f64)>,
    threshold: f64,
}

/// Evaluate `p` on `ctx` and return the bits of every output: the four
/// folds, the elementwise result (placed) and the filtered column
/// (collected), in that order.
fn run(p: &Program, ctx: &MozartContext) -> Vec<u64> {
    let mut y = snd::mul_scalar(ctx, &NdArray::from_vec(p.data.clone()), 1.0).unwrap();
    for &(op, k) in &p.ops {
        y = match op % 4 {
            0 => snd::mul_scalar(ctx, &y, k),
            1 => snd::add_scalar(ctx, &y, k),
            2 => snd::abs(ctx, &y),
            _ => snd::add(ctx, &y, &y),
        }
        .unwrap();
    }
    let sum = snd::sum(ctx, &y).unwrap();
    let mean = snd::mean(ctx, &y).unwrap();

    let x = SharedVec::from_vec(p.data.clone());
    let dot = svm::ddot(ctx, &x, &x).unwrap();

    let df = DataFrame::from_cols(vec![("v", Column::from_f64(p.data.clone()))]);
    let v = sdf::col(ctx, &df, "v").unwrap();
    let mask = sdf::gt_scalar(ctx, &v, p.threshold).unwrap();
    let big = sdf::filter(ctx, &df, &mask).unwrap();
    let picked = sdf::col(ctx, &big, "v").unwrap();
    let col_sum = sdf::sum(ctx, &picked).unwrap();

    let mut bits = vec![
        snd::get_scalar(&sum).unwrap().to_bits(),
        snd::get_scalar(&mean).unwrap().to_bits(),
        // A `FloatValue`, which either integration's reader reads.
        snd::get_scalar(&dot).unwrap().to_bits(),
        sdf::get_scalar(&col_sum).unwrap().to_bits(),
    ];
    let (y, picked) = (snd::get(&y).unwrap(), sdf::get_col(&picked).unwrap());
    bits.extend(
        y.as_slice()
            .iter()
            .chain(picked.f64s())
            .map(|x| x.to_bits()),
    );
    bits
}

/// Values of mixed sign spread over twelve decades, so that a sum
/// regrouped differently almost surely rounds differently.
fn spread() -> impl Strategy<Value = f64> {
    (-1.0f64..1.0, 0i32..12).prop_map(|(m, e)| m * 10f64.powi(e - 6))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn folds_and_concats_have_one_bit_pattern(
        data in prop::collection::vec(spread(), 256..1024),
        ops in prop::collection::vec((0u8..4, -3.0f64..3.0), 0..4),
        threshold in -1e3f64..1e3,
        per_batch in 16u64..40,
    ) {
        let p = Program { data, ops, threshold };
        // At least 16 batches per stage.
        let batch = (p.data.len() as u64 / per_batch).max(1);
        let want = run(&p, &ctx(1, batch, None));
        for workers in [2, 4] {
            prop_assert_eq!(&run(&p, &ctx(workers, batch, None)), &want, "{} workers", workers);
        }
        let pool = PoolHandle::new(3);
        for i in 0..20 {
            prop_assert_eq!(&run(&p, &ctx(4, batch, Some(&pool))), &want, "evaluation {} on a shared pool", i);
        }
    }
}

/// Crime Index's `index_sum` (`ColSumReduce` over a filtered frame)
/// over 128 batches: 40 warm operations on one shared 2-worker pool
/// return the 1-worker bits every time.
#[test]
fn crime_index_sum_has_one_bit_pattern() {
    let df = crime_index::generate(1 << 14, 3);
    let batch = 128;
    let want = crime_index::mozart(&df, &ctx(1, batch, None))
        .unwrap()
        .index_sum
        .to_bits();
    let pool = PoolHandle::new(1);
    for i in 0..40 {
        let got = crime_index::mozart(&df, &ctx(2, batch, Some(&pool))).unwrap();
        assert_eq!(got.index_sum.to_bits(), want, "operation {i}");
    }
}
