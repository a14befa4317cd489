//! Cross-crate integration tests: full workloads through the Mozart
//! runtime compared against eager library execution, across worker
//! counts, batch sizes, and the -pipe ablation.

use mozart_repro::core::{Config, MozartContext};
use mozart_repro::workloads::{self, close};

fn ctx_with(workers: usize, batch: Option<u64>, pipeline: bool) -> MozartContext {
    workloads::register_all_defaults();
    let mut cfg = Config::with_workers(workers);
    cfg.batch_override = batch;
    cfg.pipeline = pipeline;
    MozartContext::new(cfg)
}

#[test]
fn black_scholes_all_modes_all_configs() {
    use workloads::black_scholes as bs;
    let inp = bs::generate(3000, 5);
    let expect = bs::numpy_base(&inp);
    for workers in [1, 3, 8] {
        for batch in [None, Some(17), Some(4096)] {
            for pipeline in [true, false] {
                let ctx = ctx_with(workers, batch, pipeline);
                let got = bs::mkl_mozart(&inp, &ctx).expect("run");
                assert!(
                    close(expect.call_sum, got.call_sum, 1e-5),
                    "workers={workers} batch={batch:?} pipeline={pipeline}: {} vs {}",
                    expect.call_sum,
                    got.call_sum
                );
            }
        }
    }
}

#[test]
fn pipe_ablation_changes_stages_not_results() {
    use workloads::haversine as hv;
    let inp = hv::generate(2000, 2);
    let piped = ctx_with(2, Some(64), true);
    let r1 = hv::mkl_mozart(&inp, &piped).expect("run");
    let unpiped = ctx_with(2, Some(64), false);
    let r2 = hv::mkl_mozart(&inp, &unpiped).expect("run");
    assert!(close(r1.dist_sum, r2.dist_sum, 1e-12));
    assert_eq!(piped.stats().stages, 1);
    // 16 vector calls + final dasum = 17 function calls, one stage each.
    assert!(
        unpiped.stats().stages >= 17,
        "got {}",
        unpiped.stats().stages
    );
}

#[test]
fn full_data_science_pipeline_matches_eager() {
    use workloads::{
        birth_analysis as ba, crime_index as ci, data_cleaning as dc, movielens as ml,
    };
    let ctx = ctx_with(3, Some(101), true);

    let df = dc::generate(3000, 1);
    let a = dc::base(&df);
    let b = dc::mozart(&df, &ctx).expect("dc");
    assert_eq!(a.valid, b.valid);
    assert_eq!(a.nulls, b.nulls);

    let df = ci::generate(2500, 2);
    assert!(close(
        ci::base(&df).index_sum,
        ci::mozart(&df, &ctx).expect("ci").index_sum,
        1e-9
    ));

    let df = ba::generate(2500, 3);
    let x = ba::base(&df);
    let y = ba::mozart(&df, &ctx).expect("ba");
    assert_eq!(x.groups, y.groups);
    assert!(close(x.fraction_sum, y.fraction_sum, 1e-9));

    let d = ml::generate(4000, 4);
    let x = ml::base(&d);
    let y = ml::mozart(&d, &ctx).expect("ml");
    assert_eq!(x.movies_rated_by_both, y.movies_rated_by_both);
    assert!(close(x.divisiveness_sum, y.divisiveness_sum, 1e-9));
}

#[test]
fn simulations_match_across_runtimes() {
    use workloads::{nbody as nb, shallow_water as sw};
    let ctx = ctx_with(2, None, true);
    let b = nb::generate(40, 6);
    let x = nb::numpy_base(&b, 2, 0.02);
    let y = nb::mkl_mozart(&b, 2, 0.02, &ctx).expect("nb");
    assert!(close(x.x_sum, y.x_sum, 1e-9));

    let g = sw::generate(20);
    let x = sw::numpy_base(&g, 3, 0.01);
    let ctx = ctx_with(2, Some(7), true);
    let y = sw::numpy_mozart(&g, 3, 0.01, &ctx).expect("sw");
    assert!(close(x.mass, y.mass, 1e-9));
    assert!(close(x.momentum2, y.momentum2, 1e-9));
}

#[test]
fn text_and_images_match_across_runtimes() {
    use workloads::{images, speech_tag as st};
    let corpus = st::generate(40, 30, 8);
    let ctx = ctx_with(4, Some(3), true);
    assert_eq!(st::base(&corpus), st::mozart(&corpus, &ctx).expect("st"));

    let img = images::generate(48, 36, 2);
    let ctx = ctx_with(3, Some(5), true);
    let a = images::gotham_base(&img);
    let b = images::gotham_mozart(&img, &ctx).expect("img");
    assert!(close(a.mean, b.mean, 1e-5));
}

#[test]
fn one_context_survives_many_workloads() {
    // A single context accumulating multiple evaluation rounds, like a
    // long-running application session.
    use workloads::{crime_index as ci, haversine as hv};
    let ctx = ctx_with(2, Some(256), true);
    for seed in 0..3 {
        let inp = hv::generate(1200, seed);
        let expect = hv::numpy_base(&inp);
        let got = hv::mkl_mozart(&inp, &ctx).expect("hv");
        assert!(close(expect.dist_sum, got.dist_sum, 1e-6));
        let df = ci::generate(900, seed);
        assert!(close(
            ci::base(&df).index_sum,
            ci::mozart(&df, &ctx).expect("ci").index_sum,
            1e-9
        ));
    }
    assert!(ctx.stats().stages >= 6);
}

#[test]
fn oversubscribed_workers_are_safe() {
    use workloads::black_scholes as bs;
    let inp = bs::generate(500, 9);
    let ctx = ctx_with(32, Some(3), true); // more workers than batches
    let got = bs::mkl_mozart(&inp, &ctx).expect("run");
    let expect = bs::numpy_base(&inp);
    assert!(close(expect.call_sum, got.call_sum, 1e-5));
}

#[test]
fn a_stage_over_zero_elements_returns_what_the_library_returns() {
    use mozart_repro::dataframe::{ops, Column, DataFrame};
    use mozart_repro::sa_dataframe as sa;
    use workloads::crime_index::BIG_CITY;
    // Every city is small, so the filter keeps no rows.
    let small = |k: f64| Column::from_f64((0..1000).map(|i| k * (1 + i) as f64).collect());
    let df = DataFrame::from_cols(vec![
        ("total_population", small(100.0)),
        ("adult_population", small(70.0)),
    ]);
    let plain = df.filter(&ops::gt_scalar(df.col("total_population"), BIG_CITY));
    assert_eq!(plain.num_rows(), 0);
    for workers in [1, 2] {
        let ctx = ctx_with(workers, None, true);
        let tp = sa::col(&ctx, &df, "total_population").unwrap();
        let mask = sa::gt_scalar(&ctx, &tp, BIG_CITY).unwrap();
        let big = sa::get_df(&sa::filter(&ctx, &df, &mask).unwrap()).unwrap();
        assert_eq!(big.num_rows(), 0);
        // The next stage's split inputs add up to zero elements: it runs
        // the library on them whole, as the plain library would.
        let tp = sa::col(&ctx, &big, "total_population").unwrap();
        let adult = sa::col(&ctx, &big, "adult_population").unwrap();
        let ratio = sa::get_col(&sa::div(&ctx, &adult, &tp).unwrap()).unwrap();
        let expect = ops::div(plain.col("adult_population"), plain.col("total_population"));
        assert_eq!((ratio.len(), ratio.dtype()), (expect.len(), expect.dtype()));
        assert_eq!(sa::get_col(&tp).unwrap().len(), 0, "workers={workers}");
    }
}
