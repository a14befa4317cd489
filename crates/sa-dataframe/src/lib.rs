//! # sa-dataframe — split annotations for the `dataframe` library
//!
//! The annotator-side integration for the Pandas stand-in (§7
//! "Pandas"): a row-based [`RowSplit`] shared by DataFrames and Series,
//! a [`GroupSplit`] for grouped aggregations
//! (partial aggregation + re-aggregating merger), joins that split the
//! probe side and broadcast the build side, filters returning the
//! `unknown` split type, and generics on most Series operators.
//!
//! The `dataframe` crate itself is not modified; the splitting API is
//! implemented with its existing public functions, like the paper's
//! "<20 LoC each" Pandas splitters. `RowSplit` is a row-band split type:
//! [`DfValue`] and [`ColValue`] implement
//! `mozart_core::row_bands::RowBand` with the library's slice, concat,
//! allocation and row-write calls, and the runtime's generic row-band
//! implementation does the rest, picking frames or columns per value.

#![warn(missing_docs)]

pub mod groupsplit;
pub mod split;
pub mod wrappers;

pub use groupsplit::{combine, finish, GroupSplit, GroupedPartial};
pub use split::{ColValue, DfValue, RowSplit};
pub use wrappers::*;

/// Register this integration's default split types. Idempotent.
pub fn register_defaults() {
    mozart_core::registry::register_default_splitter::<DfValue>(RowSplit::shared());
    mozart_core::registry::register_default_splitter::<ColValue>(RowSplit::shared());
    for a in wrappers::annotations() {
        mozart_core::registry::register_annotation(a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataframe::{Agg, AggSpec, Column, DataFrame};
    use mozart_core::prelude::*;
    use std::sync::Arc;

    fn ctx() -> MozartContext {
        register_defaults();
        let mut cfg = Config::with_workers(2);
        cfg.batch_override = Some(7);
        MozartContext::new(cfg)
    }

    fn people() -> DataFrame {
        let n = 50;
        DataFrame::from_cols(vec![
            ("id", Column::from_i64((0..n).collect())),
            (
                "age",
                Column::from_f64((0..n).map(|i| (i % 40) as f64 + 18.0).collect()),
            ),
            (
                "city",
                Column::from_str(
                    (0..n)
                        .map(|i| ["sf", "nyc", "la"][i as usize % 3].to_string())
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn projection_and_arithmetic_pipeline() {
        let c = ctx();
        let d = people();
        let age = col(&c, &d, "age").unwrap();
        let doubled = mul_scalar(&c, &age, 2.0).unwrap();
        let shifted = add_scalar(&c, &doubled, 1.0).unwrap();
        let out = get_col(&shifted).unwrap();
        let expect = dataframe::ops::add_scalar(
            &dataframe::ops::mul_scalar(&d.col("age").to_f64(), 2.0),
            1.0,
        );
        assert_eq!(out.f64s(), expect.f64s());
        assert_eq!(c.stats().stages, 1, "projection + two series ops pipeline");
    }

    #[test]
    fn filter_pipeline_with_unknown() {
        let c = ctx();
        let d = people();
        let age = col(&c, &d, "age").unwrap();
        let mask = gt_scalar(&c, &age, 40.0).unwrap();
        let adults = filter(&c, &d, &mask).unwrap();
        // Generic op on the unknown-typed filtered frame pipelines.
        let age2 = col(&c, &adults, "age").unwrap();
        let total = sum(&c, &age2).unwrap();
        let got = get_scalar(&total).unwrap();

        let mask_ref = dataframe::ops::gt_scalar(d.col("age"), 40.0);
        let filtered_ref = d.filter(&mask_ref);
        let expect = dataframe::ops::sum(filtered_ref.col("age"));
        assert_eq!(got, expect);

        // The merged filtered frame itself must be the compact concat
        // of the per-batch filtered pieces â `unknown` outputs never
        // take the placement path (their pieces under-fill their batch
        // ranges), so this must match the eager baseline row for row.
        let adults_df = get_df(&adults).unwrap();
        assert_eq!(adults_df.num_rows(), filtered_ref.num_rows());
        assert_eq!(adults_df.col("age").f64s(), filtered_ref.col("age").f64s());
    }

    #[test]
    fn groupby_matches_direct() {
        let c = ctx();
        let d = people();
        let specs = vec![
            AggSpec::new("age", Agg::Mean, "avg_age"),
            AggSpec::new("age", Agg::Count, "n"),
        ];
        let fut = groupby_agg(&c, &d, &["city"], &specs).unwrap();
        let got = get_df(&fut).unwrap().sort_by("city");
        let expect = dataframe::groupby_agg(&d, &["city"], &specs).sort_by("city");
        assert_eq!(got.col("city").strs(), expect.col("city").strs());
        assert_eq!(got.col("avg_age").f64s(), expect.col("avg_age").f64s());
        assert_eq!(got.col("n").f64s(), expect.col("n").f64s());
    }

    #[test]
    fn join_splits_probe_side() {
        let c = ctx();
        let left = people();
        let right = DataFrame::from_cols(vec![
            ("city", Column::from_strs(&["sf", "nyc", "la"])),
            ("pop", Column::from_f64(vec![0.8, 8.3, 3.9])),
        ]);
        let joined = inner_join(&c, &left, &right, "city").unwrap();
        let got = get_df(&joined).unwrap();
        let expect = dataframe::inner_join(&left, &right, "city");
        assert_eq!(got.num_rows(), expect.num_rows());
        assert_eq!(got.col("pop").f64s(), expect.col("pop").f64s());
    }

    #[test]
    fn string_pipeline() {
        let c = ctx();
        let d = people();
        let city = col(&c, &d, "city").unwrap();
        let is_sf = str_eq(&c, &city, "sf").unwrap();
        let upper = str_upper(&c, &city).unwrap();
        assert_eq!(
            get_col(&is_sf).unwrap().bools(),
            dataframe::ops::str_eq(d.col("city"), "sf").bools()
        );
        assert_eq!(
            get_col(&upper).unwrap().strs(),
            dataframe::ops::str_upper(d.col("city")).strs()
        );
    }

    #[test]
    fn data_cleaning_idioms() {
        // fillna / isnull / mask_assign round trip.
        let c = ctx();
        let vals = Column::from_f64(vec![1.0, f64::NAN, 3.0, f64::NAN, 5.0]);
        let nulls = is_null(&c, &vals).unwrap();
        let filled = fillna(&c, &vals, 0.0).unwrap();
        let masked = mask_assign(&c, &vals, &nulls, -1.0).unwrap();
        assert_eq!(
            get_col(&nulls).unwrap().bools(),
            &[false, true, false, true, false]
        );
        assert_eq!(get_col(&filled).unwrap().f64s(), &[1.0, 0.0, 3.0, 0.0, 5.0]);
        assert_eq!(
            get_col(&masked).unwrap().f64s(),
            &[1.0, -1.0, 3.0, -1.0, 5.0]
        );
    }

    #[test]
    fn with_column_row_alignment() {
        let c = ctx();
        let d = people();
        let age = col(&c, &d, "age").unwrap();
        let scaled = mul_scalar(&c, &age, 0.5).unwrap();
        let d2 = with_column(&c, &d, "half_age", &scaled).unwrap();
        let out = get_df(&d2).unwrap();
        assert_eq!(out.num_rows(), d.num_rows());
        assert_eq!(out.col("half_age").f64s()[4], d.col("age").f64s()[4] * 0.5);
        assert_eq!(c.stats().stages, 1);
    }
    #[test]
    fn released_frames_and_columns_are_reused_bit_identically() {
        // Warm plan cache, fresh context per evaluation (the serving
        // shape): a frame output (string column included) and a column
        // output are written over their released predecessors, and the
        // results never differ from the cold evaluation's.
        let d = people();
        let eval = |cache: &Arc<PlanCache>, workers: usize| {
            register_defaults();
            let mut cfg = Config::with_workers(workers);
            cfg.batch_override = Some(7);
            let c = MozartContext::new(cfg);
            c.attach_plan_cache(cache.clone());
            let age = col(&c, &d, "age").unwrap();
            let scaled = mul_scalar(&c, &age, 0.5).unwrap();
            let upper = str_upper(&c, &col(&c, &d, "city").unwrap()).unwrap();
            let framed = with_column(&c, &d, "half_age", &scaled).unwrap();
            // Only the two results stay observable (and get merged).
            drop((age, scaled));
            c.evaluate().unwrap();
            let out = (get_df(&framed).unwrap(), get_col(&upper).unwrap());
            (out, c.stats())
        };
        let same = |a: &(DataFrame, Column), b: &(DataFrame, Column)| {
            a.0.col("half_age").f64s() == b.0.col("half_age").f64s()
                && a.0.col("id").i64s() == b.0.col("id").i64s()
                && a.0.col("city").strs() == b.0.col("city").strs()
                && a.1.strs() == b.1.strs()
        };
        for workers in [1, 2] {
            let (cold, _) = eval(&Arc::new(PlanCache::new(8)), workers);
            let cache = Arc::new(PlanCache::new(8));
            let (first, stats) = eval(&cache, workers);
            assert_eq!(stats.merge_targets_reused, 0);
            assert!(same(&first, &cold));
            // `first` is held across the next evaluation: untouched,
            // and nothing of it is reused.
            let (second, stats) = eval(&cache, workers);
            assert_eq!(stats.merge_targets_reused, 0, "{workers} workers");
            assert!(same(&first, &cold) && same(&second, &cold));
            let addr = second.0.col("half_age").f64s().as_ptr();
            drop((first, second));
            // Released: both targets are written over.
            let (third, stats) = eval(&cache, workers);
            assert_eq!(
                (stats.merge_targets_reused, stats.merge_targets_allocated),
                (2, 0),
                "{workers} workers"
            );
            assert_eq!(third.0.col("half_age").f64s().as_ptr(), addr);
            assert!(same(&third, &cold), "{workers} workers");
        }
    }

    #[test]
    fn an_unknown_output_of_two_schemas_is_a_merge_error_not_a_panic() {
        // A function returning `unknown` merges through the collect path,
        // whose concat used to assert on the schema and panic, which
        // surfaced as the transient `TaskPanicked`. Pieces starting at an
        // odd row gain a column here, so batches of 7 rows disagree.
        let bad = Annotation::new("schema_by_piece", |inv| {
            let d = &inv.arg::<DfValue>(0)?.0;
            let extra = Column::from_f64(vec![0.0; d.num_rows()]);
            let out = match d.col("id").i64s().first() {
                Some(id) if id % 2 == 1 => d.with_column("extra", extra),
                _ => d.clone(),
            };
            Ok(Some(DataValue::new(DfValue(out))))
        })
        .arg("df", mozart_core::annotation::generic(0))
        .ret(mozart_core::annotation::unknown(RowSplit::shared()))
        .build();
        let c = ctx();
        let out = c
            .call(&bad, &[Arg::Value(&dfv(&people()))])
            .unwrap()
            .unwrap();
        let err = out.get().unwrap_err();
        assert!(
            matches!(
                err,
                Error::Merge {
                    split_type: "RowSplit",
                    ..
                }
            ),
            "{err:?}"
        );
    }
}
