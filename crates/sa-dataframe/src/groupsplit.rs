//! The `GroupSplit` split type for grouped aggregations (§7 "Pandas"):
//! "Aggregation functions that accept this split type group chunks of a
//! DataFrame, create partial aggregations, and then re-group and
//! re-aggregate the partial aggregations in the merger. We only support
//! commutative aggregation functions."
//!
//! To keep the merge associative (worker-level merges feed the final
//! merge, §5.2), the merged value stays in *partial* form — a
//! [`GroupedPartial`] carrying re-aggregatable columns (`Mean` is
//! decomposed into sum + count). [`finish`] converts the partial into
//! the final aggregated frame; the [`crate::wrappers::groupby_agg`]
//! wrapper's future does this on `get`.

use dataframe::{groupby_agg as df_groupby, Agg, AggSpec, DataFrame};
use mozart_core::prelude::*;

/// A partially aggregated groupBy result (re-mergeable form).
#[derive(Debug, Clone)]
pub struct GroupedPartial {
    /// Partial aggregation rows (one per group seen so far).
    pub partial: DataFrame,
    /// The grouping keys.
    pub keys: Vec<String>,
    /// The requested aggregations.
    pub specs: Vec<AggSpec>,
}

impl mozart_core::value::DataObject for GroupedPartial {
    fn type_name(&self) -> &'static str {
        "GroupedPartial"
    }
}

/// Combine partial aggregations of the same grouping (associative).
pub fn combine(parts: &[GroupedPartial]) -> Result<GroupedPartial> {
    let first = parts.first().ok_or_else(|| Error::Merge {
        split_type: "GroupSplit",
        message: "no pieces".into(),
    })?;
    let keys: Vec<&str> = first.keys.iter().map(|s| s.as_str()).collect();
    let frames: Vec<DataFrame> = parts.iter().map(|p| p.partial.clone()).collect();
    let concatenated = DataFrame::concat(&frames);
    // Re-aggregate the partial columns with their combining function,
    // keeping partial form: sums (and counts) add; mins min; maxes max.
    let combine_specs: Vec<AggSpec> = first
        .partial
        .names()
        .iter()
        .filter(|n| !keys.contains(n))
        .map(|n| {
            let agg = resolve_combiner(n, &first.specs);
            AggSpec {
                col: n.to_string(),
                agg,
                out: n.to_string(),
            }
        })
        .collect();
    let partial = df_groupby(&concatenated, &keys, &combine_specs);
    Ok(GroupedPartial {
        partial,
        keys: first.keys.clone(),
        specs: first.specs.clone(),
    })
}

/// How to combine one partial column across chunks.
fn resolve_combiner(partial_col: &str, specs: &[AggSpec]) -> Agg {
    for s in specs {
        match s.agg {
            Agg::Mean => {
                if partial_col == format!("__{}_sum", s.out)
                    || partial_col == format!("__{}_count", s.out)
                {
                    return Agg::Sum;
                }
            }
            Agg::Sum | Agg::Count => {
                if partial_col == s.out {
                    return Agg::Sum; // counts re-add, sums re-add
                }
            }
            Agg::Min => {
                if partial_col == s.out {
                    return Agg::Min;
                }
            }
            Agg::Max => {
                if partial_col == s.out {
                    return Agg::Max;
                }
            }
        }
    }
    Agg::Sum
}

/// Finish a partial aggregation into the user-visible frame.
pub fn finish(p: &GroupedPartial) -> DataFrame {
    let keys: Vec<&str> = p.keys.iter().map(|s| s.as_str()).collect();
    let mut cols: Vec<(String, dataframe::Column)> = keys
        .iter()
        .map(|k| (k.to_string(), p.partial.col(k).clone()))
        .collect();
    for spec in &p.specs {
        match spec.agg {
            Agg::Mean => {
                let sums = p.partial.col(&format!("__{}_sum", spec.out)).f64s();
                let counts = p.partial.col(&format!("__{}_count", spec.out)).f64s();
                let mean: Vec<f64> = sums
                    .iter()
                    .zip(counts)
                    .map(|(s, c)| if *c == 0.0 { f64::NAN } else { s / c })
                    .collect();
                cols.push((spec.out.clone(), dataframe::Column::from_f64(mean)));
            }
            _ => cols.push((spec.out.clone(), p.partial.col(&spec.out).clone())),
        }
    }
    DataFrame::new(cols)
}

/// Merge-only split type whose pieces are [`GroupedPartial`]s.
pub struct GroupSplit;

/// Grouped partials must re-aggregate before further use; the
/// re-grouping merge is order-sensitive but not a concatenation.
impl MergeOnly for GroupSplit {
    const NAME: &'static str = "GroupSplit";
    type Partial = GroupedPartial;

    fn merge(parts: &[&GroupedPartial], _: &Params) -> Result<GroupedPartial, String> {
        let parts: Vec<GroupedPartial> = parts.iter().map(|&p| p.clone()).collect();
        combine(&parts).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataframe::{partial_groupby_agg, Column};

    fn chunked_partials() -> (DataFrame, Vec<AggSpec>) {
        let df = DataFrame::from_cols(vec![
            ("g", Column::from_strs(&["a", "b", "a", "a", "b", "a"])),
            ("v", Column::from_f64(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])),
        ]);
        let specs = vec![
            AggSpec::new("v", Agg::Mean, "avg"),
            AggSpec::new("v", Agg::Sum, "total"),
            AggSpec::new("v", Agg::Max, "hi"),
        ];
        (df, specs)
    }

    #[test]
    fn combine_then_finish_matches_direct() {
        let (df, specs) = chunked_partials();
        let keys = vec!["g".to_string()];
        let mk = |a: usize, b: usize| GroupedPartial {
            partial: partial_groupby_agg(&df.slice_rows(a, b), &["g"], &specs),
            keys: keys.clone(),
            specs: specs.clone(),
        };
        // Associativity: ((p1+p2)+p3) == (p1+p2+p3).
        let nested = combine(&[combine(&[mk(0, 2), mk(2, 4)]).unwrap(), mk(4, 6)]).unwrap();
        let flat = combine(&[mk(0, 2), mk(2, 4), mk(4, 6)]).unwrap();
        let direct = dataframe::groupby_agg(&df, &["g"], &specs).sort_by("g");
        for result in [finish(&nested).sort_by("g"), finish(&flat).sort_by("g")] {
            assert_eq!(result.col("g").strs(), direct.col("g").strs());
            for c in ["avg", "total", "hi"] {
                assert_eq!(result.col(c).f64s(), direct.col(c).f64s(), "column {c}");
            }
        }
    }

    #[test]
    fn merge_rejects_wrong_piece_type() {
        let s = GroupSplit::shared();
        assert!(s
            .merge(vec![DataValue::new(IntValue(1))], &vec![], 0)
            .is_err());
        assert!(s.merge(vec![], &vec![], 0).is_err());
    }
}
