//! Crime Index (Table 2; Figure 4f): filter big cities and compute an
//! average "crime index" from population and robbery statistics.

use dataframe::{Column, DataFrame};
use mozart_core::{FutureHandle, MozartContext, Result};

/// Population threshold for "big" cities.
pub const BIG_CITY: f64 = 500_000.0;

/// Generate the per-city statistics frame.
pub fn generate(n: usize, seed: u64) -> DataFrame {
    let (total, adult, robberies) = crate::data::crime_inputs(n, seed);
    DataFrame::from_cols(vec![
        ("total_population", Column::from_f64(total)),
        ("adult_population", Column::from_f64(adult)),
        ("num_robberies", Column::from_f64(robberies)),
    ])
}

/// Result summary: the total crime index over big cities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sum of per-city indices.
    pub index_sum: f64,
}

/// Base Pandas+NumPy: eager column arithmetic, single-threaded.
pub fn base(df: &DataFrame) -> Summary {
    use dataframe::ops;
    let mask = ops::gt_scalar(df.col("total_population"), BIG_CITY);
    let big = df.filter(&mask);
    let tp = big.col("total_population");
    let index = ops::sub(
        &ops::div(big.col("adult_population"), tp),
        &ops::mul_scalar(&ops::div(big.col("num_robberies"), tp), 2.0),
    );
    // clamp to [0, 1]
    let clamped = Column::from_f64(
        index
            .f64s()
            .iter()
            .map(|x| x.clamp(0.0, 1.0))
            .collect::<Vec<_>>(),
    );
    Summary {
        index_sum: ops::sum(&clamped),
    }
}

/// Capture the pipeline: filter (unknown split type) pipelining into
/// generic Series arithmetic and a final reduction. Returns the lazy
/// total and every intermediate handle an application written the
/// natural way — one `let` per step — would still have in scope.
fn capture(df: &DataFrame, ctx: &MozartContext) -> Result<(FutureHandle, Vec<FutureHandle>)> {
    use sa_dataframe as sa;
    let tp_col = sa::col(ctx, df, "total_population")?;
    let mask = sa::gt_scalar(ctx, &tp_col, BIG_CITY)?;
    let big = sa::filter(ctx, df, &mask)?;
    let tp = sa::col(ctx, &big, "total_population")?;
    let adult = sa::col(ctx, &big, "adult_population")?;
    let rob = sa::col(ctx, &big, "num_robberies")?;
    let index = {
        let a = sa::div(ctx, &adult, &tp)?;
        let r = sa::div(ctx, &rob, &tp)?;
        let r2 = sa::mul_scalar(ctx, &r, 2.0)?;
        sa::sub(ctx, &a, &r2)?
    };
    // clamp: max(min(index, 1), 0) via scalar compares + mask assigns.
    let clamped = {
        let hi = sa::gt_scalar(ctx, &index, 1.0)?;
        let c1 = sa::mask_assign(ctx, &index, &hi, 1.0)?;
        let lo = sa::lt_scalar(ctx, &c1, 0.0)?;
        sa::mask_assign(ctx, &c1, &lo, 0.0)?
    };
    let total = sa::sum(ctx, &clamped)?;
    Ok((
        total,
        vec![tp_col, mask, big, tp, adult, rob, index, clamped],
    ))
}

/// Mozart, as an application would write it: every intermediate handle
/// stays alive across the one read, of the scalar total.
pub fn mozart(df: &DataFrame, ctx: &MozartContext) -> Result<Summary> {
    let (total, intermediates) = capture(df, ctx)?;
    let index_sum = sa_dataframe::get_scalar(&total)?;
    drop(intermediates);
    Ok(Summary { index_sum })
}

/// [`mozart`] with the intermediate handles dropped *before* the read,
/// so the runtime discards their pieces outright — the comparison arm
/// for what holding them costs (`phase_breakdown`, `tests/`).
pub fn mozart_handles_dropped(df: &DataFrame, ctx: &MozartContext) -> Result<Summary> {
    let (total, intermediates) = capture(df, ctx)?;
    drop(intermediates);
    Ok(Summary {
        index_sum: sa_dataframe::get_scalar(&total)?,
    })
}

/// Mozart, row-preserving variant for the serving layer: score every
/// city (no big-city filter) and return the clamped per-row index
/// column. Each output row depends only on its own input row, so the
/// generic coalescer can evaluate several requests' frames as one
/// row-concatenated frame and slice the scores back per request.
pub fn score_mozart(df: &DataFrame, ctx: &MozartContext) -> Result<Column> {
    use sa_dataframe as sa;
    let tp = sa::col(ctx, df, "total_population")?;
    let adult = sa::col(ctx, df, "adult_population")?;
    let rob = sa::col(ctx, df, "num_robberies")?;
    let index = {
        let a = sa::div(ctx, &adult, &tp)?;
        let r = sa::div(ctx, &rob, &tp)?;
        let r2 = sa::mul_scalar(ctx, &r, 2.0)?;
        sa::sub(ctx, &a, &r2)?
    };
    let clamped = {
        let hi = sa::gt_scalar(ctx, &index, 1.0)?;
        let c1 = sa::mask_assign(ctx, &index, &hi, 1.0)?;
        let lo = sa::lt_scalar(ctx, &c1, 0.0)?;
        sa::mask_assign(ctx, &c1, &lo, 0.0)?
    };
    sa::get_col(&clamped)
}

/// The eager reference for [`score_mozart`], used by tests.
pub fn score_base(df: &DataFrame) -> Column {
    use dataframe::ops;
    let tp = df.col("total_population");
    let index = ops::sub(
        &ops::div(df.col("adult_population"), tp),
        &ops::mul_scalar(&ops::div(df.col("num_robberies"), tp), 2.0),
    );
    Column::from_f64(
        index
            .f64s()
            .iter()
            .map(|x| x.clamp(0.0, 1.0))
            .collect::<Vec<_>>(),
    )
}

/// Fused (compiler stand-in).
pub fn fused(df: &DataFrame, threads: usize) -> Summary {
    Summary {
        index_sum: fusedbaseline::pandas::crime_index(
            df.col("total_population").f64s(),
            df.col("adult_population").f64s(),
            df.col("num_robberies").f64s(),
            threads,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::close;

    #[test]
    fn row_preserving_score_matches_eager() {
        let df = generate(1500, 23);
        let ctx = crate::mozart_context(2);
        let m = score_mozart(&df, &ctx).unwrap();
        let b = score_base(&df);
        assert_eq!(m.f64s(), b.f64s(), "per-row scores must match exactly");
        assert_eq!(m.len(), df.num_rows(), "row-preserving: one score per city");
    }

    #[test]
    fn all_modes_agree() {
        let df = generate(4000, 17);
        let a = base(&df);
        let f = fused(&df, 2);
        let ctx = crate::mozart_context(2);
        let m = mozart(&df, &ctx).unwrap();
        assert!(
            close(a.index_sum, f.index_sum, 1e-9),
            "{} vs {}",
            a.index_sum,
            f.index_sum
        );
        assert!(
            close(a.index_sum, m.index_sum, 1e-9),
            "{} vs {}",
            a.index_sum,
            m.index_sum
        );
        assert!(a.index_sum > 0.0);
    }
}
