//! Series operators: arithmetic, comparisons, boolean logic, null
//! handling, string methods, and scalar aggregations.
//!
//! These are the per-column operators the paper's Pandas integration
//! annotates ("most unary and binary Series operators, filters,
//! predicate masks", §7). All are pure functions returning fresh
//! columns, which is what makes them safely splittable by rows.

use crate::column::Column;
use crate::wide;
use crate::width::Width;

// ------------------------------ arithmetic ------------------------------

macro_rules! series_binary {
    ($(#[$doc:meta])* $name:ident, $sname:ident, $f:expr) => {
        $(#[$doc])*
        ///
        /// # Panics
        ///
        /// Panics if lengths differ or a column is not `f64`.
        pub fn $name(a: &Column, b: &Column) -> Column {
            Column::from_f64(wide::zip(a.f64s(), b.f64s(), stringify!($name), $f))
        }

        /// Scalar variant of the operator.
        pub fn $sname(a: &Column, k: f64) -> Column {
            let f = $f;
            Column::from_f64(wide::map(a.f64s(), |x| f(x, k)))
        }
    };
}

series_binary!(
    /// Elementwise addition of two `f64` series.
    add, add_scalar, |x: f64, y: f64| x + y
);
series_binary!(
    /// Elementwise subtraction.
    sub, sub_scalar, |x: f64, y: f64| x - y
);
series_binary!(
    /// Elementwise multiplication.
    mul, mul_scalar, |x: f64, y: f64| x * y
);
series_binary!(
    /// Elementwise division.
    div, div_scalar, |x: f64, y: f64| x / y
);

// ------------------------------ comparisons -----------------------------

macro_rules! series_compare {
    ($(#[$doc:meta])* $name:ident, $op:tt) => {
        $(#[$doc])*
        pub fn $name(a: &Column, k: f64) -> Column {
            Column::from_bool(wide::map(a.f64s(), |x| x $op k))
        }
    };
}

series_compare!(
    /// `a > k` mask.
    gt_scalar, >
);
series_compare!(
    /// `a < k` mask.
    lt_scalar, <
);
series_compare!(
    /// `a >= k` mask.
    ge_scalar, >=
);
series_compare!(
    /// `a <= k` mask.
    le_scalar, <=
);

/// `a == k` mask over an integer series.
pub fn eq_i64(a: &Column, k: i64) -> Column {
    Column::from_bool(wide::map(a.i64s(), |x| x == k))
}

/// Elementwise `a > b` over two `f64` series.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn gt(a: &Column, b: &Column) -> Column {
    Column::from_bool(wide::zip(a.f64s(), b.f64s(), "gt", |p, q| p > q))
}

// ------------------------------ boolean ---------------------------------

/// Elementwise AND of two boolean masks.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn and(a: &Column, b: &Column) -> Column {
    Column::from_bool(wide::zip(a.bools(), b.bools(), "and", |p, q| p & q))
}

/// Elementwise OR of two boolean masks.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn or(a: &Column, b: &Column) -> Column {
    Column::from_bool(wide::zip(a.bools(), b.bools(), "or", |p, q| p | q))
}

/// Elementwise NOT of a boolean mask.
pub fn not(a: &Column) -> Column {
    Column::from_bool(wide::map(a.bools(), |b| !b))
}

// ------------------------------ nulls -----------------------------------

/// NaN mask of an `f64` series (like `Series.isnull()`); all-false for
/// null-free column types.
pub fn is_null(a: &Column) -> Column {
    match a {
        Column::F64(c) => Column::from_bool(wide::map(c.as_slice(), f64::is_nan)),
        other => Column::from_bool(vec![false; other.len()]),
    }
}

/// Replace NaN with `v` (like `Series.fillna`).
pub fn fillna(a: &Column, v: f64) -> Column {
    Column::from_f64(wide::map(a.f64s(), |x| if x.is_nan() { v } else { x }))
}

/// Conditionally replace values: where `mask` is true, use `v`
/// (`Series.mask` in Pandas). Works on `f64` and `str` columns; for
/// `str`, `v = NaN` is not representable, use [`mask_assign_str`].
///
/// # Panics
///
/// Panics if lengths differ or the column is not `f64`.
pub fn mask_assign(a: &Column, mask: &Column, v: f64) -> Column {
    Column::from_f64(wide::zip(
        a.f64s(),
        mask.bools(),
        "mask_assign",
        |val, hit| if hit { v } else { val },
    ))
}

/// Conditionally replace string values where `mask` is true.
///
/// # Panics
///
/// Panics if lengths differ or the column is not `str`.
pub fn mask_assign_str(a: &Column, mask: &Column, v: &str) -> Column {
    let (x, m) = (a.strs(), mask.bools());
    assert_eq!(x.len(), m.len(), "mask_assign_str: length mismatch");
    Column::from_str(
        x.iter()
            .zip(m)
            .map(|(val, &hit)| if hit { v.to_string() } else { val.clone() })
            .collect(),
    )
}

// ------------------------------ strings ---------------------------------

/// `s == k` mask over a string series.
pub fn str_eq(a: &Column, k: &str) -> Column {
    Column::from_bool(a.strs().iter().map(|s| s == k).collect())
}

/// Membership mask: `s ∈ set`.
pub fn str_isin(a: &Column, set: &[&str]) -> Column {
    Column::from_bool(a.strs().iter().map(|s| set.contains(&s.as_str())).collect())
}

/// String lengths as an integer series (`Series.str.len()`).
pub fn str_len(a: &Column) -> Column {
    Column::from_i64(a.strs().iter().map(|s| s.len() as i64).collect())
}

/// Substring `[start, end)` clamped to each string (`Series.str.slice`).
pub fn str_slice(a: &Column, start: usize, end: usize) -> Column {
    Column::from_str(
        a.strs()
            .iter()
            .map(|s| {
                let e = end.min(s.len());
                let b = start.min(e);
                s[b..e].to_string()
            })
            .collect(),
    )
}

/// Prefix mask (`Series.str.startswith`).
pub fn str_startswith(a: &Column, prefix: &str) -> Column {
    Column::from_bool(a.strs().iter().map(|s| s.starts_with(prefix)).collect())
}

/// Substring mask (`Series.str.contains`).
pub fn str_contains(a: &Column, needle: &str) -> Column {
    Column::from_bool(a.strs().iter().map(|s| s.contains(needle)).collect())
}

/// Uppercase every string.
pub fn str_upper(a: &Column) -> Column {
    Column::from_str(a.strs().iter().map(|s| s.to_uppercase()).collect())
}

// ------------------------------ reductions ------------------------------

/// Sum of an `f64` series, skipping NaN (Pandas semantics), as NumPy
/// sums: pairwise.
///
/// Blocks of at most [`PAIRWISE_BLOCK`] rows are summed into eight
/// partial sums, one per row modulo 8, which are then added as a
/// balanced tree; a longer series is halved (at a multiple of 8) and
/// its halves' sums added. The rounding error grows with the log of the
/// length, not the length, and the eight partial sums are one vector
/// add per eight rows at the host's width. A NaN row is read as −0.0,
/// the additive identity (`−0.0 + x` is `x` for every `x`, `+0.0`
/// included), so skipping NaN leaves no trace: the sum of nothing, of
/// `[-0.0]` or of all-NaN rows is −0.0, as a serial sum from −0.0 gives.
pub fn sum(a: &Column) -> f64 {
    sum_at(Width::host(), a)
}

/// [`sum`] at one arm of the dispatch, for tests that compare the arms.
#[doc(hidden)]
pub fn sum_at(width: Width, a: &Column) -> f64 {
    pairwise_sum(width, a.f64s())
}

/// Rows summed serially into eight partial sums by [`sum`]; longer runs
/// are halved. NumPy's `PW_BLOCKSIZE`.
pub const PAIRWISE_BLOCK: usize = 128;

/// NumPy's recursion. Only the leaves run at `width`: the adds above
/// them are single scalar adds, the same at every arm, so only the
/// tree's shape decides the bits.
fn pairwise_sum(width: Width, x: &[f64]) -> f64 {
    if x.len() <= PAIRWISE_BLOCK {
        return width.run(
            #[inline(always)]
            || block_sum(x),
        );
    }
    let half = x.len() / 2 / 8 * 8;
    pairwise_sum(width, &x[..half]) + pairwise_sum(width, &x[half..])
}

/// One leaf of [`pairwise_sum`]: at most [`PAIRWISE_BLOCK`] rows.
#[inline(always)]
fn block_sum(x: &[f64]) -> f64 {
    let skip_nan = |v: f64| if v.is_nan() { -0.0 } else { v };
    if x.len() < 8 {
        return x.iter().fold(-0.0, |s, &v| s + skip_nan(v));
    }
    let (rows, tail) = x.split_at(x.len() / 8 * 8);
    let mut r = [-0.0f64; 8];
    for row in rows.chunks_exact(8) {
        for (r, &v) in r.iter_mut().zip(row) {
            *r += skip_nan(v);
        }
    }
    let s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    tail.iter().fold(s, |s, &v| s + skip_nan(v))
}

/// Count of non-null values.
pub fn count(a: &Column) -> i64 {
    match a {
        Column::F64(c) => c.as_slice().iter().filter(|x| !x.is_nan()).count() as i64,
        other => other.len() as i64,
    }
}

/// Mean of an `f64` series, skipping NaN.
pub fn mean(a: &Column) -> f64 {
    let c = count(a);
    if c == 0 {
        f64::NAN
    } else {
        sum(a) / c as f64
    }
}

/// Minimum, skipping NaN (`inf` if all-null).
pub fn min(a: &Column) -> f64 {
    a.f64s()
        .iter()
        .copied()
        .filter(|x| !x.is_nan())
        .fold(f64::INFINITY, f64::min)
}

/// Maximum, skipping NaN (`-inf` if all-null).
pub fn max(a: &Column) -> f64 {
    a.f64s()
        .iter()
        .copied()
        .filter(|x| !x.is_nan())
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Distinct values of a string series, in first-seen order.
pub fn unique_str(a: &Column) -> Vec<String> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for s in a.strs() {
        if seen.insert(s.clone()) {
            out.push(s.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_and_compare() {
        let a = Column::from_f64(vec![1.0, 2.0, 3.0]);
        let b = Column::from_f64(vec![10.0, 20.0, 30.0]);
        assert_eq!(add(&a, &b).f64s(), &[11.0, 22.0, 33.0]);
        assert_eq!(mul_scalar(&a, 2.0).f64s(), &[2.0, 4.0, 6.0]);
        assert_eq!(gt_scalar(&a, 1.5).bools(), &[false, true, true]);
        assert_eq!(gt(&b, &a).bools(), &[true, true, true]);
        assert_eq!(
            eq_i64(&Column::from_i64(vec![1, 2, 1]), 1).bools(),
            &[true, false, true]
        );
    }

    #[test]
    fn boolean_logic() {
        let a = Column::from_bool(vec![true, true, false]);
        let b = Column::from_bool(vec![true, false, false]);
        assert_eq!(and(&a, &b).bools(), &[true, false, false]);
        assert_eq!(or(&a, &b).bools(), &[true, true, false]);
        assert_eq!(not(&b).bools(), &[false, true, true]);
    }

    #[test]
    fn null_handling() {
        let a = Column::from_f64(vec![1.0, f64::NAN, 3.0]);
        assert_eq!(is_null(&a).bools(), &[false, true, false]);
        assert_eq!(fillna(&a, 0.0).f64s(), &[1.0, 0.0, 3.0]);
        assert_eq!(sum(&a), 4.0);
        assert_eq!(count(&a), 2);
        assert_eq!(mean(&a), 2.0);
        assert_eq!(is_null(&Column::from_i64(vec![1])).bools(), &[false]);
    }

    #[test]
    fn string_methods() {
        let s = Column::from_strs(&["00000", "12345-678", "Leslie", "Lesley"]);
        assert_eq!(str_eq(&s, "00000").bools(), &[true, false, false, false]);
        assert_eq!(str_len(&s).i64s(), &[5, 9, 6, 6]);
        assert_eq!(str_slice(&s, 0, 5).strs()[1], "12345");
        assert_eq!(
            str_startswith(&s, "Lesl").bools(),
            &[false, false, true, true]
        );
        assert_eq!(str_contains(&s, "-").bools(), &[false, true, false, false]);
        assert_eq!(
            str_isin(&s, &["00000", "Lesley"]).bools(),
            &[true, false, false, true]
        );
        assert_eq!(str_upper(&s).strs()[2], "LESLIE");
    }

    #[test]
    fn mask_assignment() {
        let a = Column::from_f64(vec![1.0, 2.0, 3.0]);
        let m = Column::from_bool(vec![false, true, false]);
        let out = mask_assign(&a, &m, f64::NAN);
        assert!(out.f64s()[1].is_nan());
        assert_eq!(out.f64s()[0], 1.0);

        let s = Column::from_strs(&["a", "bb"]);
        let m = Column::from_bool(vec![true, false]);
        assert_eq!(
            mask_assign_str(&s, &m, "z").strs(),
            &["z".to_string(), "bb".to_string()]
        );
    }

    #[test]
    fn unique_preserves_first_seen_order() {
        let s = Column::from_strs(&["b", "a", "b", "c", "a"]);
        assert_eq!(unique_str(&s), vec!["b", "a", "c"]);
    }
}
