//! Annotated wrapper functions over the unmodified `dataframe` library:
//! Series operators, filters, predicate masks, groupBys and joins (§7
//! "Pandas"). Filters and joins return the `unknown` split type; most
//! functions accept generics.

use std::sync::{Arc, LazyLock};

use dataframe::{AggSpec, Column, DataFrame};
use mozart_core::annotation::{concrete, generic, missing, unknown};
use mozart_core::prelude::*;

use crate::groupsplit::{finish, GroupSplit, GroupedPartial};
use crate::split::{ColValue, DfValue, RowSplit};

/// Wrap a [`DataFrame`] as a Mozart argument.
pub fn dfv(d: &DataFrame) -> DataValue {
    DataValue::new(DfValue(d.clone()))
}

/// Wrap a [`Column`] as a Mozart argument.
pub fn colv(c: &Column) -> DataValue {
    DataValue::new(ColValue(c.clone()))
}

/// Values accepted by the wrappers: concrete frames/columns or lazy
/// results of earlier wrapped calls.
pub trait DfArg {
    /// Convert to a Mozart argument value.
    fn to_value(&self) -> DataValue;
}

impl DfArg for DataFrame {
    fn to_value(&self) -> DataValue {
        dfv(self)
    }
}
impl DfArg for Column {
    fn to_value(&self) -> DataValue {
        colv(self)
    }
}
impl DfArg for FutureHandle {
    fn to_value(&self) -> DataValue {
        self.as_value()
    }
}
impl DfArg for DataValue {
    fn to_value(&self) -> DataValue {
        self.clone()
    }
}

/// Materialize a lazy frame result.
pub fn get_df(f: &FutureHandle) -> Result<DataFrame> {
    let dv = f.get()?;
    if let Some(d) = dv.downcast_ref::<DfValue>() {
        return Ok(d.0.clone());
    }
    if let Some(g) = dv.downcast_ref::<GroupedPartial>() {
        return Ok(finish(g));
    }
    Err(Error::ArgType {
        function: "sa_dataframe::get_df",
        arg: 0,
        expected: "DfValue",
        actual: dv.type_name(),
    })
}

/// Materialize a lazy column result.
pub fn get_col(f: &FutureHandle) -> Result<Column> {
    let dv = f.get()?;
    dv.downcast_ref::<ColValue>()
        .map(|c| c.0.clone())
        .ok_or(Error::ArgType {
            function: "sa_dataframe::get_col",
            arg: 0,
            expected: "ColValue",
            actual: dv.type_name(),
        })
}

fn col_piece(inv: &Invocation<'_>, i: usize) -> Result<Column> {
    Ok(inv.arg::<ColValue>(i)?.0.clone())
}

fn df_piece(inv: &Invocation<'_>, i: usize) -> Result<DataFrame> {
    Ok(inv.arg::<DfValue>(i)?.0.clone())
}

fn str_arg(inv: &Invocation<'_>, i: usize) -> Result<String> {
    Ok(inv.arg::<StrValue>(i)?.0.to_string())
}

// --------------------------- Series operators ---------------------------

macro_rules! series_sa_binary {
    ($(#[$doc:meta])* $name:ident, $annot:ident, $f:path) => {
        static $annot: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
            Annotation::new(stringify!($name), |inv| {
                let a = col_piece(inv, 0)?;
                let b = col_piece(inv, 1)?;
                Ok(Some(DataValue::new(ColValue($f(&a, &b)))))
            })
            .arg("a", generic(0))
            .arg("b", generic(0))
            .ret(generic(0))
            .build()
        });

        $(#[$doc])*
        pub fn $name(ctx: &MozartContext, a: &impl DfArg, b: &impl DfArg) -> Result<FutureHandle> {
            Ok(ctx.call(&$annot, &[Arg::Value(&a.to_value()), Arg::Value(&b.to_value())])?.expect("returns"))
        }
    };
}

macro_rules! series_sa_scalar {
    ($(#[$doc:meta])* $name:ident, $annot:ident, $f:path) => {
        static $annot: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
            Annotation::new(stringify!($name), |inv| {
                let a = col_piece(inv, 0)?;
                let k = inv.float(1)?;
                Ok(Some(DataValue::new(ColValue($f(&a, k)))))
            })
            .arg("a", generic(0))
            .arg("k", missing())
            .ret(generic(0))
            .build()
        });

        $(#[$doc])*
        pub fn $name(ctx: &MozartContext, a: &impl DfArg, k: f64) -> Result<FutureHandle> {
            Ok(ctx
                .call(&$annot, &[Arg::Value(&a.to_value()), Arg::Float(k)])?
                .expect("returns"))
        }
    };
}

macro_rules! series_sa_unary {
    ($(#[$doc:meta])* $name:ident, $annot:ident, $f:path) => {
        static $annot: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
            Annotation::new(stringify!($name), |inv| {
                let a = col_piece(inv, 0)?;
                Ok(Some(DataValue::new(ColValue($f(&a)))))
            })
            .arg("a", generic(0))
            .ret(generic(0))
            .build()
        });

        $(#[$doc])*
        pub fn $name(ctx: &MozartContext, a: &impl DfArg) -> Result<FutureHandle> {
            Ok(ctx.call(&$annot, &[Arg::Value(&a.to_value())])?.expect("returns"))
        }
    };
}

macro_rules! series_sa_str {
    ($(#[$doc:meta])* $name:ident, $annot:ident, $f:path) => {
        static $annot: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
            Annotation::new(stringify!($name), |inv| {
                let a = col_piece(inv, 0)?;
                let s = str_arg(inv, 1)?;
                Ok(Some(DataValue::new(ColValue($f(&a, &s)))))
            })
            .arg("a", generic(0))
            .arg("s", missing())
            .ret(generic(0))
            .build()
        });

        $(#[$doc])*
        pub fn $name(ctx: &MozartContext, a: &impl DfArg, s: &str) -> Result<FutureHandle> {
            Ok(ctx
                .call(&$annot, &[Arg::Value(&a.to_value()), Arg::Value(&DataValue::new(StrValue::new(s)))])?
                .expect("returns"))
        }
    };
}

series_sa_binary!(
    /// Annotated Series `a + b`.
    add, ADD, dataframe::ops::add
);
series_sa_binary!(
    /// Annotated Series `a - b`.
    sub, SUB, dataframe::ops::sub
);
series_sa_binary!(
    /// Annotated Series `a * b`.
    mul, MUL, dataframe::ops::mul
);
series_sa_binary!(
    /// Annotated Series `a / b`.
    div, DIV, dataframe::ops::div
);
series_sa_binary!(
    /// Annotated elementwise `a > b` mask.
    gt, GT, dataframe::ops::gt
);
series_sa_binary!(
    /// Annotated mask AND.
    and, AND, dataframe::ops::and
);
series_sa_binary!(
    /// Annotated mask OR.
    or, OR, dataframe::ops::or
);

series_sa_scalar!(
    /// Annotated Series `a + k`.
    add_scalar, ADD_SCALAR, dataframe::ops::add_scalar
);
series_sa_scalar!(
    /// Annotated Series `a - k`.
    sub_scalar, SUB_SCALAR, dataframe::ops::sub_scalar
);
series_sa_scalar!(
    /// Annotated Series `a * k`.
    mul_scalar, MUL_SCALAR, dataframe::ops::mul_scalar
);
series_sa_scalar!(
    /// Annotated Series `a / k`.
    div_scalar, DIV_SCALAR, dataframe::ops::div_scalar
);
series_sa_scalar!(
    /// Annotated `a > k` mask.
    gt_scalar, GT_SCALAR, dataframe::ops::gt_scalar
);
series_sa_scalar!(
    /// Annotated `a < k` mask.
    lt_scalar, LT_SCALAR, dataframe::ops::lt_scalar
);
series_sa_scalar!(
    /// Annotated `a >= k` mask.
    ge_scalar, GE_SCALAR, dataframe::ops::ge_scalar
);
series_sa_scalar!(
    /// Annotated `a <= k` mask.
    le_scalar, LE_SCALAR, dataframe::ops::le_scalar
);
series_sa_scalar!(
    /// Annotated `fillna`.
    fillna, FILLNA, dataframe::ops::fillna
);

series_sa_unary!(
    /// Annotated mask NOT.
    not, NOT, dataframe::ops::not
);
series_sa_unary!(
    /// Annotated `isnull` mask.
    is_null, IS_NULL, dataframe::ops::is_null
);
series_sa_unary!(
    /// Annotated cast to `f64` (parse strings, NaN on failure).
    to_f64, TO_F64, Column::to_f64
);
series_sa_unary!(
    /// Annotated string length.
    str_len, STR_LEN, dataframe::ops::str_len
);
series_sa_unary!(
    /// Annotated uppercase.
    str_upper, STR_UPPER, dataframe::ops::str_upper
);

series_sa_str!(
    /// Annotated `s == k` mask.
    str_eq, STR_EQ, dataframe::ops::str_eq
);
series_sa_str!(
    /// Annotated prefix mask.
    str_startswith, STR_STARTSWITH, dataframe::ops::str_startswith
);
series_sa_str!(
    /// Annotated substring mask.
    str_contains, STR_CONTAINS, dataframe::ops::str_contains
);

/// Annotated conditional replace (`Series.mask`): where the mask is
/// true, use `v`.
static MASK_ASSIGN: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
    Annotation::new("mask_assign", |inv| {
        let a = col_piece(inv, 0)?;
        let m = col_piece(inv, 1)?;
        let v = inv.float(2)?;
        Ok(Some(DataValue::new(ColValue(dataframe::ops::mask_assign(
            &a, &m, v,
        )))))
    })
    .arg("a", generic(0))
    .arg("mask", generic(0))
    .arg("v", missing())
    .ret(generic(0))
    .build()
});

/// Annotated `mask_assign` over `f64` series.
pub fn mask_assign(
    ctx: &MozartContext,
    a: &impl DfArg,
    mask: &impl DfArg,
    v: f64,
) -> Result<FutureHandle> {
    Ok(ctx
        .call(
            &MASK_ASSIGN,
            &[
                Arg::Value(&a.to_value()),
                Arg::Value(&mask.to_value()),
                Arg::Float(v),
            ],
        )?
        .expect("returns"))
}

/// Annotated conditional string replace.
static MASK_ASSIGN_STR: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
    Annotation::new("mask_assign_str", |inv| {
        let a = col_piece(inv, 0)?;
        let m = col_piece(inv, 1)?;
        let v = str_arg(inv, 2)?;
        Ok(Some(DataValue::new(ColValue(
            dataframe::ops::mask_assign_str(&a, &m, &v),
        ))))
    })
    .arg("a", generic(0))
    .arg("mask", generic(0))
    .arg("v", missing())
    .ret(generic(0))
    .build()
});

/// Annotated `mask_assign_str` over string series.
pub fn mask_assign_str(
    ctx: &MozartContext,
    a: &impl DfArg,
    mask: &impl DfArg,
    v: &str,
) -> Result<FutureHandle> {
    Ok(ctx
        .call(
            &MASK_ASSIGN_STR,
            &[
                Arg::Value(&a.to_value()),
                Arg::Value(&mask.to_value()),
                Arg::Value(&DataValue::new(StrValue::new(v))),
            ],
        )?
        .expect("returns"))
}

/// Annotated string slice `[start, end)`.
static STR_SLICE: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
    Annotation::new("str_slice", |inv| {
        let a = col_piece(inv, 0)?;
        let start = inv.int(1)? as usize;
        let end = inv.int(2)? as usize;
        Ok(Some(DataValue::new(ColValue(dataframe::ops::str_slice(
            &a, start, end,
        )))))
    })
    .arg("a", generic(0))
    .arg("start", missing())
    .arg("end", missing())
    .ret(generic(0))
    .build()
});

/// Annotated `str_slice`.
pub fn str_slice(
    ctx: &MozartContext,
    a: &impl DfArg,
    start: usize,
    end: usize,
) -> Result<FutureHandle> {
    Ok(ctx
        .call(
            &STR_SLICE,
            &[
                Arg::Value(&a.to_value()),
                Arg::Int(start as i64),
                Arg::Int(end as i64),
            ],
        )?
        .expect("returns"))
}

// --------------------------- frame operators ---------------------------

/// Annotated column projection: `df.col(name)` — row-aligned, so the
/// output shares the input's split type (`RowSplit<rows>`).
static COL: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
    Annotation::new("col", |inv| {
        let d = df_piece(inv, 0)?;
        let name = str_arg(inv, 1)?;
        Ok(Some(DataValue::new(ColValue(d.col(&name).clone()))))
    })
    .arg("df", generic(0))
    .arg("name", missing())
    .ret(generic(0))
    .build()
});

/// Annotated column projection.
pub fn col(ctx: &MozartContext, df: &impl DfArg, name: &str) -> Result<FutureHandle> {
    Ok(ctx
        .call(
            &COL,
            &[
                Arg::Value(&df.to_value()),
                Arg::Value(&DataValue::new(StrValue::new(name))),
            ],
        )?
        .expect("returns"))
}

/// Annotated `with_column` (add or replace a row-aligned column).
static WITH_COLUMN: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
    Annotation::new("with_column", |inv| {
        let d = df_piece(inv, 0)?;
        let name = str_arg(inv, 1)?;
        let c = col_piece(inv, 2)?;
        Ok(Some(DataValue::new(DfValue(d.with_column(&name, c)))))
    })
    .arg("df", generic(0))
    .arg("name", missing())
    .arg("col", generic(0))
    .ret(generic(0))
    .build()
});

/// Annotated `with_column`.
pub fn with_column(
    ctx: &MozartContext,
    df: &impl DfArg,
    name: &str,
    c: &impl DfArg,
) -> Result<FutureHandle> {
    Ok(ctx
        .call(
            &WITH_COLUMN,
            &[
                Arg::Value(&df.to_value()),
                Arg::Value(&DataValue::new(StrValue::new(name))),
                Arg::Value(&c.to_value()),
            ],
        )?
        .expect("returns"))
}

/// Annotated row filter: output cardinality is data-dependent, so the
/// result has the `unknown` split type (§3.2) merged by row concat.
static FILTER: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
    Annotation::new("filter", |inv| {
        let d = df_piece(inv, 0)?;
        let m = col_piece(inv, 1)?;
        Ok(Some(DataValue::new(DfValue(d.filter(&m)))))
    })
    .arg("df", generic(0))
    .arg("mask", generic(0))
    .ret(unknown(RowSplit::shared()))
    .build()
});

/// Annotated row filter by boolean mask.
pub fn filter(ctx: &MozartContext, df: &impl DfArg, mask: &impl DfArg) -> Result<FutureHandle> {
    Ok(ctx
        .call(
            &FILTER,
            &[Arg::Value(&df.to_value()), Arg::Value(&mask.to_value())],
        )?
        .expect("returns"))
}

/// Annotated inner join: "joins split one table and broadcast the
/// other" (§7); the probe (left) side is split, the result is unknown.
static INNER_JOIN: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
    Annotation::new("inner_join", |inv| {
        let l = df_piece(inv, 0)?;
        let r = df_piece(inv, 1)?;
        let on = str_arg(inv, 2)?;
        Ok(Some(DataValue::new(DfValue(dataframe::inner_join(
            &l, &r, &on,
        )))))
    })
    .arg("left", generic(0))
    .arg("right", missing())
    .arg("on", missing())
    .ret(unknown(RowSplit::shared()))
    .build()
});

/// Annotated inner hash join on an equally-named key column.
pub fn inner_join(
    ctx: &MozartContext,
    left: &impl DfArg,
    right: &impl DfArg,
    on: &str,
) -> Result<FutureHandle> {
    // The broadcast (build) side must be materialized before the join
    // runs; the planner enforces this (a lazy `_`-typed argument cannot
    // join a stage), which puts a stage boundary here — the paper's
    // merge-then-join.
    let right_v = right.to_value();
    Ok(ctx
        .call(
            &INNER_JOIN,
            &[
                Arg::Value(&left.to_value()),
                Arg::Value(&right_v),
                Arg::Value(&DataValue::new(StrValue::new(on))),
            ],
        )?
        .expect("returns"))
}

/// Annotated grouped aggregation. Each piece produces a partial
/// aggregation; the `GroupSplit` merger re-groups and re-aggregates.
/// The future's value is a [`GroupedPartial`]; [`get_df`] finishes it.
pub fn groupby_agg(
    ctx: &MozartContext,
    df: &impl DfArg,
    keys: &[&str],
    specs: &[AggSpec],
) -> Result<FutureHandle> {
    let keys_owned: Vec<String> = keys.iter().map(|s| s.to_string()).collect();
    let specs_owned = specs.to_vec();
    let annot = Annotation::new("groupby_agg", move |inv: &Invocation<'_>| {
        let d = df_piece(inv, 0)?;
        let keys_ref: Vec<&str> = keys_owned.iter().map(|s| s.as_str()).collect();
        let partial = dataframe::partial_groupby_agg(&d, &keys_ref, &specs_owned);
        Ok(Some(DataValue::new(GroupedPartial {
            partial,
            keys: keys_owned.clone(),
            specs: specs_owned.clone(),
        })))
    })
    .arg("df", generic(0))
    .ret(concrete(GroupSplit::shared(), vec![]))
    .build();
    Ok(ctx
        .call(&annot, &[Arg::Value(&df.to_value())])?
        .expect("returns"))
}

// --------------------------- reductions ---------------------------------

/// Merge-only additive scalar reduce for Series sums/counts.
struct ColSumReduce;

/// Partial sums must merge before further use. They add in element
/// order over the executor's fixed blocks of batches, so the FP sum has
/// the same bits on any number of workers.
impl MergeOnly for ColSumReduce {
    const NAME: &'static str = "ColSumReduce";
    type Partial = FloatValue;

    fn merge(parts: &[&FloatValue], _: &Params) -> Result<FloatValue, String> {
        Ok(FloatValue(parts.iter().fold(0.0, |acc, p| acc + p.0)))
    }
}

static COL_SUM: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
    Annotation::new("col_sum", |inv| {
        let a = col_piece(inv, 0)?;
        Ok(Some(DataValue::new(FloatValue(dataframe::ops::sum(&a)))))
    })
    .arg("a", generic(0))
    .ret(concrete(ColSumReduce::shared(), vec![]))
    .build()
});

/// Annotated NaN-skipping Series sum.
pub fn sum(ctx: &MozartContext, a: &impl DfArg) -> Result<FutureHandle> {
    Ok(ctx
        .call(&COL_SUM, &[Arg::Value(&a.to_value())])?
        .expect("returns"))
}

static COL_COUNT: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
    Annotation::new("col_count", |inv| {
        let a = col_piece(inv, 0)?;
        Ok(Some(DataValue::new(FloatValue(
            dataframe::ops::count(&a) as f64
        ))))
    })
    .arg("a", generic(0))
    .ret(concrete(ColSumReduce::shared(), vec![]))
    .build()
});

/// Annotated non-null count.
pub fn count(ctx: &MozartContext, a: &impl DfArg) -> Result<FutureHandle> {
    Ok(ctx
        .call(&COL_COUNT, &[Arg::Value(&a.to_value())])?
        .expect("returns"))
}

/// Materialize a lazy scalar reduction.
pub fn get_scalar(f: &FutureHandle) -> Result<f64> {
    let dv = f.get()?;
    dv.downcast_ref::<FloatValue>()
        .map(|v| v.0)
        .ok_or(Error::ArgType {
            function: "sa_dataframe::get_scalar",
            arg: 0,
            expected: "FloatValue",
            actual: dv.type_name(),
        })
}

/// Every annotation this integration defines, in declaration order —
/// the walk surface for static tooling (`mozart-check`).
pub fn annotations() -> Vec<Arc<Annotation>> {
    vec![
        ADD.clone(),
        SUB.clone(),
        MUL.clone(),
        DIV.clone(),
        GT.clone(),
        AND.clone(),
        OR.clone(),
        ADD_SCALAR.clone(),
        SUB_SCALAR.clone(),
        MUL_SCALAR.clone(),
        DIV_SCALAR.clone(),
        GT_SCALAR.clone(),
        LT_SCALAR.clone(),
        GE_SCALAR.clone(),
        LE_SCALAR.clone(),
        FILLNA.clone(),
        NOT.clone(),
        IS_NULL.clone(),
        TO_F64.clone(),
        STR_LEN.clone(),
        STR_UPPER.clone(),
        STR_EQ.clone(),
        STR_STARTSWITH.clone(),
        STR_CONTAINS.clone(),
        MASK_ASSIGN.clone(),
        MASK_ASSIGN_STR.clone(),
        STR_SLICE.clone(),
        COL.clone(),
        WITH_COLUMN.clone(),
        FILTER.clone(),
        INNER_JOIN.clone(),
        COL_SUM.clone(),
        COL_COUNT.clone(),
    ]
}
