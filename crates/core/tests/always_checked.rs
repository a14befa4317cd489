//! The soundness checks are not a mode. Under `Config::default()`, in
//! debug and release builds alike:
//!
//! * every captured stage is verified before it runs
//!   (`plans_verified == stages`);
//! * a call of an annotation that breaks the paper's typing rules is
//!   refused at registration with `Error::Verify`, and the context stays
//!   usable;
//! * split inputs that disagree within one batch (one `NULL`, one
//!   piece) fail the stage with `Error::Pedantic`.

use std::ops::Range;
use std::sync::Arc;

use mozart_core::annotation::{concrete, missing, unknown, Annotation, SplitTypeExpr};
use mozart_core::prelude::*;

/// A vector of floats whose pieces are copies.
#[derive(Debug, Clone)]
struct Rows(Arc<Vec<f64>>);

impl mozart_core::value::DataObject for Rows {
    fn type_name(&self) -> &'static str {
        "Rows"
    }
}

/// Splits [`Rows`] by range, or — `null` — answers every range with
/// the paper's `NULL`. Each element is reported as 1 GiB, which puts a
/// call over a few of them above the work floor of any cache size: it is
/// captured and planned, with no change to the configuration.
struct RowSplit {
    null: bool,
}

impl Splitter for RowSplit {
    fn name(&self) -> &'static str {
        if self.null {
            "NullRowSplit"
        } else {
            "RowSplit"
        }
    }
    fn construct(&self, ctor_args: &[&DataValue]) -> Result<Params> {
        let rows = ctor_args[0]
            .downcast_ref::<Rows>()
            .ok_or(Error::Library("RowSplit ctor".into()))?;
        Ok(vec![rows.0.len() as i64])
    }
    fn info(&self, _arg: &DataValue, params: &Params) -> Result<RuntimeInfo> {
        Ok(RuntimeInfo {
            total_elements: params[0] as u64,
            elem_size_bytes: 1 << 30,
        })
    }
    fn split(&self, arg: &DataValue, range: Range<u64>, _: &Params) -> Result<Option<DataValue>> {
        let rows = arg
            .downcast_ref::<Rows>()
            .ok_or(Error::Library("RowSplit split".into()))?;
        if self.null {
            return Ok(None);
        }
        let piece = rows.0[range.start as usize..range.end as usize].to_vec();
        Ok(Some(DataValue::new(Rows(Arc::new(piece)))))
    }
    fn merge(&self, pieces: Vec<DataValue>, _: &Params, _: u64) -> Result<DataValue> {
        let mut out = Vec::new();
        for p in pieces {
            let rows = p
                .downcast_ref::<Rows>()
                .ok_or(Error::Library("RowSplit merge".into()))?;
            out.extend_from_slice(&rows.0);
        }
        Ok(DataValue::new(Rows(Arc::new(out))))
    }
}

fn rows(n: usize) -> DataValue {
    DataValue::new(Rows(Arc::new((0..n).map(|i| i as f64).collect())))
}

fn split(null: bool) -> SplitTypeExpr {
    concrete(Arc::new(RowSplit { null }), vec![0])
}

/// `xs * k`, with `ys` (split by `ys_type`) read alongside.
fn scale(ys_type: SplitTypeExpr) -> Arc<Annotation> {
    Annotation::new("checked_scale", |inv| {
        let xs = inv.arg::<Rows>(0)?;
        let k = inv.float(2)?;
        let out = xs.0.iter().map(|x| x * k).collect();
        Ok(Some(DataValue::new(Rows(Arc::new(out)))))
    })
    .arg("xs", split(false))
    .arg("ys", ys_type)
    .arg("k", missing())
    .ret(split(false))
    .build()
}

fn scaled(ctx: &MozartContext, n: usize, k: f64) -> Result<Vec<f64>> {
    let f = ctx.call(
        &scale(missing()),
        &[Arg::Value(&rows(n)), Arg::Value(&rows(n)), Arg::Float(k)],
    )?;
    let out = f.expect("a return").get()?;
    Ok(out.downcast_ref::<Rows>().expect("rows").0.to_vec())
}

#[test]
fn a_captured_stage_is_verified() {
    let ctx = MozartContext::new(Config::default());
    let got = scaled(&ctx, 8, 2.0).unwrap();
    assert_eq!(got, (0..8).map(|i| i as f64 * 2.0).collect::<Vec<_>>());
    let stats = ctx.stats();
    assert_eq!(stats.inline_calls, 0, "{stats:?}");
    assert!(stats.stages > 0, "{stats:?}");
    assert_eq!(stats.plans_verified, stats.stages, "{stats:?}");
}

#[test]
fn an_unsound_annotation_is_refused_at_registration() {
    let ctx = MozartContext::new(Config::default());
    // `unknown` types only results: an argument of that type could never
    // be split.
    let bad = scale(unknown(Arc::new(RowSplit { null: false })));
    let err = ctx
        .call(
            &bad,
            &[Arg::Value(&rows(8)), Arg::Value(&rows(8)), Arg::Float(2.0)],
        )
        .unwrap_err();
    assert!(
        matches!(&err, Error::Verify(VerifyError::UnknownArgType { arg, .. }) if arg == "ys"),
        "{err:?}"
    );
    // Refused, not scheduled: the context evaluates what comes next.
    assert_eq!(ctx.pending_calls(), 0);
    assert_eq!(scaled(&ctx, 4, 3.0).unwrap(), [0.0, 3.0, 6.0, 9.0]);
}

#[test]
fn disagreeing_splits_fail_the_stage() {
    let ctx = MozartContext::new(Config::default());
    let f = ctx
        .call(
            &scale(split(true)),
            &[Arg::Value(&rows(8)), Arg::Value(&rows(8)), Arg::Float(2.0)],
        )
        .unwrap()
        .unwrap();
    let err = f.get().unwrap_err();
    assert!(
        matches!(&err, Error::Pedantic(m) if m.contains("NullRowSplit")),
        "{err:?}"
    );
}
