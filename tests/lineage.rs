//! Held outputs kept as lineage (`OutputKind::Lineage`): a live output
//! that no read asked for, made by calls that mutate nothing from inputs
//! that cannot change, keeps only how it was made, and a later read
//! recomputes it.
//!
//! The invariants under test:
//!
//! * each of `crime_index`'s eight intermediates, read after the total,
//!   is bit-equal to the same value from a context that demanded it with
//!   `evaluate()`, whatever the order of the reads; a read replays its
//!   own call, the calls of the steps its stage dropped for it, and the
//!   replays of the held values it reads that were not made yet, each
//!   once (`recomputed_values`);
//! * so is each of them when the filter keeps no rows;
//! * an input whose handle is dropped stays pinned while a value held
//!   as lineage reads it, and is released once that value is made;
//! * a reduction and an output over a `SharedVec` are still held as
//!   pieces;
//! * an in-place stage after a narrow read replays lineage before it
//!   writes, so the value read afterwards is the one its inputs gave
//!   when it was recorded;
//! * dropping a lineage handle releases it: a later lazy use fails with
//!   `ValueUnavailable`.

use std::ops::Range;
use std::sync::{Arc, LazyLock};

use mozart_repro::core::annotation::{concrete, missing, Annotation};
use mozart_repro::core::value::DataObject;
use mozart_repro::core::{
    Arg, Config, DataValue, Error, FutureHandle, MergeStrategy, MozartContext, Params, Result,
    RuntimeInfo, SharedVec, Splitter,
};
use mozart_repro::dataframe::{Column, DataFrame};
use mozart_repro::sa_dataframe::{self as sa, ColValue, DfValue};
use mozart_repro::sa_vectormath as sv;
use mozart_repro::workloads::{self, crime_index};

/// A context whose calls are captured and run in many batches, whatever
/// `MOZART_L2_BYTES` says: a 64 KiB L2 puts the work floor at 4 KiB.
fn ctx() -> MozartContext {
    let mut config = Config::with_workers(2);
    config.l2_bytes = 64 << 10;
    workloads::mozart_context_with(config)
}

/// A value's contents as bits: columns by element, frames by column.
fn bits(v: &DataValue) -> Vec<u64> {
    let col = |c: &Column| -> Vec<u64> {
        match c.dtype() {
            "bool" => c.bools().iter().map(|&b| u64::from(b)).collect(),
            _ => c.f64s().iter().map(|x| x.to_bits()).collect(),
        }
    };
    if let Some(c) = v.downcast_ref::<ColValue>() {
        return col(&c.0);
    }
    let df = v.downcast_ref::<DfValue>().expect("a column or a frame");
    df.0.columns().iter().flat_map(|(_, c)| col(c)).collect()
}

/// For each of `crime_index::capture`'s eight intermediates: the calls
/// its replay runs for it — its own, and for `index` and `clamped` the
/// three steps each block dropped — and the held intermediates it reads.
const LINEAGE: [(u64, &[usize]); 8] = [
    (1, &[]),        // tp_col, over the input frame
    (1, &[0]),       // mask
    (1, &[1]),       // big, over the input frame and mask
    (1, &[2]),       // tp
    (1, &[2]),       // adult
    (1, &[2]),       // rob
    (4, &[3, 4, 5]), // index
    (4, &[6]),       // clamped
];

/// Calls a read of intermediate `i` replays: its own, then those of
/// each held intermediate it reads that no earlier read made.
fn replays(i: usize, made: &mut [bool; 8]) -> u64 {
    if std::mem::replace(&mut made[i], true) {
        return 0;
    }
    let (calls, reads) = LINEAGE[i];
    calls + reads.iter().map(|&j| replays(j, made)).sum::<u64>()
}

/// Read `crime_index`'s intermediates of `df` after the total, in each
/// order, and check each against an evaluated context and each read's
/// replays against [`LINEAGE`].
fn read_after_the_total(df: &DataFrame) {
    let reference: Vec<Vec<u64>> = {
        let ctx = ctx();
        let (total, held) = crime_index::capture(df, &ctx).unwrap();
        ctx.evaluate().unwrap();
        assert_eq!(ctx.stats().recomputed_values, 0, "evaluate() demands all");
        drop(total);
        held.iter().map(|h| bits(&h.get().unwrap())).collect()
    };

    let capture_order: Vec<usize> = (0..8).collect();
    let reversed: Vec<usize> = (0..8).rev().collect();
    for order in [capture_order, reversed] {
        let ctx = ctx();
        let (total, held) = crime_index::capture(df, &ctx).unwrap();
        sa::get_scalar(&total).unwrap();
        let stats = ctx.stats();
        assert_eq!(
            (stats.deferred_outputs, stats.recomputed_values),
            (8, 0),
            "{stats:?}"
        );
        let mut made = [false; 8];
        for &i in &order {
            let before = ctx.stats();
            let got = bits(&held[i].get().unwrap());
            assert_eq!(got, reference[i], "intermediate {i}, order {order:?}");
            // A value an earlier read's replay made is read as is.
            let first = !made[i];
            let expect = replays(i, &mut made);
            let after = ctx.stats();
            let replayed = after.recomputed_values - before.recomputed_values;
            assert_eq!(replayed, expect, "intermediate {i}, order {order:?}");
            let materialized = after.deferred_materialized - before.deferred_materialized;
            assert_eq!(materialized, u64::from(first), "intermediate {i}");
        }
        let all: u64 = LINEAGE.iter().map(|(calls, _)| calls).sum();
        assert_eq!(ctx.stats().recomputed_values, all);
    }
}

#[test]
fn crime_index_intermediates_read_after_the_total_equal_evaluated_ones() {
    read_after_the_total(&crime_index::generate(1 << 14, 3));
}

#[test]
fn intermediates_of_a_filter_that_keeps_no_rows_read_after_the_total() {
    const N: usize = 1 << 14;
    let small = |k: f64| Column::from_f64((0..N).map(|i| k * (1 + i % 1000) as f64).collect());
    let df = DataFrame::from_cols(vec![
        ("total_population", small(100.0)),
        ("adult_population", small(70.0)),
        ("num_robberies", small(0.5)),
    ]);
    read_after_the_total(&df);
}

#[test]
fn a_dropped_input_stays_pinned_until_what_stands_on_it_is_made() {
    let df = crime_index::generate(1 << 14, 3);
    let reference = {
        let ctx = ctx();
        let (_total, held) = crime_index::capture(&df, &ctx).unwrap();
        ctx.evaluate().unwrap();
        bits(&held[7].get().unwrap())
    };
    let ctx = ctx();
    let (total, mut held) = crime_index::capture(&df, &ctx).unwrap();
    sa::get_scalar(&total).unwrap();
    held[6].get().unwrap();
    // Drop `index`, made by that read: `clamped`, held as lineage, reads
    // it, so its data stays and the replay of `clamped` runs only the
    // four calls of its own block.
    let index = held.remove(6).as_value();
    let before = ctx.stats().recomputed_values;
    assert_eq!(bits(&held[6].get().unwrap()), reference);
    assert_eq!(ctx.stats().recomputed_values - before, 4);
    // `clamped` is made: nothing holds `index` any more.
    let err = sa::gt_scalar(&ctx, &index, 0.5).unwrap_err();
    assert!(matches!(err, Error::ValueUnavailable), "{err:?}");
}

#[test]
fn a_held_reduction_is_merged_from_its_pieces() {
    let df = crime_index::generate(1 << 14, 3);
    let sum_of = |ctx: &MozartContext, held: bool| {
        let tp = sa::col(ctx, &df, "total_population").unwrap();
        let total = sa::sum(ctx, &tp).unwrap();
        let doubled = sa::mul_scalar(ctx, &tp, 2.0).unwrap();
        if !held {
            ctx.evaluate().unwrap();
        }
        sa::get_col(&doubled).unwrap();
        sa::get_scalar(&total).unwrap()
    };
    let reference = sum_of(&ctx(), false);
    let ctx = ctx();
    let got = sum_of(&ctx, true);
    let stats = ctx.stats();
    assert_eq!(
        (stats.deferred_materialized, stats.recomputed_values),
        (1, 0),
        "{stats:?}"
    );
    assert!(
        (got - reference).abs() <= reference.abs() * 1e-12,
        "{got} {reference}"
    );
}

#[test]
fn a_narrow_read_over_a_shared_vec_still_holds_pieces() {
    let x = SharedVec::from_vec((0..1 << 12).map(|i| i as f64 * 0.25).collect());
    let y = SharedVec::from_vec((0..1 << 12).map(|i| 1.0 - i as f64).collect());
    let ctx = ctx();
    let held = sv::ddot(&ctx, &x, &x).unwrap();
    let read = sv::ddot(&ctx, &x, &y).unwrap();
    read.get().unwrap();
    let stats = ctx.stats();
    assert_eq!(
        (stats.deferred_outputs, stats.recomputed_values),
        (1, 0),
        "{stats:?}"
    );
    held.get().unwrap();
    let stats = ctx.stats();
    assert_eq!(
        (stats.deferred_materialized, stats.recomputed_values),
        (1, 0),
        "merged from its pieces: {stats:?}"
    );
}

// ---------------------------------------------------------------------
// A library type that keeps `DataObject`'s defaults — no declared
// storage, no protection — over a `SharedVec` an in-place call writes.
// ---------------------------------------------------------------------

#[derive(Clone)]
struct Cells(SharedVec<f64>);

impl DataObject for Cells {
    fn type_name(&self) -> &'static str {
        "Cells"
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

fn cells(v: &DataValue) -> Result<&Cells> {
    v.downcast_ref::<Cells>()
        .ok_or_else(|| Error::Library(format!("expected Cells, got {}", v.type_name())))
}

/// Pieces are copies of their range; merging concatenates them, without
/// placement.
struct CellSplit;

impl Splitter for CellSplit {
    fn name(&self) -> &'static str {
        "CellSplit"
    }
    fn construct(&self, ctor_args: &[&DataValue]) -> Result<Params> {
        Ok(vec![cells(ctor_args[0])?.0.len() as i64])
    }
    fn info(&self, _arg: &DataValue, params: &Params) -> Result<RuntimeInfo> {
        Ok(RuntimeInfo {
            total_elements: params[0] as u64,
            elem_size_bytes: 8,
        })
    }
    fn split(&self, arg: &DataValue, r: Range<u64>, params: &Params) -> Result<Option<DataValue>> {
        let total = params[0] as u64;
        if r.start >= total {
            return Ok(None);
        }
        let elems = &cells(arg)?.0.as_slice()[r.start as usize..r.end.min(total) as usize];
        Ok(Some(DataValue::new(Cells(SharedVec::from_vec(
            elems.to_vec(),
        )))))
    }
    fn merge_strategy(&self) -> MergeStrategy {
        MergeStrategy::Concat { placement: None }
    }
    fn merge(&self, pieces: Vec<DataValue>, _p: &Params, _total: u64) -> Result<DataValue> {
        let mut out = Vec::new();
        for p in &pieces {
            out.extend_from_slice(cells(p)?.0.as_slice());
        }
        Ok(DataValue::new(Cells(SharedVec::from_vec(out))))
    }
}

/// `c + k`, functional.
fn offset(ctx: &MozartContext, c: &DataValue, k: f64) -> FutureHandle {
    static A: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
        Annotation::new("lineage_cells_offset", |inv| {
            let k = inv.float(1)?;
            let out = cells(&inv.args[0])?
                .0
                .as_slice()
                .iter()
                .map(|x| x + k)
                .collect();
            Ok(Some(DataValue::new(Cells(SharedVec::from_vec(out)))))
        })
        .arg("c", concrete(Arc::new(CellSplit), vec![0]))
        .arg("k", missing())
        .ret(concrete(Arc::new(CellSplit), vec![0]))
        .build()
    });
    ctx.call(&A, &[Arg::Value(c), Arg::Float(k)])
        .unwrap()
        .unwrap()
}

fn elems(h: &FutureHandle) -> Vec<f64> {
    cells(&h.get().unwrap()).unwrap().0.as_slice().to_vec()
}

#[test]
fn an_in_place_stage_after_a_narrow_read_replays_lineage_before_it_writes() {
    const N: usize = 1 << 12;
    let storage = SharedVec::from_vec((0..N).map(|i| i as f64).collect());
    let input = DataValue::new(Cells(storage.clone()));
    let ctx = ctx();
    let held = offset(&ctx, &input, 1.0);
    let read = offset(&ctx, &input, 2.0);
    assert_eq!(elems(&read)[N - 1], (N + 1) as f64);
    assert_eq!(ctx.stats().deferred_outputs, 1);

    // Negate the storage under `input` in place. Its stage replays
    // `held` first, while the storage still holds what it read.
    sv::vd_neg(&ctx, N, &storage, &storage).unwrap();
    ctx.evaluate().unwrap();
    assert_eq!(storage.as_slice()[N - 1], -((N - 1) as f64));
    assert_eq!(
        ctx.stats().recomputed_values,
        1,
        "replayed before the write"
    );
    let expect: Vec<f64> = (0..N).map(|i| i as f64 + 1.0).collect();
    assert_eq!(elems(&held), expect);
}

#[test]
fn dropping_a_lineage_handle_releases_it() {
    let df = crime_index::generate(1 << 12, 5);
    let ctx = ctx();
    let tp = sa::col(&ctx, &df, "total_population").unwrap();
    let doubled = sa::mul_scalar(&ctx, &tp, 2.0).unwrap();
    let shifted = sa::add_scalar(&ctx, &tp, 1.0).unwrap();
    sa::get_col(&doubled).unwrap();
    assert_eq!(ctx.stats().deferred_outputs, 2, "tp and shifted");

    let copy = shifted.as_value();
    drop(shifted);
    let err = sa::mul_scalar(&ctx, &copy, 3.0).unwrap_err();
    assert!(matches!(err, Error::ValueUnavailable), "{err:?}");
    // `tp` is still held and still reads; nothing else was replayed.
    assert_eq!(sa::get_col(&tp).unwrap().len(), 1 << 12);
    assert_eq!(ctx.stats().recomputed_values, 1);
}
