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
//! * a live reduction, and a live output over a `SharedVec`, nobody
//!   asked for is merged in its stage: a later read runs nothing;
//! * an in-place stage after a narrow read replays lineage before it
//!   writes, so the value read afterwards is the one its inputs gave
//!   when it was recorded;
//! * a value held as lineage that a later call reads is replayed once,
//!   before that call's stage is planned and cached;
//! * a replay is planned and run as stages: a held value that spans
//!   many batches replays in many batches on the pool, bit-equal;
//! * a replay whose library call panics fails with the typed
//!   `TaskPanicked`, and one past its deadline with `Cancelled`; either
//!   leaves the value held and the context usable, and a retry reads
//!   the evaluated bits; a failure in a later stage of a replay puts
//!   back what its earlier stages made;
//! * dropping a lineage handle releases it: a later lazy use fails with
//!   `ValueUnavailable`.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, LazyLock};
use std::time::Instant;

use mozart_repro::core::annotation::{concrete, missing, Annotation, Invocation};
use mozart_repro::core::prelude::register_default_splitter;
use mozart_repro::core::value::DataObject;
use mozart_repro::core::{
    Arg, CancelToken, Config, DataValue, Error, FaultKind, FaultPhase, FaultPlan, FaultPoint,
    FloatValue, FutureHandle, MergeStrategy, MozartContext, Params, PlanCache, Result, RuntimeInfo,
    SharedVec, Splitter,
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
            (stats.lineage_outputs, stats.recomputed_values),
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
            let materialized = after.lineage_replays - before.lineage_replays;
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
    // Whole numbers, so every grouping of the partial sums has the same
    // bits and an `evaluate()`d sum is a reference for them.
    let tp = Column::from_f64((0..1 << 14).map(|i| (i % 1000) as f64).collect());
    let df = DataFrame::from_cols(vec![("total_population", tp)]);
    let capture = |ctx: &MozartContext| {
        let tp = sa::col(ctx, &df, "total_population").unwrap();
        let total = sa::sum(ctx, &tp).unwrap();
        (total, sa::mul_scalar(ctx, &tp, 2.0).unwrap())
    };
    let reference = {
        let ctx = ctx();
        let (total, _doubled) = capture(&ctx);
        ctx.evaluate().unwrap();
        sa::get_scalar(&total).unwrap()
    };
    // Only `doubled` is read: `total`, alive, is a reduction, which a
    // replay would sum in another order, so its stage merges it.
    let ctx = ctx();
    let (total, doubled) = capture(&ctx);
    sa::get_col(&doubled).unwrap();
    let before = ctx.stats();
    assert_eq!(before.lineage_outputs, 0, "{before:?}");
    let got = sa::get_scalar(&total).unwrap();
    let after = ctx.stats();
    assert_eq!(
        (after.stages, after.lineage_replays, after.recomputed_values),
        (before.stages, 0, 0),
        "the read runs nothing: {after:?}"
    );
    assert_eq!(got.to_bits(), reference.to_bits());
}

#[test]
fn a_narrow_read_over_a_shared_vec_merges_the_held_output_in_its_stage() {
    // Products and sums of quarters stay exact, so every grouping of
    // the partial sums has the same bits.
    let x = SharedVec::from_vec((0..1 << 12).map(|i| i as f64 * 0.25).collect());
    let y = SharedVec::from_vec((0..1 << 12).map(|i| 1.0 - i as f64).collect());
    let reference = {
        let ctx = ctx();
        let held = sv::ddot(&ctx, &x, &x).unwrap();
        ctx.evaluate().unwrap();
        held.get().unwrap()
    };
    let ctx = ctx();
    let held = sv::ddot(&ctx, &x, &x).unwrap();
    let read = sv::ddot(&ctx, &x, &y).unwrap();
    read.get().unwrap();
    let before = ctx.stats();
    assert_eq!(before.lineage_outputs, 0, "{before:?}");
    let got = held.get().unwrap();
    let after = ctx.stats();
    assert_eq!(
        (after.stages, after.lineage_replays, after.recomputed_values),
        (before.stages, 0, 0),
        "the read runs nothing: {after:?}"
    );
    let float = |v: &DataValue| v.downcast_ref::<FloatValue>().unwrap().0.to_bits();
    assert_eq!(float(&got), float(&reference));
}

#[test]
fn a_replay_past_its_deadline_is_cancelled_and_retryable() {
    let df = crime_index::generate(1 << 14, 3);
    let reference = {
        let ctx = ctx();
        let (_total, held) = crime_index::capture(&df, &ctx).unwrap();
        ctx.evaluate().unwrap();
        bits(&held[6].get().unwrap())
    };
    let ctx = ctx();
    let (total, held) = crime_index::capture(&df, &ctx).unwrap();
    sa::get_scalar(&total).unwrap();
    assert_eq!(ctx.stats().lineage_outputs, 8);
    // `index` replays ten calls: its own block's four, then those of
    // `tp`, `adult` and `rob` and of the steps they stand on.
    ctx.set_cancel_token(CancelToken::with_deadline(Instant::now()));
    let err = held[6].get().unwrap_err();
    assert!(matches!(err, Error::Cancelled(_)), "{err:?}");
    let stats = ctx.stats();
    assert_eq!(
        (stats.lineage_replays, stats.recomputed_values),
        (0, 0),
        "{stats:?}"
    );
    // A live token again: the same handle reads what it stands for.
    ctx.set_cancel_token(CancelToken::new());
    assert_eq!(bits(&held[6].get().unwrap()), reference);
    assert_eq!(ctx.stats().recomputed_values, replays(6, &mut [false; 8]));
}

#[test]
fn a_replay_is_a_stage_of_many_batches_on_the_pool() {
    let df = crime_index::generate(1 << 16, 3);
    let reference = {
        let ctx = ctx();
        let (_total, held) = crime_index::capture(&df, &ctx).unwrap();
        ctx.evaluate().unwrap();
        bits(&held[0].get().unwrap())
    };
    let ctx = ctx();
    let (total, held) = crime_index::capture(&df, &ctx).unwrap();
    sa::get_scalar(&total).unwrap();
    let before = ctx.stats();
    // `tp_col` spans the whole input frame: its replay is split into
    // batches the two workers share, as its stage was.
    assert_eq!(bits(&held[0].get().unwrap()), reference);
    let after = ctx.stats();
    assert!(after.batches - before.batches >= 4, "{after:?}");
    assert!(after.stages > before.stages, "{after:?}");
    assert_eq!(after.recomputed_values - before.recomputed_values, 1);
}

#[test]
fn a_replay_failing_in_its_second_stage_leaves_its_slice_as_it_was() {
    let df = crime_index::generate(1 << 14, 3);
    let reference = {
        let ctx = ctx();
        let (_total, held) = crime_index::capture(&df, &ctx).unwrap();
        ctx.evaluate().unwrap();
        bits(&held[6].get().unwrap())
    };
    let ctx = ctx();
    let (total, held) = crime_index::capture(&df, &ctx).unwrap();
    sa::get_scalar(&total).unwrap();
    let before = ctx.stats();
    // A replay is planned under the config of its read. The "-pipe"
    // ablation plans one stage per call, so `index` replays its ten
    // calls as ten stages; the second one panics.
    let mut unpipelined = ctx.config();
    unpipelined.pipeline = false;
    let point = FaultPoint::once(FaultPhase::Task, FaultKind::Panic).at_stage(before.stages + 1);
    let mut faulty = unpipelined.clone();
    faulty.fault_plan = Some(Arc::new(FaultPlan::new().point(point)));
    ctx.set_config(faulty);
    let err = held[6].get().unwrap_err();
    assert!(
        matches!(
            err,
            Error::TaskPanicked {
                stage: FaultPhase::Task,
                ..
            }
        ),
        "{err:?}"
    );
    let after = ctx.stats();
    assert_eq!(after.stages, before.stages + 1, "the first stage ran");
    assert_eq!(after.plans_verified, before.plans_verified + 2);
    assert_eq!(
        (after.lineage_replays, after.recomputed_values),
        (before.lineage_replays, before.recomputed_values),
        "{after:?}"
    );
    // The context is not poisoned: a new call evaluates.
    ctx.set_config(unpipelined);
    let tp = sa::col(&ctx, &df, "total_population").unwrap();
    assert_eq!(sa::get_col(&tp).unwrap().len(), 1 << 14);
    // Nothing the first stage made was kept: the retry replays every
    // call of the slice again, in ten stages, and reads the evaluated
    // bits.
    let retried = ctx.stats();
    assert_eq!(bits(&held[6].get().unwrap()), reference);
    let done = ctx.stats();
    assert_eq!(done.stages - retried.stages, 10);
    let replayed = done.recomputed_values - retried.recomputed_values;
    assert_eq!(replayed, replays(6, &mut [false; 8]));
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
fn add(inv: &Invocation) -> Result<Option<DataValue>> {
    let k = inv.float(1)?;
    let out = cells(inv.args[0])?
        .0
        .as_slice()
        .iter()
        .map(|x| x + k)
        .collect();
    Ok(Some(DataValue::new(Cells(SharedVec::from_vec(out)))))
}

/// `func(c, k)` over cells, annotated `c: CellSplit, k: _ -> CellSplit`.
fn cells_op(
    name: &'static str,
    func: impl Fn(&Invocation) -> Result<Option<DataValue>> + Send + Sync + 'static,
) -> Arc<Annotation> {
    Annotation::new(name, func)
        .arg("c", concrete(Arc::new(CellSplit), vec![0]))
        .arg("k", missing())
        .ret(concrete(Arc::new(CellSplit), vec![0]))
        .build()
}

fn call(ctx: &MozartContext, annot: &Arc<Annotation>, c: &DataValue, k: f64) -> FutureHandle {
    ctx.call(annot, &[Arg::Value(c), Arg::Float(k)])
        .unwrap()
        .unwrap()
}

/// [`add`], annotated once: the plan cache keys on its identity.
fn offset(ctx: &MozartContext, c: &DataValue, k: f64) -> FutureHandle {
    static A: LazyLock<Arc<Annotation>> = LazyLock::new(|| cells_op("lineage_cells_offset", add));
    call(ctx, &A, c, k)
}

/// `0, 1, …, n - 1` as cells.
fn counting(n: usize) -> DataValue {
    DataValue::new(Cells(SharedVec::from_vec(
        (0..n).map(|i| i as f64).collect(),
    )))
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
    assert_eq!(ctx.stats().lineage_outputs, 1);

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
    assert_eq!(ctx.stats().lineage_outputs, 2, "tp and shifted");

    let copy = shifted.as_value();
    drop(shifted);
    let err = sa::mul_scalar(&ctx, &copy, 3.0).unwrap_err();
    assert!(matches!(err, Error::ValueUnavailable), "{err:?}");
    // `tp` is still held and still reads; nothing else was replayed.
    assert_eq!(sa::get_col(&tp).unwrap().len(), 1 << 12);
    assert_eq!(ctx.stats().recomputed_values, 1);
}

#[test]
fn a_held_input_is_replayed_once_before_its_readers_stage() {
    // A default split type gives a segment over cells a shape to be
    // cached under.
    register_default_splitter::<Cells>(Arc::new(CellSplit));
    const N: usize = 1 << 12;
    let first_elems: Vec<f64> = (0..N).map(|i| i as f64 + 1.0).collect();
    let cache = Arc::new(PlanCache::new(8));
    for _ in 0..2 {
        let (ctx, input) = (ctx(), counting(N));
        ctx.attach_plan_cache(cache.clone());
        let first = offset(&ctx, &input, 1.0);
        let second = offset(&ctx, &input, 2.0);
        elems(&second);
        // `first` is held as lineage. A call captured over it finds it
        // replayed before its stage is fingerprinted and planned, and a
        // later read of `first` replays nothing again. The replay is a
        // stage of its own, between the two segments' stages.
        let half = offset(&ctx, &first.as_value(), 0.5);
        let half = elems(&half);
        let s = ctx.stats();
        let counts = (s.stages, s.lineage_outputs, s.lineage_replays);
        assert_eq!((counts, s.recomputed_values), ((3, 1, 1), 1), "{s:?}");
        assert_eq!(elems(&first), first_elems);
        assert_eq!(ctx.stats().recomputed_values, 1, "replayed once");
        let expect: Vec<f64> = first_elems.iter().map(|x| x + 0.5).collect();
        assert_eq!(half, expect);
    }
    let s = cache.stats();
    assert_eq!((s.hits, s.misses), (2, 2), "both segments cached: {s:?}");
}

#[test]
fn a_panicking_replay_is_typed_and_retryable() {
    /// Set to make the next call of [`add`] through `PANICKY` panic.
    static ARMED: AtomicBool = AtomicBool::new(false);
    static PANICKY: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
        cells_op("lineage_cells_offset_panicking_once", |inv| {
            if ARMED.swap(false, Ordering::Relaxed) {
                panic!("a library call that fails once");
            }
            add(inv)
        })
    });
    const N: usize = 1 << 12;
    let input = counting(N);
    let reference = {
        let ctx = ctx();
        let held = call(&ctx, &PANICKY, &input, 1.0);
        ctx.evaluate().unwrap();
        elems(&held)
    };
    let ctx = ctx();
    let held = call(&ctx, &PANICKY, &input, 1.0);
    let read = call(&ctx, &PANICKY, &input, 2.0);
    elems(&read);
    assert_eq!(ctx.stats().lineage_outputs, 1);

    ARMED.store(true, Ordering::Relaxed);
    let err = held.get().unwrap_err();
    assert!(
        matches!(
            err,
            Error::TaskPanicked {
                stage: FaultPhase::Task,
                ..
            }
        ),
        "{err:?}"
    );
    assert_eq!(ctx.stats().lineage_replays, 0, "still held");
    // The context is not poisoned: a new call evaluates, and the retry
    // replays the value the evaluated context read.
    assert_eq!(elems(&offset(&ctx, &input, 3.0))[0], 3.0);
    let bits = |xs: Vec<f64>| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(elems(&held)), bits(reference));
    assert_eq!(ctx.stats().lineage_replays, 1);
}
