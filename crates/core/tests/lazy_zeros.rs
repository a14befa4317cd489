//! Fresh buffers (see "Fresh buffers" in `mozart_core::buffer`):
//! `SharedVec::zeros` writes nothing at allocation, and its elements
//! read as `T::default()` through every API.
//!
//! The invariants under test:
//!
//! * every read path — `as_slice`, `to_vec`, `slice_unchecked`, a
//!   kernel's `base_ptr`, a split piece and a `Concat` — reads the
//!   defaults, for `f64` and for a type whose default is not zero bits;
//! * a call whose first use of a fresh buffer is a read of it gives the
//!   plain library's bits, at the work floor and in a staged call that
//!   claims the buffer and zeroes its bands on the workers;
//! * a split over a prefix, and a stage whose source dries up early
//!   (a `NULL` split), leave the rest of the buffer at the default;
//! * after a fault at one batch, in the split or the task phase, or a
//!   cancellation mid-stage, every element is the default or its
//!   fault-free value.
//!
//! Each buffer is allocated right after a vector of the same size,
//! filled with a NaN-payload sentinel, is freed, so the allocator hands
//! back that chunk: a band that no one zeroed reads the sentinel, not
//! the zeros of a fresh mapping. (Under AddressSanitizer, its `0xbe`
//! fill of a fresh allocation makes the same fault visible.)

use std::ops::Range;
use std::sync::Arc;

use mozart_core::annotation::{concrete, missing, Annotation};
use mozart_core::faultinject::silence_injected_panics;
use mozart_core::prelude::*;

/// A quiet NaN with a payload no computation here produces.
const SENTINEL: u64 = 0x7ff8_dead_beef_cafe;

/// 128 batches of 64 elements at `batch_override`.
const N: usize = 8192;
const BATCH: u64 = 64;

/// A fresh buffer of `n` elements allocated where a freed vector of
/// sentinels was.
fn poisoned_zeros(n: usize) -> SharedVec<f64> {
    let junk = vec![f64::from_bits(SENTINEL); n];
    drop(std::hint::black_box(junk));
    SharedVec::zeros(n)
}

fn assert_all_default(xs: &[f64], what: &str) {
    let bad = xs.iter().position(|x| x.to_bits() != 0);
    assert_eq!(bad, None, "{what}: element not +0.0");
}

/// `[1, 2, ..., n]`: no element is the default.
fn ones_up(n: usize) -> SharedVec<f64> {
    SharedVec::from_vec((1..=n).map(|i| i as f64).collect())
}

/// `out[i] += a[i]` over `n` elements: reads each element of `out`
/// before writing it.
fn add_into() -> Arc<Annotation> {
    Annotation::new("lazy_add_into", |inv| {
        let a = &inv.arg::<VecValue>(0)?.0;
        let out = &inv.arg::<VecValue>(1)?.0;
        // SAFETY: the executor hands each worker disjoint pieces; `a`
        // and `out` are different buffers.
        let (a, out) = unsafe {
            (
                a.slice_unchecked(0, a.len()),
                out.slice_mut_unchecked(0, out.len()),
            )
        };
        for (o, x) in out.iter_mut().zip(a) {
            *o += x;
        }
        Ok(None)
    })
    .arg("a", concrete(Arc::new(ArraySplit), vec![2]))
    .mut_arg("out", concrete(Arc::new(ArraySplit), vec![2]))
    .arg("n", missing())
    .build()
}

fn staged(workers: usize, plan: Option<Arc<FaultPlan>>) -> (MozartContext, PoolHandle) {
    let pool = PoolHandle::new(workers - 1);
    let mut cfg = Config::with_workers(workers);
    cfg.batch_override = Some(BATCH);
    cfg.fault_plan = plan;
    let ctx = MozartContext::new(cfg);
    ctx.attach_pool(pool.clone());
    (ctx, pool)
}

#[test]
fn every_read_path_sees_the_defaults() {
    let z = poisoned_zeros(N);
    assert_all_default(z.as_slice(), "as_slice");
    assert_all_default(&poisoned_zeros(N).to_vec(), "to_vec");
    let z = poisoned_zeros(N);
    // SAFETY: nothing writes the buffer.
    assert_all_default(
        unsafe { z.slice_unchecked(N / 2, N / 2) },
        "slice_unchecked",
    );
    let z = poisoned_zeros(N);
    // SAFETY: `N` elements from the buffer's first, which nothing writes.
    let raw = unsafe { std::slice::from_raw_parts(z.base_ptr(), N) };
    assert_all_default(raw, "base_ptr");

    // A split piece, cut before anything read the buffer.
    let z = DataValue::new(VecValue(poisoned_zeros(N)));
    let piece = ArraySplit
        .split(&z, 100..300, &vec![N as i64])
        .unwrap()
        .unwrap();
    let piece = &piece.downcast_ref::<VecValue>().unwrap().0;
    assert_all_default(piece.as_slice(), "split piece");

    // The concatenation of two fresh buffers and a written one.
    let cap = Splitter::concat(&ArraySplit).unwrap();
    let parts =
        [poisoned_zeros(N), ones_up(8), poisoned_zeros(N)].map(|v| DataValue::new(VecValue(v)));
    let (cat, offsets) = cap.concat(&parts).unwrap();
    let cat = cat.downcast_ref::<VecValue>().unwrap().0.to_vec();
    assert_eq!(offsets, [0, N as u64, N as u64 + 8]);
    assert_all_default(&cat[..N], "concat head");
    assert_eq!(cat[N..N + 8], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    assert_all_default(&cat[N + 8..], "concat tail");
}

/// A `Copy` type whose default is not all-zero bits.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Px(u32, u8);

impl Default for Px {
    fn default() -> Self {
        Px(0x7f7f_7f7f, 3)
    }
}

#[test]
fn a_default_that_is_not_zero_bits_reads_as_itself() {
    let z: SharedVec<Px> = SharedVec::zeros(1000);
    assert!(z.as_slice().iter().all(|&p| p == Px::default()));
    let z: SharedVec<Px> = SharedVec::zeros(1000);
    // SAFETY: 1000 elements from the first, which nothing writes.
    let raw = unsafe { std::slice::from_raw_parts(z.base_ptr(), 1000) };
    assert!(raw.iter().all(|&p| p == Px::default()));
    // A write through the band API lands over materialized defaults.
    let z: SharedVec<Px> = SharedVec::zeros(4);
    // SAFETY: no other handle reads or writes the buffer.
    unsafe { z.slice_mut_unchecked(1, 1)[0] = Px(1, 1) };
    assert_eq!(
        z.to_vec(),
        [Px::default(), Px(1, 1), Px::default(), Px::default()]
    );
}

#[test]
fn a_first_use_that_reads_equals_the_plain_library() {
    sa_vectormath::register_defaults();
    let n = 512;
    let rate: Vec<f64> = (0..n).map(|i| 0.01 * i as f64 + 0.5).collect();
    let mut want = vec![0.0; n];
    vectormath::vd_add(&vec![0.0; n], &rate, &mut want);
    let rate = SharedVec::from_vec(rate);

    // At the work floor (a 1 MiB cache puts it at 64 KiB): the
    // kernel's `base_ptr` materializes `tmp`.
    let ctx = MozartContext::new(Config {
        l2_bytes: 1 << 20,
        ..Config::with_workers(2)
    });
    let tmp = poisoned_zeros(n);
    sa_vectormath::vd_add(&ctx, n, &tmp, &rate, &tmp).unwrap();
    ctx.evaluate().unwrap();
    assert_eq!(ctx.stats().inline_calls, 1);
    assert_eq!(tmp.as_slice(), &want[..], "at the floor");

    // Staged: `tmp` is claimed and each batch zeroes its band.
    let (ctx, _pool) = staged(2, None);
    let tmp = poisoned_zeros(n);
    sa_vectormath::vd_add(&ctx, n, &tmp, &rate, &tmp).unwrap();
    sa_vectormath::vd_add(&ctx, n, &tmp, &rate, &tmp).unwrap();
    ctx.evaluate().unwrap();
    assert!(ctx.stats().stages >= 1 && ctx.stats().batches > 1);
    let mut twice = vec![0.0; n];
    vectormath::vd_add(&want, rate.as_slice(), &mut twice);
    assert_eq!(tmp.as_slice(), &twice[..], "staged");

    // The same on one worker, inline.
    let (ctx, _pool) = staged(1, None);
    let tmp = poisoned_zeros(n);
    sa_vectormath::vd_add(&ctx, n, &tmp, &rate, &tmp).unwrap();
    ctx.evaluate().unwrap();
    assert_eq!(tmp.as_slice(), &want[..], "staged, one worker");
}

/// The first `n` elements of a buffer of any length, as views of it.
struct PrefixSplit;

impl Splitter for PrefixSplit {
    fn name(&self) -> &'static str {
        "PrefixSplit"
    }
    fn construct(&self, args: &[&DataValue]) -> Result<Params> {
        let n = mozart_core::value::as_i64(args[0]).ok_or(Error::Library("n".into()))?;
        Ok(vec![n])
    }
    fn info(&self, _: &DataValue, params: &Params) -> Result<RuntimeInfo> {
        Ok(RuntimeInfo {
            total_elements: params[0] as u64,
            elem_size_bytes: 8,
        })
    }
    fn split(
        &self,
        arg: &DataValue,
        range: Range<u64>,
        params: &Params,
    ) -> Result<Option<DataValue>> {
        let n = params[0] as u64;
        let len = arg.downcast_ref::<VecValue>().map_or(0, |v| v.0.len());
        let range = range.start.min(n)..range.end.min(n);
        ArraySplit.split(arg, range, &vec![len as i64])
    }
    fn merge(&self, pieces: Vec<DataValue>, params: &Params, total: u64) -> Result<DataValue> {
        ArraySplit.merge(pieces, params, total)
    }
    fn merge_strategy(&self) -> MergeStrategy {
        MergeStrategy::Concat { placement: None }
    }
}

#[test]
fn a_split_over_a_prefix_leaves_the_tail_at_the_default() {
    let annot = Annotation::new("lazy_prefix_add_into", |inv| {
        let a = &inv.arg::<VecValue>(0)?.0;
        let out = &inv.arg::<VecValue>(1)?.0;
        // SAFETY: disjoint pieces per worker, two different buffers.
        let (a, out) = unsafe {
            (
                a.slice_unchecked(0, a.len()),
                out.slice_mut_unchecked(0, out.len()),
            )
        };
        for (o, x) in out.iter_mut().zip(a) {
            *o += x;
        }
        Ok(None)
    })
    .arg("a", concrete(Arc::new(PrefixSplit), vec![2]))
    .mut_arg("out", concrete(Arc::new(PrefixSplit), vec![2]))
    .arg("n", missing())
    .build();
    let (ctx, _pool) = staged(2, None);
    let (a, out) = (ones_up(N), poisoned_zeros(N));
    let prefix = N - 1000;
    ctx.call(
        &annot,
        &[Arg::Vec(&a), Arg::Vec(&out), Arg::Int(prefix as i64)],
    )
    .unwrap();
    ctx.evaluate().unwrap();
    assert!(ctx.stats().batches > 1);
    let out = out.to_vec();
    assert_eq!(out[..prefix], a.as_slice()[..prefix]);
    assert_all_default(&out[prefix..], "tail past the prefix");
}

/// A source of `total` elements that dries up at `stop`: its split
/// returns `NULL` from there on.
#[derive(Debug)]
struct Dry {
    total: u64,
    stop: u64,
}

impl mozart_core::value::DataObject for Dry {
    fn type_name(&self) -> &'static str {
        "Dry"
    }
}

struct DrySplit;

impl Splitter for DrySplit {
    fn name(&self) -> &'static str {
        "DrySplit"
    }
    fn construct(&self, args: &[&DataValue]) -> Result<Params> {
        let d = args[0]
            .downcast_ref::<Dry>()
            .ok_or(Error::Library("Dry".into()))?;
        Ok(vec![d.total as i64, d.stop as i64])
    }
    fn info(&self, _: &DataValue, params: &Params) -> Result<RuntimeInfo> {
        Ok(RuntimeInfo {
            total_elements: params[0] as u64,
            elem_size_bytes: 0,
        })
    }
    fn split(
        &self,
        arg: &DataValue,
        range: Range<u64>,
        params: &Params,
    ) -> Result<Option<DataValue>> {
        Ok((range.start < params[1] as u64).then(|| arg.clone()))
    }
    fn merge(&self, mut pieces: Vec<DataValue>, _: &Params, _: u64) -> Result<DataValue> {
        pieces.pop().ok_or(Error::Library("no pieces".into()))
    }
}

#[test]
fn a_source_that_dries_up_leaves_the_rest_at_the_default() {
    let annot = Annotation::new("lazy_dry_add_into", |inv| {
        let a = &inv.arg::<VecValue>(1)?.0;
        let out = &inv.arg::<VecValue>(2)?.0;
        // SAFETY: disjoint pieces per worker, two different buffers.
        let (a, out) = unsafe {
            (
                a.slice_unchecked(0, a.len()),
                out.slice_mut_unchecked(0, out.len()),
            )
        };
        for (o, x) in out.iter_mut().zip(a) {
            *o += x;
        }
        Ok(None)
    })
    .arg("src", concrete(Arc::new(DrySplit), vec![0]))
    .arg("a", concrete(Arc::new(ArraySplit), vec![3]))
    .mut_arg("out", concrete(Arc::new(ArraySplit), vec![3]))
    .arg("n", missing())
    .build();
    let (ctx, _pool) = staged(2, None);
    let stop = 40 * BATCH as usize;
    let src = DataValue::new(Dry {
        total: N as u64,
        stop: stop as u64,
    });
    let (a, out) = (ones_up(N), poisoned_zeros(N));
    ctx.call(
        &annot,
        &[
            Arg::Value(&src),
            Arg::Vec(&a),
            Arg::Vec(&out),
            Arg::Int(N as i64),
        ],
    )
    .unwrap();
    ctx.evaluate().unwrap();
    let out = out.to_vec();
    assert_eq!(out[..stop], a.as_slice()[..stop]);
    assert_all_default(&out[stop..], "past the dry source");
}

/// Every element of `out` is the default or `a`'s, its fault-free value.
fn assert_default_or_fault_free(out: &SharedVec<f64>, a: &SharedVec<f64>, what: &str) {
    let (out, a) = (out.to_vec(), a.as_slice());
    let bad = (0..out.len()).find(|&i| out[i].to_bits() != 0 && out[i] != a[i]);
    assert_eq!(bad, None, "{what}: {:?}", bad.map(|i| out[i]));
}

#[test]
fn a_fault_or_a_cancellation_leaves_defaults_or_fault_free_values() {
    silence_injected_panics();
    for phase in [FaultPhase::Split, FaultPhase::Task] {
        for kind in [FaultKind::Panic, FaultKind::Error] {
            let what = format!("{phase:?} {kind:?}");
            let point = FaultPoint::once(phase, kind).at_batch(70);
            let (ctx, _pool) = staged(2, Some(Arc::new(FaultPlan::new().point(point))));
            let (a, out) = (ones_up(N), poisoned_zeros(N));
            ctx.call(
                &add_into(),
                &[Arg::Vec(&a), Arg::Vec(&out), Arg::Int(N as i64)],
            )
            .unwrap();
            assert!(ctx.evaluate().is_err(), "{what}");
            assert_default_or_fault_free(&out, &a, &what);
        }
    }

    // A token cancelled before the stage starts, and one cancelled by
    // the kernel of batch 70, mid-stage.
    let token = CancelToken::new();
    let (ctx, _pool) = staged(2, None);
    ctx.set_cancel_token(token.clone());
    token.cancel();
    let (a, out) = (ones_up(N), poisoned_zeros(N));
    ctx.call(
        &add_into(),
        &[Arg::Vec(&a), Arg::Vec(&out), Arg::Int(N as i64)],
    )
    .unwrap();
    assert!(matches!(ctx.evaluate(), Err(Error::Cancelled(_))));
    assert_all_default(&out.to_vec(), "cancelled before the stage");

    let token = CancelToken::new();
    let cancel = token.clone();
    let annot = Annotation::new("lazy_cancelling_add_into", move |inv| {
        let a = &inv.arg::<VecValue>(0)?.0;
        let out = &inv.arg::<VecValue>(1)?.0;
        // SAFETY: disjoint pieces per worker, two different buffers.
        let (a, out) = unsafe {
            (
                a.slice_unchecked(0, a.len()),
                out.slice_mut_unchecked(0, out.len()),
            )
        };
        if a[0] as u64 == 70 * BATCH + 1 {
            cancel.cancel();
        }
        for (o, x) in out.iter_mut().zip(a) {
            *o += x;
        }
        Ok(None)
    })
    .arg("a", concrete(Arc::new(ArraySplit), vec![2]))
    .mut_arg("out", concrete(Arc::new(ArraySplit), vec![2]))
    .arg("n", missing())
    .build();
    let (ctx, _pool) = staged(2, None);
    ctx.set_cancel_token(token);
    let (a, out) = (ones_up(N), poisoned_zeros(N));
    ctx.call(&annot, &[Arg::Vec(&a), Arg::Vec(&out), Arg::Int(N as i64)])
        .unwrap();
    assert!(matches!(ctx.evaluate(), Err(Error::Cancelled(_))));
    assert_default_or_fault_free(&out, &a, "cancelled mid-stage");
}
