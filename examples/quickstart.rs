//! Quickstart: annotate a tiny "library", capture a lazy pipeline, and
//! let Mozart split, pipeline, and parallelize it.
//!
//! Run with `cargo run --release --example quickstart`.

use std::sync::Arc;

use mozart_repro::core::annotation::{concrete, missing};
use mozart_repro::core::prelude::*;

// ---------------------------------------------------------------------
// 1. An "existing library" the authors never modify: plain functions
//    over raw slices, each making a full pass over its data.
// ---------------------------------------------------------------------

mod mylib {
    pub fn saxpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        for i in 0..y.len() {
            y[i] += alpha * x[i];
        }
    }

    pub fn clamp(lo: f64, hi: f64, y: &mut [f64]) {
        for v in y.iter_mut() {
            *v = v.clamp(lo, hi);
        }
    }
}

// ---------------------------------------------------------------------
// 2. The annotator writes split annotations: a split type per argument
//    plus a wrapper that calls the unmodified function on each piece.
//    (Compare the paper's Listing 2.)
// ---------------------------------------------------------------------

fn saxpy_annotation() -> Arc<Annotation> {
    Annotation::new("saxpy", |inv| {
        let alpha = inv.float(0)?;
        // Each array piece is a `VecValue` viewing this batch's range of
        // the caller's buffer: writes to `y` land in it, nothing merges.
        let x = &inv.arg::<VecValue>(1)?.0;
        let y = &inv.arg::<VecValue>(2)?.0;
        // SAFETY: Mozart hands each worker disjoint element ranges.
        unsafe {
            mylib::saxpy(
                alpha,
                x.slice_unchecked(0, x.len()),
                y.slice_mut_unchecked(0, y.len()),
            )
        };
        Ok(None)
    })
    .arg("alpha", missing()) // `_`: copied to every pipeline
    .arg("x", concrete(Arc::new(ArraySplit), vec![1]))
    .mut_arg("y", concrete(Arc::new(ArraySplit), vec![1]))
    .build()
}

fn clamp_annotation() -> Arc<Annotation> {
    Annotation::new("clamp", |inv| {
        let lo = inv.float(0)?;
        let hi = inv.float(1)?;
        let y = &inv.arg::<VecValue>(2)?.0;
        // SAFETY: disjoint ranges per worker.
        unsafe { mylib::clamp(lo, hi, y.slice_mut_unchecked(0, y.len())) };
        Ok(None)
    })
    .arg("lo", missing())
    .arg("hi", missing())
    // MKL convention: split parameters come from the explicit size
    // argument, never from the mutable array itself.
    .mut_arg("y", concrete(Arc::new(ArraySplit), vec![3]))
    .arg("n", missing())
    .build()
}

// ---------------------------------------------------------------------
// 3. The application uses the wrapped functions as always; Mozart
//    captures a dataflow graph lazily and evaluates on first access.
// ---------------------------------------------------------------------

fn main() {
    let n = 4_000_000;
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4);
    let ctx = MozartContext::with_workers(workers);
    let saxpy = saxpy_annotation();
    let clamp = clamp_annotation();

    let x = SharedVec::from_vec((0..n).map(|i| (i % 100) as f64 * 0.01).collect());
    let y = SharedVec::from_vec(vec![1.0; n]);

    println!("registering 3 lazy calls over {n} elements ...");
    for (alpha, lo, hi) in [(2.0, 0.0, 2.5), (-0.5, 0.2, 2.0), (0.25, 0.0, 1.8)] {
        ctx.call(&saxpy, &[Arg::Float(alpha), Arg::Vec(&x), Arg::Vec(&y)])
            .expect("register saxpy");
        ctx.call(
            &clamp,
            &[
                Arg::Float(lo),
                Arg::Float(hi),
                Arg::Vec(&y),
                Arg::Int(n as i64),
            ],
        )
        .expect("register clamp");
    }
    println!("pending calls before access: {}", ctx.pending_calls());

    // Reading `y` forces evaluation — the paper's mprotect trick, here a
    // protect-flag check inside as_slice().
    let checksum: f64 = y.as_slice().iter().sum();
    println!("checksum = {checksum:.3}");

    let stats = ctx.stats();
    println!(
        "stages = {} (all 6 calls pipelined), batches = {}, calls = {}",
        stats.stages, stats.batches, stats.calls
    );
    let p = stats.percentages();
    println!(
        "time breakdown: client {:.2}% | unprotect {:.2}% | planner {:.2}% | split {:.2}% | task {:.2}% | merge {:.2}%",
        p[0], p[1], p[2], p[3], p[4], p[5]
    );
    assert_eq!(stats.stages, 1);
    println!("ok: one stage, cache-sized batches, {workers} workers");
}
