//! What Crime Index's batch costs against the Series loops it replaced,
//! in wall time: the big-city mask, the filter of the three-column
//! frame, the index arithmetic, the clamp and the sum, over a
//! 16 384-row slice (L2-resident, one thread), against the same chain
//! through `tests/reference`'s forms: the filter that grows its output
//! as it goes, the serial sum and the iterator-collected operators.
//!
//! Each step is timed on its own input (the previous step's output,
//! computed once), as the minimum over rounds that alternate between
//! the two sides, one run of each per round: another tenant's load on a
//! shared host only ever lengthens a run, so the minimum is each side's
//! own cost. A side's chain is the sum of its minima. The bound is
//! `chain ≤ 0.6 · reference`: a branch back in the filter, a serial sum
//! or a loop that stops vectorizing breaks it.
//!
//! The bound holds on a CPU with AVX2 or AVX-512, where the library's
//! Series loops run wider than the reference forms, which compile for
//! the baseline target. On a 2-core AVX-512 host the batch reads
//! 0.47–0.52 at the AVX-512 arm and 0.55–0.57 with the library's
//! dispatch held at AVX2. Held at the baseline (SSE2) it reads
//! 0.58–0.63: there only the filter and the sum gain, and every other
//! step is the reference's own loop at the same width. On a CPU without
//! AVX2 the test therefore reports the ratio and does not assert it.
//!
//! A batch's columns are 128 KiB, glibc's default `mmap` threshold, so
//! the test first raises the thresholds as Mozart's worker pool does
//! for the process it runs Crime Index in
//! (`mozart_core::membudget::keep_freed_pieces_mapped`). Left at the
//! defaults, every step pays page faults on fresh mappings, and the
//! faults, not the loops, are what it times.
//!
//! One test in this file, so that no sibling test shares the cores.
//! Run it in release: `cargo test --release -p dataframe --test series_cost`.

mod reference;

use std::hint::black_box;
use std::time::{Duration, Instant};

use dataframe::{ops, Column, DataFrame};

/// Rows of one batch: Crime Index's batch on a 2 MiB L2.
const ROWS: usize = 1 << 14;
/// Crime Index's big-city threshold.
const BIG_CITY: f64 = 500_000.0;
/// Rounds, each timing one run of each side.
const ROUNDS: usize = 300;

/// SplitMix64 uniform doubles in `[lo, hi)`.
struct Rng(u64);

impl Rng {
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        lo + (hi - lo) * ((z >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// Crime Index's columns, drawn as `workloads::data::crime_inputs`
/// draws them: about nine rows in ten pass the big-city mask.
fn frame() -> DataFrame {
    let mut r = Rng(3);
    let total: Vec<f64> = (0..ROWS).map(|_| r.uniform(1e3, 5e6)).collect();
    let adult = total.iter().map(|t| t * r.uniform(0.6, 0.85)).collect();
    let rob = total.iter().map(|t| t * r.uniform(1e-4, 1e-2)).collect();
    DataFrame::from_cols(vec![
        ("total_population", Column::from_f64(total)),
        ("adult_population", Column::from_f64(adult)),
        ("num_robberies", Column::from_f64(rob)),
    ])
}

/// Keep freed buffers in the heap: no `mmap` below 32 MiB, no trim
/// below 256 MiB of free top.
fn keep_freed_buffers_mapped() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::os::raw::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;
        // SAFETY: `mallopt` is glibc's thread-safe setter for these two
        // parameters; it takes and returns plain integers.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, 256 << 20);
        }
    }
}

/// One step of the chain on both sides, each run on its own input.
type Step<'a> = (&'static str, Box<dyn Fn() + 'a>, Box<dyn Fn() + 'a>);

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wall-time gate; runs in the release CI leg"
)]
fn the_crime_index_batch_costs_at_most_0_6x_the_reference_forms() {
    keep_freed_buffers_mapped();
    let df = frame();
    let cols = ["total_population", "adult_population", "num_robberies"];
    let [tp, adult, rob] = cols.map(|c| df.col(c).f64s().to_vec());

    // The library's chain, step by step, and the reference's result.
    let mask = ops::gt_scalar(df.col(cols[0]), BIG_CITY);
    let big = df.filter(&mask);
    let (btp, badult, brob) = (big.col(cols[0]), big.col(cols[1]), big.col(cols[2]));
    let index = ops::sub(
        &ops::div(badult, btp),
        &ops::mul_scalar(&ops::div(brob, btp), 2.0),
    );
    let clamp = |index: &Column| {
        let c1 = ops::mask_assign(index, &ops::gt_scalar(index, 1.0), 1.0);
        ops::mask_assign(&c1, &ops::lt_scalar(&c1, 0.0), 0.0)
    };
    let clamped = clamp(&index);
    let want = reference::crime_batch(&tp, &adult, &rob, BIG_CITY);
    let got = ops::sum(&clamped);
    assert!(
        (got - want).abs() <= 1e-9 * want.abs(),
        "the chains differ: {got} against {want}"
    );
    let kept = big.num_rows();
    assert!(kept > ROWS * 8 / 10 && kept < ROWS, "{kept} rows kept");

    let m = mask.bools().to_vec();
    let (rtp, radult, rrob) = (
        reference::filter(&tp, &m),
        reference::filter(&adult, &m),
        reference::filter(&rob, &m),
    );
    let rindex = index.f64s().to_vec();
    let rclamped = clamped.f64s().to_vec();
    let steps: [Step; 5] = [
        (
            "mask",
            Box::new(|| drop(black_box(ops::gt_scalar(df.col(cols[0]), BIG_CITY)))),
            Box::new(|| drop(black_box(reference::gt_scalar(&tp, BIG_CITY)))),
        ),
        (
            "filter",
            Box::new(|| drop(black_box(df.filter(black_box(&mask))))),
            Box::new(|| {
                for c in [&tp, &adult, &rob] {
                    drop(black_box(reference::filter(c, black_box(&m))));
                }
            }),
        ),
        (
            "index",
            Box::new(|| {
                let r2 = ops::mul_scalar(&ops::div(brob, btp), 2.0);
                drop(black_box(ops::sub(&ops::div(badult, btp), &r2)));
            }),
            Box::new(|| {
                let r2 = reference::mul_scalar(&reference::div(&rrob, &rtp), 2.0);
                drop(black_box(reference::sub(
                    &reference::div(&radult, &rtp),
                    &r2,
                )));
            }),
        ),
        (
            "clamp",
            Box::new(|| drop(black_box(clamp(black_box(&index))))),
            Box::new(|| {
                let c1 = reference::mask_assign(&rindex, &reference::gt_scalar(&rindex, 1.0), 1.0);
                let lo = reference::lt_scalar(&c1, 0.0);
                drop(black_box(reference::mask_assign(&c1, &lo, 0.0)));
            }),
        ),
        (
            "sum",
            Box::new(|| {
                black_box(ops::sum(black_box(&clamped)));
            }),
            Box::new(|| {
                black_box(reference::sum(black_box(&rclamped)));
            }),
        ),
    ];

    let mut fast = [Duration::MAX; 5];
    let mut slow = [Duration::MAX; 5];
    for _ in 0..ROUNDS {
        for (k, (_, ours, theirs)) in steps.iter().enumerate() {
            let t0 = Instant::now();
            ours();
            let t1 = Instant::now();
            theirs();
            fast[k] = fast[k].min(t1 - t0);
            slow[k] = slow[k].min(t1.elapsed());
        }
    }
    let ns = |d: Duration| d.as_secs_f64() * 1e9 / ROWS as f64;
    for (k, (name, _, _)) in steps.iter().enumerate() {
        eprintln!(
            "{name}: {:.2} against {:.2} ns/row",
            ns(fast[k]),
            ns(slow[k])
        );
    }
    let (fast, slow) = (fast.iter().sum::<Duration>(), slow.iter().sum::<Duration>());
    let ratio = fast.as_secs_f64() / slow.as_secs_f64();
    eprintln!(
        "batch {:.1} µs, reference forms {:.1} µs: {ratio:.2}x",
        fast.as_secs_f64() * 1e6,
        slow.as_secs_f64() * 1e6
    );
    if !runs_wide() {
        eprintln!("not gated: the library runs at the baseline width here");
        return;
    }
    assert!(
        ratio <= 0.6,
        "the Crime Index batch took {fast:?} against the reference forms' {slow:?}: {ratio:.2}x"
    );
}

/// Whether the library's Series loops run wider than the baseline
/// target the reference forms compile for: on a CPU with AVX2.
fn runs_wide() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}
