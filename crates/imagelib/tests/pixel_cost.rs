//! What the Nashville chain costs against the scalar operators it
//! replaced, in wall time: `colortone`, `colortone`, `gamma`, `modulate`
//! over a 320×240 image (L2-resident) on one internal thread, against
//! the same chain through `tests/reference`'s libm-calling, branchy
//! forms.
//!
//! Each operator is timed on its own input (the previous operator's
//! output, computed once), as the minimum over rounds that alternate
//! between the two sides, one run of each per round: another tenant's
//! load on a shared host only ever lengthens a run, so the minimum is
//! each side's own cost, and a run that allocates what the run before
//! it freed pays no page faults. A side's chain is the sum of its four
//! minima. The bound is `chain ≤ 0.35 · reference`: a libm call or a
//! loop that stops vectorizing in any of the four kernels breaks it.
//!
//! One test in this file, so that no sibling test shares the cores.
//! Run it in release: `cargo test --release -p imagelib --test pixel_cost`.

mod reference;

use std::hint::black_box;
use std::time::{Duration, Instant};

use imagelib::Image;

/// Rounds, each timing one run of each side.
const ROUNDS: usize = 200;

/// One operator of the chain on both sides: the library's and the
/// scalar reference's.
type Stage<'a> = (
    &'a str,
    Box<dyn Fn(&Image) -> Image>,
    Box<dyn Fn(&[f32]) -> Vec<f32>>,
);

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wall-time gate; runs in the release CI leg"
)]
fn the_nashville_chain_costs_at_most_0_35x_the_scalar_operators() {
    imagelib::set_num_threads(1);
    let stages: [Stage; 4] = [
        (
            "colortone",
            Box::new(|i| imagelib::colortone(i, [0.13, 0.17, 0.43], false)),
            Box::new(|d| reference::map(d, reference::colortone([0.13, 0.17, 0.43], false))),
        ),
        (
            "colortone (screen)",
            Box::new(|i| imagelib::colortone(i, [0.97, 0.85, 0.68], true)),
            Box::new(|d| reference::map(d, reference::colortone([0.97, 0.85, 0.68], true))),
        ),
        (
            "gamma",
            Box::new(|i| imagelib::gamma(i, 1.2)),
            Box::new(|d| reference::map(d, reference::gamma(1.2))),
        ),
        (
            "modulate",
            Box::new(|i| imagelib::modulate(i, 100.0, 150.0, 100.0)),
            Box::new(|d| reference::map(d, reference::modulate(100.0, 150.0, 100.0))),
        ),
    ];
    let mut inputs = vec![Image::synthetic(320, 240, 3)];
    for (_, ours, _) in &stages {
        inputs.push(ours(inputs.last().unwrap()));
    }
    let chain = inputs.last().unwrap();
    let scalar = reference::nashville(inputs[0].data());
    let worst = chain
        .data()
        .iter()
        .zip(&scalar)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(worst < 1e-6, "the chains differ by {worst}");

    let mut fast = [Duration::MAX; 4];
    let mut slow = [Duration::MAX; 4];
    for _ in 0..ROUNDS {
        for (k, (_, ours, theirs)) in stages.iter().enumerate() {
            let input = &inputs[k];
            let t0 = Instant::now();
            black_box(ours(black_box(input)));
            let t1 = Instant::now();
            black_box(theirs(black_box(input.data())));
            fast[k] = fast[k].min(t1 - t0);
            slow[k] = slow[k].min(t1.elapsed());
        }
    }
    let ns = |d: Duration| d.as_secs_f64() * 1e9 / (320.0 * 240.0);
    for (k, (name, _, _)) in stages.iter().enumerate() {
        eprintln!(
            "{name}: {:.2} against {:.2} ns/pixel",
            ns(fast[k]),
            ns(slow[k])
        );
    }
    let (fast, slow) = (fast.iter().sum::<Duration>(), slow.iter().sum::<Duration>());
    let ratio = fast.as_secs_f64() / slow.as_secs_f64();
    eprintln!(
        "chain {:.1} ns/pixel, scalar operators {:.1} ns/pixel: {ratio:.2}x",
        ns(fast),
        ns(slow)
    );
    assert!(
        ratio <= 0.35,
        "the Nashville chain took {fast:?} against the scalar operators' {slow:?}: {ratio:.2}x"
    );
}
