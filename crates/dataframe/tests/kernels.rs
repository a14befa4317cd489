//! The branch-free `filter` and the pairwise `sum` against the loops
//! they replaced (`tests/reference`), at every dispatch arm the host
//! has.
//!
//! * `filter` must equal the reference row for row, for every dtype
//!   (`Str` included), on whole columns and on views that start past
//!   row 0, at every length 0–67 and 2¹⁴ ± 1, for masks that keep no
//!   row, every row, alternating rows and seeded patterns.
//! * `sum` must equal NumPy's pairwise recursion (written out below
//!   from NumPy's C) bit for bit, and the serial reference to
//!   rounding. Where the reference's result is exact — nothing, signed
//!   zeros, NaN, ±∞ — it must equal it bit for bit, sign included.
//! * Every arm must give the bits the dispatched call gives.

mod reference;

use dataframe::{ops, Column, DataFrame, Width};

/// SplitMix64: a seeded, dependency-free generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

const PAR: usize = 1 << 14;

fn lengths() -> Vec<usize> {
    (0..=67).chain([PAR - 1, PAR, PAR + 1]).collect()
}

/// Masks of `n` rows: none, all, alternating (both phases), and seeded
/// patterns keeping about 1/10, 1/2 and 9/10 of the rows.
fn masks(n: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut rng = Rng(seed);
    let mut out = vec![
        vec![false; n],
        vec![true; n],
        (0..n).map(|i| i % 2 == 0).collect(),
        (0..n).map(|i| i % 2 == 1).collect(),
    ];
    for keep in [0.1, 0.5, 0.9] {
        out.push((0..n).map(|_| rng.unit() < keep).collect());
    }
    out
}

/// A column of each dtype, `n + 3` rows, and the values it holds.
fn columns(n: usize, seed: u64) -> Vec<Column> {
    let mut rng = Rng(seed);
    let len = n + 3;
    let f: Vec<f64> = (0..len)
        .map(|i| match i % 5 {
            0 => f64::NAN,
            1 => -0.0,
            _ => rng.unit() * 1e3 - 500.0,
        })
        .collect();
    vec![
        Column::from_i64((0..len).map(|_| rng.next() as i64).collect()),
        Column::from_f64(f),
        Column::from_str(
            (0..len)
                .map(|i| format!("row{i}-{}", rng.next() % 97))
                .collect(),
        ),
        Column::from_bool((0..len).map(|_| rng.next() & 1 == 1).collect()),
    ]
}

/// `filter`'s rows as the reference filters them.
fn reference_filter(c: &Column, mask: &[bool]) -> Column {
    match c {
        Column::I64(_) => Column::from_i64(reference::filter(c.i64s(), mask)),
        Column::F64(_) => Column::from_f64(reference::filter(c.f64s(), mask)),
        Column::Str(_) => Column::from_str(reference::filter(c.strs(), mask)),
        Column::Bool(_) => Column::from_bool(reference::filter(c.bools(), mask)),
    }
}

/// Same dtype and the same rows, `f64`s bit for bit.
fn same_rows(a: &Column, b: &Column) -> bool {
    match (a, b) {
        (Column::I64(_), Column::I64(_)) => a.i64s() == b.i64s(),
        (Column::F64(_), Column::F64(_)) => {
            let bits = |c: &Column| c.f64s().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            bits(a) == bits(b)
        }
        (Column::Str(_), Column::Str(_)) => a.strs() == b.strs(),
        (Column::Bool(_), Column::Bool(_)) => a.bools() == b.bools(),
        _ => false,
    }
}

#[test]
fn filter_keeps_the_reference_rows_at_every_arm() {
    let widths = Width::available();
    let mut checked = 0;
    for n in lengths() {
        for (m, mask) in masks(n, n as u64).iter().enumerate() {
            for whole in columns(n, 7 * n as u64 + m as u64) {
                // The view starts past row 0 and ends before the buffer.
                for c in [
                    whole.slice(0, n),
                    whole.slice(2, n + 2),
                    whole.slice(3, n + 3),
                ] {
                    let want = reference_filter(&c, mask);
                    let got = c.filter(mask);
                    assert!(
                        same_rows(&got, &want),
                        "{} filter of {n} rows, mask {m}",
                        c.dtype()
                    );
                    for &w in &widths {
                        assert!(
                            same_rows(&c.filter_at(w, mask), &want),
                            "{} filter of {n} rows, mask {m}, {w:?}",
                            c.dtype()
                        );
                    }
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, lengths().len() * 7 * 4 * 3);
}

#[test]
fn frame_filter_keeps_the_reference_rows_of_every_column() {
    for n in lengths() {
        for (m, mask) in masks(n, 31 + n as u64).iter().enumerate() {
            let cols = columns(n, n as u64 ^ 0x5a);
            let names = ["i", "f", "s", "b"];
            let df = DataFrame::from_cols(names.iter().copied().zip(cols.clone()).collect());
            let view = df.slice_rows(3, n + 3);
            let got = view.filter(&Column::from_bool(mask.clone()));
            assert_eq!(got.num_rows(), mask.iter().filter(|&&k| k).count());
            for (name, c) in names.iter().zip(&cols) {
                let want = reference_filter(&c.slice(3, n + 3), mask);
                assert!(
                    same_rows(got.col(name), &want),
                    "{name}: {n} rows, mask {m}"
                );
            }
        }
    }
}

#[test]
#[should_panic(expected = "mask length mismatch")]
fn filter_rejects_a_mask_of_another_length() {
    Column::from_f64(vec![1.0, 2.0]).filter(&[true]);
}

/// NumPy's `pairwise_sum`, recursive, with NaN read as −0.0.
fn numpy_pairwise(x: &[f64]) -> f64 {
    let v = |x: f64| if x.is_nan() { -0.0 } else { x };
    let n = x.len();
    if n < 8 {
        let mut res = -0.0;
        for &a in x {
            res += v(a);
        }
        res
    } else if n <= ops::PAIRWISE_BLOCK {
        let mut r = [0.0; 8];
        for j in 0..8 {
            r[j] = v(x[j]);
        }
        let mut i = 8;
        while i < n - n % 8 {
            for j in 0..8 {
                r[j] += v(x[i + j]);
            }
            i += 8;
        }
        let mut res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        while i < n {
            res += v(x[i]);
            i += 1;
        }
        res
    } else {
        let mut n2 = n / 2;
        n2 -= n2 % 8;
        numpy_pairwise(&x[..n2]) + numpy_pairwise(&x[n2..])
    }
}

/// The bits of a sum, every NaN as one.
fn bits(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

fn sums_at_every_arm(x: &[f64]) -> Vec<(Width, u64)> {
    let c = Column::from_f64(x.to_vec());
    Width::available()
        .into_iter()
        .map(|w| (w, bits(ops::sum_at(w, &c))))
        .collect()
}

#[test]
fn sum_is_numpys_pairwise_sum_at_every_arm() {
    let mut rng = Rng(11);
    let mut ns = lengths();
    ns.extend([129, 136, 255, 256, 257, 1000, 4097, 100_003]);
    for n in ns {
        for nan_every in [0, 3, 17] {
            let x: Vec<f64> = (0..n)
                .map(|i| {
                    if nan_every > 0 && i % nan_every == 0 {
                        f64::NAN
                    } else {
                        // Twelve decades of both signs, so order shows.
                        (rng.unit() - 0.5) * 10f64.powi((i % 12) as i32)
                    }
                })
                .collect();
            let got = ops::sum(&Column::from_f64(x.clone()));
            let want = numpy_pairwise(&x);
            assert_eq!(bits(got), bits(want), "{n} rows, NaN every {nan_every}");
            for (w, b) in sums_at_every_arm(&x) {
                assert_eq!(b, bits(got), "{n} rows, NaN every {nan_every}, {w:?}");
            }
            let serial = reference::sum(&x);
            let scale: f64 = x.iter().filter(|v| !v.is_nan()).map(|v| v.abs()).sum();
            assert!(
                (got - serial).abs() <= 1e-12 * scale,
                "{n} rows: {got} against the serial {serial}"
            );
        }
    }
}

#[test]
fn nan_skipping_keeps_the_serial_sums_exact_results_and_signs() {
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    let mut cases: Vec<Vec<f64>> = vec![
        vec![],
        vec![-0.0],
        vec![0.0],
        vec![-0.0, nan],
        vec![nan, -0.0],
        vec![0.0, nan],
        vec![-0.0, 0.0],
        vec![nan],
        vec![inf],
        vec![-inf],
        vec![inf, -inf],
        vec![inf, nan, 1.0],
        vec![-inf, nan, -0.0],
    ];
    // The same cases at every leaf shape: short, one block, halved.
    for n in [7, 8, 9, 64, 127, 128, 129, 300, PAR + 1] {
        cases.push(vec![nan; n]);
        cases.push(vec![-0.0; n]);
        cases.push(
            (0..n)
                .map(|i| if i % 2 == 0 { -0.0 } else { nan })
                .collect(),
        );
        cases.push(
            (0..n)
                .map(|i| if i % 3 == 0 { 0.0 } else { -0.0 })
                .collect(),
        );
        cases.push((0..n).map(|i| if i == n / 2 { inf } else { 1.0 }).collect());
        cases.push(
            (0..n)
                .map(|i| if i == n - 1 { -inf } else { nan })
                .collect(),
        );
        cases.push(
            (0..n)
                .map(|i| match i {
                    0 => inf,
                    i if i == n - 1 => -inf,
                    _ => 2.5,
                })
                .collect(),
        );
    }
    for x in &cases {
        let want = reference::sum(x);
        let got = ops::sum(&Column::from_f64(x.clone()));
        let shown = if x.len() > 4 {
            format!("{} rows", x.len())
        } else {
            format!("{x:?}")
        };
        assert_eq!(bits(got), bits(want), "{shown}: {got:?} against {want:?}");
        for (w, b) in sums_at_every_arm(x) {
            assert_eq!(b, bits(want), "{shown}, {w:?}");
        }
    }
    assert_eq!(
        ops::sum(&Column::from_f64(vec![])).to_bits(),
        (-0.0f64).to_bits()
    );
}
