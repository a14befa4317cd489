//! The Series loops `dataframe` shipped before its kernels became
//! branch-free: the filter that grows its output as it goes, the serial
//! NaN-skipping sum, and the iterator forms of the operators Crime
//! Index chains. `tests/kernels.rs` checks the kernels against them and
//! `tests/series_cost.rs` times them.

#![allow(dead_code)]

/// The old `ColData::filter`, over a slice.
pub fn filter<T: Clone>(values: &[T], mask: &[bool]) -> Vec<T> {
    assert_eq!(mask.len(), values.len(), "mask length mismatch");
    let out: Vec<T> = values
        .iter()
        .zip(mask)
        .filter(|(_, keep)| **keep)
        .map(|(v, _)| v.clone())
        .collect();
    out
}

/// The old `ops::sum`, over a slice.
pub fn sum(a: &[f64]) -> f64 {
    a.iter().filter(|x| !x.is_nan()).sum()
}

/// The old `ops::div` (and every binary operator): `zip_f64`.
pub fn div(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "div: length mismatch");
    x.iter().zip(y).map(|(p, q)| p / q).collect()
}

/// The old `ops::sub`.
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    x.iter().zip(y).map(|(p, q)| p - q).collect()
}

/// The old `ops::mul_scalar`.
pub fn mul_scalar(a: &[f64], k: f64) -> Vec<f64> {
    a.iter().map(|&x| x * k).collect()
}

/// The old `ops::gt_scalar`.
pub fn gt_scalar(a: &[f64], k: f64) -> Vec<bool> {
    a.iter().map(|&x| x > k).collect()
}

/// The old `ops::lt_scalar`.
pub fn lt_scalar(a: &[f64], k: f64) -> Vec<bool> {
    a.iter().map(|&x| x < k).collect()
}

/// The old `ops::mask_assign`.
pub fn mask_assign(x: &[f64], m: &[bool], v: f64) -> Vec<f64> {
    assert_eq!(x.len(), m.len(), "mask_assign: length mismatch");
    x.iter()
        .zip(m)
        .map(|(&val, &hit)| if hit { v } else { val })
        .collect()
}

/// Crime Index's batch (`workloads::crime_index::capture`) in the old
/// forms: the big-city filter over three columns, the index arithmetic,
/// the clamp as two compares and two mask assigns, and the sum.
pub fn crime_batch(total: &[f64], adult: &[f64], robberies: &[f64], big_city: f64) -> f64 {
    let mask = gt_scalar(total, big_city);
    let tp = filter(total, &mask);
    let adult = filter(adult, &mask);
    let rob = filter(robberies, &mask);
    let index = sub(&div(&adult, &tp), &mul_scalar(&div(&rob, &tp), 2.0));
    let hi = gt_scalar(&index, 1.0);
    let c1 = mask_assign(&index, &hi, 1.0);
    let lo = lt_scalar(&c1, 0.0);
    sum(&mask_assign(&c1, &lo, 0.0))
}
