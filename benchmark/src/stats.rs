//! The statistics every printed number rests on: medians, quartiles,
//! the tail percentile that still has ten samples beyond it, and the
//! run-to-run spread the A/A check compares with a metric's bound.

/// Samples a percentile must leave beyond itself to be reported: with
/// fewer, the "percentile" is one or two outliers, not a distribution.
const MIN_BEYOND: usize = 10;

/// Percentiles a tail may be reported at, lowest first.
const TAIL_CANDIDATES: [f64; 6] = [75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median (mean of the two middle samples for an even count); NaN when
/// `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three cut points `[q1, q2, q3]` as Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method)
/// computes them — the A/A check of the driver uses that function, so
/// the benchmark's own check must agree with it digit for digit.
/// `None` with fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Inter-quartile distance as a share of the median — the spread the
/// A/A check holds against a metric's bound. `None` with fewer than two
/// samples or a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The nearest rank (1-based) of percentile `pct` among `samples`.
fn rank(samples: usize, pct: f64) -> usize {
    ((pct / 100.0 * samples as f64).ceil() as usize).clamp(1, samples.max(1))
}

/// Samples strictly beyond percentile `pct` among `samples`.
pub fn beyond(samples: usize, pct: f64) -> usize {
    samples.saturating_sub(rank(samples, pct))
}

/// Nearest-rank percentile of `values` and the number of samples
/// strictly beyond that rank. `pct` is in percent (`99.0`, `99.9`).
pub fn percentile(values: &[f64], pct: f64) -> (f64, usize) {
    let v = sorted(values);
    if v.is_empty() {
        return (f64::NAN, 0);
    }
    (v[rank(v.len(), pct) - 1], beyond(v.len(), pct))
}

/// The highest percentile from a fixed ladder that leaves at least
/// [`MIN_BEYOND`] of `samples` beyond it, or `None` when even the
/// lowest rung (p75) does not — then the median is all the run can say.
pub fn highest_tail_percentile(samples: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .rev()
        .find(|pct| beyond(samples, *pct) >= MIN_BEYOND)
}

/// Throughput of a closed loop, steadied: the completions are cut, in
/// order, into `groups` runs of equally many operations, each run's rate
/// is its count over the time it took, and the median rate is returned.
/// `end_s` holds every operation's completion time since the window
/// opened (the first operation starts at 0), sorted. A stall lengthens
/// one run and moves one of the rates the median is taken over; count ÷
/// window would charge it to the whole result.
pub fn grouped_rate(end_s: &[f64], groups: usize) -> f64 {
    median(&run_rates(end_s, (end_s.len() / groups.max(1)).max(1)))
}

/// Rate of each consecutive run of `per` completions.
fn run_rates(end_s: &[f64], per: usize) -> Vec<f64> {
    let mut opened = 0.0;
    end_s
        .chunks_exact(per)
        .map(|run| {
            let closed = run[per - 1];
            let rate = per as f64 / (closed - opened);
            opened = closed;
            rate
        })
        .collect()
}

/// What the quietest tenth of a run looked like: `(p50, tail, rate)`.
///
/// The operations (`latency` and the sorted completion times `end_s`, in
/// the same order) are cut into windows of `per`; each window yields its
/// median latency, its `tail_pct` percentile and its rate; returned are
/// the first decile of the medians, the first decile of the tails and
/// the ninth decile of the rates. For operations of tens of microseconds
/// on a shared host, another tenant's bursts move the median of a whole
/// 10 s run by 25% and its upper percentiles more, while a tenth of the
/// 10 ms windows stay undisturbed (measured: +3% on the decile of window
/// medians across the same runs). The deciles are what the program does
/// when it has the core to itself, which is what two commits are to be
/// compared by. `None` with fewer than ten whole windows.
pub fn quiet_windows(
    latency: &[f64],
    end_s: &[f64],
    per: usize,
    tail_pct: f64,
) -> Option<(f64, f64, f64)> {
    if per == 0 || latency.len() / per < 10 {
        return None;
    }
    let windows = latency.chunks_exact(per);
    let p50s: Vec<f64> = windows.clone().map(median).collect();
    let tails: Vec<f64> = windows.map(|w| percentile(w, tail_pct).0).collect();
    Some((
        percentile(&p50s, 10.0).0,
        percentile(&tails, 10.0).0,
        percentile(&run_rates(end_s, per), 90.0).0,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouped_rate_is_the_median_run_rate() {
        // 20 operations of 0.1 s, then the 7th takes 2 s longer: every
        // run of 4 runs at 10/s except the one holding the stall.
        let mut end_s = Vec::new();
        let mut t = 0.0;
        for i in 0..20 {
            t += if i == 6 { 2.1 } else { 0.1 };
            end_s.push(t);
        }
        assert!((grouped_rate(&end_s, 5) - 10.0).abs() < 1e-9);
        // Count over window would say 20 / 4.0 = 5/s.
        assert!((20.0 / end_s[19] - 5.0).abs() < 1e-9);
        // Fewer operations than groups: one operation per run.
        assert!((grouped_rate(&[0.5, 1.0, 1.5], 10) - 2.0).abs() < 1e-9);
        assert!(grouped_rate(&[], 10).is_nan());
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10.0, 12.5, 11.0, 30.0, 9.5], n=4)
        assert_eq!(
            quartiles(&[10.0, 12.5, 11.0, 30.0, 9.5]),
            Some([9.75, 11.0, 21.25])
        );
        // statistics.quantiles([1, 2], n=4)
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(spread(&[5.0]), None);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn percentile_counts_samples_beyond_its_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), (990.0, 10));
        assert_eq!(percentile(&v, 50.0), (500.0, 500));
        assert_eq!(percentile(&v, 100.0), (1000.0, 0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 leaves 1.
        assert_eq!(highest_tail_percentile(1000), Some(99.0));
        assert_eq!(highest_tail_percentile(999), Some(95.0));
        assert_eq!(highest_tail_percentile(20_000), Some(99.9));
        assert_eq!(highest_tail_percentile(100_000), Some(99.99));
        assert_eq!(highest_tail_percentile(40), Some(75.0));
        assert_eq!(highest_tail_percentile(39), None);
    }

    #[test]
    fn quiet_windows_report_the_undisturbed_tenth() {
        // 2000 operations of 1 ms back to back; in 60% of the 20-op
        // windows every other operation takes 3 ms (a noisy neighbour).
        let (mut latency, mut end_s, mut t) = (Vec::new(), Vec::new(), 0.0);
        for i in 0..2000 {
            let noisy_window = (i / 20) % 5 < 3;
            let l = if noisy_window && i % 2 == 0 { 3.0 } else { 1.0 };
            t += l / 1e3;
            latency.push(l);
            end_s.push(t);
        }
        assert_eq!(median(&latency), 1.0);
        assert_eq!(percentile(&latency, 90.0).0, 3.0);
        let (p50, tail, rate) = quiet_windows(&latency, &end_s, 20, 90.0).unwrap();
        assert_eq!((p50, tail), (1.0, 1.0));
        assert!((rate - 1000.0).abs() < 1e-6, "{rate}");
        // Whole-run count over window charges the neighbour to the program.
        assert!(2000.0 / t < 650.0);
        assert_eq!(
            quiet_windows(&latency[..150], &end_s[..150], 20, 90.0),
            None
        );
    }
}
