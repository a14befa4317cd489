//! Shared harness utilities for the benches that regenerate the paper's
//! evaluation.
//!
//! `paper_figures` measures Figures 4–7 and Table 4 and writes them to
//! `bench_results/paper.json`; `table3_loc` prints Table 3.
//! Sizes are scaled for a laptop-class machine; set `MOZART_BENCH_SCALE`
//! (float) to grow them and `MOZART_BENCH_THREADS` (comma list) /
//! `MOZART_BENCH_REPS` to adjust the sweep. The shape helpers below
//! ([`losses`], [`within_of_best`], [`non_increasing`]) read the
//! paper's claims off the measured numbers.

#![warn(missing_docs)]

use std::io::Write;
use std::time::{Duration, Instant};

/// Sweep configuration from the environment.
#[derive(Debug, Clone)]
pub struct BenchOpts {
    /// Worker counts to sweep (the paper uses 1–16).
    pub threads: Vec<usize>,
    /// Repetitions per measurement (result is the minimum).
    pub reps: usize,
    /// Input-size multiplier.
    pub scale: f64,
}

impl BenchOpts {
    /// Read options from the environment.
    pub fn from_env() -> Self {
        let threads = std::env::var("MOZART_BENCH_THREADS")
            .ok()
            .map(|s| {
                s.split(',')
                    .filter_map(|t| t.trim().parse::<usize>().ok())
                    .collect::<Vec<_>>()
            })
            .filter(|v| !v.is_empty())
            .unwrap_or_else(|| vec![1, 2, 4, 8, 16]);
        let reps = std::env::var("MOZART_BENCH_REPS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(2)
            .max(1);
        let scale = std::env::var("MOZART_BENCH_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1.0);
        BenchOpts {
            threads,
            reps,
            scale,
        }
    }

    /// Scale a base size.
    pub fn size(&self, base: usize) -> usize {
        ((base as f64 * self.scale) as usize).max(16)
    }
}

/// Minimum wall-clock time over `reps` runs of `f`.
pub fn time_min(reps: usize, mut f: impl FnMut()) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed());
    }
    best
}

/// Write a file under `bench_results/` (best effort).
pub fn write_results(name: &str, contents: &str) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results");
    if std::fs::create_dir_all(&dir).is_ok() {
        if let Ok(mut f) = std::fs::File::create(dir.join(name)) {
            let _ = f.write_all(contents.as_bytes());
        }
    }
}

/// Run a closure with vectormath's internal threading set, restoring 1
/// afterwards.
pub fn with_mkl_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    vectormath::set_num_threads(threads);
    let out = f();
    vectormath::set_num_threads(1);
    out
}

/// Run a closure with imagelib's internal threading set.
pub fn with_image_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    imagelib::set_num_threads(threads);
    let out = f();
    imagelib::set_num_threads(1);
    out
}

/// The workload families Mozart loses, as the paper lists its own:
/// every `(name, base_seconds, mozart_seconds)` whose Mozart time is
/// strictly worse than its base (a tie is not a loss), in input order.
pub fn losses<'a>(families: &[(&'a str, f64, f64)]) -> Vec<&'a str> {
    families
        .iter()
        .filter(|&&(_, base, mozart)| mozart > base)
        .map(|&(name, _, _)| name)
        .collect()
}

/// Whether `seconds` is within `tolerance` (a fraction, 0.1 = 10%) of
/// the fastest point of a sweep. An empty sweep has no best to miss.
pub fn within_of_best(seconds: f64, sweep: &[f64], tolerance: f64) -> bool {
    let best = sweep.iter().copied().fold(f64::INFINITY, f64::min);
    seconds <= best * (1.0 + tolerance)
}

/// Whether a series never rises from one point to the next.
pub fn non_increasing(series: &[f64]) -> bool {
    series.windows(2).all(|w| w[1] <= w[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        let o = BenchOpts {
            threads: vec![1, 2],
            reps: 2,
            scale: 0.5,
        };
        assert_eq!(o.size(100), 50);
        assert_eq!(o.size(1), 16, "sizes are floored");
    }

    #[test]
    fn time_min_measures() {
        let d = time_min(2, || std::thread::sleep(Duration::from_millis(2)));
        assert!(d >= Duration::from_millis(2));
    }

    #[test]
    fn losses_lists_every_slower_family_and_no_ties() {
        let families = [
            ("Crime Index (Pandas)", 1.0, 2.0),
            ("Black Scholes (MKL)", 2.0, 1.0),
            ("Speech Tag (spaCy)", 1.5, 1.5),
            ("Gotham (ImageMagick)", 0.5, 0.6),
        ];
        assert_eq!(
            losses(&families),
            ["Crime Index (Pandas)", "Gotham (ImageMagick)"]
        );
        assert!(losses(&[]).is_empty());
    }

    #[test]
    fn within_of_best_allows_the_tolerance_and_no_more() {
        let sweep = [0.5, 0.4, 0.8];
        assert!(within_of_best(0.4, &sweep, 0.1));
        assert!(within_of_best(0.44, &sweep, 0.1));
        assert!(!within_of_best(0.45, &sweep, 0.1));
        // One point: that point is the best.
        assert!(within_of_best(1.05, &[1.0], 0.1));
        assert!(!within_of_best(1.2, &[1.0], 0.1));
    }

    #[test]
    fn non_increasing_accepts_flat_and_falling_series() {
        assert!(non_increasing(&[3.0, 2.0, 2.0, 1.0]));
        assert!(non_increasing(&[1.0]));
        assert!(non_increasing(&[]));
        assert!(!non_increasing(&[3.0, 2.0, 2.5]));
        assert!(!non_increasing(&[1.0, 1.0001]));
    }
}
