//! Internal thread parallelism, mirroring MKL's TBB-backed threading.
//!
//! The library-global thread count defaults to 1 (sequential). Libraries
//! like MKL parallelize *within* each call; the paper's Figures 4j–m
//! measure Mozart against exactly this baseline.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::width::Width;

static THREADS: AtomicUsize = AtomicUsize::new(1);

/// Minimum elements before a kernel bothers spawning threads.
pub(crate) const PAR_THRESHOLD: usize = 1 << 14;

/// Set the library's internal thread count (like `mkl_set_num_threads`).
pub fn set_num_threads(n: usize) {
    THREADS.store(n.max(1), Ordering::SeqCst);
}

/// Current internal thread count.
pub fn num_threads() -> usize {
    THREADS.load(Ordering::Relaxed)
}

/// The arm every kernel runs at: the widest the CPU has (AVX-512, then
/// AVX2, then the baseline; [`Width::host`]). The kernels give the same
/// bits at each.
pub(crate) fn width() -> Width {
    Width::host()
}

/// Run `f(start, len)` over `[0, n)`, splitting across the library's
/// internal threads when profitable; each part runs at [`width`].
pub(crate) fn run_parallel(n: usize, f: impl Fn(usize, usize) + Send + Sync) {
    run_parallel_at(width(), n, f)
}

/// [`run_parallel`] at one arm of the dispatch: every part, on every
/// internal thread, runs at `width`.
pub(crate) fn run_parallel_at(width: Width, n: usize, f: impl Fn(usize, usize) + Send + Sync) {
    let t = num_threads();
    if t <= 1 || n < PAR_THRESHOLD {
        width.run(
            #[inline(always)]
            || f(0, n),
        );
        return;
    }
    let per = n.div_ceil(t);
    std::thread::scope(|s| {
        for w in 0..t {
            let start = w * per;
            if start >= n {
                break;
            }
            let len = per.min(n - start);
            let f = &f;
            s.spawn(move || {
                width.run(
                    #[inline(always)]
                    || f(start, len),
                )
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn covers_all_elements_exactly_once() {
        set_num_threads(3);
        let n = PAR_THRESHOLD + 17;
        let sum = AtomicU64::new(0);
        run_parallel(n, |start, len| {
            sum.fetch_add(
                (start..start + len).map(|x| x as u64).sum(),
                Ordering::SeqCst,
            );
        });
        set_num_threads(1);
        let expected: u64 = (0..n as u64).sum();
        assert_eq!(sum.load(Ordering::SeqCst), expected);
    }

    #[test]
    fn kernels_run_at_the_widest_arm_the_cpu_has() {
        let widest = *Width::available().last().expect("the baseline arm");
        assert_eq!(width(), widest);
    }

    #[test]
    fn small_inputs_stay_serial() {
        set_num_threads(4);
        let calls = AtomicU64::new(0);
        run_parallel(16, |start, len| {
            assert_eq!((start, len), (0, 16));
            calls.fetch_add(1, Ordering::SeqCst);
        });
        set_num_threads(1);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }
}
