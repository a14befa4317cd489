//! Internal thread parallelism, mirroring MKL's TBB-backed threading.
//!
//! The library-global thread count defaults to 1 (sequential). Libraries
//! like MKL parallelize *within* each call; the paper's Figures 4j–m
//! measure Mozart against exactly this baseline.

use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Run `f(start, len)` over `[0, n)`, splitting across the library's
/// internal threads when profitable; each part runs through [`wide`].
pub(crate) fn run_parallel(n: usize, f: impl Fn(usize, usize) + Send + Sync) {
    let t = num_threads();
    if t <= 1 || n < PAR_THRESHOLD {
        wide(&f, 0, n);
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
            s.spawn(move || wide(f, start, len));
        }
    });
}

/// Run `f(start, len)` at the host's vector width: inside an AVX2
/// function when the CPU has AVX2, so a kernel loop inlined into `f` is
/// compiled 4 doubles wide; directly, at the baseline target's 2, when
/// it has not. The library's only CPU-feature dispatch. Both widths give
/// the same bits: the kernels are IEEE adds, multiplies, divides, square
/// roots and selects, and no FMA is enabled to contract them. (Which
/// operand's NaN an operation on two NaNs returns is left unspecified by
/// Rust, and the two widths may pick differently.)
#[inline(always)]
fn wide<F: Fn(usize, usize) + ?Sized>(f: &F, start: usize, len: usize) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the running CPU supports AVX2, checked just above.
        unsafe { avx2(f, start, len) };
        return;
    }
    f(start, len)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<F: Fn(usize, usize) + ?Sized>(f: &F, start: usize, len: usize) {
    f(start, len)
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
