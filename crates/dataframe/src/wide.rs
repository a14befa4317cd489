//! The Series loops that run behind the library's one CPU-feature
//! dispatch point ([`Width`]).
//!
//! Every numeric Series loop runs inside [`Width::run`] for the widest
//! instruction set the CPU has, so a loop inlined into it compiles to
//! that width: 8 doubles per instruction under AVX-512, 4 under AVX2,
//! 2 at the baseline target (SSE2). The loops are branch-free IEEE
//! operations and selects, so a row's bits do not depend on the arm.

use crate::width::Width;

/// `f` of each row of `a`, into a new vector, at the host's width.
#[inline(always)]
pub(crate) fn map<T: Copy, U>(a: &[T], f: impl Fn(T) -> U) -> Vec<U> {
    Width::host().run(
        #[inline(always)]
        || {
            let mut out = Vec::with_capacity(a.len());
            for (o, &x) in out.spare_capacity_mut().iter_mut().zip(a) {
                o.write(f(x));
            }
            // SAFETY: the loop wrote all `a.len()` elements (the spare
            // capacity holds at least that many).
            unsafe { out.set_len(a.len()) };
            out
        },
    )
}

/// `f` of each pair of rows of `a` and `b`, into a new vector, at the
/// host's width.
///
/// # Panics
///
/// Panics if the lengths differ, naming `op`.
#[inline(always)]
pub(crate) fn zip<T: Copy, U: Copy, V>(
    a: &[T],
    b: &[U],
    op: &str,
    f: impl Fn(T, U) -> V,
) -> Vec<V> {
    assert_eq!(a.len(), b.len(), "{op}: length mismatch");
    Width::host().run(
        #[inline(always)]
        || {
            let mut out = Vec::with_capacity(a.len());
            for (o, (&x, &y)) in out.spare_capacity_mut().iter_mut().zip(a.iter().zip(b)) {
                o.write(f(x, y));
            }
            // SAFETY: the loop wrote all `a.len()` elements.
            unsafe { out.set_len(a.len()) };
            out
        },
    )
}
