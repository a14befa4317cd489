//! Process-wide memory governance for Mozart buffers.
//!
//! The paper's thesis is that memory traffic — not compute — is the
//! bottleneck, and the serving layer's failure mode under production
//! load is memory exhaustion, not CPU saturation. This module meters
//! every [`SharedVec`](crate::SharedVec) allocation against one
//! process-global byte ceiling so the service front-end can *shed*
//! requests before they allocate instead of letting the allocator (or
//! the OOM killer) decide for it.
//!
//! The accounting is intentionally simple and exact:
//!
//! * every `SharedVec` allocation adds `len * size_of::<T>()` to a
//!   global live-byte counter at construction and subtracts it when the
//!   last reference drops (split pieces are views and allocate
//!   nothing; placement-merge targets and coalesce concatenations are
//!   ordinary `SharedVec` allocations and are therefore metered too);
//! * a ceiling of `0` (the default) disables enforcement but keeps the
//!   live counter running, so observability is free even when
//!   governance is off;
//! * *pressure* is a softer signal than the ceiling: once live bytes
//!   cross [`PRESSURE_NUM`]/[`PRESSURE_DEN`] of the ceiling, callers
//!   that can degrade gracefully (the request coalescer, batch sizing)
//!   should decline optional growth while required allocations still
//!   proceed until the hard ceiling.
//!
//! The counters are relaxed atomics: admission decisions tolerate a
//! stale-by-one-allocation view, and the executor never blocks on them.
//!
//! # Freed pieces stay mapped
//!
//! A stage makes the library allocate and free a few cache-sized pieces
//! per batch on every participant. glibc adapts to the first piece
//! freed — its size becomes the `mmap` threshold, twice that the trim
//! threshold — so whenever two freed pieces meet at a heap top it goes
//! back to the kernel and the next batch faults it in again (2400x1800
//! image chain: 2 000 faults, 4 of 12 ms per batch on the evaluating
//! thread, so an evaluation's time moved with how many batches that
//! thread happened to claim). The first
//! [`WorkerPool`](crate::pool::WorkerPool) therefore calls
//! [`keep_freed_pieces_mapped`].

use std::sync::atomic::{AtomicU64, Ordering};

/// Live metered bytes across the whole process.
static LIVE: AtomicU64 = AtomicU64::new(0);

/// Hard ceiling in bytes; `0` disables enforcement.
static CEILING: AtomicU64 = AtomicU64::new(0);

/// Total bytes ever metered (monotone; for rate observability).
static TOTAL_ALLOCATED: AtomicU64 = AtomicU64::new(0);

/// Numerator of the pressure threshold fraction.
pub const PRESSURE_NUM: u64 = 7;
/// Denominator of the pressure threshold fraction.
pub const PRESSURE_DEN: u64 = 8;

/// Record `bytes` of freshly allocated buffer memory.
///
/// Called by the [`SharedVec`](crate::SharedVec) constructors; not
/// intended for user code.
#[inline]
pub fn note_alloc(bytes: usize) {
    if bytes == 0 {
        return;
    }
    LIVE.fetch_add(bytes as u64, Ordering::Relaxed);
    TOTAL_ALLOCATED.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Record `bytes` of buffer memory released.
#[inline]
pub fn note_free(bytes: usize) {
    if bytes == 0 {
        return;
    }
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

/// Currently live metered bytes.
#[inline]
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// Total bytes ever metered (monotone counter).
#[inline]
pub fn total_allocated_bytes() -> u64 {
    TOTAL_ALLOCATED.load(Ordering::Relaxed)
}

/// Current hard ceiling in bytes (`0` = unlimited).
#[inline]
pub fn ceiling_bytes() -> u64 {
    CEILING.load(Ordering::Relaxed)
}

/// Install a process-wide hard ceiling (`0` disables enforcement).
///
/// The ceiling is advisory *placement*: it does not fail allocations
/// (a mid-pipeline allocation failure would strand partial state);
/// instead admission layers consult [`would_exceed`] before accepting
/// work whose estimated footprint does not fit.
pub fn set_ceiling(bytes: u64) {
    CEILING.store(bytes, Ordering::Relaxed);
}

/// Whether admitting an additional `estimate` bytes would exceed the
/// ceiling. Always `false` when no ceiling is set.
#[inline]
pub fn would_exceed(estimate: u64) -> bool {
    let ceiling = ceiling_bytes();
    ceiling != 0 && live_bytes().saturating_add(estimate) > ceiling
}

/// Whether the process is under memory *pressure*: live bytes at or
/// above [`PRESSURE_NUM`]/[`PRESSURE_DEN`] of the ceiling. Always
/// `false` when no ceiling is set.
///
/// Pressure is the degrade-gracefully signal: the request coalescer
/// declines batch growth (serving members individually instead), and
/// optional prefetch/batching layers should shrink, while already
/// admitted work runs to completion.
#[inline]
pub fn pressured() -> bool {
    let ceiling = ceiling_bytes();
    ceiling != 0
        && live_bytes().saturating_mul(PRESSURE_DEN) >= ceiling.saturating_mul(PRESSURE_NUM)
}

/// Pin glibc's `mmap` threshold at its maximum, 32 MiB (pieces come
/// from the heap, where the next batch reuses them; whole values above
/// it keep their own zero-page mapping), and its trim threshold at
/// 256 MiB (every participant's pieces many times over, small beside
/// the values a workload holds). Once per process.
///
/// Returns whether the process's `malloc` took both thresholds: `false`
/// without glibc, or where something replaces glibc's `malloc` — an
/// AddressSanitizer build's allocator refuses them — and freed pieces
/// follow that allocator's own policy. Under another global allocator
/// the thresholds change nothing anyone uses.
pub fn keep_freed_pieces_mapped() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::os::raw::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;
        static TAKEN: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        // SAFETY: `mallopt` is glibc's thread-safe setter for these two
        // parameters; it takes and returns plain integers (1 on
        // success).
        *TAKEN.get_or_init(|| unsafe {
            let mmap = mallopt(M_MMAP_THRESHOLD, 32 << 20);
            let trim = mallopt(M_TRIM_THRESHOLD, 256 << 20);
            mmap == 1 && trim == 1
        })
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: these tests share process-global state with every other
    // test in the binary; they only assert *relative* movement and
    // restore the ceiling to 0, so concurrent SharedVec traffic from
    // other tests cannot fail them.

    #[test]
    fn alloc_free_roundtrip() {
        let before = live_bytes();
        note_alloc(4096);
        assert!(live_bytes() >= before + 4096);
        note_free(4096);
    }

    #[test]
    fn ceiling_disabled_by_zero() {
        assert!(!would_exceed(u64::MAX / 2) || ceiling_bytes() != 0);
    }

    #[test]
    fn total_is_monotone() {
        let a = total_allocated_bytes();
        note_alloc(128);
        let b = total_allocated_bytes();
        assert!(b >= a + 128);
        note_free(128);
        assert!(total_allocated_bytes() >= b);
    }
}
