//! Process-wide metering of Mozart buffers.
//!
//! Every [`SharedVec`](crate::SharedVec) allocation adds
//! `len * size_of::<T>()` to one global live-byte counter at
//! construction and subtracts it when the last reference drops. Split
//! pieces are views and allocate nothing; placement-merge targets and
//! coalesce concatenations are ordinary `SharedVec` allocations and are
//! therefore metered too. The serving layer reports the counter as its
//! `memory_live_bytes` gauge; nothing enforces a limit on it.
//!
//! The counter is a relaxed atomic: readers tolerate a
//! stale-by-one-allocation view, and the executor never blocks on it.
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

/// Pin glibc's `mmap` threshold at its maximum, 32 MiB (pieces come
/// from the heap, where the next batch reuses them; whole values above
/// it keep their own zero-page mapping), and its trim threshold at
/// 256 MiB (every participant's pieces many times over, small beside
/// the values a workload holds). Once per process.
///
/// Below 32 MiB a zeroed allocation (`calloc`) then comes from the
/// recycled heap too, and is a `memset` on the allocating thread: a
/// 16 MiB buffer costs a pass over memory before any stage runs. That is
/// why the runtime's own buffers use none: [`SharedVec::zeros`]
/// allocates untouched and writes its zeros on first use ("Fresh
/// buffers" in [`crate::buffer`]).
///
/// [`SharedVec::zeros`]: crate::SharedVec::zeros
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

    // NOTE: this test shares the process-global counter with every
    // other test in the binary; it only asserts *relative* movement,
    // so concurrent SharedVec traffic from other tests cannot fail it.

    #[test]
    fn alloc_free_roundtrip() {
        let before = live_bytes();
        note_alloc(4096);
        assert!(live_bytes() >= before + 4096);
        note_free(4096);
    }
}
