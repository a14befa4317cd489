//! Per-thread CPU-time clock for phase accounting.
//!
//! The executor's worker-parallel phases (split/task/merge) are short
//! windows measured inside the driver loop. On an oversubscribed or
//! virtualized host, a wall clock charges a window for every
//! preemption and every tick of hypervisor steal that lands inside it
//! — with more workers than cores, a 30 µs placement write can read as
//! milliseconds, purely from the scheduler suspending the thread
//! mid-window. Per-thread CPU time (`CLOCK_THREAD_CPUTIME_ID`) counts
//! only what the thread actually executed, which equals wall time on
//! dedicated cores and stays meaningful everywhere else.
//!
//! The workspace is std-only, so the clock is read with a raw
//! `clock_gettime` syscall on Linux (x86-64 and aarch64); other
//! targets fall back to the wall clock.

use std::time::Duration;

/// CPU time consumed by the calling thread, from an arbitrary
/// per-thread epoch. Subtract two readings to time a window.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub fn thread_cpu_now() -> Duration {
    const CLOCK_THREAD_CPUTIME_ID: i64 = 3;
    let mut ts = [0i64; 2]; // timespec { tv_sec, tv_nsec }
    let ret: i64;
    #[cfg(target_arch = "x86_64")]
    // SAFETY: clock_gettime(2) writes a timespec into the provided
    // buffer and has no other effects.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 228i64 => ret, // __NR_clock_gettime
            in("rdi") CLOCK_THREAD_CPUTIME_ID,
            in("rsi") ts.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: as above.
    unsafe {
        std::arch::asm!(
            "svc 0",
            inlateout("x8") 113i64 => _, // __NR_clock_gettime
            inlateout("x0") CLOCK_THREAD_CPUTIME_ID => ret,
            in("x1") ts.as_mut_ptr(),
            options(nostack),
        );
    }
    if ret != 0 {
        return Duration::ZERO;
    }
    Duration::new(ts[0].max(0) as u64, ts[1].clamp(0, 999_999_999) as u32)
}

/// Wall-clock fallback for targets without the raw-syscall path. The
/// epoch differs per call site, so callers must only ever subtract
/// readings taken on the same thread — which is all the executor does.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
pub fn thread_cpu_now() -> Duration {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed()
}

/// `end - start` for two readings from [`thread_cpu_now`], clamped to
/// zero (defensive: the clock is monotonic per thread, but a clamped
/// subtraction makes misuse harmless rather than panicking).
pub fn cpu_elapsed(start: Duration, end: Duration) -> Duration {
    end.saturating_sub(start)
}

/// Back-to-back phases timed on the thread CPU clock with one reading
/// per phase boundary: the reading that ends one phase starts the next.
/// Each reading is a `clock_gettime` syscall (~0.2 µs), and a
/// single-batch stage crosses seven boundaries, so sharing them is a
/// measurable part of a small evaluation.
pub(crate) struct PhaseClock(Duration);

impl PhaseClock {
    /// Start the first phase now.
    pub(crate) fn start() -> PhaseClock {
        PhaseClock(thread_cpu_now())
    }

    /// End the current phase, returning its CPU time; the next phase
    /// starts at the same reading.
    pub(crate) fn lap(&mut self) -> Duration {
        let now = thread_cpu_now();
        cpu_elapsed(std::mem::replace(&mut self.0, now), now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_cpu_work() {
        let t0 = thread_cpu_now();
        // Spin enough to consume measurable CPU.
        let mut acc = 0u64;
        for i in 0..5_000_000u64 {
            acc = acc.wrapping_add(i ^ (acc >> 3));
        }
        assert!(acc != 42, "keep the loop");
        let t1 = thread_cpu_now();
        assert!(t1 > t0, "thread CPU time must advance: {t0:?} -> {t1:?}");
        assert!(cpu_elapsed(t0, t1) > Duration::ZERO);
        assert_eq!(cpu_elapsed(t1, t0), Duration::ZERO, "clamped");
    }

    #[test]
    fn sleeping_consumes_no_cpu_time() {
        let t0 = thread_cpu_now();
        std::thread::sleep(Duration::from_millis(30));
        let t1 = thread_cpu_now();
        // Sleeping must cost (almost) nothing on the CPU clock; allow a
        // generous margin for scheduler bookkeeping.
        assert!(
            cpu_elapsed(t0, t1) < Duration::from_millis(15),
            "sleep charged {:?} of CPU",
            cpu_elapsed(t0, t1)
        );
    }
}
