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
//!
//! A call below the work floor is timed on a cheaper wall clock, the
//! crate's `Stamp`: the call is shorter than a scheduler tick, so
//! preemption is not what its readings have to exclude, and two
//! readings of `Instant` would cost a third of it.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

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

/// A wall-clock reading that costs a fraction of `Instant::now`: the
/// time-stamp counter on x86-64 (`rdtsc`, which, unlike the ordered
/// read behind `Instant::now`, does not wait for the loads and stores
/// in flight before it), `Instant` elsewhere. Only the span between two
/// readings means anything; it is converted to time at a rate measured
/// once against `Instant`, which assumes a constant-rate counter, as
/// every x86-64 CPU with an invariant TSC has.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Stamp(u64);

impl Stamp {
    #[inline]
    pub(crate) fn now() -> Stamp {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `rdtsc` reads the time-stamp counter, which every
        // x86-64 CPU has, and has no other effect.
        let ticks = unsafe { std::arch::x86_64::_rdtsc() };
        #[cfg(not(target_arch = "x86_64"))]
        let ticks = epoch().elapsed().as_nanos() as u64;
        Stamp(ticks)
    }

    /// The time from this reading to `later` (zero if `later` is
    /// earlier, as a reading on another core may be).
    pub(crate) fn until(self, later: Stamp) -> Duration {
        let ticks = later.0.saturating_sub(self.0);
        Duration::from_nanos((ticks as f64 * ns_per_tick()) as u64)
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds per [`Stamp`] tick, measured by the first conversion over
/// a 20 µs wait on `Instant`: both are wall clocks, so a preemption in
/// the wait moves both, and the two readings' own cost is a fraction of
/// a percent of it.
fn ns_per_tick() -> f64 {
    static NS_PER_TICK: OnceLock<f64> = OnceLock::new();
    *NS_PER_TICK.get_or_init(|| {
        if cfg!(not(target_arch = "x86_64")) {
            return 1.0;
        }
        let (t0, s0) = (Instant::now(), Stamp::now());
        while t0.elapsed() < Duration::from_micros(20) {}
        let (s1, elapsed) = (Stamp::now(), t0.elapsed());
        elapsed.as_nanos() as f64 / s1.0.saturating_sub(s0.0).max(1) as f64
    })
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
    fn a_stamp_span_is_wall_time() {
        let (t0, s0) = (Instant::now(), Stamp::now());
        std::thread::sleep(Duration::from_millis(20));
        let (s1, wall) = (Stamp::now(), t0.elapsed());
        let span = s0.until(s1);
        let off = span.abs_diff(wall);
        assert!(
            off < wall / 20,
            "a span of {span:?} over {wall:?} of wall time"
        );
        assert_eq!(s1.until(s0), Duration::ZERO, "clamped");
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
