//! Adaptive concurrency control: an AIMD controller that discovers the
//! service's sustainable in-flight limit from **measured end-to-end
//! latency** instead of a hand-tuned `max_inflight`.
//!
//! A static limit is wrong in both directions: too low and the worker
//! pool idles under load it could absorb; too high and concurrent
//! evaluations thrash the shared pool (the paper's thesis — memory
//! traffic, not compute, is the bottleneck — means "more concurrency"
//! saturates bandwidth long before it saturates cores, and latency
//! inflates with nothing to show for it). The classic congestion-control
//! answer is AIMD on a latency signal:
//!
//! * every completed request reports its e2e latency via
//!   [`AimdController::on_sample`];
//! * while samples stay at or below the **target latency**, the limit
//!   grows *additively* — `+1` after a full window (one limit's worth)
//!   of good samples, i.e. roughly `+1` per round-trip like TCP's
//!   congestion avoidance;
//! * a sample above target cuts the limit *multiplicatively*
//!   (`× decrease_ratio`), rate-limited to one cut per window so a
//!   single burst of queued slow requests doesn't collapse the limit to
//!   the floor;
//! * the limit is clamped to `[min_limit, max_limit]`. A window pinned
//!   at one size (`min_limit == max_limit`) is the static limit: the
//!   service builds one for a pinned `max_inflight`.
//!
//! The target can be given explicitly, or **seeded from live latency**:
//! the controller holds its limit for a warmup window of completions,
//! takes their exact median, and sets `target = median × 8`. That makes
//! the controller self-calibrating — a tolerable slowdown factor over
//! the service's own unloaded latency rather than an absolute number
//! that rots as pipelines change. Every adaptive service seeds this
//! way, whether or not its observability layer is on.
//!
//! The arithmetic is integer fixed-point (limit × 1000) so the
//! controller is deterministic and cheaply shareable; the decision
//! logic takes no locks beyond one mutex held for a few adds per
//! completion.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Fixed-point scale for the fractional limit.
const SCALE: u64 = 1000;

/// Tuning for [`AimdController`].
#[derive(Clone, Copy, Debug)]
pub struct AimdConfig {
    /// Floor for the concurrency limit (≥ 1).
    pub min_limit: usize,
    /// Ceiling for the concurrency limit.
    pub max_limit: usize,
    /// Starting limit.
    pub initial_limit: usize,
    /// Explicit latency target. `None` defers to self-seeding from the
    /// warmup samples; until a target exists the controller holds the
    /// limit steady.
    pub target: Option<Duration>,
    /// Multiplicative decrease ratio in per-mille (e.g. `900` = ×0.9).
    pub decrease_ratio_permille: u64,
}

impl Default for AimdConfig {
    fn default() -> Self {
        AimdConfig {
            min_limit: 1,
            max_limit: 1 << 12,
            initial_limit: 1,
            target: None,
            decrease_ratio_permille: 900,
        }
    }
}

struct AimdState {
    /// Consecutive at-or-below-target samples since the last limit
    /// change (the additive-increase credit).
    good: u64,
    /// Samples observed since the last multiplicative decrease (the
    /// one-cut-per-window rate limiter).
    since_cut: u64,
    /// Warmup latency samples collected while no target exists; once
    /// full, the controller self-seeds `target = median × multiple`.
    warmup: Vec<u64>,
}

/// Warmup window size and slowdown multiple for self-seeding.
const WARMUP_SAMPLES: usize = 32;
const TARGET_MULTIPLE: u64 = 8;

/// Shared AIMD limit controller. `on_sample` is called once per
/// completed request; `limit()` is read by the admission queue.
pub struct AimdController {
    cfg: AimdConfig,
    /// Current limit × [`SCALE`].
    limit_milli: AtomicU64,
    /// Latency target in nanoseconds; 0 = not yet seeded.
    target_ns: AtomicU64,
    state: Mutex<AimdState>,
}

impl AimdController {
    /// Build a controller from `cfg` (limits are sanitized: floor ≥ 1,
    /// initial clamped into `[min, max]`).
    pub fn new(cfg: AimdConfig) -> AimdController {
        let min = cfg.min_limit.max(1);
        let max = cfg.max_limit.max(min);
        let cfg = AimdConfig {
            min_limit: min,
            max_limit: max,
            decrease_ratio_permille: cfg.decrease_ratio_permille.clamp(1, 999),
            ..cfg
        };
        let initial = cfg.initial_limit.clamp(min, max);
        let target_ns = cfg
            .target
            .map(|t| (t.as_nanos() as u64).max(1))
            .unwrap_or(0);
        AimdController {
            cfg,
            limit_milli: AtomicU64::new(initial as u64 * SCALE),
            target_ns: AtomicU64::new(target_ns),
            state: Mutex::new(AimdState {
                good: 0,
                since_cut: 0,
                warmup: Vec::new(),
            }),
        }
    }

    /// Current integer concurrency limit.
    pub fn limit(&self) -> usize {
        (self.limit_milli.load(Ordering::Relaxed) / SCALE) as usize
    }

    /// Current latency target, if established.
    pub fn target(&self) -> Option<Duration> {
        match self.target_ns.load(Ordering::Relaxed) {
            0 => None,
            ns => Some(Duration::from_nanos(ns)),
        }
    }

    /// Whether a latency target exists yet (explicit or seeded).
    pub fn has_target(&self) -> bool {
        self.target_ns.load(Ordering::Relaxed) != 0
    }

    /// Install a seeded target (no-op if a target already exists —
    /// explicit configuration and the first seeding win).
    pub fn seed_target_ns(&self, ns: u64) {
        let _ = self
            .target_ns
            .compare_exchange(0, ns.max(1), Ordering::Relaxed, Ordering::Relaxed);
    }

    /// Record one end-to-end latency sample; returns the (possibly
    /// updated) integer limit. A pinned window (`min_limit ==
    /// max_limit`) has nothing to learn: it ignores samples and never
    /// seeds a target.
    pub fn on_sample(&self, latency: Duration) -> usize {
        if self.cfg.min_limit == self.cfg.max_limit {
            return self.cfg.min_limit;
        }
        let lat = latency.as_nanos() as u64;
        let target = self.target_ns.load(Ordering::Relaxed);
        if target == 0 {
            // No target yet: hold steady and accumulate the warmup
            // window; once full, self-seed target = median × multiple.
            let mut st = lock(&self.state);
            st.warmup.push(lat);
            if st.warmup.len() >= WARMUP_SAMPLES {
                let mut w = std::mem::take(&mut st.warmup);
                drop(st);
                w.sort_unstable();
                let median = w[w.len() / 2];
                self.seed_target_ns(median.saturating_mul(TARGET_MULTIPLE));
            }
            return self.limit();
        }
        let mut st = lock(&self.state);
        let mut milli = self.limit_milli.load(Ordering::Relaxed);
        let window = (milli / SCALE).max(1);
        st.since_cut += 1;
        if lat <= target {
            st.good += 1;
            if st.good >= window {
                // Additive increase: +1 after a full window of good
                // samples (≈ +1 per round-trip).
                st.good = 0;
                milli = (milli + SCALE).min(self.cfg.max_limit as u64 * SCALE);
                self.limit_milli.store(milli, Ordering::Relaxed);
            }
        } else {
            st.good = 0;
            if st.since_cut >= window {
                // Multiplicative decrease, at most once per window: the
                // requests already queued behind a slow burst all
                // report inflated latency, and cutting on each would
                // collapse the limit to the floor on one incident.
                st.since_cut = 0;
                milli = (milli * self.cfg.decrease_ratio_permille / 1000)
                    .max(self.cfg.min_limit as u64 * SCALE);
                self.limit_milli.store(milli, Ordering::Relaxed);
            }
        }
        (milli / SCALE) as usize
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn ctl(target_ms: u64, initial: usize, max: usize) -> AimdController {
        AimdController::new(AimdConfig {
            min_limit: 1,
            max_limit: max,
            initial_limit: initial,
            target: Some(Duration::from_millis(target_ms)),
            decrease_ratio_permille: 900,
        })
    }

    #[test]
    fn grows_additively_under_target() {
        let c = ctl(10, 1, 64);
        let mut last = c.limit();
        for _ in 0..500 {
            c.on_sample(Duration::from_millis(1));
        }
        assert!(c.limit() > last, "limit must grow under good latency");
        last = c.limit();
        for _ in 0..500 {
            c.on_sample(Duration::from_millis(1));
        }
        assert!(c.limit() >= last);
        assert!(c.limit() <= 64);
    }

    #[test]
    fn cuts_multiplicatively_over_target() {
        let c = ctl(10, 32, 64);
        for _ in 0..64 {
            c.on_sample(Duration::from_millis(100));
        }
        assert!(c.limit() < 32, "limit must shrink under bad latency");
        assert!(c.limit() >= 1);
    }

    #[test]
    fn cut_is_rate_limited_per_window() {
        let c = ctl(10, 100, 128);
        // A single burst of `window` bad samples may cut at most twice
        // (once when the pre-existing window elapses, once after).
        c.on_sample(Duration::from_millis(100));
        let after_one = c.limit();
        assert!(after_one >= 90, "one bad sample must not cascade cuts");
    }

    #[test]
    fn holds_without_target_then_self_seeds() {
        let c = AimdController::new(AimdConfig {
            initial_limit: 4,
            ..AimdConfig::default()
        });
        for _ in 0..31 {
            c.on_sample(Duration::from_millis(1));
        }
        assert!(!c.has_target());
        assert_eq!(c.limit(), 4, "no target: hold steady");
        // The 32nd warmup sample seeds target = median × multiple.
        c.on_sample(Duration::from_millis(1));
        assert_eq!(c.target(), Some(Duration::from_millis(8)));
        for _ in 0..100 {
            c.on_sample(Duration::from_millis(1));
        }
        assert!(c.limit() > 4, "seeded target unlocks the controller");
    }

    #[test]
    fn a_pinned_window_never_moves_or_seeds() {
        let c = AimdController::new(AimdConfig {
            min_limit: 3,
            max_limit: 3,
            initial_limit: 3,
            ..AimdConfig::default()
        });
        for ms in [1, 1000].into_iter().cycle().take(200) {
            assert_eq!(c.on_sample(Duration::from_millis(ms)), 3);
        }
        assert_eq!(c.limit(), 3);
        assert!(!c.has_target());
    }

    #[test]
    fn seeding_never_overrides_an_explicit_target() {
        let c = ctl(10, 1, 8);
        c.seed_target_ns(1);
        assert_eq!(c.target(), Some(Duration::from_millis(10)));
    }
}
