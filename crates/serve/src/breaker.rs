//! Per-pipeline circuit breakers: fast-fail requests to a pipeline
//! whose recent evaluations keep dying of transient faults.
//!
//! Without a breaker, a pipeline stuck in a crash loop (a worker bug, a
//! poisoned input shape, an injected fault campaign) costs the service
//! twice: every doomed request burns a full admission permit plus
//! `1 + max_retries` pool evaluations before failing, and those permits
//! starve the healthy pipelines sharing the admission queue. The
//! breaker converts that to a sub-microsecond typed rejection.
//!
//! Classic three-state machine, tracked per pipeline:
//!
//! * **Closed** (healthy): requests flow. Each *post-retry* transient
//!   failure ([`ServeError::is_transient`] — `TaskPanicked` /
//!   `Injected` only) increments a consecutive-failure counter; any
//!   success resets it. Deterministic errors (bad requests, deadline
//!   sheds) are neutral — they say nothing about pipeline
//!   health. At `threshold` consecutive failures the breaker **opens**.
//! * **Open**: requests fast-fail with [`ServeError::CircuitOpen`]
//!   without touching admission or the pool, until `cooldown` elapses.
//!
//! [`ServeError::is_transient`]: crate::ServeError::is_transient
//! [`ServeError::CircuitOpen`]: crate::ServeError::CircuitOpen
//! * **Half-open**: after cooldown, exactly **one** probe request is
//!   let through (concurrent requests keep fast-failing — a thundering
//!   herd through a half-open breaker would re-create the crash loop
//!   it guards against). Probe success closes the breaker; probe
//!   failure re-opens it for another cooldown.
//!
//! A request that dies without reporting (client panic between admit
//! and record) must not wedge the half-open probe slot forever, so the
//! probe token is a drop-guard: the crate-internal `BreakerPass`
//! returns the slot if dropped unreported.

use std::collections::HashMap;
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

/// Breaker tuning.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive transient failures (post-retry) that open the
    /// breaker. `0` disables breakers entirely.
    pub threshold: u32,
    /// How long an open breaker fast-fails before allowing a half-open
    /// probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            threshold: 8,
            cooldown: Duration::from_millis(200),
        }
    }
}

/// Public snapshot of one breaker's state (for STATS/METRICS).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Fast-failing: cooldown in progress.
    Open,
    /// Cooldown elapsed: one probe in flight or available.
    HalfOpen,
}

impl BreakerState {
    /// Stable wire label.
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    /// Stable numeric gauge encoding (0 closed, 1 half-open, 2 open).
    pub fn as_gauge(self) -> u64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        }
    }
}

enum Gate {
    Closed { consecutive_failures: u32 },
    Open { until: Instant },
    HalfOpen { probe_inflight: bool },
}

struct Breaker {
    gate: Gate,
    /// Times this breaker has transitioned Closed/HalfOpen → Open.
    opened_total: u64,
}

impl Breaker {
    fn new() -> Breaker {
        Breaker {
            gate: Gate::Closed {
                consecutive_failures: 0,
            },
            opened_total: 0,
        }
    }
}

/// Admission decision from [`BreakerMap::admit`].
pub(crate) enum BreakerDecision<'a> {
    /// Proceed; report the outcome through the pass.
    Proceed(BreakerPass<'a>),
    /// Fast-fail: the breaker is open (or half-open with a probe
    /// already in flight).
    Reject,
}

/// All breakers of a service, keyed by pipeline name.
pub(crate) struct BreakerMap {
    cfg: BreakerConfig,
    // RwLock over the map (reads dominate: most requests only look up
    // an existing breaker), Mutex per breaker for the state machine.
    breakers: RwLock<HashMap<String, Mutex<Breaker>>>,
}

impl BreakerMap {
    pub(crate) fn new(cfg: BreakerConfig) -> BreakerMap {
        BreakerMap {
            cfg,
            breakers: RwLock::new(HashMap::new()),
        }
    }

    /// Gate a request for `pipeline`. Never blocks.
    pub(crate) fn admit<'a>(&'a self, pipeline: &str) -> BreakerDecision<'a> {
        if self.cfg.threshold == 0 {
            return BreakerDecision::Proceed(BreakerPass {
                map: self,
                pipeline: String::new(),
                probe: false,
                reported: true,
            });
        }
        self.ensure(pipeline);
        let breakers = read(&self.breakers);
        let Some(slot) = breakers.get(pipeline) else {
            // Unreachable after ensure(); treat as closed.
            return BreakerDecision::Proceed(BreakerPass {
                map: self,
                pipeline: String::new(),
                probe: false,
                reported: true,
            });
        };
        let mut b = lock(slot);
        let probe = match &mut b.gate {
            Gate::Closed { .. } => false,
            Gate::Open { until } => {
                if Instant::now() < *until {
                    return BreakerDecision::Reject;
                }
                // Cooldown elapsed: this request becomes the probe.
                b.gate = Gate::HalfOpen {
                    probe_inflight: true,
                };
                true
            }
            Gate::HalfOpen { probe_inflight } => {
                if *probe_inflight {
                    return BreakerDecision::Reject;
                }
                *probe_inflight = true;
                true
            }
        };
        drop(b);
        drop(breakers);
        BreakerDecision::Proceed(BreakerPass {
            map: self,
            pipeline: pipeline.to_string(),
            probe,
            reported: false,
        })
    }

    /// Current state of `pipeline`'s breaker (Closed if none exists).
    /// An Open breaker whose cooldown has elapsed reads as HalfOpen —
    /// the state the next request will observe.
    #[cfg(test)]
    pub(crate) fn state(&self, pipeline: &str) -> BreakerState {
        let breakers = read(&self.breakers);
        match breakers.get(pipeline) {
            None => BreakerState::Closed,
            Some(slot) => match &lock(slot).gate {
                Gate::Closed { .. } => BreakerState::Closed,
                Gate::Open { until } => {
                    if Instant::now() < *until {
                        BreakerState::Open
                    } else {
                        BreakerState::HalfOpen
                    }
                }
                Gate::HalfOpen { .. } => BreakerState::HalfOpen,
            },
        }
    }

    /// `(pipeline, state, opened_total)` for every breaker ever touched,
    /// sorted by pipeline name (stable exposition order).
    pub(crate) fn snapshot(&self) -> Vec<(String, BreakerState, u64)> {
        let breakers = read(&self.breakers);
        let mut out: Vec<_> = breakers
            .iter()
            .map(|(name, slot)| {
                let b = lock(slot);
                let state = match &b.gate {
                    Gate::Closed { .. } => BreakerState::Closed,
                    Gate::Open { until } => {
                        if Instant::now() < *until {
                            BreakerState::Open
                        } else {
                            BreakerState::HalfOpen
                        }
                    }
                    Gate::HalfOpen { .. } => BreakerState::HalfOpen,
                };
                (name.clone(), state, b.opened_total)
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    fn ensure(&self, pipeline: &str) {
        if read(&self.breakers).contains_key(pipeline) {
            return;
        }
        let mut w = write(&self.breakers);
        w.entry(pipeline.to_string())
            .or_insert_with(|| Mutex::new(Breaker::new()));
    }

    fn report(&self, pipeline: &str, probe: bool, success: Option<bool>) {
        let breakers = read(&self.breakers);
        let Some(slot) = breakers.get(pipeline) else {
            return;
        };
        let mut b = lock(slot);
        match success {
            Some(true) => {
                // Any success closes: the pipeline demonstrably works.
                b.gate = Gate::Closed {
                    consecutive_failures: 0,
                };
            }
            Some(false) => match &mut b.gate {
                Gate::Closed {
                    consecutive_failures,
                } => {
                    *consecutive_failures += 1;
                    if *consecutive_failures >= self.cfg.threshold {
                        b.gate = Gate::Open {
                            until: Instant::now() + self.cfg.cooldown,
                        };
                        b.opened_total += 1;
                    }
                }
                Gate::HalfOpen { .. } | Gate::Open { .. } => {
                    // Failed probe (or a straggler from before the
                    // open): back to a full cooldown.
                    b.gate = Gate::Open {
                        until: Instant::now() + self.cfg.cooldown,
                    };
                    b.opened_total += 1;
                }
            },
            None => {
                // Neutral outcome: only the probe slot must be
                // returned so the next request can probe.
                if probe {
                    if let Gate::HalfOpen { probe_inflight } = &mut b.gate {
                        *probe_inflight = false;
                    }
                }
            }
        }
    }
}

/// Outcome reporter handed to an admitted request. Exactly one of
/// [`BreakerPass::success`], [`BreakerPass::failure`], or
/// [`BreakerPass::neutral`] should be called; dropping the pass
/// unreported counts as neutral (returns a held probe slot without
/// judging the pipeline).
pub(crate) struct BreakerPass<'a> {
    map: &'a BreakerMap,
    pipeline: String,
    probe: bool,
    reported: bool,
}

impl BreakerPass<'_> {
    /// The evaluation succeeded: reset/close the breaker.
    pub(crate) fn success(mut self) {
        self.reported = true;
        self.map.report(&self.pipeline, self.probe, Some(true));
    }

    /// The evaluation failed with a transient fault (post-retry).
    pub(crate) fn failure(mut self) {
        self.reported = true;
        self.map.report(&self.pipeline, self.probe, Some(false));
    }

    /// The evaluation ended in a health-neutral way (deterministic
    /// error, shed, cancelled).
    pub(crate) fn neutral(mut self) {
        self.reported = true;
        self.map.report(&self.pipeline, self.probe, None);
    }
}

impl Drop for BreakerPass<'_> {
    fn drop(&mut self) {
        if !self.reported {
            self.map.report(&self.pipeline, self.probe, None);
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn read<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|p| p.into_inner())
}

fn write<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn map(threshold: u32, cooldown_ms: u64) -> BreakerMap {
        BreakerMap::new(BreakerConfig {
            threshold,
            cooldown: Duration::from_millis(cooldown_ms),
        })
    }

    fn fail_once(m: &BreakerMap, p: &str) -> bool {
        match m.admit(p) {
            BreakerDecision::Proceed(pass) => {
                pass.failure();
                true
            }
            BreakerDecision::Reject => false,
        }
    }

    #[test]
    fn opens_after_threshold_consecutive_failures() {
        let m = map(3, 10_000);
        assert!(fail_once(&m, "p"));
        assert!(fail_once(&m, "p"));
        assert_eq!(m.state("p"), BreakerState::Closed);
        assert!(fail_once(&m, "p"));
        assert_eq!(m.state("p"), BreakerState::Open);
        assert!(matches!(m.admit("p"), BreakerDecision::Reject));
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let m = map(3, 10_000);
        assert!(fail_once(&m, "p"));
        assert!(fail_once(&m, "p"));
        match m.admit("p") {
            BreakerDecision::Proceed(pass) => pass.success(),
            BreakerDecision::Reject => panic!("closed breaker rejected"),
        }
        assert!(fail_once(&m, "p"));
        assert!(fail_once(&m, "p"));
        assert_eq!(
            m.state("p"),
            BreakerState::Closed,
            "streak must reset on success"
        );
    }

    #[test]
    fn half_open_admits_exactly_one_probe() {
        let m = map(1, 1);
        assert!(fail_once(&m, "p"));
        std::thread::sleep(Duration::from_millis(5));
        // Cooldown elapsed: first request is the probe...
        let probe = match m.admit("p") {
            BreakerDecision::Proceed(pass) => pass,
            BreakerDecision::Reject => panic!("half-open breaker must admit a probe"),
        };
        // ...and everyone else keeps fast-failing while it runs.
        assert!(matches!(m.admit("p"), BreakerDecision::Reject));
        probe.success();
        assert_eq!(m.state("p"), BreakerState::Closed);
        assert!(matches!(m.admit("p"), BreakerDecision::Proceed(_)));
    }

    #[test]
    fn failed_probe_reopens() {
        let m = map(1, 1);
        assert!(fail_once(&m, "p"));
        std::thread::sleep(Duration::from_millis(5));
        assert!(fail_once(&m, "p"), "probe admitted");
        assert!(
            matches!(m.admit("p"), BreakerDecision::Reject),
            "failed probe must re-open the breaker"
        );
    }

    #[test]
    fn dropped_pass_returns_the_probe_slot() {
        let m = map(1, 1);
        assert!(fail_once(&m, "p"));
        std::thread::sleep(Duration::from_millis(5));
        match m.admit("p") {
            BreakerDecision::Proceed(pass) => drop(pass),
            BreakerDecision::Reject => panic!("expected probe"),
        }
        // Slot returned: the next request may probe.
        assert!(matches!(m.admit("p"), BreakerDecision::Proceed(_)));
    }

    #[test]
    fn neutral_outcomes_do_not_move_the_breaker() {
        let m = map(2, 10_000);
        assert!(fail_once(&m, "p"));
        match m.admit("p") {
            BreakerDecision::Proceed(pass) => pass.neutral(),
            BreakerDecision::Reject => panic!("closed breaker rejected"),
        }
        assert!(fail_once(&m, "p"));
        assert_eq!(
            m.state("p"),
            BreakerState::Open,
            "neutral must not reset the streak"
        );
        let snap = m.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].0, "p");
        assert_eq!(snap[0].2, 1, "one open transition");
    }

    #[test]
    fn zero_threshold_disables() {
        let m = map(0, 1);
        for _ in 0..64 {
            assert!(fail_once(&m, "p"));
        }
        assert_eq!(m.state("p"), BreakerState::Closed);
    }
}
