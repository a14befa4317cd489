//! Deterministic fault injection and cooperative cancellation.
//!
//! The paper's premise is that split annotations make *unmodified
//! library code* safe to parallelize — which means arbitrary foreign
//! code runs inside the executor's batch loop and must be assumed to
//! panic, stall, or fail allocation. This module provides the two
//! primitives the fault-tolerance layer is built on:
//!
//! * **[`FaultPlan`]** — a deterministic schedule of injected faults,
//!   attached via [`Config::fault_plan`](crate::Config). The executor
//!   consults the plan at every (stage, phase, batch) boundary of its
//!   driver loop; a matching [`FaultPoint`] fires a panic, a delay, a
//!   typed error ([`Error::Injected`](crate::Error)), or a worker-thread
//!   kill. Explicit points carry a *fire budget* (default: once), so a
//!   retried evaluation runs clean and can be compared bit-for-bit
//!   against a fault-free run. [`FaultPlan::seeded`] adds a pseudorandom
//!   background fault rate for chaos benchmarks, reproducible from its
//!   seed and check sequence.
//! * **[`CancelToken`]** — a cooperative cancel flag with an optional
//!   deadline, attached via
//!   [`MozartContext::set_cancel_token`](crate::MozartContext). Workers
//!   poll it at batch-claim boundaries and abandon the evaluation with
//!   [`Error::Cancelled`](crate::Error), so a request whose deadline
//!   passed stops burning pool time mid-stage instead of running to
//!   completion for a client that already gave up.
//!
//! Injected panics carry typed payloads ([`InjectedPanic`],
//! [`WorkerAbort`]) so the executor's `catch_unwind` wrappers can tell
//! them apart from organic panics, and so test suites can silence their
//! default-hook noise with [`silence_injected_panics`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{Error, Result};

/// Where in a stage's batch pipeline a fault fires — and, symmetrically,
/// where a caught panic is attributed in
/// [`Error::TaskPanicked`](crate::Error).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultPhase {
    /// The split call that carves a batch out of a stage input.
    Split,
    /// The annotated library function invocation itself.
    Task,
    /// A merge: local per-worker accumulation or the final merge.
    Merge,
    /// Outside any attributable phase: the worker driver loop itself
    /// (used when a panic escapes the per-phase wrappers and is caught
    /// by the pool's last-resort backstop).
    Worker,
}

impl std::fmt::Display for FaultPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FaultPhase::Split => "split",
            FaultPhase::Task => "task",
            FaultPhase::Merge => "merge",
            FaultPhase::Worker => "worker",
        };
        f.write_str(s)
    }
}

/// What happens when a fault point fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic with an [`InjectedPanic`] payload. The executor's phase
    /// wrappers catch it and surface
    /// [`Error::TaskPanicked`](crate::Error) — the worker survives.
    Panic,
    /// Sleep for the given duration before continuing (a slow batch —
    /// exercises deadline shedding without failing anything).
    Delay(Duration),
    /// Return [`Error::Injected`](crate::Error) from the faulted phase
    /// (models a transient allocation or I/O failure inside the
    /// library function).
    Error,
    /// Panic with a [`WorkerAbort`] payload, which the phase wrappers
    /// deliberately re-raise: the pool worker thread dies (its job
    /// still fails typed via the pool backstop) and the respawn
    /// supervisor replaces the thread. On the submitting caller's own
    /// driver loop (worker 0) this degrades to [`FaultKind::Panic`] —
    /// the runtime never kills application threads.
    KillWorker,
}

/// Panic payload of [`FaultKind::Panic`]: marks the panic as injected so
/// catch sites and panic hooks can distinguish it from organic panics.
#[derive(Debug, Clone)]
pub struct InjectedPanic(pub String);

/// Panic payload of [`FaultKind::KillWorker`]: the executor's phase
/// wrappers re-raise it instead of converting it to an error, so the
/// unwinding continues through the worker thread and exercises the
/// pool's respawn supervisor.
#[derive(Debug, Clone)]
pub struct WorkerAbort(pub String);

/// One scheduled fault: fires `budget` times at matching
/// (stage, phase, batch) points, then stays quiet.
#[derive(Debug)]
pub struct FaultPoint {
    stage: Option<u64>,
    phase: FaultPhase,
    batch: Option<u64>,
    kind: FaultKind,
    budget: AtomicU64,
}

impl FaultPoint {
    /// A point that fires **once** at the first matching check, in any
    /// stage and any batch of the given phase. Narrow it with
    /// [`at_stage`](Self::at_stage) / [`at_batch`](Self::at_batch),
    /// widen with [`times`](Self::times).
    pub fn once(phase: FaultPhase, kind: FaultKind) -> Self {
        FaultPoint {
            stage: None,
            phase,
            batch: None,
            kind,
            budget: AtomicU64::new(1),
        }
    }

    /// Restrict the point to one stage index (0-based, in evaluation
    /// order of the owning context's statistics).
    pub fn at_stage(mut self, stage: u64) -> Self {
        self.stage = Some(stage);
        self
    }

    /// Restrict the point to one batch index within its stage.
    pub fn at_batch(mut self, batch: u64) -> Self {
        self.batch = Some(batch);
        self
    }

    /// Let the point fire up to `n` times instead of once.
    pub fn times(self, n: u64) -> Self {
        self.budget.store(n, Ordering::Relaxed);
        self
    }

    fn matches(&self, stage: u64, phase: FaultPhase, batch: u64) -> bool {
        self.phase == phase
            && self.stage.map(|s| s == stage).unwrap_or(true)
            && self.batch.map(|b| b == batch).unwrap_or(true)
    }

    /// Consume one unit of fire budget; `true` if the point may fire.
    fn take_budget(&self) -> bool {
        self.budget
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
            .is_ok()
    }
}

impl Clone for FaultPoint {
    fn clone(&self) -> Self {
        FaultPoint {
            stage: self.stage,
            phase: self.phase,
            batch: self.batch,
            kind: self.kind.clone(),
            budget: AtomicU64::new(self.budget.load(Ordering::Relaxed)),
        }
    }
}

/// A pseudorandom background fault rate layered under the explicit
/// points: each check draws from a seeded splitmix64 stream.
#[derive(Debug)]
struct SeededFaults {
    seed: u64,
    rate_ppm: u64,
    phase: Option<FaultPhase>,
    kind: FaultKind,
    checks: AtomicU64,
}

/// A deterministic schedule of injected faults. Attach to
/// [`Config::fault_plan`](crate::Config) (via `Arc`) and every
/// evaluation under that config consults it at each
/// (stage, phase, batch) boundary.
#[derive(Debug, Default)]
pub struct FaultPlan {
    points: Vec<FaultPoint>,
    seeded: Option<SeededFaults>,
    fired: AtomicU64,
}

impl FaultPlan {
    /// An empty plan (no faults). Add explicit points with
    /// [`point`](Self::point).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Add one explicit fault point (builder style).
    pub fn point(mut self, p: FaultPoint) -> Self {
        self.points.push(p);
        self
    }

    /// A plan that fires `kind` pseudorandomly on `rate_ppm` out of
    /// every million checks (optionally restricted to one phase). The
    /// draw sequence is a splitmix64 stream over the seed and a global
    /// check counter: a single-threaded evaluation replays exactly;
    /// concurrent evaluations see a reproducible *rate* whose exact
    /// placement depends on worker interleaving. Chaos tests that need
    /// exact placement use explicit [`FaultPoint`]s instead.
    pub fn seeded(seed: u64, rate_ppm: u64, phase: Option<FaultPhase>, kind: FaultKind) -> Self {
        FaultPlan {
            points: Vec::new(),
            seeded: Some(SeededFaults {
                seed,
                rate_ppm,
                phase,
                kind,
                checks: AtomicU64::new(0),
            }),
            fired: AtomicU64::new(0),
        }
    }

    /// Faults fired so far (explicit points and seeded draws).
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    /// Consult the plan at one (stage, phase, batch) point. Returns the
    /// fault to trigger, consuming fire budget; `None` almost always.
    pub fn check(&self, stage: u64, phase: FaultPhase, batch: u64) -> Option<FaultKind> {
        for p in &self.points {
            if p.matches(stage, phase, batch) && p.take_budget() {
                self.fired.fetch_add(1, Ordering::Relaxed);
                return Some(p.kind.clone());
            }
        }
        if let Some(s) = &self.seeded {
            if s.phase.map(|p| p == phase).unwrap_or(true) && s.rate_ppm > 0 {
                let n = s.checks.fetch_add(1, Ordering::Relaxed);
                let draw = splitmix64(s.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                if draw % 1_000_000 < s.rate_ppm {
                    self.fired.fetch_add(1, Ordering::Relaxed);
                    return Some(s.kind.clone());
                }
            }
        }
        None
    }
}

impl FaultKind {
    /// Execute the fault at its injection site inside the worker driver
    /// loop. `Delay` returns `Ok` after sleeping; `Error` returns the
    /// typed transient error; `Panic`/`KillWorker` unwind with their
    /// marker payloads (`KillWorker` degrades to `Panic` on the
    /// caller's own driver loop, worker 0).
    pub fn trigger(
        self,
        phase: FaultPhase,
        stage: u64,
        batch: u64,
        worker_idx: usize,
    ) -> Result<()> {
        let at = format!("injected {phase} fault at stage {stage} batch {batch}");
        match self {
            FaultKind::Delay(d) => {
                std::thread::sleep(d);
                Ok(())
            }
            FaultKind::Error => Err(Error::Injected(at)),
            FaultKind::KillWorker if worker_idx > 0 => std::panic::panic_any(WorkerAbort(at)),
            FaultKind::Panic | FaultKind::KillWorker => std::panic::panic_any(InjectedPanic(at)),
        }
    }
}

/// Render a caught panic payload as a message for
/// [`Error::TaskPanicked`](crate::Error).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(m) = payload.downcast_ref::<InjectedPanic>() {
        m.0.clone()
    } else if let Some(m) = payload.downcast_ref::<WorkerAbort>() {
        m.0.clone()
    } else if let Some(m) = payload.downcast_ref::<&str>() {
        (*m).to_string()
    } else if let Some(m) = payload.downcast_ref::<String>() {
        m.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Install a process-wide panic hook (once) that suppresses the default
/// "thread panicked" noise for *injected* panics while forwarding every
/// organic panic to the previous hook. Chaos suites call this so a run
/// injecting hundreds of panics has a readable test log.
pub fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_some()
                || info.payload().downcast_ref::<WorkerAbort>().is_some()
            {
                return;
            }
            prev(info);
        }));
    });
}

/// A cooperative cancel flag with an optional deadline.
///
/// Attached to a context via
/// [`MozartContext::set_cancel_token`](crate::MozartContext); the
/// executor's driver loop polls [`is_cancelled`](Self::is_cancelled) at
/// batch-claim boundaries and abandons the evaluation with
/// [`Error::Cancelled`](crate::Error). Polling is claim-granular: a
/// batch that already started runs to completion (library functions
/// are never interrupted mid-call).
#[derive(Debug)]
pub struct CancelToken {
    flag: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only cancels when [`cancel`](Self::cancel) is
    /// called.
    pub fn new() -> Arc<CancelToken> {
        Arc::new(CancelToken {
            flag: AtomicBool::new(false),
            deadline: None,
        })
    }

    /// A token that additionally reports cancelled once `deadline`
    /// passes.
    pub fn with_deadline(deadline: Instant) -> Arc<CancelToken> {
        Arc::new(CancelToken {
            flag: AtomicBool::new(false),
            deadline: Some(deadline),
        })
    }

    /// Request cancellation.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether the token was cancelled or its deadline passed.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
            || self.deadline.map(|d| Instant::now() >= d).unwrap_or(false)
    }
}

/// The splitmix64 mixer: the deterministic randomness source for the
/// seeded fault stream and for retry jitter in `mozart-serve` (the
/// workspace is std-only; no `rand`).
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_points_fire_exactly_their_budget() {
        let plan = FaultPlan::new().point(
            FaultPoint::once(FaultPhase::Task, FaultKind::Error)
                .at_stage(2)
                .at_batch(1),
        );
        // Wrong stage, wrong batch, wrong phase: no fire.
        assert_eq!(plan.check(1, FaultPhase::Task, 1), None);
        assert_eq!(plan.check(2, FaultPhase::Task, 0), None);
        assert_eq!(plan.check(2, FaultPhase::Split, 1), None);
        // Exact match fires once, then the budget is spent.
        assert_eq!(plan.check(2, FaultPhase::Task, 1), Some(FaultKind::Error));
        assert_eq!(plan.check(2, FaultPhase::Task, 1), None);
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn times_widens_the_budget() {
        let plan =
            FaultPlan::new().point(FaultPoint::once(FaultPhase::Merge, FaultKind::Panic).times(3));
        for _ in 0..3 {
            assert!(plan.check(0, FaultPhase::Merge, 0).is_some());
        }
        assert_eq!(plan.check(0, FaultPhase::Merge, 0), None);
        assert_eq!(plan.fired(), 3);
    }

    #[test]
    fn seeded_stream_is_reproducible_and_rate_bounded() {
        let draw = |seed| {
            let plan = FaultPlan::seeded(seed, 100_000, Some(FaultPhase::Task), FaultKind::Panic);
            let mut fires = Vec::new();
            for i in 0..1000u64 {
                if plan.check(0, FaultPhase::Task, i).is_some() {
                    fires.push(i);
                }
            }
            // Off-phase checks never fire (and do not advance the stream
            // ahead of matching checks' determinism guarantees).
            assert_eq!(plan.check(0, FaultPhase::Split, 0), None);
            fires
        };
        let a = draw(7);
        let b = draw(7);
        assert_eq!(a, b, "same seed, same fire sequence");
        // ~10% rate: extremely generous bounds, just not degenerate.
        assert!(a.len() > 20 && a.len() < 400, "{} fires", a.len());
        assert_ne!(draw(8), a, "different seed, different sequence");
    }

    #[test]
    fn trigger_produces_typed_error_and_delay_returns() {
        let err = FaultKind::Error
            .trigger(FaultPhase::Split, 3, 4, 1)
            .unwrap_err();
        match &err {
            Error::Injected(m) => {
                assert!(m.contains("split") && m.contains("stage 3") && m.contains("batch 4"))
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(FaultKind::Delay(Duration::from_millis(1))
            .trigger(FaultPhase::Task, 0, 0, 0)
            .is_ok());
    }

    #[test]
    fn panic_kinds_unwind_with_marker_payloads() {
        silence_injected_panics();
        let p = std::panic::catch_unwind(|| {
            let _ = FaultKind::Panic.trigger(FaultPhase::Task, 0, 0, 1);
        })
        .unwrap_err();
        assert!(p.downcast_ref::<InjectedPanic>().is_some());
        // KillWorker on worker 0 degrades to a catchable panic.
        let p = std::panic::catch_unwind(|| {
            let _ = FaultKind::KillWorker.trigger(FaultPhase::Task, 0, 0, 0);
        })
        .unwrap_err();
        assert!(p.downcast_ref::<InjectedPanic>().is_some());
        // On a real worker it unwinds as an abort marker.
        let p = std::panic::catch_unwind(|| {
            let _ = FaultKind::KillWorker.trigger(FaultPhase::Task, 0, 0, 2);
        })
        .unwrap_err();
        assert!(p.downcast_ref::<WorkerAbort>().is_some());
    }

    #[test]
    fn panic_message_handles_common_payloads() {
        assert_eq!(panic_message(&"boom"), "boom");
        assert_eq!(panic_message(&String::from("sboom")), "sboom");
        assert_eq!(panic_message(&InjectedPanic("i".into())), "i");
        assert_eq!(panic_message(&WorkerAbort("w".into())), "w");
        assert_eq!(panic_message(&42u32), "non-string panic payload");
    }

    #[test]
    fn cancel_token_flag_and_deadline() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled(), "past deadline is already cancelled");
        let t = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled(), "explicit cancel beats a far deadline");
    }
}
