//! Overload-resilience tests: circuit-breaker lifecycle under a
//! deterministic [`FaultPlan`] and the fixed admission limit.

use std::sync::Arc;
use std::time::Duration;

use mozart_core::{Config, FaultKind, FaultPhase, FaultPlan, FaultPoint, MozartContext};
use mozart_serve::{Pipeline, PipelineService, Request, Response, ServeError};

/// A service whose evaluations fail with injected transient faults
/// until the plan's budget runs out — the breaker's natural prey.
fn faulty_service(fault_budget: u64, threshold: u32, cooldown: Duration) -> PipelineService {
    let mut cfg = Config::with_workers(1);
    cfg.batch_override = Some(512);
    cfg.fault_plan = Some(Arc::new(FaultPlan::new().point(
        FaultPoint::once(FaultPhase::Task, FaultKind::Error).times(fault_budget),
    )));
    PipelineService::builder()
        .workers(1)
        .session_config(cfg)
        // No retries: every injected fault is a post-retry transient
        // failure, so `threshold` calls move the breaker deterministically.
        .max_retries(0)
        .coalescing(false)
        .breaker(threshold, cooldown)
        .builtin_pipelines()
        .build()
}

#[test]
fn breaker_opens_half_opens_and_closes_under_fault_plan() {
    // Budget 3 = exactly the threshold: the pipeline heals the moment
    // the breaker opens, so the first half-open probe succeeds.
    let service = faulty_service(3, 3, Duration::from_millis(100));
    let session = service.session();
    let req = Request::new().with("n", 512);

    // Three consecutive injected faults: the calls fail with the
    // transient runtime error and the third one opens the breaker.
    for i in 0..3 {
        let err = session.call("black_scholes", &req).unwrap_err();
        assert_eq!(err.kind(), "runtime", "call {i}: {err}");
        assert!(err.is_transient(), "call {i}: {err}");
    }
    let states = service.breaker_states();
    assert_eq!(states.len(), 1, "{states:?}");
    assert_eq!(states[0].0, "black_scholes");
    assert_eq!(states[0].1, "open");
    assert_eq!(states[0].2, 1, "one open transition");
    assert_eq!(service.stats().breaker_open, 1);

    // Open: fast-fail with the typed error, without evaluating.
    let attempts_before = service.stats().started;
    let err = session.call("black_scholes", &req).unwrap_err();
    assert_eq!(
        err,
        ServeError::CircuitOpen {
            pipeline: "black_scholes".into()
        }
    );
    assert_eq!(
        service.stats().started,
        attempts_before,
        "an open breaker must shed before admission"
    );
    assert_eq!(service.stats().breaker_shed, 1);

    // After cooldown the next request is the half-open probe; the
    // fault budget is spent, so it succeeds and closes the breaker.
    std::thread::sleep(Duration::from_millis(150));
    session.call("black_scholes", &req).unwrap();
    let states = service.breaker_states();
    assert_eq!(states[0].1, "closed", "{states:?}");
    assert_eq!(service.stats().breaker_open, 0);
    // And the pipeline serves normally again.
    session.call("black_scholes", &req).unwrap();
}

#[test]
fn failed_probe_reopens_for_another_cooldown() {
    // Budget 4: three to open the breaker, a fourth for the probe.
    let service = faulty_service(4, 3, Duration::from_millis(80));
    let session = service.session();
    let req = Request::new().with("n", 512);

    for _ in 0..3 {
        session.call("black_scholes", &req).unwrap_err();
    }
    assert_eq!(service.breaker_states()[0].1, "open");

    std::thread::sleep(Duration::from_millis(120));
    // The probe is admitted (not CircuitOpen) but fails: re-open.
    let err = session.call("black_scholes", &req).unwrap_err();
    assert_eq!(err.kind(), "runtime", "probe must reach the pipeline");
    let states = service.breaker_states();
    assert_eq!(states[0].1, "open", "{states:?}");
    assert_eq!(states[0].2, 2, "failed probe counts as a second open");
    // Still fast-failing inside the new cooldown.
    let err = session.call("black_scholes", &req).unwrap_err();
    assert_eq!(err.kind(), "circuit_open");

    // Second probe succeeds (budget exhausted): recovered within one
    // half-open probe of the faults clearing.
    std::thread::sleep(Duration::from_millis(120));
    session.call("black_scholes", &req).unwrap();
    assert_eq!(service.breaker_states()[0].1, "closed");
}

/// A pipeline that allocates nothing, so the global memory counters in
/// this test move only when the test says so.
struct TinyPipeline;

impl Pipeline for TinyPipeline {
    fn name(&self) -> &'static str {
        "tiny"
    }
    fn run(&self, _ctx: &MozartContext, _req: &Request) -> mozart_core::Result<Response> {
        Ok(Response::new("ok"))
    }
}

#[test]
fn admission_limit_is_max_inflight_and_never_moves() {
    // Unset, `max_inflight` is `workers`, and a stream of fast completions
    // does not raise it.
    let service = PipelineService::builder()
        .workers(1)
        .pipeline(Arc::new(TinyPipeline))
        .build();
    let session = service.session();
    for _ in 0..40 {
        session.call("tiny", &Request::new()).unwrap();
    }
    assert_eq!(service.stats().admission_limit, 1);
}

#[test]
fn pinned_max_inflight_is_the_static_ablation() {
    // A set `max_inflight` is the limit, whatever `workers` is, and it
    // never moves either.
    let service = PipelineService::builder()
        .workers(1)
        .max_inflight(3)
        .pipeline(Arc::new(TinyPipeline))
        .build();
    let session = service.session();
    for _ in 0..40 {
        session.call("tiny", &Request::new()).unwrap();
    }
    assert_eq!(
        service.stats().admission_limit,
        3,
        "a pinned limit never moves"
    );
}
