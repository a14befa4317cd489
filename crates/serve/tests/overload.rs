//! Overload-resilience tests: circuit-breaker lifecycle under a
//! deterministic [`FaultPlan`], AIMD convergence as a property test,
//! and memory-ceiling shedding.

use std::sync::Arc;
use std::time::Duration;

use mozart_core::{membudget, Config, FaultKind, FaultPhase, FaultPlan, FaultPoint, MozartContext};
use mozart_serve::{
    AimdConfig, AimdController, Pipeline, PipelineService, Request, Response, ServeError,
};

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

/// The AIMD property the tentpole rests on: from any starting point,
/// against a service with a fixed concurrency capacity (good latency
/// at or under capacity, bad above), the limit converges to a sawtooth
/// around the capacity and stays there.
#[test]
fn aimd_converges_to_service_capacity_from_any_start() {
    let capacity = 20usize;
    for initial in [1usize, 64, 256] {
        let c = AimdController::new(AimdConfig {
            min_limit: 1,
            max_limit: 256,
            initial_limit: initial,
            target: Some(Duration::from_millis(10)),
            decrease_ratio_permille: 900,
        });
        let latency_at = |limit: usize| {
            if limit <= capacity {
                Duration::from_millis(1)
            } else {
                Duration::from_millis(50)
            }
        };
        // Converge...
        for _ in 0..8_000 {
            c.on_sample(latency_at(c.limit()));
        }
        // ...then the limit must stay in the sawtooth band around
        // capacity: never more than one step above, never below one
        // multiplicative cut (×0.9) minus rounding.
        let (mut lo, mut hi) = (usize::MAX, 0usize);
        for _ in 0..2_000 {
            c.on_sample(latency_at(c.limit()));
            lo = lo.min(c.limit());
            hi = hi.max(c.limit());
        }
        assert!(
            hi <= capacity + 1,
            "start {initial}: limit overshot to {hi} (capacity {capacity})"
        );
        assert!(
            lo + 1 >= capacity * 9 / 10,
            "start {initial}: limit collapsed to {lo} (capacity {capacity})"
        );
    }
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
fn over_memory_sheds_with_typed_error_and_recovers() {
    const CEILING: u64 = 1 << 20;
    let service = PipelineService::builder()
        .workers(1)
        .memory_ceiling_bytes(CEILING)
        .pipeline(Arc::new(TinyPipeline))
        .build();
    let session = service.session();
    session.call("tiny", &Request::new()).unwrap();

    // Simulate live buffer traffic past the ceiling: admission must
    // shed with the typed error before evaluating.
    let inflate = (CEILING as usize) * 2;
    membudget::note_alloc(inflate);
    let err = session.call("tiny", &Request::new()).unwrap_err();
    match &err {
        ServeError::OverMemory {
            live_bytes,
            ceiling_bytes,
            ..
        } => {
            assert!(*live_bytes >= CEILING * 2, "{err}");
            assert_eq!(*ceiling_bytes, CEILING);
        }
        other => panic!("expected over_memory, got {other:?}"),
    }
    assert_eq!(err.kind(), "over_memory");
    let stats = service.stats();
    assert_eq!(stats.over_memory, 1, "{stats:?}");
    assert!(stats.memory_live_bytes >= CEILING * 2);
    assert_eq!(stats.memory_ceiling_bytes, CEILING);

    // Memory drains: the same request is admitted again.
    membudget::note_free(inflate);
    session.call("tiny", &Request::new()).unwrap();
    // Leave the process-global ceiling disarmed for other tests.
    membudget::set_ceiling(0);
}

#[test]
fn adaptive_service_seeds_its_target_from_live_latency() {
    // No pinned max_inflight: the adaptive limiter is on. The controller
    // seeds its target from the median of its first 32 completions,
    // with tracing on as with it off.
    let service = PipelineService::builder()
        .workers(1)
        .tracing(true)
        .pipeline(Arc::new(TinyPipeline))
        .build();
    let session = service.session();
    let (_, target) = service.admission_limit();
    assert!(target.is_none(), "no target before warmup");
    for _ in 0..40 {
        session.call("tiny", &Request::new()).unwrap();
    }
    let (limit, target) = service.admission_limit();
    assert!(limit >= 1);
    assert!(
        target.is_some(),
        "target must seed from the warmup completions"
    );
    assert!(service.stats().admission_limit >= 1);
}

#[test]
fn pinned_max_inflight_is_the_static_ablation() {
    let service = PipelineService::builder()
        .workers(1)
        .max_inflight(3)
        .pipeline(Arc::new(TinyPipeline))
        .build();
    let session = service.session();
    for _ in 0..40 {
        session.call("tiny", &Request::new()).unwrap();
    }
    let (limit, target) = service.admission_limit();
    assert_eq!(limit, 3, "a pinned limit never moves");
    assert!(target.is_none(), "the static ablation has no controller");
}
