//! End-to-end tests of the serving layer: concurrent sessions over the
//! shared pool, plan-cache behavior across requests, and admission
//! backpressure.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use mozart_core::{Config, FaultKind, FaultPhase, FaultPlan, FaultPoint, MozartContext};
use mozart_serve::{Pipeline, PipelineService, Request, Response, ServeError};

fn small_service(workers: usize) -> PipelineService {
    let mut cfg = Config::with_workers(workers);
    // Multi-batch stages even on hosts with big L2 caches, so the
    // shared pool actually runs jobs.
    cfg.batch_override = Some(512);
    PipelineService::builder()
        .workers(workers)
        .session_config(cfg)
        // These tests assert exact per-request plan-cache and counter
        // values; coalescing (tested separately below) would merge
        // identical concurrent requests and change the counts.
        .coalescing(false)
        .builtin_pipelines()
        .build()
}

#[test]
fn concurrent_sessions_compute_correct_results() {
    let service = small_service(2);
    let expected = {
        // Reference result straight from the workload.
        let inputs = workloads::black_scholes::generate(2048, 42);
        workloads::black_scholes::mkl_base(&inputs)
    };
    let req = Request::new().with("n", 2048);
    // Warm the cache once so the concurrent phase is deterministic
    // (otherwise several threads can race to the same cold miss).
    service.session().call("black_scholes", &req).unwrap();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let session = service.session();
                let req = req.clone();
                s.spawn(move || {
                    for _ in 0..5 {
                        let resp = session.call("black_scholes", &req).unwrap();
                        let want = format!(
                            "call_sum={:.6} put_sum={:.6}",
                            expected.call_sum, expected.put_sum
                        );
                        assert_eq!(resp.body, want);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    let stats = service.stats();
    assert_eq!(stats.started, 21);
    assert_eq!(stats.completed, 21);
    assert_eq!(stats.failed, 0);
    // 21 structurally identical requests: one cold miss, 20 replays.
    assert_eq!(stats.plan_cache.hits, 20);
    assert!(stats.plan_cache.hit_rate() > 0.9);
    // The shared pool ran jobs for several distinct sessions.
    assert!(stats.pool.jobs > 0, "pool stats: {:?}", stats.pool);
    assert!(stats.pool.sessions.len() >= 2);
}

#[test]
fn shape_and_pipeline_changes_invalidate_cached_plans() {
    let service = small_service(1);
    let session = service.session();
    session
        .call("black_scholes", &Request::new().with("n", 1024))
        .unwrap();
    session
        .call("black_scholes", &Request::new().with("n", 1024))
        .unwrap();
    let s = service.stats().plan_cache;
    assert_eq!((s.hits, s.misses), (1, 1));
    // Shape change: different n, new fingerprint, planned fresh.
    session
        .call("black_scholes", &Request::new().with("n", 1536))
        .unwrap();
    let s = service.stats().plan_cache;
    assert_eq!((s.hits, s.misses), (1, 2));
    // Different pipeline (different annotations and split types).
    session
        .call("haversine", &Request::new().with("n", 1024))
        .unwrap();
    let s = service.stats().plan_cache;
    assert_eq!((s.hits, s.misses), (1, 3));
    assert_eq!(s.entries, 3);
    // Every variant now replays from its own entry.
    session
        .call("black_scholes", &Request::new().with("n", 1536))
        .unwrap();
    session
        .call("haversine", &Request::new().with("n", 1024))
        .unwrap();
    assert_eq!(service.stats().plan_cache.hits, 3);
}

/// A pipeline that blocks until released, for admission tests.
struct StallPipeline {
    started: Arc<AtomicU64>,
    release: Arc<Barrier>,
}

impl Pipeline for StallPipeline {
    fn name(&self) -> &'static str {
        "stall"
    }
    fn run(&self, _ctx: &MozartContext, _req: &Request) -> mozart_core::Result<Response> {
        self.started.fetch_add(1, Ordering::SeqCst);
        self.release.wait();
        Ok(Response::new("stalled"))
    }
}

#[test]
fn admission_queue_backpressure_returns_typed_error() {
    let started = Arc::new(AtomicU64::new(0));
    let release = Arc::new(Barrier::new(2));
    let service = PipelineService::builder()
        .workers(1)
        .max_inflight(1)
        .queue_depth(0)
        .pipeline(Arc::new(StallPipeline {
            started: started.clone(),
            release: release.clone(),
        }))
        .build();
    let session = service.session();

    std::thread::scope(|s| {
        let svc = service.clone();
        let occupant = s.spawn(move || {
            let session = svc.session();
            session.call("stall", &Request::new()).unwrap()
        });
        // Wait until the occupant holds the only slot.
        while started.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Queue depth 0: both flavors reject immediately with the
        // typed backpressure error.
        let err = session.try_call("stall", &Request::new()).unwrap_err();
        assert_eq!(
            err,
            ServeError::Saturated {
                max_inflight: 1,
                queue_depth: 0
            }
        );
        let err = session.call("stall", &Request::new()).unwrap_err();
        assert!(matches!(err, ServeError::Saturated { .. }));
        release.wait(); // let the occupant finish
        assert_eq!(occupant.join().unwrap().body, "stalled");
    });
    let stats = service.stats();
    assert_eq!(stats.rejected, 2);
    assert_eq!(stats.completed, 1);
}

#[test]
fn builder_order_does_not_clobber_explicit_limits() {
    // Admission limits set before `workers` must survive it; unset
    // limits derive from the final worker count.
    let service = PipelineService::builder()
        .max_inflight(2)
        .workers(8)
        .build();
    assert_eq!(service.config().max_inflight, 2);
    assert_eq!(service.config().queue_depth, 32);
}

#[test]
fn unknown_pipeline_is_a_typed_error() {
    let service = small_service(1);
    let session = service.session();
    match session.call("definitely_not_registered", &Request::new()) {
        Err(ServeError::UnknownPipeline(name)) => {
            assert_eq!(name, "definitely_not_registered")
        }
        other => panic!("expected UnknownPipeline, got {other:?}"),
    }
    // Unknown pipelines are rejected before admission: not counted as
    // started or rejected-by-saturation.
    let stats = service.stats();
    assert_eq!(stats.started, 0);
    assert_eq!(stats.rejected, 0);
}

#[test]
fn bad_parameters_surface_as_runtime_errors() {
    let service = small_service(1);
    let session = service.session();
    let err = session
        .call("black_scholes", &Request::new().with("n", "not_a_number"))
        .unwrap_err();
    assert_eq!(err.kind(), "runtime");
    assert!(err.to_string().contains("not_a_number"));
    assert_eq!(service.stats().failed, 1);
}

/// Deterministic coalescing: while a stalled leader occupies the only
/// admission slot, two fingerprint-identical requests queue up — the
/// first becomes a batch leader waiting for admission, the second joins
/// its batch — and the coalesced evaluation must produce exactly the
/// responses separate evaluations produce.
#[test]
fn coalesced_requests_match_separate_evaluation() {
    let started = Arc::new(AtomicU64::new(0));
    let release = Arc::new(Barrier::new(2));
    let mut cfg = Config::with_workers(2);
    cfg.batch_override = Some(512);
    let service = PipelineService::builder()
        .workers(2)
        .max_inflight(1)
        .queue_depth(8)
        .session_config(cfg)
        .builtin_pipelines()
        .pipeline(Arc::new(StallPipeline {
            started: started.clone(),
            release: release.clone(),
        }))
        .build();

    // Reference responses from a coalescing-free service.
    let reference = small_service(2);
    let ref_session = reference.session();
    let req_a = Request::new().with("n", 2048).with("seed", 11u64);
    let req_b = Request::new().with("n", 2048).with("seed", 22u64);
    let want_a = ref_session.call("black_scholes", &req_a).unwrap();
    let want_b = ref_session.call("black_scholes", &req_b).unwrap();
    assert_ne!(want_a, want_b, "different seeds, different sums");

    std::thread::scope(|s| {
        // Occupy the single admission slot.
        let svc = service.clone();
        let occupant = s.spawn(move || {
            svc.session().call("stall", &Request::new()).unwrap();
        });
        while started.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // First queued request: publishes a batch, blocks in admission.
        let svc = service.clone();
        let ra = req_a.clone();
        let leader = s.spawn(move || svc.session().call("black_scholes", &ra).unwrap());
        while service.stats().waiting == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Second queued request: same n (same fingerprint), different
        // seed — joins the open batch.
        let svc = service.clone();
        let rb = req_b.clone();
        let follower = s.spawn(move || svc.session().call("black_scholes", &rb).unwrap());
        // Deterministic join: release the stall only once the follower
        // is parked inside the leader's open batch.
        while service.stats().coalesce_waiting == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        release.wait();
        occupant.join().unwrap();
        assert_eq!(leader.join().unwrap(), want_a);
        assert_eq!(follower.join().unwrap(), want_b);
    });
    let stats = service.stats();
    assert_eq!(
        stats.coalesced_requests, 1,
        "the follower rode the leader's evaluation: {stats:?}"
    );
    // 3 requests total (stall + leader + follower), all completed.
    assert_eq!(stats.started, 3);
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.failed, 0);
}

/// Deterministic two-request coalescing through the generic split-layer
/// path: while a stalled leader occupies the only admission slot, a
/// leader + follower pair with fingerprint-identical requests coalesce,
/// and both responses must equal what a coalescing-free service
/// produces — bit for bit.
fn assert_coalesces_identically(pipeline: &str, req_a: Request, req_b: Request) {
    let started = Arc::new(AtomicU64::new(0));
    let release = Arc::new(Barrier::new(2));
    let service = PipelineService::builder()
        .workers(1)
        .max_inflight(1)
        .queue_depth(8)
        .builtin_pipelines()
        .pipeline(Arc::new(StallPipeline {
            started: started.clone(),
            release: release.clone(),
        }))
        .build();
    let reference = small_service(1);
    let want_a = reference.session().call(pipeline, &req_a).unwrap();
    let want_b = reference.session().call(pipeline, &req_b).unwrap();
    assert_ne!(want_a, want_b, "different seeds, different checksums");

    std::thread::scope(|s| {
        let svc = service.clone();
        let occupant = s.spawn(move || svc.session().call("stall", &Request::new()).unwrap());
        while started.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let svc = service.clone();
        let ra = req_a.clone();
        let leader = s.spawn(move || svc.session().call(pipeline, &ra).unwrap());
        while service.stats().waiting == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let svc = service.clone();
        let rb = req_b.clone();
        let follower = s.spawn(move || svc.session().call(pipeline, &rb).unwrap());
        while service.stats().coalesce_waiting == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        release.wait();
        occupant.join().unwrap();
        assert_eq!(leader.join().unwrap(), want_a);
        assert_eq!(follower.join().unwrap(), want_b);
    });
    assert_eq!(
        service.stats().coalesced_requests,
        1,
        "{pipeline}: the follower must ride the leader's evaluation"
    );
}

/// Coalescing across haversine requests produces identical responses
/// too (the second builtin coalescible pipeline).
#[test]
fn haversine_coalesces_identically() {
    assert_coalesces_identically(
        "haversine",
        Request::new().with("n", 1024).with("seed", 5u64),
        Request::new().with("n", 1024).with("seed", 6u64),
    );
}

/// Image pipeline coalescing (v2 generic path): two photographs stack
/// along the row axis through `ImageSplit`'s Concat capability,
/// evaluate as one Nashville chain, and the sliced-back row bands
/// summarize bit-identically to separate evaluations.
#[test]
fn nashville_coalesces_identically() {
    assert_coalesces_identically(
        "nashville",
        Request::new()
            .with("width", 96)
            .with("height", 64)
            .with("seed", 3u64),
        Request::new()
            .with("width", 96)
            .with("height", 64)
            .with("seed", 4u64),
    );
}

/// DataFrame pipeline coalescing (v2 generic path): two statistics
/// frames concatenate by rows through `RowSplit`'s Concat capability,
/// the per-city scores evaluate once, and each request's rows sum back
/// bit-identically to separate evaluations.
#[test]
fn crime_index_coalesces_identically() {
    assert_coalesces_identically(
        "crime_index",
        Request::new().with("rows", 600).with("seed", 1u64),
        Request::new().with("rows", 600).with("seed", 2u64),
    );
}

#[test]
fn byte_budgets_shed_load_with_typed_error() {
    let service = small_service(1);
    let session = service.session();
    // Unlimited by default.
    assert_eq!(session.byte_budget(), 0);
    session.set_byte_budget(1); // any completed request exhausts it
    let req = Request::new().with("n", 2048);
    session.call("black_scholes", &req).unwrap();
    let used = session.bytes_used();
    assert!(
        used > 0,
        "split/merge byte metering must see the evaluation"
    );
    // Black Scholes splits 12 f64 buffers per stage over one stage:
    // the nominal split cost must at least cover one pass.
    assert!(used >= 12 * 8 * 2048, "used {used} bytes");
    let err = session.call("black_scholes", &req).unwrap_err();
    match err {
        ServeError::OverBudget {
            session: id,
            used_bytes,
            budget_bytes,
        } => {
            assert_eq!(id, session.id());
            assert_eq!(used_bytes, used);
            assert_eq!(budget_bytes, 1);
        }
        other => panic!("expected OverBudget, got {other:?}"),
    }
    let stats = service.stats();
    assert_eq!(stats.over_budget, 1);
    // Shed before admission: not started, not failed, not rejected.
    assert_eq!(stats.started, 1);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.rejected, 0);
    // Raising the budget readmits the session.
    session.set_byte_budget(u64::MAX);
    session.call("black_scholes", &req).unwrap();
}

#[test]
fn builder_defaults_apply_to_new_sessions() {
    let service = PipelineService::builder()
        .workers(1)
        .session_weight(3)
        .session_byte_budget(1 << 20)
        .build();
    let session = service.session();
    assert_eq!(session.weight(), 3);
    assert_eq!(session.byte_budget(), 1 << 20);
    session.set_weight(5);
    assert_eq!(session.weight(), 5);
}

/// A pipeline that fails its first `failures` invocations, for retry
/// tests. `transient` picks between a retryable panic-shaped error and
/// a deterministic library error.
struct FlakyPipeline {
    failures: AtomicU64,
    attempts: Arc<AtomicU64>,
    transient: bool,
}

impl Pipeline for FlakyPipeline {
    fn name(&self) -> &'static str {
        "flaky"
    }
    fn run(&self, _ctx: &MozartContext, _req: &Request) -> mozart_core::Result<Response> {
        self.attempts.fetch_add(1, Ordering::SeqCst);
        if self
            .failures
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |f| f.checked_sub(1))
            .is_ok()
        {
            return Err(if self.transient {
                mozart_core::Error::TaskPanicked {
                    stage: FaultPhase::Task,
                    payload: "flaky pipeline panic".into(),
                }
            } else {
                mozart_core::Error::Library("deterministic flaky failure".into())
            });
        }
        Ok(Response::new("ok"))
    }
}

fn flaky_service(
    failures: u64,
    transient: bool,
    max_retries: u32,
) -> (PipelineService, Arc<AtomicU64>) {
    let attempts = Arc::new(AtomicU64::new(0));
    let service = PipelineService::builder()
        .workers(1)
        .max_retries(max_retries)
        .retry_backoff_ms(1)
        .pipeline(Arc::new(FlakyPipeline {
            failures: AtomicU64::new(failures),
            attempts: attempts.clone(),
            transient,
        }))
        .build();
    (service, attempts)
}

#[test]
fn zero_deadline_sheds_before_admission_with_typed_error() {
    let service = small_service(1);
    let session = service.session();
    let req = Request::new().with("n", 512).with_deadline_ms(0);
    let err = session.call("black_scholes", &req).unwrap_err();
    assert_eq!(err, ServeError::DeadlineExceeded { deadline_ms: 0 });
    assert_eq!(err.kind(), "deadline_exceeded");
    let stats = service.stats();
    // Shed distinctly: not started, not saturation-rejected, not failed.
    assert_eq!(stats.deadline_shed, 1, "{stats:?}");
    assert_eq!(stats.started, 0);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.failed, 0);
    // The session stays usable.
    session
        .call("black_scholes", &Request::new().with("n", 512))
        .unwrap();
}

#[test]
fn deadlines_expire_while_queued_in_admission() {
    let started = Arc::new(AtomicU64::new(0));
    let release = Arc::new(Barrier::new(2));
    let service = PipelineService::builder()
        .workers(1)
        .max_inflight(1)
        .queue_depth(8)
        .pipeline(Arc::new(StallPipeline {
            started: started.clone(),
            release: release.clone(),
        }))
        .build();
    std::thread::scope(|s| {
        let svc = service.clone();
        let occupant = s.spawn(move || svc.session().call("stall", &Request::new()).unwrap());
        while started.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Per-request deadline: expires waiting for the occupied slot.
        let session = service.session();
        let err = session
            .call("stall", &Request::new().with_deadline_ms(30))
            .unwrap_err();
        assert_eq!(err, ServeError::DeadlineExceeded { deadline_ms: 30 });
        // Session default deadline: same shedding path, no per-request
        // annotation needed.
        let session = service.session();
        session.set_deadline(Some(Duration::from_millis(40)));
        let err = session.call("stall", &Request::new()).unwrap_err();
        assert_eq!(err, ServeError::DeadlineExceeded { deadline_ms: 40 });
        release.wait();
        assert_eq!(occupant.join().unwrap().body, "stalled");
    });
    let stats = service.stats();
    assert_eq!(stats.deadline_shed, 2, "{stats:?}");
    assert_eq!(stats.rejected, 0, "deadline sheds are not saturation");
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 0);
}

#[test]
fn transient_failures_retry_until_success() {
    let (service, attempts) = flaky_service(2, true, 2);
    let resp = service.session().call("flaky", &Request::new()).unwrap();
    assert_eq!(resp.body, "ok");
    assert_eq!(attempts.load(Ordering::SeqCst), 3, "2 failures + 1 success");
    let stats = service.stats();
    assert_eq!(stats.retries, 2, "{stats:?}");
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.started, 1, "retries run under one admission permit");
}

#[test]
fn retry_budget_exhaustion_surfaces_the_typed_error() {
    let (service, attempts) = flaky_service(10, true, 1);
    let err = service
        .session()
        .call("flaky", &Request::new())
        .unwrap_err();
    assert_eq!(err.kind(), "runtime");
    assert!(err.to_string().contains("flaky pipeline panic"), "{err}");
    assert_eq!(attempts.load(Ordering::SeqCst), 2, "1 try + 1 retry");
    let stats = service.stats();
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 0);
}

#[test]
fn deterministic_failures_never_retry() {
    let (service, attempts) = flaky_service(10, false, 3);
    let err = service
        .session()
        .call("flaky", &Request::new())
        .unwrap_err();
    assert_eq!(err.kind(), "runtime");
    assert_eq!(
        attempts.load(Ordering::SeqCst),
        1,
        "a deterministic error must not burn the retry budget"
    );
    assert_eq!(service.stats().retries, 0);
    assert_eq!(service.stats().failed, 1);
}

#[test]
fn injected_runtime_faults_retry_bit_identically() {
    // The fault plan rides the session config into the per-attempt
    // evaluation context: attempt 1 hits the injected task fault
    // (transient, whether an error or a panic), attempt 2 runs clean —
    // and the response must equal a fault-free service's, bit for bit.
    mozart_core::faultinject::silence_injected_panics();
    let want = {
        let reference = small_service(1);
        let session = reference.session();
        session
            .call("black_scholes", &Request::new().with("n", 2048))
            .unwrap()
    };
    for kind in [FaultKind::Error, FaultKind::Panic] {
        let mut cfg = Config::with_workers(1);
        cfg.batch_override = Some(512);
        cfg.fault_plan = Some(Arc::new(
            FaultPlan::new().point(FaultPoint::once(FaultPhase::Task, kind.clone())),
        ));
        let service = PipelineService::builder()
            .workers(1)
            .session_config(cfg)
            .coalescing(false)
            .max_retries(2)
            .retry_backoff_ms(1)
            .builtin_pipelines()
            .build();
        let resp = service
            .session()
            .call("black_scholes", &Request::new().with("n", 2048))
            .unwrap();
        assert_eq!(resp, want, "{kind:?}");
        let stats = service.stats();
        assert!(stats.retries >= 1, "{kind:?}: {stats:?}");
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 0);
    }
}

/// A fault inside a *coalesced* evaluation must not take the followers
/// down with the leader: with the retry budget at zero, the failed
/// batch degrades to per-member individual evaluation and every member
/// still gets its own bit-exact response.
#[test]
fn coalesced_batch_fault_degrades_to_individual_evaluation() {
    let started = Arc::new(AtomicU64::new(0));
    let release = Arc::new(Barrier::new(2));
    let mut cfg = Config::with_workers(1);
    cfg.batch_override = Some(512);
    cfg.fault_plan = Some(Arc::new(
        FaultPlan::new().point(FaultPoint::once(FaultPhase::Task, FaultKind::Error)),
    ));
    let service = PipelineService::builder()
        .workers(1)
        .max_inflight(1)
        .queue_depth(8)
        .max_retries(0) // force degradation, not batch retry
        .session_config(cfg)
        .builtin_pipelines()
        .pipeline(Arc::new(StallPipeline {
            started: started.clone(),
            release: release.clone(),
        }))
        .build();
    let reference = small_service(1);
    let req_a = Request::new().with("n", 2048).with("seed", 11u64);
    let req_b = Request::new().with("n", 2048).with("seed", 22u64);
    let want_a = reference.session().call("black_scholes", &req_a).unwrap();
    let want_b = reference.session().call("black_scholes", &req_b).unwrap();

    std::thread::scope(|s| {
        let svc = service.clone();
        let occupant = s.spawn(move || svc.session().call("stall", &Request::new()).unwrap());
        while started.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let svc = service.clone();
        let ra = req_a.clone();
        let leader = s.spawn(move || svc.session().call("black_scholes", &ra).unwrap());
        while service.stats().waiting == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let svc = service.clone();
        let rb = req_b.clone();
        let follower = s.spawn(move || svc.session().call("black_scholes", &rb).unwrap());
        while service.stats().coalesce_waiting == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        release.wait();
        occupant.join().unwrap();
        // The coalesced attempt hit the injected fault; both members
        // must still come back correct via individual evaluation.
        assert_eq!(leader.join().unwrap(), want_a);
        assert_eq!(follower.join().unwrap(), want_b);
    });
    let stats = service.stats();
    assert_eq!(stats.coalesced_requests, 1, "{stats:?}");
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.retries, 0);
}

#[test]
fn drain_rejects_new_work_and_waits_for_inflight() {
    // Idle service: drain completes immediately and closes admission.
    let service = small_service(1);
    assert!(!service.is_draining());
    assert!(service.drain(Duration::from_millis(100)));
    assert!(service.is_draining());
    let err = service
        .session()
        .call("black_scholes", &Request::new().with("n", 512))
        .unwrap_err();
    assert_eq!(err, ServeError::Draining);
    assert_eq!(err.kind(), "draining");
    let stats = service.stats();
    assert!(stats.draining);
    assert_eq!(stats.rejected, 1);

    // Busy service: drain reports false while work is in flight, lets
    // it finish, and a later drain observes the idle service.
    let started = Arc::new(AtomicU64::new(0));
    let release = Arc::new(Barrier::new(2));
    let service = PipelineService::builder()
        .workers(1)
        .max_inflight(1)
        .queue_depth(4)
        .pipeline(Arc::new(StallPipeline {
            started: started.clone(),
            release: release.clone(),
        }))
        .build();
    std::thread::scope(|s| {
        let svc = service.clone();
        let occupant = s.spawn(move || svc.session().call("stall", &Request::new()).unwrap());
        while started.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            !service.drain(Duration::from_millis(10)),
            "drain must not claim success with work in flight"
        );
        // New arrivals are turned away while the occupant drains out.
        let err = service
            .session()
            .call("stall", &Request::new())
            .unwrap_err();
        assert_eq!(err, ServeError::Draining);
        release.wait();
        // In-flight work completes despite the drain.
        assert_eq!(occupant.join().unwrap().body, "stalled");
    });
    assert!(service.drain(Duration::from_millis(500)));
    let stats = service.stats();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 0);
}

/// Multi-session fairness: 3 sessions with skewed demand (two hot
/// sessions driving two threads each, one cold single-threaded session
/// at weight 2) over one shared pool. Under deficit-weighted
/// round-robin no session starves, and the per-session accounting the
/// scheduler ranks by is visible in the pool stats.
#[test]
fn weighted_sessions_share_the_pool_without_starvation() {
    let mut cfg = Config::with_workers(2);
    cfg.batch_override = Some(256); // many batches per job
    let service = PipelineService::builder()
        .workers(2)
        .max_inflight(3)
        .queue_depth(16)
        .session_config(cfg)
        .coalescing(false) // measure scheduling, not request merging
        .builtin_pipelines()
        .build();
    let hot1 = Arc::new(service.session());
    let hot2 = Arc::new(service.session());
    let cold = Arc::new(service.session());
    cold.set_weight(2);

    let rounds = 6;
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (session, threads, seed) in [(&hot1, 2, 1u64), (&hot2, 2, 2), (&cold, 1, 3)] {
            for _ in 0..threads {
                let session = Arc::clone(session);
                let req = Request::new().with("n", 4096).with("seed", seed);
                handles.push(s.spawn(move || {
                    for _ in 0..rounds {
                        session.call("black_scholes", &req).unwrap();
                    }
                }));
            }
        }
        for h in handles {
            h.join().unwrap();
        }
    });

    let pool = service.stats().pool;
    let share = |id: u64| {
        pool.sessions
            .iter()
            .find(|e| e.session == id)
            .cloned()
            .unwrap_or_default()
    };
    let (e1, e2, ec) = (share(hot1.id()), share(hot2.id()), share(cold.id()));
    // Weights are recorded where the scheduler reads them.
    assert_eq!(ec.weight, 2, "{pool:?}");
    assert_eq!(e1.weight, 1);
    // No session starves: everyone's jobs ran batches on the pool.
    for e in [&e1, &e2, &ec] {
        assert!(e.jobs > 0 && e.batches > 0, "starved session: {pool:?}");
        assert!(e.bytes > 0, "byte accounting missing: {pool:?}");
    }
    // Convergence within (generous, CI-safe) tolerance: the cold
    // session is 1 of 5 closed-loop threads but holds weight 2 of 4 —
    // deficit-weighted scheduling must keep its share of served batches
    // from collapsing below half of an equal per-*thread* split.
    let total = (e1.batches + e2.batches + ec.batches) as f64;
    let cold_share = ec.batches as f64 / total;
    assert!(
        cold_share > 0.10,
        "cold session share {cold_share:.3} collapsed: {pool:?}"
    );
}

/// A pipeline with neither its own `run` nor a segment.
struct HollowPipeline;

impl Pipeline for HollowPipeline {
    fn name(&self) -> &'static str {
        "hollow"
    }
}

#[test]
fn a_pipeline_with_nothing_to_run_fails_typed() {
    let ctx = MozartContext::with_workers(1);
    let err = HollowPipeline.run(&ctx, &Request::new()).unwrap_err();
    assert!(
        matches!(&err, mozart_core::Error::Library(m) if m.contains("hollow")),
        "{err:?}"
    );
}
