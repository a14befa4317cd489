//! Serving gates read off wall time and scheduling shares: fair share
//! under deficit-weighted scheduling, overload at 2× the closed-loop
//! peak, and the circuit breaker's fast-fail and recovery.
//!
//! One test in this file, so that no sibling test shares the cores.
//! Run it in release: `cargo test --release -p mozart-serve --test gates`.
//! Every phase serves `black_scholes` at n = 4096 on 4 workers; the
//! closed loops are 3 clients × 10 requests.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mozart_core::{Config, FaultKind, FaultPhase, FaultPlan, FaultPoint, PoolStats};
use mozart_serve::{PipelineService, Request, ServeError};
use workloads::black_scholes as bs;

const WORKERS: usize = 4;
const CLIENTS: usize = 3;
const REQUESTS: usize = 10;
const N: usize = 4096;

/// The reply body of one `(N, seed)` black_scholes request.
fn reference_body(seed: u64) -> String {
    let s = bs::mkl_base(&bs::generate(N, seed));
    format!("call_sum={:.6} put_sum={:.6}", s.call_sum, s.put_sum)
}

fn request(seed: u64) -> Request {
    Request::new().with("n", N).with("seed", seed)
}

/// `WORKERS` workers and 8 batches per request, whatever the host's L2.
fn session_config() -> Config {
    let mut cfg = Config::with_workers(WORKERS);
    cfg.batch_override = Some((N as u64 / 8).max(1024));
    cfg
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wall-time gate; runs in the release CI leg"
)]
fn fair_share_overload_and_breaker_hold_their_bounds() {
    fair_share();
    overload();
    breaker();
}

/// 2 hot sessions (2 closed-loop threads each, weight 1) flood the
/// service while a cold session (1 thread, weight 2) runs 40 requests.
/// Over the cold session's window its share of worker-served batches
/// must be at least half its entitlement: its weight share (2 of 4),
/// capped by its share of all batches, since a closed loop cannot be
/// served batches it never submits.
fn fair_share() {
    let cold_requests = (REQUESTS * 4).clamp(40, 240);
    // Many scheduling decisions per request, so the shares reflect the
    // pick policy rather than a handful of coarse claims.
    let mut cfg = session_config();
    cfg.batch_override = Some(((N as u64) / 32).max(256));
    // Admission is FIFO by contract, so it must not be the bottleneck:
    // every evaluation runs at once and the pool picks whose batches to
    // serve.
    let service = PipelineService::builder()
        .workers(WORKERS)
        .max_inflight(8)
        .queue_depth(32)
        .session_config(cfg)
        .coalescing(false)
        .builtin_pipelines()
        .build();
    let (hot1, hot2, cold) = (service.session(), service.session(), service.session());
    cold.set_weight(2);
    let seeds = [11u64, 22, 33];
    let refs = seeds.map(reference_body);
    for (seed, want) in seeds.iter().zip(&refs) {
        let resp = hot1.call("black_scholes", &request(*seed)).unwrap();
        assert_eq!(&resp.body, want, "warmup checksum");
    }

    let stop = AtomicBool::new(false);
    let ok = AtomicBool::new(true);
    let before = service.stats().pool;
    let after = std::thread::scope(|s| {
        for (session, i) in [(&hot1, 0), (&hot1, 0), (&hot2, 1), (&hot2, 1)] {
            let (stop, ok, want, req) = (&stop, &ok, &refs[i], request(seeds[i]));
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match session.call("black_scholes", &req) {
                        Ok(resp) if resp.body != *want => ok.store(false, Ordering::Relaxed),
                        Ok(_) => {}
                        Err(e) => panic!("hot request failed: {e}"),
                    }
                }
            });
        }
        let req = request(seeds[2]);
        for _ in 0..cold_requests {
            let resp = cold.call("black_scholes", &req).unwrap();
            if resp.body != refs[2] {
                ok.store(false, Ordering::Relaxed);
            }
        }
        let after = service.stats().pool;
        stop.store(true, Ordering::Relaxed);
        after
    });

    // Batches served to a session over the cold window: (all, by workers).
    let delta = |id: u64| {
        let at = |stats: &PoolStats| {
            let s = stats.sessions.iter().find(|s| s.session == id);
            s.map_or((0, 0), |s| (s.batches, s.worker_batches))
        };
        let ((b0, w0), (b1, w1)) = (at(&before), at(&after));
        (b1 - b0, w1 - w0)
    };
    let deltas = [hot1.id(), hot2.id(), cold.id()].map(delta);
    let (all, by_workers) = deltas.iter().fold((0, 0), |(a, w), d| (a + d.0, w + d.1));
    let share = |part: u64, total: u64| (total > 0).then(|| part as f64 / total as f64);
    let demand_share = share(deltas[2].0, all).unwrap_or(0.0);
    // A host that drains every job on its callers has no worker-served
    // batches to divide; then the share is the demand share.
    let cold_share = share(deltas[2].1, by_workers).unwrap_or(demand_share);
    let entitled = 0.5f64.min(demand_share);
    assert!(
        cold_share >= entitled / 2.0,
        "cold session share {cold_share:.3} fell below half its entitled share {entitled:.3} under DRR"
    );
    assert!(
        ok.load(Ordering::Relaxed),
        "the fair-share run must produce reference-identical responses"
    );
}

/// The service's closed-loop peak goodput is measured, then a paced
/// open loop offers 2× that rate through `try_call`. The service runs
/// the one admission policy: a fixed limit (`max_inflight` at its
/// default, `workers`) and a bounded FIFO queue. Excess load must shed
/// with a typed error, admitted bodies must be bit-identical, and the
/// goodput must keep ≥ 70% of the peak.
fn overload() {
    let want = reference_body(42);
    let service = PipelineService::builder()
        .workers(WORKERS)
        .queue_depth(2 * CLIENTS)
        .session_config(session_config())
        .coalescing(false)
        .builtin_pipelines()
        .build();
    service
        .session()
        .call("black_scholes", &request(42))
        .unwrap();
    let sessions: Vec<_> = (0..CLIENTS).map(|_| service.session()).collect();
    let req = request(42);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for session in &sessions {
            let req = &req;
            s.spawn(move || {
                for _ in 0..REQUESTS {
                    session.call("black_scholes", req).unwrap();
                }
            });
        }
    });
    let peak_rps = (CLIENTS * REQUESTS) as f64 / t0.elapsed().as_secs_f64().max(1e-9);

    // 2 × CLIENTS paced threads offer REQUESTS each: 60 requests, above
    // the 40 the goodput bound needs.
    let (threads, offered) = (2 * CLIENTS, (2 * CLIENTS * REQUESTS) as u64);
    const _: () = assert!(2 * CLIENTS * REQUESTS >= 40);
    let interval = Duration::from_secs_f64(threads as f64 / (2.0 * peak_rps).max(1.0));
    let (admitted, shed, ok) = (AtomicU64::new(0), AtomicU64::new(0), AtomicBool::new(true));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            let session = service.session();
            let (admitted, shed, ok, want, req) = (&admitted, &shed, &ok, &want, request(42));
            // Each thread keeps its own due times, so a slow admitted
            // call never holds the offered rate back.
            s.spawn(move || {
                let start = Instant::now();
                for i in 0..REQUESTS {
                    let due = start + interval.mul_f64(i as f64);
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                    match session.try_call("black_scholes", &req) {
                        Ok(resp) => {
                            admitted.fetch_add(1, Ordering::Relaxed);
                            if resp.body != *want {
                                ok.store(false, Ordering::Relaxed);
                            }
                        }
                        Err(ServeError::Saturated { .. } | ServeError::OverMemory { .. }) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("overload shed must be typed, got {e}"),
                    }
                }
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
    let (admitted, shed) = (admitted.into_inner(), shed.into_inner());
    assert!(
        ok.into_inner(),
        "admitted responses must be bit-identical to the reference"
    );
    assert!(admitted > 0, "overload starved every request");
    assert_eq!(
        admitted + shed,
        offered,
        "every offered request must be admitted or typed-shed"
    );
    let goodput = admitted as f64 / elapsed;
    assert!(
        goodput / peak_rps.max(1e-9) >= 0.70,
        "overload goodput {goodput:.1} req/s fell below 70% of the {peak_rps:.1} req/s peak"
    );
}

fn median(mut lat: Vec<Duration>) -> Duration {
    lat.sort_unstable();
    lat[lat.len() / 2]
}

/// A fault budget equal to the threshold opens the black_scholes
/// breaker. Open-state calls must fast-fail ≥ 5× under the healthy
/// evaluation latency, and once the faults clear the pipeline must
/// recover in exactly one half-open probe.
fn breaker() {
    const THRESHOLD: u32 = 4;
    let cooldown = Duration::from_millis(250);
    let mut cfg = session_config();
    // One batch per call: concurrent batches would race for the fault
    // budget, so each injected error aborts its evaluation at the first
    // check and spends exactly one budget point.
    cfg.batch_override = Some((N as u64).max(1));
    cfg.fault_plan = Some(Arc::new(FaultPlan::new().point(
        FaultPoint::once(FaultPhase::Task, FaultKind::Error).times(THRESHOLD as u64),
    )));
    let service = PipelineService::builder()
        .workers(WORKERS)
        .session_config(cfg)
        // No retries: THRESHOLD calls open the breaker deterministically.
        .max_retries(0)
        .coalescing(false)
        .breaker(THRESHOLD, cooldown)
        .builtin_pipelines()
        .build();
    let session = service.session();
    let req = request(42);
    let want = reference_body(42);

    for i in 0..THRESHOLD {
        let err = session.call("black_scholes", &req).unwrap_err();
        assert!(err.is_transient(), "call {i}: {err}");
    }
    assert_eq!(
        service.breaker_states().first().map(|s| s.1),
        Some("open"),
        "breaker must open after {THRESHOLD} consecutive transient failures"
    );

    // All 32 finish well inside the cooldown, so none becomes the probe.
    let fastfail: Vec<_> = (0..32)
        .map(|_| {
            let t = Instant::now();
            let err = session.call("black_scholes", &req).unwrap_err();
            assert_eq!(err.kind(), "circuit_open", "{err}");
            t.elapsed()
        })
        .collect();
    assert_eq!(
        service.stats().breaker_shed,
        32,
        "every open-state call must shed through the breaker"
    );

    std::thread::sleep(cooldown + Duration::from_millis(50));
    let probe = session.call("black_scholes", &req);
    assert!(
        matches!(&probe, Ok(resp) if resp.body == want),
        "the first half-open probe after the faults clear must succeed"
    );
    assert_eq!(
        service.breaker_states().first().map(|s| s.1),
        Some("closed"),
        "one successful probe must close the breaker"
    );

    let eval: Vec<_> = (0..16)
        .map(|_| {
            let t = Instant::now();
            let resp = session.call("black_scholes", &req).unwrap();
            assert_eq!(
                resp.body, want,
                "healthy responses must match the reference"
            );
            t.elapsed()
        })
        .collect();
    let (fastfail, eval) = (median(fastfail), median(eval));
    let ratio = eval.as_secs_f64() / fastfail.as_secs_f64().max(1e-9);
    assert!(
        ratio >= 5.0,
        "open-breaker fast-fail ({:.1}us) must be well under evaluation latency ({:.1}us)",
        fastfail.as_secs_f64() * 1e6,
        eval.as_secs_f64() * 1e6
    );
}
