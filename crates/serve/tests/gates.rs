//! Serving gates read off wall time: overload at 2× the closed-loop
//! peak, and the circuit breaker's fast-fail and recovery.
//!
//! One test in this file, so that no sibling test shares the cores.
//! Run it in release: `cargo test --release -p mozart-serve --test gates`.
//! Every phase serves `black_scholes` at n = 4096 on 4 workers; the
//! closed loops are 3 clients × 30 requests.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mozart_core::{Config, FaultKind, FaultPhase, FaultPlan, FaultPoint};
use mozart_serve::{PipelineService, Request, ServeError};
use workloads::black_scholes as bs;

const WORKERS: usize = 4;
const CLIENTS: usize = 3;
const REQUESTS: usize = 30;
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
fn overload_and_breaker_hold_their_bounds() {
    overload();
    breaker();
}

/// The service's closed-loop peak goodput is measured, and a paced
/// open loop offers 2× that rate through `try_call`. The service runs
/// the one admission policy: a fixed limit (`max_inflight` at its
/// default, `workers`) and a bounded FIFO queue. Excess load must shed
/// with a typed error, admitted bodies must be bit-identical, and the
/// goodput must keep ≥ 70% of the peak.
///
/// The two loops alternate in `SLICES` short rounds, each open slice
/// paced off the peak pooled so far, and the bound compares the pooled
/// goodput to the pooled peak: both sides sample the same stretch of
/// the host's time, so a slow stretch weighs on both instead of on the
/// one loop that ran during it.
fn overload() {
    const SLICES: usize = 5;
    const PER_SLICE: usize = REQUESTS / SLICES;
    const _: () = assert!(PER_SLICE * SLICES == REQUESTS);
    // 2 × CLIENTS paced threads offer REQUESTS each: 180 requests, above
    // the 40 the goodput bound needs. Each slice runs PER_SLICE = 6
    // requests per thread, so a stall of a few milliseconds is a small
    // share of every measured window.
    const THREADS: usize = 2 * CLIENTS;
    const _: () = assert!(THREADS * REQUESTS >= 40);
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
    let closed: Vec<_> = (0..CLIENTS).map(|_| service.session()).collect();
    let open: Vec<_> = (0..THREADS).map(|_| service.session()).collect();
    let req = request(42);
    let (admitted, shed, ok) = (AtomicU64::new(0), AtomicU64::new(0), AtomicBool::new(true));
    let (mut closed_s, mut open_s) = (0.0, 0.0);
    for slice in 1..=SLICES {
        closed_s += timed(CLIENTS, |t| {
            for _ in 0..PER_SLICE {
                closed[t].call("black_scholes", &req).unwrap();
            }
        });
        let peak_rps = (CLIENTS * PER_SLICE * slice) as f64 / closed_s.max(1e-9);

        let interval = Duration::from_secs_f64(THREADS as f64 / (2.0 * peak_rps).max(1.0));
        open_s += timed(THREADS, |t| {
            // Each thread keeps its own due times, so a slow admitted
            // call never holds the offered rate back.
            let start = Instant::now();
            for i in 0..PER_SLICE {
                let due = start + interval.mul_f64(i as f64);
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                match open[t].try_call("black_scholes", &req) {
                    Ok(resp) => {
                        admitted.fetch_add(1, Ordering::Relaxed);
                        if resp.body != want {
                            ok.store(false, Ordering::Relaxed);
                        }
                    }
                    Err(ServeError::Saturated { .. }) => {
                        shed.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => panic!("overload shed must be typed, got {e}"),
                }
            }
        });
    }
    let (admitted, shed) = (admitted.into_inner(), shed.into_inner());
    assert!(
        ok.into_inner(),
        "admitted responses must be bit-identical to the reference"
    );
    assert!(admitted > 0, "overload starved every request");
    assert_eq!(
        admitted + shed,
        (THREADS * REQUESTS) as u64,
        "every offered request must be admitted or typed-shed"
    );
    let peak_rps = (CLIENTS * REQUESTS) as f64 / closed_s.max(1e-9);
    let goodput = admitted as f64 / open_s.max(1e-9);
    let ratio = goodput / peak_rps.max(1e-9);
    println!("overload: goodput {goodput:.1} req/s, peak {peak_rps:.1} req/s, ratio {ratio:.3}");
    assert!(
        ratio >= 0.70,
        "overload goodput {goodput:.1} req/s fell below 70% of the {peak_rps:.1} req/s peak"
    );
}

/// Run `body(t)` for `t` in `0..threads` on scoped threads and return
/// the seconds from the first spawn to the last thread's return.
fn timed(threads: usize, body: impl Fn(usize) + Sync) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let body = &body;
            s.spawn(move || body(t));
        }
    });
    t0.elapsed().as_secs_f64()
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
